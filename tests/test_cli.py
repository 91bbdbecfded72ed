import contextlib
import io
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lazyfst.cache import load_public_cache
from lazyfst.cli import main
from lazyfst.errors import BuildError
from lazyfst.harness import (build_graphs, decode_config, load_config,
                             precompose_cache, run_bench, scores_for)
from lazyfst.replace import bridge_states
from test_cache import rechecksum
from test_opcount import load_paper_table
from lazyfst.deskdata import write_desk_data


@pytest.fixture(scope="module")
def mini_config(desk_root, desk_build, tmp_path_factory):
    """Config identical to desk.json but restricted to u05's utterances,
    with a small warm-up budget, so CLI round trips stay quick."""
    out = tmp_path_factory.mktemp("cli")
    cfg = json.loads((desk_root / "desk.json").read_text())
    data_dir = desk_root / "data" / "desk"
    kept = [json.dumps(u) for u in desk_build.utterances if u["user"] == "u05"]
    (data_dir / "u05-utterances.jsonl").write_text("\n".join(kept) + "\n")
    cfg["utterances"] = "u05-utterances.jsonl"
    cfg["warmup_count"] = 5
    cfg["data_dir"] = str(data_dir)
    cfg["out_dir"] = str(out / "build")
    path = out / "mini.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture(scope="module")
def warm_dump(mini_config, tmp_path_factory):
    """A warm-up cache dump of mini_config, written by the CLI."""
    dump = tmp_path_factory.mktemp("dump") / "warm.txt"
    assert main(["precompose", "--config", str(mini_config),
                 "--method", "warmup", "--out", str(dump)]) == 0
    return dump


class TestUsageErrors:
    def test_no_command(self, capsys):
        assert main([]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["stats"]) == 1

    def test_bad_method_choice(self, mini_config, capsys):
        assert main(["bench", "--config", str(mini_config),
                     "--method", "magic"]) == 1

    def test_bad_session_length(self, mini_config, capsys):
        assert main(["bench", "--config", str(mini_config),
                     "--session-length", "3"]) == 1


class TestDataErrors:
    @pytest.mark.parametrize("command, method", [
        ("precompose", ["--method", "none"]),
        ("precompose", ["--method", "warmup"]),
        ("decode", []), ("decode", ["--method", "warmup"]),
        ("bench", []), ("bench", ["--method", "none"])])
    def test_bfs_depth_without_bfs_exits_2(self, mini_config, tmp_path,
                                           command, method, capsys):
        out = {"precompose": ["--out", str(tmp_path / "out")],
               "bench": ["--report", str(tmp_path / "out")]}.get(command, [])
        assert main([command, "--config", str(mini_config), *method,
                     "--bfs-depth", "3", *out]) == 2
        assert "--bfs-depth" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, flags", [
        ("build", ["--out", "OUT"]), ("stats", []),
        ("score", ["--report", "OUT"]),
        ("precompose", ["--method", "none", "--out", "OUT"]),
        ("precompose", ["--method", "bfs", "--out", "OUT"])],
        ids=["build", "stats", "score", "precompose-none", "precompose-bfs"])
    def test_seed_where_no_score_is_simulated_exits_2(
            self, mini_config, tmp_path, command, flags, capsys):
        flags = [str(tmp_path / "out") if f == "OUT" else f for f in flags]
        assert main(["--seed", "5", command, "--config", str(mini_config),
                     *flags]) == 2
        err = capsys.readouterr().err
        assert "--seed" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_seed_where_warm_up_simulates_scores(self, mini_config, tmp_path,
                                                 capsys):
        dumps = []
        for seed in ("5", "6"):
            dumps.append(tmp_path / f"warm{seed}.txt")
            assert main(["--seed", seed, "precompose", "--config",
                         str(mini_config), "--method", "warmup",
                         "--out", str(dumps[-1])]) == 0
        assert dumps[0].read_text() != dumps[1].read_text()

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["stats", "--config", str(tmp_path / "nope.json")]) == 2

    def test_unknown_utterance_exits_2(self, mini_config, capsys):
        assert main(["decode", "--config", str(mini_config),
                     "--utt", "no-such-id"]) == 2

    @pytest.mark.parametrize("user", ["nobody", "u01"],
                             ids=["unknown-user", "user-without-utterances"])
    def test_decode_user_without_utterances_exits_2(self, user, mini_config,
                                                    capsys):
        assert main(["decode", "--config", str(mini_config),
                     "--user", user]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert repr(user) in err

    def test_decode_utterance_of_another_user_exits_2(self, desk_root,
                                                      capsys):
        assert main(["decode", "--config", str(desk_root / "desk.json"),
                     "--utt", "u01-s1-t1", "--user", "u05"]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "'u01-s1-t1'" in err and "'u01'" in err and "'u05'" in err

    def test_decode_without_utterances_exits_2(self, tmp_path, capsys):
        cfg = write_desk_data(tmp_path)
        (tmp_path / "data" / "desk" / cfg["utterances"]).write_text("")
        assert main(["decode", "--config", str(tmp_path / "desk.json")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"{cfg['utterances']} holds no utterance" in err

    def test_unreadable_report_exits_2(self, mini_config, tmp_path, capsys):
        assert main(["score", "--config", str(mini_config),
                     "--report", str(tmp_path / "missing.json")]) == 2

    @pytest.mark.parametrize("field, value", [
        ("beam", "10"), ("beam", 0), ("max_active", 2.5), ("margin", "4"),
        ("margin", None), ("noise", -1.0), ("noise", "0.25"),
        ("frames_per_phone", 0), ("frames_per_phone", 1.5),
        ("frames_per_phone", True), ("frame_seconds", 0),
        ("frame_seconds", "0.01")])
    def test_bad_decode_setting_exits_2(self, field, value, tmp_path, capsys):
        write_desk_data(tmp_path)
        path = tmp_path / "desk.json"
        cfg = json.loads(path.read_text())
        cfg[field] = value
        path.write_text(json.dumps(cfg))
        assert main(["decode", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert field in err

    @pytest.mark.parametrize("field, value", [
        ("bfs_depth", "5"), ("bfs_depth", 2.5),
        ("state_budget", "x"), ("state_budget", True),
        ("warmup_count", "x"), ("warmup_count", -5), ("seed", "x"),
        ("seed", 1.5), ("sil_penalty", "x"), ("sil_penalty", -0.5),
        ("backoff_penalty", -1), ("backoff_penalty", float("inf")),
        ("class", 5), ("class", "call"), ("class", None),
        ("class", ["@contact"]), ("class", {"@contact": 1})])
    def test_bad_precompose_setting_exits_2(self, field, value, tmp_path,
                                            capsys):
        write_desk_data(tmp_path)
        path = tmp_path / "desk.json"
        cfg = json.loads(path.read_text())
        cfg[field] = value
        path.write_text(json.dumps(cfg))
        assert main(["precompose", "--config", str(path), "--method", "both",
                     "--out", str(tmp_path / "cache.txt")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert field in err

    @pytest.mark.parametrize("row", [
        {"id": "bad-1", "user": "u05", "words": ["hello"], "seed": 1},
        {"id": "bad-2", "user": "u05", "words": "hello", "phones": ["hh"],
         "seed": 1},
        {"id": "bad-3", "user": "nobody", "words": ["hello"],
         "phones": ["hh"], "seed": 1},
        "not json {",
        {"id": "bad-4", "user": "u05", "words": ["hello"], "phones": ["hh"],
         "seed": True},
        {"id": "u01-s1-t1", "user": "u01", "words": ["call", "mom"],
         "phones": ["k", "aa", "l"], "seed": 1},
        {"id": "bad-5", "user": "u05", "words": ["hello"], "phones": [],
         "seed": 1},
    ], ids=["no-phones", "words-not-list", "unknown-user", "bad-json",
            "bool-seed", "repeated-id", "empty-phones"])
    def test_malformed_utterance_row_exits_2(self, row, tmp_path, capsys):
        cfg = write_desk_data(tmp_path)
        path = tmp_path / "data" / "desk" / cfg["utterances"]
        line = row if isinstance(row, str) else json.dumps(row)
        path.write_text(path.read_text() + line + "\n")
        assert main(["decode", "--config", str(tmp_path / "desk.json")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"{cfg['utterances']}:201" in err


def desk_copy(tmp_path, field=None, value=None) -> tuple[Path, dict]:
    """A fresh desk dataset under tmp_path, its config's `field` set to
    `value` when one is given; the config's path and dict."""
    cfg = write_desk_data(tmp_path)
    path = tmp_path / "desk.json"
    if field is not None:
        cfg[field] = value
        path.write_text(json.dumps(cfg))
    return path, cfg


class TestInputShapes:
    """Config, users.json and report files of the wrong shape exit 2 with
    a message naming the file or field, never with a traceback."""

    def run(self, argv, capsys, *names) -> str:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        for name in names:
            assert name in err
        return err

    @pytest.mark.parametrize("text", [
        '["ana", "jon"]', "{", "", '{"u01": "abc"}', '{"u01": ["ana", 5]}',
    ], ids=["list", "bad-json", "empty", "string-contacts", "int-contact"])
    def test_bad_users_json(self, text, tmp_path, capsys):
        path, cfg = desk_copy(tmp_path)
        (Path(cfg["data_dir"]) / cfg["users"]).write_text(text)
        err = self.run(["stats", "--config", str(path)], capsys, "users.json")
        assert "unknown contacts" not in err

    def test_user_with_empty_contact_list(self, tmp_path, capsys):
        path, cfg = desk_copy(tmp_path)
        users_path = Path(cfg["data_dir"]) / cfg["users"]
        users = json.loads(users_path.read_text())
        users["u03"] = []
        users_path.write_text(json.dumps(users))
        self.run(["stats", "--config", str(path)], capsys,
                 "users.json", "u03", "empty contact list")

    @pytest.mark.parametrize("field", ["data_dir", "lexicon", "users"])
    @pytest.mark.parametrize("value", [5, None, ["lexicon.txt"], "a\0b"])
    def test_path_field_must_be_a_string(self, field, value, tmp_path,
                                         capsys):
        path, _ = desk_copy(tmp_path, field, value)
        self.run(["stats", "--config", str(path)], capsys, field)

    def test_config_not_utf8(self, tmp_path, capsys):
        path, _ = desk_copy(tmp_path)
        path.write_bytes(b"\xff" + path.read_bytes())
        self.run(["stats", "--config", str(path)], capsys, str(path))

    @pytest.mark.parametrize("name", ["lexicon", "users", "utterances"])
    def test_data_file_not_utf8(self, name, tmp_path, capsys):
        path, cfg = desk_copy(tmp_path)
        data_file = Path(cfg["data_dir"]) / cfg[name]
        data_file.write_bytes(data_file.read_bytes() + b"\xfe\xff\n")
        self.run(["stats", "--config", str(path)], capsys, str(data_file))

    @pytest.mark.parametrize("user", ["", ".", "..", "../../escaped", "a\0b"],
                             ids=["empty", "dot", "dotdot", "slash", "nul"])
    def test_user_id_that_cannot_be_a_file_name(self, user, tmp_path,
                                                capsys):
        # build writes contacts/<user>.fst.txt for every user
        path, cfg = desk_copy(tmp_path)
        users_file = Path(cfg["data_dir"]) / cfg["users"]
        users = json.loads(users_file.read_text())
        users[user] = users["u01"]
        users_file.write_text(json.dumps(users))
        self.run(["build", "--config", str(path),
                  "--out", str(tmp_path / "out" / "a")], capsys,
                 "users.json", repr(user))
        # build makes its output directory first, and writes no file there
        assert [p for p in (tmp_path / "out").rglob("*") if not p.is_dir()] \
            == []

    def test_path_field_naming_a_directory(self, tmp_path, capsys):
        path, cfg = desk_copy(tmp_path, "lexicon", "")
        self.run(["stats", "--config", str(path)], capsys, cfg["data_dir"])

    @pytest.mark.parametrize("report", [
        [], {"hypotheses": []}, {"hypotheses": {"u05-s1-t1": 5}},
        {"hypotheses": {"u05-s1-t1": "call ana"}},
        {"hypotheses": {"u05-s1-t1": ["call", 5]}}, {},
    ], ids=["list", "hypotheses-list", "int-hypothesis",
            "string-hypothesis", "int-word", "no-hypotheses"])
    def test_bad_report_shape(self, report, mini_config, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        self.run(["score", "--config", str(mini_config), "--report",
                  str(path)], capsys, str(path))

    @pytest.mark.parametrize("row", [
        [1, 2], {"name": ["ana"], "pronunciations": [["aa", "n", "ah"]]},
        {"name": "kel", "pronunciations": ["k", "l"]},
        {"name": "kel", "pronunciations": "k"},
        {"name": "ana", "pronunciations": [["k", "l"]]},
        {"name": "kel", "pronunciations": [["call"]]},
        {"name": "kel", "pronunciations": [["k", "eh", "l"], ["@contact"]]},
    ], ids=["list-row", "list-name", "string-pronunciations",
            "string-pronunciation", "repeated-name", "word-symbol",
            "class-symbol"])
    def test_bad_contact_row(self, row, tmp_path, capsys):
        path, cfg = desk_copy(tmp_path)
        contacts = Path(cfg["data_dir"]) / cfg["contacts"]
        rows = contacts.read_text().splitlines() + [json.dumps(row)]
        contacts.write_text("\n".join(rows) + "\n")
        self.run(["stats", "--config", str(path)], capsys,
                 f"{contacts}:{len(rows)}")

    def test_classes_list_without_class(self, tmp_path, capsys):
        path, cfg = desk_copy(tmp_path)
        cfg["classes"] = [cfg.pop("class")]
        path.write_text(json.dumps(cfg))
        self.run(["stats", "--config", str(path)], capsys, "lacks 'class'")

    def test_lexicon_line_naming_eps(self, tmp_path, capsys):
        # "<eps>" is label 0 in every symbol table, never a word or phone
        path, cfg = desk_copy(tmp_path)
        lexicon = Path(cfg["data_dir"]) / cfg["lexicon"]
        rows = lexicon.read_text().splitlines() + ["zz\t<eps>"]
        lexicon.write_text("\n".join(rows) + "\n")
        self.run(["stats", "--config", str(path)], capsys,
                 f"{lexicon}:{len(rows)}", "'<eps>'")

    def test_report_not_utf8(self, mini_config, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_bytes(b'{"hypotheses": {"\xff": []}}')
        self.run(["score", "--config", str(mini_config), "--report",
                  str(path)], capsys, str(path))


class TestOutputPaths:
    """An output path that cannot be written exits 2 and names the path
    or the field, never with a traceback."""

    def run(self, argv, capsys, name):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert name in err

    @pytest.mark.parametrize("command", ["build", "precompose"])
    @pytest.mark.parametrize("value", [5, None, "a\0b"])
    def test_out_dir_must_be_a_string(self, command, value, mini_config,
                                      tmp_path, capsys):
        cfg = json.loads(mini_config.read_text())
        cfg["out_dir"] = value
        path = tmp_path / "mini.json"
        path.write_text(json.dumps(cfg))
        self.run([command, "--config", str(path)], capsys, "out_dir")

    @pytest.mark.parametrize("command, flag, target", [
        ("precompose", "--out", "nodir/x/cache.txt"),
        ("precompose", "--out", "."),
        ("bench", "--report", "nodir/report.json"),
        ("build", "--out", "file.txt"),
    ], ids=["precompose-missing-dir", "precompose-directory",
            "bench-missing-dir", "build-file"])
    def test_unwritable_path_exits_2(self, command, flag, target,
                                     mini_config, tmp_path, capsys):
        (tmp_path / "file.txt").write_text("")
        out = str(tmp_path / target)
        self.run([command, "--config", str(mini_config), flag, out], capsys,
                 out)

    @pytest.mark.parametrize("command, flag, work", [
        ("precompose", "--out", "precompose_cache"),
        ("bench", "--report", "run_bench")])
    @pytest.mark.parametrize("target", ["nodir/out.json", "."],
                             ids=["missing-dir", "directory"])
    def test_output_path_is_checked_before_the_work(
            self, command, flag, work, target, mini_config, tmp_path,
            capsys, monkeypatch):
        def no_work(*args, **kwargs):
            pytest.fail(f"{work} ran before {flag} was checked")
        monkeypatch.setattr(f"lazyfst.cli.{work}", no_work)
        out = str(tmp_path / target)
        self.run([command, "--config", str(mini_config), flag, out], capsys,
                 out)

    @pytest.mark.parametrize("command, flag", [
        ("precompose", []), ("build", []), ("build", ["--out"])],
        ids=["precompose-out-dir", "build-out-dir", "build-out"])
    def test_output_directory_is_made_before_the_work(
            self, command, flag, mini_config, tmp_path, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            pytest.fail("build_graphs ran before the output directory "
                        "was checked")
        monkeypatch.setattr("lazyfst.cli.build_graphs", no_work)
        (tmp_path / "afile").write_text("")
        under_a_file = str(tmp_path / "afile" / "sub")
        cfg = json.loads(mini_config.read_text())
        if flag:
            flag = [*flag, under_a_file]
        else:
            cfg["out_dir"] = under_a_file
        path = tmp_path / "mini.json"
        path.write_text(json.dumps(cfg))
        self.run([command, "--config", str(path), *flag], capsys, "afile")

    def test_precompose_writes_no_dump_before_the_work(
            self, mini_config, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise BuildError("no graphs")
        monkeypatch.setattr("lazyfst.cli.build_graphs", fail)
        cfg = json.loads(mini_config.read_text())
        cfg["out_dir"] = str(tmp_path / "made")
        path = tmp_path / "mini.json"
        path.write_text(json.dumps(cfg))
        self.run(["precompose", "--config", str(path)], capsys, "no graphs")
        assert not (tmp_path / "made").exists()

    @pytest.mark.parametrize("command, flag", [
        ("build", ["--out"]), ("build", []), ("precompose", [])],
        ids=["build-out", "build-out-dir", "precompose-out-dir"])
    def test_failed_build_leaves_no_output_directory(self, command, flag,
                                                     tmp_path, capsys):
        path, cfg = desk_copy(tmp_path)
        lexicon = Path(cfg["data_dir"]) / cfg["lexicon"]
        rows = lexicon.read_text().splitlines() + ["notab"]
        lexicon.write_text("\n".join(rows) + "\n")
        made = tmp_path / "out" / "x"
        if flag:
            flag = [*flag, str(made)]
        else:
            cfg["out_dir"] = str(made)
            path.write_text(json.dumps(cfg))
        self.run([command, "--config", str(path), *flag], capsys,
                 f"{lexicon}:{len(rows)}")
        assert not (tmp_path / "out").exists()


class TestFullBenchScript:
    """scripts/paper_table.py, the full desk sweep, exits like the CLI: a
    data or config error is one line on stderr and exit 2, and a bad
    config value is caught before any graph is built.  Its cells count
    what run_bench counts."""

    @pytest.fixture(scope="class")
    def paper_table(self):
        return load_paper_table()

    def test_missing_config_exits_2(self, paper_table, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        assert paper_table.main(["--config", missing]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and missing in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("field, value", [
        ("beam", 0), ("max_active", 0.5), ("class", ["@contact"])],
        ids=["beam", "max_active", "class"])
    def test_bad_config_builds_no_graph(self, paper_table, mini_config,
                                        tmp_path, capsys, monkeypatch,
                                        field, value):
        called = []
        monkeypatch.setitem(paper_table.run.__globals__, "build_graphs",
                            lambda *a, **k: called.append(a))
        cfg = json.loads(mini_config.read_text())
        cfg[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert paper_table.main(["--config", str(path)]) == 2
        assert called == []
        err = capsys.readouterr().err
        assert field in err and len(err.splitlines()) == 1

    def test_cells_count_what_run_bench_counts(self, paper_table, mini_config):
        cfg = load_config(mini_config)
        build = build_graphs(cfg)
        dec_cfg = decode_config(cfg)
        scores = {u["id"]: scores_for(build, cfg, u) for u in build.utterances}
        for method, session, length, passes in paper_table.CELLS:
            cache, _ = precompose_cache(build, cfg, method)
            hyps, counts = paper_table.decode_pass(
                cache, paper_table.sessions_of(build, scores, length),
                dec_cfg, paper_table.Clock(), passes)
            report = run_bench(cfg, method, length or len(build.utterances),
                               build)
            assert [h.words for h in hyps] == list(
                report["hypotheses"].values())
            totals = report["totals"]
            if passes == 1:
                assert counts == (totals["otf_expansions"],
                                  totals["public_hits"], totals["private_hits"])
            else:
                # a rerun expands nothing, and its closures return the
                # states of the first pass, the public ones among them
                assert counts[:2] == (0, totals["public_hits"])


# JSON values of every type, for replacing a value with one of another
JSON_VALUES = (5, 1.5, True, None, "x", [], ["x"], {}, {"x": ["y"]})


def retype(value, data):
    """`value` with itself, or one value nested in it, replaced by a JSON
    value of another type."""
    if isinstance(value, (dict, list)) and value and data.draw(st.booleans()):
        out = dict(value) if isinstance(value, dict) else list(value)
        at = data.draw(st.sampled_from(sorted(out) if isinstance(out, dict)
                                       else range(len(out))))
        out[at] = retype(out[at], data)
        return out
    return data.draw(st.sampled_from(
        [v for v in JSON_VALUES if type(v) is not type(value)]))


def damage(text: str, how: str, data) -> bytes:
    """`text` as UTF-8, cut short, not UTF-8, or empty."""
    raw = text.encode()
    if how == "empty":
        return b""
    cut = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
    if how == "truncate":
        return raw[:cut]
    return raw[:cut] + b"\xff" + raw[cut:]


def mutate(value, how: str, data) -> bytes:
    """`value` as JSON text, mutated one way: the wrong JSON type
    somewhere in it, cut short, not UTF-8, or empty."""
    if how == "type":
        return json.dumps(retype(value, data)).encode()
    return damage(json.dumps(value), how, data)


# What a swapped token of lexicon.txt or corpus.txt becomes: the epsilon
# symbol, the class label, or a word no other line names
SWAPS = ("<eps>", "@contact", "zzunknown")


def mutate_line(line: str, how: str, data) -> bytes:
    """One line of a text data file, mutated one way: one token swapped
    for one of SWAPS, cut short, not UTF-8, or empty."""
    if how != "type":
        return damage(line, how, data)
    parts = re.split(r"(\s+)", line)   # tokens at the even indices
    at = data.draw(st.sampled_from(range(0, len(parts), 2)))
    parts[at] = data.draw(st.sampled_from(SWAPS))
    return "".join(parts).encode()


def jsonl_rows(path: Path) -> list:
    """The rows of a JSON-lines file."""
    return [json.loads(line) for line in path.read_text().splitlines()]


@pytest.fixture(scope="module")
def sweep_inputs(tmp_path_factory, desk_build):
    """A desk dataset and its config, with the values of the files the
    sweep mutates: users.json, the rows of contacts.jsonl and of
    utterances.jsonl, the lines of lexicon.txt and of corpus.txt, and a
    report of the first utterances."""
    root = tmp_path_factory.mktemp("sweep")
    cfg = write_desk_data(root)
    data_dir = Path(cfg["data_dir"])
    report = {"hypotheses": {utt["id"]: utt["words"]
                             for utt in desk_build.utterances[:5]}}
    values = {"users": desk_build.users,
              "contacts": jsonl_rows(data_dir / cfg["contacts"]),
              "utterances": jsonl_rows(data_dir / cfg["utterances"]),
              "lexicon": (data_dir / cfg["lexicon"]).read_text().splitlines(),
              "corpus": (data_dir / cfg["corpus"]).read_text().splitlines(),
              "report": report}
    return root, cfg, values


class TestInputSweep:
    """One config field, users.json, one row of contacts.jsonl or of
    utterances.jsonl, one line of lexicon.txt or of corpus.txt, or the
    report mutated one way: every command exits 0 or 2, never with a
    traceback.  build writes to the config's out_dir, a directory of the
    sweep's own."""

    PLACEHOLDER = "@mutated@"
    COMMANDS = ["stats", "decode", "precompose", "score", "build", "bench"]
    FILES = ["users", "contacts", "utterances", "lexicon", "corpus"]

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_one_mutation_exits_0_or_2(self, sweep_inputs, data):
        root, cfg, values = sweep_inputs
        command = data.draw(st.sampled_from(self.COMMANDS))
        if command == "bench":   # a handful of utterances keeps it quick
            values = dict(values, utterances=values["utterances"][:4])
        # a config field about half the time, else one of the files
        target = data.draw(st.one_of(st.just("config"), st.sampled_from(
            self.FILES + (["report"] if command == "score" else []))))
        how = data.draw(st.sampled_from(["type", "truncate", "not-utf8",
                                         "empty"]))
        data_dir = Path(cfg["data_dir"])
        paths = {name: data_dir / f"sweep-{cfg[name]}" for name in self.FILES}
        paths["report"] = root / "sweep-report.json"
        cfg = dict(cfg, out_dir=str(root / "sweep-out"),
                   **{name: paths[name].name for name in self.FILES})
        files = {}
        for name, value in values.items():
            if name in ("contacts", "utterances", "lexicon", "corpus"):
                text = name in ("lexicon", "corpus")
                rows = [(row if text else json.dumps(row)).encode()
                        for row in value]
                if target == name:
                    at = data.draw(st.integers(0, len(rows) - 1))
                    rows[at] = (mutate_line if text else mutate)(
                        value[at], how, data)
                files[name] = b"".join(row + b"\n" for row in rows)
            elif target == name:
                files[name] = mutate(value, how, data)
            else:
                files[name] = json.dumps(value).encode()
        if target == "config":
            field = data.draw(st.sampled_from(sorted(cfg)))
            config = json.dumps({**cfg, field: self.PLACEHOLDER}).encode()
            config = config.replace(json.dumps(self.PLACEHOLDER).encode(),
                                    mutate(cfg[field], how, data))
        else:
            config = json.dumps(cfg).encode()
        (root / "sweep.json").write_bytes(config)
        for name, path in paths.items():
            path.write_bytes(files[name])
        self.check(command, root / "sweep.json", paths["report"])

    @pytest.mark.parametrize("command", COMMANDS)
    def test_each_config_field_retyped_exits_0_or_2(self, sweep_inputs,
                                                    command):
        """Each config field in turn set to the first of JSON_VALUES of
        another type, so every command meets every field's wrong type
        (the random draw above reaches a given field and command in about
        one example in a thousand)."""
        root, cfg, values = sweep_inputs
        few = Path(cfg["data_dir"]) / "retype-utterances.jsonl"
        few.write_text("".join(json.dumps(row) + "\n"
                               for row in values["utterances"][:4]))
        report = root / "retype-report.json"
        report.write_text(json.dumps(values["report"]))
        cfg = dict(cfg, utterances=few.name, out_dir=str(root / "retype-out"))
        for field in sorted(cfg):
            value = next(v for v in JSON_VALUES
                         if type(v) is not type(cfg[field]))
            config = root / "retype.json"
            config.write_text(json.dumps({**cfg, field: value}))
            self.check(command, config, report)

    @staticmethod
    def check(command: str, config: Path, report: Path) -> None:
        """Run `command` on `config` (and `report`, for score): it exits 0
        or 2, never with a traceback.  precompose writes next to the
        config."""
        argv = [command, "--config", str(config)]
        if command == "score":
            argv += ["--report", str(report)]
        if command == "precompose":
            argv += ["--out", str(config.parent / "sweep-cache.txt")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()


class TestCacheFile:
    """decode and bench serve the shared cache from a dump with --cache."""

    def test_decode_from_dump_matches_method(self, mini_config, warm_dump,
                                             capsys):
        assert main(["decode", "--config", str(mini_config),
                     "--method", "warmup"]) == 0
        built = json.loads(capsys.readouterr().out)
        assert main(["decode", "--config", str(mini_config),
                     "--cache", str(warm_dump)]) == 0
        loaded = json.loads(capsys.readouterr().out)
        assert loaded["hyp_words"] == built["hyp_words"]
        assert repr(loaded["cost"]) == repr(built["cost"])
        assert loaded == built

    def test_bench_from_dump_matches_method(self, mini_config, warm_dump,
                                            capsys):
        assert main(["bench", "--config", str(mini_config), "--method",
                     "warmup", "--session-length", "2"]) == 0
        built = json.loads(capsys.readouterr().out)
        assert main(["bench", "--config", str(mini_config), "--cache",
                     str(warm_dump), "--session-length", "2"]) == 0
        loaded = json.loads(capsys.readouterr().out)
        assert loaded["method"] == "loaded"
        assert loaded["totals"] == built["totals"]
        assert loaded["bytes_public"] == built["bytes_public"]

    @pytest.mark.parametrize("command", ["decode", "bench"])
    @pytest.mark.parametrize("flag", [["--method", "warmup"],
                                      ["--method", "none"],
                                      ["--bfs-depth", "3"]])
    def test_cache_with_build_flag_exits_2(self, mini_config, warm_dump,
                                           command, flag, capsys):
        assert main([command, "--config", str(mini_config),
                     "--cache", str(warm_dump), *flag]) == 2
        assert "--cache" in capsys.readouterr().err

    def test_dump_from_changed_config_exits_2(self, mini_config, warm_dump,
                                              tmp_path, capsys):
        cfg = json.loads(mini_config.read_text())
        cfg["sil_penalty"] = 1.5
        changed = tmp_path / "changed.json"
        changed.write_text(json.dumps(cfg))
        assert main(["decode", "--config", str(changed),
                     "--cache", str(warm_dump)]) == 2
        assert "different graphs" in capsys.readouterr().err

    @pytest.mark.parametrize("how", [
        "non-integer", "t1-state", "root-state", "filter-state", "bridge",
        "repeated-row", "checksum", "format-1", "format-2"])
    def test_malformed_dump_exits_2(self, how, mini_config, warm_dump,
                                    desk_build, tmp_path, capsys):
        lines = warm_dump.read_text().splitlines()
        header, rows = lines[:3], lines[3:]
        first = rows[0].split()
        t1, root = desk_build.t1, desk_build.root
        bridge = min(bridge_states(root, desk_build.class_id))
        edits = {"non-integer": (1, "x"), "t1-state": (1, t1.num_states),
                 "root-state": (2, root.num_states), "filter-state": (3, 3)}
        if how in edits:
            field, value = edits[how]
            first[field] = str(value)
            rows[0] = " ".join(first)
        elif how == "bridge":
            rows.append(f"s {t1.start} {bridge} 0")
        elif how == "repeated-row":
            rows.append(rows[0])
        text = rechecksum("\n".join(header + rows) + "\n")
        if how == "checksum":
            text = text.replace(header[2], "sha256 " + "0" * 64)
        elif how.startswith("format-"):
            text = text.replace("public-cache 3", "public-cache " + how[-1])
        with pytest.raises(BuildError):
            load_public_cache(text, t1, root, desk_build.class_id)
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        assert main(["decode", "--config", str(mini_config),
                     "--cache", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "dump" in err

    def test_corrupt_or_missing_dump_exits_2(self, mini_config, warm_dump,
                                             tmp_path, capsys):
        lines = warm_dump.read_text().splitlines(keepends=True)
        corrupt = tmp_path / "corrupt.txt"
        corrupt.write_text("".join(lines[:-1]))
        assert main(["decode", "--config", str(mini_config),
                     "--cache", str(corrupt)]) == 2
        assert "checksum" in capsys.readouterr().err
        assert main(["bench", "--config", str(mini_config),
                     "--cache", str(tmp_path / "missing.txt")]) == 2
        assert "cannot read cache dump" in capsys.readouterr().err


class TestCommands:
    def test_stats(self, mini_config, capsys):
        assert main(["stats", "--config", str(mini_config)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["phones"] == 33
        assert stats["utterances"] == 20

    def test_data_dir_is_taken_from_the_config_directory(
            self, desk_root, tmp_path, monkeypatch, capsys):
        cfg = json.loads((desk_root / "desk.json").read_text())
        assert cfg["data_dir"] == "data/desk"
        monkeypatch.chdir(tmp_path)
        assert main(["stats", "--config", str(desk_root / "desk.json")]) == 0
        assert json.loads(capsys.readouterr().out)["utterances"] == 200

    def test_written_config_is_the_checkouts_desk_json(self, tmp_path):
        # out_dir too is a path the config names, not where it was made;
        # the checked-in data files, which perfbench and benchmarks/ read,
        # are the generator's too
        cfg = write_desk_data(tmp_path)
        checkout = Path(__file__).resolve().parent.parent
        names = ["desk.json"] + [f"data/desk/{cfg[field]}" for field in
                                 ("lexicon", "corpus", "contacts", "users",
                                  "utterances")]
        for name in names:
            assert (tmp_path / name).read_bytes() == \
                (checkout / name).read_bytes(), name

    def test_build_writes_artifacts(self, mini_config, tmp_path, capsys):
        out = tmp_path / "artifacts"
        assert main(["build", "--config", str(mini_config),
                     "--out", str(out)]) == 0
        counts = json.loads(capsys.readouterr().out)
        assert counts["words"] == 84   # no "#j" auxiliaries in the table
        assert (out / "t1.fst.txt").exists()

    def test_decode_reports_a_hypothesis(self, mini_config, capsys):
        assert main(["decode", "--config", str(mini_config),
                     "--user", "u05"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["user"] == "u05"
        assert result["errors"] == 0
        assert result["hyp_words"] == result["ref_words"]
        assert result["metrics"]["otf"] > 0

    def test_precompose_dump_loads_back(self, mini_config, desk_build,
                                        tmp_path, capsys):
        dump = tmp_path / "cache.txt"
        assert main(["precompose", "--config", str(mini_config),
                     "--bfs-depth", "4", "--out", str(dump)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["method"] == "bfs" and stats["bfs_depth"] == 4
        cache = load_public_cache(dump.read_text(), desk_build.t1,
                                  desk_build.root, desk_build.class_id)
        assert cache.num_expanded == stats["public_expanded"]

    def test_warmup_command_uses_warmup_method(self, mini_config, tmp_path,
                                               capsys):
        dump = tmp_path / "warm.txt"
        assert main(["precompose", "--config", str(mini_config),
                     "--method", "warmup", "--out", str(dump)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["method"] == "warmup"
        assert stats["public_expanded"] > 0
        assert dump.exists()

    def test_bench_and_score_round_trip(self, mini_config, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        assert main(["--seed", "11", "bench", "--config", str(mini_config),
                     "--method", "bfs", "--session-length", "2",
                     "--report", str(report_path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["totals"]["utterances"] == 20
        assert summary["totals"]["sessions"] == 10
        assert report_path.exists()
        assert main(["score", "--config", str(mini_config),
                     "--report", str(report_path)]) == 0
        rescored = json.loads(capsys.readouterr().out)
        assert rescored["errors"] == summary["totals"]["errors"]
