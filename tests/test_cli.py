import json

import pytest

from lazyfst.cache import load_public_cache
from lazyfst.cli import main
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
    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["stats", "--config", str(tmp_path / "nope.json")]) == 2

    def test_unknown_utterance_exits_2(self, mini_config, capsys):
        assert main(["decode", "--config", str(mini_config),
                     "--utt", "no-such-id"]) == 2

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
        ("classes", 5), ("classes", "classes.txt"), ("classes", None),
        ("classes", ["@contact", 1]), ("classes", {"@contact": 1})])
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
    ], ids=["no-phones", "words-not-list", "unknown-user", "bad-json"])
    def test_malformed_utterance_row_exits_2(self, row, tmp_path, capsys):
        cfg = write_desk_data(tmp_path)
        path = tmp_path / "data" / "desk" / cfg["utterances"]
        line = row if isinstance(row, str) else json.dumps(row)
        path.write_text(path.read_text() + line + "\n")
        assert main(["decode", "--config", str(tmp_path / "desk.json")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"{cfg['utterances']}:201" in err


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
                                  desk_build.root, desk_build.class_ids)
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
