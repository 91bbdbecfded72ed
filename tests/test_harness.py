import copy
import dataclasses
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import edit_distance, read_symbols, read_text_fst
from lazyfst import harness
from lazyfst.cache import Session, end_session
from lazyfst.decoder import decode, simulate_scores
from lazyfst.errors import BuildError, ConfigurationError
from lazyfst.fst import write_text_fst
from lazyfst.harness import (_chunk, _percentile, binding_for, build_graphs,
                             decode_config, graph_stats, levenshtein,
                             load_config, precompose_cache, run_bench,
                             score_report, scores_for, write_build)
from lazyfst.lmbuild import build_contact_fst

words = st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=6)


def small_build(build, user="u05"):
    utts = [u for u in build.utterances if u["user"] == user]
    return dataclasses.replace(build, utterances=utts)


def strip_timing(report):
    out = copy.deepcopy(report)
    out.pop("rtf", None)
    for sess in out["sessions"]:
        for turn in sess["turns"]:
            turn.pop("rtf", None)
    return out


class TestConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_config(tmp_path / "nope.json")

    def test_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{")
        with pytest.raises(ConfigurationError):
            load_config(path)

    def test_missing_required_key(self, tmp_path, desk_root):
        cfg = json.loads((desk_root / "desk.json").read_text())
        del cfg["corpus"]
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(ConfigurationError):
            load_config(path)

    def test_decode_config_overrides(self, desk_cfg):
        assert decode_config(desk_cfg).beam == desk_cfg["beam"]


class TestBuild:
    def test_binding_for_unknown_user(self, desk_build):
        with pytest.raises(BuildError):
            binding_for(desk_build, "nobody")

    def test_binding_maps_the_class_to_the_users_contacts(self, desk_build):
        binding = binding_for(desk_build, "u03")
        assert binding is desk_build.bindings["u03"]
        assert binding.label == desk_build.class_id
        by_name = {c.name: c for c in desk_build.contacts}
        contacts = [by_name[n] for n in desk_build.users["u03"]]
        assert write_text_fst(binding.fst) == write_text_fst(
            build_contact_fst(contacts, desk_build.lexicon.phones,
                              desk_build.word_syms))

    def test_scores_reject_unknown_phones(self, desk_build, desk_cfg):
        utt = {"id": "x", "phones": ["NOT_A_PHONE"], "seed": 1}
        with pytest.raises(BuildError):
            scores_for(desk_build, desk_cfg, utt)

    def test_scores_are_deterministic(self, desk_build, desk_cfg):
        utt = desk_build.utterances[0]
        a = scores_for(desk_build, desk_cfg, utt)
        b = scores_for(desk_build, desk_cfg, utt)
        assert (a._m == b._m).all()

    def test_score_settings_default_to_simulate_scores(self, desk_build,
                                                       desk_cfg):
        # a config without frames_per_phone, margin, noise and
        # frame_seconds takes simulate_scores' own defaults: noise-free
        cfg = {k: v for k, v in desk_cfg.items()
               if k not in ("frames_per_phone", "margin", "noise",
                            "frame_seconds")}
        utt = desk_build.utterances[0]
        ref = [desk_build.phone_syms.id_of(p) for p in utt["phones"]]
        seed = (utt["seed"] * 1000003 + cfg["seed"]) & 0x7FFFFFFF
        got = scores_for(desk_build, cfg, utt)
        want = simulate_scores(ref, len(desk_build.phone_syms), seed=seed)
        assert (got._m == want._m).all()
        assert got.frame_seconds == want.frame_seconds

    def test_desk_graphs_are_pinned(self, desk_build):
        # sha256 of the root, and of the contact FSTs in sorted user order
        root = write_text_fst(desk_build.root)
        contacts = "".join(write_text_fst(desk_build.bindings[user].fst)
                           for user in sorted(desk_build.bindings))
        assert hashlib.sha256(root.encode()).hexdigest() == (
            "9c1ce88c5e395aa312e1586bd553b8da"
            "ef201a3d0d6d508586ebf90a0ff9592c")
        assert hashlib.sha256(contacts.encode()).hexdigest() == (
            "da16564ccd1bbedc426bbd555aa60d12"
            "011cbd720070d14407fd2b028b1570e5")

    def test_graph_count_snapshot(self, desk_build):
        stats = graph_stats(desk_build)
        assert stats["phones"] == 33
        assert stats["words"] == 84   # no "#j" auxiliaries in the table
        assert stats["t1"] == {"states": 238, "arcs": 560}
        assert stats["root"] == {"states": 56, "arcs": 178, "class_arcs": 4}
        assert stats["utterances"] == 200
        assert stats["users"]["u01"]["contacts"] == 50
        assert stats["users"]["u05"] == {"contacts": 17, "fst_states": 49,
                                         "fst_arcs": 63}

    def test_write_build_artifacts(self, desk_build, tmp_path):
        write_build(desk_build, tmp_path)
        for name in ("phones.syms", "words.syms", "t1.fst.txt",
                     "root.fst.txt", "contacts/u01.fst.txt"):
            assert (tmp_path / name).exists()
        # every written graph reads back through the written symbol
        # tables and writes again byte for byte as the built graph does
        phones = read_symbols((tmp_path / "phones.syms").read_text())
        words = read_symbols((tmp_path / "words.syms").read_text())
        assert phones.symbols() == desk_build.phone_syms.symbols()
        assert words.symbols() == desk_build.word_syms.symbols()
        graphs = {"t1.fst.txt": (desk_build.t1, phones, words),
                  "root.fst.txt": (desk_build.root, words, words)}
        for user, binding in desk_build.bindings.items():
            graphs[f"contacts/{user}.fst.txt"] = (binding.fst, words, words)
        assert len(list((tmp_path / "contacts").iterdir())) == \
            len(desk_build.bindings)
        back = {}
        for name, (fst, isyms, osyms) in graphs.items():
            text = (tmp_path / name).read_text()
            assert text == write_text_fst(fst)
            back[name] = read_text_fst(text, isyms, osyms)
            assert write_text_fst(back[name]) == text
        assert back["t1.fst.txt"].num_states == 238

    def test_missing_data_file(self, desk_cfg, tmp_path):
        cfg = dict(desk_cfg)
        cfg["data_dir"] = str(tmp_path)
        with pytest.raises(BuildError):
            build_graphs(cfg)


class TestScoringHelpers:
    @given(words, words)
    @settings(max_examples=200, deadline=None)
    def test_levenshtein_matches_full_matrix(self, ref, hyp):
        assert levenshtein(ref, hyp) == edit_distance(ref, hyp)

    def test_percentile_nearest_rank(self):
        assert _percentile([], 50) == 0.0
        assert _percentile([7.0], 50) == 7.0
        assert _percentile([7.0], 95) == 7.0
        assert _percentile([3.0, 1.0, 2.0, 4.0], 50) == 2.0
        assert _percentile([3.0, 1.0, 2.0, 4.0], 95) == 4.0

    def test_chunk(self):
        assert _chunk([1, 2, 3, 4, 5], 2) == [[1, 2], [3, 4], [5]]
        assert _chunk([], 3) == []


class TestPrecomposeCache:
    def test_unknown_method(self, desk_build, desk_cfg):
        with pytest.raises(ConfigurationError):
            precompose_cache(desk_build, desk_cfg, "magic")

    def test_method_none_yields_empty_sealed_cache(self, desk_build, desk_cfg):
        cache, stats = precompose_cache(desk_build, desk_cfg, "none")
        assert cache.sealed
        assert cache.num_expanded == 0
        assert stats["bytes_public"] == 0

    def test_bfs_snapshot(self, desk_build, desk_cfg):
        cache, stats = precompose_cache(desk_build, desk_cfg, "bfs")
        assert (stats["public_states"], stats["public_expanded"]) == (434, 342)
        assert stats["bytes_public"] == cache.bytes_estimate()


@pytest.fixture(scope="module")
def report(desk_build, desk_cfg):
    return run_bench(desk_cfg, method="none", session_length=5,
                     build=small_build(desk_build))


class TestBench:
    def test_report_shape_and_totals(self, report):
        totals = report["totals"]
        assert totals["utterances"] == 20
        assert totals["sessions"] == 4
        assert totals["failed"] == 0
        assert totals["wer"] == totals["errors"] / totals["ref_words"]
        assert set(report["per_turn"]) == {"1", "2", "3", "4", "5"}
        for slot in report["per_turn"].values():
            assert slot["count"] == 4
            assert slot["mean_otf"] == slot["otf"] / slot["count"]
        assert report["marginal_bytes_per_session"] == \
            report["bytes_private_total"] / 4
        assert len(report["hypotheses"]) == 20

    def test_per_turn_sums_match_session_detail(self, report):
        from_sessions = {}
        for sess in report["sessions"]:
            for t in sess["turns"]:
                slot = from_sessions.setdefault(str(t["turn"]), 0)
                from_sessions[str(t["turn"])] = slot + t["otf"]
        assert {k: v["otf"] for k, v in report["per_turn"].items()} == \
            from_sessions

    def test_totals_count_the_work_of_failed_turns(self, desk_build, desk_cfg,
                                                   monkeypatch):
        # heavy noise under a narrow beam makes some desk turns fail
        ended = []

        def end(session):
            ended.append(end_session(session))
            return ended[-1]

        monkeypatch.setattr(harness, "end_session", end)
        cfg = dict(desk_cfg, noise=6.0, beam=1.0, seed=7)
        totals = run_bench(cfg, method="none", session_length=5,
                           build=desk_build)["totals"]
        assert totals["failed"] > 0
        assert (totals["otf_expansions"], totals["public_hits"],
                totals["private_hits"], totals["frames"]) == (
            sum(m.otf_expansion for m in ended),
            sum(m.public_hit for m in ended),
            sum(m.private_hit for m in ended), sum(m.frames for m in ended))

    def test_deterministic_modulo_timing(self, desk_build, desk_cfg, report):
        again = run_bench(desk_cfg, method="none", session_length=5,
                          build=small_build(desk_build))
        assert strip_timing(again) == strip_timing(report)

    def test_interleaved_sessions_match_sequential(self, desk_build, desk_cfg):
        # sessions share no mutable state: two users' sessions decoded
        # turn by turn against one public cache give the same turns,
        # counters included, as decoding them one after the other
        cache, _ = precompose_cache(desk_build, desk_cfg, "bfs")
        dec_cfg = decode_config(desk_cfg)
        users = ("u05", "u07")
        utts = {user: [u for u in desk_build.utterances
                       if u["user"] == user][:5] for user in users}

        def turn(session, utt):
            before = session.metrics.snapshot()
            hyp = decode(scores_for(desk_build, desk_cfg, utt), session,
                         dec_cfg)
            m = session.metrics.delta(before)
            return (utt["id"], hyp.words, hyp.cost, m.otf_expansion,
                    m.public_hit, m.private_hit)

        sequential = {}
        for user in users:
            session = Session(cache, binding_for(desk_build, user))
            sequential[user] = [turn(session, utt) for utt in utts[user]]
            end_session(session)
        sessions = {user: Session(cache, binding_for(desk_build, user))
                    for user in users}
        interleaved = {user: [] for user in users}
        for i in range(5):
            for user in users:
                interleaved[user].append(turn(sessions[user], utts[user][i]))
        for session in sessions.values():
            end_session(session)
        assert interleaved == sequential
        assert all(len(turns) == 5 for turns in sequential.values())

    def test_session_length_one_isolates_turns(self, desk_build, desk_cfg):
        report = run_bench(desk_cfg, method="none", session_length=1,
                           build=small_build(desk_build))
        assert report["totals"]["sessions"] == 20
        assert set(report["per_turn"]) == {"1"}

    @pytest.mark.parametrize("length", [0, -1, 2.5, True],
                             ids=["zero", "negative", "float", "bool"])
    def test_session_length_must_be_a_positive_int(self, desk_build,
                                                   desk_cfg, length):
        with pytest.raises(ConfigurationError, match="session_length"):
            run_bench(desk_cfg, method="none", session_length=length,
                      build=small_build(desk_build))

    def test_score_report_agrees_with_bench_totals(self, desk_build, report):
        rescored = score_report(report, desk_build)
        assert rescored["errors"] == report["totals"]["errors"]
        assert rescored["ref_words"] == report["totals"]["ref_words"]
        assert rescored["unknown_utterances"] == []

    @pytest.mark.parametrize("bad", [
        [], {}, {"hypotheses": []}, {"hypotheses": {"u05-s1-t1": "call"}},
        {"hypotheses": {"u05-s1-t1": ["call", 5]}},
    ], ids=["list", "no-hypotheses", "hypotheses-list", "string-hypothesis",
            "int-word"])
    def test_score_report_rejects_a_bad_report(self, desk_build, bad):
        with pytest.raises(BuildError, match="'hypotheses'"):
            score_report(bad, desk_build)

    def test_score_report_flags_unknown_ids(self, desk_build, report):
        doctored = copy.deepcopy(report)
        doctored["hypotheses"]["ghost-utt"] = ["call"]
        rescored = score_report(doctored, desk_build)
        assert rescored["unknown_utterances"] == ["ghost-utt"]
