"""End-to-end acceptance checks for the desk-scale system.

Each test pins one numbered acceptance criterion and records a PASS or
FAIL verdict that pytest prints in its terminal summary.  The expensive
benchmark runs are shared through module fixtures; everything here is
deterministic except wall-clock fields, which no assertion touches.
"""

import math
import random
import time

import pytest

import criteria
from oracles import (acceptor_language, compose_static, is_precomposable,
                     materialize, oracle_decode, replace_view, shortest_path)
from test_cache import build_machine

from lazyfst.cache import PublicCache, Session
from lazyfst.decoder import DecodeConfig, decode
from lazyfst.deskdata import SIL, stable_seed
from lazyfst.fst import write_text_fst
from lazyfst.harness import (binding_for, decode_config, levenshtein,
                             precompose_cache, run_bench, scores_for)
from lazyfst.precompose import PrecomposeConfig, bfs_precompose
from lazyfst.replace import ClassBinding, insert_epsilon_before_class


@pytest.fixture(scope="module")
def caches(desk_build, desk_cfg):
    return {method: precompose_cache(desk_build, desk_cfg, method)[0]
            for method in ("bfs", "warmup")}


def _bench(desk_build, desk_cfg, caches, length):
    out = {"none": run_bench(desk_cfg, method="none", session_length=length,
                             build=desk_build)}
    for method in ("bfs", "warmup"):
        out[method] = run_bench(desk_cfg, method=method,
                                session_length=length, build=desk_build,
                                cache=caches[method])
    return out


@pytest.fixture(scope="module")
def benches5(desk_build, desk_cfg, caches):
    return _bench(desk_build, desk_cfg, caches, 5)


@pytest.fixture(scope="module")
def benches1(desk_build, desk_cfg, caches):
    return _bench(desk_build, desk_cfg, caches, 1)


def _dynamic_session(build, user):
    cache = PublicCache(build.t1, build.root, build.class_id)
    return Session(cache, binding_for(build, user))


# -- criterion 1 -----------------------------------------------------------

# CLS_A is the class label; CLS_B is an ordinary root word that t1 never
# outputs, so root arcs carrying it lead nowhere in the composition.
CLS_A, CLS_B = 101, 102
WORD_LABELS = (1, 2, 3, 4, 5, 6)


def _random_fst(rng, n, emit):
    arcs = []
    for src in range(n):
        for _ in range(rng.randint(1, 3)):
            il, ol = emit()
            arcs.append((src, il, ol, rng.randrange(8) * 0.25,
                         rng.randrange(n)))
    finals = {s: rng.randrange(8) * 0.25
              for s in range(n) if rng.random() < 0.4}
    return build_machine(arcs, finals, n)


def _random_triple(rng):
    def t1_arc():
        return rng.randint(1, 5), rng.choice((0,) + WORD_LABELS)

    def root_arc():
        label = rng.choice(WORD_LABELS + (CLS_A, CLS_B))
        return label, label

    def inner_arc():
        label = rng.choice(WORD_LABELS)
        return label, label

    t1 = _random_fst(rng, rng.randint(2, 10), t1_arc)
    root = _random_fst(rng, rng.randint(2, 10), root_arc)
    binding = ClassBinding(CLS_A, _random_fst(rng, rng.randint(1, 4),
                                              inner_arc))
    # drawn and dropped: the seed's 200 triples depend on this draw
    _random_fst(rng, rng.randint(1, 4), inner_arc)
    return t1, root, binding


def test_lazy_composition_matches_static_composition():
    with criteria.checked(1, "lazy two-layer composition matches static "
                             "composition on 200 random graph triples"):
        rng = random.Random(20260818)
        started = time.perf_counter()
        for _ in range(200):
            t1, root, binding = _random_triple(rng)
            static = compose_static(t1, replace_view(root, binding))
            cache = PublicCache(t1, root, binding.label)
            lazy = materialize(Session(cache, binding))
            assert write_text_fst(lazy) == write_text_fst(static)
            got = shortest_path(lazy)
            want = shortest_path(static)
            if want is None:
                assert got is None
            else:
                assert got.weight == want.weight
                assert got.ilabels == want.ilabels
                assert got.olabels == want.olabels
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0


# -- criterion 2 -----------------------------------------------------------

def test_sealed_cache_holds_only_shareable_states(desk_build, desk_cfg):
    with criteria.checked(2, "sealed shared cache holds only "
                             "binding-independent states"):
        started = time.perf_counter()
        cache, _ = precompose_cache(desk_build, dict(desk_cfg, bfs_depth=8),
                                    "both")
        violating = [cache.keys[sid] for sid in cache.expanded
                     if not is_precomposable(cache.keys[sid], desk_build.root,
                                             desk_build.class_id)]
        inside = [key for key in cache.keys
                  if key[1] >= desk_build.root.num_states]
        elapsed = time.perf_counter() - started
        assert cache.sealed
        assert violating == []
        assert inside == []
        assert elapsed < 5.0


# -- criterion 3 -----------------------------------------------------------

def test_epsilon_insertion_unlocks_start_state(desk_build, desk_cfg):
    with criteria.checked(3, "epsilon insertion before class arcs unlocks "
                             "pre-composition at the start state"):
        class_id = desk_build.class_id
        raw = build_machine([(0, class_id, class_id, 0.25, 1)], {1: 0.5}, 2)
        transformed = insert_epsilon_before_class(raw, class_id)
        pre_cfg = PrecomposeConfig(bfs_depth=4)

        before = PublicCache(desk_build.t1, raw, class_id)
        assert bfs_precompose(before, pre_cfg) == []

        after = PublicCache(desk_build.t1, transformed, class_id)
        assert len(bfs_precompose(after, pre_cfg)) >= 1

        binding = binding_for(desk_build, "u01")
        raw_best = shortest_path(
            compose_static(desk_build.t1, replace_view(raw, binding)))
        new_best = shortest_path(
            compose_static(desk_build.t1, replace_view(transformed, binding)))
        assert raw_best is not None
        assert new_best.weight == raw_best.weight


# -- criterion 4 -----------------------------------------------------------

def test_hypotheses_identical_across_methods(benches5, benches1):
    with criteria.checked(4, "hypotheses identical across fully dynamic, "
                             "depth-limited, and warmed caches"):
        for benches in (benches5, benches1):
            baseline = benches["none"]["hypotheses"]
            assert len(baseline) == 200
            assert benches["bfs"]["hypotheses"] == baseline
            assert benches["warmup"]["hypotheses"] == baseline


# -- criterion 5 -----------------------------------------------------------

def test_warm_cache_expansion_ratio(benches5, benches1):
    with criteria.checked(5, "warmed shared cache cuts on-the-fly "
                             "expansions at least threefold"):
        for benches in (benches1, benches5):
            cold = benches["none"]["totals"]["otf_expansions"]
            bfs = benches["bfs"]["totals"]["otf_expansions"]
            warm = benches["warmup"]["totals"]["otf_expansions"]
            assert cold >= bfs >= warm > 0
        cold = benches1["none"]["totals"]["otf_expansions"]
        warm = benches1["warmup"]["totals"]["otf_expansions"]
        assert cold / warm >= 3.0
        cold5 = benches5["none"]["totals"]["otf_expansions"]
        warm5 = benches5["warmup"]["totals"]["otf_expansions"]
        criteria.note(5, f"cold/warm expansions {cold}/{warm} = "
                         f"{cold / warm:.2f} per fresh session "
                         f"({cold5}/{warm5} = {cold5 / warm5:.2f} at "
                         f"session length 5)")


# -- criterion 6 -----------------------------------------------------------

def test_session_cache_gain_per_turn(desk_build, benches5):
    with criteria.checked(6, "later turns average at most half of turn-1 "
                             "expansions; exact repeats cost zero"):
        for method in ("none", "bfs", "warmup"):
            per_turn = benches5[method]["per_turn"]
            first = per_turn["1"]["mean_otf"]
            later = [per_turn[str(turn)]["mean_otf"] for turn in range(2, 6)]
            assert first > 0
            assert sum(later) / len(later) <= 0.5 * first

        words_of = {utt["id"]: tuple(utt["words"])
                    for utt in desk_build.utterances}
        repeats = 0
        for method in ("none", "bfs", "warmup"):
            for sess in benches5[method]["sessions"]:
                seen = set()
                for turn in sess["turns"]:
                    words = words_of[turn["id"]]
                    if words in seen:
                        repeats += 1
                        assert turn["otf"] == 0
                    seen.add(words)
        assert repeats == 3 * 40


# -- criterion 7 -----------------------------------------------------------

def test_depth_saturates_while_cache_grows(desk_build, desk_cfg):
    with criteria.checked(7, "evaluation expansions saturate at a finite "
                             "depth while the cache keeps growing"):
        measured = {}

        def at_depth(depth):
            if depth not in measured:
                cache, stats = precompose_cache(
                    desk_build, dict(desk_cfg, bfs_depth=depth), "bfs")
                report = run_bench(desk_cfg, method="bfs", session_length=5,
                                   build=desk_build, cache=cache)
                measured[depth] = (report["totals"]["otf_expansions"],
                                   stats["bytes_public"])
            return measured[depth]

        d_star = None
        for depth in range(4, 15, 2):
            otf, size = at_depth(depth)
            otf_next, size_next = at_depth(depth + 2)
            if otf == otf_next and size_next > size:
                d_star = depth
                break
        assert d_star is not None
        criteria.note(7, f"d* = {d_star}: expansions {otf} at depths "
                         f"{d_star} and {d_star + 2}, cache bytes "
                         f"{size} -> {size_next}")


# -- criterion 8 -----------------------------------------------------------

def test_marginal_bytes_per_session(benches5):
    with criteria.checked(8, "pre-composed configurations add fewer bytes "
                             "per concurrent session"):
        def per_session(report):
            sessions = report["sessions"][:10]
            assert len(sessions) == 10
            return sum(s["bytes_private"] for s in sessions) / 10

        dynamic = per_session(benches5["none"])
        for method in ("bfs", "warmup"):
            assert per_session(benches5[method]) < dynamic
            assert (benches5[method]["marginal_bytes_per_session"]
                    < benches5["none"]["marginal_bytes_per_session"])
        criteria.note(8, f"bytes per added session at 10 concurrent: "
                         f"dynamic {dynamic:.0f}, "
                         f"bfs {per_session(benches5['bfs']):.0f}, "
                         f"warmup {per_session(benches5['warmup']):.0f}")


# -- criterion 9 -----------------------------------------------------------

def test_contact_list_decodes_and_round_trips(desk_build, desk_cfg):
    with criteria.checked(9, "every desk contact decodes at zero noise and "
                             "the pipeline preserves the union language"):
        by_name = {c.name: c for c in desk_build.contacts}
        names = desk_build.users["u01"]
        assert len(names) == 50
        assert all(len(by_name[n].prons) <= 5 for n in names)
        pron_sets = {n: {tuple(p) for p in by_name[n].prons} for n in names}
        homophone_pairs = sum(
            1 for i, n1 in enumerate(names) for n2 in names[i + 1:]
            if pron_sets[n1] & pron_sets[n2])
        assert homophone_pairs >= 2

        word_syms = desk_build.word_syms
        expected = {}
        for name in names:
            entry = by_name[name]
            for pron in entry.prons:
                key = (tuple(word_syms.id_of(p) for p in pron)
                       + (word_syms.id_of(SIL),))
                weight = math.log(len(entry.prons))
                if weight < expected.get(key, math.inf):
                    expected[key] = weight
        assert acceptor_language(desk_build.bindings["u01"].fst) == expected

        quiet_cfg = dict(desk_cfg, noise=0.0)
        session = _dynamic_session(desk_build, "u01")
        dec_cfg = decode_config(desk_cfg)
        call_pron = desk_build.lexicon.words["call"][0]
        for name in names:
            pron = by_name[name].prons[0]
            words = ["call", *pron, SIL]
            utt = {"id": f"name-{name}", "user": "u01", "words": words,
                   "phones": [*call_pron, *pron, SIL],
                   "seed": stable_seed(words)}
            hyp = decode(scores_for(desk_build, quiet_cfg, utt), session,
                         dec_cfg)
            assert hyp is not None
            assert list(hyp.words) == words


# -- criterion 10 ----------------------------------------------------------

def test_unpruned_decode_matches_exhaustive_search(desk_build, desk_cfg):
    with criteria.checked(10, "unpruned decoding equals exhaustive search "
                              "exactly; zero-noise decoding makes no "
                              "word errors"):
        statics = {}
        sessions = {}
        for user in desk_build.users:
            binding = binding_for(desk_build, user)
            statics[user] = compose_static(desk_build.t1,
                                           replace_view(desk_build.root,
                                                        binding))
            sessions[user] = _dynamic_session(desk_build, user)

        wide = DecodeConfig(beam=1e9, max_active=10 ** 9,
                            max_eps_pops=10 ** 9)
        for utt in desk_build.utterances:
            scores = scores_for(desk_build, desk_cfg, utt)
            hyp = decode(scores, sessions[utt["user"]], wide)
            exact = oracle_decode(statics[utt["user"]], scores)
            assert hyp is not None and exact is not None
            assert hyp.cost == exact[0]
            assert tuple(hyp.labels) == exact[1]

        quiet_cfg = dict(desk_cfg, noise=0.0)
        dec_cfg = decode_config(desk_cfg)
        errors = 0
        for utt in desk_build.utterances:
            hyp = decode(scores_for(desk_build, quiet_cfg, utt),
                         sessions[utt["user"]], dec_cfg)
            assert hyp is not None
            errors += levenshtein(utt["words"], hyp.words)
        assert errors == 0
