import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (compose_static, lookup, oracle_beam_decode, oracle_decode,
                     replace_view)
from strategies import acyclic_fst
from test_cache import NO_CLASS, build_machine, scenario, sealed_cache
from lazyfst import decoder
from lazyfst.cache import DEAD_END, CachedExpansion, Session, end_session
from lazyfst.decoder import (DecodeConfig, Hypothesis, ScoreMatrix, decode,
                             rtf, simulate_scores)
from lazyfst.errors import CompositionSizeError, ConfigurationError
from lazyfst.fst import EPS, Arc, FstBuilder
from lazyfst.harness import binding_for, decode_config, precompose_cache, scores_for
from lazyfst.metrics import Metrics
from lazyfst.replace import empty_binding
from lazyfst.semiring import ZERO


def session_over(t1, root, depth=0):
    cache = sealed_cache(t1, root, NO_CLASS, depth)
    return Session(cache, empty_binding(NO_CLASS))


def hmm_t1():
    """Tiny closure lexicon: word 7 = phones 1 2, word 8 = phone 2."""
    b = FstBuilder()
    loop = b.add_state()
    b.set_final(loop, 0.0)
    a1 = b.add_state()
    a2 = b.add_state()
    b.add_arc(loop, 1, 7, 0.0, a1)
    b.add_arc(a1, 1, EPS, 0.0, a1)
    b.add_arc(a1, 2, EPS, 0.0, a2)
    b.add_arc(a2, 2, EPS, 0.0, a2)
    b.add_arc(a2, EPS, EPS, 0.0, loop)
    c = b.add_state()
    b.add_arc(loop, 2, 8, 0.25, c)
    b.add_arc(c, 2, EPS, 0.0, c)
    b.add_arc(c, EPS, EPS, 0.0, loop)
    return b.freeze(start=loop)


def two_word_root():
    return build_machine([(0, 7, 7, 0.125, 1), (1, 8, 8, 0.25, 2)],
                         {2: 0.5}, 3)


class TestScoreMatrix:
    def test_epsilon_column_is_always_infinite(self):
        m = ScoreMatrix(np.zeros((4, 3)))
        assert all(m.row(t)[EPS] == math.inf for t in range(4))

    def test_out_of_range_labels_cost_infinity(self):
        m = ScoreMatrix(np.zeros((1, 3)))
        assert len(m.row(0)) == 3
        # the emit step charges a label past the row ZERO: never taken
        exp = CachedExpansion((), (Arc(1, 7, 0.0, 1), Arc(99, 8, 0.0, 2)),
                              math.inf)
        assert decoder._emit({0: (0.0, None, exp)}, m.row(0), 10.0) == \
            {1: (0.0, (None, 7))}

    def test_copies_the_callers_costs(self):
        costs = np.ones((2, 3))
        m = ScoreMatrix(costs)
        assert m.row(0)[EPS] == math.inf
        assert (costs == 1.0).all()

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_rejects_nan_and_minus_infinity(self, bad):
        costs = np.zeros((2, 3))
        costs[1, 2] = bad
        with pytest.raises(ConfigurationError, match="NaN or -inf"):
            ScoreMatrix(costs)

    @pytest.mark.parametrize("kwargs", [
        {"frames_per_phone": 0}, {"frames_per_phone": 1.0},
        {"frames_per_phone": True}, {"margin": "4"}, {"margin": math.inf},
        {"margin": math.nan}, {"noise": -0.5}, {"noise": math.nan},
        {"noise": None}, {"frame_seconds": 0}, {"frame_seconds": math.inf},
        {"frame_seconds": "0.01"}])
    def test_simulate_rejects_bad_settings(self, kwargs):
        with pytest.raises(ConfigurationError, match=next(iter(kwargs))):
            simulate_scores([1, 2], 3, **kwargs)

    def test_requires_two_dimensions(self):
        with pytest.raises(ConfigurationError):
            ScoreMatrix(np.zeros(5))

    def test_simulate_zero_noise_argmin_is_reference(self):
        ref = [2, 1, 1, 3]
        m = simulate_scores(ref, num_labels=4, frames_per_phone=3,
                            margin=4.0, noise=0.0)
        assert m.num_frames == 12
        for t in range(m.num_frames):
            want = ref[t // 3]
            costs = m.row(t)[1:4]
            assert m.row(t)[want] == 0.0
            assert sorted(costs)[1] == 4.0

    def test_simulate_is_seeded(self):
        a = simulate_scores([1, 2], 3, noise=0.5, seed=7)
        b = simulate_scores([1, 2], 3, noise=0.5, seed=7)
        c = simulate_scores([1, 2], 3, noise=0.5, seed=8)
        assert np.array_equal(a._m, b._m)
        assert not np.array_equal(a._m, c._m)


class TestDecodeConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            DecodeConfig(beam=0.0)
        with pytest.raises(ConfigurationError):
            DecodeConfig(max_active=0)

    @pytest.mark.parametrize("field, value", [
        ("beam", "10"), ("beam", True), ("beam", None), ("beam", math.nan),
        ("beam", -1.0), ("max_active", 2.5), ("max_active", "10"),
        ("max_active", True), ("max_eps_pops", 0), ("max_eps_pops", 1.0),
        ("max_eps_pops", None)])
    def test_rejects_bad_types(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            DecodeConfig(**{field: value})

    def test_accepts_numpy_numbers(self):
        cfg = DecodeConfig(beam=np.float32(2.5), max_active=np.int64(7),
                           max_eps_pops=1)
        assert (cfg.beam, cfg.max_active, cfg.max_eps_pops) == (2.5, 7, 1)


class TestHandGraph:
    def test_exact_cost_and_labels(self):
        session = session_over(hmm_t1(), two_word_root())
        scores = simulate_scores([1, 2, 2], num_labels=3, frames_per_phone=1)
        hyp = decode(scores, session)
        assert hyp is not None
        assert hyp.labels == (7, 8)
        assert hyp.cost == (0.0 + 0.125) + (0.25 + 0.25) + 0.5
        assert hyp.frames == 3
        assert hyp.words == ("7", "8")  # no symbol table attached

    def test_self_loops_absorb_repeated_frames(self):
        session = session_over(hmm_t1(), two_word_root())
        scores = simulate_scores([1, 2, 2], num_labels=3, frames_per_phone=4)
        hyp = decode(scores, session)
        assert hyp.labels == (7, 8)
        assert hyp.cost == 0.125 + 0.5 + 0.5  # same graph cost, free loops

    def test_no_surviving_final_returns_none(self):
        session = session_over(hmm_t1(), two_word_root())
        # one frame cannot finish "7 8", and there is no shorter sentence
        scores = simulate_scores([1], num_labels=3, frames_per_phone=1)
        assert decode(scores, session) is None

    def test_unmatchable_frame_kills_all_tokens(self):
        session = session_over(hmm_t1(), two_word_root())
        m = np.full((2, 3), np.inf)
        m[0, 1] = 0.0
        assert decode(ScoreMatrix(m), session) is None

    @pytest.mark.parametrize("depth", [0, 64])
    def test_closure_that_keeps_only_dead_ends_returns_none(self, depth):
        # A dead end (no arc, not final) is dropped by the closure, so a
        # closure that reaches nothing else keeps no token and the decode
        # ends there.  At depth 64 the public layer holds every state, and
        # a dead end is dropped uncounted; at depth 0 each is expanded on
        # the fly, counted, then dropped.
        def counts(session):
            m = session.metrics
            return m.public_hit, m.private_hit, m.otf_expansion

        # t1's start is a dead end: the start closure keeps nothing
        root = build_machine([], {0: 0.0}, 1)
        session = session_over(build_machine([], {}, 1), root, depth)
        assert decode(ScoreMatrix(np.zeros((1, 2))), session) is None
        assert counts(session) == ((0, 0, 0) if depth else (0, 0, 1))
        # the start's one arc emits into a dead end: the first frame's
        # closure keeps nothing, and the second frame has no token to
        # emit from
        t1 = build_machine([(0, 1, EPS, 0.0, 1)], {}, 2)
        session = session_over(t1, root, depth)
        assert decode(ScoreMatrix(np.zeros((2, 2))), session) is None
        assert counts(session) == ((1, 0, 0) if depth else (0, 0, 2))
        assert session.metrics.frames == 2
        # once built, a dead end is dropped uncounted from either layer
        assert decode(ScoreMatrix(np.zeros((2, 2))), session) is None
        assert counts(session) == ((2, 0, 0) if depth else (0, 1, 2))


class TestPruning:
    def setup_graph(self):
        # two parses of the same one-frame input: cheap-now/expensive-final
        # versus expensive-now/free-final
        b = FstBuilder()
        loop = b.add_state()
        s = b.add_state()
        b.add_arc(loop, 1, 1, 0.0, s)
        b.add_arc(s, EPS, EPS, 0.0, loop)
        b.set_final(loop, 0.0)
        t1 = b.freeze(start=loop)
        root = build_machine([(0, 1, 1, 0.0, 1), (0, 1, 1, 6.0, 2)],
                             {1: 10.0, 2: 0.0}, 3)
        return t1, root

    def test_narrow_beam_keeps_the_greedy_path(self):
        t1, root = self.setup_graph()
        scores = simulate_scores([1], 2, frames_per_phone=1)
        wide = decode(scores, session_over(t1, root), DecodeConfig(beam=20.0))
        narrow = decode(scores, session_over(t1, root), DecodeConfig(beam=2.0))
        assert wide.cost == 6.0
        assert narrow.cost == 10.0

    def test_token_at_the_beam_edge_survives(self):
        # the expensive parse costs exactly the beam over the cheap one,
        # as an emitted token and again after its epsilon arc
        t1, root = self.setup_graph()
        scores = simulate_scores([1], 2, frames_per_phone=1)
        edge = decode(scores, session_over(t1, root), DecodeConfig(beam=6.0))
        inside = decode(scores, session_over(t1, root),
                        DecodeConfig(beam=5.75))
        assert edge.cost == 6.0
        assert inside.cost == 10.0

    def one_frame_over(self, t1, row, beam):
        """Decode one frame of `row` over `t1` (root accepts the empty
        string, so every t1 arc writes epsilon and only costs count)."""
        session = session_over(t1, build_machine([], {0: 0.0}, 1))
        return decode(ScoreMatrix(np.array([row])), session,
                      DecodeConfig(beam=beam))

    def test_emit_cutoff_from_a_token_that_is_not_the_floors_source(self):
        # At frame 0 the start S (cost 0) and B (cost 1, by an epsilon
        # arc) are active.  S emits only X, at 0.5 + 5 = 5.5; B emits Y at
        # 1 + 0 = 1 (the floor) and Z at 1 + 4 = 5 = floor + beam.  The
        # emit cutoff is 5.5 + 4 from S's arcs, not S's cost 0 + 4, which
        # would drop Z; the closure then drops X above 1 + 4.
        t1 = build_machine([(0, EPS, EPS, 1.0, 1), (0, 1, EPS, 0.5, 2),
                            (1, 2, EPS, 0.0, 3), (1, 2, EPS, 4.0, 4)],
                           {2: 0.0, 3: 100.0, 4: 0.0}, 5)
        hyp = self.one_frame_over(t1, [0.0, 5.0, 0.0], beam=4.0)
        assert hyp.cost == 5.0

    def test_token_at_the_emit_cutoff_survives(self):
        # The start S is the only active token and the source of the
        # cheapest emission, X at 0 + 0 + 1 = 1; Z costs 0 + 4 + 1 = 5,
        # exactly that emission plus the beam, and is kept.
        t1 = build_machine([(0, 1, EPS, 0.0, 1), (0, 2, EPS, 4.0, 2)],
                           {1: 100.0, 2: 0.0}, 3)
        hyp = self.one_frame_over(t1, [0.0, 1.0, 1.0], beam=4.0)
        assert hyp.cost == 5.0
        narrow = self.one_frame_over(t1, [0.0, 1.0, 1.0], beam=3.75)
        assert narrow.cost == 101.0

    def test_max_active_keeps_cheapest_tokens(self):
        t1, root = self.setup_graph()
        scores = simulate_scores([1], 2, frames_per_phone=1)
        wide = decode(scores, session_over(t1, root),
                      DecodeConfig(beam=100.0, max_active=100))
        tight = decode(scores, session_over(t1, root),
                       DecodeConfig(beam=100.0, max_active=2))
        assert wide.cost == 6.0
        assert tight.cost == 10.0


class TestClosureContract:
    def test_one_lookup_per_state_a_closure_returns(self, desk_build, desk_cfg,
                                                    monkeypatch):
        # Every state a closure returns counts one hit or OTF expansion,
        # and so does every dead end it expanded and then dropped.
        cache, _ = precompose_cache(desk_build, desk_cfg, "both")
        user = desk_build.utterances[0]["user"]
        session = Session(cache, binding_for(desk_build, user))
        handed = []
        closure = decoder._eps_closure

        def checking_closure(tokens, session, cfg):
            kept = closure(tokens, session, cfg)
            # the floor is the cheapest seed, kept or a dropped dead end
            floor = min(tok[0] for tok in tokens.values())
            assert all(floor <= tok[0] <= floor + cfg.beam
                       for tok in kept.values())
            handed.append(len(kept))
            return kept

        monkeypatch.setattr(decoder, "_eps_closure", checking_closure)
        for utt in [u for u in desk_build.utterances if u["user"] == user][:5]:
            assert decode(scores_for(desk_build, desk_cfg, utt), session,
                          decode_config(desk_cfg)) is not None
        m = session.metrics
        private = session.private.expanded
        built_dead = sum(e is DEAD_END for e in private.values())
        assert min(m.public_hit, m.private_hit, m.otf_expansion,
                   built_dead) > 0
        assert m.public_hit + m.private_hit + m.otf_expansion == \
            sum(handed) + built_dead
        # private expansions keep their epsilon arcs into a dead end,
        # which the closure drops uncounted
        dead = {sid for sid, e in private.items() if e is DEAD_END}
        assert any(arc[3] in dead for e in private.values() for arc in e.eps)

    @pytest.mark.parametrize("method", ["none", "both"])
    def test_no_dead_end_is_handed_to_pruning(self, desk_build, desk_cfg,
                                              method, monkeypatch):
        # "none" meets dead ends only in the private layer, "both" in the
        # public one too
        cache, _ = precompose_cache(desk_build, desk_cfg, method)
        user = desk_build.utterances[0]["user"]
        session = Session(cache, binding_for(desk_build, user))
        handed = []
        prune = decoder._prune

        def checking_prune(tokens, cfg):
            for tok in tokens.values():
                assert tok[2].eps or tok[2].emit or tok[2].final != ZERO
            handed.append(len(tokens))
            return prune(tokens, cfg)

        monkeypatch.setattr(decoder, "_prune", checking_prune)
        for utt in [u for u in desk_build.utterances if u["user"] == user][:5]:
            assert decode(scores_for(desk_build, desk_cfg, utt), session,
                          decode_config(desk_cfg)) is not None
        assert sum(handed) > 0
        assert DEAD_END in session.private.expanded.values()

    def eps_chain(self, n):
        """t1 is n epsilon arcs in a row, final at the end; root accepts
        the empty string."""
        t1 = build_machine([(q, EPS, EPS, 0.125, q + 1) for q in range(n)],
                           {n: 0.0}, n + 1)
        return session_over(t1, build_machine([], {0: 0.0}, 1))

    def test_max_eps_pops_counts_heap_settlements(self):
        n = 50
        no_frames = ScoreMatrix(np.zeros((0, 2)))
        # a fresh session settles the n states with an epsilon arc and the
        # unexpanded last one
        with pytest.raises(CompositionSizeError):
            decode(no_frames, self.eps_chain(n), DecodeConfig(max_eps_pops=n))
        session = self.eps_chain(n)
        hyp = decode(no_frames, session, DecodeConfig(max_eps_pops=n + 1))
        assert hyp.cost == n * 0.125
        # once expanded, the last state has no epsilon arc and is not settled
        again = decode(no_frames, session, DecodeConfig(max_eps_pops=n))
        assert again.cost == hyp.cost
        with pytest.raises(CompositionSizeError):
            decode(no_frames, session, DecodeConfig(max_eps_pops=n - 1))


    def test_zero_weight_epsilon_cycle_settles_each_state_once(self):
        # t1 states A and B are joined both ways by free epsilon arcs.  In
        # the composed graph the start (A, ANY) leads to the cycle
        # (B, EPS1_ONLY) <-> (A, EPS1_ONLY): the closure settles the
        # three states in turn, reaching each at cost 0, and a relaxation
        # back to a state at its own cost is not pushed, so it stops
        # after three settlements
        t1 = build_machine([(0, EPS, EPS, 0.0, 1), (1, EPS, EPS, 0.0, 0)],
                           {0: 0.5}, 2)
        no_frames = ScoreMatrix(np.zeros((0, 2)))
        with pytest.raises(CompositionSizeError):
            decode(no_frames, self.cycle_session(t1),
                   DecodeConfig(max_eps_pops=2))
        session = self.cycle_session(t1)
        hyp = decode(no_frames, session, DecodeConfig(max_eps_pops=3))
        assert hyp.cost == 0.5
        assert session.metrics.otf_expansion == 3
        # expanded now, all three still have an epsilon arc and settle
        again = decode(no_frames, session, DecodeConfig(max_eps_pops=3))
        assert again.cost == 0.5
        assert session.metrics.private_hit == 3
        with pytest.raises(CompositionSizeError):
            decode(no_frames, session, DecodeConfig(max_eps_pops=2))

    def test_ended_session_cannot_decode(self):
        # the start state is public, so nothing is expanded: interning
        # it (Session.start_id) must refuse
        session = session_over(hmm_t1(), two_word_root(), depth=64)
        end_session(session)
        with pytest.raises(ConfigurationError, match="ended"):
            decode(simulate_scores([1], 3), session)

    def cycle_session(self, t1):
        return session_over(t1, build_machine([], {0: 0.0}, 1))

    def test_closure_counts_hits_by_the_lookup_rule(self, desk_build,
                                                    desk_cfg, monkeypatch):
        # The closure resolves states from the two layers itself and adds
        # its hits once; oracles.lookup is the one-state form of the same
        # rule.  Looking up every state a closure returned must find the
        # same public hits, and as private hits its private hits plus the
        # states it expanded that are not dead ends, which it drops.
        cache, _ = precompose_cache(desk_build, desk_cfg, "both")
        user = desk_build.utterances[0]["user"]
        session = Session(cache, binding_for(desk_build, user))
        closure = decoder._eps_closure
        expand = decoder.expand
        built_dead = []
        closures = []

        def counting_expand(state_id, session):
            made = expand(state_id, session)
            built_dead[-1] += made is DEAD_END
            return made

        def checking_closure(tokens, session, cfg):
            built_dead.append(0)
            before = session.metrics.snapshot()
            kept = closure(tokens, session, cfg)
            counted = session.metrics.delta(before)
            session.metrics, metrics = Metrics(), session.metrics
            for sid in kept:
                assert lookup(session, sid) is kept[sid][2]
            looked_up, session.metrics = session.metrics, metrics
            assert looked_up.public_hit == counted.public_hit
            assert looked_up.private_hit == counted.private_hit \
                + counted.otf_expansion - built_dead[-1]
            closures.append(counted)
            return kept

        monkeypatch.setattr(decoder, "expand", counting_expand)
        monkeypatch.setattr(decoder, "_eps_closure", checking_closure)
        for utt in [u for u in desk_build.utterances if u["user"] == user][:5]:
            assert decode(scores_for(desk_build, desk_cfg, utt), session,
                          decode_config(desk_cfg)) is not None
        assert min(sum(c.public_hit for c in closures),
                   sum(c.private_hit for c in closures),
                   sum(c.otf_expansion for c in closures),
                   sum(built_dead)) > 0


class TestDeterminism:
    def test_same_inputs_same_hypothesis(self):
        scores = simulate_scores([1, 2, 2], num_labels=3, frames_per_phone=3,
                                 noise=0.5, seed=41)
        runs = []
        for _ in range(2):
            hyp = decode(scores, session_over(hmm_t1(), two_word_root()))
            runs.append((hyp.cost, hyp.labels, hyp.words, hyp.frames))
        assert runs[0] == runs[1]

    def test_cache_depth_never_changes_the_answer(self):
        scores = simulate_scores([1, 2], num_labels=3, frames_per_phone=2,
                                 noise=0.25, seed=3)
        answers = set()
        for depth in (0, 2, 64):
            hyp = decode(scores, session_over(hmm_t1(), two_word_root(),
                                              depth=depth))
            answers.add((hyp.cost, hyp.labels))
        assert len(answers) == 1


class TestAgainstOracle:
    @given(scenario(), st.integers(min_value=1, max_value=4),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_unpruned_decode_matches_time_expanded_dijkstra(
            self, scn, frames, seed):
        t1, root, binding = scn
        rng = np.random.default_rng(seed)
        m = ScoreMatrix(rng.integers(0, 12, size=(frames, 3)) * 0.25)
        cache = sealed_cache(t1, root)
        hyp = decode(m, Session(cache, binding),
                     DecodeConfig(beam=1e9, max_active=1_000_000))
        want = oracle_decode(compose_static(t1, replace_view(root, binding)), m)
        if want is None:
            assert hyp is None
        else:
            assert hyp is not None
            assert hyp.cost == want[0]  # bit-exact: same accumulation order

    @given(scenario(), st.integers(min_value=1, max_value=5),
           st.integers(min_value=0, max_value=2 ** 31 - 1),
           st.integers(min_value=2, max_value=16))
    @settings(max_examples=100, deadline=None)
    def test_beam_decode_matches_beam_search_oracle(self, scn, frames, seed,
                                                    quarters):
        # dyadic costs and beams make ties at the beam edge common; with
        # costs up to 5.75 the beam cuts tokens in about a third of cases
        t1, root, binding = scn
        rng = np.random.default_rng(seed)
        m = ScoreMatrix(rng.integers(0, 24, size=(frames, 3)) * 0.25)
        beam = quarters * 0.25
        cache = sealed_cache(t1, root)
        survivors = []
        prune = decoder._prune

        def counting_prune(tokens, dec_cfg):
            kept = prune(tokens, dec_cfg)
            survivors.append(len(kept))
            return kept

        with mock.patch.object(decoder, "_prune", counting_prune):
            hyp = decode(m, Session(cache, binding),
                         DecodeConfig(beam=beam, max_active=1_000_000))
        want, want_survivors = oracle_beam_decode(
            compose_static(t1, replace_view(root, binding)), m, beam)
        assert survivors == want_survivors
        if want is None:
            assert hyp is None
        else:
            assert hyp is not None
            assert hyp.cost == want[0]
            assert hyp.labels in want[1]


class TestSealedAgainstUnsealed:
    @given(acyclic_fst(), acyclic_fst(acceptor=True),
           st.sampled_from([1, 2, 64]),
           st.integers(min_value=0, max_value=2 ** 31 - 1),
           st.integers(min_value=2, max_value=16))
    @settings(max_examples=100, deadline=None)
    def test_two_turns_decode_alike(self, t1, root, depth, seed, quarters):
        # sealing drops the public epsilon arcs into a dead end; the same
        # cache sealed without sharing its parts keeps them, and must
        # decode the same
        rng = np.random.default_rng(seed)
        turns = [ScoreMatrix(rng.integers(0, 24, size=(frames, 4)) * 0.25)
                 for frames in rng.integers(1, 6, size=2)]
        dec_cfg = DecodeConfig(beam=quarters * 0.25)

        def decoded(cache):
            session = Session(cache, empty_binding(NO_CLASS))
            out = []
            for scores in turns:
                hyp = decode(scores, session, dec_cfg)
                m = session.metrics
                out.append((None if hyp is None else
                            (hyp.words, repr(hyp.cost)),
                            m.public_hit, m.private_hit, m.otf_expansion))
            return out

        with mock.patch("lazyfst.cache._share_equal_parts",
                        lambda cache: None):
            as_built = sealed_cache(t1, root, NO_CLASS, depth)
        assert decoded(sealed_cache(t1, root, NO_CLASS, depth)) == \
            decoded(as_built)


class TestTiming:
    def test_rtf_arithmetic(self):
        def hyp(frames, wall):
            return Hypothesis(0.0, (), (), frames, wall, 0.01)

        assert rtf(hyp(2, 0.004)) == 0.004 / 0.02
        assert rtf(hyp(0, 0.0)) == 0.0
        assert rtf(hyp(0, 1.0)) == math.inf

    def test_decode_reports_frames_and_wall_time(self):
        session = session_over(hmm_t1(), two_word_root())
        scores = simulate_scores([1, 2, 2], num_labels=3, frames_per_phone=2)
        hyp = decode(scores, session)
        assert hyp.frames == 6
        assert hyp.wall_seconds >= 0.0
        assert session.metrics.frames == 6
