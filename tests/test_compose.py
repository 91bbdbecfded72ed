import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (compose_static, compose_static_full, composed_arc_key,
                     enumerate_language, pair_state_arcs, relation_compose)
from strategies import acyclic_fst, dyadic_weights
from lazyfst.compose import (EPS1_NEXT, EPS2_NEXT, MATCH_NEXT, FilterState,
                             expand_pair_state)
from lazyfst.errors import CompositionSizeError
from lazyfst.fst import EPS, FstBuilder
from lazyfst.semiring import ZERO


def _machine(arcs, finals, n):
    b = FstBuilder()
    b.ensure_state(n - 1)
    for src, il, ol, w, dst in arcs:
        b.add_arc(src, il, ol, w, dst)
    for state, w in finals.items():
        b.set_final(state, w)
    return b.freeze(start=0)


class TestAgainstRelationOracle:
    @given(acyclic_fst(num_labels=3), acyclic_fst(num_labels=3))
    @settings(max_examples=120, deadline=None)
    def test_weighted_language_equals_pairwise_join(self, t1, t2):
        composed = compose_static(t1, t2)
        got = enumerate_language(composed)
        want = relation_compose(enumerate_language(t1),
                                enumerate_language(t2))
        assert got == want

    @given(acyclic_fst(num_labels=2, allow_oeps=False),
           acyclic_fst(num_labels=2, allow_ieps=False))
    @settings(max_examples=60, deadline=None)
    def test_eps_free_boundary_case(self, t1, t2):
        got = enumerate_language(compose_static(t1, t2))
        want = relation_compose(enumerate_language(t1),
                                enumerate_language(t2))
        assert got == want


class TestEpsilonFilter:
    def test_needs_both_epsilon_kinds_between_matches(self):
        # t1: a:eps then the path ends; t2 starts with eps:x.  The only
        # composed path interleaves a t1-side epsilon with a t2-side one;
        # the filter must keep (exactly) one interleaving.
        t1 = _machine([(0, 1, EPS, 0.25, 1)], {1: 0.0}, 2)
        t2 = _machine([(0, EPS, 2, 0.5, 1)], {1: 0.0}, 2)
        lang = enumerate_language(compose_static(t1, t2))
        assert lang == {((1,), (2,)): 0.75}

    def test_single_representative_per_path(self):
        # Parallel one-sided epsilon moves: t1 has two eps-output arcs in a
        # row, t2 has two eps-input arcs in a row; an unfiltered product
        # would reach the accept pair through six interleavings.
        t1 = _machine([(0, 1, EPS, 0.0, 1), (1, 2, EPS, 0.0, 2)], {2: 0.0}, 3)
        t2 = _machine([(0, EPS, 3, 0.0, 1), (1, EPS, 4, 0.0, 2)], {2: 0.0}, 3)
        composed = compose_static(t1, t2)
        # count accepting paths by brute force
        paths = []

        def walk(state, n):
            if composed.final_weight(state) != float("inf"):
                paths.append(n)
            for arc in composed.arcs_of(state):
                walk(arc.nextstate, n + 1)

        walk(composed.start, 0)
        assert len(paths) == 1

    def test_filter_transitions(self):
        from oracles import advance_eps1, advance_eps2, advance_match
        assert advance_match(FilterState.EPS2_ONLY) == FilterState.ANY
        assert advance_eps1(FilterState.ANY) == FilterState.EPS1_ONLY
        assert advance_eps1(FilterState.EPS2_ONLY) == FilterState.BLOCKED
        assert advance_eps2(FilterState.EPS1_ONLY) == FilterState.EPS2_ONLY
        for f in FilterState:
            assert MATCH_NEXT[f] == advance_match(f)
            assert EPS1_NEXT[f] == advance_eps1(f)
            assert EPS2_NEXT[f] == advance_eps2(f)


class TestDualRoutes:
    @given(acyclic_fst(num_labels=3), acyclic_fst(num_labels=3))
    @example(  # two arcs tie on (ilabel, olabel, weight); see below
        _machine([(0, EPS, EPS, 0.0, 1), (0, EPS, EPS, 0.25, 1)], {1: 0.0}, 2),
        _machine([(0, EPS, EPS, 0.25, 1)], {1: 0.0}, 2))
    @settings(max_examples=60, deadline=None)
    def test_expand_pair_state_agrees_with_static(self, t1, t2):
        # compose_static_full generates arcs inline; expand_pair_state is
        # the lazy kernel.  For every discovered pair state both must
        # produce the same arcs, in the same (ilabel, olabel, weight)
        # order, and the same final weight.  Arcs tied on all three are
        # ordered by destination key in the kernel but by destination id
        # in the frozen Fst, and ids follow discovery order, not key
        # order, so only the order within such a tie may differ.
        full = compose_static_full(t1, t2)
        for key, sid in full.state_of.items():
            arcs, final = expand_pair_state(key, t1, t2)
            static_arcs = [
                (a.ilabel, a.olabel, a.weight, a.nextstate)
                for a in full.fst.arcs_of(sid)]
            lazy_arcs = [(il, ol, w, full.state_of[dst])
                         for il, ol, w, dst in arcs]
            assert [a[:3] for a in lazy_arcs] == [a[:3] for a in static_arcs]
            assert sorted(lazy_arcs) == static_arcs
            assert final == full.fst.final_weight(sid)

    def test_expansion_arcs_sorted(self):
        t1 = _machine([(0, 1, 1, 0.0, 1), (0, 1, EPS, 0.0, 1),
                       (0, 2, 2, 0.5, 1)], {1: 0.0}, 2)
        t2 = _machine([(0, 1, 5, 0.0, 1), (0, 2, 4, 0.0, 1),
                       (0, EPS, 6, 0.0, 1)], {1: 0.0}, 2)
        arcs, _ = expand_pair_state((0, 0, FilterState.ANY), t1, t2)
        keys = [composed_arc_key(t2, a) for a in arcs]
        assert keys == sorted(keys)

    def test_non_final_expansion_shares_zero(self):
        # a sum of ZERO final weights is a new inf object; the kernel
        # hands every non-final state the one shared ZERO
        t1 = _machine([(0, 1, 1, 0.0, 1)], {1: 0.0}, 2)
        t2 = _machine([(0, 1, 1, 0.0, 1)], {1: 0.5}, 2)
        for key in [(0, 0, FilterState.ANY), (0, 1, FilterState.ANY),
                    (1, 0, FilterState.ANY)]:
            assert expand_pair_state(key, t1, t2)[1] is ZERO
        assert expand_pair_state((1, 1, FilterState.ANY), t1, t2)[1] == 0.5


LIVE_FILTER_STATES = [FilterState.ANY, FilterState.EPS1_ONLY,
                      FilterState.EPS2_ONLY]   # BLOCKED is never created


def _wide_pair():
    """t1 state 0 writes 22 labelled arcs over output labels 1..21, two of
    them on label 5, plus two epsilon-output arcs.  t2 state 0 reads two
    epsilon-input arcs, two arcs on input label 5, arcs on 2, 7 and 21, and
    one on 40, which no t1 arc writes."""
    t1_arcs = [(0, 100 + ol, ol, 0.25 * (ol % 3), ol) for ol in range(1, 22)]
    t1_arcs += [(0, 150, 5, 0.5, 22), (0, 160, EPS, 0.75, 23),
                (0, EPS, EPS, 0.25, 24)]
    t1 = _machine(t1_arcs, {1: 0.0, 23: 0.5}, 25)
    t2 = _machine([(0, EPS, 50, 0.5, 1), (0, EPS, EPS, 0.25, 2),
                   (0, 5, 51, 0.0, 3), (0, 5, 52, 0.25, 4),
                   (0, 2, 53, 0.0, 5), (0, 7, 54, 0.5, 6),
                   (0, 21, 55, 0.0, 7), (0, 40, 56, 0.0, 8)], {0: 0.25}, 9)
    return t1, t2


@st.composite
def wide_pair(draw):
    """A t1 state with 20 to 30 arcs over few output labels, so labels
    repeat, against a t2 state whose input labels may be epsilon and may
    repeat, and a live filter state."""
    labels = st.integers(min_value=EPS, max_value=6)
    t1_arcs = [(0, draw(st.integers(min_value=EPS, max_value=4)),
                draw(labels), draw(dyadic_weights()),
                draw(st.integers(min_value=1, max_value=5)))
               for _ in range(draw(st.integers(min_value=20, max_value=30)))]
    t2_arcs = [(0, draw(labels), draw(st.integers(min_value=EPS, max_value=3)),
                draw(dyadic_weights()),
                draw(st.integers(min_value=1, max_value=5)))
               for _ in range(draw(st.integers(min_value=1, max_value=12)))]
    t1 = _machine(t1_arcs, {0: 0.5}, 6)
    t2 = _machine(t2_arcs, {0: 0.25, 2: 0.0}, 6)
    return t1, t2, int(draw(st.sampled_from(LIVE_FILTER_STATES)))


class TestIndexJoin:
    @pytest.mark.parametrize("f", LIVE_FILTER_STATES)
    def test_wide_state_matches_pairwise_rule(self, f):
        t1, t2 = _wide_pair()
        key = (0, 0, int(f))
        arcs, final = expand_pair_state(key, t1, t2)
        assert arcs == pair_state_arcs(key, t1, t2)
        # both t1 arcs writing 5 meet both t2 arcs reading 5
        assert len([a for a in arcs if a[1] in (51, 52)]) == 4
        assert len([a for a in arcs if a[0] == EPS]) == \
            (3 if f != FilterState.EPS2_ONLY else 2)
        assert final == t1.final_weight(0) + t2.final_weight(0)

    def test_wide_state_matches_static_route(self):
        t1, t2 = _wide_pair()
        full = compose_static_full(t1, t2)
        key_of = {sid: key for key, sid in full.state_of.items()}
        static = [(a.ilabel, a.olabel, a.weight, key_of[a.nextstate])
                  for a in full.fst.arcs_of(0)]
        arcs, _ = expand_pair_state((0, 0, int(FilterState.ANY)), t1, t2)
        assert sorted(arcs) == sorted(static)

    @given(wide_pair())
    @settings(max_examples=150, deadline=None)
    def test_random_wide_state_matches_pairwise_rule(self, case):
        t1, t2, f = case
        key = (0, 0, f)
        arcs, final = expand_pair_state(key, t1, t2)
        assert arcs == pair_state_arcs(key, t1, t2)
        assert final == t1.final_weight(0) + t2.final_weight(0)


class TestLimitsAndNumbering:
    def test_size_budget(self):
        t1 = _machine([(0, 1, 1, 0.0, 1), (1, 1, 1, 0.0, 2)], {2: 0.0}, 3)
        t2 = _machine([(0, 1, 1, 0.0, 1), (1, 1, 1, 0.0, 2)], {2: 0.0}, 3)
        with pytest.raises(CompositionSizeError):
            compose_static(t1, t2, max_states=2)

    def test_numbering_is_bfs_discovery_order(self):
        t1 = _machine([(0, 1, 1, 0.0, 1), (1, 2, 2, 0.0, 2)], {2: 0.0}, 3)
        t2 = _machine([(0, 1, 1, 0.0, 1), (1, 2, 2, 0.0, 2)], {2: 0.0}, 3)
        full = compose_static_full(t1, t2)
        ids = list(full.state_of.values())
        assert ids == sorted(ids)
        assert full.state_of[(0, 0, FilterState.ANY)] == 0
