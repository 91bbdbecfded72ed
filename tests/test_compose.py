import pytest
from hypothesis import example, given, settings

from oracles import composed_arc_key, enumerate_language, relation_compose
from strategies import acyclic_fst
from lazyfst.compose import (FilterState, compose_static, compose_static_full,
                             expand_pair_state)
from lazyfst.errors import CompositionSizeError
from lazyfst.fst import EPS, FstBuilder


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
        from lazyfst.compose import advance_eps1, advance_eps2, advance_match
        assert advance_match(FilterState.EPS2_ONLY) == FilterState.ANY
        assert advance_eps1(FilterState.ANY) == FilterState.EPS1_ONLY
        assert advance_eps1(FilterState.EPS2_ONLY) == FilterState.BLOCKED
        assert advance_eps2(FilterState.EPS1_ONLY) == FilterState.EPS2_ONLY


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
            exp = expand_pair_state(key, t1, t2)
            static_arcs = [
                (a.ilabel, a.olabel, a.weight, a.nextstate)
                for a in full.fst.arcs_of(sid)]
            lazy_arcs = [(il, ol, w, full.state_of[dst])
                         for il, ol, w, dst in exp.arcs]
            assert [a[:3] for a in lazy_arcs] == [a[:3] for a in static_arcs]
            assert sorted(lazy_arcs) == static_arcs
            assert exp.final == full.fst.final_weight(sid)

    def test_expansion_arcs_sorted(self):
        t1 = _machine([(0, 1, 1, 0.0, 1), (0, 1, EPS, 0.0, 1),
                       (0, 2, 2, 0.5, 1)], {1: 0.0}, 2)
        t2 = _machine([(0, 1, 5, 0.0, 1), (0, 2, 4, 0.0, 1),
                       (0, EPS, 6, 0.0, 1)], {1: 0.0}, 2)
        exp = expand_pair_state((0, 0, FilterState.ANY), t1, t2)
        keys = [composed_arc_key(t2, a) for a in exp.arcs]
        assert keys == sorted(keys)


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
