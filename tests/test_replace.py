import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (acceptor_language, compose_static_full, composed_arc_key,
                     enumerate_language, inside_id, replace_view,
                     substitute_language, view_arc_key, view_state_key)
from strategies import acyclic_fst
from lazyfst.compose import FilterState, expand_pair_state
from lazyfst.errors import BuildError
from lazyfst.fst import EPS, FstBuilder
from lazyfst.harness import binding_for
from lazyfst.replace import (ClassBinding, empty_binding,
                             insert_epsilon_before_class)

CLS = 9


def acceptor(arcs, finals, n):
    b = FstBuilder()
    b.ensure_state(n - 1)
    for src, label, w, dst in arcs:
        b.add_arc(src, label, label, w, dst)
    for state, w in finals.items():
        b.set_final(state, w)
    return b.freeze(start=0)


@pytest.fixture
def simple_root():
    # accepts "1 @cls 2" and "1 1"
    return acceptor([(0, 1, 0.5, 1), (1, CLS, 0.25, 2), (2, 2, 0.0, 3),
                     (1, 1, 1.0, 3)], {3: 0.75}, 4)


@pytest.fixture
def simple_class():
    # accepts "3" and "3 4"
    return acceptor([(0, 3, 0.25, 1), (1, 4, 0.5, 2)], {1: 0.0, 2: 1.0}, 3)


class TestBindingValidation:
    def test_nested_class_rejected(self):
        nested = acceptor([(0, CLS, 0.0, 1)], {1: 0.0}, 2)
        with pytest.raises(BuildError):
            ClassBinding(CLS, nested)

    def test_one_sided_class_label_rejected(self, simple_class):
        b = FstBuilder()
        b.ensure_state(1)
        b.add_arc(0, CLS, 1, 0.0, 1)
        b.set_final(1)
        bad_root = b.freeze()
        with pytest.raises(BuildError):
            replace_view(bad_root,
                         ClassBinding(CLS, simple_class))


class TestViewStructure:
    def test_class_arc_becomes_epsilon_entry(self, simple_root, simple_class):
        view = replace_view(simple_root,
                            ClassBinding(CLS, simple_class))
        arcs = view.arcs_of(1)
        assert arcs == sorted(arcs, key=lambda a: view_arc_key(view, a))
        entries = [a for a in arcs if a[3] >= view.num_root]
        assert len(entries) == 1
        entry = entries[0]
        assert entry[:3] == (EPS, EPS, 0.25)
        assert entry[3] == inside_id(view, simple_class.start, 2)

    def test_exit_carries_final_weight(self, simple_root, simple_class):
        view = replace_view(simple_root,
                            ClassBinding(CLS, simple_class))
        arcs = view.arcs_of(inside_id(view, 2, ret=2))
        exits = [a for a in arcs if a[3] < view.num_root]
        assert exits == [(EPS, EPS, 1.0, 2)]

    def test_inside_states_are_never_final(self, simple_root, simple_class):
        view = replace_view(simple_root,
                            ClassBinding(CLS, simple_class))
        assert view.final_weight(inside_id(view, 1, 2)) == float("inf")
        assert view.final_weight(3) == 0.75

    def test_language_hand_computed(self, simple_root, simple_class):
        view = replace_view(simple_root,
                            ClassBinding(CLS, simple_class))
        lang = acceptor_language(view)
        assert lang == {
            (1, 1): 0.5 + 1.0 + 0.75,
            (1, 3, 2): 0.5 + 0.25 + 0.25 + 0.0 + 0.0 + 0.75,
            (1, 3, 4, 2): 0.5 + 0.25 + 0.25 + 0.5 + 1.0 + 0.0 + 0.75,
        }


class TestArcOrder:
    def test_root_arcs_pass_through_uncopied(self, simple_root, simple_class):
        view = replace_view(simple_root,
                            ClassBinding(CLS, simple_class))
        assert view.bridges == {1}
        for state in (0, 2, 3):
            assert view.arcs_of(state) is simple_root.arcs_of(state)

    def test_exit_arc_sorts_before_tied_inside_arcs(self):
        # state 0 of the class FST is final (weight 1.0) and has two
        # epsilon arcs, one tying the exit arc on (ilabel, olabel, weight)
        inner = acceptor([(0, EPS, 1.0, 1), (0, EPS, 0.5, 1), (0, 3, 0.25, 1)],
                         {0: 1.0, 1: 0.0}, 2)
        root = acceptor([(0, CLS, 0.0, 1)], {1: 0.0}, 2)
        view = replace_view(root, ClassBinding(CLS, inner))
        deeper = inside_id(view, 1, 1)
        assert [tuple(a) for a in view.arcs_of(inside_id(view, 0, 1))] == [
            (EPS, EPS, 0.5, deeper),
            (EPS, EPS, 1.0, 1),
            (EPS, EPS, 1.0, deeper),
            (3, 3, 0.25, deeper),
        ]
        t1 = acceptor([(0, 3, 0.0, 1)], {1: 0.0}, 2)
        arcs, _ = expand_pair_state(
            (0, inside_id(view, 0, 1), FilterState.ANY), t1, view)
        eps2 = FilterState.EPS2_ONLY
        assert [tuple(a) for a in arcs] == [
            (EPS, EPS, 0.5, (0, deeper, eps2)),
            (EPS, EPS, 1.0, (0, 1, eps2)),
            (EPS, EPS, 1.0, (0, deeper, eps2)),
            (3, 3, 0.25, (1, deeper, FilterState.ANY)),
        ]

    def test_inside_arcs_are_in_view_order_on_desk(self, desk_build):
        # every inside state of every desk user, resuming at every root
        # state a class arc points to
        rets = {arc.nextstate for q in desk_build.root.states()
                for arc in desk_build.root.arcs_of(q)
                if arc.olabel == desk_build.class_id}
        checked = 0
        for user in sorted(desk_build.bindings):
            view = replace_view(desk_build.root, binding_for(desk_build, user))
            for qp in view.fst.states():
                for ret in sorted(rets):
                    arcs = list(view.arcs_of(inside_id(view, qp, ret)))
                    assert arcs == sorted(
                        arcs, key=lambda a: view_arc_key(view, a))
                    checked += 1
        assert checked > len(desk_build.bindings)

    @given(acyclic_fst(num_labels=2, acceptor=True, label_base=3))
    @settings(max_examples=60, deadline=None)
    def test_inside_arcs_are_in_view_order(self, inner):
        # random final states with out-arcs, epsilon arcs and dyadic
        # weights put the exit arc among ties, which desk contacts do not
        root = acceptor([(0, CLS, 0.0, 1)], {1: 0.0}, 2)
        view = replace_view(root, ClassBinding(CLS, inner))
        for qp in inner.states():
            arcs = list(view.arcs_of(inside_id(view, qp, 1)))
            assert arcs == sorted(arcs, key=lambda a: view_arc_key(view, a))

    def test_composed_arcs_are_in_composed_order_on_desk(self, desk_build):
        # every composed state reachable from the start, for every user
        inside = 0
        for user in sorted(desk_build.bindings):
            view = replace_view(desk_build.root, binding_for(desk_build, user))
            reachable = compose_static_full(desk_build.t1, view).state_of
            for key in reachable:
                arcs, _ = expand_pair_state(key, desk_build.t1, view)
                order = [composed_arc_key(view, a) for a in arcs]
                assert order == sorted(order)
                inside += key[1] >= view.num_root
        assert inside > len(desk_build.bindings)


@st.composite
def view_and_states(draw):
    """A view over a root of random size with the class bound to an FST
    of random size, then random root states and (qp, ret) pairs."""
    num_root = draw(st.integers(min_value=1, max_value=12))
    size = draw(st.integers(min_value=1, max_value=6))
    view = replace_view(acceptor([], {}, num_root),
                        ClassBinding(CLS, acceptor([], {}, size)))
    pair = st.tuples(st.integers(min_value=0, max_value=size - 1),
                     st.integers(min_value=0, max_value=num_root - 1))
    roots = draw(st.lists(st.integers(min_value=0, max_value=num_root - 1),
                          max_size=6))
    return view, roots, draw(st.lists(pair, min_size=1, max_size=24))


class TestStateEncoding:
    @given(view_and_states())
    @settings(max_examples=200, deadline=None)
    def test_int_order_is_root_then_cls_qp_ret(self, case):
        view, roots, pairs = case
        ids = roots + [inside_id(view, *t) for t in pairs]
        old = [(0, q) for q in roots] + [(2, *t) for t in pairs]
        for a, key_a in zip(ids, old):
            assert view_state_key(view, a) == key_a
            for b, key_b in zip(ids, old):
                assert (a < b) == (key_a < key_b)
                assert (a == b) == (key_a == key_b)


class TestAgainstSubstitutionOracle:
    @given(acyclic_fst(num_labels=3, acceptor=True, allow_ieps=False,
                       label_base=CLS - 1),
           acyclic_fst(num_labels=2, acceptor=True, allow_ieps=False,
                       label_base=3))
    @settings(max_examples=80, deadline=None)
    def test_view_language_equals_substitution(self, root, class_fst):
        # root draws labels from {8, 9, 10}; 9 is the class label.
        binding = ClassBinding(CLS, class_fst)
        view = replace_view(root, binding)
        got = acceptor_language(view)
        want = substitute_language(
            acceptor_language(root), {CLS: acceptor_language(class_fst)})
        assert got == want

    @given(acyclic_fst(num_labels=3, acceptor=True, allow_ieps=False,
                       label_base=CLS - 1))
    @settings(max_examples=40, deadline=None)
    def test_empty_binding_prunes_class_strings(self, root):
        view = replace_view(root, empty_binding(CLS))
        got = acceptor_language(view)
        want = {s: w for s, w in acceptor_language(root).items()
                if CLS not in s}
        assert got == want


class TestInsertEpsilonBeforeClass:
    @given(acyclic_fst(num_labels=3, acceptor=True, allow_ieps=False,
                       label_base=CLS - 1))
    @settings(max_examples=80, deadline=None)
    def test_language_preserved_exactly(self, root):
        out = insert_epsilon_before_class(root, CLS)
        assert enumerate_language(out) == enumerate_language(root)

    @given(acyclic_fst(num_labels=3, acceptor=True, allow_ieps=False,
                       label_base=CLS - 1))
    @settings(max_examples=80, deadline=None)
    def test_class_arcs_leave_only_bridge_states(self, root):
        out = insert_epsilon_before_class(root, CLS)
        # original states keep their ids; none may keep a class out-arc
        for state in range(root.num_states):
            assert all(a.olabel != CLS for a in out.arcs_of(state))
        # bridge states carry exactly one arc: the zero-weight class arc
        for state in range(root.num_states, out.num_states):
            arcs = out.arcs_of(state)
            assert len(arcs) == 1
            assert arcs[0].olabel == CLS and arcs[0].weight == 0.0

    def test_parallel_arcs_share_one_bridge(self):
        b = FstBuilder()
        b.ensure_state(1)
        b.add_arc(0, CLS, CLS, 0.5, 1)
        b.add_arc(0, CLS, CLS, 1.5, 1)
        b.set_final(1)
        out = insert_epsilon_before_class(b.freeze(), CLS)
        assert out.num_states == 3  # one shared bridge
        eps_arcs = [a for a in out.arcs_of(0) if a.olabel == EPS]
        assert sorted(a.weight for a in eps_arcs) == [0.5, 1.5]

    def test_root_without_class_arcs_unchanged(self):
        root = acceptor([(0, 1, 0.5, 1)], {1: 0.0}, 2)
        out = insert_epsilon_before_class(root, CLS)
        assert enumerate_language(out) == enumerate_language(root)
        assert out.num_states == root.num_states


class TestHelperMachines:
    def test_empty_binding_accepts_nothing(self):
        binding = empty_binding(CLS)
        assert acceptor_language(binding.fst) == {}
