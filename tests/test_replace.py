import pytest
from hypothesis import given, settings

from oracles import acceptor_language, enumerate_language, substitute_language
from strategies import acyclic_fst
from lazyfst.compose import FilterState, PairState, expand_pair_state
from lazyfst.errors import BuildError, ExpansionError
from lazyfst.fst import EPS, FstBuilder
from lazyfst.harness import binding_for
from lazyfst.replace import (ClassBinding, InsideState, ReplaceView,
                             _view_arc_key, empty_binding,
                             insert_epsilon_before_class,
                             make_placeholder_class_fst, placeholder_binding)

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
    def test_undeclared_label_rejected(self, simple_class):
        with pytest.raises(BuildError):
            ClassBinding(frozenset({CLS}), {7: simple_class})

    def test_nested_class_rejected(self):
        nested = acceptor([(0, CLS, 0.0, 1)], {1: 0.0}, 2)
        with pytest.raises(BuildError):
            ClassBinding(frozenset({CLS}), {CLS: nested})

    def test_unbound_label_expands_to_error(self, simple_root):
        view = ReplaceView(simple_root, ClassBinding(frozenset({CLS}), {}))
        with pytest.raises(ExpansionError):
            view.arcs_of(1)

    def test_one_sided_class_label_rejected(self, simple_class):
        b = FstBuilder()
        b.ensure_state(1)
        b.add_arc(0, CLS, 1, 0.0, 1)
        b.set_final(1)
        bad_root = b.freeze()
        with pytest.raises(BuildError):
            ReplaceView(bad_root,
                        ClassBinding(frozenset({CLS}), {CLS: simple_class}))


class TestViewStructure:
    def test_class_arc_becomes_epsilon_entry(self, simple_root, simple_class):
        view = ReplaceView(simple_root,
                           ClassBinding(frozenset({CLS}), {CLS: simple_class}))
        arcs = view.arcs_of(1)
        entries = [a for a in arcs if isinstance(a.nextstate, InsideState)]
        assert len(entries) == 1
        entry = entries[0]
        assert (entry.ilabel, entry.olabel, entry.weight) == (EPS, EPS, 0.25)
        assert entry.nextstate == InsideState(CLS, simple_class.start, 2)

    def test_exit_carries_final_weight(self, simple_root, simple_class):
        view = ReplaceView(simple_root,
                           ClassBinding(frozenset({CLS}), {CLS: simple_class}))
        arcs = view.arcs_of(InsideState(CLS, 2, ret=2))
        exits = [a for a in arcs if isinstance(a.nextstate, int)]
        assert exits == [type(exits[0])(EPS, EPS, 1.0, 2)]

    def test_inside_states_are_never_final(self, simple_root, simple_class):
        view = ReplaceView(simple_root,
                           ClassBinding(frozenset({CLS}), {CLS: simple_class}))
        assert view.final_weight(InsideState(CLS, 1, 2)) == float("inf")
        assert view.final_weight(3) == 0.75

    def test_language_hand_computed(self, simple_root, simple_class):
        view = ReplaceView(simple_root,
                           ClassBinding(frozenset({CLS}), {CLS: simple_class}))
        lang = acceptor_language(view)
        assert lang == {
            (1, 1): 0.5 + 1.0 + 0.75,
            (1, 3, 2): 0.5 + 0.25 + 0.25 + 0.0 + 0.0 + 0.75,
            (1, 3, 4, 2): 0.5 + 0.25 + 0.25 + 0.5 + 1.0 + 0.0 + 0.75,
        }


class TestArcOrder:
    def test_root_arcs_pass_through_uncopied(self, simple_root, simple_class):
        view = ReplaceView(simple_root,
                           ClassBinding(frozenset({CLS}), {CLS: simple_class}))
        assert view.bridges == {1}
        for state in (0, 2, 3):
            assert view.arcs_of(state) is simple_root.arcs_of(state)

    def test_exit_arc_sorts_before_tied_inside_arcs(self):
        # state 0 of the class FST is final (weight 1.0) and has two
        # epsilon arcs, one tying the exit arc on (ilabel, olabel, weight)
        inner = acceptor([(0, EPS, 1.0, 1), (0, EPS, 0.5, 1), (0, 3, 0.25, 1)],
                         {0: 1.0, 1: 0.0}, 2)
        root = acceptor([(0, CLS, 0.0, 1)], {1: 0.0}, 2)
        view = ReplaceView(root, ClassBinding(frozenset({CLS}), {CLS: inner}))
        deeper = InsideState(CLS, 1, 1)
        assert [tuple(a) for a in view.arcs_of(InsideState(CLS, 0, 1))] == [
            (EPS, EPS, 0.5, deeper),
            (EPS, EPS, 1.0, 1),
            (EPS, EPS, 1.0, deeper),
            (3, 3, 0.25, deeper),
        ]
        t1 = acceptor([(0, 3, 0.0, 1)], {1: 0.0}, 2)
        exp = expand_pair_state(
            PairState(0, InsideState(CLS, 0, 1), FilterState.ANY), t1, view)
        eps2 = FilterState.EPS2_ONLY
        assert [tuple(a) for a in exp.arcs] == [
            (EPS, EPS, 0.5, PairState(0, deeper, eps2)),
            (EPS, EPS, 1.0, PairState(0, 1, eps2)),
            (EPS, EPS, 1.0, PairState(0, deeper, eps2)),
            (3, 3, 0.25, PairState(1, deeper, FilterState.ANY)),
        ]

    def test_inside_arcs_are_in_view_order_on_desk(self, desk_build):
        # every inside state of every desk user, resuming at every root
        # state a class arc points to
        rets = {arc.nextstate for q in desk_build.root.states()
                for arc in desk_build.root.arcs_of(q)
                if arc.olabel in desk_build.class_ids}
        (cls,) = desk_build.class_ids
        checked = 0
        for user, contacts in sorted(desk_build.contact_fsts.items()):
            view = ReplaceView(desk_build.root, binding_for(desk_build, user))
            for qp in contacts.states():
                for ret in sorted(rets):
                    arcs = list(view.arcs_of(InsideState(cls, qp, ret)))
                    assert arcs == sorted(arcs, key=_view_arc_key)
                    checked += 1
        assert checked > len(desk_build.contact_fsts)

    @given(acyclic_fst(num_labels=2, acceptor=True, label_base=3))
    @settings(max_examples=60, deadline=None)
    def test_inside_arcs_are_in_view_order(self, inner):
        # random final states with out-arcs, epsilon arcs and dyadic
        # weights put the exit arc among ties, which desk contacts do not
        root = acceptor([(0, CLS, 0.0, 1)], {1: 0.0}, 2)
        view = ReplaceView(root, ClassBinding(frozenset({CLS}), {CLS: inner}))
        for qp in inner.states():
            arcs = list(view.arcs_of(InsideState(CLS, qp, 1)))
            assert arcs == sorted(arcs, key=_view_arc_key)


class TestAgainstSubstitutionOracle:
    @given(acyclic_fst(num_labels=3, acceptor=True, allow_ieps=False,
                       label_base=CLS - 1),
           acyclic_fst(num_labels=2, acceptor=True, allow_ieps=False,
                       label_base=3))
    @settings(max_examples=80, deadline=None)
    def test_view_language_equals_substitution(self, root, class_fst):
        # root draws labels from {8, 9, 10}; 9 is the class label.
        binding = ClassBinding(frozenset({CLS}), {CLS: class_fst})
        view = ReplaceView(root, binding)
        got = acceptor_language(view)
        want = substitute_language(
            acceptor_language(root), {CLS: acceptor_language(class_fst)})
        assert got == want

    @given(acyclic_fst(num_labels=3, acceptor=True, allow_ieps=False,
                       label_base=CLS - 1))
    @settings(max_examples=40, deadline=None)
    def test_empty_binding_prunes_class_strings(self, root):
        view = ReplaceView(root, empty_binding(frozenset({CLS})))
        got = acceptor_language(view)
        want = {s: w for s, w in acceptor_language(root).items()
                if CLS not in s}
        assert got == want


class TestInsertEpsilonBeforeClass:
    @given(acyclic_fst(num_labels=3, acceptor=True, allow_ieps=False,
                       label_base=CLS - 1))
    @settings(max_examples=80, deadline=None)
    def test_language_preserved_exactly(self, root):
        out = insert_epsilon_before_class(root, frozenset({CLS}))
        assert enumerate_language(out) == enumerate_language(root)

    @given(acyclic_fst(num_labels=3, acceptor=True, allow_ieps=False,
                       label_base=CLS - 1))
    @settings(max_examples=80, deadline=None)
    def test_class_arcs_leave_only_bridge_states(self, root):
        classes = frozenset({CLS})
        out = insert_epsilon_before_class(root, classes)
        # original states keep their ids; none may keep a class out-arc
        for state in range(root.num_states):
            assert all(a.olabel not in classes for a in out.arcs_of(state))
        # bridge states carry exactly one arc: the zero-weight class arc
        for state in range(root.num_states, out.num_states):
            arcs = out.arcs_of(state)
            assert len(arcs) == 1
            assert arcs[0].olabel in classes and arcs[0].weight == 0.0

    def test_parallel_arcs_share_one_bridge(self):
        b = FstBuilder()
        b.ensure_state(1)
        b.add_arc(0, CLS, CLS, 0.5, 1)
        b.add_arc(0, CLS, CLS, 1.5, 1)
        b.set_final(1)
        out = insert_epsilon_before_class(b.freeze(), frozenset({CLS}))
        assert out.num_states == 3  # one shared bridge
        eps_arcs = [a for a in out.arcs_of(0) if a.olabel == EPS]
        assert sorted(a.weight for a in eps_arcs) == [0.5, 1.5]

    def test_root_without_class_arcs_unchanged(self):
        root = acceptor([(0, 1, 0.5, 1)], {1: 0.0}, 2)
        out = insert_epsilon_before_class(root, frozenset({CLS}))
        assert enumerate_language(out) == enumerate_language(root)
        assert out.num_states == root.num_states


class TestHelperMachines:
    def test_placeholder_accepts_only_placeholder(self):
        fst = make_placeholder_class_fst(5)
        assert acceptor_language(fst) == {(5,): 0.0}

    def test_placeholder_binding_covers_all_classes(self):
        binding = placeholder_binding(frozenset({3, 4}), temp_label=5)
        assert set(binding.mapping) == {3, 4}

    def test_empty_binding_accepts_nothing(self):
        binding = empty_binding(frozenset({CLS}))
        assert acceptor_language(binding.fst_for(CLS)) == {}
