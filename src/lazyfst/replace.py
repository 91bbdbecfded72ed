"""Lazy replacement of class labels by per-session class FSTs.

The root graph is a word acceptor whose arcs may carry class labels
(non-terminals such as "@contact") on both tapes.  A ReplaceView presents
root-with-classes-substituted as an ordinary state machine without ever
materializing it: entering a class arc becomes an epsilon arc (carrying
the class arc's weight) into the bound FST, and each final state of the
bound FST gets an epsilon arc (carrying its final weight) back to the
state the class arc pointed at.  Nesting is depth one by construction:
bound FSTs must not contain class labels themselves.

View states are plain ints.  A state lying in the root is the root's own
state id, and a root state without a class out-arc passes the root's
sorted arc tuple through unchanged.  A state inside the FST bound to class
`cls`, at its state `qp`, resuming at root state `ret` when that FST
accepts, is `num_root + base[cls] + qp * num_root + ret`, where `base`
accumulates `num_states * num_root` over the bound classes in label
order.  So every root id sorts before every inside id, and inside ids
sort by (cls, qp, ret): arcs sort by their natural tuple order.  Bridge
states (those with a class out-arc) build and sort an arc list of their
own; an inside state maps the bound FST's sorted arcs in order and places
only its exit arc.  The bridge set depends on the root and the class
labels only, so a public cache computes it once (bridge_states) and
hands it to every session's view.  A root state that is not a bridge has
the root's own arcs and final weight under every binding, so the public
cache expands such states against the root alone (precompose).
"""

from __future__ import annotations

from bisect import bisect_right, insort
from typing import Optional, Sequence

from .errors import BuildError, ExpansionError
from .fst import EPS, Arc, Fst, FstBuilder, SymbolTable
from .semiring import ZERO


class ClassBinding:
    """Maps class labels to the FSTs that replace them for one session."""

    def __init__(self, classes: frozenset[int], mapping: dict[int, Fst]):
        for label in mapping:
            if label not in classes:
                raise BuildError(f"binding for {label} which is not a declared class label")
        for label, fst in mapping.items():
            for state in fst.states():
                for arc in fst.arcs_of(state):
                    if arc.olabel in classes or arc.ilabel in classes:
                        raise BuildError(
                            f"class FST for label {label} contains class label "
                            f"{arc.olabel if arc.olabel in classes else arc.ilabel}; "
                            "nesting is limited to depth one")
        self.classes = classes
        self.mapping = dict(mapping)

    def fst_for(self, label: int) -> Fst:
        got = self.mapping.get(label)
        if got is None:
            raise ExpansionError(f"no class FST bound for class label {label}")
        return got


def bridge_states(root: Fst, classes: frozenset[int]) -> frozenset[int]:
    """The root states with a class out-arc, after checking that every
    class arc carries its label on both tapes."""
    bridges = set()
    for state in root.states():
        for arc in root.arcs_of(state):
            if (arc.olabel in classes) != (arc.ilabel in classes) \
                    or (arc.olabel in classes and arc.ilabel != arc.olabel):
                raise BuildError(
                    f"root arc {state}->{arc.nextstate} must carry its class "
                    "label on both tapes")
            if arc.olabel in classes:
                bridges.add(state)
    return frozenset(bridges)


class ReplaceView:
    """Fst-like lazy view of the root with class labels substituted.

    `bridges`, when given, is bridge_states(root, binding.classes),
    already computed; otherwise the view computes it."""

    def __init__(self, root: Fst, binding: ClassBinding,
                 bridges: Optional[frozenset[int]] = None):
        self.root = root
        self.binding = binding
        self.classes = binding.classes
        self.isyms = root.isyms
        self.osyms = root.osyms
        self.start = root.start
        if bridges is None:
            bridges = bridge_states(root, self.classes)
        self.bridges = bridges
        self.num_root = root.num_states
        # first id of each bound class's region of inside states
        self._first: dict[int, int] = {}
        first = self.num_root
        for cls in sorted(binding.mapping):
            self._first[cls] = first
            first += binding.mapping[cls].num_states * self.num_root
        self._region_starts = list(self._first.values())
        self._region_classes = list(self._first)

    def inside_id(self, cls: int, qp: int, ret: int) -> int:
        """The view state at `qp` of the FST bound to `cls`, resuming at
        root state `ret` when that FST accepts."""
        return self._first[cls] + qp * self.num_root + ret

    def inside_of(self, state: int) -> tuple[int, int, int]:
        """`(cls, qp, ret)` of an inside view state; inverse of inside_id."""
        i = bisect_right(self._region_starts, state) - 1
        qp, ret = divmod(state - self._region_starts[i], self.num_root)
        cls = self._region_classes[i]
        return cls, qp, ret

    def arcs_of(self, state: int) -> Sequence[Arc]:
        if state < self.num_root:
            if state not in self.bridges:
                return self.root.arcs_of(state)
            out: list[Arc] = []
            for arc in self.root.arcs_of(state):
                if arc.olabel in self.classes:
                    inner = self.binding.fst_for(arc.olabel)
                    out.append(Arc(EPS, EPS, arc.weight,
                                   self.inside_id(arc.olabel, inner.start,
                                                  arc.nextstate)))
                else:
                    out.append(arc)
            out.sort()
            return out
        # qp -> inside_id(cls, qp, ret) keeps the bound FST's sorted order,
        # so only the exit arc needs placing: its destination `ret` is a
        # root id, below every inside id, so it goes ahead of its ties.
        cls, qp, ret = self.inside_of(state)
        inner = self.binding.mapping[cls]
        n = self.num_root
        at_start = state - qp * n  # inside_id(cls, 0, ret)
        out = [Arc(il, ol, w, at_start + d * n)
               for il, ol, w, d in inner.arcs_of(qp)]
        exit_w = inner.final_weight(qp)
        if exit_w != ZERO:
            insort(out, Arc(EPS, EPS, exit_w, ret))
        return out

    def final_weight(self, state: int) -> float:
        if state < self.num_root:
            return self.root.final_weight(state)
        return ZERO


def insert_epsilon_before_class(root: Fst, classes: frozenset[int]) -> Fst:
    """Split every class-label arc so class arcs only leave dedicated states.

    Each class arc (src -> dst, p:p, w) becomes an epsilon arc (src -> n,
    eps, w) plus (n -> dst, p:p, 0) where n is a fresh state shared by all
    parallel arcs with the same (src, p, dst).  Afterwards no original
    state (the start state in particular) has a class-label out-arc, which
    is what makes those states eligible for shared pre-composition.  A
    root without class arcs comes back unchanged up to renumbering.
    """
    builder = FstBuilder(root.isyms, root.osyms)
    builder.ensure_state(root.num_states - 1)
    new_state: dict[tuple[int, int, int], int] = {}
    for state in root.states():
        for arc in root.arcs_of(state):
            if arc.olabel in classes:
                triple = (state, arc.olabel, arc.nextstate)
                bridge = new_state.get(triple)
                if bridge is None:
                    bridge = builder.add_state()
                    new_state[triple] = bridge
                    builder.add_arc(bridge, arc.ilabel, arc.olabel, 0.0,
                                    arc.nextstate)
                builder.add_arc(state, EPS, EPS, arc.weight, bridge)
            else:
                builder.add_arc(state, arc.ilabel, arc.olabel, arc.weight,
                                arc.nextstate)
    for state, w in root.finals.items():
        builder.set_final(state, w)
    return builder.freeze(start=root.start)


def empty_binding(classes: frozenset[int],
                  syms: Optional[SymbolTable] = None) -> ClassBinding:
    """Every class bound to one single-state FST that accepts nothing;
    the warm-up binding."""
    builder = FstBuilder(syms, syms)
    builder.add_state()
    fst = builder.freeze(start=0)
    return ClassBinding(classes, {c: fst for c in classes})
