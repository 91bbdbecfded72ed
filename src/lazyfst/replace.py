"""Lazy replacement of the class label by a per-session class FST.

The root graph is a word acceptor whose arcs may carry the class label
(a non-terminal such as "@contact") on both tapes.  A ReplaceView
presents root-with-class-substituted as an ordinary state machine
without ever materializing it: entering a class arc becomes an epsilon
arc (carrying the class arc's weight) into the one bound FST, and each
final state of the bound FST gets an epsilon arc (carrying its final
weight) back to the state the class arc pointed at.  Nesting is depth
one by construction: the bound FST must not contain the class label.

View states are plain ints.  A state lying in the root is the root's own
state id, and a root state without a class out-arc passes the root's
sorted arc tuple through unchanged.  A state inside the bound FST, at
its state `qp`, resuming at root state `ret` when that FST accepts, is
`(qp + 1) * num_root + ret`.  So every root id sorts before every inside
id, and inside ids sort by (qp, ret): arcs sort by their natural tuple
order.  Bridge states (those with a class out-arc) build and sort an arc
list of their own; an inside state maps the bound FST's sorted arcs in
order and places only its exit arc.  The arcs a view builds are plain
`(ilabel, olabel, weight, nextstate)` tuples, so read them by position.
The bridge set depends on the root and the class label only, so a
public cache computes it once (bridge_states) and hands it to every
session's view.  A root state that is not a bridge has the root's own
arcs and final weight under every binding, so the public cache expands
such states against the root alone when it is made.
"""

from __future__ import annotations

from bisect import insort
from typing import Optional, Sequence

from .errors import BuildError
from .fst import EPS, Fst, FstBuilder, SymbolTable
from .semiring import ZERO


class ClassBinding:
    """The FST that replaces the class label `label` for one session."""

    def __init__(self, label: int, fst: Fst):
        for state in fst.states():
            for arc in fst.arcs_of(state):
                if label in (arc.ilabel, arc.olabel):
                    raise BuildError(
                        f"class FST for label {label} contains that label; "
                        "nesting is limited to depth one")
        self.label = label
        self.fst = fst


def bridge_states(root: Fst, label: int) -> frozenset[int]:
    """The root states with a class out-arc, after checking that every
    class arc carries `label` on both tapes."""
    bridges = set()
    for state in root.states():
        for arc in root.arcs_of(state):
            if (arc.olabel == label) != (arc.ilabel == label):
                raise BuildError(
                    f"root arc {state}->{arc.nextstate} must carry its class "
                    "label on both tapes")
            if arc.olabel == label:
                bridges.add(state)
    return frozenset(bridges)


class ReplaceView:
    """Fst-like lazy view of the root with the class label substituted;
    `bridges` is bridge_states(root, binding.label)."""

    def __init__(self, root: Fst, binding: ClassBinding,
                 bridges: frozenset[int]):
        self.root = root
        self.label = binding.label
        self.fst = binding.fst
        self.bridges = bridges
        self.num_root = root.num_states

    def arcs_of(self, state: int) -> Sequence[tuple[int, int, float, int]]:
        n = self.num_root
        if state < n:
            if state not in self.bridges:
                return self.root.arcs_of(state)
            entry = (self.fst.start + 1) * n  # inside state (start, 0)
            label = self.label
            out = [(EPS, EPS, arc[2], entry + arc[3]) if arc[1] == label
                   else arc for arc in self.root.arcs_of(state)]
            out.sort()
            return out
        # qp -> (qp + 1) * n + ret keeps the bound FST's sorted order, so
        # only the exit arc needs placing: its destination `ret` is a root
        # id, below every inside id, so it goes ahead of its ties.
        qp, ret = divmod(state, n)
        qp -= 1
        at_start = n + ret  # inside state (0, ret)
        out = [(il, ol, w, at_start + d * n)
               for il, ol, w, d in self.fst.arcs_of(qp)]
        exit_w = self.fst.final_weight(qp)
        if exit_w != ZERO:
            insort(out, (EPS, EPS, exit_w, ret))
        return out

    def final_weight(self, state: int) -> float:
        if state < self.num_root:
            return self.root.final_weight(state)
        return ZERO


def insert_epsilon_before_class(root: Fst, label: int) -> Fst:
    """Split every arc labelled `label` so class arcs only leave dedicated
    states.

    Each class arc (src -> dst, p:p, w) becomes an epsilon arc (src -> n,
    eps, w) plus (n -> dst, p:p, 0) where n is a fresh state shared by all
    parallel class arcs with the same (src, dst).  Afterwards no original
    state (the start state in particular) has a class-label out-arc, which
    is what makes those states eligible for shared pre-composition.  A
    root without class arcs comes back unchanged up to renumbering.
    """
    builder = FstBuilder(root.isyms, root.osyms)
    builder.ensure_state(root.num_states - 1)
    new_state: dict[tuple[int, int], int] = {}
    for state in root.states():
        for arc in root.arcs_of(state):
            if arc.olabel == label:
                pair = (state, arc.nextstate)
                bridge = new_state.get(pair)
                if bridge is None:
                    bridge = builder.add_state()
                    new_state[pair] = bridge
                    builder.add_arc(bridge, arc.ilabel, arc.olabel, 0.0,
                                    arc.nextstate)
                builder.add_arc(state, EPS, EPS, arc.weight, bridge)
            else:
                builder.add_arc(state, arc.ilabel, arc.olabel, arc.weight,
                                arc.nextstate)
    for state, w in root.finals.items():
        builder.set_final(state, w)
    return builder.freeze(start=root.start)


def empty_binding(label: int,
                  syms: Optional[SymbolTable] = None) -> ClassBinding:
    """`label` bound to one single-state FST that accepts nothing; the
    warm-up binding."""
    builder = FstBuilder(syms, syms)
    builder.add_state()
    fst = builder.freeze(start=0)
    return ClassBinding(label, fst)
