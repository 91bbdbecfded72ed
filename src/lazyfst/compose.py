"""Composition of weighted transducers with an epsilon-sequencing filter.

Two routes produce the same graph: `compose_static` materializes the whole
composition breadth-first (the reference used by tests and oracles), and
`expand_pair_state` expands one composed state at a time for the lazy
cached layer.  Both follow the same pairing rule: a t1 arc whose output
label matches a t2 arc's input label yields one composed arc with the
weights multiplied, and epsilon moves advance exactly one side.

The filter removes redundant interleavings of epsilon moves.  Between two
matches, all t1-side epsilon moves (t1 advances on an epsilon output)
must come before all t2-side epsilon moves (t2 advances on an epsilon
input); every composed path of the unfiltered relation keeps exactly one
representative because one-sided moves commute.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import IntEnum
from operator import itemgetter
from typing import Any, NamedTuple, Optional

from .errors import CompositionSizeError
from .fst import EPS, Arc, Fst, FstBuilder
from .semiring import ZERO


class FilterState(IntEnum):
    ANY = 0        # no epsilon move since the last match
    EPS1_ONLY = 1  # inside a run of t1-side epsilon moves
    EPS2_ONLY = 2  # t2-side epsilons started; t1-side ones are spent
    BLOCKED = 3    # dead; such a state is never created


def advance_match(f: FilterState) -> FilterState:
    return FilterState.ANY


def advance_eps1(f: FilterState) -> FilterState:
    if f == FilterState.EPS2_ONLY:
        return FilterState.BLOCKED
    return FilterState.EPS1_ONLY


def advance_eps2(f: FilterState) -> FilterState:
    return FilterState.EPS2_ONLY


def token_sort_key(token: Any) -> tuple:
    """Total order over t2 state tokens (ints or richer view states)."""
    if isinstance(token, int):
        return (0, token)
    return token.sort_key()


@dataclass(frozen=True, slots=True)
class PairState:
    """One composed state: t1 state, t2 state token, filter state."""
    q1: int
    q2: Any
    f: FilterState


class Expansion(NamedTuple):
    """Arcs out of one composed state (destinations are PairStates) plus
    its final weight (ZERO when not final)."""
    arcs: tuple[Arc, ...]
    final: float


def composed_arc_key(ilabel: int, olabel: int, weight: float,
                     q1: int, q2: Any, f: int) -> tuple:
    """The one order of composed arcs: labels, weight, then the destination
    (t1 state, t2 token, filter state)."""
    return (ilabel, olabel, weight, q1, token_sort_key(q2), f)


def arc_sort_key(arc: Arc) -> tuple:
    dest = arc.nextstate
    return composed_arc_key(arc.ilabel, arc.olabel, arc.weight,
                            dest.q1, dest.q2, int(dest.f))


def expand_pair_state(key: PairState, t1: Fst, t2) -> Expansion:
    """Pure single-state expansion of the filtered lazy composition.

    `t2` is anything with arcs_of/final_weight/start (an Fst or a replace
    view).  The arc list is sorted by composed_arc_key, which fixes the
    interning order downstream; each arc's key is built beside it so the
    sort compares flat tuples.
    """
    q1, q2, f = key.q1, key.q2, key.f
    t2_arcs = t2.arcs_of(q2)
    t2_ilabels = [a.ilabel for a in t2_arcs]
    n2 = len(t2_ilabels)
    keyed: list[tuple[tuple, Arc]] = []
    append = keyed.append

    eps1_f = advance_eps1(f)
    nf_eps1 = int(eps1_f)
    match_f = advance_match(f)
    nf_match = int(match_f)
    for il1, ol1, w1, d1 in t1.arcs_of(q1):
        if ol1 == EPS:
            if eps1_f != FilterState.BLOCKED:
                append((composed_arc_key(il1, EPS, w1, d1, q2, nf_eps1),
                        Arc(il1, EPS, w1, PairState(d1, q2, eps1_f))))
            continue
        i = bisect_left(t2_ilabels, ol1)
        while i < n2 and t2_ilabels[i] == ol1:
            _, ol2, w2, d2 = t2_arcs[i]
            w = w1 + w2
            append((composed_arc_key(il1, ol2, w, d1, d2, nf_match),
                    Arc(il1, ol2, w, PairState(d1, d2, match_f))))
            i += 1
    eps2_f = advance_eps2(f)
    nf_eps2 = int(eps2_f)
    for il2, ol2, w2, d2 in t2_arcs:
        if il2 != EPS:
            break  # sorted by ilabel; epsilon arcs come first
        append((composed_arc_key(EPS, ol2, w2, q1, d2, nf_eps2),
                Arc(EPS, ol2, w2, PairState(q1, d2, eps2_f))))

    keyed.sort(key=itemgetter(0))
    return Expansion(tuple([arc for _, arc in keyed]),
                     t1.final_weight(q1) + t2.final_weight(q2))


@dataclass(frozen=True)
class StaticComposition:
    fst: Fst
    state_of: dict  # PairState -> state id, in discovery order


def compose_static_full(t1: Fst, t2, max_states: int = 1_000_000) -> StaticComposition:
    """Materialize the filtered composition breadth-first.

    States are numbered in discovery order (queue order, arcs sorted the
    same way expand_pair_state sorts them), so repeated runs and the lazy
    layer's empty-cache exploration produce identical numberings.  Raises
    CompositionSizeError when more than `max_states` composed states
    appear.
    """
    start = PairState(t1.start, t2.start, FilterState.ANY)
    state_of: dict[PairState, int] = {start: 0}
    queue: list[PairState] = [start]
    builder = FstBuilder(t1.isyms, getattr(t2, "osyms", None))
    builder.add_state()
    head = 0
    while head < len(queue):
        key = queue[head]
        head += 1
        src = state_of[key]
        q1, q2, f = key.q1, key.q2, key.f

        # Inline re-derivation of the pairing rule; kept separate from
        # expand_pair_state on purpose so the two can check each other.
        generated: list[Arc] = []
        t2_arcs = t2.arcs_of(q2)
        for e2 in t2_arcs:
            if e2.ilabel != EPS:
                continue
            generated.append(Arc(EPS, e2.olabel, e2.weight,
                                 PairState(q1, e2.nextstate, advance_eps2(f))))
        by_il: dict[int, list[Arc]] = {}
        for e2 in t2_arcs:
            by_il.setdefault(e2.ilabel, []).append(e2)
        for e1 in t1.arcs_of(q1):
            if e1.olabel == EPS:
                nf = advance_eps1(f)
                if nf != FilterState.BLOCKED:
                    generated.append(Arc(e1.ilabel, EPS, e1.weight,
                                         PairState(e1.nextstate, q2, nf)))
            else:
                for e2 in by_il.get(e1.olabel, ()):
                    generated.append(Arc(e1.ilabel, e2.olabel,
                                         e1.weight + e2.weight,
                                         PairState(e1.nextstate, e2.nextstate,
                                                   advance_match(f))))
        generated.sort(key=arc_sort_key)

        for arc in generated:
            dst_key = arc.nextstate
            dst = state_of.get(dst_key)
            if dst is None:
                if len(state_of) >= max_states:
                    raise CompositionSizeError(
                        f"composition exceeded {max_states} states")
                dst = len(state_of)
                state_of[dst_key] = dst
                builder.add_state()
                queue.append(dst_key)
            builder.add_arc(src, arc.ilabel, arc.olabel, arc.weight, dst)
        final = t1.final_weight(q1) + t2.final_weight(q2)
        if final != ZERO:
            builder.set_final(src, final)
    return StaticComposition(builder.freeze(start=0), state_of)


def compose_static(t1: Fst, t2, max_states: int = 1_000_000) -> Fst:
    return compose_static_full(t1, t2, max_states=max_states).fst
