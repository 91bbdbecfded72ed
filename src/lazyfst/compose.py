"""Composition of weighted transducers with an epsilon-sequencing filter.

Two routes produce the same graph: `expand_pair_state` here expands one
composed state at a time for the lazy cached layer, and the tests'
`compose_static` (tests/oracles.py) materializes the whole composition
breadth-first as an independent re-derivation to check it against.  Both
follow the same pairing rule: a t1 arc whose output label matches a t2
arc's input label yields one composed arc with the weights multiplied,
and epsilon moves advance exactly one side.

The lazy kernel joins through t1's OLabelIndex (fst.Fst.olabel_index,
OpenFst's output-label-sorted left operand with a matcher): each t2 arc's
input label probes the dict of t1's arcs by output label, so the work
follows the matches rather than t1's fan-out, and t1's epsilon-output
arcs come from the same index.  The filter moves are int tables indexed
by the filter state.

A composed state is a plain `(q1, q2, f)` tuple of ints: t1 state, t2
state, filter state.  t2's int states must sort the way its arcs do (a
replace view's encoding guarantees this), so composed arcs sort by their
natural tuple order, labels, weight, then destination, with no key
function, as in OpenFst's ComposeFst state table.

The filter removes redundant interleavings of epsilon moves.  Between two
matches, all t1-side epsilon moves (t1 advances on an epsilon output)
must come before all t2-side epsilon moves (t2 advances on an epsilon
input); every composed path of the unfiltered relation keeps exactly one
representative because one-sided moves commute.
"""

from __future__ import annotations

from enum import IntEnum

from .fst import EPS, Fst
from .semiring import ZERO


class FilterState(IntEnum):
    ANY = 0        # no epsilon move since the last match
    EPS1_ONLY = 1  # inside a run of t1-side epsilon moves
    EPS2_ONLY = 2  # t2-side epsilons started; t1-side ones are spent
    BLOCKED = 3    # dead; such a state is never created


# The filter's three moves as tables indexed by filter state: a match
# resets it, a t1-side epsilon move is blocked once t2-side ones have
# started, and a t2-side epsilon move always leads to EPS2_ONLY.
MATCH_NEXT = (0, 0, 0, 0)
EPS1_NEXT = (1, 1, 3, 1)
EPS2_NEXT = (2, 2, 2, 2)
BLOCKED = int(FilterState.BLOCKED)


def expand_pair_state(key: tuple[int, int, int], t1: Fst, t2) -> tuple[
        list[tuple[int, int, float, tuple[int, int, int]]], float]:
    """Pure single-state expansion of the filtered lazy composition: the
    arcs out of one composed state and its final weight (ZERO when not
    final), as a plain `(arcs, final)` pair.  Each arc is a plain
    `(ilabel, olabel, weight, (q1, q2, f))` tuple whose destination is a
    pair key: t1 state, t2 state, filter state, all ints.

    `t2` is anything with int states and arcs_of/final_weight/start (an
    Fst or a replace view) whose int order is the order its arcs sort in.
    Matches come from probing t1's OLabelIndex at q1 with the input label
    of each of t2's arcs at q2.  The arcs are sorted by their natural
    tuple order, labels, weight, then the destination (q1, q2, f), which
    fixes the interning order downstream.
    """
    q1, q2, f = key
    index = t1.olabel_index()
    out: list[tuple] = []
    append = out.append

    nf_eps1 = EPS1_NEXT[f]
    if nf_eps1 != BLOCKED:
        for il1, _, w1, d1 in index.eps[q1]:
            append((il1, EPS, w1, (d1, q2, nf_eps1)))
    nf_eps2 = EPS2_NEXT[f]
    labelled = index.labelled[q1]
    if labelled is None:
        for il2, ol2, w2, d2 in t2.arcs_of(q2):
            if il2 != EPS:
                break  # sorted by ilabel; epsilon arcs come first
            append((EPS, ol2, w2, (q1, d2, nf_eps2)))
    else:
        nf_match = MATCH_NEXT[f]
        matches_of = labelled.get
        for il2, ol2, w2, d2 in t2.arcs_of(q2):
            if il2 == EPS:
                append((EPS, ol2, w2, (q1, d2, nf_eps2)))
                continue
            matches = matches_of(il2)
            if matches is not None:
                for il1, _, w1, d1 in matches:
                    append((il1, ol2, w1 + w2, (d1, d2, nf_match)))

    out.sort()
    final = t1.final_weight(q1) + t2.final_weight(q2)
    # A sum of ZEROs is a new inf object; every non-final state shares ZERO.
    return out, ZERO if final == ZERO else final

