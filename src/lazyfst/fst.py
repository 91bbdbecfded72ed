"""Immutable weighted finite-state transducers over the tropical semiring.

The representation is deliberately plain: dense integer states, per-state
arc tuples sorted by (ilabel, olabel, weight, nextstate), a final-weight
dict, and optional symbol tables.  Label 0 is reserved for epsilon on both
tapes.  Everything downstream (composition, lazy expansion, decoding)
iterates arcs in stored order, so the sort is what makes runs reproducible.
A machine used as composition's left operand also carries an
OLabelIndex, its arcs grouped by output label, built once.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Sequence

from .semiring import ZERO, is_member

EPS = 0
EPS_SYMBOL = "<eps>"


class Arc(NamedTuple):
    ilabel: int
    olabel: int
    weight: float
    nextstate: int


class SymbolTable:
    """Bidirectional string <-> label id map; id 0 is always "<eps>"."""

    def __init__(self, symbols: Optional[Iterable[str]] = None):
        self._syms: list[str] = [EPS_SYMBOL]
        self._ids: dict[str, int] = {EPS_SYMBOL: EPS}
        if symbols is not None:
            for s in symbols:
                self.add(s)

    def add(self, symbol: str) -> int:
        """Insert a symbol if new; return its id either way."""
        got = self._ids.get(symbol)
        if got is not None:
            return got
        new_id = len(self._syms)
        self._syms.append(symbol)
        self._ids[symbol] = new_id
        return new_id

    def id_of(self, symbol: str) -> Optional[int]:
        return self._ids.get(symbol)

    def sym_of(self, label: int) -> str:
        return self._syms[label]

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._ids

    def __len__(self) -> int:
        return len(self._syms)

    def symbols(self) -> list[str]:
        return list(self._syms)


def write_symbols(table: SymbolTable) -> str:
    return "".join(f"{sym}\t{i}\n" for i, sym in enumerate(table.symbols()))


class OLabelIndex(NamedTuple):
    """An Fst's arcs grouped by output label, per state: what composition
    needs of its left operand (OpenFst's ArcSort(OLabelCompare) plus a
    matcher).

    `eps[q]` holds q's epsilon-output arcs and `labelled[q]` maps every
    other output label to q's arcs that carry it, both in stored order.
    A state without a labelled out-arc has `labelled[q]` None and
    `eps[q]` its stored arc tuple itself, so it allocates nothing."""
    eps: tuple[tuple[Arc, ...], ...]
    labelled: tuple[Optional[dict[int, tuple[Arc, ...]]], ...]


class Fst:
    """A frozen WFST.  Use FstBuilder to make one.

    States are 0..num_states-1, `start` is one of them, `finals` maps a
    state to its final weight (absent = not final).  Arc lists are tuples
    sorted by (ilabel, olabel, weight, nextstate).
    """

    __slots__ = ("start", "num_states", "_arcs", "finals", "isyms", "osyms",
                 "_olabel_index")

    def __init__(self, start: int, num_states: int,
                 arcs: Sequence[Sequence[Arc]], finals: dict[int, float],
                 isyms: Optional[SymbolTable] = None,
                 osyms: Optional[SymbolTable] = None):
        if num_states <= 0:
            raise ValueError("an Fst needs at least a start state")
        if not 0 <= start < num_states:
            raise ValueError(f"start {start} out of range")
        if len(arcs) != num_states:
            raise ValueError("arc table length != num_states")
        for state, state_arcs in enumerate(arcs):
            for arc in state_arcs:
                if not 0 <= arc.nextstate < num_states:
                    raise ValueError(f"arc from {state} to missing state {arc.nextstate}")
                if not is_member(arc.weight):
                    raise ValueError(f"bad arc weight {arc.weight} at state {state}")
        for state, w in finals.items():
            if not 0 <= state < num_states:
                raise ValueError(f"final weight on missing state {state}")
            if not is_member(w):
                raise ValueError(f"bad final weight {w} at state {state}")
        self.start = start
        self.num_states = num_states
        self._arcs = tuple(tuple(sorted(a)) for a in arcs)
        self.finals = dict(finals)
        self.isyms = isyms
        self.osyms = osyms
        self._olabel_index: Optional[OLabelIndex] = None

    def arcs_of(self, state: int) -> tuple[Arc, ...]:
        return self._arcs[state]

    def final_weight(self, state) -> float:
        return self.finals.get(state, ZERO)

    def olabel_index(self) -> OLabelIndex:
        """This machine's OLabelIndex, built on the first call and kept.
        build_lexicon_fst calls it, so the lexicon transducer's index is
        built with the graph, not on its first expansion."""
        if self._olabel_index is None:
            eps: list[tuple[Arc, ...]] = []
            labelled: list[Optional[dict[int, tuple[Arc, ...]]]] = []
            for arcs in self._arcs:
                by_label: dict[int, list[Arc]] = {}
                for arc in arcs:
                    if arc.olabel != EPS:
                        by_label.setdefault(arc.olabel, []).append(arc)
                if by_label:
                    eps.append(tuple([a for a in arcs if a.olabel == EPS]))
                    labelled.append({label: tuple(group)
                                     for label, group in by_label.items()})
                else:
                    eps.append(arcs)
                    labelled.append(None)
            self._olabel_index = OLabelIndex(tuple(eps), tuple(labelled))
        return self._olabel_index

    @property
    def num_arcs(self) -> int:
        return sum(len(a) for a in self._arcs)

    def states(self) -> range:
        return range(self.num_states)


class FstBuilder:
    """Mutable accumulator; freeze() sorts arcs and returns the Fst."""

    def __init__(self, isyms: Optional[SymbolTable] = None,
                 osyms: Optional[SymbolTable] = None):
        self.arcs: list[list[Arc]] = []
        self.finals: dict[int, float] = {}
        self.isyms = isyms
        self.osyms = osyms

    def add_state(self) -> int:
        self.arcs.append([])
        return len(self.arcs) - 1

    def ensure_state(self, state: int) -> int:
        while len(self.arcs) <= state:
            self.add_state()
        return state

    def add_arc(self, src: int, ilabel: int, olabel: int, weight: float, dst: int) -> None:
        self.ensure_state(max(src, dst))
        self.arcs[src].append(Arc(ilabel, olabel, weight, dst))

    def set_final(self, state: int, weight: float = 0.0) -> None:
        self.ensure_state(state)
        self.finals[state] = weight

    def freeze(self, start: int = 0) -> Fst:
        if not self.arcs:
            self.add_state()
        return Fst(start, len(self.arcs), self.arcs, self.finals,
                   self.isyms, self.osyms)


def write_text_fst(fst: Fst) -> str:
    """Serialize in the text format, start state's block first.

    Output is canonical for a given Fst: states in id order (start hoisted
    to the front), arcs in stored sorted order, weights always written.
    A machine with no arcs and no final states serializes to nothing and
    cannot round-trip; its language is empty anyway.
    """
    def sym(label: int, table: Optional[SymbolTable]) -> str:
        return str(label) if table is None else table.sym_of(label)

    lines: list[str] = []

    def emit(state: int) -> None:
        for arc in fst.arcs_of(state):
            lines.append(f"{state} {arc.nextstate} {sym(arc.ilabel, fst.isyms)} "
                         f"{sym(arc.olabel, fst.osyms)} {arc.weight!r}")
        if state in fst.finals:
            lines.append(f"{state} {fst.finals[state]!r}")

    emit(fst.start)
    for state in fst.states():
        if state != fst.start:
            emit(state)
    return "".join(line + "\n" for line in lines)

