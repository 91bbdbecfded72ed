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

import math
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import ParseError
from .semiring import ZERO, is_member

EPS = 0


class Arc(NamedTuple):
    ilabel: int
    olabel: int
    weight: float
    nextstate: int


class SymbolTable:
    """Bidirectional string <-> label id map; id 0 is always "<eps>"."""

    def __init__(self, symbols: Optional[Iterable[str]] = None):
        self._syms: list[str] = ["<eps>"]
        self._ids: dict[str, int] = {"<eps>": 0}
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

    def copy(self) -> "SymbolTable":
        return SymbolTable(self._syms[1:])


def read_symbols(text: str, path: str = "<string>") -> SymbolTable:
    """Parse "symbol<TAB>id" lines; ids must be dense from 0 and 0 = <eps>."""
    entries: list[tuple[str, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ParseError(path, lineno, f"expected 'symbol<TAB>id', got {raw!r}")
        sym, id_str = parts
        try:
            sym_id = int(id_str)
        except ValueError:
            raise ParseError(path, lineno, f"bad id {id_str!r}") from None
        entries.append((sym, sym_id))
    entries.sort(key=lambda e: e[1])
    if not entries or entries[0] != ("<eps>", 0):
        raise ParseError(path, 1, "symbol table must map <eps> to id 0")
    table = SymbolTable()
    for sym, sym_id in entries[1:]:
        if sym_id != len(table):
            raise ParseError(path, 1, f"non-dense id {sym_id} for {sym!r}")
        table.add(sym)
    return table


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
    """A frozen WFST.  Use FstBuilder (or the read/compose helpers) to make one.

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


def _fmt_weight(w: float) -> str:
    return repr(w)


def read_text_fst(text: str, isyms: Optional[SymbolTable] = None,
                  osyms: Optional[SymbolTable] = None,
                  path: str = "<string>") -> Fst:
    """Parse the text format.

    Arc lines are "src dst isym osym [weight]", final lines "state [weight]";
    a missing weight means 0.0.  The src of the first line is the start
    state.  Labels are resolved through the symbol tables when given,
    otherwise they must be integer ids.
    """
    def resolve(tok: str, table: Optional[SymbolTable], lineno: int) -> int:
        if table is None:
            try:
                return int(tok)
            except ValueError:
                raise ParseError(path, lineno, f"no symbol table and non-integer label {tok!r}") from None
        got = table.id_of(tok)
        if got is None:
            raise ParseError(path, lineno, f"unknown symbol {tok!r}")
        return got

    def parse_weight(tok: str, lineno: int) -> float:
        try:
            w = float(tok)
        except ValueError:
            raise ParseError(path, lineno, f"bad weight {tok!r}") from None
        if not is_member(w):
            raise ParseError(path, lineno, f"weight {tok!r} outside the tropical domain")
        return w

    builder = FstBuilder(isyms, osyms)
    start: Optional[int] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts:
            continue
        try:
            fields_int = int(parts[0])
        except ValueError:
            raise ParseError(path, lineno, f"bad state id {parts[0]!r}") from None
        if len(parts) in (1, 2):
            weight = parse_weight(parts[1], lineno) if len(parts) == 2 else 0.0
            builder.ensure_state(fields_int)
            builder.set_final(fields_int, weight)
            if start is None:
                start = fields_int
        elif len(parts) in (4, 5):
            try:
                dst = int(parts[1])
            except ValueError:
                raise ParseError(path, lineno, f"bad state id {parts[1]!r}") from None
            il = resolve(parts[2], isyms, lineno)
            ol = resolve(parts[3], osyms, lineno)
            weight = parse_weight(parts[4], lineno) if len(parts) == 5 else 0.0
            builder.add_arc(fields_int, il, ol, weight, dst)
            if start is None:
                start = fields_int
        else:
            raise ParseError(path, lineno, f"expected 1-2 or 4-5 fields, got {len(parts)}")
    if start is None:
        raise ParseError(path, 1, "no states: input defines an empty machine")
    return builder.freeze(start=start)


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
                         f"{sym(arc.olabel, fst.osyms)} {_fmt_weight(arc.weight)}")
        if state in fst.finals:
            lines.append(f"{state} {_fmt_weight(fst.finals[state])}")

    emit(fst.start)
    for state in fst.states():
        if state != fst.start:
            emit(state)
    return "".join(line + "\n" for line in lines)


def canonicalize(fst: Fst) -> Fst:
    """Renumber states in BFS discovery order from the start state.

    Two isomorphic machines canonicalize to structurally identical ones
    (hence identical write_text_fst output), provided no state carries two
    arcs that agree on (ilabel, olabel, weight) but differ in destination;
    with such duplicates the traversal order is representation-dependent.
    Unreachable states are dropped.
    """
    order: dict[int, int] = {fst.start: 0}
    queue = [fst.start]
    head = 0
    while head < len(queue):
        state = queue[head]
        head += 1
        for arc in fst.arcs_of(state):
            if arc.nextstate not in order:
                order[arc.nextstate] = len(order)
                queue.append(arc.nextstate)
    builder = FstBuilder(fst.isyms, fst.osyms)
    builder.ensure_state(len(order) - 1)
    for old, new in order.items():
        for arc in fst.arcs_of(old):
            builder.add_arc(new, arc.ilabel, arc.olabel, arc.weight, order[arc.nextstate])
        if old in fst.finals:
            builder.set_final(new, fst.finals[old])
    return builder.freeze(start=0)


def connect(fst: Fst) -> Fst:
    """Drop states that are not both accessible and coaccessible.

    The start state is always kept, so a machine with an empty language
    comes back as a single arcless non-final start state.  Surviving
    states keep their relative id order.
    """
    accessible = {fst.start}
    stack = [fst.start]
    while stack:
        state = stack.pop()
        for arc in fst.arcs_of(state):
            if arc.nextstate not in accessible:
                accessible.add(arc.nextstate)
                stack.append(arc.nextstate)

    reverse: dict[int, list[int]] = {}
    for state in fst.states():
        for arc in fst.arcs_of(state):
            reverse.setdefault(arc.nextstate, []).append(state)
    coaccessible = set(fst.finals)
    stack = list(fst.finals)
    while stack:
        state = stack.pop()
        for src in reverse.get(state, ()):
            if src not in coaccessible:
                coaccessible.add(src)
                stack.append(src)

    good = accessible & coaccessible
    keep = sorted(good | {fst.start})
    renum = {old: new for new, old in enumerate(keep)}
    builder = FstBuilder(fst.isyms, fst.osyms)
    builder.ensure_state(len(keep) - 1)
    for old in keep:
        if old not in good:
            continue  # dead start: kept as a bare state, arcs dropped
        for arc in fst.arcs_of(old):
            if arc.nextstate in good:
                builder.add_arc(renum[old], arc.ilabel, arc.olabel, arc.weight,
                                renum[arc.nextstate])
        if old in fst.finals:
            builder.set_final(renum[old], fst.finals[old])
    return builder.freeze(start=renum[fst.start])


class ShortestPath(NamedTuple):
    weight: float
    ilabels: tuple[int, ...]
    olabels: tuple[int, ...]
    states: tuple[int, ...]


def shortest_path(fst: Fst) -> Optional[ShortestPath]:
    """Tropical single shortest accepting path, or None if none exists.

    Weights must be non-negative (the Weight domain guarantees it), so
    this is a backward Dijkstra for the distance-to-final function
    followed by a deterministic greedy walk.  Ties are broken toward the
    lexicographically smallest state-id sequence: stopping at a final
    state beats continuing, then the smallest next state wins, then the
    smallest (ilabel, olabel).  Epsilon labels are omitted from the
    returned label sequences.
    """
    import heapq

    dist: list[float] = [ZERO] * fst.num_states
    reverse: dict[int, list[tuple[int, float]]] = {}
    for state in fst.states():
        for arc in fst.arcs_of(state):
            reverse.setdefault(arc.nextstate, []).append((state, arc.weight))
    heap: list[tuple[float, int]] = []
    for state, rho in fst.finals.items():
        if rho < dist[state]:
            dist[state] = rho
            heapq.heappush(heap, (rho, state))
    while heap:
        d, state = heapq.heappop(heap)
        if d > dist[state]:
            continue
        for src, w in reverse.get(state, ()):
            nd = w + d
            if nd < dist[src]:
                dist[src] = nd
                heapq.heappush(heap, (nd, src))

    if dist[fst.start] == ZERO:
        return None

    ilabels: list[int] = []
    olabels: list[int] = []
    states = [fst.start]
    on_path = {fst.start}
    state = fst.start
    while True:
        remaining = dist[state]
        if fst.finals.get(state, ZERO) == remaining:
            return ShortestPath(dist[fst.start], tuple(ilabels), tuple(olabels),
                                tuple(states))
        best: Optional[Arc] = None
        for arc in fst.arcs_of(state):
            if arc.weight + dist[arc.nextstate] != remaining:
                continue
            if arc.nextstate in on_path and dist[arc.nextstate] == remaining:
                continue  # zero-weight cycle; an equally good acyclic choice exists
            if best is None or (arc.nextstate, arc.ilabel, arc.olabel) < \
                    (best.nextstate, best.ilabel, best.olabel):
                best = arc
        if best is None:
            # Only possible when every optimal continuation closes a
            # zero-weight cycle, which valid inputs here never produce.
            raise AssertionError("shortest-path walk trapped in zero-weight cycles")
        if best.ilabel != EPS:
            ilabels.append(best.ilabel)
        if best.olabel != EPS:
            olabels.append(best.olabel)
        state = best.nextstate
        states.append(state)
        on_path.add(state)
