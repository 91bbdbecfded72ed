"""Two-layer cached lazy composition: shared public cache, per-session private cache.

The composed graph T1 o Replace(root, binding) is never built whole.
Its expansions live in two layers, each one StateTable of `(q1, q2, f)`
pair keys (see compose) with dense state ids and the expansions it built:

* PublicCache: binding-independent expansions, computed once offline
  for keys chosen breadth-first or by warm-up decoding, and shared
  read-only by every session.  Only a state whose t2 side is a root
  state that is not a bridge (has no class out-arc) may be cached
  here, so its arcs never mention the class FST: PublicCache.shareable.
* Session.private: everything else, expanded on demand into a table
  over the sealed public one, StateTable(below=cache), that dies with
  the session.

The sealed public table owns ids [0, N_pub), and a session's table
numbers its own keys from N_pub on (StateTable.first), so private arcs
may point at public states.  An id is given once and never changed: the
PublicCache constructor interns the E = num_expanded keys it fills
before it expands any, so they hold [0, E) in fill order, and the
frontier destinations, interned but never expanded offline, which a
session expands privately on first use, take [E, N_pub) as first
reached.  So an id is public below E, else private.  Both layers keep
their expansions in one dict by state id (StateTable.expanded), in the
order built: the public one in id order, a private one at ids from E on,
frontier ids and its own keys alike.  One rule interns for both layers
(StateTable.intern_arcs), all destinations of one expansion in one pass
that also builds the cached arcs, plain `(ilabel, olabel, weight,
nextstate)` tuples; one step expands, interns, splits and stores
(StateTable.build), and one formula charges modeled bytes
(StateTable.bytes_estimate).  A CachedExpansion holds its arcs in two
tuples, the epsilon-input arcs and the emitting ones, split once when it
is built, so the decoder's closure and emit step each read their own.

The rule for reading the two layers lives in the decoder's epsilon
closure (decoder._eps_closure), which counts the hits; expand is the
build half it calls for a state neither layer holds, the only writer of
the private layer, and counts an otf_expansion.

The PublicCache constructor is the one way keys enter the public layer:
it expands each key it is given, which must be shareable, against the
root and nothing else, so pre-composition and loading a dump store the
same expansion for the same key, then seals (seal_public), so no one
outside it sees the cache unsealed.  Sealing shares equal parts of the
public layer (_share_equal_parts): one float per distinct weight (ZERO
itself for every non-final state), keyed by value and sign, so 0.0 and
-0.0 are never merged, and one object per distinct arc, arc sequence and
(eps, emit, final) expansion, which every state with that expansion
points at; and it drops each public epsilon arc into a public dead end,
unless its state has nothing else.  In both layers every state with no
arcs that is not final, a dead end, gets the one DEAD_END expansion
(StateTable.build).  A dump is the fill log, keys[:E], and loading makes
a cache from the same keys in the same order, which gives every key,
frontier destinations included, the id it had.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from math import copysign
from typing import Iterable, Optional

from .compose import FilterState, expand_pair_state
from .errors import BuildError, ConfigurationError, InvariantError
from .fst import EPS, Fst, write_text_fst
from .metrics import Metrics
from .replace import ClassBinding, ReplaceView, bridge_states
from .semiring import ZERO

# Deterministic memory model: what one arc / one expanded state / one
# state-table entry is charged, in bytes.  Chosen once; every "memory"
# number reported anywhere is derived from these.
ARC_BYTES = 16
STATE_BYTES = 16
KEY_BYTES = 24

# A composed arc: (ilabel, olabel, weight, destination).  Raw arcs from
# expand_pair_state carry a (q1, q2, f) key, cached arcs a state id.
RawArcs = Iterable[tuple[int, int, float, tuple[int, int, int]]]
CachedArc = tuple[int, int, float, int]

# Where the first emitting arc sorts among arcs sorted by ilabel first.
_FIRST_EMITTING = (EPS + 1,)


class CachedExpansion:
    """Arcs with destinations already interned to shared state ids, in
    two tuples: `eps`, the epsilon-input arcs, and `emit`, the emitting
    ones, each in stored order, so the decoder's closure and emit step
    each read only their own arcs.  StateTable.build splits them."""
    __slots__ = ("eps", "emit", "final")

    def __init__(self, eps: tuple[CachedArc, ...], emit: tuple[CachedArc, ...],
                 final: float):
        self.eps = eps
        self.emit = emit
        self.final = final

    @property
    def arcs(self) -> tuple[CachedArc, ...]:
        """All arcs in stored order, epsilon-input ones first."""
        return self.eps + self.emit


# The expansion of every state with no arcs that is not final, in both
# layers: a third of the desk public layer is such dead ends.
DEAD_END = CachedExpansion((), (), ZERO)


class StateTable:
    """One cache layer's state table: `(q1, q2, f)` pair keys with dense
    state ids from `first` on, and `expanded`, the expansions the layer
    built, by state id in the order built.  A table over a sealed table
    `below` numbers its keys after it: a key keeps this table's id, else
    the id the table below holds for it, else takes the next id, and as
    the table below is sealed and lacks this table's keys, the order of
    the two checks cannot change an id."""
    __slots__ = ("keys", "ids", "expanded", "below", "first", "sealed")

    def __init__(self, below: Optional[StateTable] = None):
        self.keys: list[tuple[int, int, int]] = []
        self.ids: dict[tuple[int, int, int], int] = {}
        self.expanded: dict[int, CachedExpansion] = {}
        self.below = below
        self.first = len(below.keys) if below is not None else 0
        self.sealed = False

    def key_of(self, state_id: int) -> tuple[int, int, int]:
        if state_id < self.first:
            return self.below.key_of(state_id)
        return self.keys[state_id - self.first]

    def intern_arcs(self, arcs: RawArcs) -> tuple[CachedArc, ...]:
        """Intern every destination key of `arcs` in one pass, by the
        rule above; return the arcs with ids for keys."""
        if self.sealed:
            raise ConfigurationError("state table is sealed")
        ids = self.ids
        below_ids = self.below.ids if self.below is not None else {}
        first = self.first
        keys = self.keys
        out = []
        for il, ol, w, key in arcs:
            got = ids.get(key)
            if got is None:
                got = below_ids.get(key)
                if got is None:
                    # len() makes a 28-B int, a sum a 32-B one: a table
                    # numbered from 0, the public one, takes len(keys)
                    got = ids[key] = len(keys) + first if first else len(keys)
                    keys.append(key)
            out.append((il, ol, w, got))
        return tuple(out)

    def intern(self, key: tuple[int, int, int]) -> int:
        """The id of one key, by intern_arcs' rule."""
        ((_, _, _, state_id),) = self.intern_arcs(((EPS, EPS, ZERO, key),))
        return state_id

    def build(self, state_id: int, t1: Fst, t2) -> CachedExpansion:
        """Expand the state `state_id` against `t1` and `t2` (the root or
        a replace view), intern its destinations, split its arcs, store
        and return it: DEAD_END when it has no arcs and is not final, so
        both layers hold every dead end as that one expansion.

        The arcs come sorted by ilabel first: EPS is 0 and labels are
        not negative, so the epsilon-input arcs come first and the first
        emitting arc is where (1,) would sort.  Most states have no
        epsilon-input arc, and their arcs are `emit` as they are."""
        arcs, final = expand_pair_state(self.key_of(state_id), t1, t2)
        if arcs or final != ZERO:
            arcs = self.intern_arcs(arcs)
            if arcs and arcs[0][0] == EPS:
                cut = bisect_left(arcs, _FIRST_EMITTING)
                made = CachedExpansion(arcs[:cut], arcs[cut:], final)
            else:
                made = CachedExpansion((), arcs, final)
        else:
            made = DEAD_END
        self.expanded[state_id] = made
        return made

    def bytes_estimate(self) -> int:
        states = arcs = 0
        for e in self.expanded.values():
            states += 1
            arcs += len(e.eps) + len(e.emit)
        return (arcs * ARC_BYTES + states * STATE_BYTES
                + len(self.keys) * KEY_BYTES)


class PublicCache(StateTable):
    """Sealed, shared layer of the two-layer graph for one (t1, root)
    pair: the i-th of `keys` interned as id i, each then expanded against
    the root, and sealed, all in the constructor.  A key that could
    depend on a binding, or that is given twice, is an InvariantError."""
    __slots__ = ("t1", "root", "label", "bridges")

    def __init__(self, t1: Fst, root: Fst, label: int,
                 keys: Iterable[tuple[int, int, int]] = ()):
        super().__init__()
        self.t1 = t1
        self.root = root
        self.label = label
        # replace.bridge_states of the root: scanned, and the root's
        # class arcs checked, once per cache rather than once per session
        self.bridges = bridge_states(root, label)
        filled = []
        for key in keys:
            if not self.shareable(key):
                raise InvariantError(f"public cache refuses non-shareable "
                                     f"state {key}")
            if key in self.ids:
                raise InvariantError(f"duplicate fill of state {key}")
            filled.append(self.intern(key))
        for state_id in filled:
            self.build(state_id, t1, root)
        seal_public(self)

    @property
    def num_public(self) -> int:
        return len(self.keys)

    @property
    def num_expanded(self) -> int:
        return len(self.expanded)

    def start_key(self) -> tuple[int, int, int]:
        return (self.t1.start, self.root.start, int(FilterState.ANY))

    def shareable(self, key: tuple[int, int, int]) -> bool:
        """True when `key`'s expansion cannot depend on any binding: its
        t2 side is a root state (a view id below the root's state count,
        so not inside the class FST) that is not a bridge.  A replace
        view hands out such a state's own arcs and final weight, so the
        key's expansion against the root itself equals its expansion
        against any view."""
        return key[1] < self.root.num_states and key[1] not in self.bridges


def fingerprint(t1: Fst, root: Fst, label: int) -> str:
    """Digest of the graphs a public cache is computed against."""
    graphs = (write_text_fst(t1), write_text_fst(root), str(label))
    return hashlib.sha256("\x00".join(graphs).encode()).hexdigest()


def seal_public(cache: PublicCache) -> None:
    """Share the equal parts of the public layer (_share_equal_parts),
    ids unchanged, and freeze it; the PublicCache constructor calls it
    once its keys, all shareable, are expanded against the root."""
    _share_equal_parts(cache)
    cache.sealed = True


def _share_equal_parts(cache: PublicCache) -> None:
    """Point every filled state of `cache`, under its own id, at one
    shared CachedExpansion per distinct (eps, emit, final), built from
    one float per distinct weight and one tuple per distinct arc and arc
    sequence, without the epsilon arcs into a dead end.

    A weight is keyed by (value, sign), so 0.0 and -0.0 stay apart; once
    weights are shared, the id of a shared part stands for its value in
    the keys of the parts built from it.  An epsilon arc whose
    destination the cache holds as DEAD_END, the one expansion
    StateTable.build gives every dead end (no arcs, not final), is
    dropped, unless that would leave its state a dead end too: such a
    state keeps its arcs as built, so the dead ends of a sealed cache are
    those it was built with."""
    dead = {sid for sid, e in cache.expanded.items() if e is DEAD_END}
    weights = {(ZERO, 1.0): ZERO}
    arcs: dict[tuple, CachedArc] = {}
    sequences: dict[tuple, tuple[CachedArc, ...]] = {(): ()}

    def share(sequence: Iterable[CachedArc]) -> tuple[CachedArc, ...]:
        shared = []
        for il, ol, w, dst in sequence:
            w = weights.setdefault((w, copysign(1.0, w)), w)
            shared.append(arcs.setdefault((il, ol, id(w), dst),
                                          (il, ol, w, dst)))
        return sequences.setdefault(tuple(map(id, shared)), tuple(shared))

    expansions = {(id(DEAD_END.eps), id(DEAD_END.emit), id(ZERO)): DEAD_END}
    for state_id, expansion in cache.expanded.items():
        eps, emit, final = expansion.eps, expansion.emit, expansion.final
        kept = [arc for arc in eps if arc[3] not in dead]
        if kept or emit or final != ZERO:
            eps = kept
        eps, emit = share(eps), share(emit)
        final = weights.setdefault((final, copysign(1.0, final)), final)
        cache.expanded[state_id] = expansions.setdefault(
            (id(eps), id(emit), id(final)), CachedExpansion(eps, emit, final))


class Session:
    """One decoding session: a view of the root under a binding, and the
    private layer of the graph, a state table over the sealed public
    cache, until end_session releases it."""

    def __init__(self, cache: PublicCache, binding: ClassBinding):
        if binding.label != cache.label:
            raise ConfigurationError("binding is for a different class label")
        self.cache = cache
        self.view = ReplaceView(cache.root, binding, cache.bridges)
        self.private: Optional[StateTable] = StateTable(below=cache)
        self.metrics = Metrics()

    def _live(self) -> StateTable:
        """The private layer; a ConfigurationError once it is released."""
        if self.private is None:
            raise ConfigurationError("session already ended")
        return self.private

    def start_id(self) -> int:
        return self._live().intern(self.cache.start_key())

    @property
    def bytes_private(self) -> int:
        return self._live().bytes_estimate()


def expand(state_id: int, session: Session) -> CachedExpansion:
    """Expand one composed state on the fly into the private layer
    (DEAD_END when it has no arcs and is not final), counting an
    otf_expansion.  Reads neither layer: decoder._eps_closure calls it
    only for a state that neither holds."""
    if session.private is None:
        raise ConfigurationError("session already ended")
    made = session.private.build(state_id, session.cache.t1, session.view)
    session.metrics.otf_expansion += 1
    return made


def end_session(session: Session) -> Metrics:
    """Release the private layer, which the ended session holds as None;
    returns the session's final metrics, its private bytes included."""
    session.metrics.bytes_private = session.bytes_private
    final = session.metrics.snapshot()
    session.private = None
    return final


CACHE_FORMAT = "lazyfst-public-cache 3"


def dump_public_cache(cache: PublicCache) -> str:
    """Versioned, checksummed text dump of a public cache: the key of
    each filled state, in fill order.  It holds no id, arc or weight;
    loading makes a cache from the same keys in the same order, which
    gives every key the id it had and recomputes each expansion."""
    body = "".join(f"s {q1} {q2} {f}\n"
                   for q1, q2, f in cache.keys[:cache.num_expanded])
    digest = hashlib.sha256(body.encode()).hexdigest()
    return (f"{CACHE_FORMAT}\n"
            f"graph {fingerprint(cache.t1, cache.root, cache.label)}\n"
            f"sha256 {digest}\n"
            f"{body}")


def load_public_cache(text: str, t1: Fst, root: Fst,
                      label: int) -> PublicCache:
    """Parse a dump back into a sealed cache, verifying version, graph
    fingerprint and checksum, then every row: each field an int within
    its graph or below FilterState.BLOCKED.  The cache is made from the
    rows' keys in dump order, so a key that cannot be shared or is
    filled twice is refused too.  Anything malformed, a dump of an
    earlier format included, is a BuildError."""
    lines = text.splitlines(keepends=True)
    if len(lines) < 3 or lines[0].strip() != CACHE_FORMAT:
        raise BuildError(f"not a {CACHE_FORMAT!r} dump (bad or missing "
                         f"version line); rebuild it with lazyfst precompose")
    graph_line = lines[1].split()
    if len(graph_line) != 2 or graph_line[0] != "graph":
        raise BuildError("cache dump missing graph fingerprint")
    if graph_line[1] != fingerprint(t1, root, label):
        raise BuildError("cache dump was built against different graphs")
    sum_line = lines[2].split()
    if len(sum_line) != 2 or sum_line[0] != "sha256":
        raise BuildError("cache dump missing checksum")
    body = "".join(lines[3:])
    if hashlib.sha256(body.encode()).hexdigest() != sum_line[1]:
        raise BuildError("cache dump checksum mismatch")

    bounds = (t1.num_states, root.num_states, FilterState.BLOCKED)
    keys = []
    for row in body.splitlines():
        parts = row.split()
        if len(parts) != 4 or parts[0] != "s":
            raise BuildError(f"bad row in cache dump: {row!r}")
        keys.append(tuple(_dump_int(text, row, bound)
                          for text, bound in zip(parts[1:], bounds)))
    try:
        return PublicCache(t1, root, label, keys)
    except InvariantError as err:
        raise BuildError(f"cache dump: {err}") from None


def _dump_int(text: str, row: str, bound: int) -> int:
    """A non-negative int field below `bound`."""
    try:
        value = int(text)
    except ValueError:
        raise BuildError(f"non-integer field {text!r} in cache dump row "
                         f"{row!r}") from None
    if not 0 <= value < bound:
        raise BuildError(f"field {value} out of range in cache dump row {row!r}")
    return value
