"""Frame-synchronous Viterbi beam decoding over the two-layer lazy graph.

The decoder only ever sees composed states through the two cache layers
and cache.expand, so the same code serves fully dynamic, BFS-pre-composed
and warmed-up graphs; which layer answered is visible purely in the
counters.  Each frame is Kaldi's ProcessEmitting/ProcessNonemitting
split: the emit step walks only emitting arcs, the epsilon closure only
epsilon arcs, each its own tuple of a cache.CachedExpansion (`emit` and
`eps`).  The closure (_eps_closure) holds the rule for reading the
two layers and resolves each state it returns once; each token it
returns carries its expansion on to the next emit step.  It returns no
dead end (cache.DEAD_END: no arcs, not final), which could neither emit,
end a hypothesis nor relax anything, and sealing drops the public
epsilon arcs into one; dropping dead ends changes no hypothesis, cost
or state id, only the work.
Acoustic input is a cost matrix (frames x input labels); a tiny simulator
fabricates such matrices from reference label sequences so the whole
pipeline runs without any audio dependency.

The beam is applied as the cutoffs in Kaldi's lattice-faster-decoder.
This is exact because no graph weight is negative (semiring.is_member;
Fst.freeze enforces it, and every cached arc, a loaded public cache's
included, is composed from the graphs): a closure never goes below
its cheapest seed, so the cost floor pruning measures from is known
before the closure starts, and a token above floor + beam has no
descendant within the beam.  The closure therefore drops such tokens
before it looks them up, relaxes from them or expands them, and hands
pruning only tokens it would keep; pruning then only cuts to max_active.
The emit step scans the cheapest active token's emitting arcs first and
skips every arc above the cheapest cost they produce plus the beam.  That
cost is a real emitted cost, so it is at or above the next closure's
floor, and the emit cutoff drops only tokens the closure would drop.

Determinism: tokens are processed in ascending state-id order, epsilon
closure settles states in (cost, state id) order, and every equal-cost
comparison keeps the earlier token, so a hypothesis is a pure function
of (scores, graph, binding, config).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from numbers import Integral
from operator import itemgetter
from typing import Optional, Sequence

import numpy as np
from numpy.random import default_rng

from .cache import DEAD_END, Session, expand
from .errors import (CompositionSizeError, ConfigurationError, is_real,
                     require_int, require_real)
from .fst import EPS
from .semiring import ZERO

FRAME_SECONDS = 0.01  # default frame length of ScoreMatrix and simulate_scores


@dataclass
class DecodeConfig:
    beam: float = 10.0
    max_active: int = 2000
    # Per closure: states within the beam settled from the heap, i.e.
    # those with epsilon arcs or not yet expanded; trips on
    # pathological graphs.
    max_eps_pops: int = 200_000

    def __post_init__(self):
        if not (is_real(self.beam) and self.beam > 0):
            raise ConfigurationError(
                f"beam must be a positive number, not {self.beam!r}")
        for name in ("max_active", "max_eps_pops"):
            require_int(name, getattr(self, name), 1)


class ScoreMatrix:
    """Per-frame, per-input-label tropical costs; column 0 (epsilon) is +inf.

    The costs are copied, so the caller's array is never written.  A cost
    may be any float but NaN or -inf."""

    def __init__(self, costs: np.ndarray,
                 frame_seconds: float = FRAME_SECONDS):
        self._m = np.array(costs, dtype=np.float64)
        if self._m.ndim != 2:
            raise ConfigurationError("score matrix must be frames x labels")
        if not (self._m > -np.inf).all():
            raise ConfigurationError("score matrix holds a NaN or -inf cost")
        if self._m.shape[1] > 0:
            self._m[:, EPS] = np.inf
        if not (is_real(frame_seconds) and 0 < frame_seconds < np.inf):
            raise ConfigurationError(f"frame_seconds must be a positive "
                                     f"number, not {frame_seconds!r}")
        self.frame_seconds = frame_seconds

    @property
    def num_frames(self) -> int:
        return int(self._m.shape[0])

    def row(self, frame: int) -> list[float]:
        """One frame's costs indexed by input label; a label past the
        row's end has no entry and costs ZERO."""
        return self._m[frame].tolist()


def simulate_scores(ref_labels: Sequence[int], num_labels: int, *,
                    frames_per_phone: int = 3, margin: float = 4.0,
                    noise: float = 0.0, seed: int = 0,
                    frame_seconds: float = FRAME_SECONDS) -> ScoreMatrix:
    """Fabricate acoustic costs for a reference label sequence.

    Each reference label, a phone, occupies `frames_per_phone` frames.
    On its frames the correct label costs noise*u and every other label
    costs margin + noise*u with u ~ U[0,1) from a seeded generator, so at
    zero noise the per-frame argmin is exactly the reference.  A
    num_labels that is not an integer >= 1, a reference label that is not
    an integer in [1, num_labels) (0 is epsilon, which no frame emits), a
    frames_per_phone that is not an integer >= 1, a margin that is not a
    finite number or a noise that is not a finite number >= 0 is a
    ConfigurationError.
    """
    require_int("num_labels", num_labels, 1)
    for label in ref_labels:
        if isinstance(label, bool) or not isinstance(label, Integral) \
                or not 0 < label < num_labels:
            raise ConfigurationError(f"reference label {label!r} is not an "
                                     f"integer in [1, {num_labels})")
    require_int("frames_per_phone", frames_per_phone, 1)
    require_real("margin", margin)
    require_real("noise", noise, 0)
    rng = default_rng(seed)
    frames = len(ref_labels) * frames_per_phone
    u = rng.random((frames, num_labels))
    m = margin + noise * u
    for i, label in enumerate(ref_labels):
        for t in range(i * frames_per_phone, (i + 1) * frames_per_phone):
            m[t, label] = noise * u[t, label]
    return ScoreMatrix(m, frame_seconds=frame_seconds)


@dataclass(frozen=True)
class Hypothesis:
    cost: float
    labels: tuple[int, ...]
    words: tuple[str, ...]


# A closure's token: (cost, trace, expansion); trace is None or
# (parent_trace, olabel).  Emitted tokens carry (cost, trace) only.
_Token = tuple
_cost = itemgetter(0)


def _eps_closure(tokens: dict[int, _Token], session: Session,
                 cfg: DecodeConfig) -> dict[int, _Token]:
    """Extend `tokens` along epsilon-input arcs, settling states in
    (cost, state id) order, and keep only tokens within cfg.beam of the
    cheapest seed that are not dead ends.

    Graph weights are never negative, so the cheapest seed is the lowest
    cost the closure can reach: the floor is known up front, and a seed
    or relaxation above floor + cfg.beam is dropped before it is looked
    up or pushed.

    This is the one reader of the two cache layers.  Every state kept is
    resolved once, when it is a seed or first reached.  The public
    cache gives the states it fills the first ids, so an id below E, the
    size of the public layer's dict (session.cache.expanded), is read
    from it, which holds it, and any other from the private layer's dict
    (session.private.expanded), which may not hold it yet.  A state
    neither layer holds is built through cache.expand when it is
    settled.  Each state kept counts one public_hit, private_hit or
    otf_expansion; the hits are added to session.metrics once, when the
    closure ends.

    A dead end (DEAD_END: no arcs, not final) can neither emit, end a
    hypothesis nor relax anything, so dropping it changes no result: a
    seed or relaxation that resolves to one is dropped before it is
    counted or stored, and a state cache.expand builds as one is dropped
    as soon as its otf_expansion is counted; a heap entry left for it is
    skipped.  The floor is still the cheapest seed, dead or not.  The
    closure walks only a state's epsilon-input arcs (its expansion's
    `eps`), and a resolved state without any relaxes nothing, so it
    never enters the heap.  A relaxation is
    pushed only when it strictly lowers a state's cost, so a heap entry
    whose cost is not the state's current cost is stale and every state
    is settled at most once.
    Returns the tokens, each carrying its expansion.
    """
    floor = ZERO
    for tok in tokens.values():
        if tok[0] < floor:
            floor = tok[0]
    limit = floor + cfg.beam
    public = session.cache.expanded
    private = session.private.expanded
    filled = len(public)
    public_hits = private_hits = 0
    best: dict[int, _Token] = {}
    heap: list[tuple[float, int]] = []
    for sid, tok in tokens.items():
        cost = tok[0]
        if not cost <= limit:
            continue
        if sid < filled:
            exp = public[sid]
            if exp is DEAD_END:
                continue
            public_hits += 1
        else:
            exp = private.get(sid)
            if exp is not None:
                if exp is DEAD_END:
                    continue
                private_hits += 1
        best[sid] = (cost, tok[1], exp)
        if exp is None or exp.eps:
            heap.append((cost, sid))
    heapify(heap)
    pops = 0
    max_pops = cfg.max_eps_pops
    try:
        while heap:
            cost, sid = heappop(heap)
            try:
                tok = best[sid]
            except KeyError:    # built as a dead end, and dropped
                continue
            if cost != tok[0]:
                continue
            pops += 1
            if pops > max_pops:
                raise CompositionSizeError(
                    f"epsilon closure exceeded {max_pops} settlements")
            trace, exp = tok[1], tok[2]
            if exp is None:
                exp = expand(sid, session)
                if exp is DEAD_END:
                    # the private layer now holds it, so a relaxation
                    # that reaches it again drops it on the same read
                    del best[sid]
                    continue
                best[sid] = (cost, trace, exp)
            for _, olabel, weight, dst in exp.eps:
                new_cost = cost + weight
                if new_cost > limit:
                    continue
                cur = best.get(dst)
                if cur is None:
                    if dst < filled:
                        dst_exp = public[dst]
                        if dst_exp is DEAD_END:
                            continue
                        public_hits += 1
                    else:
                        dst_exp = private.get(dst)
                        if dst_exp is not None:
                            if dst_exp is DEAD_END:
                                continue
                            private_hits += 1
                elif new_cost < cur[0]:
                    dst_exp = cur[2]
                else:
                    continue
                best[dst] = (new_cost,
                             trace if olabel == EPS else (trace, olabel),
                             dst_exp)
                if dst_exp is None or dst_exp.eps:
                    heappush(heap, (new_cost, dst))
    finally:
        metrics = session.metrics
        metrics.public_hit += public_hits
        metrics.private_hit += private_hits
    return best


def _prune(tokens: dict[int, _Token], cfg: DecodeConfig) -> dict[int, _Token]:
    """The cfg.max_active cheapest of a closure's tokens.  The closure
    has already applied the beam from its cost floor."""
    if len(tokens) <= cfg.max_active:
        return tokens
    ranked = sorted(tokens.items(), key=lambda kv: (kv[1][0], kv[0]))
    return dict(ranked[:cfg.max_active])


def _emit(active: dict[int, _Token], row: list[float],
          beam: float) -> dict[int, _Token]:
    """Advance every active token over its emitting arcs (its
    expansion's `emit`), adding graph and acoustic cost from one frame's
    `row` of costs.

    The cheapest active token's emitting arcs are scanned first, and the
    cheapest cost they produce plus `beam` is the cutoff: an arc above it
    is skipped.  That cost is a real emitted cost, at or above the floor
    the next closure measures, so the cutoff is at or above that
    closure's floor + beam and drops only tokens the closure would drop
    before looking them up.
    """
    num_labels = len(row)
    cost, _, exp = min(active.values(), key=_cost)
    cutoff = ZERO
    for ilabel, _, weight, _ in exp.emit:
        if ilabel < num_labels:
            new_cost = cost + weight + row[ilabel]
            if new_cost < cutoff:
                cutoff = new_cost
    cutoff += beam
    emitted: dict[int, _Token] = {}
    for sid in sorted(active):
        cost, trace, exp = active[sid]
        for ilabel, olabel, weight, dst in exp.emit:
            if ilabel >= num_labels:
                continue
            acoustic = row[ilabel]
            new_cost = cost + weight + acoustic
            # an unscored label (ZERO) is never taken; a ZERO cutoff,
            # when the cheapest token emits nothing, does not exclude it
            if new_cost > cutoff or acoustic == ZERO:
                continue
            cur = emitted.get(dst)
            if cur is None or new_cost < cur[0]:
                emitted[dst] = (new_cost,
                                trace if olabel == EPS else (trace, olabel))
    return emitted


def _unwind(trace) -> tuple[int, ...]:
    labels: list[int] = []
    while trace is not None:
        trace, label = trace
        labels.append(label)
    labels.reverse()
    return tuple(labels)


def decode(scores: ScoreMatrix, session: Session,
           cfg: Optional[DecodeConfig] = None) -> Optional[Hypothesis]:
    """Beam-search the lazy graph against one utterance's score matrix.

    Per frame: follow emitting arcs (adding graph plus acoustic cost)
    up to the emit cutoff, then run the epsilon closure, which keeps only
    tokens within the beam, then cut to max_active.
    After the last frame final weights are applied; the best surviving
    final token becomes the Hypothesis.  Returns None when no hypothesis
    survives -- a result, not an error -- as when a frame emits nothing
    or a closure keeps no token because every one it reached is a dead
    end.  Either way its work is counted in session.metrics.  A session
    that has ended has no private layer and is a ConfigurationError
    (Session.start_id).
    """
    if cfg is None:
        cfg = DecodeConfig()

    active = _prune(_eps_closure({session.start_id(): (0.0, None)},
                                 session, cfg), cfg)
    for t in range(scores.num_frames):
        # a closure that keeps no token leaves nothing to emit from
        emitted = _emit(active, scores.row(t), cfg.beam) if active else None
        if not emitted:
            active = {}
            break
        active = _prune(_eps_closure(emitted, session, cfg), cfg)

    best_cost = ZERO
    best_trace = None
    for sid in sorted(active):
        cost, trace, exp = active[sid]
        final = exp.final
        if final == ZERO:
            continue
        total = cost + final
        if total < best_cost:
            best_cost = total
            best_trace = trace

    session.metrics.frames += scores.num_frames
    if best_cost == ZERO:
        return None
    labels = _unwind(best_trace)
    osyms = session.cache.root.osyms
    words = tuple(osyms.sym_of(l) if osyms is not None else str(l) for l in labels)
    return Hypothesis(cost=best_cost, labels=labels, words=words)
