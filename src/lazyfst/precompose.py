"""Offline choice of the public cache's keys: breadth-first and warm-up.

Both strategies only choose keys and write to no cache; the caller
makes the cache from them, PublicCache(t1, root, label, keys), which
fills them in order and seals.  It takes only keys whose arcs are
provably independent of any session's class FST (PublicCache.shareable:
a root state that is not a bridge) and expands them against the root
itself: such a root state has no class out-arc, so a replace view under
any binding hands out the root's own arcs and final weight for it.
Warm-up decoding does need a binding, and binds the class label to an
accept-nothing FST; it decodes in one session over an empty cache, and
each key it chooses must have been expanded by that session as it
expands against the root.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from .cache import PublicCache, Session
from .compose import expand_pair_state
from .decoder import DecodeConfig, ScoreMatrix, decode
from .errors import InvariantError, LazyFstError, require_int
from .replace import empty_binding

logger = logging.getLogger(__name__)

__all__ = ["PrecomposeConfig", "bfs_precompose", "warmup_precompose"]

Key = tuple[int, int, int]


@dataclass
class PrecomposeConfig:
    bfs_depth: int = 5
    state_budget: int = 200_000
    warmup_count: int = 60   # utterances harness.precompose_cache warms on

    def __post_init__(self):
        for name in ("bfs_depth", "state_budget", "warmup_count"):
            require_int(name, getattr(self, name), 0)


def bfs_precompose(cache: PublicCache, cfg: PrecomposeConfig) -> list[Key]:
    """The shareable keys of `cache`'s graphs breadth-first from the
    composed start, in BFS order; `cache` supplies the graphs and the
    shareable rule, and what it holds is not read.

    A key is chosen iff it is shareable (PublicCache.shareable), its
    distance from the start (in composed arcs, epsilon arcs included) is
    strictly below cfg.bfs_depth, and the budget is not exhausted.
    A depth of 0, a budget of 0 or a start that cannot be shared chooses
    none.  Deterministic: FIFO queue, arcs in expand_pair_state's order.
    """
    start = cache.start_key()
    dist = {start: 0}
    queue = deque([start])
    keys: list[Key] = []
    while queue:
        key = queue.popleft()
        d = dist[key]
        if d >= cfg.bfs_depth or not cache.shareable(key):
            continue
        if len(keys) >= cfg.state_budget:
            logger.warning("bfs_precompose stopped at state budget %d; "
                           "coverage is partial", cfg.state_budget)
            break
        keys.append(key)
        arcs, _ = expand_pair_state(key, cache.t1, cache.root)
        for _, _, _, dst in arcs:
            if dst not in dist:
                dist[dst] = d + 1
                queue.append(dst)
    return keys


def warmup_precompose(cache: PublicCache, cfg: PrecomposeConfig,
                      score_list: Sequence[ScoreMatrix],
                      decode_cfg: DecodeConfig,
                      keys: Iterable[Key] = ()) -> list[Key]:
    """Decode warm-up traffic in one session over `cache`, which holds
    nothing, the class label bound to an accept-nothing FST, so each
    state reached is expanded once; return `keys` extended by each
    shareable key the session expanded that `keys` lacks, in private-id
    order, cfg.state_budget keys in all at most.

    Each key added must have been expanded by the session as it expands
    against the root, destinations compared by key: a shareable state's
    expansion must not depend on the binding, and checking beats
    assuming.  Decode failures on warm-up traffic are logged and
    skipped.
    """
    session = Session(cache, empty_binding(cache.label, cache.root.osyms))
    for utt_index, scores in enumerate(score_list):
        try:
            decode(scores, session, decode_cfg)
        except LazyFstError as err:
            logger.warning("warm-up utterance %d failed to decode: %s",
                           utt_index, err)
    chosen = dict.fromkeys(keys)
    private = session.private
    for state_id, built in sorted(private.expanded.items()):
        key = private.key_of(state_id)
        if not cache.shareable(key) or key in chosen:
            continue
        if len(chosen) >= cfg.state_budget:
            logger.warning("warmup_precompose stopped at state budget %d; "
                           "coverage is partial", cfg.state_budget)
            break
        arcs = [(il, ol, w, private.key_of(dst))
                for il, ol, w, dst in built.arcs]
        if (arcs, built.final) != expand_pair_state(key, cache.t1,
                                                    cache.root):
            raise InvariantError(
                f"warm-up expansion of {key} depends on the binding")
        chosen[key] = None
    return list(chosen)
