"""Offline filling of the public cache: breadth-first and data-driven warm-up.

Both strategies choose which keys of a PublicCache to fill and leave
the interning and expanding to PublicCache.fill, which takes only keys
whose arcs are provably independent of any session's class FST
(PublicCache.shareable: a root state that is not a bridge) and expands
them against the cache's root itself: such a root state has no class
out-arc, so a replace view under any binding hands out the root's own
arcs and final weight for it.
Warm-up decoding does need a binding, and binds the class label to an
accept-nothing FST; it decodes in one session over an empty sealed
cache, and each state it promotes must also match what that session
stored.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .cache import PublicCache, Session, seal_public
from .decoder import DecodeConfig, ScoreMatrix, decode
from .errors import (ConfigurationError, InvariantError, LazyFstError,
                     require_int)
from .replace import empty_binding

logger = logging.getLogger(__name__)

__all__ = ["PrecomposeConfig", "bfs_precompose", "warmup_precompose"]


@dataclass
class PrecomposeConfig:
    bfs_depth: int = 5
    state_budget: int = 200_000
    warmup_count: int = 60   # utterances harness.precompose_cache warms on

    def __post_init__(self):
        for name in ("bfs_depth", "state_budget", "warmup_count"):
            require_int(name, getattr(self, name), 0)


def bfs_precompose(cache: PublicCache, cfg: PrecomposeConfig) -> PublicCache:
    """Fill shareable states of `cache`, which holds none yet,
    breadth-first from the composed start; returns `cache`.

    A state is filled iff it is shareable (PublicCache.shareable), its
    distance from the start (in composed arcs, epsilon arcs included) is
    strictly below cfg.bfs_depth, and the budget is not exhausted.
    Filling interns the destinations of each filled state, so frontier
    destinations are in the state table too.  A depth of 0, a budget of
    0 or a start that cannot be shared leaves the table empty.
    Deterministic: FIFO queue, arcs in stored order.
    """
    if cache.sealed:
        raise ConfigurationError("cannot extend a sealed cache")
    start = cache.start_key()
    dist = {start: 0}
    queue = deque([start])
    while queue:
        key = queue.popleft()
        d = dist[key]
        if d >= cfg.bfs_depth or not cache.shareable(key):
            continue
        if len(cache.expanded) >= cfg.state_budget:
            logger.warning("bfs_precompose stopped at state budget %d; "
                           "coverage is partial", cfg.state_budget)
            break
        for _, _, _, dst in cache.fill(key).arcs:
            dst_key = cache.keys[dst]
            if dst_key not in dist:
                dist[dst_key] = d + 1
                queue.append(dst_key)
    return cache


def warmup_precompose(cache: PublicCache, cfg: PrecomposeConfig,
                      score_list: Sequence[ScoreMatrix],
                      decode_cfg: DecodeConfig) -> PublicCache:
    """Decode warm-up traffic in one session over an empty sealed cache,
    the class label bound to an accept-nothing FST, so each state reached
    is expanded once; promote each shareable state it expanded into
    `cache`, in private-id order, and return it.

    Promotion fills the state and insists the result matches what the
    session stored, destinations compared by key: a shareable state's
    expansion must not depend on the binding, and checking beats
    assuming.  Decode failures on warm-up traffic are logged and
    skipped.  Can extend a BFS-produced cache.
    """
    if cache.sealed:
        raise ConfigurationError("cannot extend a sealed cache")
    session = Session(seal_public(PublicCache(cache.t1, cache.root,
                                              cache.label)),
                      empty_binding(cache.label, cache.root.osyms))
    for utt_index, scores in enumerate(score_list):
        try:
            decode(scores, session, decode_cfg)
        except LazyFstError as err:
            logger.warning("warm-up utterance %d failed to decode: %s",
                           utt_index, err)
    private = session.private
    for state_id, built in sorted(private.expanded.items()):
        key = private.key_of(state_id)
        if not cache.shareable(key):
            continue
        if cache.ids.get(key) in cache.expanded:
            continue
        if len(cache.expanded) >= cfg.state_budget:
            logger.warning("warmup_precompose stopped at state budget %d; "
                           "coverage is partial", cfg.state_budget)
            break
        filled = cache.fill(key)
        if _by_key(built, private.key_of) != \
                _by_key(filled, cache.key_of):
            raise InvariantError(
                f"warm-up expansion of {key} depends on the binding")
    return cache


def _by_key(expansion, key_of) -> tuple:
    """`expansion`'s arcs with `key_of` each destination id, and its
    final weight."""
    return ([(il, ol, w, key_of(dst)) for il, ol, w, dst in expansion.arcs],
            expansion.final)
