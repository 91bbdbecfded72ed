"""Counters that drive every comparison in the benchmark harness.

The reproducible signals are the expansion/hit counters and the modeled
byte sizes; wall-clock time lives on the Hypothesis, never here.

public_hit and private_hit count one per state a decoder closure returns,
per frame, that the public layer (the session's PublicCache) or the
private layer (its state table, Session.private) already held, each in
its `expanded` dict: an id below PublicCache.num_expanded is public, any
other private.  The closure (decoder._eps_closure, the one reader of the
two layers) adds its hits here once when it ends.  A dead end
(cache.DEAD_END) is never returned, so it is never a hit.  otf_expansion
counts the states cache.expand builds on the fly into the private layer,
each once per session, dead ends included, which the closure drops once
built.  So per decode the three add up to the number of tokens the
closures hand to pruning plus the dead ends they expanded.
bytes_private is the private layer's modeled size
(cache.StateTable.bytes_estimate) when the session ends.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass
class Metrics:
    public_hit: int = 0
    private_hit: int = 0
    otf_expansion: int = 0
    frames: int = 0
    bytes_private: int = 0

    def snapshot(self) -> "Metrics":
        return dataclasses.replace(self)

    def delta(self, before: "Metrics") -> "Metrics":
        """Counters accumulated since `before` was snapshotted."""
        return Metrics(
            public_hit=self.public_hit - before.public_hit,
            private_hit=self.private_hit - before.private_hit,
            otf_expansion=self.otf_expansion - before.otf_expansion,
            frames=self.frames - before.frames,
            bytes_private=self.bytes_private,
        )
