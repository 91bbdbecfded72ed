"""Tropical semiring over non-negative reals plus infinity.

Weights are plain floats, combined inline where they are used: the
semiring's plus is min and its times is addition, ``ZERO`` (no path) is
+inf and the free path costs 0.0.  All graph weights in this package are
negative log probabilities, so they stay non-negative and
shortest-distance algorithms need no reweighting.
"""

from __future__ import annotations

import math

ZERO = math.inf


def is_member(w: float) -> bool:
    """True for weights this package considers valid: non-negative or +inf."""
    return not math.isnan(w) and w >= 0.0
