"""Golden determinism: pre-composing the desk graphs gives the same public
cache, byte for byte, on every run and across refactors of the expansion
path.  The digests below are sha256 of dump_public_cache for each method."""

import hashlib

import pytest

from lazyfst.cache import dump_public_cache
from lazyfst.harness import precompose_cache

GOLDEN = {
    "bfs": (434, 342, "814b112369f199ca090f9544f76116c2"
                      "1bb5c6f9f30327d8602549ce134847f6"),
    "warmup": (548, 520, "bb08544a7c561b8ac399a076e651b030"
                         "e89c53e9331f7f679568eac70dc8ec27"),
    "both": (548, 520, "6b3177eb3820e12ee5edd2cace243b40"
                       "106bee3e09471168a54528fb363a9733"),
}


@pytest.mark.parametrize("method", sorted(GOLDEN))
def test_precomposed_desk_cache_is_pinned(desk_build, desk_cfg, method):
    cache, _ = precompose_cache(desk_build, desk_cfg, method)
    digest = hashlib.sha256(dump_public_cache(cache).encode()).hexdigest()
    assert (cache.num_public, cache.num_expanded, digest) == GOLDEN[method]
