"""Golden determinism: pre-composing the desk graphs gives the same public
cache, byte for byte, and decoding the desk sessions gives the same
hypotheses, costs and expansion counts, on every run and across refactors
of the expansion path and the decoder.  The cache digests are sha256 of
dump_public_cache for each method; the decode digests are sha256 of every
turn's (id, words, repr(cost), OTF expansions) in session order."""

import hashlib
import json

import pytest

from lazyfst.cache import dump_public_cache
from lazyfst.harness import precompose_cache, run_bench

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


GOLDEN_DECODE = {
    "none": (26_225, "90027f0ac4930294bd20db0a26a861d5"
                     "39ac69d59b3d7c45fbb46436b461c4ec"),
    "both": (10_247, "077e92e65f1d126806c2a8406199b8e0"
                     "6e8a6acbdc57a1a95d9d6ea678975b8c"),
}


@pytest.mark.parametrize("method", sorted(GOLDEN_DECODE))
def test_desk_decode_is_pinned(desk_build, desk_cfg, method):
    report = run_bench(desk_cfg, method, session_length=5, build=desk_build)
    turns = [(t["id"], list(t["hyp_words"]), repr(t["cost"]), t["otf"])
             for s in report["sessions"] for t in s["turns"]]
    digest = hashlib.sha256(json.dumps(turns).encode()).hexdigest()
    assert report["totals"]["wer"] == 0.0
    assert (report["totals"]["otf_expansions"], digest) == GOLDEN_DECODE[method]
