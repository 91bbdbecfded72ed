"""Golden determinism: pre-composing the desk graphs gives the same public
cache, byte for byte, and decoding the desk sessions gives the same
hypotheses, costs, expansion counts and per-layer hit counts, on every
run and across refactors of the expansion path and the decoder.  The
cache digests are sha256 of each method's sealed cache in the first dump
format (oracles.dump_public_cache_v1, every arc and weight written out),
for the cache as built and as loaded from its dump, and sha256 of the
dump itself, which names the filled keys only.  The decode digests are sha256
of every turn's (id, words, repr(cost), OTF expansions) in session
order.  The hypothesis digest leaves out the
expansions: the search result is the same for every method, and a change
that only skips work keeps it."""

import hashlib
import json

import pytest

from oracles import dump_public_cache_v1
from lazyfst.cache import dump_public_cache, load_public_cache
from lazyfst.harness import precompose_cache, run_bench

GOLDEN = {
    "bfs": (434, 342, "230304f059fe00658d681fe264e6e74e"
                      "df553c2a91a25a5fc7aa3d5905924d06"),
    "warmup": (538, 501, "13c59bdd200d92b57939f9b677d2a4ce"
                         "6ea18ae1b07e44ef2d29d04cd4e73f6b"),
    "both": (538, 502, "1baa7f77d2fc217484f2543bec6412dd"
                       "a09a64b924b359c1edbd02f5990539a2"),
}


# sha256 of dump_public_cache per method
GOLDEN_DUMP = {
    "bfs": ("aaf7f7d72c3b8a8db9db4910119d2e11"
            "61c9b2e250c492955d0552b39e239147"),
    "warmup": ("219df2ad08848fc208f27009f7536fc7"
               "7df111659d8bb6f2f3f52a3ee2c2b57b"),
    "both": ("afb43946342e41d4c7b99d4a66859383"
             "7b1ae91f632fbf09120bbbc5811d216a"),
}


def _pinned(cache) -> tuple:
    digest = hashlib.sha256(dump_public_cache_v1(cache).encode()).hexdigest()
    return (cache.num_public, cache.num_expanded, digest)


@pytest.mark.parametrize("method", sorted(GOLDEN))
def test_precomposed_desk_cache_is_pinned(desk_build, desk_cfg, method):
    cache, _ = precompose_cache(desk_build, desk_cfg, method)
    assert _pinned(cache) == GOLDEN[method]
    dump = dump_public_cache(cache)
    assert hashlib.sha256(dump.encode()).hexdigest() == GOLDEN_DUMP[method]
    loaded = load_public_cache(dump, desk_build.t1, desk_build.root,
                               desk_build.class_id)
    assert _pinned(loaded) == GOLDEN[method]


# sha256 of every turn's (id, words, repr(cost)), whatever the method
HYPOTHESES = ("be564524e1ac686e927d8eb482cbcd90"
              "d5964ff71da92bd9c882a1efefcaf325")

# (OTF expansions, public hits, private hits, turn digest) per method
GOLDEN_DECODE = {
    "none": (19_085, 0, 158_602,
             "454f3fab65eb0be6cc2c479852ba31a0"
             "0cc8e1250e99fe17a3842598df5c4955"),
    "bfs": (8_790, 98_360, 67_375,
            "66156349080e6bc197f921f76068b652"
            "523c662cee4b55d86a49dc64fcb831fc"),
    "warmup": (7_288, 106_996, 59_758,
               "ef4cd52df514452269a5eb2e41f5161b"
               "17a4ab602418554186105eb94383d1cf"),
    "both": (7_288, 106_996, 59_758,
             "ef4cd52df514452269a5eb2e41f5161b"
             "17a4ab602418554186105eb94383d1cf"),
}


def _sha256(turns) -> str:
    return hashlib.sha256(json.dumps(turns).encode()).hexdigest()


@pytest.mark.parametrize("method", sorted(GOLDEN_DECODE))
def test_desk_decode_is_pinned(desk_build, desk_cfg, method):
    report = run_bench(desk_cfg, method, session_length=5, build=desk_build)
    turns = [(t["id"], list(t["hyp_words"]), repr(t["cost"]), t["otf"])
             for s in report["sessions"] for t in s["turns"]]
    assert report["totals"]["wer"] == 0.0
    assert _sha256([turn[:3] for turn in turns]) == HYPOTHESES
    totals = report["totals"]
    assert (totals["otf_expansions"], totals["public_hits"],
            totals["private_hits"], _sha256(turns)) == GOLDEN_DECODE[method]
