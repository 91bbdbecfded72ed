"""Microbenchmarks of one decoder frame on a fixed desk frame: the emit
step and the epsilon closure that follows it.  Run with

    python -m pytest benchmarks --benchmark-only

The frame is the middle frame of user u01's first desk utterance,
decoded against the `both` public cache.  The utterance is decoded once
first, so every state the frame reaches is already expanded and the
benchmarks time the steady state: lookups, relaxations and the heap,
not composition.
"""

from __future__ import annotations

import pytest

from lazyfst.cache import Session
from lazyfst.decoder import _emit, _eps_closure, _prune, decode
from lazyfst.harness import binding_for, decode_config, precompose_cache, scores_for

USER = "u01"
ACTIVE, EMITTED, CLOSED = 77, 29, 33   # tokens at the benchmarked frame


@pytest.fixture(scope="module")
def frame(desk):
    """(session, decode config, active tokens, each carrying its
    expansion, and the frame's acoustic row) at the middle frame of the
    utterance."""
    cfg, build = desk
    cache, _ = precompose_cache(build, cfg, "both")
    session = Session(cache, binding_for(build, USER))
    utt = next(u for u in build.utterances if u["user"] == USER)
    scores = scores_for(build, cfg, utt)
    dec_cfg = decode_config(cfg)
    assert decode(scores, session, dec_cfg) is not None
    active = _prune(_eps_closure({session.start_id(): (0.0, None)},
                                 session, dec_cfg), dec_cfg)
    middle = scores.num_frames // 2
    for t in range(middle):
        active = _prune(_eps_closure(
            _emit(active, scores.row(t), dec_cfg.beam), session, dec_cfg),
            dec_cfg)
    return session, dec_cfg, active, scores.row(middle)


def test_emit_step(benchmark, frame):
    _, dec_cfg, active, row = frame
    emitted = benchmark(_emit, active, row, dec_cfg.beam)
    assert (len(active), len(emitted)) == (ACTIVE, EMITTED)


def test_eps_closure(benchmark, frame):
    session, dec_cfg, active, row = frame
    emitted = _emit(active, row, dec_cfg.beam)
    before = session.metrics.otf_expansion
    tokens = benchmark(_eps_closure, emitted, session, dec_cfg)
    assert session.metrics.otf_expansion == before
    assert len(tokens) == CLOSED
