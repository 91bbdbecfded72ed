#!/usr/bin/env python3
"""Count the Python opcodes each decode pass executes, a deterministic work
figure: sys.settrace with f_trace_opcodes around decoding the first N desk
utterances in sessions of one length, by user, over a public cache made
and score matrices simulated beforehand.  The garbage collector is paused
during a pass, so no gc callback (hypothesis installs one) is counted.
Every pass should count the same.

    PYTHONPATH=src python3 scripts/opcount.py --method none --session-length 1
"""

import argparse
import gc
import sys

from lazyfst.cache import Session, end_session
from lazyfst.decoder import decode
from lazyfst.harness import (METHODS, binding_for, build_graphs, decode_config,
                             load_config, precompose_cache, scores_for)

CAVEAT = ("a C call counts as one opcode: read the count as a trajectory "
          "next to wall time, never as a replacement for it")


def count_passes(cfg: dict, method: str, session_length: int,
                 utterances: int = 20, passes: int = 3) -> list[int]:
    build = build_graphs(cfg)
    cache, _ = precompose_cache(build, cfg, method)
    dec_cfg = decode_config(cfg)
    by_user: dict[str, list] = {}
    for utt in build.utterances[:utterances]:
        by_user.setdefault(utt["user"], []).append(scores_for(build, cfg, utt))
    sessions = [(binding_for(build, user), turns[i:i + session_length])
                for user, turns in sorted(by_user.items())
                for i in range(0, len(turns), session_length)]
    counts = []
    for _ in range(passes):
        count = 0

        def trace(frame, event, arg):
            nonlocal count
            frame.f_trace_opcodes = True
            count += event == "opcode"
            return trace

        gc.collect()
        gc.disable()
        sys.settrace(trace)
        try:
            for binding, turns in sessions:
                session = Session(cache, binding)
                for scores in turns:
                    decode(scores, session, dec_cfg)
                end_session(session)
        finally:
            sys.settrace(None)
            gc.enable()
        counts.append(count)
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", default="desk.json")
    parser.add_argument("--method", choices=METHODS, default="none")
    parser.add_argument("--session-length", type=int, default=1)
    parser.add_argument("--utterances", type=int, default=20)
    args = parser.parse_args(argv)
    if min(args.session_length, args.utterances) < 1:
        parser.error("--session-length and --utterances must be at least 1")
    counts = count_passes(load_config(args.config), args.method,
                          args.session_length, args.utterances)
    for i, count in enumerate(counts, start=1):
        print(f"pass {i}: {count:,} opcodes")
    print(f"note: {CAVEAT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
