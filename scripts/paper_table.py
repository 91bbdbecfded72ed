#!/usr/bin/env python3
"""The paper's two speed-up claims on a config's data: a table of CELLS
(counters, decode seconds of ROUNDS rounds over scores and caches made
beforehand, ratio to `none` s1, precompose seconds, opcodes), whether all
cells decode alike, one line per claim, one JSON object.  Exit 1 when
hypotheses or opcode passes differ, 2 on a data or configuration error.
"""

import argparse
import gc
import json
import statistics
import sys
import time

from lazyfst.cache import Session, end_session
from lazyfst.decoder import decode
from lazyfst.errors import LazyFstError
from lazyfst.harness import (METHODS, binding_for, build_graphs, decode_config,
                             load_config, precompose_cache, scores_for,
                             sessions)

# (method, session, length, passes): length None is all of a user's turns;
# passes but the last warm the session unmeasured, so the ceiling is a rerun
CELLS = [(m, f"s{n}", n, 1) for m in METHODS for n in (1, 5)] + [
    ("both", "ceiling", None, 2)]
ROUNDS = 5
PRECOMPOSE_ROUNDS = 3
OPCODE_UTTERANCES = 20
CAVEAT = ("a C call counts as one opcode: read the count as a trajectory "
          "next to wall time, never as a replacement for it")
COLUMNS = ("method", "session", "otf_expansions", "public_hits",
           "private_hits", "decode_s_min", "decode_s_median", "vs_none_s1",
           "precompose_s", "opcodes")


class Clock:
    """The seconds of each `with` block, in `laps`."""
    def __init__(self):
        self.laps = []

    def __enter__(self):
        self.start = time.perf_counter()

    def __exit__(self, *exc):
        self.laps.append(time.perf_counter() - self.start)


class Opcodes:
    """Python opcodes run in `with` blocks, gc paused: no callback counts."""
    total = 0

    def trace(self, frame, event, arg):
        frame.f_trace_opcodes = True
        self.total += event == "opcode"
        return self.trace

    def __enter__(self):
        gc.disable()
        sys.settrace(self.trace)

    def __exit__(self, *exc):
        sys.settrace(None)
        gc.enable()


def sessions_of(build, scores: dict, length, count=None) -> list:
    """(binding, turn scores) per harness.sessions session of the first
    `count` utterances."""
    return [(binding_for(build, utts[0]["user"]),
             [scores[utt["id"]] for utt in utts])
            for utts in sessions(build.utterances[:count], length)]


def decode_pass(cache, sessions, dec_cfg, meter, passes: int = 1):
    """Decode each session's turns `passes` times in one Session, `meter`
    measuring the last; its hypotheses and (OTF, public, private hits)."""
    hyps, counts = [], (0, 0, 0)
    for binding, turns in sessions:
        session = Session(cache, binding)
        for scores in turns * (passes - 1):
            decode(scores, session, dec_cfg)
        before = session.metrics.snapshot()
        with meter:
            hyps += [decode(scores, session, dec_cfg) for scores in turns]
        m = end_session(session).delta(before)
        counts = tuple(map(sum, zip(counts, (m.otf_expansion, m.public_hit,
                                             m.private_hit))))
    return hyps, counts


def claims(rows: dict) -> list[str]:
    """The public cache, public plus private caches and ceiling claims."""
    lines = []
    for name, s, paper in (("public cache", "s1", 3),
                           ("public plus private caches", "s5", 5)):
        both, warm = rows["both", s], rows["warmup", s]
        holds = both["vs_none_s1"] >= paper
        beats = both["otf_expansions"] < warm["otf_expansions"]
        lines.append(
            f"{name}: `both` {s} decodes {both['vs_none_s1']:.2f}x as fast as "
            f"`none` s1, so the paper's {paper}x "
            f"{'holds' if holds else 'does not hold'} here; `both` "
            f"{'beats' if beats else 'does not beat'} `warmup` "
            f"({both['otf_expansions']:,} against {warm['otf_expansions']:,} "
            f"OTF expansions; `warmup` {warm['vs_none_s1']:.2f}x)")
    top = rows["both", "ceiling"]
    reach = " and ".join(f"{p}x" for p in (3, 5) if top["vs_none_s1"] >= p)
    return lines + [
        f"ceiling: `both`, each user's utterances again in one session: "
        f"{top['otf_expansions']:,} OTF expansions, {top['vs_none_s1']:.2f}x "
        f"`none` s1, the best any cache can do with this search, so "
        f"{reach or 'neither 3x nor 5x'} can be reached here"]


def run(config: str) -> int:
    cfg = load_config(config)
    dec_cfg = decode_config(cfg)
    build = build_graphs(cfg)
    scores = {u["id"]: scores_for(build, cfg, u) for u in build.utterances}
    caches, made = {}, {method: Clock() for method in METHODS}
    for method in METHODS:
        for _ in range(PRECOMPOSE_ROUNDS):
            with made[method]:
                caches[method], _ = precompose_cache(build, cfg, method)
    hyps, counts, seconds = {}, {}, {cell: [] for cell in CELLS}
    timed = {cell: sessions_of(build, scores, cell[2]) for cell in CELLS}
    for r in range(ROUNDS):
        for cell in CELLS if r % 2 == 0 else CELLS[::-1]:
            clock = Clock()
            hyps[cell], counts[cell] = decode_pass(
                caches[cell[0]], timed[cell], dec_cfg, clock, cell[3])
            seconds[cell].append(sum(clock.laps))
    rows = {}
    for cell in CELLS:
        method, session, length, passes = cell
        opcodes = [Opcodes(), Opcodes()]
        for meter in opcodes:
            decode_pass(caches[method], sessions_of(build, scores, length,
                                                    OPCODE_UTTERANCES),
                        dec_cfg, meter, passes)
        rows[method, session] = dict(zip(COLUMNS, (
            method, session, *counts[cell], round(min(seconds[cell]), 4),
            round(statistics.median(seconds[cell]), 4),
            round(min(seconds[CELLS[0]]) / min(seconds[cell]), 2),
            round(min(made[method].laps), 4), [m.total for m in opcodes])))
    keys = [[h and (h.words, repr(h.cost)) for h in hyps[c]] for c in CELLS]
    identical = all(k == keys[0] for k in keys)
    lines = claims(rows)
    for row in [dict(zip(COLUMNS, COLUMNS)), *rows.values()]:
        print(" | ".join(str(row[c]) for c in COLUMNS))
    note = f"opcodes: first {OPCODE_UTTERANCES} utterances, 2 passes; {CAVEAT}"
    print(f"identical words and repr(cost) in every cell: {identical}", *lines,
          note, sep="\n")
    print(json.dumps({
        "config": config, "rounds": ROUNDS, "cells": list(rows.values()),
        "hypotheses_identical": identical, "claims": lines, "opcodes": note}))
    repeat = all(a == b for a, b in (row["opcodes"] for row in rows.values()))
    return 0 if identical and repeat else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", default="desk.json")
    try:
        return run(parser.parse_args(argv).config)
    except LazyFstError as err:
        print(f"paper_table: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
