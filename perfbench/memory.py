"""Memory pass: live bytes of the sealed public cache and of one session's
private layer, measured with tracemalloc.

Runs in its own process, because tracemalloc slows every allocation and
would distort the timed passes.  tracemalloc is started after the graphs
are built and the inputs generated, so only the public cache (during
`precompose_cache`) and the sessions are charged.  Sessions are sampled
evenly, about TURNS_SAMPLED turns' worth, to keep the pass short; the
sample is fixed, so a seed always measures the same sessions.  Prints
one JSON line.

    python3 perfbench/memory.py --workload warm-s5 --seed 7
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import statistics
import tracemalloc

from workloads import WORKLOADS, harness, is_correct, load_config, make_inputs

# workloads has put this checkout's src/ first on the import path.
from lazyfst import cache, decoder  # noqa: E402

TURNS_SAMPLED = 50


def live_bytes() -> int:
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


def measure(workload_name: str, seed: int) -> dict:
    workload = WORKLOADS[workload_name]
    cfg = load_config(seed)
    build = harness.build_graphs(cfg)
    inputs = make_inputs(workload, build, cfg, seed)
    step = math.ceil(sum(len(turns) for _, turns in inputs) / TURNS_SAMPLED)
    sample = inputs[::step]
    dec_cfg = harness.decode_config(cfg)

    tracemalloc.start()
    before = live_bytes()
    public, stats = harness.precompose_cache(build, cfg, workload.method)
    del stats
    mem_public = live_bytes() - before

    growth: list[int] = []
    modeled: list[int] = []
    failed = 0
    for user, turns in sample:
        before = live_bytes()
        session = cache.Session(public, harness.binding_for(build, user))
        for turn in turns:
            failed += not is_correct(decoder.decode(turn.scores, session, dec_cfg),
                                     turn)
        growth.append(live_bytes() - before)
        modeled.append(session.bytes_private)
        cache.end_session(session)
    tracemalloc.stop()
    return {"mem_public_bytes": mem_public,
            "mem_session_bytes": statistics.median(growth),
            "sessions": len(sample),
            "utterances": sum(len(turns) for _, turns in sample),
            "failed": failed,
            "modeled_public_bytes": public.bytes_estimate(),
            "modeled_session_bytes": statistics.median(modeled)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    print(json.dumps(measure(args.workload, args.seed), sort_keys=True))


if __name__ == "__main__":
    main()
