#!/usr/bin/env python3
"""End-to-end experiment: build the desk graphs, then benchmark every
pre-composition method at several session lengths and print a compact
comparison table plus per-turn expansion profiles.

Writes one full report per (method, session length) into the config's
out_dir when --reports is set.  A data or configuration error is one
line on stderr and exit 2, as in the lazyfst CLI.
"""

import argparse
import json
import sys
from pathlib import Path

from lazyfst.errors import ConfigurationError, LazyFstError, require_int
from lazyfst.harness import METHODS, build_graphs, load_config, run_bench


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default="desk.json")
    parser.add_argument("--methods", nargs="+",
                        default=["none", "bfs", "warmup", "both"])
    parser.add_argument("--session-lengths", nargs="+", type=int,
                        default=[1, 5])
    parser.add_argument("--bfs-depth", type=int, default=None)
    parser.add_argument("--reports", action="store_true",
                        help="write full reports next to the build artifacts")
    args = parser.parse_args(argv)
    try:
        return run(args)
    except LazyFstError as err:
        print(f"run_full_bench: error: {err}", file=sys.stderr)
        return 2


def run(args) -> int:
    """Benchmark every method at every session length of `args` and print
    the comparison table.  Every method and session length is checked
    before the graphs are built, so a bad one late in a list costs no
    sweep, and so is --bfs-depth, which needs a method that runs a BFS."""
    cfg = load_config(args.config)
    for method in args.methods:
        if method not in METHODS:
            raise ConfigurationError(f"unknown method {method!r}; "
                                     f"expected one of {METHODS}")
    if args.bfs_depth is not None:
        if not {"bfs", "both"} & set(args.methods):
            raise ConfigurationError(f"--bfs-depth needs --methods bfs or "
                                     f"both, not {' '.join(args.methods)}")
        cfg["bfs_depth"] = args.bfs_depth
    for length in args.session_lengths:
        require_int("session_length", length, 1)
    build = build_graphs(cfg)
    rows = []
    for method in args.methods:
        for length in args.session_lengths:
            report = run_bench(cfg, method=method, session_length=length,
                               build=build)
            if args.reports:
                out_dir = Path(cfg["out_dir"])
                out_dir.mkdir(parents=True, exist_ok=True)
                path = out_dir / f"report_{method}_len{length}.json"
                path.write_text(json.dumps(report, indent=2) + "\n")
            totals = report["totals"]
            rows.append({
                "method": method,
                "len": length,
                "otf": totals["otf_expansions"],
                "public": totals["public_hits"],
                "private": totals["private_hits"],
                "wer": round(totals["wer"], 4),
                "p50_rtf": round(report["rtf"]["p50"], 4),
                "p95_rtf": round(report["rtf"]["p95"], 4),
                "bytes_public": report["bytes_public"],
                "marginal": round(report["marginal_bytes_per_session"]),
            })
            profile = {k: round(v["mean_otf"], 1)
                       for k, v in report["per_turn"].items()}
            print(f"{method:7s} len={length}  per-turn mean expansions: "
                  f"{profile}")

    header = ["method", "len", "otf", "public", "private", "wer",
              "p50_rtf", "p95_rtf", "bytes_public", "marginal"]
    widths = {h: max(len(h), *(len(str(r[h])) for r in rows)) for h in header}
    print()
    print("  ".join(h.rjust(widths[h]) for h in header))
    for r in rows:
        print("  ".join(str(r[h]).rjust(widths[h]) for h in header))
    return 0


if __name__ == "__main__":
    sys.exit(main())
