"""Command line front end.

Exit codes: 0 on success, 1 for usage problems, 2 for data or
configuration errors, 3 when an internal invariant check trips.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .cache import dump_public_cache, load_public_cache
from .errors import ConfigurationError, InvariantError, LazyFstError
from .harness import (METHODS, build_graphs, decode_config, graph_stats,
                      load_config, precompose_cache, run_bench, run_session,
                      score_report, write_build)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="lazyfst",
                     description="class-based lazy composition toolkit")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, method_default=None):
        p.add_argument("--config", required=True, help="path to desk.json")
        p.add_argument("--method", choices=METHODS, default=method_default)
        p.add_argument("--bfs-depth", type=int, default=None)

    def cache_file(p):
        p.add_argument("--cache", default=None, metavar="FILE",
                       help="load the shared cache from a precompose "
                            "dump instead of building it")

    p = sub.add_parser("build", help="build graphs and write artifacts")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="artifact directory")

    p = sub.add_parser("precompose", help="fill and dump the shared cache")
    common(p, method_default="bfs")
    p.add_argument("--out", default=None, help="cache dump path")

    p = sub.add_parser("decode", help="decode one utterance")
    common(p)
    cache_file(p)
    p.add_argument("--user", default=None)
    p.add_argument("--utt", default=None, help="utterance id")

    p = sub.add_parser("bench", help="run the session benchmark")
    common(p)
    cache_file(p)
    p.add_argument("--session-length", type=int, choices=(1, 2, 5), default=5)
    p.add_argument("--report", default=None, help="write the full report here")

    p = sub.add_parser("score", help="recompute WER for a bench report")
    p.add_argument("--config", required=True)
    p.add_argument("--report", required=True)

    p = sub.add_parser("stats", help="print graph statistics")
    p.add_argument("--config", required=True)
    return parser


def _config(args) -> dict:
    """The config file, with --seed and --bfs-depth in place of its own.
    A dump fixes how its cache was built, so --cache takes no --method or
    --bfs-depth, and --bfs-depth needs a method that runs a BFS."""
    method = getattr(args, "method", None)
    depth = getattr(args, "bfs_depth", None)
    if getattr(args, "cache", None) is not None:
        if method is not None or depth is not None:
            raise ConfigurationError("--cache loads a finished cache; it "
                                     "takes no --method or --bfs-depth")
    elif depth is not None and method not in ("bfs", "both"):
        raise ConfigurationError(f"--bfs-depth needs --method bfs or both, "
                                 f"not {method or 'none'}")
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if depth is not None:
        cfg["bfs_depth"] = depth
    return cfg


def _check_output(path: str | None) -> None:
    """LazyFstError unless `path`, when given, names a file in an existing
    directory; checked before the work, leaving the file untouched."""
    if path and (Path(path).is_dir() or not Path(path).parent.is_dir()):
        raise LazyFstError(f"cannot write output {path}: it is a directory "
                           f"or its directory does not exist")


def _cache_from_file(args, build):
    """The sealed cache of the --cache dump, or None without --cache."""
    if args.cache is None:
        return None
    try:
        text = Path(args.cache).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigurationError(
            f"cannot read cache dump {args.cache}: {err}") from None
    return load_public_cache(text, build.t1, build.root, build.class_id)


def cmd_build(args) -> int:
    cfg = _config(args)
    out_dir = Path(args.out or cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    build = build_graphs(cfg)
    write_build(build, out_dir)
    print(json.dumps(graph_stats(build), indent=2))
    return 0


def cmd_precompose(args) -> int:
    cfg = _config(args)
    out = args.out
    if out is None:
        out_dir = Path(cfg["out_dir"])
        out_dir.mkdir(parents=True, exist_ok=True)
        out = str(out_dir / f"cache_{args.method}.txt")
    _check_output(out)
    build = build_graphs(cfg)
    cache, stats = precompose_cache(build, cfg, args.method)
    Path(out).write_text(dump_public_cache(cache))
    stats["dump"] = out
    print(json.dumps(stats, indent=2))
    return 0


def cmd_decode(args) -> int:
    cfg = _config(args)
    build = build_graphs(cfg)
    if args.utt is not None:
        utt = next((u for u in build.utterances if u["id"] == args.utt), None)
        if utt is None:
            raise LazyFstError(f"unknown utterance id {args.utt!r}")
        if args.user not in (None, utt["user"]):
            raise LazyFstError(f"utterance {args.utt!r} belongs to user "
                               f"{utt['user']!r}, not {args.user!r}")
    else:
        utt = next((u for u in build.utterances
                    if args.user is None or u["user"] == args.user), None)
        if utt is None:
            of_user = "" if args.user is None else f" of user {args.user!r}"
            raise LazyFstError(f"{cfg['utterances']} holds no utterance"
                               f"{of_user} to decode")
    cache = _cache_from_file(args, build)
    if cache is None:
        cache, _ = precompose_cache(build, cfg, args.method or "none")
    result = run_session(cache, build, cfg, utt["user"], [utt],
                         decode_config(cfg))
    turn = result.turns[0]
    print(json.dumps({"id": utt["id"], "user": utt["user"],
                      "ref_words": utt["words"], "hyp_words": turn["hyp_words"],
                      "cost": turn["cost"], "errors": turn["errors"],
                      "metrics": {"otf": turn["otf"], "public": turn["public"],
                                  "private": turn["private"]}}, indent=2))
    return 0


def cmd_bench(args) -> int:
    cfg = _config(args)
    _check_output(args.report)
    build = build_graphs(cfg)
    cache = _cache_from_file(args, build)
    method = "loaded" if cache is not None else args.method or "none"
    report = run_bench(cfg, method=method, session_length=args.session_length,
                       build=build, cache=cache)
    if args.report:
        Path(args.report).write_text(json.dumps(report, indent=2) + "\n")
    summary = {k: report[k] for k in ("method", "session_length",
                                      "totals", "rtf", "bytes_public",
                                      "bytes_private_total",
                                      "marginal_bytes_per_session")}
    print(json.dumps(summary, indent=2))
    return 0


def cmd_score(args) -> int:
    cfg = _config(args)
    build = build_graphs(cfg)
    try:
        report = json.loads(Path(args.report).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as err:
        raise LazyFstError(f"cannot read report {args.report}: {err}") from None
    print(json.dumps(score_report(report, build, f"report {args.report}"),
                     indent=2))
    return 0


def cmd_stats(args) -> int:
    build = build_graphs(_config(args))
    print(json.dumps(graph_stats(build), indent=2))
    return 0


COMMANDS = {"build": cmd_build, "precompose": cmd_precompose,
            "decode": cmd_decode, "bench": cmd_bench, "score": cmd_score,
            "stats": cmd_stats}


def _run(args) -> int:
    """The command's exit code.  Every read maps its own errors, so an
    OSError here is a failed write of an output path the user named:
    `--out`, `--report` or the config's `out_dir`."""
    try:
        return COMMANDS[args.command](args)
    except OSError as err:
        raise LazyFstError(f"cannot write output: {err}") from None


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else 1
    try:
        return _run(args)
    except InvariantError as err:
        print(f"lazyfst: invariant violation: {err}", file=sys.stderr)
        return 3
    except LazyFstError as err:
        print(f"lazyfst: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
