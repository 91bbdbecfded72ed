"""Session benchmark for lazyfst: one closed-loop client decoding desk
traffic through the two-layer cache, end to end or layer by layer.

    python3 perfbench/run.py --workload warm-s5 --seed 7 --seconds 50 --trace 0

One client in one process and one thread sends each session's turns
back to back.  A run sets up once (build_graphs + precompose_cache),
generates every score matrix and decodes one untimed warm-up pass, then
repeats timed passes over the workload for --seconds.  Every hypothesis
is checked against its reference words and the work counters must
repeat exactly from pass to pass.

With --trace 0 the end-to-end metrics are reported.  Set-up is repeated
in bursts between the passes and setup_s is the median; each timing
sample (an utterance, a session) is its fastest repeat across passes;
memory is measured by memory.py in a process of its own, beside the
untimed start.  With --trace 1 untraced and traced passes alternate and
the per-layer metrics are reported, with the spans of every traced pass
written to .perfbench/.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from workloads import (ROOT, WORKLOADS, harness, is_correct, load_config,
                       make_inputs, set_up)

# workloads has put this checkout's src/ first on the import path.
from lazyfst import cache, compose, decoder, lmbuild, precompose, replace  # noqa: E402

SPAN_DIR = ROOT / ".perfbench"
MEMORY_TIMEOUT_S = 150
MIN_PASSES = 3    # repeats behind every best-of sample


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, as the harness reports RTF."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


class Pass:
    """Samples and counters of one pass over the workload's sessions."""

    def __init__(self):
        self.wall_s = 0.0
        self.rtf: list[float] = []              # per utterance, input order
        self.first_turn_ms: list[float] = []    # per session, input order
        self.session_s: list[float] = []        # per session, open to close
        self.session_open_s = 0.0
        self.session_bytes: list[int] = []
        self.counters = {"frames": 0, "public_hit": 0, "private_hit": 0,
                         "otf_expansion": 0}
        self.utterances = 0
        self.failed = 0
        self.word_errors = 0
        self.ref_words = 0


def run_pass(inputs, public, build, dec_cfg, layers=None, spans=None) -> Pass:
    """Decode every session once.  Correctness is scored after the clock
    stops; with `layers` and `spans` each session and each utterance
    leaves a span carrying its layers' self time."""
    result = Pass()
    hyps = []
    clock = time.perf_counter
    gc.collect()
    start = clock()
    for index, (user, turns) in enumerate(inputs):
        t_open = clock()
        session = cache.Session(public, harness.binding_for(build, user))
        t_opened = clock()
        result.session_open_s += t_opened - t_open
        for position, turn in enumerate(turns):
            before = layers.self_times() if spans is not None else None
            t0 = clock()
            hyp = decoder.decode(turn.scores, session, dec_cfg)
            t1 = clock()
            if position == 0:
                result.first_turn_ms.append((t1 - t_open) * 1000.0)
            result.rtf.append((t1 - t0) / turn.audio_s)
            hyps.append((turn, hyp))
            if spans is not None:
                after = layers.self_times()
                spans.append({"id": f"session-{index}", "name": "utterance",
                              "utt": turn.utt_id, "parent": "session",
                              "start": t0 - start, "end": t1 - start,
                              "self_s": {k: v - before.get(k, 0.0)
                                         for k, v in after.items()}})
        final = cache.end_session(session)
        result.session_s.append(clock() - t_open)
        if spans is not None:
            spans.append({"id": f"session-{index}", "name": "session",
                          "user": user, "parent": None,
                          "start": t_open - start, "end": clock() - start,
                          "open_s": t_opened - t_open})
        for key in result.counters:
            result.counters[key] += getattr(final, key)
        result.session_bytes.append(final.bytes_private)
    result.wall_s = clock() - start

    for turn, hyp in hyps:
        result.utterances += 1
        result.failed += not is_correct(hyp, turn)
        result.word_errors += harness.levenshtein(
            list(turn.words), list(hyp.words) if hyp is not None else [])
        result.ref_words += len(turn.words)
    return result


def start_memory_pass(workload: str, seed: int) -> subprocess.Popen:
    """Start memory.py in its own process; it runs beside the untimed
    set-up and warm-up pass and is collected before timing starts."""
    return subprocess.Popen(
        [sys.executable, str(Path(__file__).with_name("memory.py")),
         "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def finish_memory_pass(proc: subprocess.Popen) -> dict:
    try:
        out, err = proc.communicate(timeout=MEMORY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit("perfbench: memory pass timed out")
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"perfbench: memory pass exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


class SetUps:
    """Set-up repetitions, timed in bursts of at least BURST_S seconds.

    The bursts run between the timed passes, so set-up and decoding are
    sampled over the same stretch of time on a shared machine."""

    BURST_S = 0.3

    def __init__(self, cfg: dict, method: str):
        self.cfg = cfg
        self.method = method
        self.times: list[float] = []
        self.expanded: list[int] = []

    def burst(self) -> None:
        spent = 0.0
        while spent < self.BURST_S:
            t0 = time.perf_counter()
            stats = set_up(self.cfg, self.method)[2]
            elapsed = time.perf_counter() - t0
            spent += elapsed
            self.times.append(elapsed)
            self.expanded.append(stats["public_expanded"])


def timed_passes(inputs, public, build, dec_cfg, seconds: float,
                 traced: bool = False, set_ups: SetUps | None = None):
    """Passes while the next one is expected to end within `seconds`.

    With `set_ups`, a set-up burst precedes every pass and at least
    MIN_PASSES passes run.  With `traced`, untraced and traced passes
    alternate (at least one of each); a traced pass is kept as (pass,
    layers, spans, public states the decoder asked for)."""
    plain: list[Pass] = []
    traced_runs: list[tuple[Pass, tracing.Layers, list, set]] = []
    min_passes = MIN_PASSES if set_ups else 1
    begin = time.perf_counter()

    def more() -> bool:
        done = len(plain) + len(traced_runs)
        elapsed = time.perf_counter() - begin
        return (len(plain) < min_passes or (traced and not traced_runs)
                or elapsed + elapsed / done <= seconds)

    while more():
        if traced and len(traced_runs) < len(plain):
            layers = tracing.Layers()
            spans: list[dict] = []
            used: set[int] = set()
            with tracing.patched(layers, loop_targets(layers, used)):
                run = run_pass(inputs, public, build, dec_cfg, layers, spans)
            traced_runs.append((run, layers, spans, used))
        else:
            if set_ups is not None:
                set_ups.burst()
            plain.append(run_pass(inputs, public, build, dec_cfg))
    return plain, traced_runs


def loop_targets(layers: tracing.Layers, used_public: set[int]):
    def count_tokens(args, kept):
        layers.counts["decoder.tokens_in"] += len(args[0])
        layers.counts["decoder.tokens_kept"] += len(kept)

    def note_state(args, _result):
        used_public.add(args[0])

    return [("decoder.decode", decoder, "decode", None),
            ("decoder.closure", decoder, "_eps_closure", None),
            ("decoder.prune", decoder, "_prune", count_tokens),
            ("cache.expand", cache, "expand", note_state),
            ("compose.expand_pair_state", compose, "expand_pair_state", None),
            ("replace.arcs_of", replace.ReplaceView, "arcs_of", None)]


def setup_targets():
    return [("lmbuild.contact_fst", lmbuild, "build_contact_fst", None),
            ("precompose.bfs", precompose, "bfs_precompose", None),
            ("precompose.warmup", precompose, "warmup_precompose", None),
            ("precompose.seal", cache, "seal_public", None)]


def best_of(samples: list[list[float]]) -> list[float]:
    """Each sample's fastest repeat across passes.  Other processes on a
    shared machine only ever add time; the minimum over a run's passes
    removes what they add for part of the run."""
    return [min(repeats) for repeats in zip(*samples)]


def check_repeats(passes: list[Pass], problems: list[str]) -> dict:
    """The work counters every pass must repeat exactly."""
    first = passes[0].counters
    for p in passes[1:]:
        if p.counters != first:
            problems.append(f"counters changed between passes: {first} "
                            f"then {p.counters}")
    return first


def end_to_end(args, workload, cfg, problems: list[str]):
    memory = start_memory_pass(args.workload, args.seed)
    try:
        build, public, stats = set_up(cfg, workload.method)
        inputs = make_inputs(workload, build, cfg, args.seed)
        dec_cfg = harness.decode_config(cfg)
        warm = run_pass(inputs, public, build, dec_cfg)
    finally:
        mem = finish_memory_pass(memory)
    if mem["failed"]:
        problems.append(f"memory pass: {mem['failed']} wrong hypotheses")

    set_ups = SetUps(cfg, workload.method)
    passes, _ = timed_passes(inputs, public, build, dec_cfg, args.seconds,
                             set_ups=set_ups)
    work = check_repeats([warm] + passes, problems)
    expanded = [stats["public_expanded"]] + set_ups.expanded
    if len(set(expanded)) != 1:
        problems.append(f"public states expanded differ between set-ups: "
                        f"{sorted(set(expanded))}")

    rtf = best_of([p.rtf for p in passes])
    first = best_of([p.first_turn_ms for p in passes])
    session_s = best_of([p.session_s for p in passes])
    utterances = passes[0].utterances
    best = f"best of {len(passes)} passes"
    print(f"counters per pass ({len(passes) + 1} passes): {json.dumps(work)}, "
          f"public states expanded {expanded[0]}")
    print(f"modeled bytes (ARC_BYTES={cache.ARC_BYTES} STATE_BYTES="
          f"{cache.STATE_BYTES} KEY_BYTES={cache.KEY_BYTES}): public "
          f"{mem['modeled_public_bytes']}, median session "
          f"{mem['modeled_session_bytes']:g}")
    return passes, {
        "utt_per_s": (utterances / sum(session_s),
                      f"n={len(session_s)} sessions, {best}"),
        "rtf_p50": (percentile(rtf, 50), f"n={len(rtf)} utterances, {best}"),
        "rtf_p95": (percentile(rtf, 95), f"n={len(rtf)} utterances, {best}"),
        "first_turn_ms_p50": (statistics.median(first), f"n={len(first)} sessions, {best}"),
        "mem_public_bytes": (mem["mem_public_bytes"], "n=1 cache"),
        "mem_session_bytes": (mem["mem_session_bytes"],
                              f"median of n={mem['sessions']} sessions"),
        "setup_s": (statistics.median(set_ups.times),
                    f"median of n={len(set_ups.times)} set-ups"),
    }


def traced_set_up(cfg: dict, problems: list[str]):
    """Three set-ups with method both, the public layer the other methods
    are judged against, with the set-up layers wrapped."""
    runs = []
    expanded = set()
    absent: list[str] = []
    for _ in range(3):
        layers = tracing.Layers()
        with tracing.patched(layers, setup_targets()):
            t0 = time.perf_counter()
            build = harness.build_graphs(cfg)
            build_s = time.perf_counter() - t0
            public, stats = harness.precompose_cache(build, cfg, "both")
        expanded.add(stats["public_expanded"])
        absent = layers.absent
        runs.append({"lmbuild.build_s": build_s,
                     "lmbuild.contact_fst_s": layers["lmbuild.contact_fst"].total,
                     "precompose.bfs_s": layers["precompose.bfs"].total,
                     "precompose.warmup_s": layers["precompose.warmup"].total,
                     "precompose.seal_s": layers["precompose.seal"].total})
    if len(expanded) != 1:
        problems.append(f"public states expanded differ between set-ups: "
                        f"{sorted(expanded)}")
    medians = {k: (statistics.median(r[k] for r in runs), "median of n=3 set-ups")
               for k in runs[0]}
    return medians, absent, build, public, stats


# Metrics that vanish with a wrapped private function a later version renames.
DEPENDS_ON = {"decoder.closure": ("decoder.closure.calls", "decoder.closure.self_s"),
              "decoder.prune": ("decoder.prune.self_s", "decoder.tokens_in",
                                "decoder.tokens_kept", "decoder.prune_keep_ratio")}

# Self-time metrics per module; with the unattributed remainder they add
# up to the traced decode-loop wall time.
MODULE_SELF = {"decoder": ("decoder.decode.self_s", "decoder.closure.self_s",
                           "decoder.prune.self_s"),
               "cache": ("cache.expand.self_s", "cache.session_open_s"),
               "compose": ("compose.expand_pair_state.self_s",),
               "replace": ("replace.arcs_of.s",),
               "unattributed": ("trace.unattributed_s",)}


def layer_figures(run: Pass, layers: tracing.Layers, used: set[int],
                  public, public_expanded: int) -> dict:
    tokens_in = layers.counts["decoder.tokens_in"]
    kept = layers.counts["decoder.tokens_kept"]
    expand = layers["cache.expand"]
    attributed = run.session_open_s + sum(l.self_time for l in layers.layers.values())
    return {
        "cache.expand.calls": expand.calls,
        "cache.expand.self_s": expand.self_time,
        "cache.public_hit_ratio": run.counters["public_hit"] / expand.calls,
        "cache.session_open_s": run.session_open_s,
        "compose.expand_pair_state.calls": layers["compose.expand_pair_state"].calls,
        "compose.expand_pair_state.self_s": layers["compose.expand_pair_state"].self_time,
        "replace.arcs_of.calls": layers["replace.arcs_of"].calls,
        "replace.arcs_of.s": layers["replace.arcs_of"].total,
        "decoder.decode.self_s": layers["decoder.decode"].self_time,
        "decoder.closure.calls": layers["decoder.closure"].calls,
        "decoder.closure.self_s": layers["decoder.closure"].self_time,
        "decoder.prune.self_s": layers["decoder.prune"].self_time,
        "decoder.tokens_in": tokens_in,
        "decoder.tokens_kept": kept,
        "decoder.prune_keep_ratio": kept / tokens_in if tokens_in else 0.0,
        "precompose.used_ratio": len(used & public.expanded.keys()) / public_expanded,
        "trace.loop_s": run.wall_s,
        "trace.unattributed_s": run.wall_s - attributed,
    }


def per_layer(args, workload, cfg, problems: list[str]):
    figures, absent, build, public, stats = traced_set_up(cfg, problems)
    if workload.method != "both":
        public = set_up(cfg, workload.method)[1]
    inputs = make_inputs(workload, build, cfg, args.seed)
    dec_cfg = harness.decode_config(cfg)
    warm = run_pass(inputs, public, build, dec_cfg)
    plain, traced_runs = timed_passes(inputs, public, build, dec_cfg,
                                      args.seconds, traced=True)
    passes = plain + [run for run, _, _, _ in traced_runs]
    work = check_repeats([warm] + passes, problems)

    # Figures come from the traced pass with the median loop time, so the
    # module self times and the remainder add up to its loop time.
    ranked = sorted(traced_runs, key=lambda t: t[0].wall_s)
    run, layers, _, used = ranked[(len(ranked) - 1) // 2]
    absent = sorted(set(absent) | set(layers.absent))
    traced_n = f"median-time pass of n={len(traced_runs)} traced passes"
    for name, value in layer_figures(run, layers, used, public,
                                     stats["public_expanded"]).items():
        figures[name] = (value, traced_n)
    untraced = statistics.median(p.wall_s for p in plain)
    figures.update({
        "precompose.public_expanded": (stats["public_expanded"], "method both"),
        "cache.public_hit": (work["public_hit"], "per pass"),
        "cache.private_hit": (work["private_hit"], "per pass"),
        "cache.otf_expansion": (work["otf_expansion"], "per pass"),
        "cache.bytes_public_modeled": (public.bytes_estimate(), "n=1 cache"),
        "cache.bytes_session_modeled": (
            statistics.median(b for p in passes for b in p.session_bytes),
            "median over sessions"),
        "decoder.frames": (work["frames"], "per pass"),
        "trace.untraced_loop_s": (untraced, f"median of n={len(plain)} passes"),
        "trace.overhead_frac": (figures["trace.loop_s"][0] / untraced - 1.0,
                                "traced over untraced loop, minus 1"),
    })
    for layer in absent:
        for name in DEPENDS_ON.get(layer, ()):
            del figures[name]
        print(f"absent: layer {layer} (not found in lazyfst), "
              f"metrics {', '.join(DEPENDS_ON.get(layer, ())) or 'none'}")

    print(f"counters per pass ({len(passes) + 1} passes): {json.dumps(work)}, "
          f"public states expanded {stats['public_expanded']} (method both)")
    loop_s = figures["trace.loop_s"][0]
    print(f"self time of the traced decode loop ({loop_s:.4f} s):")
    total = 0.0
    for module, names in MODULE_SELF.items():
        seconds = sum(figures[n][0] for n in names if n in figures)
        total += seconds
        print(f"  {module:12s} {seconds:10.4f} s {seconds / loop_s:7.1%}")
    print(f"  {'sum':12s} {total:10.4f} s {total / loop_s:7.1%}")

    SPAN_DIR.mkdir(exist_ok=True)
    span_file = SPAN_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
    with open(span_file, "w") as fh:
        for number, (_, _, spans, _) in enumerate(traced_runs):
            for span in spans:
                fh.write(json.dumps({"pass": number, **span}) + "\n")
    print(f"spans of {len(traced_runs)} traced passes written to "
          f"{span_file.relative_to(ROOT)}")
    return passes, figures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    cfg = load_config(args.seed)
    print(f"workload {workload.name}: method {workload.method}, session length "
          f"{workload.session_length}, seed {args.seed}, {args.seconds:g} s")

    problems: list[str] = []
    measure = per_layer if args.trace else end_to_end
    passes, figures = measure(args, workload, cfg, problems)
    attempted = sum(p.utterances for p in passes)
    failed = sum(p.failed for p in passes)
    errors = sum(p.word_errors for p in passes)
    ref_words = sum(p.ref_words for p in passes)
    print(f"wer {errors / ref_words:.6g} ({errors} errors / {ref_words} words), "
          f"failed_frac {failed / attempted:.6g} ({failed} / {attempted} utterances)")
    if errors:
        problems.append(f"wer is {errors / ref_words:.6g}, not 0")

    metrics = {}
    print("per-layer metrics:" if args.trace else "end-to-end metrics:")
    for m in wanted:
        if m["name"] not in figures:
            continue
        value, samples = figures[m["name"]]
        print(f"  {m['name']:34s} {value:>16.6g} {m['unit']:6s} {samples}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    unnamed = set(figures) - {m["name"] for m in wanted}
    if unnamed:
        problems.append(f"metrics missing from BENCHMARK.json: {sorted(unnamed)}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
