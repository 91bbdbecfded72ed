"""Smoke test of the benchmark on short runs.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS, harness, load_config, make_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload, trace, kind", [
    ("warm-s5", 0, "end_to_end"),
    ("contacts-s5", 1, "per_layer"),
])
def test_every_named_metric_is_printed_with_its_unit(workload, trace, kind):
    proc = bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    printed = {line.split()[0]: line.split()[2]
               for line in lines[:-1] if line.startswith("  ")}
    for metric in SPEC[kind]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert printed.get(metric["name"]) == metric["unit"], metric["name"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC[kind]}


def test_corrupted_hypotheses_count_as_failed(monkeypatch):
    cfg = load_config(7)
    build = harness.build_graphs(cfg)
    public, _ = harness.precompose_cache(build, cfg, "none")
    inputs = make_inputs(WORKLOADS["warm-s5"], build, cfg, 7)[:2]
    real = run.decoder.decode
    seen = []

    def corrupt(scores, session, cfg=None):
        hyp = real(scores, session, cfg)
        seen.append(hyp)
        if len(seen) == 1:
            return dataclasses.replace(hyp, words=hyp.words + ("extra",))
        if len(seen) == 2:
            return None
        return hyp

    monkeypatch.setattr(run.decoder, "decode", corrupt)
    result = run.run_pass(inputs, public, build, harness.decode_config(cfg))
    assert result.utterances == 10
    assert result.failed == 2
    assert result.word_errors == 1 + len(inputs[0][1][1].words)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", "warm-s5", "--seed", "7",
                 "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
