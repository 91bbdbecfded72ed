"""Fixtures for the layer microbenchmarks: the bundled desk graphs, built
once per run from this checkout's `src/`."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from lazyfst import harness  # noqa: E402


@pytest.fixture(scope="session")
def desk():
    cfg = harness.load_config(ROOT / "desk.json")
    return cfg, harness.build_graphs(cfg)
