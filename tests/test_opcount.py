"""scripts/opcount.py: a decode pass executes the same number of Python
opcodes every time, the first pass included, so no session leaves work
behind in state it shares with the next."""

import importlib.util
from pathlib import Path


def test_every_pass_counts_the_same(desk_cfg):
    path = Path(__file__).resolve().parent.parent / "scripts" / "opcount.py"
    spec = importlib.util.spec_from_file_location("opcount", path)
    opcount = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(opcount)
    counts = opcount.count_passes(desk_cfg, "none", 1, utterances=3, passes=2)
    assert counts[0] == counts[1] > 0
