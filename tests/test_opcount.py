"""scripts/paper_table.py's opcode count: a decode pass executes the same
number of Python opcodes every time, the first pass included, so no
session leaves work behind in state it shares with the next."""

import importlib.util
from pathlib import Path

from lazyfst.harness import decode_config, precompose_cache, scores_for


def load_paper_table():
    path = Path(__file__).resolve().parent.parent / "scripts" / "paper_table.py"
    spec = importlib.util.spec_from_file_location("paper_table", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_pass_counts_the_same(desk_cfg, desk_build):
    paper_table = load_paper_table()
    cache, _ = precompose_cache(desk_build, desk_cfg, "none")
    scores = {u["id"]: scores_for(desk_build, desk_cfg, u)
              for u in desk_build.utterances[:3]}
    sessions = paper_table.sessions_of(desk_build, scores, 1, 3)
    meters = [paper_table.Opcodes(), paper_table.Opcodes()]
    for meter in meters:
        paper_table.decode_pass(cache, sessions, decode_config(desk_cfg),
                                meter)
    assert meters[0].total == meters[1].total > 0
