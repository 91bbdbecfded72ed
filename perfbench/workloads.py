"""Workloads, set-up and inputs shared by the timed run, the traced run
and the memory pass.

Everything here talks to lazyfst through its public entry points only:
`harness.build_graphs`, `harness.precompose_cache`, `harness.binding_for`,
`harness.scores_for`, `cache.Session`, `decoder.decode` and
`cache.end_session`.  The package is imported from the `src/` directory
of the checkout this file sits in, never from an installed copy.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "lazyfst" / "__init__.py").is_file():
    sys.exit(f"perfbench: no lazyfst sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

from lazyfst import deskdata, harness  # noqa: E402

if Path(harness.__file__).resolve().parents[2] != ROOT:
    sys.exit(f"perfbench: lazyfst imported from {harness.__file__}, "
             f"not from {ROOT / 'src'}")


@dataclass(frozen=True)
class Workload:
    name: str
    method: str
    session_length: int
    contacts_only: bool = False


# warm-s5: the serving steady state; the decoder's closure, emit and
#   prune dominate, composition is light and the repeated last turn of
#   each desk session reads the private cache.
# cold-s1: no pre-composition and a fresh session per turn, so
#   expand_pair_state and ReplaceView.arcs_of do about half the work and
#   a change to the public layer should show no change here.
# contacts-s5: every turn enters the @contact class, so private writes
#   inside class regions sit beside public reads.
WORKLOADS = {w.name: w for w in (
    Workload("warm-s5", "both", 5),
    Workload("cold-s1", "none", 1),
    Workload("contacts-s5", "both", 5, contacts_only=True),
)}

CONTACT_USERS = 4           # the users with the largest contact lists
CONTACT_SESSIONS = 40       # sessions of `session_length` turns


def load_config(seed: int) -> dict:
    """The bundled desk config, with the acoustic-noise seed replaced."""
    cfg = harness.load_config(ROOT / "desk.json")
    cfg["data_dir"] = str(ROOT / cfg["data_dir"])
    cfg["seed"] = seed
    return cfg


def set_up(cfg: dict, method: str):
    """What a deployment pays once: graphs, then the sealed public cache."""
    build = harness.build_graphs(cfg)
    public, stats = harness.precompose_cache(build, cfg, method)
    return build, public, stats


def _contact_turn(form: str, name: str) -> tuple[list[str], list[str]]:
    """Reference words and phones of one corpus @contact sentence."""
    words: list[str] = []
    phones: list[str] = []
    for token in form.split():
        if token == "@contact":
            spoken = deskdata.CONTACTS[name][0] + [deskdata.SIL]
            words.extend(spoken)
            phones.extend(spoken)
        else:
            words.append(token)
            phones.extend(deskdata.LEXICON[token][0])
    return words, phones


def contact_sessions(build, seed: int, session_length: int) -> list[tuple[str, list[dict]]]:
    """Contact commands drawn from the seed: every turn is one of the
    corpus's @contact sentences with a contact of the session's user, and
    no turn repeats an earlier one of its session word for word."""
    rng = random.Random(seed)
    forms = sorted(s for s, _ in deskdata.CORPUS if "@contact" in s.split())
    users = sorted(build.users, key=lambda u: (-len(build.users[u]), u))
    users = users[:CONTACT_USERS]
    sessions = []
    for s in range(CONTACT_SESSIONS):
        user = users[s % len(users)]
        seen: set[tuple[str, ...]] = set()
        turns = []
        while len(turns) < session_length:
            words, phones = _contact_turn(rng.choice(forms),
                                          rng.choice(build.users[user]))
            if tuple(words) in seen:
                continue
            seen.add(tuple(words))
            turns.append({"id": f"{user}-c{s + 1}-t{len(turns) + 1}",
                          "user": user, "words": words, "phones": phones,
                          "seed": deskdata.stable_seed(words)})
        sessions.append((user, turns))
    return sessions


def desk_sessions(build, session_length: int) -> list[tuple[str, list[dict]]]:
    """The bundled evaluation utterances, per user in file order, cut into
    sessions of `session_length` turns."""
    by_user: dict[str, list[dict]] = {}
    for utt in build.utterances:
        by_user.setdefault(utt["user"], []).append(utt)
    return [(user, utts[i:i + session_length])
            for user in sorted(by_user)
            for utts in [by_user[user]]
            for i in range(0, len(utts), session_length)]


@dataclass
class Turn:
    utt_id: str
    words: tuple[str, ...]
    scores: object          # decoder.ScoreMatrix
    audio_s: float


def make_inputs(workload: Workload, build, cfg: dict, seed: int) -> list[tuple[str, list[Turn]]]:
    """Sessions with their score matrices, generated before any timing."""
    if workload.contacts_only:
        sessions = contact_sessions(build, seed, workload.session_length)
    else:
        sessions = desk_sessions(build, workload.session_length)
    out = []
    for user, utts in sessions:
        turns = []
        for utt in utts:
            scores = harness.scores_for(build, cfg, utt)
            turns.append(Turn(utt["id"], tuple(utt["words"]), scores,
                              scores.num_frames * scores.frame_seconds))
        out.append((user, turns))
    return out


def is_correct(hyp, turn: Turn) -> bool:
    """A hypothesis counts only when its words equal the reference."""
    return hyp is not None and tuple(hyp.words) == turn.words

