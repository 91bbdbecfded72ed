"""Deterministic desk-scale dataset: a small command-and-control lexicon,
a weighted corpus over it with one @contact class token, fifty contact
names spelled in monophone words, per-user contact subsets, and two
hundred session-structured evaluation utterances.

Everything here is handcrafted or derived by fixed arithmetic, so two
builds of the dataset are byte-identical.  Utterance seeds hash the
reference words, which makes the simulated score matrix a function of
the content alone: an exact repeat of an earlier turn replays the same
acoustics.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .lmbuild import SIL

# word -> pronunciations. The first pronunciation is the reference one
# used when synthesizing utterance phone strings.
LEXICON: dict[str, list[list[str]]] = {
    "call": [["k", "aa", "l"]],
    "phone": [["f", "ow", "n"]],
    "please": [["p", "l", "iy", "z"]],
    "my": [["m", "ay"]],
    "mom": [["m", "aa", "m"]],
    "dad": [["d", "ae", "d"]],
    "text": [["t", "eh", "k", "s", "t"]],
    "send": [["s", "eh", "n", "d"]],
    "message": [["m", "eh", "s", "ih", "jh"]],
    "to": [["t", "uw"], ["t", "ah"]],
    "the": [["d", "ah"], ["d", "iy"]],
    "weather": [["w", "eh", "d", "er"]],
    "today": [["t", "uw", "d", "ey"]],
    "what": [["w", "ah", "t"]],
    "is": [["ih", "z"]],
    "time": [["t", "ay", "m"]],
    "it": [["ih", "t"]],
    "set": [["s", "eh", "t"]],
    "a": [["ah"]],
    "timer": [["t", "ay", "m", "er"]],
    "for": [["f", "er"]],
    "ten": [["t", "eh", "n"]],
    "minutes": [["m", "ih", "n", "ih", "t", "s"]],
    "play": [["p", "l", "ey"]],
    "some": [["s", "ah", "m"]],
    "music": [["m", "y", "uw", "z", "ih", "k"]],
    "jazz": [["jh", "ae", "z"]],
    "stop": [["s", "t", "aa", "p"]],
    "volume": [["v", "aa", "l", "y", "uw", "m"]],
    "up": [["ah", "p"]],
    "turn": [["t", "er", "n"]],
    "off": [["aa", "f"]],
    "on": [["aa", "n"]],
    "lights": [["l", "ay", "t", "s"]],
    "kitchen": [["k", "ih", "t", "ih", "n"]],
    "remind": [["r", "iy", "m", "ay", "n", "d"]],
    "me": [["m", "iy"]],
    "buy": [["b", "ay"]],
    "milk": [["m", "ih", "l", "k"]],
    "answer": [["ae", "n", "s", "er"]],
    "hang": [["hh", "ae", "ng"]],
    "yes": [["y", "eh", "s"]],
    "no": [["n", "ow"]],
    "hello": [["hh", "eh", "l", "ow"]],
    "goodbye": [["g", "uw", "d", "b", "ay"]],
    # Rare long words: present in the corpus so the composed graph has a
    # deep tail, never used by evaluation utterances.
    "refrigerator": [["r", "ih", "f", "r", "ih", "jh", "er", "ey", "t", "er"]],
    "calibration": [["k", "ae", "l", "ih", "b", "r", "ey", "sh", "ah", "n"]],
    "encyclopedia": [["eh", "n", "s", "ay", "k", "l", "ow", "p", "iy",
                      "d", "iy", "ah"]],
    "thermometer": [["th", "er", "m", "aa", "m", "ih", "t", "er"]],
    "thermostat": [["th", "er", "m", "ah", "s", "t", "ae", "t"]],
}

# (sentence, multiplicity)
CORPUS: list[tuple[str, int]] = [
    ("call @contact", 40),
    ("please call @contact", 15),
    ("text @contact", 20),
    ("send a message to @contact", 15),
    ("phone @contact", 5),
    ("call mom", 10),
    ("call dad", 8),
    ("what is the weather today", 12),
    ("what time is it", 12),
    ("set a timer for ten minutes", 10),
    ("play some jazz music", 8),
    ("play some music", 6),
    ("stop the music", 5),
    ("turn off the lights", 8),
    ("turn on the kitchen lights", 6),
    ("turn the volume up", 4),
    ("remind me to buy milk", 8),
    ("answer the phone", 4),
    ("hang up the phone", 3),
    ("yes", 6),
    ("no", 6),
    ("hello", 4),
    ("goodbye", 4),
    ("turn off the refrigerator", 2),
    ("the calibration is off", 1),
    ("play the encyclopedia", 1),
    ("the thermometer is off", 1),
    ("set the thermostat", 2),
]

# name -> pronunciations in monophone words.  ana/anna and jon/john are
# exact homophones so the contact builder has to disambiguate; alexandra
# carries five variants.
CONTACTS: dict[str, list[list[str]]] = {
    "ana": [["aa", "n", "ah"]],
    "anna": [["aa", "n", "ah"]],
    "jon": [["jh", "aa", "n"]],
    "john": [["jh", "aa", "n"]],
    "alexandra": [
        ["ae", "l", "eh", "k", "s", "aa", "n", "d", "r", "ah"],
        ["ae", "l", "ih", "k", "s", "aa", "n", "d", "r", "ah"],
        ["ae", "l", "eh", "k", "s", "ae", "n", "d", "r", "ah"],
        ["ae", "l", "eh", "k", "z", "aa", "n", "d", "r", "ah"],
        ["ae", "l", "ih", "k", "s", "ae", "n", "d", "r", "ah"],
    ],
    "maria": [["m", "er", "iy", "ah"], ["m", "aa", "r", "iy", "ah"]],
    "james": [["jh", "ey", "m", "z"]],
    "mary": [["m", "eh", "r", "iy"]],
    "robert": [["r", "aa", "b", "er", "t"]],
    "linda": [["l", "ih", "n", "d", "ah"]],
    "michael": [["m", "ay", "k", "ah", "l"]],
    "sarah": [["s", "eh", "r", "ah"], ["s", "aa", "r", "ah"]],
    "david": [["d", "ey", "v", "ih", "d"]],
    "susan": [["s", "uw", "z", "ah", "n"]],
    "peter": [["p", "iy", "t", "er"]],
    "nancy": [["n", "ae", "n", "s", "iy"]],
    "kevin": [["k", "eh", "v", "ih", "n"]],
    "laura": [["l", "aa", "r", "ah"]],
    "brian": [["b", "r", "ay", "ah", "n"]],
    "emma": [["eh", "m", "ah"]],
    "oliver": [["aa", "l", "ih", "v", "er"]],
    "sophia": [["s", "ow", "f", "iy", "ah"]],
    "liam": [["l", "iy", "ah", "m"]],
    "mia": [["m", "iy", "ah"]],
    "noah": [["n", "ow", "ah"]],
    "ava": [["ey", "v", "ah"]],
    "ethan": [["iy", "th", "ah", "n"]],
    "lucas": [["l", "uw", "k", "ah", "s"]],
    "amelia": [["ah", "m", "iy", "l", "iy", "ah"]],
    "henry": [["hh", "eh", "n", "r", "iy"]],
    "evelyn": [["eh", "v", "l", "ih", "n"], ["eh", "v", "ah", "l", "ih", "n"]],
    "jack": [["jh", "ae", "k"]],
    "grace": [["g", "r", "ey", "s"]],
    "owen": [["ow", "ah", "n"], ["ow", "w", "ih", "n"]],
    "lily": [["l", "ih", "l", "iy"]],
    "ryan": [["r", "ay", "ah", "n"]],
    "zoe": [["z", "ow", "iy"]],
    "leo": [["l", "iy", "ow"]],
    "hannah": [["hh", "ae", "n", "ah"]],
    "caleb": [["k", "ey", "l", "ah", "b"]],
    "naomi": [["n", "ey", "ow", "m", "iy"], ["n", "ay", "ow", "m", "iy"]],
    "felix": [["f", "iy", "l", "ih", "k", "s"]],
    "iris": [["ay", "r", "ih", "s"]],
    "oscar": [["aa", "s", "k", "er"]],
    "ruby": [["r", "uw", "b", "iy"]],
    "tessa": [["t", "eh", "s", "ah"]],
    "victor": [["v", "ih", "k", "t", "er"]],
    "wendy": [["w", "eh", "n", "d", "iy"]],
    "yusuf": [["y", "uw", "s", "uw", "f"]],
    "zara": [["z", "aa", "r", "ah"]],
}

# Five-turn session templates.  {A}/{B} expand to "call"-style commands
# over the user's own contacts; the final turn of each template repeats
# an earlier turn word for word.  Roughly a third of the turns are
# contact commands, the rest generic assistant traffic.
SESSION_TEMPLATES: list[list[str]] = [
    ["what is the weather today", "call {A}", "what time is it",
     "turn off the lights", "what is the weather today"],
    ["set a timer for ten minutes", "turn off the lights",
     "play some jazz music", "call {A}", "turn off the lights"],
    ["send a message to {A}", "play some music", "remind me to buy milk",
     "what time is it", "send a message to {A}"],
    ["turn on the kitchen lights", "call {A}", "answer the phone",
     "text {B}", "call {A}"],
]

USERS = [f"u{i:02d}" for i in range(1, 11)]
SESSIONS_PER_USER = 4


def stable_seed(words: list[str]) -> int:
    digest = hashlib.sha256(" ".join(words).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def check_dataset() -> None:
    """Fail loudly if the handcrafted tables break the properties the
    acceptance tests lean on: unique lexicon pronunciations and no
    contact pronunciation that collides with a lexicon word."""
    lex_prons: dict[tuple[str, ...], str] = {}
    for word, prons in LEXICON.items():
        for pron in prons:
            key = tuple(pron)
            if key in lex_prons:
                raise ValueError(f"duplicate pronunciation {key} for "
                                 f"{lex_prons[key]!r} and {word!r}")
            lex_prons[key] = word
    phones = {p for prons in LEXICON.values() for pron in prons for p in pron}
    phones.add(SIL)
    for name, prons in CONTACTS.items():
        for pron in prons:
            if tuple(pron) in lex_prons:
                raise ValueError(f"contact {name!r} pronunciation {pron} "
                                 "collides with a lexicon word")
            missing = [p for p in pron if p not in phones]
            if missing:
                raise ValueError(f"contact {name!r} uses unknown phones "
                                 f"{missing}")


def user_contacts() -> dict[str, list[str]]:
    """u01 owns every contact; the rest get deterministic wrap-around
    slices of varying size."""
    names = list(CONTACTS)
    assignment = {"u01": list(names)}
    for i, user in enumerate(USERS[1:], start=2):
        size = 8 + 3 * (i - 2)
        start = (7 * i) % len(names)
        rotated = names[start:] + names[:start]
        assignment[user] = rotated[:size]
    return assignment


def _expand_turn(template: str, a: str, b: str) -> tuple[list[str], list[str]]:
    """Return (reference words, reference phones) for one turn."""
    words: list[str] = []
    phones: list[str] = []
    for token in template.split():
        if token == "{A}" or token == "{B}":
            # a contact's words are its phones' monophone words
            spelled = CONTACTS[a if token == "{A}" else b][0] + [SIL]
            words.extend(spelled)
            phones.extend(spelled)
        else:
            words.append(token)
            phones.extend(LEXICON[token][0])
    return words, phones


def desk_utterances(users: dict[str, list[str]]) -> list[dict]:
    utts: list[dict] = []
    for ui, user in enumerate(USERS):
        mine = users[user]
        for s in range(SESSIONS_PER_USER):
            template = SESSION_TEMPLATES[(ui + s) % len(SESSION_TEMPLATES)]
            a = mine[(7 * ui + 3 * s) % len(mine)]
            b = mine[(5 * ui + 3 * s + 1) % len(mine)]
            if b == a:
                b = mine[(5 * ui + 3 * s + 2) % len(mine)]
            for t, turn in enumerate(template):
                words, phones = _expand_turn(turn, a, b)
                utts.append({
                    "id": f"{user}-s{s + 1}-t{t + 1}",
                    "user": user,
                    "words": words,
                    "phones": phones,
                    "seed": stable_seed(words),
                })
    return utts


def lexicon_text() -> str:
    lines = []
    for word, prons in LEXICON.items():
        for pron in prons:
            lines.append(f"{word}\t{' '.join(pron)}")
    return "\n".join(lines) + "\n"


def corpus_text() -> str:
    lines = []
    for sentence, mult in CORPUS:
        lines.extend([sentence] * mult)
    return "\n".join(lines) + "\n"


def contacts_jsonl() -> str:
    lines = [json.dumps({"name": name, "pronunciations": prons})
             for name, prons in CONTACTS.items()]
    return "\n".join(lines) + "\n"


def desk_config() -> dict:
    return {
        "data_dir": "data/desk",
        "out_dir": "build/desk",
        "lexicon": "lexicon.txt",
        "corpus": "corpus.txt",
        "class": "@contact",
        "contacts": "contacts.jsonl",
        "users": "users.json",
        "utterances": "utterances.jsonl",
        "noise": 0.25,
        "margin": 4.0,
        "frames_per_phone": 3,
        "frame_seconds": 0.01,
        "beam": 10.0,
        "max_active": 2000,
        "backoff_penalty": 2.302585092994046,
        "sil_penalty": 0.6931471805599453,
        "bfs_depth": 5,
        "state_budget": 200000,
        "warmup_count": 60,
        "seed": 20260818,
    }


def write_desk_data(root: str | Path) -> dict:
    """Write the whole dataset under `root`/data/desk plus a desk.json
    config at `root`, its `data_dir` relative to `root` and its `out_dir`
    "build/desk" relative to the working directory, as every `out_dir`
    is; returns the config as load_config reads it."""
    check_dataset()
    root = Path(root)
    data_dir = root / "data" / "desk"
    data_dir.mkdir(parents=True, exist_ok=True)
    (data_dir / "lexicon.txt").write_text(lexicon_text())
    (data_dir / "corpus.txt").write_text(corpus_text())
    (data_dir / "contacts.jsonl").write_text(contacts_jsonl())
    users = user_contacts()
    (data_dir / "users.json").write_text(json.dumps(users, indent=2) + "\n")
    (data_dir / "utterances.jsonl").write_text(
        "".join(json.dumps(utt) + "\n" for utt in desk_utterances(users)))
    cfg = desk_config()
    (root / "desk.json").write_text(json.dumps(cfg, indent=2) + "\n")
    return dict(cfg, data_dir=str(data_dir))
