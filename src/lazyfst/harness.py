"""Experiment harness: build the desk graphs, pre-compose the shared
cache, run session benchmarks, and score the results.

The harness rebuilds graphs from the dataset on demand instead of
deserializing them; desk scale makes that cheap and it keeps every
command self-contained.  Reports are plain dicts ready for json.dump,
deterministic except for the wall-clock and real-time-factor fields.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

from .cache import PublicCache, Session, end_session
from .decoder import DecodeConfig, decode, simulate_scores
from .errors import BuildError, ConfigurationError, require_int
from .fst import Fst, SymbolTable, write_symbols, write_text_fst
from .lmbuild import (ContactEntry, Lexicon, build_contact_fst,
                      build_lexicon_fst, build_symbol_tables,
                      parse_contacts_jsonl, parse_corpus, parse_lexicon,
                      train_bigram_root)
from .precompose import PrecomposeConfig, bfs_precompose, warmup_precompose
from .replace import ClassBinding, insert_epsilon_before_class

METHODS = ("none", "bfs", "warmup", "both")
# Config fields naming the data directory and the files in it.
PATH_FIELDS = ("data_dir", "lexicon", "corpus", "contacts", "users",
               "utterances")


def load_config(path: str | Path) -> dict:
    """The JSON object in the UTF-8 file `path`, which must hold `class`,
    the class label, and every field of PATH_FIELDS, and may hold
    `out_dir` (default "build"), each a string with no NUL character,
    which no file name holds.  A relative `data_dir` is taken from the
    config file's directory."""
    try:
        cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ConfigurationError(f"cannot read config {path}: {err}") from None
    if not isinstance(cfg, dict):
        raise ConfigurationError(f"config {path} is not a JSON object")
    cfg.setdefault("out_dir", "build")
    for key in ("class", "out_dir") + PATH_FIELDS:
        if key not in cfg:
            raise ConfigurationError(f"config {path} lacks {key!r}")
        if not isinstance(cfg[key], str) or "\0" in cfg[key]:
            raise ConfigurationError(f"config {path}: {key} must be a "
                                     f"string with no NUL, not {cfg[key]!r}")
    cfg["data_dir"] = str(Path(path).parent / cfg["data_dir"])
    return cfg


def is_string_lists(value) -> bool:
    """True for a dict that maps every key to a list (or, as run_bench
    reports hypotheses, a tuple) of strings."""
    return isinstance(value, dict) and all(
        isinstance(names, (list, tuple))
        and all(isinstance(n, str) for n in names)
        for names in value.values())


@dataclass
class Build:
    """Everything the experiments need, in memory."""
    lexicon: Lexicon
    phone_syms: SymbolTable
    word_syms: SymbolTable
    t1: Fst
    root: Fst
    class_id: int
    contacts: list[ContactEntry]
    users: dict[str, list[str]]
    bindings: dict[str, ClassBinding]   # per user, built once
    utterances: list[dict] = field(default_factory=list)


def build_graphs(cfg: dict) -> Build:
    data = Path(cfg["data_dir"])

    def read(name: str) -> str:
        path = data / cfg[name]
        try:
            return path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as err:
            raise BuildError(f"cannot read data file {path}: {err}") from None

    lexicon = parse_lexicon(read("lexicon"), str(data / cfg["lexicon"]))
    phone_syms, word_syms = build_symbol_tables(lexicon, cfg["class"])
    class_id = word_syms.id_of(cfg["class"])
    t1 = build_lexicon_fst(lexicon, phone_syms, word_syms,
                           **_settings(cfg, ("sil_penalty",)))
    corpus = parse_corpus(read("corpus"))
    root = insert_epsilon_before_class(train_bigram_root(
        corpus, lexicon, cfg["class"], word_syms,
        **_settings(cfg, ("backoff_penalty",))), class_id)
    phones = set(lexicon.phones)
    contacts = parse_contacts_jsonl(read("contacts"), phones,
                                    str(data / cfg["contacts"]))
    by_name = {c.name: c for c in contacts}
    users_path = data / cfg["users"]
    try:
        users = json.loads(read("users"))
    except json.JSONDecodeError as err:
        raise BuildError(f"bad JSON in {users_path}: {err}") from None
    if not is_string_lists(users):
        raise BuildError(f"{users_path} must be a JSON object mapping each "
                         f"user to a list of contact names")
    bindings: dict[str, ClassBinding] = {}
    for user, names in users.items():
        if user in ("", ".", "..") or "/" in user or "\0" in user:
            raise BuildError(f"{users_path}: user id {user!r} cannot be "
                             f"a file name")
        if not names:
            raise BuildError(f"{users_path}: user {user} has an empty "
                             f"contact list")
        missing = [n for n in names if n not in by_name]
        if missing:
            raise BuildError(f"{users_path}: user {user} references unknown "
                             f"contacts {missing}")
        bindings[user] = ClassBinding(class_id, build_contact_fst(
            [by_name[n] for n in names], phones, word_syms))
    utterances = parse_utterances(read("utterances"),
                                  str(data / cfg["utterances"]), users)
    return Build(lexicon, phone_syms, word_syms, t1, root, class_id,
                 contacts, users, bindings, utterances)


UTTERANCE_FIELDS = (("id", str), ("user", str), ("words", list),
                    ("phones", list), ("seed", int))


def parse_utterances(text: str, path: str,
                     users: dict[str, list[str]]) -> list[dict]:
    """One JSON object per non-blank line, each with every field in
    UTTERANCE_FIELDS (word and phone lists of strings, at least one
    phone, a seed that is an int and not a bool), a known user and an id
    no earlier row has."""
    rows = []
    seen: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        try:
            row = json.loads(line)
        except json.JSONDecodeError as err:
            raise BuildError(f"{where}: bad utterance row: {err}") from None
        if not isinstance(row, dict):
            raise BuildError(f"{where}: utterance row is not a JSON object")
        for name, kind in UTTERANCE_FIELDS:
            value = row.get(name)
            if not isinstance(value, kind) or isinstance(value, bool) or (
                    kind is list and not all(isinstance(v, str) for v in value)):
                raise BuildError(f"{where}: utterance {row.get('id')!r} lacks "
                                 f"a valid {name!r} field")
        if not row["phones"]:
            raise BuildError(f"{where}: utterance {row['id']!r} has no phones")
        if row["user"] not in users:
            raise BuildError(f"{where}: utterance {row['id']!r} names unknown "
                             f"user {row['user']!r}")
        if row["id"] in seen:
            raise BuildError(f"{where}: utterance {row['id']!r} is repeated")
        seen.add(row["id"])
        rows.append(row)
    return rows


def write_build(build: Build, out_dir: str | Path) -> None:
    """Write the symbol tables and the graphs as AT&T text, the form
    OpenFst's fstcompile reads with --isymbols/--osymbols."""
    out = Path(out_dir)
    (out / "contacts").mkdir(parents=True, exist_ok=True)
    (out / "phones.syms").write_text(write_symbols(build.phone_syms))
    (out / "words.syms").write_text(write_symbols(build.word_syms))
    (out / "t1.fst.txt").write_text(write_text_fst(build.t1))
    (out / "root.fst.txt").write_text(write_text_fst(build.root))
    for user, binding in build.bindings.items():
        (out / "contacts" / f"{user}.fst.txt").write_text(
            write_text_fst(binding.fst))


def binding_for(build: Build, user: str) -> ClassBinding:
    """The user's binding, built once by build_graphs."""
    binding = build.bindings.get(user)
    if binding is None:
        raise BuildError(f"unknown user {user!r}")
    return binding


def scores_for(build: Build, cfg: dict, utt: dict):
    """The utterance's simulated scores: simulate_scores with the score
    settings cfg holds and its own default for the rest, so a config
    without `noise` is noise-free."""
    ref = [build.phone_syms.id_of(p) for p in utt["phones"]]
    if any(p is None for p in ref):
        raise BuildError(f"utterance {utt['id']} uses unknown phones")
    cfg_seed = cfg.get("seed", 0)
    require_int("seed", cfg_seed)
    seed = (utt["seed"] * 1000003 + cfg_seed) & 0x7FFFFFFF
    return simulate_scores(ref, len(build.phone_syms), seed=seed,
                           **_settings(cfg, ("frames_per_phone", "margin",
                                             "noise", "frame_seconds")))


def _settings(cfg: dict, names: tuple[str, ...]) -> dict:
    """The settings among `names` that cfg holds.  A name it lacks is
    left out, so the config class's own default applies."""
    return {name: cfg[name] for name in names if name in cfg}


def decode_config(cfg: dict) -> DecodeConfig:
    return DecodeConfig(**_settings(cfg, ("beam", "max_active")))


def precompose_cache(build: Build, cfg: dict,
                     method: str) -> tuple[PublicCache, dict]:
    """The shared cache made from the keys the requested method chooses."""
    if method not in METHODS:
        raise ConfigurationError(f"unknown method {method!r}; "
                                 f"expected one of {METHODS}")
    pre_cfg = PrecomposeConfig(**_settings(
        cfg, ("bfs_depth", "state_budget", "warmup_count")))
    empty = PublicCache(build.t1, build.root, build.class_id)
    stats = {"method": method}
    keys: list = []
    if method in ("bfs", "both"):
        keys = bfs_precompose(empty, pre_cfg)
        stats["bfs_depth"] = pre_cfg.bfs_depth
        stats["after_bfs"] = len(keys)
    if method in ("warmup", "both"):
        score_list = [scores_for(build, cfg, utt)
                      for utt in build.utterances[:pre_cfg.warmup_count]]
        keys = warmup_precompose(empty, pre_cfg, score_list,
                                 decode_config(cfg), keys)
        stats["after_warmup"] = len(keys)
    cache = PublicCache(build.t1, build.root, build.class_id, keys)
    stats["public_states"] = cache.num_public
    stats["public_expanded"] = cache.num_expanded
    stats["bytes_public"] = cache.bytes_estimate()
    return cache, stats


def levenshtein(ref: list[str], hyp: list[str]) -> int:
    if not ref:
        return len(hyp)
    prev = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, start=1):
        cur = [i]
        for j, h in enumerate(hyp, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                           prev[j - 1] + (r != h)))
        prev = cur
    return prev[-1]


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def sessions(utterances: list[dict], length: int | None) -> list[list[dict]]:
    """The utterances cut into sessions: users sorted, each user's
    utterances in input order, cut into runs of `length` turns; `length`
    None keeps all of a user's turns in one session."""
    by_user: dict[str, list[dict]] = {}
    for utt in utterances:
        by_user.setdefault(utt["user"], []).append(utt)
    return [turns[i:i + (length or len(turns))]
            for turns in map(by_user.get, sorted(by_user))
            for i in range(0, len(turns), length or len(turns))]


def run_session(cache: PublicCache, build: Build, cfg: dict,
                utts: list[dict], dec_cfg: DecodeConfig) -> dict:
    """Decode `utts`, one user's, in one session: its user, its private
    bytes at the end and its turns.  A turn's counters are what the session's Metrics
    gained over its decode, and its rtf is the decode's wall time over
    the audio's duration, so a turn that fails reports its work too."""
    user = utts[0]["user"]
    session = Session(cache, binding_for(build, user))
    turns = []
    for turn_index, utt in enumerate(utts, start=1):
        scores = scores_for(build, cfg, utt)
        before = session.metrics.snapshot()
        t0 = time.perf_counter()
        hyp = decode(scores, session, dec_cfg)
        wall = time.perf_counter() - t0
        m = session.metrics.delta(before)
        failed = hyp is None
        words = [] if failed else hyp.words
        turns.append({
            "id": utt["id"], "turn": turn_index, "failed": failed,
            "otf": m.otf_expansion, "public": m.public_hit,
            "private": m.private_hit, "frames": scores.num_frames,
            "cost": None if failed else hyp.cost,
            "rtf": wall / (scores.num_frames * scores.frame_seconds),
            "errors": levenshtein(utt["words"], words),
            "ref_len": len(utt["words"]), "hyp_words": words,
        })
    final = end_session(session)
    return {"user": user, "bytes_private": final.bytes_private,
            "turns": turns}


def run_bench(cfg: dict, method: str, session_length: int, build: Build,
              cache: PublicCache | None = None) -> dict:
    require_int("session_length", session_length, 1)
    if cache is None:
        cache, pre_stats = precompose_cache(build, cfg, method)
    else:
        pre_stats = {"method": method, "public_states": cache.num_public,
                     "public_expanded": cache.num_expanded,
                     "bytes_public": cache.bytes_estimate()}
    dec_cfg = decode_config(cfg)

    results = [run_session(cache, build, cfg, utts, dec_cfg)
               for utts in sessions(build.utterances, session_length)]

    all_turns = [t for r in results for t in r["turns"]]
    per_turn: dict[str, dict] = {}
    for t in all_turns:
        slot = per_turn.setdefault(str(t["turn"]),
                                   {"count": 0, "otf": 0, "public": 0,
                                    "private": 0})
        slot["count"] += 1
        slot["otf"] += t["otf"]
        slot["public"] += t["public"]
        slot["private"] += t["private"]
    for slot in per_turn.values():
        n = slot["count"]
        slot["mean_otf"] = slot["otf"] / n
        slot["mean_public"] = slot["public"] / n
        slot["mean_private"] = slot["private"] / n

    total_errors = sum(t["errors"] for t in all_turns)
    total_ref = sum(t["ref_len"] for t in all_turns)
    rtfs = [t["rtf"] for t in all_turns]
    bytes_private_total = sum(r["bytes_private"] for r in results)
    report = {
        "method": method,
        "session_length": session_length,
        "cache": pre_stats,
        "totals": {
            "utterances": len(all_turns),
            "sessions": len(results),
            "failed": sum(1 for t in all_turns if t["failed"]),
            "frames": sum(t["frames"] for t in all_turns),
            "otf_expansions": sum(t["otf"] for t in all_turns),
            "public_hits": sum(t["public"] for t in all_turns),
            "private_hits": sum(t["private"] for t in all_turns),
            "errors": total_errors,
            "ref_words": total_ref,
            "wer": total_errors / total_ref if total_ref else 0.0,
        },
        "per_turn": {k: per_turn[k] for k in sorted(per_turn)},
        "rtf": {"p50": _percentile(rtfs, 50), "p95": _percentile(rtfs, 95)},
        "bytes_public": cache.bytes_estimate(),
        "bytes_private_total": bytes_private_total,
        "marginal_bytes_per_session":
            bytes_private_total / len(results) if results else 0.0,
        "hypotheses": {t["id"]: t["hyp_words"] for t in all_turns},
        "sessions": results,
    }
    return report


def score_report(report: dict, build: Build, name: str = "report") -> dict:
    """Recompute WER for a report's hypotheses against the references.
    The report must be a dict whose `hypotheses` maps utterance ids to
    word lists; `name` names it in the error otherwise."""
    if not (isinstance(report, dict)
            and is_string_lists(report.get("hypotheses"))):
        raise BuildError(f"{name} must be a JSON object whose 'hypotheses' "
                         f"maps utterance ids to word lists")
    refs = {utt["id"]: utt["words"] for utt in build.utterances}
    errors = 0
    total = 0
    missing = []
    for utt_id, hyp in report["hypotheses"].items():
        if utt_id not in refs:
            missing.append(utt_id)
            continue
        errors += levenshtein(refs[utt_id], hyp)
        total += len(refs[utt_id])
    return {"errors": errors, "ref_words": total,
            "wer": errors / total if total else 0.0,
            "unknown_utterances": missing}


def graph_stats(build: Build) -> dict:
    root_class_arcs = sum(
        1 for state in build.root.states()
        for arc in build.root.arcs_of(state) if arc.olabel == build.class_id)
    return {
        "phones": len(build.phone_syms) - 1,
        "words": len(build.word_syms) - 1,
        "t1": {"states": build.t1.num_states, "arcs": build.t1.num_arcs},
        "root": {"states": build.root.num_states,
                 "arcs": build.root.num_arcs,
                 "class_arcs": root_class_arcs},
        "users": {user: {"contacts": len(names),
                         "fst_states": build.bindings[user].fst.num_states,
                         "fst_arcs": build.bindings[user].fst.num_arcs}
                  for user, names in sorted(build.users.items())},
        "utterances": len(build.utterances),
    }
