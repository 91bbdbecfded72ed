"""Desk-scale graph builders: lexicon transducer, backoff bigram root,
and the monophone contact acceptor.

The contact compiler mirrors how out-of-vocabulary names reach the
decoder: every inventory phone is promoted to a "monophone word", a
contact's pronunciation is spelled as a sequence of those words closed by
one SIL word, and homophones get auxiliary "#1", "#2", ... labels (ids
above the shared word table, never registered in it) so every string is
distinct.  build_contact_fst then makes one pass: the sorted strings go
into a trie, the trie's nodes that accept the same suffixes merge
bottom-up, and one builder writes the merged nodes with the auxiliary
labels erased."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Collection

from .errors import BuildError, ParseError, require_real
from .fst import EPS, EPS_SYMBOL, Fst, FstBuilder, SymbolTable

SIL = "SIL"


@dataclass
class Lexicon:
    """Words with pronunciations plus the derived phone inventory."""
    words: dict[str, list[list[str]]]
    phones: list[str] = field(default_factory=list)

    def __post_init__(self):
        if not self.phones:
            seen = {p for prons in self.words.values() for pron in prons for p in pron}
            seen.add(SIL)
            self.phones = sorted(seen)
        for word in self.words:
            if word in self.phones:
                raise BuildError(
                    f"word {word!r} collides with a phone name; monophone "
                    "words are reserved for the phone inventory")


def parse_lexicon(text: str, path: str = "<lexicon>") -> Lexicon:
    words: dict[str, list[list[str]]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        if "\t" not in line:
            raise ParseError(path, lineno, "expected 'word<TAB>phone phone ...'")
        word, pron_str = line.split("\t", 1)
        pron = pron_str.split()
        if not word or not pron:
            raise ParseError(path, lineno, "empty word or pronunciation")
        if EPS_SYMBOL in (word, *pron):
            raise ParseError(path, lineno, f"{EPS_SYMBOL!r} is reserved for "
                             "the epsilon label")
        words.setdefault(word, []).append(pron)
    if not words:
        raise BuildError(f"{path}: empty lexicon")
    return Lexicon(words)


def parse_corpus(text: str) -> list[list[str]]:
    return [line.split() for line in text.splitlines() if line.strip()]


@dataclass
class ContactEntry:
    name: str
    prons: list[list[str]]


def parse_contacts_jsonl(text: str, phones: Collection[str],
                         path: str = "<contacts>") -> list[ContactEntry]:
    """One JSON object per non-blank line: a non-empty string `name`
    that no other row has, and `pronunciations`, a non-empty list of
    non-empty lists of phone strings, each one of `phones`, the
    lexicon's inventory."""
    entries: list[ContactEntry] = []
    names: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as err:
            raise ParseError(path, lineno, f"bad JSON: {err}") from None
        obj = obj if isinstance(obj, dict) else {}
        name, prons = obj.get("name"), obj.get("pronunciations")
        if not (name and isinstance(name, str) and prons
                and isinstance(prons, list) and all(
                    p and isinstance(p, list)
                    and all(isinstance(ph, str) for ph in p) for p in prons)):
            raise ParseError(path, lineno, "need a JSON object with a string "
                             "name and a non-empty list of non-empty phone "
                             "lists")
        if name in names:
            raise ParseError(path, lineno, f"contact {name!r} is repeated")
        unknown = next((ph for p in prons for ph in p if ph not in phones),
                       None)
        if unknown is not None:
            raise ParseError(path, lineno, f"contact {name!r} uses "
                             f"{unknown!r}, which is not an inventory phone")
        names.add(name)
        entries.append(ContactEntry(name, prons))
    return entries


def build_symbol_tables(lexicon: Lexicon,
                        class_name: str) -> tuple[SymbolTable, SymbolTable]:
    """Phone table from the inventory; word table holding real words,
    monophone words (named after their phones) and, last, the class
    label."""
    phone_syms = SymbolTable(lexicon.phones)
    word_syms = SymbolTable()
    for word in lexicon.words:
        word_syms.add(word)
    for phone in lexicon.phones:
        word_syms.add(phone)
    if class_name in word_syms:
        raise BuildError(f"class label {class_name!r} collides with a word")
    word_syms.add(class_name)
    return phone_syms, word_syms


def build_lexicon_fst(lexicon: Lexicon, phone_syms: SymbolTable,
                      word_syms: SymbolTable,
                      sil_penalty: float = math.log(2.0)) -> Fst:
    """Closure transducer from phone strings to word strings.

    One loop state; each word contributes a phone chain emitting the word
    on its first arc with weight -log(1/k) for k pronunciations.  Every
    inventory phone also maps to itself as a monophone word, and SIL can
    be consumed silently between words for `sil_penalty`, finite and >= 0.

    Each phone occurrence owns one state carrying a phone:eps self-loop,
    so a phone may span any number of consecutive acoustic frames; the
    chain rejoins the loop state through a free eps:eps arc.

    The result is composition's left operand, so its OLabelIndex is built
    here, with the graph, rather than on the first expansion.
    """
    require_real("sil_penalty", sil_penalty, 0)
    builder = FstBuilder(phone_syms, word_syms)
    loop = builder.add_state()
    builder.set_final(loop, 0.0)

    def phone_id(phone: str) -> int:
        pid = phone_syms.id_of(phone)
        if pid is None:
            raise BuildError(f"phone {phone!r} missing from inventory")
        return pid

    def chain(pron: list[str], olabel: int, weight: float) -> None:
        src = loop
        for i, phone in enumerate(pron):
            pid = phone_id(phone)
            dst = builder.add_state()
            if i == 0:
                builder.add_arc(src, pid, olabel, weight, dst)
            else:
                builder.add_arc(src, pid, EPS, 0.0, dst)
            builder.add_arc(dst, pid, EPS, 0.0, dst)
            src = dst
        builder.add_arc(src, EPS, EPS, 0.0, loop)

    for word, prons in lexicon.words.items():
        first_arc_weight = math.log(len(prons))
        for pron in prons:
            chain(pron, word_syms.id_of(word), first_arc_weight)
    for phone in lexicon.phones:
        chain([phone], word_syms.id_of(phone), 0.0)
    chain([SIL], EPS, sil_penalty)
    fst = builder.freeze(start=loop)
    fst.olabel_index()
    return fst


def train_bigram_root(corpus: list[list[str]], lexicon: Lexicon,
                      class_name: str, word_syms: SymbolTable,
                      backoff_penalty: float = math.log(10.0)) -> Fst:
    """Backoff bigram acceptor over the corpus.

    One history state per seen word plus a sentence-start history and a
    unigram backoff state.  Seen bigrams cost their negative log relative
    frequency; every history state has an epsilon backoff arc (cost
    `backoff_penalty`, finite and >= 0) to the unigram state; sentence
    ends become final weights.
    The class token trains like an ordinary word except that the unigram
    state carries no class arc: a non-terminal is only enterable from
    contexts that actually license it, never through backoff.  Class arcs
    leave their history states directly; harness.build_graphs passes the
    result through replace.insert_epsilon_before_class.
    """
    require_real("backoff_penalty", backoff_penalty, 0)
    if not corpus:
        raise BuildError("empty corpus")
    allowed = set(lexicon.words) | {class_name}
    unigram: dict[str, int] = {}
    bigram: dict[tuple[str, str], int] = {}
    end_count: dict[str, int] = {}
    start_bigram: dict[str, int] = {}
    num_sentences = 0
    for sentence in corpus:
        if not sentence:
            continue
        num_sentences += 1
        for tok in sentence:
            if tok not in allowed:
                raise BuildError(f"corpus token {tok!r} is neither a lexicon "
                                 "word nor a class label")
            unigram[tok] = unigram.get(tok, 0) + 1
        start_bigram[sentence[0]] = start_bigram.get(sentence[0], 0) + 1
        for prev, tok in zip(sentence, sentence[1:]):
            bigram[(prev, tok)] = bigram.get((prev, tok), 0) + 1
        last = sentence[-1]
        end_count[last] = end_count.get(last, 0) + 1
    if num_sentences == 0:
        raise BuildError("empty corpus")
    # one end marker per sentence
    total_tokens = sum(unigram.values()) + num_sentences

    vocab = [word_syms.sym_of(i) for i in range(1, len(word_syms))
             if word_syms.sym_of(i) in unigram]

    builder = FstBuilder(word_syms, word_syms)
    start = builder.add_state()
    uni_state = builder.add_state()
    hist = {w: builder.add_state() for w in vocab}

    for w in vocab:
        if w in start_bigram:
            builder.add_arc(start, word_syms.id_of(w), word_syms.id_of(w),
                            -math.log(start_bigram[w] / num_sentences),
                            hist[w])
    builder.add_arc(start, EPS, EPS, backoff_penalty, uni_state)

    for w in vocab:
        if w == class_name:
            continue
        builder.add_arc(uni_state, word_syms.id_of(w), word_syms.id_of(w),
                        -math.log(unigram[w] / total_tokens), hist[w])
    builder.set_final(uni_state, -math.log(num_sentences / total_tokens))

    for v in vocab:
        for w in vocab:
            c = bigram.get((v, w))
            if c:
                builder.add_arc(hist[v], word_syms.id_of(w), word_syms.id_of(w),
                                -math.log(c / unigram[v]), hist[w])
        builder.add_arc(hist[v], EPS, EPS, backoff_penalty, uni_state)
        if v in end_count:
            builder.set_final(hist[v], -math.log(end_count[v] / unigram[v]))

    return builder.freeze(start=start)


def contact_strings(contacts: list[ContactEntry], phones: Collection[str],
                    word_syms: SymbolTable
                    ) -> tuple[dict[tuple[int, ...], float], frozenset[int]]:
    """Every pronunciation of `contacts`, each symbol one of `phones`,
    the lexicon's inventory, as a string of monophone words
    closed by one SIL word, weighted log(k) for a contact with k
    pronunciations, with an auxiliary "#j" label inserted before SIL on
    the j-th occurrence of any duplicated pronunciation, so no two strings
    are equal.  "#j" is the label `len(word_syms) + j - 1`, above every id
    of the shared word table and not registered in it, so compiling a
    user's contacts changes nothing a sealed cache or an open session can
    see.  Returns the strings with their weights and the set of auxiliary
    label ids they use."""
    if not contacts:
        raise BuildError("empty contact list")
    sil_id = word_syms.id_of(SIL)
    if sil_id is None:
        raise BuildError("word table lacks the SIL monophone word")
    flat: list[tuple[tuple[int, ...], float]] = []
    group_count: dict[tuple[int, ...], int] = {}
    for entry in contacts:
        weight = math.log(len(entry.prons))
        for pron in entry.prons:
            ids = []
            for phone in pron:
                pid = word_syms.id_of(phone) if phone in phones else None
                if pid is None:
                    raise BuildError(f"contact {entry.name!r} uses {phone!r}, "
                                     "which is not an inventory phone")
                ids.append(pid)
            key = tuple(ids)
            group_count[key] = group_count.get(key, 0) + 1
            flat.append((key, weight))
    strings: dict[tuple[int, ...], float] = {}
    occurrence: dict[tuple[int, ...], int] = {}
    aux_ids: set[int] = set()
    for key, weight in flat:
        if group_count[key] > 1:
            occurrence[key] = occurrence.get(key, 0) + 1
            aux = len(word_syms) + occurrence[key] - 1
            aux_ids.add(aux)
            key += (aux,)
        strings[key + (sil_id,)] = weight
    return strings, frozenset(aux_ids)


def build_contact_fst(contacts: list[ContactEntry], phones: Collection[str],
                      word_syms: SymbolTable) -> Fst:
    """The minimal acceptor of contact_strings(contacts, phones, word_syms)
    with the auxiliary labels erased, compiled in one bottom-up pass
    (Revuz 1992, "Minimisation of acyclic deterministic automata in
    linear time").

    The sorted strings are laid into a trie whose nodes are numbered in
    creation order, which is preorder, and whose labels enter each node
    in ascending order.  Walking the nodes in descending id classifies
    each node after its children, by its final weight and its (label,
    child class) pairs.  The lowest id in a class represents it, and the
    representatives, in ascending id, are the states.  Two members of a
    class are never ancestor and descendant, so the lowest id is also
    the first member a DFS postorder meets: the states are numbered as
    minimizing the trie by postorder would number them."""
    strings, aux_ids = contact_strings(contacts, phones, word_syms)
    children: list[dict[int, int]] = [{}]   # node -> {label: child}
    finals: dict[int, float] = {}
    for string in sorted(strings):
        node = 0
        for label in string:
            child = children[node].get(label)
            if child is None:
                child = children[node][label] = len(children)
                children.append({})
            node = child
        finals[node] = strings[string]

    class_of = [0] * len(children)
    class_ids: dict[tuple, int] = {}
    for node in range(len(children) - 1, -1, -1):
        edges = children[node].items()
        key = (finals.get(node),
               tuple((label, class_of[child]) for label, child in edges))
        class_of[node] = class_ids.setdefault(key, len(class_ids))

    state_of: dict[int, int] = {}           # class -> state
    reps: list[int] = []                    # state -> its lowest node
    for node, cls in enumerate(class_of):
        if state_of.setdefault(cls, len(reps)) == len(reps):
            reps.append(node)
    builder = FstBuilder(word_syms, word_syms)
    builder.ensure_state(len(reps) - 1)
    for state, node in enumerate(reps):
        arcs = {(EPS if label in aux_ids else label, state_of[class_of[child]])
                for label, child in children[node].items()}
        for label, dst in arcs:
            builder.add_arc(state, label, label, 0.0, dst)
        if node in finals:
            builder.set_final(state, finals[node])
    return builder.freeze()
