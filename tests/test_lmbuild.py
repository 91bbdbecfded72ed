import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (acceptor_language, compose_static, minimize_acyclic,
                     prefix_tree, remove_disambig, shortest_path,
                     staged_contact_fst)
from strategies import dyadic_weights
from lazyfst.errors import BuildError, ConfigurationError, ParseError
from lazyfst.fst import EPS, FstBuilder, write_text_fst
from lazyfst.lmbuild import (ContactEntry, Lexicon, build_contact_fst,
                             build_lexicon_fst, build_symbol_tables,
                             contact_strings, parse_corpus,
                             parse_contacts_jsonl, parse_lexicon,
                             train_bigram_root)
from lazyfst.replace import insert_epsilon_before_class


@pytest.fixture
def tiny():
    lexicon = parse_lexicon("ab\tA B\nto\tT O\nto\tT A\ncall\tK O L\n")
    phone_syms, word_syms = build_symbol_tables(lexicon, "@contact")
    return lexicon, phone_syms, word_syms


class TestParsing:
    def test_lexicon_roundtrip(self):
        lex = parse_lexicon("a\tX\nb\tY Z\na\tX X\n")
        assert lex.words == {"a": [["X"], ["X", "X"]], "b": [["Y", "Z"]]}
        assert lex.phones == ["SIL", "X", "Y", "Z"]

    def test_lexicon_line_without_tab(self):
        with pytest.raises(ParseError) as err:
            parse_lexicon("a X\n", path="lex.txt")
        assert "lex.txt:1" in str(err.value)

    def test_lexicon_empty_fields(self):
        with pytest.raises(ParseError):
            parse_lexicon("a\t\n")

    @pytest.mark.parametrize("line", ["zz\t<eps>", "<eps>\tX", "zz\tX <eps>"])
    def test_lexicon_reserves_eps(self, line):
        # SymbolTable folds "<eps>" into label 0
        with pytest.raises(ParseError) as err:
            parse_lexicon(f"a\tX\n{line}\n", path="lex.txt")
        assert "lex.txt:2" in str(err.value)
        assert "'<eps>'" in str(err.value)

    def test_empty_lexicon(self):
        with pytest.raises(BuildError):
            parse_lexicon("\n\n")

    def test_word_phone_collision(self):
        with pytest.raises(BuildError):
            Lexicon({"X": [["X"]]})

    def test_corpus(self):
        assert parse_corpus("a b\n\nc\n") == [["a", "b"], ["c"]]

    def test_contacts_jsonl(self):
        text = ('{"name": "ana", "pronunciations": [["AA", "N", "AA"]]}\n'
                '{"name": "bo", "pronunciations": [["B", "OW"], ["B", "AO"]]}\n')
        entries = parse_contacts_jsonl(text, {"AA", "AO", "B", "N", "OW"})
        assert [e.name for e in entries] == ["ana", "bo"]
        assert entries[1].prons == [["B", "OW"], ["B", "AO"]]

    def test_contacts_bad_json(self):
        with pytest.raises(ParseError) as err:
            parse_contacts_jsonl("{oops\n", {"AA"}, path="c.jsonl")
        assert "c.jsonl:1" in str(err.value)

    def test_contacts_missing_fields(self):
        with pytest.raises(ParseError):
            parse_contacts_jsonl('{"name": "x", "pronunciations": [[]]}\n',
                                 {"AA"})

    @pytest.mark.parametrize("symbol", ["call", "@contact", "<eps>", "aa"])
    def test_contact_symbols_are_inventory_phones(self, symbol):
        # a word, the class label, epsilon and a phone in the wrong case
        text = ('{"name": "ana", "pronunciations": [["AA", "N"]]}\n'
                '{"name": "kel", "pronunciations": [["AA"], ["AA", "%s"]]}\n'
                % symbol)
        with pytest.raises(ParseError) as err:
            parse_contacts_jsonl(text, {"AA", "N"}, path="c.jsonl")
        assert "c.jsonl:2" in str(err.value)
        assert "'kel'" in str(err.value) and repr(symbol) in str(err.value)


class TestSymbolTables:
    def test_word_table_order(self, tiny):
        lexicon, phone_syms, word_syms = tiny
        assert phone_syms.sym_of(0) == "<eps>" or phone_syms.sym_of(0)
        # words first (insertion order), then monophone words, then the
        # class label
        names = [word_syms.sym_of(i) for i in range(1, len(word_syms))]
        n_words = len(lexicon.words)
        assert names[:n_words] == ["ab", "to", "call"]
        assert names[n_words:n_words + len(lexicon.phones)] == lexicon.phones
        assert names[n_words + len(lexicon.phones):] == ["@contact"]

    def test_class_label_collision(self, tiny):
        lexicon = tiny[0]
        with pytest.raises(BuildError):
            build_symbol_tables(lexicon, "ab")
        with pytest.raises(BuildError):
            build_symbol_tables(lexicon, "SIL")


class TestLexiconFst:
    def linear(self, phone_syms, phones):
        b = FstBuilder(phone_syms, phone_syms)
        src = b.add_state()
        for p in phones:
            dst = b.add_state()
            pid = phone_syms.id_of(p)
            b.add_arc(src, pid, pid, 0.0, dst)
            src = dst
        b.set_final(src, 0.0)
        return b.freeze(start=0)

    def test_loop_state_shape(self, tiny):
        lexicon, phone_syms, word_syms = tiny
        fst = build_lexicon_fst(lexicon, phone_syms, word_syms)
        loop = fst.start
        assert fst.final_weight(loop) == 0.0
        # one chain per pronunciation, per monophone, plus silence
        n_prons = sum(len(p) for p in lexicon.words.values())
        assert len(fst.arcs_of(loop)) == n_prons + len(lexicon.phones) + 1

    def test_multi_pron_words_pay_log_k_on_entry(self, tiny):
        lexicon, phone_syms, word_syms = tiny
        fst = build_lexicon_fst(lexicon, phone_syms, word_syms)
        to_id = word_syms.id_of("to")
        entries = [a for a in fst.arcs_of(fst.start) if a.olabel == to_id]
        assert len(entries) == 2
        assert all(a.weight == math.log(2.0) for a in entries)
        ab_id = word_syms.id_of("ab")
        entries = [a for a in fst.arcs_of(fst.start) if a.olabel == ab_id]
        assert len(entries) == 1 and entries[0].weight == 0.0

    def test_each_phone_state_has_a_self_loop(self, tiny):
        lexicon, phone_syms, word_syms = tiny
        fst = build_lexicon_fst(lexicon, phone_syms, word_syms)
        loop = fst.start
        for state in fst.states():
            if state == loop:
                continue
            self_loops = [a for a in fst.arcs_of(state) if a.nextstate == state]
            assert len(self_loops) == 1
            assert self_loops[0].olabel == EPS
            assert self_loops[0].weight == 0.0

    def test_silence_chain_emits_nothing(self, tiny):
        lexicon, phone_syms, word_syms = tiny
        penalty = 0.75
        fst = build_lexicon_fst(lexicon, phone_syms, word_syms,
                                sil_penalty=penalty)
        sil = phone_syms.id_of("SIL")
        arcs = [a for a in fst.arcs_of(fst.start)
                if a.ilabel == sil and a.olabel == EPS]
        assert len(arcs) == 1 and arcs[0].weight == penalty

    def test_missing_phone_is_a_build_error(self, tiny):
        lexicon, phone_syms, word_syms = tiny
        bad = Lexicon({"z": [["Q"]]}, phones=lexicon.phones)
        with pytest.raises(BuildError):
            build_lexicon_fst(bad, phone_syms, word_syms)

    def best_parse(self, tiny, phones, words, sil_penalty=math.log(2.0)):
        """Weight of aligning `phones` to exactly the word sequence `words`,
        or None when the lexicon cannot."""
        lexicon, phone_syms, word_syms = tiny
        fst = build_lexicon_fst(lexicon, phone_syms, word_syms,
                                sil_penalty=sil_penalty)
        frames = self.linear(phone_syms, phones)
        b = FstBuilder(word_syms, word_syms)
        src = b.add_state()
        for w in words:
            dst = b.add_state()
            wid = word_syms.id_of(w)
            b.add_arc(src, wid, wid, 0.0, dst)
            src = dst
        b.set_final(src, 0.0)
        graph = compose_static(compose_static(frames, fst), b.freeze(start=0))
        best = shortest_path(graph)
        return None if best is None else best.weight

    def test_repeated_frames_collapse_to_one_word(self, tiny):
        assert self.best_parse(tiny, ["A", "A", "A", "B", "B"], ["ab"]) == 0.0

    def test_word_needs_all_its_phones(self, tiny):
        assert self.best_parse(tiny, ["A", "A", "A"], ["ab"]) is None

    def test_two_pronunciations_reach_the_same_word(self, tiny):
        for phones in (["T", "O"], ["T", "A"]):
            assert self.best_parse(tiny, phones, ["to"]) == math.log(2.0)

    def test_silence_between_words(self, tiny):
        got = self.best_parse(tiny, ["A", "B", "SIL", "A", "B"],
                              ["ab", "ab"], sil_penalty=0.5)
        assert got == 0.5


class TestBigramRoot:
    def test_hand_computed_weights(self, tiny):
        lexicon, phone_syms, word_syms = tiny
        corpus = [["ab", "to"], ["ab", "to"], ["ab", "call"]]
        penalty = math.log(10.0)
        root = train_bigram_root(corpus, lexicon, "@contact", word_syms,
                                 backoff_penalty=penalty)
        # states: 0 start, 1 unigram, then one history per vocab word in
        # word-id order (ab, to, call)
        ab, to, call = (word_syms.id_of(w) for w in ("ab", "to", "call"))
        h = {"ab": 2, "to": 3, "call": 4}
        start_arcs = {a.ilabel: a for a in root.arcs_of(0)}
        assert start_arcs[ab].weight == -math.log(3 / 3)
        assert start_arcs[ab].nextstate == h["ab"]
        assert start_arcs[EPS].weight == penalty
        assert start_arcs[EPS].nextstate == 1
        assert set(start_arcs) == {ab, EPS}

        uni_arcs = {a.ilabel: a for a in root.arcs_of(1)}
        total = 6 + 3  # tokens plus one end marker per sentence
        assert uni_arcs[ab].weight == -math.log(3 / total)
        assert uni_arcs[to].weight == -math.log(2 / total)
        assert uni_arcs[call].weight == -math.log(1 / total)
        assert root.final_weight(1) == -math.log(3 / total)

        ab_arcs = {a.ilabel: a for a in root.arcs_of(h["ab"])}
        assert ab_arcs[to].weight == -math.log(2 / 3)
        assert ab_arcs[call].weight == -math.log(1 / 3)
        assert ab_arcs[EPS].weight == penalty
        assert root.final_weight(h["ab"]) == math.inf  # never sentence-final
        assert root.final_weight(h["to"]) == -math.log(2 / 2)
        assert root.final_weight(h["call"]) == 0.0

    def test_unknown_token_rejected(self, tiny):
        lexicon, _, word_syms = tiny
        with pytest.raises(BuildError):
            train_bigram_root([["ab", "nope"]], lexicon, "@contact", word_syms)

    def test_empty_corpus_rejected(self, tiny):
        lexicon, _, word_syms = tiny
        with pytest.raises(BuildError):
            train_bigram_root([], lexicon, "@contact", word_syms)
        with pytest.raises(BuildError):
            train_bigram_root([[]], lexicon, "@contact", word_syms)

    def test_class_tokens_train_like_words(self, tiny):
        lexicon, _, word_syms = tiny
        corpus = [["call", "@contact"]]
        cls = word_syms.id_of("@contact")
        raw = train_bigram_root(corpus, lexicon, "@contact", word_syms)
        root = insert_epsilon_before_class(raw, cls)
        assert root.num_states > raw.num_states
        # transformed: class arcs leave only single-arc bridge states
        for state in root.states():
            arcs = root.arcs_of(state)
            if any(a.olabel == cls for a in arcs):
                assert len(arcs) == 1
                assert arcs[0].weight == 0.0

    def test_class_transform_preserves_best_path(self, tiny):
        lexicon, _, word_syms = tiny
        corpus = [["call", "@contact"], ["ab", "to"]]
        raw = train_bigram_root(corpus, lexicon, "@contact", word_syms)
        cooked = insert_epsilon_before_class(raw,
                                             word_syms.id_of("@contact"))
        assert cooked.num_states > raw.num_states
        a, b = shortest_path(raw), shortest_path(cooked)
        assert a.weight == b.weight
        assert [l for l in a.olabels] == [l for l in b.olabels]


def string_dicts():
    """Weighted strings over labels 1..3, the empty string included."""
    return st.dictionaries(
        st.lists(st.integers(min_value=1, max_value=3), max_size=4).map(tuple),
        dyadic_weights(), max_size=8)


def assert_input_deterministic(fst):
    for state in fst.states():
        labels = [a.ilabel for a in fst.arcs_of(state)]
        assert EPS not in labels
        assert len(labels) == len(set(labels))


BAD_PENALTIES = [-0.5, math.inf, math.nan, "x", True]


class TestPenalties:
    """Each builder checks its own penalty: a finite number >= 0."""

    @pytest.mark.parametrize("penalty", BAD_PENALTIES)
    def test_bad_sil_penalty(self, tiny, penalty):
        lexicon, phone_syms, word_syms = tiny
        with pytest.raises(ConfigurationError, match="sil_penalty"):
            build_lexicon_fst(lexicon, phone_syms, word_syms,
                              sil_penalty=penalty)

    @pytest.mark.parametrize("penalty", BAD_PENALTIES)
    def test_bad_backoff_penalty(self, tiny, penalty):
        lexicon, _, word_syms = tiny
        with pytest.raises(ConfigurationError, match="backoff_penalty"):
            train_bigram_root([["ab", "to"]], lexicon, "@contact", word_syms,
                              backoff_penalty=penalty)


class TestDeterminizeMinimize:
    """The staged oracle: prefix_tree is the determinized acceptor of its
    strings, and minimize_acyclic keeps the language of any acyclic
    acceptor."""

    @given(string_dicts())
    @settings(max_examples=80, deadline=None)
    def test_determinize_preserves_language_exactly(self, strings):
        assert acceptor_language(prefix_tree(strings)) == strings

    @given(string_dicts())
    @settings(max_examples=80, deadline=None)
    def test_determinize_output_is_input_deterministic(self, strings):
        assert_input_deterministic(prefix_tree(strings))

    @given(string_dicts())
    @settings(max_examples=80, deadline=None)
    def test_minimize_preserves_language_and_shrinks(self, strings):
        tree = prefix_tree(strings)
        mini = minimize_acyclic(tree)
        assert acceptor_language(mini) == strings
        assert mini.num_states <= tree.num_states

    @given(string_dicts())
    @settings(max_examples=40, deadline=None)
    def test_minimize_is_idempotent(self, strings):
        once = minimize_acyclic(prefix_tree(strings))
        twice = minimize_acyclic(once)
        assert write_text_fst(twice) == write_text_fst(once)

    def test_minimize_rejects_transducers_and_cycles(self):
        b = FstBuilder()
        b.ensure_state(1)
        b.add_arc(0, 1, 2, 0.0, 1)
        b.set_final(1)
        with pytest.raises(BuildError):
            minimize_acyclic(b.freeze())
        b = FstBuilder()
        b.ensure_state(1)
        b.add_arc(0, 1, 1, 0.0, 1)
        b.add_arc(1, 1, 1, 0.0, 0)
        b.set_final(1)
        with pytest.raises(BuildError):
            minimize_acyclic(b.freeze())


CONTACT_PHONES = ["AA", "B", "K", "L", "N", "O", "SIL"]


def contact_syms():
    extra = Lexicon({"call": [["K", "O", "L"]]}, phones=CONTACT_PHONES)
    return build_symbol_tables(extra, "@contact")[1]


def expected_language(contacts, word_syms):
    want = {}
    sil = word_syms.id_of("SIL")
    for entry in contacts:
        w = math.log(len(entry.prons))
        for pron in entry.prons:
            key = tuple(word_syms.id_of(p) for p in pron) + (sil,)
            if w < want.get(key, math.inf):
                want[key] = w
    return want


class TestContactPipeline:
    def test_union_weights_and_disambig(self):
        word_syms = contact_syms()
        contacts = [ContactEntry("ana", [["AA", "N"]]),
                    ContactEntry("anna", [["AA", "N"]]),
                    ContactEntry("bo", [["B", "O"], ["B", "AA"]])]
        strings, disambig = contact_strings(contacts, CONTACT_PHONES,
                                            word_syms)
        # "#1" and "#2": the two ids just above the word table, one per
        # occurrence of the duplicated pronunciation
        aa, n, b, o, sil = (word_syms.id_of(p)
                            for p in ("AA", "N", "B", "O", "SIL"))
        first, second = len(word_syms), len(word_syms) + 1
        assert disambig == {first, second}
        assert strings == {(aa, n, first, sil): 0.0,
                           (aa, n, second, sil): 0.0,
                           (b, o, sil): math.log(2.0),
                           (b, aa, sil): math.log(2.0)}
        # their prefix tree is deterministic; the compiler erases them
        assert_input_deterministic(prefix_tree(strings))
        fst = build_contact_fst(contacts, CONTACT_PHONES, word_syms)
        assert not {label for q in fst.states() for a in fst.arcs_of(q)
                    for label in (a.ilabel, a.olabel)} & disambig

    def test_contact_compilation_leaves_word_table_unchanged(self):
        word_syms = contact_syms()
        size, before = len(word_syms), word_syms.symbols()
        contacts = [ContactEntry("ana", [["AA", "N"]]),
                    ContactEntry("anna", [["AA", "N"]]),
                    ContactEntry("nana", [["AA", "N"]]),
                    ContactEntry("bo", [["B", "O"], ["B", "AA"]])]
        build_contact_fst(contacts, CONTACT_PHONES, word_syms)
        build_contact_fst(contacts[1:], CONTACT_PHONES, word_syms)
        assert len(word_syms) == size
        assert [word_syms.id_of(sym) for sym in before] == list(range(size))

    def test_unknown_phone_and_empty_list(self):
        word_syms = contact_syms()
        with pytest.raises(BuildError):
            contact_strings([ContactEntry("x", [["ZZ"]])], CONTACT_PHONES,
                            word_syms)
        with pytest.raises(BuildError):
            contact_strings([], CONTACT_PHONES, word_syms)

    @pytest.mark.parametrize("symbol", ["call", "@contact", "<eps>"])
    def test_only_inventory_phones_spell_a_contact(self, symbol, desk_build):
        # a lexicon word, the class label and epsilon all have word ids,
        # but a contact is spelled in monophone words only
        with pytest.raises(BuildError, match="not an inventory phone"):
            build_contact_fst([ContactEntry("x", [[symbol]])],
                              desk_build.lexicon.phones, desk_build.word_syms)

    def test_remove_disambig_collapses_exact_duplicates(self):
        b = FstBuilder()
        b.ensure_state(1)
        b.add_arc(0, 5, 5, 0.25, 1)
        b.add_arc(0, 6, 6, 0.25, 1)
        b.set_final(1)
        out = remove_disambig(b.freeze(), frozenset({5, 6}))
        assert len(out.arcs_of(0)) == 1
        assert out.arcs_of(0)[0].ilabel == EPS

    def test_homophones_leave_one_epsilon_arc(self):
        word_syms = contact_syms()
        contacts = [ContactEntry("ana", [["AA", "N"]]),
                    ContactEntry("anna", [["AA", "N"]]),
                    ContactEntry("nana", [["AA", "N"]])]
        fst = build_contact_fst(contacts, CONTACT_PHONES, word_syms)
        (aa,) = fst.arcs_of(fst.start)
        (n,) = fst.arcs_of(aa.nextstate)
        assert [a.ilabel for a in fst.arcs_of(n.nextstate)] == [EPS]

    def test_pipeline_language_matches_direct_expansion(self):
        word_syms = contact_syms()
        contacts = [ContactEntry("ana", [["AA", "N", "AA"]]),
                    ContactEntry("anna", [["AA", "N", "AA"]]),
                    ContactEntry("bo", [["B", "O"], ["B", "AA"]]),
                    ContactEntry("nab", [["N", "AA", "B"]])]
        fst = build_contact_fst(contacts, CONTACT_PHONES, word_syms)
        assert acceptor_language(fst) == expected_language(contacts,
                                                           word_syms)

    def test_every_stage_can_be_written(self):
        # The auxiliary labels lie outside the word table, so the oracle's
        # stages that still carry them have no symbol table and write
        # numbers; only remove_disambig's result names its labels.
        word_syms = contact_syms()
        contacts = [ContactEntry("ana", [["AA", "N"]]),
                    ContactEntry("anna", [["AA", "N"]])]
        strings, disambig = contact_strings(contacts, CONTACT_PHONES,
                                            word_syms)
        tree = prefix_tree(strings)
        mini = minimize_acyclic(tree)
        for stage in (tree, mini):
            assert stage.isyms is None and stage.osyms is None
            write_text_fst(stage)
        final = remove_disambig(mini, disambig, word_syms)
        assert final.isyms is word_syms and final.osyms is word_syms
        assert "SIL" in write_text_fst(final)
        assert write_text_fst(build_contact_fst(
            contacts, CONTACT_PHONES, word_syms)) == write_text_fst(final)

    def test_pipeline_collapses_shared_suffixes(self):
        word_syms = contact_syms()
        contacts = [ContactEntry("an", [["AA", "N"]]),
                    ContactEntry("ban", [["B", "AA", "N"]]),
                    ContactEntry("kan", [["K", "AA", "N"]])]
        fst = build_contact_fst(contacts, CONTACT_PHONES, word_syms)
        tree = prefix_tree(
            contact_strings(contacts, CONTACT_PHONES, word_syms)[0])
        assert fst.num_states < tree.num_states
        assert acceptor_language(fst) == expected_language(contacts,
                                                           word_syms)


PHONES = ["AA", "B", "N", "SIL"]


@st.composite
def contact_lists(draw, distinct: bool = False):
    """Contacts c0, c1, ... with one to three pronunciations each, over a
    four-phone alphabet, so homophones are common; with `distinct`, no
    pronunciation occurs twice in the list."""
    pron = st.lists(st.sampled_from(PHONES), min_size=1, max_size=4)
    prons = draw(st.lists(pron, min_size=1, max_size=12,
                          unique_by=tuple if distinct else None))
    contacts = []
    while prons:
        size = draw(st.integers(1, 3))
        contacts.append(ContactEntry(f"c{len(contacts)}", prons[:size]))
        prons = prons[size:]
    return contacts


class TestContactCompiler:
    """build_contact_fst against the staged oracle, and its language,
    determinism and minimality on its own."""

    word_syms = contact_syms()

    @given(contact_lists())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_staged_oracle(self, contacts):
        args = (contacts, CONTACT_PHONES, self.word_syms)
        assert write_text_fst(build_contact_fst(*args)) \
            == write_text_fst(staged_contact_fst(*args))

    def test_matches_the_staged_oracle_on_desk(self, desk_build):
        by_name = {c.name: c for c in desk_build.contacts}
        for user, names in sorted(desk_build.users.items()):
            contacts = [by_name[n] for n in names]
            fst = desk_build.bindings[user].fst
            assert write_text_fst(fst) == write_text_fst(
                staged_contact_fst(contacts, desk_build.lexicon.phones,
                                   desk_build.word_syms)), user

    @given(contact_lists())
    @settings(max_examples=80, deadline=None)
    def test_language_is_the_union(self, contacts):
        fst = build_contact_fst(contacts, CONTACT_PHONES, self.word_syms)
        assert acceptor_language(fst) == expected_language(contacts,
                                                           self.word_syms)

    @given(contact_lists(distinct=True))
    @settings(max_examples=80, deadline=None)
    def test_without_homophones_deterministic_and_minimal(self, contacts):
        fst = build_contact_fst(contacts, CONTACT_PHONES, self.word_syms)
        assert_input_deterministic(fst)
        assert write_text_fst(minimize_acyclic(fst)) == write_text_fst(fst)
