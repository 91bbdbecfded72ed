import math

import pytest
from hypothesis import given, settings

from oracles import (best_accepting_weight, read_symbols, read_text_fst,
                     shortest_path)
from strategies import acyclic_fst
from lazyfst.fst import (EPS, Arc, Fst, FstBuilder, SymbolTable, write_symbols,
                         write_text_fst)


def linear(labels, weight_each=1.0, final=0.5):
    b = FstBuilder()
    s = b.add_state()
    for label in labels:
        n = b.add_state()
        b.add_arc(s, label, label, weight_each, n)
        s = n
    b.set_final(s, final)
    return b.freeze(start=0)


class TestSymbolTable:
    def test_eps_is_zero(self):
        t = SymbolTable(["a", "b"])
        assert t.id_of("<eps>") == 0
        assert t.id_of("a") == 1 and t.sym_of(2) == "b"
        assert "a" in t and "zz" not in t
        assert len(t) == 3

    def test_add_idempotent(self):
        t = SymbolTable()
        assert t.add("x") == t.add("x") == 1

    def test_roundtrip(self):
        t = SymbolTable(["a", "b c"])  # spaces are fine, tabs delimit
        back = read_symbols(write_symbols(t))
        assert back.symbols() == t.symbols()


class TestFstCore:
    def test_arcs_sorted_after_freeze(self):
        b = FstBuilder()
        b.add_state()
        b.add_state()
        b.add_arc(0, 3, 1, 0.5, 1)
        b.add_arc(0, 1, 2, 0.25, 1)
        b.add_arc(0, 1, 1, 0.75, 0)
        b.set_final(1)
        f = b.freeze()
        assert [a.ilabel for a in f.arcs_of(0)] == [1, 1, 3]
        assert f.arcs_of(0)[0].olabel == 1

    def test_rejects_bad_weight(self):
        b = FstBuilder()
        b.add_state()
        b.add_arc(0, 1, 1, -0.5, 0)
        with pytest.raises(ValueError):
            b.freeze()

    def test_rejects_dangling_arc(self):
        with pytest.raises(ValueError):
            Fst(0, 1, [[Arc(1, 1, 0.0, 3)]], {})

    def test_final_weight_default(self):
        f = linear([1])
        assert f.final_weight(0) == math.inf
        assert f.final_weight(1) == 0.5

    def test_arcs_by_olabel_order(self):
        b = FstBuilder()
        b.ensure_state(1)
        b.add_arc(0, 1, 3, 0.0, 1)
        b.add_arc(0, 2, 1, 0.0, 1)
        b.add_arc(0, 3, 1, 0.0, 1)
        b.add_arc(0, 4, EPS, 0.0, 1)
        b.set_final(1)
        f = b.freeze()
        index = f.olabel_index()
        assert index.eps[0] == (Arc(4, EPS, 0.0, 1),)
        assert index.labelled[0] == {1: (Arc(2, 1, 0.0, 1), Arc(3, 1, 0.0, 1)),
                                     3: (Arc(1, 3, 0.0, 1),)}

    def test_olabel_index_built_once(self):
        f = linear([1, 2])
        assert f.olabel_index() is f.olabel_index()

    def test_olabel_index_allocates_nothing_without_labelled_arcs(self):
        b = FstBuilder()
        b.ensure_state(2)
        b.add_arc(0, 1, 5, 0.0, 1)
        b.add_arc(1, 2, EPS, 0.0, 2)
        b.add_arc(1, EPS, EPS, 0.5, 2)
        b.set_final(2)
        f = b.freeze()
        index = f.olabel_index()
        for state in (1, 2):
            assert index.eps[state] is f.arcs_of(state)
            assert index.labelled[state] is None
        assert index.eps[0] == () and index.labelled[0] is not None


class TestTextFormat:
    def test_roundtrip_exact(self):
        f = linear([1, 2], weight_each=0.1, final=1.7)
        text = write_text_fst(f)
        back = read_text_fst(text)
        assert write_text_fst(back) == text

    def test_start_block_first(self):
        b = FstBuilder()
        b.ensure_state(2)
        b.add_arc(1, 1, 1, 0.0, 2)   # start will be 1, not 0
        b.add_arc(0, 2, 2, 0.0, 2)
        b.set_final(2)
        f = b.freeze(start=1)
        first = write_text_fst(f).splitlines()[0]
        assert first.startswith("1 ")
        back = read_text_fst(write_text_fst(f))
        assert back.start == 1  # same ids, start recovered from line order

    def test_weights_roundtrip_bit_exact(self):
        w = 0.1 + 0.2  # not representable prettily; repr must carry it
        f = linear([1], weight_each=w, final=w)
        back = read_text_fst(write_text_fst(f))
        assert back.arcs_of(0)[0].weight == w
        assert back.final_weight(1) == w


class TestShortestPath:
    @given(acyclic_fst())
    @settings(max_examples=100, deadline=None)
    def test_weight_matches_enumeration(self, f):
        got = shortest_path(f)
        want = best_accepting_weight(f)
        if want == math.inf:
            assert got is None
        else:
            assert got.weight == want

    @given(acyclic_fst())
    @settings(max_examples=60, deadline=None)
    def test_returned_path_is_real(self, f):
        got = shortest_path(f)
        if got is None:
            return
        # walk the states, re-deriving the weight and labels
        total = 0.0
        ilabels = []
        olabels = []
        for src, dst in zip(got.states, got.states[1:]):
            arcs = [a for a in f.arcs_of(src) if a.nextstate == dst]
            assert arcs, "path uses a nonexistent arc"
            arc = min(arcs, key=lambda a: a.weight)
            total += arc.weight
            if arc.ilabel != EPS:
                ilabels.append(arc.ilabel)
            if arc.olabel != EPS:
                olabels.append(arc.olabel)
        total += f.final_weight(got.states[-1])
        assert total >= got.weight  # min() above may pick a pricier parallel arc
        assert len(ilabels) == len(got.ilabels)
        assert len(olabels) == len(got.olabels)

    def test_no_path(self):
        b = FstBuilder()
        b.ensure_state(1)
        b.add_arc(0, 1, 1, 1.0, 1)
        assert shortest_path(b.freeze()) is None

    def test_zero_weight_cycle(self):
        b = FstBuilder()
        b.ensure_state(1)
        b.add_arc(0, 1, 1, 0.0, 1)
        b.add_arc(1, 2, 2, 0.0, 0)  # free cycle
        b.set_final(1, 0.0)
        got = shortest_path(b.freeze())
        assert got.weight == 0.0
        assert got.states == (0, 1)

    def test_tie_prefers_stopping_at_final(self):
        b = FstBuilder()
        b.ensure_state(2)
        b.add_arc(0, 1, 1, 1.0, 1)
        b.add_arc(1, 2, 2, 0.0, 2)
        b.set_final(1, 0.0)
        b.set_final(2, 0.0)
        got = shortest_path(b.freeze())
        assert got.states == (0, 1)

    def test_eps_omitted_from_labels(self):
        b = FstBuilder()
        b.ensure_state(2)
        b.add_arc(0, EPS, 3, 0.5, 1)
        b.add_arc(1, 4, EPS, 0.5, 2)
        b.set_final(2)
        got = shortest_path(b.freeze())
        assert got.ilabels == (4,)
        assert got.olabels == (3,)
