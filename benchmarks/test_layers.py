"""Microbenchmarks of one on-the-fly expansion, layer by layer, on fixed
desk states, and of compiling the desk contact lists.  Run with

    python -m pytest benchmarks --benchmark-only

The states are the heaviest pair on the desk graphs (the lexicon start,
86 arcs, against the root's backoff state, 49 arcs), one root state, one
bridge state (a root state with a class out-arc) and one state inside a
user's contact FST.  `test_cache_expand_otf` times one cold
`cache.expand` (kernel, interning and the cached arcs) in a fresh session
per round, at the lexicon loop state and at a chain state, and
`test_state_table_build_inside` one cold `StateTable.build` of the
lexicon loop state against a state inside a contact FST; inside states
are most of a desk session's on-the-fly expansions (6,488 of 7,288 per
`both` s5 pass).
`test_build_contact_fst_desk` compiles every desk user's contact list
once per round, the part of `build_graphs` that grows with the users.
"""

from __future__ import annotations

import pytest

from lazyfst.cache import Session, StateTable, expand
from lazyfst.compose import FilterState, expand_pair_state
from lazyfst.harness import binding_for, precompose_cache
from lazyfst.lmbuild import build_contact_fst
from lazyfst.replace import ReplaceView, bridge_states

USER = "u01"


@pytest.fixture(scope="module")
def view(desk):
    _, build = desk
    return ReplaceView(build.root, binding_for(build, USER),
                       bridge_states(build.root, build.class_id))


def backoff_state(root) -> int:
    return max(root.states(), key=lambda q: len(root.arcs_of(q)))


def test_expand_pair_state_heaviest(benchmark, desk, view):
    _, build = desk
    q2 = backoff_state(build.root)
    assert (len(build.t1.arcs_of(build.t1.start)), len(view.arcs_of(q2))) \
        == (86, 49)
    key = (build.t1.start, q2, int(FilterState.ANY))
    benchmark(expand_pair_state, key, build.t1, view)


def test_arcs_of_root_state(benchmark, desk, view):
    _, build = desk
    benchmark(view.arcs_of, backoff_state(build.root))


def test_arcs_of_bridge_state(benchmark, view):
    benchmark(view.arcs_of, min(view.bridges))


def test_arcs_of_inside_state(benchmark, desk, view):
    _, build = desk
    # the view's id for the contact FST's start, resuming at the root start
    inside = (view.fst.start + 1) * view.num_root + build.root.start
    benchmark(view.arcs_of, inside)


@pytest.mark.parametrize("t1_state", ["loop", "chain"])
def test_cache_expand_otf(benchmark, desk, t1_state):
    cfg, build = desk
    cache, _ = precompose_cache(build, cfg, "none")
    t1 = build.t1
    q1 = t1.start if t1_state == "loop" else t1.arcs_of(t1.start)[-1].nextstate
    key = (q1, backoff_state(build.root), int(FilterState.ANY))

    def fresh_session():
        session = Session(cache, binding_for(build, USER))
        return (session.private.intern(key), session), {}

    made = benchmark.pedantic(expand, setup=fresh_session, rounds=2000)
    assert len(made.arcs) == (52 if t1_state == "loop" else 2)


def test_state_table_build_inside(benchmark, desk, view):
    cfg, build = desk
    cache, _ = precompose_cache(build, cfg, "none")
    # the contact FST's start, resuming at the root start
    inside = (view.fst.start + 1) * view.num_root + build.root.start
    key = (build.t1.start, inside, int(FilterState.ANY))

    def fresh_table():
        session = Session(cache, binding_for(build, USER))
        private = session.private
        return (private, private.intern(key), build.t1, session.view), {}

    made = benchmark.pedantic(StateTable.build, setup=fresh_table, rounds=2000)
    assert len(made.arcs) == 27


def test_build_contact_fst_desk(benchmark, desk):
    _, build = desk
    by_name = {c.name: c for c in build.contacts}
    lists = [[by_name[n] for n in names]
             for _, names in sorted(build.users.items())]
    phones = set(build.lexicon.phones)

    def compile_all():
        return [build_contact_fst(contacts, phones, build.word_syms)
                for contacts in lists]

    fsts = benchmark(compile_all)
    assert [fst.num_states for fst in fsts] == [
        build.bindings[user].fst.num_states for user in sorted(build.users)]
