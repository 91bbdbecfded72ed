import hashlib
import math
import random
import statistics
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (compose_static, expansions, inside_id,
                     is_precomposable, lookup, materialize, replace_view)
from strategies import acyclic_fst, dyadic_weights
from lazyfst.cache import (ARC_BYTES, DEAD_END, KEY_BYTES, STATE_BYTES,
                           PublicCache, Session, StateTable,
                           dump_public_cache,
                           end_session, expand, load_public_cache)
from lazyfst.compose import FilterState, expand_pair_state
from lazyfst.errors import BuildError, ConfigurationError, InvariantError
from lazyfst.fst import EPS, FstBuilder, write_text_fst
from lazyfst.decoder import DecodeConfig, _eps_closure, decode
from lazyfst import harness
from lazyfst.harness import (binding_for, decode_config, precompose_cache,
                             run_bench, scores_for)
from lazyfst.precompose import PrecomposeConfig, bfs_precompose
from lazyfst.replace import ClassBinding, empty_binding
from lazyfst.semiring import ZERO

CLS = 9
# a class label that no test graph carries: a root without class arcs
NO_CLASS = 99


def build_machine(arcs, finals, n):
    b = FstBuilder()
    b.ensure_state(n - 1)
    for src, il, ol, w, dst in arcs:
        b.add_arc(src, il, ol, w, dst)
    for state, w in finals.items():
        b.set_final(state, w)
    return b.freeze(start=0)


@st.composite
def scenario(draw):
    """(t1, root, binding): t1 outputs the union of root tokens and class
    inner tokens, so compositions exercise the class boundary."""
    root = draw(acyclic_fst(num_labels=3, acceptor=True, allow_ieps=False,
                            label_base=CLS - 1))       # tokens {8, 9, 10}
    inner = draw(acyclic_fst(num_labels=2, acceptor=True, allow_ieps=False,
                             label_base=3))            # tokens {3, 4}
    n = draw(st.integers(min_value=2, max_value=6))
    builder = FstBuilder()
    builder.ensure_state(n - 1)
    olabels = [EPS, 3, 4, 8, 10]
    for _ in range(draw(st.integers(min_value=1, max_value=2 * n))):
        src = draw(st.integers(min_value=0, max_value=n - 2))
        dst = draw(st.integers(min_value=src + 1, max_value=n - 1))
        builder.add_arc(src, draw(st.integers(min_value=1, max_value=2)),
                        draw(st.sampled_from(olabels)),
                        draw(dyadic_weights()), dst)
    for state in draw(st.lists(st.integers(min_value=1, max_value=n - 1),
                               min_size=1, max_size=2)):
        builder.set_final(state, draw(dyadic_weights()))
    t1 = builder.freeze(start=0)
    binding = ClassBinding(CLS, inner)
    return t1, root, binding


def fixed_scenario():
    # t1 reads {1,2}, writes root tokens and class-inner tokens
    t1 = build_machine([(0, 1, 8, 0.5, 1), (1, 2, 3, 0.25, 2),
                        (1, 2, 4, 0.25, 2), (2, 1, 10, 0.0, 3),
                        (0, 1, EPS, 1.0, 2)],
                       {3: 0.0, 2: 0.5}, 4)
    # root accepts "8 9 10" and "8 8"; 9 is the class label
    root = build_machine([(0, 8, 8, 0.25, 1), (1, CLS, CLS, 0.5, 2),
                          (2, 10, 10, 0.0, 3), (1, 8, 8, 0.75, 3)],
                         {3: 0.25}, 4)
    inner = build_machine([(0, 3, 3, 0.25, 1), (0, 4, 4, 0.5, 1)],
                          {1: 0.0}, 2)
    return t1, root, ClassBinding(CLS, inner)


def sealed_cache(t1, root, label=CLS, depth=0):
    """The public cache made from the keys bfs_precompose chooses."""
    keys = bfs_precompose(PublicCache(t1, root, label),
                          PrecomposeConfig(bfs_depth=depth))
    return PublicCache(t1, root, label, keys)


class TestIsPrecomposable:
    """PublicCache.shareable on three keys, each also checked against the
    arc-scanning re-derivation in oracles."""

    def shareable(self, key):
        t1, root, _ = fixed_scenario()
        got = PublicCache(t1, root, CLS).shareable(key)
        assert got == is_precomposable(key, root, CLS)
        return got

    def test_root_state_without_class_arcs(self):
        assert self.shareable((0, 0, FilterState.ANY))

    def test_root_state_with_class_arc(self):
        assert not self.shareable((0, 1, FilterState.ANY))

    def test_inside_state_never(self):
        _, root, binding = fixed_scenario()
        view = replace_view(root, binding)
        inside = inside_id(view, 0, 2)
        assert not self.shareable((0, inside, FilterState.ANY))


class TestLifecycle:
    def test_sealed_cache_rejects_intern_and_store(self):
        t1, root, _ = fixed_scenario()
        cache = sealed_cache(t1, root)
        with pytest.raises(ConfigurationError):
            cache.intern((1, 0, FilterState.ANY))

    def test_binding_must_declare_same_classes(self):
        t1, root, _ = fixed_scenario()
        cache = sealed_cache(t1, root)
        other = empty_binding(8)
        with pytest.raises(ConfigurationError):
            Session(cache, other)

    def test_end_session_is_terminal(self):
        t1, root, binding = fixed_scenario()
        session = Session(sealed_cache(t1, root), binding)
        sid = session.start_id()
        expand(sid, session)
        final = end_session(session)
        assert final.otf_expansion == 1
        with pytest.raises(ConfigurationError, match="ended"):
            end_session(session)
        with pytest.raises(ConfigurationError, match="ended"):
            expand(sid, session)
        with pytest.raises(ConfigurationError, match="ended"):
            session.start_id()
        with pytest.raises(ConfigurationError, match="ended"):
            session.bytes_private


class TestSealPurity:
    """The PublicCache constructor, the public layer's one writer, stores
    only shareable states."""

    def test_rejects_binding_dependent_key(self):
        t1, root, _ = fixed_scenario()
        # root state 1 has a class out-arc, so caching it publicly is wrong
        with pytest.raises(InvariantError, match="non-shareable"):
            PublicCache(t1, root, CLS, [(0, 1, FilterState.ANY)])


def cache_fields(cache) -> tuple[dict, tuple]:
    """Every field of `cache`, and the sizes of its tables."""
    slots = [name for cls in type(cache).__mro__
             for name in getattr(cls, "__slots__", ())]
    return ({name: getattr(cache, name) for name in slots},
            (len(cache.keys), len(cache.ids), len(cache.expanded)))


class TestMadeCacheIsReadOnly:
    """Sessions share no mutable state: decoding and dumping leave every
    field of a made cache as it was."""

    @pytest.mark.parametrize("method", ["none", "bfs", "warmup", "both"])
    def test_sessions_and_dump_write_nothing(self, desk_build, desk_cfg,
                                             method):
        cache, _ = precompose_cache(desk_build, desk_cfg, method)
        fields, sizes = cache_fields(cache)
        for length in (1, 5):
            run_bench(desk_cfg, method=method, session_length=length,
                      build=desk_build, cache=cache)
        dump_public_cache(cache)
        after, sizes_after = cache_fields(cache)
        assert after.keys() == fields.keys()
        assert all(after[name] is fields[name] for name in fields)
        assert sizes_after == sizes


class PublicFirstIds:
    """Session.private.intern as it read with the public table checked
    first."""

    def __init__(self, session):
        self.session = session
        self.private = {}

    def intern(self, key):
        got = self.session.cache.ids.get(key)
        if got is not None and got < self.session.private.first:
            return got
        return self.private.setdefault(
            key, self.session.private.first + len(self.private))


def desk_session_keys(build, cfg, session, user):
    """Decode `user`'s desk turns in `session`; its interned keys, then a
    deterministic shuffle of those keys, every seventh public key and
    repeats."""
    for utt in [u for u in build.utterances if u["user"] == user][:5]:
        decode(scores_for(build, cfg, utt), session, decode_config(cfg))
    keys = list(session.private.keys)
    keys += session.cache.keys[:session.private.first:7]
    keys += keys[::3]
    random.Random(0).shuffle(keys)
    return keys


class TestIdSpace:
    def test_private_ids_start_at_num_public(self):
        t1, root, binding = fixed_scenario()
        cache = sealed_cache(t1, root, depth=3)
        assert cache.num_public > 0
        session = Session(cache, binding)
        inside = inside_id(session.view, 0, 2)
        fresh = session.private.intern((3, inside, FilterState.ANY))
        assert fresh >= session.private.first
        assert session.private.key_of(fresh) == (3, inside, FilterState.ANY)

    def test_public_key_interns_to_public_id(self):
        t1, root, binding = fixed_scenario()
        cache = sealed_cache(t1, root, depth=3)
        session = Session(cache, binding)
        start = cache.start_key()
        assert session.private.intern(start) == cache.ids[start]
        assert session.start_id() < session.private.first

    def test_expand_increments_exactly_one_counter(self):
        t1, root, binding = fixed_scenario()
        cache = sealed_cache(t1, root, depth=3)
        session = Session(cache, binding)
        sid = session.start_id()
        m = session.metrics

        def counts():
            return (m.public_hit, m.private_hit, m.otf_expansion)

        # walk the public layer to a state it does not hold
        frontier = None
        seen, stack = {sid}, [sid]
        while stack:
            cur = stack.pop()
            for _, _, _, dst in cache.expanded[cur].arcs:
                if dst >= session.private.first or dst not in cache.expanded:
                    frontier = dst
                    stack.clear()
                    break
                if dst not in seen:
                    seen.add(dst)
                    stack.append(dst)
        assert frontier is not None, "graph entirely public; deepen the test"
        assert counts() == (0, 0, 0)
        made = expand(frontier, session)
        assert counts() == (0, 0, 1)          # built, never looked up
        assert session.private.expanded[frontier] is made
        # a beam below its one epsilon arc's weight keeps the closure to it
        assert len(made.eps) == 1 and made.eps[0][2] == 0.5
        kept = _eps_closure({frontier: (0.0, None)}, session,
                            DecodeConfig(beam=0.25))
        assert list(kept) == [frontier] and kept[frontier][2] is made
        assert counts() == (0, 1, 1)          # the closure finds it privately

    def test_sealed_session_interns_as_public_first(self, desk_build, desk_cfg):
        cache, _ = precompose_cache(desk_build, desk_cfg, "both")
        user = desk_build.utterances[0]["user"]
        keys = desk_session_keys(desk_build, desk_cfg,
                                 Session(cache, binding_for(desk_build, user)),
                                 user)
        session = Session(cache, binding_for(desk_build, user))
        oracle = PublicFirstIds(session)
        assert len(keys) > 100
        assert [session.private.intern(k) for k in keys] == \
            [oracle.intern(k) for k in keys]


def table_before_sealing(cache) -> list:
    """The keys of `cache`'s table as it stood before sealing: each key
    it filled, in fill order, then the destinations of its expansion
    against the root, each key where it first appears."""
    table = {}
    for key in map(cache.key_of, cache.expanded):
        table.setdefault(key)
        arcs, _ = expand_pair_state(key, cache.t1, cache.root)
        for *_, dst in arcs:
            table.setdefault(dst)
    return list(table)


class TestIdLayout:
    """Sealing numbers the filled public states [0, E) and the frontier
    states [E, N), each group in its order before sealing, so an id below
    E = num_expanded is public and any other is private."""

    def check(self, cache, binding):
        n, e = cache.num_public, cache.num_expanded
        assert sorted(cache.expanded) == list(range(e))
        assert len(cache.ids) == n
        assert all(cache.ids[key] == sid for sid, key in enumerate(cache.keys))
        assert all(dst < n for exp in cache.expanded.values()
                   for *_, dst in exp.arcs)
        before = table_before_sealing(cache)
        filled = set(map(cache.key_of, cache.expanded))
        assert cache.keys == [k for k in before if k in filled] + \
            [k for k in before if k not in filled]
        # every frontier expansion goes to the private dict at its own
        # id and is read back from it as a private hit
        session = Session(cache, binding)
        m = session.metrics
        for sid in range(e, n):
            made = expand(sid, session)
            assert session.private.expanded[sid] is made
            hits = (m.public_hit, m.private_hit)
            assert lookup(session, sid) is made
            assert (m.public_hit, m.private_hit) == (hits[0], hits[1] + 1)
        for sid in range(e, n):
            made = session.private.expanded[sid]
            if made is DEAD_END:
                continue
            # the first closure builds what it reaches, the second only
            # reads: each state it keeps is a public hit below E and a
            # private hit at or above it
            _eps_closure({sid: (0.0, None)}, session, DecodeConfig())
            start = m.snapshot()
            kept = _eps_closure({sid: (0.0, None)}, session, DecodeConfig())
            assert kept[sid][2] is made
            counted = m.delta(start)
            assert (counted.public_hit, counted.private_hit,
                    counted.otf_expansion) == (
                sum(k < e for k in kept), sum(k >= e for k in kept), 0)

    @pytest.mark.parametrize("method", ["bfs", "warmup", "both"])
    def test_desk_caches(self, desk_build, desk_cfg, method):
        cache, _ = precompose_cache(desk_build, desk_cfg, method)
        loaded = load_public_cache(dump_public_cache(cache), desk_build.t1,
                                   desk_build.root, desk_build.class_id)
        binding = binding_for(desk_build, desk_build.utterances[0]["user"])
        for sealed in (cache, loaded):
            assert 0 < sealed.num_expanded < sealed.num_public
            self.check(sealed, binding)

    @pytest.mark.parametrize("method, length", [("both", 5), ("none", 1)])
    def test_private_dicts_after_desk_pass(self, desk_build, desk_cfg,
                                           method, length, monkeypatch):
        # every session's private dict holds the states it built, each
        # once and each at an id from E on, and the public dict is left
        # as sealed
        cache, _ = precompose_cache(desk_build, desk_cfg, method)
        e = len(cache.expanded)
        held = []

        def end(session):
            held.append((list(session.private.expanded),
                         session.metrics.otf_expansion))
            return end_session(session)

        monkeypatch.setattr(harness, "end_session", end)
        totals = run_bench(desk_cfg, method=method, session_length=length,
                           build=desk_build, cache=cache)["totals"]
        assert len(held) == totals["sessions"] > 1
        assert sum(otf for _, otf in held) == totals["otf_expansions"] > 0
        for ids, otf in held:
            assert min(ids) >= e
            assert len(ids) == otf
        assert len(cache.expanded) == e

    @given(scenario(), st.integers(min_value=0, max_value=4))
    @settings(max_examples=100, deadline=None)
    def test_random_graphs(self, graphs, depth):
        t1, root, binding = graphs
        cache = sealed_cache(t1, root, depth=depth)
        self.check(cache, binding)
        loaded = load_public_cache(dump_public_cache(cache), t1, root, CLS)
        self.check(loaded, binding)


class TestMaterializeMatchesStatic:
    def check(self, t1, root, binding, depth):
        static = compose_static(t1, replace_view(root, binding))
        cache = sealed_cache(t1, root, depth=depth)
        session = Session(cache, binding)
        assert write_text_fst(materialize(session)) == write_text_fst(static)

    def test_fixed_graph_all_cache_depths(self):
        t1, root, binding = fixed_scenario()
        for depth in (0, 1, 2, 3, 64):
            self.check(t1, root, binding, depth)

    @given(scenario(), st.sampled_from([0, 2, 64]))
    @settings(max_examples=60, deadline=None)
    def test_random_graphs(self, scn, depth):
        t1, root, binding = scn
        self.check(t1, root, binding, depth)


class TestBytesModel:
    def test_public_estimate_is_exact_arithmetic(self):
        t1, root, _ = fixed_scenario()
        cache = sealed_cache(t1, root, depth=3)
        arcs = sum(len(e.arcs) for e in cache.expanded.values())
        assert cache.bytes_estimate() == (arcs * ARC_BYTES
                                          + cache.num_expanded * STATE_BYTES
                                          + cache.num_public * KEY_BYTES)

    def test_private_bytes_track_private_layer_only(self):
        t1, root, binding = fixed_scenario()
        cache = sealed_cache(t1, root, depth=64)
        session = Session(cache, binding)
        assert session.bytes_private == 0
        materialize(session)
        private = session.private.expanded
        arcs = sum(len(e.arcs) for e in private.values())
        want = (arcs * ARC_BYTES + len(private) * STATE_BYTES
                + len(session.private.keys) * KEY_BYTES)
        assert session.bytes_private == want
        assert end_session(session).bytes_private == want


class TestDumpLoad:
    def roundtrip(self, depth):
        t1, root, binding = fixed_scenario()
        cache = sealed_cache(t1, root, depth=depth)
        text = dump_public_cache(cache)
        loaded = load_public_cache(text, t1, root, CLS)
        assert loaded.sealed
        assert loaded.keys == cache.keys
        assert expansions(loaded) == expansions(cache)
        assert dump_public_cache(loaded) == text
        # a loaded cache serves sessions identically
        static = write_text_fst(compose_static(t1, replace_view(root, binding)))
        assert write_text_fst(materialize(Session(loaded, binding))) == static

    def test_roundtrip_shallow_and_deep(self):
        self.roundtrip(2)
        self.roundtrip(64)

    def test_load_rejects_bad_version(self):
        t1, root, _ = fixed_scenario()
        text = dump_public_cache(sealed_cache(t1, root, depth=2))
        # earlier formats hold arcs or ids; they must be rebuilt, not read
        for version in ("1", "2"):
            wrong = text.replace("public-cache 3", f"public-cache {version}")
            with pytest.raises(BuildError, match="rebuild it"):
                load_public_cache(wrong, t1, root, CLS)

    def test_load_rejects_different_graphs(self):
        t1, root, binding = fixed_scenario()
        text = dump_public_cache(sealed_cache(t1, root, depth=2))
        with pytest.raises(BuildError):
            load_public_cache(text, t1, binding.fst, CLS)

    def test_load_rejects_corrupt_body(self):
        t1, root, _ = fixed_scenario()
        text = dump_public_cache(sealed_cache(t1, root, depth=2))
        lines = text.splitlines()
        assert lines[3].startswith("s ")
        lines[3] = "s 999999 0 0"
        with pytest.raises(BuildError):
            load_public_cache("\n".join(lines) + "\n", t1, root, CLS)

    def test_load_rejects_truncation(self):
        t1, root, _ = fixed_scenario()
        text = dump_public_cache(sealed_cache(t1, root, depth=2))
        truncated = "".join(text.splitlines(keepends=True)[:-1])
        with pytest.raises(BuildError):
            load_public_cache(truncated, t1, root, CLS)

    def test_loaded_cache_weights_are_bit_exact(self):
        t1, root, _ = fixed_scenario()
        cache = sealed_cache(t1, root, depth=64)
        loaded = load_public_cache(dump_public_cache(cache), t1, root, CLS)
        for sid, exp in cache.expanded.items():
            got = loaded.expanded[sid]
            assert got.final == exp.final or (
                math.isinf(got.final) and math.isinf(exp.final))
            assert got.arcs == exp.arcs


class TestExactRoundTrip:
    """A dump is the fill log: loading it fills the same keys in the same
    order, so the loaded cache has the dumped one's table, fill order and
    expansions, and dumps to the same bytes."""

    @staticmethod
    def check(cache, t1, root, label):
        text = dump_public_cache(cache)
        loaded = load_public_cache(text, t1, root, label)
        assert loaded.keys == cache.keys
        assert list(loaded.expanded) == list(cache.expanded)
        assert expansions(loaded) == expansions(cache)
        assert dump_public_cache(loaded) == text

    @pytest.mark.parametrize("method", ["bfs", "warmup", "both"])
    def test_desk_caches(self, desk_build, desk_cfg, method):
        cache, _ = precompose_cache(desk_build, desk_cfg, method)
        self.check(cache, desk_build.t1, desk_build.root, desk_build.class_id)

    @given(scenario(), st.integers(min_value=0, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_random_graphs_under_bfs(self, scn, depth):
        t1, root, _ = scn
        self.check(sealed_cache(t1, root, depth=depth), t1, root, CLS)


def signed(w: float) -> tuple[float, float]:
    """A weight's value and sign: 0.0 and -0.0 are equal but dump apart."""
    return (w, math.copysign(1.0, w))


def census(cache) -> dict:
    """Objects against distinct values among a layer's expansions, arcs and
    weights; a value holds each weight's sign."""
    exps = list(cache.expanded.values())
    arcs = [arc for e in exps for arc in e.arcs]
    weights = [arc[2] for arc in arcs] + [e.final for e in exps]

    def arc_value(arc):
        return (arc[0], arc[1], signed(arc[2]), arc[3])

    exp_values = {(tuple(map(arc_value, e.arcs)), signed(e.final))
                  for e in exps}
    return {"expansions": (len({id(e) for e in exps}), len(exp_values),
                           len(exps)),
            "arcs": (len({id(a) for a in arcs}), len(set(map(arc_value, arcs))),
                     len(arcs)),
            "weights": (len({id(w) for w in weights}),
                        len(set(map(signed, weights))))}


class TestSharing:
    """Sealing shares one object per distinct weight, arc and expansion."""

    def test_sealed_desk_cache_shares_equal_parts(self, desk_build, desk_cfg):
        cache, _ = precompose_cache(desk_build, desk_cfg, "both")
        got = census(cache)
        assert got["expansions"] == (274, 274, 502)
        assert got["arcs"] == (477, 477, 833)
        assert got["weights"][0] == got["weights"][1]
        non_final = [e for e in cache.expanded.values() if e.final == ZERO]
        assert non_final and all(e.final is ZERO for e in non_final)

    def test_signed_zeros_survive_seal_dump_and_load(self):
        # Weights add along a composed arc, and 0.0 + -0.0 is 0.0 while
        # -0.0 + -0.0 is -0.0: the root weighs everything -0.0, t1 weighs
        # its parallel arcs 0.0 and -0.0.
        t1 = build_machine([(0, 1, 8, 0.0, 1), (0, 1, 8, -0.0, 1),
                            (1, 1, 8, 0.0, 1), (1, 1, 8, -0.0, 1),
                            (2, 1, 8, -0.0, 2)],
                           {0: 0.0, 1: -0.0, 2: 0.0}, 3)
        root = build_machine([(0, 8, 8, -0.0, 1), (1, 8, 8, -0.0, 1)],
                             {0: -0.0, 1: -0.0}, 2)
        keys = [(q1, q2, FilterState.ANY)
                for q1, q2 in ((0, 0), (1, 1), (2, 1))]
        # equal as floats, apart by sign: arcs, finals and whole expansions
        cache = PublicCache(t1, root, CLS, keys)
        a, b, c = (cache.ids[key] for key in keys)
        assert cache.num_public == 3
        want = {a: (["0.0", "-0.0"], "0.0"), b: (["0.0", "-0.0"], "-0.0"),
                c: (["-0.0"], "0.0")}

        def reprs(cache):
            return {sid: ([repr(w) for _, _, w, _ in e.arcs], repr(e.final))
                    for sid, e in cache.expanded.items()}

        text = dump_public_cache(cache)
        assert reprs(cache) == want
        assert census(cache)["expansions"] == (3, 3, 3)
        assert cache.expanded[a].emit is cache.expanded[b].emit
        loaded = load_public_cache(text, t1, root, CLS)
        assert reprs(loaded) == want
        assert dump_public_cache(loaded) == text

    def test_loaded_cache_shares_like_the_dumped_one(self, desk_build,
                                                     desk_cfg):
        cache, _ = precompose_cache(desk_build, desk_cfg, "both")
        loaded = load_public_cache(dump_public_cache(cache), desk_build.t1,
                                   desk_build.root, desk_build.class_id)
        assert census(loaded) == census(cache)
        assert all(e.final is ZERO for e in loaded.expanded.values()
                   if e.final == ZERO)

    def test_loaded_cache_ids_are_the_table_ints(self, desk_build, desk_cfg):
        cache, _ = precompose_cache(desk_build, desk_cfg, "both")
        loaded = load_public_cache(dump_public_cache(cache), desk_build.t1,
                                   desk_build.root, desk_build.class_id)
        own = {id(state_id) for state_id in loaded.ids.values()}
        dsts = [dst for e in loaded.expanded.values() for *_, dst in e.arcs]
        # ints above 256 are not cached by the interpreter, so only
        # mapping through the table makes them the same objects
        assert sum(dst > 256 for dst in dsts) > 0
        assert all(id(dst) in own for dst in dsts)
        assert all(id(state_id) in own for state_id in loaded.expanded)

    def test_private_dead_ends_share_one_expansion(self, desk_build,
                                                   desk_cfg):
        cache, _ = precompose_cache(desk_build, desk_cfg, "none")
        utt = desk_build.utterances[0]
        session = Session(cache, binding_for(desk_build, utt["user"]))
        decode(scores_for(desk_build, desk_cfg, utt), session,
               decode_config(desk_cfg))
        dead = [e for e in session.private.expanded.values()
                if not e.arcs and e.final == ZERO]
        assert len(dead) >= 2 and all(e is DEAD_END for e in dead)
        # a state with no arcs that is final keeps its own final weight
        t1, root, binding = fixed_scenario()
        session = Session(sealed_cache(t1, root), binding)
        materialize(session)
        final_end = session.private.expanded[
            session.private.intern((3, 3, FilterState.ANY))]
        assert final_end.arcs == () and final_end.final == 0.25


def assert_split(exp) -> None:
    """Every epsilon-input arc of `exp` is in `eps`, every other in `emit`."""
    assert all(arc[0] == EPS for arc in exp.eps)
    assert all(arc[0] != EPS for arc in exp.emit)


def composed_arcs(cache) -> dict[int, tuple]:
    """Each expanded state's arcs as expand_pair_state composes them,
    with the cache's ids for destination keys."""
    out = {}
    for sid in cache.expanded:
        arcs, _ = expand_pair_state(cache.keys[sid], cache.t1, cache.root)
        out[sid] = tuple((il, ol, w, cache.ids[key])
                         for il, ol, w, key in arcs)
    return out


class TestDeadEpsilonArcs:
    """Sealing drops each public epsilon arc into a public dead end,
    except from a state it would leave a dead end too, which keeps its
    arcs as built; a dump names the expanded states and loads to the
    same cache."""

    def check(self, cache, composed):
        """`cache` is sealed; `composed` holds its expansions' arcs as
        built.  Returns the number of arcs sealing dropped."""
        dead = {sid for sid, e in cache.expanded.items()
                if not e.arcs and e.final == ZERO}
        assert all(cache.expanded[sid] is DEAD_END for sid in dead)
        # the dead ends are those the cache was built with
        assert dead == {sid for sid, arcs in composed.items()
                        if not arcs and cache.expanded[sid].final == ZERO}
        dropped = 0
        for sid, exp in cache.expanded.items():
            assert_split(exp)
            built = composed[sid]
            kept = tuple(a for a in built if a[0] != EPS or a[3] not in dead)
            if not kept and exp.final == ZERO:
                assert exp.arcs == built      # kept whole
            else:
                assert exp.arcs == kept
                dropped += len(built) - len(kept)
        return dropped

    @given(acyclic_fst(), acyclic_fst(acceptor=True))
    @settings(max_examples=100, deadline=None)
    def test_random_graphs(self, t1, root):
        cache = sealed_cache(t1, root, NO_CLASS, depth=64)
        composed = composed_arcs(cache)
        self.check(cache, composed)
        text = dump_public_cache(cache)
        loaded = load_public_cache(text, t1, root, NO_CLASS)
        assert loaded.keys == cache.keys
        assert expansions(loaded) == expansions(cache)
        assert census(loaded) == census(cache)
        self.check(loaded, composed)
        assert dump_public_cache(loaded) == text

    def test_desk_cache(self, desk_build, desk_cfg):
        cache, _ = precompose_cache(desk_build, desk_cfg, "both")
        composed = composed_arcs(cache)
        assert self.check(cache, composed) == 1104 - 833
        text = dump_public_cache(cache)
        loaded = load_public_cache(text, desk_build.t1, desk_build.root,
                                   desk_build.class_id)
        assert self.check(loaded, composed) == 1104 - 833
        assert dump_public_cache(loaded) == text

    @pytest.mark.parametrize("method", ["bfs", "warmup", "both"])
    def test_loaded_desk_caches(self, desk_build, desk_cfg, method):
        cache, _ = precompose_cache(desk_build, desk_cfg, method)
        text = dump_public_cache(cache)
        loaded = load_public_cache(text, desk_build.t1, desk_build.root,
                                   desk_build.class_id)
        assert loaded.keys == cache.keys
        assert expansions(loaded) == expansions(cache)
        assert census(loaded) == census(cache)
        assert self.check(loaded, composed_arcs(loaded)) == \
            self.check(cache, composed_arcs(cache))
        assert dump_public_cache(loaded) == text


sorted_arcs = st.lists(st.tuples(
    st.sampled_from([EPS, EPS, 1, 2, 300]), st.integers(0, 3),
    dyadic_weights(), st.integers(0, 2000))).map(lambda a: tuple(sorted(a)))


class TestArcLayout:
    """An expansion holds its epsilon-input arcs in `eps` and its
    emitting arcs in `emit`, split once, where it is built
    (StateTable.build); sealing and loading keep the split
    (TestDeadEpsilonArcs checks each public layer's arcs against the
    composed ones)."""

    @given(sorted_arcs)
    @example(())
    @example(((EPS, 1, 0.5, 3), (EPS, 2, 0.0, 1)))
    @example(((1, 1, 0.0, 3), (2, 0, 0.25, 1)))
    @settings(max_examples=200, deadline=None)
    def test_split_of_sorted_arcs(self, arcs):
        # the composed arcs of the state built are `arcs`, each
        # destination id d standing for the key (d, 0, 0)
        raw = tuple((il, ol, w, (dst, 0, 0)) for il, ol, w, dst in arcs)
        table = StateTable()
        sid = table.intern((0, 1, 0))
        with mock.patch("lazyfst.cache.expand_pair_state",
                        lambda key, t1, t2: (raw, 0.0)):
            made = table.build(sid, None, None)
        assert_split(made)
        assert made.eps + made.emit == made.arcs == tuple(
            (il, ol, w, table.ids[key]) for il, ol, w, key in raw)
        assert table.expanded == {sid: made}

    def test_private_layer_after_desk_pass(self, desk_build, desk_cfg):
        cache, _ = precompose_cache(desk_build, desk_cfg, "both")
        user = desk_build.utterances[0]["user"]
        session = Session(cache, binding_for(desk_build, user))
        for utt in [u for u in desk_build.utterances if u["user"] == user]:
            decode(scores_for(desk_build, desk_cfg, utt), session,
                   decode_config(desk_cfg))
        private = session.private
        held = private.expanded.items()
        # both parts in use, and frontier ids as well as the layer's own
        assert any(e.eps and e.emit for _, e in held)
        assert {sid < private.first for sid, _ in held} == {True, False}
        for sid, exp in held:
            assert_split(exp)
            arcs, final = expand_pair_state(private.key_of(sid), cache.t1,
                                            session.view)
            assert exp.eps + exp.emit == tuple(
                (il, ol, w, private.ids.get(key, cache.ids.get(key)))
                for il, ol, w, key in arcs)
            assert exp.final == final

    def test_modeled_bytes_are_pinned(self, desk_build, desk_cfg):
        # perfbench's figures at seed 7: its memory pass models every
        # fourth session
        cfg = dict(desk_cfg, seed=7)
        for method, length, public, session in (("both", 5, 34_272, 12_080),
                                                ("none", 1, 0, 22_652)):
            report = run_bench(cfg, method=method, session_length=length,
                               build=desk_build)
            sessions = [s["bytes_private"] for s in report["sessions"]]
            assert report["bytes_public"] == public
            assert statistics.median(sessions[::4]) == session


def rechecksum(text: str) -> str:
    """Re-sign an edited dump so only the body's contents are under test."""
    lines = text.splitlines(keepends=True)
    body = "".join(lines[3:])
    digest = hashlib.sha256(body.encode()).hexdigest()
    return "".join(lines[:2]) + f"sha256 {digest}\n" + body


@pytest.fixture(scope="module")
def desk_dump(desk_build, desk_cfg):
    cache, _ = precompose_cache(desk_build, desk_cfg, "bfs")
    return dump_public_cache(cache).splitlines()


class TestLoadRejectsBadDumps:
    """Every malformed but correctly checksummed dump is a BuildError."""

    def load(self, lines, build):
        return load_public_cache(rechecksum("\n".join(lines) + "\n"),
                                 build.t1, build.root, build.class_id)

    def edit(self, lines, tag, field, value):
        """Copy of `lines` with `field` of the first `tag` row set."""
        out = list(lines)
        i = next(i for i, row in enumerate(out) if row.startswith(tag + " "))
        parts = out[i].split()
        parts[field] = value
        out[i] = " ".join(parts)
        return out

    def test_unedited_dump_loads(self, desk_dump, desk_build):
        assert self.load(desk_dump, desk_build).sealed

    @pytest.mark.parametrize("tag, field, value", [
        ("s", 1, "x"),          # non-integer field
        ("s", 2, "ROOT"),       # root state beyond the root
        ("s", 3, "7"),          # not a filter state
        ("s", 1, "T1"),         # t1 state beyond t1
        ("s", 3, "3"),          # FilterState.BLOCKED
    ], ids=["non-integer", "root-out-of-range", "filter-7",
            "t1-out-of-range", "filter-blocked"])
    def test_bad_field(self, desk_dump, desk_build, tag, field, value):
        if value == "ROOT":
            value = str(desk_build.root.num_states)
        if value == "T1":
            value = str(desk_build.t1.num_states)
        with pytest.raises(BuildError):
            self.load(self.edit(desk_dump, tag, field, value), desk_build)

    def test_duplicate_expansion_row(self, desk_dump, desk_build):
        first = next(row for row in desk_dump if row.startswith("s "))
        with pytest.raises(BuildError, match="duplicate"):
            self.load(desk_dump + [first], desk_build)

    def test_state_that_cannot_be_shared(self, desk_dump, desk_build):
        # the table holds bridge states as frontier destinations
        keys = self.load(desk_dump, desk_build).keys
        bridge = next(key for key in keys
                      if not is_precomposable(key, desk_build.root,
                                              desk_build.class_id))
        with pytest.raises(BuildError, match="non-shareable"):
            self.load(desk_dump + ["s %d %d %d" % bridge], desk_build)

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_single_line_mutation(self, desk_dump, desk_build, data):
        lines = list(desk_dump)
        i = data.draw(st.integers(min_value=3, max_value=len(lines) - 1))
        parts = lines[i].split()
        how = data.draw(st.sampled_from(["field", "delete", "copy"]))
        if how == "field":
            j = data.draw(st.integers(min_value=0, max_value=len(parts) - 1))
            parts[j] = data.draw(st.sampled_from(
                ["nan", "-inf", "inf", "-1", "0", "1", "2", "3", "7", "0.5",
                 "1e9", "x", "", "k", "s", "a", "table"]))
            lines[i] = " ".join(parts)
        elif how == "delete":
            del lines[i]
        else:
            lines[i] = lines[data.draw(st.integers(min_value=3,
                                                   max_value=len(lines) - 1))]
        try:
            cache = self.load(lines, desk_build)
        except BuildError:
            return
        assert cache.sealed
