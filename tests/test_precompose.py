import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import expansions, is_precomposable
from test_cache import fixed_scenario, scenario
from lazyfst import decoder
from lazyfst.cache import PublicCache, Session
from lazyfst.compose import FilterState, expand_pair_state
from lazyfst.errors import ConfigurationError, InvariantError
from lazyfst.harness import (binding_for, decode_config, precompose_cache,
                             scores_for)
from lazyfst.precompose import (PrecomposeConfig, bfs_precompose,
                                warmup_precompose)
from lazyfst.semiring import ZERO

CLS = 9


def pre_cfg(depth, budget=1_000_000):
    return PrecomposeConfig(bfs_depth=depth, state_budget=budget)


def bfs(t1, root, depth, budget=1_000_000):
    """The cache over (t1, root) made from the keys bfs_precompose
    chooses."""
    keys = bfs_precompose(PublicCache(t1, root, CLS), pre_cfg(depth, budget))
    return PublicCache(t1, root, CLS, keys)


class TestConfig:
    def test_negative_depth_rejected(self):
        with pytest.raises(ConfigurationError):
            pre_cfg(-1)

    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            pre_cfg(3, budget=-1)

    def test_negative_warmup_count_rejected(self):
        with pytest.raises(ConfigurationError, match="warmup_count"):
            PrecomposeConfig(warmup_count=-1)


class TestBfs:
    def test_depth_zero_leaves_the_table_empty(self):
        t1, root, _ = fixed_scenario()
        cache = bfs(t1, root, 0)
        assert cache.num_expanded == 0
        assert cache.keys == []

    @given(scenario(), st.integers(min_value=0, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_deeper_covers_no_less(self, scn, depth):
        t1, root, _ = scn
        shallow = bfs(t1, root, depth)
        deep = bfs(t1, root, depth + 1)
        shallow_keys = {shallow.keys[i] for i in shallow.expanded}
        deep_keys = {deep.keys[i] for i in deep.expanded}
        assert shallow_keys <= deep_keys

    @given(scenario())
    @settings(max_examples=40, deadline=None)
    def test_only_shareable_states_expanded(self, scn):
        t1, root, _ = scn
        cache = bfs(t1, root, 64)
        for state_id in cache.expanded:
            key = cache.keys[state_id]
            assert key[1] < root.num_states
            assert is_precomposable(key, root, CLS)

    @given(scenario())
    @settings(max_examples=40, deadline=None)
    def test_every_frontier_destination_is_interned(self, scn):
        t1, root, _ = scn
        cache = bfs(t1, root, 3)
        for exp in cache.expanded.values():
            for _, _, _, dst in exp.arcs:
                assert 0 <= dst < cache.num_public

    def test_budget_stops_expansion_but_result_still_seals(self):
        t1, _, _ = fixed_scenario()
        # long class-free spine so many composed states are shareable
        from test_cache import build_machine
        root = build_machine(
            [(0, 8, 8, 0.0, 1), (1, 10, 10, 0.0, 2), (2, 8, 8, 0.0, 3),
             (3, CLS, CLS, 0.0, 4), (4, 10, 10, 0.0, 5)],
            {5: 0.0, 2: 0.5}, 6)
        full = bfs(t1, root, 64)
        assert full.num_expanded > 2
        cut = bfs(t1, root, 64, budget=2)
        assert cut.num_expanded == 2

    def test_deterministic(self):
        t1, root, _ = fixed_scenario()
        a = bfs(t1, root, 5)
        b = bfs(t1, root, 5)
        assert a.keys == b.keys and expansions(a) == expansions(b)

    def test_keys_come_in_fill_order_and_write_no_cache(self):
        t1, root, _ = fixed_scenario()
        empty = PublicCache(t1, root, CLS)
        keys = bfs_precompose(empty, pre_cfg(5))
        assert empty.keys == [] and empty.expanded == {}
        cache = PublicCache(t1, root, CLS, keys)
        assert list(map(cache.key_of, cache.expanded)) == keys


def desk_cache(build, keys=()):
    return PublicCache(build.t1, build.root, build.class_id, keys)


@pytest.fixture(scope="module")
def warm(desk_build, desk_cfg):
    cfg = PrecomposeConfig(bfs_depth=desk_cfg["bfs_depth"])
    scores = [scores_for(desk_build, desk_cfg, utt)
              for utt in desk_build.utterances[:10]]
    keys = warmup_precompose(desk_cache(desk_build), cfg, scores,
                             decode_config(desk_cfg))
    return cfg, scores, desk_cache(desk_build, keys)


class TestWarmupOnDeskData:
    def test_promotes_only_shareable_root_states(self, desk_build, warm):
        _, _, cache = warm
        assert cache.num_expanded > 0
        for state_id in cache.expanded:
            key = cache.keys[state_id]
            assert key[1] < desk_build.root.num_states
            assert is_precomposable(key, desk_build.root, desk_build.class_id)

    def test_extends_bfs_cache_to_a_superset(self, desk_build, desk_cfg):
        def expanded_keys(method):
            cache, _ = precompose_cache(desk_build, desk_cfg, method)
            return {cache.keys[i] for i in cache.expanded}

        both = expanded_keys("both")
        assert both == expanded_keys("bfs") | expanded_keys("warmup")
        assert len(both) == 502

    def test_extends_the_keys_it_is_given(self, desk_build, desk_cfg, warm):
        cfg, scores, cache = warm
        empty = desk_cache(desk_build)
        bfs_keys = bfs_precompose(empty, cfg)
        keys = warmup_precompose(empty, cfg, scores, decode_config(desk_cfg),
                                 bfs_keys)
        assert keys[:len(bfs_keys)] == bfs_keys
        assert set(keys) == set(bfs_keys) | set(map(cache.key_of,
                                                    cache.expanded))
        assert empty.keys == [] and empty.expanded == {}

    def test_expands_each_state_once(self, desk_build, desk_cfg,
                                     monkeypatch):
        # one session for all warm-up traffic: a state one utterance
        # expanded is found, not expanded again, by the next
        keys = []
        expand = decoder.expand

        def spy(state_id, session):
            keys.append(session.private.key_of(state_id))
            return expand(state_id, session)

        monkeypatch.setattr(decoder, "expand", spy)
        precompose_cache(desk_build, desk_cfg, "warmup")
        assert len(keys) == len(set(keys)) == 541

    def test_warmup_is_deterministic(self, desk_build, warm):
        cfg, scores, cache = warm
        again = desk_cache(desk_build, warmup_precompose(
            desk_cache(desk_build), cfg, scores,
            decode_config({"beam": 10.0, "max_active": 2000})))
        assert again.keys == cache.keys
        assert expansions(again) == expansions(cache)

    def test_budget_limits_promotion(self, desk_build, warm):
        cfg, scores, full = warm
        small = PrecomposeConfig(bfs_depth=cfg.bfs_depth, state_budget=5)
        keys = warmup_precompose(desk_cache(desk_build), small, scores,
                                 decode_config({"beam": 10.0,
                                                "max_active": 2000}))
        assert len(keys) == 5
        assert full.num_expanded > 5


class TestFilledFromTheRootAlone:
    @pytest.mark.parametrize("method", ["bfs", "both"])
    def test_public_expansions_equal_every_users_view(self, desk_build,
                                                      desk_cfg, method):
        cache, _ = precompose_cache(desk_build, desk_cfg, method)
        views = [Session(cache, binding_for(desk_build, user)).view
                 for user in sorted(desk_build.users)]
        assert cache.num_expanded > 0 and len(views) > 1
        for state_id in sorted(cache.expanded):
            key = cache.keys[state_id]
            want = expand_pair_state(key, cache.t1, cache.root)
            for view in views:
                assert expand_pair_state(key, cache.t1, view) == want

    def test_promotion_rejects_a_bridge_state(self, desk_build):
        cache = desk_cache(desk_build)
        key = (cache.t1.start, min(cache.bridges), int(FilterState.ANY))
        with pytest.raises(InvariantError, match="non-shareable"):
            desk_cache(desk_build, [key])

    def test_promotion_compares_with_the_warmup_session(self, desk_build,
                                                        warm, monkeypatch):
        # admit every root-side key, bridge states included
        monkeypatch.setattr(PublicCache, "shareable",
                            lambda self, key: key[1] < self.root.num_states)
        cfg, scores, _ = warm
        with pytest.raises(InvariantError, match="depends on the binding"):
            warmup_precompose(desk_cache(desk_build), cfg, scores,
                              decode_config({}))

    def test_no_dead_end_reaches_pruning(self, desk_build, desk_cfg,
                                         monkeypatch):
        handed = []
        prune = decoder._prune

        def spy(tokens, cfg):
            handed.extend(tok[2] for tok in tokens.values())
            return prune(tokens, cfg)

        monkeypatch.setattr(decoder, "_prune", spy)
        precompose_cache(desk_build, desk_cfg, "both")
        assert len(handed) > 1000
        assert [e for e in handed if not e.arcs and e.final == ZERO] == []
