"""Tests for LRU and Bimodal RRIP replacement."""

import random

from hypothesis import given
from hypothesis import strategies as st

from repro.mem.replacement import BrripPolicy, LruPolicy, make_policy


class TestLru:
    def test_prefers_invalid_ways(self):
        lru = LruPolicy(4)
        assert lru.victim([True, False, True, True]) == 1

    def test_evicts_least_recent(self):
        lru = LruPolicy(4)
        for way in range(4):
            lru.on_fill(way)
        lru.on_hit(0)  # 1 now oldest
        assert lru.victim([True] * 4) == 1

    def test_hit_refreshes(self):
        lru = LruPolicy(2)
        lru.on_fill(0)
        lru.on_fill(1)
        lru.on_hit(0)
        assert lru.victim([True, True]) == 1


class TestBrrip:
    def test_prefers_invalid_ways(self):
        pol = BrripPolicy(4)
        assert pol.victim([True, True, False, True]) == 2

    def test_distant_insertion_is_default_victim(self):
        # With p=0 every fill is distant (RRPV 3) and evictable at once.
        pol = BrripPolicy(2, p=0.0)
        pol.on_fill(0)
        pol.on_fill(1)
        pol.on_hit(0)
        assert pol.victim([True, True]) == 1

    def test_hit_protects_line(self):
        pol = BrripPolicy(2, p=0.0)
        pol.on_fill(0)
        pol.on_fill(1)
        pol.on_hit(0)
        pol.on_hit(1)
        # Both protected: aging must still find a victim.
        victim = pol.victim([True, True])
        assert victim in (0, 1)

    def test_long_insertion_with_p_one(self):
        pol = BrripPolicy(2, p=1.0)
        pol.on_fill(0)  # RRPV 2
        pol.on_fill(1)  # RRPV 2
        # Aging makes both 3; way 0 picked first deterministically.
        assert pol.victim([True, True]) == 0

    def test_deterministic_given_seed(self):
        a = BrripPolicy(8, p=0.5, seed=42)
        b = BrripPolicy(8, p=0.5, seed=42)
        for way in range(8):
            a.on_fill(way)
            b.on_fill(way)
        assert a._rrpv == b._rrpv

    @given(st.lists(st.booleans(), min_size=1, max_size=300),
           st.integers(min_value=0, max_value=1000))
    def test_same_seed_sets_share_one_tape(self, schedule, seed):
        """Two sets with one seed, filled interleaved, each insert
        exactly as a private ``random.Random(seed)`` would."""
        pols = [BrripPolicy(4, p=0.5, seed=seed) for _ in range(2)]
        assert pols[0]._tape is pols[1]._tape
        private = [random.Random(seed), random.Random(seed)]
        fills = [0, 0]
        for which in schedule:
            way = fills[which] % 4
            fills[which] += 1
            pols[which].on_fill(way)
            want = 2 if private[which].random() < 0.5 else 3
            assert pols[which]._rrpv[way] == want

    @given(st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=200))
    def test_victim_always_valid_way(self, hits):
        pol = BrripPolicy(8, p=0.03, seed=1)
        for way in range(8):
            pol.on_fill(way)
        for way in hits:
            pol.on_hit(way)
        assert 0 <= pol.victim([True] * 8) < 8


def test_factory():
    assert isinstance(make_policy("lru", 4), LruPolicy)
    assert isinstance(make_policy("brrip", 4), BrripPolicy)


def test_factory_rejects_unknown():
    import pytest

    with pytest.raises(ValueError):
        make_policy("plru", 4)
