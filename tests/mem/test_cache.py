"""Tests for the set-associative cache array."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mem.cache import (
    _UNFILLED, EXCLUSIVE, INVALID, MODIFIED, SHARED, CacheArray, CacheLine,
)
from repro.mem.replacement import BrripPolicy, LruPolicy


def make_cache(size=1024, ways=2, replacement="lru"):
    return CacheArray(size, ways, replacement=replacement)


def test_miss_then_hit():
    c = make_cache()
    assert c.lookup(0x40) is None
    line, evicted = c.fill(0x40, SHARED, now=5)
    assert evicted is None
    assert line.addr == 0x40
    assert line.state == SHARED
    assert line.fill_cycle == 5
    hit = c.lookup(0x7F)  # same line
    assert hit is line


def test_fill_duplicate_rejected():
    c = make_cache()
    c.fill(0x40, SHARED)
    with pytest.raises(ValueError):
        c.fill(0x40, SHARED)


def test_eviction_returns_victim_copy():
    c = make_cache(size=256, ways=2)  # 2 sets
    sets = c.num_sets
    stride = sets * 64
    # Fill both ways of set 0, then a third line evicts the LRU one.
    first, _ = c.fill(0x0, SHARED)
    first.uses = 3
    c.fill(stride, SHARED)
    _, evicted = c.fill(2 * stride, SHARED)
    assert evicted is not None
    assert evicted.addr == 0x0
    assert evicted.uses == 3  # metadata preserved on the copy
    assert c.lookup(0x0) is None


def test_dirty_and_metadata_reset_on_fill():
    c = make_cache()
    line, _ = c.fill(0x80, MODIFIED, prefetched=True, stream_id=7, fill_flits=3)
    line.dirty = True
    line.uses = 5
    c.invalidate(0x80)
    line2, _ = c.fill(0x80, SHARED)
    assert line2.dirty is False
    assert line2.uses == 0
    assert line2.prefetched is False
    assert line2.stream_id is None
    assert line2.fill_flits == 0


def test_invalidate_returns_copy():
    c = make_cache()
    line, _ = c.fill(0xC0, EXCLUSIVE)
    line.dirty = True
    dropped = c.invalidate(0xC0)
    assert dropped.dirty is True
    assert dropped.state == EXCLUSIVE
    assert not c.contains(0xC0)
    assert c.invalidate(0xC0) is None


def test_set_mapping_isolated():
    c = make_cache(size=512, ways=2)  # 4 sets
    # Lines in different sets never evict each other.
    for i in range(4):
        c.fill(i * 64, SHARED)
    assert c.occupancy() == 4
    for i in range(4):
        assert c.contains(i * 64)


def test_lru_order_respected():
    c = make_cache(size=256, ways=2)
    sets = c.num_sets
    stride = sets * 64
    c.fill(0, SHARED)
    c.fill(stride, SHARED)
    c.lookup(0)  # refresh line 0
    _, evicted = c.fill(2 * stride, SHARED)
    assert evicted.addr == stride


def test_rejects_bad_geometry():
    with pytest.raises(ValueError):
        CacheArray(1000, 3)
    with pytest.raises(ValueError):
        CacheArray(64 * 3 * 2, 2)  # 3 sets: not a power of two


@settings(max_examples=50)
@given(st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=300))
def test_occupancy_never_exceeds_capacity(line_numbers):
    c = CacheArray(4096, 4, replacement="brrip")
    capacity = 4096 // 64
    for n in line_numbers:
        addr = n * 64
        if not c.contains(addr):
            c.fill(addr, SHARED)
        assert c.occupancy() <= capacity
    # Internal index consistent with the arrays.
    assert c.occupancy() == len(c.all_lines())


@given(st.lists(st.integers(min_value=0, max_value=1023), min_size=1, max_size=200))
def test_lookup_matches_fill_history(line_numbers):
    """A line is present iff it was filled and not evicted since."""
    c = CacheArray(2048, 2)
    present = set()
    for n in line_numbers:
        addr = n * 64
        if c.contains(addr):
            assert addr in present
            c.lookup(addr)
        else:
            _, evicted = c.fill(addr, SHARED)
            present.add(addr)
            if evicted is not None:
                present.discard(evicted.addr)
    for addr in present:
        assert c.contains(addr)


# ---------------------------------------------------------------------------
# Lazy materialization vs an eager reference array
# ---------------------------------------------------------------------------

class _PrivateRngBrrip(BrripPolicy):
    """BRRIP drawing from its own ``random.Random(seed)``, as every set
    did before the sets sharing a seed shared one draw tape."""

    __slots__ = ("_rng",)

    def __init__(self, ways, seed):
        super().__init__(ways, seed=seed)
        self._rng = random.Random(seed)

    def on_fill(self, way):
        if self._rng.random() < self.p:
            self._rrpv[way] = self.MAX_RRPV - 1
        else:
            self._rrpv[way] = self.MAX_RRPV


class EagerArray:
    """Reference array: every line and every set's policy exists from
    construction, and BRRIP sets draw from private generators."""

    def __init__(self, size_bytes, ways, replacement, seed):
        self.ways = ways
        self.num_sets = size_bytes // (ways * 64)
        self.slots = [CacheLine() for _ in range(self.num_sets * ways)]
        self.policies = [
            _PrivateRngBrrip(ways, seed + s) if replacement == "brrip"
            else LruPolicy(ways)
            for s in range(self.num_sets)
        ]
        self.where = {}

    def lookup(self, addr, touch):
        base = addr & ~63
        if base not in self.where:
            return None
        slot = self.where[base]
        if touch:
            self.policies[slot // self.ways].on_hit(slot % self.ways)
        return self.slots[slot]

    def fill(self, addr, avoid):
        base = addr & ~63
        set_idx = (addr >> 6) % self.num_sets
        first = set_idx * self.ways
        victim_way = None
        for way in range(self.ways):
            if self.slots[first + way].state == INVALID:
                victim_way = way
                break
        if victim_way is None:
            policy = self.policies[set_idx]
            valid = [True] * self.ways
            for _ in range(self.ways):
                way = policy.victim(valid)
                line = self.slots[first + way]
                if avoid is None or not avoid(line.addr):
                    victim_way = way
                    break
                policy.on_hit(way)
            else:
                raise RuntimeError("all ways pinned")
        victim = self.slots[first + victim_way]
        evicted = None
        if victim.state != INVALID:
            evicted = victim.copy()
            del self.where[victim.addr]
        fresh = CacheLine(addr=base, state=SHARED)
        for name in CacheLine.__slots__:
            setattr(victim, name, getattr(fresh, name))
        self.where[base] = first + victim_way
        self.policies[set_idx].on_fill(victim_way)
        return victim, evicted

    def invalidate(self, addr):
        slot = self.where.pop(addr & ~63, None)
        if slot is None:
            return None
        line = self.slots[slot]
        copy = line.copy()
        line.state = INVALID
        line.dirty = False
        return copy

    def all_lines(self):
        return [ln for ln in self.slots if ln.valid]


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["fill", "fill", "lookup", "peek", "invalidate"]),
        st.integers(min_value=0, max_value=63),  # line number
        st.integers(min_value=0, max_value=3),   # avoid: line number % 4 == k
    ),
    min_size=1, max_size=300,
)


_SWEEPS = [("fill", n, n % 4) for n in range(64)] * 3


def _policy_state(policy):
    return policy._rrpv if isinstance(policy, BrripPolicy) else policy._last_use


@settings(max_examples=100, deadline=None)
@given(ops=_OPS, replacement=st.sampled_from(["lru", "brrip"]),
       seed=st.integers(min_value=0, max_value=50))
@example(ops=_SWEEPS, replacement="brrip", seed=0)
@example(ops=_SWEEPS, replacement="lru", seed=0)
def test_lazy_array_matches_eager_reference(ops, replacement, seed):
    lazy = CacheArray(1024, 4, replacement=replacement, seed=seed)  # 4 sets
    ref = EagerArray(1024, 4, replacement, seed)
    for op, n, k in ops:
        addr = n * 64
        if op == "fill":
            if lazy.contains(addr):
                continue
            avoid = (lambda a, k=k: (a >> 6) % 4 == k) if n % 2 else None
            try:
                want = ref.fill(addr, avoid)
            except RuntimeError:
                with pytest.raises(RuntimeError):
                    lazy.fill(addr, SHARED, avoid=avoid)
                continue
            got = lazy.fill(addr, SHARED, avoid=avoid)
            assert got == want  # same line written, same evicted copy
            assert lazy._where == ref.where  # same victim slot
        elif op in ("lookup", "peek"):
            assert lazy.lookup(addr, touch=op == "lookup") == \
                ref.lookup(addr, touch=op == "lookup")
        else:
            assert lazy.invalidate(addr) == ref.invalidate(addr)
        assert lazy.occupancy() == len(ref.where)
        assert lazy.all_lines() == ref.all_lines()
        fresh = BrripPolicy(4) if replacement == "brrip" else LruPolicy(4)
        for lazy_policy, ref_policy in zip(lazy._policies, ref.policies):
            assert _policy_state(lazy_policy or fresh) == _policy_state(ref_policy)
    assert _UNFILLED == CacheLine()  # the shared placeholder is never written


def test_fresh_array_materializes_nothing():
    c = CacheArray(4096, 4, replacement="brrip")
    assert all(line is _UNFILLED for line in c._slots)
    assert c._policies == [None] * c.num_sets
    assert c.all_lines() == []
    c.fill(0x40, SHARED)  # set 1, way 0
    assert [i for i, ln in enumerate(c._slots) if ln is not _UNFILLED] == [4]
    assert [i for i, p in enumerate(c._policies) if p is not None] == [1]
