"""Set-associative cache array with the metadata the paper measures.

This is the tag/data bookkeeping shared by L1, L2 and L3 controllers.
Beyond the usual state, each line tracks:

- ``uses``: demand accesses since fill — a line evicted with
  ``uses <= 1`` (the fill's own demand use) counts as *evicted without
  reuse*, the quantity in Figure 2a;
- ``stream_id``: the stream that brought the line in (the paper extends
  the private-cache tag array with a 4-bit stream id, §IV-D), used both
  for the reuse-history float policy and for Figure 2a's "stream"
  fraction;
- ``prefetched``: whether a prefetcher (not a demand miss) filled it,
  for prefetch accuracy accounting;
- ``fill_flits``: NoC flits spent bringing the line in, so eviction-
  without-reuse traffic (Figure 2b) can be attributed per line.

The array keeps one flat slot list (slot = ``set * ways + way``) and a
line-base -> slot map, so lookups are one dict probe + one list index
with no nested containers on the hot path. State is materialized on
first fill: a slot holds the shared placeholder ``_UNFILLED`` until a
line is first filled into it, and a set gets its replacement policy
when its way 0 is first filled. Ways fill lowest-first, so the
materialized ways of a set are always a prefix of it, and a run pays
only for the sets it touches (a paper-geometry chip fills about a
quarter of its slots).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.mem.addr import LINE_SIZE, line_addr
from repro.mem.replacement import POLICY_NAMES, ReplacementPolicy, make_policy

# Coherence states (MESI). The same enum serves private caches and the
# LLC/directory; not every state is meaningful at every level.
INVALID = "I"
SHARED = "S"
EXCLUSIVE = "E"
MODIFIED = "M"


class CacheLine:
    """One cache line's tag entry."""

    __slots__ = (
        "addr", "state", "dirty",
        # --- accounting used by the paper's measurements ---
        "fill_cycle", "uses", "prefetched", "stream_id",
        "fill_flits",       # data flits spent filling the line
        "fill_flits_ctrl",  # control flits spent filling the line
        "seq_num",          # aliasing-window sequence tag (§IV-E)
        "writable",         # L1-level hint: backing L2 state is M/E
    )

    def __init__(
        self,
        addr: int = 0,
        state: str = INVALID,
        dirty: bool = False,
        fill_cycle: int = 0,
        uses: int = 0,
        prefetched: bool = False,
        stream_id: Optional[int] = None,
        fill_flits: int = 0,
        fill_flits_ctrl: int = 0,
        seq_num: int = 0,
        writable: bool = False,
    ) -> None:
        self.addr = addr
        self.state = state
        self.dirty = dirty
        self.fill_cycle = fill_cycle
        self.uses = uses
        self.prefetched = prefetched
        self.stream_id = stream_id
        self.fill_flits = fill_flits
        self.fill_flits_ctrl = fill_flits_ctrl
        self.seq_num = seq_num
        self.writable = writable

    @property
    def valid(self) -> bool:
        return self.state != INVALID

    def copy(self) -> "CacheLine":
        """Snapshot for post-eviction accounting."""
        dup = CacheLine.__new__(CacheLine)
        dup.addr = self.addr
        dup.state = self.state
        dup.dirty = self.dirty
        dup.fill_cycle = self.fill_cycle
        dup.uses = self.uses
        dup.prefetched = self.prefetched
        dup.stream_id = self.stream_id
        dup.fill_flits = self.fill_flits
        dup.fill_flits_ctrl = self.fill_flits_ctrl
        dup.seq_num = self.seq_num
        dup.writable = self.writable
        return dup

    def __repr__(self) -> str:  # debugging / sanitizer reports
        return (
            f"CacheLine(addr={self.addr:#x}, state={self.state!r}, "
            f"dirty={self.dirty}, uses={self.uses}, "
            f"stream_id={self.stream_id}, prefetched={self.prefetched})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CacheLine):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name)
            for name in CacheLine.__slots__
        )


# Every never-filled slot of every array holds this one line. It is
# INVALID, so the free-way scan takes it like any empty way, and it is
# never written: fill() puts a new line in its place. (A None
# placeholder would cost a test per way, or make the scan's
# ``line.state`` load see two types, which measured 3% slower runs.)
_UNFILLED = CacheLine()


class CacheArray:
    """A set-associative array of :class:`CacheLine`.

    The array does pure tag management: controllers decide when to
    look up, fill and evict, and own all timing and messaging.
    """

    def __init__(
        self,
        size_bytes: int,
        ways: int,
        replacement: str = "lru",
        seed: int = 0,
        set_index_fn=None,
    ) -> None:
        """``set_index_fn(addr) -> int`` overrides the default set
        index (line number). L3 banks use it to index by *bank-local*
        line number, so the NUCA interleave bits don't alias away most
        of the bank's sets."""
        if size_bytes % (ways * LINE_SIZE):
            raise ValueError(
                f"size {size_bytes} not divisible into {ways}-way sets of "
                f"{LINE_SIZE}B lines"
            )
        self.size_bytes = size_bytes
        self.ways = ways
        self.num_sets = size_bytes // (ways * LINE_SIZE)
        if self.num_sets & (self.num_sets - 1):
            raise ValueError(f"number of sets ({self.num_sets}) must be a power of two")
        if replacement not in POLICY_NAMES:
            raise ValueError(f"unknown replacement policy {replacement!r}")
        # Flat slot array: slot = set_idx * ways + way. Slots hold
        # _UNFILLED and policies None until first filled.
        self._slots: List[CacheLine] = [_UNFILLED] * (self.num_sets * ways)
        self._policies: List[Optional[ReplacementPolicy]] = [None] * self.num_sets
        self._replacement = replacement
        self._seed = seed
        self._set_index_fn = set_index_fn
        self._set_mask = self.num_sets - 1
        # Map line base address -> flat slot for O(1) lookups.
        self._where: Dict[int, int] = {}
        # Shared all-valid vector for pick_victim's no-free-way case;
        # policies only read it, so one instance serves every set.
        self._all_valid = [True] * ways

    def set_of(self, addr: int) -> int:
        if self._set_index_fn is not None:
            return self._set_index_fn(addr) & self._set_mask
        return (addr >> 6) & self._set_mask

    def lookup(self, addr: int, touch: bool = True) -> Optional[CacheLine]:
        """Return the line holding ``addr``, updating recency if
        ``touch``; ``None`` on miss."""
        base = addr & ~(LINE_SIZE - 1)
        where = self._where
        if base not in where:
            return None
        slot = where[base]
        if touch:
            ways = self.ways
            self._policies[slot // ways].on_hit(slot % ways)
        return self._slots[slot]

    def contains(self, addr: int) -> bool:
        return addr & ~(LINE_SIZE - 1) in self._where

    def pick_victim(self, addr: int, avoid=None) -> Tuple[int, CacheLine]:
        """Choose (way, line) to evict so ``addr`` can be filled.

        Does not modify state; the caller should handle writeback of a
        valid victim, then call :meth:`fill`. ``line`` is the shared
        ``_UNFILLED`` placeholder when the way has never been filled;
        :meth:`fill` replaces it with a new line. ``avoid`` is an optional
        predicate over line addresses; lines it matches (e.g. lines
        with in-flight transactions) are skipped unless every way
        matches, in which case a RuntimeError is raised.
        """
        set_idx = self.set_of(addr)
        base_slot = set_idx * self.ways
        slots = self._slots
        nways = self.ways
        # Free-way fast scan: both policies prefer the lowest-index
        # invalid way, so finding one here short-circuits the policy
        # (and the per-fill validity vector) entirely. A never-filled
        # way holds _UNFILLED, which is INVALID too.
        for way in range(nways):
            line = slots[base_slot + way]
            if line.state == INVALID:
                return way, line
        valid = self._all_valid
        policy = self._policies[set_idx]
        for _attempt in range(nways):
            way = policy.victim(valid)
            line = slots[base_slot + way]
            if avoid is None or not line.valid or not avoid(line.addr):
                return way, line
            # Pinned: make it most-recently-used and try again.
            policy.on_hit(way)
        raise RuntimeError(f"all ways pinned in set {set_idx}")

    def fill(
        self,
        addr: int,
        state: str,
        now: int = 0,
        prefetched: bool = False,
        stream_id: Optional[int] = None,
        fill_flits: int = 0,
        fill_flits_ctrl: int = 0,
        avoid=None,
    ) -> Tuple[CacheLine, Optional[CacheLine]]:
        """Insert ``addr``; returns (new_line, evicted_copy_or_None).

        The evicted line is returned as a *copy* holding its final
        metadata so the controller can account for it after the slot
        has been reused. ``avoid`` is forwarded to :meth:`pick_victim`.
        """
        base = addr & ~(LINE_SIZE - 1)
        if base in self._where:
            raise ValueError(f"fill of already-present line {base:#x}")
        set_idx = self.set_of(addr)
        way, victim = self.pick_victim(addr, avoid=avoid)
        evicted: Optional[CacheLine] = None
        if victim is _UNFILLED:
            # First fill of this way: every field is written below.
            victim = CacheLine.__new__(CacheLine)
            self._slots[set_idx * self.ways + way] = victim
            if way == 0:
                self._policies[set_idx] = make_policy(
                    self._replacement, self.ways, seed=self._seed + set_idx)
        elif victim.state != INVALID:
            evicted = victim.copy()
            del self._where[victim.addr]
        victim.addr = base
        victim.state = state
        victim.dirty = False
        victim.fill_cycle = now
        victim.uses = 0
        victim.prefetched = prefetched
        victim.stream_id = stream_id
        victim.fill_flits = fill_flits
        victim.fill_flits_ctrl = fill_flits_ctrl
        victim.seq_num = 0
        victim.writable = False
        self._where[base] = set_idx * self.ways + way
        self._policies[set_idx].on_fill(way)
        return victim, evicted

    def invalidate(self, addr: int) -> Optional[CacheLine]:
        """Drop ``addr`` if present; returns a copy of the dropped line."""
        slot = self._where.pop(line_addr(addr), None)
        if slot is None:
            return None
        line = self._slots[slot]
        copy = line.copy()
        line.state = INVALID
        line.dirty = False
        return copy

    def all_lines(self) -> List[CacheLine]:
        """All valid lines (test/debug helper)."""
        return [ln for ln in self._slots if ln.valid]

    def occupancy(self) -> int:
        return len(self._where)

    def __len__(self) -> int:
        return len(self._where)
