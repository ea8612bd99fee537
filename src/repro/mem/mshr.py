"""Miss-status holding registers.

An MSHR file tracks outstanding misses per cache line so that
concurrent requests for the same line merge into one upstream fetch,
and bounds the number of in-flight misses a cache may have (extra
misses stall, which is one of the ways memory-level parallelism is
limited in the simulated cores and caches).

The file preallocates its ``capacity`` entries as a slot pool with a
free-list, mirroring the hardware structure: :meth:`allocate` pops a
free slot and re-initialises it in place, :meth:`release` detaches the
entry (the caller owns it — fill paths consume waiters/meta after
release, and may allocate the same slot count again immediately) and
:meth:`recycle` returns a detached entry's slot to the pool once the
caller is done with it, dropping its waiters and meta so an idle slot
keeps no request or callback alive.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.mem.addr import LINE_SIZE

_LINE_MASK = ~(LINE_SIZE - 1)  # line_addr(), inlined for the hot paths


class MshrEntry:
    """One outstanding line miss with its waiting callbacks."""

    __slots__ = (
        "addr", "issued_cycle", "waiters",
        # Arbitrary controller state (e.g. whether any merged request
        # was a demand access vs. only prefetches, or needs write
        # permission).
        "is_write", "is_prefetch_only", "meta",
    )

    def __init__(self, addr: int = 0, issued_cycle: int = 0) -> None:
        self.addr = addr
        self.issued_cycle = issued_cycle
        self.waiters: List[Callable[[Any], None]] = []
        self.is_write = False
        self.is_prefetch_only = True
        self.meta: dict = {}

    def _reset(self, addr: int, issued_cycle: int) -> None:
        self.addr = addr
        self.issued_cycle = issued_cycle
        self.waiters = []
        self.is_write = False
        self.is_prefetch_only = True
        self.meta = {}

    def __repr__(self) -> str:  # debugging / sanitizer reports
        return (
            f"MshrEntry(addr={self.addr:#x}, issued={self.issued_cycle}, "
            f"waiters={len(self.waiters)}, is_write={self.is_write}, "
            f"is_prefetch_only={self.is_prefetch_only})"
        )


class MshrFile:
    """A bounded set of :class:`MshrEntry`, keyed by line address.

    Entries live in a preallocated pool; the dict maps live line
    addresses to pool entries and ``_free`` holds the idle slots.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("MSHR capacity must be positive")
        self.capacity = capacity
        self._entries: Dict[int, MshrEntry] = {}
        self._free: List[MshrEntry] = [MshrEntry() for _ in range(capacity)]
        # Slots on loan to fill paths (released but not yet recycled).
        # Invariant: len(_entries) + len(_free) + _lent == capacity.
        self._lent = 0

    def lookup(self, addr: int) -> Optional[MshrEntry]:
        base = addr & _LINE_MASK
        entries = self._entries
        return entries[base] if base in entries else None

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def allocate(self, addr: int, now: int) -> MshrEntry:
        """Pop a free slot for ``addr``; raises if full or duplicate."""
        base = addr & _LINE_MASK
        entries = self._entries
        if base in entries:
            raise ValueError(f"MSHR already allocated for {base:#x}")
        free = self._free
        if free:
            entry = free.pop()
            entry._reset(base, now)
        elif self._lent:
            # All idle slots are on loan to fill paths; materialize the
            # loaned slot's replacement only now that it is needed.
            self._lent -= 1
            entry = MshrEntry(base, now)
        else:
            raise RuntimeError("MSHR file full")
        entries[base] = entry
        return entry

    def release(self, addr: int) -> MshrEntry:
        """Detach and return the entry for ``addr``.

        The caller owns the returned entry (its waiters/meta stay
        intact); its slot is replenished immediately so a new miss can
        allocate without waiting on the caller, which matches the old
        unpooled behaviour. :meth:`recycle` is therefore optional.
        """
        base = addr & _LINE_MASK
        entry = self._entries.pop(base, None)
        if entry is None:
            raise KeyError(f"no MSHR for {base:#x}")
        self._lent += 1
        return entry

    def recycle(self, entry: MshrEntry) -> None:
        """Return a detached entry's storage to the pool, repaying the
        loan :meth:`release` recorded (keeps the pool at ``capacity``
        while reusing the hot object).

        The entry's ``waiters`` and ``meta`` are dropped (set to
        ``None``; :meth:`allocate` builds fresh ones), so the caller
        must have read everything it needs from them first."""
        entry.waiters = None
        entry.meta = None
        if self._lent:
            self._lent -= 1
            self._free.append(entry)

    def __len__(self) -> int:
        return len(self._entries)

    def oldest_age(self, now: int) -> int:
        """Age in cycles of the longest-outstanding entry (0 if empty)."""
        if not self._entries:
            return 0
        return now - min(e.issued_cycle for e in self._entries.values())

    def outstanding(self) -> List[int]:
        """Line addresses with in-flight misses (test helper)."""
        return sorted(self._entries)
