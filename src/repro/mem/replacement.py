"""Cache replacement policies: LRU and Bimodal RRIP.

The paper's caches use Bimodal RRIP (BRRIP) with p = 0.03 (Table III):
re-reference interval prediction [Jaleel et al., ISCA'10] where new
lines are inserted with a *long* re-reference prediction most of the
time and a *distant* prediction otherwise, which makes the cache
scan-resistant — exactly the thrashing workloads the paper studies.

A policy manages one set of ``ways`` lines. The cache array calls
``on_fill`` / ``on_hit`` / ``victim``.
"""

from __future__ import annotations

import random
import weakref
from typing import List

# Names make_policy accepts.
POLICY_NAMES = ("lru", "brrip")


class ReplacementPolicy:
    """Per-set replacement state. One instance per cache set."""

    __slots__ = ("ways",)

    def __init__(self, ways: int) -> None:
        self.ways = ways

    def on_fill(self, way: int) -> None:
        raise NotImplementedError

    def on_hit(self, way: int) -> None:
        raise NotImplementedError

    def victim(self, valid: List[bool]) -> int:
        """Pick the way to evict. ``valid[w]`` is False for empty ways
        (which are always preferred)."""
        raise NotImplementedError


class LruPolicy(ReplacementPolicy):
    """Classic least-recently-used, tracked with a recency timestamp."""

    __slots__ = ("_stamp", "_last_use")

    def __init__(self, ways: int) -> None:
        super().__init__(ways)
        self._stamp = 0
        self._last_use = [0] * ways

    def _touch(self, way: int) -> None:
        self._stamp += 1
        self._last_use[way] = self._stamp

    def on_fill(self, way: int) -> None:
        self._touch(way)

    def on_hit(self, way: int) -> None:
        self._touch(way)

    def victim(self, valid: List[bool]) -> int:
        for way, is_valid in enumerate(valid):
            if not is_valid:
                return way
        return min(range(self.ways), key=lambda w: self._last_use[w])


class DrawTape:
    """The draws ``random.Random(seed)`` has made so far, extended on
    demand. :meth:`of` hands out one tape per live seed; a tape dies
    with the last policy that reads it. A tape's contents depend on
    its seed alone, so sharing it between arrays and chips in one
    process changes no draw any set sees."""

    __slots__ = ("draws", "_rng", "__weakref__")

    _live: "weakref.WeakValueDictionary[int, DrawTape]" = (
        weakref.WeakValueDictionary()
    )

    def __init__(self, seed: int) -> None:
        self.draws: List[float] = []
        self._rng = random.Random(seed)

    @classmethod
    def of(cls, seed: int) -> "DrawTape":
        tape = cls._live.get(seed)
        if tape is None:
            tape = cls._live[seed] = cls(seed)
        return tape

    def draw(self) -> float:
        """Make the next draw and append it to the tape."""
        value = self._rng.random()
        self.draws.append(value)
        return value


class BrripPolicy(ReplacementPolicy):
    """Bimodal RRIP with 2-bit re-reference prediction values (RRPV).

    - Hit promotes a line to RRPV 0 (near re-reference).
    - Fill inserts at RRPV 2 (long) with probability ``p``, else RRPV 3
      (distant) — the bimodal throttle that defeats thrashing.
    - Victim selection finds an RRPV-3 line, aging all lines until one
      exists.

    The random choice is deterministic per seed: the set sees exactly
    the draws of a private ``random.Random(seed)``. They are read from a
    :class:`DrawTape` that every set with the same seed shares, each
    through its own cursor, so a chip's thousands of sets hold a few
    hundred generators instead of one each.
    """

    MAX_RRPV = 3

    __slots__ = ("p", "_rrpv", "_tape", "_cursor")

    def __init__(self, ways: int, p: float = 0.03, seed: int = 0) -> None:
        super().__init__(ways)
        self.p = p
        self._rrpv = [self.MAX_RRPV] * ways
        self._tape = DrawTape.of(seed)
        self._cursor = 0

    def on_fill(self, way: int) -> None:
        i = self._cursor
        self._cursor = i + 1
        try:
            draw = self._tape.draws[i]
        except IndexError:  # this set is the first to reach draw i
            draw = self._tape.draw()
        if draw < self.p:
            self._rrpv[way] = self.MAX_RRPV - 1
        else:
            self._rrpv[way] = self.MAX_RRPV

    def on_hit(self, way: int) -> None:
        self._rrpv[way] = 0

    def victim(self, valid: List[bool]) -> int:
        for way, is_valid in enumerate(valid):
            if not is_valid:
                return way
        while True:
            for way in range(self.ways):
                if self._rrpv[way] == self.MAX_RRPV:
                    return way
            for way in range(self.ways):
                self._rrpv[way] += 1


def make_policy(name: str, ways: int, seed: int = 0) -> ReplacementPolicy:
    """Factory used by cache constructors (``"lru"`` or ``"brrip"``)."""
    if name == "lru":
        return LruPolicy(ways)
    if name == "brrip":
        return BrripPolicy(ways, seed=seed)
    raise ValueError(f"unknown replacement policy {name!r}")
