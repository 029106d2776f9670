"""The main-memory buffer cache with a periodic update (sync) policy.

Section 3.1: "All file I/O goes through the buffer cache ... a read request
is forwarded to the disk only in case the block is not found in the cache
... the system does not immediately write modified blocks back to the disk
... periodically, all dirty blocks are copied back to the disk."

That periodic flush is what makes the measured write arrival pattern
bursty, which in turn drives the paper's waiting-time results (Section
5.2).  :class:`BufferCache` is an LRU write-back cache over logical blocks;
:meth:`sync` returns (and cleans) the dirty set, which the workload
generator turns into a batch arrival at the driver.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass, field


@dataclass
class BufferCache:
    """LRU write-back cache of logical device blocks."""

    capacity_blocks: int
    hits: int = 0
    misses: int = 0
    write_backs: int = 0
    _entries: OrderedDict[int, bool] = field(default_factory=OrderedDict)

    def __post_init__(self) -> None:
        if self.capacity_blocks <= 0:
            raise ValueError("cache must hold at least one block")

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, block: int) -> bool:
        return block in self._entries

    # ------------------------------------------------------------------
    # The file-system-facing operations
    # ------------------------------------------------------------------

    def read(self, block: int) -> bool:
        """Probe for a read.  Returns True on a hit.

        On a miss the block is brought into the cache (the caller is
        responsible for issuing the disk read); an evicted dirty block is
        counted as an immediate write-back and returned by the *next*
        :meth:`sync` — real systems write it out at eviction, and
        :meth:`read_with_eviction` exposes that variant.
        """
        hit, __ = self.read_with_eviction(block)
        return hit

    def read_with_eviction(self, block: int) -> tuple[bool, int | None]:
        """Probe for a read; also report an evicted dirty block, if any."""
        if block in self._entries:
            self._entries.move_to_end(block)
            self.hits += 1
            return True, None
        self.misses += 1
        evicted = self._insert(block, dirty=False)
        return False, evicted

    def write(self, block: int) -> int | None:
        """Dirty ``block`` in the cache (write-back, no disk I/O yet).

        Returns an evicted dirty block if the insertion displaced one.
        """
        if block in self._entries:
            self._entries.move_to_end(block)
            self._entries[block] = True
            self.hits += 1
            return None
        self.misses += 1
        return self._insert(block, dirty=True)

    def write_many(self, blocks: Sequence[int]) -> list[int]:
        """:meth:`write` each of ``blocks`` in order.

        Returns the evicted dirty blocks in eviction order; the cache and
        its counters end exactly as after the one-at-a-time writes.
        """
        entries = self._entries
        capacity = self.capacity_blocks
        evicted: list[int] = []
        hits = 0
        for block in blocks:
            if block in entries:
                entries.move_to_end(block)
                entries[block] = True
                hits += 1
                continue
            if len(entries) >= capacity:
                old_block, old_dirty = entries.popitem(last=False)
                if old_dirty:
                    evicted.append(old_block)
            entries[block] = True
        self.hits += hits
        self.misses += len(blocks) - hits
        self.write_backs += len(evicted)
        return evicted

    def _insert(self, block: int, dirty: bool) -> int | None:
        evicted_dirty: int | None = None
        if len(self._entries) >= self.capacity_blocks:
            old_block, old_dirty = self._entries.popitem(last=False)
            if old_dirty:
                self.write_backs += 1
                evicted_dirty = old_block
        self._entries[block] = dirty
        return evicted_dirty

    # ------------------------------------------------------------------
    # The periodic update policy
    # ------------------------------------------------------------------

    def dirty_blocks(self) -> list[int]:
        return [block for block, dirty in self._entries.items() if dirty]

    def sync(self) -> list[int]:
        """Flush: return every dirty block (in LRU order) and mark it clean.

        The caller issues the returned blocks to the driver as one burst.
        """
        dirty = self.dirty_blocks()
        for block in dirty:
            self._entries[block] = False
        self.write_backs += len(dirty)
        return dirty

    def invalidate(self, block: int) -> None:
        self._entries.pop(block, None)

    def clear(self) -> None:
        self._entries.clear()

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.hits / total
