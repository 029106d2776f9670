"""FFS-style block allocation: cylinder groups and rotational interleave.

The paper's layouts are produced by the SunOS UFS file system, which is
"closely related to the Berkeley UNIX Fast File System" (Section 3.1).  The
two FFS behaviours that matter to the experiments are reproduced here:

* **Cylinder groups** — the partition is divided into groups of consecutive
  cylinders; a file's inode and data live in one group when possible, and
  different directories land in different groups.  This spreads hot blocks
  of *different* files widely over the disk (Section 1.1: "hot blocks from
  different files may be spread widely over the disk's surface"), which is
  precisely why rearrangement pays off.

* **Rotational interleave** — "the SunOS UNIX file system ... tries to
  place successive blocks of a file interleaved by gaps" (Section 4.2).
  Successive blocks of a file are placed ``1 + interleave`` block slots
  apart so that, after per-block processing time, the next block arrives
  under the head without a full-rotation wait.  The interleaved placement
  policy of the rearranger exists to preserve exactly this property.

Addresses produced here are *partition-relative* block numbers; the file
system layer (:mod:`repro.fs.ufs`) shifts them by the partition offset.
"""

from __future__ import annotations

from dataclasses import dataclass, field

DEFAULT_CYLINDERS_PER_GROUP = 16
DEFAULT_INODE_BLOCKS_PER_GROUP = 2
DEFAULT_INTERLEAVE = 1


class AllocationError(Exception):
    """Raised when the allocator cannot satisfy a request."""


class FreeMap:
    """Byte-per-block free map for one group's data area.

    Replaces the old ``set[int]`` of free block numbers: membership, add,
    and remove stay O(1), but the footprint is one byte per block instead
    of a hashed ``int`` object — the difference between ~150 MB and ~2 MB
    of allocator state on a two-million-block device.
    """

    __slots__ = ("_first", "_bits", "count")

    def __init__(self, first_block: int, size: int) -> None:
        self._first = first_block
        self._bits = bytearray(b"\x01") * size
        self.count = size

    def __contains__(self, block: int) -> bool:
        index = block - self._first
        return 0 <= index < len(self._bits) and bool(self._bits[index])

    def __len__(self) -> int:
        return self.count

    def __bool__(self) -> bool:
        return self.count > 0

    def remove(self, block: int) -> None:
        self._bits[block - self._first] = 0
        self.count -= 1

    def add(self, block: int) -> None:
        self._bits[block - self._first] = 1
        self.count += 1

    def next_free_index(self, start: int, stop: int | None = None) -> int:
        """Index (relative to the map start) of the first free block at or
        after ``start`` (and before ``stop``), or -1 if there is none.

        Runs as a C-level byte search, which is what keeps the forward
        scan of ``allocate_near`` affordable on million-block groups."""
        if stop is None:
            stop = len(self._bits)
        return self._bits.find(1, start, stop)

    def take_run(self, start: int, step: int, count: int) -> list[int]:
        """Take ``count`` free blocks and return their block numbers.

        The first is the first free block at or after index ``start``,
        each later one the first free block at or after the previous one
        plus ``step``; every search wraps around to the start of the map.
        This is ``count`` chained :meth:`CylinderGroup.allocate_near`
        calls run as one loop over the bytes.
        """
        if count > self.count:
            raise AllocationError("free map has fewer free blocks than asked")
        bits = self._bits
        find = bits.find
        span = len(bits)
        first = self._first
        taken: list[int] = []
        append = taken.append
        for __ in range(count):
            index = find(1, start)
            if index < 0:
                index = find(1, 0, start)
            bits[index] = 0
            append(first + index)
            start = (index + step) % span
        self.count -= count
        return taken


@dataclass
class CylinderGroup:
    """One cylinder group: an inode area followed by a data area."""

    index: int
    first_block: int
    num_blocks: int
    inode_blocks: int

    free: FreeMap = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.inode_blocks >= self.num_blocks:
            raise ValueError("inode area must leave room for data blocks")
        if self.free is None:
            self.free = FreeMap(
                self.data_first_block, self.num_blocks - self.inode_blocks
            )

    @property
    def data_first_block(self) -> int:
        return self.first_block + self.inode_blocks

    @property
    def end_block(self) -> int:
        return self.first_block + self.num_blocks

    @property
    def free_count(self) -> int:
        return self.free.count

    def inode_block_numbers(self) -> list[int]:
        return list(range(self.first_block, self.first_block + self.inode_blocks))

    def allocate_near(self, position: int, interleave: int) -> int:
        """Allocate the first free block at or after ``position`` plus the
        rotational gap, scanning forward with wrap-around within the group.

        ``position`` is the previously allocated block (or the start of the
        data area for a file's first block).
        """
        if not self.free:
            raise AllocationError(f"cylinder group {self.index} is full")
        data_first = self.data_first_block
        data_span = self.num_blocks - self.inode_blocks
        start = (position + 1 + interleave - data_first) % data_span
        # First free slot at or after the rotational gap, else wrap around
        # to the start of the data area — the same order the old
        # block-by-block scan probed, found in two C-level byte searches.
        index = self.free.next_free_index(start)
        if index < 0:
            index = self.free.next_free_index(0, start)
        if index < 0:
            raise AllocationError(f"cylinder group {self.index} is full")
        candidate = data_first + index
        self.free.remove(candidate)
        return candidate

    def allocate_run(
        self, position: int, interleave: int, count: int
    ) -> list[int]:
        """``count`` blocks, each placed by :meth:`allocate_near` after the
        one before it (the first after ``position``), in one pass."""
        step = 1 + interleave
        start = (position + step - self.data_first_block) % (
            self.num_blocks - self.inode_blocks
        )
        return self.free.take_run(start, step, count)

    def release(self, block: int) -> None:
        if not self.data_first_block <= block < self.end_block:
            raise ValueError(f"block {block} is not in group {self.index}")
        if block in self.free:
            raise ValueError(f"block {block} is already free")
        self.free.add(block)


@dataclass
class FFSAllocator:
    """Cylinder-group allocator over a partition of ``total_blocks``.

    The group layout is arithmetic: group ``i`` covers the
    ``blocks_per_cylinder * cylinders_per_group`` blocks from
    ``i`` times that size, and a tail too small to hold more than an
    inode area is left unallocated.  A group's :class:`CylinderGroup` and
    its :class:`FreeMap` are built the first time an allocation, release
    or inode lookup touches it; until then its data area is wholly free,
    which :meth:`free_count` reports without building it.  A device's
    allocator state is therefore set by the groups its files use, not by
    the size of the disk.
    """

    total_blocks: int
    blocks_per_cylinder: int
    cylinders_per_group: int = DEFAULT_CYLINDERS_PER_GROUP
    inode_blocks_per_group: int = DEFAULT_INODE_BLOCKS_PER_GROUP
    interleave: int = DEFAULT_INTERLEAVE
    num_groups: int = field(init=False)
    _built: dict[int, CylinderGroup] = field(
        default_factory=dict, init=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.total_blocks <= 0:
            raise ValueError("partition must contain at least one block")
        group_blocks = self.blocks_per_cylinder * self.cylinders_per_group
        if group_blocks <= self.inode_blocks_per_group:
            raise ValueError("cylinder group too small for its inode area")
        full, tail = divmod(self.total_blocks, group_blocks)
        self.num_groups = full + (tail > self.inode_blocks_per_group)
        if not self.num_groups:
            raise ValueError("partition too small for any cylinder group")
        self._group_blocks = group_blocks
        self._end_block = min(self.num_groups * group_blocks, self.total_blocks)
        # Free data blocks in the groups not built yet.
        self._untouched_free = (
            self._end_block - self.num_groups * self.inode_blocks_per_group
        )

    def group(self, index: int) -> CylinderGroup:
        """Group ``index``, built with a wholly free data area on first use."""
        group = self._built.get(index)
        if group is None:
            if not 0 <= index < self.num_groups:
                raise IndexError(f"no cylinder group {index}")
            first = index * self._group_blocks
            group = CylinderGroup(
                index=index,
                first_block=first,
                num_blocks=min(self._group_blocks, self.total_blocks - first),
                inode_blocks=self.inode_blocks_per_group,
            )
            self._built[index] = group
            self._untouched_free -= group.free.count
        return group

    def free_count(self, index: int) -> int:
        """Free data blocks in group ``index``, building nothing."""
        group = self._built.get(index)
        if group is not None:
            return group.free.count
        first = index * self._group_blocks
        return (
            min(self._group_blocks, self.total_blocks - first)
            - self.inode_blocks_per_group
        )

    @property
    def groups(self) -> list[CylinderGroup]:
        """Every group in index order, building the untouched ones.

        For inspection only: the allocation paths build just the groups
        they touch."""
        return [self.group(index) for index in range(self.num_groups)]

    def group_of_block(self, block: int) -> CylinderGroup:
        if not 0 <= block < self._end_block:
            raise ValueError(f"block {block} is outside every cylinder group")
        return self.group(block // self._group_blocks)

    def _group_with_space(self, preferred: int, needed: int) -> CylinderGroup:
        """Preferred group if it has room, else the next group that does."""
        num_groups = self.num_groups
        free_count = self.free_count
        for raw_index in range(preferred, preferred + num_groups):
            index = raw_index % num_groups
            if free_count(index) >= needed:
                return self.group(index)
        raise AllocationError("file system is full")

    def allocate_file_blocks(
        self, num_blocks: int, group_hint: int = 0
    ) -> list[int]:
        """Allocate ``num_blocks`` for a new file, interleaved, preferring
        the hinted cylinder group and spilling to later groups when full."""
        if num_blocks <= 0:
            raise ValueError("num_blocks must be positive")
        num_groups = self.num_groups
        interleave = self.interleave
        hint = group_hint % num_groups
        free = self.group(hint).free
        if num_blocks <= free.count:
            # The file fits its preferred group: the loop below would take
            # one run from the start of the group's data area.
            return free.take_run(0, 1 + interleave, num_blocks)
        blocks: list[int] = []
        remaining = num_blocks
        position: int | None = None
        while remaining > 0:
            group = self._group_with_space(hint, 1)
            if position is None or not (
                group.data_first_block <= position < group.end_block
            ):
                position = group.data_first_block - 1 - interleave
            run = group.allocate_run(
                position, interleave, min(remaining, group.free.count)
            )
            blocks.extend(run)
            position = run[-1]
            remaining -= len(run)
            hint = (group.index + 1) % num_groups
        return blocks

    def extend_file(self, last_block: int, num_blocks: int) -> list[int]:
        """Allocate blocks appended to a file whose tail is ``last_block``."""
        if num_blocks <= 0:
            raise ValueError("num_blocks must be positive")
        blocks: list[int] = []
        position = last_block
        group = self.group_of_block(last_block)
        remaining = num_blocks
        while remaining > 0:
            if group.free_count == 0:
                group = self._group_with_space(group.index + 1, 1)
                position = group.data_first_block - 1 - self.interleave
            run = group.allocate_run(
                position, self.interleave, min(remaining, group.free_count)
            )
            blocks.extend(run)
            position = run[-1]
            remaining -= len(run)
        return blocks

    def release_blocks(self, blocks: list[int]) -> None:
        for block in blocks:
            self.group_of_block(block).release(block)

    @property
    def free_blocks(self) -> int:
        return self._untouched_free + sum(
            group.free.count for group in self._built.values()
        )
