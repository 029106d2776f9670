"""Tests for repro.fs.allocator — cylinder groups and interleave."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.fs.allocator import AllocationError, CylinderGroup, FFSAllocator


def make_allocator(total_blocks=2100, blocks_per_cylinder=21, **kwargs):
    return FFSAllocator(
        total_blocks=total_blocks,
        blocks_per_cylinder=blocks_per_cylinder,
        **kwargs,
    )


class TestGroupLayout:
    def test_groups_partition_the_space(self):
        allocator = make_allocator()
        # 2100 blocks / (21 * 16 = 336 per group) = 6 groups + tail.
        covered = sum(g.num_blocks for g in allocator.groups)
        assert covered <= 2100
        firsts = [g.first_block for g in allocator.groups]
        assert firsts == sorted(firsts)
        for a, b in zip(allocator.groups, allocator.groups[1:]):
            assert a.end_block == b.first_block

    def test_inode_area_excluded_from_data(self):
        allocator = make_allocator(inode_blocks_per_group=2)
        group = allocator.groups[0]
        assert group.inode_block_numbers() == [0, 1]
        assert 0 not in group.free
        assert group.data_first_block == 2

    def test_too_small_partition_rejected(self):
        with pytest.raises(ValueError):
            FFSAllocator(total_blocks=0, blocks_per_cylinder=21)

    def test_group_of_block(self):
        allocator = make_allocator()
        assert allocator.group_of_block(0).index == 0
        assert allocator.group_of_block(336).index == 1
        with pytest.raises(ValueError):
            allocator.group_of_block(10**9)


class TestInterleave:
    def test_consecutive_file_blocks_are_gap_separated(self):
        """FFS rotdelay: successive blocks of a file sit 1 + interleave
        slots apart (Section 4.2's premise for the interleaved policy)."""
        allocator = make_allocator(interleave=1)
        blocks = allocator.allocate_file_blocks(5)
        gaps = [b - a for a, b in zip(blocks, blocks[1:])]
        assert gaps == [2, 2, 2, 2]

    def test_interleave_zero_is_contiguous(self):
        allocator = make_allocator(interleave=0)
        blocks = allocator.allocate_file_blocks(4)
        gaps = [b - a for a, b in zip(blocks, blocks[1:])]
        assert gaps == [1, 1, 1]

    def test_second_file_fills_the_gaps(self):
        allocator = make_allocator(interleave=1)
        first = allocator.allocate_file_blocks(3)
        second = allocator.allocate_file_blocks(3, group_hint=0)
        assert not set(first) & set(second)
        # The second file occupies the gap slots of the same group.
        assert allocator.group_of_block(second[0]).index == 0


class TestGroupSelection:
    def test_hint_honored_when_space_available(self):
        allocator = make_allocator()
        blocks = allocator.allocate_file_blocks(4, group_hint=3)
        assert allocator.group_of_block(blocks[0]).index == 3

    def test_spills_to_next_group_when_full(self):
        allocator = make_allocator()
        group_capacity = allocator.groups[0].free_count
        blocks = allocator.allocate_file_blocks(group_capacity + 5, group_hint=0)
        groups_used = {allocator.group_of_block(b).index for b in blocks}
        assert groups_used == {0, 1}

    def test_full_filesystem_raises(self):
        allocator = make_allocator(total_blocks=336)
        allocator.allocate_file_blocks(allocator.free_blocks)
        with pytest.raises(AllocationError):
            allocator.allocate_file_blocks(1)

    def test_zero_blocks_rejected(self):
        with pytest.raises(ValueError):
            make_allocator().allocate_file_blocks(0)


class TestExtend:
    def test_extension_continues_interleave(self):
        allocator = make_allocator(interleave=1)
        blocks = allocator.allocate_file_blocks(3)
        more = allocator.extend_file(blocks[-1], 2)
        assert more[0] - blocks[-1] == 2

    def test_extension_spills_when_group_full(self):
        allocator = make_allocator()
        capacity = allocator.groups[0].free_count
        blocks = allocator.allocate_file_blocks(capacity)
        more = allocator.extend_file(blocks[-1], 1)
        assert allocator.group_of_block(more[0]).index == 1


class TestRelease:
    def test_release_returns_blocks_to_free_pool(self):
        allocator = make_allocator()
        before = allocator.free_blocks
        blocks = allocator.allocate_file_blocks(5)
        assert allocator.free_blocks == before - 5
        allocator.release_blocks(blocks)
        assert allocator.free_blocks == before

    def test_double_release_rejected(self):
        allocator = make_allocator()
        blocks = allocator.allocate_file_blocks(1)
        allocator.release_blocks(blocks)
        with pytest.raises(ValueError):
            allocator.release_blocks(blocks)

    def test_release_inode_block_rejected(self):
        group = make_allocator().groups[0]
        with pytest.raises(ValueError):
            group.release(0)  # inode area


@settings(deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=40), max_size=25),
    hints=st.lists(st.integers(min_value=0, max_value=100), max_size=25),
)
def test_no_block_is_ever_double_allocated(sizes, hints):
    """Allocations never overlap, regardless of sizes and hints."""
    allocator = make_allocator(total_blocks=4200)
    allocated: set[int] = set()
    hints = hints + [0] * len(sizes)
    for size, hint in zip(sizes, hints):
        try:
            blocks = allocator.allocate_file_blocks(size, group_hint=hint)
        except AllocationError:
            break
        assert not set(blocks) & allocated
        allocated.update(blocks)
    # Conservation: free + allocated covers every data block exactly once.
    data_total = sum(
        g.num_blocks - g.inode_blocks for g in allocator.groups
    )
    assert allocator.free_blocks + len(allocated) == data_total


class TestCylinderGroupValidation:
    def test_inode_area_must_leave_data_room(self):
        with pytest.raises(ValueError):
            CylinderGroup(index=0, first_block=0, num_blocks=2, inode_blocks=2)


def _allocate_block_by_block(allocator, num_blocks, group_hint):
    """Reference for ``allocate_file_blocks``: one ``allocate_near`` call
    per block, group selection exactly as the allocator does it."""
    blocks = []
    remaining = num_blocks
    hint = group_hint % allocator.num_groups
    position = None
    while remaining > 0:
        group = allocator._group_with_space(hint, 1)
        if position is None or not (
            group.data_first_block <= position < group.end_block
        ):
            position = group.data_first_block - 1 - allocator.interleave
        for __ in range(min(remaining, group.free_count)):
            position = group.allocate_near(position, allocator.interleave)
            blocks.append(position)
            remaining -= 1
        hint = (group.index + 1) % allocator.num_groups
    return blocks


def _extend_block_by_block(allocator, last_block, num_blocks):
    """Reference for ``extend_file``: one ``allocate_near`` per block."""
    blocks = []
    position = last_block
    group = allocator.group_of_block(last_block)
    for __ in range(num_blocks):
        if group.free_count == 0:
            group = allocator._group_with_space(group.index + 1, 1)
            position = group.data_first_block - 1 - allocator.interleave
        position = group.allocate_near(position, allocator.interleave)
        blocks.append(position)
    return blocks


@pytest.mark.parametrize("seed", [1, 7, 1993])
@pytest.mark.parametrize("interleave", [0, 1, 3])
def test_batched_allocation_matches_block_by_block(seed, interleave):
    """The one-pass run allocation returns the same blocks, in the same
    order, as chained ``allocate_near`` calls and leaves the same free
    maps — on fragmented maps, across wrap-around inside a group and on
    spill into the next group."""
    rng = random.Random(seed)
    batched = make_allocator(total_blocks=3000, interleave=interleave)
    reference = make_allocator(total_blocks=3000, interleave=interleave)
    group_span = batched.groups[0].free_count
    files = []
    wrapped = spilled = 0
    for __ in range(300):
        op = rng.choices(["new", "extend", "release"], weights=[5, 3, 3])[0]
        if op == "release" and files:
            victim = files.pop(rng.randrange(len(files)))
            released = rng.sample(victim, rng.randint(1, len(victim)))
            batched.release_blocks(released)
            reference.release_blocks(released)
            continue
        size = rng.choice([1, 2, 5, 17, rng.randint(1, 2 * group_span)])
        if size > batched.free_blocks:
            continue
        if op == "extend" and files:
            last = rng.choice(files)[-1]
            got = batched.extend_file(last, size)
            want = _extend_block_by_block(reference, last, size)
        else:
            hint = rng.randrange(2 * batched.num_groups)
            got = batched.allocate_file_blocks(size, group_hint=hint)
            want = _allocate_block_by_block(reference, size, hint)
        assert got == want
        groups = [batched.group_of_block(b).index for b in got]
        spilled += any(a != b for a, b in zip(groups, groups[1:]))
        wrapped += any(
            b < a and ga == gb
            for a, b, ga, gb in zip(got, got[1:], groups, groups[1:])
        )
        files.append(got)
        for mine, theirs in zip(batched.groups, reference.groups):
            assert mine.free_count == theirs.free_count
            assert mine.free._bits == theirs.free._bits
    assert wrapped and spilled
