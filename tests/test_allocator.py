"""Tests for repro.fs.allocator — cylinder groups and interleave."""

import random
from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings, strategies as st

from repro.disk.label import Partition
from repro.fs.allocator import AllocationError, CylinderGroup, FFSAllocator
from repro.fs.ufs import FileSystem
from repro.sim.multifs import DiskSpec, MultiDiskExperiment
from repro.workload.tenancy import SharedHotSet, TenancySpec, device_profiles


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


# ---------------------------------------------------------------------------
# Lazy cylinder groups against the eager allocator they replace.
# ---------------------------------------------------------------------------


@dataclass
class EagerFFSAllocator:
    """The allocator as it was before groups were built on first use:
    every :class:`CylinderGroup` and its free map built up front, the
    group of a block found by a linear scan (the reference)."""

    total_blocks: int
    blocks_per_cylinder: int
    cylinders_per_group: int = 16
    inode_blocks_per_group: int = 2
    interleave: int = 1
    groups: list[CylinderGroup] = field(default_factory=list)

    def __post_init__(self) -> None:
        group_blocks = self.blocks_per_cylinder * self.cylinders_per_group
        first = 0
        while first < self.total_blocks:
            size = min(group_blocks, self.total_blocks - first)
            if size <= self.inode_blocks_per_group:
                break  # tail too small to be a group; leave unallocated
            self.groups.append(
                CylinderGroup(
                    index=len(self.groups),
                    first_block=first,
                    num_blocks=size,
                    inode_blocks=self.inode_blocks_per_group,
                )
            )
            first += size

    def group_of_block(self, block: int) -> CylinderGroup:
        for group in self.groups:
            if group.first_block <= block < group.end_block:
                return group
        raise ValueError(f"block {block} is outside every cylinder group")

    def _group_with_space(self, preferred: int, needed: int) -> CylinderGroup:
        groups = self.groups
        for raw_index in range(preferred, preferred + len(groups)):
            group = groups[raw_index % len(groups)]
            if group.free.count >= needed:
                return group
        raise AllocationError("file system is full")

    def allocate_file_blocks(self, num_blocks: int, group_hint: int = 0):
        groups = self.groups
        hint = group_hint % len(groups)
        free = groups[hint].free
        if num_blocks <= free.count:
            return free.take_run(0, 1 + self.interleave, num_blocks)
        blocks: list[int] = []
        remaining = num_blocks
        position = None
        while remaining > 0:
            group = self._group_with_space(hint, 1)
            if position is None or not (
                group.data_first_block <= position < group.end_block
            ):
                position = group.data_first_block - 1 - self.interleave
            run = group.allocate_run(
                position, self.interleave, min(remaining, group.free.count)
            )
            blocks.extend(run)
            position = run[-1]
            remaining -= len(run)
            hint = (group.index + 1) % len(groups)
        return blocks

    def extend_file(self, last_block: int, num_blocks: int) -> list[int]:
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
        return sum(group.free_count for group in self.groups)

    def directory_hint(self, placement: str, count: int) -> int:
        """The group ``FileSystem.make_directory`` picked for its
        ``count``-th directory over the eager groups."""
        groups = len(self.groups)
        if placement == "first-fit":
            return max(
                range(groups), key=lambda g: (self.groups[g].free_count, -g)
            )
        return int(((count * 0.6180339887498949) % 1.0) * groups) % groups


def _outcome(call, *args):
    """``call(*args)``'s result, or the type of the error it raised."""
    try:
        return call(*args)
    except (AllocationError, ValueError) as error:
        return type(error)


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["new", "extend", "release", "mkdir", "probe"]),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=10**6),
    ),
    max_size=40,
)


@settings(deadline=None, max_examples=150)
@given(
    blocks_per_cylinder=st.sampled_from([3, 5, 21]),
    cylinders_per_group=st.sampled_from([1, 4, 16]),
    num_groups=st.integers(min_value=1, max_value=8),
    tail=st.integers(min_value=0, max_value=3)
    | st.integers(min_value=0, max_value=10**6),
    interleave=st.integers(min_value=0, max_value=3),
    placement=st.sampled_from(["first-fit", "scatter"]),
    ops=_OPS,
)
def test_lazy_groups_match_the_eager_allocator(
    blocks_per_cylinder,
    cylinders_per_group,
    num_groups,
    tail,
    interleave,
    placement,
    ops,
):
    """Allocate / extend / release / make_directory sequences give the same
    blocks, per-group free maps, ``free_blocks`` and errors whether groups
    are built on first use or all up front.  The lazy allocator builds only
    groups an operation touched: a hinted group, one that held a block or
    one looked up — the directory scan and the spill search build none."""
    group_blocks = blocks_per_cylinder * cylinders_per_group
    total = num_groups * group_blocks + tail % group_blocks
    fs = FileSystem(
        partition=Partition(name="fs0", start_block=0, num_blocks=total),
        blocks_per_cylinder=blocks_per_cylinder,
        cylinders_per_group=cylinders_per_group,
        interleave=interleave,
        directory_placement=placement,
    )
    lazy = fs._allocator
    eager = EagerFFSAllocator(
        total_blocks=total,
        blocks_per_cylinder=blocks_per_cylinder,
        cylinders_per_group=cylinders_per_group,
        interleave=interleave,
    )
    assert lazy.num_groups == len(eager.groups)
    data_span = eager.groups[0].free_count
    data_sizes = [group.free_count for group in eager.groups]
    files: list[list[int]] = []
    touched: set[int] = set()
    for step, (op, a, b) in enumerate(ops):
        if op == "mkdir":
            built = set(lazy._built)
            want = eager.directory_hint(placement, len(fs.directories))
            assert fs.make_directory(f"d{step}").group_hint == want
            assert set(lazy._built) == built
            continue
        if op == "probe":
            block = (-1, total - 1, total, a % (total + 4) - 2)[b % 4]
            got = _outcome(lazy.group_of_block, block)
            want = _outcome(eager.group_of_block, block)
            if isinstance(got, CylinderGroup):
                got, want = got.index, want.index
                touched.add(got)
            assert got == want
            continue
        if op == "release" and files:
            victim = files[a % len(files)]
            released = victim[b % len(victim):]
            del victim[b % len(victim):]
            if not victim:
                files.remove(victim)
            lazy.release_blocks(released)
            eager.release_blocks(released)
            continue
        size = 1 + b % (2 * data_span + 3)
        if op == "extend" and files:
            last = files[a % len(files)][-1]
            got = _outcome(lazy.extend_file, last, size)
            want = _outcome(eager.extend_file, last, size)
        else:
            got = _outcome(lazy.allocate_file_blocks, size, a)
            want = _outcome(eager.allocate_file_blocks, size, a)
            touched.add(a % lazy.num_groups)
        assert got == want
        if isinstance(got, list):
            files.append(got)
        assert lazy.free_blocks == eager.free_blocks
        for index, group in enumerate(eager.groups):
            assert lazy.free_count(index) == group.free_count
            if group.free_count < data_sizes[index]:
                touched.add(index)
        assert set(lazy._built) <= touched
    assert lazy.free_blocks == eager.free_blocks
    for mine, theirs in zip(lazy.groups, eager.groups):
        assert (mine.first_block, mine.num_blocks) == (
            theirs.first_block,
            theirs.num_blocks,
        )
        assert mine.free._bits == theirs.free._bits


def test_fleet_device_builds_only_the_groups_it_uses():
    """Populating one fleet64 device (Fujitsu, 99 groups) builds the
    groups of its directories and of the blocks its files, the log file
    among them, were given — no others."""
    profiles = device_profiles(TenancySpec(), 64, hours=0.05)
    experiment = MultiDiskExperiment(
        [
            DiskSpec(
                disk="fujitsu",
                profile=profiles[0],
                name="disk0",
                seed=1000,
                shared_hot=SharedHotSet(fraction=0.5, seed=77),
            )
        ]
    )
    fs = experiment.rigs["disk0"].generator.fs
    allocator = fs._allocator
    start = fs.partition.start_block
    used = {directory.group_hint for directory in fs.directories.values()}
    for __, __, inode in fs.all_files():
        used.update(
            (block - start) // (allocator.blocks_per_cylinder
                                * allocator.cylinders_per_group)
            for block in inode.data_blocks
        )
    assert fs.lookup("var", "syslog").data_blocks
    assert set(allocator._built) == used
    assert len(used) < allocator.num_groups // 4
