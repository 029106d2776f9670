"""Tests for repro.disk.label — virtual disks and the reserved area."""

import pytest
from hypothesis import given, strategies as st

from repro.disk.label import (
    BLOCK_TABLE_BLOCKS,
    REARRANGED_MAGIC,
    DiskLabel,
)
from repro.disk.models import FUJITSU_M2266, TOSHIBA_MK156F


def toshiba_label(reserved=48):
    return DiskLabel(TOSHIBA_MK156F.geometry, reserved_cylinders=reserved)


class TestPlainLabel:
    def test_not_rearranged_without_reserved_cylinders(self):
        label = toshiba_label(0)
        assert not label.is_rearranged
        assert label.magic is None
        assert label.virtual_cylinders == 815
        assert label.reserved_capacity_blocks() == 0
        assert label.block_table_home_blocks() == ()

    def test_identity_mapping(self):
        label = toshiba_label(0)
        for block in (0, 1000, label.virtual_total_blocks - 1):
            assert label.virtual_to_physical_block(block) == block


class TestRearrangedLabel:
    def test_marked_rearranged(self):
        label = toshiba_label()
        assert label.is_rearranged
        assert label.magic == REARRANGED_MAGIC

    def test_virtual_disk_shrinks(self):
        label = toshiba_label()
        assert label.virtual_cylinders == 815 - 48
        assert label.virtual_total_blocks == (815 - 48) * 21

    def test_reserved_area_centered_by_default(self):
        label = toshiba_label()
        assert label.reserved_start_cylinder == (815 - 48) // 2 == 383
        assert label.reserved_end_cylinder == 383 + 48

    def test_explicit_start_cylinder(self):
        label = DiskLabel(
            TOSHIBA_MK156F.geometry,
            reserved_cylinders=48,
            reserved_start_cylinder=767,
        )
        assert label.reserved_end_cylinder == 815

    def test_reserved_area_paper_capacity(self):
        """The paper: ~1000 8K blocks fit in the Toshiba's 48 reserved
        cylinders; ~50 MB in the Fujitsu's 80."""
        label = toshiba_label()
        assert 48 * 21 == 1008
        assert label.reserved_capacity_blocks() == 1008 - BLOCK_TABLE_BLOCKS
        fuji = DiskLabel(FUJITSU_M2266.geometry, reserved_cylinders=80)
        reserved_bytes = 80 * 79 * 8192
        assert reserved_bytes == pytest.approx(50e6, rel=0.05)

    def test_mapping_skips_reserved_cylinders(self):
        label = toshiba_label()
        per_cyl = 21
        below = 382 * per_cyl  # first block of virtual cylinder 382
        at_boundary = 383 * per_cyl  # first block of virtual cylinder 383
        assert label.virtual_to_physical_block(below) == below
        assert (
            label.virtual_to_physical_block(at_boundary)
            == (383 + 48) * per_cyl
        )

    def test_mapping_never_lands_in_reserved_area(self):
        label = toshiba_label()
        for virtual in range(0, label.virtual_total_blocks, 97):
            physical = label.virtual_to_physical_block(virtual)
            assert not label.is_reserved_block(physical)

    def test_roundtrip_mapping(self):
        label = toshiba_label()
        for virtual in (0, 5000, 8000, label.virtual_total_blocks - 1):
            physical = label.virtual_to_physical_block(virtual)
            assert label.physical_to_virtual_block(physical) == virtual

    def test_physical_to_virtual_rejects_reserved(self):
        label = toshiba_label()
        reserved_block = label.reserved_data_blocks()[0]
        with pytest.raises(ValueError):
            label.physical_to_virtual_block(reserved_block)

    def test_out_of_range_rejected(self):
        label = toshiba_label()
        with pytest.raises(ValueError):
            label.virtual_to_physical_block(label.virtual_total_blocks)
        with pytest.raises(ValueError):
            label.virtual_to_physical_block(-1)


class TestReservedLayout:
    def test_block_table_home_blocks_at_start_of_reserved_area(self):
        label = toshiba_label()
        homes = label.block_table_home_blocks()
        assert len(homes) == BLOCK_TABLE_BLOCKS
        first_reserved_cyl_blocks = TOSHIBA_MK156F.geometry.blocks_of_cylinder(
            label.reserved_start_cylinder
        )
        assert homes[0] == first_reserved_cyl_blocks[0]

    @pytest.mark.parametrize("model", [TOSHIBA_MK156F, FUJITSU_M2266])
    @pytest.mark.parametrize("start", [None, 0, 700])
    def test_block_table_homes_computed_once(self, model, start):
        label = DiskLabel(
            model.geometry, reserved_cylinders=48, reserved_start_cylinder=start
        )
        homes = label.block_table_home_blocks()
        first = model.geometry.blocks_of_cylinder(label.reserved_start_cylinder)[0]
        assert homes == tuple(range(first, first + BLOCK_TABLE_BLOCKS))
        assert label.block_table_home_blocks() is homes

    def test_data_blocks_exclude_table_homes(self):
        label = toshiba_label()
        data = set(label.reserved_data_blocks())
        for home in label.block_table_home_blocks():
            assert home not in data

    def test_data_blocks_all_reserved(self):
        label = toshiba_label()
        for block in label.reserved_data_blocks():
            assert label.is_reserved_block(block)

    def test_capacity_matches_data_blocks(self):
        label = toshiba_label()
        assert len(label.reserved_data_blocks()) == label.reserved_capacity_blocks()

    def test_center_cylinder(self):
        label = toshiba_label()
        assert label.reserved_center_cylinder() == 383 + 24

    def test_center_cylinder_requires_reserved_area(self):
        with pytest.raises(ValueError):
            toshiba_label(0).reserved_center_cylinder()


class TestPartitions:
    def test_sequential_partitions(self):
        label = toshiba_label()
        a = label.add_partition("a", 1000)
        b = label.add_partition("b", 2000)
        assert a.start_block == 0
        assert b.start_block == 1000
        assert label.partition("b") is b

    def test_explicit_start(self):
        label = toshiba_label()
        p = label.add_partition("home", 500, start_block=4242)
        assert p.start_block == 4242
        assert p.contains(4242)
        assert not p.contains(4242 + 500)

    def test_overflow_rejected(self):
        label = toshiba_label()
        with pytest.raises(ValueError):
            label.add_partition("big", label.virtual_total_blocks + 1)

    def test_unknown_partition(self):
        with pytest.raises(KeyError):
            toshiba_label().partition("nope")


class TestValidation:
    def test_reserved_must_leave_visible_cylinders(self):
        with pytest.raises(ValueError):
            DiskLabel(TOSHIBA_MK156F.geometry, reserved_cylinders=815)

    def test_reserved_must_fit(self):
        with pytest.raises(ValueError):
            DiskLabel(
                TOSHIBA_MK156F.geometry,
                reserved_cylinders=48,
                reserved_start_cylinder=800,
            )


@given(virtual=st.integers(min_value=0, max_value=(815 - 48) * 21 - 1))
def test_mapping_bijection_property(virtual):
    """virtual -> physical -> virtual is the identity, and the physical
    block is never inside the reserved area."""
    label = toshiba_label()
    physical = label.virtual_to_physical_block(virtual)
    assert not label.is_reserved_block(physical)
    assert label.physical_to_virtual_block(physical) == virtual


@given(
    reserved=st.integers(min_value=1, max_value=400),
    virtual=st.integers(min_value=0, max_value=10**6),
)
def test_mapping_bijection_any_reserved_size(reserved, virtual):
    label = DiskLabel(TOSHIBA_MK156F.geometry, reserved_cylinders=reserved)
    virtual %= label.virtual_total_blocks
    physical = label.virtual_to_physical_block(virtual)
    assert label.physical_to_virtual_block(physical) == virtual
