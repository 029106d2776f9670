"""Tests for repro.driver.blocktable — redirection map and recovery.

The :class:`BlockTable` and the dict-of-entries
:class:`DictBlockTable` defined here (the oracle: the original
implementation, kept as the executable specification) must pass the same
contract tests, and a randomized mirror test drives them through
identical add/remove/dirty/flush/crash/recover interleavings (seeded like
the fault stress suite; reproduce with ``FAULT_STRESS_SEED=<n>``) and
requires identical observable state after every step.
"""

import os
import random
from dataclasses import dataclass, field

import pytest
from hypothesis import given, strategies as st

from repro.driver.blocktable import BlockTable, BlockTableEntry


@dataclass
class DictBlockTable:
    """The original dict-of-entries block table (reference implementation).

    Semantically identical to :class:`BlockTable`; kept as the executable
    specification for the equivalence tests.  Unlike :class:`BlockTable`,
    :meth:`entries`/:meth:`lookup` return the *live* entry objects.
    """

    capacity: int | None = None
    _by_original: dict[int, BlockTableEntry] = field(default_factory=dict)
    _by_reserved: dict[int, int] = field(default_factory=dict)
    _disk_copy: dict[int, tuple[int, bool]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # In-memory operations
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._by_original)

    def __contains__(self, original_block: int) -> bool:
        return original_block in self._by_original

    def reserved_of(self, original_block: int) -> int:
        entry = self._by_original.get(original_block)
        return -1 if entry is None else entry.reserved_block

    def lookup(self, original_block: int) -> BlockTableEntry | None:
        """Entry for ``original_block``, or None if it is not rearranged."""
        return self._by_original.get(original_block)

    def original_of(self, reserved_block: int) -> int | None:
        """Original home of the block stored at ``reserved_block``."""
        return self._by_reserved.get(reserved_block)

    def add(self, original_block: int, reserved_block: int) -> BlockTableEntry:
        """Register a block just copied into the reserved area (clean)."""
        if original_block in self._by_original:
            raise ValueError(f"block {original_block} is already rearranged")
        if reserved_block in self._by_reserved:
            raise ValueError(
                f"reserved block {reserved_block} is already occupied"
            )
        if self.capacity is not None and len(self) >= self.capacity:
            raise ValueError("block table is full")
        entry = BlockTableEntry(original_block, reserved_block)
        self._by_original[original_block] = entry
        self._by_reserved[reserved_block] = original_block
        return entry

    def remove(self, original_block: int) -> BlockTableEntry:
        """Drop the entry for a block moved back to its original home."""
        try:
            entry = self._by_original.pop(original_block)
        except KeyError:
            raise KeyError(
                f"block {original_block} is not in the block table"
            ) from None
        del self._by_reserved[entry.reserved_block]
        return entry

    def mark_dirty(self, original_block: int) -> None:
        """Record that the reserved-area copy has been updated."""
        entry = self._by_original.get(original_block)
        if entry is None:
            raise KeyError(f"block {original_block} is not in the block table")
        entry.dirty = True

    def entries(self) -> list[BlockTableEntry]:
        """All entries, in insertion order."""
        return list(self._by_original.values())

    def dirty_entries(self) -> list[BlockTableEntry]:
        return [entry for entry in self._by_original.values() if entry.dirty]

    def occupied_reserved_blocks(self) -> set[int]:
        return set(self._by_reserved)

    def clear(self) -> None:
        self._by_original.clear()
        self._by_reserved.clear()

    # ------------------------------------------------------------------
    # On-disk copy and crash recovery
    # ------------------------------------------------------------------

    def write_to_disk(self) -> None:
        """Flush the current table to its reserved-area disk copy."""
        self._disk_copy = {
            entry.original_block: (entry.reserved_block, entry.dirty)
            for entry in self._by_original.values()
        }

    def disk_copy(self) -> dict[int, tuple[int, bool]]:
        """A snapshot view of the on-disk table (for tests/inspection)."""
        return dict(self._disk_copy)

    def crash(self) -> None:
        """Simulate a system crash: the in-memory table is lost."""
        self._by_original.clear()
        self._by_reserved.clear()

    def recover(self) -> None:
        """Rebuild the in-memory table from the disk copy after a crash."""
        self._by_original.clear()
        self._by_reserved.clear()
        for original, (reserved, __) in self._disk_copy.items():
            entry = BlockTableEntry(original, reserved, dirty=True)
            self._by_original[original] = entry
            self._by_reserved[reserved] = original



IMPLEMENTATIONS = [BlockTable, DictBlockTable]

STRESS_SEEDS = [3, 17, 1993]
if os.environ.get("FAULT_STRESS_SEED"):
    STRESS_SEEDS.append(int(os.environ["FAULT_STRESS_SEED"]))


@pytest.fixture(params=IMPLEMENTATIONS, ids=lambda cls: cls.__name__)
def make_table(request):
    return request.param


class TestBasicOperations:
    def test_empty_table(self, make_table):
        table = make_table()
        assert len(table) == 0
        assert table.lookup(5) is None
        assert 5 not in table

    def test_add_and_lookup(self, make_table):
        table = make_table()
        entry = table.add(100, 9000)
        assert table.lookup(100) == entry
        assert entry.reserved_block == 9000
        assert not entry.dirty
        assert 100 in table

    def test_reserved_of(self, make_table):
        table = make_table()
        table.add(100, 9000)
        assert table.reserved_of(100) == 9000
        assert table.reserved_of(101) == -1

    def test_reverse_lookup(self, make_table):
        table = make_table()
        table.add(100, 9000)
        assert table.original_of(9000) == 100
        assert table.original_of(9001) is None

    def test_duplicate_original_rejected(self, make_table):
        table = make_table()
        table.add(100, 9000)
        with pytest.raises(ValueError):
            table.add(100, 9001)

    def test_occupied_reserved_slot_rejected(self, make_table):
        table = make_table()
        table.add(100, 9000)
        with pytest.raises(ValueError):
            table.add(200, 9000)

    def test_remove(self, make_table):
        table = make_table()
        table.add(100, 9000)
        entry = table.remove(100)
        assert entry.original_block == 100
        assert table.lookup(100) is None
        assert table.original_of(9000) is None
        # The freed slot can be reused.
        table.add(300, 9000)

    def test_remove_missing_raises(self, make_table):
        with pytest.raises(KeyError):
            make_table().remove(4)

    def test_capacity_enforced(self, make_table):
        table = make_table(capacity=1)
        table.add(1, 9000)
        with pytest.raises(ValueError):
            table.add(2, 9001)

    def test_entries_in_insertion_order(self, make_table):
        table = make_table()
        table.add(5, 9000)
        table.add(3, 9001)
        assert [e.original_block for e in table.entries()] == [5, 3]

    def test_readd_moves_to_end_of_insertion_order(self, make_table):
        table = make_table()
        table.add(5, 9000)
        table.add(3, 9001)
        table.remove(5)
        table.add(5, 9002)
        assert [e.original_block for e in table.entries()] == [3, 5]

    def test_clear(self, make_table):
        table = make_table()
        table.add(5, 9000)
        table.clear()
        assert len(table) == 0


class TestDirtyBits:
    def test_mark_dirty(self, make_table):
        table = make_table()
        table.add(100, 9000)
        table.mark_dirty(100)
        assert table.lookup(100).dirty
        assert [e.original_block for e in table.dirty_entries()] == [100]

    def test_mark_dirty_missing_raises(self, make_table):
        with pytest.raises(KeyError):
            make_table().mark_dirty(100)


class TestPersistenceAndRecovery:
    def test_disk_copy_reflects_writes(self, make_table):
        table = make_table()
        table.add(100, 9000)
        table.write_to_disk()
        assert table.disk_copy() == {100: (9000, False)}

    def test_disk_copy_is_stale_until_written(self, make_table):
        """The disk copy lags the memory table — in particular, dirty bits
        'may not always be up-to-date in the disk-resident copy'."""
        table = make_table()
        table.add(100, 9000)
        table.write_to_disk()
        table.mark_dirty(100)  # not flushed
        assert table.disk_copy()[100] == (9000, False)

    def test_crash_loses_memory_table(self, make_table):
        table = make_table()
        table.add(100, 9000)
        table.write_to_disk()
        table.crash()
        assert len(table) == 0

    def test_recover_marks_everything_dirty(self, make_table):
        """Section 4.1.2: after a failure all entries are conservatively
        marked dirty so updates are never lost."""
        table = make_table()
        table.add(100, 9000)
        table.add(200, 9001)
        table.write_to_disk()
        table.crash()
        table.recover()
        assert len(table) == 2
        assert all(entry.dirty for entry in table.entries())
        assert table.lookup(100).reserved_block == 9000

    def test_entries_added_after_flush_are_lost_in_crash(self, make_table):
        table = make_table()
        table.add(100, 9000)
        table.write_to_disk()
        table.add(200, 9001)  # never flushed
        table.crash()
        table.recover()
        assert table.lookup(200) is None
        assert table.lookup(100) is not None

    def test_recover_restores_reverse_index(self, make_table):
        table = make_table()
        table.add(100, 9000)
        table.write_to_disk()
        table.crash()
        table.recover()
        assert table.original_of(9000) == 100

    def test_readd_between_flushes_reorders_disk_copy(self, make_table):
        """An entry removed and re-added lands at the end of the disk copy,
        exactly as a full snapshot of the memory table would place it."""
        table = make_table()
        table.add(1, 9000)
        table.add(2, 9001)
        table.add(3, 9002)
        table.write_to_disk()
        table.remove(2)
        table.add(2, 9003)
        table.mark_dirty(1)
        table.write_to_disk()
        assert list(table.disk_copy().items()) == [
            (1, (9000, True)),
            (3, (9002, False)),
            (2, (9003, False)),
        ]


@given(
    pairs=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10_000),
            st.integers(min_value=20_000, max_value=30_000),
        ),
        max_size=50,
        unique_by=(lambda p: p[0], lambda p: p[1]),
    )
)
def test_mapping_is_always_a_bijection(pairs):
    """At all times the table is a bijection original <-> reserved."""
    table = BlockTable()
    for original, reserved in pairs:
        table.add(original, reserved)
    originals = [e.original_block for e in table.entries()]
    reserveds = [e.reserved_block for e in table.entries()]
    assert len(set(originals)) == len(originals)
    assert len(set(reserveds)) == len(reserveds)
    for entry in table.entries():
        assert table.original_of(entry.reserved_block) == entry.original_block


@given(
    pairs=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=1000),
            st.integers(min_value=2000, max_value=3000),
        ),
        min_size=1,
        max_size=30,
        unique_by=(lambda p: p[0], lambda p: p[1]),
    ),
    dirty_index=st.integers(min_value=0, max_value=29),
)
def test_crash_recovery_preserves_flushed_mapping(pairs, dirty_index):
    """Recovery reproduces exactly the flushed mapping, all-dirty."""
    table = BlockTable()
    for original, reserved in pairs:
        table.add(original, reserved)
    table.mark_dirty(pairs[dirty_index % len(pairs)][0])
    table.write_to_disk()
    table.crash()
    table.recover()
    assert sorted((e.original_block, e.reserved_block) for e in table.entries()) == sorted(pairs)
    assert all(e.dirty for e in table.entries())


def _observable_state(table):
    return {
        "len": len(table),
        "entries": [
            (e.original_block, e.reserved_block, e.dirty)
            for e in table.entries()
        ],
        "dirty": [e.original_block for e in table.dirty_entries()],
        "occupied": sorted(table.occupied_reserved_blocks()),
        "disk": list(table.disk_copy().items()),
    }


@pytest.mark.parametrize("seed", STRESS_SEEDS)
def test_array_table_matches_dict_table_under_stress(seed):
    """The array table is observably identical to the dict reference.

    Drives both implementations through the same seeded interleaving of
    add / remove / mark_dirty / write_to_disk / crash / recover (the same
    operation mix the fault-injection paths use: media-error evictions
    remove and later re-add blocks between flushes) and compares the full
    observable state — entry order, dirty bits, reverse map, and the
    on-disk copy's contents *and* iteration order — after every step.
    """
    rng = random.Random(seed)
    array_table = BlockTable(capacity=64)
    dict_table = DictBlockTable(capacity=64)
    originals = list(range(0, 400))
    reserveds = list(range(5000, 5400))
    for _ in range(600):
        op = rng.choices(
            ["add", "remove", "dirty", "flush", "crash_recover", "lookup"],
            weights=[40, 20, 20, 10, 3, 7],
        )[0]
        if op == "add":
            original = rng.choice(originals)
            reserved = rng.choice(reserveds)
            try:
                a = array_table.add(original, reserved)
            except ValueError as exc:
                with pytest.raises(ValueError, match=str(exc)):
                    dict_table.add(original, reserved)
            else:
                d = dict_table.add(original, reserved)
                assert a == d
        elif op == "remove":
            original = rng.choice(originals)
            try:
                a = array_table.remove(original)
            except KeyError:
                with pytest.raises(KeyError):
                    dict_table.remove(original)
            else:
                d = dict_table.remove(original)
                assert a == d
        elif op == "dirty":
            original = rng.choice(originals)
            try:
                array_table.mark_dirty(original)
            except KeyError:
                with pytest.raises(KeyError):
                    dict_table.mark_dirty(original)
            else:
                dict_table.mark_dirty(original)
        elif op == "flush":
            array_table.write_to_disk()
            dict_table.write_to_disk()
        elif op == "crash_recover":
            array_table.crash()
            dict_table.crash()
            assert _observable_state(array_table) == _observable_state(
                dict_table
            )
            array_table.recover()
            dict_table.recover()
        else:
            probe = rng.choice(originals)
            assert array_table.lookup(probe) == dict_table.lookup(probe)
            assert array_table.reserved_of(probe) == dict_table.reserved_of(
                probe
            )
            reserved_probe = rng.choice(reserveds)
            assert array_table.original_of(
                reserved_probe
            ) == dict_table.original_of(reserved_probe)
        assert _observable_state(array_table) == _observable_state(dict_table)


class TestGrowth:
    """Entries at large block numbers, added by ``add`` and rebuilt by
    ``recover``, checked against the dict oracle."""

    RESERVED = 1000

    def _pair(self):
        return BlockTable(capacity=16), DictBlockTable(capacity=16)

    def test_add_at_last_reserved_block(self):
        table, oracle = self._pair()
        last = self.RESERVED - 1
        assert table.add(last, last) == oracle.add(last, last)
        table.mark_dirty(last)
        oracle.mark_dirty(last)
        assert _observable_state(table) == _observable_state(oracle)
        assert table.original_of(last) == oracle.original_of(last) == last

    def test_add_past_reserved_size_grows(self):
        table, oracle = self._pair()
        beyond = self.RESERVED + 250
        assert table.add(beyond, beyond + 7) == oracle.add(beyond, beyond + 7)
        assert table.add(3, beyond + 900) == oracle.add(3, beyond + 900)
        for block in (beyond - 1, beyond, beyond + 1):
            assert table.reserved_of(block) == oracle.reserved_of(block)
            assert table.original_of(block + 7) == oracle.original_of(block + 7)
        assert _observable_state(table) == _observable_state(oracle)

    def test_recover_entries_beyond_reserved_size(self):
        table, oracle = self._pair()
        pairs = [(5, 2 * self.RESERVED), (self.RESERVED + 40, 7),
                 (3 * self.RESERVED, 3 * self.RESERVED + 1)]
        for t in (table, oracle):
            for original, reserved in pairs:
                t.add(original, reserved)
            t.mark_dirty(5)
            t.write_to_disk()
            t.crash()
        # A fresh table that never held these entries must rebuild them
        # from the disk copy alone.
        fresh = BlockTable(capacity=16)
        fresh._disk_map = table.disk_copy()
        for t in (table, oracle, fresh):
            t.recover()
        assert _observable_state(table) == _observable_state(oracle)
        assert [
            (e.original_block, e.reserved_block, e.dirty)
            for e in fresh.entries()
        ] == [(o, r, True) for o, r in pairs]
        for original, reserved in pairs:
            assert fresh.reserved_of(original) == reserved
            assert fresh.original_of(reserved) == original
