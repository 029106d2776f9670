"""Device rigs and the one day loop every runner shares.

A *rig* is one device assembled for a run: a disk rig is the paper's
disk label, adaptive driver, ``ioctl`` interface and nightly controller;
an FTL rig is the page-mapped flash driver with its frequency sketch.
Both carry the job sources (workload generators, or a fixed trace) that
feed them.  :func:`build_disk_rig` and :func:`build_ftl_rig` assemble
them with the paper's defaults resolved in one place.

:func:`run_rigs` is the method of Section 5.1, written once: run the
day's requests through the drivers, read the drivers' tables into
per-rig results, then run each rig's end-of-day step.  The single-disk,
multi-file-system, multi-disk and SSD experiments and the trace replays
are thin shells that build rigs, call :func:`run_rigs`, and shape the
result they return.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Sequence

from ..core.analyzer import ReferenceStreamAnalyzer
from ..core.arranger import BlockArranger
from ..core.controller import RearrangementController
from ..core.counters import DEFAULT_FADING, SpaceSavingSketch
from ..core.placement import make_policy
from ..disk.disk import Disk
from ..disk.label import DiskLabel, Partition
from ..disk.models import DiskModel, disk_model
from ..driver.driver import AdaptiveDiskDriver
from ..driver.ioctl import IoctlInterface
from ..driver.queue import make_queue
from ..obs.tracer import NULL_TRACER, Tracer
from ..policy import RearrangementPolicy, resolve_policy
from ..stats.metrics import DayMetrics
from ..workload.generator import DayWorkload, WorkloadGenerator
from ..workload.profiles import WorkloadProfile
from ..workload.tenancy import SharedHotSet
from .engine import Simulation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..driver.ftl import FtlDriver, FtlStats
    from ..faults.plan import FaultPlan

PAPER_RESERVED_CYLINDERS = {"toshiba": 48, "fujitsu": 80, "modern": 64}
PAPER_REARRANGED_BLOCKS = {"toshiba": 1018, "fujitsu": 3500, "modern": 8000}

# Default Space-Saving sketch size: generously above the number of blocks
# rearranged nightly, so the top-num_blocks ranking is trustworthy (the
# sketch's error bound shrinks as capacity / distinct-blocks grows).
MIN_SKETCH_CAPACITY = 4096


def paper_default(table: dict[str, int], disk: str, value: int | None) -> int:
    """``value``, or the paper's choice for ``disk`` from ``table``."""
    return table[disk] if value is None else value


def analyzer_capacity_for(
    counter: str, num_blocks: int, capacity: int | None
) -> int | None:
    """The analyzer's list/sketch size.

    The exact counter defaults to unbounded (the paper's setup); the
    ``spacesaving`` sketch needs a bound, defaulting to four times the
    nightly rearrangement count (at least ``MIN_SKETCH_CAPACITY``).
    """
    if capacity is not None:
        return capacity
    if counter == "spacesaving":
        return max(MIN_SKETCH_CAPACITY, 4 * num_blocks)
    return None


def paper_label(
    disk: str,
    reserved_cylinders: int | None = None,
    reserved_center: bool = True,
) -> DiskLabel:
    """A disk label with the reserved area sized per the paper's
    defaults, in the middle of the disk or (``reserved_center=False``)
    at its inner edge."""
    geometry = disk_model(disk).geometry
    reserved = paper_default(
        PAPER_RESERVED_CYLINDERS, disk, reserved_cylinders
    )
    start_cylinder = None
    if not reserved_center:
        start_cylinder = geometry.cylinders - reserved
    return DiskLabel(
        geometry=geometry,
        reserved_cylinders=reserved,
        reserved_start_cylinder=start_cylinder,
    )


def make_partition(label: DiskLabel, profile: WorkloadProfile) -> Partition:
    """Lay out the file system's partition per the profile's band.

    ``"full"`` covers the whole virtual disk.  ``"center"`` is a home
    partition occupying the middle 40% of the virtual disk — the slice
    whose physical cylinders bracket the reserved area — with outer
    dummy partitions standing in for root and swap.

    Shared by the disk and SSD experiments: both must carve the
    identical partition from the identical virtual span so one workload
    stream drives both backends.
    """
    total = label.virtual_total_blocks
    if profile.partition_band == "center":
        per_cyl = label.geometry.blocks_per_cylinder
        # Start two cylinder groups below the hidden reserved area so
        # that a first-fit-growing file system surrounds it.
        assert label.reserved_start_cylinder is not None
        start_cyl = max(
            0,
            label.reserved_start_cylinder - 2 * profile.cylinders_per_group,
        )
        if start_cyl > 0:
            label.add_partition("root", start_cyl * per_cyl)
        return label.add_partition("home", total - start_cyl * per_cyl)
    return label.add_partition("fs0", total)


# ----------------------------------------------------------------------
# Rigs
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Night:
    """What tonight's end-of-day step does on every rig."""

    rearrange_tomorrow: bool = False
    num_blocks: int | None = None
    """Blocks to rearrange; ``None`` uses each rig's own count."""
    keep_arrangement: bool = False
    """Skip the nightly cycle: the arrangement stays in place and ages."""


@dataclass
class Rig:
    """One device plus the job sources that feed it each day."""

    label: DiskLabel
    driver: AdaptiveDiskDriver | FtlDriver
    generators: list = field(default_factory=list)
    """Job sources in push order: anything with ``generate_day()``."""
    workloads: list[DayWorkload] = field(default_factory=list, repr=False)
    """Today's workload per generator, until the day is folded."""

    @property
    def name(self) -> str:
        return self.driver.name

    @property
    def generator(self) -> WorkloadGenerator:
        """The first (for single-file-system rigs: the only) generator."""
        return self.generators[0]

    def add_generator(
        self,
        profile: WorkloadProfile,
        partition: Partition,
        seed: int,
        shared_hot: SharedHotSet | None = None,
    ) -> WorkloadGenerator:
        generator = WorkloadGenerator(
            profile=profile,
            partition=partition,
            blocks_per_cylinder=self.label.geometry.blocks_per_cylinder,
            seed=seed,
            shared_hot=shared_hot,
        )
        self.generators.append(generator)
        return generator

    def start_day(self, simulation: Simulation) -> None:
        self.workloads = [generator.generate_day() for generator in self.generators]
        for workload in self.workloads:
            simulation.add_jobs(workload.jobs, device=self.name)


@dataclass
class DiskDay:
    """One disk rig's folded day."""

    metrics: DayMetrics
    workloads: list[DayWorkload]
    rearranged_blocks: int
    """Blocks in the reserved area during the day."""
    rearranged_per_fs: dict[str, int]
    """``rearranged_blocks`` by file-system partition (multi-FS rigs)."""


@dataclass(kw_only=True)
class DiskRig(Rig):
    """The paper's adaptive disk: label, driver, ioctl, controller."""

    model: DiskModel
    ioctl: IoctlInterface
    controller: RearrangementController | None = None
    """Monitoring and the nightly cycle; ``None`` for a bare driver."""
    num_blocks: int
    """Blocks rearranged nightly unless the night says otherwise."""
    fs_partitions: list[Partition] = field(default_factory=list)
    """File systems whose share of the reserved area each day reports."""

    def start_day(self, simulation: Simulation) -> None:
        if self.controller is not None:
            self.controller.attach_to(simulation)
        super().start_day(simulation)

    def fold_day(
        self, simulation: Simulation, day: int, rearranged: bool
    ) -> DiskDay:
        metrics = DayMetrics.from_tables(
            self.ioctl.read_stats(), self.model.seek, day=day, rearranged=rearranged
        )
        per_fs: dict[str, int] = {}
        if self.fs_partitions:
            for entry in self.driver.block_table.entries():
                logical = self.label.physical_to_virtual_block(
                    entry.original_block
                )
                for partition in self.fs_partitions:
                    if partition.contains(logical):
                        per_fs[partition.name] = per_fs.get(partition.name, 0) + 1
                        break
        workloads, self.workloads = self.workloads, []
        return DiskDay(
            metrics=metrics,
            workloads=workloads,
            rearranged_blocks=len(self.driver.block_table),
            rearranged_per_fs=per_fs,
        )

    def end_day(self, now_ms: float, night: Night) -> None:
        if self.controller is None:
            return
        if night.keep_arrangement:
            self.controller.final_poll()
            self.controller.analyzer.reset()
            return
        self.controller.end_of_day(
            now_ms=now_ms,
            rearrange_tomorrow=night.rearrange_tomorrow,
            num_blocks=(
                self.num_blocks if night.num_blocks is None else night.num_blocks
            ),
        )


def build_disk_rig(
    disk: str,
    *,
    name: str = "disk0",
    reserved_cylinders: int | None = None,
    reserved_center: bool = True,
    num_blocks: int | None = None,
    queue_policy: str = "scan",
    faults: FaultPlan | None = None,
    controller: bool = True,
    policy: RearrangementPolicy | str | None = None,
    placement_policy: str = "organ-pipe",
    counter: str = "exact",
    analyzer_capacity: int | None = None,
    analyzer_heuristic: str = "space-saving",
    counter_fading: float | None = None,
) -> DiskRig:
    """Assemble one adaptive disk with the paper's defaults.

    ``controller=False`` leaves out the analyzer/arranger controller (a
    bare driver, as trace replay uses).  An empty fault plan behaves
    exactly like none.
    """
    model = disk_model(disk)
    label = paper_label(disk, reserved_cylinders, reserved_center)
    if faults is not None and faults.is_empty:
        faults = None
    driver = AdaptiveDiskDriver(
        disk=Disk(model),
        label=label,
        queue=make_queue(queue_policy),
        name=name,
        faults=faults.injector() if faults is not None else None,
    )
    ioctl = IoctlInterface(driver)
    blocks = paper_default(PAPER_REARRANGED_BLOCKS, disk, num_blocks)
    rig = DiskRig(
        label, driver, model=model, ioctl=ioctl, num_blocks=blocks
    )
    if controller:
        rig.controller = RearrangementController(
            ioctl=ioctl,
            policy=resolve_policy(policy),
            analyzer=ReferenceStreamAnalyzer(
                capacity=analyzer_capacity_for(
                    counter, blocks, analyzer_capacity
                ),
                heuristic=analyzer_heuristic,
                counter=counter,
                fading=DEFAULT_FADING if counter_fading is None else counter_fading,
            ),
            arranger=BlockArranger(
                ioctl, policy=make_policy(placement_policy)
            ),
            max_error_rate=(
                faults.degrade_threshold if faults is not None else None
            ),
            degrade_action=(
                faults.degrade_action if faults is not None else "clean"
            ),
        )
    return rig


@dataclass
class SsdDayResult:
    """FTL activity and service times for one simulated day.

    The counter fields are day deltas (the driver's counters are
    cumulative across the campaign); the wear fields are cumulative —
    wear is device state, not a rate.
    """

    day: int
    completed: int
    workload_requests: int
    workload_reads: int
    mean_response_ms: float
    mean_service_ms: float
    host_page_writes: int
    flash_page_writes: int
    write_amplification: float
    gc_runs: int
    gc_page_moves: int
    cmt_hit_ratio: float
    translation_reads: int
    translation_writes: int
    max_erase_count: int
    mean_erase_count: float

    def payload(self) -> dict:
        return {
            "day": self.day,
            "completed": self.completed,
            "workload_requests": self.workload_requests,
            "workload_reads": self.workload_reads,
            "mean_response_ms": round(self.mean_response_ms, 6),
            "mean_service_ms": round(self.mean_service_ms, 6),
            "host_page_writes": self.host_page_writes,
            "flash_page_writes": self.flash_page_writes,
            "write_amplification": round(self.write_amplification, 6),
            "gc_runs": self.gc_runs,
            "gc_page_moves": self.gc_page_moves,
            "cmt_hit_ratio": round(self.cmt_hit_ratio, 6),
            "translation_reads": self.translation_reads,
            "translation_writes": self.translation_writes,
            "max_erase_count": self.max_erase_count,
            "mean_erase_count": round(self.mean_erase_count, 6),
        }


@dataclass
class FtlRig(Rig):
    """The page-mapped flash backend behind a reference disk's span."""

    _before: FtlStats | None = field(default=None, repr=False)

    def start_day(self, simulation: Simulation) -> None:
        self._before = replace(self.driver.stats)
        super().start_day(simulation)

    def fold_day(
        self, simulation: Simulation, day: int, rearranged: bool
    ) -> SsdDayResult:
        completed = simulation.completed_on(self.name)
        count = len(completed)
        responses = [r.response_ms for r in completed]
        services = [r.service_ms for r in completed]
        workloads, self.workloads = self.workloads, []
        driver, before = self.driver, self._before
        stats = driver.stats
        host_writes = stats.host_page_writes - before.host_page_writes
        flash_writes = stats.flash_page_writes - before.flash_page_writes
        hits = stats.cmt_hits - before.cmt_hits
        lookups = hits + stats.cmt_misses - before.cmt_misses
        return SsdDayResult(
            day=day,
            completed=count,
            workload_requests=sum(w.num_requests for w in workloads),
            workload_reads=sum(w.num_reads for w in workloads),
            mean_response_ms=sum(responses) / count if count else 0.0,
            mean_service_ms=sum(services) / count if count else 0.0,
            host_page_writes=host_writes,
            flash_page_writes=flash_writes,
            write_amplification=(
                flash_writes / host_writes if host_writes else 0.0
            ),
            gc_runs=stats.gc_runs - before.gc_runs,
            gc_page_moves=stats.gc_page_moves - before.gc_page_moves,
            cmt_hit_ratio=hits / lookups if lookups else 0.0,
            translation_reads=(
                stats.translation_reads - before.translation_reads
            ),
            translation_writes=(
                stats.translation_writes - before.translation_writes
            ),
            max_erase_count=driver.max_erase_count,
            mean_erase_count=driver.mean_erase_count,
        )

    def end_day(self, now_ms: float, night: Night) -> None:
        driver: FtlDriver = self.driver
        if driver.tracer is not NULL_TRACER:
            driver.tracer.wear_level(
                driver.name,
                now_ms,
                driver.max_erase_count,
                driver.mean_erase_count,
            )
        # End-of-day count aging, exactly as the disk analyzer fades its
        # reference counts between days.
        if driver.sketch is not None:
            driver.sketch.reset()


def build_ftl_rig(
    reference_disk: str = "toshiba",
    *,
    flash: str = "ssd",
    separation: bool = False,
    sketch_capacity: int = 4096,
    counter_fading: float | None = None,
    **options: Any,
) -> FtlRig:
    """Assemble the FTL over ``reference_disk``'s logical span.

    The label mirrors the disk rig's, so one workload stream (or one
    ingested trace) addresses both backends identically.  ``options``
    pass through to :class:`~repro.driver.ftl.FtlDriver`.
    """
    # Imported here: repro.driver.ftl reaches back into repro.core, which
    # reaches the trace replay (and through it this module) at init.
    from ..driver.ftl import FtlDriver, flash_model

    label = paper_label(reference_disk)
    sketch = None
    if separation:
        sketch = SpaceSavingSketch(
            capacity=sketch_capacity,
            fading=DEFAULT_FADING if counter_fading is None else counter_fading,
        )
    driver = FtlDriver(
        geometry=flash_model(flash),
        logical_pages=label.virtual_total_blocks,
        separation=separation,
        sketch=sketch,
        name="ssd0",
        **options,
    )
    driver.attach()
    return FtlRig(label, driver)


# ----------------------------------------------------------------------
# The day loop
# ----------------------------------------------------------------------


@dataclass
class DayRun:
    """What one pass of :func:`run_rigs` produced."""

    folds: list
    """Each rig's folded day, in rig order."""
    events: int
    """Simulation events dispatched."""
    completed: int
    """Requests completed on every rig, kernel-absorbed ones included."""


def run_rigs(
    rigs: Sequence[DiskRig | FtlRig],
    *,
    day: int,
    rearranged: bool = False,
    night: Night | None = None,
    tracer: Tracer = NULL_TRACER,
) -> DayRun:
    """Simulate one day over ``rigs`` on one clock.

    Each rig attaches its controller and pushes its generators' jobs, in
    rig order; timed crashes claimed for this day by any driver's fault
    injector are scheduled after that.  Once the simulation drains, each
    rig folds its tables into a day result, then (unless ``night`` is
    ``None``) runs its end-of-day step.  ``rearranged`` labels the day's
    disk metrics.
    """
    simulation = Simulation(
        drivers={rig.name: rig.driver for rig in rigs},
        tracer=tracer,
        fast=True,
    )
    for rig in rigs:
        rig.start_day(simulation)
    for rig in rigs:
        if rig.driver.faults is not None:
            # Each day is a fresh Simulation starting at t=0, so timed
            # crashes are (day, offset) pairs claimed day by day.
            for offset in rig.driver.faults.claim_crash_times(day):
                simulation.schedule_crash(offset)
    simulation.run()
    folds = [rig.fold_day(simulation, day, rearranged) for rig in rigs]
    if night is not None:
        for rig in rigs:
            rig.end_day(simulation.now_ms, night)
    result = DayRun(
        folds=folds,
        events=simulation.events_dispatched,
        completed=len(simulation.completed) + simulation.absorbed_completions,
    )
    # The bus subscriptions keep the day's Simulation (and through it
    # the driver stack) in a reference cycle; close it so long serial
    # campaigns free each day by refcount instead of gc timing.
    simulation.close()
    return result
