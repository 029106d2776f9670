"""SSD experiments: the paper's workloads against a flash cost model.

A :class:`SsdExperiment` drives the *same* generated day streams as the
disk :class:`~repro.sim.experiment.Experiment` — identical disk label,
partition layout, generator and seed — through the page-mapped FTL
backend (:mod:`repro.driver.ftl`) instead of the mechanical disk.  One
logical disk block maps to one flash logical page, so a given
``(profile, seed)`` pair issues bit-identical request streams to both
device classes and their results are directly comparable.

On flash the rearrangement question changes shape: there is no arm, so
the analyzer's frequency data drives *hot/cold separation* of the write
stream instead of block placement.  The config's ``policy`` keeps the
``RearrangementPolicy`` plumbing: :class:`~repro.policy.NoRearrangement`
(``"off"``) runs the FTL with a single write frontier, any other policy
enables adaptive separation fed by a
:class:`~repro.core.counters.SpaceSavingSketch` whose counts fade at the
end of each day exactly like the disk analyzer's (the paper's
count-aging rule).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..disk.models import disk_model
from ..driver.ftl import GC_POLICIES, flash_model
from ..obs.tracer import NULL_TRACER, Tracer
from ..policy import RearrangementPolicy, resolve_policy
from ..workload.profiles import WorkloadProfile, profile_for_disk
from .rig import (
    Night,
    SsdDayResult,
    build_ftl_rig,
    make_partition,
    run_rigs,
)

__all__ = ["SsdConfig", "SsdDayResult", "SsdExperiment"]


@dataclass(frozen=True)
class SsdConfig:
    """Everything that defines an SSD campaign."""

    profile: WorkloadProfile
    flash: str = "ssd"
    """Flash geometry preset (:data:`repro.driver.ftl.FLASH_MODELS`)."""
    reference_disk: str = "toshiba"
    """Disk whose label/partition layout defines the logical span — this
    is what keeps the workload stream identical to a disk run."""
    seed: int = 1993
    policy: RearrangementPolicy | str | None = None
    """``"off"`` disables hot/cold separation; anything else (default:
    nightly) enables adaptive separation from the frequency sketch."""
    cmt_capacity: int = 8192
    gc_policy: str = "greedy"
    gc_low_blocks: int = 8
    gc_high_blocks: int = 16
    hot_threshold: int = 2
    sketch_capacity: int = 4096
    """Space-Saving sketch size for separation.  Must comfortably exceed
    the day's distinct written pages: a saturated sketch inherits evicted
    counts, classifying cold pages as hot and erasing the benefit."""
    counter_fading: float | None = None
    """Day-to-day count-aging factor for the separation sketch; ``None``
    uses :data:`repro.core.counters.DEFAULT_FADING`."""
    precondition: bool = True
    """Age the drive before day 0 so the measured days garbage-collect
    (a fresh drive never GCs inside a short window)."""
    precondition_free_blocks: int | None = None

    def __post_init__(self) -> None:
        flash_model(self.flash)
        disk_model(self.reference_disk)
        if self.gc_policy not in GC_POLICIES:
            raise ValueError(
                f"unknown gc policy {self.gc_policy!r}; "
                f"known: {', '.join(GC_POLICIES)}"
            )
        resolve_policy(self.policy)

    def resolved_policy(self) -> RearrangementPolicy:
        return resolve_policy(self.policy)

    @property
    def separation(self) -> bool:
        """Hot/cold separation is on for every policy except ``off``."""
        return self.resolved_policy().kind != "off"

    def payload(self) -> dict:
        """Canonical JSON-ready form for digests."""
        return {
            "profile": self.profile.name,
            "flash": self.flash,
            "reference_disk": self.reference_disk,
            "seed": self.seed,
            "policy": self.resolved_policy().payload(),
            "separation": self.separation,
            "cmt_capacity": self.cmt_capacity,
            "gc_policy": self.gc_policy,
            "gc_low_blocks": self.gc_low_blocks,
            "gc_high_blocks": self.gc_high_blocks,
            "hot_threshold": self.hot_threshold,
            "sketch_capacity": self.sketch_capacity,
        }


class SsdExperiment:
    """One assembled FTL + workload, run day by day."""

    def __init__(
        self, config: SsdConfig, tracer: Tracer = NULL_TRACER
    ) -> None:
        self.config = config
        self.tracer = tracer
        # The label and partition mirror the disk Experiment exactly so
        # the generator sees the same span and produces the same days.
        self.rig = build_ftl_rig(
            config.reference_disk,
            flash=config.flash,
            separation=config.separation,
            sketch_capacity=config.sketch_capacity,
            counter_fading=config.counter_fading,
            cmt_capacity=config.cmt_capacity,
            gc_policy=config.gc_policy,
            gc_low_blocks=config.gc_low_blocks,
            gc_high_blocks=config.gc_high_blocks,
            hot_threshold=config.hot_threshold,
        )
        self.label = self.rig.label
        self.driver = self.rig.driver
        if config.precondition:
            self.driver.precondition(
                seed=config.seed,
                target_free_blocks=config.precondition_free_blocks,
            )
        profile = profile_for_disk(config.profile, config.reference_disk)
        self.generator = self.rig.add_generator(
            profile, make_partition(self.label, profile), config.seed
        )
        self._day_index = 0
        self.events_dispatched = 0

    def run_day(self) -> SsdDayResult:
        """Simulate one measurement day through the FTL."""
        day = self._day_index
        self._day_index += 1
        run = run_rigs([self.rig], day=day, night=Night(), tracer=self.tracer)
        self.events_dispatched += run.events
        return run.folds[0]

    def run_days(self, days: int) -> list[SsdDayResult]:
        return [self.run_day() for _ in range(days)]
