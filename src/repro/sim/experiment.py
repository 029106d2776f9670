"""Experiment campaigns: the paper's measurement methodology (Section 5).

A campaign simulates consecutive measurement days on one disk + file
system.  Each day:

1. the day's workload is generated and run through the adaptive driver,
   with the reference stream analyzer polling the request table every two
   minutes;
2. the driver's performance tables are read and reduced to
   :class:`~repro.stats.metrics.DayMetrics`;
3. at the end of the day the nightly cycle runs: the reserved area is
   cleaned and — if the *next* day is an "on" day — repopulated from
   today's reference counts ("block reference counts measured during one
   day were used (at the end of the day) to rearrange blocks for the next
   day's requests", Section 5.1).

The module also provides the specific experiment shapes of the paper:
on/off alternation (Tables 2–6), the placement-policy comparison (Tables
7–10) and the rearranged-block-count sweep (Figure 8).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from ..core.counters import COUNTER_STRATEGIES
from ..faults.plan import FaultPlan
from ..obs.tracer import NULL_TRACER, Tracer
from ..parallel import fan_out, spawn_seeds
from ..policy import RearrangementPolicy, resolve_policy
from ..stats.metrics import DayMetrics
from ..workload.profiles import WorkloadProfile, profile_for_disk
from .rig import (
    PAPER_REARRANGED_BLOCKS,
    PAPER_RESERVED_CYLINDERS,
    Night,
    analyzer_capacity_for,
    build_disk_rig,
    make_partition,
    paper_default,
    run_rigs,
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that defines a campaign."""

    profile: WorkloadProfile
    disk: str = "toshiba"
    reserved_cylinders: int | None = None  # default: the paper's choice
    num_blocks: int | None = None  # blocks rearranged nightly; default: paper
    placement_policy: str = "organ-pipe"
    queue_policy: str = "scan"
    analyzer_capacity: int | None = None
    analyzer_heuristic: str = "space-saving"
    counter: str = "exact"
    """Analyzer counter strategy: ``"exact"`` (the paper's full per-block
    counts) or ``"spacesaving"`` (bounded top-k sketch with day-to-day
    count fading; see :mod:`repro.core.counters`)."""
    counter_fading: float | None = None
    """Day-to-day count-aging factor for the ``spacesaving`` counter;
    ``None`` uses the default (:data:`repro.core.counters.DEFAULT_FADING`).
    Ignored by the ``exact`` counter."""
    monitor_capacity: int = 65536
    seed: int = 1993
    reserved_center: bool = True  # False: reserved area at the disk edge
    faults: FaultPlan | None = None
    """Deterministic fault injection; ``None`` (or an empty plan) keeps
    the fault machinery entirely off the driver's hot path."""
    policy: RearrangementPolicy | str | None = None
    """*When* rearrangement runs: a :class:`~repro.policy
    .RearrangementPolicy` instance or shorthand (``"nightly"``,
    ``"online"``, ``"off"``).  ``None`` means the paper's nightly cycle."""

    def __post_init__(self) -> None:
        if self.counter not in COUNTER_STRATEGIES:
            raise ValueError(
                f"unknown counter strategy {self.counter!r}; "
                f"known: {', '.join(COUNTER_STRATEGIES)}"
            )
        resolve_policy(self.policy)  # validate early; resolved per use

    def resolved_reserved_cylinders(self) -> int:
        return paper_default(
            PAPER_RESERVED_CYLINDERS, self.disk, self.reserved_cylinders
        )

    def resolved_num_blocks(self) -> int:
        return paper_default(PAPER_REARRANGED_BLOCKS, self.disk, self.num_blocks)

    def resolved_policy(self) -> RearrangementPolicy:
        """The :attr:`policy` as a policy instance (``None`` → nightly)."""
        return resolve_policy(self.policy)

    def resolved_analyzer_capacity(self) -> int | None:
        """The analyzer's list/sketch size (see
        :func:`repro.sim.rig.analyzer_capacity_for`)."""
        return analyzer_capacity_for(
            self.counter, self.resolved_num_blocks(), self.analyzer_capacity
        )


@dataclass
class DayResult:
    """Metrics plus workload context for one simulated day."""

    metrics: DayMetrics
    workload_requests: int
    workload_reads: int
    read_counts: dict[int, int] = field(repr=False, default_factory=dict)
    all_counts: dict[int, int] = field(repr=False, default_factory=dict)
    rearranged_blocks: int = 0


@dataclass
class CampaignResult:
    """All days of one campaign."""

    config: ExperimentConfig
    days: list[DayResult]

    def metrics(self) -> list[DayMetrics]:
        return [day.metrics for day in self.days]

    def on_days(self) -> list[DayResult]:
        return [day for day in self.days if day.metrics.rearranged]

    def off_days(self) -> list[DayResult]:
        return [day for day in self.days if not day.metrics.rearranged]


class Experiment:
    """One assembled disk + driver + workload, run day by day."""

    def __init__(
        self, config: ExperimentConfig, tracer: Tracer = NULL_TRACER
    ) -> None:
        self.config = config
        self.tracer = tracer
        self.rig = build_disk_rig(
            config.disk,
            reserved_cylinders=config.reserved_cylinders,
            reserved_center=config.reserved_center,
            num_blocks=config.num_blocks,
            queue_policy=config.queue_policy,
            faults=config.faults,
            policy=config.policy,
            placement_policy=config.placement_policy,
            counter=config.counter,
            analyzer_capacity=config.analyzer_capacity,
            analyzer_heuristic=config.analyzer_heuristic,
            counter_fading=config.counter_fading,
        )
        self.model = self.rig.model
        self.label = self.rig.label
        self.driver = self.rig.driver
        self.driver.request_monitor.capacity = config.monitor_capacity
        self.ioctl = self.rig.ioctl
        self.controller = self.rig.controller
        profile = profile_for_disk(config.profile, config.disk)
        self.generator = self.rig.add_generator(
            profile, make_partition(self.label, profile), config.seed
        )
        self._day_index = 0
        self.events_dispatched = 0
        """Simulation events processed across every day run so far."""

    def run_day(
        self,
        rearranged: bool,
        rearrange_tomorrow: bool,
        num_blocks_tomorrow: int | None = None,
        keep_arrangement: bool = False,
    ) -> DayResult:
        """Simulate one measurement day and run the nightly cycle.

        ``rearranged`` records whether blocks are currently in the reserved
        area (for labeling only — the driver state was prepared by
        yesterday's nightly cycle).  With ``keep_arrangement`` the nightly
        cycle is skipped entirely: the current arrangement stays in place
        and ages (used by the rearrangement-period ablation).
        """
        day = self._day_index
        self._day_index += 1
        run = run_rigs(
            [self.rig],
            day=day,
            rearranged=rearranged,
            night=Night(
                rearrange_tomorrow=rearrange_tomorrow,
                num_blocks=num_blocks_tomorrow,
                keep_arrangement=keep_arrangement,
            ),
            tracer=self.tracer,
        )
        self.events_dispatched += run.events
        (folded,) = run.folds
        (workload,) = folded.workloads
        return DayResult(
            metrics=folded.metrics,
            workload_requests=workload.num_requests,
            workload_reads=workload.num_reads,
            read_counts=workload.read_counts,
            all_counts=workload.all_counts,
            rearranged_blocks=folded.rearranged_blocks,
        )


# ----------------------------------------------------------------------
# The paper's experiment shapes
# ----------------------------------------------------------------------


def alternating_schedule(days: int, first_on_day: int = 1) -> list[bool]:
    """The on/off alternation of Sections 5.2 and 5.3.

    Day 0 must be off (there are no reference counts before the first
    measurement day); by default odd days are "on".
    """
    if days < 2:
        raise ValueError("an on/off campaign needs at least two days")
    schedule = []
    for day in range(days):
        on = day >= first_on_day and (day - first_on_day) % 2 == 0
        schedule.append(on)
    return schedule


def run_campaign(
    config: ExperimentConfig,
    schedule: list[bool],
    tracer: Tracer = NULL_TRACER,
) -> CampaignResult:
    """Run a multi-day campaign with an explicit on/off schedule."""
    if schedule and schedule[0]:
        raise ValueError(
            "day 0 cannot be an 'on' day: no reference counts exist yet"
        )
    experiment = Experiment(config, tracer=tracer)
    results: list[DayResult] = []
    for day, on_today in enumerate(schedule):
        on_tomorrow = schedule[day + 1] if day + 1 < len(schedule) else False
        results.append(
            experiment.run_day(
                rearranged=on_today,
                rearrange_tomorrow=on_tomorrow,
            )
        )
    return CampaignResult(config=config, days=results)


def run_onoff_campaign(
    config: ExperimentConfig, days: int = 10, tracer: Tracer = NULL_TRACER
) -> CampaignResult:
    """Alternating on/off days (Tables 2-6)."""
    return run_campaign(config, alternating_schedule(days), tracer=tracer)


def run_policy_campaign(
    config: ExperimentConfig, policy: str, days: int = 4
) -> CampaignResult:
    """One training (off) day followed by ``days - 1`` rearranged days
    under the given placement policy (Tables 7-10)."""
    policy_config = replace(config, placement_policy=policy)
    schedule = [False] + [True] * (days - 1)
    return run_campaign(policy_config, schedule)


def run_block_count_sweep(
    config: ExperimentConfig, block_counts: list[int]
) -> list[tuple[int, DayResult]]:
    """The Figure 8 sweep: one day per rearranged-block count.

    Day 0 trains (off); each subsequent day runs with the next count,
    rearranged from the previous day's reference counts, mirroring the
    paper's "different number of blocks being rearranged each day".
    """
    experiment = Experiment(config)
    results: list[tuple[int, DayResult]] = []
    counts = list(block_counts)
    first_count = counts[0] if counts else 0
    experiment.run_day(
        rearranged=False,
        rearrange_tomorrow=bool(counts),
        num_blocks_tomorrow=first_count,
    )
    for index, count in enumerate(counts):
        next_count = counts[index + 1] if index + 1 < len(counts) else 0
        day = experiment.run_day(
            rearranged=count > 0,
            rearrange_tomorrow=index + 1 < len(counts),
            num_blocks_tomorrow=next_count,
        )
        results.append((count, day))
    return results


# ----------------------------------------------------------------------
# Parallel campaign running
# ----------------------------------------------------------------------
#
# The multiprocessing machinery itself lives in :mod:`repro.parallel`
# (shared with the fleet shard runner); this section only defines the
# campaign-shaped task types.

CampaignTask = tuple[str, ExperimentConfig, Sequence[bool]]
"""One unit of parallel work: ``(key, config, on/off schedule)``."""


def _campaign_worker(task: CampaignTask) -> tuple[str, CampaignResult]:
    key, config, schedule = task
    return key, run_campaign(config, list(schedule))


def run_campaigns_parallel(
    tasks: Sequence[CampaignTask],
    workers: int | None = None,
    seed_from: int | None = None,
) -> list[tuple[str, CampaignResult]]:
    """Fan independent campaigns across ``multiprocessing`` workers.

    Each task is a fully self-contained ``(key, config, schedule)``
    triple; campaigns share nothing, so the results are identical to
    running them serially — just wall-clock faster.  Results come back in
    task order, and a worker failure is re-raised as
    :class:`~repro.parallel.WorkerTaskError` naming the campaign key and
    seed.  Tracers are deliberately not supported here: a tracer is
    process-local state, so traced runs should use :func:`run_campaign`
    directly.

    ``seed_from`` replaces each task's seed with a
    ``numpy.random.SeedSequence``-spawned child seed (one per task, in
    task order).  Use it when fanning out *replicas* of one config:
    spawned children are statistically independent, unlike the ad-hoc
    ``seed + i`` arithmetic this replaces, and identical at every worker
    count.
    """
    tasks = list(tasks)
    if seed_from is not None:
        seeds = spawn_seeds(seed_from, len(tasks))
        tasks = [
            (key, replace(config, seed=seed), schedule)
            for (key, config, schedule), seed in zip(tasks, seeds)
        ]
    return fan_out(
        _campaign_worker,
        tasks,
        workers,
        label=lambda i, task: (
            f"campaign {task[0]!r} (seed {task[1].seed})"
        ),
        what="campaign",
    )


def _sweep_point_worker(
    item: tuple[ExperimentConfig, int],
) -> tuple[int, DayResult]:
    config, count = item
    return run_block_count_sweep(config, [count])[0]


def run_block_count_sweep_parallel(
    config: ExperimentConfig,
    block_counts: list[int],
    workers: int | None = None,
) -> list[tuple[int, DayResult]]:
    """The Figure 8 sweep with mutually independent points.

    Unlike :func:`run_block_count_sweep` — where day *k* is trained on day
    *k-1*'s workload, chaining every point through one long campaign —
    each point here is its own two-day experiment (day 0 trains, day 1
    measures with ``count`` blocks rearranged), so all points share the
    same training day and can run concurrently.  The curves agree in
    shape; individual points differ slightly from the chained variant
    because the training workload is day 0's for every count.
    """
    items = [(config, count) for count in block_counts]
    return fan_out(
        _sweep_point_worker,
        items,
        workers,
        label=lambda i, item: (
            f"sweep point count={item[1]} (seed {item[0].seed})"
        ),
        what="sweep point",
    )
