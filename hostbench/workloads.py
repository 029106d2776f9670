"""The benchmark's four workloads, built from a seed through the public API.

Each workload is one whole run of the program as a user would make it:
set up the rigs, run the days, fold the statistics.  :meth:`Workload.run`
returns an :class:`Outcome` whose ``payload`` holds every simulated
statistic of the run; the benchmark compares it, key by key, against an
untimed pass made with the scalar engine.  Simulated times (seek,
service, waiting) are checked outputs, never scores.

:meth:`Workload.contracts` re-proves the guarantees of the matching
``repro bench`` scenario on that scalar pass and returns one message per
broken guarantee.
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import asdict, dataclass, field, replace
from typing import Any

from repro.api import (
    Experiment,
    FleetSpec,
    NoRearrangement,
    OnlinePolicy,
    SsdExperiment,
    make_config,
    run_fleet,
)
from repro.bench.digest import day_metrics_payload
from repro.bench.scenarios import ONLINE_TAIL_FACTOR, ONLINE_TAIL_SLACK_MS
from repro.sim.experiment import alternating_schedule
from repro.sim.multifs import MultiDiskExperiment
from repro.workload.profiles import PROFILES
from repro.workload.tenancy import TenancySpec
from repro.workload.trace import dump_jobs


@dataclass
class Outcome:
    """What one run produced."""

    payload: dict[str, Any]
    """Every simulated statistic of the run, compared against the
    reference pass."""
    requests: int
    """Simulated workload requests completed over the days."""
    counts: dict[str, float] = field(default_factory=dict)
    """Per-layer counters read from the checked statistics."""
    raw: Any = None
    """The program's own result objects, for the contract checks."""


def _jobs_digest(generator) -> str:
    """Digest of the first day a fresh generator produces."""
    stream = io.StringIO()
    dump_jobs(generator.generate_day().jobs, stream)
    return hashlib.sha256(stream.getvalue().encode()).hexdigest()


def _disk_day(result) -> dict[str, Any]:
    return {
        "metrics": day_metrics_payload(result.metrics),
        "workload_requests": result.workload_requests,
        "workload_reads": result.workload_reads,
        "rearranged_blocks": result.rearranged_blocks,
    }


def _run_schedule(experiment: Experiment, schedule: list[bool]) -> list:
    results = []
    for day, on_today in enumerate(schedule):
        on_tomorrow = schedule[day + 1] if day + 1 < len(schedule) else False
        results.append(
            experiment.run_day(
                rearranged=on_today, rearrange_tomorrow=on_tomorrow
            )
        )
    return results


class Workload:
    name: str

    def run(self, seed: int) -> Outcome:
        raise NotImplementedError

    def contracts(self, seed: int, reference: Outcome) -> list[str]:
        return []

    def inputs(self, seed: int) -> str:
        """Digest of the inputs a seed gives: the configs and the first
        generated day."""
        raise NotImplementedError


class PaperDay(Workload):
    """The paper's experiment: *system* profile on the Toshiba disk, full
    15-hour monitored days, an off day then an on day with the nightly
    cycle between them."""

    name = "paper_day"
    days = 2

    def config(self, seed: int):
        return make_config("system", "toshiba", seed=seed)

    def run(self, seed: int) -> Outcome:
        experiment = Experiment(self.config(seed))
        results = _run_schedule(
            experiment, alternating_schedule(self.days)
        )
        return Outcome(
            payload={
                "days": [_disk_day(result) for result in results],
                "events": experiment.events_dispatched,
            },
            requests=sum(result.workload_requests for result in results),
            counts={
                "core.blocks_rearranged": sum(
                    result.rearranged_blocks for result in results
                )
            },
            raw=results,
        )

    def inputs(self, seed: int) -> str:
        config = self.config(seed)
        return repr(config) + _jobs_digest(Experiment(config).generator)


class OnlineMigration(PaperDay):
    """Idle-window migration under :class:`OnlinePolicy` on the paper's
    15-hour *system* days: the only workload that crosses idle windows."""

    name = "online_migration"

    def config(self, seed: int, policy=None):
        return make_config(
            "system",
            "toshiba",
            seed=seed,
            policy=policy if policy is not None else OnlinePolicy(),
        )

    def run(self, seed: int) -> Outcome:
        experiment = Experiment(self.config(seed))
        results = _run_schedule(experiment, [False, True])
        stats = experiment.controller.online_stats
        attempted = (
            stats.moves_completed
            + stats.moves_cancelled
            + stats.moves_failed
            + stats.crash_aborts
        )
        return Outcome(
            payload={
                "days": [_disk_day(result) for result in results],
                "events": experiment.events_dispatched,
                "migration": stats.payload(),
            },
            requests=sum(result.workload_requests for result in results),
            counts={
                "core.online.windows": stats.windows,
                "core.online.moves_completed": stats.moves_completed,
                "core.online.moves_cancelled": stats.moves_cancelled,
                "core.online.move_yield": (
                    stats.moves_completed / attempted if attempted else 0.0
                ),
            },
            raw=results,
        )

    def contracts(self, seed: int, reference: Outcome) -> list[str]:
        broken = []
        off = _run_schedule(
            Experiment(self.config(seed, NoRearrangement())), [False, True]
        )
        for day, (online_day, off_day) in enumerate(zip(reference.raw, off)):
            for quantile in (0.95, 0.99):
                on_ms = online_day.metrics.all.service_percentile_ms(quantile)
                off_ms = off_day.metrics.all.service_percentile_ms(quantile)
                bound = ONLINE_TAIL_FACTOR * off_ms + ONLINE_TAIL_SLACK_MS
                if on_ms > bound:
                    broken.append(
                        f"day {day} p{round(quantile * 100)} {on_ms:.2f} ms "
                        f"exceeds {bound:.2f} ms (migration off "
                        f"{off_ms:.2f} ms)"
                    )
        if reference.counts["core.online.moves_completed"] == 0:
            broken.append("online policy committed no moves")
        seek = [day.metrics.all.mean_seek_time_ms for day in reference.raw]
        if seek[1] >= seek[0]:
            broken.append(
                f"day-1 mean seek {seek[1]:.3f} ms is not below day 0 "
                f"{seek[0]:.3f} ms"
            )
        return broken


class Fleet64(Workload):
    """64 Fujitsu devices in 8 shards, 256 Zipf tenants, 0.05-hour days,
    run serially (``workers=1``)."""

    name = "fleet64"

    def spec(self, seed: int) -> FleetSpec:
        return FleetSpec(
            devices=64,
            disk="fujitsu",
            days=2,
            hours=0.05,
            devices_per_shard=8,
            tenancy=TenancySpec(tenants=256),
            seed=seed,
        )

    def run(self, seed: int) -> Outcome:
        result = run_fleet(self.spec(seed), workers=1)
        payload = result.payload()
        payload["events"] = result.events
        return Outcome(
            payload=payload,
            requests=result.total_requests,
            counts={"core.blocks_rearranged": result.rearranged_blocks},
            raw=result,
        )

    def contracts(self, seed: int, reference: Outcome) -> list[str]:
        serial = reference.raw.digest()
        parallel = run_fleet(self.spec(seed), workers=2).digest()
        if parallel != serial:
            return [f"workers=2 digest {parallel} != workers=1 {serial}"]
        return []

    def inputs(self, seed: int) -> str:
        from repro.fleet.runner import build_shard_tasks

        tasks = build_shard_tasks(self.spec(seed))
        first = MultiDiskExperiment(list(tasks[0].specs))
        seeds = [spec.seed for task in tasks for spec in task.specs]
        return repr(seeds) + _jobs_digest(
            next(iter(first.rigs.values())).generator
        )


class SsdUsers(Workload):
    """The *users* (read/write) profile through the page-mapped FTL,
    hot/cold separation off, then on, on identical generated days."""

    name = "ssd_users"
    days = 2
    policies = ("off", "nightly")

    def config(self, seed: int, policy: str):
        # As in the ``ssd_day`` scenario: compress the clock but keep the
        # full day's file churn, which is what drives flash cost.
        profile = replace(PROFILES["users"], day_hours=2.0)
        return make_config(
            profile, "ssd", seed=seed, policy=policy, cmt_capacity=1024
        )

    def run(self, seed: int) -> Outcome:
        legs: dict[str, list] = {}
        payload: dict[str, Any] = {}
        hits = lookups = host = flash = gc_runs = gc_moves = 0
        for policy in self.policies:
            experiment = SsdExperiment(self.config(seed, policy))
            before = replace(experiment.driver.stats)
            days = experiment.run_days(self.days)
            stats = experiment.driver.stats
            hits += stats.cmt_hits - before.cmt_hits
            lookups += (
                stats.cmt_hits + stats.cmt_misses
                - before.cmt_hits - before.cmt_misses
            )
            host += sum(day.host_page_writes for day in days)
            flash += sum(day.flash_page_writes for day in days)
            gc_runs += sum(day.gc_runs for day in days)
            gc_moves += sum(day.gc_page_moves for day in days)
            legs[policy] = days
            payload[policy] = {
                "days": [asdict(day) for day in days],
                "driver": asdict(stats),
                "events": experiment.events_dispatched,
            }
        return Outcome(
            payload=payload,
            requests=sum(
                day.completed for days in legs.values() for day in days
            ),
            counts={
                "driver.ftl.write_amplification": flash / host,
                "driver.ftl.gc_runs": gc_runs,
                "driver.ftl.gc_page_moves": gc_moves,
                "driver.ftl.cmt_hit_ratio": hits / lookups,
            },
            raw=legs,
        )

    def contracts(self, seed: int, reference: Outcome) -> list[str]:
        def overall_wa(days: list) -> float:
            host = sum(day.host_page_writes for day in days)
            return sum(day.flash_page_writes for day in days) / host

        off, on = (overall_wa(reference.raw[p]) for p in self.policies)
        if on >= off:
            return [
                f"separation did not lower write amplification: "
                f"{on:.4f} (on) vs {off:.4f} (off)"
            ]
        return []

    def inputs(self, seed: int) -> str:
        configs = [self.config(seed, policy) for policy in self.policies]
        return repr(configs) + _jobs_digest(
            SsdExperiment(configs[0]).generator
        )


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (PaperDay(), Fleet64(), OnlineMigration(), SsdUsers())
}
