"""Scalar-vs-vector equivalence for the batch simulation kernel.

The scalar engine is the executable specification; the batch kernel
(:mod:`repro.sim.vector`) must reproduce its metrics *bit for bit*.
Every test here runs the same workload twice — kernel on and off (the
engine's ``fast`` flag, or :data:`repro.sim.engine.FAST_OVERRIDE` for
whole experiments) — and compares the canonical metrics digest, the same
sha256 the benchmark suite pins.  A single float added in a different
order changes the digest, so equality is the strongest equivalence
statement the metrics layer can express.
"""

import os
import random

import pytest

from repro.api import make_config
from repro.bench.digest import day_metrics_payload, metrics_digest
from repro.disk.disk import Disk
from repro.disk.label import DiskLabel
from repro.disk.models import disk_model
from repro.driver.driver import AdaptiveDiskDriver
from repro.driver.ioctl import IoctlInterface
from repro.driver.queue import make_queue
from repro.driver.request import Op
from repro.faults.spec import parse_fault_spec
from repro.sim import engine
from repro.sim.engine import Simulation
from repro.sim.experiment import Experiment
from repro.sim.jobs import batch_job, sequential_job
from repro.stats.metrics import DayMetrics


def _experiment_digests(fast: bool, hours: float = 0.05, **overrides):
    """Per-day metrics digests of a two-day off/on experiment, with its
    online-migration counters and dispatched-event count."""
    config = make_config("system", hours=hours, **overrides)
    digests = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "FAST_OVERRIDE", fast)
        experiment = Experiment(config)
        schedule = [False, True]
        for day, on_today in enumerate(schedule):
            on_tomorrow = schedule[day + 1] if day + 1 < len(schedule) else False
            result = experiment.run_day(
                rearranged=on_today, rearrange_tomorrow=on_tomorrow
            )
            digests.append(metrics_digest(day_metrics_payload(result.metrics)))
    return (
        digests,
        experiment.controller.online_stats,
        experiment.events_dispatched,
    )


def _run_jobs(make_jobs, fast: bool, crash_ms: float | None = None):
    """Digest + completed count of a bare job list on a fresh driver."""
    model = disk_model("toshiba")
    label = DiskLabel(model.geometry, reserved_cylinders=48)
    driver = AdaptiveDiskDriver(
        disk=Disk(model), label=label, queue=make_queue("scan")
    )
    simulation = Simulation(driver, fast=fast)
    simulation.add_jobs(make_jobs())
    if crash_ms is not None:
        simulation.schedule_crash(crash_ms)
    completed = simulation.run()
    metrics = DayMetrics.from_tables(
        IoctlInterface(driver).read_stats(),
        model.seek,
        day=0,
        rearranged=False,
    )
    digest = metrics_digest(day_metrics_payload(metrics))
    return digest, len(completed) + simulation.absorbed_completions


class TestUnitEquivalence:
    def test_batch_of_one(self):
        # The smallest batch: admission, drain and completion accounting
        # must all handle n=1 (no "previous request" to lean on).
        make = lambda: [batch_job(0.0, [13], Op.WRITE, name="one")]
        assert _run_jobs(make, True) == _run_jobs(make, False)

    def test_single_sequential_step(self):
        make = lambda: [sequential_job(0.0, [99], Op.READ, name="one")]
        assert _run_jobs(make, True) == _run_jobs(make, False)

    def test_epoch_boundary_splits_batch(self):
        # The crash lands while the burst is draining: the epoch bump
        # strands an already-scheduled completion, which the kernel must
        # recognize as stale and hand back to the scalar path; the
        # resubmitted requests then flow through the kernel again.
        make = lambda: [
            batch_job(0.0, list(range(0, 4000, 37)), Op.READ, name="burst")
        ]
        fast = _run_jobs(make, True, crash_ms=80.0)
        scalar = _run_jobs(make, False, crash_ms=80.0)
        assert fast == scalar

    def test_fault_mid_batch(self):
        # Fault injection makes the device ineligible, so fast mode must
        # fall back to scalar dispatch entirely — digests stay identical
        # even with transient retries and media errors mid-burst.
        spec = "seed=5,transient=0.01,retries=3,media=rand:2"
        overrides = dict(disk="toshiba", faults=parse_fault_spec(spec))
        assert _experiment_digests(True, **overrides) == _experiment_digests(
            False, **overrides
        )


STRESS_SEEDS = [11, 23, 37]
if os.environ.get("VECTOR_STRESS_SEED"):
    # CI runs extra pinned seeds; a failure reproduces with
    # ``VECTOR_STRESS_SEED=<n>``.
    STRESS_SEEDS.append(int(os.environ["VECTOR_STRESS_SEED"]))


@pytest.mark.parametrize("seed", STRESS_SEEDS)
def test_randomized_equivalence_stress(seed):
    """Seeded sweep: random disk preset, faults on/off, online policy
    on/off, random workload seed — fast and scalar digests must match
    for every drawn configuration."""
    rng = random.Random(seed)
    for _ in range(2):
        overrides = {
            "disk": rng.choice(["toshiba", "fujitsu"]),
            "seed": rng.randrange(1, 10_000),
        }
        if rng.random() < 0.5:
            crash_ms = int(rng.uniform(20_000, 60_000))
            overrides["faults"] = parse_fault_spec(
                f"seed={rng.randrange(1, 100)},transient=0.002,retries=3,"
                f"media=rand:2,crash=day1@{crash_ms}"
            )
        if rng.random() < 0.5:
            overrides["policy"] = "online"
        assert _experiment_digests(True, **overrides) == _experiment_digests(
            False, **overrides
        ), f"digest divergence for {overrides}"


def test_online_day_crossing_idle_windows_matches_scalar():
    """Sequential job starts must reach the bus while the online policy's
    idle detector listens for them: absorbing them in the kernel let it
    validate idle windows the scalar engine rejects.  In steps of 0.1 h,
    1.4-hour days are the shortest at which seed 1993 showed that
    divergence (one window and one event apart); 0.5-hour days agree
    either way."""
    overrides = dict(disk="toshiba", seed=1993, policy="online", hours=1.4)
    fast = _experiment_digests(True, **overrides)
    scalar = _experiment_digests(False, **overrides)
    assert fast[1] == scalar[1]
    assert fast == scalar
