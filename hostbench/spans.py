"""Spans recorded from outside the program, around its layer entry points.

The benchmark never passes a ``repro.obs`` tracer: any tracer forces the
scalar engine, so an observed run would execute different code from the
timed one.  Instead :func:`instrument` swaps each entry point named in a
:class:`Point` for a timing wrapper on the class or module that owns it,
and puts the original object back when the ``with`` block ends.

Two kinds of timer share the mechanism:

* *layer* spans form a tree under the benchmark's root span.  A layer's
  self time is its span's duration minus its child spans, and the root's
  unclaimed remainder is ``bench.other``, so all self times sum to the
  root's wall time exactly (integer nanoseconds).
* *probes* only record their duration.  They stay out of the tree, so the
  layer spans they enclose are children of the enclosing layer span.
  The rig constructors (``setup``) and fleet shards are probes.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Any, Callable, Iterator

ROOT_SPAN = "bench.other"
"""Name of the root span; its self time is the unclaimed remainder."""


@dataclass(frozen=True)
class Point:
    """One wrapped entry point: ``owner.attr`` timed as span ``span``."""

    owner: Any
    """Class or module whose attribute is replaced."""
    attr: str
    span: str
    layer: bool = True
    """``False`` makes it a probe: timed, but outside the self-time tree."""
    count: Callable[[tuple, Any], dict[str, float]] | None = None
    """Counters read at the boundary from the call's arguments and result."""


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int = 0
    parent: int | None = None
    layer: bool = True

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


@dataclass
class Recorder:
    """Spans and counters of one run, kept in memory."""

    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    _stack: list[int] = field(default_factory=list)

    def begin(self, name: str, layer: bool = True) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            Span(name, perf_counter_ns(), parent=parent, layer=layer)
        )
        index = len(self.spans) - 1
        if layer:
            self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        span = self.spans[index]
        span.end_ns = perf_counter_ns()
        if span.layer:
            popped = self._stack.pop()
            if popped != index:
                raise RuntimeError(f"span {span.name!r} closed out of order")

    @contextmanager
    def span(self, name: str, layer: bool = True) -> Iterator[None]:
        index = self.begin(name, layer)
        try:
            yield
        finally:
            self.end(index)

    def durations_s(self, name: str) -> list[float]:
        """Durations of every span called ``name``, in seconds."""
        return [
            span.duration_ns / 1e9 for span in self.spans if span.name == name
        ]

    def total_s(self, name: str) -> float:
        return sum(self.durations_s(name))

    def self_times_ns(self) -> dict[str, int]:
        """Self time per layer span name (probes excluded)."""
        child_ns: dict[int, int] = defaultdict(int)
        for span in self.spans:
            if span.layer and span.parent is not None:
                child_ns[span.parent] += span.duration_ns
        totals: dict[str, int] = defaultdict(int)
        for index, span in enumerate(self.spans):
            if span.layer:
                totals[span.name] += span.duration_ns - child_ns[index]
        return dict(totals)


def _wrap(func: Callable, point: Point, recorder: Recorder) -> Callable:
    @functools.wraps(func)
    def timed(*args, **kwargs):
        index = recorder.begin(point.span, point.layer)
        try:
            result = func(*args, **kwargs)
        finally:
            recorder.end(index)
        if point.count is not None:
            recorder.counts.update(point.count(args, result))
        return result

    return timed


@contextmanager
def instrument(recorder: Recorder, points: list[Point]) -> Iterator[None]:
    """Wrap every point for the duration of the block, then restore the
    exact original objects (functions, classmethods, dataclass inits)."""
    saved: list[tuple[Any, str, Any]] = []
    try:
        for point in points:
            raw = point.owner.__dict__[point.attr]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(_wrap(raw.__func__, point, recorder))
            else:
                wrapped = _wrap(raw, point, recorder)
            saved.append((point.owner, point.attr, raw))
            setattr(point.owner, point.attr, wrapped)
        yield
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


def setup_points() -> list[Point]:
    """Probes around the rig constructors: the run's set-up time."""
    from repro.sim.experiment import Experiment
    from repro.sim.multifs import MultiDiskExperiment
    from repro.sim.ssd import SsdExperiment

    return [
        Point(owner, "__init__", "setup", layer=False)
        for owner in (Experiment, MultiDiskExperiment, SsdExperiment)
    ]


def _sim_counts(args: tuple, _result: Any) -> dict[str, float]:
    # Every runner calls ``run()`` once per day on a fresh Simulation, so
    # the per-simulation totals read after the call are that day's.
    simulation = args[0]
    return {
        "sim.events": simulation.events_dispatched,
        "sim.kernel_absorbed": simulation.absorbed_completions,
    }


def layer_points() -> list[Point]:
    """Spans at each layer boundary the workloads cross."""
    import repro.fleet.runner as fleet_runner
    from repro.core.controller import RearrangementController
    from repro.disk.disk import Disk
    from repro.driver.driver import AdaptiveDiskDriver
    from repro.driver.ftl import FtlDriver
    from repro.driver.ioctl import IoctlInterface
    from repro.fleet.result import FleetResult
    from repro.sim.engine import Simulation
    from repro.stats.metrics import DayMetrics
    from repro.workload.generator import WorkloadGenerator

    return [
        Point(Disk, "__init__", "disk.setup"),
        Point(AdaptiveDiskDriver, "__init__", "driver.setup"),
        Point(WorkloadGenerator, "__init__", "workload.populate"),
        Point(
            WorkloadGenerator,
            "generate_day",
            "workload.generate",
            count=lambda _args, day: {"workload.requests": day.num_requests},
        ),
        Point(Simulation, "run", "sim.run", count=_sim_counts),
        Point(RearrangementController, "end_of_day", "core.nightly"),
        Point(IoctlInterface, "read_stats", "stats.fold"),
        Point(DayMetrics, "from_tables", "stats.fold"),
        Point(fleet_runner, "build_shard_tasks", "fleet.plan"),
        Point(fleet_runner, "_run_shard", "fleet.shard", layer=False),
        Point(FleetResult, "payload", "fleet.aggregate"),
        Point(FtlDriver, "precondition", "driver.ftl.precondition"),
    ]
