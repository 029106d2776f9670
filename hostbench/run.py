"""Host-cost benchmark of the adaptive block rearrangement simulator.

Run from the root of a checkout::

    python3 hostbench/run.py --workload paper_day --seed 1 --seconds 20 --trace 0

One invocation:

1. runs the workload once, untimed, with the scalar engine
   (``repro.sim.engine.FAST_OVERRIDE = False``, the ``--no-fast`` switch)
   as the correctness reference, and re-proves the workload's contracts
   on that pass;
2. makes one warm-up run with the default engine and no tracer, then
   repeats it for ``--seconds`` seconds, timing each whole run and its
   rig set-up, and compares every run's statistics with the reference
   (the warm-up run is checked too, but not timed);
3. with ``--trace 1``, makes one traced run, with spans around each
   layer's entry points (see ``spans.py``).

With ``--trace 0``, one more untimed run in a fresh process, made beside
the reference pass, gives the peak resident memory.

The host's speed drifts by up to 2x within seconds when other tenants
load the machine, and the drift hits the program and any other Python
code alike.  So a fixed reference loop (:func:`reference_s`) is timed
before and after every timed run, and each run's host seconds are
scaled by ``REFERENCE_NOMINAL_S`` over the mean of those two timings:
the reported times are seconds on a host where the reference loop takes
``REFERENCE_NOMINAL_S``.  The ``samples`` line keeps the raw seconds.

Lines naming each failed check come first; the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``).  Exits with 2, printing no result, when the program
sources are not beside the benchmark.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RSS_TIMEOUT_S = 150
MAX_DIFFS_SHOWN = 6
REFERENCE_NOMINAL_S = 0.05
"""About the reference loop's time in the fast spells of a shared 2-vCPU
x86-64 VM (Python 3.11); the reported times are scaled to this host
speed."""


def metric_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for ``"end_to_end"`` or ``"per_layer"``, as
    listed in the root ``BENCHMARK.json``."""
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    return {metric["name"]: metric["unit"] for metric in listed}


def diff_payloads(reference, got, path: str = "") -> list[tuple]:
    """Every leaf where ``got`` differs from ``reference``, with its path."""
    if isinstance(reference, dict) and isinstance(got, dict):
        diffs = []
        for key in sorted(set(reference) | set(got), key=str):
            where = f"{path}.{key}" if path else str(key)
            if key not in reference or key not in got:
                diffs.append((where, reference.get(key), got.get(key)))
            else:
                diffs.extend(diff_payloads(reference[key], got[key], where))
        return diffs
    if isinstance(reference, list) and isinstance(got, list):
        if len(reference) != len(got):
            return [(f"{path}.length", len(reference), len(got))]
        diffs = []
        for index, (left, right) in enumerate(zip(reference, got)):
            diffs.extend(diff_payloads(left, right, f"{path}[{index}]"))
        return diffs
    if type(reference) is not type(got) or reference != got:
        return [(path, reference, got)]
    return []


def describe(diffs: list[tuple]) -> str:
    shown = "; ".join(
        f"{path}: {got!r} != {want!r}"
        for path, want, got in diffs[:MAX_DIFFS_SHOWN]
    )
    more = len(diffs) - MAX_DIFFS_SHOWN
    return shown + (f"; and {more} more" if more > 0 else "")


def _last_line() -> str:
    """The exception being handled, as its traceback's last line."""
    return traceback.format_exc().strip().splitlines()[-1]


def reference_s() -> float:
    """Host seconds for a fixed loop of heap, dict and float work, the
    operations the simulator's event loop is made of."""
    heap: list = []
    counts: dict[int, int] = {}
    total = 0.0
    gc.collect()
    start = perf_counter_ns()
    for i in range(60_000):
        heapq.heappush(heap, ((i * 7919) % 10007 * 0.5, i))
        counts[i % 977] = counts.get(i % 977, 0) + 1
        if len(heap) > 64:
            total += heapq.heappop(heap)[0] * 1.0001
    return (perf_counter_ns() - start) / 1e9


def timed_run(workload, seed: int, points: list, root: bool = False):
    """One whole run under ``points``; returns (outcome, wall_s, recorder)."""
    from spans import ROOT_SPAN, Recorder, instrument

    recorder = Recorder()
    gc.collect()
    with instrument(recorder, points):
        start = perf_counter_ns()
        if root:
            with recorder.span(ROOT_SPAN):
                outcome = workload.run(seed)
        else:
            outcome = workload.run(seed)
        wall_s = (perf_counter_ns() - start) / 1e9
    return outcome, wall_s, recorder


class Tally:
    """Attempted and failed runs, with a line naming each failure."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.attempted = 0
        self.failed = 0
        self.broken_contracts = 0

    def fail(self, what: str, message: str) -> None:
        print(f"FAILED {self.name} {what}: {message}", flush=True)

    def check(self, what: str, reference, first, outcome) -> None:
        self.attempted += 1
        if reference is None:
            self.failed += 1
            self.fail(what, "no scalar reference to check against")
            return
        diffs = diff_payloads(reference.payload, outcome.payload)
        if diffs:
            self.failed += 1
            self.fail(
                what, "differs from the scalar reference at " + describe(diffs)
            )
            return
        if first is not None:
            diffs = diff_payloads(first.payload, outcome.payload)
            if diffs:
                self.failed += 1
                self.fail(
                    what,
                    "differs from the first timed run at " + describe(diffs),
                )

    def raised(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.fail(what, _last_line())

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.broken_contracts == 0


def reference_pass(workload, seed: int, tally: Tally):
    """The untimed scalar-engine run and the workload's contracts."""
    import repro.sim.engine as engine

    saved = engine.FAST_OVERRIDE
    engine.FAST_OVERRIDE = False
    try:
        reference = workload.run(seed)
        broken = workload.contracts(seed, reference)
    except Exception:
        tally.broken_contracts += 1
        tally.fail("reference", _last_line())
        return None
    finally:
        engine.FAST_OVERRIDE = saved
    for message in broken:
        tally.broken_contracts += 1
        tally.fail("contract", message)
    return reference


def start_memory_run(args) -> subprocess.Popen:
    """One untimed run in a fresh process, for its peak memory.  It runs
    beside the untimed reference pass and ends before any timing."""
    return subprocess.Popen(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload",
            args.workload,
            "--seed",
            str(args.seed),
            "--rss-child",
        ],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def finish_memory_run(child: subprocess.Popen) -> tuple[float, str | None]:
    """Peak RSS of the memory run, and the error it raised, if any."""
    stdout, stderr = child.communicate(timeout=RSS_TIMEOUT_S)
    if child.returncode != 0:
        raise RuntimeError(
            f"memory run exited {child.returncode}: {stderr.strip()[-500:]}"
        )
    report = json.loads(stdout.strip().splitlines()[-1])
    return report["peak_rss_mb"], report["error"]


def rss_child(workload, seed: int) -> int:
    error = None
    try:
        workload.run(seed)
    except Exception:
        error = _last_line()
    # ru_maxrss is in KiB on Linux.
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"peak_rss_mb": peak, "error": error}))
    return 0


def measure(workload, args, tally: Tally, reference) -> list[dict]:
    """One warm-up run, then untraced whole runs for ``--seconds``
    seconds.  Each sample holds a run's raw ``run_s`` and ``setup_s``,
    its simulated ``requests`` and its ``reference_s``, the mean of the
    reference loop timed just before and just after it."""
    from spans import setup_points

    points = setup_points()
    samples = []
    first = None
    deadline = None
    before_s = reference_s()
    while (
        deadline is None
        or perf_counter_ns() < deadline
        or (not samples and tally.attempted < 3)
    ):
        what = f"run {tally.attempted + 1}"
        try:
            outcome, run_s, recorder = timed_run(workload, args.seed, points)
        except Exception:
            tally.raised(what)
            outcome = None
        after_s = reference_s()
        if outcome is not None:
            tally.check(what, reference, first, outcome)
        if deadline is None:
            # The warm-up run: checked, not timed.
            deadline = perf_counter_ns() + int(args.seconds * 1e9)
        elif outcome is not None:
            samples.append(
                {
                    "run_s": run_s,
                    "setup_s": recorder.total_s("setup"),
                    "requests": outcome.requests,
                    "reference_s": (before_s + after_s) / 2,
                }
            )
        first = first or outcome
        before_s = after_s
    return samples


def end_to_end(samples: list[dict], rss_mb: float) -> dict[str, float]:
    """Medians over the samples, each scaled to the nominal host speed."""

    def scaled(sample: dict, seconds: float) -> float:
        return seconds * REFERENCE_NOMINAL_S / sample["reference_s"]

    return {
        "run_s": statistics.median(
            scaled(sample, sample["run_s"]) for sample in samples
        ),
        "setup_s": statistics.median(
            scaled(sample, sample["setup_s"]) for sample in samples
        ),
        "sim_requests_per_s": statistics.median(
            sample["requests"]
            / scaled(sample, sample["run_s"] - sample["setup_s"])
            for sample in samples
        ),
        "peak_rss_mb": rss_mb,
    }


def per_layer(
    workload, args, tally: Tally, reference, run_s: float
) -> dict[str, float]:
    """One traced run: self time per layer plus boundary counters."""
    from spans import ROOT_SPAN, layer_points

    what = "traced run"
    try:
        outcome, _, recorder = timed_run(
            workload, args.seed, layer_points(), root=True
        )
    except Exception:
        tally.raised(what)
        return {}
    tally.check(what, reference, None, outcome)
    self_s = {
        name: ns / 1e9 for name, ns in recorder.self_times_ns().items()
    }
    wall_s = recorder.total_s(ROOT_SPAN)
    shards = recorder.durations_s("fleet.shard")
    sim_s = self_s.get("sim.run", 0.0)
    units = metric_units("per_layer")
    metrics = {name: 0.0 for name in units}
    metrics.update(
        (f"{name}_s" if name != ROOT_SPAN else "bench.other_s", seconds)
        for name, seconds in self_s.items()
    )
    metrics.update(recorder.counts)
    metrics.update(outcome.counts)
    metrics.update(
        {
            "sim.events_per_s": (
                metrics["sim.events"] / sim_s if sim_s else 0.0
            ),
            "fleet.shard_s.median": (
                statistics.median(shards) if shards else 0.0
            ),
            "fleet.shard_s.max": max(shards, default=0.0),
            "bench.traced_wall_s": wall_s,
            "bench.tracing_overhead": wall_s / run_s,
        }
    )
    unknown = set(metrics) - set(units)
    if unknown:
        raise RuntimeError(f"unlisted per-layer metrics: {sorted(unknown)}")
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--rss-child", action="store_true", help=argparse.SUPPRESS
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"known: {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.rss_child:
        return rss_child(workload, args.seed)

    tally = Tally(workload.name)
    child = None if args.trace else start_memory_run(args)
    try:
        reference = reference_pass(workload, args.seed, tally)
        if child is not None:
            rss_mb, error = finish_memory_run(child)
            if error is not None:
                tally.attempted += 1
                tally.failed += 1
                tally.fail("memory run", error)
    finally:
        if child is not None and child.poll() is None:
            child.kill()
            child.wait()
    samples = measure(workload, args, tally, reference)
    if not samples:
        print("error: every timed run raised", file=sys.stderr)
        return 1
    print(
        "samples",
        json.dumps(
            {
                key: [sample[key] for sample in samples]
                for key in ("run_s", "setup_s", "reference_s")
            }
        ),
        flush=True,
    )
    if args.trace:
        run_s = statistics.median(sample["run_s"] for sample in samples)
        metrics = per_layer(workload, args, tally, reference, run_s)
        units = metric_units("per_layer")
    else:
        metrics = end_to_end(samples, rss_mb)
        units = metric_units("end_to_end")
    if set(metrics) != set(units):
        print("error: a metric could not be measured", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {
                "correct": tally.correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": units[name]}
                    for name in units
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
