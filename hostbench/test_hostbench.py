"""Self-tests of the benchmark's own machinery.

Run from the root of a checkout::

    python3 -m pytest hostbench -q
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from run import (  # noqa: E402
    REFERENCE_NOMINAL_S,
    Tally,
    diff_payloads,
    end_to_end,
)
from spans import (  # noqa: E402
    ROOT_SPAN,
    Recorder,
    instrument,
    layer_points,
    setup_points,
)
from workloads import WORKLOADS  # noqa: E402

SEED = 11


@pytest.fixture(scope="module")
def ssd_outcome():
    return WORKLOADS["ssd_users"].run(SEED)


def test_same_outcome_passes_the_check(ssd_outcome):
    tally = Tally("ssd_users")
    tally.check("run", ssd_outcome, ssd_outcome, ssd_outcome)
    assert (tally.attempted, tally.failed) == (1, 0)
    assert tally.correct


def _one_ulp_lower(payload):
    day = payload["off"]["days"][0]
    day["mean_response_ms"] = math.nextafter(day["mean_response_ms"], 0.0)


@pytest.mark.parametrize(
    "perturb, path",
    [
        (
            lambda p: p["nightly"]["days"][1].update(gc_runs=-1),
            "nightly.days[1].gc_runs",
        ),
        (_one_ulp_lower, "off.days[0].mean_response_ms"),
        (lambda p: p["off"].pop("events"), "off.events"),
        (lambda p: p["off"]["days"].pop(), "off.days.length"),
    ],
)
def test_perturbed_payload_fails_the_check(
    ssd_outcome, capsys, perturb, path
):
    rerun = WORKLOADS["ssd_users"].run(SEED)
    perturb(rerun.payload)
    tally = Tally("ssd_users")
    tally.check("run 1", ssd_outcome, None, rerun)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert not tally.correct
    assert f"at {path}:" in capsys.readouterr().out


def test_diff_names_every_differing_leaf():
    reference = {"migration": {"windows": 14198, "moves": 19}, "days": [1.0]}
    got = {"migration": {"windows": 14206, "moves": 19}, "days": [1]}
    assert diff_payloads(reference, got) == [
        ("days[0]", 1.0, 1),
        ("migration.windows", 14198, 14206),
    ]


def test_times_are_scaled_to_the_nominal_host_speed():
    # A host at half the nominal speed: every time halves when scaled.
    sample = {
        "run_s": 3.0,
        "setup_s": 1.0,
        "requests": 400,
        "reference_s": 2 * REFERENCE_NOMINAL_S,
    }
    metrics = end_to_end([sample], rss_mb=60.0)
    assert metrics["run_s"] == pytest.approx(1.5)
    assert metrics["setup_s"] == pytest.approx(0.5)
    assert metrics["sim_requests_per_s"] == pytest.approx(400.0)
    assert metrics["peak_rss_mb"] == 60.0


def test_traced_self_times_sum_to_traced_wall():
    recorder = Recorder()
    with instrument(recorder, setup_points() + layer_points()):
        with recorder.span(ROOT_SPAN):
            WORKLOADS["fleet64"].run(SEED)
    self_ns = recorder.self_times_ns()
    (root,) = [span for span in recorder.spans if span.name == ROOT_SPAN]
    assert sum(self_ns.values()) == root.duration_ns
    assert all(ns >= 0 for ns in self_ns.values())
    assert {"driver.setup", "sim.run", "fleet.plan", "fleet.aggregate"} <= set(
        self_ns
    )
    # Probes are timed but claim no self time.
    assert len(recorder.durations_s("fleet.shard")) == 8
    assert "fleet.shard" not in self_ns and "setup" not in self_ns


def test_nested_spans_and_probes_self_times():
    recorder = Recorder()
    with recorder.span(ROOT_SPAN):
        with recorder.span("outer"):
            with recorder.span("probe", layer=False):
                with recorder.span("inner"):
                    pass
    spans = {span.name: span for span in recorder.spans}
    self_ns = recorder.self_times_ns()
    assert spans["inner"].parent == recorder.spans.index(spans["outer"])
    assert self_ns["outer"] == (
        spans["outer"].duration_ns - spans["inner"].duration_ns
    )
    assert sum(self_ns.values()) == spans[ROOT_SPAN].duration_ns


def _entry_points():
    points = setup_points() + layer_points()
    return points, [point.owner.__dict__[point.attr] for point in points]


def test_wrapped_entry_points_are_restored():
    points, before = _entry_points()
    recorder = Recorder()
    with instrument(recorder, points):
        wrapped = [point.owner.__dict__[point.attr] for point in points]
        assert all(new is not old for new, old in zip(wrapped, before))
        WORKLOADS["ssd_users"].run(SEED)
    after = [point.owner.__dict__[point.attr] for point in points]
    assert all(new is old for new, old in zip(after, before))
    assert recorder.durations_s("driver.ftl.precondition")


def test_entry_points_are_restored_when_the_run_raises():
    points, before = _entry_points()
    with pytest.raises(ZeroDivisionError):
        with instrument(Recorder(), points):
            1 / 0
    after = [point.owner.__dict__[point.attr] for point in points]
    assert all(new is old for new, old in zip(after, before))


def test_traced_run_keeps_the_batch_kernel_on():
    recorder = Recorder()
    with instrument(recorder, layer_points()):
        outcome = WORKLOADS["paper_day"].run(SEED)
    assert recorder.counts["sim.kernel_absorbed"] > 0
    assert recorder.counts["workload.requests"] == outcome.requests


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_the_same_inputs(name):
    workload = WORKLOADS[name]
    first = workload.inputs(SEED)
    assert workload.inputs(SEED) == first
    assert workload.inputs(SEED + 1) != first
