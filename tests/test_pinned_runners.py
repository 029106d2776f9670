"""Pinned metrics digests for the runners no bench scenario covers.

The ``repro bench`` digests pin the single-disk, fault, fleet, SSD and
trace-replay paths.  Two runners sit outside them: the several-file-
systems-on-one-disk experiment and the FTL trace replay with pre-trained
hot/cold separation.  Their canonical day payloads are hard-coded here so
any change to how a rig is assembled or a day is run shows up as a
digest mismatch.
"""

import dataclasses

from repro.api import replay_trace
from repro.bench.digest import day_metrics_payload, metrics_digest
from repro.sim.multifs import FileSystemSpec, MultiFSExperiment
from repro.workload.profiles import SYSTEM_FS_PROFILE, USERS_FS_PROFILE

MULTIFS_DIGEST = (
    "sha256:556921a041c6012bae14c4c9a451f756fdf928884d39cb5ec4669e4e62ac2197"
)
SSD_REPLAY_DIGEST = (
    "sha256:d3244b0ce8064b6fedf7cf116a53cc9f553727fa2a697cc67e73ecff678e3cc5"
)


def _multifs_experiment() -> MultiFSExperiment:
    users = dataclasses.replace(
        USERS_FS_PROFILE.scaled(hours=0.05),
        num_directories=8,
        files_per_directory=40,
        mean_file_blocks=4.0,
    )
    return MultiFSExperiment(
        [
            FileSystemSpec(SYSTEM_FS_PROFILE.scaled(hours=0.05), 0.6, seed=3),
            FileSystemSpec(users, 0.4, seed=4),
        ],
        num_blocks=200,
    )


def test_multifs_two_days_digest():
    experiment = _multifs_experiment()
    days = []
    for rearranged, tomorrow in ((False, True), (True, False)):
        day = experiment.run_day(
            rearranged=rearranged, rearrange_tomorrow=tomorrow
        )
        days.append(
            {
                "metrics": day_metrics_payload(day.metrics),
                "per_fs_requests": day.per_fs_requests,
                "rearranged_blocks": day.rearranged_blocks,
                "rearranged_per_fs": day.rearranged_per_fs,
            }
        )
    assert days[1]["rearranged_blocks"] > 0
    assert experiment.events_dispatched > 0
    assert metrics_digest(days) == MULTIFS_DIGEST


def test_ssd_trace_replay_with_separation_digest():
    result = replay_trace(
        "tests/fixtures/sample.blkparse", disk="ssd", rearrange=True
    )
    payload = {"events": result.events, **result.payload()}
    assert metrics_digest(payload) == SSD_REPLAY_DIGEST
