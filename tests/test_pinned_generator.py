"""Pinned digests of the workload generator's output and random stream.

Every runner consumes :meth:`WorkloadGenerator.generate_day`, so any
change to how a day is drawn — the order of the draws, how many are
taken, which blocks they touch — must leave these digests alone.  Each
case hashes three generated days (their ``dump_jobs`` text and sorted
reference counts), the buffer cache's hit/miss/write-back counters and
the generator's final bit-generator state, so a change that yields the
same jobs but leaves the stream elsewhere, or skips a cache write whose
block was already dirty, shows up too.

Days are two hours long: long enough for tens of thousands of
cache-served opens, sync bursts, cron spikes and (on the *users*
profile) file creation, extension and rewrites, yet cheap enough for the
tier-1 suite.
"""

import hashlib
import io
from dataclasses import replace

import pytest

from repro.disk.label import DiskLabel
from repro.disk.models import disk_model
from repro.sim.rig import make_partition
from repro.workload.generator import WorkloadGenerator
from repro.workload.profiles import PROFILES, profile_for_disk
from repro.workload.trace import dump_jobs

DAY_HOURS = 2.0
DAYS = 3


def _digest(profile, disk: str, seed: int) -> str:
    model = disk_model(disk)
    profile = profile_for_disk(profile, disk).scaled(hours=DAY_HOURS)
    label = DiskLabel(model.geometry, reserved_cylinders=48)
    generator = WorkloadGenerator(
        profile,
        make_partition(label, profile),
        model.geometry.blocks_per_cylinder,
        seed=seed,
    )
    digest = hashlib.sha256()
    for __ in range(DAYS):
        workload = generator.generate_day()
        stream = io.StringIO()
        dump_jobs(workload.jobs, stream)
        digest.update(stream.getvalue().encode())
        digest.update(repr(sorted(workload.all_counts.items())).encode())
        digest.update(repr(sorted(workload.read_counts.items())).encode())
    cache = generator.cache
    digest.update(repr((cache.hits, cache.misses, cache.write_backs)).encode())
    digest.update(repr(generator.rng.bit_generator.state).encode())
    return "sha256:" + digest.hexdigest()


PRESET_DIGESTS = {
    "system-toshiba-1": (
        "sha256:50cfe3447cd06c8bc98ee66b0900c1375ac22fe6740babed3b54d98c99ba157f"
    ),
    "system-toshiba-7": (
        "sha256:c5de55f0350114a050b6324784281746c68a0e54c0476a0356d2b5d53d12bbba"
    ),
    "system-toshiba-1993": (
        "sha256:d0ae773f3b6db582d15a0659621e18bd1c8fc9b98f02319e47874446bc1221cb"
    ),
    "system-fujitsu-1": (
        "sha256:6b3f40cfbd8874bca880be16d8be6f060de986d94ffdbd6974cf0d04773a7d06"
    ),
    "system-fujitsu-7": (
        "sha256:53b302ba0e40e14023cf8e53c65bb277cff236bee398079493602898cb598726"
    ),
    "system-fujitsu-1993": (
        "sha256:1a0bfdba8ff4cb92f0812ec6f9d3e7a1b78fe5fb592de839c89ee580d45287e7"
    ),
    "users-toshiba-1": (
        "sha256:108a84a995cd71bae013861ac78efd8343d71a684f3ea93c571621f0fdd68725"
    ),
    "users-toshiba-7": (
        "sha256:9433ddba60724f9a2f1f599dbd055617cfdee888ab124d0e1a04006f82f763a0"
    ),
    "users-toshiba-1993": (
        "sha256:08f04fa17c475ba7ac8adcebd9968ba2a5b823634d640867f65f7eac5c9e5cd7"
    ),
    "users-fujitsu-1": (
        "sha256:c98a5ebf95b4a39d3095f448eb912730dad5f11971037b855630ba4c99d0441e"
    ),
    "users-fujitsu-7": (
        "sha256:83e34b7095c42f65fc3fff61d02367630aa9bf037ee46140f622916a15d6c828"
    ),
    "users-fujitsu-1993": (
        "sha256:4fd1a80e308914ad81d076a75c559ba66e89108d6bccb36017053c56804de454"
    ),
}


@pytest.mark.parametrize("case", sorted(PRESET_DIGESTS))
def test_preset_generator_digest(case):
    name, disk, seed = case.split("-")
    assert _digest(PROFILES[name], disk, int(seed)) == PRESET_DIGESTS[case]


# The two open-path branches the presets never take: the *system*
# profile always updates directory atimes, *users* never does, and no
# preset turns atime updates off.  With one i-node block per cylinder
# group a directory's i-node shares its block with its files' i-nodes,
# so dropping the directory update shows only in the cache counters.
VARIANT_DIGESTS = {
    "dir_atime_updates": (
        "sha256:12072addbd8039e73f3500a4188a4b1a278c20875b9072d577e729dc622be596"
    ),
    "atime_updates": (
        "sha256:e5fe60b051bbde5d128a1d9eb5c67d82d71e3c2a7c2e436cc36133978b6ee814"
    ),
}


@pytest.mark.parametrize("field", sorted(VARIANT_DIGESTS))
def test_atime_variant_digest(field):
    profile = replace(PROFILES["system"], **{field: False})
    assert _digest(profile, "toshiba", 7) == VARIANT_DIGESTS[field]
