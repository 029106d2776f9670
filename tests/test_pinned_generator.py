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

Further pins cover what a generator starts from and what fleets run:
the state right after construction (file tree, i-nodes, free maps,
popularity ranks, random stream) for the same presets and for two
tenancy-derived fleet devices, and one small fleet run end to end.
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


# ---------------------------------------------------------------------------
# The state a generator starts its first day from: the initial file tree
# (every file's place, i-node and blocks), the allocator's free maps, the
# popularity ranks and the random stream right after population.
# ---------------------------------------------------------------------------


def _state_digest(generator: WorkloadGenerator) -> str:
    digest = hashlib.sha256()
    for dir_name, file_name, inode in generator.fs.all_files():
        digest.update(
            repr(
                (
                    dir_name,
                    file_name,
                    inode.inumber,
                    inode.inode_block,
                    inode.data_blocks,
                )
            ).encode()
        )
    for group in generator.fs._allocator.groups:
        digest.update(bytes(group.free._bits))
    digest.update(repr(generator._rank_of.tolist()).encode())
    digest.update(repr(generator.rng.bit_generator.state).encode())
    return "sha256:" + digest.hexdigest()


def _preset_generator(name: str, disk: str, seed: int) -> WorkloadGenerator:
    model = disk_model(disk)
    profile = profile_for_disk(PROFILES[name], disk)
    label = DiskLabel(model.geometry, reserved_cylinders=48)
    return WorkloadGenerator(
        profile,
        make_partition(label, profile),
        model.geometry.blocks_per_cylinder,
        seed=seed,
    )


INITIAL_STATE_DIGESTS = {
    "system-toshiba-1": (
        "sha256:97fd038f1fe5289f04ce8de57acc0fbfcbc150417e363a6ef3e2ee9f178a9ad6"
    ),
    "system-toshiba-7": (
        "sha256:df181c31d196cd72541ebd280d47f5976797eb257881aae6a88da192990d273a"
    ),
    "system-toshiba-1993": (
        "sha256:caa148d4c5881566a24cc7a95044d93d455a33d0d6c2854b21044ed715b320e2"
    ),
    "system-fujitsu-1": (
        "sha256:43a774263feb30794258ef82244d3d507e8f56b18e6ceef26a43a740b9a86043"
    ),
    "system-fujitsu-7": (
        "sha256:aa69d6f1a86f4270eccb8f71e90f8af054b26885030c52b0d71e60368ff7c35f"
    ),
    "system-fujitsu-1993": (
        "sha256:e668b7d7492b3b09e7aa4082ec7644a65f5b15520055d067c9130da3a859277e"
    ),
    "users-toshiba-1": (
        "sha256:beea479f28a87b82cc24607ef5d38748c63e5442f425a80d16b572181452bbfe"
    ),
    "users-toshiba-7": (
        "sha256:dfc117127b285d745ec85dbfa44ea8b11b882cc7c1d0172e014be9e68464c39a"
    ),
    "users-toshiba-1993": (
        "sha256:e4be67c225e444072e7cf8c78220ec6861e503bb4b315f6341a40164155a3be8"
    ),
    "users-fujitsu-1": (
        "sha256:7f3c1f4188edfd5563d6abe14fbf0f55e072de3b5a63f6755c54b848b5bf4224"
    ),
    "users-fujitsu-7": (
        "sha256:55674f19c6ad9bd57df4d1423300b54471aee61466829e89dba8abc8c50eff83"
    ),
    "users-fujitsu-1993": (
        "sha256:2860cf4e1e66e5913f4445c0dd7cb2845dff5eb2818093724955107e6f76f2d9"
    ),
}


@pytest.mark.parametrize("case", sorted(INITIAL_STATE_DIGESTS))
def test_initial_state_digest(case):
    name, disk, seed = case.split("-")
    generator = _preset_generator(name, disk, int(seed))
    assert _state_digest(generator) == INITIAL_STATE_DIGESTS[case]


# Fleet devices: tenancy-derived profiles (one home directory per
# tenant, ``user_locality`` 0.5) over a full-disk file system, with the
# fleet-wide shared hot set overlaid on the popularity ranks.  Device 0
# carries the heaviest tenant alone, device 37 six light ones.  Each
# case hashes the initial state, then the state after three generated
# days, which covers the directory-local session picks.
FLEET_DEVICE_DIGESTS = {
    0: (
        "sha256:4a54fdc5365843f3e0fc2a0683191bd8697a9d7fd5316ba46f019906e574a32e",
        "sha256:6d1d9d35c2b527cc309614dd474377bd4b1d9b7bea33031e30abab7e79bff17a",
    ),
    37: (
        "sha256:e84e4b027e1dd9baca1508599e82ea8b4e9940adfff2fbc271371405a1781d3a",
        "sha256:f87403b2bb5b6575856cab09b88dc719f4efbcb46a0043156887c58303431a5c",
    ),
}


def _fleet_generator(device: int) -> WorkloadGenerator:
    from repro.sim.multifs import DiskSpec, MultiDiskExperiment
    from repro.workload.tenancy import SharedHotSet, TenancySpec, device_profiles

    profiles = device_profiles(TenancySpec(), 64, hours=0.05)
    experiment = MultiDiskExperiment(
        [
            DiskSpec(
                disk="fujitsu",
                profile=profiles[device],
                name=f"disk{device}",
                seed=1000 + device,
                shared_hot=SharedHotSet(fraction=0.5, seed=77),
            )
        ]
    )
    return experiment.rigs[f"disk{device}"].generator


def _days_digest(generator: WorkloadGenerator, days: int) -> str:
    digest = hashlib.sha256()
    for __ in range(days):
        workload = generator.generate_day()
        stream = io.StringIO()
        dump_jobs(workload.jobs, stream)
        digest.update(stream.getvalue().encode())
        digest.update(repr(sorted(workload.all_counts.items())).encode())
    digest.update(_state_digest(generator).encode())
    return "sha256:" + digest.hexdigest()


@pytest.mark.parametrize("device", sorted(FLEET_DEVICE_DIGESTS))
def test_fleet_device_digest(device):
    generator = _fleet_generator(device)
    initial, after_days = FLEET_DEVICE_DIGESTS[device]
    assert _state_digest(generator) == initial
    assert _days_digest(generator, DAYS) == after_days


FLEET_RUN_DIGEST = (
    "sha256:da215dbffba93230f202e11fafcf60a844c97defe61a37f1043f825ab743df6f"
)


def test_small_fleet_run_digest():
    """A whole fleet run: population, days, nightly cycles, aggregation."""
    from repro.fleet import FleetSpec, run_fleet
    from repro.workload.tenancy import TenancySpec

    spec = FleetSpec(
        devices=4,
        days=3,
        hours=0.05,
        devices_per_shard=2,
        tenancy=TenancySpec(tenants=24),
        seed=5,
    )
    assert run_fleet(spec, workers=1).digest() == FLEET_RUN_DIGEST
