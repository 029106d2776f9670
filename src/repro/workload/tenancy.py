"""Multi-tenant fleet workloads: users, shared hot sets, device shards.

The paper measured one NFS server's disk serving ~40 users.  The fleet
layer (:mod:`repro.fleet`) scales that picture out: *tenants* (users)
generate traffic, tenants are deterministically assigned to *devices*,
and devices are grouped into *shards* that run on worker processes.
This module owns the workload side of that story:

* :class:`TenancySpec` — the population knobs: how many tenants, how
  skewed their traffic shares are (a Zipf over tenants: a few heavy
  users, a long tail), and how much of each device's hot set is drawn
  from a fleet-wide *shared* hot set (the same popular content — OS
  images, shared documents — hot on every device) versus tenant-private
  files.
* :func:`tenant_weights` / :func:`assign_tenants` — per-tenant traffic
  shares and the deterministic greedy assignment of tenants to devices
  (heaviest tenant first, always onto the currently lightest device).
  The assignment is a pure function of the spec and the device count, so
  every worker layout sees the identical fleet.
* :func:`device_profiles` — one :class:`WorkloadProfile` per device,
  derived from the base preset: the device's directory tree holds its
  tenants' home directories and its request rates carry exactly its
  tenants' combined traffic share.
* :class:`SharedHotSet` — the overlap mechanism, applied inside
  :class:`~repro.workload.generator.WorkloadGenerator`: the hottest
  ``fraction`` of popularity ranks is occupied by a fleet-wide file
  choice (same seed on every device) while the remaining ranks keep the
  device's own popularity draw.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .distributions import zipf_weights
from .profiles import PROFILES, WorkloadProfile

__all__ = [
    "SharedHotSet",
    "TenancySpec",
    "assign_tenants",
    "device_load_shares",
    "device_profiles",
    "tenant_weights",
]


@lru_cache(maxsize=None)
def _shared_files(seed: int, n: int, k: int) -> np.ndarray:
    """The ``k`` file indices of ``n`` that a seed-``seed`` hot set shares.

    Drawn once per ``(seed, n, k)`` and shared, read-only, by every
    device whose file count is ``n``.
    """
    shared = np.random.default_rng(seed).permutation(n)[:k]
    shared.flags.writeable = False
    return shared


@dataclass(frozen=True)
class SharedHotSet:
    """Fleet-wide hot content: a seeded choice of hot files.

    ``fraction`` of the popularity ranks — the hottest ones — are
    occupied by files chosen by a dedicated generator seeded with
    ``seed``.  Devices constructed with the same :class:`SharedHotSet`
    therefore agree on *which* file indices are hot (their physical
    blocks still differ per device: each device lays out its own file
    system), while the remaining ranks follow each device's private
    popularity draw.  ``fraction=0`` is a no-op; ``fraction=1`` makes
    every device's popularity ordering identical.
    """

    fraction: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")

    def apply(self, rank_of: np.ndarray) -> np.ndarray:
        """Overlay the shared hot set onto a device's rank permutation.

        ``rank_of[i]`` is file ``i``'s popularity rank (0 = hottest).
        The returned array gives the hottest ``fraction * n`` ranks to
        the shared file choice; all other files keep their relative
        device-local order in the remaining ranks.
        """
        n = len(rank_of)
        k = min(n, int(round(self.fraction * n)))
        if k <= 0:
            return rank_of
        shared_files = _shared_files(self.seed, n, k)
        rank = np.empty(n, dtype=rank_of.dtype)
        rank[shared_files] = np.arange(k, dtype=rank_of.dtype)
        # Files outside the shared set, ordered by their device-local rank.
        device_order = np.argsort(rank_of, kind="stable")
        in_shared = np.zeros(n, dtype=bool)
        in_shared[shared_files] = True
        rest = device_order[~in_shared[device_order]]
        rank[rest] = np.arange(k, n, dtype=rank_of.dtype)
        return rank


@dataclass(frozen=True)
class TenancySpec:
    """The fleet's user population and how its traffic is shaped."""

    tenants: int = 256
    """Users across the whole fleet."""
    tenant_skew: float = 1.1
    """Zipf exponent of per-tenant traffic shares (0 = uniform users;
    higher = a few heavy users dominate)."""
    hot_set_overlap: float = 0.5
    """Fraction of each device's hot popularity ranks occupied by the
    fleet-wide shared hot set (see :class:`SharedHotSet`)."""
    sessions_per_tenant_hour: float = 24.0
    """Read sessions one unit-weight tenant contributes per hour."""
    opens_per_tenant_hour: float = 90.0
    """Cache-served file opens (atime-update writes) per tenant-hour."""
    files_per_tenant: int = 24
    """Files in each tenant's home directory."""
    user_locality: float = 0.5
    """Probability consecutive sessions stay in the same tenant's home."""
    profile: str = "system"
    """Base preset the per-device profiles are derived from."""

    def __post_init__(self) -> None:
        if self.tenants < 1:
            raise ValueError("tenants must be positive")
        if self.tenant_skew < 0:
            raise ValueError("tenant_skew must be non-negative")
        if not 0.0 <= self.hot_set_overlap <= 1.0:
            raise ValueError("hot_set_overlap must be in [0, 1]")
        if self.files_per_tenant < 1:
            raise ValueError("files_per_tenant must be positive")
        if self.profile not in PROFILES:
            known = ", ".join(sorted(PROFILES))
            raise ValueError(
                f"unknown base profile {self.profile!r}; known: {known}"
            )

    def base_profile(self) -> WorkloadProfile:
        return PROFILES[self.profile]


def tenant_weights(spec: TenancySpec) -> np.ndarray:
    """Normalized per-tenant traffic shares (tenant 0 is the heaviest)."""
    return zipf_weights(spec.tenants, spec.tenant_skew)


def assign_tenants(spec: TenancySpec, devices: int) -> list[list[int]]:
    """Deterministically assign every tenant to one device.

    Greedy balanced assignment: tenants in descending weight order, each
    onto the device with the smallest load so far (ties broken by device
    index).  Pure function of ``(spec, devices)`` — no randomness — so
    the fleet layout is identical at every worker count and across runs.
    """
    if devices < 1:
        raise ValueError("devices must be positive")
    weights = tenant_weights(spec)
    loads = np.zeros(devices)
    assignment: list[list[int]] = [[] for __ in range(devices)]
    for tenant in range(spec.tenants):  # weights are already descending
        device = int(np.argmin(loads))  # first minimum wins ties
        assignment[device].append(tenant)
        loads[device] += weights[tenant]
    return assignment


def device_load_shares(spec: TenancySpec, devices: int) -> np.ndarray:
    """Each device's fraction of fleet traffic under :func:`assign_tenants`."""
    weights = tenant_weights(spec)
    shares = np.zeros(devices)
    for device, tenants in enumerate(assign_tenants(spec, devices)):
        shares[device] = weights[tenants].sum() if tenants else 0.0
    return shares


def device_profiles(
    spec: TenancySpec,
    devices: int,
    hours: float | None = None,
) -> list[WorkloadProfile]:
    """One workload profile per device, carrying its tenants' traffic.

    The base preset supplies the traffic *shape* (run lengths, sync
    cadence, popularity exponent over files); tenancy supplies the
    *scale*: the device's directory tree holds one home per assigned
    tenant and its session/open rates are the fleet totals times the
    device's traffic share.  A device with no tenants still carries a
    minimal single-directory tree at the lightest device's rate floor,
    so every disk in the fleet sees at least background traffic.
    """
    base = spec.base_profile()
    if hours is not None:
        base = base.scaled(hours)
    weights = tenant_weights(spec)
    assignment = assign_tenants(spec, devices)
    fleet_sessions = spec.sessions_per_tenant_hour * spec.tenants
    fleet_opens = spec.opens_per_tenant_hour * spec.tenants
    min_share = 1.0 / (10.0 * max(devices, 1))  # background-traffic floor
    profiles: list[WorkloadProfile] = []
    for device, tenants in enumerate(assignment):
        share = float(weights[tenants].sum()) if tenants else 0.0
        share = max(share, min_share)
        profiles.append(
            replace(
                base,
                name=f"{base.name}-tenant{device}",
                num_directories=max(1, len(tenants)),
                files_per_directory=spec.files_per_tenant,
                read_sessions_per_hour=fleet_sessions * share,
                open_sessions_per_hour=fleet_opens * share,
                user_locality=spec.user_locality,
            )
        )
    return profiles
