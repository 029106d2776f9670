"""Discrete-event simulation: the typed event bus, workload jobs, the
multi-device engine, and the paper's day-by-day experiment campaigns.

The core (events, jobs, engine) is imported eagerly.  The campaign layer
(:mod:`~repro.sim.rig`, :mod:`~repro.sim.experiment`,
:mod:`~repro.sim.multifs`, :mod:`~repro.sim.ssd`) is resolved
lazily on first attribute access: it depends on :mod:`repro.workload`,
which itself builds :mod:`~repro.sim.jobs` objects — loading it here
eagerly would make ``import repro.workload`` circular.
"""

import importlib

from .engine import DeviceState, Simulation
from .events import (
    DeviceComplete,
    EventBus,
    EventQueue,
    JobStart,
    MachineCrash,
    PeriodicFire,
    SimEvent,
    StepIssue,
    UnhandledEventError,
)
from .jobs import Job, Step, batch_job, sequential_job

_LAZY_MODULES = {
    "experiment": (
        "CampaignResult",
        "DayResult",
        "Experiment",
        "ExperimentConfig",
        "alternating_schedule",
        "run_block_count_sweep",
        "run_block_count_sweep_parallel",
        "run_campaign",
        "run_campaigns_parallel",
        "run_onoff_campaign",
        "run_policy_campaign",
    ),
    "multifs": (
        "DiskSpec",
        "FileSystemSpec",
        "MultiDiskDayResult",
        "MultiDiskExperiment",
        "MultiFSDayResult",
        "MultiFSExperiment",
    ),
    "rig": ("PAPER_REARRANGED_BLOCKS", "PAPER_RESERVED_CYLINDERS"),
    "ssd": ("SsdConfig", "SsdDayResult", "SsdExperiment"),
}
_LAZY_NAMES = {
    name: module for module, names in _LAZY_MODULES.items() for name in names
}


def __getattr__(name: str):
    if name in _LAZY_NAMES:
        module = importlib.import_module(f".{_LAZY_NAMES[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__all__ = [
    "CampaignResult",
    "DayResult",
    "DeviceComplete",
    "DeviceState",
    "DiskSpec",
    "EventBus",
    "EventQueue",
    "Experiment",
    "ExperimentConfig",
    "FileSystemSpec",
    "Job",
    "JobStart",
    "MachineCrash",
    "MultiDiskDayResult",
    "MultiDiskExperiment",
    "MultiFSDayResult",
    "MultiFSExperiment",
    "PAPER_REARRANGED_BLOCKS",
    "PAPER_RESERVED_CYLINDERS",
    "PeriodicFire",
    "SimEvent",
    "Simulation",
    "SsdConfig",
    "SsdDayResult",
    "SsdExperiment",
    "Step",
    "StepIssue",
    "UnhandledEventError",
    "alternating_schedule",
    "batch_job",
    "run_block_count_sweep",
    "run_block_count_sweep_parallel",
    "run_campaign",
    "run_campaigns_parallel",
    "run_onoff_campaign",
    "run_policy_campaign",
    "sequential_job",
]
