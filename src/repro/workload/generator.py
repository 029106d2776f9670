"""Multi-day synthetic workload generation.

The generator owns a simulated file system (for realistic FFS block
layout), a buffer cache (for the periodic-update write bursts), and a
file-popularity model (for the paper's skewed reference distributions).
Each call to :meth:`WorkloadGenerator.generate_day` produces one day's
worth of :class:`~repro.sim.jobs.Job` objects:

* **read sessions** — closed-loop sequential runs through popular files
  (clients reading executables / documents via NFS), arriving as a clumped
  Poisson process;
* **edit sessions** (*users* profile) — read runs whose blocks are written
  back through the buffer cache;
* **sync bursts** — every ``sync_interval_s`` the cache's dirty blocks
  (i-node access-time updates, edited data, superblock and cylinder-group
  summaries) are issued to the driver as one batch, reproducing the bursty
  write arrivals of Section 5.2;
* **background spikes** — periodic cron-style batches (log appends plus a
  scatter of cold reads) that add the heavy tail observed in the
  waiting-time distributions;
* **new-file creation and extension** (*users* profile) — writes to blocks
  that did not exist the previous day and therefore defeat rearrangement
  (Section 5.3).

Day-to-day drift is controlled by ``popularity_reshuffle_fraction``: each
new day that fraction of files exchange popularity ranks, modelling the
changing access patterns that made the *users* results weaker.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from typing import TYPE_CHECKING

import numpy as np

from ..driver.request import Op
from ..fs.allocator import AllocationError
from ..fs.buffercache import BufferCache
from ..fs.ufs import FileSystem, FileSystemError, Inode
from ..sim.jobs import Job, batch_job, sequential_job
from .distributions import (
    geometric_run_length,
    geometric_run_lengths,
    poisson_arrivals,
    zipf_weights,
)
from .profiles import WorkloadProfile

if TYPE_CHECKING:  # avoid importing tenancy on the generator hot path
    from .tenancy import SharedHotSet


@dataclass
class DayWorkload:
    """One generated day: jobs plus per-block reference counts."""

    day: int
    jobs: list[Job]
    read_counts: dict[int, int] = field(default_factory=dict)
    all_counts: dict[int, int] = field(default_factory=dict)

    @property
    def num_requests(self) -> int:
        """Total requests, from the reference counts (which equal the
        jobs' request total for generated days, but also work for
        count-only records rebuilt from measurements)."""
        return sum(self.all_counts.values())

    @property
    def num_reads(self) -> int:
        return sum(self.read_counts.values())

    @property
    def num_writes(self) -> int:
        return self.num_requests - self.num_reads


class WorkloadGenerator:
    """Reproducible multi-day workload for one file system on one disk."""

    def __init__(
        self,
        profile: WorkloadProfile,
        partition,
        blocks_per_cylinder: int,
        seed: int = 1993,
        shared_hot: SharedHotSet | None = None,
    ) -> None:
        self.profile = profile
        self.shared_hot = shared_hot
        self.rng = np.random.default_rng(seed)
        self.fs = FileSystem(
            partition=partition,
            blocks_per_cylinder=blocks_per_cylinder,
            cylinders_per_group=profile.cylinders_per_group,
            inode_blocks_per_group=profile.inode_blocks_per_group,
            interleave=profile.fs_interleave,
            directory_placement=profile.directory_placement,
        )
        self.cache = BufferCache(profile.cache_blocks)
        self._pending_evicted: list[int] = []
        self._groups_allocated: set[int] = set()
        self._day = 0
        self._new_file_serial = 0
        self._build_initial_tree()
        self._log_file = self._create_log_file()
        files = self.fs.all_files()
        self._inodes: list[Inode] = [inode for __, __, inode in files]
        self._file_keys: list[tuple[str, str]] = [
            (d, n) for d, n, __ in files
        ]
        # Each directory's file indices, ascending, for the
        # directory-local session pick; empty directories included, since
        # files created later may land in them.
        self._dir_files: dict[str, list[int]] = {
            name: [] for name in self.fs.directories
        }
        for index, (directory, __) in enumerate(self._file_keys):
            self._dir_files[directory].append(index)
        self._weights = zipf_weights(
            len(self._inodes), profile.file_popularity_exponent
        )
        # _rank_of[i] is file i's popularity rank (0 = hottest).
        self._rank_of = self.rng.permutation(len(self._inodes))
        if shared_hot is not None:
            # Fleet mode: the hottest ranks are occupied by the
            # fleet-wide shared file choice; the device's own draw above
            # still happens (and still advances the rng identically), it
            # just ranks only the tenant-private remainder.
            self._rank_of = shared_hot.apply(self._rank_of)
        self._probs_dirty = True
        self._probs: np.ndarray | None = None
        self._cdf: np.ndarray | None = None
        self._cdf_list: list[float] | None = None
        self._dir_cdfs: dict[str, list[float] | None] = {}
        self._last_dir: str | None = None

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def _build_initial_tree(self) -> None:
        # Nothing else draws while the tree is built, so every file's
        # size comes from one bulk draw, in creation order.
        profile = self.profile
        per_dir = profile.files_per_directory
        sizes = geometric_run_lengths(
            self.rng,
            profile.mean_file_blocks,
            profile.max_file_blocks,
            profile.num_directories * per_dir,
        )
        fs = self.fs
        names = [f"file{f:03d}" for f in range(per_dir)]
        for d in range(profile.num_directories):
            directory = f"dir{d:03d}"
            fs.make_directory(directory)
            dir_sizes = sizes[d * per_dir : (d + 1) * per_dir]
            for name, size in zip(names, dir_sizes):
                fs.populate_file(directory, name, size)

    def _create_log_file(self) -> Inode:
        """A system log whose blocks receive the cron-spike writes."""
        self.fs.make_directory("var")
        return self.fs.populate_file("var", "syslog", 8)

    # ------------------------------------------------------------------
    # Popularity and drift
    # ------------------------------------------------------------------

    def _file_probabilities(self) -> np.ndarray:
        if self._probs_dirty or self._probs is None:
            probs = self._weights[self._rank_of]
            self._probs = probs / probs.sum()
            self._probs_dirty = False
            self._cdf = None
            self._cdf_list = None
            self._dir_cdfs.clear()
        return self._probs

    def _file_cdf(self) -> np.ndarray:
        """Popularity CDF, cached alongside ``_probs``.

        ``Generator.choice(n, p=probs)`` validates ``p``, cumsums it and
        inverts the CDF against uniform draws on every call.  Sampling
        through this cached CDF with ``searchsorted`` consumes the same
        uniforms in the same order, so the picks and the generator state
        are bit-identical to ``choice`` — only the per-call setup work
        disappears.
        """
        probs = self._file_probabilities()
        if self._cdf is None:
            cdf = probs.cumsum()
            cdf /= cdf[-1]
            self._cdf = cdf
        return self._cdf

    def _pick_file(self) -> int:
        """One popularity-weighted file pick.

        ``bisect_right`` over the CDF as a Python list is the scalar
        twin of ``searchsorted(..., side="right")``: the same single
        uniform is consumed and ``float``/``float64`` compare by value,
        so the pick and the generator state match the array path bit for
        bit — without the per-call ndarray dispatch.
        """
        self._file_probabilities()  # refresh drift; invalidates the list
        cdf = self._cdf_list
        if cdf is None:
            cdf = self._cdf_list = self._file_cdf().tolist()
        return bisect_right(cdf, self.rng.random())

    def _dir_cdf(self, directory: str) -> list[float] | None:
        """Popularity CDF over ``directory``'s files, cached beside
        ``_probs``; ``None`` when their weights sum to zero.

        Built the way ``Generator.choice(k, p=weights / total)`` builds
        its CDF, so :meth:`_pick_session_file` draws the same uniform and
        lands on the same file (see :meth:`_file_cdf`).
        """
        probs = self._file_probabilities()  # refresh drift; clears the cache
        cdfs = self._dir_cdfs
        if directory not in cdfs:
            weights = probs[self._dir_files[directory]]
            total = weights.sum()
            cdf = None
            if total > 0:
                scaled = (weights / total).cumsum()
                scaled /= scaled[-1]
                cdf = scaled.tolist()
            cdfs[directory] = cdf
        return cdfs[directory]

    def _apply_drift(self) -> None:
        """Exchange popularity ranks among a fraction of the files."""
        fraction = self.profile.popularity_reshuffle_fraction
        if fraction <= 0:
            return
        n = len(self._rank_of)
        count = max(2, int(round(fraction * n)))
        chosen = self.rng.choice(n, size=min(count, n), replace=False)
        shuffled = self.rng.permutation(chosen)
        self._rank_of[chosen] = self._rank_of[shuffled]
        self._probs_dirty = True

    def _register_file(self, inode: Inode) -> None:
        """Add a newly created file to the popularity model.

        A new file occasionally becomes immediately popular (a fresh
        document everyone opens); usually it starts cool.
        """
        self._inodes.append(inode)
        n = len(self._inodes)
        self._weights = zipf_weights(
            n, self.profile.file_popularity_exponent
        )
        self._rank_of = np.append(self._rank_of, n - 1)
        if self.rng.random() < 0.25:
            other = int(self.rng.integers(0, n - 1))
            self._rank_of[n - 1], self._rank_of[other] = (
                self._rank_of[other],
                self._rank_of[n - 1],
            )
        self._probs_dirty = True

    # ------------------------------------------------------------------
    # Day generation
    # ------------------------------------------------------------------

    def generate_day(self) -> DayWorkload:
        """Produce the next day's jobs (advances the generator's day)."""
        profile = self.profile
        day = self._day
        self._day += 1
        if day > 0:
            self._apply_drift()

        timeline = self._build_timeline()
        jobs: list[Job] = []
        sync_ms = profile.sync_interval_s * 1000.0
        next_sync = sync_ms
        for kind, run in groupby(timeline, key=itemgetter(1)):
            whens = [when for when, __ in run]
            if kind == "open":
                next_sync = self._emit_opens(whens, next_sync, sync_ms, jobs)
                continue
            for when in whens:
                while next_sync <= when:
                    self._flush_sync(next_sync, jobs)
                    next_sync += sync_ms
                if kind == "session":
                    self._emit_session(when, jobs)
                elif kind == "spike":
                    self._emit_spike(when, jobs)
                elif kind == "create":
                    self._emit_create(when)
                elif kind == "extend":
                    self._emit_extend(when)
        while next_sync <= profile.day_ms:
            self._flush_sync(next_sync, jobs)
            next_sync += sync_ms

        jobs.sort(key=lambda job: (job.start_ms, job.job_id))
        workload = DayWorkload(day=day, jobs=jobs)
        self._count(workload)
        return workload

    def _build_timeline(self) -> list[tuple[float, str]]:
        profile = self.profile
        events: list[tuple[float, str]] = []
        rate_per_ms = profile.read_sessions_per_hour / 3_600_000.0
        for when in poisson_arrivals(
            self.rng,
            rate_per_ms,
            profile.day_ms,
            clump_mean=profile.session_clump_mean,
            clump_spread_ms=profile.clump_spread_ms,
        ):
            events.append((when, "session"))
        if profile.open_sessions_per_hour > 0:
            open_rate = profile.open_sessions_per_hour / 3_600_000.0
            for when in poisson_arrivals(
                self.rng,
                open_rate,
                profile.day_ms,
                clump_mean=profile.session_clump_mean,
                clump_spread_ms=profile.clump_spread_ms,
            ):
                events.append((when, "open"))
        if profile.spike_interval_s > 0:
            interval_ms = profile.spike_interval_s * 1000.0
            t = interval_ms
            while t < profile.day_ms:
                events.append((t, "spike"))
                t += interval_ms
        for __ in range(profile.new_files_per_day):
            events.append((self.rng.uniform(0, profile.day_ms), "create"))
        for __ in range(profile.extend_sessions_per_day):
            events.append((self.rng.uniform(0, profile.day_ms), "extend"))
        events.sort(key=lambda pair: pair[0])
        return events

    # -- sessions -----------------------------------------------------

    def _pick_session_file(self) -> int:
        """Choose the session's file, honoring user (directory) locality."""
        profile = self.profile
        if (
            profile.user_locality > 0
            and self._last_dir is not None
            and self.rng.random() < profile.user_locality
        ):
            cdf = self._dir_cdf(self._last_dir)
            if cdf is not None:
                pick = bisect_right(cdf, self.rng.random())
                return self._dir_files[self._last_dir][pick]
        return self._pick_file()

    def _emit_session(self, when: float, jobs: list[Job]) -> None:
        profile = self.profile
        index = self._pick_session_file()
        self._last_dir = self._file_keys[index][0]
        inode = self._inodes[index]
        if not inode.data_blocks:
            return
        run = self._run_blocks(inode)
        if not run:
            return
        read_blocks = run
        if profile.use_cache_for_reads:
            read_blocks = [
                block for block in run if not self.cache.read(block)
            ]
        if read_blocks:
            jobs.append(
                sequential_job(
                    when,
                    read_blocks,
                    Op.READ,
                    think_ms=profile.think_ms,
                    name="session",
                )
            )
        is_edit = (
            profile.edit_session_fraction > 0
            and self.rng.random() < profile.edit_session_fraction
        )
        if is_edit:
            edit_index = index
            if self.rng.random() < profile.edit_uniform_prob:
                edit_index = int(self.rng.integers(0, len(self._inodes)))
            self._rewrite_file(edit_index)
            self._cache_write(self._inodes[edit_index].inode_block)
        if profile.atime_updates:
            self._cache_write(self._inodes[index].inode_block)
        if profile.atime_updates and profile.dir_atime_updates:
            # The path lookup updates the directory's own inode too.
            directory = self._file_keys[index][0]
            self._cache_write(self.fs.directory_inode_block(directory))

    def _emit_opens(
        self,
        whens: list[float],
        next_sync: float,
        sync_ms: float,
        jobs: list[Job],
    ) -> float:
        """A run of cache-served file opens at the sorted times ``whens``.

        Only the atime updates reach the disk, at the next sync.  Nothing
        else draws from the generator during the run, so one ``random(k)``
        yields the k picks the opens would draw one by one.  Syncs falling
        inside the run are flushed between the opens they separate, as
        the per-event loop does; returns the next sync time.
        """
        profile = self.profile
        if not profile.atime_updates:
            return next_sync  # the caller flushes before the next event
        picks = self._file_cdf().searchsorted(
            self.rng.random(len(whens)), side="right"
        )
        inodes = self._inodes
        if profile.dir_atime_updates:
            keys = self._file_keys
            dir_block = self.fs.directory_inode_block
            blocks = []
            for index in picks.tolist():
                blocks.append(inodes[index].inode_block)
                blocks.append(dir_block(keys[index][0]))
            per_open = 2
        else:
            blocks = [inodes[index].inode_block for index in picks.tolist()]
            per_open = 1
        start = 0
        while next_sync <= whens[-1]:
            cut = bisect_left(whens, next_sync, start)
            self._cache_write_many(blocks[start * per_open : cut * per_open])
            self._flush_sync(next_sync, jobs)
            next_sync += sync_ms
            start = cut
        self._cache_write_many(blocks[start * per_open :])
        return next_sync

    def _rewrite_file(self, index: int) -> None:
        """Save an edited file the way editors do: write a fresh copy.

        The old blocks are freed and brand-new blocks are allocated and
        written — "write requests resulting from new file creation and
        file expansion operations.  It is very unlikely that seek times
        for such requests will be reduced" (Section 5.3).  The file keeps
        its name, popularity and inode; only its data blocks move.
        """
        dir_name, file_name = self._file_keys[index]
        old = self._inodes[index]
        size = max(1, len(old.data_blocks))
        temp_name = f".#{file_name}.{self._new_file_serial}"
        self._new_file_serial += 1
        try:
            # Write the temporary copy first (while the old file still
            # holds its blocks, the copy necessarily lands elsewhere) ...
            inode = self.fs.create_file(dir_name, temp_name, size)
            # ... then unlink the original and rename the copy over it.
            self.fs.delete_file(dir_name, file_name)
            self.fs.rename(dir_name, temp_name, file_name)
        except (FileSystemError, AllocationError):
            # Read-only or full: fall back to updating in place.
            self._cache_write_many(old.data_blocks)
            return
        for block in old.data_blocks:
            self.cache.invalidate(block)
        self._inodes[index] = inode
        self._note_allocation(inode.data_blocks)
        self._cache_write_many(inode.data_blocks)

    def _run_blocks(self, inode: Inode) -> list[int]:
        profile = self.profile
        size = len(inode.data_blocks)
        if size == 1 or self.rng.random() < profile.single_block_read_prob:
            length = 1
        else:
            # A read-ahead run: at least two blocks.
            length = 1 + geometric_run_length(
                self.rng, max(profile.multi_run_mean - 1, 1.0), size - 1
            )
        if self.rng.random() < profile.read_from_start_prob or size == length:
            start = 0
        else:
            start = int(self.rng.integers(0, size - length + 1))
        return inode.data_blocks[start : start + length]

    def _cache_write(self, block: int) -> None:
        evicted = self.cache.write(block)
        if evicted is not None:
            self._pending_evicted.append(evicted)

    def _cache_write_many(self, blocks: list[int]) -> None:
        self._pending_evicted.extend(self.cache.write_many(blocks))

    # -- spikes -------------------------------------------------------

    def _emit_spike(self, when: float, jobs: list[Job]) -> None:
        profile = self.profile
        if profile.spike_reads > 0:
            # Cron jobs re-read the same configuration/binary files every
            # period, so spike reads follow the file popularity too.
            picks = self._file_cdf().searchsorted(
                self.rng.random(profile.spike_reads), side="right"
            )
            blocks = []
            for index in picks:
                data = self._inodes[int(index)].data_blocks
                if data:
                    blocks.append(
                        data[int(self.rng.integers(0, len(data)))]
                    )
            if blocks:
                # Cron jobs read files one after another (closed loop), so
                # they lengthen the busy period without stacking the queue.
                jobs.append(
                    sequential_job(
                        when,
                        blocks,
                        Op.READ,
                        think_ms=5.0,
                        name="spike-read",
                    )
                )
        log_blocks = self._log_file.data_blocks
        for __ in range(profile.spike_writes):
            block = log_blocks[int(self.rng.integers(0, len(log_blocks)))]
            self._cache_write(block)
        if profile.spike_writes > 0:
            self._cache_write(self._log_file.inode_block)

    # -- namespace churn (users profile) --------------------------------

    def _emit_create(self, when: float) -> None:
        profile = self.profile
        directory = f"dir{int(self.rng.integers(0, profile.num_directories)):03d}"
        name = f"new{self._day:03d}_{self._new_file_serial:06d}"
        self._new_file_serial += 1
        size = geometric_run_length(
            self.rng, profile.new_file_mean_blocks, profile.max_file_blocks
        )
        try:
            inode = self.fs.create_file(directory, name, size)
        except (FileSystemError, AllocationError):
            return  # file system full or read-only: drop the creation
        self._register_file(inode)
        self._dir_files[directory].append(len(self._file_keys))
        self._file_keys.append((directory, name))
        self._note_allocation(inode.data_blocks)
        self._cache_write_many([*inode.data_blocks, inode.inode_block])

    def _emit_extend(self, when: float) -> None:
        profile = self.profile
        index = int(self.rng.integers(0, len(self._inodes)))
        inode = self._inodes[index]
        dir_name, file_name = self._file_keys[index]
        count = geometric_run_length(
            self.rng, profile.extend_mean_blocks, profile.max_file_blocks
        )
        try:
            new_blocks = self.fs.extend_file(dir_name, file_name, count)
        except (FileSystemError, AllocationError):
            return
        self._note_allocation(new_blocks)
        self._cache_write_many([*new_blocks, inode.inode_block])

    # -- syncs ----------------------------------------------------------

    def _flush_sync(self, when: float, jobs: list[Job]) -> None:
        """The periodic update policy: flush all dirty blocks as one burst.

        Besides the cache's dirty blocks, the burst carries the superblock
        (timestamp update) and the cylinder-group summary of every group
        that *allocated* blocks since the last sync — FFS only rewrites a
        group's free maps when blocks are allocated or freed, so pure
        access-time traffic dirties no summaries.
        """
        dirty = self.cache.sync()
        dirty.extend(self._pending_evicted)
        self._pending_evicted = []
        if not dirty and not self._groups_allocated:
            return
        burst: list[int] = []
        if self.profile.superblock_updates:
            burst.append(self.fs.superblock())
            burst.extend(sorted(self._groups_allocated))
        self._groups_allocated.clear()
        # Order-preserving dedup via a set shadow: the burst keeps exactly
        # the sequence the old list-membership scan produced, without the
        # O(len(burst)) probe per dirty block.
        in_burst = set(burst)
        for block in dirty:
            if block not in in_burst:
                in_burst.add(block)
                burst.append(block)
        jobs.append(batch_job(when, burst, Op.WRITE, name="sync"))

    def _note_allocation(self, blocks: list[int]) -> None:
        """Record that these freshly allocated blocks dirty their groups'
        summary blocks (flushed at the next sync)."""
        for block in blocks:
            self._groups_allocated.add(self.fs.metadata_block_of(block))

    # -- accounting -----------------------------------------------------

    def _count(self, workload: DayWorkload) -> None:
        """Tally per-block reference counts for the day's jobs.

        Counting goes through ``numpy.unique`` instead of a per-step dict
        update; the count *values* are identical and no consumer depends
        on the dicts' insertion order.
        """
        all_blocks: list[int] = []
        read_blocks: list[int] = []
        for job in workload.jobs:
            for step in job.steps:
                all_blocks.append(step.logical_block)
                if step.op is Op.READ:
                    read_blocks.append(step.logical_block)
        for blocks, counts in (
            (all_blocks, workload.all_counts),
            (read_blocks, workload.read_counts),
        ):
            if blocks:
                unique, tallies = np.unique(
                    np.asarray(blocks, dtype=np.int64), return_counts=True
                )
                counts.update(zip(unique.tolist(), tallies.tolist()))
