"""Batch simulation kernel: absorb homogeneous event stretches at once.

The scalar engine (:mod:`repro.sim.engine`) dispatches one typed event at a
time: a ``StepIssue`` allocates a :class:`~repro.driver.request.DiskRequest`,
walks it through the driver's strategy routine, pushes a ``DeviceComplete``
onto the heap, pops it back off, and finally walks the completion path —
roughly a dozen object allocations and dynamic dispatches per simulated
request.  Most simulated time, however, is *homogeneous*: closed-loop
streams and batch flushes hitting a disk with no fault injector, no tracer
and no online migration.  Along such a stretch the entire future is
determined by pure arithmetic — seek-table gather, the rotational-position
recurrence, transfer time — so the engine does not need to materialize the
intermediate events at all.

:class:`BatchPlanner` implements that observation.  Built by
:meth:`Simulation.run` when ``fast=True``, it peeks at the head of the
event heap and, when the next event belongs to an eligible device, handles
it in a fused loop, committing *exactly* the state mutations the scalar
engine would have made: disk head and access counter, the SCAN direction
flag, track-buffer interval/holes/hit counters, block-table dirty bits,
the request-monitor table (with its capacity/suspension semantics) and
every per-scope histogram of the performance monitor.  Float operations
are performed in the scalar engine's exact order — the metrics digests are
bit-identical by construction, and the randomized equivalence suite in
``tests/test_vector.py`` holds the kernel to that.

Three implementation decisions carry the throughput:

* **Per-device contexts** (:class:`_DeviceContext`).  Typical stretches are
  short — a closed-loop session is a handful of requests — so re-binding
  label geometry, seek tables and eighteen histogram objects on every
  stretch would dominate.  The planner binds them once per device.

* **Resident mirrors.**  The hot mutable state (disk head, access counter,
  buffer interval, arrival chains, every histogram count/sum/max) lives in
  the context *between* stretches, not just within one.  It is loaded from
  the live objects on first use and written back only when the scalar
  engine is about to run: every declined event flushes the mirrors before
  the caller dispatches it, and :meth:`Simulation.run` flushes on exit.
  Mid-run monitor ``read_and_clear`` (the analyzer's periodic poll) swaps
  the table objects themselves; since that can only happen during a scalar
  dispatch — when the mirrors are already flushed — an identity check on
  reload catches exactly that.

* **Inlined statistics.**  The scalar completion path costs ten histogram
  method calls per request; the kernel instead mutates the histograms'
  bucket counters in place and folds counts/sums/maxima through the
  mirrors.  The accumulation order per histogram is the scalar order, so
  the float sums are bit-identical.

Fallback points — the planner declines (returns 0 absorbed events) and the
scalar engine dispatches normally — are:

* device ineligibility, checked once per run: a driver that is not exactly
  :class:`~repro.driver.driver.AdaptiveDiskDriver` (e.g. the FTL backend),
  an attached fault injector, a cylinder-map baseline, a non-SCAN queue,
  subclassed monitors, or an identity-gated tracer hook (any tracer other
  than ``NULL_TRACER`` on the driver or the simulation forces scalar
  dispatch so traced runs stay replay-identical);
* live interaction points: online-migration sinks or idle-window events
  enabled, rearrangement-epoch boundaries (a stale-epoch completion after
  a crash), and every event the kernel has no fused handler for —
  periodic analyzer polls, scheduled crashes, ineligible devices' traffic
  — which also bound every fused loop via the *horizon* (absorb a
  completion only while it lands strictly before the next scheduled event
  and at or before ``until_ms``).

Queue contention and track-buffer hits are handled inline rather than by
fallback: an arrival at a busy device is admitted straight onto the real
SCAN queue (so cylinder keys, sequence numbers and pop order are exactly
the scalar ones), a ``DeviceComplete`` at the head of the heap drains the
queue behind it in the fused loop, and the buffer's interval state is
mirrored and evolved with the same hit/fill/invalidate rules as
:class:`~repro.disk.trackbuffer.TrackBuffer`.

When a stretch must stop partway (horizon breach), the planner hands the
exact scalar state back: the in-flight request is materialized with its
service breakdown, queued batch remainders become real ``DiskRequest``
payloads in place — preserving each entry's ``(cylinder, seq)`` SCAN key —
and the pending ``DeviceComplete`` is scheduled.

Absorbed completions do **not** append to ``Simulation.completed`` (the
day-level wrappers read metrics from the monitor tables, never from the
request objects); ``Simulation.absorbed_completions`` counts them so
callers that size their result by ``len(run())`` (trace replay) stay
exact.  ``events_dispatched`` accounting matches the scalar engine:
2 events per absorbed sequential step (issue + completion), 1 + N for a
batch job start absorbing N completions, 1 per absorbed arrival or
drained completion.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from ..driver.driver import AdaptiveDiskDriver
from ..driver.monitor import (
    PerformanceMonitor,
    RequestMonitor,
    RequestRecord,
)
from ..driver.queue import ScanQueue
from ..driver.request import DiskRequest, Op
from ..obs.tracer import NULL_TRACER
from .events import DeviceComplete, JobStart, StepIssue

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import DeviceState, Simulation

_INF = math.inf
READ_OP = Op.READ

#: Per-scope statistics mirrored into a mutable list (see ``_load_scope``
#: for the index layout).
_SCOPE_FIELDS = (
    "arrival_seek",
    "scheduled_seek",
    "service",
    "queueing",
    "rotation",
    "transfer",
)


class _DeviceContext:
    """Bound constants and resident mirrored state for one device."""

    __slots__ = (
        "state",
        "driver",
        "disk",
        "queue",
        "q_entries",
        "rm",
        "pm",
        "block_table",
        "reserved_of",
        "mark_dirty",
        # label geometry
        "vt",
        "per_cyl",
        "res_start",
        "res_count",
        # disk constants
        "seek_table",
        "ov",
        "bpc",
        "spb",
        "spt",
        "stt",
        "rott",
        "btm",
        "buf",
        "b_cap",
        "b_ht",
        "b_holes",
        # staleness sentinels
        "m_classes",
        "m_rm_table",
        # stats objects and bucket counters (all / read / write)
        "a_st",
        "r_st",
        "w_st",
        "a_b",
        "r_b",
        "w_b",
        # resident mirrors (valid while ``live``)
        "live",
        "head",
        "accs",
        "b_start",
        "b_end",
        "b_hits",
        "b_misses",
        "last_all",
        "last_read",
        "last_write",
        "am",
        "rmm",
        "wmm",
    )

    def __init__(self, state: "DeviceState") -> None:
        driver = state.driver
        self.state = state
        self.driver = driver
        disk = driver.disk
        self.disk = disk
        self.queue = driver.queue
        self.q_entries = driver.queue._entries
        self.rm = driver.request_monitor
        self.pm = driver.perf_monitor
        self.block_table = driver.block_table
        self.reserved_of = driver.block_table.reserved_of
        self.mark_dirty = driver.block_table.mark_dirty
        label = driver.label
        self.vt = label._virtual_total
        self.per_cyl = label._per_cyl
        self.res_start = label._reserved_start
        self.res_count = label._reserved_count
        self.seek_table = disk._seek_table
        self.ov = disk._overhead_ms
        self.bpc = disk._blocks_per_cylinder
        self.spb = disk._sectors_per_block
        self.spt = disk._sectors_per_track
        self.stt = disk._sector_time_ms
        self.rott = disk._rotation_time_ms
        self.btm = disk._block_transfer_ms
        buf = disk._track_buffer
        self.buf = buf
        self.b_cap = buf._capacity_blocks if buf is not None else 0
        self.b_ht = buf.host_transfer_ms if buf is not None else 0.0
        self.b_holes = buf._holes if buf is not None else None
        self.live = False
        self.refresh_tables()

    def refresh_tables(self) -> None:
        """Re-bind the monitor tables (swapped by ``read_and_clear``)."""
        pm = self.pm
        pairs = pm._scope_pairs
        self.m_classes = pm._classes
        self.m_rm_table = self.rm._table
        self.a_st = pairs[True][0][1]
        self.r_st = pairs[True][1][1]
        self.w_st = pairs[False][1][1]
        # Bucket counters, one tuple per scope, mutated in place by the
        # kernel: arrival_seek, scheduled_seek, service, queueing,
        # rotation, transfer.
        self.a_b = tuple(
            getattr(self.a_st, f).buckets for f in _SCOPE_FIELDS
        )
        self.r_b = tuple(
            getattr(self.r_st, f).buckets for f in _SCOPE_FIELDS
        )
        self.w_b = tuple(
            getattr(self.w_st, f).buckets for f in _SCOPE_FIELDS
        )

    def load(self) -> None:
        """Mirror the live mutable state into the context.

        Called on the first kernel entry after a scalar dispatch.  The
        monitor tables can only have been swapped *during* a scalar
        dispatch (the mirrors are flushed around every one), so the
        identity check here catches every mid-run ``read_and_clear``.
        """
        pm = self.pm
        if (
            self.m_classes is not pm._classes
            or self.m_rm_table is not self.rm._table
        ):
            self.refresh_tables()
        disk = self.disk
        self.head = disk.head_cylinder
        self.accs = disk.accesses
        buf = self.buf
        if buf is not None:
            self.b_start = buf._start
            self.b_end = buf._end
            self.b_hits = buf.hits
            self.b_misses = buf.misses
        last = pm._last_arrival_cylinder
        self.last_all = last["all"]
        self.last_read = last["read"]
        self.last_write = last["write"]
        self.am = _load_scope(self.a_st)
        self.rmm = _load_scope(self.r_st)
        self.wmm = _load_scope(self.w_st)
        self.live = True

    def flush(self) -> None:
        """Write the resident mirrors back to the live objects."""
        if not self.live:
            return
        disk = self.disk
        disk.head_cylinder = self.head
        disk.accesses = self.accs
        buf = self.buf
        if buf is not None:
            buf._start = self.b_start
            buf._end = self.b_end
            buf.hits = self.b_hits
            buf.misses = self.b_misses
        last = self.pm._last_arrival_cylinder
        last["all"] = self.last_all
        last["read"] = self.last_read
        last["write"] = self.last_write
        _store_scope(self.a_st, self.am)
        _store_scope(self.r_st, self.rmm)
        _store_scope(self.w_st, self.wmm)
        self.live = False


def _load_scope(st):
    """Mirror one scope's scalar counters into a mutable list."""
    a = st.arrival_seek
    s = st.scheduled_seek
    sv = st.service
    qu = st.queueing
    ro = st.rotation
    tr = st.transfer
    return [
        a.count,
        a.total,
        s.count,
        s.total,
        sv.count,
        sv.total_ms,
        sv.total_sq_ms,
        sv.max_ms,
        qu.count,
        qu.total_ms,
        qu.total_sq_ms,
        qu.max_ms,
        ro.count,
        ro.total_ms,
        ro.total_sq_ms,
        ro.max_ms,
        tr.count,
        tr.total_ms,
        tr.total_sq_ms,
        tr.max_ms,
        st.requests,
        st.buffer_hits,
    ]


def _store_scope(st, m) -> None:
    """Write a scope mirror produced by :func:`_load_scope` back."""
    a = st.arrival_seek
    s = st.scheduled_seek
    sv = st.service
    qu = st.queueing
    ro = st.rotation
    tr = st.transfer
    a.count = m[0]
    a.total = m[1]
    s.count = m[2]
    s.total = m[3]
    sv.count = m[4]
    sv.total_ms = m[5]
    sv.total_sq_ms = m[6]
    sv.max_ms = m[7]
    qu.count = m[8]
    qu.total_ms = m[9]
    qu.total_sq_ms = m[10]
    qu.max_ms = m[11]
    ro.count = m[12]
    ro.total_ms = m[13]
    ro.total_sq_ms = m[14]
    ro.max_ms = m[15]
    tr.count = m[16]
    tr.total_ms = m[17]
    tr.total_sq_ms = m[18]
    tr.max_ms = m[19]
    st.requests = m[20]
    st.buffer_hits = m[21]


class BatchPlanner:
    """Per-run fast path: scan the heap for absorbable stretches.

    One planner serves one :meth:`Simulation.run` call.  ``contexts``
    holds the devices whose configuration admits kernel absorption at
    all; everything dynamic (busy state, horizon, migration) is
    re-checked on every :meth:`absorb` call.
    """

    __slots__ = ("sim", "eligible", "contexts", "_ctx_list")

    def __init__(self, sim: "Simulation") -> None:
        self.sim = sim
        self.eligible: dict[str, DeviceState] = {}
        self.contexts: dict[str, _DeviceContext] = {}
        if sim.tracer is NULL_TRACER:
            for name, state in sim._devices.items():
                driver = state.driver
                if type(driver) is not AdaptiveDiskDriver:
                    continue  # FTL and other backends: scalar only
                if driver.faults is not None:
                    continue  # fault injection interposes on every access
                if driver.cylinder_map is not None:
                    continue  # cylinder-shuffling baseline remaps targets
                if driver.tracer is not NULL_TRACER:
                    continue  # identity-gated hooks force scalar fallback
                if type(driver.queue) is not ScanQueue:
                    continue  # queue-policy ablations stay on the spec path
                if type(driver.request_monitor) is not RequestMonitor:
                    continue
                if type(driver.perf_monitor) is not PerformanceMonitor:
                    continue
                self.eligible[name] = state
                self.contexts[name] = _DeviceContext(state)
        self._ctx_list = tuple(self.contexts.values())

    def flush(self) -> None:
        """Write every live mirror back (scalar code is about to run)."""
        for ctx in self._ctx_list:
            if ctx.live:
                ctx.flush()

    def _decline(self) -> int:
        self.flush()
        return 0

    # ------------------------------------------------------------------
    # Entry
    # ------------------------------------------------------------------

    def absorb(self, until_ms: float) -> int:
        """Try to absorb the head heap event in the kernel.

        Returns the number of scalar events the fused handling stands in
        for (0: not absorbable — the mirrors are flushed and the caller
        dispatches the event normally).  The caller guarantees the heap
        is non-empty and, when running with a deadline, that the head
        event is within it.
        """
        sim = self.sim
        events = sim.events
        event = events._heap[0][2]
        cls = event.__class__
        if cls is StepIssue:
            job = event.job
            if not job.sequential:  # pragma: no cover - defensive
                return self._decline()
            if sim._idle_events or sim._migration_sinks:
                return self._decline()
            ctx = self.contexts.get(event.device)
            if ctx is None:
                return self._decline()
            if ctx.driver._current is not None:
                # Contended arrival: admit it onto the real queue; the
                # drain path completes it later.
                if not ctx.live:
                    ctx.load()
                events.pop()
                return self._run_arrival(ctx, job, event.index, event.device)
            if ctx.q_entries:  # pragma: no cover - defensive
                return self._decline()
            if not ctx.live:
                ctx.load()
            events.pop()
            return self._run_sequential(
                ctx, job, event.index, event.device, until_ms
            )
        if cls is DeviceComplete:
            if sim._idle_events or sim._migration_sinks:
                return self._decline()
            ctx = self.contexts.get(event.device)
            if ctx is None:
                return self._decline()
            current = ctx.driver._current
            if (
                event.epoch != ctx.state.epoch
                or current is None
                or current.migration
            ):
                return self._decline()  # stale (crash) or sink-routed
            if not ctx.live:
                ctx.load()
            events.pop()
            return self._run_drain(ctx, current, until_ms)
        if cls is JobStart:
            if sim._idle_events or sim._migration_sinks:
                # The idle detector subscribes to JobStart (its activity
                # token), so every start must reach the bus.
                return self._decline()
            job = event.job
            if job.sequential:
                # A sequential job start only schedules its first issue
                # (device-independent), so absorb it without a context.
                events.pop()
                events.push(
                    events.now_ms + job.steps[0].think_ms,
                    StepIssue(job, 0, event.device),
                )
                return 1
            ctx = self.contexts.get(event.device)
            if ctx is None:
                return self._decline()
            if ctx.driver._current is not None:
                if not ctx.live:
                    ctx.load()
                events.pop()
                return self._run_arrival_batch(ctx, job, event)
            if ctx.q_entries:  # pragma: no cover - defensive
                return self._decline()
            if not ctx.live:
                ctx.load()
            events.pop()
            return self._run_batch(ctx, job, event, until_ms)
        return self._decline()

    # ------------------------------------------------------------------
    # Contended arrivals (busy device: admit, do not start)
    # ------------------------------------------------------------------

    def _run_arrival(self, ctx, job, index, device) -> int:
        """Absorb one ``StepIssue`` whose device is busy.

        The scalar path would map the block, record the arrival and push
        the request onto the queue (no access — the device is busy); the
        kernel does the same with a real :class:`DiskRequest` so the
        later drain pops exactly what the scalar engine would have.
        """
        sim = self.sim
        t = sim.events.now_ms
        step = job.steps[index]
        lb = step.logical_block
        if not 0 <= lb < ctx.vt:
            self.flush()
            sim._issue_step(job, index, device)  # raises BadAddressError
            return 1  # pragma: no cover - the call above always raises
        per_cyl = ctx.per_cyl
        v_cyl, v_idx = divmod(lb, per_cyl)
        if v_cyl >= ctx.res_start:
            v_cyl += ctx.res_count
        physical = v_cyl * per_cyl + v_idx
        reserved = ctx.reserved_of(physical)
        if reserved >= 0:
            target = reserved
            redirected = True
        else:
            target = physical
            redirected = False
        is_read = step.op is READ_OP
        request = DiskRequest(lb, step.op, t)
        request.physical_block = physical
        request.home_cylinder = physical // ctx.bpc
        request.target_block = target
        request.redirected = redirected
        rm = ctx.rm
        if rm.enabled:
            if len(ctx.m_rm_table) >= rm.capacity:
                rm.suspended_count += 1
            else:
                ctx.m_rm_table.append(RequestRecord(lb, 1, is_read, t))
                rm.recorded_count += 1
        self._note_arrival(ctx, request.home_cylinder, is_read)
        nk = index + 1
        if nk < len(job.steps):
            sim._waiting_jobs[request.request_id] = (job, nk, device)
        ctx.state.outstanding += 1
        ctx.queue.push(request, target // ctx.bpc)
        return 1

    def _run_arrival_batch(self, ctx, job, event) -> int:
        """Absorb a batch ``JobStart`` whose device is busy: admit all."""
        sim = self.sim
        steps = job.steps
        vt = ctx.vt
        for step in steps:
            if not 0 <= step.logical_block < vt:
                # Mid-loop failure semantics are the scalar handler's;
                # nothing was committed yet, so let it run (and raise)
                # exactly as fast=off would.
                self.flush()
                sim._on_job_start(event)
                return 1
        t = sim.events.now_ms
        per_cyl = ctx.per_cyl
        res_start = ctx.res_start
        res_count = ctx.res_count
        reserved_of = ctx.reserved_of
        bpc = ctx.bpc
        rm = ctx.rm
        rm_enabled = rm.enabled
        rm_table = ctx.m_rm_table
        rm_cap = rm.capacity
        qpush = ctx.queue.push
        note = self._note_arrival
        ctx.state.outstanding += len(steps)
        for step in steps:
            lb = step.logical_block
            v_cyl, v_idx = divmod(lb, per_cyl)
            if v_cyl >= res_start:
                v_cyl += res_count
            physical = v_cyl * per_cyl + v_idx
            reserved = reserved_of(physical)
            if reserved >= 0:
                target = reserved
                redirected = True
            else:
                target = physical
                redirected = False
            is_read = step.op is READ_OP
            request = DiskRequest(lb, step.op, t)
            request.physical_block = physical
            request.home_cylinder = physical // bpc
            request.target_block = target
            request.redirected = redirected
            if rm_enabled:
                if len(rm_table) >= rm_cap:
                    rm.suspended_count += 1
                else:
                    rm_table.append(RequestRecord(lb, 1, is_read, t))
                    rm.recorded_count += 1
            note(ctx, request.home_cylinder, is_read)
            qpush(request, target // bpc)
        return 1

    @staticmethod
    def _note_arrival(ctx, home, is_read) -> None:
        """Inline ``PerformanceMonitor.note_arrival`` on the mirrors."""
        am = ctx.am
        la = ctx.last_all
        if la is not None:
            d = home - la
            if d < 0:
                d = -d
            ctx.a_b[0][d] += 1
            am[0] += 1
            am[1] += d
        ctx.last_all = home
        if is_read:
            dm = ctx.rmm
            ld = ctx.last_read
            if ld is not None:
                d = home - ld
                if d < 0:
                    d = -d
                ctx.r_b[0][d] += 1
                dm[0] += 1
                dm[1] += d
            ctx.last_read = home
        else:
            dm = ctx.wmm
            ld = ctx.last_write
            if ld is not None:
                d = home - ld
                if d < 0:
                    d = -d
                ctx.w_b[0][d] += 1
                dm[0] += 1
                dm[1] += d
            ctx.last_write = home
        am[20] += 1
        dm[20] += 1

    # ------------------------------------------------------------------
    # Completion drain (busy device, materialized queue)
    # ------------------------------------------------------------------

    def _run_drain(self, ctx, current, until_ms) -> int:
        """Absorb a ``DeviceComplete`` and drain the queue behind it.

        The queue here holds real :class:`DiskRequest` objects — admitted
        by the arrival path under contention, or materialized by a
        breached batch — so arrivals were already recorded; only the
        completion side (scheduled-seek/service/queueing and the next
        ``_start_next``) is replayed inline, in the scalar engine's exact
        order: complete the in-flight request, then pop-and-access the
        next at the same clock, then push the finished request's
        follow-up issue.  A follow-up push can move the horizon, so it is
        re-read after every push; a completion landing exactly on the
        horizon hands back to the scalar engine, which preserves the heap
        order of same-time events.
        """
        sim = self.sim
        events = sim.events
        heap = events._heap
        push = events.push
        f = events.now_ms  # completion time of the in-flight request
        horizon = heap[0][0] if heap else _INF
        waiting_pop = sim._waiting_jobs.pop

        disk = ctx.disk
        seek_table = ctx.seek_table
        ov = ctx.ov
        bpc = ctx.bpc
        spb = ctx.spb
        spt = ctx.spt
        stt = ctx.stt
        rott = ctx.rott
        btm = ctx.btm
        head = ctx.head
        mark_dirty = ctx.mark_dirty
        buf = ctx.buf
        if buf is not None:
            b_start = ctx.b_start
            b_end = ctx.b_end
            b_holes = ctx.b_holes
            b_cap = ctx.b_cap
            b_ht = ctx.b_ht
            b_hits = ctx.b_hits
            b_misses = ctx.b_misses

        am = ctx.am
        rmm = ctx.rmm
        wmm = ctx.wmm
        __, a_ss_b, a_sv_b, a_qu_b, a_ro_b, a_tr_b = ctx.a_b
        READ = READ_OP
        q_entries = ctx.q_entries
        qpop = ctx.queue.pop
        driver = ctx.driver
        driver._current = None
        ctx.state.completion_scheduled = False

        # The entry request's breakdown was fixed when it was started;
        # read it back off the request object for the first iteration.
        req = current
        is_read = req.op is READ
        distance = req.seek_distance
        rotation_ms = req.rotation_ms
        transfer_ms = req.transfer_ms
        hit = req.buffer_hit
        start = req.submit_ms
        arrival = req.arrival_ms

        completions = 0
        accessed = 0
        breached = False
        while True:
            # Complete `req` at time f (inline note_completion).
            sv = f - start
            qv = start - arrival
            bsv = int(sv)
            bqv = int(qv)
            bro = int(rotation_ms)
            btr = int(transfer_ms)
            if is_read:
                dm = rmm
                __, d_ss_b, d_sv_b, d_qu_b, d_ro_b, d_tr_b = ctx.r_b
            else:
                dm = wmm
                __, d_ss_b, d_sv_b, d_qu_b, d_ro_b, d_tr_b = ctx.w_b
            a_ss_b[distance] += 1
            am[2] += 1
            am[3] += distance
            a_sv_b[bsv] += 1
            am[4] += 1
            am[5] += sv
            am[6] += sv * sv
            if sv > am[7]:
                am[7] = sv
            a_qu_b[bqv] += 1
            am[8] += 1
            am[9] += qv
            am[10] += qv * qv
            if qv > am[11]:
                am[11] = qv
            a_ro_b[bro] += 1
            am[12] += 1
            am[13] += rotation_ms
            am[14] += rotation_ms * rotation_ms
            if rotation_ms > am[15]:
                am[15] = rotation_ms
            a_tr_b[btr] += 1
            am[16] += 1
            am[17] += transfer_ms
            am[18] += transfer_ms * transfer_ms
            if transfer_ms > am[19]:
                am[19] = transfer_ms
            d_ss_b[distance] += 1
            dm[2] += 1
            dm[3] += distance
            d_sv_b[bsv] += 1
            dm[4] += 1
            dm[5] += sv
            dm[6] += sv * sv
            if sv > dm[7]:
                dm[7] = sv
            d_qu_b[bqv] += 1
            dm[8] += 1
            dm[9] += qv
            dm[10] += qv * qv
            if qv > dm[11]:
                dm[11] = qv
            d_ro_b[bro] += 1
            dm[12] += 1
            dm[13] += rotation_ms
            dm[14] += rotation_ms * rotation_ms
            if rotation_ms > dm[15]:
                dm[15] = rotation_ms
            d_tr_b[btr] += 1
            dm[16] += 1
            dm[17] += transfer_ms
            dm[18] += transfer_ms * transfer_ms
            if transfer_ms > dm[19]:
                dm[19] = transfer_ms
            if hit:
                am[21] += 1
                dm[21] += 1
            completions += 1
            completed_req = req
            completed_f = f

            # Start the next queued request at the same clock — scalar
            # order: the pop-and-access happens inside complete(),
            # *before* the finished request's follow-up issue is pushed.
            if q_entries:
                req = qpop(head)
                if req.migration:  # pragma: no cover - sinks are gated
                    nxt = None
                else:
                    nxt = req
                target = req.target_block
                is_read = req.op is READ
                tcyl, tidx = divmod(target, bpc)
                if (
                    is_read
                    and buf is not None
                    and b_start <= target < b_end
                    and target not in b_holes
                ):
                    hit = True
                    distance = 0
                    seek_ms = 0.0
                    rotation_ms = 0.0
                    transfer_ms = b_ht
                    svc = ov + 0.0
                    svc = svc + 0.0
                    svc = svc + b_ht
                    b_hits += 1
                else:
                    hit = False
                    distance = tcyl - head
                    if distance < 0:
                        distance = -distance
                    seek_ms = seek_table[distance]
                    arr = f + ov
                    arr = arr + seek_ms
                    start_sector = (tidx * spb) % spt
                    angle = (arr / stt) % spt
                    rotation_ms = ((start_sector - angle) % spt) * stt
                    if rotation_ms >= rott:
                        rotation_ms -= rott
                    transfer_ms = btm
                    svc = ov + seek_ms
                    svc = svc + rotation_ms
                    svc = svc + btm
                    if buf is not None:
                        if is_read:
                            b_misses += 1
                            stop = (target // bpc + 1) * bpc
                            b_start = target
                            e = target + b_cap
                            b_end = e if e < stop else stop
                            if b_holes:
                                b_holes.clear()
                        elif b_start <= target < b_end:
                            b_holes.add(target)
                    head = tcyl
                    if not is_read:
                        if req.redirected:
                            mark_dirty(req.physical_block)
                        if req.tag is not None:
                            disk.write_data(target, req.tag)
                accessed += 1
                start = f
                arrival = req.arrival_ms
                f = f + svc
            else:
                nxt = None
                req = None

            # Follow-up issue of the just-finished request (closed loop).
            fu = waiting_pop(completed_req.request_id, None)
            if fu is not None:
                job, nidx, dev = fu
                push(
                    completed_f + job.steps[nidx].think_ms,
                    StepIssue(job, nidx, dev),
                )
                horizon = heap[0][0]
            if req is None:
                break
            if nxt is None or f >= horizon or f > until_ms:
                # Hand the started request back as scalar in-flight state.
                req.submit_ms = start
                req.seek_distance = distance
                req.seek_ms = seek_ms
                req.rotation_ms = rotation_ms
                req.transfer_ms = transfer_ms
                req.buffer_hit = hit
                driver._current = req
                breached = True
                break

        ctx.head = head
        ctx.accs += accessed
        if buf is not None:
            ctx.b_start = b_start
            ctx.b_end = b_end
            ctx.b_hits = b_hits
            ctx.b_misses = b_misses
        events.now_ms = completed_f
        sim.absorbed_completions += completions
        ctx.state.outstanding -= completions
        if breached:
            sim._schedule_completion(ctx.state, f)
        return completions

    # ------------------------------------------------------------------
    # Sequential (closed-loop) stretch
    # ------------------------------------------------------------------

    def _run_sequential(self, ctx, job, index, device, until_ms) -> int:
        """Absorb a run of closed-loop steps on an idle device.

        Each step is an arrival immediately followed by an access (the
        queue is empty); the completion is absorbed while it lands
        strictly before the horizon.  When a completion breaches, the
        arrival and access have already been committed — exactly the
        scalar order — so the request is materialized in flight with its
        service breakdown and its ``DeviceComplete`` is scheduled; the
        drain path (or the scalar engine) picks it up from there.  When
        the *next arrival* would land on or past the horizon, it is
        handed back as the ``StepIssue`` the scalar engine would have
        pushed at the same clock.
        """
        sim = self.sim
        events = sim.events
        heap = events._heap
        t = events.now_ms
        horizon = heap[0][0] if heap else _INF

        steps = job.steps
        n_steps = len(steps)
        vt = ctx.vt
        per_cyl = ctx.per_cyl
        res_start = ctx.res_start
        res_count = ctx.res_count
        reserved_of = ctx.reserved_of
        mark_dirty = ctx.mark_dirty

        seek_table = ctx.seek_table
        ov = ctx.ov
        bpc = ctx.bpc
        spb = ctx.spb
        spt = ctx.spt
        stt = ctx.stt
        rott = ctx.rott
        btm = ctx.btm
        head = ctx.head
        buf = ctx.buf
        if buf is not None:
            b_start = ctx.b_start
            b_end = ctx.b_end
            b_holes = ctx.b_holes
            b_cap = ctx.b_cap
            b_ht = ctx.b_ht
            b_hits = ctx.b_hits
            b_misses = ctx.b_misses

        rm = ctx.rm
        rm_enabled = rm.enabled
        rm_table = ctx.m_rm_table
        rm_cap = rm.capacity
        last_all = ctx.last_all
        last_read = ctx.last_read
        last_write = ctx.last_write
        am = ctx.am
        rmm = ctx.rmm
        wmm = ctx.wmm
        a_as_b, a_ss_b, a_sv_b, a_qu_b, a_ro_b, a_tr_b = ctx.a_b
        READ = READ_OP
        queue = ctx.queue
        asc = queue.ascending

        completed = 0
        last_f = t
        t_next = t
        bad = False
        started = False
        k = index
        while True:
            step = steps[k]
            lb = step.logical_block
            if not 0 <= lb < vt:
                bad = True  # the scalar strategy raises identically
                break
            v_cyl, v_idx = divmod(lb, per_cyl)
            if v_cyl >= res_start:
                v_cyl += res_count
            physical = v_cyl * per_cyl + v_idx
            reserved = reserved_of(physical)
            if reserved >= 0:
                target = reserved
                redirected = True
            else:
                target = physical
                redirected = False
            is_read = step.op is READ
            tcyl, tidx = divmod(target, bpc)
            home = physical // bpc

            # Commit the arrival (monitor tables, arrival-seek chains) —
            # the scalar path records it whether or not the completion
            # lands inside the horizon.
            if rm_enabled:
                if len(rm_table) >= rm_cap:
                    rm.suspended_count += 1
                else:
                    rm_table.append(RequestRecord(lb, 1, is_read, t))
                    rm.recorded_count += 1
            if is_read:
                dm = rmm
                d_as_b, d_ss_b, d_sv_b, d_qu_b, d_ro_b, d_tr_b = ctx.r_b
                if last_all is not None:
                    d = home - last_all
                    if d < 0:
                        d = -d
                    a_as_b[d] += 1
                    am[0] += 1
                    am[1] += d
                last_all = home
                if last_read is not None:
                    d = home - last_read
                    if d < 0:
                        d = -d
                    d_as_b[d] += 1
                    dm[0] += 1
                    dm[1] += d
                last_read = home
            else:
                dm = wmm
                d_as_b, d_ss_b, d_sv_b, d_qu_b, d_ro_b, d_tr_b = ctx.w_b
                if last_all is not None:
                    d = home - last_all
                    if d < 0:
                        d = -d
                    a_as_b[d] += 1
                    am[0] += 1
                    am[1] += d
                last_all = home
                if last_write is not None:
                    d = home - last_write
                    if d < 0:
                        d = -d
                    d_as_b[d] += 1
                    dm[0] += 1
                    dm[1] += d
                last_write = home
            am[20] += 1
            dm[20] += 1

            # Commit the disk effects.  Even an uncontended request rides
            # the queue in the scalar engine (push, then an immediate
            # single-entry pop in ``_start_next``), and that pop evolves
            # the SCAN direction flag: an ascending sweep flips down when
            # the sole entry is below the head, a descending sweep flips
            # up when it is above.  The flag decides within-cylinder
            # tie-breaks for later contended batches, so mirror it here.
            if asc:
                if tcyl < head:
                    asc = False
            elif tcyl > head:
                asc = True
            if (
                is_read
                and buf is not None
                and b_start <= target < b_end
                and target not in b_holes
            ):
                hit = True
                distance = 0
                seek_ms = 0.0
                rotation_ms = 0.0
                transfer_ms = b_ht
                svc = ov + 0.0
                svc = svc + 0.0
                svc = svc + b_ht
                b_hits += 1
            else:
                hit = False
                distance = tcyl - head
                if distance < 0:
                    distance = -distance
                seek_ms = seek_table[distance]
                arr = t + ov
                arr = arr + seek_ms
                start_sector = (tidx * spb) % spt
                angle = (arr / stt) % spt
                rotation_ms = ((start_sector - angle) % spt) * stt
                if rotation_ms >= rott:
                    rotation_ms -= rott
                transfer_ms = btm
                svc = ov + seek_ms
                svc = svc + rotation_ms
                svc = svc + btm
                if buf is not None:
                    if is_read:
                        b_misses += 1
                        stop = (target // bpc + 1) * bpc
                        b_start = target
                        e = target + b_cap
                        b_end = e if e < stop else stop
                        if b_holes:
                            b_holes.clear()
                    elif b_start <= target < b_end:
                        b_holes.add(target)
                head = tcyl
                if not is_read and redirected:
                    mark_dirty(physical)
            f = t + svc

            if f >= horizon or f > until_ms:
                # The completion crosses the horizon: the request goes in
                # flight exactly as the scalar ``StepIssue`` handler would
                # have put it, and its completion is scheduled for normal
                # (or drain) dispatch.
                request = DiskRequest(lb, step.op, t)
                request.physical_block = physical
                request.home_cylinder = home
                request.target_block = target
                request.redirected = redirected
                request.submit_ms = t
                request.seek_distance = distance
                request.seek_ms = seek_ms
                request.rotation_ms = rotation_ms
                request.transfer_ms = transfer_ms
                request.buffer_hit = hit
                nk = k + 1
                if nk < n_steps:
                    sim._waiting_jobs[request.request_id] = (job, nk, device)
                ctx.driver._current = request
                ctx.state.outstanding += 1
                sim._schedule_completion(ctx.state, f)
                started = True
                break

            # Commit the completion statistics (both scopes, in the
            # scalar engine's value order; service is complete - submit).
            sv = f - t
            bsv = int(sv)
            bro = int(rotation_ms)
            btr = int(transfer_ms)
            a_ss_b[distance] += 1
            am[2] += 1
            am[3] += distance
            a_sv_b[bsv] += 1
            am[4] += 1
            am[5] += sv
            am[6] += sv * sv
            if sv > am[7]:
                am[7] = sv
            a_qu_b[0] += 1
            am[8] += 1
            a_ro_b[bro] += 1
            am[12] += 1
            am[13] += rotation_ms
            am[14] += rotation_ms * rotation_ms
            if rotation_ms > am[15]:
                am[15] = rotation_ms
            a_tr_b[btr] += 1
            am[16] += 1
            am[17] += transfer_ms
            am[18] += transfer_ms * transfer_ms
            if transfer_ms > am[19]:
                am[19] = transfer_ms
            d_ss_b[distance] += 1
            dm[2] += 1
            dm[3] += distance
            d_sv_b[bsv] += 1
            dm[4] += 1
            dm[5] += sv
            dm[6] += sv * sv
            if sv > dm[7]:
                dm[7] = sv
            d_qu_b[0] += 1
            dm[8] += 1
            d_ro_b[bro] += 1
            dm[12] += 1
            dm[13] += rotation_ms
            dm[14] += rotation_ms * rotation_ms
            if rotation_ms > dm[15]:
                dm[15] = rotation_ms
            d_tr_b[btr] += 1
            dm[16] += 1
            dm[17] += transfer_ms
            dm[18] += transfer_ms * transfer_ms
            if transfer_ms > dm[19]:
                dm[19] = transfer_ms
            if hit:
                am[21] += 1
                dm[21] += 1

            completed += 1
            last_f = f
            k += 1
            if k >= n_steps:
                k = -1
                break
            t_next = f + steps[k].think_ms
            if t_next >= horizon or t_next > until_ms:
                break  # hand the next arrival back as a StepIssue
            t = t_next

        # Store the mirrors back into the context (they stay resident;
        # ``flush`` writes them to the live objects when scalar code is
        # about to run).  The SCAN flag is written back eagerly because
        # the drain/batch paths pop the real queue, which consults it.
        queue.ascending = asc
        ctx.head = head
        ctx.accs += completed + (1 if started else 0)
        if buf is not None:
            ctx.b_start = b_start
            ctx.b_end = b_end
            ctx.b_hits = b_hits
            ctx.b_misses = b_misses
        ctx.last_all = last_all
        ctx.last_read = last_read
        ctx.last_write = last_write
        sim.absorbed_completions += completed
        if bad:
            events.now_ms = t
            self.flush()
            sim._issue_step(job, k, device)  # raises BadAddressError
            return 2 * completed + 1  # pragma: no cover - always raises
        if started:
            events.now_ms = t
            return 2 * completed + 1
        events.now_ms = last_f
        if k >= 0:
            events.push(t_next, StepIssue(job, k, device))
        return 2 * completed

    # ------------------------------------------------------------------
    # Batch (cache-flush) drain
    # ------------------------------------------------------------------

    def _run_batch(self, ctx, job, event, until_ms) -> int:
        sim = self.sim
        events = sim.events
        heap = events._heap
        t0 = events.now_ms
        horizon = heap[0][0] if heap else _INF

        steps = job.steps
        n = len(steps)
        vt = ctx.vt
        for step in steps:
            if not 0 <= step.logical_block < vt:
                # Mid-loop failure semantics are the scalar handler's;
                # nothing was committed yet, so just let it run (and
                # raise) exactly as fast=off would.
                self.flush()
                sim._on_job_start(event)
                return 1
        per_cyl = ctx.per_cyl
        res_start = ctx.res_start
        res_count = ctx.res_count
        reserved_of = ctx.reserved_of
        mark_dirty = ctx.mark_dirty

        seek_table = ctx.seek_table
        ov = ctx.ov
        bpc = ctx.bpc
        spb = ctx.spb
        spt = ctx.spt
        stt = ctx.stt
        rott = ctx.rott
        btm = ctx.btm
        head = ctx.head
        buf = ctx.buf
        if buf is not None:
            b_start = ctx.b_start
            b_end = ctx.b_end
            b_holes = ctx.b_holes
            b_cap = ctx.b_cap
            b_ht = ctx.b_ht
            b_hits = ctx.b_hits
            b_misses = ctx.b_misses

        rm = ctx.rm
        rm_enabled = rm.enabled
        rm_table = ctx.m_rm_table
        rm_cap = rm.capacity
        last_all = ctx.last_all
        last_read = ctx.last_read
        last_write = ctx.last_write
        am = ctx.am
        rmm = ctx.rmm
        wmm = ctx.wmm
        a_as_b, a_ss_b, a_sv_b, a_qu_b, a_ro_b, a_tr_b = ctx.a_b
        READ = READ_OP

        # Admission: all steps arrive at t0, in index order.  The first
        # request starts the idle disk immediately (push, then pop — the
        # single-entry pop is what evolves the SCAN direction flag
        # exactly as the scalar path does); the rest only queue, as
        # integer step indices riding the real ScanQueue so cylinder
        # keys, per-queue sequence numbers and pop order are identical.
        ctx.state.outstanding += n
        queue = ctx.queue
        qpush = queue.push
        phys_arr: list[int] = []
        targ_arr: list[int] = []
        red_arr: list[bool] = []
        read_arr: list[bool] = []
        for i in range(n):
            step = steps[i]
            lb = step.logical_block
            v_cyl, v_idx = divmod(lb, per_cyl)
            if v_cyl >= res_start:
                v_cyl += res_count
            physical = v_cyl * per_cyl + v_idx
            reserved = reserved_of(physical)
            if reserved >= 0:
                target = reserved
                redirected = True
            else:
                target = physical
                redirected = False
            is_read = step.op is READ
            home = physical // bpc
            if rm_enabled:
                if len(rm_table) >= rm_cap:
                    rm.suspended_count += 1
                else:
                    rm_table.append(RequestRecord(lb, 1, is_read, t0))
                    rm.recorded_count += 1
            if is_read:
                dm = rmm
                d_as_b = ctx.r_b[0]
                if last_all is not None:
                    d = home - last_all
                    if d < 0:
                        d = -d
                    a_as_b[d] += 1
                    am[0] += 1
                    am[1] += d
                last_all = home
                if last_read is not None:
                    d = home - last_read
                    if d < 0:
                        d = -d
                    d_as_b[d] += 1
                    dm[0] += 1
                    dm[1] += d
                last_read = home
            else:
                dm = wmm
                d_as_b = ctx.w_b[0]
                if last_all is not None:
                    d = home - last_all
                    if d < 0:
                        d = -d
                    a_as_b[d] += 1
                    am[0] += 1
                    am[1] += d
                last_all = home
                if last_write is not None:
                    d = home - last_write
                    if d < 0:
                        d = -d
                    d_as_b[d] += 1
                    dm[0] += 1
                    dm[1] += d
                last_write = home
            am[20] += 1
            dm[20] += 1
            qpush(i, target // bpc)
            if i == 0:
                queue.pop(head)  # returns index 0: it goes in flight
            phys_arr.append(physical)
            targ_arr.append(target)
            red_arr.append(redirected)
            read_arr.append(is_read)
        ctx.last_all = last_all
        ctx.last_read = last_read
        ctx.last_write = last_write

        # Serial drain at the evolving head position.  Each iteration
        # holds the in-flight request `cur` (already accessed, finishing
        # at `f`); its completion is absorbed only if it lands strictly
        # before the next scheduled event and within the deadline.
        q_entries = ctx.q_entries
        qpop = queue.pop
        cur = 0
        start = t0
        completions = 0
        breached = False
        while True:
            target = targ_arr[cur]
            is_read = read_arr[cur]
            tcyl, tidx = divmod(target, bpc)
            if (
                is_read
                and buf is not None
                and b_start <= target < b_end
                and target not in b_holes
            ):
                hit = True
                distance = 0
                seek_ms = 0.0
                rotation_ms = 0.0
                transfer_ms = b_ht
                svc = ov + 0.0
                svc = svc + 0.0
                svc = svc + b_ht
                b_hits += 1
            else:
                hit = False
                distance = tcyl - head
                if distance < 0:
                    distance = -distance
                seek_ms = seek_table[distance]
                arr = start + ov
                arr = arr + seek_ms
                start_sector = (tidx * spb) % spt
                angle = (arr / stt) % spt
                rotation_ms = ((start_sector - angle) % spt) * stt
                if rotation_ms >= rott:
                    rotation_ms -= rott
                transfer_ms = btm
                svc = ov + seek_ms
                svc = svc + rotation_ms
                svc = svc + btm
                if buf is not None:
                    if is_read:
                        b_misses += 1
                        stop = (target // bpc + 1) * bpc
                        b_start = target
                        e = target + b_cap
                        b_end = e if e < stop else stop
                        if b_holes:
                            b_holes.clear()
                    elif b_start <= target < b_end:
                        b_holes.add(target)
                head = tcyl
                if not is_read and red_arr[cur]:
                    mark_dirty(phys_arr[cur])
            f = start + svc

            if f >= horizon or f > until_ms:
                # Materialize the in-flight request and the queued
                # remainder; the scalar engine resumes from here.
                step = steps[cur]
                request = DiskRequest(step.logical_block, step.op, t0)
                request.physical_block = phys_arr[cur]
                request.target_block = target
                request.home_cylinder = phys_arr[cur] // bpc
                request.redirected = red_arr[cur]
                request.submit_ms = start
                request.seek_distance = distance
                request.seek_ms = seek_ms
                request.rotation_ms = rotation_ms
                request.transfer_ms = transfer_ms
                request.buffer_hit = hit
                ctx.driver._current = request
                for j, (cyl, seq, idx) in enumerate(q_entries):
                    qstep = steps[idx]
                    queued = DiskRequest(qstep.logical_block, qstep.op, t0)
                    queued.physical_block = phys_arr[idx]
                    queued.target_block = targ_arr[idx]
                    queued.home_cylinder = phys_arr[idx] // bpc
                    queued.redirected = red_arr[idx]
                    q_entries[j] = (cyl, seq, queued)
                breached = True
                break

            # Absorb the completion of `cur` at time f.
            sv = f - start
            qv = start - t0
            bsv = int(sv)
            bqv = int(qv)
            bro = int(rotation_ms)
            btr = int(transfer_ms)
            if is_read:
                dm = rmm
                __, d_ss_b, d_sv_b, d_qu_b, d_ro_b, d_tr_b = ctx.r_b
            else:
                dm = wmm
                __, d_ss_b, d_sv_b, d_qu_b, d_ro_b, d_tr_b = ctx.w_b
            a_ss_b[distance] += 1
            am[2] += 1
            am[3] += distance
            a_sv_b[bsv] += 1
            am[4] += 1
            am[5] += sv
            am[6] += sv * sv
            if sv > am[7]:
                am[7] = sv
            a_qu_b[bqv] += 1
            am[8] += 1
            am[9] += qv
            am[10] += qv * qv
            if qv > am[11]:
                am[11] = qv
            a_ro_b[bro] += 1
            am[12] += 1
            am[13] += rotation_ms
            am[14] += rotation_ms * rotation_ms
            if rotation_ms > am[15]:
                am[15] = rotation_ms
            a_tr_b[btr] += 1
            am[16] += 1
            am[17] += transfer_ms
            am[18] += transfer_ms * transfer_ms
            if transfer_ms > am[19]:
                am[19] = transfer_ms
            d_ss_b[distance] += 1
            dm[2] += 1
            dm[3] += distance
            d_sv_b[bsv] += 1
            dm[4] += 1
            dm[5] += sv
            dm[6] += sv * sv
            if sv > dm[7]:
                dm[7] = sv
            d_qu_b[bqv] += 1
            dm[8] += 1
            dm[9] += qv
            dm[10] += qv * qv
            if qv > dm[11]:
                dm[11] = qv
            d_ro_b[bro] += 1
            dm[12] += 1
            dm[13] += rotation_ms
            dm[14] += rotation_ms * rotation_ms
            if rotation_ms > dm[15]:
                dm[15] = rotation_ms
            d_tr_b[btr] += 1
            dm[16] += 1
            dm[17] += transfer_ms
            dm[18] += transfer_ms * transfer_ms
            if transfer_ms > dm[19]:
                dm[19] = transfer_ms
            if hit:
                am[21] += 1
                dm[21] += 1
            completions += 1
            if not q_entries:
                break
            cur = qpop(head)
            start = f

        ctx.head = head
        ctx.accs += completions + (1 if breached else 0)
        if buf is not None:
            ctx.b_start = b_start
            ctx.b_end = b_end
            ctx.b_hits = b_hits
            ctx.b_misses = b_misses
        if completions:
            # The clock is the time of the last dispatched (absorbed)
            # completion: `start` carries it while a later request is in
            # flight; on a full drain it is the final `f` itself.
            events.now_ms = start if breached else f
            sim.absorbed_completions += completions
            ctx.state.outstanding -= completions
        if breached:
            # `f` crossed the horizon: the in-flight request completes
            # under scalar dispatch.
            sim._schedule_completion(ctx.state, f)
        return 1 + completions
