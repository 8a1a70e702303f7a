"""Sweep execution: in-process or supervised and process-isolated.

:func:`execute` is the one execution path of every campaign sweep.  At
one worker it runs the shard units in this process, in canonical
order, folding each slice into the result as it completes; at more it
hands the same units to the supervised pool below.  Both share the
planning (restored and poisoned units), the checkpoint guard, the
progress stream and the trace collector.

The in-process :class:`~repro.runtime.guard.GuardedStep` contains the
failures it can *see* — a classified exception, a blown budget, a slow
step on its own thread.  It cannot pre-empt a hard crash: a
segfault-equivalent, the OOM killer, or a runaway mutant chewing the
whole interpreter still kills a serial sweep outright.  This module
adds the missing layer: campaign shards execute in **isolated child
processes** under a supervisor that survives the loss of any worker.

Architecture (one supervisor, N long-lived ``multiprocessing`` workers):

* Units are **assigned explicitly**, one per worker at a time, so the
  supervisor always knows exactly which unit a dead worker held.
* A worker writes each finished unit's payload **atomically into the
  shard store** before acknowledging it over its own **private result
  pipe** — one pipe per worker, single writer, no cross-process locks
  (a shared ``mp.Queue`` write lock could be orphaned by a SIGKILL,
  wedging every surviving worker), and messages stay tiny (single pipe
  write, atomic under ``PIPE_BUF``), so a kill can never leave a
  half-received payload or a stuck lock.
* Each worker runs a heartbeat thread; the supervisor SIGKILLs workers
  whose heartbeat goes quiet and — independently — workers whose
  in-flight unit exceeds the **wall-clock watchdog**.
* Worker death (crash, OOM, kill) is **contained**: the in-flight unit
  is triaged into the :class:`~repro.runtime.guard.TriageBucket`
  taxonomy and reassigned.  **Crash-loop backoff**: a unit that has
  burned ``max_attempts`` attempts is poisoned into a unit-level
  :class:`~repro.core.store.QuarantineRegistry` (checkpoint key
  ``"pool-quarantine"``) instead of being retried forever, so the sweep
  always completes.
* Completed payloads are folded **in canonical shard order** with the
  same per-kind fold the in-process path uses, making the result
  byte-identical for any worker count; poisoned units are simply
  absent (serial-minus-poisoned).
* When a checkpoint is supplied, the shard store *is* the checkpoint:
  a ``kill -9`` of the supervisor itself resumes exactly, because every
  finished unit is already durable under a worker-count-independent key.
"""

from __future__ import annotations

import contextlib
import itertools
import multiprocessing
import multiprocessing.connection
import shutil
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.core import sharding
from repro.core.store import CampaignCheckpoint, QuarantineRegistry
from repro.obs.trace import TraceCollector, Tracer, activate, current_tracer
from repro.runtime.guard import TriageBucket, classify_exception

#: Checkpoint key of the unit-level quarantine registry.  Distinct from
#: the campaigns' cell-level keys (the fuzz sweep's ``"quarantine"``,
#: the invocation sweep's ``"invoke-quarantine"``) so they can all share
#: one checkpoint directory.
POOL_QUARANTINE_KEY = "pool-quarantine"


def default_start_method():
    """``fork`` where available (cheap, inherits test hooks), else spawn."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


@dataclass(frozen=True)
class PoolConfig:
    """Supervision parameters of one sharded execution."""

    #: Worker processes.  :func:`execute` runs a one-worker sweep
    #: in-process; :func:`execute_sharded` process-isolates even one.
    workers: int = 2
    #: SIGKILL a worker whose in-flight unit exceeds this wall clock.
    watchdog_seconds: float = 300.0
    #: How often each worker's heartbeat thread beats.
    heartbeat_seconds: float = 0.5
    #: SIGKILL a busy worker whose heartbeat is older than this.
    heartbeat_timeout_seconds: float = 30.0
    #: Crash-loop backoff: attempts per unit before it is poisoned.
    max_attempts: int = 2
    #: Supervisor poll interval while waiting for worker messages.
    poll_seconds: float = 0.05
    #: ``multiprocessing`` start method; ``None`` auto-selects.
    start_method: str = None


@dataclass
class UnitFailure:
    """One containment record: a unit attempt that did not complete."""

    unit_key: str
    server_id: str
    bucket: str
    detail: str
    attempt: int

    def to_obj(self):
        return {
            "unit": self.unit_key,
            "server": self.server_id,
            "bucket": self.bucket,
            "detail": self.detail,
            "attempt": self.attempt,
        }


@dataclass
class PoolStats:
    """What the supervisor observed while executing one job."""

    workers: int = 0
    units_total: int = 0
    units_completed: int = 0
    #: Units whose payload already existed in the checkpoint (resume).
    units_restored: int = 0
    #: Units excluded by crash-loop backoff (this run or a prior one).
    units_poisoned: int = 0
    worker_deaths: int = 0
    watchdog_kills: int = 0
    heartbeat_kills: int = 0
    #: Containments that were retried on another worker.
    reassignments: int = 0
    failures: list = field(default_factory=list)  # UnitFailure
    #: Per-worker utilization rows: ``{"worker", "busy_pct", "idle_pct",
    #: "killed_pct", "units", "outcome"}``, one per worker lifetime.
    worker_timeline: list = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def contained(self):
        """Total containment events (reassigned or poisoned)."""
        return self.reassignments + self.units_poisoned

    def to_obj(self):
        return {
            "workers": self.workers,
            "units_total": self.units_total,
            "units_completed": self.units_completed,
            "units_restored": self.units_restored,
            "units_poisoned": self.units_poisoned,
            "worker_deaths": self.worker_deaths,
            "watchdog_kills": self.watchdog_kills,
            "heartbeat_kills": self.heartbeat_kills,
            "reassignments": self.reassignments,
            "failures": [failure.to_obj() for failure in self.failures],
            "worker_timeline": [dict(row) for row in self.worker_timeline],
            "wall_seconds": self.wall_seconds,
        }


def _observed(trace_id, fn, *args):
    """``(fn(*args), observation)``; traced under a fresh per-unit tracer.

    The observation — the unit's span events and a metrics snapshot —
    is what a :class:`~repro.obs.trace.TraceCollector` folds back in
    canonical order; ``None`` when ``trace_id`` is ``None``.
    """
    if trace_id is None:
        return fn(*args), None
    tracer = Tracer(trace_id)
    with activate(tracer):
        value = fn(*args)
    return value, {"events": tracer.events, "metrics": tracer.metrics.to_obj()}


def _worker_main(worker_id, job, spool_dir, task_queue, result_conn,
                 heartbeat, heartbeat_seconds, trace_id=None):
    """Child-process loop: execute assigned units until the sentinel.

    Payloads are saved atomically into the shard store *before* the
    acknowledgement is sent; if the process dies in between, the next
    attempt finds the finished payload and acknowledges without
    re-executing.  Exceptions escaping a unit are triaged and reported
    as ``failed`` — the worker itself stays alive for the next unit.

    When ``trace_id`` is set, each unit executes under a fresh
    :class:`~repro.obs.trace.Tracer` and the buffered span events plus a
    metrics snapshot ride on the ``done`` acknowledgement; the
    supervisor's collector folds them back in canonical shard order.  A
    worker killed mid-send only loses its own observation — the unit is
    reassigned and re-observed like any other containment.
    """
    spool = CampaignCheckpoint(spool_dir)
    stop = threading.Event()

    def beat():
        while not stop.is_set():
            heartbeat.value = time.monotonic()
            stop.wait(heartbeat_seconds)

    threading.Thread(
        target=beat, name=f"pool-heartbeat-{worker_id}", daemon=True
    ).start()
    campaign = job.build()
    while True:
        unit = task_queue.get()
        if unit is None:
            stop.set()
            return
        observation = None
        try:
            if not spool.has(unit.key):
                unit_slice, observation = _observed(
                    trace_id, sharding.run_unit, job, campaign, unit
                )
                spool.save(unit.key, campaign.slice_to_obj(unit_slice))
        except Exception as exc:  # noqa: BLE001 — triaged, reported, contained
            bucket = classify_exception(exc)
            detail = f"{type(exc).__name__}: {exc}"
            result_conn.send(
                ("failed", worker_id, unit.key, bucket.value, detail[:300])
            )
        else:
            result_conn.send(("done", worker_id, unit.key, observation))


class _WorkerHandle:
    """Supervisor-side view of one worker process."""

    __slots__ = ("id", "process", "task_queue", "conn", "heartbeat", "unit",
                 "started_at", "spawned_at", "busy_seconds", "killed_seconds",
                 "units_done", "outcome")

    def __init__(self, worker_id, process, task_queue, conn, heartbeat):
        self.id = worker_id
        self.process = process
        self.task_queue = task_queue
        self.conn = conn  # supervisor end of the worker's result pipe
        self.heartbeat = heartbeat
        self.unit = None  # in-flight ShardUnit
        self.started_at = None
        # Utilization timeline: lifetime splits into busy (units that
        # finished or failed in-process), killed (the fatal in-flight
        # unit of a dead worker) and idle (the rest).
        self.spawned_at = time.monotonic()
        self.busy_seconds = 0.0
        self.killed_seconds = 0.0
        self.units_done = 0
        self.outcome = "retired"

    @property
    def busy(self):
        return self.unit is not None

    def assign(self, unit):
        self.unit = unit
        self.started_at = time.monotonic()
        self.task_queue.put(unit)

    def release(self, killed=False):
        if self.started_at is not None:
            elapsed = time.monotonic() - self.started_at
            if killed:
                self.killed_seconds += elapsed
            else:
                self.busy_seconds += elapsed
        self.unit = None
        self.started_at = None

    def utilization_row(self):
        lifetime = max(time.monotonic() - self.spawned_at, 1e-9)
        idle = max(
            lifetime - self.busy_seconds - self.killed_seconds, 0.0
        )
        return {
            "worker": self.id,
            "busy_pct": round(100.0 * self.busy_seconds / lifetime, 1),
            "idle_pct": round(100.0 * idle / lifetime, 1),
            "killed_pct": round(100.0 * self.killed_seconds / lifetime, 1),
            "units": self.units_done,
            "outcome": self.outcome,
        }


class _Runner:
    """Planning and bookkeeping shared by both ways of executing a job.

    ``spool`` is the shard store: the checkpoint when one is given, a
    temporary directory for the pool without one, ``None`` for an
    in-process sweep without one.  :meth:`plan` sorts the canonical
    units into poisoned (by an earlier pooled run), restored (already
    in the store) and pending; :meth:`sweep` returns ``(result,
    folded_units)``.
    """

    def __init__(self, job, pool, spool, checkpoint, progress, collector=None,
                 telemetry=None):
        self.job = job
        self.pool = pool
        self.spool = spool
        self.checkpoint = checkpoint
        self.progress = progress
        self.collector = collector  # TraceCollector or None
        self.telemetry = telemetry  # ProgressWriter or None
        self.registry = QuarantineRegistry.load(
            checkpoint, key=POOL_QUARANTINE_KEY
        )
        self.units = []
        self.pending = deque()
        self.completed = set()
        self.poisoned = set()
        self.stats = PoolStats(workers=pool.workers)

    def plan(self):
        self.units = self.job.units()
        self.stats.units_total = len(self.units)
        for unit in self.units:
            reason = self.registry.reason(
                unit.server_id, unit.key, self.job.campaign
            )
            if reason is not None:
                self.poisoned.add(unit.key)
                self.stats.units_poisoned += 1
                self.stats.failures.append(
                    UnitFailure(
                        unit.key, unit.server_id, reason["bucket"],
                        reason["detail"], attempt=0,
                    )
                )
                continue
            if self.spool is not None and self.spool.has(unit.key):
                self.completed.add(unit.key)
                self.stats.units_restored += 1
                continue
            self.pending.append(unit)
        if self.progress and (self.stats.units_restored
                              or self.stats.units_poisoned):
            self.progress(
                f"[sweep] resume: {self.stats.units_restored} restored, "
                f"{self.stats.units_poisoned} poisoned, "
                f"{len(self.pending)} to run"
            )
        if self.telemetry is not None:
            self.telemetry.begin(
                total=self.stats.units_total,
                workers=self.pool.workers,
                restored=self.stats.units_restored,
                poisoned=self.stats.units_poisoned,
            )

    def _unit_done(self, unit_key):
        self.completed.add(unit_key)
        if self.progress:
            self.progress(
                f"[sweep] {unit_key} done "
                f"({len(self.completed)}/{self.stats.units_total})"
            )


class _InProcess(_Runner):
    """Executes the units in this process, in canonical order.

    Each unit's slice is folded into the result as soon as the unit
    finishes — and encoded only when it is stored — so memory holds the
    result plus one slice.  Restored units are decoded from the store in
    their canonical place; a fail-fast stop leaves later units unrun.
    The progress stream gets one forced update per finished unit.
    """

    def __init__(self, campaign, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.campaign = campaign

    def sweep(self):
        folded = []
        result = sharding.fold_slices(self.campaign, self._slices(), folded)
        self.stats.units_completed = len(self.completed)
        return result, folded

    def _slices(self):
        campaign = self.campaign
        trace_id = self.collector.trace_id if self.collector else None
        for unit in self.units:
            if unit.key in self.poisoned:
                continue
            if unit.key in self.completed:
                yield unit, campaign.slice_from_obj(
                    unit, self.spool.load(unit.key)
                )
                continue
            # The unit method itself, not the pool worker's entry point.
            unit_slice, observation = _observed(
                trace_id, campaign.run_unit, unit
            )
            if self.spool is not None:
                self.spool.save(unit.key, campaign.slice_to_obj(unit_slice))
            if self.collector is not None:
                self.collector.collect(unit.key, observation)
            self._unit_done(unit.key)
            if self.telemetry is not None:
                self.telemetry.update(
                    done=len(self.completed),
                    poisoned=self.stats.units_poisoned,
                    worker_rows=[], force=True,
                )
            yield unit, unit_slice


class _StoreView:
    """Finished unit payloads, each read from the shard store on access,
    so the pool's merge holds one payload at a time."""

    def __init__(self, store, keys):
        self.store = store
        self.keys = keys

    def __contains__(self, key):
        return key in self.keys

    def __getitem__(self, key):
        return self.store.load(key)


class _Supervisor(_Runner):
    """Runs one :class:`~repro.core.sharding.ShardJob` on worker processes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.ctx = multiprocessing.get_context(
            self.pool.start_method or default_start_method()
        )
        self.workers = {}
        self.worker_ids = itertools.count(1)
        self.attempts = {}
        #: worker id → servers it has executed units for.  A worker
        #: keeps its current server's deployment, so scheduling is
        #: affinity-first; the canonical-order merge keeps the result
        #: independent of these choices.
        self.affinity = {}

    # -- worker lifecycle ------------------------------------------------------

    def _spawn(self):
        worker_id = next(self.worker_ids)
        task_queue = self.ctx.SimpleQueue()
        # One result pipe per worker: its single writer is the worker's
        # main thread, so no lock or buffer can be orphaned by SIGKILL.
        recv_conn, send_conn = self.ctx.Pipe(duplex=False)
        heartbeat = self.ctx.Value("d", time.monotonic(), lock=False)
        trace_id = self.collector.trace_id if self.collector else None
        process = self.ctx.Process(
            target=_worker_main,
            args=(worker_id, self.job, self.spool.directory, task_queue,
                  send_conn, heartbeat, self.pool.heartbeat_seconds,
                  trace_id),
            name=f"pool-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        # The child inherited the writer end; drop ours so the pipe has
        # exactly one writer and later forks cannot leak it.
        send_conn.close()
        handle = _WorkerHandle(worker_id, process, task_queue, recv_conn,
                               heartbeat)
        self.workers[worker_id] = handle
        return handle

    def _discard(self, handle):
        """Forget a dead worker (its process object is already joined)."""
        self.stats.worker_timeline.append(handle.utilization_row())
        with contextlib.suppress(OSError):
            handle.conn.close()
        self.workers.pop(handle.id, None)
        self.affinity.pop(handle.id, None)

    def _kill(self, handle):
        handle.process.kill()
        handle.process.join(5.0)

    def shutdown(self, force=False):
        for handle in list(self.workers.values()):
            if force:
                self._kill(handle)
            else:
                try:
                    handle.task_queue.put(None)
                except (OSError, ValueError):
                    pass
        for handle in list(self.workers.values()):
            handle.process.join(0.1 if force else 2.0)
            if handle.process.is_alive():
                self._kill(handle)
            self._discard(handle)

    # -- containment -----------------------------------------------------------

    def _contain(self, unit, bucket, detail):
        """Triage a failed attempt: reassign, or poison on crash-loop."""
        attempt = self.attempts.get(unit.key, 0) + 1
        self.attempts[unit.key] = attempt
        if attempt >= self.pool.max_attempts:
            self.registry.poison(
                unit.server_id, unit.key, self.job.campaign,
                bucket.value, detail,
            )
            self.registry.save(self.checkpoint, key=POOL_QUARANTINE_KEY)
            self.poisoned.add(unit.key)
            self.stats.units_poisoned += 1
            self.stats.failures.append(
                UnitFailure(
                    unit.key, unit.server_id, bucket.value, detail, attempt
                )
            )
            if self.progress:
                self.progress(
                    f"[sweep] {unit.key} poisoned after {attempt} "
                    f"attempts ({bucket.value}): {detail}"
                )
        else:
            self.pending.appendleft(unit)
            self.stats.reassignments += 1
            if self.progress:
                self.progress(
                    f"[sweep] {unit.key} reassigned after "
                    f"{bucket.value}: {detail}"
                )

    def _contain_worker_loss(self, handle, bucket, detail):
        """A busy worker is gone; rescue or requeue its in-flight unit."""
        unit = handle.unit
        handle.release(killed=True)
        if unit is None or unit.key in self.completed:
            return
        if self.spool.has(unit.key):
            # The payload landed before the worker died; only the
            # acknowledgement was lost.
            self.completed.add(unit.key)
            return
        self._contain(unit, bucket, detail)

    # -- supervision loop ------------------------------------------------------

    def _handle_message(self, message):
        kind, worker_id = message[0], message[1]
        handle = self.workers.get(worker_id)
        if kind == "done":
            unit_key = message[2]
            if self.collector is not None and len(message) > 3:
                self.collector.collect(unit_key, message[3])
            if handle is not None and handle.unit is not None \
                    and handle.unit.key == unit_key:
                handle.units_done += 1
                handle.release()
            self._unit_done(unit_key)
        elif kind == "failed":
            unit_key, bucket_value, detail = message[2], message[3], message[4]
            if handle is not None and handle.unit is not None \
                    and handle.unit.key == unit_key:
                unit = handle.unit
                handle.release()
                self._contain(unit, TriageBucket(bucket_value), detail)

    def _drain_conn(self, handle):
        """Deliver whatever a worker managed to send before anything else."""
        while True:
            try:
                if not handle.conn.poll():
                    return
                message = handle.conn.recv()
            except (EOFError, OSError):
                return
            self._handle_message(message)

    def _reap_dead(self):
        for handle in list(self.workers.values()):
            if handle.process.is_alive():
                continue
            exitcode = handle.process.exitcode
            handle.process.join(0.1)
            # A final acknowledgement may still sit in the pipe — a
            # worker that died between sending "done" and getting the
            # next unit must not have its finished unit contained.
            self._drain_conn(handle)
            self.stats.worker_deaths += 1
            handle.outcome = "died"
            if handle.busy:
                self._contain_worker_loss(
                    handle,
                    TriageBucket.TOOL_INTERNAL,
                    f"worker {handle.id} died with exit code {exitcode} "
                    f"mid-unit",
                )
            self._discard(handle)

    def _enforce_watchdogs(self):
        now = time.monotonic()
        for handle in list(self.workers.values()):
            if not handle.busy or not handle.process.is_alive():
                continue
            elapsed = now - handle.started_at
            heartbeat_age = now - handle.heartbeat.value
            if elapsed > self.pool.watchdog_seconds:
                self.stats.watchdog_kills += 1
                bucket, detail = TriageBucket.TIMEOUT, (
                    f"unit exceeded the {self.pool.watchdog_seconds:g}s "
                    f"wall-clock watchdog; worker {handle.id} SIGKILLed"
                )
            elif heartbeat_age > self.pool.heartbeat_timeout_seconds:
                self.stats.heartbeat_kills += 1
                bucket, detail = TriageBucket.TIMEOUT, (
                    f"worker {handle.id} heartbeat silent for "
                    f"{heartbeat_age:.1f}s; SIGKILLed"
                )
            else:
                continue
            self._kill(handle)
            self._drain_conn(handle)
            self.stats.worker_deaths += 1
            handle.outcome = "killed"
            self._contain_worker_loss(handle, bucket, detail)
            self._discard(handle)

    def _pick_unit(self, handle):
        """Affinity-first scheduling: deployments are the expensive part.

        Each worker deploys a server's corpus once and caches it, so a
        unit lands on (1) a worker that already holds its server, else
        (2) a server no live worker holds yet — spreading deployments
        instead of piling every worker onto the canonical-order head —
        else (3) the queue head.  Purely a wall-clock optimisation: the
        merge is canonical-order, so any choice yields the same bytes.
        """
        served = self.affinity.get(handle.id, ())
        for index, unit in enumerate(self.pending):
            if unit.server_id in served:
                del self.pending[index]
                return unit
        owned = set()
        for servers in self.affinity.values():
            owned |= servers
        for index, unit in enumerate(self.pending):
            if unit.server_id not in owned:
                del self.pending[index]
                return unit
        return self.pending.popleft()

    def _assign_pending(self):
        for handle in self.workers.values():
            if not self.pending:
                return
            if handle.busy or not handle.process.is_alive():
                continue
            unit = self._pick_unit(handle)
            if unit.key in self.completed or unit.key in self.poisoned:
                continue
            self.affinity.setdefault(handle.id, set()).add(unit.server_id)
            handle.assign(unit)

    def _replenish_workers(self):
        busy = sum(1 for handle in self.workers.values() if handle.busy)
        desired = min(self.pool.workers, len(self.pending) + busy)
        while len(self.workers) < desired:
            self._spawn()

    def _emit_telemetry(self, force=False):
        if self.telemetry is None:
            return
        now = time.monotonic()
        worker_rows = []
        for handle in self.workers.values():
            busy = handle.busy
            worker_rows.append({
                "worker": handle.id,
                "state": "busy" if busy else "idle",
                "unit": handle.unit.key if busy else None,
                "server": handle.unit.server_id if busy else None,
                "busy_seconds": (
                    round(now - handle.started_at, 1)
                    if busy and handle.started_at is not None else 0.0
                ),
            })
        self.telemetry.update(
            done=len(self.completed),
            poisoned=self.stats.units_poisoned,
            worker_rows=worker_rows,
            force=force,
        )

    def sweep(self):
        self._supervise()
        folded = []
        result = self.job.merge(
            _StoreView(self.spool, self.completed), self.poisoned, folded
        )
        return result, folded

    def _supervise(self):
        completed_seen = len(self.completed)
        try:
            while self.pending or any(
                handle.busy for handle in self.workers.values()
            ):
                self._replenish_workers()
                self._assign_pending()
                conns = {
                    handle.conn: handle
                    for handle in self.workers.values()
                }
                if conns:
                    # A dead worker's pipe reports ready (EOF) too, so
                    # this wait never blocks past a crash; recv errors
                    # are resolved by the reap below.
                    ready = multiprocessing.connection.wait(
                        list(conns), timeout=self.pool.poll_seconds
                    )
                    for conn in ready:
                        self._drain_conn(conns[conn])
                else:
                    time.sleep(self.pool.poll_seconds)
                self._reap_dead()
                self._enforce_watchdogs()
                self._emit_telemetry(
                    force=len(self.completed) != completed_seen
                )
                completed_seen = len(self.completed)
            self.shutdown()
        except BaseException:
            # Interrupt or supervisor bug: the quarantine registry is
            # already durable (saved at each poisoning) and every
            # finished unit is on disk, so just stop the fleet.
            self.shutdown(force=True)
            raise
        self.stats.units_completed = len(self.completed)


def execute(campaign, pool=None, job=None, checkpoint=None, progress=None,
            collector=None, progress_path=None, eta_wall_hint_seconds=None):
    """Run one sweep of ``campaign``: the one execution path of every kind.

    ``job`` defaults to ``campaign.shard_job()``.  With ``pool`` unset
    or at one worker, the units execute in this process in canonical
    order on ``campaign`` itself (so catalogs it already built are
    reused); with more workers they go to the supervised pool.  Either
    way the result is the units' slices folded in canonical order, and
    ``checkpoint`` is the shard store under the same unit keys — a sweep
    resumes under any worker count.  Returns ``(result, stats)``.

    In-process units are traced like pool units: through ``collector``
    when one is given, otherwise — when a tracer is active — through a
    private collector whose merged stream is handed to that tracer,
    which still owns (and emits) the root span.
    """
    pool = pool or PoolConfig(workers=1)
    job = job or campaign.shard_job()
    options = dict(
        checkpoint=checkpoint, progress=progress,
        progress_path=progress_path,
        eta_wall_hint_seconds=eta_wall_hint_seconds,
    )
    if pool.workers > 1:
        return _execute(job, pool, None, collector=collector, **options)
    tracer = current_tracer()
    if collector is None and tracer.enabled:
        private = TraceCollector(tracer.trace_id)
        outcome = _execute(
            job, pool, campaign, collector=private, root=False, **options
        )
        tracer.adopt(private.events, private.metrics)
        return outcome
    return _execute(job, pool, campaign, collector=collector, **options)


def execute_sharded(job, pool=None, checkpoint=None, progress=None,
                    collector=None, progress_path=None,
                    eta_wall_hint_seconds=None):
    """Execute ``job``'s shard units under a supervised worker pool.

    Returns ``(result, stats)``.  ``checkpoint`` doubles as the shard
    store: finished units are durable under worker-count-independent
    keys, so both worker loss and a hard kill of the supervisor resume
    exactly.  Without a checkpoint a temporary spool directory plays
    that role for the duration of the call.  Even one worker is a
    separate, supervised process here; :func:`execute` is the entry
    point that runs a one-worker sweep in-process.

    ``collector`` is an optional
    :class:`~repro.obs.trace.TraceCollector`: workers then trace each
    unit and the collector is finalized here against exactly the units
    the merge consumed, so the trace always describes the merged result.

    ``progress_path`` opts into the crash-safe JSONL heartbeat stream
    (:mod:`repro.runtime.progress`): units done/total, per-worker state
    and an ETA seeded from ``eta_wall_hint_seconds`` (typically the
    perf ledger's last recorded wall-clock for this configuration).
    Pure telemetry — the merged result is byte-identical with or
    without it.
    """
    return _execute(
        job, pool or PoolConfig(), None, checkpoint=checkpoint,
        progress=progress, collector=collector, progress_path=progress_path,
        eta_wall_hint_seconds=eta_wall_hint_seconds,
    )


def _execute(job, pool, campaign, checkpoint=None, progress=None,
             collector=None, progress_path=None, eta_wall_hint_seconds=None,
             root=True):
    """Guard, plan, sweep (in-process on ``campaign``, else pooled), report."""
    if pool.workers < 1:
        raise ValueError(f"workers must be >= 1, got {pool.workers}")
    started = time.monotonic()
    spool, owns_spool = checkpoint, False
    if checkpoint is not None:
        checkpoint.guard("manifest", job.fingerprint())
    elif campaign is None:
        spool_dir = tempfile.mkdtemp(prefix="wsinterop-shards-")
        spool, owns_spool = CampaignCheckpoint(spool_dir), True
    telemetry = None
    if progress_path:
        from repro.runtime.progress import ProgressWriter

        telemetry = ProgressWriter(
            progress_path, campaign=job.campaign,
            eta_wall_hint_seconds=eta_wall_hint_seconds,
        )
    try:
        args = (job, pool, spool, checkpoint, progress, collector, telemetry)
        if campaign is None:
            runner = _Supervisor(*args)
        else:
            runner = _InProcess(campaign, *args)
        runner.plan()
        try:
            result, folded = runner.sweep()
        except BaseException:
            if telemetry is not None:
                telemetry.final(
                    done=len(runner.completed),
                    poisoned=runner.stats.units_poisoned,
                    wall_seconds=time.monotonic() - started,
                    outcome="interrupted",
                )
            raise
        stats = runner.stats
        stats.worker_timeline.sort(key=lambda row: row["worker"])
        stats.wall_seconds = round(time.monotonic() - started, 3)
        if telemetry is not None:
            telemetry.final(
                done=stats.units_completed,
                poisoned=stats.units_poisoned,
                wall_seconds=stats.wall_seconds,
            )
        if collector is not None:
            collector.finalize(
                folded, wall_seconds=stats.wall_seconds, root=root
            )
            collector.worker_events = [
                {"type": "worker", **row} for row in stats.worker_timeline
            ]
        return result, stats
    finally:
        if telemetry is not None:
            telemetry.close()
        if owns_spool:
            shutil.rmtree(spool.directory, ignore_errors=True)
