"""Cross-process sharded serving: consistent-hash routing over shard fleets.

One process's BLAS pool is the throughput ceiling of a single
:class:`~repro.serving.FleetServer`.  The compiled
:class:`~repro.core.replay_plan.ReplayPlan` is read-only at serving time
and memory-mapped straight out of its archive, so the natural scale-out
is *processes*: N shard workers each run their own fleet over a
shard-local registry, all mapping the same plan bytes (``MAP_SHARED``
read-only, so the kernel's page cache keeps one physical copy
fleet-wide), and a front-end routes each model id to its home shard.

:class:`ShardRouter` is that front-end:

* **placement** — model ids are consistent-hashed (md5 ring with virtual
  nodes) across shard *slots*, so adding or losing a shard re-homes only
  ``~1/N`` of the models and two routers with the same slot count agree
  on placement without coordination;
* **framing** — requests travel a duplex pipe per shard
  (:mod:`repro.serving.shard_worker` documents the protocol); replies
  resolve :class:`concurrent.futures.Future`\\ s by request id, out of
  order;
* **failover** — a dead shard fails *only its own* in-flight futures
  (typed :class:`~repro.serving.errors.ShardUnavailableError`), and so
  does one whose reply stream can no longer be trusted: a frame that does
  not unpickle, or is not a tuple of a known kind and arity, ends that
  connection like EOF; later
  submits walk the ring past the dead slot to the next live shard, which
  lazily re-registers the re-homed models.  The PR-6
  :class:`~repro.serving.RetryPolicy` machinery is reused at shard
  granularity: ``quarantine_after`` consecutive deaths open the slot's
  breaker, ``probe_interval_seconds`` paces half-open restart probes,
  and (with ``auto_restart=True``) earlier deaths restart immediately;
* **validation** — unknown model ids and malformed or out-of-range
  removal sets fail synchronously in the router, before anything
  crosses a pipe;
* **stats** — shard fleets export raw-sample
  :class:`~repro.serving.stats.StatsFrame`\\ s which the router merges
  *before* summarizing, so a fleet-wide p99 is the true order statistic
  of the pooled requests, never an average of per-shard percentiles.

The router serves stateless counterfactual traffic only (no
``commit_mode``): answers depend on nothing but the checkpoint on disk,
so re-homing a model across shards can never change its answers.
"""

from __future__ import annotations

import hashlib
import itertools
import multiprocessing
import threading
from bisect import bisect_right
from concurrent.futures import Future
from dataclasses import dataclass, field

from ..core.provenance_store import (
    normalize_removed_indices,
    validate_removed_indices,
)
from ..core.serialization import read_checkpoint_metadata
from .clock import MONOTONIC_CLOCK, Clock
from .errors import ServerClosedError, ShardUnavailableError
from .fleet import RetryPolicy
from .policy import AdmissionPolicy
from .shard_worker import shard_main
from .stats import ServingStats, StatsFrame

__all__ = ["ShardRouter", "hash_ring"]

_RING_REPLICAS = 64


def hash_ring(slots: list[str], replicas: int = _RING_REPLICAS):
    """The sorted (point, slot) ring for consistent hashing.

    md5 keeps placement stable across processes and Python versions
    (``hash()`` is salted per process); ``replicas`` virtual nodes per
    slot smooth the load split to within a few percent.
    """
    points = []
    for slot in slots:
        for replica in range(replicas):
            digest = hashlib.md5(f"{slot}#{replica}".encode()).digest()
            points.append((int.from_bytes(digest[:8], "big"), slot))
    points.sort()
    return points


def _ring_walk(ring, model_id: str):
    """Slots in preference order for ``model_id`` (home first)."""
    point = int.from_bytes(
        hashlib.md5(model_id.encode()).digest()[:8], "big"
    )
    start = bisect_right(ring, (point, ""))
    seen: list[str] = []
    for index in range(len(ring)):
        slot = ring[(start + index) % len(ring)][1]
        if slot not in seen:
            seen.append(slot)
    return seen


@dataclass
class _Registration:
    """Everything a shard needs to host one model."""

    model_id: str
    checkpoint: str
    features: object
    labels: object
    load_kwargs: dict
    n_samples: int  # the checkpoint's id-space bound, for submit validation


@dataclass
class _Slot:
    """One ring position and the worker process currently behind it."""

    name: str
    process: object = None
    conn: object = None
    send_lock: threading.Lock = field(default_factory=threading.Lock)
    alive: bool = False
    registered: set = field(default_factory=set)  # guarded-by: router _lock
    inflight: set = field(default_factory=set)  # guarded-by: router _lock
    # Shard-granularity circuit breaker (the PR-6 RetryPolicy semantics):
    failures: int = 0  # guarded-by: router _lock
    retry_at: float | None = None  # guarded-by: router _lock


def _is_reply(message) -> bool:
    """Whether ``message`` is a frame a worker sends: ``("hello", name,
    pid)``, ``("ok", req_id, value)`` or ``("err", req_id, exception)``
    (:mod:`repro.serving.shard_worker`)."""
    if not (isinstance(message, tuple) and len(message) == 3):
        return False
    kind, req_id, payload = message
    if not isinstance(kind, str):
        return False
    if kind == "hello":
        return True
    return isinstance(req_id, int) and (
        kind == "ok"
        or (kind == "err" and isinstance(payload, BaseException))
    )


class ShardRouter:
    """Consistent-hash front-end over N shard worker processes.

    Parameters
    ----------
    n_shards:
        Ring slot count.  Each slot runs one worker process hosting a
        shard-local :class:`~repro.serving.FleetServer`.
    policy / method / n_workers / retry:
        Forwarded to every shard's fleet (``retry`` also supplies the
        *shard*-granularity breaker thresholds: ``quarantine_after``
        deaths open a slot's breaker, ``probe_interval_seconds`` paces
        restart probes).
    auto_restart:
        Restart a dead shard immediately while its breaker is closed
        (manual :meth:`restart_shard` always works).
    max_resident:
        Each shard registry's resident-model cap (None = unbounded).
    mp_context:
        A ``multiprocessing`` context or start-method name.  Defaults to
        ``fork`` where available (cheap spawns; the plan mapping is
        re-established per process either way).
    clock:
        Injectable time source for breaker deadlines (tests drive it).
    """

    def __init__(
        self,
        n_shards: int = 2,
        policy: AdmissionPolicy | None = None,
        method: str | None = "priu",
        n_workers: int = 1,
        retry: RetryPolicy | None = None,
        auto_restart: bool = False,
        max_resident: int | None = None,
        mp_context=None,
        clock: Clock | None = None,
        _shard_options: dict | None = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.n_shards = n_shards
        self.retry = retry if retry is not None else RetryPolicy()
        self.auto_restart = bool(auto_restart)
        self._clock = clock if clock is not None else MONOTONIC_CLOCK
        if mp_context is None:
            methods = multiprocessing.get_all_start_methods()
            mp_context = "fork" if "fork" in methods else None
        self._mp = (
            multiprocessing.get_context(mp_context)
            if isinstance(mp_context, (str, type(None)))
            else mp_context
        )
        self._options = {
            "policy": policy,
            "method": method,
            "n_workers": n_workers,
            "retry": retry,
            "max_resident": max_resident,
        }
        self._options.update(_shard_options or {})
        self._lock = threading.RLock()
        self._req_ids = itertools.count(1)
        self._pending: dict[int, Future] = {}  # guarded-by: _lock
        self._registrations: dict[str, _Registration] = {}  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock
        self._slots = [_Slot(name=f"shard-{i}") for i in range(n_shards)]
        self._ring = hash_ring([slot.name for slot in self._slots])
        self._by_name = {slot.name: slot for slot in self._slots}
        for slot in self._slots:
            self._spawn(slot)

    # ------------------------------------------------------------ lifecycle
    def _spawn(self, slot: _Slot) -> None:
        """Start (or replace) the worker process behind ``slot``."""
        parent_conn, child_conn = self._mp.Pipe(duplex=True)
        process = self._mp.Process(
            target=shard_main,
            args=(child_conn, slot.name, self._options),
            name=f"repro-{slot.name}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        with self._lock:
            slot.process = process
            slot.conn = parent_conn
            slot.alive = True
            slot.registered = set()
        receiver = threading.Thread(
            target=self._receive_loop,
            args=(slot, parent_conn, process),
            name=f"router-recv-{slot.name}",
            daemon=True,
        )
        receiver.start()

    def close(self, wait: bool = True) -> None:
        """Shut every worker down; idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for slot in self._slots:
            if slot.alive and slot.conn is not None:
                try:
                    self._post(slot, ("shutdown", next(self._req_ids)))
                except (OSError, ValueError, BrokenPipeError, AttributeError):
                    pass
        for slot in self._slots:
            process = slot.process
            if process is None:
                continue
            process.join(timeout=10 if wait else 0.1)
            if process.is_alive():
                process.kill()
                process.join(timeout=5)

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------- plumbing
    def _post(self, slot: _Slot, message: tuple) -> None:
        """Frame one message onto a slot's pipe (never under ``_lock``:
        a full pipe blocks until the worker drains, and the worker can
        only drain if our receiver thread — which needs the lock — keeps
        consuming replies)."""
        with slot.send_lock:
            slot.conn.send(message)

    def _call(self, slot: _Slot, kind: str, *payload) -> Future:
        """Post a request expecting exactly one correlated reply."""
        req_id = next(self._req_ids)
        future: Future = Future()
        with self._lock:
            if not slot.alive or slot.conn is None:
                raise ShardUnavailableError(slot.name)
            conn = slot.conn
            self._pending[req_id] = future
            slot.inflight.add(req_id)
        try:
            with slot.send_lock:
                conn.send((kind, req_id, *payload))
        except (OSError, ValueError, BrokenPipeError):
            with self._lock:
                self._pending.pop(req_id, None)
                slot.inflight.discard(req_id)
            self._conn_down(slot, conn)
            raise ShardUnavailableError(slot.name, "pipe write failed")
        return future

    def _receive_loop(self, slot: _Slot, conn, process) -> None:
        """Drain one worker connection until EOF; resolve futures by id.

        A frame the router cannot trust ends the connection the same way:
        once one frame fails to unpickle, or is not a reply tuple
        (:func:`_is_reply`), no later reply on that stream can be
        correlated safely.  The worker is killed (with nobody draining
        its replies it could block a sender forever) and the in-flight
        futures fail with
        :class:`~repro.serving.errors.ShardUnavailableError`.
        """
        reason = None
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            except Exception:  # the bytes do not unpickle
                reason = "undecodable reply frame"
                break
            if not _is_reply(message):
                reason = "malformed reply frame"
                break
            kind = message[0]
            if kind == "hello":
                continue
            req_id, payload = message[1], message[2]
            with self._lock:
                future = self._pending.pop(req_id, None)
                if slot.conn is conn:
                    slot.inflight.discard(req_id)
                    if kind == "ok":
                        # A served reply is the breaker's health
                        # evidence (a crash-looping shard that only ever
                        # says hello keeps its failure streak and
                        # quarantines).
                        slot.failures = 0
                        slot.retry_at = None
            if future is None:
                continue
            if kind == "ok":
                future.set_result(payload)
            else:
                future.set_exception(payload)
        if reason is not None:
            process.kill()
        self._conn_down(slot, conn, reason)

    # ------------------------------------------------------------- failover
    def _conn_down(self, slot: _Slot, conn, reason: str | None = None) -> None:
        """One worker connection died; fail its futures, maybe recover.

        Idempotent per connection generation: the first caller (receiver
        EOF, failed send, or an explicit restart) nulls ``slot.conn``,
        so later callers for the same dead pipe find it gone and return.
        """
        with self._lock:
            if conn is None or slot.conn is not conn:
                return  # a stale generation; the slot already moved on
            slot.alive = False
            slot.conn = None
            slot.registered = set()
            failed = [
                self._pending.pop(req_id)
                for req_id in sorted(slot.inflight)
                if req_id in self._pending
            ]
            slot.inflight = set()
            closing = self._closed
            if not closing:
                slot.failures += 1
                if slot.failures >= self.retry.quarantine_after:
                    slot.retry_at = (
                        self._clock.now() + self.retry.probe_interval_seconds
                    )
        error = ShardUnavailableError(
            slot.name, reason or "shard process died"
        )
        for future in failed:
            future.set_exception(error)
        if closing:
            return
        if self.auto_restart and slot.failures < self.retry.quarantine_after:
            self._spawn(slot)

    def restart_shard(self, name: str) -> None:
        """Respawn one slot's worker (re-homed models re-register lazily)."""
        slot = self._by_name.get(name)
        if slot is None:
            raise ValueError(f"unknown shard {name!r}")
        with self._lock:
            if self._closed:
                raise ServerClosedError("router is closed")
            old_conn = slot.conn
        old = slot.process
        if old is not None and old.is_alive():
            old.kill()
            old.join(timeout=5)
        # Settle the dead generation synchronously (the receiver's EOF
        # path races us; _conn_down is idempotent per connection) — it
        # may itself recover the slot via auto-restart.
        self._conn_down(slot, old_conn)
        with self._lock:
            slot.failures = 0
            slot.retry_at = None
            needs_spawn = not slot.alive
        if needs_spawn:
            self._spawn(slot)

    def kill_shard(self, name: str) -> None:
        """Hard-kill one slot's worker (SIGKILL) — the chaos-suite fault."""
        slot = self._by_name.get(name)
        if slot is None:
            raise ValueError(f"unknown shard {name!r}")
        process = slot.process
        if process is not None and process.is_alive():
            process.kill()
            process.join(timeout=5)

    # -------------------------------------------------------------- routing
    def shard_for(self, model_id: str) -> str:
        """The slot currently answering for ``model_id`` (live walk)."""
        return self._route(model_id).name

    def _route(self, model_id: str) -> _Slot:
        now = self._clock.now()
        probe: _Slot | None = None
        with self._lock:
            for name in _ring_walk(self._ring, model_id):
                slot = self._by_name[name]
                if slot.alive:
                    return slot
                if (
                    slot.retry_at is not None
                    and slot.retry_at <= now
                    and probe is None
                ):
                    probe = slot
        if probe is not None and self.auto_restart:
            # Half-open probe: one restart attempt per probe interval.
            with self._lock:
                probe.retry_at = now + self.retry.probe_interval_seconds
            self._spawn(probe)
            return probe
        raise ShardUnavailableError(
            "all", f"no live shard for model {model_id!r}"
        )

    # ---------------------------------------------------------- public API
    def register(
        self,
        model_id: str,
        checkpoint,
        features,
        labels,
        **load_kwargs,
    ):
        """Name a servable checkpoint; returns its metadata.

        Validation (path exists, archive readable) happens here in the
        router, synchronously; the actual load happens lazily on the
        model's home shard at first traffic.  Live-trainer registrations
        are not supported — a trainer cannot cross a process boundary —
        and neither is ``commit_mode`` (stateless counterfactual answers
        are what make shard re-homing safe).
        """
        if "commit_mode" in load_kwargs:
            raise ValueError(
                "ShardRouter serves stateless counterfactuals only; "
                "commit_mode is not supported across shards"
            )
        metadata = read_checkpoint_metadata(checkpoint)
        registration = _Registration(
            model_id=model_id,
            checkpoint=str(checkpoint),
            features=features,
            labels=labels,
            load_kwargs=dict(load_kwargs),
            n_samples=metadata.n_samples,
        )
        with self._lock:
            if self._closed:
                raise ServerClosedError("router is closed")
            if model_id in self._registrations:
                raise ValueError(f"model id already registered: {model_id!r}")
            self._registrations[model_id] = registration
        return metadata

    def model_ids(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._registrations))

    def submit(self, model_id: str, indices, lane: str | None = None) -> Future:
        """Route one removal set to its home shard; future of
        :class:`~repro.serving.ServedOutcome`.

        Unknown model ids and malformed removal sets (non-integer or
        out-of-range ids, or every sample at once) fail synchronously,
        before anything crosses the pipe; the bounds are the
        checkpoint's ``n_samples``, read at :meth:`register`.  An empty
        set still resolves in the shard.  Everything else resolves
        through the returned future: the shard fleet's own typed errors
        pass through verbatim, and a shard dying with this request in
        flight fails it with
        :class:`~repro.serving.errors.ShardUnavailableError` (only that
        shard's futures — survivors elsewhere are untouched).
        """
        with self._lock:
            if self._closed:
                raise ServerClosedError("router is closed")
            registration = self._registrations.get(model_id)
        if registration is None:
            raise ValueError(f"unknown model id {model_id!r}")
        indices = normalize_removed_indices(indices)
        validate_removed_indices(indices, registration.n_samples)
        slot = self._route(model_id)
        with self._lock:
            needs_register = model_id not in slot.registered
            if needs_register:
                slot.registered.add(model_id)
        if needs_register:
            # Fire-and-track: pipe FIFO ordering lands the registration
            # before the submit; a failed registration surfaces on the
            # submit future (unknown model on that shard).
            try:
                self._call(
                    slot,
                    "register",
                    registration.model_id,
                    registration.checkpoint,
                    registration.features,
                    registration.labels,
                    registration.load_kwargs,
                )
            except ShardUnavailableError:
                with self._lock:
                    slot.registered.discard(model_id)
                raise
        return self._call(slot, "submit", model_id, indices, lane)

    def submit_many(self, model_id: str, index_sets, **kwargs) -> list[Future]:
        return [self.submit(model_id, ids, **kwargs) for ids in index_sets]

    def flush(self, timeout: float | None = 60.0) -> bool:
        """Wait until every live shard has drained its queues."""
        with self._lock:
            slots = [slot for slot in self._slots if slot.alive]
        futures = []
        for slot in slots:
            try:
                futures.append(self._call(slot, "flush", timeout))
            except ShardUnavailableError:
                continue
        done = True
        for future in futures:
            try:
                done = bool(future.result(timeout=timeout)) and done
            except Exception:
                done = False
        return done

    def stats_frame(self, timeout: float = 30.0) -> StatsFrame:
        """The merged raw accounting of every live shard."""
        with self._lock:
            slots = [slot for slot in self._slots if slot.alive]
        futures = []
        for slot in slots:
            try:
                futures.append(self._call(slot, "stats"))
            except ShardUnavailableError:
                continue
        frames = []
        for future in futures:
            try:
                frames.append(future.result(timeout=timeout))
            except Exception:
                continue
        return StatsFrame.merged(frames)

    def stats(self, timeout: float = 30.0) -> ServingStats:
        """Fleet-wide counters/percentiles over the *pooled* samples."""
        return self.stats_frame(timeout=timeout).summarize()

    def describe(self) -> dict:
        """Placement and health of every slot."""
        now = self._clock.now()
        with self._lock:
            slots = {
                slot.name: {
                    "alive": slot.alive,
                    "pid": None if slot.process is None else slot.process.pid,
                    "models": sorted(slot.registered),
                    "failures": slot.failures,
                    "quarantined": (
                        slot.retry_at is not None and now < slot.retry_at
                    ),
                }
                for slot in self._slots
            }
            placement = {
                model_id: None for model_id in sorted(self._registrations)
            }
        for model_id in placement:
            try:
                placement[model_id] = self.shard_for(model_id)
            except ShardUnavailableError:
                placement[model_id] = None
        return {"shards": slots, "placement": placement}
