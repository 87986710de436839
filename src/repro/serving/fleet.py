"""Multi-model serving: a checkpoint registry + a shared-pool fleet server.

A real deletion-serving deployment fronts *many* trained models at once —
every ``save_checkpoint`` directory is an independently servable unit —
while GDPR-deadline traffic must overtake bulk clean-up sweeps.  This
module supplies that tier:

* :class:`ModelRegistry` — names checkpoints by model id, loads them
  lazily through
  :meth:`~repro.core.api.IncrementalTrainer.from_checkpoint` (validated
  up front via the cheap
  :func:`~repro.core.serialization.read_checkpoint_metadata`) on their
  first request, and keeps the *resident set* bounded: least-recently-used
  models are evicted once more than ``max_resident`` are loaded.  Models
  that have committed deletions ("dirty" — their on-disk checkpoint is
  stale) and models pinned by an in-flight dispatch are never evicted.
  Compiled plans stay memory-mapped read-only, so the page cache shares
  one copy of each plan across every load and every process.
* :class:`FleetServer` — ``submit(model_id, ids, lane=...)`` routes
  requests to per-model admission queues (SLA-lane ordering, coalescing
  budgets that a batch leaves early when its model's arrival estimate
  expects no batch-mate, backpressure) served by a shared pool of
  ``n_workers`` threads.  At most one ``remove_many`` is in flight per
  model (a batched replay already saturates the BLAS threads; two per
  model would fight for cores, and commit mode requires serialized
  application anyway), and ready models are picked round-robin so one
  chatty model cannot starve the rest.  Commit mode and the update
  method are per-model settings; stats are kept per model, with per-lane
  breakdowns, and merged into the fleet-wide view on read.

This is the serving layer's one engine: the single-model
:class:`~repro.serving.DeletionServer` is a facade over a one-model
fleet.  All deadline math runs on an injectable
:class:`~repro.serving.clock.Clock`, so the whole fleet can be driven
deterministically by the fake-clock test harness
(``tests/serving/harness.py``).

Typical use::

    registry = ModelRegistry(max_resident=8)
    registry.register("emea", ckpt_dir_a, features_a, labels_a)
    registry.register("apac", ckpt_dir_b, features_b, labels_b)
    with FleetServer(registry, AdmissionPolicy(max_batch=16)) as fleet:
        urgent = fleet.submit("emea", ids, lane="deadline")
        routine = fleet.submit("apac", other_ids)          # bulk lane
        print(urgent.result().latency_seconds)
"""

from __future__ import annotations

import heapq
import itertools
import threading
from collections import OrderedDict
from concurrent.futures import Future
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..core.api import IncrementalTrainer
from ..core.maintenance import MaintenancePolicy
from ..core.provenance_store import (
    normalize_removed_indices,
    remap_through_deletion_log,
    validate_removed_indices,
)
from ..core.serialization import (
    CheckpointCorruptionError,
    CheckpointMetadata,
    read_checkpoint_metadata,
    save_store,
)
from .clock import MONOTONIC_CLOCK, Clock
from .errors import (
    BackpressureError,
    ModelLoadError,
    ModelQuarantinedError,
    ServerClosedError,
    ServerStateError,
    ServingError,
    WorkerCrashedError,
)
from .policy import AdmissionPolicy
from .stats import ServingStats, StatsFrame, StatsRecorder


# ---------------------------------------------------------------- registry
@dataclass
class _ModelSpec:
    """Everything needed to (re)load one registered model."""

    model_id: str
    checkpoint: object | None  # str | Path; None for live-trainer registrations
    features: object
    labels: object
    metadata: CheckpointMetadata | None
    load_kwargs: dict = field(default_factory=dict)
    # Serializes concurrent loads of THIS model while the registry lock
    # stays free for other models' submits and hits.
    load_lock: threading.Lock = field(default_factory=threading.Lock)


@dataclass
class _Resident:
    """One loaded model plus the bookkeeping that governs its eviction."""

    trainer: IncrementalTrainer
    loaded_version: int  # store version at load; a change means commits
    evictable: bool  # False for live-trainer registrations (nothing to reload)


def _default_loader(model_id: str, spec: _ModelSpec) -> IncrementalTrainer:
    """The stock registry loader: ``from_checkpoint`` on the spec's paths."""
    return IncrementalTrainer.from_checkpoint(
        spec.checkpoint,
        spec.features,
        spec.labels,
        **spec.load_kwargs,
    )


@dataclass
class SaveOutcome:
    """One model's result from :meth:`ModelRegistry.save_dirty`.

    ``ok`` models were re-checkpointed (``paths`` names what was written)
    and are evictable again.  Failed models keep ``error`` and stay
    *dirty*: their committed state lives only in memory, the registry
    keeps them resident (dirty models are never evicted), and they keep
    serving — degraded to resident-only until a later save succeeds.
    """

    model_id: str
    ok: bool
    paths: dict | None = None
    error: BaseException | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class RetryPolicy:
    """Load-failure handling knobs for :class:`FleetServer`.

    A *transient* load failure (anything but corruption or a missing
    checkpoint) is retried up to ``load_attempts`` times within one
    dispatch, sleeping ``backoff_seconds`` (growing by ``backoff_factor``,
    capped at ``max_backoff_seconds``) between attempts on the fleet's
    injectable clock.  A dispatch that exhausts its attempts counts one
    *consecutive failure* against the model; at ``quarantine_after`` of
    those the model's circuit breaker opens: submits fast-fail with
    :class:`~repro.serving.errors.ModelQuarantinedError` until
    ``probe_interval_seconds`` elapse, when a single half-open probe
    submission is let through.  Non-transient failures
    (:class:`~repro.core.serialization.CheckpointCorruptionError`,
    :class:`FileNotFoundError`) skip the retries and open the breaker
    immediately — the bytes on disk will not get better by waiting.
    """

    load_attempts: int = 3
    backoff_seconds: float = 0.05
    backoff_factor: float = 2.0
    max_backoff_seconds: float = 1.0
    quarantine_after: int = 3
    probe_interval_seconds: float = 5.0

    def __post_init__(self) -> None:
        if self.load_attempts < 1:
            raise ValueError("load_attempts must be >= 1")
        if self.quarantine_after < 1:
            raise ValueError("quarantine_after must be >= 1")
        if self.backoff_seconds < 0 or self.max_backoff_seconds < 0:
            raise ValueError("backoff durations must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1.0")
        if self.probe_interval_seconds < 0:
            raise ValueError("probe_interval_seconds must be >= 0")

    def is_transient(self, exc: BaseException) -> bool:
        return not isinstance(
            exc, (CheckpointCorruptionError, FileNotFoundError)
        )


class _ModelHealth:
    """One model's circuit-breaker state (guarded by the fleet's ``_sched``).

    States: ``healthy`` (normal service), ``quarantined`` (breaker open —
    submits fast-fail until ``probe_at``), ``probing`` (half-open — one
    trial submission is queued; its dispatch decides the next state).
    """

    __slots__ = (
        "state", "consecutive_failures", "probe_at", "last_error",
        "quarantines", "load_retries",
    )

    def __init__(self) -> None:
        self.state = "healthy"
        self.consecutive_failures = 0
        self.probe_at: float | None = None
        self.last_error: str | None = None
        self.quarantines = 0  # lifetime count of breaker openings
        self.load_retries = 0  # lifetime count of within-dispatch retries

    def as_dict(self) -> dict:
        return {
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "probe_at": self.probe_at,
            "last_error": self.last_error,
            "quarantines": self.quarantines,
            "load_retries": self.load_retries,
        }


class ModelRegistry:
    """Loads and evicts servable checkpoints by model id.

    Parameters
    ----------
    max_resident:
        Upper bound on simultaneously loaded models (None = unbounded).
        A model loads on its first :meth:`get`; past the cap the
        least-recently-used model is evicted and reloads on its next
        request.  The cap is *soft* against pinned, dirty and
        live-registered models: the registry never evicts a model whose
        eviction would lose state or break an in-flight dispatch, even
        if that leaves it over cap.

    A model is **dirty** once its store version moved past the version it
    was loaded with — i.e. deletions were committed in this process.  Its
    on-disk checkpoint no longer describes it, so evicting and reloading
    would silently resurrect the pre-commit model; the registry refuses,
    and :meth:`save_dirty` (or the caller checkpointing explicitly) is the
    way to make it evictable again.
    """

    def __init__(self, max_resident: int | None = None, loader=None) -> None:
        if max_resident is not None and max_resident < 1:
            raise ValueError("max_resident must be >= 1 (or None)")
        self.max_resident = max_resident
        # Injectable ``(model_id, spec) -> IncrementalTrainer``; the fault
        # harness substitutes a flaky one to exercise retry/quarantine.
        self._loader = loader if loader is not None else _default_loader
        self._lock = threading.RLock()
        self._specs: dict[str, _ModelSpec] = {}  # guarded-by: _lock
        # Insertion order = recency: least-recently-used first.
        self._resident: "OrderedDict[str, _Resident]" = (  # guarded-by: _lock
            OrderedDict()
        )
        self._pins: dict[str, int] = {}  # guarded-by: _lock
        self._loads = 0  # guarded-by: _lock
        self._hits = 0  # guarded-by: _lock
        self._evictions = 0  # guarded-by: _lock

    # ------------------------------------------------------------- membership
    def register(
        self,
        model_id: str,
        checkpoint=None,
        features=None,
        labels=None,
        trainer: IncrementalTrainer | None = None,
        **load_kwargs,
    ) -> CheckpointMetadata | None:
        """Name a servable model.

        Either ``checkpoint`` (a ``save_checkpoint`` directory or store
        archive — loaded lazily, plus the ``features``/``labels`` that
        :meth:`~repro.core.api.IncrementalTrainer.from_checkpoint` needs
        back) or a live fitted ``trainer`` (resident immediately, never
        evictable: there is nothing to reload it from).  Returns the
        checkpoint's metadata (None for live registrations) after
        validating it cheaply — a bad path or corrupt archive fails here,
        not at first traffic.  ``load_kwargs`` are forwarded to
        ``from_checkpoint`` (e.g. ``method=``).
        """
        if (checkpoint is None) == (trainer is None):
            raise ValueError(
                "register() needs exactly one of checkpoint= or trainer="
            )
        metadata = None
        if checkpoint is not None:
            if features is None or labels is None:
                raise ValueError(
                    "checkpoint registrations need features= and labels= "
                    "(training data is never persisted in a checkpoint)"
                )
            metadata = read_checkpoint_metadata(checkpoint)
        else:
            trainer._require_fit()
        with self._lock:
            if model_id in self._specs:
                raise ValueError(f"model id already registered: {model_id!r}")
            self._specs[model_id] = _ModelSpec(
                model_id=model_id,
                checkpoint=checkpoint,
                features=features,
                labels=labels,
                metadata=metadata,
                load_kwargs=dict(load_kwargs),
            )
            if trainer is not None:
                self._resident[model_id] = _Resident(
                    trainer=trainer,
                    loaded_version=trainer.store._version,
                    evictable=False,
                )
                self._enforce_cap()
        return metadata

    def __contains__(self, model_id: str) -> bool:
        with self._lock:
            return model_id in self._specs

    @property
    def model_ids(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(self._specs)

    @property
    def resident_ids(self) -> tuple[str, ...]:
        """Loaded models, least-recently-used first."""
        with self._lock:
            return tuple(self._resident)

    # ------------------------------------------------------------------ load
    def _spec(self, model_id: str) -> _ModelSpec:  # caller-holds: _lock
        try:
            return self._specs[model_id]
        except KeyError:
            raise ValueError(
                f"unknown model id {model_id!r} "
                f"(registered: {sorted(self._specs)})"
            ) from None

    def get(self, model_id: str) -> IncrementalTrainer:
        """The model's trainer, loading the checkpoint on a capacity miss.

        Touches the LRU order and enforces the cap *after* loading, so
        the model just requested is never its own eviction victim.  The
        expensive ``from_checkpoint`` work runs *outside* the registry
        lock (serialized per model by the spec's load latch), so a slow
        cold-start never stalls submits or hits on other models — a
        deadline-lane request to a resident model must not queue behind an
        unrelated model's load.
        """
        with self._lock:
            spec = self._spec(model_id)
            entry = self._resident.get(model_id)
            if entry is not None:
                self._resident.move_to_end(model_id)
                self._hits += 1
                return entry.trainer
        with spec.load_lock:
            # Double-check: a concurrent getter may have finished the load
            # while this thread waited on the latch.
            with self._lock:
                entry = self._resident.get(model_id)
                if entry is not None:
                    self._resident.move_to_end(model_id)
                    self._hits += 1
                    return entry.trainer
            trainer = self._loader(model_id, spec)
            with self._lock:
                self._loads += 1
                self._resident[model_id] = _Resident(
                    trainer=trainer,
                    loaded_version=trainer.store._version,
                    evictable=True,
                )
                self._enforce_cap(protect=model_id)
                return trainer

    def n_samples(self, model_id: str) -> int:
        """The model's live id-space bound without forcing a load.

        Resident models answer from their (possibly committed) store;
        non-resident models from checkpoint metadata — exact, because a
        model that committed in this process is dirty and therefore still
        resident.
        """
        with self._lock:
            spec = self._spec(model_id)
            entry = self._resident.get(model_id)
            if entry is not None:
                return int(entry.trainer.store.n_samples)
            return spec.metadata.n_samples

    def resident_trainer(self, model_id: str) -> IncrementalTrainer | None:
        """The loaded trainer if resident (no load, no LRU touch), else None."""
        with self._lock:
            self._spec(model_id)
            entry = self._resident.get(model_id)
            return None if entry is None else entry.trainer

    def submit_view(
        self, model_id: str
    ) -> tuple[IncrementalTrainer | None, int | None, int | None]:
        """One consistent ``(trainer, archive n_samples, archive log length)``.

        What :meth:`FleetServer.submit` needs for validation and
        commit-translation tagging, read under a single lock hold: the
        resident trainer, or — for a model that is not resident — None
        plus the archive's sample count and deletion-log length
        (``n_original_samples - n_samples``; 0 for an archive that never
        committed).  A resident model answers ``(trainer, None, None)``:
        the caller reads both live values under the store's commit lock.
        """
        with self._lock:
            spec = self._spec(model_id)
            entry = self._resident.get(model_id)
            if entry is not None:
                return entry.trainer, None, None
            metadata = spec.metadata
            original = metadata.n_original_samples
            log_length = 0 if original is None else original - metadata.n_samples
            return None, metadata.n_samples, log_length

    def pin(self, model_id: str) -> None:
        """Protect a model from eviction until :meth:`unpin` (recursive).

        Pinning does *not* load: the fleet pins before its (retried) load
        attempts so the model cannot be evicted between a load finishing
        and the batch that needed it dispatching.
        """
        with self._lock:
            self._pins[model_id] = self._pins.get(model_id, 0) + 1

    def unpin(self, model_id: str) -> None:
        """Release one :meth:`pin`; settles any eviction debt it deferred."""
        with self._lock:
            remaining = self._pins.get(model_id, 0) - 1
            if remaining > 0:
                self._pins[model_id] = remaining
            else:
                self._pins.pop(model_id, None)
            # A pin may have been the only thing holding the resident
            # set over cap; settle the debt now that it is released.
            self._enforce_cap()

    @contextmanager
    def pinned(self, model_id: str):
        """Context manager: the trainer, protected from eviction while held."""
        self.pin(model_id)
        try:
            yield self.get(model_id)
        finally:
            self.unpin(model_id)

    # -------------------------------------------------------------- eviction
    def _is_dirty(self, entry: _Resident) -> bool:
        return entry.trainer.store._version != entry.loaded_version

    # caller-holds: _lock
    def _evictable(self, model_id: str, entry: _Resident) -> bool:
        return (
            entry.evictable
            and self._pins.get(model_id, 0) == 0
            and not self._is_dirty(entry)
        )

    # caller-holds: _lock
    def _enforce_cap(self, protect: str | None = None) -> None:
        """Evict LRU-first until under ``max_resident`` (caller holds the
        lock).

        ``protect`` names a model that must survive this pass — the one
        whose load triggered it, so it is never its own eviction victim.
        """
        while (
            self.max_resident is not None
            and len(self._resident) > self.max_resident
        ):
            victim = next(
                (
                    model_id
                    for model_id, entry in self._resident.items()
                    if model_id != protect
                    and self._evictable(model_id, entry)
                ),
                None,
            )
            if victim is None:
                return  # everything left is pinned/dirty/live: soft cap
            del self._resident[victim]
            self._evictions += 1

    def evict(self, model_id: str) -> bool:
        """Explicitly drop one resident model; False if held (pinned/dirty)."""
        with self._lock:
            self._spec(model_id)
            entry = self._resident.get(model_id)
            if entry is None:
                return False
            if not self._evictable(model_id, entry):
                return False
            del self._resident[model_id]
            self._evictions += 1
            return True

    def dirty_ids(self) -> tuple[str, ...]:
        """Models whose in-process commits outran their on-disk checkpoint."""
        with self._lock:
            return tuple(
                model_id
                for model_id, entry in self._resident.items()
                if self._is_dirty(entry)
            )

    def save_dirty(self) -> dict[str, SaveOutcome]:
        """Re-checkpoint every dirty model in place, making it evictable again.

        Only meaningful for checkpoint-backed registrations; live-trainer
        models have nowhere to save to and are skipped, as are pinned
        models (a pin means a dispatch — possibly a commit — is mid-flight
        on that trainer; saving would snapshot a moving target).  Each
        write goes back to the *exact* registered path — a directory
        registration rewrites its ``store.npz``/``plan.npz``, a bare
        store-archive registration rewrites that one file (the plan is
        recompiled at the next load, and a now-stale ``plan_path`` load
        override is dropped) — so a later evict + reload always sees the
        committed state, deletion log included: queued commit-mode
        requests are tagged with a deletion-log length, which a rewrite
        never resets.

        Saves are independent: one model's write failing does not stop
        the sweep.  Returns ``{model_id: SaveOutcome}`` for every model
        attempted; a failed model's metadata and loaded version are left
        untouched, so it stays dirty — unevictable, still
        serving from its resident (committed) state — and the next
        ``save_dirty`` retries it.  The write itself is crash-atomic
        (temp + fsync + rename, journaled for directory checkpoints), so
        a failure never leaves a half-written archive behind.

        The registry lock is held across the checkpoint writes (the
        metadata/version updates must be atomic with them), so run
        this from a maintenance path, not from under live submit traffic.
        """
        written: dict[str, SaveOutcome] = {}
        with self._lock:
            for model_id in self.dirty_ids():
                if self._pins.get(model_id, 0) > 0:
                    continue
                outcome = self._save_resident(model_id)
                if outcome is not None:
                    written[model_id] = outcome
        return written

    # caller-holds: _lock
    def _save_resident(self, model_id: str) -> SaveOutcome | None:
        """Re-checkpoint one dirty resident model (caller holds the lock).

        The per-model body of :meth:`save_dirty`, shared with
        :meth:`retire`; see there for the write semantics.  Returns
        ``None`` for live-trainer registrations (nowhere to save to).
        """
        spec = self._specs[model_id]
        entry = self._resident[model_id]
        if spec.checkpoint is None:
            return None
        target = Path(spec.checkpoint)
        try:
            if target.is_dir():
                paths = entry.trainer.save_checkpoint(target)
            else:
                # A bare archive registration: overwrite it in
                # place.  Writing a directory-style checkpoint
                # next to it would leave spec.checkpoint pointing
                # at the stale pre-commit file (and collide with
                # sibling registrations sharing the parent
                # directory).
                paths = {
                    "store": save_store(entry.trainer.store, target)
                }
            # Any plan_path load override names the *pre-commit*
            # plan; reloads must use the freshly written plan.npz
            # (directory registrations) or recompile (bare
            # archives).
            spec.load_kwargs.pop("plan_path", None)
            spec.metadata = read_checkpoint_metadata(target)
        except Exception as exc:
            return SaveOutcome(model_id=model_id, ok=False, error=exc)
        entry.loaded_version = entry.trainer.store._version
        return SaveOutcome(model_id=model_id, ok=True, paths=paths)

    def retire(self, model_id: str, policy=None) -> bool:
        """Maintenance-aware eviction: reclaim debt, checkpoint, then drop.

        Where :meth:`evict` refuses dirty models outright, ``retire``
        does the work that makes a high-debt model droppable: when
        ``policy`` (a :class:`~repro.core.maintenance.MaintenancePolicy`)
        marks the model's maintenance debt as due, ``maintain()`` reclaims it
        first — so the checkpoint written is the compact post-reclamation
        state, not a garbage-carrying snapshot that the next load pays
        for — then any dirty state is saved back to the registered
        checkpoint (the :meth:`save_dirty` protocol: metadata re-read,
        stale ``plan_path`` override dropped) and the model is evicted.

        Returns ``False`` without touching anything droppable for models
        that are not resident, pinned, registered non-evictable (live
        trainers), dirty-with-nowhere-to-save, or whose checkpoint write
        fails (the model stays resident and dirty; retry later).  Like
        ``save_dirty``, call from a maintenance path — the reclamation
        runs on the live trainer, so no dispatch may be in flight on
        this model (the fleet's chaos harness flushes first).
        """
        with self._lock:
            spec = self._spec(model_id)
            entry = self._resident.get(model_id)
            if entry is None:
                return False
            if self._pins.get(model_id, 0) > 0 or not entry.evictable:
                return False
            if self._is_dirty(entry) and spec.checkpoint is None:
                return False
            trainer = entry.trainer
        # Reclamation runs outside the registry lock (O(records) work
        # must not stall concurrent submits on other models); residency
        # is re-checked below in case the cap raced an eviction.
        if policy is not None:
            cost = trainer.maintenance_cost(include_bytes=False)
            if policy.due(cost):
                trainer.maintain(policy)
        with self._lock:
            entry = self._resident.get(model_id)
            if entry is None or entry.trainer is not trainer:
                return False
            if self._pins.get(model_id, 0) > 0:
                return False
            if self._is_dirty(entry):
                outcome = self._save_resident(model_id)
                if outcome is None or not outcome.ok:
                    return False
            del self._resident[model_id]
            self._evictions += 1
            return True

    # ------------------------------------------------------------- observers
    def describe(self, model_id: str) -> dict:
        """One model's registration, residency, dirtiness and maintenance
        debt, as plain data.

        ``plan_bytes`` and ``maintenance_cost`` are *advisory snapshots*,
        measured on read from the resident trainer: outside the registry
        lock (the ``O(records)`` traversal must not stall every concurrent
        submit on one monitoring call) and without synchronizing against
        an in-flight dispatch on that model, so a commit racing the read
        can smear the numbers.  Both are ``None`` while the model is not
        resident — measuring would force a load.
        """
        with self._lock:
            spec = self._spec(model_id)
            entry = self._resident.get(model_id)
            trainer = None if entry is None else entry.trainer
            info = {
                "model_id": model_id,
                "checkpoint": (
                    None if spec.checkpoint is None else str(spec.checkpoint)
                ),
                "resident": entry is not None,
                "dirty": entry is not None and self._is_dirty(entry),
                "pinned": self._pins.get(model_id, 0) > 0,
                "metadata": (
                    None if spec.metadata is None else spec.metadata.as_dict()
                ),
            }
        info["plan_bytes"] = None if trainer is None else trainer.plan_nbytes()
        info["maintenance_cost"] = (
            None if trainer is None else trainer.maintenance_cost().as_dict()
        )
        return info

    def stats(self) -> dict:
        """Lifetime load/hit/eviction counters and the resident plan bytes."""
        with self._lock:
            return {
                "registered": len(self._specs),
                "resident": len(self._resident),
                "loads": self._loads,
                "hits": self._hits,
                "evictions": self._evictions,
                "resident_plan_bytes": sum(
                    entry.trainer.plan_nbytes()
                    for entry in self._resident.values()
                ),
                "dirty": len(self.dirty_ids()),
            }


# ---------------------------------------------------------------- requests
@dataclass
class ServedOutcome:
    """One answered deletion request, with its queueing economics.

    ``seconds`` is the request's amortized share of its batch's
    ``remove_many`` wall-clock (matching
    :class:`~repro.core.api.UpdateOutcome`); ``latency_seconds`` is what
    the caller actually experienced, enqueue to answer.  ``batch_seq`` /
    ``batch_rank`` locate the request in its model's dispatch history
    (batch number, position within the batch, both 0-based in admission
    order) — the stress harness uses them to prove ordering invariants.
    """

    weights: np.ndarray
    method: str
    removed: np.ndarray
    seconds: float
    wait_seconds: float
    latency_seconds: float
    batch_size: int
    # True when the model is served in commit mode and this answer's
    # removals (plus everything admitted before it) are now folded in.
    committed: bool = False
    lane: str | None = None
    model_id: str | None = None
    batch_seq: int = -1
    batch_rank: int = -1
    # The pre-dispatch CostEstimate of the whole batch's removal union
    # (``CostEstimate.as_dict()``), when the serving trainer carries a
    # cost model; every member of a batch shares one estimate.  None on
    # trainers without a cost model.
    predicted: dict | None = None


@dataclass
class _Request:
    indices: np.ndarray
    future: Future
    enqueued_at: float
    lane: str
    lane_delay: float
    lane_priority: int
    seq: int = -1
    # Commit mode: the length of the model's deletion log when the ids
    # were validated, naming the id space they address.  The log persists
    # through save_dirty, eviction and reload, so the tag never resets;
    # dispatch translates the ids through every entry past it.
    log_length: int = 0

    def entry(self) -> tuple:
        """Priority-queue entry: lanes first, submission order within."""
        return (self.lane_priority, self.seq, self)


def _consistent_store_snapshot(store) -> tuple[int, int]:
    """A consistent ``(n_samples, deletion-log length)`` pair.

    Blocks while ``compact()`` or ``retruncate_summaries()`` holds the
    store's commit lock, so the pair never straddles a mutation.
    """
    with store._commit_lock:
        log = store.deletion_log
        return store.n_samples, 0 if log is None else int(log.size)


# ------------------------------------------------------------------ fleet
class _MaintenanceTicket:
    """One scheduled background ``maintain()`` run for one model.

    Tickets ride the stock lowest-priority ``maintenance`` lane: they
    live outside the request heap and the scheduler only picks them up
    when no model has queued deletion traffic at all, so background
    reclamation never pushes a queued deadline or bulk dispatch back
    (same-model traffic arriving *mid-run* waits for the run to finish,
    like behind any in-flight batch).
    """

    __slots__ = ("future", "enqueued_at", "policy")

    def __init__(
        self,
        future: Future,
        enqueued_at: float,
        policy: MaintenancePolicy | None,
    ) -> None:
        self.future = future
        self.enqueued_at = enqueued_at
        self.policy = policy


#: Weight of the newest inter-arrival gap in a model queue's gap EWMA.
_GAP_WEIGHT = 0.25
#: Gaps that warm a model queue's estimate before it may send a batch
#: out early: the first ``1 + _MIN_GAPS`` arrivals wait out their budget.
_MIN_GAPS = 4


class _ModelQueue:
    """One model's admission state inside the fleet (guarded by the
    fleet's scheduler condition unless noted)."""

    __slots__ = (
        "model_id", "heap", "busy", "slots",
        "stats", "batch_seq", "method", "commit_mode",
        "maintenance", "maintenance_runs", "last_maintenance", "health",
        "last_arrival", "gap", "arrivals",
    )

    def __init__(
        self,
        model_id: str,
        max_pending: int,
        method: str | None,
        commit_mode: bool,
    ) -> None:
        self.model_id = model_id
        self.heap: list[tuple] = []
        self.busy = False
        # Backpressure semaphore: acquired outside any lock (blocking
        # submits must not stall the scheduler), released as requests are
        # popped into a batch.
        self.slots = threading.BoundedSemaphore(max_pending)
        self.stats = StatsRecorder()
        self.batch_seq = itertools.count()
        self.method = method
        self.commit_mode = commit_mode
        # The background-maintenance backlog (lowest-priority lane).
        self.maintenance: list[_MaintenanceTicket] = []
        self.maintenance_runs = 0
        self.last_maintenance: dict | None = None
        self.health = _ModelHealth()
        # Arrival history on the fleet's clock: the newest request's
        # arrival, an EWMA of the gaps between arrivals, and their count.
        self.last_arrival = 0.0
        self.gap: float | None = None
        self.arrivals = 0

    def note_arrival(self, now: float) -> None:
        """Fold one request pushed onto the heap into the gap estimate."""
        if self.arrivals:
            gap = now - self.last_arrival
            self.gap = (
                gap
                if self.gap is None
                else self.gap + _GAP_WEIGHT * (gap - self.gap)
            )
        self.last_arrival = now
        self.arrivals += 1

    def no_mate_expected(self, deadline: float) -> bool:
        """The warm estimate puts the next arrival past ``deadline``, so
        waiting out the budget would gather no batch-mate."""
        return (
            self.arrivals > 1 + _MIN_GAPS
            and self.last_arrival + self.gap > deadline
        )

    def admission(self) -> dict:
        """The arrival estimate as plain data (:meth:`FleetServer.describe`)."""
        return {
            "arrivals": self.arrivals,
            "gap_ms": None if self.gap is None else 1e3 * self.gap,
        }

    def earliest_deadline(self) -> float | None:
        """When the most impatient queued request's lane budget expires."""
        if not self.heap:
            return None
        return min(
            request.enqueued_at + request.lane_delay
            for _, _, request in self.heap
        )

    def pop_batch(self, max_batch: int) -> list[_Request]:
        """Up to ``max_batch`` requests in (lane priority, submission) order."""
        batch: list[_Request] = []
        while self.heap and len(batch) < max_batch:
            _, _, request = heapq.heappop(self.heap)
            self.slots.release()
            batch.append(request)
        return batch


def _serve_batch(
    trainer,
    state: _ModelQueue,
    live: list[_Request],
    clock: Clock,
) -> None:
    """Run one admitted batch through ``remove_many`` and resolve its futures.

    ``live`` holds only requests whose futures are already in the running
    state (cancellation handled by the caller); every future is resolved
    exactly once — with a :class:`ServedOutcome` on success, with the
    dispatch exception on failure.  The caller performs its own in-flight
    accounting after this returns.
    """
    commit_mode = state.commit_mode
    if commit_mode:
        # Commits may have landed (and re-packed the id space) while these
        # requests sat in the queue: earlier batches, or commits made on
        # the trainer directly.  Translate each request forward through
        # the deletion-log entries past its tag: ids already committed
        # drop out (those samples are gone — which is what the caller
        # asked for), survivors shift down.  Without this, a queued id
        # would silently denote whatever sample later moved into its slot.
        log = trainer.store.deletion_log
        for request in live:
            request.indices = remap_through_deletion_log(
                request.indices, log, request.log_length
            )
    batch_seq = next(state.batch_seq)
    lanes = [request.lane for request in live]
    # Cost-model hook: estimate the batch union's footprint before the
    # replay runs (searchsorted counts — no extra replay) and attach it
    # to every member's outcome.
    cost_model = getattr(trainer, "cost_model", None)
    predicted = None
    if cost_model is not None:
        union = np.unique(np.concatenate([r.indices for r in live]))
        predicted = cost_model.estimate(trainer, union).as_dict()
    dispatched_at = clock.now()
    try:
        outcomes = trainer.remove_many(
            [r.indices for r in live],
            method=state.method,
            commit=commit_mode,
        )
    except Exception as exc:  # systemic: fail every request in the batch
        for request in live:
            request.future.set_exception(exc)
        state.stats.record_failed(len(live), lanes)
        return
    answered_at = clock.now()
    service = answered_at - dispatched_at
    waits, latencies = [], []
    for rank, (request, outcome) in enumerate(zip(live, outcomes)):
        wait = dispatched_at - request.enqueued_at
        latency = answered_at - request.enqueued_at
        request.future.set_result(
            ServedOutcome(
                weights=outcome.weights,
                method=outcome.method,
                removed=outcome.removed,
                seconds=outcome.seconds,
                wait_seconds=wait,
                latency_seconds=latency,
                batch_size=len(live),
                committed=commit_mode,
                lane=request.lane,
                model_id=state.model_id,
                batch_seq=batch_seq,
                batch_rank=rank,
                predicted=predicted,
            )
        )
        waits.append(wait)
        latencies.append(latency)
    # Stats record the batch's actual dispatch->answer wall-clock (the
    # same for every member); the per-request *amortized* share lives on
    # ServedOutcome.seconds.
    state.stats.record_batch(waits, [service] * len(live), latencies, lanes)


class FleetServer:
    """Route deletion traffic for many models through one bounded pool.

    Parameters
    ----------
    registry:
        The :class:`ModelRegistry` naming the servable models.  Models may
        be registered before or after the fleet starts; a model's queue is
        created at its first submission.
    policy:
        Shared :class:`~repro.serving.policy.AdmissionPolicy` (coalescing
        budget, ``max_batch``, per-model ``max_pending``, SLA lanes).
    method / commit_mode:
        Fleet-wide defaults, overridable per model via
        :meth:`configure_model` before that model's first submission.
    n_workers:
        Size of the shared dispatch pool.  Each worker serves at most one
        model at a time and each model has at most one batch in flight, so
        effective parallelism is ``min(n_workers, busy models)``.
    clock:
        Injectable time source shared with the per-model deadline math.
    retry:
        The :class:`RetryPolicy` governing checkpoint-load failures:
        within-dispatch retries with capped exponential backoff for
        transient errors, then a per-model circuit breaker — after
        ``quarantine_after`` consecutive failed dispatches the model is
        *quarantined* and submits fast-fail with
        :class:`~repro.serving.errors.ModelQuarantinedError` until a
        half-open probe succeeds.  Defaults to ``RetryPolicy()``.

    Maintenance runs only when asked for, through :meth:`maintain`.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        policy: AdmissionPolicy | None = None,
        method: str | None = None,
        n_workers: int = 2,
        commit_mode: bool = False,
        clock: Clock | None = None,
        retry: "RetryPolicy | None" = None,
        autostart: bool = True,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if method not in (None, "priu", "priu-opt", "priu-seq"):
            raise ValueError(
                "method must be None, 'priu', 'priu-opt' or 'priu-seq'"
            )
        self.registry = registry
        self.policy = policy if policy is not None else AdmissionPolicy()
        self.method = method
        self.commit_mode = bool(commit_mode)
        self.n_workers = n_workers
        self.retry = retry if retry is not None else RetryPolicy()
        self._clock = clock if clock is not None else MONOTONIC_CLOCK
        # Backoff sleeps between load retries run on this private
        # condition so they ride the injectable clock (a fake clock
        # advances instantly) without ever holding the scheduler lock.
        self._backoff_cond = threading.Condition()
        self._crashed: BaseException | None = None  # guarded-by: _sched
        # At most one background maintain() in flight fleet-wide, so the
        # pool always keeps workers free for deletion traffic.
        self._maintenance_busy = False  # guarded-by: _sched
        self._sched = threading.Condition()
        self._queues: dict[str, _ModelQueue] = {}  # guarded-by: _sched
        self._overrides: dict[str, dict] = {}  # guarded-by: _sched
        # Round-robin rotation of model ids.
        self._rr_order: list[str] = []  # guarded-by: _sched
        self._seq = itertools.count()
        self._pending = 0  # guarded-by: _sched
        self._closed = False  # guarded-by: _sched
        self._started = False  # guarded-by: _sched
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                name=f"fleet-server-{i}",
                daemon=True,
            )
            for i in range(n_workers)
        ]
        if autostart:
            self.start()

    # ----------------------------------------------------------- lifecycle
    def start(self) -> "FleetServer":
        """Start the worker pool (idempotent)."""
        with self._sched:
            if not self._started:
                self._started = True
                for worker in self._workers:
                    worker.start()
        return self

    def close(self, wait: bool = True) -> None:
        """Stop accepting requests; drain every queue, then stop the pool."""
        with self._sched:
            already_closed = self._closed
            self._closed = True
            self._sched.notify_all()
        if not already_closed:
            # Ensure queued work drains even if the caller never start()ed.
            self.start()
        if wait:
            for worker in self._workers:
                if worker.is_alive():
                    worker.join()

    def __enter__(self) -> "FleetServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        # Drain on a clean exit, but never block while an exception is
        # unwinding past the with-block (the futures' owners may be the
        # very frames being torn down).
        self.close(wait=exc_type is None)

    # -------------------------------------------------------- configuration
    def configure_model(
        self,
        model_id: str,
        method: str | None = None,
        commit_mode: bool | None = None,
    ) -> None:
        """Per-model serving overrides; must precede the model's first submit."""
        if method not in (None, "priu", "priu-opt", "priu-seq"):
            raise ValueError(
                "method must be None, 'priu', 'priu-opt' or 'priu-seq'"
            )
        if model_id not in self.registry:
            raise ValueError(f"unknown model id {model_id!r}")
        with self._sched:
            if model_id in self._queues:
                raise ServerStateError(
                    f"model {model_id!r} already has traffic; configure it "
                    "before its first submission"
                )
            overrides = self._overrides.setdefault(model_id, {})
            if method is not None:
                overrides["method"] = method
            if commit_mode is not None:
                overrides["commit_mode"] = bool(commit_mode)

    # caller-holds: _sched
    def _check_accepting(self) -> None:
        """Raise if the fleet crashed or closed (caller holds ``_sched``)."""
        if self._crashed is not None:
            raise WorkerCrashedError(
                "cannot submit: a fleet worker thread died"
            ) from self._crashed
        if self._closed:
            raise ServerClosedError("cannot submit: the server is closed")

    # caller-holds: _sched
    def _queue_for(self, model_id: str) -> _ModelQueue:
        """The model's admission queue (caller holds ``_sched``)."""
        state = self._queues.get(model_id)
        if state is None:
            overrides = self._overrides.get(model_id, {})
            state = _ModelQueue(
                model_id,
                max_pending=self.policy.max_pending,
                method=overrides.get("method", self.method),
                commit_mode=overrides.get("commit_mode", self.commit_mode),
            )
            self._queues[model_id] = state
            self._rr_order.append(model_id)
        return state

    # ---------------------------------------------------------- submission
    def submit(
        self,
        model_id: str,
        indices,
        lane: str | None = None,
        block: bool = True,
        timeout: float | None = None,
    ) -> Future:
        """Enqueue one removal set for one model; future of :class:`ServedOutcome`.

        Validation is synchronous, against the model's *live* id space
        when it is resident (consistent under concurrent commits via the
        store's commit lock) and against its checkpoint metadata otherwise —
        exact either way, because a model with in-process commits is dirty
        and therefore always resident.  Backpressure is per model:
        ``block=False`` raises :class:`BackpressureError` when that
        model's queue is at ``max_pending``.  A quarantined model
        fast-fails with
        :class:`~repro.serving.errors.ModelQuarantinedError` — except
        once per ``retry.probe_interval_seconds``, when one submission is
        admitted as the breaker's half-open probe.  The request is tagged
        with the deletion-log length of the id space it was validated
        against, and commit-mode dispatch translates it past every commit
        made since (by this fleet or directly on the trainer).
        """
        lane_obj = self.policy.lane(lane)
        removed = normalize_removed_indices(indices)
        # Unknown model ids fail here, synchronously, before queueing.
        trainer, n_samples, log_length = self.registry.submit_view(model_id)
        if removed.size == 0:
            return self._resolve_empty(model_id, lane_obj.name)
        with self._sched:
            self._check_accepting()
            state = self._queue_for(model_id)
            # Circuit breaker: fast-fail while quarantined; once the
            # probe interval elapses, this submission becomes the
            # breaker's single half-open probe.
            probing = self._admit_health(state, lane_obj.name)
        try:
            if trainer is not None:
                n_samples, log_length = _consistent_store_snapshot(
                    trainer.store
                )
            validate_removed_indices(removed, n_samples)
            request = _Request(
                indices=removed,
                future=Future(),
                enqueued_at=self._clock.now(),
                lane=lane_obj.name,
                lane_delay=self.policy.delay_for(lane_obj.name),
                lane_priority=lane_obj.priority,
                log_length=log_length,
            )
            # Per-model backpressure, waited out without holding the
            # scheduler lock so a blocked submitter never stalls
            # dispatch or close().
            if block:
                got_slot = state.slots.acquire(timeout=timeout)
            else:
                got_slot = state.slots.acquire(blocking=False)
            if not got_slot:
                state.stats.record_rejected(lane_obj.name)
                raise BackpressureError(
                    f"model {model_id!r} admission queue is full "
                    f"({self.policy.max_pending} pending)"
                )
            with self._sched:
                # Re-checked after the slot wait: a worker crash or close()
                # while this submitter was parked must not admit it into a
                # fleet that will never dispatch it.
                try:
                    self._check_accepting()
                except ServingError:
                    state.slots.release()
                    raise
                request.seq = next(self._seq)
                state.stats.record_submitted(lane_obj.name)
                # Timed here, not from enqueued_at: that stamp predates
                # the slot wait, so concurrent submitters could push out
                # of order and make a negative gap.
                state.note_arrival(self._clock.now())
                heapq.heappush(state.heap, request.entry())
                self._pending += 1
                self._sched.notify_all()
        except BaseException:
            # One unwind point for every pre-enqueue failure — validation,
            # rejection, closed server, or an interrupt while parked on
            # the semaphore.
            if probing:
                # The half-open probe never enqueued; re-open the breaker
                # with an immediate probe window so the next submission
                # gets the trial instead of a wedged "probing" state.
                with self._sched:
                    if state.health.state == "probing":
                        state.health.state = "quarantined"
                        state.health.probe_at = self._clock.now()
            raise
        return request.future

    def _resolve_empty(self, model_id: str, lane: str) -> Future:
        """Answer an empty removal set inline: a no-op that joins no batch.

        An empty set riding a batch would waste an admission slot and, in
        commit mode, count as an applied request that committed nothing.
        """
        with self._sched:
            self._check_accepting()
            state = self._queue_for(model_id)
            if state.health.state != "healthy":
                # Answering needs the trainer's weights, i.e. a load the
                # breaker says will fail; and a no-op proves nothing as a
                # probe.  Fast-fail without consuming the probe window.
                state.stats.record_quarantined(lane)
                raise ModelQuarantinedError(
                    model_id,
                    state.health.consecutive_failures,
                    state.health.probe_at or self._clock.now(),
                )
        # A no-op must not reshuffle the resident set: answer from the
        # loaded trainer without an LRU touch when possible, and only pay
        # the (cached) load for a genuinely cold model.
        trainer = self.registry.resident_trainer(model_id)
        if trainer is not None:
            weights = trainer.weights_.copy()
        else:
            with self.registry.pinned(model_id) as loaded:
                weights = loaded.weights_.copy()
        state.stats.record_noop(lane)
        future: Future = Future()
        future.set_result(
            ServedOutcome(
                weights=weights,
                method="noop",
                removed=np.empty(0, dtype=np.int64),
                seconds=0.0,
                wait_seconds=0.0,
                latency_seconds=0.0,
                batch_size=0,
                committed=False,
                lane=lane,
                model_id=model_id,
            )
        )
        return future

    def submit_many(self, model_id: str, index_sets, **kwargs) -> list[Future]:
        """Enqueue several removal sets for one model (one future each)."""
        return [
            self.submit(model_id, indices, **kwargs) for indices in index_sets
        ]

    def resolve(
        self, model_id: str, indices, timeout: float | None = None, **kwargs
    ) -> ServedOutcome:
        """Blocking convenience: submit one request and wait for its answer."""
        return self.submit(model_id, indices, **kwargs).result(timeout=timeout)

    # ----------------------------------------------------------- observers
    def flush(self, timeout: float | None = None) -> bool:
        """Block until every submitted request has been answered or failed."""
        with self._sched:
            if self._pending and not self._started:
                raise ServerStateError(
                    "flush() would wait forever: requests are queued but the "
                    "worker pool was never started (autostart=False)"
                )
            return self._sched.wait_for(lambda: self._pending == 0, timeout)

    @property
    def pending(self) -> int:
        """Requests submitted but not yet answered, across all models."""
        with self._sched:
            return self._pending

    def stats(self, model_id: str | None = None) -> ServingStats:
        """Fleet-wide counters (default) or one model's, lanes included."""
        if model_id is None:
            return self.stats_frame().summarize()
        with self._sched:
            state = self._queues.get(model_id)
        if state is None:
            if model_id not in self.registry:
                raise ValueError(f"unknown model id {model_id!r}")
            return StatsFrame().summarize()  # no traffic yet: all zeros
        return state.stats.snapshot()

    def stats_frame(self) -> StatsFrame:
        """The fleet-wide raw accounting as a mergeable, picklable frame.

        The per-model frames merged before anything is summarized, so
        fleet-wide percentiles are order statistics over every model's
        requests.  This is also what a shard worker exports over its
        pipe: the router merges every shard's frame the same way and
        never averages per-shard percentiles.
        """
        with self._sched:
            states = list(self._queues.values())
        return StatsFrame.merged(state.stats.frame() for state in states)

    def model_stats(self) -> dict[str, ServingStats]:
        """Per-model snapshots for every model that has seen traffic."""
        with self._sched:
            states = list(self._queues.values())
        return {state.model_id: state.stats.snapshot() for state in states}

    def describe(self, model_id: str) -> dict:
        """:meth:`ModelRegistry.describe` plus this fleet's view of the model.

        The added ``"health"`` entry is the model's circuit-breaker state
        (``healthy`` / ``quarantined`` / ``probing``), failure counts and
        next probe time.  ``"admission"`` is the arrival estimate that
        lets a batch leave before its budget: ``{"arrivals": n,
        "gap_ms": <EWMA of the inter-arrival gaps, or None>}``.  Both
        read as zeros/healthy for a model that has seen no traffic
        through this fleet.
        """
        info = self.registry.describe(model_id)
        with self._sched:
            state = self._queues.get(model_id)
            health = _ModelHealth() if state is None else state.health
            info["health"] = health.as_dict()
            info["admission"] = (
                {"arrivals": 0, "gap_ms": None}
                if state is None
                else state.admission()
            )
        return info

    # --------------------------------------------------------- model health
    def _admit_health(self, state: _ModelQueue, lane: str) -> bool:
        """Gate one submission on the model's breaker (holding ``_sched``).

        Returns True when this submission was admitted as the breaker's
        half-open probe; raises
        :class:`~repro.serving.errors.ModelQuarantinedError` when the
        breaker is open (or a probe is already in flight).
        """
        health = state.health
        if health.state == "healthy":
            return False
        if health.state == "quarantined" and (
            health.probe_at is not None
            and self._clock.now() >= health.probe_at
        ):
            health.state = "probing"
            return True
        state.stats.record_quarantined(lane)
        raise ModelQuarantinedError(
            state.model_id,
            health.consecutive_failures,
            health.probe_at if health.probe_at is not None else self._clock.now(),
        )

    def _acquire_trainer(self, model_id: str, state: _ModelQueue):
        """Load (or hit) the model, retrying transient failures with backoff.

        Runs under the dispatch's registry pin, so a trainer returned
        here cannot be evicted before the batch it serves.  Exhausting
        the retry budget — or any non-transient failure — counts one
        consecutive failure against the model, possibly opening its
        breaker, and raises
        :class:`~repro.serving.errors.ModelLoadError` chained to the
        underlying cause.
        """
        policy = self.retry
        delay = policy.backoff_seconds
        attempts = 0
        while True:
            try:
                trainer = self.registry.get(model_id)
            except Exception as exc:
                attempts += 1
                if policy.is_transient(exc) and attempts < policy.load_attempts:
                    with self._sched:
                        state.health.load_retries += 1
                    self._backoff(delay)
                    delay = min(
                        delay * policy.backoff_factor,
                        policy.max_backoff_seconds,
                    )
                    continue
                raise self._note_load_failure(state, exc, attempts) from exc
            self._note_load_success(state)
            return trainer

    def _backoff(self, delay: float) -> None:
        if delay <= 0:
            return
        with self._backoff_cond:
            self._clock.wait(self._backoff_cond, delay)

    def _note_load_success(self, state: _ModelQueue) -> None:
        with self._sched:
            health = state.health
            health.state = "healthy"
            health.consecutive_failures = 0
            health.probe_at = None
            health.last_error = None

    def _note_load_failure(
        self, state: _ModelQueue, exc: BaseException, attempts: int
    ) -> ModelLoadError:
        """Account one failed dispatch-level load; open the breaker if due."""
        with self._sched:
            health = state.health
            health.consecutive_failures += 1
            health.last_error = repr(exc)
            open_breaker = (
                not self.retry.is_transient(exc)  # disk won't heal itself
                or health.state == "probing"  # failed probe: straight back
                or health.consecutive_failures >= self.retry.quarantine_after
            )
            if open_breaker:
                health.state = "quarantined"
                health.probe_at = (
                    self._clock.now() + self.retry.probe_interval_seconds
                )
                health.quarantines += 1
            return ModelLoadError(state.model_id, attempts, exc)

    def _settle_probe(self, state: _ModelQueue) -> None:
        """The probe batch evaporated (all cancelled): re-open the breaker.

        ``probe_at=now`` keeps the window open so the very next
        submission becomes the new probe — a cancelled probe proved
        nothing in either direction.
        """
        with self._sched:
            if state.health.state == "probing":
                state.health.state = "quarantined"
                state.health.probe_at = self._clock.now()

    # -------------------------------------------------------------- workers
    def _next_job(self) -> tuple[str, str, object] | None:
        """Block until there is work; ``(kind, model_id, payload)`` or None.

        ``kind`` is ``"batch"`` (payload: the popped request list) or
        ``"maintain"`` (payload: a :class:`_MaintenanceTicket`).  Requests
        always win: maintenance is considered only when *no* model has any
        queued deletion traffic at all — the literal semantics of its
        lowest-priority lane — and at most one maintenance run is in
        flight fleet-wide, so the pool keeps workers free for traffic
        that arrives mid-run.

        Fairness: models are scanned in round-robin order starting past
        the last dispatched one, so a model with a permanently full queue
        cannot starve the others.  A model already mid-dispatch is skipped
        (one in-flight batch per model) and excluded from the deadline
        computation — its completion notifies the condition.
        """
        with self._sched:
            while True:
                now = self._clock.now()
                next_deadline: float | None = None
                order = self._rr_order
                n = len(order)
                any_queued = False
                for offset in range(n):
                    model_id = order[offset]
                    state = self._queues[model_id]
                    if not state.heap:
                        continue
                    any_queued = True
                    if state.busy:
                        continue
                    # One O(queue) min-scan per model per wake; reused for
                    # both the readiness check and the sleep computation.
                    deadline = state.earliest_deadline()
                    ready = (
                        self._closed
                        or len(state.heap) >= self.policy.max_batch
                        or (deadline is not None and now >= deadline)
                    )
                    # Arrival-aware admission: leave now when no
                    # batch-mate is expected before the budget runs out.
                    # Only an arrival changes this, and every arrival
                    # notifies, so the sleep below needs no extra timer.
                    early = not ready and state.no_mate_expected(deadline)
                    if ready or early:
                        batch = state.pop_batch(self.policy.max_batch)
                        state.busy = True
                        if early:
                            state.stats.record_early()
                        # Rotate: this model goes to the back of the scan.
                        self._rr_order = order[offset + 1:] + order[: offset + 1]
                        return "batch", model_id, batch
                    if deadline is not None and (
                        next_deadline is None or deadline < next_deadline
                    ):
                        next_deadline = deadline
                if not any_queued and not self._maintenance_busy:
                    for model_id in order:
                        state = self._queues[model_id]
                        if state.busy or not state.maintenance:
                            continue
                        ticket = state.maintenance.pop(0)
                        state.busy = True
                        self._maintenance_busy = True
                        return "maintain", model_id, ticket
                if self._closed and all(
                    not state.heap and not state.maintenance
                    for state in self._queues.values()
                ):
                    self._sched.notify_all()  # let sibling workers exit too
                    return None
                wait = (
                    None
                    if next_deadline is None
                    else max(0.0, next_deadline - now)
                )
                self._clock.wait(self._sched, wait)

    def _worker_loop(self) -> None:
        job: tuple[str, str, object] | None = None
        try:
            while True:
                job = self._next_job()
                if job is None:
                    return
                kind, model_id, payload = job
                try:
                    if kind == "batch":
                        self._dispatch(model_id, payload)
                    else:
                        self._dispatch_maintenance(model_id, payload)
                finally:
                    with self._sched:
                        self._queues[model_id].busy = False
                        if kind == "maintain":
                            self._maintenance_busy = False
                        self._sched.notify_all()
                job = None
        except BaseException as exc:
            # This worker is dying with work possibly in hand.  Fail
            # everything unresolved — the job being dispatched and every
            # queued request fleet-wide — with a typed error; a wedged
            # flush() or a silently leaked future is strictly worse.
            self._abort(exc, job)

    def _abort(
        self, cause: BaseException, job: tuple[str, str, object] | None
    ) -> None:
        error = WorkerCrashedError("a fleet worker thread died")
        error.__cause__ = cause
        doomed: list[tuple[_ModelQueue, _Request]] = []
        tickets: list[tuple[_ModelQueue, _MaintenanceTicket]] = []
        with self._sched:
            if self._crashed is None:
                self._crashed = error
            for state in self._queues.values():
                while state.heap:
                    _, _, request = heapq.heappop(state.heap)
                    state.slots.release()
                    doomed.append((state, request))
                for ticket in state.maintenance:
                    tickets.append((state, ticket))
                state.maintenance.clear()
            if job is not None:
                state = self._queues[job[1]]
                if job[0] == "batch":
                    for request in job[2]:
                        doomed.append((state, request))
                else:
                    tickets.append((state, job[2]))
            self._pending = 0
            self._sched.notify_all()
        for state, request in doomed:
            future = request.future
            if future.cancelled():
                state.stats.record_cancelled(1, [request.lane])
                continue
            if future.done():
                continue
            try:
                future.set_exception(error)
            except Exception:
                continue  # lost a cancel race; the caller has an answer
            state.stats.record_failed(1, [request.lane])
        for state, ticket in tickets:
            if ticket.future.done():
                continue
            try:
                ticket.future.set_exception(error)
            except Exception:
                continue
            state.stats.record_failed(1, ["maintenance"])

    def _finish(self, requests: list[_Request]) -> None:
        with self._sched:
            # max() guards the post-abort window: _abort zeroes the count
            # while a sibling worker may still be finishing its batch.
            self._pending = max(0, self._pending - len(requests))
            self._sched.notify_all()

    def _dispatch(self, model_id: str, batch: list[_Request]) -> None:
        with self._sched:
            state = self._queues[model_id]
        live: list[_Request] = []
        cancelled: list[_Request] = []
        for request in batch:
            if request.future.set_running_or_notify_cancel():
                live.append(request)
            else:
                cancelled.append(request)
        if cancelled:
            state.stats.record_cancelled(
                len(cancelled), [r.lane for r in cancelled]
            )
            self._finish(cancelled)
        # Keep the popped list tracking exactly the still-unsettled
        # requests, so a worker crash below aborts precisely those.
        batch[:] = live
        if not live:
            # If this was the breaker's half-open probe, it just
            # evaporated without testing anything; re-open the window.
            self._settle_probe(state)
            return
        # Pin around the *retried* load, not just the serve: the trainer
        # must not be evicted between a load attempt succeeding and the
        # batch running.
        self.registry.pin(model_id)
        try:
            try:
                trainer = self._acquire_trainer(model_id, state)
                if state.commit_mode and trainer.clock is None:
                    # The serving clock also stamps the commit audit
                    # receipts: an injected clock (fake clock in tests,
                    # or a custom time source) keeps them deterministic,
                    # and the stock monotonic clock answers receipt
                    # stamps through Clock.timestamp() — wall time,
                    # since receipts persist across restarts and
                    # perf_counter seconds are process-relative.
                    trainer.clock = self._clock
                _serve_batch(trainer, state, live, self._clock)
            except Exception as exc:
                # A checkpoint that fails to *load* (after its retry
                # budget) fails the batch the same way a failed dispatch
                # does — every future, never a leak.
                failed = [r for r in live if not r.future.done()]
                for request in failed:
                    request.future.set_exception(exc)
                state.stats.record_failed(
                    len(failed), [r.lane for r in failed]
                )
        finally:
            self.registry.unpin(model_id)
        self._finish(live)
        del batch[:]

    # ---------------------------------------------------------- maintenance
    def maintain(
        self, model_id: str, policy: MaintenancePolicy | None = None
    ) -> Future:
        """Schedule a background ``maintain()`` for one model.

        Returns a future of the
        :class:`~repro.core.maintenance.MaintenanceReport`.  The run rides
        the lowest-priority ``maintenance`` lane: it dispatches only once
        no model has queued deletion traffic, so queued deadline or bulk
        requests always go first (same-model traffic arriving mid-run
        waits like behind any in-flight batch).  ``policy=None`` reclaims
        all garbage (the default :class:`~repro.core.maintenance.\
MaintenancePolicy`).
        """
        if model_id not in self.registry:
            raise ValueError(f"unknown model id {model_id!r}")
        with self._sched:
            self._check_accepting()
            state = self._queue_for(model_id)
            ticket = _MaintenanceTicket(
                future=Future(),
                enqueued_at=self._clock.now(),
                policy=policy,
            )
            state.maintenance.append(ticket)
            state.stats.record_submitted("maintenance")
            self._sched.notify_all()
        return ticket.future

    def _dispatch_maintenance(
        self, model_id: str, ticket: _MaintenanceTicket
    ) -> None:
        with self._sched:
            state = self._queues[model_id]
        stats = state.stats
        if not ticket.future.set_running_or_notify_cancel():
            stats.record_cancelled(1, ["maintenance"])
            return
        dispatched_at = self._clock.now()
        try:
            with self.registry.pinned(model_id) as trainer:
                report = trainer.maintain(ticket.policy)
        except Exception as exc:
            ticket.future.set_exception(exc)
            with self._sched:
                state.last_maintenance = {"error": repr(exc)}
            stats.record_failed(1, ["maintenance"])
            return
        answered_at = self._clock.now()
        with self._sched:
            state.maintenance_runs += 1
            state.last_maintenance = report.as_dict()
        ticket.future.set_result(report)
        stats.record_batch(
            [dispatched_at - ticket.enqueued_at],
            [answered_at - dispatched_at],
            [answered_at - ticket.enqueued_at],
            ["maintenance"],
        )

    def maintenance_stats(self, model_id: str | None = None) -> dict:
        """Per-model background-maintenance accounting.

        For one model: ``{"runs", "pending", "last"}`` where ``last`` is
        the most recent run's
        :meth:`~repro.core.maintenance.MaintenanceReport.as_dict` (or an
        ``{"error": ...}`` marker).  With ``model_id=None``: that mapping
        for every model that has seen traffic or maintenance.  Lane-level
        timing of maintenance runs lives in the ordinary
        :meth:`stats` under the ``maintenance`` lane.
        """
        def summarize(state: _ModelQueue) -> dict:
            return {
                "runs": state.maintenance_runs,
                "pending": len(state.maintenance),
                "last": state.last_maintenance,
            }

        with self._sched:
            if model_id is not None:
                state = self._queues.get(model_id)
                if state is None:
                    if model_id not in self.registry:
                        raise ValueError(f"unknown model id {model_id!r}")
                    return {"runs": 0, "pending": 0, "last": None}
                return summarize(state)
            return {
                mid: summarize(state) for mid, state in self._queues.items()
            }
