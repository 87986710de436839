"""The deletion server: one model behind a request queue.

:class:`DeletionServer` turns :meth:`repro.IncrementalTrainer.remove_many`
— a K-requests-in-hand batch API — into something deletion traffic can
actually hit: callers :meth:`~DeletionServer.submit` one removal set at a
time and get a :class:`concurrent.futures.Future` back immediately.  The
server is a facade over a one-model
:class:`~repro.serving.fleet.FleetServer` with a single worker: queued
requests coalesce under the
:class:`~repro.serving.policy.AdmissionPolicy` (SLA lanes, coalescing
budgets, ``max_batch``, backpressure), each batch is dispatched through
one ``remove_many`` call, and every future resolves with a
:class:`ServedOutcome` carrying the updated weights plus that request's
queueing/service timings.

Request validation happens at submit time, so a malformed removal set
fails its own caller and never poisons a batch; empty sets resolve
inline as no-ops.

By default every answer is a stateless counterfactual against the
original training set.  ``commit_mode=True`` turns the server into a
deletion *pipeline*: each batch runs ``remove_many(..., commit=True)``,
so admitted requests are applied cumulatively in admission order and
the trainer's store, compiled plan and baseline weights adopt the
post-batch state (see ``docs/architecture.md``, "The commit path").

Typical use::

    with DeletionServer(trainer, AdmissionPolicy(max_batch=32)) as server:
        futures = [server.submit(ids) for ids in request_stream]
        outcomes = [f.result() for f in futures]

One worker is deliberate: one batched replay already saturates the BLAS
threads, so a second concurrent ``remove_many`` would fight it for cores
rather than add throughput.  To front *several* models with a shared
(bounded) pool, use :class:`~repro.serving.fleet.FleetServer` directly.
"""

from __future__ import annotations

from concurrent.futures import Future

from .clock import Clock
from .fleet import FleetServer, ModelRegistry, ServedOutcome
from .policy import AdmissionPolicy
from .stats import ServingStats

__all__ = ["DeletionServer", "ServedOutcome"]

# The one model id of the facade's private registry; outcomes carry it.
_MODEL_ID = "default"


class DeletionServer:
    """Admission-batched facade serving deletion requests from a queue.

    Parameters
    ----------
    trainer:
        A fitted :class:`~repro.core.api.IncrementalTrainer` (via
        :meth:`~repro.core.api.IncrementalTrainer.fit` or
        :meth:`~repro.core.api.IncrementalTrainer.from_checkpoint`).
    policy:
        Coalescing/backpressure/lane knobs; defaults to
        :class:`~repro.serving.policy.AdmissionPolicy()`.
    method:
        Forwarded to ``remove_many`` (``None`` = the trainer's default,
        ``"priu"``, ``"priu-opt"`` or ``"priu-seq"``).
    autostart:
        Start the worker thread immediately.  Benchmarks pass ``False``,
        pre-load the queue, then call :meth:`start` for a deterministic
        single-batch dispatch.
    commit_mode:
        Serve *committed* deletions: each dispatched batch runs
        ``remove_many(..., commit=True)``, so requests are applied
        cumulatively in admission order (a request's answer excludes its
        own samples plus everything admitted before it) and the model,
        store and plan adopt the post-batch state.  Removal ids submitted
        after a commit are interpreted — and validated — in the
        *post-commit* id space, which shrinks with every committed batch
        (``trainer.n_samples`` is the live bound).  Requests still queued
        when an earlier batch commits are translated forward through that
        commit automatically: ids it already removed drop out (those
        samples are gone) and survivors shift down, so an id always
        denotes the sample the submitter addressed; ``ServedOutcome.\
removed`` reports the translated set, in the id space its batch executed
        in.  The trainer must not be queried concurrently from outside
        the server while commits are in flight.
    clock:
        The :class:`~repro.serving.clock.Clock` all deadline math and
        latency measurement runs on.  Defaults to real monotonic time;
        tests inject a fake.
    """

    def __init__(
        self,
        trainer,
        policy: AdmissionPolicy | None = None,
        method: str | None = None,
        autostart: bool = True,
        commit_mode: bool = False,
        clock: Clock | None = None,
    ) -> None:
        registry = ModelRegistry()
        registry.register(_MODEL_ID, trainer=trainer)
        self._fleet = FleetServer(
            registry,
            policy,
            method=method,
            n_workers=1,
            commit_mode=commit_mode,
            clock=clock,
            autostart=autostart,
        )
        self.trainer = trainer
        self.policy = self._fleet.policy
        self.method = method
        self.commit_mode = self._fleet.commit_mode

    # ----------------------------------------------------------- lifecycle
    def start(self) -> "DeletionServer":
        """Start the worker thread (idempotent)."""
        self._fleet.start()
        return self

    def close(self, wait: bool = True) -> None:
        """Stop accepting requests; drain the queue, then stop the worker."""
        self._fleet.close(wait=wait)

    def __enter__(self) -> "DeletionServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        # Drain on a clean exit; never block while an exception unwinds.
        self.close(wait=exc_type is None)

    # ---------------------------------------------------------- submission
    def submit(
        self,
        indices,
        block: bool = True,
        timeout: float | None = None,
        lane: str | None = None,
    ) -> Future:
        """Enqueue one removal set; returns a future of :class:`ServedOutcome`.

        Validation (bounds, not-everything, lane name) happens here,
        synchronously, so a bad request raises in its caller instead of
        failing a batch.  ``lane`` names one of the policy's SLA classes
        (default: ``policy.default_lane``).  When the queue is at
        ``max_pending``: ``block=True`` waits (up to ``timeout``),
        ``block=False`` raises :class:`BackpressureError` immediately.
        """
        return self._fleet.submit(
            _MODEL_ID, indices, lane=lane, block=block, timeout=timeout
        )

    def submit_many(self, index_sets, **kwargs) -> list[Future]:
        """Enqueue several removal sets (one future each)."""
        return [self.submit(indices, **kwargs) for indices in index_sets]

    def resolve(self, indices, timeout: float | None = None, **kwargs) -> ServedOutcome:
        """Blocking convenience: submit one request and wait for its answer."""
        return self.submit(indices, **kwargs).result(timeout=timeout)

    # ----------------------------------------------------------- observers
    def flush(self, timeout: float | None = None) -> bool:
        """Block until every submitted request has been answered or failed."""
        return self._fleet.flush(timeout)

    def stats(self) -> ServingStats:
        """Lifetime counters and wait/service/latency distributions."""
        return self._fleet.stats()

    @property
    def pending(self) -> int:
        """Requests submitted but not yet answered."""
        return self._fleet.pending
