"""Deletion serving: the online half of the capture → compile → serve stack.

PrIU's premise is that deletion requests arrive *after* training, in a
long-lived serving process.  This package supplies that process:

* :class:`ModelRegistry` / :class:`FleetServer` — the serving engine:
  checkpoints registered by model id, loaded on first request and
  LRU-evicted past a resident-model cap, served through per-model
  lane-aware queues by a shared bounded worker pool that answers each
  coalesced batch with one
  :meth:`~repro.core.api.IncrementalTrainer.remove_many` call.  In
  commit mode each batch is *applied* in admission order (store
  compaction + incremental plan refresh) instead of answered as a
  stateless counterfactual (:mod:`repro.serving.fleet`);
* :class:`DeletionServer` — ``submit(ids) -> Future`` for one trainer:
  a facade over a one-model, one-worker :class:`FleetServer`;
* :class:`ShardRouter` — the cross-process tier: model ids consistent-
  hashed across N shard worker processes (each running its own fleet
  over a shard-local registry; every shard maps a plan ``MAP_SHARED``
  read-only, so the page cache holds one copy), with shard-granularity
  retry/failover (:class:`ShardUnavailableError`) and cross-shard stats
  merged from raw-sample :class:`StatsFrame`\\ s — percentiles are
  computed over the pooled requests, never averaged
  (:mod:`repro.serving.router`);
* :class:`AdmissionPolicy` / :class:`Lane` — the latency-budget /
  max-batch / backpressure knobs governing coalescing, plus the SLA
  lanes (a zero-delay ``deadline`` lane pre-empts coalescing; ``bulk``
  traffic rides the batching budget; a lowest-priority ``maintenance``
  lane carries background plan maintenance);
* :class:`ServedOutcome` — updated weights plus per-request
  wait/service/latency timings and batch coordinates;
* :class:`ServingStats` / :class:`LaneStats` — lifetime counters and
  latency distributions, fleet-wide, per model and per lane (via
  :mod:`repro.eval.timing`);
* :class:`Clock` / :class:`MonotonicClock` — the injectable time source
  every deadline decision runs on, so tests can drive the whole serving
  layer with a fake clock and zero real sleeps;
* :mod:`~repro.serving.errors` — the typed failure taxonomy:
  :class:`BackpressureError` (queue full), :class:`WorkerCrashedError`
  (a worker thread died; queued futures fail instead of wedging),
  :class:`ModelLoadError` / :class:`ModelQuarantinedError` (the fleet's
  per-model retry + circuit-breaker state, tuned via
  :class:`RetryPolicy`) and the re-exported
  :class:`~repro.core.serialization.CheckpointCorruptionError`.

Pair with :meth:`~repro.core.api.IncrementalTrainer.from_checkpoint` to
stand a server up from a saved store + compiled plan without re-running
capture (see ``examples/deletion_server.py`` and
``examples/fleet_server.py``).
"""

from .clock import Clock, MonotonicClock
from .errors import (
    BackpressureError,
    CheckpointCorruptionError,
    ModelLoadError,
    ModelQuarantinedError,
    ServerClosedError,
    ServerStateError,
    ServingError,
    ShardUnavailableError,
    WorkerCrashedError,
)
from .fleet import FleetServer, ModelRegistry, RetryPolicy, SaveOutcome
from .policy import (
    DEFAULT_LANES,
    MAINTENANCE_PRIORITY,
    AdmissionPolicy,
    Lane,
)
from .router import ShardRouter
from .server import DeletionServer, ServedOutcome
from .stats import (
    LaneFrame,
    LaneStats,
    ServingStats,
    StatsFrame,
    StatsRecorder,
)

__all__ = [
    "AdmissionPolicy",
    "BackpressureError",
    "CheckpointCorruptionError",
    "Clock",
    "DEFAULT_LANES",
    "MAINTENANCE_PRIORITY",
    "DeletionServer",
    "FleetServer",
    "Lane",
    "LaneFrame",
    "LaneStats",
    "ModelLoadError",
    "ModelQuarantinedError",
    "ServerClosedError",
    "ServerStateError",
    "ModelRegistry",
    "MonotonicClock",
    "RetryPolicy",
    "SaveOutcome",
    "ServedOutcome",
    "ServingError",
    "ServingStats",
    "ShardRouter",
    "ShardUnavailableError",
    "StatsFrame",
    "StatsRecorder",
    "WorkerCrashedError",
]
