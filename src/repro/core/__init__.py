"""PrIU core: provenance capture, incremental updaters, serving facade.

The package is layered bottom-up:

* :mod:`~repro.core.provenance_store` — per-iteration summaries captured
  during training, plus the packed occurrence index removal sets resolve
  against;
* :mod:`~repro.core.capture` — :func:`train_with_capture`, the offline
  phase shadowing a GBM run;
* :mod:`~repro.core.priu` / :mod:`~repro.core.priu_opt` — the reference
  incremental updaters (Sec. 5.1–5.4);
* :mod:`~repro.core.replay_plan` — :class:`ReplayPlan`, the compiled
  structure-of-arrays layout serving K deletion requests per GEMM pass;
* :mod:`~repro.core.serialization` — :func:`save_store`/:func:`load_store`
  and :func:`save_plan`/:func:`load_plan`, the versioned on-disk formats;
* :mod:`~repro.core.maintenance` — the cost accounting / policy / report
  objects behind :meth:`IncrementalTrainer.maintain`, keeping compiled
  state asymptotically tight under commit churn;
* :mod:`~repro.core.costmodel` — :class:`CostEstimate` /
  :class:`CostModel`, the per-request cost estimator and its
  predicted-vs-actual commit log;
* :mod:`~repro.core.api` — :class:`IncrementalTrainer`, the train-once /
  delete-many facade (and its checkpoint path) everything above plugs into.

Most callers only need :class:`IncrementalTrainer`; the rest is exported
for benchmarks, tests and the serving layer (:mod:`repro.serving`).
"""

from .api import IncrementalTrainer, UpdateOutcome
from .diagnostics import (
    UpdateErrorReport,
    convergence_check,
    error_report,
    interpolation_delta,
)
from .serialization import (
    CheckpointCorruptionError,
    load_plan,
    load_store,
    recover_checkpoint,
    save_plan,
    save_store,
)
from .capture import train_with_capture
from .costmodel import CostEstimate, CostModel
from .maintenance import MaintenanceCost, MaintenancePolicy, MaintenanceReport
from .priu import PrIUUpdater
from .priu_opt import (
    PrIUOptLinearUpdater,
    PrIUOptLogisticUpdater,
    refresh_frozen_eigen,
)
from .provenance_store import (
    CommitReceipt,
    FrozenProvenance,
    LinearRecord,
    LogisticRecord,
    MultinomialRecord,
    PackedOccurrenceIndex,
    ProvenanceStore,
    apply_summary,
    normalize_removed_indices,
)
from .replay_plan import ReplayPlan

__all__ = [
    "CheckpointCorruptionError",
    "CommitReceipt",
    "CostEstimate",
    "CostModel",
    "recover_checkpoint",
    "FrozenProvenance",
    "MaintenanceCost",
    "MaintenancePolicy",
    "MaintenanceReport",
    "refresh_frozen_eigen",
    "PackedOccurrenceIndex",
    "ReplayPlan",
    "normalize_removed_indices",
    "UpdateErrorReport",
    "convergence_check",
    "error_report",
    "interpolation_delta",
    "load_plan",
    "load_store",
    "save_plan",
    "save_store",
    "IncrementalTrainer",
    "LinearRecord",
    "LogisticRecord",
    "MultinomialRecord",
    "PrIUOptLinearUpdater",
    "PrIUOptLogisticUpdater",
    "PrIUUpdater",
    "ProvenanceStore",
    "UpdateOutcome",
    "apply_summary",
    "train_with_capture",
]
