"""repro — a full reproduction of PrIU (Wu, Tannen & Davidson, SIGMOD 2020).

PrIU treats trained regression models as materialized views over their
training data and uses provenance-semiring machinery, extended to linear
algebra, to *incrementally delete* training samples: the post-deletion model
is produced without retraining, up to two orders of magnitude faster, while
matching the retrained model's accuracy.

Public entry points
-------------------
:class:`repro.IncrementalTrainer`
    Train once with provenance capture; delete subsets many times
    (checkpoint round-trip via ``save_checkpoint``/``from_checkpoint``).
:class:`repro.DeletionServer` / :class:`repro.AdmissionPolicy`
    The serving layer: an admission-batched request queue over the
    compiled replay engine (:mod:`repro.serving`), with SLA lanes.
:class:`repro.FleetServer` / :class:`repro.ModelRegistry`
    The multi-model tier: many checkpoints behind one shared worker
    pool, loaded lazily and LRU-evicted past a resident-model cap.
:class:`repro.ShardRouter`
    The cross-process tier: model ids consistent-hashed across N shard
    worker processes (each a fleet of its own), sharing one read-only
    plan mapping, with shard-granularity failover and mergeable stats.
:class:`repro.CostModel` / :class:`repro.CostEstimate`
    The per-request cost estimator: predicts a removal's footprint
    from the packed occurrence index and logs each commit against its
    estimate.
:mod:`repro.provenance`
    The provenance-polynomial semiring and annotated-matrix algebra.
:mod:`repro.models`
    GBM training, closed-form and influence-function baselines.
:mod:`repro.datasets`
    Synthetic analogues of the paper's six evaluation datasets.
:mod:`repro.eval`
    The paper's accuracy / distance / similarity metrics, plus timing.
"""

from .core.api import IncrementalTrainer, UpdateOutcome
from .core.costmodel import CostEstimate, CostModel
from .core.maintenance import (
    MaintenanceCost,
    MaintenancePolicy,
    MaintenanceReport,
)
from .serving import (
    AdmissionPolicy,
    DeletionServer,
    FleetServer,
    Lane,
    ModelRegistry,
    ShardRouter,
)

__version__ = "1.5.0"

__all__ = [
    "AdmissionPolicy",
    "CostEstimate",
    "CostModel",
    "DeletionServer",
    "FleetServer",
    "IncrementalTrainer",
    "Lane",
    "MaintenanceCost",
    "MaintenancePolicy",
    "MaintenanceReport",
    "ModelRegistry",
    "ShardRouter",
    "UpdateOutcome",
    "__version__",
]
