"""Plan maintenance: bounded compiled state under commit churn.

Every committed deletion leaves a little state behind that correctness
does not require but nothing used to reclaim:

* ``ProvenanceStore.compact`` appends *exact* rank-Δ correction columns to
  truncated-SVD summaries (re-truncating eagerly would perturb in-flight
  answers), so factor widths grow monotonically with commit count;
* ``ReplayPlan.refresh`` drops multinomial softmax rows *logically* — the
  ``(H, q)`` flats keep their physical size and a logical→physical
  ``_slot_map`` grows instead, so dead rows accumulate behind the map;
  it also drops the fused kernel blocks a commit dirties, so their
  spans replay on the scalar loops until re-truncation regroups them;
* PrIU-opt's offline eigendecompositions go stale on every commit (the
  gram/moment state is downdated exactly, the eigen state lazily).

Left alone, a long-lived GDPR-serving process degrades toward
recompile-from-scratch memory and cost.  This module makes reclamation a
first-class lifecycle stage:

* :class:`MaintenanceCost` — the accounting object threaded through
  :class:`~repro.core.provenance_store.ProvenanceStore`,
  :class:`~repro.core.replay_plan.ReplayPlan` and the PrIU-opt updaters:
  slot-map garbage rows, SVD correction-column widths, stale-eigen flags
  and the resident byte footprint, snapshotted by
  :meth:`~repro.core.api.IncrementalTrainer.maintenance_cost`;
* :class:`MaintenancePolicy` — configurable thresholds deciding which
  maintenance tasks are *due* for a given cost (the fleet evaluates it
  after every committed batch; ``MaintenancePolicy()`` treats any garbage
  as due, which is what an explicit ``trainer.maintain()`` call wants);
* :class:`MaintenanceReport` — the receipt of one
  :meth:`~repro.core.api.IncrementalTrainer.maintain` call: what ran,
  the exact-vs-retruncated error bound, bytes and columns reclaimed,
  and the cost before/after.

The answer contract survives maintenance: re-packing and eigen refresh
are exact, and the default ε-re-truncation drops only the numerically
zero tail (see :func:`~repro.linalg.svd.retruncate_summary`), so
committed-query(T) == original-query(committed ∪ T) keeps holding at
atol 1e-10 through any interleaving of commits and maintenance
(property-tested in ``tests/core/test_maintenance.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Task names a :class:`MaintenancePolicy` may mark due.
MAINTENANCE_TASKS = ("svd", "repack", "eigen")


@dataclass(frozen=True)
class MaintenanceCost:
    """How much reclaimable garbage one trainer's compiled state carries.

    ``slot_*`` describe the multinomial plan flats (physical rows held vs
    rows reachable through the slot map); ``svd_*`` count the correction
    columns commits appended to truncated-SVD summaries since the last
    re-truncation; ``stale_eigen`` counts deferred PrIU-opt
    eigendecompositions (frozen logistic state and/or the linear
    updater).  ``plan_nbytes``/``store_nbytes`` are the current resident
    footprints the garbage inflates.
    """

    slot_garbage_rows: int = 0
    slot_physical_rows: int = 0
    svd_correction_columns: int = 0
    svd_max_correction_columns: int = 0
    svd_widened_summaries: int = 0
    stale_eigen: int = 0
    plan_nbytes: int = 0
    store_nbytes: int = 0

    @property
    def slot_garbage_fraction(self) -> float:
        """Dead fraction of the multinomial flats (0.0 when no slot map)."""
        if self.slot_physical_rows == 0:
            return 0.0
        return self.slot_garbage_rows / self.slot_physical_rows

    @property
    def clean(self) -> bool:
        """True when there is nothing for :meth:`maintain` to reclaim."""
        return (
            self.slot_garbage_rows == 0
            and self.svd_correction_columns == 0
            and self.stale_eigen == 0
        )

    def as_dict(self) -> dict:
        """JSON-serializable form (registry ``describe()``, benchmarks)."""
        return {
            "slot_garbage_rows": self.slot_garbage_rows,
            "slot_physical_rows": self.slot_physical_rows,
            "slot_garbage_fraction": self.slot_garbage_fraction,
            "svd_correction_columns": self.svd_correction_columns,
            "svd_max_correction_columns": self.svd_max_correction_columns,
            "svd_widened_summaries": self.svd_widened_summaries,
            "stale_eigen": self.stale_eigen,
            "plan_nbytes": self.plan_nbytes,
            "store_nbytes": self.store_nbytes,
        }


@dataclass(frozen=True)
class MaintenancePolicy:
    """When is each maintenance task worth running?

    The default thresholds are all zero: *any* reclaimable garbage makes
    the task due, which is the behaviour an explicit
    :meth:`~repro.core.api.IncrementalTrainer.maintain` call wants.  A
    background scheduler (``FleetServer(maintenance=...)``) raises them so
    maintenance amortizes over many commits instead of chasing every one.

    ``svd_epsilon`` is forwarded to
    :func:`~repro.linalg.svd.retruncate_summary`: ``None`` (default)
    re-truncates to the numerical rank only — exact, answer-preserving —
    while an explicit ε applies the paper's lossy tail-ratio criterion
    with the error bound surfaced in the report.

    ``eigen_correction_limit`` forwards to the lazy PrIU-opt refresh: when
    the commits deferred since the last refresh removed at most this many
    (weighted) rows, the refresh corrects the frozen eigen*values* through
    the existing incremental machinery (Eq. 18 — ``O(Δn·m²)``, same
    approximation family as per-request updates) instead of paying the
    full ``O(m³)`` re-eigendecomposition.  The default 0 always
    recomputes exactly.

    ``svd_incremental`` lets re-truncation fold few appended correction
    columns into the existing orthogonal factors
    (:func:`~repro.linalg.svd.retruncate_summary` with ``appended``)
    instead of re-running thin-QR over the whole width — the crossover
    is :func:`~repro.linalg.svd.incremental_retruncation_wins`, answers
    are preserved to machine precision either way.  ``False`` forces the
    full path (diagnostics / A-B timing).
    """

    max_slot_garbage_rows: int = 0
    max_slot_garbage_fraction: float = 0.0
    max_svd_correction_columns: int = 0
    refresh_stale_eigen: bool = True
    svd_epsilon: float | None = None
    eigen_correction_limit: int = 0
    svd_incremental: bool = True

    def __post_init__(self) -> None:
        if self.max_slot_garbage_rows < 0:
            raise ValueError("max_slot_garbage_rows must be >= 0")
        if not 0.0 <= self.max_slot_garbage_fraction <= 1.0:
            raise ValueError("max_slot_garbage_fraction must be in [0, 1]")
        if self.max_svd_correction_columns < 0:
            raise ValueError("max_svd_correction_columns must be >= 0")
        if self.svd_epsilon is not None and self.svd_epsilon < 0.0:
            raise ValueError("svd_epsilon must be >= 0 (or None)")
        if self.eigen_correction_limit < 0:
            raise ValueError("eigen_correction_limit must be >= 0")

    def due(self, cost: MaintenanceCost) -> tuple[str, ...]:
        """Which of :data:`MAINTENANCE_TASKS` the thresholds mark due."""
        due: list[str] = []
        if cost.svd_correction_columns > 0 and (
            cost.svd_max_correction_columns > self.max_svd_correction_columns
        ):
            due.append("svd")
        if cost.slot_garbage_rows > self.max_slot_garbage_rows and (
            cost.slot_garbage_fraction > self.max_slot_garbage_fraction
        ):
            due.append("repack")
        if self.refresh_stale_eigen and cost.stale_eigen > 0:
            due.append("eigen")
        return tuple(due)


@dataclass
class MaintenanceReport:
    """Receipt of one :meth:`~repro.core.api.IncrementalTrainer.maintain`.

    ``performed`` names the tasks that actually ran; each task's receipt
    dict carries what it reclaimed (``svd``: summaries re-truncated,
    columns dropped, worst ``error_bound``; ``repack``: garbage rows and
    bytes freed; ``eigen``: which decompositions refreshed and how).
    ``cost_before``/``cost_after`` bracket the run so a scheduler can
    verify the thresholds were actually discharged.
    """

    performed: tuple[str, ...]
    cost_before: MaintenanceCost
    cost_after: MaintenanceCost
    svd: dict | None = None
    repack: dict | None = None
    eigen: dict | None = None
    seconds: float = 0.0

    def as_dict(self) -> dict:
        return {
            "performed": list(self.performed),
            "svd": self.svd,
            "repack": self.repack,
            "eigen": self.eigen,
            "seconds": self.seconds,
            "cost_before": self.cost_before.as_dict(),
            "cost_after": self.cost_after.as_dict(),
        }
