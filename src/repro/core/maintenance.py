"""Plan maintenance: bounded compiled state under commit churn.

Every committed deletion leaves a little state behind that correctness
does not require but nothing used to reclaim:

* ``ProvenanceStore.compact`` appends *exact* correction columns to
  truncated-SVD summaries — one per removed occurrence, ``q − 1`` per
  multinomial sample — into spare buffer capacity (re-truncating eagerly
  would perturb in-flight answers), so factor widths grow monotonically
  with commit count.  The pass folds them into each summary's retained
  orthonormal basis (:func:`~repro.linalg.svd.retruncate_summary`).
  A fold that preserves answers (``svd_epsilon=None``) cannot shrink a
  summary below its operator's rank, which is at most the store's bound
  ``k·min(m, B)`` (``k = q − 1`` on a multinomial store, else 1; see
  :meth:`~repro.core.provenance_store.ProvenanceStore.svd_rank_bound`),
  so only the columns past that bound count as reclaimable *excess*;
* PrIU-opt's offline eigendecompositions go stale on every commit (the
  gram/moment state is downdated exactly, the eigen state lazily).

Left alone, a long-lived GDPR-serving process degrades toward
recompile-from-scratch memory and cost.  This module makes reclamation a
first-class lifecycle stage:

* :class:`MaintenanceCost` — the accounting object threaded through
  :class:`~repro.core.provenance_store.ProvenanceStore`,
  :class:`~repro.core.replay_plan.ReplayPlan` and the PrIU-opt updaters:
  SVD correction-column widths and their excess over the rank bound,
  stale-eigen flags and the resident byte footprint, snapshotted by
  :meth:`~repro.core.api.IncrementalTrainer.maintenance_cost`;
* :class:`MaintenancePolicy` — configurable thresholds deciding which
  maintenance tasks are *due* for a given cost (the fleet evaluates it
  after every committed batch; ``MaintenancePolicy()`` treats any garbage
  as due, which is what an explicit ``trainer.maintain()`` call wants);
* :class:`MaintenanceReport` — the receipt of one
  :meth:`~repro.core.api.IncrementalTrainer.maintain` call: what ran,
  the exact-vs-retruncated error bound, bytes and columns reclaimed,
  and the cost before/after.

A commit leaves no dead per-sample rows behind: ``compact`` drops the
erased rows from the store's columns, which the plan reads.

The answer contract survives maintenance: eigen refresh is exact, and the default re-truncation folds only summaries past their
rank bound and drops only the numerically zero tail (see
:func:`~repro.linalg.svd.retruncate_summary`), so
committed-query(T) == original-query(committed ∪ T) keeps holding at
atol 1e-10 through any interleaving of commits and maintenance
(property-tested in ``tests/core/test_maintenance.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Task names a :class:`MaintenancePolicy` may mark due.
MAINTENANCE_TASKS = ("svd", "eigen")


@dataclass(frozen=True)
class MaintenanceCost:
    """How much reclaimable garbage one trainer's compiled state carries.

    ``svd_correction_columns`` /
    ``svd_max_correction_columns`` / ``svd_widened_summaries`` count the
    correction columns commits appended to truncated-SVD summaries since
    their last re-truncation (total, worst record, records); the
    ``svd_*excess_columns`` pair counts only the part of those widths
    past the store's rank bound ``k·min(m, B)``, which is all an
    answer-preserving fold can reclaim (total, worst record);
    ``stale_eigen`` counts deferred PrIU-opt
    eigendecompositions (frozen logistic state and/or the linear
    updater).  ``plan_nbytes``/``store_nbytes`` are the current resident
    footprints the garbage inflates.
    """

    svd_correction_columns: int = 0
    svd_max_correction_columns: int = 0
    svd_widened_summaries: int = 0
    svd_excess_columns: int = 0
    svd_max_excess_columns: int = 0
    stale_eigen: int = 0
    plan_nbytes: int = 0
    store_nbytes: int = 0

    @property
    def clean(self) -> bool:
        """True when a bare :meth:`maintain` has nothing to reclaim
        (widened summaries below their rank bound count as clean)."""
        return self.svd_excess_columns == 0 and self.stale_eigen == 0

    def as_dict(self) -> dict:
        """JSON-serializable form (registry ``describe()``, benchmarks)."""
        return {
            "svd_correction_columns": self.svd_correction_columns,
            "svd_max_correction_columns": self.svd_max_correction_columns,
            "svd_widened_summaries": self.svd_widened_summaries,
            "svd_excess_columns": self.svd_excess_columns,
            "svd_max_excess_columns": self.svd_max_excess_columns,
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
    caller that runs maintenance often (``ModelRegistry.retire(policy=...)``
    on every eviction, say) raises them so maintenance amortizes over many
    commits instead of chasing every one.

    ``svd_epsilon`` is forwarded to
    :func:`~repro.linalg.svd.retruncate_summary`: ``None`` (default)
    re-truncates to the numerical rank only — exact, answer-preserving —
    while an explicit ε applies the paper's lossy tail-ratio criterion
    with the error bound surfaced in the report.  Re-truncation folds the
    appended correction columns into each summary's retained orthonormal
    basis and re-diagonalizes a small symmetric core (one-sided: only
    the right factor is orthogonalized).

    ``max_svd_correction_columns`` gates the ``"svd"`` task on the worst
    record: with ``svd_epsilon=None`` it reads the excess over the rank
    bound (``MaintenanceCost.svd_max_excess_columns``), the only columns
    an exact fold can reclaim, so a store whose widened summaries stay
    below the bound is never due; with an explicit ε it reads the
    appended counts (``svd_max_correction_columns``), since a lossy fold
    can shrink any widened summary.

    ``max_slot_garbage_rows`` and ``max_slot_garbage_fraction`` are
    still validated and gate nothing: they limited the dead rows a
    multinomial slot map left behind, and commits now drop those rows at
    once.  Callers that pass them keep working.
    """

    max_slot_garbage_rows: int = 0
    max_slot_garbage_fraction: float = 0.0
    max_svd_correction_columns: int = 0
    refresh_stale_eigen: bool = True
    svd_epsilon: float | None = None

    def __post_init__(self) -> None:
        if self.max_slot_garbage_rows < 0:
            raise ValueError("max_slot_garbage_rows must be >= 0")
        if not 0.0 <= self.max_slot_garbage_fraction <= 1.0:
            raise ValueError("max_slot_garbage_fraction must be in [0, 1]")
        if self.max_svd_correction_columns < 0:
            raise ValueError("max_svd_correction_columns must be >= 0")
        if self.svd_epsilon is not None and self.svd_epsilon < 0.0:
            raise ValueError("svd_epsilon must be >= 0 (or None)")

    def due(self, cost: MaintenanceCost) -> tuple[str, ...]:
        """Which of :data:`MAINTENANCE_TASKS` the thresholds mark due."""
        due: list[str] = []
        if self.svd_epsilon is None:
            columns = cost.svd_excess_columns
            worst = cost.svd_max_excess_columns
        else:
            columns = cost.svd_correction_columns
            worst = cost.svd_max_correction_columns
        if columns > 0 and worst > self.max_svd_correction_columns:
            due.append("svd")
        if self.refresh_stale_eigen and cost.stale_eigen > 0:
            due.append("eigen")
        return tuple(due)


@dataclass
class MaintenanceReport:
    """Receipt of one :meth:`~repro.core.api.IncrementalTrainer.maintain`.

    ``performed`` names the tasks that actually ran; each task's receipt
    dict carries what it reclaimed (``svd``: summaries re-truncated,
    widened ones left below their rank bound, columns dropped, worst
    ``error_bound``; ``eigen``: which decompositions refreshed and how).
    ``cost_before``/``cost_after`` bracket the run so a scheduler can
    verify the thresholds were actually discharged.
    """

    performed: tuple[str, ...]
    cost_before: MaintenanceCost
    cost_after: MaintenanceCost
    svd: dict | None = None
    eigen: dict | None = None
    seconds: float = 0.0

    def as_dict(self) -> dict:
        return {
            "performed": list(self.performed),
            "svd": self.svd,
            "eigen": self.eigen,
            "seconds": self.seconds,
            "cost_before": self.cost_before.as_dict(),
            "cost_after": self.cost_after.as_dict(),
        }
