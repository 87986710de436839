"""The cost model: estimate each removal, log each commit against it.

A cheap upfront estimate prices each removal request before it runs,
and the estimate is held accountable by predicted-vs-actual tests and
the ``BENCH_costmodel.json`` CI gate.

The estimator is deliberately *free*: a removal set's footprint is read
off the packed occurrence index
(:meth:`~repro.core.provenance_store.PackedOccurrenceIndex.lookup`,
two ``np.searchsorted`` range counts plus a gather) — no replay, no
copy.  From those counts a :class:`CostEstimate` predicts

* **touched iterations** (and the fraction of the schedule they cover),
* **plan-patch bytes** — what the commit will rewrite in the layout the
  plan replays from: the store's per-sample columns and the touched
  moments (the formula of
  :meth:`~repro.core.replay_plan.ReplayPlan.predict_patch_bytes`, which
  the :meth:`~repro.core.replay_plan.ReplayPlan.refresh` receipt also
  evaluates, so predicted-vs-actual comparisons measure the estimate's
  inputs, not drift between two formulas), and
* **SVD width growth** — correction columns a commit would append to
  truncated summaries.

The model estimates and logs; it decides nothing.  Commits always
refresh the compiled plan in place and admission follows the lane
budgets alone, so attaching a :class:`CostModel` never changes how a
request is served.  What it adds is accountability: an attached model
logs each commit's estimate against its executed receipt
(:meth:`CostModel.observe_commit`), and the serving layer attaches each
batch's estimate to its answers (``ServedOutcome.predicted``).
"""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass

import numpy as np

from .provenance_store import normalize_removed_indices

#: Decisions kept in the per-model predicted-vs-actual log (ring buffer;
#: the benchmark drains it into ``BENCH_costmodel.json``).
MAX_DECISIONS = 512


def _columns_per_occurrence(store) -> int:
    """Correction columns a commit appends per removed occurrence: one,
    or ``q − 1`` for a multinomial store (its per-sample Hessian
    ``Λ_i`` has rank ``q − 1``)."""
    if store.task == "multinomial_logistic":
        return store.n_classes - 1
    return 1


@dataclass(frozen=True)
class CostEstimate:
    """What one removal set is predicted to cost, before any replay.

    Every field is a *structural* prediction read off the packed
    occurrence index — for a consistent store it is exact, and the test
    harness keeps it honest against the executed patch.  ``mode`` is
    what the commit will do: ``"refresh"``, the one way a commit catches
    the compiled plan up.
    """

    n_removed: int
    touched_iterations: int
    touched_fraction: float
    touched_occurrences: int
    plan_patch_bytes: int
    svd_width_growth: int
    mode: str  # "refresh"

    def as_dict(self) -> dict:
        """JSON-serializable form (``ServedOutcome.predicted``, benchmarks)."""
        return dataclasses.asdict(self)


class CostModel:
    """A removal-cost estimator plus its predicted-vs-actual log.

    Thread-safe: the serving layer calls :meth:`observe_commit` from
    worker threads while submitters read estimates.  Attach one per
    trainer (``trainer.cost_model``).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._decisions: list[dict] = []  # guarded-by: _lock

    # ------------------------------------------------------------- reading
    def decisions(self) -> list[dict]:
        """The predicted-vs-actual log, oldest first (bounded ring)."""
        with self._lock:
            return list(self._decisions)

    # ---------------------------------------------------------- estimating
    def estimate(self, trainer, removed) -> CostEstimate:
        """Predict one removal set's cost from the packed occurrence index.

        ``trainer`` is a fitted
        :class:`~repro.core.api.IncrementalTrainer`; ``removed`` ids are
        in its *current* (post-commit) id space.  No replay runs: the
        footprint is two searchsorted range counts and a gather.
        """
        store = trainer.store
        plan = trainer._plan
        removed = normalize_removed_indices(removed)
        index = store.packed_index()
        _, iterations, _ = index.lookup(removed)
        occurrences = int(iterations.size)
        touched = int(np.unique(iterations).size) if occurrences else 0
        n_iterations = len(store.records)
        fraction = touched / n_iterations if n_iterations else 0.0
        return CostEstimate(
            n_removed=int(removed.size),
            touched_iterations=touched,
            touched_fraction=float(fraction),
            touched_occurrences=occurrences,
            plan_patch_bytes=plan.predict_patch_bytes(occurrences, touched),
            svd_width_growth=(
                occurrences * _columns_per_occurrence(store)
                if store.compression == "svd"
                else 0
            ),
            mode="refresh",
        )

    # ------------------------------------------------------------- logging
    def observe_commit(self, estimate: CostEstimate | None, receipt: dict) -> None:
        """Log one commit receipt against its pre-commit estimate.

        ``receipt`` is the dict :meth:`IncrementalTrainer.commit`
        returns (``mode``/``fraction`` plus the timed
        ``plan_sync_seconds`` and the executed ``patched_bytes``).  The
        matching ``estimate`` (may be None for untracked commits) lands
        next to it in the decision ring; no coefficient is fitted.
        """
        decision = {
            "actual_mode": receipt.get("mode"),
            "actual_fraction": float(receipt.get("fraction", 0.0)),
            "actual_seconds": float(receipt.get("plan_sync_seconds", 0.0)),
            "actual_patched_bytes": receipt.get("patched_bytes"),
            "predicted": None if estimate is None else estimate.as_dict(),
        }
        with self._lock:
            self._decisions.append(decision)
            if len(self._decisions) > MAX_DECISIONS:
                del self._decisions[: -MAX_DECISIONS]

    # ----------------------------------------------------------- reporting
    def report(self) -> dict:
        """The decision log, JSON-ready (``BENCH_costmodel``)."""
        with self._lock:
            return {"decisions": list(self._decisions)}
