"""Cost-model-driven scheduling: estimate, then admit.

A cheap upfront estimate prices each removal request before it runs,
and the estimate is held accountable by predicted-vs-actual tests and
the ``BENCH_costmodel.json`` CI gate.

The estimator is deliberately *free*: a removal set's footprint is read
off the packed occurrence index
(:meth:`~repro.core.provenance_store.PackedOccurrenceIndex.lookup`,
two ``np.searchsorted`` range counts plus a gather) — no replay, no
copy.  From those counts a :class:`CostEstimate` predicts

* **touched iterations** (and the fraction of the schedule they cover),
* **plan-patch bytes** — what the commit's
  :meth:`~repro.core.replay_plan.ReplayPlan.refresh` will rewrite
  (mirrored exactly by :meth:`ReplayPlan.predict_patch_bytes`, so
  predicted-vs-actual comparisons measure the estimate's inputs, not
  drift between two formulas), and
* **SVD width growth** — correction columns a commit would append to
  truncated summaries.

Commits always refresh the compiled plan in place, so the commit path
has nothing to decide; an attached model logs each commit's estimate
against its executed receipt (:meth:`CostModel.observe_commit`).

Decision points wired to the model:

* :class:`~repro.serving.policy.AdmissionPolicy` closes a coalescing
  batch early once the remaining budget exceeds the predicted marginal
  batching saving (:meth:`CostModel.should_close`).  Closing early only
  re-partitions batches; committed answers depend on admission order
  alone, so this never changes an answer.
* :meth:`CostModel.kernel_block_size` vetoes replay-kernel fusion once
  measured per-iteration timings show the fused path is not faster.

Every timing coefficient of a fresh :class:`Calibration` is *unknown*
(``0.0``), and an unknown coefficient turns off the decision that reads
it — no early closing, no fusion veto — so attaching a fresh
:class:`CostModel` changes no decision until timings arrive.
"""

from __future__ import annotations

import dataclasses
import json
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .provenance_store import normalize_removed_indices

#: Decisions kept in the per-model predicted-vs-actual log (ring buffer;
#: the benchmark drains it into ``BENCH_costmodel.json``).
MAX_DECISIONS = 512


@dataclass(frozen=True)
class CostEstimate:
    """What one removal set is predicted to cost, before any replay.

    Every field is a *structural* prediction read off the packed
    occurrence index — for a consistent store it is exact, and the test
    harness keeps it honest against the executed patch.  ``mode`` is
    what the commit will do: ``"refresh"`` for a compiled plan,
    ``"unsupported"`` where none exists (sparse multinomial).
    """

    n_removed: int
    touched_iterations: int
    touched_fraction: float
    touched_occurrences: int
    plan_patch_bytes: int
    svd_width_growth: int
    mode: str  # "refresh" | "unsupported"

    def as_dict(self) -> dict:
        """JSON-serializable form (``ServedOutcome.predicted``, benchmarks)."""
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class Calibration:
    """The fitted coefficients a :class:`CostModel` predicts with.

    ``batch_seconds`` is the predicted wall-clock of one dispatched
    batch (the admission layer's early-closing signal); ``0.0`` means
    *unknown* and disables early closing rather than degenerating to
    no coalescing at all.  The defaults are all unknown, so an
    uncalibrated model changes nothing.
    """

    batch_seconds: float = 0.0
    #: Measured per-iteration replay cost on the fused (blocked-kernel)
    #: and scalar paths; ``0.0`` means unknown.  Fed by
    #: :meth:`CostModel.observe_replay` and ``BENCH_kernel.json``'s
    #: ``kernel_sweep`` rows; consulted by
    #: :meth:`CostModel.kernel_block_size`.
    fused_iteration_seconds: float = 0.0
    scalar_iteration_seconds: float = 0.0
    source: str = "default"
    n_observations: int = 0

    def __post_init__(self) -> None:
        if self.batch_seconds < 0.0:
            raise ValueError("batch_seconds must be >= 0")
        if self.fused_iteration_seconds < 0.0:
            raise ValueError("fused_iteration_seconds must be >= 0")
        if self.scalar_iteration_seconds < 0.0:
            raise ValueError("scalar_iteration_seconds must be >= 0")

    def kernel_speedup(self) -> float:
        """Measured scalar/fused per-iteration ratio (0.0 = uncalibrated)."""
        if (
            self.fused_iteration_seconds <= 0.0
            or self.scalar_iteration_seconds <= 0.0
        ):
            return 0.0
        return self.scalar_iteration_seconds / self.fused_iteration_seconds

    @classmethod
    def from_bench(cls, source) -> "Calibration":
        """Fit from a recorded ``BENCH_kernel.json`` run (path or dict).

        Each ``kernel_sweep`` row carries the measured per-iteration
        replay cost on the fused (``blocked_seconds_per_iteration``) and
        scalar (``scalar_seconds_per_iteration``) paths; the fit is the
        median of each — robust to the warm-up outliers benchmark runs
        carry.  Rows that cannot inform a coefficient are skipped; with
        no usable rows the defaults are kept (and ``n_observations``
        says so).

        This can never fail: a missing file, an empty or truncated JSON
        body, or a payload without a usable ``kernel_sweep`` table all
        fall back to the inert uncalibrated defaults with a ``source``
        label recording why — a fresh deployment attaches its cost model
        *before* its first benchmark run exists, and "no calibration
        yet" must not take serving down.
        """
        label = "dict"
        if isinstance(source, (str, Path)):
            label = str(source)
            try:
                with open(source) as handle:
                    source = json.load(handle)
            except (OSError, json.JSONDecodeError) as exc:
                return cls(source=f"{label} (unreadable: {exc}; defaults)")
        if not isinstance(source, dict):
            return cls(source=f"{label} (not a mapping; defaults)")
        sweep = source.get("kernel_sweep", [])
        if not isinstance(sweep, list):
            sweep = []
        fused_times: list[float] = []
        scalar_times: list[float] = []
        for row in sweep:
            if not isinstance(row, dict):
                continue
            try:
                fused = float(row.get("blocked_seconds_per_iteration", 0.0))
                scalar = float(row.get("scalar_seconds_per_iteration", 0.0))
            except (TypeError, ValueError):
                # A partial row (interrupted benchmark write) informs
                # nothing; skip it rather than fail the attach.
                continue
            if fused > 0.0:
                fused_times.append(fused)
            if scalar > 0.0:
                scalar_times.append(scalar)
        return cls(
            fused_iteration_seconds=(
                float(np.median(fused_times)) if fused_times else 0.0
            ),
            scalar_iteration_seconds=(
                float(np.median(scalar_times)) if scalar_times else 0.0
            ),
            source=label,
            n_observations=len(fused_times) + len(scalar_times),
        )

    def as_dict(self) -> dict:
        return {
            "batch_seconds": self.batch_seconds,
            "fused_iteration_seconds": self.fused_iteration_seconds,
            "scalar_iteration_seconds": self.scalar_iteration_seconds,
            "kernel_speedup": self.kernel_speedup(),
            "source": self.source,
            "n_observations": self.n_observations,
        }


class CostModel:
    """A calibrated estimator plus its online-refresh and decision log.

    Thread-safe: the serving layer calls :meth:`observe_batch` /
    :meth:`observe_commit` from worker threads while submitters read
    estimates.  Attach one per trainer (``trainer.cost_model``) and/or
    to an :class:`~repro.serving.policy.AdmissionPolicy`
    (``cost_model=``); a model shared across both sees commit *and*
    batch timings and calibrates faster.
    """

    def __init__(
        self, calibration: Calibration | None = None, ewma: float = 0.3
    ) -> None:
        if not 0.0 < ewma <= 1.0:
            raise ValueError("ewma must be in (0, 1]")
        self._calibration = (  # guarded-by: _lock
            calibration if calibration is not None else Calibration()
        )
        self._ewma = float(ewma)
        self._lock = threading.Lock()
        self._decisions: list[dict] = []  # guarded-by: _lock

    # ------------------------------------------------------------- reading
    @property
    def calibration(self) -> Calibration:
        with self._lock:
            return self._calibration

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
                occurrences if store.compression == "svd" else 0
            ),
            mode="refresh" if plan.supported else "unsupported",
        )

    # ---------------------------------------------------------- admission
    def predicted_batch_saving(self, n_collected: int) -> float:
        """Seconds one more straggler could save by riding this batch.

        The most a request saves by coalescing is one batch's predicted
        service time (the cost of the batch it would otherwise form),
        amortized over the members already waiting for it — so the
        marginal value of waiting shrinks as the batch grows.  ``0.0``
        while the batch time is uncalibrated.
        """
        batch_seconds = self.calibration.batch_seconds
        if batch_seconds <= 0.0 or n_collected < 1:
            return 0.0
        return batch_seconds / n_collected

    def should_close(self, n_collected: int, remaining_budget: float) -> bool:
        """True when waiting out the budget costs more than batching saves.

        The admission layer's early-closing rule: once the remaining
        coalescing budget exceeds the predicted marginal saving of one
        more arrival, every queued member pays more latency than a
        straggler could recoup — dispatch now.  Strictly one-directional
        (it can only close a batch *earlier* than the lane budget
        would), so SLA lane semantics are untouched and the decision is
        answer-preserving.  Always False while uncalibrated.
        """
        saving = self.predicted_batch_saving(n_collected)
        if saving <= 0.0:
            return False
        return remaining_budget > saving

    # ------------------------------------------------------------- kernel
    def kernel_block_size(self, requested: int | None = None) -> int | None:
        """Resolve the replay-kernel block size through the calibration.

        ``requested`` is the caller's configured size (``None`` = the
        module default).  The model only ever *vetoes* fusion: when both
        per-iteration timings have been measured
        (:meth:`observe_replay` / ``kernel_sweep`` rows) and the fused
        path is not actually faster, it returns 0 (scalar engine);
        otherwise the request passes through untouched.  Uncalibrated
        models therefore change nothing — the same inertness contract as
        every other decision point here.
        """
        calibration = self.calibration
        speedup = calibration.kernel_speedup()
        if speedup > 0.0 and speedup <= 1.0:
            return 0
        return requested

    def observe_replay(
        self, fused_iterations: int, scalar_iterations: int, seconds: float
    ) -> None:
        """Online-refresh the per-iteration replay costs from one dispatch.

        Only *pure* runs teach a coefficient (all iterations fused, or
        all scalar) — a mixed run cannot attribute its wall clock to
        either path.  Every observation lands in the decision ring
        (``kind: "replay"``) so ``BENCH_costmodel`` inspects the fused
        share actually served.
        """
        fused = int(fused_iterations)
        scalar = int(scalar_iterations)
        total = fused + scalar
        if total <= 0 or seconds < 0.0:
            return
        with self._lock:
            calibration = self._calibration
            updates: dict = {}
            if seconds > 0.0 and scalar == 0:
                previous = calibration.fused_iteration_seconds
                observed = seconds / fused
                updates["fused_iteration_seconds"] = (
                    observed if previous <= 0.0
                    else self._blend(previous, observed)
                )
            elif seconds > 0.0 and fused == 0:
                previous = calibration.scalar_iteration_seconds
                observed = seconds / scalar
                updates["scalar_iteration_seconds"] = (
                    observed if previous <= 0.0
                    else self._blend(previous, observed)
                )
            if updates:
                updates["source"] = "online"
                updates["n_observations"] = calibration.n_observations + 1
                self._calibration = dataclasses.replace(
                    calibration, **updates
                )
            self._decisions.append({
                "kind": "replay",
                "actual_mode": "replay",
                "fused_iterations": fused,
                "scalar_iterations": scalar,
                "actual_seconds": float(seconds),
                "predicted": None,
            })
            if len(self._decisions) > MAX_DECISIONS:
                del self._decisions[: -MAX_DECISIONS]

    # ------------------------------------------------------------ learning
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

    def observe_batch(self, batch_size: int, seconds: float) -> None:
        """Online-refresh the batch-time coefficient from one dispatch."""
        if batch_size < 1 or seconds < 0.0:
            return
        with self._lock:
            calibration = self._calibration
            previous = calibration.batch_seconds
            blended = (
                seconds if previous <= 0.0 else self._blend(previous, seconds)
            )
            self._calibration = dataclasses.replace(
                calibration,
                batch_seconds=blended,
                source="online",
                n_observations=calibration.n_observations + 1,
            )

    def _blend(self, previous: float, observed: float) -> float:
        return (1.0 - self._ewma) * previous + self._ewma * observed

    # ----------------------------------------------------------- reporting
    def report(self) -> dict:
        """Calibration + decision log, JSON-ready (``BENCH_costmodel``)."""
        with self._lock:
            return {
                "calibration": self._calibration.as_dict(),
                "decisions": list(self._decisions),
            }
