"""High-level facade: train once, delete subsets many times.

:class:`IncrementalTrainer` wires the substrates together the way the paper's
evaluation uses them: fit an initial model while capturing provenance
(offline), then answer any number of "what if these samples were removed?"
questions through PrIU / PrIU-opt, or through the baselines (BaseL retraining,
Closed-form, INFL) for comparison.

>>> trainer = IncrementalTrainer("binary_logistic", learning_rate=1e-3,
...                              regularization=0.01, batch_size=64,
...                              n_iterations=200)
>>> trainer.fit(features, labels)
>>> outcome = trainer.remove([3, 17, 256])
>>> outcome.weights  # the model as if those samples were never seen
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..linalg.interpolation import sigmoid_complement_interpolator
from ..linalg.matrix_utils import is_sparse
from ..models.batching import make_schedule
from ..models.closed_form import IncrementalClosedForm
from ..models.influence import InfluenceFunctionUpdater
from ..models.sgd import TrainingResult, train, objective_for
from .capture import train_with_capture
from .costmodel import CostEstimate, CostModel
from .maintenance import MaintenanceCost, MaintenancePolicy, MaintenanceReport
from .priu import PrIUUpdater
from .priu_opt import (
    PrIUOptLinearUpdater,
    PrIUOptLogisticUpdater,
    refresh_frozen_eigen,
)
from .provenance_store import normalize_removed_indices
from .replay_plan import ReplayPlan
from .serialization import (
    PLAN_FILENAME,
    STORE_FILENAME,
    commit_checkpoint,
    load_plan,
    load_store,
    recover_checkpoint,
    save_plan,
    save_store,
    staged_path,
)

TASKS = ("linear", "binary_logistic", "multinomial_logistic")


@dataclass
class UpdateOutcome:
    """Result of one incremental update (or baseline) run.

    ``store_version`` pins the provenance-store state the answer was
    computed against; :meth:`IncrementalTrainer.commit` refuses outcomes
    from before an earlier commit (their id space is stale).
    """

    weights: np.ndarray
    method: str
    seconds: float
    removed: np.ndarray
    store_version: int | None = None


class IncrementalTrainer:
    """Train-once / delete-many facade over PrIU, PrIU-opt and the baselines.

    Update-method semantics (``method=`` of :meth:`remove` /
    :meth:`remove_many`; constructor ``method=`` picks the default):

    ``"priu"``
        The provenance replay (Sec. 5.1/5.3) through the compiled
        :class:`~repro.core.replay_plan.ReplayPlan` — the production hot
        path.  Falls back to the uncompiled updater only where the plan is
        unsupported (sparse multinomial).
    ``"priu-seq"``
        The *uncompiled* per-record reference implementation
        (:class:`~repro.core.priu.PrIUUpdater`), kept for verification and
        benchmarking; numerically it is the same recursion, so plan
        results match it to BLAS reduction-order noise (≲1e-12).
    ``"priu-opt"``
        The small-feature-space optimizations (Sec. 5.2/5.4: closed
        recursion for linear, frozen-provenance eigen tail for logistic).
        An *approximation* controlled by ``epsilon``/``freeze_fraction`` —
        its output legitimately differs from ``"priu"`` within the
        paper's error bounds.  Unavailable for sparse or very wide
        configurations (``opt_feature_limit``).
    ``"auto"`` (constructor only)
        ``"priu-opt"`` whenever it is available, else ``"priu"``.

    Baselines live on their own methods: :meth:`retrain` (BaseL),
    :meth:`closed_form`, :meth:`influence`.  A fitted trainer round-trips
    through :meth:`save_checkpoint` / :meth:`from_checkpoint` so a fresh
    serving process answers without re-running capture.
    """

    def __init__(
        self,
        task: str,
        learning_rate: float,
        regularization: float,
        batch_size: int,
        n_iterations: int,
        n_classes: int | None = None,
        method: str = "auto",
        seed: int = 0,
        epsilon: float = 0.01,
        freeze_fraction: float = 0.7,
        interpolation_intervals: int = 100_000,
        schedule_kind: str = "mb-sgd",
        max_dense_params: int = 2500,
        opt_feature_limit: int = 2500,
        plan_cache_sparse_blocks: bool = True,
        eigen_correction_limit: int = 0,
        kernel_block_size: int | None = None,
        cost_model=None,
        clock=None,
    ) -> None:
        if task not in TASKS:
            raise ValueError(f"task must be one of {TASKS}")
        if method not in ("auto", "priu", "priu-opt"):
            raise ValueError("method must be auto, priu or priu-opt")
        self.task = task
        self.learning_rate = float(learning_rate)
        self.regularization = float(regularization)
        self.batch_size = int(batch_size)
        self.n_iterations = int(n_iterations)
        self.n_classes = n_classes
        self.method = method
        self.seed = int(seed)
        self.epsilon = float(epsilon)
        self.freeze_fraction = float(freeze_fraction)
        self.interpolation_intervals = int(interpolation_intervals)
        self.schedule_kind = schedule_kind
        self.max_dense_params = int(max_dense_params)
        self.opt_feature_limit = int(opt_feature_limit)
        # Memory/time trade for sparse workloads: the plan's pre-sliced CSR
        # batch blocks hold ~τB/n copies of the dataset; disable to re-slice
        # inside the replay loop instead.
        self.plan_cache_sparse_blocks = bool(plan_cache_sparse_blocks)
        # Maintenance: deferred PrIU-opt eigen refreshes covering at most
        # this many removed rows use the incremental eigenvalue correction
        # instead of a full re-eigendecomposition (0 = always exact).
        self.eigen_correction_limit = int(eigen_correction_limit)
        # Replay kernel: iterations fused per block descriptor
        # (repro.core.kernels).  None -> the module default for dense SVD
        # plans, <= 1 -> the bit-identical legacy per-iteration engine.
        # An attached cost model may veto fusion when its calibrated
        # per-iteration timings say the scalar path wins.
        self.kernel_block_size = kernel_block_size
        # Optional repro.core.costmodel.CostModel.  When attached, every
        # commit logs its pre-commit estimate against the executed
        # receipt in the model's predicted-vs-actual decision ring.
        self.cost_model = cost_model
        # Timestamp source for commit audit receipts: anything with a
        # ``now()`` method (e.g. a serving Clock).  None -> wall time.
        self.clock = clock
        self._fitted = False

    def _now(self) -> float:
        """Receipt timestamp from the injected clock (wall time default).

        Commit-mode servers always inject their serving clock at
        construction, so served traffic stamps receipts through
        ``Clock.timestamp()`` (epoch-meaningful on the real clock,
        deterministic on fakes; ``now()`` is the fallback for bare
        ``now()``-only clock objects).  The wall-clock branch below only
        serves *standalone* trainers — no serving layer, no clock to
        inject — and core deliberately does not import serving to
        default one.
        """
        if self.clock is not None:
            stamp = getattr(self.clock, "timestamp", self.clock.now)
            return float(stamp())
        return time.time()  # reprolint: allow[R001] receipt stamping for clock-less standalone trainers; commit-mode servers always inject their Clock

    def _plan_block_size(self) -> int | None:
        """Replay-kernel block size after the cost model's veto.

        The configured ``kernel_block_size`` is the request; an attached
        cost model that has *measured* the blocked path losing to the
        scalar one (``observe_replay`` calibration) resolves it to 0.
        Uncalibrated models pass the request through unchanged.
        """
        if self.cost_model is not None:
            resolve = getattr(self.cost_model, "kernel_block_size", None)
            if resolve is not None:
                return resolve(self.kernel_block_size)
        return self.kernel_block_size

    # -------------------------------------------------------------- fitting
    def fit(self, features, labels: np.ndarray) -> "IncrementalTrainer":
        """Train the initial model and run the offline provenance phase."""
        self.features = features
        self.labels = np.asarray(labels)
        self.objective = objective_for(
            self.task, self.regularization, self.n_classes
        )
        n_samples = features.shape[0]
        self.schedule = make_schedule(
            n_samples,
            self.batch_size,
            self.n_iterations,
            seed=self.seed,
            kind=self.schedule_kind,
        )
        dense = not is_sparse(features)
        n_params = self.objective.n_parameters(features.shape[1])
        use_opt = self._resolve_opt(dense, n_params)

        interpolator = None
        freeze_at = None
        if self.task != "linear":
            interpolator = sigmoid_complement_interpolator(
                n_intervals=self.interpolation_intervals
            )
            if use_opt and dense:
                freeze_at = self.freeze_fraction
        self.result, self.store = train_with_capture(
            self.objective,
            features,
            self.labels,
            self.schedule,
            self.learning_rate,
            epsilon=self.epsilon,
            interpolator=interpolator,
            freeze_at=freeze_at,
            max_dense_params=self.max_dense_params,
        )
        # Offline construction of every updater (part of provenance phase).
        # The compiled ReplayPlan builds the packed occurrence index once;
        # the reference PrIUUpdater and the opt updaters all share it
        # through the store.
        self._priu = PrIUUpdater(self.store, features, self.labels)
        self._plan = ReplayPlan(
            self.store,
            features,
            self.labels,
            cache_sparse_blocks=self.plan_cache_sparse_blocks,
            kernel_block_size=self._plan_block_size(),
        )
        self._build_opt()
        self._closed_form = None
        self._influence = None
        self._fitted = True
        return self

    def _build_opt(self) -> None:
        """(Re)construct the PrIU-opt updaters for the current store/data."""
        dense = not is_sparse(self.features)
        n_params = self.objective.n_parameters(self.features.shape[1])
        self._opt = None
        if self._resolve_opt(dense, n_params) and dense:
            if self.task == "linear":
                self._opt = PrIUOptLinearUpdater(
                    self.features,
                    self.labels,
                    self.n_iterations,
                    self.learning_rate,
                    self.regularization,
                    eigen_correction_limit=self.eigen_correction_limit,
                )
            elif self.store.frozen is not None and (
                self.store.frozen.eigenvectors is not None
            ):
                self._opt = PrIUOptLogisticUpdater(
                    self.store,
                    self.features,
                    self.labels,
                    plan=self._plan,
                    eigen_correction_limit=self.eigen_correction_limit,
                )

    def _resolve_opt(self, dense: bool, n_params: int) -> bool:
        if self.method == "priu":
            return False
        if self.method == "priu-opt":
            return True
        return dense and n_params <= self.opt_feature_limit

    def _require_fit(self) -> None:
        if not self._fitted:
            raise RuntimeError("call fit() before requesting updates")

    def prepare_baselines(self, influence_mode: str = "koh-liang") -> None:
        """Build the baselines' offline state (Hessian, (M,N) views) up front.

        Both INFL's Hessian and Closed-form's materialized views depend only
        on the training data, not on the removal set, so benchmarks construct
        them here rather than inside the first timed update.
        """
        self._require_fit()
        if self.task == "linear" and self._closed_form is None:
            self._closed_form = IncrementalClosedForm(
                self.features, self.labels, self.regularization
            )
        if self._influence is None:
            n_params = self.objective.n_parameters(self.features.shape[1])
            if not is_sparse(self.features) and n_params <= self.opt_feature_limit:
                self._influence = InfluenceFunctionUpdater(
                    self.objective,
                    self.features,
                    self.labels,
                    self.result.weights,
                    mode=influence_mode,
                )

    # --------------------------------------------------------- checkpointing
    def save_checkpoint(
        self, directory: str | Path, include_plan: bool = True
    ) -> dict[str, Path]:
        """Persist the serving state: provenance store + compiled plan.

        Writes ``store.npz`` (:func:`~repro.core.serialization.save_store`)
        and, when the compiled plan supports this configuration,
        ``plan.npz`` (:func:`~repro.core.serialization.save_plan`) with the
        fitted model's final weights embedded.  The training data itself is
        *not* saved — PrIU needs the original features/labels to form the
        removed samples' delta corrections, so the caller hands them back
        to :meth:`from_checkpoint`.

        The write is crash-atomic as a *pair*: both archives are staged
        as ``*.new`` (each itself written temp → fsync → rename) and then
        flipped into place through a journaled commit
        (:func:`~repro.core.serialization.commit_checkpoint`).  A crash
        at any point leaves the complete old checkpoint or the complete
        new one — never a new store next to an old plan.
        """
        self._require_fit()
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        # Settle any earlier interrupted save so its strays cannot be
        # confused with this one's staging files.
        recover_checkpoint(directory)
        members = [STORE_FILENAME]
        save_store(self.store, staged_path(directory, STORE_FILENAME))
        paths = {"store": directory / STORE_FILENAME}
        if include_plan and self._plan.supported:
            save_plan(
                self._plan,
                staged_path(directory, PLAN_FILENAME),
                weights=self.result.weights,
            )
            members.append(PLAN_FILENAME)
            paths["plan"] = directory / PLAN_FILENAME
        commit_checkpoint(directory, members)
        return paths

    @classmethod
    def from_checkpoint(
        cls,
        path: str | Path,
        features,
        labels: np.ndarray,
        plan_path: str | Path | None = None,
        method: str = "auto",
        mmap: bool = True,
        plan_cache_sparse_blocks: bool = True,
        plan_cache=None,
        **overrides,
    ) -> "IncrementalTrainer":
        """Rebuild a serving-ready trainer from a checkpoint — no recapture.

        ``path`` is either the directory written by :meth:`save_checkpoint`
        (containing ``store.npz`` and optionally ``plan.npz``) or the store
        archive itself, with ``plan_path`` naming the plan archive.  A fresh
        process goes checkpoint → compiled plan → first answered request:
        every hyperparameter is recovered from the store's metadata, the
        plan arrays are memory-mapped where possible (``mmap=True``), and
        the deterministic batch schedule is taken verbatim from the store,
        so the reconstructed trainer answers removal queries identically to
        the one that called :meth:`fit`.

        When no plan archive exists the plan is compiled from the reloaded
        store (still far cheaper than re-running capture).  When the plan
        archive does not embed final weights, ``weights_`` is recovered by
        replaying the empty removal set — the provenance recursion with
        ``R = ∅`` reproduces the captured training trajectory exactly.

        ``plan_cache`` (a :class:`~repro.core.serialization.PlanCache`)
        makes repeated loads of the same plan epoch share one read-only
        mapping — the shard-worker path, where every reload and warm
        standby must cost zero extra resident plan bytes.
        """
        path = Path(path)
        if path.is_dir():
            # A crash may have interrupted the last save here: roll a
            # journaled commit forward / sweep pre-commit strays first.
            recover_checkpoint(path)
            store_path = path / STORE_FILENAME
            if plan_path is None:
                candidate = path / PLAN_FILENAME
                plan_path = candidate if candidate.exists() else None
        else:
            store_path = path
        store = load_store(store_path)
        n_classes = (
            store.n_classes
            if store.task == "multinomial_logistic"
            else None
        )
        trainer = cls(
            task=store.task,
            learning_rate=store.learning_rate,
            regularization=store.regularization,
            batch_size=store.schedule.batch_size,
            n_iterations=len(store.records),
            n_classes=n_classes,
            method=method,
            seed=store.schedule.seed,
            epsilon=store.epsilon,
            schedule_kind=store.schedule.kind,
            plan_cache_sparse_blocks=plan_cache_sparse_blocks,
            **overrides,
        )
        trainer._restore(
            store, features, labels, plan_path, mmap, plan_cache=plan_cache
        )
        return trainer

    def _restore(
        self,
        store,
        features,
        labels: np.ndarray,
        plan_path,
        mmap: bool,
        plan_cache=None,
    ) -> None:
        """Attach checkpointed state; mirrors everything :meth:`fit` sets."""
        labels = np.asarray(labels)
        if (
            store.n_original_samples is not None
            and features.shape[0] == store.n_original_samples
            and store.n_original_samples != store.n_samples
        ):
            # The checkpoint was committed: the caller hands back the
            # *original* training data and the recorded deletion log picks
            # out the current survivors.
            survivors = store.survivor_original_ids()
            features = features[survivors]
            labels = labels[survivors]
        if features.shape[0] != store.n_samples:
            expected = (
                f"{store.n_samples}"
                if store.n_original_samples is None
                else f"{store.n_samples} (current) or "
                f"{store.n_original_samples} (original, pre-commit)"
            )
            raise ValueError(
                f"checkpoint was captured over {expected} samples, "
                f"got features with {features.shape[0]} rows"
            )
        self.features = features
        self.labels = labels
        self.objective = objective_for(
            self.task, self.regularization, self.n_classes
        )
        self.schedule = store.schedule
        self.store = store
        self._priu = PrIUUpdater(store, features, labels)
        if plan_path is not None:
            self._plan = load_plan(
                plan_path,
                store,
                features,
                labels,
                mmap=mmap,
                cache_sparse_blocks=self.plan_cache_sparse_blocks,
                plan_cache=plan_cache,
                kernel_block_size=self._plan_block_size(),
            )
        else:
            self._plan = ReplayPlan(
                store,
                features,
                labels,
                cache_sparse_blocks=self.plan_cache_sparse_blocks,
                kernel_block_size=self._plan_block_size(),
            )
        self._build_opt()
        weights = getattr(self._plan, "final_weights", None)
        if weights is None:
            empty = np.empty(0, dtype=np.int64)
            weights = (
                self._plan.run_single(empty)
                if self._plan.supported
                else self._priu.update(empty)
            )
        self.result = TrainingResult(
            weights=np.asarray(weights, dtype=float),
            objective=self.objective,
            schedule=self.schedule,
            learning_rate=self.learning_rate,
            regularization=self.regularization,
            n_iterations=self.n_iterations,
            wall_time=0.0,
        )
        self._closed_form = None
        self._influence = None
        self._fitted = True

    # -------------------------------------------------------------- queries
    @property
    def weights_(self) -> np.ndarray:
        """Parameters of the initial (full-data) model."""
        self._require_fit()
        return self.result.weights

    @property
    def n_samples(self) -> int:
        """Current training-set size (shrinks with every commit)."""
        self._require_fit()
        return int(self.store.n_samples)

    @property
    def deletion_log(self) -> np.ndarray:
        """Committed removals so far, in *original* id space, commit order."""
        self._require_fit()
        if self.store.deletion_log is None:
            return np.empty(0, dtype=np.int64)
        return self.store.deletion_log.copy()

    @property
    def commit_receipts(self) -> tuple:
        """Audit receipts of every commit, in commit order (GDPR evidence).

        Each :class:`~repro.core.provenance_store.CommitReceipt` records
        the batch's original-space ids (a slice of :attr:`deletion_log`),
        the pre-commit store version and sample counts, and a timestamp
        from the trainer's injected clock.  Receipts persist through
        checkpoints (store format v3), so the evidence trail survives
        process restarts.
        """
        self._require_fit()
        return tuple(self.store.commit_receipts)

    # ----------------------------------------------------------- maintenance
    def maintenance_cost(self, include_bytes: bool = True) -> MaintenanceCost:
        """Snapshot the reclaimable garbage commits left behind.

        Threads the accounting through every layer that accumulates it:
        the compiled plan's multinomial slot-map garbage, the store's SVD
        correction-column widths, and the deferred PrIU-opt eigen
        refreshes (frozen logistic state and/or the linear updater).

        ``include_bytes=False`` skips the ``O(records)``
        store/plan byte traversal and reports the counters only — what a
        per-batch scheduler check (:class:`~repro.serving.fleet.\
FleetServer` auto-maintenance) needs, since
        :meth:`~repro.core.maintenance.MaintenancePolicy.due` never reads
        the byte fields.
        """
        self._require_fit()
        plan = self._plan
        garbage, physical = (
            plan.slot_garbage_rows() if plan.supported else (0, 0)
        )
        columns = self.store.svd_correction_columns
        if columns is None:
            total = worst = widened = 0
        else:
            total = int(columns.sum())
            worst = int(columns.max()) if columns.size else 0
            widened = int((columns > 0).sum())
        stale = 0
        if self._opt is not None and getattr(self._opt, "eigen_stale", False):
            stale += 1
        frozen = self.store.frozen
        if frozen is not None and frozen.eigen_stale and (
            not isinstance(self._opt, PrIUOptLogisticUpdater)
        ):
            # Frozen state can be stale even when no opt updater is built
            # (e.g. a method="priu" trainer restored from an opt capture).
            stale += 1
        return MaintenanceCost(
            slot_garbage_rows=garbage,
            slot_physical_rows=physical,
            svd_correction_columns=total,
            svd_max_correction_columns=worst,
            svd_widened_summaries=widened,
            stale_eigen=stale,
            plan_nbytes=self.plan_nbytes() if include_bytes else 0,
            store_nbytes=self.store.nbytes() if include_bytes else 0,
        )

    def maintain(
        self, policy: MaintenancePolicy | None = None
    ) -> MaintenanceReport:
        """Reclaim the state growth commits leave behind (see
        :mod:`repro.core.maintenance`).

        Runs whichever maintenance tasks ``policy`` marks due for the
        current :meth:`maintenance_cost` — the default policy's zero
        thresholds treat *any* garbage as due, so a bare ``maintain()``
        reclaims everything:

        * **svd** — ε-re-truncates the summaries commits widened
          (``policy.svd_epsilon=None`` keeps answers to machine
          precision) and re-syncs the compiled plan's summary references;
        * **repack** — folds the multinomial slot map into the plan flats
          (bit-identical answers, freed bytes in the receipt);
        * **eigen** — discharges deferred PrIU-opt eigendecompositions
          (incremental correction below ``policy.eigen_correction_limit``
          rows, exact recompute otherwise).

        Safe to interleave with queries and commits at any batch
        boundary; the serving fleet schedules it on idle models behind
        the lowest-priority ``maintenance`` lane.  Returns a
        :class:`~repro.core.maintenance.MaintenanceReport` receipt.
        """
        self._require_fit()
        if policy is None:
            policy = MaintenancePolicy()
        cost_before = self.maintenance_cost()
        due = policy.due(cost_before)
        start = time.perf_counter()
        svd_receipt = repack_receipt = eigen_receipt = None
        performed: list[str] = []
        if "svd" in due:
            svd_receipt = self.store.retruncate_summaries(
                epsilon=policy.svd_epsilon,
                incremental=policy.svd_incremental,
            )
            touched = svd_receipt.pop("iterations")
            self._plan.resync_summaries(touched)
            performed.append("svd")
        if "repack" in due and self._plan.supported:
            repack_receipt = self._plan.repack()
            performed.append("repack")
        if "eigen" in due:
            refreshed: dict[str, str] = {}
            limit = policy.eigen_correction_limit
            if self._opt is not None and hasattr(self._opt, "refresh_eigen"):
                mode = self._opt.refresh_eigen(correction_limit=limit)
                if mode is not None:
                    refreshed["opt"] = mode
            frozen = self.store.frozen
            if frozen is not None and frozen.eigen_stale:
                mode = refresh_frozen_eigen(frozen, correction_limit=limit)
                if mode is not None:
                    refreshed["frozen"] = mode
            eigen_receipt = {"refreshed": refreshed}
            performed.append("eigen")
        seconds = time.perf_counter() - start
        return MaintenanceReport(
            performed=tuple(performed),
            cost_before=cost_before,
            cost_after=self.maintenance_cost(),
            svd=svd_receipt,
            repack=repack_receipt,
            eigen=eigen_receipt,
            seconds=seconds,
        )

    def remove(
        self, indices, method: str | None = None, commit: bool = False
    ) -> UpdateOutcome:
        """Incremental update: the model with ``indices`` deleted.

        ``method="priu"`` serves the request through the compiled
        :class:`~repro.core.replay_plan.ReplayPlan`; ``"priu-seq"`` forces
        the uncompiled per-record reference path (kept for verification and
        benchmarking).  ``commit=True`` additionally adopts the answer as
        the new baseline (see :meth:`commit`).  One request is a batch of
        one: this is :meth:`remove_many` on ``[indices]``.
        """
        return self.remove_many([indices], method=method, commit=commit)[0]

    def remove_many(
        self, index_sets, method: str | None = None, commit: bool = False
    ) -> list[UpdateOutcome]:
        """Serve K deletion requests simultaneously (one per index set).

        The K replays share every per-iteration bulk term: the weight
        vectors stack into an ``m × K`` matrix so each cached summary is
        applied as a single GEMM, and (for PrIU-opt) the eigen tail runs as
        one broadcast recursion.  Returns one :class:`UpdateOutcome` per
        set — numerically identical (≲1e-12) to sequential :meth:`remove`
        calls — with the amortized wall-clock share attributed to each.

        ``method`` takes the same values as :meth:`remove` (class
        docstring); ``"priu-seq"`` deliberately runs the K requests
        one-by-one through the uncompiled reference path, making it the
        sequential baseline the batched speedup is measured against.
        Callers who receive requests one at a time rather than K in hand
        should sit a :class:`repro.serving.DeletionServer` in front of
        this method instead of calling it directly.

        ``commit=True`` switches to *committed* semantics: the K sets are
        applied cumulatively in list order (request ``k`` is replayed with
        the union of sets ``0..k``, so every caller's answer excludes both
        their own samples and everything admitted before them), and the
        final union becomes the new baseline via :meth:`commit`.  Each
        returned outcome still reports its own request's ``removed`` set.
        """
        self._require_fit()
        normalized = [normalize_removed_indices(s) for s in index_sets]
        if not normalized:
            return []
        replay_sets = normalized
        if commit:
            prefixes: list[np.ndarray] = []
            acc = np.empty(0, dtype=np.int64)
            for removed in normalized:
                acc = np.union1d(acc, removed)
                prefixes.append(acc)
            replay_sets = prefixes
        chosen = method or ("priu-opt" if self._opt is not None else "priu")
        version = self.store._version
        kernel_before = self._kernel_snapshot()
        start = time.perf_counter()
        if chosen == "priu-opt":
            if self._opt is None:
                raise ValueError("PrIU-opt is unavailable for this configuration")
            stacked = self._opt.update_many(replay_sets, assume_unique=True)
        elif chosen == "priu":
            if self._plan.supported:
                stacked = self._plan.run(replay_sets, assume_unique=True)
            else:
                stacked = np.stack(
                    [
                        self._priu.update(r, assume_unique=True)
                        for r in replay_sets
                    ],
                    axis=1,
                )
        elif chosen == "priu-seq":
            stacked = np.stack(
                [self._priu.update(r, assume_unique=True) for r in replay_sets],
                axis=1,
            )
        else:
            raise ValueError(f"unknown update method: {chosen}")
        seconds = time.perf_counter() - start
        self._observe_replay(chosen, kernel_before, seconds)
        share = seconds / len(normalized)
        outcomes = [
            UpdateOutcome(
                np.ascontiguousarray(stacked[:, k]), chosen, share, removed,
                version,
            )
            for k, removed in enumerate(normalized)
        ]
        if commit:
            self._apply_commit(replay_sets[-1], stacked[:, -1])
        return outcomes

    def _kernel_snapshot(self) -> dict | None:
        """Pre-dispatch copy of the plan's fused/scalar tallies (or None)."""
        if self.cost_model is None or not self._plan.supported:
            return None
        return dict(self._plan._kernel_stats)

    def _observe_replay(
        self, chosen: str, before: dict | None, seconds: float
    ) -> None:
        """Feed one plan replay's fused/scalar split to the cost model.

        Only ``method="priu"`` dispatches run entirely through the
        compiled plan, so only those timings attribute cleanly to the
        kernel tallies; opt/seq paths interleave other work and would
        poison the per-iteration calibration.
        """
        if before is None or chosen != "priu":
            return
        observe = getattr(self.cost_model, "observe_replay", None)
        if observe is None:
            return
        after = self._plan._kernel_stats
        observe(
            fused_iterations=after["fused_iterations"]
            - before["fused_iterations"],
            scalar_iterations=after["scalar_iterations"]
            - before["scalar_iterations"],
            seconds=seconds,
        )

    # --------------------------------------------------------------- commit
    def commit(self, outcome: UpdateOutcome) -> dict:
        """Adopt a previously computed update as the new baseline.

        Where :meth:`remove` answers the counterfactual and leaves every
        piece of state describing the original training set, ``commit``
        makes the deletion permanent: the provenance store is compacted
        (occurrence rows dropped, surviving ids remapped onto
        ``[0, n - Δn)``), the compiled :class:`ReplayPlan` is refreshed
        in place (fused kernel blocks the removal dirtied are dropped until
        :meth:`maintain` regroups them), the held features/labels are
        sliced to the survivors, the PrIU / PrIU-opt updaters are rebuilt
        over the compacted state, and ``outcome.weights`` becomes
        :attr:`weights_`.

        After a commit, *fresh* removal queries and removal ids are
        expressed in the new, packed id space; :attr:`deletion_log` keeps
        the cumulative original-space ids so checkpoints can be restored
        from the original training data.  Replaying the committed trainer
        with set ``T`` matches replaying the pre-commit trainer with
        ``committed ∪ T`` to reduction-order noise (property-tested at
        atol 1e-10).

        Raises ``ValueError`` for outcomes computed before an earlier
        commit (their removal ids point into a stale id space).  Returns a
        receipt dict: ``mode`` (``refresh`` | ``noop`` | ``unsupported``),
        the fraction of iterations touched, and ``removed`` (how many
        samples left the store).
        """
        self._require_fit()
        if outcome.store_version is not None and (
            outcome.store_version != self.store._version
        ):
            raise ValueError(
                "stale outcome: it was computed before an earlier commit "
                "re-packed the id space; re-run the query and commit that"
            )
        return self._apply_commit(outcome.removed, outcome.weights)

    def _apply_commit(self, removed: np.ndarray, weights: np.ndarray) -> dict:
        removed = normalize_removed_indices(removed)
        weights = np.ascontiguousarray(np.asarray(weights, dtype=float))
        if removed.size == 0:
            self.result.weights = weights
            return {"mode": "noop", "fraction": 0.0, "removed": 0}
        # Cost-model hook: estimate before the store mutates, then log the
        # timed receipt against it (predicted-vs-actual).
        estimate = None
        if self.cost_model is not None:
            estimate = self.cost_model.estimate(self, removed)
        stats = self.store.compact(
            removed, self.features, self.labels, timestamp=self._now()
        )
        survivors = np.delete(
            np.arange(stats.n_samples_before, dtype=np.int64), removed
        )
        self.features = self.features[survivors]
        self.labels = self.labels[survivors]
        self.schedule = self.store.schedule
        sync_start = time.perf_counter()
        receipt = self._plan.refresh(stats, self.features, self.labels)
        receipt["plan_sync_seconds"] = time.perf_counter() - sync_start
        self._priu = PrIUUpdater(self.store, self.features, self.labels)
        if isinstance(self._opt, PrIUOptLinearUpdater):
            # Downdate M/N by the removed rows (the updater still holds the
            # pre-commit data) instead of recomputing the O(n·m²) gram.
            self._opt.compact(removed, self.features, self.labels)
        else:
            # Logistic opt state lives in store.frozen: compact() already
            # downdated gram/moment exactly and flagged the eigen state
            # stale (the first opt update or maintain() discharges it);
            # rebuilding the wrapper is cheap.
            self._build_opt()
        self._closed_form = None
        self._influence = None
        self.result = TrainingResult(
            weights=weights,
            objective=self.objective,
            schedule=self.schedule,
            learning_rate=self.learning_rate,
            regularization=self.regularization,
            n_iterations=self.n_iterations,
            wall_time=0.0,
        )
        receipt["removed"] = int(removed.size)
        if self.cost_model is not None:
            self.cost_model.observe_commit(estimate, receipt)
        return receipt

    # -------------------------------------------------------------- costing
    def estimate_removal(self, indices) -> "CostEstimate":
        """Predict what removing ``indices`` would cost — without replaying.

        Reads the removal's footprint off the packed occurrence index (two
        ``searchsorted`` range counts, no replay) and prices it with the
        attached :class:`~repro.core.costmodel.CostModel` (an uncalibrated
        one when none is attached).  ``indices`` live in the current
        (post-commit) id space, like :meth:`remove`.
        """
        self._require_fit()
        return (self.cost_model or CostModel()).estimate(self, indices)

    def retrain(self, indices) -> UpdateOutcome:
        """BaseL: retrain from scratch on the same schedule minus ``indices``."""
        self._require_fit()
        removed = normalize_removed_indices(indices)
        start = time.perf_counter()
        result = train(
            self.objective,
            self.features,
            self.labels,
            self.schedule,
            self.learning_rate,
            exclude=frozenset(removed.tolist()),
        )
        seconds = time.perf_counter() - start
        return UpdateOutcome(
            result.weights, "basel", seconds, removed, self.store._version
        )

    def closed_form(self, indices) -> UpdateOutcome:
        """Closed-form incremental baseline (linear regression only)."""
        self._require_fit()
        if self.task != "linear":
            raise ValueError("closed-form updates exist only for linear regression")
        if self._closed_form is None:
            self._closed_form = IncrementalClosedForm(
                self.features, self.labels, self.regularization
            )
        removed = normalize_removed_indices(indices)
        start = time.perf_counter()
        weights = self._closed_form.delete(removed)
        seconds = time.perf_counter() - start
        return UpdateOutcome(
            weights, "closed-form", seconds, removed, self.store._version
        )

    def influence(self, indices, mode: str = "koh-liang") -> UpdateOutcome:
        """INFL: the influence-function baseline."""
        self._require_fit()
        if self._influence is None or self._influence.mode != mode:
            self._influence = InfluenceFunctionUpdater(
                self.objective,
                self.features,
                self.labels,
                self.result.weights,
                mode=mode,
            )
        removed = normalize_removed_indices(indices)
        start = time.perf_counter()
        weights = self._influence.update(removed)
        seconds = time.perf_counter() - start
        return UpdateOutcome(
            weights, f"infl-{mode}", seconds, removed, self.store._version
        )

    # ----------------------------------------------------------- evaluation
    def evaluate(self, features, labels, weights: np.ndarray | None = None) -> float:
        """Task metric on held-out data: MSE (linear) or accuracy (logistic)."""
        self._require_fit()
        w = self.weights_ if weights is None else weights
        return self.objective.metric(w, features, np.asarray(labels))

    def provenance_gigabytes(self) -> float:
        """Memory held by the provenance store (Table 3)."""
        self._require_fit()
        return self.store.gigabytes()

    def plan_nbytes(self) -> int:
        """Bytes held by the compiled replay plan (0 if unsupported).

        This is the serving-resident footprint a
        :class:`~repro.serving.fleet.ModelRegistry` charges a loaded model
        against its memory cap — the store and training data are either
        memory-mapped or owned by the caller.
        """
        self._require_fit()
        return int(self._plan.nbytes()) if self._plan.supported else 0
