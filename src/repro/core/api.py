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
from .provenance_store import (
    normalize_removed_indices,
    validate_removed_indices,
)
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
        path.  (A multinomial model over sparse features is refused at
        :meth:`fit`; no method serves one.)
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
        self._plan = ReplayPlan(self.store, features, self.labels)
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
                )
            elif self.store.frozen is not None and (
                self.store.frozen.eigenvectors is not None
            ):
                self._opt = PrIUOptLogisticUpdater(
                    self.store,
                    self.features,
                    self.labels,
                    plan=self._plan,
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

    def _removal_ids(self, indices) -> np.ndarray:
        """``indices`` as a sorted, unique int64 removal set; raises
        ``ValueError`` for an id outside ``[0, n_samples)`` (or a set
        that names every sample), whatever the method."""
        removed = normalize_removed_indices(indices)
        validate_removed_indices(removed, self.n_samples)
        return removed

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
        and, unless ``include_plan=False``, ``plan.npz``
        (:func:`~repro.core.serialization.save_plan`) with the fitted
        model's final weights embedded.  The training data itself is
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
        if include_plan:
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
        **overrides,
    ) -> "IncrementalTrainer":
        """Rebuild a serving-ready trainer from a checkpoint — no recapture.

        ``path`` is either the directory written by :meth:`save_checkpoint`
        (containing ``store.npz`` and optionally ``plan.npz``) or the store
        archive itself, with ``plan_path`` naming the plan archive.  A fresh
        process goes checkpoint → compiled plan → first answered request:
        every hyperparameter is recovered from the store's metadata, the
        store and plan arrays are memory-mapped where possible, and the
        deterministic batch schedule is taken verbatim from the store,
        so the reconstructed trainer answers removal queries identically to
        the one that called :meth:`fit`.

        When no plan archive exists the plan is compiled from the reloaded
        store (still far cheaper than re-running capture).  When the plan
        archive does not embed final weights, ``weights_`` is recovered by
        replaying the empty removal set — the provenance recursion with
        ``R = ∅`` reproduces the captured training trajectory exactly.

        The plan mapping is read-only and shared through the page cache,
        so loading one checkpoint many times — after an eviction, or in
        every shard process — costs no extra resident plan bytes.
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
            **overrides,
        )
        trainer._restore(store, features, labels, plan_path)
        return trainer

    def _restore(
        self,
        store,
        features,
        labels: np.ndarray,
        plan_path,
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
            self._plan = load_plan(plan_path, store, features, labels)
        else:
            self._plan = ReplayPlan(store, features, labels)
        self._build_opt()
        weights = self._plan.final_weights
        if weights is None:
            weights = self._plan.run_single(np.empty(0, dtype=np.int64))
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
        the store's SVD correction-column widths and their excess over its
        rank bound (:meth:`~repro.core.provenance_store.ProvenanceStore.\
svd_excess_columns`), and the deferred PrIU-opt eigen refreshes
        (frozen logistic state and/or the linear updater).

        ``include_bytes=False`` skips the ``O(records)``
        store/plan byte traversal and reports the counters only — what the
        due-check before a retire (:meth:`~repro.serving.fleet.\
ModelRegistry.retire`) needs, since
        :meth:`~repro.core.maintenance.MaintenancePolicy.due` never reads
        the byte fields.
        """
        self._require_fit()
        columns = self.store.svd_correction_columns
        if columns is None or not columns.size:
            total = worst = widened = excess = worst_excess = 0
        else:
            total = int(columns.sum())
            worst = int(columns.max())
            widened = int((columns > 0).sum())
            per_record = self.store.svd_excess_columns()
            excess = int(per_record.sum())
            worst_excess = int(per_record.max())
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
            svd_correction_columns=total,
            svd_max_correction_columns=worst,
            svd_widened_summaries=widened,
            svd_excess_columns=excess,
            svd_max_excess_columns=worst_excess,
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
        thresholds treat *any* reclaimable garbage as due, so a bare
        ``maintain()`` reclaims everything it can:

        * **svd** — re-truncates the summaries commits widened; the
          compiled plan reads them from the store, so it has nothing to
          catch up with.  ``policy.svd_epsilon=None`` keeps answers to
          machine precision and folds only summaries wider than the
          store's rank bound ``k·min(m, B)``, since below it an exact fold
          frees nothing; an explicit ε folds every widened summary;
        * **eigen** — discharges deferred PrIU-opt eigendecompositions
          (an exact recompute from the downdated gram).

        Safe to interleave with queries and commits at any batch
        boundary, but not to overlap a replay of the same trainer: the
        replay would read old and new summaries alike.  The serving fleet
        runs one job per model at a time and schedules this on idle
        models behind the lowest-priority ``maintenance`` lane.  Returns a
        :class:`~repro.core.maintenance.MaintenanceReport` receipt.
        """
        self._require_fit()
        if policy is None:
            policy = MaintenancePolicy()
        cost_before = self.maintenance_cost()
        due = policy.due(cost_before)
        start = time.perf_counter()
        svd_receipt = eigen_receipt = None
        performed: list[str] = []
        if "svd" in due:
            svd_receipt = self.store.retruncate_summaries(
                epsilon=policy.svd_epsilon
            )
            performed.append("svd")
        if "eigen" in due:
            refreshed: dict[str, str] = {}
            if self._opt is not None and hasattr(self._opt, "refresh_eigen"):
                mode = self._opt.refresh_eigen()
                if mode is not None:
                    refreshed["opt"] = mode
            frozen = self.store.frozen
            if frozen is not None and frozen.eigen_stale:
                mode = refresh_frozen_eigen(frozen)
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
        normalized = [self._removal_ids(s) for s in index_sets]
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
        start = time.perf_counter()
        if chosen == "priu-opt":
            if self._opt is None:
                raise ValueError("PrIU-opt is unavailable for this configuration")
            stacked = self._opt.update_many(replay_sets, assume_unique=True)
        elif chosen == "priu":
            stacked = self._plan.run(replay_sets, assume_unique=True)
        elif chosen == "priu-seq":
            stacked = np.stack(
                [self._priu.update(r, assume_unique=True) for r in replay_sets],
                axis=1,
            )
        else:
            raise ValueError(f"unknown update method: {chosen}")
        seconds = time.perf_counter() - start
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

    # --------------------------------------------------------------- commit
    def commit(self, outcome: UpdateOutcome) -> dict:
        """Adopt a previously computed update as the new baseline.

        Where :meth:`remove` answers the counterfactual and leaves every
        piece of state describing the original training set, ``commit``
        makes the deletion permanent: the provenance store is compacted
        (occurrence rows dropped, surviving ids remapped onto
        ``[0, n - Δn)``), the compiled :class:`ReplayPlan` is refreshed
        in place, the held features/labels are sliced to the survivors,
        the PrIU / PrIU-opt updaters are rebuilt over the compacted
        state, and ``outcome.weights`` becomes :attr:`weights_`.

        After a commit, *fresh* removal queries and removal ids are
        expressed in the new, packed id space; :attr:`deletion_log` keeps
        the cumulative original-space ids so checkpoints can be restored
        from the original training data.  Replaying the committed trainer
        with set ``T`` matches replaying the pre-commit trainer with
        ``committed ∪ T`` to reduction-order noise (property-tested at
        atol 1e-10).

        Raises ``ValueError`` for outcomes computed before an earlier
        commit (their removal ids point into a stale id space).  Returns a
        receipt dict: ``mode`` (``refresh`` | ``noop``),
        the fraction of iterations touched, ``removed`` (how many
        samples left the store), and the compaction's
        ``appended_columns`` / ``copied_factors`` (SVD correction columns
        appended, and touched SVD records whose factors were copied into
        a new buffer rather than grown in place; see
        :class:`~repro.core.provenance_store.CompactionStats`).
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
        receipt["appended_columns"] = stats.appended_columns
        receipt["copied_factors"] = stats.copied_factors
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
        attached :class:`~repro.core.costmodel.CostModel` (a fresh one
        when none is attached).  ``indices`` live in the current
        (post-commit) id space, like :meth:`remove`.
        """
        self._require_fit()
        return (self.cost_model or CostModel()).estimate(self, indices)

    def retrain(self, indices) -> UpdateOutcome:
        """BaseL: retrain from scratch on the same schedule minus ``indices``."""
        self._require_fit()
        removed = self._removal_ids(indices)
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
        removed = self._removal_ids(indices)
        if self._closed_form is None:
            self._closed_form = IncrementalClosedForm(
                self.features, self.labels, self.regularization
            )
        start = time.perf_counter()
        weights = self._closed_form.delete(removed)
        seconds = time.perf_counter() - start
        return UpdateOutcome(
            weights, "closed-form", seconds, removed, self.store._version
        )

    def influence(self, indices, mode: str = "koh-liang") -> UpdateOutcome:
        """INFL: the influence-function baseline."""
        self._require_fit()
        removed = self._removal_ids(indices)
        if self._influence is None or self._influence.mode != mode:
            self._influence = InfluenceFunctionUpdater(
                self.objective,
                self.features,
                self.labels,
                self.result.weights,
                mode=mode,
            )
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
        """Bytes held by the compiled replay plan.

        This is the serving-resident footprint a
        :class:`~repro.serving.fleet.ModelRegistry` reports for a loaded
        model, measured on read — the store and training data are either
        memory-mapped or owned by the caller.
        """
        self._require_fit()
        return int(self._plan.nbytes())
