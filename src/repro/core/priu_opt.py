"""PrIU-opt: the small-feature-space optimizations (Sec. 5.2 and 5.4).

Linear regression (Sec. 5.2)
    mb-SGD is approximated by GD (statistically equivalent per [29]); the GD
    recursion diagonalizes in the eigenbasis of ``M = XᵀX``.  The offline
    phase eigendecomposes ``M`` once; an update incrementally corrects the
    eigenvalues for ``M' = M - ΔXᵀΔX`` (Eq. 18, Ning et al. 2010) and then
    evaluates the diagonal recursion of Eq. 17 in closed form — ``O(τm)``
    arithmetic collapses to ``O(m)`` per coordinate for constant ``η``.

Logistic regression (Sec. 5.4)
    Interpolation coefficients stabilize as ``w^(t)`` converges, so new
    provenance stops being captured at ``t_s`` (rule of thumb: 70% of ``τ``).
    Phase 1 (``t < t_s``) replays PrIU; phase 2 uses the frozen full-dataset
    ``C*``/``D*`` with the same eigenvalue machinery as the linear case.

Both updaters also expose ``update_many``: K deletion requests share one
vectorized eigen tail — the per-request eigenvalue corrections and moments
stack into ``m × K`` matrices, :func:`~repro.linalg.eigen.gd_diagonal_recursion`
broadcasts over the K columns, and the basis changes ``Qᵀ·`` / ``Q·`` become
GEMMs.  The logistic updater also builds the K tail states together:
the removed rows of all requests are projected at once (a block of
samples at a time) and summed per request by GEMM.  The logistic phase 1
runs through a compiled
:class:`~repro.core.replay_plan.ReplayPlan`, which batches the replay loop
itself.
"""

from __future__ import annotations

import numpy as np

from ..linalg.eigen import (
    EigenSystem,
    gd_diagonal_recursion,
    eigendecompose,
    incremental_eigenvalues_from_rows,
)
from ..linalg.matrix_utils import is_sparse
from .provenance_store import (
    FrozenProvenance,
    ProvenanceStore,
    multinomial_moment_coefficients,
    normalize_removed_indices,
    validate_removed_indices,
)
from .replay_plan import ReplayPlan

# Doubles in one block of a multinomial tail state's projections.  A
# block of samples at a time keeps the working set at a few hundred KiB:
# projecting a 16-request batch at once held 4 MiB, and the allocator
# kept a served process's resident set 2.8 MB higher afterwards.
_TAIL_BLOCK = 1 << 15


def refresh_frozen_eigen(frozen: FrozenProvenance) -> str | None:
    """Discharge a frozen state's deferred eigendecomposition (lazily).

    Commits downdate ``frozen.gram`` exactly but only *flag* the eigen
    state stale (:attr:`~repro.core.provenance_store.FrozenProvenance.\
eigen_stale`); the first PrIU-opt update — or an explicit
    :meth:`~repro.core.api.IncrementalTrainer.maintain` — calls this to
    catch up by re-eigendecomposing the gram exactly (``O(m³)``).
    Returns ``"recompute"``, or ``None`` when nothing was stale.
    """
    if not frozen.eigen_stale:
        return None
    eigen = eigendecompose(frozen.gram)
    frozen.eigenvectors = eigen.eigenvectors
    frozen.eigenvalues = eigen.eigenvalues
    frozen.eigen_stale = False
    return "recompute"


class PrIUOptLinearUpdater:
    """Eigen-based incremental updates for linear regression (Eq. 15-18)."""

    def __init__(
        self,
        features,
        labels: np.ndarray,
        n_iterations: int,
        learning_rate: float,
        regularization: float,
        w0: np.ndarray | None = None,
    ) -> None:
        if is_sparse(features):
            raise ValueError("PrIU-opt requires dense features (Sec. 5.3)")
        self.features = np.asarray(features, dtype=float)
        self.labels = np.asarray(labels, dtype=float).ravel()
        self.n_samples, self.n_features = self.features.shape
        self.n_iterations = int(n_iterations)
        self.learning_rate = float(learning_rate)
        self.regularization = float(regularization)
        self._w0 = (
            np.zeros(self.n_features) if w0 is None else np.asarray(w0, float)
        )
        # Offline phase: M = XᵀX, N = XᵀY, eigendecomposition of M.
        # M is kept so the commit path can *downdate* it (Eq. 18's removal
        # direction) instead of recomputing the O(n·m²) gram from scratch.
        self._moment = self.features.T @ self.labels
        self._gram = self.features.T @ self.features
        self._eigen = eigendecompose(self._gram)
        # Lazy-eigen debt: commits downdate M/N immediately but defer the
        # m³ eigendecomposition to the first update (or maintain()).
        self.eigen_stale = False

    def nbytes(self) -> int:
        """Cached state: Q, eigenvalues, M and N (Sec. 5.2 space analysis)."""
        return int(
            self._eigen.nbytes() + self._moment.nbytes + self._gram.nbytes
        )

    def compact(self, removed, features, labels: np.ndarray) -> None:
        """Fold a committed removal into the cached offline state.

        ``removed`` is expressed in this updater's (pre-commit) id space;
        ``features``/``labels`` are the already-reduced survivors.  M and N
        are downdated by the removed rows — O(Δn·m²) instead of the
        O(n·m²) a from-scratch rebuild pays — while the m³
        eigendecomposition is only marked stale: the first
        :meth:`update`/:meth:`update_many` (or
        :meth:`~repro.core.api.IncrementalTrainer.maintain`) discharges
        it via :meth:`refresh_eigen`.
        """
        removed = normalize_removed_indices(removed)
        rows = self.features[removed]
        self._gram = self._gram - rows.T @ rows
        self._moment = self._moment - rows.T @ self.labels[removed]
        self.eigen_stale = True
        self.features = np.asarray(features, dtype=float)
        self.labels = np.asarray(labels, dtype=float).ravel()
        self.n_samples = self.features.shape[0]

    def refresh_eigen(self) -> str | None:
        """Discharge the deferred eigen refresh (see :func:`refresh_frozen_eigen`)."""
        if not self.eigen_stale:
            return None
        self._eigen = eigendecompose(self._gram)
        self.eigen_stale = False
        return "recompute"

    def update(self, removed_indices, assume_unique: bool = False) -> np.ndarray:
        """Post-deletion parameters in ``O(min(Δn,m)·m²) + O(m)`` work."""
        return self.update_many(
            [removed_indices], assume_unique=assume_unique
        )[:, 0]

    def update_many(
        self, removed_sets, assume_unique: bool = False
    ) -> np.ndarray:
        """K deletions through one vectorized recursion; ``(m, K)`` result.

        The per-request work (eigenvalue correction, moment delta) stays
        per-request; everything downstream — the diagonal recursion and the
        two basis changes — runs as K-column matrix arithmetic.
        """
        self.refresh_eigen()  # discharge any deferred commit debt first
        sets = [
            normalize_removed_indices(s, assume_unique=assume_unique)
            for s in removed_sets
        ]
        n_requests = len(sets)
        if n_requests == 0:
            return np.zeros((self.n_features, 0))
        m = self.n_features
        eigenvalues = np.empty((m, n_requests))
        moments = np.empty((m, n_requests))
        remaining = np.empty(n_requests)
        for k, removed in enumerate(sets):
            validate_removed_indices(removed, self.n_samples)
            remaining[k] = self.n_samples - removed.size
            if removed.size:
                rows = self.features[removed]
                eigenvalues[:, k] = incremental_eigenvalues_from_rows(
                    self._eigen, rows
                )
                moments[:, k] = self._moment - rows.T @ self.labels[removed]
            else:
                eigenvalues[:, k] = self._eigen.eigenvalues
                moments[:, k] = self._moment
        q = self._eigen.eigenvectors
        initial = (q.T @ self._w0)[:, None]
        bias = (2.0 / remaining) * (q.T @ moments)
        coords = gd_diagonal_recursion(
            eigenvalues,
            initial,
            bias,
            n_samples=remaining,
            n_iterations=self.n_iterations,
            learning_rate=self.learning_rate,
            regularization=self.regularization,
            gram_sign=-2.0,
        )
        return q @ coords

    def original(self) -> np.ndarray:
        """The GD approximation of the original model (no deletion)."""
        return self.update(())


class PrIUOptLogisticUpdater:
    """Two-phase updates for (binary or multinomial) logistic regression."""

    def __init__(
        self,
        store: ProvenanceStore,
        features,
        labels: np.ndarray,
        w0: np.ndarray | None = None,
        plan: ReplayPlan | None = None,
    ) -> None:
        if store.task not in ("binary_logistic", "multinomial_logistic"):
            raise ValueError("PrIUOptLogisticUpdater requires a logistic store")
        if store.frozen is None:
            raise ValueError(
                "store has no frozen provenance; capture with freeze_at="
                "0.7 (or use plain PrIU)"
            )
        if store.frozen.eigenvectors is None:
            raise ValueError(
                "frozen provenance lacks the eigen state (sparse or "
                "large-parameter capture); use plain PrIU"
            )
        self.store = store
        self.features = np.asarray(features, dtype=float)
        self.labels = np.asarray(labels)
        self._w0 = w0
        # Phase 1 replays through a compiled plan; callers that already hold
        # one (the facade) pass it in so the packed index and stacked layout
        # are shared rather than rebuilt.
        self._plan = plan
        frozen = store.frozen
        self._eigen = EigenSystem(
            eigenvectors=frozen.eigenvectors, eigenvalues=frozen.eigenvalues
        )

    @property
    def eigen_stale(self) -> bool:
        """True while the frozen state's eigen refresh is deferred."""
        return bool(self.store.frozen.eigen_stale)

    def refresh_eigen(self) -> str | None:
        """Discharge the frozen state's deferred eigen refresh, if any."""
        frozen = self.store.frozen
        mode = refresh_frozen_eigen(frozen)
        if mode is not None:
            self._eigen = EigenSystem(
                eigenvectors=frozen.eigenvectors,
                eigenvalues=frozen.eigenvalues,
            )
        return mode

    def _phase1_plan(self) -> ReplayPlan:
        if self._plan is None:
            self._plan = ReplayPlan(
                self.store, self.features, self.labels, w0=self._w0
            )
        return self._plan

    def update(self, removed_indices, assume_unique: bool = False) -> np.ndarray:
        return self.update_many(
            [removed_indices], assume_unique=assume_unique
        )[:, 0]

    def update_many(
        self, removed_sets, assume_unique: bool = False
    ) -> np.ndarray:
        """K two-phase updates at once; returns ``(n_params, K)``.

        Phase 1 is the batched GEMM replay up to ``t_s``; phase 2 builds
        the K tail states together (:meth:`_stacked_tail_state`) and
        evaluates one broadcast diagonal recursion for all K requests.
        """
        self.refresh_eigen()  # discharge any deferred commit debt first
        sets = [
            normalize_removed_indices(s, assume_unique=assume_unique)
            for s in removed_sets
        ]
        n_requests = len(sets)
        frozen = self.store.frozen
        n_params = self._eigen.n_features
        if n_requests == 0:
            return np.zeros((n_params, 0))
        n_total = self.store.n_samples
        remaining = np.empty(n_requests)
        for k, removed in enumerate(sets):
            validate_removed_indices(removed, n_total)
            remaining[k] = n_total - removed.size
        # Phase 1: batched PrIU replay up to the freeze iteration.
        w_ts = self._phase1_plan().run(sets, stop_at=frozen.t_s, assume_unique=True)
        # Phase 2: frozen-coefficient eigen recursion for the tail.
        tail = self.store.schedule.n_iterations - frozen.t_s
        if tail <= 0:
            return w_ts
        eigenvalues, moments = self._stacked_tail_state(sets)
        q = self._eigen.eigenvectors
        initial = q.T @ w_ts
        bias = (q.T @ moments) / remaining
        coords = gd_diagonal_recursion(
            eigenvalues,
            initial,
            bias,
            n_samples=remaining,
            n_iterations=tail,
            learning_rate=self.store.learning_rate,
            regularization=self.store.regularization,
            gram_sign=1.0,
        )
        return q @ coords

    # ---------------------------------------------------------- tail state
    def _stacked_tail_state(self, sets: list[np.ndarray]):
        """The K tail states at once: ``(eigenvalues, moments)``, each
        ``(n_params, K)``.

        The removed rows of all K requests are projected together against
        the frozen eigenvectors, not one request at a time, and each
        request's eigenvalue corrections and ΔD* moments are summed by a
        GEMM against a matrix that places each removed sample in its
        request's row or column.  On multinomial the correction of
        eigenvalue ``j`` for sample ``i`` is ``u_ijᵀ Λ_i u_ij`` with
        ``u_ij = Q_j x_i`` (``Q_j``: eigenvector ``j`` as a q × m map).
        ``u`` comes from projecting ``x_i`` once per class block of the
        eigenvectors, and ``uᵀΛu = Σ_c p_c (u_c − p·u)²`` since the
        probabilities sum to one, so neither Λ_i's eigenpairs nor
        Kronecker rows ``(Λ_i's eigenvectors) ⊗ x_i`` are formed.
        """
        frozen = self.store.frozen
        n_requests = len(sets)
        removed = np.concatenate(sets)
        owners = np.repeat(np.arange(n_requests), [s.size for s in sets])
        samples = np.arange(removed.size)
        rows = self.features[removed]
        vectors = self._eigen.eigenvectors
        spread = np.zeros((n_requests, removed.size))
        if self.store.task == "binary_logistic":
            spread[owners, samples] = frozen.slopes[removed]
            projected = rows @ vectors
            eigenvalues = frozen.eigenvalues[:, None] - (
                spread @ (projected * projected)
            ).T
            coef = np.zeros((removed.size, n_requests))
            coef[samples, owners] = (
                frozen.intercepts[removed] * self.labels[removed].astype(float)
            )
            moments = frozen.moment[:, None] - rows.T @ coef
            return eigenvalues, moments
        q_classes = self.store.n_classes
        m = rows.shape[1]
        probs = frozen.probabilities[removed]
        # u[c, i, j] = (Q_j x_i)[c], one GEMM per class block of Q, for a
        # block of samples at a time.
        blocks = vectors.reshape(q_classes, m, -1)
        spread[owners, samples] = 1.0
        n_params = vectors.shape[1]
        corrections = np.zeros((n_requests, n_params))
        step = max(1, _TAIL_BLOCK // (q_classes * n_params))
        for lo in range(0, removed.size, step):
            part = slice(lo, lo + step)
            u = np.matmul(rows[part], blocks)
            u -= np.einsum("ic,cij->ij", probs[part], u)
            u *= u
            corrections += spread[:, part] @ np.einsum(
                "ic,cij->ij", probs[part], u
            )
        eigenvalues = frozen.eigenvalues[:, None] + corrections.T
        # ΔD* from the frozen per-sample state, placed per request.
        coef = np.zeros((removed.size, n_requests, q_classes))
        coef[samples, owners] = multinomial_moment_coefficients(
            probs, frozen.wx[removed], self.labels[removed].astype(int)
        )
        moments = frozen.moment[:, None] - (
            coef.reshape(removed.size, n_requests * q_classes).T @ rows
        ).reshape(n_requests, -1).T
        return eigenvalues, moments
