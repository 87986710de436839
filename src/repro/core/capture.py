"""Provenance capture: the offline phase of PrIU (Sec. 5).

:func:`train_with_capture` runs the ordinary GBM training of
:mod:`repro.models.sgd` while a hook records, per iteration, the numeric
provenance summaries described in :mod:`repro.core.provenance_store`.  This
phase happens once, during the training of the initial model, and its cost is
*not* part of the update time PrIU reports (Sec. 6.2 "Incrementality").

Compression policy (``compression=``):

* ``"auto"`` — truncated SVD factors when the parameter dimension exceeds the
  mini-batch size (the ``m > B`` regime of Sec. 5.1), dense summaries
  otherwise; sparse feature matrices switch to the coefficient-only sparse
  mode of Sec. 5.3, for the linear and binary tasks only (a sparse
  multinomial capture raises ``NotImplementedError``).
* ``"svd"`` / ``"none"`` — force one representation.

``freeze_at`` enables the PrIU-opt logistic optimization (Sec. 5.4): at
iteration ``t_s`` the interpolation state of *every* training sample is
frozen and the full-dataset ``C*`` is eigendecomposed offline.
"""

from __future__ import annotations

import numpy as np

from ..linalg.eigen import eigendecompose
from ..linalg.interpolation import (
    PiecewiseLinearInterpolator,
    sigmoid_complement_interpolator,
)
from ..linalg.matrix_utils import is_sparse
from ..linalg.svd import (
    TruncatedSummary,
    select_rank,
    truncate_from_samples,
    truncate_summary,
)
from ..models.batching import BatchSchedule
from ..models.objectives import (
    BinaryLogisticObjective,
    LinearRegressionObjective,
    MultinomialLogisticObjective,
)
from ..models.sgd import TrainingResult, train
from .provenance_store import (
    FrozenProvenance,
    LinearRecord,
    LogisticRecord,
    MultinomialRecord,
    ProvenanceStore,
    multinomial_gram,
    multinomial_lambdas,
    multinomial_moment_coefficients,
    refuse_sparse_multinomial,
)


def _resolve_compression(compression: str, n_params: int, batch_size: int) -> str:
    if compression == "auto":
        return "svd" if n_params > batch_size else "none"
    if compression in ("svd", "none"):
        return compression
    raise ValueError(f"unknown compression mode: {compression}")


def _multinomial_moment(
    probs: np.ndarray, wx: np.ndarray, labels: np.ndarray, block: np.ndarray
) -> np.ndarray:
    """``D^(t) = Σ_i (Λ_i u_i - p_i + e_{y_i}) x_iᵀ`` as a q × m matrix."""
    return multinomial_moment_coefficients(probs, wx, labels).T @ block


def _multinomial_projected_summary(
    probs: np.ndarray, block: np.ndarray, epsilon: float
):
    """Truncated ``C^(t)`` via the feature-subspace projection.

    The batch rows span an ε-rank-``r_x`` subspace ``V`` of feature space, so
    with ``x_i = V z_i``:

        ``C = (I_q ⊗ V) [ -Σ_i Λ_i ⊗ z_i z_iᵀ ] (I_q ⊗ V)ᵀ``

    The inner operator is only ``(q·r_x)²`` — its symmetric eigendecomposition
    replaces an intractable ``(qm)³`` one, and the resulting factors are
    mapped back through ``I_q ⊗ V``.  This is what makes PrIU viable for the
    cifar10-style large dense parameter space.
    """
    batch, q = probs.shape
    m = block.shape[1]
    _, s, vt = np.linalg.svd(block, full_matrices=False)
    r_x = max(1, min(select_rank(s, epsilon), s.size))
    basis = vt[:r_x].T  # m × r_x
    z = block @ basis  # B × r_x
    inner = -multinomial_gram(probs, z)  # (q r_x) × (q r_x)
    evals, evecs = np.linalg.eigh(0.5 * (inner + inner.T))
    order = np.argsort(-np.abs(evals))
    evals = evals[order]
    evecs = evecs[:, order]
    rank = max(1, min(select_rank(np.abs(evals), epsilon), evals.size))
    # Map each kept eigenvector (q, r_x) back to (q, m) through V.
    kept = evecs[:, :rank].T.reshape(rank, q, r_x)
    full = (kept @ basis.T).reshape(rank, q * m).T  # qm × rank
    return TruncatedSummary(right=full, weights=evals[:rank])


def _multinomial_svd_summary(
    probs: np.ndarray, block: np.ndarray, epsilon: float
):
    """Truncated factors of ``C^(t)`` (row-major vec layout ``w.reshape(q, m)``).

    Three routes by regime:

    * large parameter spaces (``qm`` beyond direct eigendecomposition):
      feature-subspace projection (:func:`_multinomial_projected_summary`);
    * large batches (``Bq ≥ qm``): dense summary + symmetric truncation;
    * small batches: ``Bq`` weighted Kronecker rows through the thin SVD.
    """
    batch, q = probs.shape
    m = block.shape[1]
    if q * m > 600:
        return _multinomial_projected_summary(probs, block, epsilon)
    if batch * q >= q * m:
        dense = -multinomial_gram(probs, block)
        return truncate_summary(dense, epsilon=epsilon)
    evals, evecs = np.linalg.eigh(multinomial_lambdas(probs))  # B×q, B×q×q
    rows = np.einsum("iqk,im->ikqm", evecs, block).reshape(batch * q, q * m)
    weights = -evals.reshape(batch * q)
    keep = np.abs(weights) > 1e-12
    if not np.any(keep):
        keep = np.zeros_like(weights, dtype=bool)
        keep[0] = True
    return truncate_from_samples(rows[keep], weights[keep], epsilon=epsilon)


def train_with_capture(
    objective,
    features,
    labels: np.ndarray,
    schedule: BatchSchedule,
    learning_rate: float,
    compression: str = "auto",
    epsilon: float = 0.01,
    interpolator: PiecewiseLinearInterpolator | None = None,
    freeze_at: float | None = None,
    max_dense_params: int = 2500,
    w0: np.ndarray | None = None,
) -> tuple[TrainingResult, ProvenanceStore]:
    """Train the initial model while caching PrIU's provenance summaries."""
    labels = np.asarray(labels)
    n_samples, n_features = features.shape
    sparse_mode = is_sparse(features)
    if isinstance(objective, MultinomialLogisticObjective):
        task = "multinomial_logistic"
        n_classes = objective.n_classes
    elif isinstance(objective, BinaryLogisticObjective):
        task = "binary_logistic"
        n_classes = 2
    elif isinstance(objective, LinearRegressionObjective):
        task = "linear"
        n_classes = 1
    else:
        raise TypeError(f"unsupported objective: {type(objective).__name__}")
    refuse_sparse_multinomial(task, sparse_mode)

    n_params = objective.n_parameters(n_features)
    mode = _resolve_compression(compression, n_params, schedule.batch_size)
    if sparse_mode:
        mode = "sparse"

    if task != "linear" and interpolator is None:
        interpolator = sigmoid_complement_interpolator()

    store = ProvenanceStore(
        task=task,
        schedule=schedule,
        learning_rate=float(learning_rate),
        regularization=float(objective.regularization),
        n_samples=n_samples,
        n_features=n_features,
        n_classes=n_classes,
        compression=mode,
        epsilon=epsilon,
        sparse_mode=sparse_mode,
    )

    freeze_iteration = None
    if freeze_at is not None:
        if task == "linear":
            raise ValueError("freeze_at applies to logistic tasks only")
        freeze_iteration = int(freeze_at * schedule.n_iterations)
        freeze_iteration = max(1, min(freeze_iteration, schedule.n_iterations))

    empty = np.empty(0)

    def linear_hook(t, batch, w, extras) -> None:
        block = features[batch]
        y = labels[batch].astype(float)
        if sparse_mode:
            store.add(LinearRecord(batch=batch, summary=None, moment=empty))
            return
        block = np.asarray(block, dtype=float)
        moment = block.T @ y
        if mode == "svd":
            summary = truncate_from_samples(block, epsilon=epsilon)
        else:
            summary = block.T @ block
        store.add(LinearRecord(batch=batch, summary=summary, moment=moment))

    def binary_hook(t, batch, w, extras) -> None:
        margins = extras["margins"]
        slopes, intercepts = interpolator.coefficients(margins)
        y = labels[batch].astype(float)
        if sparse_mode:
            store.add(
                LogisticRecord(
                    batch=batch,
                    slopes=slopes,
                    intercepts=intercepts,
                    summary=None,
                    moment=empty,
                )
            )
        else:
            block = np.asarray(features[batch], dtype=float)
            moment = block.T @ (intercepts * y)
            if mode == "svd":
                summary = truncate_from_samples(block, slopes, epsilon=epsilon)
            else:
                summary = block.T @ (block * slopes[:, None])
            store.add(
                LogisticRecord(
                    batch=batch,
                    slopes=slopes,
                    intercepts=intercepts,
                    summary=summary,
                    moment=moment,
                )
            )
        if freeze_iteration is not None and t == freeze_iteration:
            _freeze_binary(store, features, labels, w, interpolator, t)

    def multinomial_hook(t, batch, w, extras) -> None:
        probs = extras["probabilities"]
        q = objective.n_classes
        block = np.asarray(features[batch], dtype=float)
        weight_rows = w.reshape(q, n_features)
        wx = block @ weight_rows.T
        y = np.asarray(labels[batch], dtype=int)
        moment = _multinomial_moment(probs, wx, y, block)
        if mode == "svd":
            summary = _multinomial_svd_summary(probs, block, epsilon)
        else:
            summary = -multinomial_gram(probs, block)
        store.add(
            MultinomialRecord(
                batch=batch,
                probabilities=probs.copy(),
                wx=wx,
                summary=summary,
                moment=moment,
            )
        )
        if freeze_iteration is not None and t == freeze_iteration:
            _freeze_multinomial(
                store, objective, features, labels, w, t, max_dense_params
            )

    hooks = {
        "linear": linear_hook,
        "binary_logistic": binary_hook,
        "multinomial_logistic": multinomial_hook,
    }
    result = train(
        objective,
        features,
        labels,
        schedule,
        learning_rate,
        w0=w0,
        capture_hook=hooks[task],
    )
    return result, store


def _freeze_binary(
    store: ProvenanceStore,
    features,
    labels: np.ndarray,
    w: np.ndarray,
    interpolator: PiecewiseLinearInterpolator,
    t_s: int,
) -> None:
    """Freeze full-dataset coefficients at ``t_s`` and eigendecompose ``C*``."""
    y = np.asarray(labels, dtype=float)
    if is_sparse(features):
        margins = y * np.asarray(features @ w).ravel()
        dense = None
    else:
        dense = np.asarray(features, dtype=float)
        margins = y * (dense @ w)
    slopes, intercepts = interpolator.coefficients(margins)
    if dense is None:
        # Sparse frozen state keeps coefficients only; the eigen tail is a
        # dense-mode optimization (Sec. 5.3 keeps sparse data on Eq. 11).
        store.frozen = FrozenProvenance(
            t_s=t_s,
            weights_at_ts_available=False,
            slopes=slopes,
            intercepts=intercepts,
        )
        return
    gram_star = dense.T @ (dense * slopes[:, None])
    moment_star = dense.T @ (intercepts * y)
    eigen = eigendecompose(gram_star)
    store.frozen = FrozenProvenance(
        t_s=t_s,
        weights_at_ts_available=True,
        slopes=slopes,
        intercepts=intercepts,
        gram=gram_star,
        moment=moment_star,
        eigenvectors=eigen.eigenvectors,
        eigenvalues=eigen.eigenvalues,
    )


def _freeze_multinomial(
    store: ProvenanceStore,
    objective: MultinomialLogisticObjective,
    features,
    labels: np.ndarray,
    w: np.ndarray,
    t_s: int,
    max_dense_params: int,
) -> None:
    """Multinomial frozen state; dense eigen tail only for small ``qm``."""
    q = objective.n_classes
    n_features = features.shape[1]
    if q * n_features > max_dense_params:
        return  # fall back to plain PrIU for the whole trajectory
    dense = np.asarray(features, dtype=float)
    probs = objective.probabilities(w, dense)
    wx = dense @ w.reshape(q, n_features).T
    y = np.asarray(labels, dtype=int)
    moment_star = _multinomial_moment(probs, wx, y, dense)
    gram_star = -multinomial_gram(probs, dense)
    eigen = eigendecompose(gram_star)
    store.frozen = FrozenProvenance(
        t_s=t_s,
        weights_at_ts_available=True,
        probabilities=probs,
        wx=wx,
        gram=gram_star,
        moment=moment_star.ravel(),
        eigenvectors=eigen.eigenvectors,
        eigenvalues=eigen.eigenvalues,
    )
