"""PrIU: the provenance-based incremental update (Sec. 5.1 and 5.3).

Given the provenance store captured during the original training run, an
update for removal set ``R`` replays the iteration space with

    linear (Eq. 13/14):
        ``w ← [(1-ηλ)I - (2η/B_U)(G^(t) - ΔG^(t))] w + (2η/B_U)(d^(t) - Δd^(t))``
    logistic (Eq. 19/20):
        ``w ← [(1-ηλ)I + (η/B_U)(C^(t) - ΔC^(t))] w + (η/B_U)(D^(t) - ΔD^(t))``

where the bulk terms come from the cache (applied through SVD factors in
``O(rm)``) and only the *removed* samples' contributions ``ΔG/ΔC/Δd/ΔD`` are
recomputed, in ``O(ΔB·m)``.  Associativity is exploited throughout: the
update never forms an ``m × m`` product, only matrix–vector ones.

Sparse datasets use the linearized rule (Eq. 11) directly on the sparse
rows — the cached interpolation coefficients eliminate the non-linearity but
no SVD compression is attempted (Sec. 5.3 Discussion).
"""

from __future__ import annotations

import numpy as np

from ..linalg.matrix_utils import is_sparse
from .provenance_store import (
    LinearRecord,
    LogisticRecord,
    MultinomialRecord,
    ProvenanceStore,
    apply_summary,
    multinomial_moment_coefficients,
    normalize_removed_indices,
    refuse_sparse_multinomial,
    validate_removed_indices,
)


class PrIUUpdater:
    """Replays cached provenance to produce the post-deletion model."""

    def __init__(
        self,
        store: ProvenanceStore,
        features,
        labels: np.ndarray,
        w0: np.ndarray | None = None,
    ) -> None:
        self.store = store
        self.features = features
        self.labels = np.asarray(labels)
        self.sparse = is_sparse(features)
        if not self.sparse:
            self.features = np.asarray(features, dtype=float)
        if store.task == "multinomial_logistic":
            n_params = store.n_classes * store.n_features
        else:
            n_params = store.n_features
        self._w0 = np.zeros(n_params) if w0 is None else np.asarray(w0, float)
        # The occurrence index is built lazily by the store (and shared with
        # any compiled ReplayPlan), so constructing several updaters over the
        # same store never builds it twice.

    # ----------------------------------------------------------------- API
    def update(
        self,
        removed_indices,
        stop_at: int | None = None,
        start_weights: np.ndarray | None = None,
        start_iteration: int = 0,
        assume_unique: bool = False,
    ) -> np.ndarray:
        """Model parameters after deleting ``removed_indices``.

        ``stop_at``/``start_*`` support the PrIU-opt two-phase replay.
        ``assume_unique`` skips re-deduplication when the caller (e.g. the
        facade) already normalized the removal set.
        """
        removed = normalize_removed_indices(
            removed_indices, assume_unique=assume_unique
        )
        validate_removed_indices(removed, self.store.n_samples)
        removed_map = self.store.removed_positions(removed)
        w = (self._w0 if start_weights is None else np.asarray(start_weights)).copy()
        end = len(self.store.records) if stop_at is None else stop_at
        step = self._dispatch()
        eta = self.store.learning_rate
        lam = self.store.regularization
        shrink = 1.0 - eta * lam
        for t in range(start_iteration, end):
            record = self.store.records[t]
            hit = removed_map.get(t)
            batch_size = len(record.batch)
            if hit is not None:
                batch_size -= len(hit[0])
            if batch_size <= 0:
                w = shrink * w
                continue
            w = step(record, hit, batch_size, w, eta, shrink)
        return w

    def _dispatch(self):
        refuse_sparse_multinomial(self.store.task, self.sparse)
        if self.store.task == "linear":
            return self._sparse_linear_step if self.sparse else self._linear_step
        if self.store.task == "binary_logistic":
            return self._sparse_binary_step if self.sparse else self._binary_step
        if self.store.task == "multinomial_logistic":
            return self._multinomial_step
        raise ValueError(f"unknown task: {self.store.task}")

    # -------------------------------------------------------------- linear
    def _linear_step(
        self, record: LinearRecord, hit, batch_size, w, eta, shrink
    ) -> np.ndarray:
        gw = apply_summary(record.summary, w)
        d = record.moment
        if hit is not None:
            ids, _ = hit
            rows = self.features[ids]
            gw = gw - rows.T @ (rows @ w)
            d = d - rows.T @ self.labels[ids].astype(float)
        scale = 2.0 * eta / batch_size
        return shrink * w - scale * gw + scale * d

    def _sparse_linear_step(
        self, record: LinearRecord, hit, batch_size, w, eta, shrink
    ) -> np.ndarray:
        surviving = self._surviving(record.batch, hit)
        block = self.features[surviving]
        gw = np.asarray(block.T @ (block @ w)).ravel()
        d = np.asarray(block.T @ self.labels[surviving].astype(float)).ravel()
        scale = 2.0 * eta / batch_size
        return shrink * w - scale * gw + scale * d

    # ------------------------------------------------------------ logistic
    def _binary_step(
        self, record: LogisticRecord, hit, batch_size, w, eta, shrink
    ) -> np.ndarray:
        cw = apply_summary(record.summary, w)
        d = record.moment
        if hit is not None:
            ids, positions = hit
            rows = self.features[ids]
            slopes = record.slopes[positions]
            intercepts = record.intercepts[positions]
            y = self.labels[ids].astype(float)
            cw = cw - rows.T @ (slopes * (rows @ w))
            d = d - rows.T @ (intercepts * y)
        scale = eta / batch_size
        return shrink * w + scale * cw + scale * d

    def _sparse_binary_step(
        self, record: LogisticRecord, hit, batch_size, w, eta, shrink
    ) -> np.ndarray:
        # Equation 11 verbatim on sparse rows: the cached (a, b) coefficients
        # replace the exp() but the batch itself is re-touched.
        if hit is not None:
            _, positions = hit
            mask = np.ones(len(record.batch), dtype=bool)
            mask[positions] = False
            surviving = record.batch[mask]
            slopes = record.slopes[mask]
            intercepts = record.intercepts[mask]
        else:
            surviving = record.batch
            slopes = record.slopes
            intercepts = record.intercepts
        block = self.features[surviving]
        y = self.labels[surviving].astype(float)
        z = np.asarray(block @ w).ravel()
        cw = np.asarray(block.T @ (slopes * z)).ravel()
        d = np.asarray(block.T @ (intercepts * y)).ravel()
        scale = eta / batch_size
        return shrink * w + scale * cw + scale * d

    # --------------------------------------------------------- multinomial
    def _multinomial_step(
        self, record: MultinomialRecord, hit, batch_size, w, eta, shrink
    ) -> np.ndarray:
        q = self.store.n_classes
        m = self.store.n_features
        cw = apply_summary(record.summary, w)
        d = record.moment  # q × m
        if hit is not None:
            ids, positions = hit
            rows = self.features[ids]
            probs = record.probabilities[positions]
            # ΔC^(t) applied to the *current* w: -Σ Λ_i (W x_i) x_iᵀ.
            current = rows @ w.reshape(q, m).T  # ΔB × q
            pu = np.einsum("ik,ik->i", probs, current)
            lam_s = probs * current - probs * pu[:, None]
            delta_cw = -(lam_s.T @ rows)  # q × m
            # ΔD^(t) from the cached training-time state.
            coeff = multinomial_moment_coefficients(
                probs, record.wx[positions], self.labels[ids].astype(int)
            )
            delta_d = coeff.T @ rows  # q × m
            cw = cw - delta_cw.ravel()
            d = d - delta_d
        scale = eta / batch_size
        return shrink * w + scale * cw + scale * d.ravel()

    # ------------------------------------------------------------- helpers
    @staticmethod
    def _surviving(batch: np.ndarray, hit) -> np.ndarray:
        if hit is None:
            return batch
        _, positions = hit
        mask = np.ones(len(batch), dtype=bool)
        mask[positions] = False
        return batch[mask]
