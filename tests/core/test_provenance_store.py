"""Unit tests for the provenance store and its occurrence index."""

import numpy as np
import pytest

from repro.core import train_with_capture
from repro.core.provenance_store import (
    apply_summary,
    multinomial_gram,
    multinomial_lambdas,
)
from repro.linalg import TruncatedSummary
from repro.models import make_schedule, objective_for


@pytest.fixture(scope="module")
def store():
    from repro.datasets import make_regression

    data = make_regression(120, 6, seed=121)
    objective = objective_for("linear", 0.1)
    schedule = make_schedule(data.n_samples, 12, 40, seed=41)
    _, captured = train_with_capture(
        objective, data.features, data.labels, schedule, 0.01,
    )
    return captured


class TestOccurrenceIndex:
    def test_index_covers_every_batch_slot(self, store):
        index = store.packed_index()
        assert len(index) == sum(len(r.batch) for r in store.records)

    def test_positions_are_correct(self, store):
        index = store.packed_index()
        for sample, t, pos in zip(
            index.samples.tolist(), index.iterations.tolist(),
            index.positions.tolist(),
        ):
            assert store.records[t].batch[pos] == sample

    def test_removed_positions_partition(self, store):
        removed = np.array([0, 5, 11, 50])
        per_iteration = store.removed_positions(removed)
        total = sum(len(ids) for ids, _ in per_iteration.values())
        expected = sum(
            np.isin(record.batch, removed).sum() for record in store.records
        )
        assert total == expected

    def test_removed_positions_alignment(self, store):
        removed = np.array([3, 7])
        for t, (ids, positions) in store.removed_positions(removed).items():
            assert np.array_equal(store.records[t].batch[positions], ids)

    def test_unknown_sample_ignored(self, store):
        assert store.removed_positions(np.array([10_000])) == {}

    def test_index_cached(self, store):
        assert store.packed_index() is store.packed_index()


class TestMemoryAccounting:
    def test_nbytes_positive_and_additive(self, store):
        per_record = sum(record.nbytes() for record in store.records)
        assert store.nbytes() == per_record
        assert store.gigabytes() == pytest.approx(store.nbytes() / 1e9)

    def test_more_iterations_more_memory(self):
        from repro.datasets import make_regression

        data = make_regression(150, 6, seed=122)
        objective = objective_for("linear", 0.1)

        def bytes_for(tau):
            schedule = make_schedule(data.n_samples, 15, tau, seed=42)
            _, captured = train_with_capture(
                objective, data.features, data.labels, schedule, 0.01,
            )
            return captured.nbytes()

        assert bytes_for(60) > bytes_for(20)

    def test_svd_compression_saves_memory_when_low_rank(self):
        from repro.datasets import make_regression

        # Strong spectral decay: truncation pays off.
        data = make_regression(200, 60, seed=123, spectral_decay=1.5)
        objective = objective_for("linear", 0.1)
        schedule = make_schedule(data.n_samples, 30, 20, seed=43)
        _, dense = train_with_capture(
            objective, data.features, data.labels, schedule, 0.01,
            compression="none",
        )
        _, compressed = train_with_capture(
            objective, data.features, data.labels, schedule, 0.01,
            compression="svd", epsilon=0.01,
        )
        assert compressed.nbytes() < dense.nbytes()


class TestApplySummary:
    def test_dense_and_truncated_agree(self):
        rng = np.random.default_rng(4)
        basis = rng.standard_normal((8, 3))
        dense = basis @ basis.T
        from repro.linalg import truncate_summary

        summary = truncate_summary(dense, epsilon=1e-12)
        v = rng.standard_normal(8)
        assert np.allclose(apply_summary(dense, v), apply_summary(summary, v))

    def test_missing_summary_rejected(self):
        with pytest.raises(ValueError):
            apply_summary(None, np.ones(3))


class TestMultinomialHelpers:
    """``Λ_i = diag(p_i) − p_i p_iᵀ`` and ``Σ_i Λ_i ⊗ x_i x_iᵀ``, the
    two pieces every multinomial summary and its commits are built from,
    against their definitions."""

    @staticmethod
    def _softmax_rows(rng, n, q):
        logits = rng.standard_normal((n, q))
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        return probs / probs.sum(axis=1, keepdims=True)

    def test_lambdas_match_the_definition(self):
        rng = np.random.default_rng(3)
        probs = self._softmax_rows(rng, 7, 4)
        lam = multinomial_lambdas(probs)
        assert lam.shape == (7, 4, 4)
        for p, got in zip(probs, lam):
            np.testing.assert_allclose(
                got, np.diag(p) - np.outer(p, p), atol=1e-15, rtol=0
            )
            # Λ_i·1 = 0: the softmax Hessian's null direction.
            np.testing.assert_allclose(got @ np.ones(4), 0.0, atol=1e-15)

    def test_gram_matches_the_kronecker_sum(self):
        rng = np.random.default_rng(4)
        probs = self._softmax_rows(rng, 9, 3)
        rows = rng.standard_normal((9, 5))
        want = sum(
            np.kron(np.diag(p) - np.outer(p, p), np.outer(x, x))
            for p, x in zip(probs, rows)
        )
        got = multinomial_gram(probs, rows)
        assert got.shape == (15, 15)
        np.testing.assert_allclose(got, want, atol=1e-13, rtol=0)
