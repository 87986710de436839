"""Unit tests for truncated SVD summaries (Theorems 6/8 machinery)."""

import copy
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg import (
    retruncate_summary,
    select_rank,
    spectral_mass_ratio,
    truncate_from_samples,
    truncate_summary,
)
from repro.linalg.svd import (
    GROWTH_HEADROOM,
    TruncatedSummary,
    summary_from_factor_pair,
)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def low_rank_gram(rng, m=20, rank=4, scale=None):
    basis = rng.standard_normal((m, rank))
    if scale is not None:
        basis *= scale
    return basis @ basis.T


class TestSelectRank:
    def test_flat_spectrum_keeps_everything(self):
        s = np.ones(5)
        assert select_rank(s, 0.01) == 5

    def test_decaying_spectrum_truncates(self):
        s = np.array([1.0, 0.5, 0.001, 0.0001])
        assert select_rank(s, 0.01) == 2

    def test_zero_matrix(self):
        assert select_rank(np.zeros(3), 0.01) == 1

    def test_rank_at_least_one(self):
        assert select_rank(np.array([1.0, 1e-9]), 0.5) >= 1


class TestTruncateSummary:
    def test_low_rank_matrix_reconstructs_exactly(self, rng):
        gram = low_rank_gram(rng, m=15, rank=3)
        summary = truncate_summary(gram, epsilon=1e-10)
        assert summary.rank <= 4  # rank 3 + tolerance
        assert np.allclose(summary.reconstruct(), gram, atol=1e-8)

    def test_eigen_form_matches_the_truncated_svd(self, rng):
        gram = low_rank_gram(rng, m=12, rank=5)
        summary = truncate_summary(gram, epsilon=1e-10)
        u, s, vt = np.linalg.svd(gram)
        rank = summary.rank
        assert summary.weights.shape == (rank,)
        np.testing.assert_allclose(
            np.abs(summary.weights), s[:rank], rtol=1e-10
        )
        assert np.allclose(
            summary.reconstruct(), (u[:, :rank] * s[:rank]) @ vt[:rank], atol=1e-8
        )

    def test_apply_equals_reconstruct_matvec(self, rng):
        gram = low_rank_gram(rng, m=10, rank=3)
        summary = truncate_summary(gram, epsilon=1e-12)
        v = rng.standard_normal(10)
        assert np.allclose(summary.apply(v), gram @ v, atol=1e-8)

    @pytest.mark.parametrize("k", [1, 3, 4])
    def test_apply_takes_a_block_of_vectors(self, rng, k):
        # k = 4 equals the rank: a broadcast along the wrong axis would
        # still run, and scale the wrong entries.
        gram = low_rank_gram(rng, m=10, rank=4)
        summary = truncate_summary(gram, epsilon=1e-12)
        assert summary.rank == 4
        block = rng.standard_normal((10, k))
        np.testing.assert_allclose(
            summary.apply(block), gram @ block, atol=1e-10, rtol=0.0
        )

    def test_max_rank_cap(self, rng):
        gram = low_rank_gram(rng, m=10, rank=8)
        summary = truncate_summary(gram, epsilon=1e-12, max_rank=2)
        assert summary.rank == 2

    def test_mass_ratio_criterion(self, rng):
        """Theorem 6 condition: kept spectral mass ratio >= 1 - eps."""
        scales = np.array([10.0, 5.0, 1.0, 0.01, 0.001])
        gram = low_rank_gram(rng, m=20, rank=5, scale=scales)
        summary = truncate_summary(gram, epsilon=0.05)
        assert spectral_mass_ratio(gram, summary) >= 0.95

    def test_non_square_rejected(self, rng):
        with pytest.raises(ValueError):
            truncate_summary(rng.standard_normal((3, 4)))

    def test_negative_eigenvalues_preserved(self, rng):
        """Logistic summaries Σ a_i x_i x_iᵀ are negative semi-definite."""
        basis = rng.standard_normal((8, 3))
        gram = -(basis @ basis.T)
        summary = truncate_summary(gram, epsilon=1e-10)
        assert np.allclose(summary.reconstruct(), gram, atol=1e-8)


class TestTruncateFromSamples:
    def test_matches_dense_route_tall_block(self, rng):
        rows = rng.standard_normal((30, 8))
        weights = rng.uniform(0.5, 2.0, size=30)
        factored = truncate_from_samples(rows, weights, epsilon=1e-12)
        dense = rows.T @ (rows * weights[:, None])
        assert np.allclose(factored.reconstruct(), dense, atol=1e-8)

    def test_matches_dense_route_wide_block(self, rng):
        """B < m: the thin-SVD path PrIU uses when batches are small."""
        rows = rng.standard_normal((5, 20))
        weights = rng.uniform(0.5, 2.0, size=5)
        factored = truncate_from_samples(rows, weights, epsilon=1e-12)
        dense = rows.T @ (rows * weights[:, None])
        assert factored.rank <= 5
        assert np.allclose(factored.reconstruct(), dense, atol=1e-8)

    def test_negative_weights(self, rng):
        rows = rng.standard_normal((4, 12))
        weights = np.array([-0.5, -0.1, -0.9, -0.2])
        factored = truncate_from_samples(rows, weights, epsilon=1e-12)
        dense = rows.T @ (rows * weights[:, None])
        assert np.allclose(factored.reconstruct(), dense, atol=1e-8)

    def test_mixed_sign_weights(self, rng):
        rows = rng.standard_normal((6, 10))
        weights = np.array([1.0, -1.0, 0.5, -0.5, 2.0, -0.1])
        factored = truncate_from_samples(rows, weights, epsilon=1e-12)
        dense = rows.T @ (rows * weights[:, None])
        assert np.allclose(factored.reconstruct(), dense, atol=1e-8)

    def test_default_weights_are_ones(self, rng):
        rows = rng.standard_normal((4, 9))
        factored = truncate_from_samples(rows, epsilon=1e-12)
        assert np.allclose(factored.reconstruct(), rows.T @ rows, atol=1e-8)

    def test_weight_length_mismatch(self, rng):
        with pytest.raises(ValueError):
            truncate_from_samples(rng.standard_normal((4, 3)), np.ones(5))

    def test_nbytes_accounts_factors(self, rng):
        rows = rng.standard_normal((3, 6))
        summary = truncate_from_samples(rows, epsilon=1e-12)
        expected = summary.right.nbytes + summary.weights.nbytes
        assert summary.nbytes() == expected

    def test_truncation_reduces_rank_on_decaying_spectrum(self, rng):
        # Rows drawn with strongly decaying directions compress hard.
        scales = np.array([10.0**-k for k in range(10)])
        rows = rng.standard_normal((50, 10)) * scales
        summary = truncate_from_samples(rows, epsilon=0.01)
        assert summary.rank < 6


class TestRetruncateSummary:
    """ε-re-truncation of commit-widened factor pairs (maintenance)."""

    def _widened(self, rng, m=12, base_rank=4, extra=30):
        """A low-rank summary with exact rank-1 corrections appended —
        the shape ProvenanceStore.compact leaves behind."""
        from repro.linalg import retruncate_summary, truncate_summary

        gram_matrix = low_rank_gram(rng, m=m, rank=base_rank)
        summary = truncate_summary(gram_matrix, epsilon=1e-12)
        dense = summary.reconstruct()
        for _ in range(extra):
            row = rng.standard_normal(m) * 0.3
            summary = TruncatedSummary(
                right=np.hstack([summary.right, row[:, None]]),
                weights=np.append(summary.weights, -1.0),
            )
            dense = dense - np.outer(row, row)
        return summary, dense, retruncate_summary

    def test_exact_mode_preserves_operator_to_machine_precision(self, rng):
        summary, dense, retruncate_summary = self._widened(rng)
        assert summary.rank > summary.n_features  # genuinely widened
        result = retruncate_summary(summary)
        assert result.rank_before == summary.rank
        # Width capped at the operator dimension (numerical rank bound).
        assert result.rank_after <= summary.n_features
        np.testing.assert_allclose(
            result.summary.reconstruct(), dense, atol=1e-10, rtol=0.0
        )
        assert result.error_bound <= 1e-10 * max(1.0, result.spectral_norm)
        assert result.error_bound_relative < 1e-12

    def test_lossy_epsilon_truncates_harder_with_exact_bound(self, rng):
        summary, dense, retruncate_summary = self._widened(rng)
        result = retruncate_summary(summary, epsilon=0.05)
        exact = retruncate_summary(summary)
        assert result.rank_after <= exact.rank_after
        # The reported bound is the exact 2-norm distance to the widened
        # operator (largest dropped singular value).
        distance = np.linalg.norm(result.summary.reconstruct() - dense, 2)
        assert distance <= result.error_bound + 1e-8
        assert result.error_bound <= 0.05 * result.spectral_norm + 1e-12

    def test_max_rank_cap_applies(self, rng):
        summary, _, retruncate_summary = self._widened(rng)
        result = retruncate_summary(summary, max_rank=3)
        assert result.summary.rank == 3

    def test_zero_operator_keeps_single_zero_column(self, rng):
        from repro.linalg import TruncatedSummary, retruncate_summary

        summary = TruncatedSummary(right=np.zeros((6, 4)), weights=np.zeros(4))
        result = retruncate_summary(summary)
        assert result.summary.rank == 1
        assert result.error_bound == 0.0
        assert result.error_bound_relative == 0.0
        np.testing.assert_array_equal(
            result.summary.reconstruct(), np.zeros((6, 6))
        )

    def test_already_tight_summary_is_stable(self, rng):
        from repro.linalg import retruncate_summary, truncate_summary

        gram_matrix = low_rank_gram(rng, m=10, rank=3)
        summary = truncate_summary(gram_matrix, epsilon=1e-12)
        result = retruncate_summary(summary)
        assert result.rank_after <= summary.rank
        np.testing.assert_allclose(
            result.summary.reconstruct(),
            summary.reconstruct(),
            atol=1e-10,
            rtol=0.0,
        )


class TestIncrementalRetruncation:
    """Folding appended correction columns into the retained basis."""

    def _widened(self, rng, m=12, base_rank=8, extra=4):
        from repro.linalg import retruncate_summary, truncate_summary

        gram_matrix = low_rank_gram(rng, m=m, rank=base_rank)
        summary = truncate_summary(gram_matrix, epsilon=1e-12)
        dense = summary.reconstruct()
        for _ in range(extra):
            row = rng.standard_normal(m) * 0.3
            summary = TruncatedSummary(
                right=np.hstack([summary.right, row[:, None]]),
                weights=np.append(summary.weights, -1.0),
            )
            dense = dense - np.outer(row, row)
        return summary, dense, retruncate_summary

    def test_incremental_matches_full_at_contract(self, rng):
        summary, dense, retruncate_summary = self._widened(rng, extra=3)
        appended = 3
        incremental = retruncate_summary(summary, appended=appended)
        full = retruncate_summary(summary)
        assert incremental.method == "incremental"
        assert full.method == "qr"
        assert incremental.rank_after == full.rank_after
        np.testing.assert_allclose(
            incremental.summary.reconstruct(), dense, atol=1e-10, rtol=0.0
        )
        np.testing.assert_allclose(
            incremental.summary.reconstruct(),
            full.summary.reconstruct(),
            atol=1e-10, rtol=0.0,
        )

    def test_many_appended_columns_fold_into_the_retained_basis(self, rng):
        # Maintenance folds every record into its retained basis, however
        # many columns commits appended since the last pass.
        summary, dense, retruncate_summary = self._widened(rng, extra=30)
        result = retruncate_summary(summary, appended=30)
        assert result.method == "incremental"
        np.testing.assert_allclose(
            result.summary.reconstruct(), dense, atol=1e-10, rtol=0.0
        )

    def test_appended_none_is_the_full_path(self, rng):
        summary, _, retruncate_summary = self._widened(rng, extra=2)
        assert retruncate_summary(summary, appended=None).method == "qr"

    def test_lossy_epsilon_agrees_between_paths(self, rng):
        summary, _, retruncate_summary = self._widened(rng, extra=3)
        incremental = retruncate_summary(summary, epsilon=0.05, appended=3)
        full = retruncate_summary(summary, epsilon=0.05)
        assert incremental.method == "incremental"
        assert incremental.rank_after == full.rank_after
        np.testing.assert_allclose(
            incremental.summary.reconstruct(),
            full.summary.reconstruct(),
            atol=1e-10, rtol=0.0,
        )

    def test_max_rank_cap_applies_incrementally(self, rng):
        summary, _, retruncate_summary = self._widened(rng, extra=3)
        result = retruncate_summary(summary, max_rank=3, appended=3)
        assert result.method == "incremental"
        assert result.summary.rank == 3

    def test_appended_columns_within_retained_span(self, rng):
        """Corrections that lie inside the retained range-space must not
        inflate the rank — the Gram–Schmidt residual is numerically zero
        and the small core absorbs them."""
        from repro.linalg import retruncate_summary, truncate_summary

        gram_matrix = low_rank_gram(rng, m=10, rank=3)
        summary = truncate_summary(gram_matrix, epsilon=1e-12)
        dense = summary.reconstruct()
        direction = summary.right[:, 0]
        summary = TruncatedSummary(
            right=np.hstack([summary.right, direction[:, None]]),
            weights=np.append(summary.weights, -0.2),
        )
        dense = dense - 0.2 * np.outer(direction, direction)
        result = retruncate_summary(summary, appended=1)
        assert result.method == "incremental"
        assert result.rank_after <= 3
        np.testing.assert_allclose(
            result.summary.reconstruct(), dense, atol=1e-10, rtol=0.0
        )


def _eigen_pair(rng, m, rank, indefinite):
    """A rank-``rank`` symmetric operator in eigen form, as capture writes it."""
    basis, _ = np.linalg.qr(rng.standard_normal((m, rank)))
    values = rng.uniform(0.5, 3.0, rank)
    if indefinite:
        values *= rng.choice([-1.0, 1.0], rank)
    return TruncatedSummary(right=basis, weights=values)


def _with_corrections(rng, summary, n_fresh, n_in_span, n_duplicates):
    """``summary`` widened by corrections ``x_i`` with weights ``c_i`` as a
    commit appends them: fresh rows, rows inside the retained span and
    duplicates of earlier rows, in random order.  Returns the pair, the
    dense operator and the number of appended columns.

    Each correction adds ``c_i ‖x_i‖² ∈ ±[0.01, 0.1]`` to the operator,
    with ``‖x_i‖`` spread over six decades.  That is small next to the
    eigenvalues of at least 0.5 a pair starts from, so no cancellation
    drives the top of the spectrum down to the rounding noise of its
    terms, and the numerical rank is well defined.
    """
    m = summary.n_features
    rows = [rng.standard_normal(m) for _ in range(n_fresh)]
    rows += [summary.right @ rng.standard_normal(summary.rank) for _ in range(n_in_span)]
    rows += [rows[i % len(rows)].copy() for i in range(n_duplicates if rows else 0)]
    # Shuffled, so a rank-deficient residual column can precede the
    # fresh columns whose coefficients a bad residual basis would spoil.
    block = np.array(rows).T.reshape(m, len(rows))[:, rng.permutation(len(rows))]
    scales = 10.0 ** rng.uniform(-3.0, 3.0, len(rows))
    block = block * (scales / np.linalg.norm(block, axis=0))
    weights = rng.uniform(0.01, 0.1, len(rows)) * rng.choice([-1.0, 1.0], len(rows))
    weights /= scales**2
    widened = TruncatedSummary(
        right=np.hstack([summary.right, block]),
        weights=np.concatenate([summary.weights, weights]),
    )
    return widened, widened.reconstruct(), len(rows)


def _numerical_rank(dense, width):
    """The fold's rank rule applied to the dense operator's spectrum."""
    magnitudes = np.abs(np.linalg.eigvalsh(dense))
    tol = max(dense.shape[0], width) * np.finfo(float).eps * magnitudes.max()
    return max(1, int(np.sum(magnitudes > tol)))


def _orthonormality_defect(summary):
    right = summary.right
    return np.linalg.norm(right.T @ right - np.eye(right.shape[1]), 2)


class TestOneSidedFold:
    """The fold orthonormalizes ``right`` alone and diagonalizes a
    symmetric core with ``eigh``, whose eigenvalues are the new weights."""

    @settings(max_examples=80, deadline=None)
    @given(
        m=st.integers(min_value=8, max_value=24),
        rank_fraction=st.floats(min_value=0.1, max_value=0.9),
        n_fresh=st.integers(min_value=0, max_value=12),
        n_in_span=st.integers(min_value=0, max_value=4),
        n_duplicates=st.integers(min_value=0, max_value=4),
        indefinite=st.booleans(),
        count_appended=st.booleans(),
        rounds=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_rank_and_operator_match_the_dense_fold(
        self, m, rank_fraction, n_fresh, n_in_span, n_duplicates,
        indefinite, count_appended, rounds, seed,
    ):
        """Each round widens the previous fold's output and folds again."""
        from repro.linalg import retruncate_summary

        rng = np.random.default_rng(seed)
        summary = _eigen_pair(
            rng, m, max(1, int(rank_fraction * m)), indefinite
        )
        for _ in range(rounds):
            widened, dense, appended = _with_corrections(
                rng, summary, n_fresh, n_in_span, n_duplicates
            )
            result = retruncate_summary(
                widened, appended=appended if count_appended else None
            )
            expected = "incremental" if count_appended and appended else "qr"
            assert result.method == expected
            assert result.rank_after == _numerical_rank(dense, widened.rank)
            np.testing.assert_allclose(
                result.summary.reconstruct(), dense, atol=1e-10, rtol=0.0
            )
            assert result.summary.weights.shape == (result.rank_after,)
            # Rounding leaves about 1e-14 here; a residual basis that is
            # not orthogonal to the retained one shows up above 1e-13.
            assert _orthonormality_defect(result.summary) <= 1e-13
            summary = result.summary

    def test_fifty_widen_and_fold_rounds_stay_orthonormal(self, rng):
        from repro.linalg import retruncate_summary

        summary = _eigen_pair(rng, 30, 8, indefinite=True)
        for round_ in range(50):
            summary, dense, appended = _with_corrections(
                rng, summary, n_fresh=int(rng.integers(0, 4)),
                n_in_span=round_ % 2, n_duplicates=int(round_ % 3 == 0),
            )
            result = retruncate_summary(summary, appended=appended)
            summary = result.summary
            np.testing.assert_allclose(
                summary.reconstruct(), dense, atol=1e-10, rtol=0.0
            )
            assert _orthonormality_defect(summary) <= 1e-12

    @pytest.mark.parametrize("gap", [1e-5, 1e-8, 1e-10, 1e-12])
    def test_nearly_parallel_corrections_stay_orthonormal(self, rng, gap):
        """Two corrections ``gap`` apart leave a residual direction with a
        singular value near ``gap``; the fold keeps it orthogonal to the
        retained basis and to rounding."""
        from repro.linalg import retruncate_summary

        summary = _eigen_pair(rng, 40, 10, indefinite=True)
        base = rng.standard_normal(40)
        block = np.stack(
            [base, base + gap * rng.standard_normal(40), rng.standard_normal(40)],
            axis=1,
        )
        weights = np.array([-0.7, -0.3, 0.4])
        widened = TruncatedSummary(
            right=np.hstack([summary.right, block]),
            weights=np.concatenate([summary.weights, weights]),
        )
        dense = widened.reconstruct()
        result = retruncate_summary(widened, appended=3)
        assert result.rank_after == _numerical_rank(dense, widened.rank)
        np.testing.assert_allclose(
            result.summary.reconstruct(), dense, atol=1e-10, rtol=0.0
        )
        assert _orthonormality_defect(result.summary) <= 1e-12



class TestFactorPairs:
    """Pre-v4 checkpoints hold ``(P, V)`` with ``P = V · diag(λ)``;
    :func:`summary_from_factor_pair` recovers the eigen form."""

    @pytest.mark.parametrize("m", [12, 40, 940])
    def test_products_come_back_bit_for_bit(self, rng, m):
        basis, _ = np.linalg.qr(rng.standard_normal((m, 12)))
        weights = rng.standard_normal(12) * 10.0 ** rng.uniform(-12, 12, 12)
        weights[3] = 0.0
        weights[5] = -1.0  # a linear commit's correction weight
        right = np.hstack([basis, rng.standard_normal((m, 4)) * 0.3])
        weights = np.concatenate([weights, -rng.uniform(0.05, 0.25, 4)])
        summary, folded = summary_from_factor_pair(right * weights, right)
        assert not folded
        assert summary.right is right
        assert np.array_equal(summary.weights, weights)

    def test_captured_and_committed_summaries_come_back_bit_for_bit(self, rng):
        captured = truncate_from_samples(
            rng.standard_normal((6, 30)), -rng.uniform(0.1, 1.0, 6),
            epsilon=1e-12,
        )
        rows = rng.standard_normal((30, 3))
        widened, _ = captured.widened(rows, -rng.uniform(0.05, 0.25, 3))
        for summary in (captured, widened):
            legacy = summary.right * summary.weights
            restored, folded = summary_from_factor_pair(legacy, summary.right)
            assert not folded
            assert np.array_equal(restored.weights, summary.weights)
            assert np.array_equal(restored.right, summary.right)

    def test_legacy_two_sided_pair_is_folded_once(self, rng):
        """``U·S`` / ``V`` of an indefinite operator with a ±5 eigenvalue
        pair (the shape the older two-sided fold wrote), widened by
        corrections, is not a product of its basis; it folds exactly into
        eigen form, at its numerical rank."""
        m = 16
        basis, _ = np.linalg.qr(rng.standard_normal((m, 10)))
        values = np.array([5.0, -5.0, 3.0, -2.0, 1.5, 1.0, -0.8, 0.5, 0.3, -0.2])
        u, s, vt = np.linalg.svd((basis * values) @ basis.T)
        block = rng.standard_normal((m, 4))
        block[:, 3] = vt[0] * 2.0  # inside the retained span
        weights = rng.uniform(0.01, 0.1, 4) * np.array([1.0, -1.0, 1.0, -1.0])
        left = np.hstack([u[:, :10] * s[:10], block * weights])
        right = np.hstack([vt[:10].T, block])
        dense = left @ right.T
        summary, folded = summary_from_factor_pair(left, right)
        assert folded
        assert summary.rank == _numerical_rank(dense, right.shape[1]) == 13
        np.testing.assert_allclose(
            summary.reconstruct(), dense, atol=1e-10, rtol=0.0
        )
        assert _orthonormality_defect(summary) <= 1e-13
        # The folded summary is an ordinary one: it widens and folds.
        again = retruncate_summary(summary)
        np.testing.assert_allclose(
            again.summary.reconstruct(), dense, atol=1e-10, rtol=0.0
        )

    def test_a_pair_that_is_not_symmetric_is_refused(self, rng):
        """Symmetrizing the core would return a different operator; the
        conversion raises instead."""
        u, s, vt = np.linalg.svd(rng.standard_normal((8, 8)))
        with pytest.raises(ValueError, match="not symmetric"):
            summary_from_factor_pair(u * s, vt.T)
        # e₂e₁ᵀ: its core is symmetric (zero), but ``left`` lies outside
        # the span of ``right``.
        eye = np.eye(3)
        with pytest.raises(ValueError, match="not symmetric"):
            summary_from_factor_pair(eye[:, 1:2], eye[:, :1])

    def test_factors_that_do_not_pair_are_refused(self, rng):
        with pytest.raises(ValueError, match="do not pair"):
            summary_from_factor_pair(
                rng.standard_normal((6, 3)), rng.standard_normal((6, 2))
            )


class TestWidened:
    """Growing a summary's factors in place, and the ownership rule."""

    @staticmethod
    def _columns(rng, m=6, d=2):
        return rng.standard_normal((m, d)), rng.standard_normal(d)

    @staticmethod
    def _summary(rng, m, r):
        return TruncatedSummary(
            right=rng.standard_normal((m, r)), weights=rng.standard_normal(r)
        )

    def _check(self, summary, right, weights):
        assert np.array_equal(summary.right, right)
        assert np.array_equal(summary.weights, weights)

    def test_first_widening_copies_then_appends_in_place(self, rng):
        base = self._summary(rng, 6, 3)
        a_right, a_weights = self._columns(rng)
        grown, copied = base.widened(a_right, a_weights)
        assert copied
        assert grown.right.flags.f_contiguous
        capacity = int(np.ceil(5 * GROWTH_HEADROOM))
        assert grown.right.base.shape[1] == grown.weights.base.shape[0] == capacity
        self._check(
            grown,
            np.hstack([base.right, a_right]),
            np.concatenate([base.weights, a_weights]),
        )
        b_right, b_weights = self._columns(rng, d=1)
        again, copied = grown.widened(b_right, b_weights)
        assert not copied
        assert np.shares_memory(again.right, grown.right)
        assert np.shares_memory(again.weights, grown.weights)
        self._check(
            again,
            np.hstack([base.right, a_right, b_right]),
            np.concatenate([base.weights, a_weights, b_weights]),
        )
        # The earlier reference still reads its own columns.
        self._check(
            grown,
            np.hstack([base.right, a_right]),
            np.concatenate([base.weights, a_weights]),
        )
        assert again.nbytes() == 6 * 6 * 8 + 6 * 8  # live columns only

    def test_full_buffer_copies(self, rng):
        summary = self._summary(rng, 4, 2)
        summary, _ = summary.widened(*self._columns(rng, m=4, d=1))
        capacity = summary.right.base.shape[1]
        while summary.rank < capacity:
            summary, copied = summary.widened(*self._columns(rng, m=4, d=1))
            assert not copied
        right, weights = summary.right.copy(), summary.weights.copy()
        wider, copied = summary.widened(*self._columns(rng, m=4, d=1))
        assert copied
        assert not np.shares_memory(wider.right, summary.right)
        assert not np.shares_memory(wider.weights, summary.weights)
        self._check(summary, right, weights)
        assert np.array_equal(wider.right[:, :capacity], right)
        assert np.array_equal(wider.weights[:capacity], weights)

    def test_stale_and_forked_summaries_never_overwrite_newer_columns(self, rng):
        base = self._summary(rng, 5, 2)
        owner, _ = base.widened(*self._columns(rng, m=5, d=1))
        fork = copy.copy(owner)
        newer, copied = owner.widened(*self._columns(rng, m=5, d=1))
        assert not copied
        newer_right, newer_weights = newer.right.copy(), newer.weights.copy()
        # The old reference, widened again, and its shallow copy both
        # copy: the tail past their width belongs to ``newer``.
        for stale in (owner, fork):
            other, copied = stale.widened(*self._columns(rng, m=5, d=1))
            assert copied
            assert not np.shares_memory(other.right, newer.right)
            self._check(newer, newer_right, newer_weights)
            assert np.array_equal(other.right[:, :3], owner.right)
            assert np.array_equal(other.weights[:3], owner.weights)

    def test_deep_copies_and_pickles_carry_the_view_alone(self, rng):
        base = self._summary(rng, 5, 2)
        owner, _ = base.widened(*self._columns(rng, m=5, d=1))
        for twin in (copy.deepcopy(owner), pickle.loads(pickle.dumps(owner))):
            self._check(twin, owner.right, owner.weights)
            grown, copied = twin.widened(*self._columns(rng, m=5, d=1))
            assert copied
            assert not np.shares_memory(grown.right, owner.right)
        # The original still owns its tail.
        _, copied = owner.widened(*self._columns(rng, m=5, d=1))
        assert not copied

    def test_concurrent_widenings_claim_the_tail_once(self, rng):
        """Threads widening one shared summary: at most one appends in
        place per round, and every result holds exactly its own column."""
        rounds, n_threads = 200, 8
        owners = [
            self._summary(rng, 6, 2).widened(*self._columns(rng, m=6, d=1))[0]
            for _ in range(rounds)
        ]
        columns = [self._columns(rng, m=6, d=1) for _ in range(n_threads)]
        results = [[None] * n_threads for _ in range(rounds)]
        barrier = threading.Barrier(n_threads)

        def work(i):
            for r in range(rounds):
                barrier.wait(timeout=30)
                results[r][i] = owners[r].widened(*columns[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(i,))
                for i in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for owner, outcome in zip(owners, results):
            assert sum(not copied for _, copied in outcome) <= 1
            for (grown, _), (right, weights) in zip(outcome, columns):
                self._check(
                    grown,
                    np.hstack([owner.right, right]),
                    np.concatenate([owner.weights, weights]),
                )
