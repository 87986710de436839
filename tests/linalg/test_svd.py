"""Unit tests for truncated SVD summaries (Theorems 6/8 machinery)."""

import copy
import pickle
import sys
import threading

import numpy as np
import pytest

from repro.linalg import (
    select_rank,
    spectral_mass_ratio,
    truncate_from_samples,
    truncate_summary,
)
from repro.linalg.svd import GROWTH_HEADROOM, TruncatedSummary


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

    def test_symmetric_fast_path_agrees(self, rng):
        gram = low_rank_gram(rng, m=12, rank=5)
        dense = truncate_summary(gram, epsilon=1e-10, symmetric=False)
        fast = truncate_summary(gram, epsilon=1e-10, symmetric=True)
        assert np.allclose(dense.reconstruct(), fast.reconstruct(), atol=1e-8)

    def test_apply_equals_reconstruct_matvec(self, rng):
        gram = low_rank_gram(rng, m=10, rank=3)
        summary = truncate_summary(gram, epsilon=1e-12)
        v = rng.standard_normal(10)
        assert np.allclose(summary.apply(v), gram @ v, atol=1e-8)

    def test_max_rank_cap(self, rng):
        gram = low_rank_gram(rng, m=10, rank=8)
        summary = truncate_summary(gram, epsilon=1e-12, max_rank=2)
        assert summary.rank == 2

    def test_mass_ratio_criterion(self, rng):
        """Theorem 6 condition: kept spectral mass ratio >= 1 - eps."""
        scales = np.array([10.0, 5.0, 1.0, 0.01, 0.001])
        gram = low_rank_gram(rng, m=20, rank=5, scale=scales)
        summary = truncate_summary(gram, epsilon=0.05, symmetric=True)
        assert spectral_mass_ratio(gram, summary) >= 0.95

    def test_non_square_rejected(self, rng):
        with pytest.raises(ValueError):
            truncate_summary(rng.standard_normal((3, 4)))

    def test_negative_eigenvalues_preserved(self, rng):
        """Logistic summaries Σ a_i x_i x_iᵀ are negative semi-definite."""
        basis = rng.standard_normal((8, 3))
        gram = -(basis @ basis.T)
        summary = truncate_summary(gram, epsilon=1e-10, symmetric=True)
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
        expected = summary.left.nbytes + summary.right.nbytes
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
        summary = truncate_summary(gram_matrix, epsilon=1e-12, symmetric=True)
        dense = summary.reconstruct()
        for _ in range(extra):
            row = rng.standard_normal(m) * 0.3
            summary = type(summary)(
                left=np.hstack([summary.left, -row[:, None]]),
                right=np.hstack([summary.right, row[:, None]]),
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

        summary = TruncatedSummary(
            left=np.zeros((6, 4)), right=np.zeros((6, 4))
        )
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
        summary = truncate_summary(gram_matrix, epsilon=1e-12, symmetric=True)
        result = retruncate_summary(summary)
        assert result.rank_after <= summary.rank
        np.testing.assert_allclose(
            result.summary.reconstruct(),
            summary.reconstruct(),
            atol=1e-10,
            rtol=0.0,
        )


class TestIncrementalRetruncation:
    """Folding few appended correction columns into retained QR factors."""

    def _widened(self, rng, m=12, base_rank=8, extra=4):
        from repro.linalg import retruncate_summary, truncate_summary

        gram_matrix = low_rank_gram(rng, m=m, rank=base_rank)
        summary = truncate_summary(gram_matrix, epsilon=1e-12, symmetric=True)
        dense = summary.reconstruct()
        for _ in range(extra):
            row = rng.standard_normal(m) * 0.3
            summary = type(summary)(
                left=np.hstack([summary.left, -row[:, None]]),
                right=np.hstack([summary.right, row[:, None]]),
            )
            dense = dense - np.outer(row, row)
        return summary, dense, retruncate_summary

    def test_crossover_rule(self):
        from repro.linalg.svd import incremental_retruncation_wins

        assert incremental_retruncation_wins(retained=10, appended=2)
        assert incremental_retruncation_wins(retained=10, appended=5)
        assert not incremental_retruncation_wins(retained=10, appended=6)
        assert not incremental_retruncation_wins(retained=10, appended=0)
        assert not incremental_retruncation_wins(retained=0, appended=1)

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

    def test_past_crossover_takes_the_full_path(self, rng):
        # 30 appended vs 5 retained: the small-core update would be
        # larger than the whole width — the full thin-QR wins.
        summary, dense, retruncate_summary = self._widened(rng, extra=30)
        result = retruncate_summary(summary, appended=30)
        assert result.method == "qr"
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
        summary = truncate_summary(gram_matrix, epsilon=1e-12, symmetric=True)
        dense = summary.reconstruct()
        direction = summary.left[:, 0] / np.linalg.norm(summary.left[:, 0])
        summary = type(summary)(
            left=np.hstack([summary.left, -0.2 * direction[:, None]]),
            right=np.hstack([summary.right, direction[:, None]]),
        )
        dense = dense - 0.2 * np.outer(direction, direction)
        result = retruncate_summary(summary, appended=1)
        assert result.method == "incremental"
        assert result.rank_after <= 3
        np.testing.assert_allclose(
            result.summary.reconstruct(), dense, atol=1e-10, rtol=0.0
        )


class TestWidened:
    """Growing a summary's factors in place, and the ownership rule."""

    @staticmethod
    def _columns(rng, m=6, d=2):
        return rng.standard_normal((m, d)), rng.standard_normal((m, d))

    def _check(self, summary, left, right):
        assert np.array_equal(summary.left, left)
        assert np.array_equal(summary.right, right)

    def test_first_widening_copies_then_appends_in_place(self, rng):
        base = TruncatedSummary(
            left=rng.standard_normal((6, 3)), right=rng.standard_normal((6, 3))
        )
        a_left, a_right = self._columns(rng)
        grown, copied = base.widened(a_left, a_right)
        assert copied
        assert grown.left.flags.f_contiguous and grown.right.flags.f_contiguous
        assert grown.left.base.shape[1] == int(np.ceil(5 * GROWTH_HEADROOM))
        self._check(
            grown,
            np.hstack([base.left, a_left]),
            np.hstack([base.right, a_right]),
        )
        b_left, b_right = self._columns(rng, d=1)
        again, copied = grown.widened(b_left, b_right)
        assert not copied
        assert np.shares_memory(again.left, grown.left)
        assert np.shares_memory(again.right, grown.right)
        self._check(
            again,
            np.hstack([base.left, a_left, b_left]),
            np.hstack([base.right, a_right, b_right]),
        )
        # The earlier reference still reads its own columns.
        self._check(
            grown,
            np.hstack([base.left, a_left]),
            np.hstack([base.right, a_right]),
        )
        assert again.nbytes() == 2 * 6 * 6 * 8  # live columns only

    def test_full_buffer_copies(self, rng):
        summary = TruncatedSummary(
            left=rng.standard_normal((4, 2)), right=rng.standard_normal((4, 2))
        )
        summary, _ = summary.widened(*self._columns(rng, m=4, d=1))
        capacity = summary.left.base.shape[1]
        while summary.rank < capacity:
            summary, copied = summary.widened(*self._columns(rng, m=4, d=1))
            assert not copied
        left, right = summary.left.copy(), summary.right.copy()
        wider, copied = summary.widened(*self._columns(rng, m=4, d=1))
        assert copied
        assert not np.shares_memory(wider.left, summary.left)
        self._check(summary, left, right)
        assert np.array_equal(wider.left[:, :capacity], left)

    def test_stale_and_forked_summaries_never_overwrite_newer_columns(self, rng):
        base = TruncatedSummary(
            left=rng.standard_normal((5, 2)), right=rng.standard_normal((5, 2))
        )
        owner, _ = base.widened(*self._columns(rng, m=5, d=1))
        fork = copy.copy(owner)
        newer, copied = owner.widened(*self._columns(rng, m=5, d=1))
        assert not copied
        newer_left, newer_right = newer.left.copy(), newer.right.copy()
        # The old reference, widened again, and its shallow copy both
        # copy: the tail past their width belongs to ``newer``.
        for stale in (owner, fork):
            other, copied = stale.widened(*self._columns(rng, m=5, d=1))
            assert copied
            assert not np.shares_memory(other.left, newer.left)
            self._check(newer, newer_left, newer_right)
            assert np.array_equal(other.left[:, :3], owner.left)

    def test_deep_copies_and_pickles_carry_the_view_alone(self, rng):
        base = TruncatedSummary(
            left=rng.standard_normal((5, 2)), right=rng.standard_normal((5, 2))
        )
        owner, _ = base.widened(*self._columns(rng, m=5, d=1))
        for twin in (copy.deepcopy(owner), pickle.loads(pickle.dumps(owner))):
            self._check(twin, owner.left, owner.right)
            grown, copied = twin.widened(*self._columns(rng, m=5, d=1))
            assert copied
            assert not np.shares_memory(grown.left, owner.left)
        # The original still owns its tail.
        _, copied = owner.widened(*self._columns(rng, m=5, d=1))
        assert not copied

    def test_concurrent_widenings_claim_the_tail_once(self, rng):
        """Threads widening one shared summary: at most one appends in
        place per round, and every result holds exactly its own column."""
        rounds, n_threads = 200, 8
        owners = []
        for _ in range(rounds):
            base = TruncatedSummary(
                left=rng.standard_normal((6, 2)),
                right=rng.standard_normal((6, 2)),
            )
            owners.append(base.widened(*self._columns(rng, m=6, d=1))[0])
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
            for (grown, _), (left, right) in zip(outcome, columns):
                self._check(
                    grown,
                    np.hstack([owner.left, left]),
                    np.hstack([owner.right, right]),
                )
