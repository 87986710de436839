"""Plan maintenance: bounded state under commit churn (ISSUE 5 tentpole).

The acceptance property: after ≥50 commits with interleaved maintenance
(all 3 tasks × dense/SVD/sparse), plan nbytes and SVD factor widths are
*bounded* — re-pack returns the plan to a freshly compiled footprint and
re-truncation caps factor widths at the operator's numerical rank — while
served answers keep matching a never-maintained reference at atol 1e-10.
Around that sit unit tests for the accounting (`MaintenanceCost`), the
policy thresholds, lazy PrIU-opt eigen refresh, audit receipts, and the
checkpoint round-trip of maintained *and* still-dirty state.
"""

import numpy as np
import pytest

from repro import IncrementalTrainer, MaintenancePolicy
from repro.core.maintenance import MaintenanceCost
from repro.core.provenance_store import remap_surviving_ids
from repro.core.replay_plan import ReplayPlan
from repro.datasets import (
    make_binary_classification,
    make_multiclass_classification,
    make_regression,
    make_sparse_binary_classification,
)

ATOL = 1e-10

_DATASETS = {
    "linear": make_regression(300, 8, noise=0.05, seed=181),
    "binary_logistic": make_binary_classification(300, 10, separation=1.0, seed=182),
    "multinomial_logistic": make_multiclass_classification(
        330, 12, n_classes=3, seed=183
    ),
}
_SPARSE = make_sparse_binary_classification(400, 120, density=0.05, seed=184)

CONFIGS = [
    ("linear", "dense", dict(batch_size=40)),
    ("linear", "svd", dict(batch_size=6)),
    ("binary_logistic", "dense", dict(batch_size=40)),
    ("binary_logistic", "svd", dict(batch_size=8)),
    ("multinomial_logistic", "dense", dict(batch_size=40)),
    ("multinomial_logistic", "svd", dict(batch_size=8)),
    ("linear", "sparse", dict(batch_size=40)),
    ("binary_logistic", "sparse", dict(batch_size=40)),
]


def _fit(task: str, rep: str, overrides: dict, **extra) -> IncrementalTrainer:
    data = _SPARSE if rep == "sparse" else _DATASETS[task]
    kwargs = dict(
        learning_rate=0.05,
        regularization=0.01,
        batch_size=40,
        n_iterations=80,
        seed=0,
        method="priu",
        n_classes=3 if task == "multinomial_logistic" else None,
    )
    kwargs.update(overrides)
    kwargs.update(extra)
    trainer = IncrementalTrainer(task, **kwargs)
    trainer.fit(data.features, data.labels)
    return trainer


def _churn(trainer, rng, n_commits, maintain_every=None, per_commit=2):
    """Commit `n_commits` random small batches, optionally maintaining."""
    for i in range(n_commits):
        ids = np.sort(
            rng.choice(trainer.n_samples, size=per_commit, replace=False)
        )
        trainer.remove(ids, method="priu", commit=True)
        if maintain_every is not None and (i + 1) % maintain_every == 0:
            trainer.maintain()


# -------------------------------------------------------------- accounting
class TestMaintenanceCost:
    def test_fresh_trainer_is_clean(self):
        trainer = _fit("multinomial_logistic", "svd", dict(batch_size=8))
        cost = trainer.maintenance_cost()
        assert cost.clean
        assert cost.slot_garbage_rows == 0
        assert cost.svd_correction_columns == 0
        assert cost.stale_eigen == 0

    def test_commits_accumulate_garbage(self):
        trainer = _fit("multinomial_logistic", "svd", dict(batch_size=8))
        rng = np.random.default_rng(0)
        _churn(trainer, rng, n_commits=5)
        cost = trainer.maintenance_cost()
        assert cost.slot_garbage_rows > 0  # multinomial slot map grew
        assert cost.svd_correction_columns > 0  # SVD factors widened
        assert cost.svd_widened_summaries > 0
        assert 0.0 < cost.slot_garbage_fraction < 1.0
        assert not cost.clean

    def test_binary_commits_widen_svd_but_leave_no_slot_garbage(self):
        trainer = _fit("binary_logistic", "svd", dict(batch_size=8))
        rng = np.random.default_rng(1)
        _churn(trainer, rng, n_commits=4)
        cost = trainer.maintenance_cost()
        assert cost.slot_garbage_rows == 0  # binary flats compact physically
        assert cost.svd_correction_columns > 0

    def test_cost_dict_round_trips_fields(self):
        cost = MaintenanceCost(
            slot_garbage_rows=3, slot_physical_rows=10,
            svd_correction_columns=7, svd_max_correction_columns=4,
            svd_widened_summaries=2, stale_eigen=1,
            plan_nbytes=100, store_nbytes=200,
        )
        data = cost.as_dict()
        assert data["slot_garbage_fraction"] == pytest.approx(0.3)
        assert data["stale_eigen"] == 1 and not cost.clean


class TestMaintenancePolicyThresholds:
    def test_zero_thresholds_mark_everything_due(self):
        cost = MaintenanceCost(
            slot_garbage_rows=1, slot_physical_rows=10,
            svd_correction_columns=1, svd_max_correction_columns=1,
            svd_widened_summaries=1, stale_eigen=1,
        )
        assert MaintenancePolicy().due(cost) == ("svd", "repack", "eigen")

    def test_thresholds_gate_each_task(self):
        cost = MaintenanceCost(
            slot_garbage_rows=5, slot_physical_rows=100,
            svd_correction_columns=8, svd_max_correction_columns=4,
            svd_widened_summaries=2, stale_eigen=1,
        )
        policy = MaintenancePolicy(
            max_slot_garbage_rows=10,  # 5 <= 10: repack not due
            max_svd_correction_columns=4,  # 4 <= 4: svd not due
            refresh_stale_eigen=False,
        )
        assert policy.due(cost) == ()
        assert MaintenancePolicy(max_slot_garbage_fraction=0.10).due(cost) == (
            "svd",
            "eigen",
        )  # garbage fraction 0.05 below the 10% bar

    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ValueError):
            MaintenancePolicy(max_slot_garbage_rows=-1)
        with pytest.raises(ValueError):
            MaintenancePolicy(max_slot_garbage_fraction=1.5)
        with pytest.raises(ValueError):
            MaintenancePolicy(svd_epsilon=-0.1)
        with pytest.raises(ValueError):
            MaintenancePolicy(eigen_correction_limit=-2)


# ------------------------------------------------------------------ repack
class TestRepack:
    def test_repack_is_bit_identical_and_frees_bytes(self):
        # batch_size 40 > n_features keeps the summaries genuinely dense
        # (smaller batches auto-compress to SVD, whose re-truncation is
        # machine-precision rather than bit-exact).
        trainer = _fit("multinomial_logistic", "dense", dict(batch_size=40))
        rng = np.random.default_rng(2)
        _churn(trainer, rng, n_commits=6)
        cost = trainer.maintenance_cost()
        assert cost.slot_garbage_rows > 0
        probe = np.arange(5, dtype=np.int64)
        before = trainer.remove(probe, method="priu").weights
        bytes_before = trainer.plan_nbytes()
        report = trainer.maintain(
            MaintenancePolicy(refresh_stale_eigen=False)
        )
        assert "repack" in report.performed
        assert report.repack["garbage_rows"] == cost.slot_garbage_rows
        assert report.repack["bytes_freed"] > 0
        assert trainer.plan_nbytes() < bytes_before
        after = trainer.remove(probe, method="priu").weights
        assert np.array_equal(before, after)  # bit-identical, not allclose
        assert trainer.maintenance_cost().slot_garbage_rows == 0

    def test_repacked_plan_matches_fresh_compile_footprint(self):
        maintained = _fit("multinomial_logistic", "dense", dict(batch_size=40))
        _churn(maintained, np.random.default_rng(3), n_commits=5)
        maintained.maintain()
        fresh = ReplayPlan(
            maintained.store, maintained.features, maintained.labels
        )
        assert maintained.plan_nbytes() == fresh.nbytes()


# ------------------------------------------------------------- retruncation
class TestSvdRetruncation:
    def test_exact_retruncation_bounds_widths_and_preserves_answers(self):
        trainer = _fit("binary_logistic", "svd", dict(batch_size=8))
        rng = np.random.default_rng(4)
        _churn(trainer, rng, n_commits=6)
        widths_before = [
            r.summary.rank for r in trainer.store.records if r.summary is not None
        ]
        probe = np.arange(4, dtype=np.int64)
        before = trainer.remove(probe, method="priu").weights
        report = trainer.maintain()
        assert "svd" in report.performed
        assert report.svd["summaries"] > 0
        assert report.svd["columns_after"] < report.svd["columns_before"]
        # Exact mode: the dropped tail is numerically zero.
        assert report.svd["max_relative_error"] < 1e-12
        widths_after = [
            r.summary.rank for r in trainer.store.records if r.summary is not None
        ]
        assert max(widths_after) <= max(widths_before)
        # Width is capped by the operator's rank bound: the (remaining)
        # batch rows span it, so rank <= batch size + epsilon leakage.
        m = trainer.store.n_features
        assert max(widths_after) <= m
        after = trainer.remove(probe, method="priu").weights
        np.testing.assert_allclose(after, before, atol=ATOL, rtol=0.0)

    def test_lossy_epsilon_shrinks_more_and_surfaces_bound(self):
        exact = _fit("binary_logistic", "svd", dict(batch_size=8))
        lossy = _fit("binary_logistic", "svd", dict(batch_size=8))
        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        _churn(exact, rng_a, n_commits=5)
        _churn(lossy, rng_b, n_commits=5)
        exact_report = exact.maintain()
        lossy_report = lossy.maintain(
            MaintenancePolicy(svd_epsilon=lossy.epsilon)
        )
        assert (
            lossy_report.svd["columns_after"]
            <= exact_report.svd["columns_after"]
        )
        # The lossy bound is real and reported; the answers stay within
        # the paper's O(epsilon) envelope.
        assert lossy_report.svd["max_error_bound"] >= 0.0
        probe = np.arange(4, dtype=np.int64)
        dev = np.max(
            np.abs(
                lossy.remove(probe, method="priu").weights
                - exact.remove(probe, method="priu").weights
            )
        )
        assert dev < 0.05

    def test_incremental_and_full_retruncation_agree(self):
        """svd_incremental=True folds few appended columns into the
        retained factors; answers match the forced-full path at the
        commit contract and the receipt says which path each took."""
        fast = _fit("binary_logistic", "svd", dict(batch_size=8))
        slow = _fit("binary_logistic", "svd", dict(batch_size=8))
        rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
        _churn(fast, rng_a, n_commits=2)
        _churn(slow, rng_b, n_commits=2)
        fast_report = fast.maintain()  # default policy: incremental on
        slow_report = slow.maintain(MaintenancePolicy(svd_incremental=False))
        assert fast_report.svd["incremental_updates"] > 0
        assert slow_report.svd["incremental_updates"] == 0
        assert slow_report.svd["full_updates"] == slow_report.svd["summaries"]
        assert (
            fast_report.svd["incremental_updates"]
            + fast_report.svd["full_updates"]
            == fast_report.svd["summaries"]
        )
        assert fast_report.svd["columns_after"] == (
            slow_report.svd["columns_after"]
        )
        probe = np.arange(5, dtype=np.int64)
        np.testing.assert_allclose(
            fast.remove(probe, method="priu").weights,
            slow.remove(probe, method="priu").weights,
            atol=ATOL, rtol=0.0,
        )

    def test_plan_resyncs_and_keeps_matching_uncompiled_path(self):
        trainer = _fit("multinomial_logistic", "svd", dict(batch_size=8))
        rng = np.random.default_rng(6)
        _churn(trainer, rng, n_commits=4)
        trainer.maintain()
        probe = np.arange(6, dtype=np.int64)
        via_plan = trainer.remove(probe, method="priu").weights
        via_seq = trainer.remove(probe, method="priu-seq").weights
        np.testing.assert_allclose(via_plan, via_seq, atol=ATOL, rtol=0.0)


# --------------------------------------------------------------- lazy eigen
class TestLazyEigen:
    def test_linear_commit_defers_then_refreshes_exactly(self):
        trainer = _fit("linear", "dense", dict(batch_size=40), method="auto")
        assert trainer._opt is not None
        trainer.remove([3, 17], method="priu", commit=True)
        assert trainer._opt.eigen_stale
        assert trainer.maintenance_cost().stale_eigen == 1
        # The lazy refresh recomputes from the exactly-downdated gram, so
        # the answer matches an eager from-scratch updater.
        got = trainer.remove([5, 6], method="priu-opt").weights
        assert not trainer._opt.eigen_stale
        from repro.core.priu_opt import PrIUOptLinearUpdater

        eager = PrIUOptLinearUpdater(
            trainer.features, trainer.labels, trainer.n_iterations,
            trainer.learning_rate, trainer.regularization,
        )
        np.testing.assert_allclose(
            got, eager.update([5, 6]), atol=1e-8, rtol=0.0
        )

    def test_logistic_commit_defers_frozen_eigen(self):
        trainer = _fit(
            "binary_logistic", "dense", dict(batch_size=40), method="auto"
        )
        assert trainer._opt is not None
        trainer.remove([3, 40, 90], method="priu", commit=True)
        frozen = trainer.store.frozen
        assert frozen.eigen_stale
        assert frozen.pending_rows is not None
        assert trainer.maintenance_cost().stale_eigen == 1
        exact = trainer.remove([5, 6], method="priu").weights
        approx = trainer.remove([5, 6], method="priu-opt").weights
        assert not frozen.eigen_stale  # first opt update discharged it
        assert frozen.pending_rows is None
        assert float(np.max(np.abs(exact - approx))) < 0.05

    def test_maintain_discharges_eigen_without_a_query(self):
        trainer = _fit(
            "binary_logistic", "dense", dict(batch_size=40), method="auto"
        )
        trainer.remove([3, 40], method="priu", commit=True)
        report = trainer.maintain()
        assert "eigen" in report.performed
        assert report.eigen["refreshed"].get("opt") == "recompute"
        assert not trainer.store.frozen.eigen_stale
        assert trainer.maintenance_cost().stale_eigen == 0

    def test_correction_mode_used_below_limit_and_stays_in_envelope(self):
        exact = _fit(
            "binary_logistic", "dense", dict(batch_size=40), method="auto"
        )
        corrected = _fit(
            "binary_logistic", "dense", dict(batch_size=40), method="auto",
            eigen_correction_limit=8,
        )
        exact.remove([7, 8], method="priu", commit=True)
        corrected.remove([7, 8], method="priu", commit=True)
        exact_report = exact.maintain()
        corrected_report = corrected.maintain(
            MaintenancePolicy(eigen_correction_limit=8)
        )
        assert exact_report.eigen["refreshed"]["opt"] == "recompute"
        assert corrected_report.eigen["refreshed"]["opt"] == "correction"
        probe = [11, 12]
        dev = np.max(
            np.abs(
                exact.remove(probe, method="priu-opt").weights
                - corrected.remove(probe, method="priu-opt").weights
            )
        )
        assert dev < 0.05  # same approximation family, close results


# ---------------------------------------------------------------- receipts
class TestCommitReceipts:
    def test_receipts_record_ids_versions_and_clock_timestamps(self):
        class TickClock:
            def __init__(self):
                self.t = 100.0

            def now(self):
                self.t += 1.0
                return self.t

        trainer = _fit("linear", "dense", dict(batch_size=40), clock=TickClock())
        n0 = trainer.n_samples
        assert trainer.commit_receipts == ()
        trainer.remove([4, 9], method="priu", commit=True)
        trainer.remove([2], method="priu", commit=True)
        receipts = trainer.commit_receipts
        assert [r.index for r in receipts] == [0, 1]
        assert np.array_equal(receipts[0].removed_original_ids, [4, 9])
        # The second commit's ids are original-space: id 2 survived the
        # first commit unshifted (4 and 9 are above it).
        assert np.array_equal(receipts[1].removed_original_ids, [2])
        assert receipts[0].n_samples_before == n0
        assert receipts[0].n_samples_after == n0 - 2
        assert receipts[1].n_samples_after == n0 - 3
        assert receipts[1].timestamp > receipts[0].timestamp >= 101.0
        # Receipt slices tile the deletion log exactly.
        log = trainer.deletion_log
        for receipt in receipts:
            assert np.array_equal(
                log[receipt.log_start:receipt.log_end],
                receipt.removed_original_ids,
            )
        assert receipts[0].as_dict()["removed_original_ids"] == [4, 9]

    def test_receipts_shift_into_original_space(self):
        trainer = _fit("linear", "dense", dict(batch_size=40))
        trainer.remove([0, 1], method="priu", commit=True)
        # Post-commit id 0 is original id 2.
        trainer.remove([0], method="priu", commit=True)
        assert np.array_equal(
            trainer.commit_receipts[1].removed_original_ids, [2]
        )


# ------------------------------------------------------------- round trips
@pytest.mark.parametrize(
    "task,rep,overrides",
    [
        ("binary_logistic", "svd", dict(batch_size=8)),
        ("multinomial_logistic", "svd", dict(batch_size=8)),
        ("linear", "sparse", dict(batch_size=40)),
    ],
)
class TestMaintenanceCheckpoint:
    def test_maintained_state_round_trips(self, task, rep, overrides, tmp_path):
        data = _SPARSE if rep == "sparse" else _DATASETS[task]
        trainer = _fit(task, rep, overrides)
        rng = np.random.default_rng(7)
        _churn(trainer, rng, n_commits=4, maintain_every=2)
        trainer.maintain()
        trainer.save_checkpoint(tmp_path)
        reloaded = IncrementalTrainer.from_checkpoint(
            tmp_path, data.features, data.labels
        )
        # Receipts (the GDPR evidence trail) survive the round trip.
        assert len(reloaded.commit_receipts) == len(trainer.commit_receipts)
        for got, want in zip(reloaded.commit_receipts, trainer.commit_receipts):
            assert np.array_equal(
                got.removed_original_ids, want.removed_original_ids
            )
            assert got.timestamp == want.timestamp
            assert got.n_samples_after == want.n_samples_after
        assert reloaded.maintenance_cost().svd_correction_columns == 0
        probe = np.arange(4, dtype=np.int64)
        np.testing.assert_allclose(
            reloaded.remove(probe, method="priu").weights,
            trainer.remove(probe, method="priu").weights,
            atol=ATOL,
            rtol=0.0,
        )

    def test_unmaintained_garbage_state_round_trips(
        self, task, rep, overrides, tmp_path
    ):
        """Stale counters / pending eigen debt persist and stay serveable."""
        data = _SPARSE if rep == "sparse" else _DATASETS[task]
        trainer = _fit(task, rep, overrides)
        rng = np.random.default_rng(8)
        _churn(trainer, rng, n_commits=3)
        cost = trainer.maintenance_cost()
        trainer.save_checkpoint(tmp_path)
        reloaded = IncrementalTrainer.from_checkpoint(
            tmp_path, data.features, data.labels
        )
        recost = reloaded.maintenance_cost()
        assert recost.svd_correction_columns == cost.svd_correction_columns
        probe = np.arange(4, dtype=np.int64)
        np.testing.assert_allclose(
            reloaded.remove(probe, method="priu").weights,
            trainer.remove(probe, method="priu").weights,
            atol=ATOL,
            rtol=0.0,
        )
        # Maintaining the reloaded trainer reclaims the same garbage.
        report = reloaded.maintain()
        assert reloaded.maintenance_cost().svd_correction_columns == 0
        if cost.svd_correction_columns:
            assert "svd" in report.performed


def test_stale_frozen_eigen_round_trips(tmp_path):
    """The deferred eigen debt survives a checkpoint and refreshes after."""
    data = _DATASETS["binary_logistic"]
    trainer = _fit(
        "binary_logistic", "dense", dict(batch_size=40), method="auto"
    )
    trainer.remove([3, 40, 90], method="priu", commit=True)
    assert trainer.store.frozen.eigen_stale
    trainer.save_checkpoint(tmp_path)
    reloaded = IncrementalTrainer.from_checkpoint(
        tmp_path, data.features, data.labels, method="auto"
    )
    frozen = reloaded.store.frozen
    assert frozen.eigen_stale
    assert np.array_equal(
        frozen.pending_rows, trainer.store.frozen.pending_rows
    )
    got = reloaded.remove([5, 6], method="priu-opt").weights
    assert not frozen.eigen_stale
    want = trainer.remove([5, 6], method="priu-opt").weights
    np.testing.assert_allclose(got, want, atol=1e-8, rtol=0.0)


# ------------------------------------------------ the acceptance property
@pytest.mark.parametrize("task,rep,overrides", CONFIGS)
def test_churn_with_interleaved_maintenance_is_bounded_and_exact(
    task, rep, overrides
):
    """≥50 commits with interleaved maintenance: bounded state, exact answers.

    The maintained trainer and a never-maintained reference commit the
    *same* 50 random batches; every 10 commits the maintained one runs
    ``maintain()``.  At the end:

    * answers to a fresh query agree at atol 1e-10 (and with an original
      trainer answering the union — the commit contract composes through
      maintenance);
    * the maintained plan's nbytes equal a freshly compiled plan's (the
      slot map is gone), while SVD factor widths are capped at the
      feature dimension instead of growing linearly with commits.
    """
    maintained = _fit(task, rep, overrides)
    plain = _fit(task, rep, overrides)
    original = _fit(task, rep, overrides)
    rng_a, rng_b = np.random.default_rng(11), np.random.default_rng(11)
    _churn(maintained, rng_a, n_commits=50, maintain_every=10, per_commit=1)
    _churn(plain, rng_b, n_commits=50, per_commit=1)
    assert np.array_equal(maintained.deletion_log, plain.deletion_log)

    # Fresh query: maintained == never-maintained == original-with-union.
    rng = np.random.default_rng(99)
    committed = np.sort(maintained.deletion_log)
    survivors = np.setdiff1d(np.arange(original.n_samples), committed)
    query_old = np.sort(rng.choice(survivors, size=5, replace=False))
    query_new = remap_surviving_ids(query_old, committed)
    got = maintained.remove(query_new, method="priu").weights
    plain_answer = plain.remove(query_new, method="priu").weights
    np.testing.assert_allclose(got, plain_answer, atol=ATOL, rtol=0.0)
    want = original.remove(
        np.union1d(committed, query_old), method="priu"
    ).weights
    np.testing.assert_allclose(got, want, atol=ATOL, rtol=0.0)

    # Boundedness: the maintained plan equals a fresh compile's footprint.
    maintained.maintain()
    fresh = ReplayPlan(maintained.store, maintained.features, maintained.labels)
    assert maintained.plan_nbytes() == fresh.nbytes()
    assert maintained.maintenance_cost().slot_garbage_rows == 0

    if rep == "svd":
        widths = [
            r.summary.rank
            for r in maintained.store.records
            if r.summary is not None
        ]
        plain_widths = [
            r.summary.rank
            for r in plain.store.records
            if r.summary is not None
        ]
        n_params = (
            maintained.store.n_features * maintained.store.n_classes
            if task == "multinomial_logistic"
            else maintained.store.n_features
        )
        # Re-truncation caps widths at the operator dimension; the
        # unmaintained trainer's widths grew past it.
        assert max(widths) <= n_params
        assert max(plain_widths) > max(widths)
        assert maintained.maintenance_cost().svd_correction_columns == 0
