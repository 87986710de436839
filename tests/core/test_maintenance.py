"""Plan maintenance: bounded state under commit churn (ISSUE 5 tentpole).

The acceptance property: after ≥50 commits with interleaved maintenance
(all 3 tasks × dense/SVD/sparse), plan nbytes and SVD factor widths are
*bounded* — re-pack returns the plan to a freshly compiled footprint and
re-truncation caps factor widths at the store's rank bound ``k·min(m, B)``
— while served answers keep matching a never-maintained reference at
atol 1e-10.
Around that sit unit tests for the accounting (`MaintenanceCost`), the
policy thresholds, lazy PrIU-opt eigen refresh, audit receipts, and the
checkpoint round-trip of maintained *and* still-dirty state.
"""

import hashlib
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import IncrementalTrainer, MaintenancePolicy
from repro.core import provenance_store, serialization
from repro.core.maintenance import MaintenanceCost
from repro.core.priu_opt import refresh_frozen_eigen
from repro.core.provenance_store import remap_surviving_ids
from repro.core.replay_plan import ReplayPlan
from repro.linalg.svd import TruncatedSummary
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


#: Two-id commits that drive some records of the B=8 and B=6 SVD
#: fixtures past their rank bound, so an answer-preserving pass folds.
PAST_BOUND_COMMITS = 40


def _churn_past_bound(trainer, rng) -> int:
    """Commit two-id batches until some record is past its rank bound;
    returns how many commits that took."""
    n_commits = 0
    while not trainer.store.svd_excess_columns().any():
        _churn(trainer, rng, n_commits=1)
        n_commits += 1
    return n_commits


def _widths(trainer) -> list[int]:
    return [
        record.summary.rank
        for record in trainer.store.records
        if isinstance(record.summary, TruncatedSummary)
    ]


def _folds_due(trainer) -> set[int]:
    """Records an answer-preserving pass folds: those with excess."""
    return set(np.flatnonzero(trainer.store.svd_excess_columns()).tolist())


# -------------------------------------------------------------- accounting
class TestMaintenanceCost:
    def test_fresh_trainer_is_clean(self):
        trainer = _fit("multinomial_logistic", "svd", dict(batch_size=8))
        cost = trainer.maintenance_cost()
        assert cost.clean
        assert cost.svd_correction_columns == 0
        assert cost.stale_eigen == 0

    def test_commits_accumulate_garbage(self):
        trainer = _fit("multinomial_logistic", "svd", dict(batch_size=8))
        rng = np.random.default_rng(0)
        _churn(trainer, rng, n_commits=5)
        cost = trainer.maintenance_cost()
        assert cost.svd_correction_columns > 0  # SVD factors widened
        assert cost.svd_widened_summaries > 0
        # Below the rank bound an exact fold frees nothing, and commits
        # leave no dead per-sample rows: a bare maintain() has no work.
        assert cost.svd_excess_columns == 0 and cost.clean

    def test_cost_dict_round_trips_fields(self):
        cost = MaintenanceCost(
            svd_correction_columns=7, svd_max_correction_columns=4,
            svd_widened_summaries=2, stale_eigen=1,
            plan_nbytes=100, store_nbytes=200,
        )
        data = cost.as_dict()
        assert data["svd_correction_columns"] == 7
        assert data["stale_eigen"] == 1 and not cost.clean


class TestMaintenancePolicyThresholds:
    def test_zero_thresholds_mark_everything_due(self):
        cost = MaintenanceCost(
            svd_correction_columns=1, svd_max_correction_columns=1,
            svd_widened_summaries=1, svd_excess_columns=1,
            svd_max_excess_columns=1, stale_eigen=1,
        )
        assert MaintenancePolicy().due(cost) == ("svd", "eigen")

    def test_thresholds_gate_each_task(self):
        cost = MaintenanceCost(
            svd_correction_columns=8, svd_max_correction_columns=4,
            svd_widened_summaries=2, svd_excess_columns=8,
            svd_max_excess_columns=4, stale_eigen=1,
        )
        policy = MaintenancePolicy(
            max_svd_correction_columns=4,  # 4 <= 4: svd not due
            refresh_stale_eigen=False,
        )
        assert policy.due(cost) == ()
        # The slot-garbage limits are still accepted and gate nothing.
        assert MaintenancePolicy(
            max_slot_garbage_rows=10, max_slot_garbage_fraction=0.10
        ).due(cost) == ("svd", "eigen")

    def test_exact_policy_reads_excess_and_lossy_policy_reads_appended(self):
        """Widened summaries below their rank bound carry appended
        columns but no excess: an exact fold could free nothing there, a
        lossy one still can."""
        cost = MaintenanceCost(
            svd_correction_columns=9, svd_max_correction_columns=5,
            svd_widened_summaries=3,
        )
        assert cost.clean
        assert MaintenancePolicy().due(cost) == ()
        assert MaintenancePolicy(svd_epsilon=0.01).due(cost) == ("svd",)
        past = MaintenanceCost(
            svd_correction_columns=9, svd_max_correction_columns=5,
            svd_widened_summaries=3, svd_excess_columns=3,
            svd_max_excess_columns=2,
        )
        assert not past.clean
        assert MaintenancePolicy(max_svd_correction_columns=2).due(past) == ()
        assert MaintenancePolicy(max_svd_correction_columns=1).due(past) == (
            "svd",
        )
        assert past.as_dict()["svd_excess_columns"] == 3
        assert past.as_dict()["svd_max_excess_columns"] == 2

    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ValueError):
            MaintenancePolicy(max_slot_garbage_rows=-1)
        with pytest.raises(ValueError):
            MaintenancePolicy(max_slot_garbage_fraction=1.5)
        with pytest.raises(ValueError):
            MaintenancePolicy(svd_epsilon=-0.1)


# ---------------------------------------------------------- no dead rows
class TestCommitsLeaveNoDeadRows:
    def test_committed_plan_matches_fresh_compile_footprint(self):
        """A commit drops the erased rows from the store's columns, so an
        unmaintained multinomial trainer needs no repack: its plan holds
        what a fresh compile holds and its columns only live slots."""
        trainer = _fit("multinomial_logistic", "dense", dict(batch_size=40))
        _churn(trainer, np.random.default_rng(3), n_commits=5)
        fresh = ReplayPlan(trainer.store, trainer.features, trainer.labels)
        assert trainer.plan_nbytes() == fresh.nbytes()
        columns = trainer.store.columns()
        live = len(trainer.store.packed_index())
        assert columns.offsets[-1] == live
        assert all(len(values) == live for values in columns.per_sample())


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
        _churn(exact, rng_a, n_commits=PAST_BOUND_COMMITS)
        _churn(lossy, rng_b, n_commits=PAST_BOUND_COMMITS)
        widened = int(np.count_nonzero(lossy.store.svd_correction_columns))
        exact_report = exact.maintain()
        lossy_report = lossy.maintain(
            MaintenancePolicy(svd_epsilon=lossy.epsilon)
        )
        # The exact pass folds only what it can reclaim; the lossy one
        # folds every widened summary and ends no wider, record by record.
        assert 0 < exact_report.svd["summaries"] < widened
        assert exact_report.svd["below_bound"] == (
            widened - exact_report.svd["summaries"]
        )
        assert lossy_report.svd["summaries"] == widened
        assert lossy_report.svd["below_bound"] == 0
        assert all(
            mine <= theirs
            for mine, theirs in zip(_widths(lossy), _widths(exact))
        )
        assert sum(_widths(lossy)) < sum(_widths(exact))
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
        """Re-truncation folds the appended columns into the retained
        basis; answers match a twin forced onto the full-width path and
        the receipt says which path each took.  Both commit the least
        churn that puts a record past its rank bound."""
        fast = _fit("binary_logistic", "svd", dict(batch_size=8))
        slow = _fit("binary_logistic", "svd", dict(batch_size=8))
        rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
        _churn(slow, rng_b, n_commits=_churn_past_bound(fast, rng_a))
        fast_report = fast.maintain()
        # Count every column of the twin's widened summaries as appended:
        # with no retained block left, each record takes the full-width
        # path.  Widths are unchanged, so the same records are past the
        # bound.
        columns = slow.store.svd_correction_columns
        for t in np.flatnonzero(columns):
            columns[t] = slow.store.records[t].summary.rank
        slow_report = slow.maintain()
        assert slow_report.svd["summaries"] == fast_report.svd["summaries"]
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

    @pytest.mark.parametrize(
        "task,overrides",
        [(task, overrides) for task, rep, overrides in CONFIGS if rep == "svd"],
    )
    def test_fold_leaves_the_plan_current(self, task, overrides):
        """An ε-fold swaps summaries in the store and nothing in the
        trainer's plan, which then answers as a fresh compile does, bit
        for bit, lone and batched."""
        trainer = _fit(task, "svd", overrides)
        _churn(trainer, np.random.default_rng(21), n_commits=4)
        plan = trainer._plan
        held = dict(vars(plan))
        report = trainer.maintain(
            MaintenancePolicy(svd_epsilon=trainer.store.epsilon)
        )
        assert report.svd["summaries"] > 0
        assert vars(plan).keys() == held.keys()
        assert all(vars(plan)[name] is value for name, value in held.items())
        fresh = ReplayPlan(trainer.store, trainer.features, trainer.labels)
        sets = [[0, 5], [3], [7, 8, 9]]
        assert np.array_equal(plan.run(sets), fresh.run(sets))
        assert np.array_equal(plan.run_single([4, 6]), fresh.run_single([4, 6]))

    def test_plan_matches_uncompiled_path_after_maintenance(self):
        trainer = _fit("multinomial_logistic", "svd", dict(batch_size=8))
        rng = np.random.default_rng(6)
        _churn(trainer, rng, n_commits=4)
        trainer.maintain()
        probe = np.arange(6, dtype=np.int64)
        via_plan = trainer.remove(probe, method="priu").weights
        via_seq = trainer.remove(probe, method="priu-seq").weights
        np.testing.assert_allclose(via_plan, via_seq, atol=ATOL, rtol=0.0)

    def test_fold_of_a_mapped_checkpoint_answers_like_memory(self, tmp_path):
        """A store loaded from a checkpoint holds read-only mapped
        factors; the fold reads them, answers like an in-memory twin and
        leaves the archive untouched."""
        data = _DATASETS["binary_logistic"]
        trainer = _fit("binary_logistic", "svd", dict(batch_size=8))
        _churn(
            trainer, np.random.default_rng(11), n_commits=PAST_BOUND_COMMITS
        )
        trainer.save_checkpoint(tmp_path)
        archive = tmp_path / "store.npz"
        digest = hashlib.sha256(archive.read_bytes()).hexdigest()
        mapped = IncrementalTrainer.from_checkpoint(
            tmp_path, data.features, data.labels
        )
        folded = sorted(_folds_due(mapped))
        assert folded == sorted(_folds_due(trainer))
        assert not mapped.store.records[folded[0]].summary.right.flags.writeable
        mapped_report = mapped.maintain()
        memory_report = trainer.maintain()
        assert mapped_report.svd["summaries"] == len(folded)
        assert mapped_report.svd["columns_after"] == (
            memory_report.svd["columns_after"]
        )
        probe = np.arange(4, dtype=np.int64)
        np.testing.assert_allclose(
            mapped.remove(probe, method="priu").weights,
            trainer.remove(probe, method="priu").weights,
            atol=ATOL, rtol=0.0,
        )
        assert hashlib.sha256(archive.read_bytes()).hexdigest() == digest

    def test_a_failed_fold_leaves_the_store_untouched(self, monkeypatch):
        """A fold that raises makes the pass raise before it swaps
        anything in: every record keeps its summary and the store its
        version and correction counts."""
        trainer = _fit("binary_logistic", "svd", dict(batch_size=8))
        rng = np.random.default_rng(15)
        _churn(trainer, rng, n_commits=PAST_BOUND_COMMITS)
        store = trainer.store
        folded = np.flatnonzero(store.svd_excess_columns())
        assert folded.size > 1
        doomed = store.records[folded[-1]].summary
        fold = provenance_store.retruncate_summary
        calls = []

        def failing(summary, **kwargs):
            calls.append(summary)
            if summary is doomed:
                raise ValueError("fold failed")
            return fold(summary, **kwargs)

        monkeypatch.setattr(provenance_store, "retruncate_summary", failing)
        before = [record.summary for record in store.records]
        counts = store.svd_correction_columns.copy()
        version = store._version
        with pytest.raises(ValueError, match="fold failed"):
            store.retruncate_summaries()
        assert len(calls) == folded.size  # the others folded first
        assert all(r.summary is s for r, s in zip(store.records, before))
        np.testing.assert_array_equal(store.svd_correction_columns, counts)
        assert store._version == version

    def test_concurrent_commits_and_passes_lose_no_correction(self):
        """Direct compacts on one thread race passes on another, with a
        short switch interval; every record ends at the operator a
        never-maintained twin store holds."""
        racing = _fit("binary_logistic", "svd", dict(batch_size=8)).store
        twin = _fit("binary_logistic", "svd", dict(batch_size=8)).store
        data = _DATASETS["binary_logistic"]
        rng = np.random.default_rng(14)
        features, labels = data.features, data.labels
        erasures = []
        for _ in range(12):
            ids = np.sort(rng.choice(features.shape[0], size=2, replace=False))
            erasures.append((ids, features, labels))
            features = np.delete(features, ids, axis=0)
            labels = np.delete(labels, ids)
        done = threading.Event()

        def commit_all():
            try:
                for ids, rows, targets in erasures:
                    racing.compact(ids, rows, targets)
            finally:
                done.set()

        def maintain_until_done():
            while not done.is_set():
                racing.retruncate_summaries()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=commit_all),
                threading.Thread(target=maintain_until_done),
                threading.Thread(target=maintain_until_done),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        racing.retruncate_summaries()
        assert not np.any(racing.svd_excess_columns())
        for ids, rows, targets in erasures:
            twin.compact(ids, rows, targets)
        assert np.any(twin.svd_excess_columns())  # the passes had work
        for mine, theirs in zip(racing.records, twin.records):
            if isinstance(theirs.summary, TruncatedSummary):
                np.testing.assert_allclose(
                    mine.summary.reconstruct(), theirs.summary.reconstruct(),
                    atol=ATOL, rtol=0.0,
                )


SVD_CONFIGS = [config for config in CONFIGS if config[1] == "svd"]


class TestRankBound:
    """An answer-preserving fold cannot shrink a summary below its
    operator's rank, at most ``k·min(m, B)``; a pass folds only the
    records widened past that bound."""

    def test_a_lossy_store_below_its_bound_is_left_alone(self):
        trainer = _fit("multinomial_logistic", "svd", dict(batch_size=8))
        store = trainer.store
        assert store.svd_rank_bound() == 2 * 8  # (q − 1) · min(12, 8)
        _churn(trainer, np.random.default_rng(16), n_commits=4)
        cost = trainer.maintenance_cost()
        assert cost.svd_correction_columns > 0
        assert cost.svd_widened_summaries > 0
        assert cost.svd_excess_columns == cost.svd_max_excess_columns == 0
        assert "svd" not in MaintenancePolicy().due(cost)
        summaries = [record.summary for record in store.records]
        version = store._version
        probe = np.arange(5, dtype=np.int64)
        before = trainer.remove(probe, method="priu").weights
        report = trainer.maintain()
        assert "svd" not in report.performed
        assert all(r.summary is s for r, s in zip(store.records, summaries))
        assert store._version == version
        after = trainer.remove(probe, method="priu").weights
        assert np.array_equal(before, after)  # bit-identical
        # A lossy fold still shrinks the same summaries.
        lossy = trainer.maintain(MaintenancePolicy(svd_epsilon=store.epsilon))
        assert "svd" in lossy.performed
        assert lossy.svd["summaries"] == cost.svd_widened_summaries
        assert lossy.svd["columns_after"] < lossy.svd["columns_before"]

    @settings(max_examples=15, deadline=None)
    @given(data=st.data(), config=st.sampled_from(SVD_CONFIGS))
    def test_exact_passes_keep_widths_within_the_bound(self, data, config):
        maintained = _fit(*config)
        plain = _fit(*config)
        bound = maintained.store.svd_rank_bound()
        probe = np.arange(4, dtype=np.int64)
        steps = data.draw(
            st.lists(st.integers(min_value=0, max_value=4), max_size=30)
        )
        for n_ids in steps:
            if n_ids:
                ids = data.draw(
                    st.sets(
                        st.integers(0, maintained.n_samples - 1),
                        min_size=n_ids,
                        max_size=n_ids,
                    )
                )
                ids = np.array(sorted(ids), dtype=np.int64)
                maintained.remove(ids, method="priu", commit=True)
                plain.remove(ids, method="priu", commit=True)
                continue
            maintained.maintain()
            assert max(_widths(maintained)) <= bound
            assert maintained.maintenance_cost().svd_excess_columns == 0
            np.testing.assert_allclose(
                maintained.remove(probe, method="priu").weights,
                plain.remove(probe, method="priu").weights,
                atol=ATOL, rtol=0.0,
            )

    @pytest.mark.parametrize("task,rep,overrides", SVD_CONFIGS)
    def test_checkpoint_round_trip_keeps_bound_and_excess(
        self, task, rep, overrides, tmp_path
    ):
        data = _DATASETS[task]
        trainer = _fit(task, rep, overrides)
        _churn(
            trainer, np.random.default_rng(17), n_commits=PAST_BOUND_COMMITS
        )
        excess = trainer.store.svd_excess_columns()
        assert excess.any()
        trainer.save_checkpoint(tmp_path)
        reloaded = IncrementalTrainer.from_checkpoint(
            tmp_path, data.features, data.labels
        )
        assert reloaded.store.svd_rank_bound() == trainer.store.svd_rank_bound()
        np.testing.assert_array_equal(
            reloaded.store.svd_excess_columns(), excess
        )
        recost = reloaded.maintenance_cost().as_dict()
        cost = trainer.maintenance_cost().as_dict()
        for key in ("svd_correction_columns", "svd_excess_columns",
                    "svd_max_excess_columns"):
            assert recost[key] == cost[key]


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
        assert trainer.maintenance_cost().stale_eigen == 1
        exact = trainer.remove([5, 6], method="priu").weights
        approx = trainer.remove([5, 6], method="priu-opt").weights
        assert not frozen.eigen_stale  # first opt update discharged it
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

    @pytest.mark.parametrize("task", ["binary_logistic", "multinomial_logistic"])
    def test_refresh_recomputes_the_downdated_gram_exactly(self, task):
        """However many commits deferred it, the refresh is a full
        eigendecomposition: the new eigenpairs reproduce the exactly
        downdated gram, and a second refresh has nothing to do."""
        trainer = _fit(task, "dense", dict(batch_size=40), method="auto")
        trainer.remove([3, 40], method="priu", commit=True)
        trainer.remove([7], method="priu", commit=True)
        frozen = trainer.store.frozen
        assert frozen.eigen_stale
        report = trainer.maintain()
        assert report.eigen["refreshed"].get("opt") == "recompute"
        gram = 0.5 * (frozen.gram + frozen.gram.T)
        vectors, values = frozen.eigenvectors, frozen.eigenvalues
        scale = float(np.max(np.abs(gram)))
        np.testing.assert_allclose(
            (vectors * values) @ vectors.T, gram, atol=1e-10 * scale, rtol=0.0
        )
        np.testing.assert_allclose(
            values, np.linalg.eigvalsh(gram), atol=1e-10 * scale, rtol=0.0
        )
        assert refresh_frozen_eigen(frozen) is None


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
        # Nothing past the bound is left; the appended counts of the
        # widened summaries below it persist for a later fold.
        recost, cost = reloaded.maintenance_cost(), trainer.maintenance_cost()
        assert recost.svd_excess_columns == 0
        assert recost.svd_correction_columns == cost.svd_correction_columns
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
        assert recost.svd_excess_columns == cost.svd_excess_columns
        probe = np.arange(4, dtype=np.int64)
        np.testing.assert_allclose(
            reloaded.remove(probe, method="priu").weights,
            trainer.remove(probe, method="priu").weights,
            atol=ATOL,
            rtol=0.0,
        )
        # Maintaining the reloaded trainer reclaims the same garbage.
        report = reloaded.maintain()
        assert reloaded.maintenance_cost().svd_excess_columns == 0
        assert ("svd" in report.performed) == (cost.svd_excess_columns > 0)
        if cost.svd_excess_columns:
            memory = trainer.maintain().svd
            for key in ("summaries", "below_bound", "columns_before"):
                assert report.svd[key] == memory[key]


@pytest.mark.parametrize(
    "legacy_rows", [False, True], ids=["current", "legacy-rows"]
)
def test_stale_frozen_eigen_round_trips(tmp_path, monkeypatch, legacy_rows):
    """The deferred eigen debt survives a checkpoint and refreshes after.

    Archives from builds that kept the removed rows for an incremental
    eigen correction also carry ``frozen_pending_rows`` /
    ``frozen_pending_weights``; they load the same, the members
    checksum-verified and ignored."""
    data = _DATASETS["binary_logistic"]
    trainer = _fit(
        "binary_logistic", "dense", dict(batch_size=40), method="auto"
    )
    trainer.remove([3, 40, 90], method="priu", commit=True)
    assert trainer.store.frozen.eigen_stale
    with monkeypatch.context() as patch:
        if legacy_rows:
            fields = serialization._FROZEN_FIELDS
            patch.setattr(
                serialization,
                "_FROZEN_FIELDS",
                fields + ("pending_rows", "pending_weights"),
            )
            frozen = trainer.store.frozen
            rows = data.features[[3, 40, 90]]
            patch.setattr(frozen, "pending_rows", rows, raising=False)
            patch.setattr(
                frozen, "pending_weights", np.ones(3), raising=False
            )
        paths = trainer.save_checkpoint(tmp_path)
    with np.load(paths["store"]) as npz:
        assert ("frozen_pending_rows" in npz.files) == legacy_rows
    reloaded = IncrementalTrainer.from_checkpoint(
        tmp_path, data.features, data.labels, method="auto"
    )
    frozen = reloaded.store.frozen
    assert frozen.eigen_stale
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
    * both plans' nbytes equal a freshly compiled plan's (commits leave
      no dead per-sample rows), while SVD factor widths are capped at the
      store's rank bound ``k·min(m, B)`` instead of growing linearly with
      commits.
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
    assert plain.plan_nbytes() == (
        ReplayPlan(plain.store, plain.features, plain.labels).nbytes()
    )

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
        bound = maintained.store.svd_rank_bound()
        assert bound == plain.store.svd_rank_bound()
        # Re-truncation caps widths at the rank bound.
        assert max(widths) <= bound
        if task == "multinomial_logistic":
            # These summaries are lossy and start well below their bound
            # (q − 1)·min(m, B) = 16; 50 one-id commits never reach it,
            # so the answer-preserving pass never folds a record.
            assert max(plain_widths) <= bound
            assert plain_widths == widths
        else:
            # B < m: the summaries are lossless, at most B wide, and the
            # pass reclaims what the unmaintained trainer's widths grew
            # past that bound.
            assert max(plain_widths) > bound
        assert maintained.maintenance_cost().svd_excess_columns == 0
