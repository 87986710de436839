"""Cost model: predicted-vs-actual accuracy and answer preservation.

The acceptance property: the estimator's *structural* predictions —
touched iterations, dropped occurrence slots, plan-patch bytes, SVD
width growth — match the executed commit receipt exactly (they are read
off the same packed occurrence index the compact resolves against),
across all 3 tasks × dense/SVD/sparse, for small and bulk removals.
Around that sit unit tests for the decision log and the proof
obligation that makes the model safe to attach: a cost-model trainer
commits the same answers as a bare one (atol 1e-10).
"""

import threading

import numpy as np
import pytest

from repro import CostModel, IncrementalTrainer
from repro.core.costmodel import MAX_DECISIONS
from repro.datasets import (
    make_binary_classification,
    make_multiclass_classification,
    make_regression,
    make_sparse_binary_classification,
)

ATOL = 1e-10

_DATASETS = {
    "linear": make_regression(300, 8, noise=0.05, seed=71),
    "binary_logistic": make_binary_classification(300, 10, separation=1.0, seed=72),
    "multinomial_logistic": make_multiclass_classification(
        330, 12, n_classes=3, seed=73
    ),
}
_SPARSE = make_sparse_binary_classification(400, 120, density=0.05, seed=74)

# 3 tasks × dense/SVD/sparse (no build captures sparse multinomial).
CONFIGS = [
    ("linear", "dense", dict(batch_size=40)),
    ("linear", "svd", dict(batch_size=6)),
    ("linear", "sparse", dict(batch_size=40)),
    ("binary_logistic", "dense", dict(batch_size=40)),
    ("binary_logistic", "svd", dict(batch_size=8)),
    ("binary_logistic", "sparse", dict(batch_size=40)),
    ("multinomial_logistic", "dense", dict(batch_size=40)),
    ("multinomial_logistic", "svd", dict(batch_size=8)),
]


def _fit(task, rep, overrides=None, **extra):
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
    kwargs.update(overrides or {})
    kwargs.update(extra)
    trainer = IncrementalTrainer(task, **kwargs)
    trainer.fit(data.features, data.labels)
    return trainer


# ---------------------------------------------------- structural accuracy
class TestEstimateAccuracy:
    @pytest.mark.parametrize(
        "task,rep,overrides", CONFIGS, ids=[f"{t}-{r}" for t, r, _ in CONFIGS]
    )
    def test_refresh_predictions_exact(self, task, rep, overrides):
        """Small removals: the estimate matches the refresh receipt exactly."""
        cm = CostModel()
        trainer = _fit(task, rep, overrides, cost_model=cm)
        rng = np.random.default_rng(5)
        for _ in range(3):
            ids = np.sort(rng.choice(trainer.n_samples, size=2, replace=False))
            estimate = trainer.estimate_removal(ids)
            receipt = trainer.commit(trainer.remove(ids, method="priu"))
            assert estimate.mode == receipt["mode"] == "refresh"
            assert estimate.touched_iterations == receipt["touched_iterations"]
            assert estimate.touched_occurrences == receipt["dropped_slots"]
            assert estimate.touched_fraction == pytest.approx(
                receipt["fraction"], abs=1e-12
            )
            assert estimate.plan_patch_bytes == receipt["patched_bytes"]

    @pytest.mark.parametrize(
        "task,rep,overrides", CONFIGS, ids=[f"{t}-{r}" for t, r, _ in CONFIGS]
    )
    def test_bulk_removal_predictions_exact(self, task, rep, overrides):
        """A third of the samples touches nearly every iteration; the
        commit still refreshes, and the estimate still matches exactly."""
        cm = CostModel()
        trainer = _fit(task, rep, overrides, cost_model=cm)
        rng = np.random.default_rng(6)
        ids = np.sort(
            rng.choice(trainer.n_samples, size=trainer.n_samples // 3,
                       replace=False)
        )
        estimate = trainer.estimate_removal(ids)
        receipt = trainer.commit(trainer.remove(ids, method="priu"))
        assert estimate.mode == receipt["mode"] == "refresh"
        assert estimate.touched_iterations == receipt["touched_iterations"]
        assert estimate.touched_occurrences == receipt["dropped_slots"]
        assert estimate.plan_patch_bytes == receipt["patched_bytes"]

    def test_svd_width_growth_matches_correction_columns(self):
        # A multinomial commit appends q − 1 columns per removed
        # occurrence, the other tasks one.
        for task in ("binary_logistic", "multinomial_logistic"):
            cm = CostModel()
            trainer = _fit(task, "svd", dict(batch_size=8), cost_model=cm)
            assert trainer.store.compression == "svd"
            rng = np.random.default_rng(7)
            ids = np.sort(rng.choice(trainer.n_samples, size=3, replace=False))
            before = trainer.maintenance_cost(
                include_bytes=False
            ).svd_correction_columns
            estimate = trainer.estimate_removal(ids)
            receipt = trainer.commit(trainer.remove(ids, method="priu"))
            after = trainer.maintenance_cost(
                include_bytes=False
            ).svd_correction_columns
            assert estimate.svd_width_growth == after - before > 0, task
            assert receipt["appended_columns"] == after - before, task

    def test_dense_uncompressed_predicts_zero_svd_growth(self):
        trainer = _fit("linear", "dense", cost_model=CostModel())
        assert trainer.store.compression == "none"
        assert trainer.estimate_removal([3]).svd_width_growth == 0

    def test_estimate_is_free_of_side_effects(self):
        trainer = _fit("binary_logistic", "dense", cost_model=CostModel())
        version = trainer.store._version
        weights = trainer.result.weights.copy()
        for _ in range(5):
            trainer.estimate_removal([1, 2, 3, 4])
        assert trainer.store._version == version
        np.testing.assert_array_equal(trainer.result.weights, weights)

    def test_estimate_monotone_in_request_size(self):
        trainer = _fit("binary_logistic", "dense", cost_model=CostModel())
        small = trainer.estimate_removal([3, 17])
        large = trainer.estimate_removal([3, 17, 45, 101, 200])
        assert large.touched_occurrences >= small.touched_occurrences
        assert large.touched_iterations >= small.touched_iterations
        assert large.n_removed > small.n_removed

    def test_estimate_removal_without_model_matches_commit(self):
        """A bare trainer still estimates, and its mode is the commit's."""
        trainer = _fit("binary_logistic", "dense")
        assert trainer.cost_model is None
        estimate = trainer.estimate_removal([3])
        receipt = trainer.commit(trainer.remove([3], method="priu"))
        assert estimate.mode == receipt["mode"] == "refresh"
        assert estimate.plan_patch_bytes == receipt["patched_bytes"]

    def test_empty_removal_estimates_nothing(self):
        trainer = _fit("binary_logistic", "svd", dict(batch_size=8))
        estimate = trainer.estimate_removal([])
        assert estimate.n_removed == 0
        assert estimate.touched_iterations == 0
        assert estimate.touched_occurrences == 0
        assert estimate.touched_fraction == 0.0
        assert estimate.svd_width_growth == 0
        # Only the rebuilt offsets would be rewritten.
        assert estimate.plan_patch_bytes == (
            trainer.store.columns().offsets.nbytes
        )

    def test_estimate_ignores_order_and_duplicates(self):
        trainer = _fit("linear", "svd", dict(batch_size=6))
        assert trainer.estimate_removal([45, 3, 17, 3]) == (
            trainer.estimate_removal([3, 17, 45])
        )

    def test_estimate_requires_fit(self):
        trainer = IncrementalTrainer(
            "linear", learning_rate=0.05, regularization=0.01,
            batch_size=10, n_iterations=10,
        )
        with pytest.raises(RuntimeError):
            trainer.estimate_removal([0])


# ------------------------------------------------------------ decision log
class TestDecisionLog:
    def test_commit_receipt_only_logs(self):
        cm = CostModel()
        cm.observe_commit(None, {"mode": "refresh", "fraction": 0.1,
                                 "plan_sync_seconds": 0.2})
        (decision,) = cm.decisions()
        assert decision["actual_mode"] == "refresh"
        assert decision["actual_seconds"] == pytest.approx(0.2)

    def test_decision_ring_is_bounded(self):
        cm = CostModel()
        for i in range(MAX_DECISIONS + 10):
            cm.observe_commit(None, {"mode": "refresh", "fraction": 0.1,
                                     "plan_sync_seconds": 0.01, "tag": i})
        log = cm.decisions()
        assert len(log) == MAX_DECISIONS

    def test_decision_ring_keeps_the_newest_entries(self):
        cm = CostModel()
        for i in range(MAX_DECISIONS + 10):
            cm.observe_commit(None, {"mode": "refresh", "fraction": float(i)})
        fractions = [d["actual_fraction"] for d in cm.decisions()]
        assert fractions == [float(i) for i in range(10, MAX_DECISIONS + 10)]

    def test_observe_commit_logs_the_estimate_verbatim(self):
        trainer = _fit("binary_logistic", "dense")
        estimate = trainer.estimate_removal([3, 17])
        receipt = trainer.commit(trainer.remove([3, 17], method="priu"))
        cm = CostModel()
        cm.observe_commit(estimate, receipt)
        (decision,) = cm.decisions()
        assert decision["predicted"] == estimate.as_dict()
        assert decision["actual_patched_bytes"] == receipt["patched_bytes"]
        assert decision["actual_fraction"] == receipt["fraction"]
        assert decision["actual_mode"] == "refresh"

    def test_concurrent_observers_lose_no_decision(self):
        cm = CostModel()
        per_thread = 100

        def observe(tag):
            for i in range(per_thread):
                cm.observe_commit(
                    None, {"mode": "refresh", "fraction": tag + i / 1000}
                )

        threads = [
            threading.Thread(target=observe, args=(tag,)) for tag in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        fractions = sorted(d["actual_fraction"] for d in cm.decisions())
        assert fractions == sorted(
            tag + i / 1000 for tag in range(4) for i in range(per_thread)
        )

    def test_commit_feeds_decision_log_with_prediction(self):
        cm = CostModel()
        trainer = _fit("binary_logistic", "dense", cost_model=cm)
        trainer.remove([3, 17], method="priu", commit=True)
        (decision,) = cm.decisions()
        assert decision["predicted"] is not None
        assert decision["predicted"]["mode"] == decision["actual_mode"]
        assert decision["actual_seconds"] > 0.0

    def test_report_shape(self):
        cm = CostModel()
        assert cm.report() == {"decisions": []}
        cm.observe_commit(None, {"mode": "refresh", "fraction": 0.1})
        report = cm.report()
        assert set(report) == {"decisions"}
        assert report["decisions"] == cm.decisions()


# ------------------------------------------------------ answer preservation
class TestAnswerPreservation:
    @pytest.mark.parametrize("task", list(_DATASETS))
    def test_attached_model_never_changes_answers(self, task):
        ref = _fit(task, "dense")
        cost = _fit(task, "dense", cost_model=CostModel())
        for ids in ([4, 9], [1, 2, 3]):
            ref.remove(ids, method="priu", commit=True)
            cost.remove(ids, method="priu", commit=True)
            np.testing.assert_allclose(
                cost.result.weights, ref.result.weights, atol=ATOL
            )
        probe = [0, 5, 10]
        np.testing.assert_allclose(
            ref.remove(probe, method="priu").weights,
            cost.remove(probe, method="priu").weights,
            atol=ATOL,
        )
