"""Failure injection: degenerate inputs and edge regimes."""

import numpy as np
import pytest

from repro.core import (
    PrIUOptLinearUpdater,
    PrIUOptLogisticUpdater,
    PrIUUpdater,
    ReplayPlan,
    train_with_capture,
)
from repro.datasets import make_binary_classification, make_regression
from repro.models import make_schedule, objective_for, train


class TestDegenerateDeletions:
    @pytest.fixture(scope="class")
    def setup(self):
        data = make_regression(100, 5, seed=141)
        objective = objective_for("linear", 0.1)
        schedule = make_schedule(data.n_samples, 10, 60, seed=51)
        _, store = train_with_capture(
            objective, data.features, data.labels, schedule, 0.01,
        )
        return data, objective, schedule, store

    def test_delete_everything_rejected(self, setup):
        data, _, _, store = setup
        updater = PrIUUpdater(store, data.features, data.labels)
        with pytest.raises(ValueError):
            updater.update(range(data.n_samples))

    def test_delete_all_but_one(self, setup):
        data, objective, schedule, store = setup
        removed = list(range(1, data.n_samples))
        updater = PrIUUpdater(store, data.features, data.labels)
        retrained = train(
            objective, data.features, data.labels, schedule, 0.01,
            exclude=set(removed),
        )
        assert np.allclose(updater.update(removed), retrained.weights, atol=1e-9)

    def test_whole_batches_vanish(self, setup):
        """Batches that lose all members degenerate to shrinkage steps."""
        data, objective, schedule, store = setup
        removed = set(schedule.batches[0]) | set(schedule.batches[5])
        updater = PrIUUpdater(store, data.features, data.labels)
        retrained = train(
            objective, data.features, data.labels, schedule, 0.01,
            exclude=removed,
        )
        assert np.allclose(
            updater.update(removed), retrained.weights, atol=1e-9
        )


@pytest.fixture(scope="module")
def direct_updaters():
    """Each direct updater over a small fitted model, with the sample
    count it answers for: the plan, the reference replay and PrIU-opt's
    linear and logistic updaters."""
    data = make_binary_classification(300, 6, seed=143)
    objective = objective_for("binary_logistic", 0.01)
    schedule = make_schedule(data.n_samples, 30, 40, seed=53)
    _, store = train_with_capture(
        objective, data.features, data.labels, schedule, 0.05, freeze_at=0.7,
    )
    linear = make_regression(100, 5, seed=141)
    args = (store, data.features, data.labels)
    return {
        "plan": (ReplayPlan(*args).run_single, data.n_samples),
        "priu": (PrIUUpdater(*args).update, data.n_samples),
        "priu-opt-logistic": (PrIUOptLogisticUpdater(*args).update, data.n_samples),
        "priu-opt-linear": (
            PrIUOptLinearUpdater(linear.features, linear.labels, 40, 0.01, 0.1).update,
            linear.n_samples,
        ),
    }


@pytest.mark.parametrize(
    "updater", ["plan", "priu", "priu-opt-logistic", "priu-opt-linear"]
)
@pytest.mark.parametrize("where", ["-1", "n", "10**6"])
def test_ids_outside_the_training_set_are_refused(direct_updaters, updater, where):
    """An id no sample has is refused, not answered as if absent (or,
    for -1, read as the last sample)."""
    update, n_samples = direct_updaters[updater]
    removed = {"-1": -1, "n": n_samples, "10**6": 10**6}[where]
    with pytest.raises(ValueError, match="removal ids"):
        update([removed])


class TestDegenerateData:
    def test_rank_deficient_features(self):
        rng = np.random.default_rng(6)
        base = rng.standard_normal((80, 3))
        features = np.hstack([base, base[:, :2]])  # duplicated columns
        labels = rng.standard_normal(80)
        objective = objective_for("linear", 0.1)
        schedule = make_schedule(80, 16, 40, seed=52)
        _, store = train_with_capture(objective, features, labels, schedule, 0.01)
        updater = PrIUUpdater(store, features, labels)
        retrained = train(
            objective, features, labels, schedule, 0.01, exclude={0, 1, 2}
        )
        assert np.allclose(updater.update([0, 1, 2]), retrained.weights, atol=1e-9)

    def test_single_feature(self):
        rng = np.random.default_rng(7)
        features = rng.standard_normal((50, 1))
        labels = 2.0 * features.ravel()
        objective = objective_for("linear", 0.01)
        schedule = make_schedule(50, 10, 100, seed=53)
        _, store = train_with_capture(objective, features, labels, schedule, 0.05)
        updater = PrIUUpdater(store, features, labels)
        updated = updater.update([0])
        assert np.isfinite(updated).all()

    def test_constant_labels_binary(self):
        """All-positive labels: gradient still well defined."""
        rng = np.random.default_rng(8)
        features = rng.standard_normal((60, 4))
        labels = np.ones(60)
        objective = objective_for("binary_logistic", 0.1)
        schedule = make_schedule(60, 12, 30, seed=54)
        _, store = train_with_capture(objective, features, labels, schedule, 0.1)
        updater = PrIUUpdater(store, features, labels)
        retrained = train(
            objective, features, labels, schedule, 0.1, exclude={3, 4}
        )
        updated = updater.update([3, 4])
        assert np.linalg.norm(updated - retrained.weights) < 1e-3


class TestDivergenceRegime:
    def test_theorem2_style_divergence_detectable(self):
        """With an over-large learning rate the iteration blows up.

        Theorem 2's point is that provenance-annotated iterations have no
        convergence guarantee under the plain conditions; numerically this
        shows up as divergence when η violates the η < 1/L requirement.
        """
        rng = np.random.default_rng(9)
        features = 10.0 * rng.standard_normal((40, 3))
        labels = rng.standard_normal(40)
        objective = objective_for("linear", 0.0)
        schedule = make_schedule(40, 40, 200, kind="gd")
        with np.errstate(over="ignore", invalid="ignore"):
            result = train(objective, features, labels, schedule, 1.0)  # η ≫ 1/L
        assert not np.all(np.abs(result.weights) < 1e6)

    def test_safe_learning_rate_converges(self):
        rng = np.random.default_rng(10)
        features = rng.standard_normal((40, 3))
        labels = rng.standard_normal(40)
        objective = objective_for("linear", 0.1)
        schedule = make_schedule(40, 40, 500, kind="gd")
        lipschitz = 2.0 * np.linalg.norm(features.T @ features, 2) / 40 + 0.1
        result = train(objective, features, labels, schedule, 0.9 / lipschitz)
        grad = objective.gradient(result.weights, features, labels)
        assert np.linalg.norm(grad) < 1e-3
