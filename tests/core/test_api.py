"""Unit tests for the IncrementalTrainer facade."""

import numpy as np
import pytest

from repro import IncrementalTrainer
from repro.datasets import (
    make_binary_classification,
    make_regression,
    make_sparse_binary_classification,
)


@pytest.fixture(scope="module")
def linear_trainer():
    data = make_regression(300, 8, seed=131)
    trainer = IncrementalTrainer(
        "linear", learning_rate=0.01, regularization=0.1,
        batch_size=30, n_iterations=100, seed=1,
    )
    trainer.fit(data.features, data.labels)
    return data, trainer


@pytest.fixture(scope="module")
def logistic_trainer():
    data = make_binary_classification(400, 10, seed=132)
    trainer = IncrementalTrainer(
        "binary_logistic", learning_rate=0.1, regularization=0.01,
        batch_size=40, n_iterations=150, seed=2,
    )
    trainer.fit(data.features, data.labels)
    return data, trainer


class TestLifecycle:
    def test_unfitted_rejects_queries(self):
        trainer = IncrementalTrainer(
            "linear", learning_rate=0.01, regularization=0.1,
            batch_size=10, n_iterations=5,
        )
        with pytest.raises(RuntimeError):
            trainer.remove([0])
        with pytest.raises(RuntimeError):
            _ = trainer.weights_

    def test_invalid_task(self):
        with pytest.raises(ValueError):
            IncrementalTrainer(
                "svm", learning_rate=0.01, regularization=0.1,
                batch_size=10, n_iterations=5,
            )

    def test_invalid_method(self):
        with pytest.raises(ValueError):
            IncrementalTrainer(
                "linear", learning_rate=0.01, regularization=0.1,
                batch_size=10, n_iterations=5, method="magic",
            )

    def test_fit_returns_self(self):
        data = make_regression(60, 4, seed=133)
        trainer = IncrementalTrainer(
            "linear", learning_rate=0.01, regularization=0.1,
            batch_size=10, n_iterations=10,
        )
        assert trainer.fit(data.features, data.labels) is trainer


class TestUpdates:
    def test_remove_matches_retrain_linear(self, linear_trainer):
        data, trainer = linear_trainer
        removed = list(range(12))
        priu = trainer.remove(removed, method="priu")
        retrained = trainer.retrain(removed)
        assert np.allclose(priu.weights, retrained.weights, atol=1e-9)
        assert priu.method == "priu"
        assert retrained.method == "basel"
        assert priu.seconds >= 0.0

    def test_auto_method_prefers_opt_for_small_features(self, linear_trainer):
        _, trainer = linear_trainer
        outcome = trainer.remove([0, 1])
        assert outcome.method == "priu-opt"

    def test_priu_method_forced(self, logistic_trainer):
        _, trainer = logistic_trainer
        assert trainer.remove([0], method="priu").method == "priu"

    def test_unknown_update_method(self, logistic_trainer):
        _, trainer = logistic_trainer
        with pytest.raises(ValueError):
            trainer.remove([0], method="oracle")

    def test_closed_form_linear_only(self, linear_trainer, logistic_trainer):
        data, trainer = linear_trainer
        outcome = trainer.closed_form([1, 2, 3])
        assert outcome.method == "closed-form"
        _, log_trainer = logistic_trainer
        with pytest.raises(ValueError):
            log_trainer.closed_form([0])

    def test_influence_runs(self, logistic_trainer):
        _, trainer = logistic_trainer
        outcome = trainer.influence([0, 1, 2])
        assert outcome.method == "infl-koh-liang"
        assert outcome.weights.shape == trainer.weights_.shape

    def test_removed_ids_normalized(self, linear_trainer):
        _, trainer = linear_trainer
        outcome = trainer.remove([5, 3, 5, 1])
        assert np.array_equal(outcome.removed, [1, 3, 5])

    def test_evaluate_default_and_custom_weights(self, logistic_trainer):
        data, trainer = logistic_trainer
        base = trainer.evaluate(data.valid_features, data.valid_labels)
        assert 0.0 <= base <= 1.0
        updated = trainer.remove([0, 1]).weights
        custom = trainer.evaluate(data.valid_features, data.valid_labels, updated)
        assert 0.0 <= custom <= 1.0

    def test_provenance_memory_reported(self, logistic_trainer):
        _, trainer = logistic_trainer
        assert trainer.provenance_gigabytes() > 0.0


class TestSparseAuto:
    def test_sparse_dataset_uses_priu_only(self):
        data = make_sparse_binary_classification(300, 200, density=0.02, seed=134)
        trainer = IncrementalTrainer(
            "binary_logistic", learning_rate=0.05, regularization=0.1,
            batch_size=30, n_iterations=40, seed=3,
        )
        trainer.fit(data.features, data.labels)
        outcome = trainer.remove([0, 1, 2])
        assert outcome.method == "priu"
        with pytest.raises(ValueError):
            trainer.remove([0], method="priu-opt")

    def test_prepare_baselines_skips_sparse_influence(self):
        data = make_sparse_binary_classification(200, 150, density=0.02, seed=135)
        trainer = IncrementalTrainer(
            "binary_logistic", learning_rate=0.05, regularization=0.1,
            batch_size=20, n_iterations=20, seed=4,
        )
        trainer.fit(data.features, data.labels)
        trainer.prepare_baselines()
        assert trainer._influence is None


class TestRepeatedDeletions:
    def test_many_subsets_from_one_fit(self, logistic_trainer):
        """The interpretability workload: one capture, many removals."""
        data, trainer = logistic_trainer
        rng = np.random.default_rng(9)
        references = []
        for _ in range(5):
            subset = rng.choice(data.n_samples, size=10, replace=False)
            outcome = trainer.remove(subset, method="priu")
            retrained = trainer.retrain(subset)
            references.append(
                np.linalg.norm(outcome.weights - retrained.weights)
                / np.linalg.norm(retrained.weights)
            )
        assert max(references) < 0.05


@pytest.fixture(scope="module")
def walkthrough_trainer():
    """The library walkthrough's trainer: 450 training rows."""
    data = make_binary_classification(500, 12, seed=42)
    trainer = IncrementalTrainer(
        "binary_logistic", learning_rate=0.05, regularization=0.01,
        batch_size=50, n_iterations=120, seed=7,
    )
    trainer.fit(data.features, data.labels)
    assert trainer.n_samples == 450
    return trainer


#: Every way a trainer answers a removal, by name.
REMOVALS = {
    "priu": lambda trainer, ids: trainer.remove(ids, method="priu"),
    "priu-seq": lambda trainer, ids: trainer.remove(ids, method="priu-seq"),
    "priu-opt": lambda trainer, ids: trainer.remove(ids, method="priu-opt"),
    "remove_many": lambda trainer, ids: trainer.remove_many(
        [[0], ids], method="priu"
    )[1],
    "retrain": lambda trainer, ids: trainer.retrain(ids),
    "influence": lambda trainer, ids: trainer.influence(ids),
    "closed_form": lambda trainer, ids: trainer.closed_form(ids),
}


class TestRemovalIdBounds:
    """An id outside ``[0, n_samples)`` raises ``ValueError`` whatever
    the method.  Before, ``priu``/``priu-seq`` answered the full model,
    ``priu-opt`` read −1 as another row and raised a raw ``IndexError``
    past the end, ``retrain`` ignored the id, and ``influence`` and
    ``closed_form`` read −1 as the last row."""

    @staticmethod
    def trainer_for(method, walkthrough_trainer, linear_trainer):
        if method == "closed_form":
            return linear_trainer[1]
        return walkthrough_trainer

    @pytest.mark.parametrize("method", sorted(REMOVALS))
    def test_ids_outside_the_training_set_raise(
        self, method, walkthrough_trainer, linear_trainer
    ):
        trainer = self.trainer_for(method, walkthrough_trainer, linear_trainer)
        n = trainer.n_samples
        for ids in ([-1], [n], [3, n + 5]):
            with pytest.raises(ValueError, match="removal ids"):
                REMOVALS[method](trainer, ids)

    @pytest.mark.parametrize("method", sorted(REMOVALS))
    def test_the_last_row_is_still_removed(
        self, method, walkthrough_trainer, linear_trainer
    ):
        trainer = self.trainer_for(method, walkthrough_trainer, linear_trainer)
        last = trainer.n_samples - 1
        outcome = REMOVALS[method](trainer, [last])
        assert np.array_equal(outcome.removed, [last])
        assert not np.array_equal(outcome.weights, trainer.weights_)
        if method in ("priu", "remove_many"):
            reference = trainer.remove([last], method="priu-seq").weights
            np.testing.assert_allclose(
                outcome.weights, reference, atol=1e-10, rtol=0.0
            )
