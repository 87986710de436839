"""PrIU sparse mode: the linearized replay of Eq. 11 (Sec. 5.3)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import IncrementalTrainer, PrIUUpdater, train_with_capture
from repro.datasets import make_sparse_binary_classification
from repro.models import make_schedule, objective_for, train

ETA = 0.05


@pytest.fixture(scope="module")
def setup():
    data = make_sparse_binary_classification(800, 400, density=0.02, seed=97)
    objective = objective_for("binary_logistic", 0.05)
    schedule = make_schedule(data.n_samples, 80, 120, seed=17)
    result, store = train_with_capture(
        objective, data.features, data.labels, schedule, ETA,
    )
    return data, objective, schedule, result, store


class TestSparseMode:
    def test_sparse_mode_detected(self, setup):
        *_, store = setup
        assert store.sparse_mode
        assert store.compression == "sparse"

    def test_records_keep_coefficients_only(self, setup):
        *_, store = setup
        record = store.records[0]
        assert record.summary is None
        assert record.moment.size == 0
        assert record.slopes.shape == record.batch.shape

    def test_replay_matches_linearized_training(self, setup):
        data, objective, schedule, result, store = setup
        updater = PrIUUpdater(store, data.features, data.labels)
        replayed = updater.update([])
        assert np.linalg.norm(replayed - result.weights) < 1e-6

    def test_deletion_close_to_basel(self, setup):
        data, objective, schedule, result, store = setup
        removed = list(range(40))
        reference = train(
            objective, data.features, data.labels, schedule, ETA,
            exclude=set(removed),
        ).weights
        updater = PrIUUpdater(store, data.features, data.labels)
        updated = updater.update(removed)
        denom = max(np.linalg.norm(reference), 1e-9)
        assert np.linalg.norm(updated - reference) / denom < 0.05

    def test_features_stay_sparse_through_update(self, setup):
        data, *_ , store = setup
        updater = PrIUUpdater(store, data.features, data.labels)
        assert sp.issparse(updater.features)
        updater.update(range(10))
        assert sp.issparse(updater.features)

    def test_sparse_linear_task(self):
        """Linear regression on sparse rows uses the replay path."""
        rng = np.random.default_rng(5)
        dense = rng.standard_normal((300, 100))
        dense[np.abs(dense) < 1.2] = 0.0
        features = sp.csr_matrix(dense)
        labels = rng.standard_normal(300)
        objective = objective_for("linear", 0.1)
        schedule = make_schedule(300, 30, 60, seed=18)
        _, store = train_with_capture(
            objective, features, labels, schedule, 0.01,
        )
        removed = list(range(15))
        reference = train(
            objective, features, labels, schedule, 0.01, exclude=set(removed)
        ).weights
        updater = PrIUUpdater(store, features, labels)
        assert np.allclose(updater.update(removed), reference, atol=1e-9)

    def test_sparse_multinomial_rejected(self):
        rng = np.random.default_rng(6)
        dense = rng.standard_normal((100, 30))
        dense[np.abs(dense) < 1.0] = 0.0
        features = sp.csr_matrix(dense)
        labels = rng.integers(0, 3, size=100)
        objective = objective_for("multinomial_logistic", 0.1, n_classes=3)
        schedule = make_schedule(100, 20, 10, seed=19)
        with pytest.raises(NotImplementedError, match="sparse multinomial"):
            train_with_capture(objective, features, labels, schedule, 0.01)
        trainer = IncrementalTrainer(
            "multinomial_logistic", learning_rate=0.01, regularization=0.1,
            batch_size=20, n_iterations=10, n_classes=3,
        )
        with pytest.raises(NotImplementedError, match="sparse multinomial"):
            trainer.fit(features, labels)
