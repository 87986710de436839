"""PrIU-opt: the eigen-based optimizations (Sec. 5.2/5.4, Theorems 7/9)."""

import numpy as np
import pytest

from repro.core import (
    PrIUOptLinearUpdater,
    PrIUOptLogisticUpdater,
    PrIUUpdater,
    train_with_capture,
)
from repro.datasets import (
    make_binary_classification,
    make_multiclass_classification,
    make_regression,
)
from repro.eval import cosine_similarity
from repro.models import make_schedule, objective_for, train


class TestLinearOpt:
    ETA = 0.005
    LAM = 0.1
    TAU = 400

    @pytest.fixture(scope="class")
    def setup(self):
        data = make_regression(400, 12, noise=0.05, seed=111)
        objective = objective_for("linear", self.LAM)
        updater = PrIUOptLinearUpdater(
            data.features, data.labels, self.TAU, self.ETA, self.LAM
        )
        return data, objective, updater

    def _gd_basel(self, data, objective, removed):
        schedule = make_schedule(
            data.n_samples, data.n_samples, self.TAU, kind="gd"
        )
        return train(
            objective, data.features, data.labels, schedule, self.ETA,
            exclude=set(removed),
        ).weights

    def test_original_matches_gd(self, setup):
        data, objective, updater = setup
        gd = self._gd_basel(data, objective, [])
        assert np.allclose(updater.original(), gd, atol=1e-8)

    def test_small_deletion_close_to_gd_retraining(self, setup):
        data, objective, updater = setup
        removed = list(range(4))
        gd = self._gd_basel(data, objective, removed)
        # Theorem 7: deviation bounded by O(||ΔXᵀΔX||) — small for 4 rows.
        assert np.linalg.norm(updater.update(removed) - gd) < 0.05

    def test_deviation_grows_with_removed_mass(self, setup):
        data, objective, updater = setup
        small = np.linalg.norm(
            updater.update(range(2)) - self._gd_basel(data, objective, range(2))
        )
        large = np.linalg.norm(
            updater.update(range(80))
            - self._gd_basel(data, objective, range(80))
        )
        assert small <= large + 1e-12

    def test_empty_removal_equals_original(self, setup):
        _, _, updater = setup
        assert np.allclose(updater.update([]), updater.original())

    def test_cannot_delete_everything(self, setup):
        data, _, updater = setup
        with pytest.raises(ValueError):
            updater.update(range(data.n_samples))

    def test_sparse_features_rejected(self):
        import scipy.sparse as sp

        features = sp.eye(10, format="csr")
        with pytest.raises(ValueError):
            PrIUOptLinearUpdater(features, np.ones(10), 10, 0.01, 0.1)

    def test_nbytes_reports_eigen_state(self, setup):
        _, _, updater = setup
        assert updater.nbytes() > 0


class TestLogisticOpt:
    ETA = 0.1

    @pytest.fixture(scope="class")
    def binary_setup(self):
        data = make_binary_classification(500, 10, seed=112)
        objective = objective_for("binary_logistic", 0.01)
        schedule = make_schedule(data.n_samples, 50, 200, seed=21)
        result, store = train_with_capture(
            objective, data.features, data.labels, schedule, self.ETA,
            compression="none", freeze_at=0.7,
        )
        return data, objective, schedule, result, store

    def test_frozen_state_exists(self, binary_setup):
        *_, store = binary_setup
        assert store.frozen is not None
        assert store.frozen.t_s == 140
        assert store.frozen.eigenvectors is not None
        assert store.frozen.slopes.shape == (store.n_samples,)

    def test_close_to_basel(self, binary_setup):
        data, objective, schedule, result, store = binary_setup
        removed = list(range(10))
        reference = train(
            objective, data.features, data.labels, schedule, self.ETA,
            exclude=set(removed),
        ).weights
        opt = PrIUOptLogisticUpdater(store, data.features, data.labels)
        updated = opt.update(removed)
        assert cosine_similarity(updated, reference) > 0.99

    def test_opt_validation_accuracy_matches_basel(self, binary_setup):
        data, objective, schedule, result, store = binary_setup
        removed = list(range(25))
        reference = train(
            objective, data.features, data.labels, schedule, self.ETA,
            exclude=set(removed),
        ).weights
        opt = PrIUOptLogisticUpdater(store, data.features, data.labels)
        acc_ref = objective.metric(
            reference, data.valid_features, data.valid_labels
        )
        acc_opt = objective.metric(
            opt.update(removed), data.valid_features, data.valid_labels
        )
        assert acc_opt == pytest.approx(acc_ref, abs=0.03)

    def test_opt_less_accurate_than_plain_priu(self, binary_setup):
        """PrIU-opt trades accuracy for speed (Theorem 9 extra terms)."""
        data, objective, schedule, result, store = binary_setup
        removed = list(range(10))
        reference = train(
            objective, data.features, data.labels, schedule, self.ETA,
            exclude=set(removed),
        ).weights
        plain = PrIUUpdater(store, data.features, data.labels).update(removed)
        opt = PrIUOptLogisticUpdater(store, data.features, data.labels).update(
            removed
        )
        plain_err = np.linalg.norm(plain - reference)
        opt_err = np.linalg.norm(opt - reference)
        assert plain_err <= opt_err + 1e-6

    def test_requires_frozen_provenance(self):
        data = make_binary_classification(100, 5, seed=113)
        objective = objective_for("binary_logistic", 0.01)
        schedule = make_schedule(data.n_samples, 20, 30, seed=22)
        _, store = train_with_capture(
            objective, data.features, data.labels, schedule, self.ETA,
        )
        with pytest.raises(ValueError):
            PrIUOptLogisticUpdater(store, data.features, data.labels)

    def test_requires_logistic_store(self):
        data = make_regression(100, 5, seed=114)
        objective = objective_for("linear", 0.01)
        schedule = make_schedule(data.n_samples, 20, 30, seed=23)
        _, store = train_with_capture(
            objective, data.features, data.labels, schedule, 0.01,
        )
        with pytest.raises(ValueError):
            PrIUOptLogisticUpdater(store, data.features, data.labels)


class TestMultinomialOpt:
    def test_multinomial_two_phase_close_to_basel(self):
        data = make_multiclass_classification(500, 10, n_classes=3, seed=115)
        objective = objective_for("multinomial_logistic", 0.01, n_classes=3)
        schedule = make_schedule(data.n_samples, 50, 150, seed=24)
        eta = 0.05
        result, store = train_with_capture(
            objective, data.features, data.labels, schedule, eta,
            compression="none", freeze_at=0.7,
        )
        assert store.frozen is not None
        removed = list(range(8))
        reference = train(
            objective, data.features, data.labels, schedule, eta,
            exclude=set(removed),
        ).weights
        opt = PrIUOptLogisticUpdater(store, data.features, data.labels)
        updated = opt.update(removed)
        assert cosine_similarity(updated, reference) > 0.98

    def test_large_parameter_space_skips_freeze(self):
        data = make_multiclass_classification(200, 40, n_classes=5, seed=116)
        objective = objective_for("multinomial_logistic", 0.01, n_classes=5)
        schedule = make_schedule(data.n_samples, 40, 30, seed=25)
        _, store = train_with_capture(
            objective, data.features, data.labels, schedule, 0.05,
            freeze_at=0.7, max_dense_params=100,
        )
        assert store.frozen is None


class TestTailState:
    """The tail state (Sec. 5.4) against its definition: request ``k``
    moves the frozen eigenvalue ``λ_j`` by ``q_jᵀ ΔC*_k q_j`` and the
    frozen moment by ``ΔD*_k``, summed over its own removed samples."""

    @staticmethod
    def updater_for(task):
        if task == "binary_logistic":
            data = make_binary_classification(120, 6, seed=117)
            objective = objective_for(task, 0.01)
        else:
            data = make_multiclass_classification(120, 5, n_classes=3, seed=118)
            objective = objective_for(task, 0.01, n_classes=3)
        schedule = make_schedule(data.n_samples, 20, 30, seed=26)
        _, store = train_with_capture(
            objective, data.features, data.labels, schedule, 0.05,
            compression="none", freeze_at=0.7,
        )
        return PrIUOptLogisticUpdater(store, data.features, data.labels)

    @staticmethod
    def definition(updater, removed):
        frozen = updater.store.frozen
        rows = updater.features[removed]
        labels = updater.labels[removed]
        if updater.store.task == "binary_logistic":
            delta_c = -(rows.T * frozen.slopes[removed]) @ rows
            delta_d = -rows.T @ (frozen.intercepts[removed] * labels)
        else:
            q = updater.store.n_classes
            delta_c = np.zeros_like(frozen.gram)
            delta_d = np.zeros(q * rows.shape[1])
            for x, p, u, y in zip(
                rows, frozen.probabilities[removed], frozen.wx[removed], labels
            ):
                lam = np.diag(p) - np.outer(p, p)
                delta_c += np.kron(lam, np.outer(x, x))
                delta_d -= np.kron(lam @ u - p + np.eye(q)[int(y)], x)
        vectors = frozen.eigenvectors
        eigenvalues = frozen.eigenvalues + np.einsum(
            "mj,mn,nj->j", vectors, delta_c, vectors
        )
        return eigenvalues, frozen.moment + delta_d

    @pytest.mark.parametrize("task", ["binary_logistic", "multinomial_logistic"])
    @pytest.mark.parametrize("block", [None, 1])
    def test_every_request_matches_the_definition(self, task, block, monkeypatch):
        if block is not None:
            # One removed sample per projection block.
            monkeypatch.setattr("repro.core.priu_opt._TAIL_BLOCK", block)
        updater = self.updater_for(task)
        sets = [
            np.array([3, 7, 19]),
            np.array([], dtype=np.int64),
            np.array([7]),
            np.arange(40, 70),
        ]
        for batch in (sets, sets[:1]):
            eigenvalues, moments = updater._stacked_tail_state(batch)
            assert eigenvalues.shape == moments.shape == (
                updater._eigen.n_features, len(batch)
            )
            for k, removed in enumerate(batch):
                expected = self.definition(updater, removed)
                np.testing.assert_allclose(
                    eigenvalues[:, k], expected[0], atol=1e-10
                )
                np.testing.assert_allclose(moments[:, k], expected[1], atol=1e-10)
