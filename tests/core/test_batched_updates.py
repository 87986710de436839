"""Batched multi-request updates: ReplayPlan == K sequential PrIU updates.

The contract under test: for any list of removal sets ``[S1..Sk]``,
``remove_many`` (and the underlying ``ReplayPlan.run`` / ``update_many``)
is numerically identical (atol 1e-10) to k sequential ``remove(Si)`` calls
through the uncompiled seed path — for all three tasks, dense and sparse,
with and without SVD compression and ``freeze_at``.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    IncrementalTrainer,
    PrIUOptLogisticUpdater,
    PrIUUpdater,
    ReplayPlan,
    train_with_capture,
)
from repro.core.provenance_store import normalize_removed_indices
from repro.datasets import (
    make_binary_classification,
    make_multiclass_classification,
    make_regression,
    make_sparse_binary_classification,
)
from repro.linalg.eigen import gd_diagonal_recursion
from repro.models import make_schedule, objective_for

ATOL = 1e-10


def _random_sets(n_samples, rng, k=4, max_size=25):
    sets = [
        rng.choice(n_samples, size=rng.integers(1, max_size + 1), replace=False)
        for _ in range(k - 1)
    ]
    sets.append(np.empty(0, dtype=int))  # the no-op request rides along
    return sets


def _plan_case(task, compression, sparse=False, epsilon=0.01):
    rng = np.random.default_rng(7)
    if task == "linear":
        if sparse:
            data = make_sparse_binary_classification(260, 120, density=0.05, seed=51)
            features, labels = data.features, rng.standard_normal(260)
        else:
            data = make_regression(240, 12, noise=0.05, seed=52)
            features, labels = data.features, data.labels
        objective = objective_for("linear", 0.1)
    elif task == "binary_logistic":
        if sparse:
            data = make_sparse_binary_classification(300, 150, density=0.04, seed=53)
        else:
            data = make_binary_classification(280, 10, separation=1.0, seed=54)
        features, labels = data.features, data.labels
        objective = objective_for("binary_logistic", 0.05)
    else:
        data = make_multiclass_classification(300, 9, n_classes=3, seed=55)
        features, labels = data.features, data.labels
        objective = objective_for("multinomial_logistic", 0.05, n_classes=3)
    n = features.shape[0]
    schedule = make_schedule(n, 32, 60, seed=21)
    _, store = train_with_capture(
        objective, features, labels, schedule, 0.02,
        compression=compression, epsilon=epsilon,
    )
    return features, labels, store


DENSE_CASES = [
    ("linear", "none", False),
    ("linear", "svd", False),
    ("binary_logistic", "none", False),
    ("binary_logistic", "svd", False),
    ("multinomial_logistic", "none", False),
    ("multinomial_logistic", "svd", False),
]
SPARSE_CASES = [
    ("linear", "auto", True),
    ("binary_logistic", "auto", True),
]


class TestPlanMatchesSequential:
    @pytest.mark.parametrize("task,compression,sparse", DENSE_CASES + SPARSE_CASES)
    def test_run_equals_sequential_updates(self, task, compression, sparse):
        features, labels, store = _plan_case(task, compression, sparse)
        updater = PrIUUpdater(store, features, labels)
        plan = ReplayPlan(store, features, labels)
        rng = np.random.default_rng(31)
        sets = _random_sets(store.n_samples, rng)
        stacked = plan.run(sets)
        assert stacked.shape == (plan.n_params, len(sets))
        for k, removed in enumerate(sets):
            reference = updater.update(removed)
            np.testing.assert_allclose(
                stacked[:, k], reference, atol=ATOL,
                err_msg=f"{task} column {k} diverged from sequential update",
            )

    @pytest.mark.parametrize("task,compression,sparse", DENSE_CASES + SPARSE_CASES)
    def test_single_request_through_plan(self, task, compression, sparse):
        features, labels, store = _plan_case(task, compression, sparse)
        updater = PrIUUpdater(store, features, labels)
        plan = ReplayPlan(store, features, labels)
        removed = np.arange(0, 30, 3)
        np.testing.assert_allclose(
            plan.run_single(removed), updater.update(removed), atol=ATOL
        )

    def test_overlapping_and_duplicate_sets(self):
        features, labels, store = _plan_case("binary_logistic", "none")
        updater = PrIUUpdater(store, features, labels)
        plan = ReplayPlan(store, features, labels)
        sets = [[3, 1, 3, 5], [1, 3, 5], range(10), np.array([5, 3, 1])]
        stacked = plan.run(sets)
        # Duplicate-set columns agree exactly; all match the seed path.
        np.testing.assert_allclose(stacked[:, 1], stacked[:, 3], atol=0)
        for k, removed in enumerate(sets):
            np.testing.assert_allclose(
                stacked[:, k], updater.update(removed), atol=ATOL
            )

    def test_stop_at_and_start_weights(self):
        features, labels, store = _plan_case("binary_logistic", "none")
        updater = PrIUUpdater(store, features, labels)
        plan = ReplayPlan(store, features, labels)
        removed = [2, 4, 8]
        half = len(store) // 2
        partial = plan.run([removed], stop_at=half)
        np.testing.assert_allclose(
            partial[:, 0], updater.update(removed, stop_at=half), atol=ATOL
        )
        resumed = plan.run(
            [removed], start_weights=partial, start_iteration=half
        )
        np.testing.assert_allclose(
            resumed[:, 0], updater.update(removed), atol=ATOL
        )

    def test_whole_batch_removed_degenerates_to_shrinkage(self):
        """Deleting an entire mini-batch must replay the pure-shrink step."""
        features, labels, store = _plan_case("linear", "none")
        updater = PrIUUpdater(store, features, labels)
        plan = ReplayPlan(store, features, labels)
        removed = np.asarray(store.records[0].batch)  # wipes iteration 0
        np.testing.assert_allclose(
            plan.run_single(removed), updater.update(removed), atol=ATOL
        )

    def test_stale_plan_rejected_after_store_mutation(self):
        features, labels, store = _plan_case("linear", "none")
        plan = ReplayPlan(store, features, labels)
        store.add(store.records[0])  # mutate after compilation
        with pytest.raises(RuntimeError):
            plan.run([[0]])
        # A fresh compile over the mutated store works again.
        fresh = ReplayPlan(store, features, labels)
        assert np.isfinite(fresh.run_single([0])).all()

    def test_stale_plan_rejected_after_compact_until_refreshed(self):
        features, labels, store = _plan_case("binary_logistic", "none")
        plan = ReplayPlan(store, features, labels)
        removed = np.array([3, 40])
        stats = store.compact(removed, features, labels)
        survivors = np.delete(np.arange(features.shape[0]), removed)
        with pytest.raises(RuntimeError, match="store changed"):
            plan.run([[0]])
        plan.refresh(stats, features[survivors], labels[survivors])
        fresh = ReplayPlan(store, features[survivors], labels[survivors])
        assert np.array_equal(plan.run_single([0, 7]), fresh.run_single([0, 7]))

    def test_rejects_deleting_everything(self):
        features, labels, store = _plan_case("linear", "none")
        plan = ReplayPlan(store, features, labels)
        with pytest.raises(ValueError):
            plan.run([np.arange(store.n_samples)])

    def test_sparse_multinomial_unsupported(self):
        from repro.core import ProvenanceStore

        data = make_sparse_binary_classification(120, 60, density=0.05, seed=77)
        labels = np.random.default_rng(0).integers(0, 3, size=data.n_samples)
        store = ProvenanceStore(
            task="multinomial_logistic",
            schedule=make_schedule(data.n_samples, 20, 10, seed=3),
            learning_rate=0.02,
            regularization=0.05,
            n_samples=data.n_samples,
            n_features=data.features.shape[1],
            n_classes=3,
            sparse_mode=True,
        )
        with pytest.raises(NotImplementedError, match="sparse multinomial"):
            ReplayPlan(store, data.features, labels)


class TestTrainerRemoveMany:
    @pytest.fixture(scope="class")
    def trainers(self):
        built = {}
        rng = np.random.default_rng(11)
        lin = make_regression(260, 8, seed=61)
        built["linear"] = (
            IncrementalTrainer(
                "linear", learning_rate=0.01, regularization=0.1,
                batch_size=26, n_iterations=80, seed=1,
            ).fit(lin.features, lin.labels),
            rng,
        )
        binary = make_binary_classification(300, 9, seed=62)
        built["binary"] = (
            IncrementalTrainer(
                "binary_logistic", learning_rate=0.05, regularization=0.01,
                batch_size=30, n_iterations=90, seed=2,
            ).fit(binary.features, binary.labels),
            rng,
        )
        multi = make_multiclass_classification(330, 8, n_classes=3, seed=63)
        built["multinomial"] = (
            IncrementalTrainer(
                "multinomial_logistic", learning_rate=0.05,
                regularization=0.01, batch_size=30, n_iterations=70,
                n_classes=3, seed=3,
            ).fit(multi.features, multi.labels),
            rng,
        )
        sparse = make_sparse_binary_classification(320, 160, density=0.03, seed=64)
        built["sparse-binary"] = (
            IncrementalTrainer(
                "binary_logistic", learning_rate=0.05, regularization=0.05,
                batch_size=32, n_iterations=60, seed=4,
            ).fit(sparse.features, sparse.labels),
            rng,
        )
        return built

    @pytest.mark.parametrize(
        "name", ["linear", "binary", "multinomial", "sparse-binary"]
    )
    def test_remove_many_equals_sequential_seed_path(self, trainers, name):
        trainer, rng = trainers[name]
        sets = _random_sets(trainer.store.n_samples, rng, k=5)
        outcomes = trainer.remove_many(sets, method="priu")
        assert len(outcomes) == len(sets)
        for outcome, removed in zip(outcomes, sets):
            reference = trainer.remove(removed, method="priu-seq")
            np.testing.assert_allclose(
                outcome.weights, reference.weights, atol=ATOL
            )
            assert outcome.method == "priu"
            assert np.array_equal(
                outcome.removed, np.unique(np.asarray(removed, dtype=int))
            )

    @pytest.mark.parametrize("name", ["linear", "binary", "multinomial"])
    def test_remove_many_priu_opt_equals_sequential_opt(self, trainers, name):
        """freeze_at / eigen-tail path: batched == sequential PrIU-opt."""
        trainer, rng = trainers[name]
        if trainer._opt is None:
            pytest.skip("PrIU-opt unavailable for this configuration")
        sets = _random_sets(trainer.store.n_samples, rng, k=4)
        outcomes = trainer.remove_many(sets, method="priu-opt")
        for outcome, removed in zip(outcomes, sets):
            reference = trainer._opt.update(
                normalize_removed_indices(removed)
            )
            np.testing.assert_allclose(outcome.weights, reference, atol=ATOL)

    def test_remove_many_empty(self, trainers):
        trainer, _ = trainers["linear"]
        assert trainer.remove_many([]) == []

    @pytest.mark.parametrize(
        "name,method",
        [
            ("linear", "priu"),
            ("binary", "priu"),
            ("binary", "priu-opt"),
            ("multinomial", "priu"),
            ("multinomial", "priu-opt"),
            ("sparse-binary", "priu"),
        ],
    )
    def test_lone_request_keeps_its_path(
        self, trainers, name, method, monkeypatch
    ):
        """A lone request runs the 1-D runner, never the K-column code; it
        agrees with the uncompiled replay (``priu``) or with the same set
        inside a batch (PrIU-opt), and a batched call on the same trainer
        leaves its answer bit for bit."""
        trainer, _ = trainers[name]
        if method == "priu-opt" and trainer._opt is None:
            pytest.skip("PrIU-opt unavailable for this configuration")
        task = trainer.store.task.split("_")[0]
        calls = []

        def spy_on(attr):
            original = getattr(ReplayPlan, attr)

            def spy(self, *args, **kwargs):
                calls.append(attr)
                return original(self, *args, **kwargs)

            monkeypatch.setattr(ReplayPlan, attr, spy)

        spy_on(f"_run_{task}_single")
        spy_on(f"_run_{task}")
        removed = [4, 9, 44]
        lone = trainer.remove_many([removed], method=method)[0].weights
        assert set(calls) == {f"_run_{task}_single"}
        calls.clear()
        batch = trainer.remove_many([removed, [1, 2], removed, []], method=method)
        assert set(calls) == {f"_run_{task}"}
        if method == "priu":
            reference = trainer.remove(removed, method="priu-seq").weights
        else:
            reference = batch[0].weights
        np.testing.assert_allclose(lone, reference, atol=ATOL)
        again = trainer.remove_many([removed], method=method)[0].weights
        assert np.array_equal(lone, again)

    def test_remove_single_routes_through_plan(self, trainers):
        trainer, _ = trainers["binary"]
        removed = [4, 9, 44]
        via_plan = trainer.remove(removed, method="priu")
        via_seed = trainer.remove(removed, method="priu-seq")
        np.testing.assert_allclose(
            via_plan.weights, via_seed.weights, atol=ATOL
        )


class TestBatchedOptTail:
    def test_gd_diagonal_recursion_broadcasts_over_columns(self):
        rng = np.random.default_rng(5)
        m, k = 7, 4
        eigenvalues = rng.uniform(0.1, 5.0, size=(m, k))
        initial = rng.standard_normal(m)
        bias = rng.standard_normal((m, k))
        n_samples = rng.integers(50, 200, size=k).astype(float)
        batched = gd_diagonal_recursion(
            eigenvalues, initial[:, None], bias, n_samples=n_samples,
            n_iterations=40, learning_rate=0.01, regularization=0.05,
        )
        for j in range(k):
            single = gd_diagonal_recursion(
                eigenvalues[:, j], initial, bias[:, j],
                n_samples=float(n_samples[j]), n_iterations=40,
                learning_rate=0.01, regularization=0.05,
            )
            np.testing.assert_allclose(batched[:, j], single, atol=1e-14)


# One shared fitted run for the hypothesis sweep (linear, exact replay).
_HYP_DATA = make_regression(90, 5, noise=0.05, seed=181)
_HYP_OBJECTIVE = objective_for("linear", 0.1)
_HYP_SCHEDULE = make_schedule(_HYP_DATA.n_samples, 12, 35, seed=9)
_HYP_RESULT, _HYP_STORE = train_with_capture(
    _HYP_OBJECTIVE, _HYP_DATA.features, _HYP_DATA.labels, _HYP_SCHEDULE, 0.02,
)
_HYP_UPDATER = PrIUUpdater(_HYP_STORE, _HYP_DATA.features, _HYP_DATA.labels)
_HYP_PLAN = ReplayPlan(_HYP_STORE, _HYP_DATA.features, _HYP_DATA.labels)


@st.composite
def removal_set_lists(draw):
    one_set = st.lists(
        st.integers(min_value=0, max_value=_HYP_DATA.n_samples - 1),
        max_size=15,
        unique=True,
    )
    return draw(st.lists(one_set, min_size=1, max_size=5))


# Small fitted runs for the sweeps of the K-column runners.  Their
# schedules visit 12 × 8 = 96 slots of 120 samples, so some ids sit in no
# batch: a set of those hits no iteration.
SWEEP_CASES = [
    ("binary_logistic", "none", False),
    ("binary_logistic", "svd", False),
    ("binary_logistic", "auto", True),
    ("multinomial_logistic", "none", False),
    ("multinomial_logistic", "svd", False),
    ("linear", "auto", True),
]
SWEEP_SAMPLES = 120


@functools.lru_cache(maxsize=None)
def _sweep_case(task, compression, sparse, freeze_at=None):
    if sparse:
        data = make_sparse_binary_classification(150, 40, density=0.1, seed=191)
    elif task == "binary_logistic":
        data = make_binary_classification(150, 6, seed=192)
    else:
        data = make_multiclass_classification(150, 5, n_classes=3, seed=193)
    features = data.features[:SWEEP_SAMPLES]
    labels = data.labels[:SWEEP_SAMPLES]
    if task == "linear":
        labels = np.random.default_rng(3).standard_normal(SWEEP_SAMPLES)
    objective = objective_for(
        task, 0.05, n_classes=3 if task == "multinomial_logistic" else None
    )
    schedule = make_schedule(SWEEP_SAMPLES, 8, 12, seed=23)
    _, store = train_with_capture(
        objective, features, labels, schedule, 0.05,
        compression=compression, freeze_at=freeze_at,
    )
    seen = np.concatenate([record.batch for record in store.records])
    unseen = np.setdiff1d(np.arange(SWEEP_SAMPLES), seen)
    assert unseen.size
    return features, labels, store, unseen


@st.composite
def riders_batch(draw):
    """Drawn sets plus four riders: an empty set, a duplicate of the first,
    a set overlapping it, and a set of ids no batch holds (filled in by
    the test, which knows them)."""
    one_set = st.lists(
        st.integers(min_value=0, max_value=SWEEP_SAMPLES - 1),
        min_size=1,
        max_size=6,
        unique=True,
    )
    sets = draw(st.lists(one_set, min_size=1, max_size=12))
    overlap = sorted(set(sets[0]) | set(draw(one_set)))
    return sets + [[], list(sets[0]), overlap, None]


def _with_unseen(sets, unseen):
    return [unseen[:3] if s is None else s for s in sets]


class TestBatchedProperties:
    @settings(max_examples=30, deadline=None)
    @given(removal_set_lists())
    def test_any_batch_equals_sequential(self, sets):
        stacked = _HYP_PLAN.run(sets)
        for k, removed in enumerate(sets):
            np.testing.assert_allclose(
                stacked[:, k], _HYP_UPDATER.update(removed), atol=ATOL
            )

    @settings(max_examples=20, deadline=None)
    @given(removal_set_lists())
    def test_column_order_irrelevant(self, sets):
        forward = _HYP_PLAN.run(sets)
        backward = _HYP_PLAN.run(sets[::-1])
        np.testing.assert_allclose(
            forward, backward[:, ::-1], atol=1e-12
        )

    @pytest.mark.parametrize("task,compression,sparse", SWEEP_CASES)
    @settings(max_examples=6, deadline=None)
    @given(raw=riders_batch())
    def test_k_column_runners_match_the_updater(
        self, task, compression, sparse, raw
    ):
        """Up to 16 columns — empty, duplicate, overlapping and hit-free
        sets among them — each within 1e-10 of the reference updater."""
        features, labels, store, unseen = _sweep_case(task, compression, sparse)
        sets = _with_unseen(raw, unseen)
        stacked = ReplayPlan(store, features, labels).run(sets)
        updater = PrIUUpdater(store, features, labels)
        for k, removed in enumerate(sets):
            np.testing.assert_allclose(
                stacked[:, k], updater.update(removed), atol=ATOL,
                err_msg=f"column {k} of {len(sets)}",
            )

    @pytest.mark.parametrize("task", ["binary_logistic", "multinomial_logistic"])
    @pytest.mark.parametrize("n_requests", [2, 5, 16])
    @settings(max_examples=4, deadline=None)
    @given(raw=riders_batch())
    def test_stacked_opt_tail_matches_lone_requests(
        self, task, n_requests, raw
    ):
        """Column k of a PrIU-opt batch equals ``update_many([sets[k]])``,
        whose tail state runs per request."""
        features, labels, store, unseen = _sweep_case(
            task, "none", False, freeze_at=0.7
        )
        sets = _with_unseen(raw, unseen)
        if n_requests >= len(sets):
            sets = (sets * n_requests)[:n_requests]
        else:
            sets = sets[: n_requests - 2] + sets[-2:]
        updater = PrIUOptLogisticUpdater(store, features, labels)
        stacked = updater.update_many(sets)
        assert stacked.shape[1] == n_requests
        for k, removed in enumerate(sets):
            np.testing.assert_allclose(
                stacked[:, k], updater.update_many([removed])[:, 0],
                atol=ATOL, err_msg=f"column {k} of {n_requests}",
            )
