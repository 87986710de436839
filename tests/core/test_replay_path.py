"""The one replay path: per-iteration runners behind ``kernels.run_blocked``.

Every compiled-plan answer advances the weights one iteration at a time
— the 1-D runner for a lone request, the K-column runner for a batch —
and every replay enters through :func:`repro.core.kernels.run_blocked`,
the named entry point the repository benchmark's tracer wraps.  These
tests pin that entry point's contract, the places where a replay range
is cut (split replays, the PrIU-opt freeze point, SVD rank changes,
removals that hit every iteration), the exact set of arrays a plan
archives, the sparse plan's cached CSR batch blocks, and a commit-heavy
checkpoint cycle.
"""

import numpy as np
import pytest

from repro import IncrementalTrainer
from repro.core import PrIUUpdater, ReplayPlan, kernels, train_with_capture
from repro.core.serialization import (
    load_plan,
    load_store,
    save_plan,
    save_store,
)
from repro.datasets import (
    make_binary_classification,
    make_multiclass_classification,
    make_regression,
    make_sparse_binary_classification,
)
from repro.models import make_schedule, objective_for

ATOL = 1e-10
N_ITERATIONS = 60


def _capture(task, compression, sparse=False, freeze_at=None, epsilon=0.01):
    rng = np.random.default_rng(11)
    if task == "linear":
        if sparse:
            data = make_sparse_binary_classification(
                260, 120, density=0.05, seed=61
            )
            features, labels = data.features, rng.standard_normal(260)
        else:
            data = make_regression(240, 12, noise=0.05, seed=62)
            features, labels = data.features, data.labels
        objective = objective_for("linear", 0.1)
    elif task == "binary_logistic":
        if sparse:
            data = make_sparse_binary_classification(
                300, 150, density=0.04, seed=63
            )
        else:
            data = make_binary_classification(
                280, 10, separation=1.0, seed=64
            )
        features, labels = data.features, data.labels
        objective = objective_for("binary_logistic", 0.05)
    else:
        data = make_multiclass_classification(300, 9, n_classes=3, seed=65)
        features, labels = data.features, data.labels
        objective = objective_for("multinomial_logistic", 0.05, n_classes=3)
    n = features.shape[0]
    schedule = make_schedule(n, 32, N_ITERATIONS, seed=23)
    _, store = train_with_capture(
        objective, features, labels, schedule, 0.02,
        compression=compression, epsilon=epsilon, freeze_at=freeze_at,
    )
    return features, labels, store


def _random_sets(n_samples, rng, k=4, max_size=20):
    sets = [
        rng.choice(n_samples, size=rng.integers(1, max_size + 1), replace=False)
        for _ in range(k - 1)
    ]
    sets.append(np.empty(0, dtype=int))
    return sets


CASES = [
    ("linear", "none", False),
    ("linear", "svd", False),
    ("linear", "auto", True),
    ("binary_logistic", "none", False),
    ("binary_logistic", "svd", False),
    ("binary_logistic", "auto", True),
    ("multinomial_logistic", "none", False),
    ("multinomial_logistic", "svd", False),
]
TASKS = ["linear", "binary_logistic", "multinomial_logistic"]


def _recording(monkeypatch):
    """Wrap ``kernels.run_blocked`` the way the benchmark tracer does and
    return the list each call's ``(start, end, tally)`` lands in."""
    original = kernels.run_blocked
    calls = []

    def recorder(weights, hits, start, end, runner):
        result, tally = original(weights, hits, start, end, runner)
        calls.append((start, end, tally))
        return result, tally

    monkeypatch.setattr(kernels, "run_blocked", recorder)
    return calls


# ------------------------------------------------------- the entry point
class TestRunBlocked:
    @pytest.mark.parametrize(
        "start,end", [(0, 60), (0, 0), (17, 43), (59, 60), (30, 10)]
    )
    def test_returns_the_runners_weights_and_an_iteration_tally(
        self, start, end
    ):
        seen = []
        produced = np.arange(3.0)

        def runner(weights, hits, first, stop):
            seen.append((weights, hits, first, stop))
            return produced

        weights, hits = np.zeros(3), {"scales": None}
        result, tally = kernels.run_blocked(weights, hits, start, end, runner)
        assert result is produced
        assert tally == {"scalar_iterations": max(0, end - start)}
        ((got_weights, got_hits, first, stop),) = seen
        assert got_weights is weights and got_hits is hits
        assert (first, stop) == (start, end)

    @pytest.mark.parametrize("n_requests", [1, 3])
    @pytest.mark.parametrize("task", TASKS)
    def test_every_plan_replay_enters_through_the_module_attribute(
        self, task, n_requests, monkeypatch
    ):
        features, labels, store = _capture(task, "none")
        plan = ReplayPlan(store, features, labels)
        sets = _random_sets(store.n_samples, np.random.default_rng(40))
        sets = sets[:n_requests]
        unpatched = plan.run(sets)
        calls = _recording(monkeypatch)
        assert np.array_equal(plan.run(sets), unpatched)
        assert calls == [
            (0, N_ITERATIONS, {"scalar_iterations": N_ITERATIONS})
        ]

    def test_split_replay_reports_each_range(self, monkeypatch):
        features, labels, store = _capture("binary_logistic", "none")
        plan = ReplayPlan(store, features, labels)
        calls = _recording(monkeypatch)
        partial = plan.run([[2, 4, 8]], stop_at=25)
        plan.run([[2, 4, 8]], start_weights=partial, start_iteration=25)
        assert [(start, end) for start, end, _ in calls] == [
            (0, 25), (25, N_ITERATIONS)
        ]
        assert sum(t["scalar_iterations"] for *_, t in calls) == N_ITERATIONS

    def test_priu_opt_phase_one_stops_at_the_freeze_point(self, monkeypatch):
        data = make_binary_classification(260, 8, seed=13)
        trainer = IncrementalTrainer(
            "binary_logistic", learning_rate=0.1, regularization=0.01,
            batch_size=25, n_iterations=40, seed=0, freeze_fraction=0.7,
        )
        trainer.fit(data.features, data.labels)
        t_s = int(trainer.store.frozen.t_s)
        assert 0 < t_s < 40
        calls = _recording(monkeypatch)
        trainer.remove_many([[2, 9], [40]], method="priu-opt")
        assert [(start, end) for start, end, _ in calls] == [(0, t_s)]


# ---------------------------------------------------- where replays are cut
class TestReplayCuts:
    @pytest.mark.parametrize("n_requests", [1, 4])
    @pytest.mark.parametrize("split", [2, 7, 13])
    def test_split_anywhere_is_bit_identical_to_one_replay(
        self, split, n_requests
    ):
        """Stopping at any iteration and resuming from the partial weights
        replays the same per-iteration arithmetic as one uncut run."""
        features, labels, store = _capture("binary_logistic", "svd")
        plan = ReplayPlan(store, features, labels)
        sets = _random_sets(store.n_samples, np.random.default_rng(43))
        sets = sets[:n_requests]
        whole = plan.run(sets)
        partial = plan.run(sets, stop_at=split)
        resumed = plan.run(sets, start_weights=partial, start_iteration=split)
        assert np.array_equal(resumed, whole)

    def test_svd_rank_changes_mid_run(self):
        features, labels, store = _capture(
            "linear", "svd", epsilon=0.25  # aggressive truncation: ranks vary
        )
        ranks = np.array([r.summary.right.shape[1] for r in store.records])
        assert np.any(np.diff(ranks) != 0), "fixture must change rank"
        plan = ReplayPlan(store, features, labels)
        updater = PrIUUpdater(store, features, labels)
        sets = _random_sets(store.n_samples, np.random.default_rng(44))
        stacked = plan.run(sets)
        for k, removed in enumerate(sets):
            np.testing.assert_allclose(
                stacked[:, k], updater.update(removed), atol=ATOL, rtol=0.0
            )

    def test_freeze_point_is_a_clean_cut(self):
        """PrIU-opt's phase-1 replay stops exactly at ``t_s``."""
        features, labels, store = _capture(
            "binary_logistic", "svd", freeze_at=0.5
        )
        t_s = int(store.frozen.t_s)
        plan = ReplayPlan(store, features, labels)
        updater = PrIUUpdater(store, features, labels)
        removed = np.arange(0, 25, 3)
        np.testing.assert_allclose(
            plan.run([removed], stop_at=t_s)[:, 0],
            updater.update(removed, stop_at=t_s),
            atol=ATOL, rtol=0.0,
        )
        np.testing.assert_allclose(
            plan.run_single(removed), updater.update(removed),
            atol=ATOL, rtol=0.0,
        )

    @pytest.mark.parametrize("task", TASKS)
    def test_removal_hitting_every_iteration(self, task):
        features, labels, store = _capture(task, "none")
        removed = np.arange(0, store.n_samples, 2)
        _, hit_iterations, _ = store.packed_index().lookup(removed)
        assert np.unique(hit_iterations).size == N_ITERATIONS
        plan = ReplayPlan(store, features, labels)
        want = PrIUUpdater(store, features, labels).update(removed)
        np.testing.assert_allclose(
            plan.run_single(removed), want, atol=ATOL, rtol=0.0
        )
        np.testing.assert_allclose(
            plan.run([removed, [1]])[:, 0], want, atol=ATOL, rtol=0.0
        )


# ------------------------------------------------------- archived layout
_COMMON_ARRAYS = {"w0", "index_samples", "index_iterations", "index_positions"}
_META_KEYS = {
    "task",
    "kind",
    "sparse",
    "n_iterations",
    "n_params",
    "n_samples",
    "learning_rate",
    "regularization",
}


class TestArchivedLayout:
    @pytest.mark.parametrize("task,compression,sparse", CASES)
    def test_state_is_exactly_the_compiled_layout(
        self, task, compression, sparse
    ):
        """A plan archives what it derives beyond the store and its
        scalar descriptors, and nothing else: no copy of the store's
        per-sample state or moments, no derived replay schedule."""
        features, labels, store = _capture(task, compression, sparse)
        plan = ReplayPlan(store, features, labels)
        arrays = plan.state_arrays()
        assert set(arrays) == _COMMON_ARRAYS | ({"moments"} if sparse else set())
        meta = plan.state_meta()
        assert set(meta) == _META_KEYS
        assert meta["sparse"] == str(int(sparse))
        assert int(meta["n_iterations"]) == N_ITERATIONS


# ---------------------------------------------------- sparse block cache
class TestSparseBlockCache:
    """A sparse plan always slices and keeps each iteration's CSR batch
    block: the replay loops read ``_blocks[t]``, never ``features``."""

    @staticmethod
    def _assert_blocks_match(plan, features):
        assert len(plan._blocks) == plan.n_iterations
        for block, record in zip(plan._blocks, plan.store.records):
            expected = features[record.batch]
            assert block.shape == expected.shape
            assert (block != expected).nnz == 0

    @pytest.mark.parametrize("task", ["linear", "binary_logistic"])
    def test_every_batch_block_is_cached(self, task):
        features, labels, store = _capture(task, "auto", sparse=True)
        plan = ReplayPlan(store, features, labels)
        self._assert_blocks_match(plan, features)
        block_bytes = sum(
            b.data.nbytes + b.indices.nbytes + b.indptr.nbytes
            for b in plan._blocks
        )
        assert plan.nbytes() >= block_bytes + plan.moments.nbytes

    def test_reloaded_plan_rebinds_blocks(self, tmp_path):
        features, labels, store = _capture(
            "binary_logistic", "auto", sparse=True
        )
        plan = ReplayPlan(store, features, labels)
        save_store(store, tmp_path / "store.npz")
        save_plan(plan, tmp_path / "plan.npz")
        reloaded = load_plan(
            tmp_path / "plan.npz",
            load_store(tmp_path / "store.npz"),
            features,
            labels,
        )
        self._assert_blocks_match(reloaded, features)
        sets = _random_sets(store.n_samples, np.random.default_rng(46))
        assert np.array_equal(reloaded.run(sets), plan.run(sets))
        assert np.array_equal(
            reloaded.run_single(sets[0]), plan.run_single(sets[0])
        )

    @pytest.mark.parametrize("task", ["linear", "binary_logistic"])
    def test_commit_reslices_the_blocks_it_touches(self, task):
        data = make_sparse_binary_classification(
            300, 120, density=0.05, seed=74
        )
        labels = (
            np.random.default_rng(1).standard_normal(data.n_samples)
            if task == "linear" else data.labels
        )
        trainer = IncrementalTrainer(
            task, learning_rate=0.05, regularization=0.01, batch_size=40,
            n_iterations=50, seed=0, method="priu",
        )
        trainer.fit(data.features, labels)
        trainer.remove([3, 50, 120], method="priu", commit=True)
        trainer.remove([7, 8], method="priu", commit=True)
        plan = trainer._plan
        self._assert_blocks_match(plan, trainer.features)
        fresh = ReplayPlan(trainer.store, trainer.features, trainer.labels)
        probe = [5, 17, 40]
        assert np.array_equal(plan.run_single(probe), fresh.run_single(probe))


# ----------------------------------------------------------- lifecycle
class TestCommitHeavyLifecycle:
    @staticmethod
    def _trainer():
        data = make_regression(300, 8, noise=0.05, seed=77)
        trainer = IncrementalTrainer(
            "linear", learning_rate=0.05, regularization=0.01,
            batch_size=6,  # below n_features: auto-compression picks SVD
            n_iterations=80, seed=0, method="priu",
        )
        trainer.fit(data.features, data.labels)
        return trainer, data

    def test_commit_touching_every_iteration_round_trips_checkpoint(
        self, tmp_path
    ):
        trainer, data = self._trainer()
        # One member of every mini-batch: the commit dirties every iteration.
        removed = np.unique([r.batch[0] for r in trainer.store.records])
        receipt = trainer.commit(trainer.remove(removed, method="priu"))
        assert receipt["mode"] == "refresh"
        assert receipt["touched_iterations"] == trainer._plan.n_iterations
        trainer.save_checkpoint(tmp_path)
        reloaded = IncrementalTrainer.from_checkpoint(
            tmp_path, data.features, data.labels, method="priu"
        )
        ours = trainer._plan.state_arrays()
        theirs = reloaded._plan.state_arrays()
        assert ours.keys() == theirs.keys()
        for key, value in ours.items():
            assert np.array_equal(np.asarray(theirs[key]), value), key
        probe = [4, 8, 15]
        assert np.array_equal(
            reloaded.remove(probe, method="priu").weights,
            trainer.remove(probe, method="priu").weights,
        )

    def test_maintain_after_commits_matches_fresh_compile(self):
        trainer, _ = self._trainer()
        for batch in ([2, 9], [31, 77], [100, 151]):
            trainer.remove(batch, method="priu", commit=True)
        report = trainer.maintain()
        assert "svd" in report.performed
        fresh = ReplayPlan(trainer.store, trainer.features, trainer.labels)
        ours = trainer._plan.state_arrays()
        theirs = fresh.state_arrays()
        assert ours.keys() == theirs.keys()
        for key, value in theirs.items():
            assert ours[key].dtype == value.dtype, key
            assert np.array_equal(ours[key], value), key
        removed = [4, 8, 15]
        assert np.array_equal(
            trainer._plan.run_single(removed), fresh.run_single(removed)
        )
