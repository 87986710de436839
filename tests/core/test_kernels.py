"""Iteration-blocked replay kernel: blocked GEMMs ≡ per-iteration replay.

The contract under test: for every task × representation, a plan compiled
with block descriptors (``kernel_block_size >= 2``) answers every removal
query within atol 1e-10 of the per-iteration scalar path, and
``kernel_block_size <= 1`` *is* the scalar path bit-for-bit.  Block
boundaries are exercised where the grouping rules cut: uneven tails,
``freeze_at`` phase boundaries, SVD rank changes mid-run, and hits that
invalidate a block at serve time.  Commits drop the descriptors they
dirty; maintenance regroups; archives round-trip the descriptors through
``save_plan``/``load_plan`` including mmap mode.
"""

import numpy as np
import pytest

from repro import IncrementalTrainer
from repro.core import ReplayPlan, train_with_capture
from repro.core import kernels
from repro.core.replay_plan import _drop_rows
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
    schedule = make_schedule(n, 32, 60, seed=23)
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


class TestBlockedEqualsScalar:
    @pytest.mark.parametrize("task,compression,sparse", CASES)
    def test_blocked_matches_scalar_within_contract(
        self, task, compression, sparse
    ):
        features, labels, store = _capture(task, compression, sparse)
        blocked = ReplayPlan(store, features, labels)
        scalar = ReplayPlan(store, features, labels, kernel_block_size=1)
        rng = np.random.default_rng(41)
        sets = _random_sets(store.n_samples, rng)
        got = blocked.run(sets)
        want = scalar.run(sets)
        np.testing.assert_allclose(got, want, atol=ATOL, rtol=0.0)
        # A hit-free query (the empty set alone) fuses every descriptor;
        # the mixed sets above may legitimately invalidate all blocks at
        # this small n (every sample lands in ~15% of the batches).
        tally = ReplayPlan(store, features, labels)
        tally.run([np.empty(0, dtype=int)])
        stats = tally.kernel_stats()
        if compression == "svd" and not sparse:
            # Dense SVD plans get descriptors and actually fuse work.
            assert stats["blocks_compiled"] > 0
            assert (
                stats["fused_iterations"] == tally._kernel.fused_iterations()
            )
        else:
            # Dense-summary and sparse plans stay on the scalar path.
            assert stats["blocks_compiled"] == 0
            assert stats["fused_iterations"] == 0

    def test_block_size_one_is_bit_identical_to_legacy(self):
        features, labels, store = _capture("linear", "svd")
        plan_bs1 = ReplayPlan(store, features, labels, kernel_block_size=1)
        assert plan_bs1._kernel is None  # nothing compiled at all
        legacy = ReplayPlan(store, features, labels)
        legacy._kernel = None  # force the pre-kernel serve path
        rng = np.random.default_rng(42)
        sets = _random_sets(store.n_samples, rng)
        assert np.array_equal(plan_bs1.run(sets), legacy.run(sets))
        removed = np.arange(0, 40, 5)
        assert np.array_equal(
            plan_bs1.run_single(removed), legacy.run_single(removed)
        )

    @pytest.mark.parametrize("block_size", [2, 7, 13])
    def test_uneven_tail_blocks(self, block_size):
        """τ not divisible by the block size leaves a shorter tail run."""
        features, labels, store = _capture("binary_logistic", "svd")
        blocked = ReplayPlan(
            store, features, labels, kernel_block_size=block_size
        )
        assert blocked._kernel is not None
        spans = blocked._kernel.stops - blocked._kernel.starts
        assert spans.max() <= block_size
        # Descriptors never overlap and stay ordered.
        assert np.all(
            blocked._kernel.starts[1:] >= blocked._kernel.stops[:-1]
        )
        scalar = ReplayPlan(store, features, labels, kernel_block_size=1)
        rng = np.random.default_rng(43)
        sets = _random_sets(store.n_samples, rng)
        np.testing.assert_allclose(
            blocked.run(sets), scalar.run(sets), atol=ATOL, rtol=0.0
        )

    def test_rank_change_splits_blocks(self):
        """No descriptor spans an SVD rank change."""
        features, labels, store = _capture(
            "linear", "svd", epsilon=0.25  # aggressive truncation: ranks vary
        )
        plan = ReplayPlan(store, features, labels)
        assert plan._kernel is not None
        ranks = np.array([r.shape[1] for r in plan._rights])
        changes = np.flatnonzero(np.diff(ranks) != 0) + 1
        assert changes.size > 0, "fixture must exercise a rank change"
        for descriptor in plan._kernel.descriptors:
            inside = (changes > descriptor.start) & (changes < descriptor.stop)
            assert not inside.any(), (
                f"block [{descriptor.start}, {descriptor.stop}) spans a "
                f"rank change"
            )
        scalar = ReplayPlan(store, features, labels, kernel_block_size=1)
        rng = np.random.default_rng(44)
        sets = _random_sets(store.n_samples, rng)
        np.testing.assert_allclose(
            plan.run(sets), scalar.run(sets), atol=ATOL, rtol=0.0
        )

    def test_freeze_at_boundary_splits_blocks(self):
        """The PrIU-opt phase-1 stop never lands inside a block."""
        features, labels, store = _capture(
            "binary_logistic", "svd", freeze_at=0.5
        )
        assert store.frozen is not None
        t_s = int(store.frozen.t_s)
        plan = ReplayPlan(store, features, labels)
        assert plan._kernel is not None
        for descriptor in plan._kernel.descriptors:
            assert not (descriptor.start < t_s < descriptor.stop)
        scalar = ReplayPlan(store, features, labels, kernel_block_size=1)
        rng = np.random.default_rng(45)
        sets = _random_sets(store.n_samples, rng)
        np.testing.assert_allclose(
            plan.run(sets), scalar.run(sets), atol=ATOL, rtol=0.0
        )
        # Phase-1 replay stops exactly at the freeze point: blocks whose
        # span crosses t_s must not be applied past the stop.
        removed = np.arange(0, 25, 3)
        np.testing.assert_allclose(
            plan.run([removed], stop_at=t_s),
            scalar.run([removed], stop_at=t_s),
            atol=ATOL, rtol=0.0,
        )

    def test_hits_invalidate_blocks_at_serve_time(self):
        """A removal set touching a block's batches falls back to scalar."""
        features, labels, store = _capture("linear", "svd")
        plan = ReplayPlan(store, features, labels)
        assert plan._kernel is not None
        # Removing many samples guarantees hits across most iterations.
        removed = np.arange(0, store.n_samples, 2)
        scalar = ReplayPlan(store, features, labels, kernel_block_size=1)
        np.testing.assert_allclose(
            plan.run_single(removed), scalar.run_single(removed),
            atol=ATOL, rtol=0.0,
        )
        stats = plan.kernel_stats()
        assert stats["scalar_iterations"] > 0  # fallback actually taken


class TestKernelLifecycle:
    def _trainer(self, **extra):
        data = make_regression(300, 8, noise=0.05, seed=77)
        trainer = IncrementalTrainer(
            "linear", learning_rate=0.05, regularization=0.01,
            batch_size=6,  # below n_features: auto-compression picks SVD
            n_iterations=80, seed=0, method="priu", **extra,
        )
        trainer.fit(data.features, data.labels)
        return trainer

    def test_commit_drops_only_dirty_blocks(self):
        """A commit keeps exactly the clean descriptors, arrays untouched;
        maintenance then regroups to a fresh compile's kernel bit for bit."""
        trainer = self._trainer()
        kernel = trainer._plan._kernel
        assert kernel is not None
        before = list(kernel.descriptors)
        removed = np.array([3, 50, 120])
        _, hit_iterations, _ = trainer.store.packed_index().lookup(removed)
        touched = np.unique(hit_iterations)
        clean = [
            d for d in before
            if not np.any((touched >= d.start) & (touched < d.stop))
        ]
        assert 0 < len(clean) < len(before)
        receipt = trainer.commit(trainer.remove(removed, method="priu"))
        assert receipt["mode"] == "refresh"
        kept = trainer._plan._kernel.descriptors
        assert [(d.start, d.stop) for d in kept] == [
            (d.start, d.stop) for d in clean
        ]
        for ours, theirs in zip(kept, clean):
            assert ours.alpha == theirs.alpha
            for part in ("left_t", "right_t", "offset"):
                assert np.array_equal(getattr(ours, part), getattr(theirs, part))
        assert receipt["kernel_blocks_dropped"] == len(before) - len(clean)
        # Post-commit, fresh queries still match the scalar path.
        scalar = ReplayPlan(
            trainer.store, trainer.features, trainer.labels,
            kernel_block_size=1,
        )
        probe = [5, 17, 40]
        np.testing.assert_allclose(
            trainer._plan.run_single(probe),
            scalar.run_single(probe),
            atol=ATOL, rtol=0.0,
        )
        report = trainer.maintain()
        assert "svd" in report.performed
        fresh = ReplayPlan(trainer.store, trainer.features, trainer.labels)
        ours = {
            k: v for k, v in trainer._plan.state_arrays().items()
            if k.startswith("kernel_")
        }
        theirs = {
            k: v for k, v in fresh.state_arrays().items()
            if k.startswith("kernel_")
        }
        assert ours.keys() == theirs.keys() and ours
        for key, value in theirs.items():
            assert ours[key].dtype == value.dtype, key
            assert np.array_equal(ours[key], value), key

    def test_fully_dropped_schedule_round_trips_checkpoint(self, tmp_path):
        """A commit touching every block leaves an empty schedule, which a
        checkpoint persists as empty: the reload is bit-identical."""
        trainer = self._trainer()
        trainer.remove(np.arange(0, trainer.n_samples, 3), commit=True)
        assert len(trainer._plan._kernel) == 0
        trainer.save_checkpoint(tmp_path)
        data = make_regression(300, 8, noise=0.05, seed=77)
        reloaded = IncrementalTrainer.from_checkpoint(
            tmp_path, data.features, data.labels, method="priu"
        )
        assert len(reloaded._plan._kernel) == 0
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

    def test_maintain_regroups_to_fresh_compile_layout(self):
        trainer = self._trainer()
        for batch in ([2, 9], [31, 77], [100, 151]):
            trainer.remove(batch, method="priu", commit=True)
        trainer.maintain()
        maintained = trainer._plan._kernel
        assert maintained is not None
        fresh = ReplayPlan(trainer.store, trainer.features, trainer.labels)
        assert np.array_equal(maintained.starts, fresh._kernel.starts)
        assert np.array_equal(maintained.stops, fresh._kernel.stops)
        removed = [4, 8, 15]
        np.testing.assert_allclose(
            trainer._plan.run_single(removed),
            fresh.run_single(removed),
            atol=ATOL, rtol=0.0,
        )

    def test_kernel_bytes_reported_separately_from_plan_nbytes(self):
        features, labels, store = _capture("linear", "svd")
        blocked = ReplayPlan(store, features, labels)
        scalar = ReplayPlan(store, features, labels, kernel_block_size=1)
        assert blocked.kernel_nbytes() > 0
        assert scalar.kernel_nbytes() == 0
        # The descriptors are derived state: maintained-vs-fresh nbytes
        # comparisons must not see them.
        assert blocked.nbytes() == scalar.nbytes()

    def test_kernel_stats_accumulate_across_runs(self):
        features, labels, store = _capture("linear", "svd")
        plan = ReplayPlan(store, features, labels)
        assert plan.kernel_stats()["fused_iterations"] == 0
        plan.run_single([1, 2])
        first = plan.kernel_stats()["fused_iterations"]
        assert first > 0
        plan.run_single([3])
        assert plan.kernel_stats()["fused_iterations"] > first


class TestKernelSerialization:
    @pytest.mark.parametrize("mmap", [False, True])
    def test_round_trip_preserves_block_layout_and_answers(
        self, tmp_path, mmap
    ):
        features, labels, store = _capture("linear", "svd")
        plan = ReplayPlan(store, features, labels)
        save_store(store, tmp_path / "store.npz")
        save_plan(plan, tmp_path / "plan.npz")
        reloaded_store = load_store(tmp_path / "store.npz")
        reloaded = load_plan(
            tmp_path / "plan.npz", reloaded_store, features, labels,
            mmap=mmap,
        )
        assert reloaded._kernel is not None
        assert np.array_equal(reloaded._kernel.starts, plan._kernel.starts)
        assert np.array_equal(reloaded._kernel.stops, plan._kernel.stops)
        for ours, theirs in zip(
            plan._kernel.descriptors, reloaded._kernel.descriptors
        ):
            # Same values *and* same layout: row-range views of the
            # archived stacks are C-contiguous like a fresh compile, so
            # BLAS reduces in the same order and answers stay bit-equal.
            assert np.array_equal(ours.left_t, theirs.left_t)
            assert theirs.left_t.flags["C_CONTIGUOUS"]
            assert theirs.right_t.flags["C_CONTIGUOUS"]
        removed = np.arange(0, 60, 7)
        assert np.array_equal(
            reloaded.run_single(removed), plan.run_single(removed)
        )

    def test_block_size_mismatch_recompiles(self, tmp_path):
        features, labels, store = _capture("linear", "svd")
        plan = ReplayPlan(store, features, labels)  # archives at default 16
        save_store(store, tmp_path / "store.npz")
        save_plan(plan, tmp_path / "plan.npz")
        reloaded_store = load_store(tmp_path / "store.npz")
        reloaded = load_plan(
            tmp_path / "plan.npz", reloaded_store, features, labels,
            kernel_block_size=5,
        )
        assert reloaded._kernel is not None
        assert reloaded._kernel.block_size == 5
        spans = reloaded._kernel.stops - reloaded._kernel.starts
        assert spans.max() <= 5
        removed = np.arange(0, 60, 7)
        np.testing.assert_allclose(
            reloaded.run_single(removed), plan.run_single(removed),
            atol=ATOL, rtol=0.0,
        )


class TestDropRows:
    def test_matches_np_delete_on_random_cases(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            width = int(rng.integers(1, 5))
            arr = rng.standard_normal((n, width)) if width > 1 else (
                rng.standard_normal(n)
            )
            k = int(rng.integers(0, n + 1))
            dropped = np.sort(
                rng.choice(n, size=k, replace=False)
            ).astype(np.int64)
            got = _drop_rows(arr, dropped)
            want = np.delete(arr, dropped, axis=0)
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    def test_all_rows_dropped(self):
        arr = np.arange(12.0).reshape(4, 3)
        got = _drop_rows(arr, np.arange(4, dtype=np.int64))
        assert got.shape == (0, 3)
