"""Committed deletions: compaction, plan refresh, and checkpoint round-trips.

The correctness contract of the commit path is *compositionality*: replaying
the committed (compacted) trainer with a fresh removal set ``T`` must match
replaying the original trainer with ``S ∪ T`` to reduction-order noise
(atol 1e-10), for every task × summary representation.  For the linear task
— whose capture is trajectory-independent — the committed store is
additionally checked against a genuine from-scratch re-capture on the
reduced dataset.  The columns' row-drop helper (``_drop_rows``) is
checked against ``np.delete``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import IncrementalTrainer
from repro.core import train_with_capture
from repro.core.provenance_store import _drop_rows, remap_surviving_ids
from repro.core.replay_plan import ReplayPlan
from repro.datasets import (
    make_binary_classification,
    make_multiclass_classification,
    make_regression,
    make_sparse_binary_classification,
)
from repro.models import objective_for

ATOL = 1e-10

# task → (constructor kwargs, dataset); batch sizes below the feature count
# flip auto-compression to SVD factors.
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


def _removal_sets(trainer, seed=0, first=4, second=5):
    rng = np.random.default_rng(seed)
    n = trainer.n_samples
    committed = np.sort(rng.choice(n, size=first, replace=False))
    rest = np.setdiff1d(np.arange(n), committed)
    query_old = np.sort(rng.choice(rest, size=second, replace=False))
    return committed, query_old


@pytest.mark.parametrize("task,rep,overrides", CONFIGS)
class TestCommitCompositionality:
    def test_commit_then_query_matches_union_on_original(
        self, task, rep, overrides
    ):
        reference = _fit(task, rep, overrides)
        trainer = _fit(task, rep, overrides)
        committed, query_old = _removal_sets(trainer, seed=1)
        outcome = trainer.remove(committed, method="priu", commit=True)
        # The committed baseline is the served counterfactual…
        assert np.array_equal(trainer.weights_, outcome.weights)
        # …and a fresh query against the compacted state answers exactly
        # what the original trainer answers for the union.
        query_new = remap_surviving_ids(query_old, committed)
        got = trainer.remove(query_new, method="priu").weights
        want = reference.remove(
            np.union1d(committed, query_old), method="priu"
        ).weights
        np.testing.assert_allclose(got, want, atol=ATOL, rtol=0.0)

    @pytest.mark.parametrize("n_commits", [1, 3])
    def test_refresh_matches_fresh_compile(
        self, task, rep, overrides, n_commits
    ):
        """The refreshed plan's SoA state is a fresh compile's, bit for bit."""
        trainer = _fit(task, rep, overrides)
        rng = np.random.default_rng(2)
        for _ in range(n_commits):
            ids = np.sort(rng.choice(trainer.n_samples, size=3, replace=False))
            receipt = trainer.commit(trainer.remove(ids, method="priu"))
            assert receipt["mode"] == "refresh"
        fresh = ReplayPlan(trainer.store, trainer.features, trainer.labels)
        ours = trainer._plan.state_arrays()
        theirs = fresh.state_arrays()
        assert list(ours) == list(theirs)
        for key in theirs:
            assert ours[key].dtype == theirs[key].dtype, key
            assert np.array_equal(ours[key], theirs[key]), key
        query = np.sort(rng.choice(trainer.n_samples, size=5, replace=False))
        np.testing.assert_allclose(
            trainer.remove(query, method="priu").weights,
            fresh.run_single(query),
            atol=ATOL,
            rtol=0.0,
        )

    def test_sequential_commits_compose(self, task, rep, overrides):
        reference = _fit(task, rep, overrides)
        trainer = _fit(task, rep, overrides)
        first, second_old = _removal_sets(trainer, seed=3)
        trainer.remove(first, method="priu", commit=True)
        second_new = remap_surviving_ids(second_old, first)
        trainer.remove(second_new, method="priu", commit=True)
        # The empty replay of the twice-compacted store reproduces the
        # union counterfactual of the untouched trainer.
        got = trainer.remove([], method="priu").weights
        want = reference.remove(
            np.union1d(first, second_old), method="priu"
        ).weights
        np.testing.assert_allclose(got, want, atol=ATOL, rtol=0.0)
        assert trainer.n_samples == reference.n_samples - first.size - second_old.size
        # The log accumulates original-space ids in commit order.
        assert np.array_equal(
            np.sort(trainer.deletion_log), np.union1d(first, second_old)
        )

    def test_reference_paths_agree_after_commit(self, task, rep, overrides):
        """Plan, uncompiled updater and remove_many all serve the same
        compacted state."""
        trainer = _fit(task, rep, overrides)
        committed, query_old = _removal_sets(trainer, seed=4)
        trainer.remove(committed, method="priu", commit=True)
        query_new = remap_surviving_ids(query_old, committed)
        via_plan = trainer.remove(query_new, method="priu").weights
        via_seq = trainer.remove(query_new, method="priu-seq").weights
        np.testing.assert_allclose(via_plan, via_seq, atol=ATOL, rtol=0.0)
        [batched] = trainer.remove_many([query_new], method="priu")
        np.testing.assert_allclose(batched.weights, via_plan, atol=ATOL, rtol=0.0)


class TestCommitAgainstRecapture:
    """Linear capture is trajectory-independent, so the compacted store can
    be checked against a genuine re-capture on the reduced dataset (same
    batches minus the committed samples, ids remapped)."""

    def test_dense_linear_commit_equals_recapture(self):
        data = _DATASETS["linear"]
        trainer = _fit("linear", "dense", dict(batch_size=40))
        committed, query_old = _removal_sets(trainer, seed=5)
        trainer.remove(committed, method="priu", commit=True)

        survivors = np.setdiff1d(np.arange(data.features.shape[0]), committed)
        features = data.features[survivors]
        labels = data.labels[survivors]
        objective = objective_for("linear", trainer.regularization)
        result, store = train_with_capture(
            objective,
            features,
            labels,
            trainer.schedule,  # the compacted (materialized) schedule
            trainer.learning_rate,
            compression="none",
        )
        # Committed baseline == re-captured model.
        np.testing.assert_allclose(
            trainer.weights_, result.weights, atol=ATOL, rtol=0.0
        )
        # Fresh queries agree between compacted and re-captured provenance.
        plan = ReplayPlan(store, features, labels)
        query_new = remap_surviving_ids(query_old, committed)
        np.testing.assert_allclose(
            trainer.remove(query_new, method="priu").weights,
            plan.run_single(query_new),
            atol=ATOL,
            rtol=0.0,
        )


class TestRemoveManyCommit:
    def test_prefix_union_semantics(self):
        reference = _fit("binary_logistic", "dense", dict(batch_size=40))
        trainer = _fit("binary_logistic", "dense", dict(batch_size=40))
        sets = [np.array([1, 2]), np.array([10, 11]), np.array([2, 30])]
        outcomes = trainer.remove_many(sets, method="priu", commit=True)
        acc = np.empty(0, dtype=np.int64)
        for removed, outcome in zip(sets, outcomes):
            acc = np.union1d(acc, removed)
            want = reference.remove(acc, method="priu").weights
            np.testing.assert_allclose(outcome.weights, want, atol=ATOL, rtol=0.0)
            assert np.array_equal(outcome.removed, np.unique(removed))
        assert np.array_equal(trainer.weights_, outcomes[-1].weights)
        assert trainer.n_samples == reference.n_samples - acc.size

    def test_priu_opt_still_serves_after_commit(self):
        trainer = _fit("binary_logistic", "dense", dict(batch_size=40), method="auto")
        assert trainer._opt is not None
        trainer.remove([3, 40, 90], method="priu", commit=True)
        assert trainer._opt is not None
        exact = trainer.remove([5, 6], method="priu").weights
        approx = trainer.remove([5, 6], method="priu-opt").weights
        # PrIU-opt keeps its usual approximation envelope post-commit.
        assert float(np.max(np.abs(exact - approx))) < 0.05

    def test_stale_outcome_is_rejected(self):
        trainer = _fit("linear", "dense", dict(batch_size=40))
        stale = trainer.remove([1, 2], method="priu")
        trainer.remove([7, 8], method="priu", commit=True)
        with pytest.raises(ValueError, match="stale outcome"):
            trainer.commit(stale)

    def test_commit_rejects_out_of_range_ids(self):
        trainer = _fit("linear", "dense", dict(batch_size=40))
        n = trainer.n_samples
        # remove() refuses the id up front; an outcome that names it
        # anyway is refused at commit, before it could corrupt the id
        # remap.
        with pytest.raises(ValueError, match="removal ids"):
            trainer.remove([n + 5], method="priu")
        outcome = trainer.remove([0], method="priu")
        outcome.removed = np.array([n + 5], dtype=np.int64)
        with pytest.raises(ValueError, match="removal ids"):
            trainer.commit(outcome)

    def test_empty_commit_is_a_noop(self):
        trainer = _fit("linear", "dense", dict(batch_size=40))
        before = trainer.n_samples
        receipt = trainer.commit(trainer.remove([], method="priu"))
        assert receipt["mode"] == "noop"
        assert trainer.n_samples == before

    def test_baselines_rebuild_against_reduced_data(self):
        trainer = _fit("linear", "dense", dict(batch_size=40))
        committed, query_old = _removal_sets(trainer, seed=6)
        trainer.remove(committed, method="priu", commit=True)
        query_new = remap_surviving_ids(query_old, committed)
        # BaseL retrains on the compacted (materialized) schedule: it must
        # match the plan's answer exactly for linear regression.
        basel = trainer.retrain(query_new).weights
        plan = trainer.remove(query_new, method="priu").weights
        np.testing.assert_allclose(basel, plan, atol=1e-8, rtol=0.0)
        # Closed-form rebuilds lazily over the reduced dataset.
        closed = trainer.closed_form(query_new)
        assert closed.weights.shape == plan.shape


@pytest.mark.parametrize("task,rep,overrides", CONFIGS)
class TestCommitCheckpoint:
    def test_checkpoint_round_trip_after_commit(
        self, task, rep, overrides, tmp_path
    ):
        """Save after commits, reload from the *original* data, same model."""
        data = _SPARSE if rep == "sparse" else _DATASETS[task]
        trainer = _fit(task, rep, overrides)
        committed, query_old = _removal_sets(trainer, seed=7)
        trainer.remove(committed, method="priu", commit=True)
        trainer.save_checkpoint(tmp_path)

        reloaded = IncrementalTrainer.from_checkpoint(
            tmp_path, data.features, data.labels
        )
        # Restored trainer sees the reduced dataset and the deletion log.
        assert reloaded.n_samples == trainer.n_samples
        assert np.array_equal(reloaded.deletion_log, trainer.deletion_log)
        np.testing.assert_allclose(
            reloaded.weights_, trainer.weights_, atol=ATOL, rtol=0.0
        )
        # Fresh queries answer identically to the in-process trainer.
        query_new = remap_surviving_ids(query_old, committed)
        np.testing.assert_allclose(
            reloaded.remove(query_new, method="priu").weights,
            trainer.remove(query_new, method="priu").weights,
            atol=ATOL,
            rtol=0.0,
        )
        # …and the reloaded trainer can itself keep committing.
        reloaded.remove(query_new, method="priu", commit=True)
        assert reloaded.n_samples == trainer.n_samples - query_new.size

    def test_reduced_features_also_accepted(self, task, rep, overrides, tmp_path):
        """from_checkpoint accepts pre-sliced (current-space) data too."""
        data = _SPARSE if rep == "sparse" else _DATASETS[task]
        trainer = _fit(task, rep, overrides)
        committed, query_old = _removal_sets(trainer, seed=8)
        trainer.remove(committed, method="priu", commit=True)
        trainer.save_checkpoint(tmp_path)
        survivors = np.setdiff1d(
            np.arange(data.features.shape[0]), committed
        )
        reloaded = IncrementalTrainer.from_checkpoint(
            tmp_path, data.features[survivors], data.labels[survivors]
        )
        query_new = remap_surviving_ids(query_old, committed)
        np.testing.assert_allclose(
            reloaded.remove(query_new, method="priu").weights,
            trainer.remove(query_new, method="priu").weights,
            atol=ATOL,
            rtol=0.0,
        )

    def test_wrong_row_count_raises(self, task, rep, overrides, tmp_path):
        data = _SPARSE if rep == "sparse" else _DATASETS[task]
        trainer = _fit(task, rep, overrides)
        trainer.remove([1, 2, 3], method="priu", commit=True)
        trainer.save_checkpoint(tmp_path)
        with pytest.raises(ValueError, match="samples"):
            IncrementalTrainer.from_checkpoint(
                tmp_path, data.features[:-7], data.labels[:-7]
            )


class TestCommitProperties:
    """Hypothesis: commit compositionality for arbitrary removal pairs."""

    @settings(max_examples=12, deadline=None)
    @given(
        data=st.data(),
        task=st.sampled_from(
            ["linear", "binary_logistic", "multinomial_logistic"]
        ),
    )
    def test_commit_compositionality_random_sets(self, data, task):
        trainer = _fit(task, "dense", dict(batch_size=40))
        reference = _fit(task, "dense", dict(batch_size=40))
        n = trainer.n_samples
        committed = np.array(
            sorted(
                data.draw(
                    st.sets(
                        st.integers(min_value=0, max_value=n - 1),
                        min_size=1,
                        max_size=8,
                    )
                )
            ),
            dtype=np.int64,
        )
        rest = np.setdiff1d(np.arange(n), committed)
        picks = data.draw(
            st.sets(
                st.integers(min_value=0, max_value=rest.size - 1), max_size=8
            )
        )
        query_old = rest[np.array(sorted(picks), dtype=np.int64)]
        trainer.remove(committed, method="priu", commit=True)
        got = trainer.remove(
            remap_surviving_ids(query_old, committed), method="priu"
        ).weights
        want = reference.remove(
            np.union1d(committed, query_old), method="priu"
        ).weights
        np.testing.assert_allclose(got, want, atol=ATOL, rtol=0.0)


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
