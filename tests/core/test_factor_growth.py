"""How a commit widens truncated-SVD summaries.

Three properties of :meth:`ProvenanceStore.compact` on SVD stores:

* a multinomial commit appends ``q − 1`` correction columns per removed
  occurrence, because ``Λ_i = diag(p_i) − p_i p_iᵀ`` has ``Λ_i·1 = 0``,
  and the widened operator still equals the ``q``-column one;
* factors grow in place: a second commit touching a record writes into
  the spare columns of the buffer the first one allocated, readers of
  the earlier factors keep their values, and stores that share summary
  objects still answer like independent twins;
* a commit on factors mapped from a checkpoint copies them, leaving the
  archive's bytes alone, and grown factors save and reload bit for bit.
"""

import copy
import hashlib

import numpy as np
import pytest

from repro import IncrementalTrainer
from repro.core import ReplayPlan, train_with_capture
from repro.datasets import make_multiclass_classification, make_regression
from repro.models import make_schedule, objective_for

_MULTI = make_multiclass_classification(330, 12, n_classes=3, seed=183)
_LINEAR = make_regression(300, 8, noise=0.05, seed=181)

# Batch sizes below the parameter count flip auto-compression to SVD.
KINDS = {
    "linear": ("linear", _LINEAR, dict(batch_size=6)),
    "multinomial": ("multinomial_logistic", _MULTI, dict(batch_size=8)),
}


def _fit(kind: str) -> IncrementalTrainer:
    task, data, overrides = KINDS[kind]
    trainer = IncrementalTrainer(
        task,
        learning_rate=0.05,
        regularization=0.01,
        n_iterations=80,
        seed=0,
        method="priu",
        n_classes=3 if task == "multinomial_logistic" else None,
        **overrides,
    )
    trainer.fit(data.features, data.labels)
    assert trainer.store.compression == "svd"
    return trainer


def _correction_columns(trainer) -> int:
    return trainer.maintenance_cost(include_bytes=False).svd_correction_columns


# ------------------------------------------------- q − 1 columns per sample
def test_multinomial_commit_appends_q_minus_one_columns_per_occurrence():
    trainer = _fit("multinomial")
    store = trainer.store
    q = store.n_classes
    removed = np.array([0, 3, 40, 41, trainer.n_samples - 1])
    hits = store.removed_positions(removed)
    before = [record.summary for record in store.records]
    # What the q-column expansion needs, read before the rows are dropped.
    state = {
        t: (trainer.features[ids], store.records[t].probabilities[positions])
        for t, (ids, positions) in hits.items()
    }
    columns = _correction_columns(trainer)

    receipt = trainer.commit(trainer.remove(removed, method="priu"))

    occurrences = sum(ids.size for ids, _ in hits.values())
    assert receipt["appended_columns"] == (q - 1) * occurrences
    assert _correction_columns(trainer) - columns == (q - 1) * occurrences
    for t, record in enumerate(store.records):
        count = hits[t][0].size if t in hits else 0
        assert record.summary.rank == before[t].rank + (q - 1) * count, t

    for t, (rows, probs) in state.items():
        # The operator with all q eigenpairs of every Λ_i appended.
        want = before[t].reconstruct()
        for x, p in zip(rows, probs):
            evals, evecs = np.linalg.eigh(np.diag(p) - np.outer(p, p))
            for k in range(q):
                column = np.kron(evecs[:, k], x)
                want = want + evals[k] * np.outer(column, column)
        got = store.records[t].summary.reconstruct()
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want), t


# ----------------------------------------------------------- in-place growth
@pytest.mark.parametrize("kind", list(KINDS))
def test_second_commit_grows_factors_in_place(kind):
    trainer = _fit(kind)
    store = trainer.store
    rng = np.random.default_rng(4)
    first = np.sort(rng.choice(trainer.n_samples, size=20, replace=False))
    widened = set(store.removed_positions(first))
    receipt = trainer.commit(trainer.remove(first, method="priu"))
    # Summaries fresh from capture have no buffer: each one is copied.
    assert receipt["copied_factors"] == len(widened)

    # A surviving sample every occurrence of which sits in a record the
    # first commit widened.
    index = store.packed_index()
    second = next(
        np.array([sample])
        for sample in np.unique(index.samples).tolist()
        if set(index.lookup(np.array([sample]))[1].tolist()) <= widened
    )
    touched = list(store.removed_positions(second))
    held = {
        t: (
            store.records[t].summary,
            store.records[t].summary.right.copy(),
            store.records[t].summary.weights.copy(),
        )
        for t in touched
    }
    receipt = trainer.commit(trainer.remove(second, method="priu"))
    assert receipt["copied_factors"] == 0
    assert receipt["appended_columns"] > 0
    for t, (summary, right, weights) in held.items():
        grown = store.records[t].summary
        assert np.shares_memory(grown.right, summary.right), t
        assert np.shares_memory(grown.weights, summary.weights), t
        # The reference taken before the commit reads what it read.
        assert np.array_equal(summary.right, right), t
        assert np.array_equal(summary.weights, weights), t
        assert np.array_equal(grown.right[:, : summary.rank], right), t
        assert np.array_equal(grown.weights[: summary.rank], weights), t


def _captured_store():
    """A linear SVD store (no trainer), so it can be forked shallowly."""
    data = _LINEAR
    n = data.features.shape[0]
    _, store = train_with_capture(
        objective_for("linear", 0.01),
        data.features,
        data.labels,
        make_schedule(n, 6, 80, seed=0),
        0.05,
        compression="svd",
    )
    return store, data.features, data.labels


def _survivors(store, features, labels):
    keep = store.survivor_original_ids()
    return features[keep], labels[keep]


def _fork(store):
    """A second store over the same summary objects (records copied
    shallowly, so each store's compact() rebinds its own records)."""
    twin = copy.copy(store)
    twin.records = [copy.copy(record) for record in store.records]
    twin.commit_receipts = list(store.commit_receipts)
    twin.svd_correction_columns = store.svd_correction_columns.copy()
    return twin


def test_stores_sharing_summaries_commit_like_independent_twins():
    first = np.array([5, 60, 61, 200])
    store, features, labels = _captured_store()
    stats = store.compact(first, features, labels)
    fork = _fork(store)
    twins = []
    for _ in range(2):
        twin, _, _ = _captured_store()
        twin.compact(first, features, labels)
        twins.append(twin)

    for t in stats.affected_iterations[:2]:
        # Both stores erase samples of a record the first commit widened,
        # so both widen the one summary object they share.
        shared = store.records[t].summary
        assert fork.records[t].summary is shared
        ids_a = np.sort(store.records[t].batch)[:2]
        ids_b = np.sort(fork.records[t].batch)[2:4]
        store.compact(ids_a, *_survivors(store, features, labels))
        fork.compact(ids_b, *_survivors(fork, features, labels))
        # The first to commit grew the shared buffer in place; the other
        # no longer owns its tail and copies.
        assert np.shares_memory(store.records[t].summary.right, shared.right)
        assert not np.shares_memory(fork.records[t].summary.right, shared.right)
        for twin, ids in zip(twins, (ids_a, ids_b)):
            twin.compact(ids, *_survivors(twin, features, labels))

    query = np.array([1, 9, 33])
    for one, twin in ((store, twins[0]), (fork, twins[1])):
        assert np.array_equal(one.deletion_log, twin.deletion_log)
        for ours, theirs in zip(one.records, twin.records):
            assert np.array_equal(ours.batch, theirs.batch)
            assert np.array_equal(ours.summary.right, theirs.summary.right)
            assert np.array_equal(ours.summary.weights, theirs.summary.weights)
        data = _survivors(one, features, labels)
        np.testing.assert_array_equal(
            ReplayPlan(one, *data).run_single(query),
            ReplayPlan(twin, *data).run_single(query),
        )


# ------------------------------------------------------------- checkpoints
def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("kind", list(KINDS))
def test_commit_on_a_mapped_checkpoint(kind, tmp_path):
    _, data, _ = KINDS[kind]
    in_memory = _fit(kind)
    _fit(kind).save_checkpoint(tmp_path / "base")
    digest = _sha256(tmp_path / "base" / "store.npz")
    loaded = IncrementalTrainer.from_checkpoint(
        tmp_path / "base", data.features, data.labels
    )
    assert not loaded.store.records[0].summary.right.flags.writeable
    assert not loaded.store.records[0].summary.weights.flags.writeable

    rng = np.random.default_rng(9)
    copied = []
    for _ in range(4):
        ids = np.sort(rng.choice(loaded.n_samples, size=3, replace=False))
        copied.append(
            loaded.commit(loaded.remove(ids, method="priu"))["copied_factors"]
        )
        in_memory.commit(in_memory.remove(ids, method="priu"))
    # Mapped factors are copied, once, on their first commit.
    assert copied[0] > 0
    assert sum(copied) <= len(loaded.store.records)
    assert _sha256(tmp_path / "base" / "store.npz") == digest

    query = np.sort(rng.choice(loaded.n_samples, size=4, replace=False))
    answer = loaded.remove(query, method="priu").weights
    assert np.array_equal(answer, in_memory.remove(query, method="priu").weights)

    loaded.save_checkpoint(tmp_path / "after")
    reloaded = IncrementalTrainer.from_checkpoint(
        tmp_path / "after", data.features, data.labels
    )
    assert np.array_equal(reloaded.remove(query, method="priu").weights, answer)
    assert np.array_equal(reloaded.deletion_log, in_memory.deletion_log)
