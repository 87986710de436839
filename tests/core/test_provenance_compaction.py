"""Unit tests for removal-set normalization and store compaction internals.

The end-to-end commit contracts live in ``test_commit.py``; this file pins
the store-level pieces: input validation of
:func:`normalize_removed_indices` (dtype rejection, no aliasing), the
survivor remap and its deletion-log form, and the one-pass remap of the
batches and the packed occurrence index (property-tested over successive
commits on every task and representation).
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.core import train_with_capture
from repro.core.provenance_store import (
    normalize_removed_indices,
    remap_surviving_ids,
    remap_through_deletion_log,
)
from repro.datasets import (
    make_binary_classification,
    make_multiclass_classification,
    make_regression,
)
from repro.models import make_schedule, objective_for


class TestNormalizeRemovedIndices:
    def test_float_ndarray_rejected(self):
        # astype(int64) would silently truncate 3.7 -> 3 and delete the
        # wrong sample.
        with pytest.raises(TypeError, match="integer dtype"):
            normalize_removed_indices(np.array([1.0, 3.7]))

    def test_float_sequence_rejected(self):
        with pytest.raises(TypeError, match="integers"):
            normalize_removed_indices([1.5, 2.5])

    def test_float_set_rejected(self):
        # The set fast path used np.fromiter(..., dtype=int64), which
        # truncated floats the other branches already rejected.
        with pytest.raises(TypeError, match="integers"):
            normalize_removed_indices({3.7, 1.2})

    def test_bool_ndarray_rejected(self):
        # A boolean mask is a different encoding of a removal set; casting
        # it to ids {0, 1} would be wrong in a particularly quiet way.
        with pytest.raises(TypeError, match="integer dtype"):
            normalize_removed_indices(np.array([True, False, True]))

    def test_empty_inputs_allowed_regardless_of_dtype(self):
        for empty in (np.empty(0), np.empty(0, dtype=np.int64), (), set()):
            out = normalize_removed_indices(empty)
            assert out.size == 0 and out.dtype == np.int64

    def test_sorted_fast_path_never_aliases_the_caller(self):
        owned = np.array([1, 5, 9], dtype=np.int64)
        out = normalize_removed_indices(owned, assume_unique=True)
        assert not np.shares_memory(out, owned)
        owned[0] = 77  # caller mutates their array afterwards
        assert out[0] == 1

    def test_unsorted_assume_unique_still_sorts_without_aliasing(self):
        owned = np.array([9, 1, 5], dtype=np.int64)
        out = normalize_removed_indices(owned, assume_unique=True)
        assert np.array_equal(out, [1, 5, 9])
        assert not np.shares_memory(out, owned)

    def test_int32_accepted_and_widened(self):
        out = normalize_removed_indices(np.array([4, 2, 2], dtype=np.int32))
        assert np.array_equal(out, [2, 4])
        assert out.dtype == np.int64

    def test_generators_sets_ranges(self):
        assert np.array_equal(
            normalize_removed_indices(i for i in (3, 1, 3)), [1, 3]
        )
        assert np.array_equal(normalize_removed_indices({2, 0}), [0, 2])
        assert np.array_equal(normalize_removed_indices(range(3)), [0, 1, 2])


class TestRemapSurvivingIds:
    def test_ids_shift_down_past_removals(self):
        removed = np.array([2, 5], dtype=np.int64)
        assert np.array_equal(
            remap_surviving_ids(np.array([0, 3, 6]), removed), [0, 2, 4]
        )

    def test_empty_removed_is_identity_copy(self):
        ids = np.array([1, 2, 3], dtype=np.int64)
        out = remap_surviving_ids(ids, np.empty(0, dtype=np.int64))
        assert np.array_equal(out, ids)
        assert not np.shares_memory(out, ids)


def _sorted_ids(values) -> np.ndarray:
    return np.array(sorted(values), dtype=np.int64)


class TestRemapThroughDeletionLog:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_one_call_equals_remapping_commit_by_commit(self, data):
        """Translating through ``log[tag:]`` in one call lands where
        :func:`remap_surviving_ids` lands applied once per commit, with
        ids already committed dropping out along the way."""
        n = data.draw(st.integers(2, 40), label="n")
        survivors = np.arange(n, dtype=np.int64)  # original ids, in order
        commits, log_parts, lengths = [], [], [0]
        for _ in range(data.draw(st.integers(0, 5), label="n_commits")):
            size = survivors.size
            removed = _sorted_ids(
                data.draw(
                    st.sets(st.integers(0, size - 1), max_size=size - 1)
                )
            )
            commits.append(removed)
            log_parts.append(survivors[removed])  # what compact() logs
            survivors = np.delete(survivors, removed)
            lengths.append(lengths[-1] + removed.size)
        log = np.concatenate(log_parts) if log_parts else None
        tag = data.draw(st.integers(0, len(commits)), label="tag")
        space = n - lengths[tag]
        ids = _sorted_ids(data.draw(st.sets(st.integers(0, space - 1))))
        expected = ids
        for removed in commits[tag:]:
            kept = expected[~np.isin(expected, removed)]
            expected = remap_surviving_ids(kept, removed)
        got = remap_through_deletion_log(ids, log, lengths[tag])
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)

    def test_nothing_committed_since_the_tag_returns_the_ids(self):
        ids = np.array([1, 4], dtype=np.int64)
        log = np.array([7, 2], dtype=np.int64)
        assert remap_through_deletion_log(ids, log, 2) is ids
        assert remap_through_deletion_log(ids, None, 0) is ids

    def test_entries_before_the_tag_are_not_applied_again(self):
        # Space at tag 1 lacks original 0, so original 5 is id 4 there;
        # the later commit of original 2 (id 1 at tag 1) shifts it to 3.
        log = np.array([0, 2], dtype=np.int64)
        out = remap_through_deletion_log(_sorted_ids([1, 4]), log, 1)
        assert np.array_equal(out, [3])


@pytest.fixture(scope="module")
def captured():
    data = make_regression(120, 6, noise=0.05, seed=71)
    n = data.features.shape[0]  # train split of the 120 generated rows
    objective = objective_for("linear", 0.1)
    schedule = make_schedule(n, 15, 40, seed=3)
    _, store = train_with_capture(
        objective, data.features, data.labels, schedule, 0.02,
        compression="none",
    )
    return data, store


@pytest.fixture(scope="module")
def compacted(captured):
    """``captured`` after one commit."""
    data, store = captured
    removed = np.array([3, 40, 41, 90], dtype=np.int64)
    stats = store.compact(removed, data.features, data.labels)
    return data, store, removed, stats


# Small stores: 8 batches of 6 over ~45 ids leave a few ids in no batch,
# so removal sets can hold such ids.
_TASK_DATA = {
    "linear": make_regression(50, 8, noise=0.05, seed=72),
    "binary_logistic": make_binary_classification(50, 8, seed=73),
    "multinomial_logistic": make_multiclass_classification(
        50, 8, n_classes=3, seed=74
    ),
}
# No build captures a sparse multinomial store.
_STORE_KINDS = [
    (task, rep)
    for task in _TASK_DATA
    for rep in ("dense", "svd", "sparse")
    if (task, rep) != ("multinomial_logistic", "sparse")
]


@pytest.fixture(scope="module")
def base_stores():
    stores = {}
    for task, rep in _STORE_KINDS:
        data = _TASK_DATA[task]
        features = (
            sparse.csr_matrix(data.features) if rep == "sparse"
            else data.features
        )
        n_classes = 3 if task == "multinomial_logistic" else None
        objective = objective_for(task, 0.01, n_classes=n_classes)
        _, store = train_with_capture(
            objective, features, data.labels,
            make_schedule(features.shape[0], 6, 8, seed=5), 0.05,
            compression="none" if rep == "dense" else "svd",
        )
        assert store.compression == {"dense": "none"}.get(rep, rep)
        stores[task, rep] = (features, data.labels, store)
    return stores


@st.composite
def _removal_set(draw, store) -> np.ndarray:
    """Ids drawn to hit the edges: 0, n − 1, adjacent pairs, ids in no batch."""
    n = store.n_samples
    ids = set(draw(st.sets(st.integers(0, n - 1), max_size=4)))
    if draw(st.booleans()):
        ids.add(0)
    if draw(st.booleans()):
        ids.add(n - 1)
    if draw(st.booleans()):
        first = draw(st.integers(0, n - 2))
        ids |= {first, first + 1}
    absent = np.setdiff1d(
        np.arange(n), np.concatenate([r.batch for r in store.records])
    )
    if absent.size and draw(st.booleans()):
        ids.add(int(draw(st.sampled_from(absent.tolist()))))
    if not ids:
        ids.add(draw(st.integers(0, n - 1)))
    return np.array(sorted(ids), dtype=np.int64)


class TestCompactIndexRebuild:
    @pytest.mark.parametrize(
        "task,rep", _STORE_KINDS, ids=[f"{t}-{r}" for t, r in _STORE_KINDS]
    )
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_packed_index_matches_from_scratch_rebuild(
        self, base_stores, task, rep, data
    ):
        """One-pass remap of the batches and the occurrence index, over
        1–4 successive commits: the patched index equals a rebuild, each
        batch is its surviving ids remapped, and the stats' dropped slots
        are the removed ids' flat slots in the old layout."""
        features, labels, base = base_stores[task, rep]
        store = copy.deepcopy(base)
        for _ in range(data.draw(st.integers(1, 4), label="commits")):
            removed = data.draw(_removal_set(store), label="removed")
            keep = store.survivor_original_ids()
            old_batches = [record.batch.copy() for record in store.records]
            offsets = np.concatenate(
                ([0], np.cumsum([b.size for b in old_batches]))
            )
            stats = store.compact(removed, features[keep], labels[keep])

            patched = store.packed_index()
            store._packed = None
            rebuilt = store.packed_index()
            assert np.array_equal(patched.samples, rebuilt.samples)
            assert np.array_equal(patched.iterations, rebuilt.iterations)
            assert np.array_equal(patched.positions, rebuilt.positions)
            for record, old in zip(store.records, old_batches):
                alive = old[~np.isin(old, removed)]
                assert np.array_equal(
                    record.batch, remap_surviving_ids(alive, removed)
                )
            expected_slots = np.sort(np.concatenate([
                offsets[t] + np.flatnonzero(np.isin(old, removed))
                for t, old in enumerate(old_batches)
            ]))
            assert np.array_equal(stats.dropped_slots, expected_slots)
            assert stats.dropped_occurrences == expected_slots.size
            assert stats.affected_iterations.tolist() == [
                t for t, old in enumerate(old_batches) if np.isin(old, removed).any()
            ]
            assert stats.n_samples_after == stats.n_samples_before - removed.size
            assert store.n_samples == stats.n_samples_after

    def test_stats_and_deletion_log_after_one_commit(self, compacted):
        data, store, removed, stats = compacted
        assert stats.n_samples_after == stats.n_samples_before - removed.size
        assert stats.dropped_occurrences == stats.dropped_slots.size
        assert 0 < stats.n_iterations_touched <= stats.dropped_occurrences
        assert store.n_samples == stats.n_samples_after
        assert np.array_equal(store.deletion_log, removed)

    def test_schedule_is_materialized_and_consistent(self, compacted):
        data, store, _, _ = compacted
        assert store.schedule.kind == "materialized"
        for t, record in enumerate(store.records):
            assert np.array_equal(store.schedule[t], record.batch)
            assert record.batch.size == 0 or record.batch.max() < store.n_samples

    def test_compact_rejects_out_of_range(self, compacted):
        data, store, _, _ = compacted
        survivors = store.survivor_original_ids()
        features, labels = data.features[survivors], data.labels[survivors]
        with pytest.raises(ValueError, match="removal ids"):
            store.compact([store.n_samples + 2], features, labels)

    def test_compact_rejects_everything(self, compacted):
        data, store, _, _ = compacted
        survivors = store.survivor_original_ids()
        features, labels = data.features[survivors], data.labels[survivors]
        with pytest.raises(ValueError, match="every training sample"):
            store.compact(np.arange(store.n_samples), features, labels)

    def test_compact_rejects_mismatched_data(self, compacted):
        data, store, _, _ = compacted
        # Slicing to the survivors *before* compacting is the natural
        # mistake — the subtracted contributions would come from the wrong
        # rows, silently.  It must fail loudly instead.
        with pytest.raises(ValueError, match="pre-compaction"):
            store.compact([1], data.features[:-1], data.labels[:-1])
