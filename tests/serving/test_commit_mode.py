"""Commit-mode serving: batches are applied, not just answered.

Every test drives the real worker thread, the real batched engine, and the
real commit path (store compaction + plan refresh) — no mocks.
"""

import numpy as np
import pytest

from repro import AdmissionPolicy, DeletionServer, IncrementalTrainer
from repro.datasets import make_binary_classification

_DATA = make_binary_classification(500, 10, separation=1.0, seed=7)


def fresh_trainer(**overrides):
    kwargs = dict(
        learning_rate=0.1,
        regularization=0.01,
        batch_size=50,
        n_iterations=80,
        seed=0,
        method="priu",
    )
    kwargs.update(overrides)
    trainer = IncrementalTrainer("binary_logistic", **kwargs)
    trainer.fit(_DATA.features, _DATA.labels)
    return trainer


@pytest.fixture
def trainer():
    return fresh_trainer()


@pytest.fixture
def reference():
    return fresh_trainer()


class TestCommitModeAnswers:
    def test_batch_applies_prefix_unions_in_admission_order(
        self, trainer, reference
    ):
        sets = [np.array([1, 2]), np.array([5, 6]), np.array([2, 9])]
        server = DeletionServer(
            trainer,
            AdmissionPolicy(max_batch=8),
            method="priu",
            autostart=False,
            commit_mode=True,
        )
        futures = [server.submit(s) for s in sets]
        server.start()
        assert server.flush(timeout=30)
        server.close()
        outcomes = [f.result(timeout=30) for f in futures]
        acc = np.empty(0, dtype=np.int64)
        for removed, outcome in zip(sets, outcomes):
            acc = np.union1d(acc, removed)
            expected = reference.remove(acc, method="priu").weights
            np.testing.assert_allclose(
                outcome.weights, expected, atol=1e-10, rtol=0.0
            )
            assert outcome.committed
        # The trainer adopted the final prefix as its baseline.
        assert np.array_equal(trainer.weights_, outcomes[-1].weights)
        assert trainer.n_samples == reference.n_samples - acc.size
        assert np.array_equal(np.sort(trainer.deletion_log), acc)

    def test_consecutive_batches_accumulate(self, trainer, reference):
        with DeletionServer(
            trainer,
            AdmissionPolicy(max_batch=1),  # force one commit per request
            method="priu",
            commit_mode=True,
        ) as server:
            server.resolve(np.array([3, 4]), timeout=30)
            # After the first commit the id space shrank by 2; ids are
            # interpreted in the *current* space.
            second = server.resolve(np.array([0]), timeout=30)
        # Current id 0 after removing {3, 4} is still original id 0.
        expected = reference.remove([0, 3, 4], method="priu").weights
        np.testing.assert_allclose(
            second.weights, expected, atol=1e-10, rtol=0.0
        )

    def test_non_commit_server_leaves_trainer_untouched(self, trainer):
        baseline = trainer.weights_.copy()
        n_before = trainer.n_samples
        with DeletionServer(trainer, method="priu") as server:
            server.resolve(np.array([1, 2, 3]), timeout=30)
        assert np.array_equal(trainer.weights_, baseline)
        assert trainer.n_samples == n_before


class TestCommitModeValidation:
    def test_submits_validate_against_post_commit_id_space(self, trainer):
        with DeletionServer(
            trainer, AdmissionPolicy(max_batch=1), method="priu", commit_mode=True
        ) as server:
            n_before = trainer.n_samples
            server.resolve(np.arange(10), timeout=30)
            # The server's live bound has shrunk by the committed batch.
            with pytest.raises(ValueError, match="removal ids"):
                server.submit([n_before - 1])
            # Ids inside the reduced space are still fine.
            server.resolve([trainer.n_samples - 1], timeout=30)

    def test_queued_requests_are_remapped_across_commits(self, trainer):
        """A request queued behind a commit keeps denoting the samples its
        caller addressed — ids are translated into the post-commit space,
        never reinterpreted against whatever shifted into their slots."""
        n = trainer.n_samples
        server = DeletionServer(
            trainer,
            AdmissionPolicy(max_batch=1),
            method="priu",
            autostart=False,
            commit_mode=True,
        )
        # All three submitted in the *original* id space; the first
        # dispatch commits [0..4], shifting everything above down by 5.
        first = server.submit(np.arange(5))
        high = server.submit([n - 3])
        low = server.submit([7])
        server.start()
        assert server.flush(timeout=30)
        server.close()
        assert first.result(timeout=30).committed
        # Translated sets, reported in the space their batch executed in.
        assert np.array_equal(high.result(timeout=30).removed, [n - 3 - 5])
        assert np.array_equal(low.result(timeout=30).removed, [7 - 5])
        # Identity check: exactly the submitted *original* samples left.
        assert np.array_equal(
            np.sort(trainer.deletion_log), np.r_[np.arange(5), 7, n - 3]
        )

    def test_ids_already_committed_drop_out_of_queued_requests(self, trainer):
        """Overlap with an earlier commit is not an error: those samples
        are gone, which is what the caller asked for."""
        server = DeletionServer(
            trainer,
            AdmissionPolicy(max_batch=1),
            method="priu",
            autostart=False,
            commit_mode=True,
        )
        first = server.submit([3])
        overlap = server.submit([3, 9])  # 3 will already be committed
        server.start()
        assert server.flush(timeout=30)
        server.close()
        assert first.result(timeout=30).committed
        outcome = overlap.result(timeout=30)
        assert outcome.committed
        assert np.array_equal(outcome.removed, [9 - 1])  # only the survivor
        assert np.array_equal(np.sort(trainer.deletion_log), [3, 9])


class TestCancelledBatches:
    def test_fully_cancelled_batch_does_not_kill_the_worker(self, trainer):
        """A commit-mode batch whose every request was cancelled must be a
        no-op, not an uncaught min()-over-empty crash in the worker."""
        server = DeletionServer(
            trainer,
            AdmissionPolicy(max_batch=1),
            method="priu",
            autostart=False,
            commit_mode=True,
        )
        doomed = server.submit([1, 2])
        assert doomed.cancel()
        server.start()
        assert server.flush(timeout=30)
        # The worker survived: it still answers and commits.
        outcome = server.resolve([5], timeout=30)
        assert outcome.committed
        server.close()
        assert server.stats().cancelled == 1


class TestEmptySubmits:
    def test_empty_submit_resolves_inline(self, trainer):
        with DeletionServer(trainer, method="priu") as server:
            outcome = server.resolve([], timeout=30)
        assert outcome.method == "noop"
        assert outcome.batch_size == 0
        assert outcome.removed.size == 0
        assert not outcome.committed
        np.testing.assert_allclose(outcome.weights, trainer.weights_)

    def test_empty_submit_counts_as_answered(self, trainer):
        with DeletionServer(trainer, method="priu") as server:
            server.resolve([], timeout=30)
            stats = server.stats()
        assert stats.submitted == 1
        assert stats.answered == 1
        assert stats.batches == 0

    def test_empty_submit_never_commits(self, trainer):
        n_before = trainer.n_samples
        with DeletionServer(trainer, method="priu", commit_mode=True) as server:
            outcome = server.resolve([], timeout=30)
        assert outcome.method == "noop"
        assert trainer.n_samples == n_before

    def test_empty_submit_takes_no_admission_slot(self, trainer):
        """The queue is full and the worker not started, yet an empty set
        is answered at once: it never joins the queue it would wait on."""
        server = DeletionServer(
            trainer,
            AdmissionPolicy(max_pending=1),
            method="priu",
            autostart=False,
            commit_mode=True,
        )
        queued = server.submit([1])
        empty = server.submit([], block=False)
        assert empty.done() and not queued.done()
        assert empty.result().method == "noop"
        server.start()
        assert server.flush(timeout=30)
        server.close()
        assert queued.result(timeout=30).committed
        stats = server.stats()
        assert stats.rejected == 0
        assert stats.answered == 2

    def test_empty_submit_to_closed_server_raises(self, trainer):
        server = DeletionServer(trainer, method="priu")
        server.close()
        with pytest.raises(RuntimeError, match="closed"):
            server.submit([])


class TestExitDuringException:
    def test_exit_does_not_block_while_unwinding(self, trainer):
        """``__exit__`` must not join the worker when an exception is
        propagating — the pending futures' owners are being torn down."""
        with pytest.raises(RuntimeError, match="boom"):
            with DeletionServer(trainer, method="priu") as server:
                server.submit(np.array([1, 2]))
                raise RuntimeError("boom")
        # The server stopped accepting work…
        with pytest.raises(RuntimeError, match="closed"):
            server.submit([3])
        # …and the queued request still drains in the background.
        assert server.flush(timeout=30)

    def test_clean_exit_still_drains(self, trainer):
        with DeletionServer(trainer, method="priu") as server:
            future = server.submit(np.array([4, 5]))
        assert future.done()
        assert future.result().weights is not None
