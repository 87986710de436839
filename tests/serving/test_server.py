"""End-to-end tests for the DeletionServer request queue.

A small binary-logistic workload is fitted once per module; every test
drives the real worker thread and the real batched replay engine — no
mocks — so these tests double as an integration check of the whole
capture → compile → serve pipeline.

Timing-sensitive tests run on the :class:`harness.FakeClock`: time moves
only when the test moves it, so latency/wait assertions are *exact*
(``==``, not ``>=``-fuzzy) and the suite contains no real sleeps.
"""

import threading

import numpy as np
import pytest

from harness import FakeClock
from repro import AdmissionPolicy, DeletionServer, IncrementalTrainer, Lane
from repro.datasets import make_binary_classification
from repro.serving import BackpressureError, ServedOutcome, ServerClosedError


@pytest.fixture(scope="module")
def trainer():
    data = make_binary_classification(500, 10, separation=1.0, seed=7)
    fitted = IncrementalTrainer(
        "binary_logistic",
        learning_rate=0.1,
        regularization=0.01,
        batch_size=50,
        n_iterations=80,
        seed=0,
    )
    fitted.fit(data.features, data.labels)
    return fitted


@pytest.fixture
def removal_sets(trainer):
    rng = np.random.default_rng(3)
    n = trainer.store.n_samples
    return [
        np.sort(rng.choice(n, size=5, replace=False)) for _ in range(10)
    ]


class TestAnswers:
    def test_served_matches_direct_remove(self, trainer, removal_sets):
        with DeletionServer(trainer, method="priu") as server:
            futures = [server.submit(s) for s in removal_sets]
            outcomes = [f.result(timeout=30) for f in futures]
        for removed, outcome in zip(removal_sets, outcomes):
            expected = trainer.remove(removed, method="priu").weights
            assert np.allclose(outcome.weights, expected, atol=1e-10)
            assert isinstance(outcome, ServedOutcome)
            assert np.array_equal(outcome.removed, removed)

    def test_outcome_timings_are_exact_under_fake_clock(
        self, trainer, removal_sets
    ):
        clock = FakeClock()
        server = DeletionServer(
            trainer,
            AdmissionPolicy(max_batch=16, max_delay_seconds=0.02),
            autostart=False,
            clock=clock,
        )
        future = server.submit(removal_sets[0])
        server.start()
        assert server.flush(timeout=30)
        server.close()
        outcome = future.result(timeout=30)
        # The lone request waits out exactly its coalescing budget; the
        # dispatch itself consumes zero fake time.
        assert outcome.wait_seconds == 0.02
        assert outcome.latency_seconds == 0.02
        assert outcome.batch_size == 1
        assert outcome.batch_seq == 0 and outcome.batch_rank == 0
        assert outcome.lane == "bulk"

    def test_empty_removal_set_is_served(self, trainer):
        with DeletionServer(trainer, method="priu") as server:
            outcome = server.resolve([], timeout=30)
        assert np.allclose(outcome.weights, trainer.weights_, atol=1e-8)


class TestCoalescing:
    def test_preloaded_queue_coalesces_into_one_batch(
        self, trainer, removal_sets
    ):
        server = DeletionServer(
            trainer, AdmissionPolicy(max_batch=32), autostart=False
        )
        futures = [server.submit(s) for s in removal_sets]
        server.start()
        assert server.flush(timeout=30)
        sizes = {f.result().batch_size for f in futures}
        assert sizes == {len(removal_sets)}
        stats = server.stats()
        assert stats.batches == 1
        assert stats.mean_batch_size == len(removal_sets)
        server.close()

    def test_max_batch_is_respected(self, trainer, removal_sets):
        server = DeletionServer(
            trainer, AdmissionPolicy(max_batch=3), autostart=False
        )
        futures = [server.submit(s) for s in removal_sets[:9]]
        server.start()
        assert server.flush(timeout=30)
        assert all(f.result().batch_size <= 3 for f in futures)
        assert server.stats().batches >= 3
        server.close()

    def test_zero_delay_still_answers_everything(self, trainer, removal_sets):
        policy = AdmissionPolicy(max_batch=4, max_delay_seconds=0.0)
        with DeletionServer(trainer, policy) as server:
            futures = server.submit_many(removal_sets)
            results = [f.result(timeout=30) for f in futures]
        assert len(results) == len(removal_sets)

    def test_every_member_waits_exactly_the_shared_budget(
        self, trainer, removal_sets
    ):
        """All three preloaded requests dispatch together when the oldest
        runs out of budget — their waits are identical and exact."""
        clock = FakeClock()
        server = DeletionServer(
            trainer,
            AdmissionPolicy(max_batch=16, max_delay_seconds=0.02),
            autostart=False,
            clock=clock,
        )
        futures = [server.submit(s) for s in removal_sets[:3]]
        server.start()
        assert server.flush(timeout=30)
        server.close()
        outcomes = [f.result(timeout=30) for f in futures]
        assert [o.wait_seconds for o in outcomes] == [0.02, 0.02, 0.02]
        assert [o.batch_rank for o in outcomes] == [0, 1, 2]
        assert {o.batch_seq for o in outcomes} == {0}

    def test_staggered_submissions_wait_from_their_own_enqueue(
        self, trainer, removal_sets
    ):
        """The batch dispatches when the *oldest* member's budget expires;
        a late joiner's measured wait is exactly the remainder."""
        clock = FakeClock()
        server = DeletionServer(
            trainer,
            AdmissionPolicy(max_batch=16, max_delay_seconds=0.02),
            autostart=False,
            clock=clock,
        )
        early = server.submit(removal_sets[0])
        clock.advance(0.015)
        late = server.submit(removal_sets[1])
        server.start()
        assert server.flush(timeout=30)
        server.close()
        assert early.result(timeout=30).wait_seconds == 0.02
        assert late.result(timeout=30).wait_seconds == pytest.approx(0.005)


class TestLanes:
    def test_deadline_lane_forces_immediate_dispatch(
        self, trainer, removal_sets
    ):
        """A zero-delay lane in the batch preempts everyone's coalescing:
        the batch it joins leaves immediately (bulk rides along free)."""
        clock = FakeClock()
        server = DeletionServer(
            trainer,
            AdmissionPolicy(max_batch=16, max_delay_seconds=0.05),
            autostart=False,
            clock=clock,
        )
        bulk = server.submit(removal_sets[0], lane="bulk")
        urgent = server.submit(removal_sets[1], lane="deadline")
        server.start()
        assert server.flush(timeout=30)
        server.close()
        assert urgent.result(timeout=30).wait_seconds == 0.0
        assert bulk.result(timeout=30).wait_seconds == 0.0  # rode along
        assert urgent.result().batch_size == 2

    def test_deadline_preempts_an_open_batch_mid_coalesce(
        self, trainer, removal_sets
    ):
        """Manual-clock interleaving: a bulk request is already coalescing
        (budget 20 ms) when a deadline request arrives 5 ms in — the open
        batch dispatches at 5 ms, not 20."""
        clock = FakeClock(auto_advance=False)
        policy = AdmissionPolicy(max_batch=16, max_delay_seconds=0.02)
        server = DeletionServer(trainer, policy, clock=clock)
        bulk = server.submit(removal_sets[0], lane="bulk")
        clock.advance(0.005)
        urgent = server.submit(removal_sets[1], lane="deadline")
        assert server.flush(timeout=30)
        server.close()
        assert urgent.result(timeout=30).wait_seconds == 0.0
        assert bulk.result(timeout=30).wait_seconds == pytest.approx(0.005)
        assert bulk.result().batch_size == 2

    def test_deadline_never_waits_behind_a_full_bulk_backlog(
        self, trainer, removal_sets
    ):
        """Six bulk requests queue ahead of one deadline request with
        max_batch=2: lane priority puts the deadline request in the very
        next dispatched batch, not behind three bulk batches."""
        clock = FakeClock()
        server = DeletionServer(
            trainer,
            AdmissionPolicy(max_batch=2, max_delay_seconds=0.05),
            autostart=False,
            clock=clock,
        )
        bulk_futures = [
            server.submit(s, lane="bulk") for s in removal_sets[:6]
        ]
        urgent = server.submit(removal_sets[6], lane="deadline")
        server.start()
        assert server.flush(timeout=30)
        server.close()
        outcome = urgent.result(timeout=30)
        assert outcome.batch_seq == 0 and outcome.batch_rank == 0
        assert outcome.wait_seconds == 0.0
        # Bulk admission order is preserved among bulk requests.
        bulk_coords = [
            (f.result().batch_seq, f.result().batch_rank)
            for f in bulk_futures
        ]
        assert bulk_coords == sorted(bulk_coords)

    def test_unknown_lane_fails_at_submit(self, trainer, removal_sets):
        with DeletionServer(trainer) as server:
            with pytest.raises(ValueError, match="unknown lane"):
                server.submit(removal_sets[0], lane="vip")
        assert server.stats().submitted == 0

    def test_custom_lanes(self, trainer, removal_sets):
        policy = AdmissionPolicy(
            max_delay_seconds=0.03,
            lanes=(
                Lane("gold", max_delay_seconds=0.0, priority=0),
                Lane("silver", max_delay_seconds=None, priority=5),
            ),
            default_lane="silver",
        )
        clock = FakeClock()
        server = DeletionServer(
            trainer, policy, autostart=False, clock=clock
        )
        default = server.submit(removal_sets[0])
        server.start()
        assert server.flush(timeout=30)
        server.close()
        outcome = default.result(timeout=30)
        assert outcome.lane == "silver"
        assert outcome.wait_seconds == 0.03  # inherited policy budget


class TestBackpressure:
    def test_nonblocking_submit_raises_when_full(self, trainer, removal_sets):
        server = DeletionServer(
            trainer, AdmissionPolicy(max_pending=2), autostart=False
        )
        server.submit(removal_sets[0])
        server.submit(removal_sets[1])
        with pytest.raises(BackpressureError):
            server.submit(removal_sets[2], block=False)
        assert server.stats().rejected == 1
        # The two accepted requests still drain.
        server.start()
        assert server.flush(timeout=30)
        server.close()

    def test_blocking_submit_with_timeout_raises(self, trainer, removal_sets):
        server = DeletionServer(
            trainer, AdmissionPolicy(max_pending=1), autostart=False
        )
        server.submit(removal_sets[0])
        with pytest.raises(BackpressureError):
            server.submit(removal_sets[1], timeout=0.001)
        server.start()
        server.flush(timeout=30)
        server.close()


class TestFacade:
    def test_public_attributes_and_reexports(self, trainer):
        """The facade keeps the single-model server's public surface."""
        from repro.serving import server as server_module

        policy = AdmissionPolicy(max_batch=4)
        server = DeletionServer(
            trainer, policy, method="priu", autostart=False, commit_mode=False
        )
        assert server.trainer is trainer
        assert server.policy is policy
        assert server.method == "priu"
        assert server.commit_mode is False
        assert server.pending == 0
        server.close()
        assert DeletionServer(trainer, autostart=False).policy == (
            AdmissionPolicy()
        )
        assert server_module.ServedOutcome is ServedOutcome


class TestValidationAndLifecycle:
    def test_out_of_range_ids_fail_at_submit(self, trainer):
        with DeletionServer(trainer) as server:
            with pytest.raises(ValueError, match="removal ids"):
                server.submit([trainer.store.n_samples + 3])
            with pytest.raises(ValueError, match="removal ids"):
                server.submit([-4])

    def test_cannot_delete_everything(self, trainer):
        with DeletionServer(trainer) as server:
            with pytest.raises(ValueError, match="every training sample"):
                server.submit(np.arange(trainer.store.n_samples))

    def test_unknown_method_rejected_at_construction(self, trainer):
        with pytest.raises(ValueError, match="method"):
            DeletionServer(trainer, method="priu_opt")

    def test_submit_after_close_raises(self, trainer, removal_sets):
        server = DeletionServer(trainer)
        server.close()
        with pytest.raises(RuntimeError, match="closed"):
            server.submit(removal_sets[0])

    def test_closed_error_does_not_name_the_engine(self, trainer, removal_sets):
        """The facade's users never constructed a FleetServer; the error
        they see must not send them looking for one."""
        server = DeletionServer(trainer)
        server.close()
        with pytest.raises(ServerClosedError) as raised:
            server.submit(removal_sets[0])
        assert "FleetServer" not in str(raised.value)

    def test_close_drains_queued_requests(self, trainer, removal_sets):
        server = DeletionServer(trainer, autostart=False)
        futures = [server.submit(s) for s in removal_sets[:4]]
        server.close(wait=True)  # starts the worker, drains, then stops
        assert all(f.done() for f in futures)
        assert server.stats().answered == 4

    def test_close_is_idempotent(self, trainer):
        server = DeletionServer(trainer)
        server.close()
        server.close()

    def test_flush_without_start_raises_instead_of_hanging(
        self, trainer, removal_sets
    ):
        server = DeletionServer(trainer, autostart=False)
        server.submit(removal_sets[0])
        with pytest.raises(RuntimeError, match="never started"):
            server.flush(timeout=1.0)
        server.close()

    def test_cancelled_future_is_skipped(self, trainer, removal_sets):
        server = DeletionServer(trainer, autostart=False)
        cancelled = server.submit(removal_sets[0])
        kept = server.submit(removal_sets[1])
        assert cancelled.cancel()
        server.start()
        assert server.flush(timeout=30)
        assert kept.result().weights is not None
        assert cancelled.cancelled()
        stats = server.stats()
        assert stats.cancelled == 1
        assert stats.answered == 1
        assert stats.pending == 0
        server.close()


class TestCloseRaces:
    """The close()-vs-in-flight-batch audit (ISSUE 4 satellite).

    Contract: a batch dispatched before (or concurrently with) close()
    always resolves its futures; queued-but-undispatched requests drain;
    submissions observing the closed flag raise; nothing leaks.
    """

    def test_close_while_batch_is_in_flight_resolves_every_future(
        self, trainer, removal_sets, monkeypatch
    ):
        dispatch_started = threading.Event()
        release_dispatch = threading.Event()
        original = trainer.remove_many

        def gated(index_sets, **kwargs):
            dispatch_started.set()
            assert release_dispatch.wait(timeout=10)
            return original(index_sets, **kwargs)

        monkeypatch.setattr(trainer, "remove_many", gated)
        server = DeletionServer(
            trainer, AdmissionPolicy(max_batch=1, max_delay_seconds=0.0)
        )
        in_flight = server.submit(removal_sets[0])
        assert dispatch_started.wait(timeout=10)
        queued = server.submit(removal_sets[1])  # behind the open batch
        server.close(wait=False)  # races the in-flight dispatch
        with pytest.raises(RuntimeError, match="closed"):
            server.submit(removal_sets[2])
        release_dispatch.set()
        server.close(wait=True)  # idempotent; joins the worker
        assert in_flight.result(timeout=30).weights is not None
        assert queued.result(timeout=30).weights is not None
        stats = server.stats()
        assert stats.answered == 2
        assert stats.pending == 0

    def test_concurrent_close_calls_join_cleanly(self, trainer, removal_sets):
        server = DeletionServer(trainer, autostart=False)
        futures = [server.submit(s) for s in removal_sets[:3]]
        closers = [
            threading.Thread(target=server.close) for _ in range(3)
        ]
        for thread in closers:
            thread.start()
        for thread in closers:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert all(f.done() for f in futures)
        assert server.stats().answered == 3

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


class TestStats:
    def test_stats_cover_all_requests(self, trainer, removal_sets):
        with DeletionServer(trainer) as server:
            futures = server.submit_many(removal_sets)
            [f.result(timeout=30) for f in futures]
            stats = server.stats()
        assert stats.submitted == len(removal_sets)
        assert stats.answered == len(removal_sets)
        assert stats.failed == 0
        assert stats.pending == 0
        assert stats.latency is not None
        assert stats.latency.count == len(removal_sets)
        assert stats.wait.min >= 0.0
        assert stats.latency.p95 >= stats.latency.p50
        # latency = wait + service (dispatch->answer), so service can
        # never exceed the worst end-to-end latency.
        assert stats.service.max <= stats.latency.max
        payload = stats.as_dict()
        assert payload["answered"] == len(removal_sets)
        assert payload["latency"]["count"] == len(removal_sets)

    def test_per_lane_stats_are_split_and_conserved(
        self, trainer, removal_sets
    ):
        clock = FakeClock()
        server = DeletionServer(
            trainer,
            AdmissionPolicy(max_batch=16, max_delay_seconds=0.02),
            autostart=False,
            clock=clock,
        )
        for s in removal_sets[:3]:
            server.submit(s, lane="bulk")
        for s in removal_sets[3:5]:
            server.submit(s, lane="deadline")
        server.start()
        assert server.flush(timeout=30)
        server.close()
        stats = server.stats()
        assert stats.lane("bulk").answered == 3
        assert stats.lane("deadline").answered == 2
        assert (
            stats.lane("bulk").submitted + stats.lane("deadline").submitted
            == stats.submitted
        )
        # Deadline preempted the batch: nobody waited.
        assert stats.lane("deadline").wait.max == 0.0
        assert stats.lane("bulk").wait.max == 0.0

    def test_fresh_server_has_empty_summaries(self, trainer):
        server = DeletionServer(trainer, autostart=False)
        stats = server.stats()
        assert stats.latency is None
        assert stats.mean_batch_size == 0.0
        assert stats.lanes == {}
        server.close()

    def test_dispatch_failure_fails_the_batch_futures(
        self, trainer, removal_sets
    ):
        server = DeletionServer(trainer, method="priu", autostart=False)
        futures = [server.submit(s) for s in removal_sets[:3]]
        # Sabotage the compiled plan so remove_many raises mid-dispatch.
        original_version = trainer.store._version
        trainer.store._version += 1
        try:
            server.start()
            assert server.flush(timeout=30)
            for future in futures:
                with pytest.raises(RuntimeError, match="store changed"):
                    future.result(timeout=5)
            assert server.stats().failed == 3
        finally:
            trainer.store._version = original_version
            server.close()
