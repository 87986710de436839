"""Arrival-aware admission: a batch with no batch-mate coming leaves at once.

Each model queue keeps an EWMA of the gaps between its arrivals, timed
on the fleet's clock.  Once ``1 + _MIN_GAPS`` arrivals have warmed it, a
batch that is not full leaves as soon as the next expected arrival falls
after the batch's earliest member deadline.  These tests pin, under the
:class:`harness.FakeClock`, the properties the rule must keep:

* **it only ever dispatches earlier, and only when nobody is coming** —
  a closed-loop client stops waiting once the estimate warms, while a
  burst and arrivals paced inside the budget still coalesce and never
  leave early;
* **a deadline member's zero budget wins** — it still dispatches its
  batch at once however the estimate reads, and that dispatch counts
  as a deadline dispatch, not an early one;
* **answers do not change** — a commit-mode closed loop whose erasures
  leave early answers bit-identically to a twin trainer committing the
  same sets directly, in the same order.

The budget is a power of two, so every fake timestamp is exact and the
waits compare with ``==``.
"""

import sys
import threading

import numpy as np
import pytest

from harness import FakeClock
from repro import AdmissionPolicy, FleetServer, IncrementalTrainer, ModelRegistry
from repro.datasets import make_binary_classification
from repro.serving.fleet import _MIN_GAPS, _ModelQueue

BUDGET = 2.0**-6  # 15.625 ms
WARM = 1 + _MIN_GAPS  # arrivals that always wait out their budget

_DATA = make_binary_classification(400, 10, separation=1.0, seed=31)


def fit_binary() -> IncrementalTrainer:
    """Deterministic fit: two calls are bit-identical."""
    trainer = IncrementalTrainer(
        "binary_logistic",
        learning_rate=0.1,
        regularization=0.01,
        batch_size=40,
        n_iterations=50,
        seed=0,
        method="priu",
    )
    trainer.fit(_DATA.features, _DATA.labels)
    return trainer


class SteppedClock(FakeClock):
    """A manual :class:`FakeClock` that counts the worker's waits.

    Every scheduler scan ends in a wait (timed or idle), so a new count
    means the worker has looked at the queue since the test's last step.
    """

    def __init__(self) -> None:
        super().__init__(auto_advance=False)
        self._parked = threading.Condition()
        self.parks = 0

    def wait(self, condition, timeout):
        with self._parked:
            self.parks += 1
            self._parked.notify_all()
        return super().wait(condition, timeout)

    def settle(self, fleet: FleetServer, parks: int) -> None:
        """Wake the worker and wait until it has scanned again."""
        with fleet._sched:
            fleet._sched.notify_all()
        with self._parked:
            assert self._parked.wait_for(lambda: self.parks > parks, 5.0)


@pytest.fixture(scope="module")
def trainer():
    return fit_binary()


def make_fleet(trainer, clock, max_batch=16, **kwargs) -> FleetServer:
    registry = ModelRegistry()
    registry.register("m", trainer=trainer)
    return FleetServer(
        registry,
        AdmissionPolicy(max_batch=max_batch, max_delay_seconds=BUDGET),
        method="priu",
        n_workers=1,
        clock=clock,
        **kwargs,
    )


class TestClosedLoop:
    def test_requests_stop_waiting_once_the_estimate_warms(self, trainer):
        """One request outstanding at a time, each 3 budgets after the
        last: nobody ever joins a batch, so once the estimate is warm
        every request leaves the moment it arrives."""
        clock = FakeClock()
        fleet = make_fleet(trainer, clock)
        waits = []
        for i in range(10):
            waits.append(fleet.resolve("m", [i], timeout=30).wait_seconds)
            clock.advance(2 * BUDGET)
        fleet.close()
        assert waits == [BUDGET] * WARM + [0.0] * (10 - WARM)
        stats = fleet.stats()
        assert stats.batches == 10
        assert stats.early_batches == 10 - WARM
        assert stats.as_dict()["early_batches"] == 10 - WARM
        # Gaps of three budgets while requests waited, two once they
        # left on arrival: the estimate sits between the two.
        admission = fleet.describe("m")["admission"]
        assert admission["arrivals"] == 10
        assert 2e3 * BUDGET < admission["gap_ms"] < 3e3 * BUDGET


class TestCoalescingKept:
    def test_a_burst_forms_one_batch_that_waits_the_budget(self, trainer):
        """Eight arrivals at one instant warm the estimate at a gap of
        zero: a batch-mate always looks imminent, so the batch waits."""
        fleet = make_fleet(trainer, FakeClock(), autostart=False)
        assert fleet.describe("m")["admission"] == {
            "arrivals": 0,
            "gap_ms": None,
        }
        futures = [fleet.submit("m", [i]) for i in range(8)]
        fleet.start()
        assert fleet.flush(timeout=30)
        fleet.close()
        outcomes = [f.result(timeout=30) for f in futures]
        assert {o.batch_seq for o in outcomes} == {0}
        assert [o.wait_seconds for o in outcomes] == [BUDGET] * 8
        assert fleet.stats().early_batches == 0
        assert fleet.describe("m")["admission"] == {
            "arrivals": 8,
            "gap_ms": 0.0,
        }

    def test_arrivals_paced_inside_the_budget_keep_coalescing(self, trainer):
        """Arrivals every quarter budget: the next one is always due
        before the open batch's deadline, so batches keep gathering
        several requests and none leaves early.  The worker scans after
        every arrival and every time step; ``max_batch`` exceeds the
        traffic, so only a deadline (or the final close) sends a batch
        out."""
        clock = SteppedClock()
        fleet = make_fleet(trainer, clock, max_batch=64)
        futures = []
        for i in range(24):
            parks = clock.parks
            futures.append(fleet.submit("m", [i]))
            clock.settle(fleet, parks)
            parks = clock.parks
            clock.advance(BUDGET / 4)
            clock.settle(fleet, parks)
        fleet.close()  # drains the open batch
        stats = fleet.stats()
        assert stats.answered == 24
        assert stats.early_batches == 0
        sizes: dict[int, int] = {}
        for future in futures:
            outcome = future.result(timeout=30)
            sizes[outcome.batch_seq] = outcome.batch_size
        last = max(sizes)
        assert last >= 3  # several batches formed after the warm-up
        assert all(sizes[seq] > 1 for seq in sizes if seq != last)


class TestDeadlineLaneWins:
    def test_deadline_member_dispatches_at_once_over_a_warm_estimate(
        self, trainer
    ):
        """Six bulk arrivals an eighth of a budget apart warm the
        estimate well below the budget, so the rule alone would keep
        waiting; a deadline-lane arrival still sends the batch out at
        once, with the queued bulk requests riding along."""
        clock = FakeClock()
        fleet = make_fleet(trainer, clock, autostart=False)
        bulk = []
        for i in range(6):
            bulk.append(fleet.submit("m", [i], lane="bulk"))
            clock.advance(BUDGET / 8)
        urgent = fleet.submit("m", [99], lane="deadline")
        assert fleet.describe("m")["admission"] == {
            "arrivals": 7,
            "gap_ms": 1e3 * BUDGET / 8,
        }
        fleet.start()
        assert fleet.flush(timeout=30)
        fleet.close()
        outcome = urgent.result(timeout=30)
        assert outcome.wait_seconds == 0.0
        assert outcome.batch_seq == 0 and outcome.batch_rank == 0
        assert outcome.batch_size == 7
        assert [f.result(timeout=30).wait_seconds for f in bulk] == [
            (6 - i) * BUDGET / 8 for i in range(6)
        ]
        assert fleet.stats().early_batches == 0


class TestAnswersUnchanged:
    def test_early_commits_match_a_twin_committing_directly(self):
        """Committed answers depend on admission order alone: erasures
        that leave early answer exactly like direct ``remove_many``
        commits of the same sets, in the same order."""
        served, twin = fit_binary(), fit_binary()
        clock = FakeClock()
        fleet = make_fleet(served, clock, commit_mode=True)
        rng = np.random.default_rng(5)
        n = 12
        outcomes = []
        for _ in range(n):
            ids = np.sort(
                rng.choice(served.n_samples, size=2, replace=False)
            ).astype(np.int64)
            outcome = fleet.resolve("m", ids, timeout=30)
            expected = twin.remove_many([ids], method="priu", commit=True)[0]
            assert outcome.committed
            assert np.array_equal(outcome.removed, expected.removed)
            assert np.array_equal(outcome.weights, expected.weights)
            outcomes.append(outcome)
            clock.advance(2 * BUDGET)
        fleet.close()
        assert [o.wait_seconds for o in outcomes[WARM:]] == [0.0] * (n - WARM)
        assert fleet.stats().early_batches == n - WARM
        assert np.array_equal(served.deletion_log, twin.deletion_log)
        assert np.array_equal(served.weights_, twin.weights_)


class TestConcurrentSubmitters:
    def test_arrivals_are_timed_once_each_in_push_order(
        self, trainer, monkeypatch
    ):
        """Six submitters share two models' four-slot queues, so most of
        them park on backpressure and push in an order their enqueue
        stamps do not follow.  The estimate is timed at the push, under
        the scheduler lock: it sees every arrival exactly once and never
        a negative gap.  Real clock, more workers than cores, and a
        shortened switch interval to shake the interleavings."""
        pushed = []
        note_arrival = _ModelQueue.note_arrival

        def recording(queue, now):
            pushed.append(now)
            note_arrival(queue, now)

        monkeypatch.setattr(_ModelQueue, "note_arrival", recording)
        registry = ModelRegistry()
        for model_id in ("a", "b"):
            registry.register(model_id, trainer=trainer)
        fleet = FleetServer(
            registry,
            AdmissionPolicy(max_batch=4, max_delay_seconds=1e-3, max_pending=4),
            method="priu",
            n_workers=4,
        )
        n_threads, per_thread = 6, 20
        futures = [[] for _ in range(n_threads)]

        def submit_all(t):
            for i in range(per_thread):
                model_id = "ab"[(t + i) % 2]
                futures[t].append(fleet.submit(model_id, [t * per_thread + i]))

        threads = [
            threading.Thread(target=submit_all, args=(t,))
            for t in range(n_threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert fleet.flush(timeout=60)
        fleet.close()
        total = n_threads * per_thread
        for future in (f for batch in futures for f in batch):
            future.result(timeout=30)
        assert len(pushed) == total
        assert pushed == sorted(pushed)
        arrivals = 0
        for model_id in ("a", "b"):
            admission = fleet.describe(model_id)["admission"]
            arrivals += admission["arrivals"]
            assert admission["gap_ms"] >= 0.0
        assert arrivals == total
        stats = fleet.stats()
        assert stats.answered == total
        assert stats.early_batches <= stats.batches
