"""Fleet maintenance scheduling.

``fleet.maintain()`` schedules a ``maintain()`` run behind the
lowest-priority ``maintenance`` lane and returns a future of the report;
answers stay *bit-identical* to a never-maintained reference server
through any commit/maintain interleaving (a dense model's commits leave
nothing for maintenance to reclaim: they drop the erased rows at once).
"""

import numpy as np
import pytest

from harness import FakeClock, StressDriver
from repro import (
    AdmissionPolicy,
    DeletionServer,
    FleetServer,
    IncrementalTrainer,
    ModelRegistry,
)
from repro.datasets import (
    make_binary_classification,
    make_multiclass_classification,
)
from repro.core.replay_plan import ReplayPlan
from repro.serving.clock import MONOTONIC_CLOCK

_MULTI = make_multiclass_classification(330, 12, n_classes=3, seed=61)
_BINARY = make_binary_classification(400, 10, separation=1.0, seed=62)


def fit_multinomial() -> IncrementalTrainer:
    """Dense multinomial: commits patch its summaries exactly."""
    trainer = IncrementalTrainer(
        "multinomial_logistic",
        learning_rate=0.05,
        regularization=0.01,
        batch_size=40,
        n_iterations=50,
        n_classes=3,
        seed=0,
        method="priu",
    )
    trainer.fit(_MULTI.features, _MULTI.labels)
    return trainer


def fit_binary() -> IncrementalTrainer:
    trainer = IncrementalTrainer(
        "binary_logistic",
        learning_rate=0.1,
        regularization=0.01,
        batch_size=40,
        n_iterations=50,
        seed=0,
        method="priu",
    )
    trainer.fit(_BINARY.features, _BINARY.labels)
    return trainer


# ---------------------------------------------------------- fleet scheduling
class TestFleetMaintenance:
    def _fleet(self, trainer, **kwargs):
        registry = ModelRegistry()
        registry.register("m", trainer=trainer)
        clock = FakeClock()
        fleet = FleetServer(
            registry,
            AdmissionPolicy(max_batch=4, max_delay_seconds=0.02),
            method="priu",
            n_workers=2,
            clock=clock,
            autostart=False,
            **kwargs,
        )
        fleet.configure_model("m", commit_mode=True)
        return fleet, clock

    def test_explicit_maintain_returns_report_future(self):
        trainer = fit_multinomial()
        fleet, _ = self._fleet(trainer)
        fleet.start()
        for i in range(4):
            fleet.resolve("m", [i * 5, i * 5 + 1], timeout=30)
        report = fleet.maintain("m").result(timeout=30)
        # The commits left nothing to reclaim.
        assert report.cost_before.clean and report.performed == ()
        stats = fleet.maintenance_stats("m")
        assert stats["runs"] == 1 and stats["pending"] == 0
        assert stats["last"]["performed"] == list(report.performed)
        fleet.close()
        # The run is visible in the maintenance lane's ordinary stats,
        # and the lane split still sums to the aggregate.
        snapshot = fleet.stats("m")
        assert snapshot.lane("maintenance").answered == 1
        assert snapshot.submitted == (
            snapshot.answered + snapshot.failed + snapshot.cancelled
        )

    def test_maintenance_cannot_delay_queued_traffic(self):
        """With requests queued, the scheduler never picks maintenance."""
        trainer = fit_multinomial()
        fleet, _ = self._fleet(trainer)
        for i in range(3):
            fleet.submit("m", [i * 6, i * 6 + 1])
        maintenance_future = fleet.maintain("m")
        futures = [fleet.submit("m", [40 + i]) for i in range(3)]
        fleet.start()
        assert fleet.flush(timeout=30)
        fleet.close()
        report = maintenance_future.result(timeout=30)
        # Every deletion answered; maintenance ran after the queue drained
        # (it saw every commit's garbage, not just the pre-maintain ones).
        for future in futures:
            assert future.result(timeout=30).committed
        assert fleet.maintenance_stats("m")["runs"] == 1
        assert report.cost_after.clean
        assert trainer.maintenance_cost().clean

    def test_maintain_validates_model_and_closed_state(self):
        trainer = fit_multinomial()
        fleet, _ = self._fleet(trainer)
        with pytest.raises(ValueError, match="unknown model id"):
            fleet.maintain("nope")
        fleet.start()
        fleet.close()
        with pytest.raises(RuntimeError, match="closed"):
            fleet.maintain("m")
        with pytest.raises(ValueError, match="unknown model id"):
            fleet.maintenance_stats("nope")

    def test_describe_exposes_maintenance_cost(self):
        trainer = fit_multinomial()
        fleet, _ = self._fleet(trainer)
        fleet.start()
        fleet.resolve("m", [1, 2], timeout=30)
        fleet.close()
        info = fleet.registry.describe("m")
        cost = trainer.maintenance_cost()
        assert info["maintenance_cost"]["store_nbytes"] == cost.store_nbytes
        assert info["maintenance_cost"]["svd_correction_columns"] == (
            cost.svd_correction_columns
        )
        assert fleet.describe("m")["admission"]["arrivals"] >= 1

    def test_registry_plan_bytes_need_no_maintenance(self):
        """Commits leave the resident plan at a fresh compile's size, so
        maintenance has no plan bytes to free."""
        trainer = fit_multinomial()
        fleet, _ = self._fleet(trainer)
        fleet.start()
        for i in range(5):
            fleet.resolve("m", [i * 7, i * 7 + 1], timeout=30)
        before = fleet.registry.stats()["resident_plan_bytes"]
        fresh = ReplayPlan(trainer.store, trainer.features, trainer.labels)
        assert before == fresh.nbytes()
        fleet.maintain("m").result(timeout=30)
        assert fleet.registry.stats()["resident_plan_bytes"] == before
        fleet.close()


class TestMaintenanceContract:
    def test_interleaved_maintenance_is_bit_identical_to_reference(self):
        """Commit/maintain interleavings never change a served answer."""
        trainer = fit_multinomial()
        reference_trainer = fit_multinomial()
        registry = ModelRegistry()
        registry.register("m", trainer=trainer)
        policy = AdmissionPolicy(max_batch=4, max_delay_seconds=0.02)
        fleet = FleetServer(
            registry, policy, method="priu", n_workers=1,
            clock=FakeClock(), autostart=False,
        )
        fleet.configure_model("m", commit_mode=True)
        reference = DeletionServer(
            reference_trainer, policy, method="priu",
            commit_mode=True, autostart=False, clock=FakeClock(),
        )
        rng = np.random.default_rng(5)
        bound = trainer.n_samples
        rounds = []
        for _ in range(3):
            batch = []
            for _ in range(6):
                k = int(rng.integers(1, 4))
                ids = np.sort(rng.choice(bound, size=k, replace=False))
                bound -= k
                batch.append(ids.astype(np.int64))
            rounds.append(batch)

        # Bit-identity holds within a batch-size class, so both sides
        # must coalesce identically.  Round one queues everything before
        # start() — both workers deterministically take max_batch-sized
        # batches off identical queues.  Later rounds race a *running*
        # worker, where batch composition is scheduler timing; resolving
        # each request before submitting the next pins both sides to
        # singleton batches instead.
        fleet_outcomes, reference_outcomes = [], []
        started = False
        for batch in rounds:
            if not started:
                fleet_futures = [fleet.submit("m", ids) for ids in batch]
                reference_futures = [reference.submit(ids) for ids in batch]
                fleet.start()
                reference.start()
                started = True
                assert fleet.flush(timeout=30)
                assert reference.flush(timeout=30)
                fleet_outcomes += [
                    f.result(timeout=30) for f in fleet_futures
                ]
                reference_outcomes += [
                    f.result(timeout=30) for f in reference_futures
                ]
            else:
                for ids in batch:
                    fleet_outcomes.append(
                        fleet.submit("m", ids).result(timeout=30)
                    )
                    reference_outcomes.append(
                        reference.submit(ids).result(timeout=30)
                    )
            # Maintain between rounds — the reference never does.
            fleet.maintain("m").result(timeout=30)
        fleet.close()
        reference.close()
        for got, want in zip(fleet_outcomes, reference_outcomes):
            assert np.array_equal(got.weights, want.weights)
            assert np.array_equal(got.removed, want.removed)
        assert np.array_equal(
            trainer.deletion_log, reference_trainer.deletion_log
        )
        assert np.array_equal(trainer.weights_, reference_trainer.weights_)
        assert trainer.plan_nbytes() == reference_trainer.plan_nbytes()


class TestReceiptClocks:
    def test_default_clock_keeps_wall_time_receipts(self):
        """Receipts persist across restarts: commit-mode servers always
        inject their serving clock, and the stock monotonic clock stamps
        receipts through ``Clock.timestamp()`` — wall time, never
        process-relative perf_counter seconds."""
        import time as _time

        trainer = fit_multinomial()
        with DeletionServer(trainer, commit_mode=True) as server:
            server.submit([1, 2]).result(timeout=30)
        assert trainer.clock is MONOTONIC_CLOCK  # serving clock injected
        timestamp = trainer.commit_receipts[0].timestamp
        # reprolint: allow[R005] this asserts receipts carry wall time — comparing against the real clock IS the test
        assert abs(timestamp - _time.time()) < 600.0

    def test_injected_clock_stamps_receipts(self):
        """An explicitly injected (fake) clock also stamps receipts, so
        fake-clock tests get deterministic audit trails."""
        trainer = fit_multinomial()
        clock = FakeClock(start=500.0)
        with DeletionServer(
            trainer, commit_mode=True, clock=clock
        ) as server:
            server.submit([1, 2]).result(timeout=30)
        assert trainer.commit_receipts[0].timestamp >= 500.0


STRESS_SEEDS = (11, 22, 33)


@pytest.mark.parametrize("seed", STRESS_SEEDS)
def test_stress_with_maintenance_interleaved(seed):
    """Randomized submits × commits × maintain ops keep every invariant."""
    trainers = {
        "s-multi": fit_multinomial(),
        "s-bin": fit_binary(),
    }
    registry = ModelRegistry()
    for model_id, trainer in trainers.items():
        registry.register(model_id, trainer=trainer)
    clock = FakeClock()
    fleet = FleetServer(
        registry,
        AdmissionPolicy(max_batch=4, max_delay_seconds=0.02, max_pending=8),
        method="priu",
        n_workers=2,
        clock=clock,
        autostart=False,
    )
    fleet.configure_model("s-multi", commit_mode=True)
    fleet.start()
    driver = StressDriver(
        fleet,
        model_ids=list(trainers),
        n_samples={mid: t.n_samples for mid, t in trainers.items()},
        commit_models={"s-multi"},
        lanes=("bulk", "deadline"),
        seed=seed,
        clock=clock,
        maintain_models={"s-multi"},
    )
    report = driver.run(n_ops=200)
    assert report.maintenance  # the maintain op genuinely fired
    for _, future in report.maintenance:
        assert future.result().cost_after.clean
    # Stateless model answers still match direct serving (batched vs
    # single-request replay differs only at BLAS reduction order).
    for submitted in report.served():
        if submitted.model_id != "s-bin":
            continue
        outcome = submitted.future.result()
        expected = trainers["s-bin"].remove(submitted.ids, method="priu")
        np.testing.assert_allclose(
            outcome.weights, expected.weights, atol=1e-10, rtol=0.0,
            err_msg=f"seed {seed}: s-bin {submitted.ids}",
        )
