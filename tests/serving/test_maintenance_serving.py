"""Fleet maintenance scheduling, warm-start, and the starvation guard.

Three surfaces from ISSUE 5:

* **Background maintenance** — ``FleetServer(maintenance=...)`` schedules
  ``maintain()`` for dirty-and-idle resident models behind the
  lowest-priority ``maintenance`` lane; explicit ``fleet.maintain()``
  returns a future of the report; answers stay *bit-identical* to a
  never-maintained reference server through any commit/maintain
  interleaving (re-pack moves values, never changes them).
* **Registry warm-start** — ``warm_start(n)`` pre-loads the hottest N
  models by admission history instead of paying first-request latency.
* **Starvation guard** — ``max_preemption_ratio`` keeps a deadline flood
  from pinning bulk traffic at its full coalescing budget.
"""

import numpy as np
import pytest

from harness import FakeClock, StressDriver
from repro import (
    AdmissionPolicy,
    DeletionServer,
    FleetServer,
    IncrementalTrainer,
    MaintenancePolicy,
    ModelRegistry,
)
from repro.datasets import (
    make_binary_classification,
    make_multiclass_classification,
    make_regression,
)
from repro.serving.clock import MONOTONIC_CLOCK

_MULTI = make_multiclass_classification(330, 12, n_classes=3, seed=61)
_BINARY = make_binary_classification(400, 10, separation=1.0, seed=62)
_LINEAR = make_regression(300, 6, noise=0.05, seed=63)


def fit_multinomial() -> IncrementalTrainer:
    """Dense multinomial: commits leave slot-map garbage, answers exact."""
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
    def _fleet(self, trainer, maintenance=None, **kwargs):
        registry = ModelRegistry()
        registry.register("m", trainer=trainer)
        clock = FakeClock()
        fleet = FleetServer(
            registry,
            AdmissionPolicy(max_batch=4, max_delay_seconds=0.02),
            method="priu",
            n_workers=2,
            clock=clock,
            maintenance=maintenance,
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
        assert trainer.maintenance_cost().slot_garbage_rows > 0
        report = fleet.maintain("m").result(timeout=30)
        assert "repack" in report.performed
        assert trainer.maintenance_cost().slot_garbage_rows == 0
        stats = fleet.maintenance_stats("m")
        assert stats["runs"] == 1 and stats["pending"] == 0
        assert stats["last"]["performed"] == list(report.performed)
        fleet.close()

    def test_auto_scheduling_after_committed_batches(self):
        trainer = fit_multinomial()
        fleet, _ = self._fleet(trainer, maintenance=MaintenancePolicy())
        fleet.start()
        futures = [fleet.submit("m", [i * 3, i * 3 + 1]) for i in range(6)]
        assert fleet.flush(timeout=30)
        for future in futures:
            future.result(timeout=30)
        # close() drains the scheduled background runs before stopping.
        fleet.close()
        stats = fleet.maintenance_stats("m")
        assert stats["runs"] >= 1
        assert stats["pending"] == 0
        assert trainer.maintenance_cost().slot_garbage_rows == 0
        # The runs are visible in the maintenance lane's ordinary stats,
        # and the lane split still sums to the aggregate.
        snapshot = fleet.stats("m")
        lane = snapshot.lane("maintenance")
        assert lane.answered == stats["runs"]
        assert snapshot.submitted == (
            snapshot.answered + snapshot.failed + snapshot.cancelled
        )

    def test_thresholds_gate_auto_scheduling(self):
        trainer = fit_multinomial()
        fleet, _ = self._fleet(
            trainer,
            maintenance=MaintenancePolicy(max_slot_garbage_rows=10_000),
        )
        fleet.start()
        for i in range(4):
            fleet.resolve("m", [i * 4], timeout=30)
        fleet.close()
        assert fleet.maintenance_stats("m")["runs"] == 0
        assert trainer.maintenance_cost().slot_garbage_rows > 0

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
        assert report.cost_after.slot_garbage_rows == 0
        assert trainer.maintenance_cost().slot_garbage_rows == 0

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
        assert info["maintenance_cost"]["slot_garbage_rows"] == (
            trainer.maintenance_cost().slot_garbage_rows
        )
        assert info["admissions"] >= 1

    def test_registry_plan_bytes_shrink_after_maintenance(self):
        trainer = fit_multinomial()
        fleet, _ = self._fleet(trainer)
        fleet.start()
        for i in range(5):
            fleet.resolve("m", [i * 7, i * 7 + 1], timeout=30)
        before = fleet.registry.stats()["resident_plan_bytes"]
        fleet.maintain("m").result(timeout=30)
        after = fleet.registry.stats()["resident_plan_bytes"]
        assert after < before
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
        assert trainer.maintenance_cost().slot_garbage_rows == 0
        assert reference_trainer.maintenance_cost().slot_garbage_rows > 0


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
        maintenance=MaintenancePolicy(),
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
        assert future.result().cost_after.slot_garbage_rows == 0
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


# -------------------------------------------------------------- warm start
class TestWarmStart:
    def _registry(self, tmp_path, n_models=4, max_resident=None):
        trainer = IncrementalTrainer(
            "linear",
            learning_rate=0.05,
            regularization=0.01,
            batch_size=32,
            n_iterations=30,
            seed=0,
            method="priu",
        )
        trainer.fit(_LINEAR.features, _LINEAR.labels)
        registry = ModelRegistry(max_resident=max_resident)
        for i in range(n_models):
            directory = tmp_path / f"model-{i}"
            trainer.save_checkpoint(directory)
            registry.register(
                f"model-{i}",
                checkpoint=directory,
                features=_LINEAR.features,
                labels=_LINEAR.labels,
            )
        return registry

    def test_preloads_hottest_by_admission_history(self, tmp_path):
        registry = self._registry(tmp_path)
        with FleetServer(registry, n_workers=1) as fleet:
            for _ in range(5):
                fleet.resolve("model-2", [1, 2], timeout=30)
            for _ in range(2):
                fleet.resolve("model-0", [3], timeout=30)
            for model_id in list(registry.resident_ids):
                registry.evict(model_id)
            assert registry.resident_ids == ()
            loaded = fleet.warm_start(2)
            assert loaded == ("model-2", "model-0")  # hottest first
            assert set(registry.resident_ids) == {"model-2", "model-0"}
            # Warm models answer without a load on the request path.
            loads_before = registry.stats()["loads"]
            fleet.resolve("model-2", [4], timeout=30)
            assert registry.stats()["loads"] == loads_before

    def test_never_admitted_models_are_not_warmed(self, tmp_path):
        registry = self._registry(tmp_path)
        assert registry.warm_start(3) == ()

    def test_respects_resident_cap_and_explicit_hotness(self, tmp_path):
        registry = self._registry(tmp_path, max_resident=2)
        loaded = registry.warm_start(
            3, hotness={"model-3": 9, "model-1": 5, "model-0": 1}
        )
        assert loaded == ("model-3", "model-1")  # cap stopped the third
        assert set(registry.resident_ids) == {"model-3", "model-1"}
        with pytest.raises(ValueError):
            registry.warm_start(-1)

    def test_stops_warming_once_the_byte_cap_saturates(self, tmp_path):
        """Warming must never evict models already serving: a byte cap
        smaller than two plans stops the sweep after the first load
        triggers it, instead of churning the rest of the candidates
        through the LRU."""
        registry = self._registry(tmp_path)
        one_plan = registry.warm_start(1, hotness={"model-0": 1})
        assert one_plan == ("model-0",)
        plan_bytes = registry.stats()["resident_plan_bytes"]
        for model_id in list(registry.resident_ids):
            registry.evict(model_id)
        capped = ModelRegistry(max_plan_bytes=int(plan_bytes * 1.5))
        for i in range(4):
            capped.register(
                f"model-{i}",
                checkpoint=tmp_path / f"model-{i}",
                features=_LINEAR.features,
                labels=_LINEAR.labels,
            )
        hotness = {f"model-{i}": 10 - i for i in range(4)}
        loaded = capped.warm_start(4, hotness=hotness)
        # The second load saturated the cap (evicting the first would be
        # thrash), so the sweep stopped there.
        assert len(loaded) <= 2
        assert capped.stats()["evictions"] <= 1


# -------------------------------------------------------- starvation guard
class TestStarvationGuard:
    def _flood_server(self, ratio, n_deadline=8):
        policy = AdmissionPolicy(
            max_batch=1, max_delay_seconds=0.0, max_preemption_ratio=ratio
        )
        server = DeletionServer(
            fit_binary(), policy, method="priu",
            autostart=False, clock=FakeClock(),
        )
        bulk = server.submit([1, 2], lane="bulk")
        deadlines = [
            server.submit([10 + i], lane="deadline") for i in range(n_deadline)
        ]
        server.start()
        assert server.flush(timeout=30)
        server.close()
        return bulk.result(timeout=30), [
            f.result(timeout=30) for f in deadlines
        ]

    def test_unguarded_flood_pins_bulk_to_the_end(self):
        bulk, deadlines = self._flood_server(ratio=None)
        assert bulk.batch_seq > max(o.batch_seq for o in deadlines) - 1

    def test_guard_yields_bulk_mid_flood(self):
        bulk, deadlines = self._flood_server(ratio=0.5)
        # Debt 0.5 after the first preempting dispatch, 1.0 after the
        # second: the third dispatch must yield to the waiting bulk.
        assert bulk.batch_seq == 2
        # Deadline requests still dispatch in admission order around it.
        seqs = [o.batch_seq for o in deadlines]
        assert seqs == sorted(seqs)
        # max_batch=1 stays a hard cap: the yielded request takes its own
        # dispatch, it never rides along as a max_batch+1 overflow.
        assert bulk.batch_size == 1
        assert all(o.batch_size == 1 for o in deadlines)

    def test_zero_ratio_serves_oldest_bulk_with_every_batch(self):
        policy = AdmissionPolicy(
            max_batch=2, max_delay_seconds=0.0, max_preemption_ratio=0.0
        )
        server = DeletionServer(
            fit_binary(), policy, method="priu",
            autostart=False, clock=FakeClock(),
        )
        bulks = [server.submit([1 + i], lane="bulk") for i in range(3)]
        deadlines = [
            server.submit([50 + i], lane="deadline") for i in range(6)
        ]
        server.start()
        assert server.flush(timeout=30)
        server.close()
        bulk_seqs = sorted(f.result().batch_seq for f in bulks)
        # After the first preempting batch, every dispatch carries the
        # oldest waiting bulk request along.
        assert bulk_seqs[0] <= 1
        assert bulk_seqs[-1] <= len(set(
            f.result().batch_seq for f in deadlines
        ))

    def test_guarded_answers_match_unguarded(self):
        """The guard reorders dispatch, never arithmetic (the yielded
        request rides a K=2 batch, so agreement is at reduction-order
        level rather than bitwise)."""
        guarded, _ = self._flood_server(ratio=0.5)
        unguarded, _ = self._flood_server(ratio=None)
        np.testing.assert_allclose(
            guarded.weights, unguarded.weights, atol=1e-10, rtol=0.0
        )
