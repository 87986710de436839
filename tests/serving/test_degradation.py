"""Graceful degradation under injected faults: retry, quarantine, crash.

Drives the real :class:`FleetServer` / :class:`DeletionServer` with the
:class:`~repro.testing.FlakyLoader` and :class:`~repro.testing.FaultInjector`
seams — no mocks of the serving layer itself — and the
:class:`harness.FakeClock`, so every backoff sleep and probe interval
elapses in zero wall time.
"""

import shutil
import threading

import numpy as np
import pytest

from harness import FakeClock, watch_parking
from repro import (
    AdmissionPolicy,
    DeletionServer,
    FleetServer,
    IncrementalTrainer,
    ModelRegistry,
)
from repro.serving import (
    CheckpointCorruptionError,
    ModelLoadError,
    ModelQuarantinedError,
    RetryPolicy,
    WorkerCrashedError,
)
from repro.core.serialization import _write_npz
from repro.datasets import make_binary_classification
from repro.testing import FaultInjector, FlakyLoader, SimulatedCrash, corrupt_npz_member

_DATA = make_binary_classification(300, 8, separation=1.2, seed=7)


def fit_model(**overrides):
    kwargs = dict(
        learning_rate=0.1,
        regularization=0.01,
        batch_size=40,
        n_iterations=40,
        seed=0,
        method="priu",
    )
    kwargs.update(overrides)
    trainer = IncrementalTrainer("binary_logistic", **kwargs)
    trainer.fit(_DATA.features, _DATA.labels)
    return trainer


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    directory = tmp_path_factory.mktemp("degradation") / "ckpt"
    fit_model().save_checkpoint(directory)
    return directory


def flaky_fleet(checkpoint, retry, model_ids=("m",), flaky=None):
    flaky = flaky if flaky is not None else FlakyLoader()
    registry = ModelRegistry(loader=flaky)
    for model_id in model_ids:
        registry.register(
            model_id,
            checkpoint=checkpoint,
            features=_DATA.features,
            labels=_DATA.labels,
        )
    clock = FakeClock()
    fleet = FleetServer(registry, n_workers=1, clock=clock, retry=retry)
    return fleet, flaky, clock


class TestLoadRetry:
    def test_transient_failures_retried_within_one_dispatch(self, checkpoint):
        retry = RetryPolicy(load_attempts=3, backoff_seconds=0.05)
        fleet, flaky, _clock = flaky_fleet(checkpoint, retry)
        flaky.fail_next("m", 2)  # two failures, third attempt succeeds
        with fleet:
            outcome = fleet.resolve("m", [1, 2], timeout=30)
        assert outcome.weights is not None
        assert flaky.failures == 2 and flaky.loads == 3
        health = fleet.describe("m")["health"]
        assert health["state"] == "healthy"
        assert health["load_retries"] == 2
        assert health["consecutive_failures"] == 0
        assert fleet.stats().quarantined == 0
        assert fleet.stats("m").answered == 1

    def test_quarantine_after_repeated_dispatch_failures(self, checkpoint):
        retry = RetryPolicy(
            load_attempts=2,
            backoff_seconds=0.0,
            quarantine_after=2,
            probe_interval_seconds=10.0,
        )
        fleet, flaky, _clock = flaky_fleet(checkpoint, retry)
        flaky.fail_next("m", 4)  # 2 dispatches x 2 attempts, all fail
        with fleet:
            with pytest.raises(ModelLoadError) as first:
                fleet.resolve("m", [1], timeout=30)
            assert first.value.attempts == 2
            assert fleet.describe("m")["health"]["state"] == "healthy"

            with pytest.raises(ModelLoadError):
                fleet.resolve("m", [2], timeout=30)
            health = fleet.describe("m")["health"]
            assert health["state"] == "quarantined"
            assert health["quarantines"] == 1
            assert health["consecutive_failures"] == 2

            # Breaker open: fast-fail at submit, no load attempted.
            loads_before = flaky.loads
            with pytest.raises(ModelQuarantinedError) as rejected:
                fleet.submit("m", [3])
            assert rejected.value.model_id == "m"
            assert rejected.value.retry_at == health["probe_at"]
            assert flaky.loads == loads_before
        assert fleet.stats().quarantined == 1
        assert fleet.stats("m").quarantined == 1
        assert fleet.stats().failed == 2

    def test_corruption_skips_retries_and_quarantines_immediately(
        self, checkpoint, tmp_path
    ):
        broken = tmp_path / "broken"
        shutil.copytree(checkpoint, broken)
        corrupt_npz_member(broken / "store.npz", "__schedule__")
        self.assert_quarantined_at_once(broken)

    def test_malformed_metadata_skips_retries_and_quarantines_immediately(
        self, checkpoint, tmp_path
    ):
        """``__summary_kinds__`` one entry short, rewritten with a valid
        CRC: registration reads ``__meta__`` alone and accepts it; the
        load refuses it as corrupt instead of retrying an IndexError."""
        broken = tmp_path / "broken"
        shutil.copytree(checkpoint, broken)
        store = broken / "store.npz"
        with np.load(store, allow_pickle=False) as npz:
            members = {name: npz[name] for name in npz.files}
        members["__summary_kinds__"] = members["__summary_kinds__"][:-1]
        with open(store, "wb") as handle:
            _write_npz(handle, members)
        self.assert_quarantined_at_once(broken)

    @staticmethod
    def assert_quarantined_at_once(broken):
        registry = ModelRegistry()
        registry.register(
            "m",
            checkpoint=broken,
            features=_DATA.features,
            labels=_DATA.labels,
        )
        retry = RetryPolicy(load_attempts=3, quarantine_after=3)
        with FleetServer(
            registry, n_workers=1, clock=FakeClock(), retry=retry
        ) as fleet:
            with pytest.raises(ModelLoadError) as failed:
                fleet.resolve("m", [1], timeout=30)
            # Non-transient: a single attempt, no backoff retries.
            assert failed.value.attempts == 1
            assert isinstance(failed.value.__cause__, CheckpointCorruptionError)
            health = fleet.describe("m")["health"]
            assert health["state"] == "quarantined"
            assert health["load_retries"] == 0
            with pytest.raises(ModelQuarantinedError):
                fleet.submit("m", [2])


class TestProbeRecovery:
    RETRY = RetryPolicy(
        load_attempts=1,
        backoff_seconds=0.0,
        quarantine_after=1,
        probe_interval_seconds=5.0,
    )

    def test_half_open_probe_restores_service(self, checkpoint):
        fleet, flaky, clock = flaky_fleet(checkpoint, self.RETRY)
        flaky.fail_next("m", 1)
        with fleet:
            with pytest.raises(ModelLoadError):
                fleet.resolve("m", [1], timeout=30)
            health = fleet.describe("m")["health"]
            assert health["state"] == "quarantined"
            with pytest.raises(ModelQuarantinedError):
                fleet.submit("m", [2])

            clock.advance_to(health["probe_at"])
            # The loader has healed; the probe submission goes through
            # and closes the breaker.
            outcome = fleet.resolve("m", [3], timeout=30)
            assert outcome.weights is not None
            health = fleet.describe("m")["health"]
            assert health["state"] == "healthy"
            assert health["consecutive_failures"] == 0
            # Normal service resumed.
            assert fleet.resolve("m", [4], timeout=30).weights is not None
        assert fleet.stats().quarantined == 1

    def test_failed_probe_reopens_the_breaker(self, checkpoint):
        fleet, flaky, clock = flaky_fleet(checkpoint, self.RETRY)
        flaky.fail_next("m", 2)  # first dispatch AND the probe fail
        with fleet:
            with pytest.raises(ModelLoadError):
                fleet.resolve("m", [1], timeout=30)
            probe_at = fleet.describe("m")["health"]["probe_at"]
            clock.advance_to(probe_at)
            with pytest.raises(ModelLoadError):
                fleet.resolve("m", [2], timeout=30)
            health = fleet.describe("m")["health"]
            assert health["state"] == "quarantined"
            assert health["quarantines"] == 2
            # Straight back to fast-fail until the next probe window.
            with pytest.raises(ModelQuarantinedError):
                fleet.submit("m", [3])


class TestSaveDegradation:
    def test_failed_save_keeps_model_dirty_resident_and_serving(
        self, checkpoint, tmp_path
    ):
        first = tmp_path / "first"
        second = tmp_path / "second"
        shutil.copytree(checkpoint, first)
        shutil.copytree(checkpoint, second)
        registry = ModelRegistry()
        for model_id, directory in (("m", first), ("n", second)):
            registry.register(
                model_id,
                checkpoint=directory,
                features=_DATA.features,
                labels=_DATA.labels,
            )
        for model_id in ("m", "n"):
            registry.get(model_id).remove([1, 2, 3], commit=True)
        assert set(registry.dirty_ids()) == {"m", "n"}

        # Fail exactly the first write of the sweep ("m" loaded first).
        with FaultInjector().fail_at("store.begin", times=1).installed():
            written = registry.save_dirty()

        assert set(written) == {"m", "n"}
        assert not written["m"].ok and isinstance(written["m"].error, OSError)
        assert written["n"].ok and written["n"].paths is not None
        # The failed model stays dirty: unevictable, still resident,
        # still answering from its committed in-memory state.
        assert registry.dirty_ids() == ("m",)
        assert not registry.evict("m")
        assert registry.get("m").weights_ is not None
        # Its checkpoint on disk is untouched — no half-written files.
        assert sorted(p.name for p in first.iterdir()) == [
            "plan.npz",
            "store.npz",
        ]

        # The next sweep retries and succeeds.
        retried = registry.save_dirty()
        assert retried.keys() == {"m"} and retried["m"].ok
        assert registry.dirty_ids() == ()
        assert registry.evict("m")

    def test_crash_during_save_dirty_leaves_loadable_checkpoint(
        self, checkpoint, tmp_path
    ):
        """A process death mid-``save_dirty`` never tears the archive: a
        fresh process loads the complete pre-commit checkpoint."""
        work = tmp_path / "work"
        shutil.copytree(checkpoint, work)
        registry = ModelRegistry()
        registry.register(
            "m",
            checkpoint=work,
            features=_DATA.features,
            labels=_DATA.labels,
        )
        before = registry.get("m").weights_.copy()
        registry.get("m").remove([1, 2, 3], commit=True)

        with FaultInjector().crash_at("plan.temp-written").installed():
            with pytest.raises(SimulatedCrash):
                registry.save_dirty()

        # The epoch was never bumped and the model is still dirty.
        assert registry.dirty_ids() == ("m",)
        # A fresh process sees the complete old checkpoint.
        reloaded = IncrementalTrainer.from_checkpoint(
            work, _DATA.features, _DATA.labels
        )
        assert np.array_equal(reloaded.weights_, before)


class CrashOnce:
    """Wrap a trainer method to die like a worker bug would: abruptly."""

    def __init__(self):
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        raise SimulatedCrash("injected worker death")


class TestWorkerCrash:
    def test_deletion_server_fails_pending_instead_of_wedging(self):
        trainer = fit_model()
        trainer.remove_many = CrashOnce()
        server = DeletionServer(trainer, method="priu", autostart=False)
        futures = [server.submit([k, k + 7]) for k in range(3)]
        server.start()
        for future in futures:
            with pytest.raises(WorkerCrashedError) as failed:
                future.result(timeout=30)
            assert isinstance(failed.value.__cause__, SimulatedCrash)
        # flush() unblocks rather than waiting on futures nobody will
        # ever answer, and new submissions fast-fail.
        assert server.flush(timeout=30)
        with pytest.raises(WorkerCrashedError):
            server.submit([1])
        assert server.stats().failed == 3
        server.close()

    def test_fleet_fails_pending_across_models_and_future_submits(self):
        registry = ModelRegistry()
        crashy = fit_model()
        crashy.remove_many = CrashOnce()
        registry.register("crashy", trainer=crashy)
        registry.register("bystander", trainer=fit_model(seed=2))
        fleet = FleetServer(registry, n_workers=1, autostart=False)
        doomed = fleet.submit("crashy", [1, 2])
        queued = fleet.submit("bystander", [3])
        fleet.start()
        with pytest.raises(WorkerCrashedError):
            doomed.result(timeout=30)
        # The lone worker died: queued work for other models fails too
        # (fail-fast) instead of waiting forever.
        with pytest.raises(WorkerCrashedError):
            queued.result(timeout=30)
        assert fleet.flush(timeout=30)
        with pytest.raises(WorkerCrashedError):
            fleet.submit("bystander", [4])
        assert fleet.stats().failed == 2
        fleet.close()

    def test_maintain_after_a_worker_crash_fails_fast(self):
        """Regression: maintenance scheduled on a dead fleet raises instead
        of queueing a ticket that no worker will ever run."""
        crashy = fit_model()
        crashy.remove_many = CrashOnce()
        registry = ModelRegistry()
        registry.register("m", trainer=crashy)
        fleet = FleetServer(registry, n_workers=1)
        with pytest.raises(WorkerCrashedError):
            fleet.resolve("m", [1, 2], timeout=30)
        with pytest.raises(WorkerCrashedError):
            fleet.maintain("m")
        assert fleet.maintenance_stats("m")["pending"] == 0
        assert fleet.flush(timeout=5)
        fleet.close()

    def test_submitter_parked_on_backpressure_fails_when_the_worker_dies(
        self,
    ):
        """Regression: a submitter parked on a full queue when the only
        worker dies must get a typed error, not a future nobody will ever
        resolve.  The crash drains the queue and frees its slot, so the
        parked submit wakes up after the fleet is already dead."""
        trainer = fit_model()
        inside, release = threading.Event(), threading.Event()

        def gated_crash(*args, **kwargs):
            inside.set()
            assert release.wait(timeout=30)
            raise SimulatedCrash("injected worker death")

        trainer.remove_many = gated_crash
        registry = ModelRegistry()
        registry.register("m", trainer=trainer)
        fleet = FleetServer(
            registry,
            AdmissionPolicy(max_batch=1, max_delay_seconds=0.0, max_pending=1),
            n_workers=1,
        )
        in_flight = fleet.submit("m", [1])
        assert inside.wait(timeout=30)
        queued = fleet.submit("m", [2])  # takes the only queue slot
        parking = watch_parking(fleet, "m")
        parked: dict = {}

        def submit_behind_full_queue():
            try:
                parked["future"] = fleet.submit("m", [3], timeout=30)
            except Exception as exc:
                parked["error"] = exc

        thread = threading.Thread(target=submit_behind_full_queue, daemon=True)
        thread.start()
        # The submitter is past its first crash check, parked on the full
        # queue, before the in-flight batch crashes the worker.
        assert parking.wait(timeout=30)
        release.set()
        thread.join(timeout=30)
        assert not thread.is_alive()
        for future in (in_flight, queued):
            with pytest.raises(WorkerCrashedError):
                future.result(timeout=30)
        assert "future" not in parked
        assert isinstance(parked["error"], WorkerCrashedError)
        assert fleet.flush(timeout=5)
        assert fleet.pending == 0
        fleet.close()
