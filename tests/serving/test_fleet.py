"""ModelRegistry + FleetServer: the multi-model serving tier.

Registry tests exercise real checkpoints written by ``save_checkpoint``
(lazy loads, LRU eviction under the resident cap, dirty/pin protection).
Fleet tests drive the real worker pool and the real batched engine — no
mocks — with the :class:`harness.FakeClock` wherever timing matters.
"""

import shutil
import threading
import time

import numpy as np
import pytest

from harness import FakeClock, watch_parking
from repro import (
    AdmissionPolicy,
    FleetServer,
    IncrementalTrainer,
    ModelRegistry,
)
from repro.core.serialization import read_checkpoint_metadata
from repro.datasets import make_binary_classification, make_regression
from repro.serving import BackpressureError, ModelLoadError, RetryPolicy

_BINARY = make_binary_classification(400, 10, separation=1.0, seed=11)
_BINARY_B = make_binary_classification(300, 8, separation=1.2, seed=12)
_LINEAR = make_regression(350, 6, noise=0.05, seed=13)


def fit_binary(data=_BINARY, **overrides):
    kwargs = dict(
        learning_rate=0.1,
        regularization=0.01,
        batch_size=40,
        n_iterations=50,
        seed=0,
        method="priu",
    )
    kwargs.update(overrides)
    trainer = IncrementalTrainer("binary_logistic", **kwargs)
    trainer.fit(data.features, data.labels)
    return trainer


def fit_linear():
    trainer = IncrementalTrainer(
        "linear",
        learning_rate=0.05,
        regularization=0.01,
        batch_size=35,
        n_iterations=40,
        seed=1,
        method="priu",
    )
    trainer.fit(_LINEAR.features, _LINEAR.labels)
    return trainer


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory):
    """Three saved checkpoints (a/b binary, c linear) with their data."""
    root = tmp_path_factory.mktemp("fleet-checkpoints")
    specs = {}
    for name, (maker, data) in {
        "model-a": (lambda: fit_binary(_BINARY), _BINARY),
        "model-b": (lambda: fit_binary(_BINARY_B, seed=2), _BINARY_B),
        "model-c": (fit_linear, _LINEAR),
    }.items():
        trainer = maker()
        directory = root / name
        trainer.save_checkpoint(directory)
        specs[name] = (directory, data)
    return specs


def registry_with(checkpoints, names, **kwargs) -> ModelRegistry:
    registry = ModelRegistry(**kwargs)
    for name in names:
        directory, data = checkpoints[name]
        registry.register(
            name, checkpoint=directory, features=data.features, labels=data.labels
        )
    return registry


class TestCheckpointMetadata:
    def test_reads_identity_without_loading_arrays(self, checkpoints):
        directory, data = checkpoints["model-a"]
        metadata = read_checkpoint_metadata(directory)
        assert metadata.task == "binary_logistic"
        assert metadata.n_samples == data.features.shape[0]
        assert metadata.n_features == data.features.shape[1]
        assert metadata.n_iterations == 50
        assert metadata.plan_path is not None
        assert metadata.format_version == 6
        payload = metadata.as_dict()
        assert payload["n_samples"] == data.features.shape[0]

    def test_store_archive_addressing(self, checkpoints):
        directory, _ = checkpoints["model-c"]
        metadata = read_checkpoint_metadata(directory / "store.npz")
        assert metadata.task == "linear"
        assert metadata.plan_path is None  # store-only addressing

    def test_missing_path_fails_cleanly(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_checkpoint_metadata(tmp_path / "nope")


class TestRegistry:
    def test_register_validates_eagerly(self, checkpoints, tmp_path):
        registry = ModelRegistry()
        with pytest.raises(FileNotFoundError):
            registry.register(
                "ghost",
                checkpoint=tmp_path / "missing",
                features=np.zeros((2, 2)),
                labels=np.zeros(2),
            )
        directory, data = checkpoints["model-a"]
        with pytest.raises(ValueError, match="features"):
            registry.register("half", checkpoint=directory)
        with pytest.raises(ValueError, match="exactly one"):
            registry.register("neither")
        metadata = registry.register(
            "ok", checkpoint=directory, features=data.features, labels=data.labels
        )
        assert metadata.n_samples == data.features.shape[0]
        with pytest.raises(ValueError, match="already registered"):
            registry.register(
                "ok",
                checkpoint=directory,
                features=data.features,
                labels=data.labels,
            )
        assert registry.stats()["loads"] == 0  # still nothing loaded

    def test_lazy_load_and_lru_hits(self, checkpoints):
        registry = registry_with(checkpoints, ["model-a", "model-b"])
        assert registry.resident_ids == ()
        trainer = registry.get("model-a")
        assert registry.stats() == {
            **registry.stats(),
            "loads": 1,
            "resident": 1,
        }
        assert registry.get("model-a") is trainer  # hit, no second load
        assert registry.stats()["hits"] == 1
        assert registry.n_samples("model-a") == trainer.n_samples

    def test_unknown_model_raises(self, checkpoints):
        registry = registry_with(checkpoints, ["model-a"])
        with pytest.raises(ValueError, match="unknown model"):
            registry.get("model-z")
        with pytest.raises(ValueError, match="unknown model"):
            registry.n_samples("model-z")

    def test_lru_eviction_under_resident_cap(self, checkpoints):
        registry = registry_with(
            checkpoints, ["model-a", "model-b", "model-c"], max_resident=2
        )
        registry.get("model-a")
        registry.get("model-b")
        registry.get("model-c")  # evicts the least recently used: a
        assert registry.resident_ids == ("model-b", "model-c")
        registry.get("model-b")  # touch b -> c is now LRU
        registry.get("model-a")  # reload a -> evicts c
        assert registry.resident_ids == ("model-b", "model-a")
        stats = registry.stats()
        assert stats["evictions"] == 2
        assert stats["loads"] == 4  # a, b, c, then a again

    def test_requested_model_is_never_its_own_eviction_victim(
        self, checkpoints
    ):
        registry = registry_with(
            checkpoints, ["model-a", "model-b"], max_resident=1
        )
        with registry.pinned("model-a"):
            trainer = registry.get("model-b")
            # Over cap, but a is pinned and b is the model just loaded:
            # the soft cap keeps both instead of evicting b by its own
            # load.
            assert registry.resident_ids == ("model-a", "model-b")
            assert registry.resident_trainer("model-b") is trainer
        # Releasing the pin settles the debt, least-recently-used first.
        assert registry.resident_ids == ("model-b",)
        assert registry.stats()["evictions"] == 1

    def test_pinned_models_are_not_evicted(self, checkpoints):
        registry = registry_with(
            checkpoints, ["model-a", "model-b"], max_resident=1
        )
        with registry.pinned("model-a") as trainer:
            assert trainer is registry.get("model-a")
            registry.get("model-b")  # would evict a, but a is pinned
            assert "model-a" in registry.resident_ids
        registry.get("model-b")
        registry.get("model-a")  # unpinned now: b gets evicted instead
        assert registry.resident_ids == ("model-a",)

    def test_dirty_models_resist_eviction_until_saved(self, checkpoints):
        registry = registry_with(
            checkpoints, ["model-a", "model-b"], max_resident=1
        )
        trainer = registry.get("model-a")
        trainer.remove([3, 4], commit=True)  # in-process commit: dirty
        assert registry.dirty_ids() == ("model-a",)
        assert registry.evict("model-a") is False
        registry.get("model-b")  # over cap, but a is unevictable
        assert "model-a" in registry.resident_ids
        assert registry.describe("model-a")["dirty"] is True
        written = registry.save_dirty()  # re-checkpoint in place
        assert "model-a" in written
        assert registry.dirty_ids() == ()
        assert registry.evict("model-a") is True
        # The refreshed checkpoint reflects the commit.
        assert registry.n_samples("model-a") == trainer.n_samples

    @pytest.mark.parametrize(
        "archive_name",
        ["model-a-archive.npz", "model-a.store"],  # the latter: no .npz
    )
    def test_save_dirty_rewrites_bare_archive_registration_in_place(
        self, tmp_path, archive_name
    ):
        """A registration whose checkpoint is a bare store archive (not a
        ``save_checkpoint`` directory) must be re-saved to the *exact*
        registered path, so an evict + reload sees the committed state
        (regression: the rewrite landed in ``<parent>/store.npz`` while
        the spec kept pointing at the stale pre-commit file, silently
        resurrecting committed-deleted samples on reload; and for an
        archive name without the ``.npz`` suffix, ``np.savez_compressed``
        diverted the rewrite to ``<name>.npz`` with the same effect)."""
        source = tmp_path / "source"
        fit_binary(_BINARY).save_checkpoint(source)
        archive = tmp_path / archive_name
        shutil.copy(source / "store.npz", archive)
        registry = ModelRegistry()
        registry.register(
            "m",
            checkpoint=archive,
            features=_BINARY.features,
            labels=_BINARY.labels,
        )
        trainer = registry.get("m")
        trainer.remove([3, 4], commit=True)
        assert registry.dirty_ids() == ("m",)
        written = registry.save_dirty()
        assert written["m"].ok
        assert written["m"].paths["store"] == archive  # the registered path
        assert registry.n_samples("m") == trainer.n_samples
        assert registry.evict("m")
        reloaded = registry.get("m")
        assert reloaded.n_samples == trainer.n_samples
        assert np.array_equal(np.sort(reloaded.deletion_log), [3, 4])
        np.testing.assert_allclose(
            reloaded.weights_, trainer.weights_, atol=1e-10
        )

    def test_save_dirty_drops_stale_plan_path_override(self, tmp_path):
        """An explicit ``plan_path=`` load override names the pre-commit
        plan; after ``save_dirty`` it must be dropped for directory
        registrations too, or the next evict + reload fails on the
        plan/store sample-count mismatch, wedging the model."""
        source = tmp_path / "m"
        fit_binary(_BINARY).save_checkpoint(source)
        stale_plan = tmp_path / "stale-plan.npz"
        shutil.copy(source / "plan.npz", stale_plan)
        registry = ModelRegistry()
        registry.register(
            "m",
            checkpoint=source,
            features=_BINARY.features,
            labels=_BINARY.labels,
            plan_path=stale_plan,
        )
        loaded = registry.get("m")
        loaded.remove([3, 4], commit=True)
        assert registry.save_dirty().keys() == {"m"}
        assert registry.evict("m")
        reloaded = registry.get("m")  # must not load the stale plan
        assert reloaded.n_samples == loaded.n_samples
        np.testing.assert_allclose(
            reloaded.weights_, loaded.weights_, atol=1e-10
        )

    def test_live_trainer_registration_is_resident_and_unevictable(self):
        trainer = fit_binary()
        registry = ModelRegistry(max_resident=1)
        assert registry.register("live", trainer=trainer) is None
        assert registry.resident_ids == ("live",)
        assert registry.evict("live") is False
        assert registry.get("live") is trainer

    def test_describe(self, checkpoints):
        registry = registry_with(checkpoints, ["model-a"])
        description = registry.describe("model-a")
        assert description["resident"] is False
        assert description["metadata"]["task"] == "binary_logistic"
        registry.get("model-a")
        assert registry.describe("model-a")["resident"] is True


@pytest.fixture
def live_fleet():
    """Three live models behind a fleet (non-commit), plus direct handles."""
    trainers = {
        "alpha": fit_binary(_BINARY),
        "beta": fit_binary(_BINARY_B, seed=2),
        "gamma": fit_linear(),
    }
    registry = ModelRegistry()
    for model_id, trainer in trainers.items():
        registry.register(model_id, trainer=trainer)
    return registry, trainers


class TestFleetServing:
    def test_routes_to_the_right_model_and_matches_direct(self, live_fleet):
        registry, trainers = live_fleet
        rng = np.random.default_rng(5)
        with FleetServer(registry, AdmissionPolicy(max_batch=8)) as fleet:
            futures = {}
            for model_id, trainer in trainers.items():
                ids = np.sort(
                    rng.choice(trainer.n_samples, size=4, replace=False)
                )
                futures[model_id] = (fleet.submit(model_id, ids), ids)
            outcomes = {
                model_id: (future.result(timeout=30), ids)
                for model_id, (future, ids) in futures.items()
            }
        for model_id, (outcome, ids) in outcomes.items():
            expected = trainers[model_id].remove(ids, method="priu").weights
            assert np.allclose(outcome.weights, expected, atol=1e-10)
            assert outcome.model_id == model_id
            assert outcome.weights.shape == expected.shape

    def test_unknown_model_fails_at_submit(self, live_fleet):
        registry, _ = live_fleet
        with FleetServer(registry) as fleet:
            with pytest.raises(ValueError, match="unknown model"):
                fleet.submit("delta", [1, 2])

    def test_out_of_range_ids_fail_without_loading(self, checkpoints):
        registry = registry_with(checkpoints, ["model-a"])
        n = checkpoints["model-a"][1].features.shape[0]
        with FleetServer(registry) as fleet:
            with pytest.raises(ValueError, match="removal ids"):
                fleet.submit("model-a", [n + 7])
        # Validation came from checkpoint metadata, not a forced load.
        assert registry.stats()["loads"] == 0

    def test_submission_triggers_lazy_load(self, checkpoints):
        registry = registry_with(checkpoints, ["model-b"])
        with FleetServer(registry, AdmissionPolicy(max_batch=4)) as fleet:
            outcome = fleet.resolve("model-b", [1, 2, 3], timeout=30)
        assert registry.stats()["loads"] == 1
        assert outcome.model_id == "model-b"

    def test_empty_submit_resolves_inline(self, live_fleet):
        registry, trainers = live_fleet
        with FleetServer(registry) as fleet:
            outcome = fleet.resolve("alpha", [], timeout=30)
        assert outcome.method == "noop"
        assert outcome.model_id == "alpha"
        np.testing.assert_allclose(outcome.weights, trainers["alpha"].weights_)
        stats = fleet.stats("alpha")
        assert stats.submitted == 1 and stats.answered == 1

    def test_per_model_backpressure_is_isolated(self, live_fleet):
        registry, trainers = live_fleet
        fleet = FleetServer(
            registry, AdmissionPolicy(max_pending=2), autostart=False
        )
        fleet.submit("alpha", [1])
        fleet.submit("alpha", [2])
        with pytest.raises(BackpressureError, match="alpha"):
            fleet.submit("alpha", [3], block=False)
        # Other models' queues are unaffected.
        fleet.submit("beta", [1], block=False)
        fleet.start()
        assert fleet.flush(timeout=30)
        fleet.close()
        assert fleet.stats("alpha").rejected == 1
        assert fleet.stats("beta").rejected == 0
        assert fleet.stats().rejected == 1

    def test_submit_after_close_raises(self, live_fleet):
        registry, _ = live_fleet
        fleet = FleetServer(registry)
        fleet.close()
        with pytest.raises(RuntimeError, match="closed"):
            fleet.submit("alpha", [1])
        with pytest.raises(RuntimeError, match="closed"):
            fleet.submit("alpha", [])

    def test_close_drains_preloaded_queues(self, live_fleet):
        registry, trainers = live_fleet
        fleet = FleetServer(registry, autostart=False)
        futures = [
            fleet.submit(model_id, [i, i + 1])
            for i, model_id in enumerate(trainers)
        ]
        fleet.close(wait=True)
        assert all(f.done() for f in futures)
        assert fleet.stats().answered == len(futures)
        assert fleet.pending == 0

    def test_flush_without_start_raises_instead_of_hanging(self, live_fleet):
        registry, _ = live_fleet
        fleet = FleetServer(registry, autostart=False)
        fleet.submit("alpha", [1])
        with pytest.raises(RuntimeError, match="never started"):
            fleet.flush(timeout=1.0)
        fleet.close()

    def test_cancelled_future_is_skipped(self, live_fleet):
        registry, _ = live_fleet
        fleet = FleetServer(registry, autostart=False)
        doomed = fleet.submit("beta", [1, 2])
        kept = fleet.submit("beta", [3])
        assert doomed.cancel()
        fleet.start()
        assert fleet.flush(timeout=30)
        fleet.close()
        assert kept.result(timeout=30).weights is not None
        stats = fleet.stats("beta")
        assert stats.cancelled == 1 and stats.answered == 1

    def test_load_failure_fails_the_batch_not_the_pool(
        self, checkpoints, tmp_path
    ):
        """A registration whose training data no longer matches the
        checkpoint fails its own batch; the pool keeps serving others."""
        directory, data = checkpoints["model-a"]
        registry = ModelRegistry()
        registry.register(
            "broken",
            checkpoint=directory,
            features=data.features[:-5],  # wrong shape: load will raise
            labels=data.labels[:-5],
        )
        registry.register("healthy", trainer=fit_binary(_BINARY_B, seed=2))
        retry = RetryPolicy(load_attempts=1)  # deterministic error: no backoff
        with FleetServer(registry, n_workers=1, retry=retry) as fleet:
            bad = fleet.submit("broken", [1, 2])
            with pytest.raises(ModelLoadError, match="captured over"):
                bad.result(timeout=30)
            good = fleet.resolve("healthy", [1, 2], timeout=30)
        assert good.weights is not None
        assert fleet.stats("broken").failed == 1
        assert fleet.stats("healthy").answered == 1

    def test_per_model_stats_sum_to_fleet_stats(self, live_fleet):
        registry, trainers = live_fleet
        with FleetServer(registry, AdmissionPolicy(max_batch=4)) as fleet:
            for model_id in trainers:
                for k in range(3):
                    fleet.submit(model_id, [k, k + 5])
            assert fleet.flush(timeout=30)
        per_model = fleet.model_stats()
        assert set(per_model) == set(trainers)
        assert sum(s.answered for s in per_model.values()) == 9
        assert fleet.stats().answered == 9

    def test_fleet_stats_merge_the_per_model_frames(self, live_fleet):
        """Fleet-wide stats are the per-model frames merged, lanes
        included, and both fleet-wide views agree."""
        registry, trainers = live_fleet
        with FleetServer(registry, AdmissionPolicy(max_batch=4)) as fleet:
            for i, model_id in enumerate(trainers):
                for k in range(i + 1):
                    lane = "deadline" if k % 2 else "bulk"
                    fleet.submit(model_id, [k, k + 5], lane=lane)
            assert fleet.flush(timeout=30)
        per_model = fleet.model_stats()
        frame = fleet.stats_frame()
        assert fleet.stats().as_dict() == frame.summarize().as_dict()
        assert len(frame.latencies) == sum(
            s.latency.count for s in per_model.values()
        )
        for lane in ("bulk", "deadline"):
            assert frame.lanes[lane].answered == sum(
                s.lane(lane).answered for s in per_model.values()
            )
        assert frame.batches == sum(s.batches for s in per_model.values())

    def test_deadline_lane_beats_bulk_under_fake_clock(self, live_fleet):
        registry, _ = live_fleet
        clock = FakeClock()
        fleet = FleetServer(
            registry,
            AdmissionPolicy(max_batch=16, max_delay_seconds=0.05),
            n_workers=1,
            clock=clock,
            autostart=False,
        )
        bulk = fleet.submit("alpha", [1, 2], lane="bulk")
        urgent = fleet.submit("alpha", [3], lane="deadline")
        fleet.start()
        assert fleet.flush(timeout=30)
        fleet.close()
        urgent_outcome = urgent.result(timeout=30)
        bulk_outcome = bulk.result(timeout=30)
        # The deadline request preempted the coalescing delay entirely and
        # dispatched first within the shared batch.
        assert urgent_outcome.wait_seconds == 0.0
        assert urgent_outcome.batch_rank == 0
        assert bulk_outcome.wait_seconds == 0.0  # rode the same batch
        assert bulk_outcome.batch_seq == urgent_outcome.batch_seq
        stats = fleet.stats("alpha")
        assert stats.lane("deadline").wait.max == 0.0


class TestFleetCommitMode:
    def test_per_model_commit_mode(self):
        committed = fit_binary(_BINARY)
        reference = fit_binary(_BINARY)
        stateless = fit_binary(_BINARY_B, seed=2)
        registry = ModelRegistry()
        registry.register("committed", trainer=committed)
        registry.register("stateless", trainer=stateless)
        fleet = FleetServer(
            registry,
            AdmissionPolicy(max_batch=1),
            n_workers=1,
            autostart=False,
        )
        fleet.configure_model("committed", commit_mode=True)
        sets = [np.array([1, 2]), np.array([5, 6]), np.array([2, 9])]
        futures = [fleet.submit("committed", s) for s in sets]
        untouched = fleet.submit("stateless", np.array([7, 8]))
        fleet.start()
        assert fleet.flush(timeout=30)
        fleet.close()
        acc = np.empty(0, dtype=np.int64)
        for removed, future in zip(sets, futures):
            outcome = future.result(timeout=30)
            assert outcome.committed
            acc = np.union1d(acc, removed)
            expected = reference.remove(acc, method="priu").weights
            np.testing.assert_allclose(
                outcome.weights, expected, atol=1e-10, rtol=0.0
            )
        assert committed.n_samples == reference.n_samples - acc.size
        # The stateless model stayed stateless.
        assert not untouched.result(timeout=30).committed
        assert stateless.n_samples == _BINARY_B.features.shape[0]

    def test_plan_bytes_are_measured_on_read_after_commits(self, tmp_path):
        """Committed batches shrink the compiled plan; ``describe()`` and
        ``stats()`` report the plan as it is now, not as it was loaded."""
        checkpoint = tmp_path / "m"
        fit_binary(_BINARY).save_checkpoint(checkpoint)
        registry = ModelRegistry()
        registry.register(
            "m",
            checkpoint=checkpoint,
            features=_BINARY.features,
            labels=_BINARY.labels,
        )
        with FleetServer(
            registry,
            AdmissionPolicy(max_batch=4),
            method="priu",
            n_workers=1,
            commit_mode=True,
        ) as fleet:
            fleet.resolve("m", [0], timeout=30)
            loaded_bytes = registry.stats()["resident_plan_bytes"]
            for start in range(0, 40, 4):
                fleet.resolve("m", range(start, start + 4), timeout=30)
        plan_bytes = registry.resident_trainer("m").plan_nbytes()
        assert plan_bytes < loaded_bytes
        assert fleet.describe("m")["plan_bytes"] == plan_bytes
        assert registry.stats()["resident_plan_bytes"] == plan_bytes

    def test_configure_after_traffic_is_rejected(self):
        registry = ModelRegistry()
        registry.register("m", trainer=fit_binary())
        fleet = FleetServer(registry, autostart=False)
        fleet.submit("m", [1])
        with pytest.raises(RuntimeError, match="already has traffic"):
            fleet.configure_model("m", commit_mode=True)
        fleet.close()

    def test_history_not_replayed_onto_rewritten_checkpoint_space(
        self, tmp_path
    ):
        """Commit -> save_dirty -> evict -> reload: a request validated
        against the rewritten checkpoint must NOT be translated through
        commits that checkpoint already contains (regression: current id
        0 was silently dropped as 'already deleted')."""
        trainer = fit_binary(_BINARY)
        checkpoint = tmp_path / "m"
        trainer.save_checkpoint(checkpoint)
        registry = ModelRegistry()
        registry.register(
            "m",
            checkpoint=checkpoint,
            features=_BINARY.features,
            labels=_BINARY.labels,
            method="priu",
        )
        with FleetServer(
            registry,
            AdmissionPolicy(max_batch=4),
            method="priu",
            n_workers=1,
            commit_mode=True,
        ) as fleet:
            first = fleet.resolve("m", [0, 1, 2], timeout=30)
            assert first.committed
            assert registry.save_dirty().keys() == {"m"}
            assert registry.evict("m")  # clean again: cold-start next hit
            # New space id 0 is original sample 3 — it must be deleted,
            # not dropped as "already committed".
            second = fleet.resolve("m", [0], timeout=30)
        assert np.array_equal(second.removed, [0])
        live = registry.get("m")
        assert np.array_equal(np.sort(live.deletion_log), [0, 1, 2, 3])
        assert live.n_samples == _BINARY.features.shape[0] - 4

    def test_cold_submits_are_translated_through_same_epoch_commits(
        self, tmp_path
    ):
        """Requests submitted while the model is still cold are tagged
        with the archive's id space — commits that land between their
        submit and their dispatch (same epoch) must still translate them
        (regression: the archive tag sorted *above* same-epoch commits,
        exempting queued cold requests from remapping)."""
        trainer = fit_binary(_BINARY)
        checkpoint = tmp_path / "m"
        trainer.save_checkpoint(checkpoint)
        registry = ModelRegistry()
        registry.register(
            "m",
            checkpoint=checkpoint,
            features=_BINARY.features,
            labels=_BINARY.labels,
            method="priu",
        )
        fleet = FleetServer(
            registry,
            AdmissionPolicy(max_batch=1),
            method="priu",
            n_workers=1,
            commit_mode=True,
            autostart=False,
        )
        # All three enqueue before the model ever loads: archive space.
        first = fleet.submit("m", [0, 1, 2])
        overlap = fleet.submit("m", [0])  # committed by the first batch
        shifted = fleet.submit("m", [4])  # survives, shifts down by 3
        fleet.start()
        assert fleet.flush(timeout=30)
        fleet.close()
        assert np.array_equal(first.result(timeout=30).removed, [0, 1, 2])
        assert overlap.result(timeout=30).removed.size == 0
        assert np.array_equal(shifted.result(timeout=30).removed, [4 - 3])
        live = registry.get("m")
        assert np.array_equal(np.sort(live.deletion_log), [0, 1, 2, 4])
        assert live.n_samples == _BINARY.features.shape[0] - 4

    def test_cold_submits_skip_commits_the_checkpoint_already_holds(
        self, tmp_path
    ):
        """A cold model's requests are tagged with the deletion-log length
        its checkpoint metadata implies, so dispatch translates them past
        the commits made since the load and never again past the ones
        the checkpoint already applied."""
        trainer = fit_binary(_BINARY)
        trainer.remove([0, 1, 2], commit=True)
        checkpoint = tmp_path / "m"
        trainer.save_checkpoint(checkpoint)
        registry = ModelRegistry()
        registry.register(
            "m",
            checkpoint=checkpoint,
            features=_BINARY.features,
            labels=_BINARY.labels,
            method="priu",
        )
        fleet = FleetServer(
            registry,
            AdmissionPolicy(max_batch=1),
            method="priu",
            n_workers=1,
            commit_mode=True,
            autostart=False,
        )
        # Both enqueue against the archive space, which lacks originals
        # 0-2: id 0 is original 3 and id 4 is original 7.
        first = fleet.submit("m", [0])
        shifted = fleet.submit("m", [4])
        fleet.start()
        assert fleet.flush(timeout=30)
        fleet.close()
        assert np.array_equal(first.result(timeout=30).removed, [0])
        assert np.array_equal(shifted.result(timeout=30).removed, [3])
        live = registry.get("m")
        assert np.array_equal(np.sort(live.deletion_log), [0, 1, 2, 3, 7])
        assert live.n_samples == _BINARY.features.shape[0] - 5

    def test_queued_request_remaps_across_evict_reload_within_epoch(
        self, tmp_path
    ):
        """save_dirty -> request queued against the clean resident model
        -> evict -> reload -> commit: store version numbers restart on
        reload (``load_store`` rebuilds records via ``add()``), so the
        queued request's tag must not outrank the post-reload commit's
        key (regression: the request was tagged with the pre-eviction
        in-memory version, the commit recorded at the lower reloaded
        version was skipped by remap, and the wrong sample was silently
        deleted)."""
        trainer = fit_binary(_BINARY)
        checkpoint = tmp_path / "m"
        trainer.save_checkpoint(checkpoint)
        registry = ModelRegistry()
        registry.register(
            "m",
            checkpoint=checkpoint,
            features=_BINARY.features,
            labels=_BINARY.labels,
            method="priu",
        )
        # Epoch 0: commit originals {0,1,2} directly on the loaded
        # trainer, then re-checkpoint (epoch 1, clean, still resident).
        registry.get("m").remove([0, 1, 2], commit=True)
        assert registry.save_dirty().keys() == {"m"}
        fleet = FleetServer(
            registry,
            AdmissionPolicy(max_batch=1),
            method="priu",
            n_workers=1,
            commit_mode=True,
            autostart=False,
        )
        # Queued against the clean *resident* model, whose in-memory
        # store version exceeds what a reload will restart it to.
        parked = fleet.submit("m", [5], lane="bulk")
        assert registry.evict("m")  # clean: versions reset on reload
        # Dispatches ahead of the parked request (deadline lane) on the
        # freshly reloaded trainer, committing new-space id 0.
        overtake = fleet.submit("m", [0], lane="deadline")
        fleet.start()
        assert fleet.flush(timeout=30)
        fleet.close()
        assert np.array_equal(overtake.result(timeout=30).removed, [0])
        # The parked request addressed post-first-commit id 5 (original
        # 8); the overtaking commit removed one lower id, so it must
        # execute as 4 — not as the untranslated 5.
        assert np.array_equal(parked.result(timeout=30).removed, [4])
        live = registry.get("m")
        assert np.array_equal(np.sort(live.deletion_log), [0, 1, 2, 3, 8])
        assert live.n_samples == _BINARY.features.shape[0] - 5

    def test_parked_submitter_is_translated_past_commits_made_while_parked(
        self,
    ):
        """A submitter parked on the per-model backpressure semaphore
        validated its ids before the wait.  A batch that commits while it
        is parked shifts the id space under it, so its request must be
        translated past that commit at dispatch, not executed verbatim."""
        trainer = fit_binary(_BINARY)
        registry = ModelRegistry()
        registry.register("m", trainer=trainer)
        fleet = FleetServer(
            registry,
            AdmissionPolicy(max_pending=1),
            commit_mode=True,
            autostart=False,
        )
        first = fleet.submit("m", [1])
        parked = watch_parking(fleet, "m")
        submitted: dict = {}
        thread = threading.Thread(
            target=lambda: submitted.setdefault(
                "future", fleet.submit("m", [2], block=True, timeout=30)
            ),
            daemon=True,
        )
        thread.start()
        assert parked.wait(timeout=30)
        fleet.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert fleet.flush(timeout=30)
        fleet.close()
        assert fleet.stats("m").answered == 2
        assert np.array_equal(first.result(timeout=30).removed, [1])
        # Id 2 was validated before the commit of id 1 shifted it down.
        late = submitted["future"].result(timeout=30)
        assert np.array_equal(late.removed, [1])
        assert np.array_equal(np.sort(trainer.deletion_log), [1, 2])

    def test_queued_request_is_translated_past_a_direct_commit(self):
        """Commits made on the trainer itself, outside the fleet, shift the
        id space under queued requests exactly like the fleet's own:
        a request for id 5 queued before ``remove([0], commit=True)``
        must erase original sample 5 (now id 4), not sample 6."""
        trainer = fit_binary(_BINARY)
        registry = ModelRegistry()
        registry.register("m", trainer=trainer)
        fleet = FleetServer(
            registry,
            AdmissionPolicy(max_batch=1),
            method="priu",
            n_workers=1,
            commit_mode=True,
            autostart=False,
        )
        queued = fleet.submit("m", [5])
        trainer.remove([0], commit=True)
        fleet.start()
        assert fleet.flush(timeout=30)
        fleet.close()
        assert np.array_equal(queued.result(timeout=30).removed, [4])
        assert np.array_equal(np.sort(trainer.deletion_log), [0, 5])

    def test_submit_parks_on_the_store_commit_lock(self):
        """Regression: a submit arriving while ``compact()`` mutates the
        store waits on the store's commit lock instead of spinning on the
        GIL the writer needs, then validates against the post-commit id
        space."""
        trainer = fit_binary(_BINARY)
        n = trainer.n_samples
        registry = ModelRegistry()
        registry.register("m", trainer=trainer)
        fleet = FleetServer(registry, commit_mode=True, autostart=False)
        store = trainer.store
        inside, release = threading.Event(), threading.Event()
        compact_locked = store._compact_locked

        def gated(*args, **kwargs):
            inside.set()
            assert release.wait(timeout=30)
            return compact_locked(*args, **kwargs)

        store._compact_locked = gated
        writer = threading.Thread(
            target=lambda: trainer.remove(np.arange(5), commit=True),
            daemon=True,
        )
        writer.start()
        assert inside.wait(timeout=30)
        parked: dict = {}

        def submit_mid_commit():
            started = time.thread_time()
            try:
                fleet.submit("m", [n - 1])
            except ValueError as exc:
                parked["error"] = exc
            parked["cpu"] = time.thread_time() - started

        submitter = threading.Thread(target=submit_mid_commit, daemon=True)
        submitter.start()
        submitter.join(timeout=0.2)
        assert submitter.is_alive()  # parked behind the writer
        release.set()
        writer.join(timeout=30)
        submitter.join(timeout=30)
        assert not submitter.is_alive()
        # Validated against the post-commit space: n - 5 samples remain.
        assert f"[0, {n - 5})" in str(parked["error"])
        # Blocked, not spinning: the parked thread burned almost no CPU.
        assert parked["cpu"] < 0.05
        fleet.close()

    def test_queued_requests_remap_across_commits(self):
        trainer = fit_binary(_BINARY)
        n = trainer.n_samples
        registry = ModelRegistry()
        registry.register("m", trainer=trainer)
        fleet = FleetServer(
            registry,
            AdmissionPolicy(max_batch=1),
            n_workers=1,
            commit_mode=True,
            autostart=False,
        )
        first = fleet.submit("m", np.arange(5))
        high = fleet.submit("m", [n - 3])
        low = fleet.submit("m", [7])
        fleet.start()
        assert fleet.flush(timeout=30)
        fleet.close()
        assert first.result(timeout=30).committed
        # Translated sets, reported in the space their batch executed in.
        assert np.array_equal(high.result(timeout=30).removed, [n - 3 - 5])
        assert np.array_equal(low.result(timeout=30).removed, [7 - 5])
        assert np.array_equal(
            np.sort(trainer.deletion_log), np.r_[np.arange(5), 7, n - 3]
        )
