"""ShardRouter: cross-process sharded serving.

Every test drives real worker processes over real checkpoints — no
mocks.  The bit-identity contract tests submit *serially* (each future
resolved before the next submit) on both the router and the
single-process reference fleet: the engine's ``remove_many`` answers are
composition-independent only within a batch-size class, so matching the
batching (every batch a singleton) makes the comparison structurally
deterministic rather than racy.

Subprocess faults use the worker's ``crash_after_submits`` seam (the
worker ``os._exit``\\ s while handling its K-th submit message — a
kernel-OOM-kill analogue) or :meth:`ShardRouter.kill_shard` (SIGKILL),
and tests wait on :meth:`describe` health rather than sleeping blind.
"""

import multiprocessing
import os
import pickle
import threading
import time

import numpy as np
import pytest

from repro import (
    AdmissionPolicy,
    FleetServer,
    IncrementalTrainer,
    ModelRegistry,
    ShardRouter,
)
from repro.datasets import make_binary_classification
from repro.serving import (
    LaneFrame,
    RetryPolicy,
    ServingError,
    ShardUnavailableError,
    StatsFrame,
)
from repro.serving.router import _ring_walk, hash_ring
from repro.serving.shard_worker import _ShardLoop

_DATA = make_binary_classification(300, 8, separation=1.0, seed=3)
_POLICY = AdmissionPolicy(max_batch=8, max_delay_seconds=0.01)


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """One small saved binary-logistic checkpoint (shared by many ids)."""
    trainer = IncrementalTrainer(
        "binary_logistic",
        learning_rate=0.1,
        regularization=0.01,
        batch_size=30,
        n_iterations=30,
        seed=0,
        method="priu",
    )
    trainer.fit(_DATA.features, _DATA.labels)
    directory = tmp_path_factory.mktemp("router-checkpoints") / "model"
    trainer.save_checkpoint(directory)
    return directory


def serve_serial(server, traffic):
    """Submit one request at a time (module docstring: singleton batches)."""
    return [
        server.submit(model_id, ids, lane=lane).result(timeout=60)
        for model_id, ids, lane in traffic
    ]


def mixed_lane_traffic(n=12, models=3):
    return [
        (f"model-{i % models}", [i, i + 1], "deadline" if i % 4 == 0 else "bulk")
        for i in range(n)
    ]


def reference_answers(checkpoint, traffic, models=3):
    """The single-process FleetServer's answers for the same traffic."""
    registry = ModelRegistry()
    for i in range(models):
        registry.register(
            f"model-{i}",
            checkpoint=checkpoint,
            features=_DATA.features,
            labels=_DATA.labels,
        )
    with FleetServer(registry, _POLICY, method="priu", n_workers=1) as fleet:
        return serve_serial(fleet, traffic)


def register_all(router, checkpoint, models=3):
    for i in range(models):
        router.register(f"model-{i}", checkpoint, _DATA.features, _DATA.labels)


def wait_dead(router, name, timeout=10.0):
    """Block until the router has noticed ``name``'s worker is gone."""
    deadline = time.monotonic() + timeout  # reprolint: allow[R005] real subprocess death/respawn is I/O a fake clock cannot advance
    while time.monotonic() < deadline:  # reprolint: allow[R005] real subprocess death/respawn is I/O a fake clock cannot advance
        shard = router.describe()["shards"][name]
        if not shard["alive"]:
            return
        time.sleep(0.02)  # reprolint: allow[R005] real subprocess death/respawn is I/O a fake clock cannot advance
    raise AssertionError(f"{name} still marked alive after {timeout}s")


class TestHashRing:
    def test_placement_is_deterministic_across_instances(self):
        slots = [f"shard-{i}" for i in range(4)]
        ring_a, ring_b = hash_ring(slots), hash_ring(slots)
        assert ring_a == ring_b
        for model_id in (f"model-{i}" for i in range(50)):
            assert _ring_walk(ring_a, model_id) == _ring_walk(ring_b, model_id)

    def test_walk_visits_every_slot_once_home_first(self):
        ring = hash_ring(["a", "b", "c"])
        walk = _ring_walk(ring, "some-model")
        assert sorted(walk) == ["a", "b", "c"]
        assert len(set(walk)) == 3

    def test_losing_a_slot_rehomes_only_its_models(self):
        slots = [f"shard-{i}" for i in range(4)]
        ring = hash_ring(slots)
        survivors = hash_ring(slots[:-1])
        moved = 0
        for i in range(200):
            model_id = f"model-{i}"
            home = _ring_walk(ring, model_id)[0]
            new_home = _ring_walk(survivors, model_id)[0]
            if home == slots[-1]:
                # Orphans land exactly on their old first-fallback slot.
                assert new_home == _ring_walk(ring, model_id)[1]
                moved += 1
            else:
                assert new_home == home
        assert moved > 0  # the lost slot did own some models

    def test_virtual_nodes_spread_load(self):
        ring = hash_ring([f"shard-{i}" for i in range(4)])
        counts: dict[str, int] = {}
        for i in range(400):
            home = _ring_walk(ring, f"model-{i}")[0]
            counts[home] = counts.get(home, 0) + 1
        assert len(counts) == 4
        assert min(counts.values()) >= 400 // 4 // 3  # no starved slot


class TestStatsFrames:
    def test_merge_concatenates_samples_and_sums_counters(self):
        a = StatsFrame(
            submitted=3,
            answered=2,
            failed=1,
            batches=2,
            batch_sizes=[1, 1],
            waits=[0.1, 0.2],
            services=[0.3, 0.4],
            latencies=[0.4, 0.6],
            lanes={"bulk": LaneFrame(submitted=3, answered=2, latencies=[0.4, 0.6])},
        )
        b = StatsFrame(
            submitted=5,
            answered=5,
            batches=1,
            batch_sizes=[5],
            waits=[0.5],
            services=[0.6],
            latencies=[1.1, 0.2, 0.3, 0.4, 0.5],
            lanes={
                "bulk": LaneFrame(submitted=2, answered=2, latencies=[1.1, 0.2]),
                "deadline": LaneFrame(submitted=3, answered=3),
            },
        )
        merged = StatsFrame.merged([a, b])
        assert merged.submitted == 8
        assert merged.answered == 7
        assert merged.failed == 1
        assert merged.batches == 3
        assert sorted(merged.batch_sizes) == [1, 1, 5]
        assert sorted(merged.latencies) == sorted(
            [0.4, 0.6, 1.1, 0.2, 0.3, 0.4, 0.5]
        )
        assert merged.lanes["bulk"].submitted == 5
        assert sorted(merged.lanes["bulk"].latencies) == [0.2, 0.4, 0.6, 1.1]
        assert merged.lanes["deadline"].answered == 3

    def test_percentiles_are_order_statistics_of_the_pool(self):
        # The whole point of shipping raw samples: the merged p99/max
        # reflect the pooled distribution, which no combination of the
        # two shards' own percentiles could reconstruct.
        fast = StatsFrame(
            submitted=99, answered=99, latencies=[0.01] * 99, batches=99
        )
        slow = StatsFrame(submitted=1, answered=1, latencies=[9.0], batches=1)
        stats = StatsFrame.merged([fast, slow]).summarize()
        pooled = [0.01] * 99 + [9.0]
        assert stats.latency.max == 9.0
        assert stats.latency.p99 == pytest.approx(
            float(np.percentile(pooled, 99))
        )
        # Averaging the per-shard p99s would have given ~4.5 here.
        assert stats.latency.p50 == pytest.approx(0.01)

    def test_frames_pickle(self):
        frame = StatsFrame(
            submitted=1, latencies=[0.5], lanes={"bulk": LaneFrame(submitted=1)}
        )
        clone = pickle.loads(pickle.dumps(frame))
        assert clone == frame

    def test_merged_of_nothing_is_empty(self):
        stats = StatsFrame.merged([]).summarize()
        assert stats.submitted == 0
        assert stats.answered == 0


class TestRouterServing:
    def test_bit_identical_to_single_process_fleet(self, checkpoint):
        traffic = mixed_lane_traffic()
        reference = reference_answers(checkpoint, traffic)
        with ShardRouter(n_shards=2, policy=_POLICY) as router:
            register_all(router, checkpoint)
            answers = serve_serial(router, traffic)
        for expected, actual in zip(reference, answers):
            assert np.array_equal(expected.weights, actual.weights)
            assert expected.method == actual.method
            assert np.array_equal(expected.removed, actual.removed)
            assert expected.lane == actual.lane
            assert expected.model_id == actual.model_id

    def test_merged_stats_account_for_every_request(self, checkpoint):
        traffic = mixed_lane_traffic()
        with ShardRouter(n_shards=2, policy=_POLICY) as router:
            register_all(router, checkpoint)
            serve_serial(router, traffic)
            assert router.flush(timeout=30)
            frame = router.stats_frame()
            stats = router.stats()
        assert stats.submitted == len(traffic)
        assert stats.answered == len(traffic)
        assert stats.failed == 0
        assert sorted(stats.lanes) == ["bulk", "deadline"]
        assert stats.lanes["deadline"].answered == 3
        assert stats.lanes["bulk"].answered == 9
        assert len(frame.latencies) == len(traffic)
        assert stats.latency is not None and stats.latency.max > 0

    def test_placement_spans_shards_and_describe_reports_it(self, checkpoint):
        with ShardRouter(n_shards=2, policy=_POLICY) as router:
            register_all(router, checkpoint, models=6)
            serve_serial(
                router, [(f"model-{i}", [i], None) for i in range(6)]
            )
            description = router.describe()
        homes = set(description["placement"].values())
        assert homes == {"shard-0", "shard-1"}
        for name, shard in description["shards"].items():
            assert shard["alive"], name
            assert shard["pid"] is not None
            assert shard["failures"] == 0
        hosted = set()
        for shard in description["shards"].values():
            hosted.update(shard["models"])
        assert hosted == {f"model-{i}" for i in range(6)}

    def test_single_shard_router_works(self, checkpoint):
        traffic = mixed_lane_traffic(n=4)
        reference = reference_answers(checkpoint, traffic)
        with ShardRouter(n_shards=1, policy=_POLICY) as router:
            register_all(router, checkpoint)
            answers = serve_serial(router, traffic)
        for expected, actual in zip(reference, answers):
            assert np.array_equal(expected.weights, actual.weights)


class TestRouterValidation:
    def test_unknown_model_fails_synchronously(self, checkpoint):
        with ShardRouter(n_shards=1, policy=_POLICY) as router:
            with pytest.raises(ValueError, match="unknown model id"):
                router.submit("ghost", [0, 1])

    @pytest.mark.parametrize(
        "ids",
        [[3.7], np.array([3.7]), [True, False]],
        ids=["list", "ndarray", "bool-mask"],
    )
    def test_float_ids_fail_synchronously(self, checkpoint, ids):
        # Casting to int64 would serve 3.7 as id 3 (and a boolean mask as
        # ids 1 and 0); the fleet itself raises TypeError, and so must
        # the router, before the pipe.
        with ShardRouter(n_shards=1, policy=_POLICY) as router:
            router.register("m", checkpoint, _DATA.features, _DATA.labels)
            with pytest.raises(TypeError, match="integer"):
                router.submit("m", ids)

    @pytest.mark.parametrize(
        "make_ids",
        [lambda: {4, 2}, lambda: (i for i in (4, 2, 4))],
        ids=["set", "generator"],
    )
    def test_id_containers_are_accepted_like_the_fleet(
        self, checkpoint, make_ids
    ):
        """Every container the fleet accepts routes too, canonicalized to
        sorted unique ids, and is answered as the fleet answers it."""
        traffic = [("model-0", [2, 4], "bulk")]
        (expected,) = reference_answers(checkpoint, traffic, models=1)
        with ShardRouter(n_shards=1, policy=_POLICY) as router:
            register_all(router, checkpoint, models=1)
            outcome = router.submit(
                "model-0", make_ids(), lane="bulk"
            ).result(timeout=60)
        assert np.array_equal(outcome.removed, [2, 4])
        assert np.array_equal(outcome.weights, expected.weights)

    @pytest.mark.parametrize(
        "make_ids",
        [lambda n: [n], lambda n: [-1], lambda n: range(n)],
        ids=["past-the-end", "negative", "every-sample"],
    )
    def test_out_of_range_ids_fail_synchronously(self, checkpoint, make_ids):
        """The router bounds-checks against the checkpoint's n_samples,
        as the fleet does: the error is raised by submit itself, and no
        shard ever hears of the model."""
        with ShardRouter(n_shards=1, policy=_POLICY) as router:
            metadata = router.register(
                "m", checkpoint, _DATA.features, _DATA.labels
            )
            with pytest.raises(ValueError, match="removal ids|every"):
                router.submit("m", make_ids(metadata.n_samples))
            assert router.describe()["shards"]["shard-0"]["models"] == []

    def test_duplicate_registration_rejected(self, checkpoint):
        with ShardRouter(n_shards=1, policy=_POLICY) as router:
            router.register("m", checkpoint, _DATA.features, _DATA.labels)
            with pytest.raises(ValueError, match="already registered"):
                router.register("m", checkpoint, _DATA.features, _DATA.labels)

    def test_commit_mode_rejected(self, checkpoint):
        with ShardRouter(n_shards=1, policy=_POLICY) as router:
            with pytest.raises(ValueError, match="commit_mode"):
                router.register(
                    "m",
                    checkpoint,
                    _DATA.features,
                    _DATA.labels,
                    commit_mode=True,
                )

    def test_missing_checkpoint_rejected_at_register(self, tmp_path):
        with ShardRouter(n_shards=1, policy=_POLICY) as router:
            with pytest.raises(FileNotFoundError):
                router.register(
                    "m", tmp_path / "nope", _DATA.features, _DATA.labels
                )

    def test_register_validates_before_any_shard_sees_it(self, checkpoint):
        with ShardRouter(n_shards=1, policy=_POLICY) as router:
            with pytest.raises(FileNotFoundError):
                router.register(
                    "m", checkpoint / "missing", _DATA.features, _DATA.labels
                )
            assert router.model_ids() == ()


class TestFailover:
    def test_kill_fails_only_victims_futures(self, checkpoint):
        """A shard crash scopes its blast radius to its own shard.

        ``crash_after_submits=3`` arms every worker, but only the victim
        shard receives three submits; the sibling's traffic — some of it
        submitted before the crash, some after — is untouched.
        """
        with ShardRouter(
            n_shards=2,
            policy=_POLICY,
            _shard_options={"crash_after_submits": 3},
        ) as router:
            register_all(router, checkpoint, models=6)
            placement = router.describe()["placement"]
            by_shard: dict[str, list[str]] = {"shard-0": [], "shard-1": []}
            for model_id, home in placement.items():
                by_shard[home].append(model_id)
            assert all(by_shard.values()), placement
            victim_model = by_shard["shard-0"][0]
            survivor_model = by_shard["shard-1"][0]

            # Warm traffic: the victim shard burns two of its three
            # allowed submits; the survivor stays under its own fuse.
            survived_early = router.submit(survivor_model, [0]).result(
                timeout=60
            )
            for i in range(2):
                router.submit(victim_model, [i]).result(timeout=60)

            # The victim worker dies while handling this submit.
            doomed = router.submit(victim_model, [7, 8])
            with pytest.raises(ShardUnavailableError) as excinfo:
                doomed.result(timeout=60)
            assert excinfo.value.shard == "shard-0"

            # The sibling shard never noticed.
            late = router.submit(survivor_model, [5]).result(timeout=60)
            assert late.model_id == survivor_model
            assert survived_early.model_id == survivor_model

    def test_failover_rehomes_and_answers_identically(self, checkpoint):
        traffic = mixed_lane_traffic()
        reference = reference_answers(checkpoint, traffic)
        with ShardRouter(n_shards=2, policy=_POLICY) as router:
            register_all(router, checkpoint)
            answers = serve_serial(router, traffic)
            for expected, actual in zip(reference, answers):
                assert np.array_equal(expected.weights, actual.weights)

            victim = router.shard_for("model-0")
            router.kill_shard(victim)
            wait_dead(router, victim)

            # model-0 walks the ring past the dead slot; the survivor
            # lazily re-registers it and answers bit-identically.
            outcome = router.submit("model-0", [0, 1]).result(timeout=60)
            assert np.array_equal(outcome.weights, reference[0].weights)
            new_home = router.shard_for("model-0")
            assert new_home != victim

            # The dead slot's breaker recorded the death.
            assert router.describe()["shards"][victim]["failures"] == 1

    def test_restart_rehomes_models_back(self, checkpoint):
        reference = reference_answers(
            checkpoint, [("model-0", [0, 1], None)]
        )[0]
        with ShardRouter(n_shards=2, policy=_POLICY) as router:
            register_all(router, checkpoint)
            home = router.shard_for("model-0")
            router.kill_shard(home)
            wait_dead(router, home)
            assert router.shard_for("model-0") != home

            router.restart_shard(home)
            assert router.shard_for("model-0") == home
            outcome = router.submit("model-0", [0, 1]).result(timeout=60)
            assert np.array_equal(outcome.weights, reference.weights)
            assert router.describe()["shards"][home]["failures"] == 0

    def test_all_shards_dead_raises_typed_error(self, checkpoint):
        with ShardRouter(n_shards=1, policy=_POLICY) as router:
            router.register("m", checkpoint, _DATA.features, _DATA.labels)
            router.submit("m", [0]).result(timeout=60)
            router.kill_shard("shard-0")
            wait_dead(router, "shard-0")
            with pytest.raises(ShardUnavailableError):
                router.submit("m", [1])

    def test_auto_restart_revives_until_quarantine(self, checkpoint):
        retry = RetryPolicy(quarantine_after=2, probe_interval_seconds=3600.0)
        with ShardRouter(
            n_shards=1, policy=_POLICY, retry=retry, auto_restart=True
        ) as router:
            router.register("m", checkpoint, _DATA.features, _DATA.labels)
            router.submit("m", [0]).result(timeout=60)

            # First death: the breaker is still closed, so the slot
            # respawns on its own and serves again.
            pid = router.describe()["shards"]["shard-0"]["pid"]
            router.kill_shard("shard-0")
            deadline = time.monotonic() + 10  # reprolint: allow[R005] real subprocess death/respawn is I/O a fake clock cannot advance
            while time.monotonic() < deadline:  # reprolint: allow[R005] real subprocess death/respawn is I/O a fake clock cannot advance
                shard = router.describe()["shards"]["shard-0"]
                if shard["alive"] and shard["pid"] != pid:
                    break
                time.sleep(0.02)  # reprolint: allow[R005] real subprocess death/respawn is I/O a fake clock cannot advance
            outcome = router.submit("m", [1]).result(timeout=60)
            assert outcome.model_id == "m"
            # A served answer is the breaker's health evidence.
            assert router.describe()["shards"]["shard-0"]["failures"] == 0

            # Two deaths in a row with no served reply between them open
            # the breaker: no respawn, submits fast-fail.
            for n_failures in range(1, retry.quarantine_after + 1):
                deadline = time.monotonic() + 10  # reprolint: allow[R005] real subprocess death/respawn is I/O a fake clock cannot advance
                while time.monotonic() < deadline:  # reprolint: allow[R005] real subprocess death/respawn is I/O a fake clock cannot advance
                    shard = router.describe()["shards"]["shard-0"]
                    if shard["failures"] >= n_failures:
                        break  # this death has been recorded
                    if shard["alive"]:
                        router.kill_shard("shard-0")
                    time.sleep(0.02)  # reprolint: allow[R005] real subprocess death/respawn is I/O a fake clock cannot advance
            description = router.describe()["shards"]["shard-0"]
            assert description["failures"] >= retry.quarantine_after
            assert description["quarantined"]
            with pytest.raises(ShardUnavailableError):
                router.submit("m", [2])


class TestShardFrames:
    """A bad pipe frame never kills a shard: the loop runs in-process
    over a real ``multiprocessing.Pipe`` and must answer ``ping`` after
    every malformed frame."""

    @pytest.fixture
    def shard(self):
        router_end, shard_end = multiprocessing.Pipe(duplex=True)
        loop = _ShardLoop(shard_end, "shard-test", {"policy": _POLICY})
        thread = threading.Thread(target=loop.run, daemon=True)
        thread.start()
        assert self.reply(router_end)[0] == "hello"
        yield router_end
        router_end.send(("shutdown", 0))
        assert self.reply(router_end) == ("ok", 0, None)
        thread.join(timeout=10)
        assert not thread.is_alive()
        router_end.close()

    @staticmethod
    def reply(conn):
        assert conn.poll(10), "the shard stopped answering"
        return conn.recv()

    @pytest.mark.parametrize(
        "frame",
        [42, ("stats",), ("submit",), ["ping", 5]],
        ids=["bare-int", "stats-without-id", "submit-without-id", "list"],
    )
    def test_frame_that_is_not_an_id_tuple_is_dropped(self, shard, frame):
        shard.send(frame)
        shard.send(("ping", 99))
        assert self.reply(shard) == ("ok", 99, os.getpid())

    @pytest.mark.parametrize(
        "frame",
        [
            ("warm", 7, "plan.npz", True),
            ("submit", 7),
            ("bogus", 7),
            (None, 7),
        ],
        ids=["removed-warm", "wrong-arity", "unknown-kind", "non-string-kind"],
    )
    def test_frame_with_request_id_gets_a_typed_error(self, shard, frame):
        shard.send(frame)
        kind, req_id, error = self.reply(shard)
        assert (kind, req_id) == ("err", 7)
        assert isinstance(error, ServingError)
        shard.send(("ping", 99))
        assert self.reply(shard) == ("ok", 99, os.getpid())


class _PipeOnlyContext:
    """A ``multiprocessing`` context whose processes never start: the
    test speaks the worker's end of each real pipe itself."""

    def __init__(self):
        self.worker_ends = []

    def Pipe(self, duplex=True):
        router_end, worker_end = multiprocessing.Pipe(duplex=duplex)
        self.worker_ends.append(worker_end)
        return router_end, _KeptOpen()

    @staticmethod
    def Process(**kwargs):
        return _InertProcess()


class _KeptOpen:
    """Stands in for the child end the router closes after a spawn."""

    def close(self):
        pass


class _InertProcess:
    pid = None
    killed = False

    def start(self):
        pass

    def is_alive(self):
        return False

    def join(self, timeout=None):
        pass

    def kill(self):
        self.killed = True


class TestReplyFrames:
    """A reply frame the router cannot trust ends that shard's
    connection like EOF: the in-flight request fails with a typed error
    instead of waiting forever behind a dead receiver thread, and the
    worker is killed."""

    @pytest.mark.parametrize(
        "send",
        [
            lambda conn, req_id: conn.send_bytes(b"\x80\x05not a pickle"),
            lambda conn, req_id: conn.send(42),
            lambda conn, req_id: conn.send(("bogus", req_id, None)),
            lambda conn, req_id: conn.send(("ok", req_id)),
            lambda conn, req_id: conn.send(("err", req_id, "not raised")),
        ],
        ids=["undecodable", "non-tuple", "unknown-kind", "wrong-arity",
             "err-without-exception"],
    )
    def test_bad_frame_fails_the_in_flight_request(self, send):
        context = _PipeOnlyContext()
        router = ShardRouter(n_shards=1, mp_context=context)
        try:
            worker = context.worker_ends[0]
            worker.send(("hello", "shard-0", 0))
            slot = router._slots[0]
            future = router._call(slot, "ping")
            assert worker.recv()[0] == "ping"
            (req_id,) = slot.inflight
            send(worker, req_id)
            error = future.exception(timeout=10)
            assert isinstance(error, ShardUnavailableError)
            assert error.shard == "shard-0"
            assert not router.describe()["shards"]["shard-0"]["alive"]
            assert slot.process.killed
            with pytest.raises(ShardUnavailableError):
                router._call(slot, "ping")
        finally:
            router.close()


class TestShardUnavailableError:
    def test_pickles_with_attributes(self):
        error = ShardUnavailableError("shard-3", "pipe write failed")
        clone = pickle.loads(pickle.dumps(error))
        assert clone.shard == "shard-3"
        assert clone.reason == "pipe write failed"
        assert "shard-3" in str(clone)
