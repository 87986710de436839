"""The cost model at the serving layer: estimates and retirement.

The core estimator's accuracy is property-tested in
``tests/core/test_cost_model.py``; this file covers what the serving
layer does with it:

* **Decides nothing** — a trainer's cost model leaves dispatch alone
  (a lone bulk request still waits its full budget, a mixed-lane batch
  still leaves at its earliest member deadline) and commits the same
  answers as a bare trainer, one logged decision per committed batch.

* **Estimate coverage** — every member of a served batch on a
  cost-model trainer carries the batch union's pre-dispatch estimate
  (``ServedOutcome.predicted``).

* **Maintenance-aware eviction** — :meth:`repro.ModelRegistry.retire`
  refuses non-resident / live / pinned models, evicts clean residents,
  and for a dirty commit model reclaims due maintenance debt,
  re-checkpoints, and evicts — after which a reload answers from the
  committed state.

* **Stress** — the :class:`harness.StressDriver` ``cost`` op under
  fixed seeds: subset/superset estimates stay monotone, invariant I5
  (estimate coverage) holds, retire fires mid-traffic, and every
  stateless answer still matches direct serving at atol 1e-10.
"""

import numpy as np
import pytest

from harness import FakeClock, StressDriver
from repro import (
    AdmissionPolicy,
    CostModel,
    DeletionServer,
    FleetServer,
    IncrementalTrainer,
    Lane,
    MaintenancePolicy,
    ModelRegistry,
)
from repro.core.serialization import read_checkpoint_metadata
from repro.datasets import make_binary_classification, make_regression

_BINARY = make_binary_classification(400, 10, separation=1.0, seed=81)
_BINARY_B = make_binary_classification(320, 8, separation=1.2, seed=82)
_LINEAR = make_regression(360, 6, noise=0.05, seed=83)

#: Tight limits, so commit churn on an SVD model makes maintenance due
#: once a summary is widened past its rank bound by more than 4 columns.
RETIRE_POLICY = MaintenancePolicy(max_svd_correction_columns=4)


def fit_model(kind: str, **extra) -> IncrementalTrainer:
    """Deterministic fits: two calls with the same kind are bit-identical."""
    if kind == "binary":
        trainer = IncrementalTrainer(
            "binary_logistic",
            learning_rate=0.1,
            regularization=0.01,
            batch_size=40,
            n_iterations=50,
            seed=0,
            method="priu",
            **extra,
        )
        trainer.fit(_BINARY.features, _BINARY.labels)
    elif kind == "binary-b":
        trainer = IncrementalTrainer(
            "binary_logistic",
            learning_rate=0.08,
            regularization=0.02,
            batch_size=32,
            n_iterations=45,
            seed=2,
            method="priu",
            **extra,
        )
        trainer.fit(_BINARY_B.features, _BINARY_B.labels)
    elif kind == "linear":
        trainer = IncrementalTrainer(
            "linear",
            learning_rate=0.05,
            regularization=0.01,
            batch_size=36,
            n_iterations=40,
            seed=1,
            method="priu",
            **extra,
        )
        trainer.fit(_LINEAR.features, _LINEAR.labels)
    else:  # pragma: no cover - test bug
        raise ValueError(kind)
    return trainer


def fit_svd_model(**extra) -> IncrementalTrainer:
    """A deterministic SVD-compressed fit (n_params > batch_size).

    Commit refreshes on this config append correction columns to the
    truncated summaries — the maintenance debt the retire test needs a
    model to actually accrue (dense uncompressed refreshes compact
    physically and never owe anything).
    """
    trainer = IncrementalTrainer(
        "binary_logistic",
        learning_rate=0.1,
        regularization=0.01,
        batch_size=8,
        n_iterations=50,
        seed=0,
        method="priu",
        **extra,
    )
    trainer.fit(_BINARY.features, _BINARY.labels)
    return trainer


def _submission_plan(seed: int, n: int, initial_bound: int, max_ids: int = 3):
    """A deterministic commit-traffic plan: the ids of each request.

    Ids are drawn against a conservative shrinking bound so the same
    plan is valid in the post-commit id space however batches partition.
    """
    rng = np.random.default_rng(seed)
    bound = initial_bound
    plan = []
    for _ in range(n):
        k = int(rng.integers(1, max_ids + 1))
        if bound <= k + 1:
            break
        ids = np.sort(rng.choice(bound, size=k, replace=False)).astype(
            np.int64
        )
        bound -= k
        plan.append(ids)
    return plan


# ------------------------------------------------------ dispatch unchanged
class TestAttachedModelDecidesNothing:
    """A trainer's cost model prices each served batch and changes
    neither when the batch leaves nor what it answers."""

    def test_lone_bulk_request_waits_its_full_budget(self):
        trainer = fit_model("binary", cost_model=CostModel())
        server = DeletionServer(
            trainer,
            AdmissionPolicy(max_batch=16, max_delay_seconds=0.03),
            method="priu",
            autostart=True,
            clock=FakeClock(),
        )
        outcome = server.resolve([3, 7], lane="bulk", timeout=30)
        server.close()
        assert outcome.wait_seconds == 0.03
        assert outcome.predicted is not None

    def test_mixed_lanes_leave_at_the_first_member_deadline(self):
        policy = AdmissionPolicy(
            max_batch=16,
            max_delay_seconds=0.01,
            lanes=(
                Lane("bulk", max_delay_seconds=0.03, priority=10),
                Lane("fast", max_delay_seconds=0.02, priority=5),
            ),
            default_lane="bulk",
        )
        clock = FakeClock()
        server = DeletionServer(
            fit_model("binary", cost_model=CostModel()),
            policy,
            method="priu",
            autostart=False,
            clock=clock,
        )
        bulk = server.submit([3, 7], lane="bulk")
        clock.advance(0.025)
        fast = server.submit([11], lane="fast")
        server.start()
        assert server.flush(timeout=30)
        server.close()
        assert bulk.result(timeout=30).wait_seconds == 0.03
        assert fast.result(timeout=30).wait_seconds == pytest.approx(0.005)

    def test_committed_answers_match_a_bare_trainer(self):
        plan = _submission_plan(
            seed=92, n=12, initial_bound=_BINARY_B.features.shape[0]
        )
        runs = {}
        for name, model in (("bare", None), ("priced", CostModel())):
            trainer = fit_model("binary-b", cost_model=model)
            server = DeletionServer(
                trainer,
                AdmissionPolicy(max_batch=4, max_delay_seconds=0.02),
                method="priu",
                commit_mode=True,
                autostart=False,
                clock=FakeClock(),
            )
            futures = [server.submit(ids, lane="bulk") for ids in plan]
            server.start()
            assert server.flush(timeout=30)
            server.close()
            runs[name] = (trainer, [f.result(timeout=30) for f in futures])
        (bare, expected), (priced, served) = runs["bare"], runs["priced"]
        for i, (outcome, reference) in enumerate(zip(served, expected)):
            assert np.array_equal(outcome.weights, reference.weights), i
            assert outcome.batch_seq == reference.batch_seq, i
        assert np.array_equal(priced.result.weights, bare.result.weights)
        n_batches = len({o.batch_seq for o in served})
        assert len(priced.cost_model.decisions()) == n_batches


# -------------------------------------------------------- estimate coverage
class TestPredictedEstimates:
    """Every served batch on a cost-model trainer carries its estimate."""

    def test_outcomes_share_the_batch_union_estimate(self):
        trainer = fit_model("binary", cost_model=CostModel())
        server = DeletionServer(
            trainer,
            AdmissionPolicy(max_batch=8, max_delay_seconds=0.02),
            method="priu",
            autostart=False,
            clock=FakeClock(),
        )
        futures = [
            server.submit(ids, lane="bulk")
            for ids in ([1, 5], [5, 9], [200])
        ]
        server.start()
        assert server.flush(timeout=30)
        server.close()
        outcomes = [future.result(timeout=30) for future in futures]
        assert all(o.batch_size == 3 for o in outcomes)
        predicted = outcomes[0].predicted
        assert predicted is not None
        # One estimate per batch, shared by every member, priced on the
        # union of their removal sets ({1, 5, 9, 200}).
        assert all(o.predicted is predicted for o in outcomes)
        assert predicted["n_removed"] == 4
        assert predicted["mode"] == "refresh"
        assert predicted["plan_patch_bytes"] > 0

    def test_no_cost_model_means_no_estimate(self):
        trainer = fit_model("binary")
        server = DeletionServer(
            trainer, method="priu", autostart=True, clock=FakeClock()
        )
        outcome = server.resolve([2, 4], timeout=30)
        server.close()
        assert outcome.predicted is None


# ------------------------------------------------ maintenance-aware retire
@pytest.fixture()
def checkpoint(tmp_path):
    directory = tmp_path / "ckpt"
    fit_model("binary").save_checkpoint(directory)
    return directory


class TestRetire:
    """``ModelRegistry.retire``: reclaim, checkpoint, then drop."""

    def _registry(self, checkpoint, **register_kwargs) -> ModelRegistry:
        registry = ModelRegistry()
        registry.register(
            "m",
            checkpoint=checkpoint,
            features=_BINARY.features,
            labels=_BINARY.labels,
            method="priu",
            **register_kwargs,
        )
        return registry

    def test_refuses_non_resident_and_unknown(self, checkpoint):
        registry = self._registry(checkpoint)
        assert registry.retire("m") is False  # never loaded
        with pytest.raises(ValueError, match="unknown model id"):
            registry.retire("ghost")

    def test_refuses_live_trainer_registrations(self):
        registry = ModelRegistry()
        registry.register("live", trainer=fit_model("binary"))
        # Resident but non-evictable: there is nothing to reload it from.
        assert registry.retire("live") is False
        assert registry.resident_trainer("live") is not None

    def test_refuses_pinned_models(self, checkpoint):
        registry = self._registry(checkpoint)
        registry.get("m")
        with registry.pinned("m"):
            assert registry.retire("m") is False
        assert registry.retire("m") is True

    def test_evicts_clean_resident(self, checkpoint):
        registry = self._registry(checkpoint)
        before = read_checkpoint_metadata(checkpoint)
        written = before.store_path.stat()
        registry.get("m")
        assert registry.dirty_ids() == ()
        assert registry.retire("m") is True
        assert registry.resident_trainer("m") is None
        # Clean: nothing was rewritten.
        assert read_checkpoint_metadata(checkpoint) == before
        after = before.store_path.stat()
        assert (after.st_ino, after.st_mtime_ns) == (
            written.st_ino,
            written.st_mtime_ns,
        )

    def test_retired_model_reloads_on_its_next_submit(self, checkpoint):
        registry = self._registry(checkpoint)
        fleet = FleetServer(
            registry,
            AdmissionPolicy(max_batch=4, max_delay_seconds=0.01),
            method="priu",
            n_workers=1,
            clock=FakeClock(),
        )
        before = fleet.submit("m", [1, 2]).result(timeout=30)
        assert fleet.flush(timeout=30)
        counters = registry.stats()
        assert registry.retire("m", policy=MaintenancePolicy()) is True
        assert registry.stats()["evictions"] == counters["evictions"] + 1
        assert registry.resident_trainer("m") is None
        after = fleet.submit("m", [1, 2]).result(timeout=30)
        fleet.close()
        assert registry.stats()["loads"] == counters["loads"] + 1
        assert np.array_equal(after.weights, before.weights)

    def test_dirty_commit_model_maintains_saves_and_evicts(self, checkpoint):
        """The full retire path: commit traffic dirties the model and
        accrues maintenance debt; retire reclaims the debt (the derived
        policy stops being due), rewrites the checkpoint, evicts, and a
        reload answers from the committed state."""
        cost_model = CostModel()
        checkpoint = checkpoint.parent / "svd-ckpt"
        fit_svd_model().save_checkpoint(checkpoint)
        registry = self._registry(checkpoint, cost_model=cost_model)
        fleet = FleetServer(
            registry,
            AdmissionPolicy(max_batch=4, max_delay_seconds=0.01),
            method="priu",
            n_workers=1,
            clock=FakeClock(),
            autostart=True,
        )
        fleet.configure_model("m", commit_mode=True)
        policy = RETIRE_POLICY
        trainer = None
        committed = []
        rng = np.random.default_rng(7)
        # The B=8, m=10 summaries are at most 8 wide; an answer-preserving
        # pass is due only once one is widened past 8 + 4 columns.
        for _ in range(80):
            bound = registry.n_samples("m")
            ids = np.sort(rng.choice(bound, size=3, replace=False)).astype(
                np.int64
            )
            fleet.submit("m", ids).result(timeout=30)
            committed.append(ids)
            trainer = registry.resident_trainer("m")
            if policy.due(trainer.maintenance_cost(include_bytes=False)):
                break
        else:  # pragma: no cover - calibration regression
            pytest.fail("commit churn never made maintenance due")
        assert fleet.flush(timeout=30)
        assert "m" in registry.dirty_ids()
        on_disk = read_checkpoint_metadata(checkpoint)
        assert on_disk.n_original_samples is None  # the pre-commit archive

        assert registry.retire("m", policy=policy) is True
        fleet.close()
        # The debt was reclaimed on the way out, the checkpoint rewritten,
        # and the model dropped.
        assert not policy.due(trainer.maintenance_cost(include_bytes=False))
        assert registry.resident_trainer("m") is None
        assert registry.dirty_ids() == ()
        rewritten = read_checkpoint_metadata(checkpoint)
        assert rewritten.n_samples == trainer.n_samples
        assert rewritten.n_original_samples == on_disk.n_samples

        # A reload serves the committed state: same answers as replaying
        # the same committed sequence on a fresh reference trainer.
        reloaded = registry.get("m")
        reference = fit_svd_model()
        for ids in committed:
            reference.commit(reference.remove(ids, method="priu"))
        assert reloaded.n_samples == reference.n_samples
        np.testing.assert_allclose(
            reloaded.weights_, reference.weights_, atol=1e-10, rtol=0.0
        )
        probe = np.array([0, 11], dtype=np.int64)
        np.testing.assert_allclose(
            reloaded.remove(probe, method="priu").weights,
            reference.remove(probe, method="priu").weights,
            atol=1e-10,
            rtol=0.0,
        )

    def test_failed_save_keeps_the_model_resident(self, checkpoint):
        """A dirty model whose checkpoint write fails stays resident and
        dirty — retire reports False instead of dropping committed state."""
        registry = self._registry(checkpoint)
        trainer = registry.get("m")
        trainer.commit(trainer.remove([3, 5], method="priu"))
        assert "m" in registry.dirty_ids()
        # Sabotage the rewrite: shadow the archive with a directory, so
        # the crash-atomic temp+rename in save_checkpoint cannot land.
        import shutil

        shutil.rmtree(checkpoint)
        (checkpoint / "store.npz").mkdir(parents=True)
        assert registry.retire("m") is False
        assert registry.resident_trainer("m") is trainer
        assert "m" in registry.dirty_ids()


# ------------------------------------------------------------------- stress
STRESS_SEEDS = (607, 811)


@pytest.fixture(scope="module")
def cost_checkpoint(tmp_path_factory):
    """A saved checkpoint for the model the cost op may retire and reload."""
    directory = tmp_path_factory.mktemp("cost") / "ckpt"
    fit_model("binary").save_checkpoint(directory)
    return directory


@pytest.mark.parametrize("seed", STRESS_SEEDS)
def test_stress_cost_op_and_estimate_coverage(seed, cost_checkpoint):
    """Randomized traffic with the ``cost`` op enabled: subset/superset
    estimates stay monotone, every served batch on a cost model carries
    its estimate (invariant I5), maintenance-aware retirement runs
    mid-traffic, and stateless answers still match direct serving."""
    shared = CostModel()  # survives retire/reload via the spec's load_kwargs
    registry = ModelRegistry()
    registry.register(
        "cost-bin",
        checkpoint=cost_checkpoint,
        features=_BINARY.features,
        labels=_BINARY.labels,
        method="priu",
        cost_model=shared,
    )
    live = {
        "cost-lin": fit_model("linear", cost_model=CostModel()),
        "cost-commit": fit_model("binary-b", cost_model=CostModel()),
    }
    for model_id, trainer in live.items():
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
    fleet.configure_model("cost-commit", commit_mode=True)
    fleet.start()
    driver = StressDriver(
        fleet,
        model_ids=["cost-bin", "cost-lin", "cost-commit"],
        n_samples={
            "cost-bin": _BINARY.features.shape[0],
            "cost-lin": live["cost-lin"].n_samples,
            "cost-commit": live["cost-commit"].n_samples,
        },
        commit_models={"cost-commit"},
        lanes=("bulk", "deadline"),
        seed=seed,
        clock=clock,
        cost_models={"cost-bin", "cost-lin", "cost-commit"},
    )
    report = driver.run(n_ops=300)

    # The cost op genuinely fired: estimates were taken and checked.
    assert report.cost_estimates > 0

    # Every successfully answered request is still correct against direct
    # serving (retire/reload on cost-bin changes nothing).
    reference = {
        "cost-bin": fit_model("binary"),
        "cost-lin": live["cost-lin"],
    }
    for submitted in report.served():
        if submitted.model_id == "cost-commit":
            continue
        outcome = submitted.future.result()
        expected = reference[submitted.model_id].remove(
            submitted.ids, method="priu"
        )
        np.testing.assert_allclose(
            outcome.weights, expected.weights, atol=1e-10, rtol=0.0,
            err_msg=f"seed {seed}: {submitted.model_id} {submitted.ids}",
        )


def test_stress_retire_fires_on_checkpoint_backed_cost_model(cost_checkpoint):
    """At least one seed's run retires the evictable cost model mid-run
    (live-trainer registrations always refuse, so only cost-bin counts)."""
    total_retired = 0
    for seed in STRESS_SEEDS:
        registry = ModelRegistry()
        registry.register(
            "cost-bin",
            checkpoint=cost_checkpoint,
            features=_BINARY.features,
            labels=_BINARY.labels,
            method="priu",
            cost_model=CostModel(),
        )
        clock = FakeClock()
        fleet = FleetServer(
            registry,
            AdmissionPolicy(max_batch=4, max_delay_seconds=0.02, max_pending=8),
            method="priu",
            n_workers=1,
            clock=clock,
            autostart=True,
        )
        driver = StressDriver(
            fleet,
            model_ids=["cost-bin"],
            n_samples={"cost-bin": _BINARY.features.shape[0]},
            seed=seed,
            clock=clock,
            cost_models={"cost-bin"},
        )
        report = driver.run(n_ops=200)
        total_retired += report.retired
    assert total_retired > 0


def test_cost_models_must_not_overlap_maintain_models():
    trainer = fit_model("binary")
    registry = ModelRegistry()
    registry.register("m", trainer=trainer)
    fleet = FleetServer(registry, autostart=False)
    with pytest.raises(ValueError, match="disjoint"):
        StressDriver(
            fleet,
            model_ids=["m"],
            n_samples={"m": trainer.n_samples},
            maintain_models={"m"},
            cost_models={"m"},
        )
    fleet.close()
