"""Cost-driven scheduling at the serving layer: estimate, then admit.

The core estimator's accuracy is property-tested in
``tests/core/test_cost_model.py``; this file proves the *scheduling*
half of the cost model's contract:

* **Answer preservation** — a server whose
  :class:`repro.AdmissionPolicy` closes batches early answers every
  request within atol 1e-10 of the fixed-budget reference server.

* **Early closing** — a calibrated policy-level cost model dispatches a
  lone bulk request immediately (wait exactly 0.0 under the
  :class:`harness.FakeClock`) where the fixed budget would hold it the
  full coalescing delay; an *uncalibrated* model changes nothing.  The
  fleet scheduler's ``cost_ready`` wakeup path makes that call.

* **Estimate coverage** — every member of a served batch on a
  cost-model trainer carries the batch union's pre-dispatch estimate
  (``ServedOutcome.predicted``), and served batches feed the online
  batch-time calibration.

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
    Calibration,
    CostModel,
    DeletionServer,
    FleetServer,
    IncrementalTrainer,
    MaintenancePolicy,
    ModelRegistry,
)
from repro.datasets import make_binary_classification, make_regression

_BINARY = make_binary_classification(400, 10, separation=1.0, seed=81)
_BINARY_B = make_binary_classification(320, 8, separation=1.2, seed=82)
_LINEAR = make_regression(360, 6, noise=0.05, seed=83)

#: Tight limits, so a few commits on an SVD model make maintenance due.
RETIRE_POLICY = MaintenancePolicy(
    max_slot_garbage_fraction=0.05, max_svd_correction_columns=4
)


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
    plan is valid no matter how the serving side partitions batches.
    Everything rides the ``bulk`` lane: with one lane, admission order
    equals submission order for *any* batch partitioning, so two
    servers that close batches differently must still commit
    identically.
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


def _serve_plan(server: DeletionServer, plan, advance=None):
    """Feed a plan through a server; start it after queuing if not started."""
    futures = []
    for ids in plan:
        futures.append(server.submit(ids, lane="bulk"))
        if advance is not None:
            advance()
    server.start()
    assert server.flush(timeout=30)
    server.close()
    return [future.result(timeout=30) for future in futures]


# ------------------------------------------------------- answer preservation
class TestAnswerPreservation:
    """Cost-driven decisions re-route execution, never the answer."""

    def test_early_closing_preserves_answers(self):
        """A policy-level cost model that always closes early re-partitions
        batches (different ``remove_many`` groupings); every counterfactual
        answer still matches the fixed-budget reference at atol 1e-10."""
        plan = _submission_plan(
            seed=92, n=24, initial_bound=_BINARY_B.features.shape[0]
        )
        # A tiny predicted batch time: the marginal coalescing saving
        # always loses to the remaining wait, so every batch closes the
        # moment it has one member (later sweeps still ride for free).
        eager = CostModel(Calibration(batch_seconds=1e-9))
        runs = {}
        for name, policy in (
            ("reference", AdmissionPolicy(max_batch=4, max_delay_seconds=0.02)),
            (
                "eager",
                AdmissionPolicy(
                    max_batch=4, max_delay_seconds=0.02, cost_model=eager
                ),
            ),
        ):
            clock = FakeClock()
            server = DeletionServer(
                fit_model("binary-b"),
                policy,
                method="priu",
                autostart=True,
                clock=clock,
            )
            runs[name] = _serve_plan(
                server, plan, advance=lambda c=clock: c.advance(0.003)
            )
        for i, (outcome, expected) in enumerate(
            zip(runs["eager"], runs["reference"])
        ):
            np.testing.assert_allclose(
                outcome.weights, expected.weights, atol=1e-10, rtol=0.0,
                err_msg=f"early-closing request {i} diverged",
            )
            assert np.array_equal(outcome.removed, expected.removed)
        # (That the eager policy really does dispatch without waiting is
        # proved deterministically in TestEarlyClosing — here the batch
        # interleaving races the submitter, so only answers are compared.)


# ------------------------------------------------------------ early closing
class TestEarlyClosing:
    """Calibrated batch time turns 'wait out the budget' into 'go now'."""

    def _lone_bulk_wait(self, policy: AdmissionPolicy) -> float:
        trainer = fit_model("binary")
        server = DeletionServer(
            trainer, policy, method="priu", autostart=True, clock=FakeClock()
        )
        outcome = server.resolve([3, 7], lane="bulk", timeout=30)
        server.close()
        return outcome.wait_seconds

    def test_calibrated_server_dispatches_lone_bulk_immediately(self):
        policy = AdmissionPolicy(
            max_batch=16,
            max_delay_seconds=0.03,
            cost_model=CostModel(Calibration(batch_seconds=1e-9)),
        )
        assert self._lone_bulk_wait(policy) == 0.0

    def test_uncalibrated_model_keeps_the_fixed_budget(self):
        """batch_seconds == 0 means unknown: early closing stays off, the
        lone bulk request waits out the full coalescing delay."""
        policy = AdmissionPolicy(
            max_batch=16,
            max_delay_seconds=0.03,
            cost_model=CostModel(),
        )
        assert self._lone_bulk_wait(policy) == 0.03


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

    def test_served_batches_feed_online_batch_calibration(self):
        """Real clock: one dispatch seeds batch_seconds from its measured
        service time, flipping the calibration source to 'online'."""
        cost_model = CostModel()
        assert cost_model.calibration.batch_seconds == 0.0
        trainer = fit_model("binary", cost_model=cost_model)
        server = DeletionServer(trainer, method="priu", autostart=True)
        server.resolve([2, 4], timeout=30)
        server.close()
        calibration = cost_model.calibration
        assert calibration.batch_seconds > 0.0
        assert calibration.source == "online"


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
        registry.get("m")
        assert registry.retire("m") is True
        assert registry.resident_trainer("m") is None
        assert registry.epoch("m") == 0  # clean: nothing was rewritten

    def test_dirty_commit_model_maintains_saves_and_evicts(self, checkpoint):
        """The full retire path: commit traffic dirties the model and
        accrues maintenance debt; retire reclaims the debt (the derived
        policy stops being due), bumps the checkpoint epoch, evicts, and
        a reload answers from the committed state."""
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
        for _ in range(40):
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
        epoch_before = registry.epoch("m")

        assert registry.retire("m", policy=policy) is True
        fleet.close()
        # The debt was reclaimed on the way out, the checkpoint rewritten,
        # and the model dropped.
        assert not policy.due(trainer.maintenance_cost(include_bytes=False))
        assert registry.resident_trainer("m") is None
        assert registry.epoch("m") == epoch_before + 1

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
        AdmissionPolicy(
            max_batch=4,
            max_delay_seconds=0.02,
            max_pending=8,
            cost_model=CostModel(),
        ),
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
