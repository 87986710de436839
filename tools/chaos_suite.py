#!/usr/bin/env python
"""Seeded chaos suite: randomized fleet traffic under injected faults.

CI entry point for the fault-injection harness.  Each seed drives the
real :class:`~repro.serving.FleetServer` through a few hundred random
operations — submits across lanes, commits, cancels, clock advances and
*chaos ops* (evict a checkpoint-backed model, arm injected load
failures) — on the test suite's :class:`FakeClock`, so every retry
backoff and quarantine probe interval elapses in zero wall time.  After
the run the serving invariants are checked (pending conservation,
quarantine accounting, per-lane stats) and every successfully answered
request is compared bit-for-bit against direct single-model serving.

Prints one ``PASS``/``FAIL`` line per seed and exits nonzero if any
seed fails, carrying the seed and the full operation trace so the
failure replays exactly.  A fleet seed's ``PASS`` line counts what ran,
including ``early=`` — batches that left before their budget because no
batch-mate was expected — so the run shows that rule firing under the
injected faults::

    python tools/chaos_suite.py             # default seed set
    python tools/chaos_suite.py --seeds 11,23 --ops 400
"""

import argparse
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests" / "serving"))

import numpy as np  # noqa: E402

from harness import FakeClock, StressDriver  # noqa: E402
from repro.testing.races import LockMonitor, debug_guards  # noqa: E402
from repro import (  # noqa: E402
    AdmissionPolicy,
    CostModel,
    FleetServer,
    IncrementalTrainer,
    ModelRegistry,
)
from repro.datasets import (  # noqa: E402
    make_binary_classification,
    make_regression,
)
from repro.serving import RetryPolicy, ShardUnavailableError  # noqa: E402
from repro import ShardRouter  # noqa: E402
from repro.testing import FlakyLoader  # noqa: E402

DEFAULT_SEEDS = (11, 23, 37, 41, 53, 61, 79, 97)
# Seeds that additionally run the cost-model op mix: the chaos model gets
# a CostModel attached, the driver rolls `cost` ops, and the op's retire
# branch exercises maintenance-aware eviction while load faults are armed.
COST_SEEDS = (127, 139)
# Seeds that chaos the cross-process tier instead: random traffic over a
# real ShardRouter while shards are SIGKILLed and restarted mid-batch.
# Every answered request must match direct serving; every failed one
# must carry the typed ShardUnavailableError (a kill's blast radius is
# its own shard's in-flight futures, nothing else).  These run real
# subprocesses, so the fake clock and the lock instrumentation (both
# in-process tools) do not apply.
ROUTER_SEEDS = (151, 163)

_BINARY = make_binary_classification(400, 10, separation=1.0, seed=21)
_BINARY_B = make_binary_classification(320, 8, separation=1.2, seed=22)
_LINEAR = make_regression(360, 6, noise=0.05, seed=23)


def fit_model(kind):
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
        )
        trainer.fit(_LINEAR.features, _LINEAR.labels)
    else:
        raise ValueError(kind)
    return trainer


def run_seed(seed, n_ops, checkpoint, cost=False, instrument=False):
    """One chaos run; returns a short per-seed stats summary string.

    With ``instrument=True`` the whole run executes under the race
    detector: every lock the serving stack constructs is wrapped in an
    :class:`~repro.testing.races.InstrumentedLock` (acquisition-order
    cycle detection, invariant I6) and ``GuardedBy`` debug asserts are
    live, at unchanged op distribution — seeded traces replay exactly.
    """
    if instrument:
        monitor = LockMonitor()
        with monitor.capture(), debug_guards():
            summary = _run_seed(seed, n_ops, checkpoint, cost, monitor)
        locks = len(monitor.report()["locks"])
        edges = len(monitor.edges())
        return f"{summary} locks={locks} order_edges={edges}"
    return _run_seed(seed, n_ops, checkpoint, cost, None)


def _run_seed(seed, n_ops, checkpoint, cost, monitor):
    flaky = FlakyLoader()
    registry = ModelRegistry(loader=flaky)
    extra = {"cost_model": CostModel()} if cost else {}
    registry.register(
        "chaos-bin",
        checkpoint=checkpoint,
        features=_BINARY.features,
        labels=_BINARY.labels,
        **extra,
    )
    live = {
        "stress-lin": fit_model("linear"),
        "stress-commit": fit_model("binary-b"),
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
        retry=RetryPolicy(
            load_attempts=2,
            backoff_seconds=0.01,
            quarantine_after=2,
            probe_interval_seconds=0.5,
        ),
        autostart=False,
    )
    fleet.configure_model("stress-commit", commit_mode=True)
    if monitor is not None:
        monitor.label(registry, "ModelRegistry")
        monitor.label(fleet, "FleetServer")
    fleet.start()
    driver = StressDriver(
        fleet,
        model_ids=["chaos-bin", "stress-lin", "stress-commit"],
        n_samples={
            "chaos-bin": _BINARY.features.shape[0],
            "stress-lin": live["stress-lin"].n_samples,
            "stress-commit": live["stress-commit"].n_samples,
        },
        commit_models={"stress-commit"},
        lanes=("bulk", "deadline"),
        seed=seed,
        clock=clock,
        flaky=flaky,
        chaos_models={"chaos-bin"},
        cost_models={"chaos-bin"} if cost else (),
        monitor=monitor,
    )
    report = driver.run(n_ops=n_ops)  # closes the fleet + checks invariants

    if report.load_faults == 0:
        raise AssertionError(
            f"seed {seed}: no load faults armed — chaos op never rolled"
        )
    if cost and report.cost_estimates == 0:
        raise AssertionError(
            f"seed {seed}: cost op never produced an estimate"
        )
    if cost and report.retired == 0:
        raise AssertionError(
            f"seed {seed}: cost-op retire never fired"
        )
    for model_id in live:
        failed = fleet.stats(model_id).failed
        if failed:
            raise AssertionError(
                f"seed {seed}: injected faults leaked onto healthy model "
                f"{model_id!r} ({failed} failed)"
            )

    reference = {
        "chaos-bin": fit_model("binary"),
        "stress-lin": live["stress-lin"],
    }
    checked = 0
    for submitted in report.served():
        if submitted.model_id == "stress-commit":
            continue
        outcome = submitted.future.result()
        expected = reference[submitted.model_id].remove(
            submitted.ids, method="priu"
        )
        np.testing.assert_allclose(
            outcome.weights, expected.weights, atol=1e-10, rtol=0.0,
            err_msg=f"seed {seed}: {submitted.model_id} {submitted.ids}",
        )
        checked += 1

    stats = fleet.stats()
    summary = (
        f"answered={stats.answered} failed={stats.failed} "
        f"quarantined={stats.quarantined} early={stats.early_batches} "
        f"load_faults={report.load_faults} "
        f"fired={flaky.failures} verified={checked}"
    )
    if cost:
        summary += (
            f" cost_estimates={report.cost_estimates}"
            f" retired={report.retired}"
        )
    return summary


def run_router_seed(seed, n_ops, checkpoint):
    """One shard-kill chaos run over the cross-process router.

    The op mix: mostly submits across three models and both lanes, with
    SIGKILLs of a random shard and restarts sprinkled in.  No settling
    between ops — kills land while batches are in flight.  Afterwards
    every future must have resolved: answered requests match direct
    single-model serving (the re-homed survivors prove failover serves
    the same bits), failures carry ShardUnavailableError and nothing
    else, and the two tallies account for every submission.
    """
    rng = np.random.default_rng(seed)
    n_samples = _BINARY.features.shape[0]
    models = [f"chaos-shard-{i}" for i in range(3)]
    shard_names = ("shard-0", "shard-1")
    trace = []
    submitted = []
    kills = restarts = unavailable_at_submit = 0
    with ShardRouter(
        n_shards=len(shard_names),
        policy=AdmissionPolicy(max_batch=4, max_delay_seconds=0.005),
        method="priu",
    ) as router:
        for model_id in models:
            router.register(
                model_id, checkpoint, _BINARY.features, _BINARY.labels
            )
        drained = 0
        for op in range(n_ops):
            roll = rng.random()
            if roll < 0.72:
                model_id = models[rng.integers(len(models))]
                k = int(rng.integers(1, 4))
                ids = np.sort(
                    rng.choice(n_samples, size=k, replace=False)
                ).astype(np.int64)
                lane = "deadline" if rng.random() < 0.25 else "bulk"
                try:
                    future = router.submit(model_id, ids, lane=lane)
                except ShardUnavailableError:
                    unavailable_at_submit += 1
                    trace.append(f"[{op}] submit {model_id} -> unavailable")
                    continue
                submitted.append((op, model_id, ids, future))
                trace.append(f"[{op}] submit {model_id}/{lane} {ids.tolist()}")
            elif roll < 0.88:
                # Drain: wait out the oldest unresolved future, so the
                # run interleaves served batches with kills instead of
                # killing faster than anything can load.  Outcomes are
                # verified wholesale after the loop.
                pending = [
                    entry for entry in submitted if not entry[3].done()
                ]
                if pending:
                    try:
                        pending[0][3].result(timeout=120)
                    except Exception:
                        pass
                    drained += 1
                    trace.append(f"[{op}] drain op {pending[0][0]}")
            elif roll < 0.93:
                victim = shard_names[rng.integers(len(shard_names))]
                router.kill_shard(victim)
                kills += 1
                trace.append(f"[{op}] kill {victim}")
            else:
                name = shard_names[rng.integers(len(shard_names))]
                router.restart_shard(name)
                restarts += 1
                trace.append(f"[{op}] restart {name}")

        reference = fit_model("binary")
        answered = shard_failed = 0
        for op, model_id, ids, future in submitted:
            try:
                outcome = future.result(timeout=120)
            except ShardUnavailableError:
                shard_failed += 1
                continue
            except Exception as exc:
                raise AssertionError(
                    f"seed {seed}: op {op} failed with untyped "
                    f"{type(exc).__name__}: {exc}\n  trace:\n    "
                    + "\n    ".join(trace)
                )
            expected = reference.remove(ids, method="priu")
            np.testing.assert_allclose(
                outcome.weights, expected.weights, atol=1e-10, rtol=0.0,
                err_msg=f"seed {seed}: op {op} {model_id} {ids.tolist()}",
            )
            answered += 1
    if kills == 0 or answered == 0:
        raise AssertionError(
            f"seed {seed}: degenerate run (kills={kills} answered={answered})"
        )
    if answered + shard_failed != len(submitted):
        raise AssertionError(
            f"seed {seed}: futures unaccounted for "
            f"({answered} + {shard_failed} != {len(submitted)})"
        )
    return (
        f"answered={answered} shard_failed={shard_failed} "
        f"unavailable_at_submit={unavailable_at_submit} "
        f"kills={kills} restarts={restarts}"
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--seeds",
        default=",".join(
            str(s) for s in DEFAULT_SEEDS + COST_SEEDS + ROUTER_SEEDS
        ),
        help="comma-separated seed list (default: %(default)s); seeds in "
        f"{COST_SEEDS} also roll cost-model ops and seeds in "
        f"{ROUTER_SEEDS} chaos the cross-process ShardRouter instead",
    )
    parser.add_argument(
        "--ops",
        type=int,
        default=260,
        help="random operations per seed (default: %(default)s)",
    )
    parser.add_argument(
        "--instrument",
        action="store_true",
        help="run every seed under the lock race detector "
        "(repro.testing.races): instrumented locks, acquisition-order "
        "cycle detection, GuardedBy debug asserts",
    )
    args = parser.parse_args(argv)
    seeds = [int(token) for token in args.seeds.split(",") if token.strip()]

    failures = 0
    with tempfile.TemporaryDirectory(prefix="chaos-suite-") as scratch:
        checkpoint = Path(scratch) / "chaos-bin"
        fit_model("binary").save_checkpoint(checkpoint)
        for seed in seeds:
            start = time.perf_counter()
            try:
                if seed in ROUTER_SEEDS:
                    summary = run_router_seed(seed, args.ops, checkpoint)
                else:
                    summary = run_seed(
                        seed,
                        args.ops,
                        checkpoint,
                        cost=seed in COST_SEEDS,
                        instrument=args.instrument,
                    )
            except Exception:
                failures += 1
                print(f"seed {seed}: FAIL", flush=True)
                traceback.print_exc()
            else:
                elapsed = time.perf_counter() - start
                print(
                    f"seed {seed}: PASS ({summary}, {elapsed:.1f}s)",
                    flush=True,
                )
    print(
        f"chaos suite: {len(seeds) - failures}/{len(seeds)} seeds passed",
        flush=True,
    )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
