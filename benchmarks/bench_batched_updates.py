"""Batched multi-request updates: the Fig-4 workload served concurrently.

Two scenarios on the repeated-deletion datasets:

* **Fig-4 repeated deletions** — ten random subsets (rate 0.1%) removed
  from one fitted model, comparing the sequential seed path, the compiled
  ReplayPlan one request at a time, and one batched ``remove_many`` call.
* **Concurrent unlearning requests** — K ∈ {1, 4, 11, 16} simultaneous
  requests of 1 + Poisson(1.5) ids each, the serving regime the batched
  GEMM engine targets.  Each model runs under the method it is served
  with (PrIU-opt for Cov and HIGGS, ``priu`` for Heartbeat) and under
  ``priu``; a row is the median of repeated calls after a warm call, per
  call and per request, with its worst deviation from the same sets
  answered one at a time (K = 1).

Runable standalone (writes ``BENCH_batched.json`` for the perf
trajectory)::

    PYTHONPATH=src REPRO_BENCH_SCALE=0.05 \
        python benchmarks/bench_batched_updates.py --out BENCH_batched.json
"""

import json
import os
import time

# Pin the BLAS pool before anything imports numpy.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from repro.bench import batched_deletion_rows  # noqa: E402
from repro.bench.reporting import report  # noqa: E402

from conftest import requires_scale, workload  # noqa: E402

EXPERIMENTS = ["Cov (extended)", "HIGGS (extended)", "Heartbeat (extended)"]
# The method each model is served with (as perfbench serves it).
SERVED = {
    "Cov (extended)": "priu-opt",
    "HIGGS (extended)": "priu-opt",
    "Heartbeat (extended)": "priu",
}
K_SWEEP = (1, 4, 11, 16)
REPEATS = 15


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_remove_many_ten_requests(benchmark, experiment):
    wl = workload(experiment)
    subsets = [wl.subset(0.001, seed=s) for s in range(10)]
    benchmark.pedantic(
        lambda: wl.trainer.remove_many(subsets, method="priu"),
        rounds=2,
        warmup_rounds=1,
    )


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_report_batched(experiment):
    requires_scale(0.05)
    wl = workload(experiment)
    rows = batched_deletion_rows(wl, n_subsets=10, deletion_rate=0.001)
    tag = experiment.split(" ")[0].lower()
    report(
        f"batched_{tag}",
        f"Batched updates: 10 concurrent removals — {experiment}",
        rows,
    )
    batched = next(r for r in rows if "remove_many" in r["method"])
    single = next(r for r in rows if "one-by-one" in r["method"])
    # Numerics must sit at noise level; the 1e-10 contract leaves headroom.
    assert batched["max_abs_deviation"] < 1e-10
    # Measured ≥3x on all three workloads; assert with margin for CI noise.
    assert batched["speedup_vs_sequential"] > 2.0
    # The compiled plan must not regress the single-request path.
    assert single["speedup_vs_sequential"] > 0.9


def test_batched_equals_sequential_on_fig4_workload():
    wl = workload("HIGGS (extended)")
    subsets = [wl.subset(0.001, seed=s) for s in range(10)]
    outcomes = wl.trainer.remove_many(subsets, method="priu")
    for outcome, subset in zip(outcomes, subsets):
        reference = wl.trainer.remove(subset, method="priu-seq")
        assert np.allclose(outcome.weights, reference.weights, atol=1e-10)


# --------------------------------------------------------------- standalone
def concurrent_request_rows(wl, experiment: str, repeats: int = REPEATS):
    """The K sweep: median ms per call and per request, and each row's
    worst deviation from answering its sets one at a time."""
    trainer = wl.trainer
    n_samples = trainer.store.n_samples
    rows = []
    for method in dict.fromkeys((SERVED[experiment], "priu")):
        for k in K_SWEEP:
            rng = np.random.default_rng(k)
            draws = [
                [
                    rng.choice(n_samples, size=1 + rng.poisson(1.5), replace=False)
                    for _ in range(k)
                ]
                for _ in range(repeats + 1)
            ]
            trainer.remove_many(draws[0], method=method)  # warm call
            seconds, deviation = [], 0.0
            for sets in draws[1:]:
                start = time.perf_counter()
                outcomes = trainer.remove_many(sets, method=method)
                seconds.append(time.perf_counter() - start)
                for outcome, removed in zip(outcomes, sets):
                    lone = trainer.remove(removed, method=method).weights
                    deviation = max(
                        deviation, float(np.max(np.abs(outcome.weights - lone)))
                    )
            per_call = float(np.median(seconds))
            rows.append(
                {
                    "experiment": experiment,
                    "method": method,
                    "n_requests": k,
                    "repeats": repeats,
                    "ms_per_call": 1e3 * per_call,
                    "ms_per_request": 1e3 * per_call / k,
                    "max_abs_deviation_from_k1": deviation,
                }
            )
    return rows


def main(out_path: str = "BENCH_batched.json") -> dict:
    """Small-scale smoke run recording the perf trajectory (CI artifact)."""
    from conftest import SCALE

    results = {
        "scale": SCALE,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "fig4_repeated": [],
        "concurrent_requests": [],
    }
    for experiment in EXPERIMENTS:
        wl = workload(experiment)
        results["fig4_repeated"].extend(
            batched_deletion_rows(wl, n_subsets=10, deletion_rate=0.001)
        )
        results["concurrent_requests"].extend(
            concurrent_request_rows(wl, experiment)
        )
    with open(out_path, "w") as handle:
        json.dump(results, handle, indent=2)
    print(f"wrote {out_path}")
    for row in results["fig4_repeated"]:
        print(
            f"  {row['experiment']:24s} {row['method']:42s} "
            f"{row['total_seconds'] * 1000:9.1f} ms "
            f"x{row['speedup_vs_sequential']:.2f}"
        )
    for row in results["concurrent_requests"]:
        print(
            f"  {row['experiment']:24s} {row['method']:9s} "
            f"K={row['n_requests']:2d} {row['ms_per_call']:8.2f} ms/call "
            f"{row['ms_per_request']:7.2f} ms/request "
            f"dev {row['max_abs_deviation_from_k1']:.1e}"
        )
    return results


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_batched.json")
    main(parser.parse_args().out)
