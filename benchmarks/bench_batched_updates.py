"""Batched multi-request updates: the Fig-4 workload served concurrently.

Two scenarios on the repeated-deletion datasets:

* **Fig-4 repeated deletions** — ten random subsets (rate 0.1%) removed
  from one fitted model, comparing the sequential seed path, the compiled
  ReplayPlan one request at a time, and one batched ``remove_many`` call.
* **Concurrent unlearning requests** — K simultaneous requests for
  growing K, the serving regime the batched GEMM engine targets.

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
        for k in (1, 4, 16):
            subsets = [wl.subset(0.001, seed=s) for s in range(k)]
            start = time.perf_counter()
            wl.trainer.remove_many(subsets, method="priu")
            seconds = time.perf_counter() - start
            results["concurrent_requests"].append(
                {
                    "experiment": experiment,
                    "n_requests": k,
                    "total_seconds": seconds,
                    "seconds_per_request": seconds / k,
                }
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
    return results


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_batched.json")
    main(parser.parse_args().out)
