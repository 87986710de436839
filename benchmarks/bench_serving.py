"""Deletion serving: queued single requests vs the batched call in hand.

The serving acceptance bar (ISSUE 2): a :class:`repro.DeletionServer`
answering N *individually submitted* requests must land within 1.5× of the
wall-clock of one ``remove_many(N)`` call — i.e. the admission queue has to
recover the batched engine's throughput without the caller restructuring
anything.  A concurrency sweep records how per-request cost falls as the
server coalesces larger batches.

Runable standalone (writes ``BENCH_serving.json`` for the perf
trajectory)::

    PYTHONPATH=src REPRO_BENCH_SCALE=0.05 \
        python benchmarks/bench_serving.py --out BENCH_serving.json
"""

import json
import os
import time

# Pin the BLAS pool before anything imports numpy.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from repro.bench import serving_rows  # noqa: E402
from repro.bench.reporting import report  # noqa: E402
from repro.serving import AdmissionPolicy, DeletionServer  # noqa: E402

from conftest import workload  # noqa: E402

EXPERIMENTS = ["Cov (extended)", "HIGGS (extended)", "Heartbeat (extended)"]
N_REQUESTS = 16


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_served_singles_within_budget_of_remove_many(experiment):
    wl = workload(experiment)
    rows, stats = serving_rows(wl, n_requests=N_REQUESTS)
    tag = experiment.split(" ")[0].lower()
    report(
        f"serving_{tag}",
        f"Deletion serving: {N_REQUESTS} queued singles — {experiment}",
        rows,
    )
    served = next(r for r in rows if "DeletionServer" in r["method"])
    # Identical numerics to the one-shot batched call…
    assert served["max_abs_deviation"] < 1e-10
    # …at near-identical cost (acceptance bar: within 1.5x).
    assert served["ratio_vs_remove_many"] < 1.5
    # Everything was answered, in one coalesced batch.
    assert stats["answered"] == N_REQUESTS
    assert stats["batches"] == 1


def test_server_matches_direct_remove_on_fig4_workload():
    wl = workload("HIGGS (extended)")
    subsets = [wl.subset(0.001, seed=s) for s in range(8)]
    with DeletionServer(
        wl.trainer, AdmissionPolicy(max_batch=8), method="priu"
    ) as server:
        outcomes = [f.result(timeout=60) for f in server.submit_many(subsets)]
    for outcome, subset in zip(outcomes, subsets):
        reference = wl.trainer.remove(subset, method="priu-seq")
        assert np.allclose(outcome.weights, reference.weights, atol=1e-10)


def test_per_request_cost_falls_with_concurrency():
    wl = workload("HIGGS (extended)")
    costs = {}
    for k in (1, N_REQUESTS):
        rows, _ = serving_rows(wl, n_requests=k)
        served = next(r for r in rows if "DeletionServer" in r["method"])
        costs[k] = served["seconds_per_request"]
    assert costs[N_REQUESTS] < costs[1]


# --------------------------------------------------------------- standalone
def main(out_path: str = "BENCH_serving.json") -> dict:
    """Smoke-scale run recording the serving perf trajectory (CI artifact)."""
    from conftest import SCALE

    results = {
        "scale": SCALE,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "queued_vs_batched": [],
        "concurrency_sweep": [],
        "server_stats": {},
    }
    for experiment in EXPERIMENTS:
        wl = workload(experiment)
        rows, stats = serving_rows(wl, n_requests=N_REQUESTS)
        results["queued_vs_batched"].extend(rows)
        results["server_stats"][experiment] = stats
        for k in (1, 4, N_REQUESTS):
            sweep_rows, _ = serving_rows(wl, n_requests=k, repeats=2)
            served = next(
                r for r in sweep_rows if "DeletionServer" in r["method"]
            )
            results["concurrency_sweep"].append(served)
    with open(out_path, "w") as handle:
        json.dump(results, handle, indent=2)
    print(f"wrote {out_path}")
    for row in results["queued_vs_batched"]:
        print(
            f"  {row['experiment']:24s} {row['method']:44s} "
            f"{row['total_seconds'] * 1000:9.2f} ms "
            f"ratio {row['ratio_vs_remove_many']:.2f}"
        )
    return results


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_serving.json")
    main(parser.parse_args().out)
