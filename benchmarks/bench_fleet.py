"""Fleet serving: N models × mixed-lane traffic, SLA separation measured.

The fleet acceptance bar (ISSUE 4): with bulk traffic riding a generous
coalescing budget across several models, a ``deadline``-lane request must
pre-empt batching — its p99 end-to-end latency lands *below* the bulk
lane's p50.  The same run checks that fleet answers are numerically
identical to direct single-request serving.

Runable standalone (writes ``BENCH_fleet.json`` for the perf
trajectory)::

    PYTHONPATH=src REPRO_BENCH_SCALE=0.05 \
        python benchmarks/bench_fleet.py --out BENCH_fleet.json

The wall-clock distribution assertions (deadline p99 < bulk p50, bulk
waits reflect coalescing) hold comfortably on an idle machine but can
flake on a loaded shared runner, so they are opt-in:
``REPRO_BENCH_ASSERT_TIMING=1`` enforces them, the default records the
measured relation in the JSON only.  The lane-ordering *invariant* is
proved exactly, without wall time, by the fake-clock tier-1 tests
(``tests/serving/test_fleet.py`` / ``test_fleet_stress.py``).
"""

import json
import os
import time

# Pin the BLAS pool before anything imports numpy.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

from repro.bench import fleet_rows  # noqa: E402
from repro.bench.reporting import report  # noqa: E402

from conftest import workload  # noqa: E402

EXPERIMENTS = ["Cov (extended)", "HIGGS (extended)", "Heartbeat (extended)"]
MAX_DELAY = 0.25
ASSERT_TIMING = os.environ.get("REPRO_BENCH_ASSERT_TIMING", "") == "1"


def _run():
    workloads = [workload(name) for name in EXPERIMENTS]
    return fleet_rows(workloads, max_delay_seconds=MAX_DELAY)


def test_deadline_lane_p99_beats_bulk_lane_p50():
    rows, stats = _run()
    report(
        "fleet_lanes",
        f"Fleet serving: {len(EXPERIMENTS)} models, mixed-lane traffic",
        rows,
    )
    lanes = {row["lane"]: row for row in rows}
    # Identical numerics to direct single-request serving…
    assert lanes["bulk"]["max_abs_deviation"] < 1e-10
    # Everything was answered.
    assert stats["failed"] == 0 and stats["cancelled"] == 0
    assert stats["answered"] == stats["submitted"]
    # The wall-clock SLA relations are recorded always, asserted only on
    # request (REPRO_BENCH_ASSERT_TIMING=1): a loaded shared runner can
    # legitimately smear real-time percentiles.
    if ASSERT_TIMING:
        # Real SLA separation: the deadline lane's tail beats the bulk
        # lane's median.
        assert lanes["deadline"]["latency_p99"] < lanes["bulk"]["latency_p50"]
        # And the bulk median really reflects coalescing, not idleness.
        assert lanes["bulk"]["wait_p50"] >= MAX_DELAY * 0.5


# --------------------------------------------------------------- standalone
def main(out_path: str = "BENCH_fleet.json") -> dict:
    """Smoke-scale run recording the fleet SLA trajectory (CI artifact)."""
    from conftest import SCALE

    rows, stats = _run()
    lanes = {row["lane"]: row for row in rows}
    results = {
        "scale": SCALE,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "max_delay_seconds": MAX_DELAY,
        "models": EXPERIMENTS,
        "lanes": rows,
        "fleet_stats": stats,
        # The SLA relation the opt-in timing assertion enforces, recorded
        # for the perf trajectory regardless of assertion mode.
        "deadline_p99_below_bulk_p50": bool(
            lanes["deadline"]["latency_p99"] < lanes["bulk"]["latency_p50"]
        ),
    }
    with open(out_path, "w") as handle:
        json.dump(results, handle, indent=2)
    print(f"wrote {out_path}")
    for row in rows:
        print(
            f"  {row['method']:28s} n={row['n_requests']:3d} "
            f"latency p50 {row['latency_p50'] * 1e3:8.2f} ms  "
            f"p99 {row['latency_p99'] * 1e3:8.2f} ms"
        )
    return results


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_fleet.json")
    main(parser.parse_args().out)
