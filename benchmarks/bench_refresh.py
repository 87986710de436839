"""Commit cost: incremental plan refresh vs a fresh compile.

The commit path folds a served deletion back into the store and the
compiled ReplayPlan.  The store compaction is shared (it drops the
erased rows from the store's per-sample columns, which the plan reads);
the rows time how the plan catches up — re-binding the affected
iterations' references in place (``refresh``, what every commit does;
sparse plans also recompute those iterations' moments) versus compiling
a new plan over the compacted store (``recompile``, the reference).  The acceptance bar:
on the Fig-4 workloads, for removals touching ≤ 1% of the samples, the
incremental refresh must beat the fresh compile while answering fresh
queries identically (atol 1e-10).

Runable standalone (writes ``BENCH_refresh.json`` for the perf
trajectory)::

    PYTHONPATH=src REPRO_BENCH_SCALE=0.05 \
        python benchmarks/bench_refresh.py --out BENCH_refresh.json
"""

import json
import os
import time

# Pin the BLAS pool before anything imports numpy.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import pytest  # noqa: E402

from repro.bench import refresh_rows  # noqa: E402
from repro.bench.reporting import report  # noqa: E402

from conftest import workload  # noqa: E402

EXPERIMENTS = ["Cov (extended)", "HIGGS (extended)", "Heartbeat (extended)"]
DELETION_RATE = 0.001  # the Fig-4 repeated-deletion rate


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_incremental_refresh_beats_recompile(experiment):
    wl = workload(experiment)
    # Fig-4 rate for the recorded trajectory + a single-sample removal,
    # which touches few iterations at every bench scale (smoke scales
    # inflate the Fig-4 rate's touched-iteration fraction).
    fig4_rows = refresh_rows(wl, deletion_rate=DELETION_RATE)
    single_rows = refresh_rows(wl, deletion_rate=0.0)
    tag = experiment.split(" ")[0].lower()
    report(
        f"refresh_{tag}",
        f"Commit cost: plan refresh vs fresh compile — {experiment}",
        fig4_rows + single_rows,
    )
    fig4 = next(r for r in fig4_rows if r["mode"] == "refresh")
    single = next(r for r in single_rows if r["mode"] == "refresh")
    # Identical post-commit answers on both paths…
    assert fig4["max_abs_deviation"] < 1e-10
    assert single["max_abs_deviation"] < 1e-10
    # …and for small removals the incremental patch must win.
    assert single["speedup_vs_recompile"] > 1.0
    if fig4["fraction_iterations_touched"] <= 0.25:
        assert fig4["speedup_vs_recompile"] > 1.0


# --------------------------------------------------------------- standalone
def main(out_path: str = "BENCH_refresh.json") -> dict:
    """Smoke-scale run recording the commit-cost trajectory (CI artifact)."""
    from conftest import SCALE

    results = {
        "scale": SCALE,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "deletion_rate": DELETION_RATE,
        "commit_costs": [],
    }
    for experiment in EXPERIMENTS:
        wl = workload(experiment)
        for rate in (DELETION_RATE, 0.0):  # 0.0 → single-sample removal
            results["commit_costs"].extend(
                refresh_rows(wl, deletion_rate=rate)
            )
    with open(out_path, "w") as handle:
        json.dump(results, handle, indent=2)
    print(f"wrote {out_path}")
    for row in results["commit_costs"]:
        print(
            f"  {row['experiment']:24s} {row['mode']:9s} "
            f"{row['plan_sync_seconds'] * 1000:9.2f} ms "
            f"(+{row['compact_seconds'] * 1000:.2f} ms compact, "
            f"{row['fraction_iterations_touched'] * 100:5.1f}% iters) "
            f"speedup {row['speedup_vs_recompile']:.2f}x"
        )
    # The refreshed plan answers a fresh query as a fresh compile does.
    for row in results["commit_costs"]:
        if row["mode"] == "refresh":
            assert row["max_abs_deviation"] < 1e-10, row
    return results


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_refresh.json")
    main(parser.parse_args().out)
