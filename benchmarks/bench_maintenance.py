"""Plan maintenance under commit churn: bounded bytes, flat latency.

The maintenance acceptance bar: over a 200-commit churn run, the
serving-resident footprint (provenance store + compiled plan) of a
maintained trainer stays *flat* while the never-maintained twin grows
monotonically — SVD summaries accumulate exact correction columns.
Commits themselves drop the erased samples' per-sample rows from the
store's columns, so those shrink alike in both runs: maintenance has
nothing of theirs to reclaim.

The workload is Heartbeat (extended) with a mini-batch *below* the
feature count so the summaries are truncated-SVD factors (the widening
source) on top of multinomial softmax columns (which every commit
shrinks) and the frozen PrIU-opt eigen state (the staleness source).  Maintenance runs
the paper-mode ε-re-truncation (Theorem 6's tail-ratio criterion at the
store's own ε) — the configuration that returns widths to the
fresh-compile regime; the surfaced per-summary error bound and the
measured end-to-end deviation are asserted to stay inside the PrIU
``O(ε)`` envelope.  (The *exact* re-truncation mode — answers at atol
1e-10, widths capped at the operator dimension — is property-tested in
``tests/core/test_maintenance.py``.)

Runable standalone (writes ``BENCH_maintenance.json`` for the perf
trajectory)::

    PYTHONPATH=src REPRO_BENCH_SCALE=0.05 \
        python benchmarks/bench_maintenance.py --out BENCH_maintenance.json

The wall-clock assertion (maintained commit p50 stays within 2x of the
unmaintained run's — maintenance must not tax the service path) is
opt-in via ``REPRO_BENCH_ASSERT_TIMING=1`` like ``bench_fleet.py``;
the byte-growth and error-envelope assertions always run.
"""

import dataclasses
import json
import os
import time

# Pin the BLAS pool before anything imports numpy.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

from repro.bench import CONFIGS, maintenance_rows, prepare_workload  # noqa: E402
from repro.bench.reporting import report  # noqa: E402

N_COMMITS = 200
MAINTAIN_EVERY = 20
ASSERT_TIMING = os.environ.get("REPRO_BENCH_ASSERT_TIMING", "") == "1"

_CACHE: dict = {}


def _workload():
    """Heartbeat (extended) with SVD-compressed summaries (B < m)."""
    if "workload" not in _CACHE:
        scale = float(os.environ.get("REPRO_BENCH_SCALE", "0.1"))
        base = CONFIGS["Heartbeat (extended)"]
        config = dataclasses.replace(
            base,
            name="Heartbeat (churn)",
            batch_size=96,
            scale=base.scale * scale,
        )
        _CACHE["workload"] = prepare_workload(config)
        _CACHE["scale"] = scale
    return _CACHE["workload"]


def _run():
    if "result" not in _CACHE:
        workload = _workload()
        _CACHE["result"] = maintenance_rows(
            workload,
            n_commits=N_COMMITS,
            maintain_every=MAINTAIN_EVERY,
            # Paper-mode reclamation: Theorem 6's tail-ratio criterion at
            # the capture ε, returning widths to the fresh-compile regime.
            svd_epsilon=workload.trainer.epsilon,
        )
    return _CACHE["result"]


def test_maintenance_bounds_state_within_the_epsilon_envelope():
    rows, extras = _run()
    report(
        "maintenance_churn",
        f"Plan maintenance over {N_COMMITS} commits "
        f"(maintain every {MAINTAIN_EVERY})",
        rows,
    )
    by_mode = {row["mode"]: row for row in rows}
    plain = by_mode["unmaintained"]
    kept = by_mode["maintained"]
    epsilon = _workload().trainer.epsilon
    # Without maintenance the footprint grows monotonically with commits…
    unmaintained_series = extras["series"]["unmaintained"]["serving_bytes"]
    assert all(
        later >= earlier
        for earlier, later in zip(unmaintained_series, unmaintained_series[1:])
    )
    assert plain["serving_bytes_final"] > plain["serving_bytes_first"]
    # …while maintenance keeps it flat: the run never ends above its
    # first sample, and every growth counter is back at zero.
    assert kept["serving_bytes_final"] <= kept["serving_bytes_first"]
    assert kept["serving_bytes_final"] < plain["serving_bytes_final"]
    assert kept["svd_correction_columns"] == 0
    # Commits drop the erased rows from the per-sample columns at once:
    # both runs hold the same, smaller columns, maintained or not.
    assert kept["sample_column_bytes_final"] == plain["sample_column_bytes_final"]
    assert kept["sample_column_bytes_final"] < kept["sample_column_bytes_first"]
    assert kept["svd_max_width"] < plain["svd_max_width"]
    # ε-re-truncation's surfaced bound honors the Theorem-6 criterion and
    # the end-to-end deviation stays inside the PrIU approximation
    # envelope (the exact mode's 1e-10 contract is property-tested in
    # tests/core/test_maintenance.py).
    assert kept["svd_max_relative_error"] <= epsilon * 1.001
    assert extras["max_abs_deviation"] < 0.05
    if ASSERT_TIMING:
        # Maintenance must not tax the commit/service path itself.
        assert kept["commit_p50_seconds"] <= 2.0 * plain["commit_p50_seconds"]


# --------------------------------------------------------------- standalone
def main(out_path: str = "BENCH_maintenance.json") -> dict:
    """Churn-scale run recording the maintenance trajectory (CI artifact)."""
    rows, extras = _run()
    by_mode = {row["mode"]: row for row in rows}
    results = {
        "scale": _CACHE["scale"],
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "n_commits": N_COMMITS,
        "maintain_every": MAINTAIN_EVERY,
        "rows": rows,
        "series": extras["series"],
        "max_abs_deviation": extras["max_abs_deviation"],
        # The relation the acceptance bar enforces, recorded for the
        # perf trajectory regardless of assertion mode.
        "maintained_bytes_flat": bool(
            by_mode["maintained"]["serving_bytes_final"]
            <= by_mode["maintained"]["serving_bytes_first"]
        ),
        "unmaintained_bytes_monotone": bool(
            by_mode["unmaintained"]["serving_bytes_final"]
            > by_mode["unmaintained"]["serving_bytes_first"]
        ),
    }
    with open(out_path, "w") as handle:
        json.dump(results, handle, indent=2)
    print(f"wrote {out_path}")
    for row in rows:
        print(
            f"  {row['mode']:12s} commits={row['n_commits']:3d} "
            f"bytes {row['serving_bytes_first'] / 1e6:7.1f} -> "
            f"{row['serving_bytes_final'] / 1e6:7.1f} MB  "
            f"commit p50 {row['commit_p50_seconds'] * 1e3:7.2f} ms  "
            f"svd width max {row['svd_max_width']:4d}"
        )
    return results


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_maintenance.json")
    main(parser.parse_args().out)
