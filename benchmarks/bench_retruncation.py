"""Incremental vs full SVD re-truncation of commit-widened summaries.

Every commit appends exact rank-Δ correction columns to truncated-SVD
summaries; maintenance re-truncates them
(:func:`repro.linalg.svd.retruncate_summary`).  With ``appended`` set,
the re-truncation reuses the retained factors and only orthogonalizes
the few new columns, instead of a full thin-QR of the whole widened
factor pair.  This benchmark measures both on commit-widened factors in
the few-columns regime the crossover rule
(:func:`~repro.linalg.svd.incremental_retruncation_wins`) targets.

The reconstruction deviation (incremental vs full at 1e-10) is asserted
**unconditionally** — a fast wrong re-truncation must fail the bench
run, not ship a JSON.  The timing ratio (incremental beating full) is
asserted only under ``REPRO_BENCH_ASSERT_TIMING=1``: wall-clock on
shared CI runners is noisy.  The JSON records it either way.

Runable standalone (writes ``BENCH_retruncation.json`` for the perf
trajectory)::

    PYTHONPATH=src REPRO_BENCH_SCALE=0.02 \
        python benchmarks/bench_retruncation.py --out BENCH_retruncation.json
"""

import json
import os
import time

import numpy as np

from repro.linalg import retruncate_summary, truncate_summary
from repro.linalg.svd import incremental_retruncation_wins

ASSERT_TIMING = os.environ.get("REPRO_BENCH_ASSERT_TIMING", "") == "1"

ATOL = 1e-10

#: Full-scale feature count; REPRO_BENCH_SCALE shrinks it.  The retained
#: ranks are multiples of a mini-batch of 10, the paper's "small" axis.
FULL_FEATURES = 600
BATCH = 10


def _scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.1"))


def _widened_summary(rng, m, base_rank, appended):
    """A truncated summary with exact rank-1 corrections appended — the
    shape ``ProvenanceStore.compact`` leaves behind after commits."""
    basis = rng.standard_normal((m, base_rank))
    summary = truncate_summary(
        basis @ basis.T, epsilon=1e-12, symmetric=True
    )
    for _ in range(appended):
        row = rng.standard_normal(m) * 0.3
        summary = type(summary)(
            left=np.hstack([summary.left, -row[:, None]]),
            right=np.hstack([summary.right, row[:, None]]),
        )
    return summary


def _retruncation_rows():
    """Incremental vs full re-truncation in the few-columns regime."""
    m = max(40, int(round(FULL_FEATURES * _scale())))
    rng = np.random.default_rng(59)
    rows = []
    worst_deviation = 0.0
    for base_rank, appended in ((BATCH, 2), (BATCH, 4), (2 * BATCH, 8)):
        assert incremental_retruncation_wins(base_rank, appended)
        summaries = [
            _widened_summary(rng, m, base_rank, appended) for _ in range(6)
        ]
        full_times, incremental_times = [], []
        for summary in summaries:
            start = time.perf_counter()
            full = retruncate_summary(summary)
            full_times.append(time.perf_counter() - start)
            start = time.perf_counter()
            incremental = retruncate_summary(summary, appended=appended)
            incremental_times.append(time.perf_counter() - start)
            assert incremental.method == "incremental"
            assert full.method == "qr"
            deviation = float(
                np.max(
                    np.abs(
                        incremental.summary.reconstruct()
                        - full.summary.reconstruct()
                    )
                )
            )
            worst_deviation = max(worst_deviation, deviation)
        full_seconds = float(np.median(full_times))
        incremental_seconds = float(np.median(incremental_times))
        rows.append(
            {
                "n_features": m,
                "retained_rank": base_rank,
                "appended_columns": appended,
                "full_seconds": full_seconds,
                "incremental_seconds": incremental_seconds,
                "speedup": full_seconds / max(incremental_seconds, 1e-12),
                "max_abs_deviation": worst_deviation,
            }
        )
    return rows, worst_deviation


def main(out_path: str = "BENCH_retruncation.json") -> dict:
    retruncation, deviation = _retruncation_rows()

    # Correctness is unconditional: a fast wrong re-truncation must not ship.
    assert deviation <= ATOL, (
        f"incremental re-truncation deviates {deviation:.2e}"
    )

    speedup = min(row["speedup"] for row in retruncation)
    results = {
        "scale": _scale(),
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "retruncation": retruncation,
        "min_incremental_retruncation_speedup": float(speedup),
        "max_abs_deviation": float(deviation),
        "within_bar": {"incremental_retruncation": bool(speedup > 1.0)},
    }
    with open(out_path, "w") as handle:
        json.dump(results, handle, indent=2)
    print(f"wrote {out_path}")
    for row in retruncation:
        print(
            f"  retruncate rank={row['retained_rank']:3d}"
            f"+{row['appended_columns']}  "
            f"full {row['full_seconds'] * 1e3:6.2f} ms  "
            f"incremental {row['incremental_seconds'] * 1e3:6.2f} ms  "
            f"speedup {row['speedup']:5.2f}x"
        )

    if ASSERT_TIMING:
        assert speedup > 1.0, (
            f"incremental re-truncation slower than full ({speedup:.2f}x)"
        )
    return results


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_retruncation.json")
    args = parser.parse_args()
    main(args.out)
