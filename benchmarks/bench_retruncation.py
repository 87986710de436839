"""The one-sided SVD re-truncation fold, on both of its paths.

Every commit appends exact correction columns to truncated-SVD
summaries; maintenance re-truncates them
(:func:`repro.linalg.svd.retruncate_summary`).  With ``appended`` set,
the fold orthogonalizes only the appended columns against the retained
orthonormal basis (``"incremental"``, the path maintenance takes);
without it, it runs a thin QR over the whole width (``"qr"``).  This
benchmark times both on commit-widened factors at two sets of shapes:

* CI's small rows: ``m = max(40, 600 · REPRO_BENCH_SCALE)`` features,
  retained ranks 10 / 10 / 20 with 2 / 4 / 8 appended columns;
* erase-commit's Heartbeat shapes, whatever the scale: ``m = 940``
  (q·m of the multinomial summaries), retained 22 / 53 / 115 with
  about 30 appended columns — the folds the benchmark's maintenance
  pass runs.

Correctness is asserted **unconditionally** — a fast wrong fold must
fail the bench run, not ship a JSON: the two paths' reconstructions
agree at 1e-10, and both keep exactly the rank a dense SVD of the
widened operator gives under the same rule.

The timing gate is ``heartbeat_pass_speedup``: the three Heartbeat
folds' summed full-width time over their summed incremental time, the
mix a maintenance pass runs.  It is asserted above 1 only under
``REPRO_BENCH_ASSERT_TIMING=1`` (wall-clock on shared CI runners is
noisy); the JSON records it either way.  Each row's own ``speedup`` is
recorded, and ``min_row_speedup`` is the smallest, but no row is
gated: at m = 40 a fold takes 0.1–0.4 ms on either path, mostly NumPy
call overhead, and the incremental path's extra calls leave it
0.75–0.84× as fast there.  Maintenance folds every record incrementally,
so that is what it pays at those widths.  Both paths read a summary's
basis and eigenvalues alone (``TruncatedSummary(right, weights)``); the
full-width path's core is ``R diag(λ) Rᵀ`` after its QR.

BLAS is pinned to one thread, as perfbench pins it: a threaded call on
a shared box can stall for milliseconds, and these folds would time
the stall.

Runable standalone (writes ``BENCH_retruncation.json`` for the perf
trajectory)::

    PYTHONPATH=src REPRO_BENCH_SCALE=0.02 \
        python benchmarks/bench_retruncation.py --out BENCH_retruncation.json
"""

import json
import os
import time

# Pin the BLAS pool before anything imports numpy.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import numpy as np  # noqa: E402

from repro.linalg import retruncate_summary, truncate_from_samples  # noqa: E402

ASSERT_TIMING = os.environ.get("REPRO_BENCH_ASSERT_TIMING", "") == "1"

ATOL = 1e-10

#: Full-scale feature count of the CI rows; REPRO_BENCH_SCALE shrinks it.
#: Their retained ranks are multiples of a mini-batch of 10, the paper's
#: "small" axis.
FULL_FEATURES = 600
BATCH = 10
#: q·m of erase-commit's Heartbeat summaries, and (retained, appended)
#: shapes of its first, second and fourth maintenance passes.
HEARTBEAT_FEATURES = 940
HEARTBEAT_SHAPES = ((22, 31), (53, 31), (115, 29))
SUMMARIES_PER_SHAPE = 6
#: Timed passes over each shape's summaries, alternating which path runs
#: first; a row reports the median over all of them.
REPEATS = 5


def _scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.1"))


def _widened_summary(rng, m, base_rank, appended):
    """A captured summary with exact rank-1 corrections appended, ``x_i``
    with weight ``−a_i`` — the shape ``ProvenanceStore.compact`` leaves
    behind."""
    summary = truncate_from_samples(
        rng.standard_normal((base_rank, m)) * 0.3, epsilon=1e-12
    )
    rows = rng.standard_normal((m, appended)) * 0.3
    slopes = rng.uniform(0.05, 0.25, appended)
    return type(summary)(
        right=np.hstack([summary.right, rows]),
        weights=np.concatenate([summary.weights, -slopes]),
    )


def _dense_rank(summary) -> int:
    """The fold's rank rule applied to a dense SVD of the operator."""
    s = np.linalg.svd(summary.reconstruct(), compute_uv=False)
    m, width = summary.right.shape
    return max(1, int(np.sum(s > max(m, width) * np.finfo(float).eps * s[0])))


def _timed(summary, appended):
    start = time.perf_counter()
    result = retruncate_summary(summary, appended=appended)
    return result, time.perf_counter() - start


def _row(rng, m, base_rank, appended):
    summaries = [
        _widened_summary(rng, m, base_rank, appended)
        for _ in range(SUMMARIES_PER_SHAPE)
    ]
    full_times, incremental_times = [], []
    deviation = 0.0
    for i, summary in enumerate(summaries):
        full, _ = _timed(summary, None)
        incremental, _ = _timed(summary, appended)
        assert incremental.method == "incremental"
        assert full.method == "qr"
        if i == 0:
            rank = _dense_rank(summary)
            assert incremental.rank_after == full.rank_after == rank, (
                f"ranks {incremental.rank_after} / {full.rank_after}, "
                f"dense SVD {rank}"
            )
        deviation = max(
            deviation,
            float(
                np.max(
                    np.abs(
                        incremental.summary.reconstruct()
                        - full.summary.reconstruct()
                    )
                )
            ),
        )
    for repeat in range(REPEATS):
        for summary in summaries:
            order = ((None, full_times), (appended, incremental_times))
            for count, times in order[:: 1 if repeat % 2 else -1]:
                times.append(_timed(summary, count)[1])
    full_seconds = float(np.median(full_times))
    incremental_seconds = float(np.median(incremental_times))
    return {
        "n_features": m,
        "retained_rank": base_rank,
        "appended_columns": appended,
        "rank_after": int(incremental.rank_after),
        "full_seconds": full_seconds,
        "incremental_seconds": incremental_seconds,
        "speedup": full_seconds / max(incremental_seconds, 1e-12),
        "max_abs_deviation": deviation,
    }


def main(out_path: str = "BENCH_retruncation.json") -> dict:
    rng = np.random.default_rng(59)
    m = max(40, int(round(FULL_FEATURES * _scale())))
    small = [
        _row(rng, m, base_rank, appended)
        for base_rank, appended in ((BATCH, 2), (BATCH, 4), (2 * BATCH, 8))
    ]
    heartbeat = [
        _row(rng, HEARTBEAT_FEATURES, base_rank, appended)
        for base_rank, appended in HEARTBEAT_SHAPES
    ]
    deviation = max(row["max_abs_deviation"] for row in small + heartbeat)

    # Correctness is unconditional: a fast wrong fold must not ship.
    assert deviation <= ATOL, f"the two fold paths deviate {deviation:.2e}"

    speedup = sum(row["full_seconds"] for row in heartbeat) / sum(
        row["incremental_seconds"] for row in heartbeat
    )
    results = {
        "scale": _scale(),
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "retruncation": small,
        "heartbeat_shapes": heartbeat,
        "heartbeat_pass_speedup": float(speedup),
        "min_row_speedup": float(min(row["speedup"] for row in small + heartbeat)),
        "max_abs_deviation": float(deviation),
        "within_bar": {"heartbeat_pass": bool(speedup > 1.0)},
    }
    with open(out_path, "w") as handle:
        json.dump(results, handle, indent=2)
    print(f"wrote {out_path}")
    for row in small + heartbeat:
        print(
            f"  retruncate m={row['n_features']:4d} "
            f"rank={row['retained_rank']:3d}+{row['appended_columns']:2d}  "
            f"full {row['full_seconds'] * 1e3:6.2f} ms  "
            f"incremental {row['incremental_seconds'] * 1e3:6.2f} ms  "
            f"speedup {row['speedup']:5.2f}x"
        )
    print(f"  Heartbeat pass speedup {speedup:5.2f}x")

    if ASSERT_TIMING:
        assert speedup > 1.0, (
            f"incremental folds of a Heartbeat pass slower than full-width "
            f"QR ({speedup:.2f}x)"
        )
    return results


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_retruncation.json")
    args = parser.parse_args()
    main(args.out)
