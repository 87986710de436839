"""Cost-model accountability: every estimate meets its executed actual.

The cost model prices each removal before it runs — touched
iterations, plan-patch bytes and SVD width growth, all read off the
packed occurrence index.  Predictions are only trustworthy if they are
*checked*, so this benchmark drives estimate→remove→commit rounds
across three workload shapes (dense binary flats, SVD-compressed
summaries, linear moments) and drains each
:class:`~repro.core.costmodel.CostModel` decision ring into a
per-decision predicted-vs-actual table.

The acceptance bar: the recorded relative error on the plan-patch
bytes stays within 0.5, and every decision's mode is ``refresh`` or
``unsupported`` (commits always patch the plan in place).  Both
predictions are structural (read off the same accounting the executed
patch reports), so the assertions hold on every machine.

Runable standalone (writes ``BENCH_costmodel.json`` for the perf
trajectory)::

    PYTHONPATH=src REPRO_BENCH_SCALE=0.02 \
        python benchmarks/bench_cost_model.py --smoke --out BENCH_costmodel.json
"""

import json
import os
import time

import numpy as np

from repro import CostModel, IncrementalTrainer, MaintenancePolicy
from repro.bench.reporting import report
from repro.datasets import make_binary_classification, make_regression

#: The acceptance bar on recorded predicted-vs-actual relative error.
ERROR_BAR = 0.5
#: Modes a commit may take: the plan is always refreshed in place.
COMMIT_MODES = ("refresh", "unsupported")
#: Tight limits keep SVD widths bounded across the measured rounds.
MAINTENANCE = MaintenancePolicy(
    max_slot_garbage_fraction=0.05, max_svd_correction_columns=4
)

N_WARMUP = 8  # commits before measurement starts
N_ROUNDS = 24  # measured estimate→remove→commit rounds per workload
SMOKE_WARMUP = 3
SMOKE_ROUNDS = 6

#: (name, model kind, requested samples, features, batch, iterations, seed).
#: The SVD row keeps ``batch < n_params`` so summaries are truncated-SVD
#: factors and every refresh appends correction columns — the width-growth
#: prediction exercised; the dense/linear rows patch flats and moments.
WORKLOADS = (
    ("dense_binary", "binary_logistic", 6000, 12, 64, 50, 5),
    ("svd_binary", "binary_logistic", 3600, 16, 8, 45, 6),
    ("linear", "linear", 4800, 10, 48, 40, 7),
)

_CACHE: dict = {}


def _scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.1"))


def _fit(kind, requested, n_features, batch, iterations, seed):
    n = max(200, int(round(requested * _scale())))
    if kind == "linear":
        data = make_regression(n, n_features, noise=0.05, seed=seed)
    else:
        data = make_binary_classification(
            n, n_features, separation=1.0, seed=seed
        )
    trainer = IncrementalTrainer(
        kind,
        learning_rate=0.1,
        regularization=0.01,
        batch_size=batch,
        n_iterations=iterations,
        seed=seed,
        method="priu",
        cost_model=CostModel(),
    )
    trainer.fit(data.features, data.labels)
    return trainer


def _removal(rng, n_samples, round_index):
    """Steady-state removal sizes (a narrow band around n/80).

    The structural predictions (bytes, widths, mode) are exercised
    across the full small-to-bulk range by
    ``tests/core/test_cost_model.py``.
    """
    size = max(2, n_samples // 80) + round_index % 3
    size = min(size, max(1, n_samples - 8))
    return np.sort(rng.choice(n_samples, size=size, replace=False))


def _decision_errors(decisions):
    """Per-decision byte errors and mode agreement against the receipt."""
    byte_errors, agreements = [], []
    for decision in decisions:
        predicted = decision["predicted"]
        if predicted is None:
            continue
        agreements.append(predicted["mode"] == decision["actual_mode"])
        actual_bytes = decision["actual_patched_bytes"] or 0
        byte_errors.append(
            abs(predicted["plan_patch_bytes"] - actual_bytes)
            / max(actual_bytes, 1)
        )
    return byte_errors, agreements


def _run(n_warmup=N_WARMUP, n_rounds=N_ROUNDS):
    key = (n_warmup, n_rounds, _scale())
    if key in _CACHE:
        return _CACHE[key]
    rows, tables = [], {}
    for name, kind, requested, n_features, batch, iterations, seed in WORKLOADS:
        trainer = _fit(kind, requested, n_features, batch, iterations, seed)
        model = trainer.cost_model
        rng = np.random.default_rng(seed)
        for i in range(n_warmup):
            ids = _removal(rng, trainer.n_samples, i)
            trainer.commit(trainer.remove(ids, method="priu"))
        n_warm = len(model.decisions())
        for i in range(n_rounds):
            ids = _removal(rng, trainer.n_samples, i)
            # estimate → remove → commit: the commit path re-runs the
            # estimate internally and logs it against the timed receipt.
            trainer.estimate_removal(ids)
            trainer.commit(trainer.remove(ids, method="priu"))
            if MAINTENANCE.due(trainer.maintenance_cost(include_bytes=False)):
                trainer.maintain(MAINTENANCE)
        decisions = model.decisions()[n_warm:]
        # Replay observations share the ring; only commits are priced.
        commits = [d for d in decisions if d.get("kind") != "replay"]
        byte_errors, agreements = _decision_errors(commits)
        modes = [d["actual_mode"] for d in commits]
        rows.append(
            {
                "workload": name,
                "n_decisions": len(commits),
                "n_refresh": modes.count("refresh"),
                "modes": sorted(set(modes)),
                "mode_agreement": (
                    float(np.mean(agreements)) if agreements else 0.0
                ),
                "plan_patch_bytes_rel_error_median": (
                    float(np.median(byte_errors)) if byte_errors else 0.0
                ),
            }
        )
        tables[name] = {
            "calibration": model.calibration.as_dict(),
            "decisions": decisions,
        }
    _CACHE[key] = (rows, tables)
    return rows, tables


def _check(rows):
    for row in rows:
        # Every measured commit logged a prediction whose mode is the
        # executed one, and every commit patched the plan in place.
        assert row["n_decisions"] > 0
        assert row["mode_agreement"] == 1.0
        assert set(row["modes"]) <= set(COMMIT_MODES)
        # Byte predictions are structural (shared accounting with the
        # executed patch), so the bar holds on every machine.
        assert row["plan_patch_bytes_rel_error_median"] <= ERROR_BAR


def test_estimates_track_executed_commits():
    rows, _ = _run()
    report(
        "cost_model",
        "Cost model predicted-vs-actual (estimate → remove → commit)",
        rows,
    )
    _check(rows)


# --------------------------------------------------------------- standalone
def main(out_path: str = "BENCH_costmodel.json", smoke: bool = False) -> dict:
    """Predicted-vs-actual run recording the decision table (CI artifact)."""
    if smoke:
        rows, tables = _run(n_warmup=SMOKE_WARMUP, n_rounds=SMOKE_ROUNDS)
    else:
        rows, tables = _run()
    byte_medians = [r["plan_patch_bytes_rel_error_median"] for r in rows]
    results = {
        "scale": _scale(),
        "smoke": smoke,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "error_bar": ERROR_BAR,
        "rows": rows,
        "workloads": tables,
        "plan_patch_bytes_rel_error": float(max(byte_medians)),
        "within_bar": {
            "plan_patch_bytes": bool(max(byte_medians) <= ERROR_BAR),
        },
    }
    with open(out_path, "w") as handle:
        json.dump(results, handle, indent=2)
    print(f"wrote {out_path}")
    for row in rows:
        print(
            f"  {row['workload']:13s} decisions={row['n_decisions']:3d} "
            f"(refresh {row['n_refresh']}, modes {row['modes']})  "
            f"bytes err {row['plan_patch_bytes_rel_error_median']:.3f}"
        )
    _check(rows)
    return results


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_costmodel.json")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fewer warm-up and measurement rounds (CI gate)",
    )
    args = parser.parse_args()
    main(args.out, smoke=args.smoke)
