"""Shared benchmark fixtures.

Workloads are fitted once per session (the offline provenance phase is not
part of any measured update).  ``REPRO_BENCH_SCALE`` (default 0.1) shrinks
dataset sizes uniformly; set it to 1.0 for the full paper-shaped run used to
fill EXPERIMENTS.md.
"""

from __future__ import annotations

import dataclasses
import os

# Pin the BLAS pool before anything imports numpy.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import pytest  # noqa: E402

from repro.bench import CONFIGS, prepare_workload  # noqa: E402

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.1"))

_CACHE: dict[str, object] = {}


def workload(name: str, dirty_rate: float | None = None):
    """Fit (once) and cache the named workload at the session scale."""
    key = f"{name}|{dirty_rate}"
    if key not in _CACHE:
        config = dataclasses.replace(CONFIGS[name], scale=CONFIGS[name].scale * SCALE)
        _CACHE[key] = prepare_workload(config, dirty_rate=dirty_rate)
    return _CACHE[key]


@pytest.fixture(scope="session")
def bench_scale() -> float:
    return SCALE


def requires_scale(minimum: float) -> None:
    """Skip shape assertions that need realistically sized workloads.

    At smoke scales (REPRO_BENCH_SCALE ≲ 0.05) mini-batches get capped at the
    dataset size and the B/m regimes the paper contrasts collapse.
    """
    if SCALE < minimum:
        pytest.skip(
            f"needs REPRO_BENCH_SCALE >= {minimum} (currently {SCALE})"
        )
