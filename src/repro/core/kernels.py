"""The replay entry point: one call per replay, over ``[start, end)``.

:meth:`~repro.core.replay_plan.ReplayPlan.run` hands every replay to
:func:`run_blocked`, which advances the weights through the plan's
per-iteration runner.  The per-iteration loops are the only replay
path: they handle hit-free and hit iterations alike.
"""

from __future__ import annotations

import numpy as np


def run_blocked(
    weights: np.ndarray,
    hits: dict,
    start: int,
    end: int,
    runner,
) -> tuple[np.ndarray, dict]:
    """Replay iterations ``[start, end)`` through ``runner``.

    Returns the advanced weights and a ``{"scalar_iterations": n}``
    tally.  It exists only as the replay layer's one named entry point:
    the repository benchmark's tracer (``perfbench/spans.py``) wraps
    ``kernels.run_blocked`` to time every replay and count the
    iterations it advanced.
    """
    weights = runner(weights, hits, start, end)
    return weights, {"scalar_iterations": max(0, end - start)}
