"""Percentiles and the memory sampler."""

from __future__ import annotations

import os
import threading

import numpy as np

from repro.eval import pss_bytes


def percentile(values, q: float) -> float:
    """The ``q``-th percentile of ``values`` (0.0 when there are none)."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values) -> float:
    return percentile(values, 50)


class PssSampler:
    """Samples this process's PSS on a background thread.

    Only samples taken between :meth:`start` and :meth:`stop` count
    toward :attr:`peak`, so set-up (capture) stays out of it.
    """

    def __init__(self, interval: float = 0.1) -> None:
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="perfbench-pss", daemon=True
        )
        self.peak = 0

    def _sample(self) -> None:
        self.peak = max(self.peak, pss_bytes(os.getpid()) or 0)

    def _loop(self) -> None:
        while not self._stop.wait(self._interval):
            self._sample()

    def start(self) -> "PssSampler":
        self._sample()
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()
