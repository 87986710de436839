"""Injectable time for the serving layer.

Every deadline decision the serving layer makes — how long a batch may
coalesce, when an SLA lane's budget expires, what a request's measured
wait/latency was — goes through a :class:`Clock` instead of calling
:func:`time.perf_counter` directly.  Production servers use the default
:class:`MonotonicClock`; tests inject a fake (``tests/serving/harness.py``)
whose time only moves when the test advances it, so latency assertions are
*exact* and no test ever sleeps.

The clock owns the two operations where time and waiting interact:

* :meth:`Clock.now` — the current monotonic timestamp (seconds);
* :meth:`Clock.wait` — "wait on this condition for up to ``timeout``
  *clock* seconds", used by the fleet scheduler to sleep until the
  earliest lane deadline.  A fake clock consumes the budget in zero wall
  time; the real clock maps it onto :meth:`threading.Condition.wait`.

Timestamps are arbitrary-origin monotonic seconds: only differences are
meaningful, matching ``time.perf_counter`` semantics.
"""

from __future__ import annotations

import threading
import time


class Clock:
    """Interface the serving layer's deadline math is written against."""

    def now(self) -> float:
        """Current monotonic time in seconds (arbitrary origin)."""
        raise NotImplementedError

    def wait(self, condition: threading.Condition, timeout: float | None) -> bool:
        """Wait on ``condition`` (held by the caller) up to ``timeout``.

        ``timeout=None`` means "until notified" — idle waiting, which is
        real even under a fake clock.  Returns the underlying wait's
        verdict (False on timeout), though callers are expected to
        re-check their predicate either way.
        """
        raise NotImplementedError

    def timestamp(self) -> float:
        """An *epoch-meaningful* stamp for audit receipts.

        Unlike :meth:`now` this is allowed to mean something outside the
        process (commit receipts are compared across runs).  The default
        reuses :meth:`now` so fake clocks stay deterministic; the real
        clock answers with wall time.  This method is the sanctioned
        wall-clock seam — everything else routes through ``now()``.
        """
        return self.now()


class MonotonicClock(Clock):
    """Real wall time: ``time.perf_counter`` + genuinely blocking waits."""

    def now(self) -> float:
        return time.perf_counter()

    def timestamp(self) -> float:
        return time.time()

    def wait(self, condition: threading.Condition, timeout: float | None) -> bool:
        return condition.wait(timeout)


#: Shared default instance — the clock is stateless.
MONOTONIC_CLOCK = MonotonicClock()
