"""Per-request timing accounting for the serving layer.

Every answered request contributes three samples — queueing wait, service
share, and end-to-end latency — which are aggregated through
:mod:`repro.eval.timing` order statistics (:class:`LatencySummary`).  A
:class:`StatsRecorder` is the thread-safe accumulator the fleet's worker
and submitter threads write into: it holds one raw :class:`StatsFrame`,
and :meth:`StatsRecorder.snapshot` summarizes a consistent copy of it
into a :class:`ServingStats` view at any moment.  Frames merge before
they are summarized, so fleet-wide (and cross-shard) percentiles are
order statistics over the pooled requests.

Counts are *conserved*: every submission ends in exactly one of
``answered``, ``failed`` or ``cancelled`` (or is still ``pending``), and
``rejected`` counts submissions that never entered the queue at all
(backpressure).  The same accounting is kept per SLA lane
(:class:`LaneStats`), so a ``deadline``-lane p99 can be read off directly.
Snapshots are isolated: mutating the recorder after
:meth:`~StatsRecorder.snapshot` never changes an already-taken snapshot.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from ..eval.timing import LatencySummary, summarize_latencies


@dataclass
class LaneStats:
    """One SLA lane's share of a server's lifetime counters and timings."""

    submitted: int
    answered: int
    failed: int
    cancelled: int
    rejected: int
    wait: LatencySummary | None  # enqueue -> dispatch
    service: LatencySummary | None  # dispatch -> answer
    latency: LatencySummary | None  # enqueue -> answer (end to end)
    # Submissions fast-failed because the model's circuit breaker was
    # open.  Like ``rejected``, these never entered the queue, so they
    # stay outside the pending conservation identity.
    quarantined: int = 0

    @property
    def pending(self) -> int:
        """Requests submitted but not yet answered, failed or cancelled."""
        return self.submitted - self.answered - self.failed - self.cancelled

    def as_dict(self) -> dict:
        """JSON-serializable form (for BENCH_fleet.json and friends)."""
        return {
            "submitted": self.submitted,
            "answered": self.answered,
            "failed": self.failed,
            "cancelled": self.cancelled,
            "rejected": self.rejected,
            "quarantined": self.quarantined,
            "wait": None if self.wait is None else self.wait.as_dict(),
            "service": None if self.service is None else self.service.as_dict(),
            "latency": None if self.latency is None else self.latency.as_dict(),
        }


@dataclass
class ServingStats:
    """A consistent snapshot of a server's lifetime counters and timings."""

    submitted: int
    answered: int
    failed: int
    cancelled: int
    rejected: int
    batches: int
    mean_batch_size: float
    wait: LatencySummary | None  # enqueue -> dispatch
    service: LatencySummary | None  # dispatch -> answer
    latency: LatencySummary | None  # enqueue -> answer (end to end)
    lanes: dict[str, LaneStats] = field(default_factory=dict)
    quarantined: int = 0  # fast-failed: circuit breaker open (see LaneStats)
    # Batches dispatched before their earliest member deadline because
    # no batch-mate was expected (neither full nor closing).
    early_batches: int = 0

    @property
    def pending(self) -> int:
        """Requests submitted but not yet answered, failed or cancelled."""
        return self.submitted - self.answered - self.failed - self.cancelled

    def lane(self, name: str) -> LaneStats:
        """One lane's accounting (a zeroed LaneStats if it saw no traffic)."""
        if name in self.lanes:
            return self.lanes[name]
        return LaneStats(0, 0, 0, 0, 0, None, None, None)

    def as_dict(self) -> dict:
        """JSON-serializable form (for BENCH_serving.json and friends)."""
        return {
            "submitted": self.submitted,
            "answered": self.answered,
            "failed": self.failed,
            "cancelled": self.cancelled,
            "rejected": self.rejected,
            "quarantined": self.quarantined,
            "batches": self.batches,
            "early_batches": self.early_batches,
            "mean_batch_size": self.mean_batch_size,
            "wait": None if self.wait is None else self.wait.as_dict(),
            "service": None if self.service is None else self.service.as_dict(),
            "latency": None if self.latency is None else self.latency.as_dict(),
            "lanes": {
                name: lane.as_dict() for name, lane in sorted(self.lanes.items())
            },
        }


@dataclass
class LaneFrame:
    """One lane's mergeable raw state (see :class:`StatsFrame`)."""

    submitted: int = 0
    answered: int = 0
    failed: int = 0
    cancelled: int = 0
    rejected: int = 0
    quarantined: int = 0
    waits: list[float] = field(default_factory=list)
    services: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)

    def merge(self, other: "LaneFrame") -> None:
        """Fold ``other`` into this frame in place."""
        self.submitted += other.submitted
        self.answered += other.answered
        self.failed += other.failed
        self.cancelled += other.cancelled
        self.rejected += other.rejected
        self.quarantined += other.quarantined
        self.waits.extend(other.waits)
        self.services.extend(other.services)
        self.latencies.extend(other.latencies)

    def summarize(self) -> LaneStats:
        return LaneStats(
            submitted=self.submitted,
            answered=self.answered,
            failed=self.failed,
            cancelled=self.cancelled,
            rejected=self.rejected,
            quarantined=self.quarantined,
            wait=summarize_latencies(self.waits),
            service=summarize_latencies(self.services),
            latency=summarize_latencies(self.latencies),
        )


@dataclass
class StatsFrame:
    """A mergeable, picklable carrier of one recorder's *raw* samples.

    Cross-process aggregation is where percentile statistics quietly go
    wrong: a p99 is an order statistic, and averaging (or even max-ing)
    per-shard p99s produces a number that is not the p99 of anything.
    A frame therefore carries the raw per-request samples plus the
    additive counters; :meth:`merge` concatenates samples and sums
    counts, and only :meth:`summarize` — called once, on the fully
    merged frame — computes order statistics, so a fleet-wide p99 is the
    true 99th percentile of the pooled requests.  Frames are plain data
    (lists and ints), so shard workers pickle them over their pipes.
    """

    submitted: int = 0
    answered: int = 0
    failed: int = 0
    cancelled: int = 0
    rejected: int = 0
    quarantined: int = 0
    batches: int = 0
    early_batches: int = 0
    batch_sizes: list[int] = field(default_factory=list)
    waits: list[float] = field(default_factory=list)
    services: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    lanes: dict[str, LaneFrame] = field(default_factory=dict)

    def merge(self, other: "StatsFrame") -> "StatsFrame":
        """Fold ``other`` into this frame in place; returns ``self``."""
        self.submitted += other.submitted
        self.answered += other.answered
        self.failed += other.failed
        self.cancelled += other.cancelled
        self.rejected += other.rejected
        self.quarantined += other.quarantined
        self.batches += other.batches
        self.early_batches += other.early_batches
        self.batch_sizes.extend(other.batch_sizes)
        self.waits.extend(other.waits)
        self.services.extend(other.services)
        self.latencies.extend(other.latencies)
        for name, lane in other.lanes.items():
            mine = self.lanes.get(name)
            if mine is None:
                mine = self.lanes[name] = LaneFrame()
            mine.merge(lane)
        return self

    @classmethod
    def merged(cls, frames) -> "StatsFrame":
        """A fresh frame holding the union of ``frames``."""
        total = cls()
        for frame in frames:
            total.merge(frame)
        return total

    def summarize(self) -> ServingStats:
        """Order statistics over the pooled samples (merge first)."""
        sizes = self.batch_sizes
        return ServingStats(
            submitted=self.submitted,
            answered=self.answered,
            failed=self.failed,
            cancelled=self.cancelled,
            rejected=self.rejected,
            quarantined=self.quarantined,
            batches=self.batches,
            early_batches=self.early_batches,
            mean_batch_size=(sum(sizes) / len(sizes) if sizes else 0.0),
            wait=summarize_latencies(self.waits),
            service=summarize_latencies(self.services),
            latency=summarize_latencies(self.latencies),
            lanes={
                name: lane.summarize() for name, lane in self.lanes.items()
            },
        )


class StatsRecorder:
    """Thread-safe accumulator of one :class:`StatsFrame` (one per model).

    Every ``record_*`` method takes the request's lane name (``None`` for
    unlaned callers: only the aggregate counters move).  A fleet keeps
    one recorder per model queue and merges their frames for its
    fleet-wide view, the same way the router merges shard frames.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._frame = StatsFrame()  # guarded-by: _lock

    # caller-holds: _lock
    def _lane(self, lane: str) -> LaneFrame:
        frame = self._frame.lanes.get(lane)
        if frame is None:
            frame = self._frame.lanes[lane] = LaneFrame()
        return frame

    # caller-holds: _lock
    def _count(self, counter: str, count: int, lanes) -> None:
        """Add ``count`` to the aggregate ``counter``, one per named lane."""
        setattr(self._frame, counter, getattr(self._frame, counter) + count)
        for lane in lanes:
            if lane is not None:
                frame = self._lane(lane)
                setattr(frame, counter, getattr(frame, counter) + 1)

    def record_submitted(self, lane: str | None = None) -> None:
        with self._lock:
            self._count("submitted", 1, (lane,))

    def record_rejected(self, lane: str | None = None) -> None:
        with self._lock:
            self._count("rejected", 1, (lane,))

    def record_quarantined(self, lane: str | None = None) -> None:
        """A submission fast-failed because the model's breaker was open."""
        with self._lock:
            self._count("quarantined", 1, (lane,))

    def record_noop(self, lane: str | None = None) -> None:
        """An empty submission answered inline (no batch dispatched)."""
        with self._lock:
            self._count("submitted", 1, (lane,))
            self._count("answered", 1, (lane,))

    def record_early(self) -> None:
        """A batch left before its earliest member deadline because no
        batch-mate was expected (the fleet's arrival-aware admission)."""
        with self._lock:
            self._frame.early_batches += 1

    def record_batch(
        self,
        waits: list[float],
        services: list[float],
        latencies: list[float],
        lanes: list[str | None] | None = None,
    ) -> None:
        """One dispatched batch's per-request samples (parallel lists)."""
        if lanes is None:
            lanes = [None] * len(waits)
        with self._lock:
            total = self._frame
            total.batches += 1
            total.batch_sizes.append(len(waits))
            self._count("answered", len(waits), lanes)
            total.waits.extend(waits)
            total.services.extend(services)
            total.latencies.extend(latencies)
            for lane, wait, service, latency in zip(
                lanes, waits, services, latencies
            ):
                if lane is not None:
                    frame = self._lane(lane)
                    frame.waits.append(wait)
                    frame.services.append(service)
                    frame.latencies.append(latency)

    def record_failed(
        self, count: int, lanes: list[str | None] | None = None
    ) -> None:
        with self._lock:
            self._count("failed", count, lanes or ())

    def record_cancelled(
        self, count: int, lanes: list[str | None] | None = None
    ) -> None:
        with self._lock:
            self._count("cancelled", count, lanes or ())

    def frame(self) -> StatsFrame:
        """A consistent copy of the raw state, ready to merge or pickle."""
        with self._lock:
            return StatsFrame.merged((self._frame,))

    def snapshot(self) -> ServingStats:
        return self.frame().summarize()
