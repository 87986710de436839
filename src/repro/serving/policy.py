"""Admission control: when does a queued deletion request get dispatched?

The batched replay engine (:meth:`repro.IncrementalTrainer.remove_many`)
amortizes each iteration's GEMM over K concurrent requests, but real
deletion traffic arrives one request at a time.  An
:class:`AdmissionPolicy` trades per-request latency for batching
efficiency the way serving systems do:

* **coalesce** — hold the oldest waiting request for at most
  ``max_delay_seconds`` while later arrivals join its batch, unless no
  later arrival is expected before that budget runs out (below);
* **cap** — dispatch immediately once ``max_batch`` requests are
  collected (one ``remove_many`` call never exceeds it);
* **bound** — reject new submissions once ``max_pending`` requests are
  queued (backpressure instead of unbounded memory growth).

With ``max_delay_seconds=0`` the server degenerates to sequential
single-request service; with a generous delay and a large ``max_batch``
it approaches the throughput of one ``remove_many(K)`` call.

Arrival-aware admission
-----------------------
Holding a batch open only pays when someone joins it.  The fleet keeps,
per model, an EWMA of the gaps between arrivals on its injectable
clock, and sends a batch that is not full out at once when the next
expected arrival (``last arrival + estimated gap``) falls after the
batch's earliest member deadline.  A closed-loop client with one
request outstanding therefore stops paying the budget, while a burst
(gaps near zero) still fills its batch.  The rule adds no knob: the
EWMA weight and the warm-up (the first few arrivals of a model always
wait out their budget) are fleet constants.  It can only make a batch
leave earlier — the budgets below stay hard upper bounds — and it only
changes how requests group into batches, never their order.

SLA lanes
---------
Not all deletion traffic tolerates coalescing delay equally: a GDPR
deadline request must go out *now*, while a bulk data-cleaning sweep is
happy to wait for a full batch.  A policy therefore carries a set of
:class:`Lane` classes; every submission names one (default
``default_lane``).  Lanes shape admission in two ways:

* **ordering** — queued requests dispatch in ``(lane.priority,
  submission order)`` order, so a deadline request never sits behind a
  full bulk backlog: it is always in the *next* dispatched batch;
* **budget** — a queued batch dispatches once its *earliest* member
  deadline (``enqueued_at + lane delay``) passes.  A lane with
  ``max_delay_seconds=0`` (the default ``"deadline"`` lane) therefore
  forces immediate dispatch of whatever batch it joins — queued bulk
  requests may still ride along for free, but nobody waits on their
  account.

Within a lane, admission order is always submission order.  Priority
is strict: a sustained flood of higher-priority traffic holds lower
lanes back until it drains.

The fleet additionally ships a stock lowest-priority ``maintenance``
lane: background :meth:`~repro.core.api.IncrementalTrainer.maintain`
work dispatches under its priority, i.e. only when a model has no
queued deletion traffic at all (see :mod:`repro.serving.fleet`).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Lane:
    """One SLA class of deletion traffic.

    ``max_delay_seconds=None`` inherits the policy's default coalescing
    budget; ``0.0`` means "dispatch the batch I join immediately".
    Lower ``priority`` values dispatch first.
    """

    name: str
    max_delay_seconds: float | None = None
    priority: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("lane name must be non-empty")
        if self.max_delay_seconds is not None and self.max_delay_seconds < 0.0:
            raise ValueError("lane max_delay_seconds must be >= 0 (or None)")


#: Priority of the stock background-maintenance lane: sorts behind every
#: plausible traffic lane, so maintenance work dispatches only when a
#: model's queue is otherwise empty.
MAINTENANCE_PRIORITY = 1_000_000

#: The default SLA classes: ``deadline`` pre-empts coalescing entirely
#: (GDPR-style traffic), ``bulk`` inherits the policy's delay budget, and
#: ``maintenance`` is the lowest-priority background lane the fleet
#: schedules :meth:`~repro.core.api.IncrementalTrainer.maintain` work on.
DEFAULT_LANES = (
    Lane("deadline", max_delay_seconds=0.0, priority=0),
    Lane("bulk", max_delay_seconds=None, priority=10),
    # Inherits the policy's coalescing budget: a user-submitted request on
    # this lane must never *shorten* a batch's delay the way the
    # zero-delay deadline lane does — background traffic rides along, it
    # does not force dispatch.  (Fleet maintenance tickets live outside
    # the request heap entirely and ignore the delay.)
    Lane("maintenance", max_delay_seconds=None, priority=MAINTENANCE_PRIORITY),
)


@dataclass(frozen=True)
class AdmissionPolicy:
    """Batching/backpressure knobs for :class:`~repro.serving.FleetServer`.

    The single-model :class:`~repro.serving.DeletionServer` takes the same
    policy and hands it to its one-model fleet.  An empty removal set
    never reaches a batch: ``submit`` answers it immediately with a
    no-op outcome, occupying neither a batch slot nor a queue slot (in a
    batch it would dilute the admission cap and, in commit mode, count
    as a vacuous committed request).

    ``lanes`` / ``default_lane`` configure the SLA classes (module
    docstring).  The stock policy ships a zero-delay ``"deadline"`` lane,
    a ``"bulk"`` lane inheriting ``max_delay_seconds``, and the
    lowest-priority background ``"maintenance"`` lane; submissions that
    don't name a lane ride in ``default_lane``.

    A batch dispatches once it holds ``max_batch`` requests, once its
    earliest member deadline passes, or — earlier — once the model's
    arrival estimate expects no batch-mate before that deadline (module
    docstring).
    """

    max_batch: int = 16
    max_delay_seconds: float = 0.02
    max_pending: int = 1024
    lanes: tuple[Lane, ...] = DEFAULT_LANES
    default_lane: str = "bulk"
    # Derived name -> Lane map (not part of the public constructor).
    _lane_map: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_delay_seconds < 0.0:
            raise ValueError("max_delay_seconds must be >= 0")
        if self.max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if not self.lanes:
            raise ValueError("at least one lane is required")
        lane_map = {}
        for lane in self.lanes:
            if not isinstance(lane, Lane):
                raise TypeError(f"lanes must be Lane instances, got {lane!r}")
            if lane.name in lane_map:
                raise ValueError(f"duplicate lane name: {lane.name!r}")
            lane_map[lane.name] = lane
        if self.default_lane not in lane_map:
            raise ValueError(
                f"default_lane {self.default_lane!r} is not a configured lane "
                f"(have: {sorted(lane_map)})"
            )
        object.__setattr__(self, "_lane_map", lane_map)

    # ---------------------------------------------------------------- lanes
    @property
    def lane_names(self) -> tuple[str, ...]:
        """Configured lane names, in declaration order."""
        return tuple(lane.name for lane in self.lanes)

    def lane(self, name: str | None) -> Lane:
        """Resolve a lane by name (``None`` -> the default lane)."""
        if name is None:
            name = self.default_lane
        try:
            return self._lane_map[name]
        except KeyError:
            raise ValueError(
                f"unknown lane {name!r} (have: {sorted(self._lane_map)})"
            ) from None

    def delay_for(self, name: str | None) -> float:
        """The coalescing budget of one lane (``None`` delay -> policy default)."""
        lane = self.lane(name)
        if lane.max_delay_seconds is None:
            return self.max_delay_seconds
        return lane.max_delay_seconds
