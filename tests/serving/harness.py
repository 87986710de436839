"""Deterministic-clock test harness for the serving layer.

Two tools live here, both built on the serving layer's injectable
:class:`repro.serving.Clock`:

* :class:`FakeClock` — monotonic time that only moves when the test moves
  it.  In ``auto_advance`` mode (the default) any timed wait consumes its
  budget *instantly*: a coalescing worker that would sleep 20 ms of
  wall-clock instead advances fake time by 20 ms and dispatches at once,
  so whole serving runs finish in microseconds and every latency figure
  is exact, not ``>=``-fuzzy.  In manual mode (``auto_advance=False``)
  timed waits genuinely park until the test calls :meth:`advance` — the
  way to freeze a worker mid-coalesce and inject a deadline-lane request
  into its open batch.  A real-time safety valve (default 5 s) keeps a
  forgotten ``advance()`` from hanging the suite.

* :class:`StressDriver` — a seeded random interleaver for
  :class:`repro.serving.FleetServer`: submits across models and lanes,
  advances the clock, flushes, cancels, schedules background maintenance
  (``maintain_models``), probes cost estimates and maintenance-aware
  eviction (``cost_models``), snapshots stats, then closes and checks
  the serving invariants (every future — maintenance included — resolves
  exactly once; admission order within a lane; committed id-space
  consistency; stats conservation; cost-estimate coverage and
  monotonicity).  On any violation it raises with the seed and the full
  operation trace, so a failure replays with
  ``StressDriver(..., seed=<printed seed>)``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.maintenance import MaintenancePolicy
from repro.serving import BackpressureError, FleetServer, ModelQuarantinedError
from repro.serving.clock import Clock

#: Maintenance limits the ``cost`` op retires models under.
RETIRE_POLICY = MaintenancePolicy(
    max_slot_garbage_fraction=0.5, max_svd_correction_columns=48
)


class FakeClock(Clock):
    """A test-controlled monotonic clock (module docstring)."""

    def __init__(
        self,
        start: float = 0.0,
        auto_advance: bool = True,
        real_timeout: float = 5.0,
    ) -> None:
        self._now = float(start)
        self._auto = bool(auto_advance)
        self._valve = float(real_timeout)
        self._lock = threading.Lock()

    # ------------------------------------------------------------- control
    def now(self) -> float:
        with self._lock:
            return self._now

    def advance(self, seconds: float) -> float:
        """Move time forward; returns the new now()."""
        if seconds < 0:
            raise ValueError("time only moves forward")
        with self._lock:
            self._now += seconds
            return self._now

    def advance_to(self, timestamp: float) -> float:
        """Move time to an absolute instant (no-op if already past it)."""
        with self._lock:
            self._now = max(self._now, float(timestamp))
            return self._now

    # ----------------------------------------------------------- Clock API
    def wait(self, condition: threading.Condition, timeout: float | None) -> bool:
        if timeout is None:
            # Idle (deadline-free) waiting is real even under a fake
            # clock: it ends on notify, not on the passage of time.
            return condition.wait(self._valve)
        if self._auto:
            self.advance(timeout)
            # Briefly yield the condition's lock so submitters/notifiers
            # interleave the way a real timed wait would let them.
            condition.wait(0.0)
            return False
        # reprolint: allow[R005] wall-clock safety valve so a stuck test fails instead of hanging the suite
        valve_end = time.monotonic() + self._valve
        target = self.now() + timeout
        while self.now() < target:
            if condition.wait(0.001):
                return True
            # reprolint: allow[R005] wall-clock safety valve so a stuck test fails instead of hanging the suite
            if time.monotonic() >= valve_end:
                self.advance_to(target)
                return False
        return False


# ------------------------------------------------------------------ driver
@dataclass
class _Submitted:
    """One submitted request and everything needed to judge its outcome."""

    op_index: int
    model_id: str
    lane: str
    ids: np.ndarray
    future: object
    submit_order: int  # per (model, lane) submission counter


@dataclass
class StressReport:
    """What a stress run did, for assertions beyond the built-in invariants."""

    seed: int
    trace: list[str]
    submitted: list[_Submitted]
    rejected: int = 0
    cancelled_by_driver: int = 0
    flushes: int = 0
    empty_submits: int = 0
    # Chaos accounting: submissions fast-failed by an open circuit
    # breaker, and injected load faults armed by the driver.
    quarantined: int = 0
    load_faults: int = 0
    # Cost-model accounting: estimates the driver requested and
    # maintenance-aware retirements it performed.
    cost_estimates: int = 0
    retired: int = 0
    # Futures returned by fleet.maintain() calls the driver issued.
    maintenance: list = field(default_factory=list)

    def served(self) -> list[_Submitted]:
        return [
            s
            for s in self.submitted
            if not s.future.cancelled() and s.future.exception() is None
        ]


class InvariantViolation(AssertionError):
    """An invariant failed; the message carries the seed and the op trace."""


class StressDriver:
    """Seeded random interleaving of fleet operations (module docstring).

    Parameters
    ----------
    fleet:
        A started :class:`~repro.serving.FleetServer`.
    model_ids:
        Models to spread traffic over (must be registered).
    commit_models:
        Subset of ``model_ids`` the fleet serves in commit mode — the
        driver keeps a conservative live-id bound for them so every
        generated removal set stays valid no matter how batches land.
    lanes:
        Lane names to draw from.
    seed:
        The reproduction handle; printed on every violation.
    clock:
        The fleet's :class:`FakeClock` (advanced as one of the random
        operations); pass None when driving a real clock.
    maintain_models:
        Models the driver may randomly schedule ``fleet.maintain()`` on
        (typically the commit models — maintenance is what reclaims their
        commit garbage).  Empty (the default) disables the op.  Seeded
        traces replay only within one harness version: the op
        distribution consumes the rng, so reshaping it (as adding this
        op did) re-deals every later draw for old seeds.
    flaky / chaos_models:
        Fault injection: ``flaky`` is the registry's
        :class:`repro.testing.FlakyLoader` and ``chaos_models`` the
        models the driver may randomly evict and arm load faults on —
        either one transient fault (retried transparently) or enough to
        trip the model's circuit breaker.  Submissions the open breaker
        fast-fails are tallied in ``report.quarantined`` and checked
        against fleet stats.  ``chaos_models`` must be disjoint from
        ``commit_models`` and ``maintain_models``: a commit model is
        dirty (unevictable, so armed faults could never fire) and a
        quarantined maintenance target would fail its ticket.  Both
        default empty (chaos off), leaving old seeds' op distributions
        untouched.
    cost_models:
        Models whose trainers carry a
        :class:`~repro.core.costmodel.CostModel` (the test setup's job —
        attach it at registration or in the loader).  Enables the
        ``cost`` op: the driver flushes the fleet (estimates read live
        plan state, so in-flight dispatches must land first), asks the
        resident trainer for a subset and a superset estimate, checks
        the footprint predictions are monotone in request size, and may
        then exercise maintenance-aware eviction
        (``registry.retire(...)``).  Post-close, invariant I5 requires
        every served batch on these models to carry the pre-dispatch
        estimate (``ServedOutcome.predicted``).  May overlap
        ``commit_models`` (the flush quiesces the id space) and
        ``chaos_models`` (retire + armed load faults = maintenance-aware
        eviction under fault injection); keep it disjoint from
        ``maintain_models`` so a background maintenance ticket never
        mutates the plan mid-estimate.  Empty (the default) disables
        the op, leaving old seeds' op distributions untouched.
    monitor:
        Optional :class:`repro.testing.races.LockMonitor`.  The caller
        builds the fleet under ``monitor.capture()`` (so its locks are
        instrumented) and the driver adds invariant I6: the run must
        record no lock-order cycles and no lock-discipline errors.
        Purely observational — the op distribution and seeded traces are
        unchanged.
    """

    def __init__(
        self,
        fleet: FleetServer,
        model_ids: list[str],
        n_samples: dict[str, int],
        commit_models: set[str] = frozenset(),
        lanes: tuple[str, ...] = ("bulk", "deadline"),
        seed: int = 0,
        clock: FakeClock | None = None,
        max_ids_per_request: int = 4,
        maintain_models: set[str] = frozenset(),
        flaky=None,
        chaos_models: set[str] = frozenset(),
        cost_models: set[str] = frozenset(),
        monitor=None,
    ) -> None:
        self.fleet = fleet
        self.model_ids = list(model_ids)
        self.lanes = tuple(lanes)
        self.seed = seed
        self.clock = clock
        self.rng = np.random.default_rng(seed)
        self.max_ids = max_ids_per_request
        self.commit_models = set(commit_models)
        self.maintain_models = sorted(maintain_models)
        self.flaky = flaky
        self.chaos_models = sorted(chaos_models)
        if set(chaos_models) & self.commit_models:
            raise ValueError("chaos_models must be disjoint from commit_models")
        if set(chaos_models) & set(maintain_models):
            raise ValueError(
                "chaos_models must be disjoint from maintain_models"
            )
        self.cost_models = sorted(cost_models)
        if set(cost_models) & set(maintain_models):
            raise ValueError(
                "cost_models must be disjoint from maintain_models"
            )
        # Conservative per-model live bound: every id ever submitted for a
        # commit model *may* end up committed, so drawing below
        # initial_n - total_submitted is always valid in any id space the
        # request is eventually translated into.
        self._bound = dict(n_samples)
        self._initial_n = dict(n_samples)
        self._order: dict[tuple[str, str], int] = {}
        # Optional repro.testing.races.LockMonitor: the fleet under test
        # was built under monitor.capture(), and invariant I6 requires
        # the run to finish with no lock-order cycles or discipline
        # errors recorded.
        self.monitor = monitor
        self.report = StressReport(seed=seed, trace=[], submitted=[])

    # ------------------------------------------------------------- running
    def _trace(self, message: str) -> None:
        self.report.trace.append(f"[op {len(self.report.trace):4d}] {message}")

    def _pick_submit(self, op_index: int) -> None:
        model_id = self.model_ids[self.rng.integers(len(self.model_ids))]
        lane = self.lanes[self.rng.integers(len(self.lanes))]
        bound = self._bound[model_id]
        if bound <= self.max_ids + 1:
            self._trace(f"skip submit {model_id}: id space exhausted")
            return
        k = int(self.rng.integers(1, self.max_ids + 1))
        ids = np.sort(
            self.rng.choice(bound, size=k, replace=False)
        ).astype(np.int64)
        try:
            future = self.fleet.submit(model_id, ids, lane=lane, block=False)
        except BackpressureError:
            self.report.rejected += 1
            self._trace(f"submit {model_id}/{lane} {ids.tolist()} -> REJECTED")
            return
        except ModelQuarantinedError:
            self.report.quarantined += 1
            self._trace(
                f"submit {model_id}/{lane} {ids.tolist()} -> QUARANTINED"
            )
            return
        order_key = (model_id, lane)
        order = self._order.get(order_key, 0)
        self._order[order_key] = order + 1
        if model_id in self.commit_models:
            self._bound[model_id] -= k
        self.report.submitted.append(
            _Submitted(
                op_index=op_index,
                model_id=model_id,
                lane=lane,
                ids=ids,
                future=future,
                submit_order=order,
            )
        )
        self._trace(f"submit {model_id}/{lane} {ids.tolist()}")

    def _cost_op(self) -> None:
        """Estimate a subset/superset pair; maybe retire the model.

        The flush quiesces the fleet first: estimates read live plan
        state (the packed occurrence index) and ``retire`` checkpoints
        the live trainer, so no dispatch may be in flight on the model.
        """
        model_id = self.cost_models[self.rng.integers(len(self.cost_models))]
        self.fleet.flush(timeout=30)
        trainer = self.fleet.registry.resident_trainer(model_id)
        if trainer is None or getattr(trainer, "cost_model", None) is None:
            self._trace(f"cost {model_id}: not resident, skipped")
            return
        bound = self._bound[model_id]
        if bound > self.max_ids + 2:
            k = int(self.rng.integers(1, self.max_ids + 1))
            superset = np.sort(
                self.rng.choice(bound, size=k + 1, replace=False)
            ).astype(np.int64)
            small = trainer.estimate_removal(superset[:k])
            large = trainer.estimate_removal(superset)
            self.report.cost_estimates += 2
            # I5a — footprint estimates are monotone in request size: a
            # superset can only touch at least as much of the schedule.
            # (Patch *bytes* are deliberately not monotone: dropping more
            # occurrence rows shrinks the surviving flats.)
            for attr in (
                "n_removed",
                "touched_occurrences",
                "touched_iterations",
                "touched_fraction",
                "svd_width_growth",
            ):
                self._check(
                    getattr(large, attr) >= getattr(small, attr),
                    f"cost estimate not monotone for {model_id}: "
                    f"{attr} {getattr(large, attr)} < {getattr(small, attr)} "
                    f"(superset {superset.tolist()})",
                )
            self._trace(
                f"cost {model_id}: {superset[:k].tolist()} vs "
                f"{superset.tolist()} monotone"
            )
        if self.rng.random() < 0.5:
            retired = self.fleet.registry.retire(
                model_id, policy=RETIRE_POLICY
            )
            if retired:
                self.report.retired += 1
            self._trace(f"cost {model_id}: retire -> {retired}")

    def run(self, n_ops: int) -> StressReport:
        """Execute ``n_ops`` random operations, close the fleet, check."""
        for op_index in range(n_ops):
            roll = self.rng.random()
            if roll < 0.70:
                self._pick_submit(op_index)
            elif roll < 0.80 and self.clock is not None:
                dt = float(self.rng.uniform(0.001, 0.05))
                self.clock.advance(dt)
                self._trace(f"advance {dt * 1e3:.1f} ms")
            elif roll < 0.82 and self.maintain_models:
                model_id = self.maintain_models[
                    self.rng.integers(len(self.maintain_models))
                ]
                self.report.maintenance.append(
                    (model_id, self.fleet.maintain(model_id))
                )
                self._trace(f"maintain {model_id}")
            elif roll < 0.88:
                self.fleet.flush(timeout=30)
                self.report.flushes += 1
                self._trace("flush")
            elif roll < 0.93 and self.report.submitted:
                victim = self.report.submitted[
                    self.rng.integers(len(self.report.submitted))
                ]
                if victim.future.cancel():
                    self.report.cancelled_by_driver += 1
                    self._trace(
                        f"cancel {victim.model_id}/{victim.lane} "
                        f"(op {victim.op_index}) -> cancelled"
                    )
                else:
                    self._trace(
                        f"cancel (op {victim.op_index}) -> too late"
                    )
            elif roll < 0.945 and self.cost_models:
                self._cost_op()
            elif (
                roll < 0.955 and self.chaos_models and self.flaky is not None
            ):
                model_id = self.chaos_models[
                    self.rng.integers(len(self.chaos_models))
                ]
                retry = self.fleet.retry
                if self.rng.random() < 0.5:
                    n = 1  # one transient fault: retried transparently
                else:
                    # Enough for every retried dispatch to fail until the
                    # breaker opens.
                    n = retry.load_attempts * retry.quarantine_after
                # Flush first (as the cost op does): a dispatch still in
                # flight pins the model, so evict() would refuse and the
                # armed faults could never reach a load.
                self.fleet.flush(timeout=30)
                evicted = self.fleet.registry.evict(model_id)
                self.flaky.fail_next(model_id, n)
                self.report.load_faults += n
                self._trace(
                    f"chaos {model_id}: evicted={evicted}, "
                    f"armed {n} load fault(s)"
                )
            else:
                model_id = self.model_ids[
                    self.rng.integers(len(self.model_ids))
                ]
                stats = self.fleet.stats(model_id)
                self._trace(
                    f"stats {model_id}: submitted={stats.submitted} "
                    f"answered={stats.answered}"
                )
                self._check(
                    stats.pending >= 0,
                    f"mid-run negative pending for {model_id}",
                )
        self.fleet.close(wait=True)
        self._trace("close")
        self.check_invariants()
        return self.report

    # ---------------------------------------------------------- invariants
    def _check(self, condition: bool, message: str) -> None:
        if not condition:
            raise InvariantViolation(
                f"{message}\n  seed: {self.seed}\n  trace:\n    "
                + "\n    ".join(self.report.trace)
            )

    def check_invariants(self) -> None:
        """The serving invariants, post-close (module docstring)."""
        # I0 — every maintenance run the driver scheduled resolved with a
        # report (close() drains the maintenance backlog before exiting).
        for model_id, future in self.report.maintenance:
            self._check(
                future.done(),
                f"unresolved maintenance future for {model_id}",
            )
            self._check(
                future.exception() is None,
                f"maintenance failed for {model_id}: {future.exception()!r}",
            )
        # I1 — every future resolves exactly once (done + exactly one of
        # cancelled / exception / result; Future enforces at-most-once,
        # the harness enforces at-least-once, i.e. nothing leaked).
        for submitted in self.report.submitted:
            future = submitted.future
            self._check(
                future.done(),
                f"unresolved future: op {submitted.op_index} "
                f"{submitted.model_id}/{submitted.lane}",
            )
            if not future.cancelled() and future.exception() is None:
                outcome = future.result()
                self._check(
                    outcome.model_id == submitted.model_id
                    and outcome.lane == submitted.lane,
                    f"outcome mislabeled: op {submitted.op_index} got "
                    f"{outcome.model_id}/{outcome.lane}",
                )

        # I2 — admission order respected within a lane: for each (model,
        # lane), dispatch coordinates (batch_seq, batch_rank) are strictly
        # increasing in submission order.
        by_lane: dict[tuple[str, str], list[_Submitted]] = {}
        for submitted in self.report.served():
            by_lane.setdefault(
                (submitted.model_id, submitted.lane), []
            ).append(submitted)
        for (model_id, lane), members in by_lane.items():
            members.sort(key=lambda s: s.submit_order)
            coords = [
                (s.future.result().batch_seq, s.future.result().batch_rank)
                for s in members
            ]
            self._check(
                coords == sorted(coords) and len(set(coords)) == len(coords),
                f"admission order violated in {model_id}/{lane}: {coords}",
            )

        # I3 — stats conserve request counts, per model and fleet-wide,
        # and the lane split sums back to the aggregate.
        totals = {
            "submitted": 0,
            "answered": 0,
            "failed": 0,
            "cancelled": 0,
            "quarantined": 0,
        }
        for model_id in self.model_ids:
            stats = self.fleet.stats(model_id)
            self._check(
                stats.pending == 0,
                f"{model_id}: pending != 0 after close ({stats.pending})",
            )
            self._check(
                stats.submitted
                == stats.answered + stats.failed + stats.cancelled,
                f"{model_id}: counts not conserved ({stats.as_dict()})",
            )
            lane_sum = {key: 0 for key in totals}
            for lane_stats in stats.lanes.values():
                lane_sum["submitted"] += lane_stats.submitted
                lane_sum["answered"] += lane_stats.answered
                lane_sum["failed"] += lane_stats.failed
                lane_sum["cancelled"] += lane_stats.cancelled
                lane_sum["quarantined"] += lane_stats.quarantined
            for key, value in lane_sum.items():
                self._check(
                    value == getattr(stats, key),
                    f"{model_id}: lane {key} sum {value} != "
                    f"aggregate {getattr(stats, key)}",
                )
            for key in totals:
                totals[key] += getattr(stats, key)
        fleet_stats = self.fleet.stats()
        for key, value in totals.items():
            self._check(
                value == getattr(fleet_stats, key),
                f"fleet {key} {getattr(fleet_stats, key)} != "
                f"model sum {value}",
            )
        self._check(
            fleet_stats.rejected == self.report.rejected,
            f"fleet rejected {fleet_stats.rejected} != driver-observed "
            f"{self.report.rejected}",
        )
        self._check(
            fleet_stats.quarantined == self.report.quarantined,
            f"fleet quarantined {fleet_stats.quarantined} != "
            f"driver-observed {self.report.quarantined}",
        )

        # I5 — cost-model coverage: every served batch on a cost model
        # carries the pre-dispatch estimate, and it is well-formed.
        cost_set = set(self.cost_models)
        for submitted in self.report.served():
            if submitted.model_id not in cost_set:
                continue
            predicted = submitted.future.result().predicted
            self._check(
                predicted is not None,
                f"served batch without a cost estimate: op "
                f"{submitted.op_index} {submitted.model_id}/{submitted.lane}",
            )
            self._check(
                predicted["mode"] in ("refresh", "unsupported")
                and predicted["n_removed"] >= 0
                and predicted["plan_patch_bytes"] >= 0,
                f"malformed cost estimate on op {submitted.op_index}: "
                f"{predicted}",
            )

        # I4 — committed id-space consistency: each commit model's
        # deletion log is duplicate-free, in-bounds, and exactly accounts
        # for the shrink of its id space.
        for model_id in self.commit_models:
            trainer = self.fleet.registry.resident_trainer(model_id)
            if trainer is None:  # no commit ever dispatched -> may be cold
                continue
            log = trainer.deletion_log
            self._check(
                np.unique(log).size == log.size,
                f"{model_id}: duplicate original ids in deletion log",
            )
            initial = self._initial_n[model_id]
            self._check(
                trainer.n_samples == initial - log.size,
                f"{model_id}: n_samples {trainer.n_samples} != "
                f"{initial} - {log.size}",
            )
            if log.size:
                self._check(
                    0 <= int(log.min()) and int(log.max()) < initial,
                    f"{model_id}: deletion log out of original bounds",
                )

        # I6 — under lock instrumentation, the whole run recorded no
        # acquisition-order cycle and no discipline error: a cycle is a
        # deadlock hazard even if this interleaving never hung.
        if self.monitor is not None:
            cycles = self.monitor.cycles()
            self._check(
                not cycles and not self.monitor.discipline_errors,
                "lock hazards recorded: "
                f"cycles={cycles} discipline="
                f"{[str(e) for e in self.monitor.discipline_errors]}",
            )
