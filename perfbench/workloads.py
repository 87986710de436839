"""The three workloads: set-up, timed window, correctness gate.

Every workload drives the public serving API from this one process:

``query-warm``
    Cov, HIGGS and Heartbeat warmed in one :class:`FleetServer`.  An
    open-loop Poisson phase at the frozen :data:`OPEN_LOOP_RATE` gives
    latency (timed from each request's due time); a saturation phase of
    fixed :data:`BACKLOG` rounds gives throughput.  The two phases
    alternate :data:`CYCLES` times, and each percentile is the median of
    its per-cycle values, so a burst of load from outside the benchmark
    skews one cycle rather than the run.  After the window, serial probes
    through a ``ShardRouter(n_shards=2)`` over the same checkpoints must
    answer bit for bit like this process, and time the router's pipe hop.
``cold-churn``
    Three model ids backed by one Cov checkpoint behind
    ``ModelRegistry(max_resident=1)``; one closed-loop client cycles
    through them, so every request loads its model.
``erase-commit``
    HIGGS and Heartbeat in commit mode with an uncalibrated
    :class:`CostModel`; one closed-loop client sends erasures of 1-4
    ids, alternating models, in rounds of :data:`ERASE_ROUND`.  Each
    round ends with an answer-preserving maintenance pass through the
    fleet's maintenance lane and a ``save_dirty()`` sweep.  Commits make
    the model's state grow round by round, so this window is a fixed
    amount of work (:data:`ERASE_ROUNDS_PER_SECOND` times ``--seconds``
    rounds) rather than a fixed time: a faster program must not be
    measured on a larger model.

A fourth workload, query-warm's traffic through the router, was tried
and left out: on two shared cores, three busy processes amplified the
machine's run-to-run noise past the bounds (latency p90 spread 0.22 and
0.45 of the median in two sets of ten runs).
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro import (
    AdmissionPolicy,
    CostModel,
    FleetServer,
    IncrementalTrainer,
    MaintenancePolicy,
    ModelRegistry,
    ShardRouter,
)

import traffic
from measure import median
from models import fit_and_save

POLICY = AdmissionPolicy(max_batch=16, max_delay_seconds=0.005)
# One dispatch thread per fleet: with two, the threads' allocations made
# the peak PSS spread by 12% between identical runs, against 0.5% here.
N_WORKERS = 1
# Requests per second of the open-loop phase, frozen: about 30% of the
# 1000-1250 requests/s query-warm saturates at on a 2-core machine.
# Nearer half load, queueing amplified the machine's run-to-run noise
# in the latency percentiles beyond their bounds.
OPEN_LOOP_RATE = 350.0
OPEN_LOOP_SHARE = 0.6  # of the window; the rest is the saturation phase
CYCLES = 5  # open-loop and saturation phases alternate this many times
BACKLOG = 160  # requests submitted at once per saturation round
ERASE_ROUND = 16  # erasures between two maintenance-and-save sweeps
# Rounds per second of --seconds, frozen from a 2-core machine where the
# first four rounds took about ten seconds.
ERASE_ROUNDS_PER_SECOND = 0.4
ERASE_CAP = 0.4  # most of a model's samples one run may erase (mean 2.5 ids each)
# Answer-preserving (svd_epsilon=None), with limits frozen so that the
# pass at the end of each round re-truncates Heartbeat's widened SVD
# summaries (every ERASE_ROUND commits).  Stale PrIU-opt eigen state is
# left to the next query, which discharges it anyway.
MAINTENANCE = MaintenancePolicy(
    max_slot_garbage_rows=400,
    max_slot_garbage_fraction=0.0,
    max_svd_correction_columns=24,
    refresh_stale_eigen=False,
    svd_epsilon=None,
)
ATOL = 1e-10
SAMPLES_PER_MODEL = 4  # served answers re-derived per model by the gate
ROUTER_PROBES = 30  # serial requests through the router after query-warm
WAIT_SECONDS = 120.0


# ------------------------------------------------------------------ client
class Op:
    """One timed operation and the scalars of its answer.

    Served weights are kept only for the few ops the correctness gate
    re-derives, so the benchmark's own memory does not grow with the
    number of answers.
    """

    __slots__ = (
        "rid", "kind", "request", "due", "submitted", "done", "error",
        "answered", "wait", "served", "batch_size", "lane", "method",
        "weights", "keep",
    )

    def __init__(self, rid, kind, request, due=None, keep=False) -> None:
        self.rid = rid
        self.kind = kind
        self.request = request
        self.due = due
        self.keep = keep
        self.submitted = time.perf_counter()
        self.done = None
        self.error = None
        self.answered = False
        self.weights = None

    @property
    def latency(self) -> float:
        """Seconds from due time (open loop) or submission to the answer."""
        start = self.submitted if self.due is None else self.due
        return self.done - start

    def finish(self, error=None) -> "Op":
        self.done = time.perf_counter()
        self.error = error
        return self

    def record(self, outcome) -> None:
        """Keep what the metrics need from a ServedOutcome."""
        self.wait = outcome.wait_seconds
        self.served = outcome.latency_seconds
        self.batch_size = outcome.batch_size
        self.lane = outcome.lane
        self.method = outcome.method
        if self.keep:
            self.weights = outcome.weights
        self.answered = True


class Client:
    """Submits generated requests and timestamps each answer as it lands."""

    def __init__(self, server, tracer=None) -> None:
        self.server = server
        self.tracer = tracer
        self._ids = itertools.count()
        self._kept: dict[str, int] = {}
        self._outstanding = 0
        self._settled = threading.Condition()

    def send(self, request, due=None) -> Op:
        kept = self._kept.get(request.model, 0)
        self._kept[request.model] = kept + 1
        op = Op(next(self._ids), "query", request, due, keep=kept < SAMPLES_PER_MODEL)
        with self._settled:
            self._outstanding += 1
        try:
            future = self.server.submit(
                request.model, request.ids, lane=request.lane
            )
        except Exception as exc:  # rejected: counts as failed
            op.finish(repr(exc))
            self._settle()
            return op
        future.add_done_callback(functools.partial(self._answered, op))
        return op

    def _answered(self, op: Op, future) -> None:
        # Runs on the thread that resolved the future: inside the fleet
        # dispatch that answered it.
        op.done = time.perf_counter()
        if self.tracer is not None:
            self.tracer.note_answer(op.rid)
        try:
            op.record(future.result())
        except BaseException as exc:
            op.error = repr(exc)
        self._settle()

    def _settle(self) -> None:
        with self._settled:
            self._outstanding -= 1
            if self._outstanding == 0:
                self._settled.notify_all()

    def drain(self, ops) -> None:
        """Wait until every op sent so far is answered or failed."""
        with self._settled:
            self._settled.wait_for(lambda: self._outstanding == 0, WAIT_SECONDS)
        for op in ops:
            if op.done is None:
                op.finish("no answer")


# ------------------------------------------------------------------ phases
@dataclass
class Window:
    """What one timed window produced."""

    segments: list  # lists of the ops whose latency the workload reports
    ops: list = field(default_factory=list)  # every op sent in the window
    throughput: float = 0.0
    throughput_samples: int = 0
    late: list = field(default_factory=list)  # open-loop generator lateness

    @property
    def primary(self) -> list:
        return [op for segment in self.segments for op in segment]


def open_loop(client: Client, feed, duration: float) -> list[Op]:
    """Send each request at its due time, whatever the answers do."""
    ops = []
    base = None
    end = None
    for request in feed:
        if base is None:
            base = time.perf_counter() + 0.001 - request.due
            end = base + request.due + duration
        due = base + request.due
        if due >= end:
            break
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        ops.append(client.send(request, due=due))
    client.drain(ops)
    return ops


def saturate(client: Client, feed, duration: float):
    """Drain fixed backlogs submitted at once; requests/s of each round."""
    rates, ops = [], []
    end = time.perf_counter() + duration
    while True:
        batch = list(itertools.islice(feed, BACKLOG))
        started = time.perf_counter()
        round_ops = [client.send(request) for request in batch]
        client.drain(round_ops)
        rates.append(len(batch) / (time.perf_counter() - started))
        ops.extend(round_ops)
        if time.perf_counter() >= end:
            return rates, ops


def closed_loop(client: Client, feed, duration: float) -> list[Op]:
    """One request at a time, each sent when the previous one answered."""
    ops = []
    end = time.perf_counter() + duration
    for request in feed:
        op = client.send(request)
        client.drain([op])
        ops.append(op)
        if time.perf_counter() >= end:
            break
    return ops


def maintain(fleet: FleetServer, models) -> Op:
    """One maintenance pass over ``models`` through the maintenance lane."""
    op = Op(-1, "maintain", None)
    futures = [fleet.maintain(model, MAINTENANCE) for model in models]
    try:
        for future in futures:
            future.result(timeout=WAIT_SECONDS)
    except Exception as exc:
        return op.finish(repr(exc))
    return op.finish()


def durable_save(fleet: FleetServer, registry: ModelRegistry) -> Op:
    """One ``save_dirty()`` sweep that must leave no model dirty."""
    op = Op(-1, "save", None)
    fleet.flush(timeout=WAIT_SECONDS)
    outcomes = registry.save_dirty()
    failed = [model for model, outcome in outcomes.items() if not outcome.ok]
    dirty = registry.dirty_ids()
    return op.finish(f"not saved: {failed + list(dirty)}" if failed or dirty else None)


# --------------------------------------------------------------- workloads
@dataclass
class Stack:
    """One built set-up: the server and what the gate needs afterwards."""

    server: object
    registry: ModelRegistry | None
    trainers: dict  # the fitted (pristine) trainers by model id
    checkpoints: dict  # model id -> checkpoint directory
    warm_seconds: float = 0.0

    def close(self) -> None:
        self.server.close()


class Workload:
    name = ""
    keys: tuple = ()
    why = ""

    def __init__(self, size, seed, data) -> None:
        self.size = size
        self.seed = seed
        self.data = data
        self.streams = self.generate()
        self.router_hops: list[float] = []  # seconds, from the router probe

    def generate(self) -> dict[str, list]:
        raise NotImplementedError

    def feed(self) -> dict:
        """Fresh iterators over the streams: every window starts afresh."""
        raise NotImplementedError

    def build(self, scratch) -> Stack:
        raise NotImplementedError

    def window(self, stack: Stack, feed: dict, client: Client, seconds: float) -> Window:
        raise NotImplementedError

    def check(self, stack: Stack, windows: list[Window]) -> tuple[int, int, float]:
        """``(checks made, breaches, worst deviation)``, after the window.

        Closes the stack before touching any served trainer directly.
        """
        raise NotImplementedError

    def registry_stats(self, stack: Stack) -> dict | None:
        return None if stack.registry is None else stack.registry.stats()

    # -------------------------------------------------------------- helpers
    def sizes(self) -> dict[str, int]:
        return {key: self.data[key].n_samples for key in self.keys}

    def fit_all(self, scratch) -> tuple[dict, dict]:
        trainers, checkpoints = {}, {}
        for key in self.keys:
            directory = scratch.new_dir(key)
            trainers[key] = fit_and_save(self.size, key, self.data[key], directory)
            checkpoints[key] = directory
        return trainers, checkpoints

    def register(self, registry, checkpoints, model_ids=None, **kwargs) -> None:
        for model_id, key in (model_ids or {k: k for k in checkpoints}).items():
            registry.register(
                model_id,
                checkpoint=checkpoints[key],
                features=self.data[key].features,
                labels=self.data[key].labels,
                **kwargs,
            )


def _deviation(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def check_served(ops, trainer_for) -> tuple[int, int, float]:
    """Re-derive sampled served answers with a direct same-method remove."""
    checks = breaches = 0
    worst = 0.0
    for op in ops:
        if op.weights is None:
            continue
        direct = trainer_for(op.request.model).remove(
            op.request.ids, method=op.method
        )
        deviation = _deviation(op.weights, direct.weights)
        worst = max(worst, deviation)
        checks += 1
        breaches += not deviation <= ATOL
    return checks, breaches, worst


class QueryWarm(Workload):
    name = "query-warm"
    keys = ("cov", "heartbeat", "higgs")
    why = (
        "three warmed models in one FleetServer: replay and admission do "
        "the work; the control for load, store and commit changes"
    )

    def generate(self):
        duration = 60.0  # covers any --seconds up to a minute
        count = int(OPEN_LOOP_RATE * duration * OPEN_LOOP_SHARE) + 64
        sizes = self.sizes()
        seed = self.seed
        return {
            "warm": traffic.cycle_stream(
                seed, "warm", list(self.keys), min(sizes.values()), len(self.keys)
            ),
            "open": traffic.query_stream(
                seed, "open", sizes, count, rate=OPEN_LOOP_RATE
            ),
            "saturation": traffic.query_stream(seed, "saturation", sizes, 6 * BACKLOG),
        }

    def feed(self):
        return {
            "open": iter(self.streams["open"]),
            "saturation": itertools.cycle(self.streams["saturation"]),
        }

    def build(self, scratch) -> Stack:
        trainers, checkpoints = self.fit_all(scratch)
        registry = ModelRegistry()
        self.register(registry, checkpoints)
        server = FleetServer(registry, POLICY, n_workers=N_WORKERS)
        stack = Stack(server, registry, trainers, checkpoints)
        started = time.perf_counter()
        # Load every model and answer one request each, which also pays
        # the plan's lazy first-run checksum before the window.
        for request in self.streams["warm"]:
            server.submit(request.model, request.ids).result(timeout=WAIT_SECONDS)
        stack.warm_seconds = time.perf_counter() - started
        return stack

    def window(self, stack, feed, client, seconds):
        segments, ops, rates = [], [], []
        for _ in range(CYCLES):
            segment = open_loop(
                client, feed["open"], OPEN_LOOP_SHARE * seconds / CYCLES
            )
            cycle_rates, saturation_ops = saturate(
                client, feed["saturation"], (1 - OPEN_LOOP_SHARE) * seconds / CYCLES
            )
            segments.append(segment)
            ops += segment + saturation_ops
            rates += cycle_rates
        return Window(
            segments=segments,
            ops=ops,
            throughput=median(rates),
            throughput_samples=len(rates),
            late=[op.submitted - op.due for segment in segments for op in segment],
        )

    def check(self, stack, windows):
        """Sampled served answers must match a direct remove; serial
        router probes must match this process bit for bit.

        Served one at a time, every probe is a batch of one on both
        sides, where the engine's answers do not depend on batching.
        """
        probes = traffic.query_stream(self.seed, "probe", self.sizes(), ROUTER_PROBES)
        local = [
            stack.server.submit(p.model, p.ids, lane=p.lane).result(timeout=WAIT_SECONDS)
            for p in probes
        ]
        stack.close()
        routed = []
        with ShardRouter(n_shards=2, policy=POLICY, method=None, n_workers=1) as router:
            for key in self.keys:
                data = self.data[key]
                router.register(key, stack.checkpoints[key], data.features, data.labels)
            for request in self.streams["warm"]:
                router.submit(request.model, request.ids).result(timeout=WAIT_SECONDS)
            for p in probes:
                started = time.perf_counter()
                outcome = router.submit(p.model, p.ids, lane=p.lane).result(
                    timeout=WAIT_SECONDS
                )
                routed.append(outcome)
                self.router_hops.append(
                    time.perf_counter() - started - outcome.latency_seconds
                )
        breaches = sum(
            not np.array_equal(a.weights, b.weights) for a, b in zip(local, routed)
        )
        worst = max(_deviation(a.weights, b.weights) for a, b in zip(local, routed))
        ops = [op for window in windows for op in window.ops]
        checks, served_breaches, served_worst = check_served(ops, stack.registry.get)
        return (
            checks + len(probes),
            breaches + served_breaches,
            max(worst, served_worst),
        )


class ColdChurn(Workload):
    name = "cold-churn"
    keys = ("cov",)
    why = (
        "three ids on one Cov checkpoint behind max_resident=1, cycled so "
        "every request loads: the target for store-format changes"
    )
    MODEL_IDS = ("cov-0", "cov-1", "cov-2")

    def generate(self):
        n = self.data["cov"].n_samples
        return {
            "warm": traffic.cycle_stream(self.seed, "warm", list(self.MODEL_IDS), n, 3),
            "cycle": traffic.cycle_stream(self.seed, "cycle", list(self.MODEL_IDS), n, 300),
        }

    def feed(self):
        return {"cycle": itertools.cycle(self.streams["cycle"])}

    def build(self, scratch) -> Stack:
        trainers, checkpoints = self.fit_all(scratch)
        registry = ModelRegistry(max_resident=1)
        self.register(registry, checkpoints, {m: "cov" for m in self.MODEL_IDS})
        server = FleetServer(registry, POLICY, n_workers=N_WORKERS)
        stack = Stack(server, registry, trainers, checkpoints)
        started = time.perf_counter()
        for request in self.streams["warm"]:
            server.submit(request.model, request.ids).result(timeout=WAIT_SECONDS)
        stack.warm_seconds = time.perf_counter() - started
        return stack

    def window(self, stack, feed, client, seconds):
        started = time.perf_counter()
        ops = closed_loop(client, feed["cycle"], seconds)
        return Window(
            segments=[ops],
            ops=ops,
            throughput=len(ops) / (time.perf_counter() - started),
            throughput_samples=len(ops),
        )

    def check(self, stack, windows):
        stack.close()
        reference = IncrementalTrainer.from_checkpoint(
            stack.checkpoints["cov"],
            self.data["cov"].features,
            self.data["cov"].labels,
        )
        ops = [op for window in windows for op in window.ops]
        return check_served(ops, lambda model: reference)


class EraseCommit(Workload):
    name = "erase-commit"
    keys = ("heartbeat", "higgs")
    why = (
        "committed erasures with maintenance and save_dirty() rounds: the "
        "write path through compact, refresh and the journaled save"
    )
    N_PROBES = 3

    def generate(self):
        # Drawn in full, capped so no model loses more than ERASE_CAP of
        # its samples; the first erasure per model is the warm-up.
        sizes = self.sizes()
        count = int(ERASE_CAP * min(sizes.values()) / 2.5) * len(self.keys)
        return {"erase": traffic.erase_stream(self.seed, "erase", sizes, count)}

    def feed(self):
        return {"erase": iter(self.streams["erase"][len(self.keys):])}

    def build(self, scratch) -> Stack:
        trainers, checkpoints = self.fit_all(scratch)
        registry = ModelRegistry()
        self.register(registry, checkpoints, cost_model=CostModel())
        server = FleetServer(
            registry, POLICY, n_workers=N_WORKERS, commit_mode=True
        )
        stack = Stack(server, registry, trainers, checkpoints)
        started = time.perf_counter()
        for request in self.streams["erase"][: len(self.keys)]:
            server.submit(request.model, request.ids).result(timeout=WAIT_SECONDS)
        save = durable_save(server, registry)
        if save.error:
            raise RuntimeError(f"warm-up save failed: {save.error}")
        stack.warm_seconds = time.perf_counter() - started
        return stack

    def window(self, stack, feed, client, seconds):
        ops, sweeps = [], []
        started = time.perf_counter()
        for _ in range(max(1, round(ERASE_ROUNDS_PER_SECOND * seconds))):
            ops += closed_loop(
                client, itertools.islice(feed["erase"], ERASE_ROUND), math.inf
            )
            sweeps.append(maintain(stack.server, self.keys))
            sweeps.append(durable_save(stack.server, stack.registry))
        return Window(
            segments=[ops],
            ops=ops + sweeps,
            throughput=len(ops) / (time.perf_counter() - started),
            throughput_samples=len(ops),
        )

    def check(self, stack, windows):
        """A committed model answering T must equal the pristine model
        answering (committed ids ∪ T)."""
        stack.close()  # drains the fleet before the trainers are used directly
        rng = np.random.default_rng([self.seed, 7])
        checks = breaches = 0
        worst = 0.0
        for key in self.keys:
            committed = stack.registry.resident_trainer(key)
            pristine = stack.trainers[key]
            survivors = committed.store.survivor_original_ids()
            for _ in range(self.N_PROBES):
                size = max(1, round(traffic.DELETION_RATE * committed.n_samples))
                probe = np.sort(rng.choice(committed.n_samples, size, replace=False))
                answer = committed.remove(probe, method="priu").weights
                expected = pristine.remove(
                    np.union1d(committed.deletion_log, survivors[probe]),
                    method="priu",
                ).weights
                deviation = _deviation(answer, expected)
                worst = max(worst, deviation)
                checks += 1
                breaches += not deviation <= ATOL
        return checks, breaches, worst


WORKLOADS = {
    workload.name: workload for workload in (QueryWarm, ColdChurn, EraseCommit)
}
