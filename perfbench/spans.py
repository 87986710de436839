"""Spans around the public entry points of each layer, for traced runs.

The benchmark does not instrument the program: it wraps public names
from its own files, records one span per call (name, start, end, parent,
thread, request ids) in memory, and writes them as JSON lines when the
run ends.  A name is wrapped where its caller looks it up, e.g.
``repro.core.api.load_store`` (``from_checkpoint`` calls the name it
imported into ``repro.core.api``), not ``repro.core.serialization``.

``ModelRegistry.pin`` / ``unpin`` bracket every fleet dispatch (a batch
or a background maintenance run), so the pair opens and closes the
``fleet.dispatch`` span that the layers' calls nest under.  A request's
answer is linked to the dispatch span that produced it by
:meth:`Tracer.note_answer`, called from the request future's
done-callback, which runs on the dispatching thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import threading
import time
from collections import Counter

# (module where the caller looks the name up, attribute path, span name)
ENTRY_POINTS = (
    ("repro.serving.fleet", "FleetServer.submit", "fleet.submit"),
    ("repro.serving.fleet", "ModelRegistry.get", "registry.get"),
    ("repro.serving.fleet", "ModelRegistry.save_dirty", "registry.save_dirty"),
    ("repro.serving.router", "ShardRouter.submit", "router.submit"),
    ("repro.core.api", "IncrementalTrainer.fit", "capture.fit"),
    ("repro.core.api", "train_with_capture", "capture.train"),
    ("repro.core.api", "IncrementalTrainer.from_checkpoint", "trainer.from_checkpoint"),
    ("repro.core.api", "IncrementalTrainer.remove_many", "trainer.remove_many"),
    ("repro.core.api", "IncrementalTrainer.save_checkpoint", "trainer.save_checkpoint"),
    ("repro.core.api", "IncrementalTrainer.maintain", "maintenance.maintain"),
    ("repro.core.api", "recover_checkpoint", "serialization.recover"),
    ("repro.core.api", "load_store", "serialization.load_store"),
    ("repro.core.api", "load_plan", "serialization.load_plan"),
    ("repro.core.api", "save_store", "serialization.save_store"),
    ("repro.core.api", "save_plan", "serialization.save_plan"),
    ("repro.core.api", "commit_checkpoint", "serialization.commit_checkpoint"),
    ("repro.core.replay_plan", "ReplayPlan.run", "replay.run"),
    ("repro.core.replay_plan", "ReplayPlan.refresh", "replay.refresh"),
    ("repro.core.replay_plan", "ReplayPlan.verify_integrity", "replay.verify"),
    ("repro.core.kernels", "run_blocked", "kernel.run_blocked"),
    ("repro.core.priu_opt", "PrIUOptLogisticUpdater.update_many", "opt.update_many"),
    ("repro.core.priu_opt", "PrIUOptLinearUpdater.update_many", "opt.update_many"),
    ("repro.core.provenance_store", "ProvenanceStore.compact", "store.compact"),
    ("repro.core.provenance_store", "ProvenanceStore.retruncate_summaries", "store.retruncate"),
    ("repro.core.costmodel", "CostModel.estimate", "costmodel.estimate"),
)

# Span-name prefix -> the repository module (layer) it measures.
LAYERS = {
    "fleet": "serving.fleet",
    "registry": "serving.fleet",
    "router": "serving.router",
    "capture": "core.capture",
    "trainer": "core.api",
    "serialization": "core.serialization",
    "replay": "core.replay_plan",
    "kernel": "core.kernels",
    "opt": "core.priu_opt",
    "store": "core.provenance_store",
    "costmodel": "core.costmodel",
    "maintenance": "core.maintenance",
}

DISPATCH = "fleet.dispatch"


def layer_of(name: str) -> str:
    return LAYERS[name.split(".", 1)[0]]


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "thread", "phase", "requests")

    def __init__(self, id, name, start, parent, thread, phase):
        self.id = id
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.thread = thread
        self.phase = phase
        self.requests = None

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "layer": layer_of(self.name),
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "thread": self.thread,
            "phase": self.phase,
            "requests": self.requests,
        }


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class Tracer:
    """Records spans while installed; :meth:`uninstall` restores every name."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    # ----------------------------------------------------------- recording
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(
            next(self._ids),
            name,
            time.perf_counter(),
            stack[-1].id if stack else None,
            threading.get_ident(),
            self.phase,
        )
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)

    def note_answer(self, request_id) -> None:
        """Link an answered request to the dispatch span running it."""
        stack = getattr(self._local, "stack", None)
        if not stack:
            return
        root = stack[0]
        if root.requests is None:
            root.requests = []
        root.requests.append(request_id)

    # ------------------------------------------------------------- wrapping
    def _wrapped(self, function, name: str):
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.close(span)
            tracer._count(name, args, result)
            return result

        return wrapper

    def _count(self, name: str, args, result) -> None:
        counters = self.counters
        if name == "serialization.load_store":
            counters["bytes_read"] += _file_size(args[0])
        elif name == "serialization.load_plan":
            counters["bytes_read"] += _file_size(args[0])
        elif name in ("serialization.save_store", "serialization.save_plan"):
            counters["bytes_written"] += _file_size(result)
        elif name == "kernel.run_blocked":
            tally = result[1]
            counters["fused_iterations"] += tally.get("fused_iterations", 0)
            counters["scalar_iterations"] += tally.get("scalar_iterations", 0)
        elif name == "trainer.remove_many":
            counters["remove_many_calls"] += 1
            counters["remove_many_sets"] += len(result)

    def _replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._saved:
            return
        for module_name, path, name in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = inspect.getattr_static(owner, attr)
            if isinstance(original, classmethod):
                value = classmethod(self._wrapped(original.__func__, name))
            else:
                value = self._wrapped(original, name)
            self._replace(owner, attr, value)
        self._install_dispatch()

    def _install_dispatch(self) -> None:
        from repro.serving.fleet import ModelRegistry

        tracer = self
        pin = ModelRegistry.pin
        unpin = ModelRegistry.unpin

        @functools.wraps(pin)
        def traced_pin(registry, model_id):
            pin(registry, model_id)
            tracer.open(DISPATCH)

        @functools.wraps(unpin)
        def traced_unpin(registry, model_id):
            stack = tracer._stack()
            for span in reversed(stack):
                if span.name == DISPATCH:
                    tracer.close(span)
                    break
            unpin(registry, model_id)

        self._replace(ModelRegistry, "pin", traced_pin)
        self._replace(ModelRegistry, "unpin", traced_unpin)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # --------------------------------------------------------------- export
    def write_jsonl(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover."""
    own = {span.id: span.end - span.start for span in spans if span.end}
    for span in spans:
        if span.end and span.parent in own:
            own[span.parent] -= span.end - span.start
    return own


def span_cost(calls: int = 20000) -> float:
    """Seconds one recorded span adds to a call, measured here and now."""

    def bare():
        return None

    wrapped = Tracer()._wrapped(bare, "trace.probe")
    started = time.perf_counter()
    for _ in range(calls):
        bare()
    plain = time.perf_counter() - started
    started = time.perf_counter()
    for _ in range(calls):
        wrapped()
    return max(0.0, (time.perf_counter() - started - plain) / calls)
