"""Fault injection for the durability protocol and the serving fleet.

The serialization layer announces every step of its write protocol through
a process-global hook (:func:`repro.core.serialization.set_fault_hook`):
``store.temp-written``, ``plan.renamed``, ``commit.rename.store.npz``, and
so on.  :class:`FaultInjector` scripts what happens at those points —
raise, simulate a crash, or hard-kill the process — so tests can prove
that a checkpoint interrupted anywhere reloads to a bit-exact pre- or
post-write state.

Nothing here monkey-patches the filesystem; the injector only acts at the
protocol's own instrumented seams, which keeps injected histories honest:
every simulated crash corresponds to a real kill point between two
syscalls the production code actually issues.
"""

from __future__ import annotations

import os
import struct
import threading
import zipfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Tuple

from ..core.serialization import set_fault_hook


class SimulatedCrash(BaseException):
    """Process death at an injected fault point.

    Deliberately a :class:`BaseException`: production ``except Exception``
    handlers must not be able to swallow a simulated crash, exactly as
    they could not intercept a real ``kill -9``.
    """


@dataclass
class _Rule:
    pattern: str
    action: str  # "fail" | "crash" | "exit"
    after: int  # trigger on the (after+1)-th matching event
    exc: Optional[BaseException] = None
    times: Optional[int] = None  # fire at most this many times (None = always)
    hits: int = 0
    fired: int = 0


@dataclass
class FaultInjector:
    """Scripted responses to durability-protocol fault points.

    Rules match event names with :func:`fnmatch.fnmatchcase` patterns and
    fire once their match count exceeds ``after`` (with ``times=n``, at
    most ``n`` times — e.g. fail only the first of several writes):

    * ``fail_at`` raises an ordinary exception (default ``OSError``) —
      the write fails but the process survives;
    * ``crash_at`` raises :class:`SimulatedCrash` — the in-process stand-in
      for power loss, used by same-process crash sweeps;
    * ``exit_at`` calls ``os._exit(42)`` — a true no-cleanup death, for
      subprocess-based tests.

    Every event seen while installed is recorded in :attr:`events`
    regardless of whether any rule fires.
    """

    rules: List[_Rule] = field(default_factory=list)
    events: List[Tuple[str, str]] = field(default_factory=list)

    def fail_at(
        self,
        pattern: str,
        *,
        after: int = 0,
        exc: Optional[BaseException] = None,
        times: Optional[int] = None,
    ) -> "FaultInjector":
        self.rules.append(_Rule(pattern, "fail", after, exc, times))
        return self

    def crash_at(self, pattern: str, *, after: int = 0) -> "FaultInjector":
        self.rules.append(_Rule(pattern, "crash", after))
        return self

    def crash_at_step(self, step: int) -> "FaultInjector":
        """Crash on the ``step``-th fault point (0-based), whatever it is."""
        return self.crash_at("*", after=step)

    def exit_at(self, pattern: str, *, after: int = 0) -> "FaultInjector":
        self.rules.append(_Rule(pattern, "exit", after))
        return self

    def __call__(self, event: str, path: object) -> None:
        self.events.append((event, str(path)))
        for rule in self.rules:
            if not fnmatchcase(event, rule.pattern):
                continue
            rule.hits += 1
            if rule.hits <= rule.after:
                continue
            if rule.times is not None and rule.fired >= rule.times:
                continue
            rule.fired += 1
            if rule.action == "exit":
                os._exit(42)
            if rule.action == "crash":
                raise SimulatedCrash(f"simulated crash at {event} ({path})")
            raise rule.exc if rule.exc is not None else OSError(
                f"injected I/O failure at {event} ({path})"
            )

    @contextmanager
    def installed(self) -> Iterator["FaultInjector"]:
        previous = set_fault_hook(self)
        try:
            yield self
        finally:
            set_fault_hook(previous)


def record_fault_points(operation: Callable[[], object]) -> List[str]:
    """Run ``operation`` under a rule-free injector; return the event names.

    Crash-sweep tests use this to enumerate every kill point an operation
    passes through, then re-run the operation once per point with a
    ``crash_at`` rule armed.
    """
    injector = FaultInjector()
    with injector.installed():
        operation()
    return [event for event, _path in injector.events]


def corrupt_npz_member(path: os.PathLike, member: str) -> None:
    """Flip one byte inside ``member``'s stored data in an npz archive.

    The flip lands near the end of the member's stored payload (the raw
    ``.npy`` bytes of an uncompressed member, the deflate stream of a
    compressed one) — past the npy header, inside array bytes — without
    rewriting the archive, so the zip structure stays valid and only the
    member's CRC-32 can catch it.
    """
    path = Path(path)
    name = member if member.endswith(".npy") else member + ".npy"
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(name)
    with open(path, "r+b") as handle:
        # The central directory's header_offset points at the local file
        # header; parse its variable-length fields to find the data start.
        handle.seek(info.header_offset)
        header = handle.read(30)
        if header[:4] != b"PK\x03\x04":  # pragma: no cover - corrupt input
            raise ValueError(f"bad local file header for {name} in {path}")
        name_len, extra_len = struct.unpack("<HH", header[26:30])
        data_start = info.header_offset + 30 + name_len + extra_len
        size = info.compress_size
        if size < 16:  # pragma: no cover - members are always larger
            raise ValueError(f"member {name} too small to corrupt safely")
        target = data_start + size - 8
        handle.seek(target)
        byte = handle.read(1)
        handle.seek(target)
        handle.write(bytes([byte[0] ^ 0xFF]))


class FlakyLoader:
    """Injectable :class:`~repro.serving.fleet.ModelRegistry` loader.

    Delegates to the registry's default checkpoint loader but fails the
    next ``n`` loads of any model armed with :meth:`fail_next`.  Thread
    safe: fleet workers load concurrently.
    """

    def __init__(self, exc_factory: Optional[Callable[[str], BaseException]] = None):
        self._lock = threading.Lock()
        self._armed: dict[str, int] = {}  # guarded-by: _lock
        self._exc_factory = exc_factory or (
            lambda model_id: OSError(f"injected load failure for {model_id!r}")
        )
        self.loads = 0  # guarded-by: _lock
        self.failures = 0  # guarded-by: _lock

    def fail_next(self, model_id: str, n: int = 1) -> None:
        with self._lock:
            self._armed[model_id] = self._armed.get(model_id, 0) + n

    def pending(self, model_id: str) -> int:
        with self._lock:
            return self._armed.get(model_id, 0)

    def __call__(self, model_id: str, spec) -> object:
        with self._lock:
            self.loads += 1
            remaining = self._armed.get(model_id, 0)
            if remaining > 0:
                if remaining == 1:
                    del self._armed[model_id]
                else:
                    self._armed[model_id] = remaining - 1
                self.failures += 1
                exc = self._exc_factory(model_id)
            else:
                exc = None
        if exc is not None:
            raise exc
        from ..serving.fleet import _default_loader

        return _default_loader(model_id, spec)
