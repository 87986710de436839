"""The process entrypoint one router shard runs.

A shard is an ordinary :class:`~repro.serving.FleetServer` over a
shard-local :class:`~repro.serving.ModelRegistry`, wrapped in a small
message loop speaking the router's framing over one duplex
``multiprocessing`` pipe.  The split of responsibilities:

* the **router** (parent process) owns placement — which models home on
  which shard — plus failover and the shard-granularity circuit breaker;
* the **worker** (this module) owns everything within its shard: lazy
  checkpoint loads (plans are mapped ``MAP_SHARED`` read-only, so the
  kernel backs every shard's mapping of one archive with the same
  page-cache pages), lane-aware admission, per-model retry/quarantine,
  and stats.

Framing (tuples, pickled by the pipe; ``req_id`` is router-assigned):

===========================================  =================================
router → worker                              worker → router
===========================================  =================================
``("register", id, model, ckpt, X, y, kw)``  ``("ok", id, meta)`` / ``("err", id, exc)``
``("submit", id, model, indices, lane)``     ``("ok", id, ServedOutcome)`` / ``("err", id, exc)``
``("flush", id, timeout)``                   ``("ok", id, bool)``
``("stats", id)``                            ``("ok", id, StatsFrame)``
``("ping", id)``                             ``("ok", id, pid)``
``("shutdown", id)``                         ``("ok", id, None)``, then exit
===========================================  =================================

On startup the worker announces ``("hello", shard_name, pid)``.  Replies
to submits arrive *out of order* (they ride the fleet's completion
callbacks); the ``req_id`` is the correlation key.  Stats cross the pipe
as raw-sample :class:`~repro.serving.stats.StatsFrame`\\ s so the router
can merge before summarizing — per-shard percentiles are never averaged.

A bad frame never ends the loop.  A frame that is not a tuple of at
least two items carries no request id to answer, so it is dropped; a
frame with an id but an unknown kind or the wrong number of fields is
answered ``("err", id, ServingError)``.

The loop needs no clock of its own: ``conn.recv()`` blocks on I/O, the
fleet's deadline math runs on its injectable clock, and a router that
dies takes the pipe with it (``EOFError`` → clean worker exit).
"""

from __future__ import annotations

import os
import pickle
import threading
from concurrent.futures import CancelledError

from .errors import ServingError
from .fleet import FleetServer, ModelRegistry

__all__ = ["shard_main"]

# Fields per router -> worker frame kind, request id included.
_FRAME_FIELDS = {
    "register": 7, "submit": 5, "flush": 3, "stats": 2, "ping": 2,
    "shutdown": 2,
}


def _shippable(exc: BaseException) -> BaseException:
    """An exception that survives the pipe's pickle round trip."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return ServingError(f"{type(exc).__name__}: {exc}")


class _ShardLoop:
    """One worker process's state: fleet, framed pipe."""

    def __init__(self, conn, name: str, options: dict) -> None:
        self._conn = conn
        self._name = name
        self._registry = ModelRegistry(max_resident=options.get("max_resident"))
        self._fleet = FleetServer(
            self._registry,
            options.get("policy"),
            method=options.get("method"),
            n_workers=int(options.get("n_workers", 1)),
            retry=options.get("retry"),
        )
        # Fault seam for the crash/chaos harness: process submit message
        # number K, then die hard (``os._exit``) with later submits — and
        # any still-inflight batch — unanswered, exactly like a kernel
        # OOM-kill mid-dispatch.
        self._crash_after = options.get("crash_after_submits")
        self._submits_seen = 0
        # Completion callbacks reply from fleet worker threads while the
        # message loop replies inline; one lock frames the pipe writes.
        self._send_lock = threading.Lock()

    def _send(self, message: tuple) -> None:
        with self._send_lock:  # guarded-by: _send_lock (the pipe itself)
            try:
                self._conn.send(message)
            except (OSError, ValueError, BrokenPipeError):
                # The router is gone; the loop will see EOF and exit.
                pass

    def _reply_done(self, req_id: int, future) -> None:
        try:
            exc = future.exception()
        except CancelledError as cancelled:
            exc = cancelled
        if exc is not None:
            self._send(("err", req_id, _shippable(exc)))
        else:
            self._send(("ok", req_id, future.result()))

    def _handle(self, message: tuple) -> bool:
        """Dispatch one framed request; False ends the loop."""
        kind, req_id = message[0], message[1]
        fields = _FRAME_FIELDS.get(kind) if isinstance(kind, str) else None
        if fields != len(message):
            raise ServingError(
                f"malformed shard frame: kind {kind!r} "
                f"with {len(message)} fields"
            )
        if kind == "shutdown":
            self._send(("ok", req_id, None))
            return False
        if kind == "submit":
            _, _, model_id, indices, lane = message
            self._submits_seen += 1
            if (
                self._crash_after is not None
                and self._submits_seen >= self._crash_after
            ):
                os._exit(13)
            future = self._fleet.submit(model_id, indices, lane=lane)
            future.add_done_callback(
                lambda fut, req_id=req_id: self._reply_done(req_id, fut)
            )
            return True
        if kind == "register":
            _, _, model_id, checkpoint, features, labels, kwargs = message
            if model_id in self._registry:
                # Re-homing after a failover bounce: already ours.
                self._send(("ok", req_id, None))
                return True
            metadata = self._registry.register(
                model_id,
                checkpoint=checkpoint,
                features=features,
                labels=labels,
                **kwargs,
            )
            self._send(
                ("ok", req_id, None if metadata is None else metadata.as_dict())
            )
            return True
        if kind == "flush":
            self._send(("ok", req_id, self._fleet.flush(timeout=message[2])))
            return True
        if kind == "stats":
            self._send(("ok", req_id, self._fleet.stats_frame()))
            return True
        self._send(("ok", req_id, os.getpid()))  # ping
        return True

    def run(self) -> None:
        self._send(("hello", self._name, os.getpid()))
        try:
            while True:
                try:
                    message = self._conn.recv()
                except (EOFError, OSError):
                    break
                if not isinstance(message, tuple) or len(message) < 2:
                    continue  # no request id to answer; keep serving
                try:
                    if not self._handle(message):
                        break
                except Exception as exc:
                    self._send(("err", message[1], _shippable(exc)))
        finally:
            self._fleet.close(wait=False)


def shard_main(conn, name: str, options: dict) -> None:
    """Run one shard until shutdown/EOF (the ``Process`` target).

    Top-level (hence picklable under every multiprocessing start method);
    ``options`` carries the fleet knobs — ``policy``, ``method``,
    ``n_workers``, ``retry``, ``max_resident`` — plus the
    ``crash_after_submits`` fault seam.
    """
    _ShardLoop(conn, name, options).run()
