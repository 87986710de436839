"""Test-support utilities shipped with the library.

Unlike ``tests/`` (which never installs), this package is importable from
anywhere — CI chaos jobs, downstream users' own suites — and carries the
fault-injection layer the crash-safety guarantees are proven against:

* :class:`~repro.testing.faults.FaultInjector` — scripted crashes/failures
  at the durability protocol's instrumented steps
  (:func:`repro.core.serialization.set_fault_hook`);
* :func:`~repro.testing.faults.corrupt_npz_member` — targeted bit rot for
  CRC-detection tests;
* :class:`~repro.testing.faults.FlakyLoader` — an injectable
  :class:`~repro.serving.fleet.ModelRegistry` loader that fails on
  command, driving the fleet's retry/quarantine machinery;
* :mod:`~repro.testing.races` — instrumented locks with
  acquisition-order cycle detection (:class:`LockMonitor`,
  :class:`InstrumentedLock`) and the :class:`GuardedBy` descriptor whose
  debug mode asserts guarded serving state is only touched under its
  lock.
"""

from .faults import (
    FaultInjector,
    FlakyLoader,
    SimulatedCrash,
    corrupt_npz_member,
    record_fault_points,
)
from .races import (
    GuardedBy,
    InstrumentedLock,
    LockDisciplineError,
    LockMonitor,
    LockOrderError,
    assert_owned,
    debug_guards,
    set_debug,
)

__all__ = [
    "FaultInjector",
    "FlakyLoader",
    "GuardedBy",
    "InstrumentedLock",
    "LockDisciplineError",
    "LockMonitor",
    "LockOrderError",
    "SimulatedCrash",
    "assert_owned",
    "corrupt_npz_member",
    "debug_guards",
    "record_fault_points",
    "set_debug",
]
