"""Crash-consistent durability: WAL-backed state, recovery, disk faults.

The paper's title promises *dependable* repairing; this package makes
the promise hold across process death and disk failure:

* :mod:`~repro.durability.wal` — framed, CRC-checksummed append-only
  records with torn-tail detection;
* :mod:`~repro.durability.store` — :class:`StateStore`, the daemon's
  write-ahead control-plane state (tenant Σ uploads/rollbacks, delta-
  session lifecycle) with periodic compacted snapshots and
  snapshot-then-replay recovery;
* :mod:`~repro.durability.recovery` — :class:`RecoveryManager`, which
  turns recovered state back into live registry entries and delta
  sessions (each rebuilt from its correction log by
  :func:`rehydrate_session`), plus the ``repro recover --verify`` dry
  run;
* :mod:`~repro.durability.faults` — :class:`DiskFaultInjector` and the
  named-fault-point I/O vocabulary every durable path in the repo is
  written against (``ENOSPC``, ``EIO``, short writes, failed fsync,
  crash-before-rename).

Standard library only, like the rest of the repo.
"""

from .faults import (CrashPoint, DiskFaultInjector, FAULT_KINDS,
                     FAULT_POINTS, atomic_replace_bytes, durable_append,
                     durable_fsync, durable_replace, durable_write,
                     fsync_dir, installed_injector)
from .recovery import RecoveryManager, rehydrate_session, verify_state_dir
from .store import StateStore, initial_state, reduce_record
from .wal import TornTail, encode_frame, read_wal, scan_wal

__all__ = [
    "CrashPoint",
    "DiskFaultInjector",
    "FAULT_KINDS",
    "FAULT_POINTS",
    "RecoveryManager",
    "StateStore",
    "TornTail",
    "atomic_replace_bytes",
    "durable_append",
    "durable_fsync",
    "durable_replace",
    "durable_write",
    "encode_frame",
    "fsync_dir",
    "initial_state",
    "installed_injector",
    "read_wal",
    "reduce_record",
    "rehydrate_session",
    "scan_wal",
    "verify_state_dir",
]
