"""Crash-consistent daemon state: WAL + compacted snapshots.

:class:`StateStore` persists the control-plane state of a ``repro
serve`` daemon — which Σ each tenant is serving (and its previous
version for rollback), and which delta sessions exist with which
correction logs — so a restart loses **zero acknowledged writes**.

The protocol is the classic one:

1. Every acknowledged mutation appends one framed, CRC-checksummed
   record to ``wal.log`` (:mod:`repro.durability.wal`) and fsyncs it
   *before* the caller acknowledges.  The record carries a monotonic
   ``seq``.
2. Every ``snapshot_every`` records (or on demand) the reduced state
   is compacted into ``snapshot.json`` — written to a temp file,
   fsynced, atomically renamed, parent directory fsynced — stamped
   with ``through_seq``.  Only after the snapshot is durable is the
   WAL reset.
3. Recovery = load the snapshot (atomic rename guarantees it is
   either the old or the new one, never a blend; a CRC guards against
   filesystem-level tearing), then replay WAL records with ``seq >
   through_seq``.  Records the snapshot already covers are skipped by
   ``seq``, which makes a crash *between* snapshot publish and WAL
   reset harmless.  A torn WAL tail (crash mid-append) is truncated
   with a logged warning — by construction it was never acknowledged.

The reduction itself (:func:`reduce_record`) is a pure function, so
replay is deterministic and the in-memory state the daemon holds is
always exactly ``reduce*(snapshot, wal)``.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import zlib
from typing import Any, Dict, List, Optional

from ..errors import DurabilityError
# durable_fsync is not called here, but perfbench/trace.py wraps it
# under this module's name
from .faults import atomic_replace_bytes, durable_append, durable_fsync, \
    installed_injector
from .wal import TornTail, encode_frame, read_wal

__all__ = ["StateStore", "reduce_record", "initial_state",
           "SNAPSHOT_VERSION"]

logger = logging.getLogger("repro.durability")

SNAPSHOT_VERSION = 1

#: Record ops the reducer understands.
KNOWN_OPS = ("tenant_upload", "tenant_rollback", "tenant_drop",
             "delta_open", "delta_close")


def initial_state() -> Dict[str, Any]:
    return {"tenants": {}, "delta_sessions": {}}


def reduce_record(state: Dict[str, Any], record: Dict[str, Any]) -> None:
    """Apply one WAL record to *state* in place (pure per-record)."""
    op = record.get("op")
    tenants = state["tenants"]
    sessions = state["delta_sessions"]
    tenant = record.get("tenant")
    if op == "tenant_upload":
        slot = tenants.get(tenant)
        tenants[tenant] = {
            "active": {"fingerprint": record["fingerprint"],
                       "ruleset_json": record["ruleset_json"],
                       "source": record.get("source", "upload")},
            "previous": slot["active"] if slot else None,
        }
    elif op == "tenant_rollback":
        slot = tenants.get(tenant)
        if slot and slot.get("previous"):
            slot["active"], slot["previous"] = \
                slot["previous"], slot["active"]
    elif op == "tenant_drop":
        tenants.pop(tenant, None)
        sessions.pop(tenant, None)
    elif op == "delta_open":
        sessions[tenant] = {
            "session_id": record["session_id"],
            "log_path": record.get("log_path"),
            "fingerprint": record.get("fingerprint"),
            "seq": record["seq"],
        }
    elif op == "delta_close":
        sessions.pop(tenant, None)
    else:
        # forward compatibility: an unknown op must not poison replay
        state.setdefault("unknown_ops", []).append(op)


class StateStore:
    """Append-only, crash-recoverable control-plane state.

    Thread-safe: the serve daemon appends from executor threads.  With
    ``readonly=True`` the store recovers state without opening an
    append handle or truncating torn tails — the dry-run mode
    ``repro recover --verify`` uses.
    """

    WAL_NAME = "wal.log"
    SNAPSHOT_NAME = "snapshot.json"

    def __init__(self, state_dir, *, snapshot_every: int = 256,
                 readonly: bool = False):
        self.state_dir = os.fspath(state_dir)
        self.snapshot_every = max(1, int(snapshot_every))
        self.readonly = readonly
        if not readonly:
            os.makedirs(self.state_dir, exist_ok=True)
        self.wal_path = os.path.join(self.state_dir, self.WAL_NAME)
        self.snapshot_path = os.path.join(self.state_dir,
                                          self.SNAPSHOT_NAME)
        self._lock = threading.Lock()
        self._fh = None
        self._state = initial_state()
        self.seq = 0
        self._since_snapshot = 0
        self.recovery_report = self._recover()
        if not readonly:
            self._fh = open(self.wal_path, "ab")

    # -- recovery ------------------------------------------------------------

    def _load_snapshot(self) -> int:
        """Seed state from the snapshot; returns ``through_seq``."""
        try:
            with open(self.snapshot_path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            return 0
        try:
            payload = json.loads(raw.decode("utf-8"))
            if payload.get("version") != SNAPSHOT_VERSION:
                raise ValueError("unsupported snapshot version %r"
                                 % payload.get("version"))
            body = json.dumps(payload["state"], sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
            if zlib.crc32(body) != payload["crc32"]:
                raise ValueError("snapshot state crc mismatch")
        except (ValueError, KeyError, TypeError) as exc:
            raise DurabilityError(
                "snapshot %s is corrupt (%s); it was written atomically, "
                "so this indicates storage damage rather than a crash — "
                "refusing to guess" % (self.snapshot_path, exc)) from exc
        self._state = payload["state"]
        self._state.setdefault("tenants", {})
        self._state.setdefault("delta_sessions", {})
        return int(payload["through_seq"])

    def _recover(self) -> Dict[str, Any]:
        through_seq = self._load_snapshot()
        records, trusted_end, torn = read_wal(self.wal_path)
        replayed = skipped = 0
        for record in records:
            seq = int(record.get("seq", 0))
            if seq <= through_seq:
                skipped += 1     # snapshot already covers it (crash
                continue         # between publish and WAL reset)
            reduce_record(self._state, record)
            replayed += 1
            through_seq = seq
        self.seq = through_seq
        self._since_snapshot = replayed
        if torn is not None:
            logger.warning(
                "state WAL %s has a torn tail at offset %d (%s); "
                "truncating %d unacknowledged byte(s)",
                self.wal_path, torn.offset, torn.reason,
                torn.dropped_bytes)
            if not self.readonly:
                with open(self.wal_path, "r+b") as handle:
                    handle.truncate(trusted_end)
                    handle.flush()
                    os.fsync(handle.fileno())
        return {
            "snapshot_seq": through_seq - replayed if records else
            through_seq,
            "wal_records": len(records),
            "replayed": replayed,
            "skipped": skipped,
            "seq": self.seq,
            "torn_tail": torn.describe() if torn is not None else None,
        }

    # -- appends -------------------------------------------------------------

    def append(self, op: str, **fields) -> Dict[str, Any]:
        """Durably log one mutation; returns the record (with ``seq``).

        The frame is written *and fsynced* before this returns, so a
        caller that acknowledges afterwards never acknowledges a write
        a restart can lose.  On ``OSError`` (disk full, I/O error,
        torn write) the WAL is rolled back to its pre-append length —
        in-memory and on-disk state both stay exactly as before the
        call — and the error propagates for the caller to surface.
        """
        if self.readonly:
            raise DurabilityError("state store is read-only")
        with self._lock:
            record = dict(fields)
            record["op"] = op
            record["seq"] = self.seq + 1
            durable_append(self._fh, encode_frame(record),
                           "wal.append.write", "wal.append.fsync")
            self.seq = record["seq"]
            reduce_record(self._state, record)
            self._since_snapshot += 1
            if self._since_snapshot >= self.snapshot_every:
                self._snapshot_locked()
            return record

    # -- snapshots -----------------------------------------------------------

    def snapshot(self) -> None:
        """Compact now: durable snapshot, then reset the WAL."""
        if self.readonly:
            raise DurabilityError("state store is read-only")
        with self._lock:
            self._snapshot_locked()

    def _snapshot_locked(self) -> None:
        body = json.dumps(self._state, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        payload = {"version": SNAPSHOT_VERSION, "through_seq": self.seq,
                   "crc32": zlib.crc32(body), "state": self._state}
        data = json.dumps(payload, sort_keys=True).encode("utf-8")
        atomic_replace_bytes(self.snapshot_path, data, "snapshot")
        # Only after the snapshot is durable may the WAL shrink; a
        # crash here merely replays records the snapshot already
        # covers (skipped by seq).
        injector = installed_injector()
        if injector is not None:
            injector.on_op("wal.reset")
        self._fh.close()
        self._fh = open(self.wal_path, "wb")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._fh.close()
        self._fh = open(self.wal_path, "ab")
        self._since_snapshot = 0

    # -- reads ---------------------------------------------------------------

    def state(self) -> Dict[str, Any]:
        """A deep copy of the reduced state (safe to mutate)."""
        with self._lock:
            return json.loads(json.dumps(self._state))

    def tenants(self) -> List[str]:
        with self._lock:
            return sorted(self._state["tenants"])

    def is_empty(self) -> bool:
        with self._lock:
            return not self._state["tenants"] \
                and not self._state["delta_sessions"]

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "StateStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
