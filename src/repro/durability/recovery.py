"""Rebuilding a daemon from its durable state: snapshot-then-replay.

:class:`RecoveryManager` turns the control-plane state a
:class:`~repro.durability.store.StateStore` recovered (which tenants,
which Σ versions, which delta sessions) back into *live* objects:

* tenants are re-validated and re-installed into a
  :class:`~repro.serve.registry.RulesetRegistry` — same shadow-slot
  pipeline as an upload, minus new WAL records (recovery must be
  idempotent, not self-amplifying);
* delta sessions re-hydrate from their JSONL correction logs through
  :func:`rehydrate_session`, the one rebuild path boot recovery,
  ``repro recover --verify`` and the daemon's failed-delta handling
  share.  A session whose log cannot be read is reported as a problem
  of its tenant alone; the other tenants still recover.

``repro recover --verify`` drives :func:`verify_state_dir`: the same
rebuild against throwaway targets, plus ``self_check()`` on every
recovered session, without mutating the state directory.
"""

from __future__ import annotations

import logging
import os
import tempfile
from typing import Any, Dict, List, Tuple

from .store import StateStore

__all__ = ["RecoveryManager", "rehydrate_session", "verify_state_dir"]

logger = logging.getLogger("repro.durability")


def _originals_from_records(records) -> Dict[str, List[str]]:
    """Reconstruct the acknowledged base rows from a correction log."""
    originals: Dict[str, List[str]] = {}
    for record in records:
        op = record.get("op")
        if op == "upsert":
            originals[str(record["row"])] = list(record["values"])
        elif op == "delete":
            originals.pop(str(record["row"]), None)
    return originals


def rehydrate_session(ruleset, log_path, session_id, *,
                      durable: bool = True,
                      dry_run: bool = False) -> Tuple[Any, Dict[str, Any]]:
    """Rebuild one delta session from its correction log under *ruleset*.

    The log's ``upsert``/``delete`` records give the acknowledged row
    population; a fresh :class:`~repro.core.delta.DeltaRepairSession`
    re-repairs it, keeps *session_id*, resumes at the log's last epoch
    and appends to the same log.  A torn final record is first cut off
    at the reader's offset: it was never acknowledged.  Rows whose
    replayed log state differs from the fixpoint under *ruleset* (an
    interrupted epoch, or a Σ swap whose records never landed) *roll
    forward*: they are counted and re-logged as upserts of their own
    originals, so the log replays to the session again.  With
    *dry_run* the file is untouched and the session logs to memory.
    Returns ``(session, info)``; raises
    :class:`~repro.core.delta.DeltaError` on mid-file corruption.
    """
    from ..core.delta import (DeltaRepairSession, load_log_records,
                              replay_correction_log)
    records, torn = load_log_records(log_path)
    if torn is not None and not dry_run:
        with open(log_path, "r+b") as handle:
            handle.truncate(torn["offset"])
            os.fsync(handle.fileno())
    _schema, replayed_rows, replay_report = replay_correction_log(records)
    originals = _originals_from_records(records)
    session = DeltaRepairSession(
        ruleset, originals, log_path=None if dry_run else log_path,
        log_base=False, check_consistency=False, session_id=session_id,
        durable=durable and not dry_run)
    session.epoch = max(session.epoch, int(replay_report["last_epoch"]))
    rolled = [rid for rid, values in session.items()
              if values != replayed_rows.get(rid)]
    if rolled:
        logger.warning(
            "session %s: %d row(s) rolled forward past state its "
            "correction log does not record", session_id, len(rolled))
        if not dry_run:
            session.apply_rows(upserts=[(rid, originals[rid])
                                        for rid in rolled])
    return session, {
        "torn_tail": torn,
        "rows": len(session),
        "epoch": session.epoch,
        "log_records": len(records),
        "replay_mismatches": replay_report["mismatch_count"],
        "rolled_forward": len(rolled),
    }


class RecoveryManager:
    """Rebuild registry tenants and delta sessions from durable state."""

    def __init__(self, store, *, readonly: bool = False):
        if isinstance(store, StateStore):
            self.store = store
        else:
            self.store = StateStore(store, readonly=readonly)

    # -- tenants -------------------------------------------------------------

    def recover_registry(self, registry,
                         report: Dict[str, Any]) -> None:
        state = self.store.state()
        for tenant, slot in sorted(state["tenants"].items()):
            active = slot.get("active") or {}
            previous = slot.get("previous") or None
            try:
                entry = registry.restore(
                    tenant, active["ruleset_json"],
                    previous["ruleset_json"] if previous else None)
            except Exception as exc:
                report["problems"].append(
                    "tenant %r failed to restore: %s: %s"
                    % (tenant, type(exc).__name__, exc))
                continue
            if entry.fingerprint != active.get("fingerprint"):
                report["problems"].append(
                    "tenant %r recovered with fingerprint %s, state "
                    "store recorded %s" % (tenant, entry.fingerprint,
                                           active.get("fingerprint")))
            report["tenants"][tenant] = {
                "fingerprint": entry.fingerprint,
                "rules": entry.rule_count,
                "previous": previous is not None,
            }

    # -- delta sessions ------------------------------------------------------

    def recover_delta_sessions(self, registry, sessions: Dict[str, Any],
                               report: Dict[str, Any], *,
                               dry_run: bool = False,
                               self_check: bool = False) -> None:
        from ..core.delta import DeltaError
        state = self.store.state()
        for tenant, info in sorted(state["delta_sessions"].items()):
            log_path = info.get("log_path")
            entry_report: Dict[str, Any] = {
                "session_id": info.get("session_id"),
                "log_path": log_path,
            }
            report["sessions"][tenant] = entry_report
            try:
                entry = registry.get(tenant)
            except KeyError:
                report["problems"].append(
                    "delta session for tenant %r has no recovered "
                    "ruleset" % tenant)
                continue
            if log_path is None or not os.path.exists(log_path):
                report["problems"].append(
                    "delta session for tenant %r: correction log %r is "
                    "missing" % (tenant, log_path))
                continue
            try:
                session, summary = rehydrate_session(
                    entry.ruleset, log_path, info.get("session_id"),
                    dry_run=dry_run)
            except (DeltaError, OSError) as exc:
                report["problems"].append(
                    "delta session for tenant %r failed to rebuild: "
                    "%s: %s" % (tenant, type(exc).__name__, exc))
                continue
            entry_report.update(summary)
            if summary["replay_mismatches"]:
                report["problems"].append(
                    "tenant %r correction log replay found %d integrity "
                    "mismatch(es)" % (tenant, summary["replay_mismatches"]))
            if self_check:
                problems = session.self_check()
                entry_report["self_check"] = len(problems)
                if problems:
                    report["problems"].extend(
                        "tenant %r self_check: %s" % (tenant, line)
                        for line in problems[:5])
            sessions[tenant] = session

    # -- the whole thing -----------------------------------------------------

    def rebuild(self, registry, sessions: Dict[str, Any], *,
                dry_run: bool = False,
                self_check: bool = False) -> Dict[str, Any]:
        """Recover everything; returns the recovery report."""
        report: Dict[str, Any] = {
            "state_dir": self.store.state_dir,
            "seq": self.store.seq,
            "store": dict(self.store.recovery_report),
            "tenants": {},
            "sessions": {},
            "problems": [],
        }
        self.recover_registry(registry, report)
        self.recover_delta_sessions(registry, sessions, report,
                                    dry_run=dry_run,
                                    self_check=self_check)
        report["ok"] = not report["problems"]
        return report


def verify_state_dir(state_dir) -> Dict[str, Any]:
    """Dry-run recovery of *state_dir* and cross-check ``self_check``.

    Rebuilds every tenant and delta session against throwaway targets
    (temp spool, in-memory logs), leaving the state directory, WAL,
    and correction logs byte-for-byte untouched.  ``report["ok"]`` is
    True iff every tenant restores, every log replays with zero
    integrity mismatches, and every recovered session passes
    ``self_check`` (incremental == full).
    """
    from ..serve.registry import RulesetRegistry
    store = StateStore(state_dir, readonly=True)
    manager = RecoveryManager(store)
    with tempfile.TemporaryDirectory(prefix="repro-recover-") as spool:
        registry = RulesetRegistry(spool)
        sessions: Dict[str, Any] = {}
        report = manager.rebuild(registry, sessions, dry_run=True,
                                 self_check=True)
        for session in sessions.values():
            session.close()
    return report
