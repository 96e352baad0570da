"""Durability: WAL state store, recovery, and disk-fault injection.

Covers the crash-consistency contract end to end:

* WAL framing — CRC-checksummed frames, torn-tail detection at every
  truncation point, corruption mid-file vs. crash artifacts at the end;
* :class:`~repro.durability.store.StateStore` — fsync-before-ack
  appends, snapshot compaction, snapshot-then-replay recovery, and the
  seq-skip idempotence that makes a crash between snapshot publish and
  WAL reset harmless;
* :class:`~repro.durability.recovery.RecoveryManager` — tenants and
  delta sessions rebuilt from durable state, correction logs replayed
  with torn tails truncated;
* :class:`~repro.durability.faults.DiskFaultInjector` — ENOSPC, EIO,
  short writes, failed fsync, and crash-before-rename driven through
  every durable path (checkpoints, weights, WAL — ruleset uploads
  included — and correction logs), asserting clean error surfacing and
  zero corrupted state;
* the serve daemon — restart with ``--state-dir`` (in-process and
  SIGKILL-of-a-real-daemon) recovers every acknowledged write.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro import FixingRule, RuleSet, Schema
from repro.core.delta import (DeltaError, DeltaRepairSession,
                              audit_correction_log, load_log_records,
                              replay_correction_log)
from repro.core.pipeline import Checkpoint
from repro.core.serialization import ruleset_to_json
from repro.durability import (CrashPoint, DiskFaultInjector, FAULT_KINDS,
                              FAULT_POINTS, RecoveryManager, StateStore,
                              TornTail, atomic_replace_bytes, encode_frame,
                              read_wal, rehydrate_session, scan_wal,
                              verify_state_dir)
from repro.errors import CheckpointError, DurabilityError
from repro.serve import RepairServer, ServeConfig, ServerThread
from repro.serve.registry import RulesetRegistry, RulesetRejected

TRAVEL = Schema("Travel", ["name", "country", "capital", "city", "conf"])
IAN = ["Ian", "China", "Shanghai", "Hongkong", "ICDE"]
MIKE = ["Mike", "Canada", "Toronto", "Toronto", "VLDB"]
ANN = ["Ann", "China", "Hongkong", "Paris", "VLDB"]


def travel_rules():
    """A consistent Σ from the paper's running example."""
    return RuleSet(TRAVEL, [
        FixingRule({"country": "China"}, "capital",
                   {"Shanghai", "Hongkong"}, "Beijing", name="phi1"),
        FixingRule({"country": "Canada"}, "capital", {"Toronto"},
                   "Ottawa", name="phi2"),
    ])


def rules_json():
    return ruleset_to_json(travel_rules())


def request(port, method, path, body=None, headers=None, timeout=30.0):
    """One HTTP request; returns (status, headers dict, decoded body)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        if isinstance(body, (dict, list)):
            body = json.dumps(body)
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        raw = response.read()
        header_map = {key.lower(): value
                      for key, value in response.getheaders()}
        if header_map.get("content-type", "").startswith("application/json"):
            payload = json.loads(raw) if raw else None
        else:
            payload = raw.decode("utf-8", "replace")
        return response.status, header_map, payload
    finally:
        conn.close()


# -- WAL framing --------------------------------------------------------------

class TestWalFraming:
    def test_round_trip(self):
        frames = b"".join(encode_frame({"op": "x", "seq": i})
                          for i in range(5))
        records, end, torn = scan_wal(frames)
        assert [r["seq"] for r in records] == list(range(5))
        assert end == len(frames)
        assert torn is None

    def test_empty(self):
        assert scan_wal(b"") == ([], 0, None)

    def test_missing_file_is_empty(self, tmp_path):
        assert read_wal(tmp_path / "nope.log") == ([], 0, None)

    @pytest.mark.parametrize("tail,reason_part", [
        (b"RW", "short header"),
        (encode_frame({"op": "y"})[:-3], "short payload"),
        (b"JUNK" + b"\x00" * 20, "bad magic"),
    ])
    def test_torn_tail_variants(self, tail, reason_part):
        good = encode_frame({"op": "x", "seq": 1})
        records, end, torn = scan_wal(good + tail)
        assert len(records) == 1
        assert end == len(good)
        assert isinstance(torn, TornTail)
        assert reason_part in torn.reason
        assert torn.offset == len(good)
        assert torn.dropped_bytes == len(tail)

    def test_crc_mismatch_stops_trust(self):
        good = encode_frame({"op": "x", "seq": 1})
        bad = bytearray(encode_frame({"op": "y", "seq": 2}))
        bad[-1] ^= 0xFF    # flip a payload byte under an intact CRC
        records, end, torn = scan_wal(good + bytes(bad))
        assert len(records) == 1
        assert torn is not None and "crc mismatch" in torn.reason

    def test_torn_describe(self):
        torn = TornTail(10, 5, "short header")
        assert torn.describe() == {"offset": 10, "dropped_bytes": 5,
                                   "reason": "short header"}


# -- StateStore ---------------------------------------------------------------

class TestStateStore:
    def test_append_and_recover(self, tmp_path):
        with StateStore(tmp_path / "state") as store:
            store.append("tenant_upload", tenant="t1", fingerprint="f1",
                         ruleset_json="{}")
            store.append("delta_open", tenant="t1", session_id="s1",
                         log_path="/tmp/x.jsonl", fingerprint="f1")
            assert store.seq == 2
        with StateStore(tmp_path / "state") as again:
            state = again.state()
            assert state["tenants"]["t1"]["active"]["fingerprint"] == "f1"
            assert state["delta_sessions"]["t1"]["session_id"] == "s1"
            assert again.seq == 2
            assert not again.is_empty()

    def test_upload_rollback_previous_slot(self, tmp_path):
        with StateStore(tmp_path / "state") as store:
            store.append("tenant_upload", tenant="t", fingerprint="f1",
                         ruleset_json="a")
            store.append("tenant_upload", tenant="t", fingerprint="f2",
                         ruleset_json="b")
            store.append("tenant_rollback", tenant="t")
            slot = store.state()["tenants"]["t"]
            assert slot["active"]["fingerprint"] == "f1"
            assert slot["previous"]["fingerprint"] == "f2"

    def test_snapshot_compaction_and_replay(self, tmp_path):
        with StateStore(tmp_path / "state", snapshot_every=4) as store:
            for i in range(10):
                store.append("tenant_upload", tenant="t%d" % i,
                             fingerprint="f%d" % i, ruleset_json="{}")
            # 10 appends with snapshot_every=4 -> two compactions
            assert os.path.exists(store.snapshot_path)
            assert os.path.getsize(store.wal_path) \
                < 10 * len(encode_frame({"op": "tenant_upload"}))
        with StateStore(tmp_path / "state") as again:
            assert again.seq == 10
            assert len(again.state()["tenants"]) == 10

    def test_seq_skip_idempotence(self, tmp_path):
        """A crash between snapshot publish and WAL reset replays
        records the snapshot already covers — skipped by seq."""
        with StateStore(tmp_path / "state") as store:
            store.append("tenant_upload", tenant="t", fingerprint="f1",
                         ruleset_json="{}")
            wal_bytes = open(store.wal_path, "rb").read()
            store.snapshot()
            # resurrect the pre-snapshot WAL: the crash left it behind
            with open(store.wal_path, "wb") as fh:
                fh.write(wal_bytes)
        with StateStore(tmp_path / "state") as again:
            assert again.recovery_report["skipped"] == 1
            assert again.recovery_report["replayed"] == 0
            assert again.seq == 1
            slot = again.state()["tenants"]["t"]
            assert slot["active"]["fingerprint"] == "f1"
            assert slot["previous"] is None    # not applied twice

    def test_torn_wal_tail_truncated_on_boot(self, tmp_path):
        with StateStore(tmp_path / "state") as store:
            store.append("tenant_upload", tenant="t", fingerprint="f",
                         ruleset_json="{}")
            wal_path = store.wal_path
        clean_size = os.path.getsize(wal_path)
        with open(wal_path, "ab") as fh:
            fh.write(encode_frame({"op": "tenant_drop",
                                   "tenant": "t", "seq": 2})[:-4])
        with StateStore(tmp_path / "state") as again:
            assert again.recovery_report["torn_tail"] is not None
            assert again.seq == 1
            assert "t" in again.state()["tenants"]
        assert os.path.getsize(wal_path) == clean_size

    def test_enospc_append_rolls_back(self, tmp_path):
        with StateStore(tmp_path / "state") as store:
            store.append("tenant_upload", tenant="t", fingerprint="f",
                         ruleset_json="{}")
            size = os.path.getsize(store.wal_path)
            injector = DiskFaultInjector()
            injector.plan("wal.append.write", "enospc")
            with injector.installed():
                with pytest.raises(OSError):
                    store.append("tenant_drop", tenant="t")
            assert store.seq == 1
            assert "t" in store.state()["tenants"]
            store._fh.flush()
            assert os.path.getsize(store.wal_path) == size
            # disk healthy again: the retry succeeds
            store.append("tenant_drop", tenant="t")
            assert "t" not in store.state()["tenants"]
        with StateStore(tmp_path / "state") as again:
            assert again.recovery_report["torn_tail"] is None
            assert "t" not in again.state()["tenants"]

    def test_short_write_append_leaves_no_torn_frame(self, tmp_path):
        with StateStore(tmp_path / "state") as store:
            injector = DiskFaultInjector()
            injector.plan("wal.append.write", "short_write", short_bytes=7)
            with injector.installed():
                with pytest.raises(OSError):
                    store.append("tenant_upload", tenant="t",
                                 fingerprint="f", ruleset_json="{}")
            store.append("tenant_upload", tenant="t", fingerprint="f",
                         ruleset_json="{}")
        with StateStore(tmp_path / "state") as again:
            assert again.recovery_report["torn_tail"] is None
            assert again.seq == 1

    def test_crash_at_snapshot_rename_recovers_from_wal(self, tmp_path):
        with StateStore(tmp_path / "state") as store:
            store.append("tenant_upload", tenant="t", fingerprint="f",
                         ruleset_json="{}")
            injector = DiskFaultInjector()
            injector.plan("snapshot.rename", "crash")
            with injector.installed():
                with pytest.raises(CrashPoint):
                    store.snapshot()
        # no snapshot published, WAL untouched -> full replay
        with StateStore(tmp_path / "state") as again:
            assert again.recovery_report["replayed"] == 1
            assert "t" in again.state()["tenants"]

    def test_fsync_failure_rejects_append(self, tmp_path):
        with StateStore(tmp_path / "state") as store:
            injector = DiskFaultInjector()
            injector.plan("wal.append.fsync", "fsync")
            with injector.installed():
                with pytest.raises(OSError):
                    store.append("tenant_upload", tenant="t",
                                 fingerprint="f", ruleset_json="{}")
            assert store.is_empty()

    def test_readonly_never_mutates(self, tmp_path):
        with StateStore(tmp_path / "state") as store:
            store.append("tenant_upload", tenant="t", fingerprint="f",
                         ruleset_json="{}")
            wal_path = store.wal_path
        with open(wal_path, "ab") as fh:
            fh.write(b"RWAL\x00")
        torn_size = os.path.getsize(wal_path)
        ro = StateStore(tmp_path / "state", readonly=True)
        assert ro.recovery_report["torn_tail"] is not None
        assert os.path.getsize(wal_path) == torn_size   # not truncated
        with pytest.raises(DurabilityError):
            ro.append("tenant_drop", tenant="t")
        ro.close()

    def test_corrupt_snapshot_refuses(self, tmp_path):
        with StateStore(tmp_path / "state", snapshot_every=1) as store:
            store.append("tenant_upload", tenant="t", fingerprint="f",
                         ruleset_json="{}")
            snapshot_path = store.snapshot_path
        payload = json.loads(open(snapshot_path).read())
        payload["crc32"] ^= 1
        with open(snapshot_path, "w") as fh:
            fh.write(json.dumps(payload))
        with pytest.raises(DurabilityError):
            StateStore(tmp_path / "state")

    def test_unknown_op_does_not_poison_replay(self, tmp_path):
        with StateStore(tmp_path / "state") as store:
            store.append("tenant_upload", tenant="t", fingerprint="f",
                         ruleset_json="{}")
            store.append("future_op", tenant="t", detail="?")
        with StateStore(tmp_path / "state") as again:
            assert "t" in again.state()["tenants"]
            assert again.state()["unknown_ops"] == ["future_op"]


# -- DiskFaultInjector --------------------------------------------------------

class TestDiskFaultInjector:
    def test_unknown_point_and_kind_rejected(self):
        injector = DiskFaultInjector()
        with pytest.raises(ValueError):
            injector.plan("no.such.point", "enospc")
        with pytest.raises(ValueError):
            injector.plan("checkpoint.write", "meteor")

    def test_plans_exhaust(self, tmp_path):
        injector = DiskFaultInjector()
        injector.plan("checkpoint.write", "enospc", times=2)
        path = tmp_path / "f.bin"
        with injector.installed():
            for _ in range(2):
                with pytest.raises(OSError):
                    atomic_replace_bytes(path, b"x", "checkpoint")
            atomic_replace_bytes(path, b"x", "checkpoint")
        assert path.read_bytes() == b"x"
        assert injector.fired["checkpoint.write"] == 2

    def test_catalogue_is_closed(self):
        assert "wal.append.fsync" in FAULT_POINTS
        assert "snapshot.rename" in FAULT_POINTS
        assert set(FAULT_KINDS) == {"enospc", "eio", "short_write",
                                    "fsync", "crash"}

    def test_enospc_leaves_no_temp_file(self, tmp_path):
        injector = DiskFaultInjector()
        injector.plan("snapshot.write", "enospc")
        with injector.installed():
            with pytest.raises(OSError):
                atomic_replace_bytes(tmp_path / "out.json", b"data",
                                     "snapshot")
        assert os.listdir(tmp_path) == []

    def test_crash_before_rename_preserves_old_content(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_replace_bytes(path, b"old", "snapshot")
        injector = DiskFaultInjector()
        injector.plan("snapshot.rename", "crash")
        with injector.installed():
            with pytest.raises(CrashPoint):
                atomic_replace_bytes(path, b"new", "snapshot")
        # the crash left the temp file (like a real kill) but the
        # published name still reads the old, fully-valid content
        assert path.read_bytes() == b"old"
        leftovers = [n for n in os.listdir(tmp_path)
                     if n.startswith(".durable.")]
        assert leftovers


# -- checkpoint + weights under faults ----------------------------------------

class TestCheckpointFaults:
    def checkpoint(self):
        return Checkpoint(input_path="in.csv", input_line=4,
                          output_offset=100, quarantine_offset=0,
                          stats={"rows_seen": 3}, by_rule={},
                          errors_by_type={})

    @pytest.mark.parametrize("point,kind", [
        ("checkpoint.write", "enospc"),
        ("checkpoint.write", "short_write"),
        ("checkpoint.fsync", "fsync"),
        ("checkpoint.rename", "eio"),
    ])
    def test_fault_surfaces_and_old_checkpoint_survives(self, tmp_path,
                                                        point, kind):
        path = tmp_path / "ckpt.json"
        old = self.checkpoint()
        old.save(path)
        newer = old._replace(input_line=9, output_offset=200)
        injector = DiskFaultInjector()
        injector.plan(point, kind)
        with injector.installed():
            with pytest.raises(CheckpointError):
                newer.save(path)
            # the previous checkpoint is untouched: resume falls back
            assert Checkpoint.load(path).input_line == 4
            # fault exhausted -> the retry goes through
            newer.save(path)
        assert Checkpoint.load(path).input_line == 9

    def test_no_temp_litter_after_fault(self, tmp_path):
        path = tmp_path / "ckpt.json"
        injector = DiskFaultInjector()
        injector.plan("checkpoint.write", "enospc")
        with injector.installed():
            with pytest.raises(CheckpointError):
                self.checkpoint().save(path)
        assert os.listdir(tmp_path) == []


class TestSpoolFaults:
    """A ruleset upload whose durable write fails surfaces 503, leaves
    nothing half-written and keeps the old Σ serving; the retry on a
    healthy disk succeeds.  Σ has no spool file of its own — the
    state directory's WAL record is its only durable copy — so the
    faults are aimed at the WAL append."""

    @pytest.mark.parametrize("kind", ["enospc", "eio", "short_write"])
    def test_upload_surfaces_503_then_retry_succeeds(self, tmp_path, kind):
        store = StateStore(tmp_path / "state")
        registry = RulesetRegistry(str(tmp_path / "spool"),
                                   state_store=store)
        injector = DiskFaultInjector()
        injector.plan("wal.append.write", kind)
        with injector.installed():
            with pytest.raises(RulesetRejected) as err:
                registry.upload("default", rules_json())
            assert err.value.status == 503
            assert "default" not in registry
            assert store.is_empty()
            entry = registry.upload("default", rules_json())
        store.close()
        # a restart recovers exactly the retried upload: no torn frame
        # and no record of the failed attempt
        with StateStore(tmp_path / "state") as again:
            assert again.recovery_report["torn_tail"] is None
            assert again.seq == 1
            active = again.state()["tenants"]["default"]["active"]
        assert active["fingerprint"] == entry.fingerprint
        assert len(json.loads(active["ruleset_json"])["rules"]) == 2

    def test_http_upload_maps_to_503(self, tmp_path):
        config = ServeConfig(port=0, state_dir=str(tmp_path / "state"))
        thread = ServerThread(config).start()
        try:
            injector = DiskFaultInjector()
            injector.plan("wal.append.write", "enospc")
            with injector.installed():
                status, _, body = request(
                    thread.port, "POST", "/rulesets/default",
                    body=rules_json())
            assert status == 503
            assert "state store" in body["error"]
            status, _, body = request(thread.port, "GET", "/rulesets")
            assert status == 200
            assert "default" not in body["tenants"]
            status, _, _ = request(thread.port, "POST",
                                   "/rulesets/default", body=rules_json())
            assert status == 200
        finally:
            thread.stop()


class TestWeightsFaults:
    def test_weighted_save_is_atomic_under_enospc(self, tmp_path):
        from repro.discovery.weights import (RuleWeight, WeightedCandidate,
                                             WeightedRuleSet,
                                             load_weighted_ruleset,
                                             save_weighted_ruleset)
        rules = travel_rules()
        weighted = WeightedRuleSet(TRAVEL, [
            WeightedCandidate(rule, RuleWeight(3, 1, 0, 4))
            for rule in rules])
        path = tmp_path / "weights.json"
        save_weighted_ruleset(weighted, path)
        injector = DiskFaultInjector()
        injector.plan("weights.write", "enospc")
        with injector.installed():
            with pytest.raises(OSError):
                save_weighted_ruleset(weighted, path)
        assert len(load_weighted_ruleset(path)) == 2    # old file intact


# -- correction-log torn tails ------------------------------------------------

class TestCorrectionLogTornTail:
    def make_log(self, tmp_path):
        log_path = tmp_path / "log.jsonl"
        session = DeltaRepairSession(travel_rules(), log_path=log_path)
        session.apply_rows(upserts=[
            ("1", ["Ian", "China", "Shanghai", "Hongkong", "ICDE"])])
        session.close()
        return log_path

    def test_clean_log_reports_no_torn_tail(self, tmp_path):
        log_path = self.make_log(tmp_path)
        _, rows, report = replay_correction_log(str(log_path))
        assert report["torn_tail"] is None
        assert rows["1"][2] == "Beijing"

    def test_torn_final_record_tolerated(self, tmp_path, caplog):
        log_path = self.make_log(tmp_path)
        clean = log_path.read_bytes()
        with open(log_path, "ab") as fh:
            fh.write(b'{"op": "cell", "row": "1", "at')
        torn_bytes = b'{"op": "cell", "row": "1", "at'
        with caplog.at_level("WARNING", logger="repro.core.delta"):
            _, rows, report = replay_correction_log(str(log_path))
        assert report["torn_tail"]["dropped_bytes"] == len(torn_bytes)
        assert rows["1"][2] == "Beijing"
        assert any("torn" in message for message in caplog.messages)
        # audit carries the same tolerance and records it
        audit = audit_correction_log(str(log_path))
        assert audit["ok"]
        assert audit["torn_tail"]["reason"] \
            == "final record is not valid JSON"
        # the reader never mutates: the file still has its torn tail
        assert log_path.read_bytes() != clean

    def test_missing_final_newline_tolerated(self, tmp_path):
        log_path = self.make_log(tmp_path)
        data = log_path.read_bytes()
        log_path.write_bytes(data[:-1])     # strip the last newline
        records, torn = load_log_records(str(log_path))
        assert torn["reason"] == "final record is missing its newline"
        # the un-terminated record parses but is not trusted
        assert len(records) == len(data.splitlines()) - 1

    def test_mid_file_corruption_raises(self, tmp_path):
        log_path = self.make_log(tmp_path)
        lines = log_path.read_bytes().splitlines(keepends=True)
        lines[0] = b'{"op": brokenbroken\n'
        log_path.write_bytes(b"".join(lines))
        with pytest.raises(DeltaError):
            replay_correction_log(str(log_path))

    def test_truncate_torn_jsonl_physically_truncates(self, tmp_path):
        log_path = self.make_log(tmp_path)
        clean = log_path.read_bytes()
        with open(log_path, "ab") as fh:
            fh.write(b'{"torn')
        # a dry run reports the torn tail and leaves the file alone
        _, info = rehydrate_session(travel_rules(), str(log_path), "s",
                                    dry_run=True)
        assert info["torn_tail"]["dropped_bytes"] == 6
        assert log_path.read_bytes() == clean + b'{"torn'
        # a live rebuild cuts at the reader's offset, then appends its
        # own begin record behind the clean prefix
        session, info = rehydrate_session(travel_rules(), str(log_path),
                                          "s")
        session.close()
        assert info["torn_tail"]["dropped_bytes"] == 6
        assert log_path.read_bytes().startswith(clean)
        records, torn = load_log_records(str(log_path))
        assert torn is None
        assert records[-1]["op"] == "begin"
        assert session.row("1")[2] == "Beijing"

    def test_refused_batch_leaves_log_replayable(self, tmp_path):
        log_path = tmp_path / "log.jsonl"
        session = DeltaRepairSession(travel_rules(), log_path=log_path,
                                     durable=True)
        session.apply_rows(upserts=[("1", IAN)])
        injector = DiskFaultInjector()
        injector.plan("correction_log.append", "short_write")
        with injector.installed():
            with pytest.raises(OSError):
                session.apply_rows(upserts=[("2", MIKE)])
        session.apply_rows(upserts=[("3", ANN)])
        session.close()
        assert audit_correction_log(str(log_path))["ok"]
        _, rows, report = replay_correction_log(str(log_path))
        assert report["torn_tail"] is None
        assert sorted(rows) == ["1", "3"]
        assert rows["1"][2] == rows["3"][2] == "Beijing"

    def test_correction_log_append_fault_not_acknowledged(self, tmp_path):
        session = DeltaRepairSession(travel_rules(),
                                     log_path=tmp_path / "log.jsonl",
                                     durable=True)
        injector = DiskFaultInjector()
        injector.plan("correction_log.append", "enospc")
        with injector.installed():
            with pytest.raises(OSError):
                session.apply_rows(upserts=[
                    ("1", ["Ian", "China", "Shanghai", "Hongkong",
                           "ICDE"])])
        session.close()


# -- RecoveryManager ----------------------------------------------------------

def log_delta_session(store, registry, tenant, rows):
    """Open *tenant*'s delta session as the daemon does and acknowledge
    *rows* one-row batches; returns the session (still open)."""
    entry = registry.upload(tenant, rules_json())
    log_path = os.path.join(registry.spool_dir,
                            "delta-%s.corrections.jsonl" % tenant)
    session = DeltaRepairSession(entry.ruleset, log_path=log_path,
                                 check_consistency=False, durable=True)
    store.append("delta_open", tenant=tenant,
                 session_id=session.session_id, log_path=log_path,
                 fingerprint=entry.fingerprint)
    for i in range(rows):
        session.apply_rows(upserts=[(str(i), IAN)])
    return session


def build_state_dir(tmp_path, *, torn_log=False, rows=3):
    """A state dir + spool as a killed daemon would leave them."""
    state_dir = tmp_path / "state"
    store = StateStore(state_dir)
    registry = RulesetRegistry(str(state_dir / "spool"), state_store=store)
    session = log_delta_session(store, registry, "default", rows)
    expected = {rid: session.row(rid) for rid in session.row_ids()}
    session_id, epoch = session.session_id, session.epoch
    session.close()
    store.close()
    if torn_log:
        with open(session.log.path, "ab") as fh:
            fh.write(TORN_LOG_TAIL)
    return state_dir, expected, session_id, epoch


TORN_LOG_TAIL = b'{"op": "cell", "row": "0", "attr": "cap'


class TestRecoveryManager:
    def test_rebuild_recovers_acknowledged_state(self, tmp_path):
        state_dir, expected, session_id, epoch = build_state_dir(tmp_path)
        registry = RulesetRegistry(str(tmp_path / "spool2"))
        sessions = {}
        report = RecoveryManager(StateStore(state_dir)).rebuild(
            registry, sessions)
        assert report["ok"], report["problems"]
        assert "default" in registry
        session = sessions["default"]
        assert session.session_id == session_id
        assert session.epoch == epoch
        assert {rid: session.row(rid)
                for rid in session.row_ids()} == expected
        assert session.self_check() == []
        session.close()

    def test_rebuild_truncates_torn_log(self, tmp_path):
        state_dir, expected, _, _ = build_state_dir(tmp_path,
                                                    torn_log=True)
        registry = RulesetRegistry(str(tmp_path / "spool2"))
        sessions = {}
        report = RecoveryManager(StateStore(state_dir)).rebuild(
            registry, sessions)
        assert report["ok"], report["problems"]
        entry = report["sessions"]["default"]
        assert entry["torn_tail"]["dropped_bytes"] == len(TORN_LOG_TAIL)
        session = sessions["default"]
        assert {rid: session.row(rid)
                for rid in session.row_ids()} == expected
        session.close()

    def test_missing_log_is_reported_not_fatal(self, tmp_path):
        state_dir, _, _, _ = build_state_dir(tmp_path)
        os.unlink(os.path.join(str(state_dir / "spool"),
                               "delta-default.corrections.jsonl"))
        registry = RulesetRegistry(str(tmp_path / "spool2"))
        sessions = {}
        report = RecoveryManager(StateStore(state_dir)).rebuild(
            registry, sessions)
        assert not report["ok"]
        assert any("missing" in p for p in report["problems"])
        assert "default" in registry      # the tenant itself recovered

    def test_corrupt_log_fails_only_its_tenant(self, tmp_path):
        state_dir = tmp_path / "state"
        store = StateStore(state_dir)
        registry = RulesetRegistry(str(state_dir / "spool"),
                                   state_store=store)
        logs, expected = {}, {}
        for tenant in ("a", "b"):
            session = log_delta_session(store, registry, tenant, 3)
            logs[tenant] = session.log.path
            expected[tenant] = dict(session.items())
            session.close()
        store.close()
        lines = logs["a"].read_bytes().splitlines(keepends=True)
        lines[1] = b'{"op": brokenbroken\n'
        logs["a"].write_bytes(b"".join(lines))
        sessions = {}
        with StateStore(state_dir) as recovered:
            report = RecoveryManager(recovered).rebuild(
                RulesetRegistry(str(tmp_path / "spool2")), sessions)
        assert not report["ok"]
        assert [p for p in report["problems"] if "'a'" in p]
        assert not [p for p in report["problems"] if "'b'" in p]
        assert "a" not in sessions
        assert dict(sessions["b"].items()) == expected["b"]
        sessions["b"].close()

    def test_verify_state_dir_is_read_only(self, tmp_path):
        state_dir, _, _, _ = build_state_dir(tmp_path, torn_log=True)
        log_path = os.path.join(str(state_dir / "spool"),
                                "delta-default.corrections.jsonl")
        before = open(log_path, "rb").read()
        report = verify_state_dir(state_dir)
        assert report["ok"], report["problems"]
        assert report["sessions"]["default"]["self_check"] == 0
        assert open(log_path, "rb").read() == before    # untouched

    def test_registry_writethrough_rollback_recovers(self, tmp_path):
        state_dir = tmp_path / "state"
        store = StateStore(state_dir)
        registry = RulesetRegistry(str(tmp_path / "spool"),
                                   state_store=store)
        registry.upload("default", rules_json())
        smaller = RuleSet(TRAVEL, [FixingRule(
            {"country": "Canada"}, "capital", {"Toronto"}, "Ottawa",
            name="phi2")])
        registry.upload("default", ruleset_to_json(smaller))
        rolled = registry.rollback("default")
        store.close()
        registry2 = RulesetRegistry(str(tmp_path / "spool2"))
        report = RecoveryManager(StateStore(state_dir)).rebuild(
            registry2, {})
        assert report["ok"], report["problems"]
        assert registry2.get("default").fingerprint == rolled.fingerprint
        # previous slot recovered too: rollback works after restart
        assert registry2.rollback("default").rule_count == 1

    def test_state_store_failure_rejects_upload_with_503(self, tmp_path):
        store = StateStore(tmp_path / "state")
        registry = RulesetRegistry(str(tmp_path / "spool"),
                                   state_store=store)
        injector = DiskFaultInjector()
        injector.plan("wal.append.write", "enospc")
        with injector.installed():
            with pytest.raises(RulesetRejected) as err:
                registry.upload("default", rules_json())
        assert err.value.status == 503
        assert "default" not in registry
        assert store.is_empty()
        store.close()


class TestRecoverCli:
    def test_recover_summary_and_verify(self, tmp_path, capsys):
        from repro.cli import main
        state_dir, _, _, _ = build_state_dir(tmp_path)
        assert main(["recover", str(state_dir)]) == 0
        out = capsys.readouterr().out
        assert "recovery OK" in out
        assert "delta session" in out
        assert main(["recover", str(state_dir), "--verify",
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"]
        assert report["sessions"]["default"]["self_check"] == 0

    def test_recover_verify_fails_on_missing_log(self, tmp_path, capsys):
        from repro.cli import main
        state_dir, _, _, _ = build_state_dir(tmp_path)
        os.unlink(os.path.join(str(state_dir / "spool"),
                               "delta-default.corrections.jsonl"))
        assert main(["recover", str(state_dir), "--verify"]) == 1
        assert "PROBLEM" in capsys.readouterr().out


# -- the daemon, restarted ----------------------------------------------------

def wait_ready(port, deadline=30.0):
    """Poll /readyz until ready; returns the statuses seen on the way."""
    seen = []
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        try:
            status, _, body = request(port, "GET", "/readyz", timeout=5.0)
        except OSError:
            time.sleep(0.05)
            continue
        seen.append((status, body))
        if status == 200:
            return seen
        time.sleep(0.05)
    raise AssertionError("daemon not ready; last: %r" % (seen[-2:],))


class TestServeRestart:
    def test_state_dir_restart_recovers_sessions(self, tmp_path):
        config = ServeConfig(port=0, state_dir=str(tmp_path / "state"))
        thread = ServerThread(config).start()
        try:
            status, _, _ = request(thread.port, "POST",
                                   "/rulesets/default", body=rules_json())
            assert status == 200
            status, _, first = request(
                thread.port, "POST", "/repair/delta?tenant=default",
                body={"upserts": [
                    {"id": "1", "values": ["Ian", "China", "Shanghai",
                                           "Hongkong", "ICDE"]},
                    {"id": "2", "values": ["Mike", "Canada", "Toronto",
                                           "Toronto", "VLDB"]}]})
            assert status == 200
            assert first["rows"]["1"][2] == "Beijing"
            status, _, audit = request(
                thread.port, "GET",
                "/repair/delta?tenant=default&rows=1")
            assert status == 200
            rows_before = audit["rows_data"]
            epoch_before = first["epoch"]
        finally:
            thread.stop()

        thread2 = ServerThread(config).start()
        try:
            seen = wait_ready(thread2.port)
            ready = seen[-1][1]
            assert ready["recovered"]["ok"]
            assert ready["recovered"]["sessions"] == 1
            report = thread2.server.recovery_report
            assert report["ok"], report["problems"]
            status, _, audit = request(
                thread2.port, "GET",
                "/repair/delta?tenant=default&rows=1")
            assert status == 200
            assert audit["rows_data"] == rows_before
            assert audit["epoch"] == epoch_before
            # the recovered session keeps absorbing deltas durably
            status, _, more = request(
                thread2.port, "POST", "/repair/delta?tenant=default",
                body={"upserts": [
                    {"id": "3", "values": ["Ann", "China", "Hongkong",
                                           "Paris", "VLDB"]}]})
            assert status == 200
            assert more["epoch"] == epoch_before + 1
            assert more["rows"]["3"][2] == "Beijing"
        finally:
            thread2.stop()

    def test_restart_without_state_dir_is_ephemeral(self, tmp_path):
        config = ServeConfig(port=0, spool_dir=str(tmp_path / "spool"))
        thread = ServerThread(config).start()
        try:
            request(thread.port, "POST", "/rulesets/default",
                    body=rules_json())
        finally:
            thread.stop()
        thread2 = ServerThread(config).start()
        try:
            status, _, _ = request(thread2.port, "GET", "/readyz")
            assert status == 503    # nothing recovered, by design
        finally:
            thread2.stop()

    def test_rollback_survives_restart(self, tmp_path):
        config = ServeConfig(port=0, state_dir=str(tmp_path / "state"))
        thread = ServerThread(config).start()
        try:
            request(thread.port, "POST", "/rulesets/default",
                    body=rules_json())
            smaller = RuleSet(TRAVEL, [FixingRule(
                {"country": "Canada"}, "capital", {"Toronto"}, "Ottawa",
                name="phi2")])
            request(thread.port, "POST", "/rulesets/default",
                    body=ruleset_to_json(smaller))
            status, _, body = request(thread.port, "POST",
                                      "/rulesets/default/rollback")
            assert status == 200
            fingerprint = body["active"]["fingerprint"]
        finally:
            thread.stop()
        thread2 = ServerThread(config).start()
        try:
            wait_ready(thread2.port)
            status, _, body = request(thread2.port, "GET", "/rulesets")
            assert status == 200
            assert body["tenants"]["default"]["fingerprint"] \
                == fingerprint
        finally:
            thread2.stop()


    def test_refused_delta_batch_not_served_nor_recovered(self, tmp_path):
        config = ServeConfig(port=0, state_dir=str(tmp_path / "state"))
        delta = "/repair/delta?tenant=default"
        thread = ServerThread(config).start()
        try:
            request(thread.port, "POST", "/rulesets/default",
                    body=rules_json())
            status, _, _ = request(thread.port, "POST", delta, body={
                "upserts": [{"id": "1", "values": IAN}]})
            assert status == 200
            injector = DiskFaultInjector()
            injector.plan("correction_log.append", "short_write")
            with injector.installed():
                status, _, body = request(thread.port, "POST", delta, body={
                    "upserts": [{"id": "2", "values": MIKE}]})
            assert status == 503, body
            status, _, audit = request(thread.port, "GET", delta + "&rows=1")
            assert status == 200
            assert sorted(audit["rows_data"]) == ["1"]
            status, _, _ = request(thread.port, "POST", delta, body={
                "upserts": [{"id": "3", "values": ANN}]})
            assert status == 200
        finally:
            thread.stop()

        thread2 = ServerThread(config).start()
        try:
            ready = wait_ready(thread2.port)[-1][1]
            assert ready["recovered"]["ok"], \
                thread2.server.recovery_report["problems"]
            status, _, audit = request(thread2.port, "GET",
                                       delta + "&rows=1")
            assert status == 200
            assert sorted(audit["rows_data"]) == ["1", "3"]
            assert audit["rows_data"]["3"][2] == "Beijing"
        finally:
            thread2.stop()

    def test_failed_sigma_sync_rebuilds_from_log(self, tmp_path):
        state_dir = tmp_path / "state"
        config = ServeConfig(port=0, state_dir=str(state_dir))
        delta = "/repair/delta?tenant=default"
        thread = ServerThread(config).start()
        try:
            request(thread.port, "POST", "/rulesets/default",
                    body=rules_json())
            status, _, _ = request(thread.port, "POST", delta, body={
                "upserts": [{"id": "1", "values": IAN},
                            {"id": "2", "values": MIKE}]})
            assert status == 200
            _, _, before = request(thread.port, "GET", delta)
            # dropping phi1 reverts row 1, but its records hit a full disk
            smaller = RuleSet(TRAVEL, [FixingRule(
                {"country": "Canada"}, "capital", {"Toronto"}, "Ottawa",
                name="phi2")])
            injector = DiskFaultInjector()
            injector.plan("correction_log.append", "enospc")
            with injector.installed():
                status, _, body = request(thread.port, "POST",
                                          "/rulesets/default",
                                          body=ruleset_to_json(smaller))
            assert status == 200, body
            assert body["delta"]["rebuilt"] is True
            _, _, audit = request(thread.port, "GET", delta + "&rows=1")
            assert audit["session"] == before["session"]
            assert audit["rules_fingerprint"] \
                == body["installed"]["fingerprint"]
            session = thread.server._delta_sessions["default"]
            assert session.self_check() == []
            expected, _ = rehydrate_session(
                thread.server.registry.get("default").ruleset,
                audit["log_path"], audit["session"], dry_run=True)
            assert audit["rows_data"] == dict(expected.items())
            assert audit["rows_data"]["1"] == IAN
            # the log still replays to the session after the next swap
            status, _, _ = request(thread.port, "POST", "/rulesets/default",
                                   body=rules_json())
            assert status == 200
            assert audit_correction_log(audit["log_path"])["ok"]
        finally:
            thread.stop()
        records, _, _ = read_wal(str(state_dir / "wal.log"))
        assert [r["op"] for r in records].count("delta_open") == 1


SERVE_ENV_SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir,
                                "src")


def spawn_daemon(state_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(SERVE_ENV_SCRIPT)
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
         "--state-dir", str(state_dir)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    port = None
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        match = re.search(r"listening on http://[\d.]+:(\d+)", line)
        if match:
            port = int(match.group(1))
            break
    if port is None:
        proc.kill()
        raise AssertionError("daemon never reported its port")
    return proc, port


@pytest.mark.faultinjection
class TestSigkillRestart:
    def test_sigkill_mid_traffic_loses_no_acknowledged_write(
            self, tmp_path):
        state_dir = tmp_path / "state"
        proc, port = spawn_daemon(state_dir)
        acked = {}
        try:
            status, _, _ = request(port, "POST", "/rulesets/default",
                                   body=rules_json())
            assert status == 200
            # acknowledge a stream of delta batches, then SIGKILL the
            # daemon with no warning whatsoever
            for i in range(12):
                rid = str(i)
                status, _, body = request(
                    port, "POST", "/repair/delta?tenant=default",
                    body={"upserts": [{"id": rid, "values": [
                        "p%d" % i, "China", "Shanghai", "Hongkong",
                        "ICDE"]}]})
                assert status == 200
                acked[rid] = body["rows"][rid]
        finally:
            proc.kill()        # SIGKILL: no drain, no atexit, nothing
            proc.wait(timeout=30)

        proc2, port2 = spawn_daemon(state_dir)
        try:
            wait_ready(port2)
            status, _, audit = request(
                port2, "GET", "/repair/delta?tenant=default&rows=1")
            assert status == 200
            for rid, values in acked.items():
                assert audit["rows_data"][rid] == values, rid
            assert audit["rows"] == len(acked)
            status, _, body = request(port2, "GET", "/rulesets")
            assert status == 200
            assert "default" in body["tenants"]
        finally:
            proc2.send_signal(signal.SIGTERM)
            try:
                proc2.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc2.kill()
                proc2.wait(timeout=30)

        # the dry-run verifier agrees with the daemon
        report = verify_state_dir(state_dir)
        assert report["ok"], report["problems"]

    def test_sigkill_with_torn_wal_and_log_tail(self, tmp_path):
        """Simulated torn writes on top of a real SIGKILL: recovery
        truncates both tails and keeps every acknowledged row."""
        state_dir = tmp_path / "state"
        proc, port = spawn_daemon(state_dir)
        try:
            request(port, "POST", "/rulesets/default", body=rules_json())
            status, _, body = request(
                port, "POST", "/repair/delta?tenant=default",
                body={"upserts": [{"id": "1", "values": [
                    "Ian", "China", "Shanghai", "Hongkong", "ICDE"]}]})
            assert status == 200
            acked_row = body["rows"]["1"]
        finally:
            proc.kill()
            proc.wait(timeout=30)
        # what an interrupted append would have left behind
        with open(state_dir / "wal.log", "ab") as fh:
            fh.write(encode_frame({"op": "delta_open", "tenant": "x",
                                   "session_id": "s", "seq": 99})[:-5])
        log_path = state_dir / "spool" / "delta-default.corrections.jsonl"
        with open(log_path, "ab") as fh:
            fh.write(b'{"op": "cell", "row": "1"')

        proc2, port2 = spawn_daemon(state_dir)
        try:
            wait_ready(port2)
            status, _, audit = request(
                port2, "GET", "/repair/delta?tenant=default&rows=1")
            assert status == 200
            assert audit["rows_data"]["1"] == acked_row
        finally:
            proc2.kill()
            proc2.wait(timeout=30)
