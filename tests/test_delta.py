"""The incremental delta-repair engine (``repro.core.delta``).

Covers the session lifecycle (row deltas, Σ deltas, reads), the
auditable correction log (JSONL replay, integrity cross-checks), the
snapshot → validate → apply → audit staging, the incremental == full
re-repair property (both directed cases and a Hypothesis property over
random operation interleavings), the delta-aware streaming adapter,
the ``repro delta`` / ``repro audit`` commands, the columnar
auto-threshold override (env var + CLI flag), the columnar bulk load
over counting rules, and the ``ConsistentRuleSet``
fingerprint-invalidation regression.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.core import (ColumnarRepairReport, DeltaError, DeltaOutcome,
                        DeltaRepairSession, FixingRule, MatchCounter,
                        RuleSet, audit_correction_log, counting_rules,
                        ensure_consistent, iter_log_records,
                        repair_delta_stream, repair_table,
                        replay_correction_log, save_ruleset)
from repro.core.incremental import ConsistentRuleSet
from repro.core.resolution import DROP_CONFLICTING
from repro.relational import Row, Schema, Table, write_csv

ATTRS = ("a", "b", "c", "d")
VALUES = ("0", "1", "2")
SCHEMA = Schema("P", list(ATTRS))

#: hypothesis settings shared by the interleaving properties
FIXED = dict(deadline=None, derandomize=True)


# -- strategies (tiny alphabet: interactions are frequent, not rare) --------

@st.composite
def rules(draw):
    attribute = draw(st.sampled_from(ATTRS))
    x_candidates = [a for a in ATTRS if a != attribute]
    x_attrs = draw(st.lists(st.sampled_from(x_candidates), min_size=1,
                            max_size=3, unique=True))
    evidence = {a: draw(st.sampled_from(VALUES)) for a in x_attrs}
    fact = draw(st.sampled_from(VALUES))
    negatives = draw(st.lists(
        st.sampled_from([v for v in VALUES if v != fact]),
        min_size=1, max_size=2, unique=True))
    return FixingRule(evidence, attribute, negatives, fact)


@st.composite
def consistent_rulesets(draw):
    candidates = draw(st.lists(rules(), min_size=1, max_size=6))
    ruleset = RuleSet(SCHEMA, candidates)
    return ensure_consistent(ruleset, strategy=DROP_CONFLICTING).rules


@st.composite
def cell_lists(draw):
    return [draw(st.sampled_from(VALUES)) for _ in ATTRS]


# -- shared fixtures ---------------------------------------------------------

@pytest.fixture()
def travel_session(paper_rules, travel_data, tmp_path):
    session = DeltaRepairSession.from_table(
        travel_data, paper_rules,
        log_path=tmp_path / "corrections.jsonl")
    yield session
    session.close()


def session_cells(session):
    return [values for _rid, values in session.items()]


# -- session lifecycle -------------------------------------------------------

class TestSessionBasics:
    def test_initial_repair_equals_repair_table(self, travel_session,
                                                paper_rules, travel_data):
        report = repair_table(travel_data, paper_rules)
        assert session_cells(travel_session) == \
            [list(row.values) for row in report.table]
        assert travel_session.epoch == 0

    def test_row_reads(self, travel_session):
        # r3 (id "2"): Tokyo/Tokyo/ICDE evidence fires phi3 on country.
        assert travel_session.row("2")[1] == "Japan"
        assert travel_session.original("2")[1] == "China"
        result = travel_session.row_result("2")
        assert [f.rule.name for f in result.applied] == ["phi3"]
        assert "country" in result.assured

    def test_upsert_repairs_only_touched_rows(self, travel_session):
        outcome = travel_session.apply_rows(upserts=[
            ("9", ["Zoe", "Canada", "Toronto", "Ottawa", "VLDB"])])
        assert isinstance(outcome, DeltaOutcome)
        assert outcome.kind == "rows"
        assert outcome.affected == ("9",)
        assert travel_session.row("9")[2] == "Ottawa"  # phi2 fired
        assert travel_session.epoch == 1
        assert travel_session.self_check() == []

    def test_upsert_overwrite_and_delete(self, travel_session):
        travel_session.apply_rows(upserts=[
            ("1", ["Ian", "Canada", "Toronto", "Hongkong", "ICDE"])])
        assert travel_session.row("1")[2] == "Ottawa"
        outcome = travel_session.apply_rows(deletes=["1"])
        assert "1" not in travel_session
        assert outcome.detail["deletes"] == 1
        assert len(travel_session) == 3
        assert travel_session.self_check() == []

    def test_unknown_delete_is_noop(self, travel_session):
        outcome = travel_session.apply_rows(deletes=["no-such-row"])
        assert outcome.affected == ()
        assert len(travel_session) == 4

    def test_to_table_roundtrip(self, travel_session, travel_schema):
        table = travel_session.to_table()
        assert isinstance(table, Table)
        assert len(table) == 4
        originals = travel_session.originals_table()
        assert originals[2]["country"] == "China"
        assert table[2]["country"] == "Japan"

    def test_inconsistent_rules_rejected(self, travel_schema, phi1_prime,
                                         phi3):
        from repro.core.repair import InconsistentRulesError
        with pytest.raises(InconsistentRulesError):
            DeltaRepairSession(RuleSet(travel_schema, [phi1_prime, phi3]))

    def test_bad_width_rejected(self, travel_session):
        with pytest.raises(DeltaError):
            travel_session.apply_rows(upserts=[("9", ["too", "short"])])


class TestRuleDeltas:
    def test_add_rule_rerepairs_candidates_only(self, travel_schema,
                                                travel_data, phi1, phi2,
                                                phi3, phi4):
        session = DeltaRepairSession.from_table(
            travel_data, RuleSet(travel_schema, [phi1, phi2, phi3]))
        # Before phi4: r2's city stays Hongkong.
        assert session.row("1")[3] == "Hongkong"
        outcome = session.apply_rules(added=[phi4])
        assert outcome.kind == "rules"
        # r2 is a candidate (Beijing/ICDE evidence after phi1, city in
        # {Hongkong}); r4 rides along because phi2 rewrote its capital,
        # which phi4 touches.  r1 (clean, city Shanghai) and r3 (only
        # country rewritten) must NOT re-repair.
        assert "1" in outcome.affected
        assert "0" not in outcome.affected
        assert "2" not in outcome.affected
        assert session.row("1")[3] == "Shanghai"
        assert session.self_check() == []

    def test_remove_rule_reverts_its_rows(self, travel_session, phi3):
        outcome = travel_session.apply_rules(removed=[phi3])
        # Only r3 had phi3 applied; its country reverts to China.
        assert "2" in outcome.affected
        assert travel_session.row("2")[1] == "China"
        assert travel_session.self_check() == []

    def test_add_conflicting_rule_raises_without_mutation(
            self, travel_session, phi1_prime):
        before = travel_session.rules_fingerprint
        from repro.core.repair import InconsistentRulesError
        with pytest.raises(InconsistentRulesError):
            travel_session.apply_rules(added=[phi1_prime])
        assert travel_session.rules_fingerprint == before
        assert travel_session.self_check() == []

    def test_noop_rule_delta(self, travel_session, phi1):
        epoch = travel_session.epoch
        outcome = travel_session.apply_rules(added=[phi1])  # already there
        assert outcome.affected == ()
        assert travel_session.epoch == epoch + 1


# -- the correction log ------------------------------------------------------

class TestCorrectionLog:
    def test_replay_rebuilds_final_state(self, travel_session, tmp_path):
        travel_session.apply_rows(upserts=[
            ("9", ["Zoe", "Canada", "Toronto", "Ottawa", "VLDB"])])
        travel_session.apply_rows(deletes=["0"])
        travel_session.log.flush()
        schema, rows, report = replay_correction_log(
            travel_session.log.path)
        assert report["mismatch_count"] == 0
        assert schema.attribute_names == \
            travel_session.schema.attribute_names
        assert rows == {rid: values for rid, values
                        in travel_session.items()}

    def test_cell_records_carry_provenance(self, travel_session):
        records = travel_session.log.records()
        cells = [r for r in records if r["op"] == "cell"]
        assert cells, "base repair must log its corrections"
        for record in cells:
            assert record["rule"] in {"phi1", "phi2", "phi3", "phi4"}
            assert len(record["rule_fp"]) == 16
            assert record["session"] == travel_session.session_id
            assert isinstance(record["evidence"], list)
            assert record["old"] != record["new"]

    def test_rules_record_on_sigma_delta(self, travel_session, phi3):
        travel_session.apply_rules(removed=[phi3])
        records = travel_session.log.records()
        rules_records = [r for r in records if r["op"] == "rules"]
        assert rules_records[-1]["removed"] == ["phi3"]
        assert rules_records[-1]["fingerprint"] == \
            travel_session.rules_fingerprint

    def test_audit_ok_and_tallies(self, travel_session):
        report = audit_correction_log(travel_session.log.path)
        assert report["ok"]
        assert report["corrections_by_rule"]["phi1"] >= 1
        assert sum(report["corrections_by_attribute"].values()) == \
            sum(report["corrections_by_rule"].values())

    def test_tampered_log_detected(self, travel_session):
        records = travel_session.log.records()
        for record in records:
            if record["op"] == "cell":
                record["old"] = "not-the-old-value"
                break
        report = audit_correction_log(records)
        assert not report["ok"]
        assert report["mismatch_count"] >= 1

    def test_in_memory_log(self, paper_rules, travel_data):
        session = DeltaRepairSession.from_table(travel_data, paper_rules)
        assert session.log.path is None
        _schema, rows, report = replay_correction_log(
            session.log.records())
        assert report["mismatch_count"] == 0
        assert rows == {rid: values for rid, values in session.items()}

    def test_log_continuation_across_sessions(self, paper_rules,
                                              travel_data, tmp_path):
        path = tmp_path / "continued.jsonl"
        first = DeltaRepairSession.from_table(travel_data, paper_rules,
                                              log_path=path)
        first.apply_rows(deletes=["3"])
        first.close()
        second = DeltaRepairSession(
            paper_rules,
            [(rid, first.original(rid)) for rid in first.row_ids()],
            log_path=path)
        second.apply_rows(upserts=[
            ("9", ["Zoe", "Canada", "Toronto", "Ottawa", "VLDB"])])
        second.close()
        _schema, rows, report = replay_correction_log(path)
        assert report["mismatch_count"] == 0
        assert sorted(report["sessions"]) == sorted(
            {first.session_id, second.session_id})
        assert rows == {rid: values for rid, values in second.items()}


# -- snapshot / validate / apply / audit stages ------------------------------

class TestStages:
    def test_validated_apply_happy_path(self, travel_session):
        snapshot = travel_session.create_snapshot()
        assert travel_session.validate_snapshot(snapshot)
        outcome = travel_session.apply_validated(
            snapshot, upserts=[("9", ["Zoe", "Canada", "Toronto",
                                      "Ottawa", "VLDB"])])
        assert outcome.epoch == snapshot.epoch + 1
        assert not travel_session.validate_snapshot(snapshot)

    def test_drifted_snapshot_refused(self, travel_session):
        snapshot = travel_session.create_snapshot()
        travel_session.apply_rows(deletes=["3"])
        with pytest.raises(DeltaError, match="drifted"):
            travel_session.apply_validated(
                snapshot, upserts=[("9", ["Zoe", "Canada", "Toronto",
                                          "Ottawa", "VLDB"])])
        # CAS semantics: the refused delta left nothing behind.
        assert "9" not in travel_session

    def test_mixed_kinds_refused(self, travel_session, phi3):
        snapshot = travel_session.create_snapshot()
        with pytest.raises(DeltaError, match="one delta kind"):
            travel_session.apply_validated(
                snapshot, deletes=["3"], removed=[phi3])

    def test_audit_report_accounts_for_state(self, travel_session):
        report = travel_session.generate_audit_report()
        assert report["rows"] == 4
        assert report["rows_changed"] == 3  # r2, r3, r4 change; r1 clean
        assert report["rules_fingerprint"] == \
            travel_session.rules_fingerprint
        assert report["checksum"] == \
            travel_session.create_snapshot().checksum
        assert sum(report["applications_by_rule"].values()) == 4


# -- incremental == full: directed + Hypothesis interleavings ---------------

def _full_state(session):
    baseline = session.full_repair_baseline()
    return {rid: result.row.values for rid, result in baseline.items()}


class TestIncrementalEqualsFull:
    def test_directed_interleaving(self, travel_session, phi3, phi4):
        travel_session.apply_rules(removed=[phi4])
        travel_session.apply_rows(upserts=[
            ("9", ["Ada", "China", "Hongkong", "Hongkong", "ICDE"])])
        travel_session.apply_rules(added=[phi4])
        travel_session.apply_rows(deletes=["0"])
        travel_session.apply_rules(removed=[phi3])
        assert travel_session.self_check() == []

    @settings(max_examples=60, **FIXED)
    @given(consistent_rulesets(),
           st.lists(cell_lists(), min_size=1, max_size=8),
           st.data())
    def test_random_interleavings(self, ruleset, cells, data):
        """Satellite: arbitrary interleavings of upserts, deletes, rule
        retractions and rule additions leave the session equal to a
        fresh full repair — cells, assured sets, and provenance."""
        pool = ruleset.rules()
        session = DeltaRepairSession(
            ruleset, [(str(i), row) for i, row in enumerate(cells)])
        removed = []
        n_ops = data.draw(st.integers(min_value=1, max_value=6),
                          label="n_ops")
        for step in range(n_ops):
            choices = ["upsert", "delete"]
            if len(session.rules()) > (1 if removed is not None else 0):
                choices.append("remove_rule")
            if removed:
                choices.append("add_rule")
            op = data.draw(st.sampled_from(choices),
                           label="op[%d]" % step)
            if op == "upsert":
                rid = data.draw(st.sampled_from(
                    session.row_ids() + ["new-%d" % step]),
                    label="rid[%d]" % step)
                values = data.draw(cell_lists(),
                                   label="values[%d]" % step)
                session.apply_rows(upserts=[(rid, values)])
            elif op == "delete" and len(session):
                rid = data.draw(st.sampled_from(session.row_ids()),
                                label="del[%d]" % step)
                session.apply_rows(deletes=[rid])
            elif op == "remove_rule" and len(session.rules()):
                rule = data.draw(st.sampled_from(session.rules().rules()),
                                 label="rm[%d]" % step)
                session.apply_rules(removed=[rule])
                removed.append(rule)
            elif op == "add_rule" and removed:
                rule = removed.pop(data.draw(
                    st.integers(0, len(removed) - 1),
                    label="re-add[%d]" % step))
                session.apply_rules(added=[rule])
            problems = session.self_check()
            assert problems == [], "after step %d (%s): %s" % (
                step, op, problems[:3])
        # And the log replays to the final visible state.
        _schema, rows, report = replay_correction_log(
            session.log.records())
        assert report["mismatch_count"] == 0
        assert rows == {rid: values for rid, values in session.items()}


# -- delta-aware streaming ---------------------------------------------------

class TestDeltaStream:
    def test_event_stream(self, paper_rules, travel_data):
        events = [
            {"op": "upsert", "id": "r1",
             "values": ["Ann", "China", "Shanghai", "Hongkong", "ICDE"]},
            {"op": "batch",
             "upserts": [{"id": "r2", "values": ["Bob", "Canada",
                                                 "Toronto", "Toronto",
                                                 "VLDB"]}],
             "deletes": []},
            {"op": "remove_rule", "name": "phi4"},
            {"op": "delete", "id": "r2"},
        ]
        outcomes = list(repair_delta_stream(iter(events), paper_rules))
        assert len(outcomes) == 4
        event, outcome = outcomes[0]
        assert event["op"] == "upsert" and outcome.kind == "rows"
        assert outcomes[2][1].kind == "rules"

    def test_existing_session_and_skip(self, travel_session):
        events = [{"op": "no-such-op"},
                  {"op": "delete", "id": "3"}]
        outcomes = list(repair_delta_stream(iter(events),
                                            session=travel_session,
                                            on_error="skip"))
        assert isinstance(outcomes[0][1], DeltaError)
        assert outcomes[1][1].detail["deletes"] == 1
        with pytest.raises(DeltaError):
            list(repair_delta_stream(iter([{"op": "bogus"}]),
                                     session=travel_session))

    def test_requires_rules_or_session(self):
        with pytest.raises(ValueError):
            list(repair_delta_stream(iter([])))


# -- CLI: repro delta / repro audit -----------------------------------------

class TestDeltaCli:
    @pytest.fixture()
    def cli_env(self, tmp_path, paper_rules, travel_data):
        rules_path = tmp_path / "rules.json"
        save_ruleset(paper_rules, rules_path)
        data_path = tmp_path / "travel.csv"
        write_csv(travel_data, data_path)
        events_path = tmp_path / "events.jsonl"
        events = [
            {"op": "upsert", "id": "9",
             "values": ["Zoe", "Canada", "Toronto", "Ottawa", "VLDB"]},
            {"op": "delete", "id": "0"},
        ]
        events_path.write_text(
            "".join(json.dumps(e) + "\n" for e in events))
        return tmp_path, str(rules_path), str(data_path), str(events_path)

    def test_delta_then_audit_roundtrip(self, cli_env, capsys):
        tmp_path, rules_path, data_path, events_path = cli_env
        out_path = str(tmp_path / "fixed.csv")
        log_path = str(tmp_path / "fixed.csv.corrections.jsonl")
        assert main(["delta", data_path, rules_path, out_path,
                     "--events", events_path]) == 0
        out = capsys.readouterr().out
        assert "applied 2 event(s)" in out
        replay_path = str(tmp_path / "replayed.csv")
        assert main(["audit", log_path, "--output", replay_path,
                     "--expect", out_path]) == 0
        assert "replayed table matches" in capsys.readouterr().out

    def test_audit_detects_divergence(self, cli_env, capsys):
        tmp_path, rules_path, data_path, events_path = cli_env
        out_path = str(tmp_path / "fixed.csv")
        assert main(["delta", data_path, rules_path, out_path,
                     "--events", events_path]) == 0
        capsys.readouterr()
        wrong = tmp_path / "wrong.csv"
        wrong.write_text(open(out_path).read().replace("Zoe", "Eve"))
        log_path = str(tmp_path / "fixed.csv.corrections.jsonl")
        assert main(["audit", log_path, "--expect", str(wrong)]) == 1

    def test_audit_json(self, cli_env, capsys):
        tmp_path, rules_path, data_path, events_path = cli_env
        out_path = str(tmp_path / "fixed.csv")
        assert main(["delta", data_path, rules_path, out_path]) == 0
        capsys.readouterr()
        log_path = str(tmp_path / "fixed.csv.corrections.jsonl")
        assert main(["audit", log_path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] and payload["rows"] == 4


# -- satellite: columnar auto-threshold ------------------------------------

class TestColumnarThreshold:
    def test_default(self, paper_rules, travel_schema):
        """``backend="auto"`` switches at COLUMNAR_AUTO_THRESHOLD rows,
        and a full default chunk of ``repair_csv_file`` reaches it."""
        from repro.core.columnar import COLUMNAR_AUTO_THRESHOLD
        from repro.core.stream import DEFAULT_CHUNK_SIZE
        assert DEFAULT_CHUNK_SIZE == COLUMNAR_AUTO_THRESHOLD == 4096
        row = ["George", "China", "Beijing", "Shanghai", "ICDE"]
        below = Table(travel_schema, [row] * (COLUMNAR_AUTO_THRESHOLD - 1))
        assert not isinstance(repair_table(below, paper_rules),
                              ColumnarRepairReport)
        at = Table(travel_schema, [row] * COLUMNAR_AUTO_THRESHOLD)
        assert isinstance(repair_table(at, paper_rules),
                          ColumnarRepairReport)

    def test_threshold_routes_auto_backend(self, monkeypatch, paper_rules,
                                           travel_data):
        from repro.core import columnar
        small = repair_table(travel_data, paper_rules)
        assert not isinstance(small, ColumnarRepairReport)
        monkeypatch.setattr(columnar, "COLUMNAR_AUTO_THRESHOLD", 1)
        routed = repair_table(travel_data, paper_rules)
        assert isinstance(routed, ColumnarRepairReport)
        assert [row.values for row in routed.table] == \
            [row.values for row in small.table]


class TestCountingRulesBulkLoad:
    """A bulk load over counting rules (rule subclasses overriding
    ``matches``) takes the columnar scan like any Σ."""

    @pytest.fixture()
    def loaded(self, monkeypatch):
        from repro.core import engine_stats
        from repro.core.columnar import (COLUMNAR_AUTO_THRESHOLD,
                                         ColumnarKernel)
        scanned = []
        scan = ColumnarKernel.candidate_indices

        def spy(kernel, ctable):
            scanned.append(ctable.n_rows)
            return scan(kernel, ctable)

        monkeypatch.setattr(ColumnarKernel, "candidate_indices", spy)
        ruleset = RuleSet(SCHEMA, counting_rules(
            [FixingRule({"a": "1"}, "b", {"0"}, "2")], MatchCounter()))
        # one row in four fires the rule; the scan prunes the rest
        rows = [("r%d" % i, ["1" if i % 4 == 0 else "0", "0", "0", "0"])
                for i in range(COLUMNAR_AUTO_THRESHOLD)]
        before = engine_stats()["rows_repaired"]
        session = DeltaRepairSession(ruleset, rows=rows)
        repaired = engine_stats()["rows_repaired"] - before
        yield session, ruleset, rows, scanned, repaired
        session.close()

    def test_loads_through_columnar_scan(self, loaded):
        session, ruleset, rows, scanned, _ = loaded
        assert scanned == [len(rows)]
        assert session.self_check() == []
        expected = repair_table(Table(SCHEMA, [v for _rid, v in rows]),
                                ruleset, backend="row")
        assert session_cells(session) == \
            [list(row.values) for row in expected.table]

    def test_pruned_rows_counted_as_repaired(self, loaded):
        _, _, rows, _, repaired = loaded
        assert repaired == len(rows)


# -- satellite: ConsistentRuleSet fingerprint invalidation -------------------

class TestConsistentRuleSetFingerprint:
    """Regression: mutations must invalidate the fingerprint so
    ``compile_cached`` never serves a stale compiled Σ."""

    def test_add_changes_fingerprint_and_compiled(self, travel_schema,
                                                  phi1, phi2, phi4):
        crs = ConsistentRuleSet(travel_schema, [phi1, phi2])
        before_fp = crs.fingerprint
        before_compiled = crs.compiled()
        assert len(before_compiled.rules) == 2
        crs.add(phi4)
        assert crs.fingerprint != before_fp
        after_compiled = crs.compiled()
        assert after_compiled is not before_compiled
        assert len(after_compiled.rules) == 3

    def test_remove_changes_fingerprint(self, travel_schema, phi1, phi2):
        crs = ConsistentRuleSet(travel_schema, [phi1, phi2])
        before = crs.fingerprint
        assert crs.remove(phi2)
        assert crs.fingerprint != before
        assert len(crs.compiled().rules) == 1

    def test_replace_changes_fingerprint(self, travel_schema, phi1, phi2,
                                         phi4):
        crs = ConsistentRuleSet(travel_schema, [phi1, phi2])
        before = crs.fingerprint
        assert crs.replace(phi2, phi4) == []
        assert crs.fingerprint != before

    def test_mutation_roundtrip_restores_fingerprint(self, travel_schema,
                                                     phi1, phi2):
        crs = ConsistentRuleSet(travel_schema, [phi1, phi2])
        before = crs.fingerprint
        crs.remove(phi2)
        crs.add(phi2)
        assert crs.fingerprint == before

    def test_ruleset_fingerprint_tracks_mutation(self, travel_schema,
                                                 phi1, phi2):
        ruleset = RuleSet(travel_schema, [phi1])
        first = ruleset.fingerprint()
        assert ruleset.fingerprint() == first  # memoized
        ruleset.add(phi2)
        second = ruleset.fingerprint()
        assert second != first
        ruleset.remove(phi2)
        assert ruleset.fingerprint() == first
