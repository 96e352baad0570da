"""Tests for the fault-tolerant repair pipeline (repro.core.pipeline).

Covers the tentpole guarantees: error policies with per-row isolation,
dead-letter quarantine with line-number provenance and replay,
crash-safe atomic output, checkpoint/resume with byte-identical
recovery, and degraded-mode operation on an inconsistent Σ.
"""

import json
import os

import pytest

from repro.core import (Checkpoint, FaultInjected, FaultInjector,
                        QuarantineWriter, RepairSession, RowError, RuleSet,
                        read_quarantine, repair_csv_file, repair_stream,
                        replay_quarantine)
from repro.errors import (CheckpointError, InconsistentRulesError,
                          PipelineError, SerializationError,
                          validate_error_policy)
from repro.relational import Row, iter_csv_records, iter_csv_rows, read_csv


DIRTY_LINES = [
    "George,China,Beijing,Shanghai,ICDE",   # line 2: clean
    "Ian,China,Shanghai,Hongkong,ICDE",     # line 3: two errors
    "ragged,row",                           # line 4: bad field count
    "Peter,China,Tokyo,Tokyo,ICDE",         # line 5: wrong country
    "Mike,Canada,Toronto,Toronto,VLDB",     # line 6: wrong capital
]


@pytest.fixture()
def dirty_csv(tmp_path):
    path = tmp_path / "dirty.csv"
    path.write_text("name,country,capital,city,conf\n"
                    + "".join(line + "\n" for line in DIRTY_LINES),
                    encoding="utf-8")
    return path


@pytest.fixture()
def clean_csv(tmp_path):
    """The same file without the ragged line."""
    path = tmp_path / "clean_input.csv"
    path.write_text("name,country,capital,city,conf\n"
                    + "".join(line + "\n" for line in DIRTY_LINES
                              if line != "ragged,row"),
                    encoding="utf-8")
    return path


class TestErrorPolicyValidation:
    def test_known_policies(self):
        for policy in ("strict", "skip", "quarantine"):
            assert validate_error_policy(policy) == policy

    def test_unknown_policy_rejected_everywhere(self, paper_rules,
                                                travel_schema, tmp_path):
        with pytest.raises(ValueError, match="unknown error policy"):
            validate_error_policy("ignore")
        with pytest.raises(ValueError, match="unknown error policy"):
            RepairSession(paper_rules, on_error="ignore")
        with pytest.raises(ValueError, match="unknown error policy"):
            list(iter_csv_rows(tmp_path / "x.csv", travel_schema,
                               on_error="ignore"))


class TestIterCsvPolicies:
    def test_strict_raises_on_ragged(self, dirty_csv, travel_schema):
        with pytest.raises(SerializationError, match="line 4"):
            list(iter_csv_rows(dirty_csv, travel_schema))

    def test_skip_drops_and_reports(self, dirty_csv, travel_schema):
        errors = []
        rows = list(iter_csv_rows(dirty_csv, travel_schema,
                                  on_error="skip", error_sink=errors.append))
        assert len(rows) == 4
        assert len(errors) == 1
        assert errors[0].line_no == 4
        assert errors[0].record == ("ragged", "row")
        assert errors[0].error_type == "SerializationError"

    def test_records_carry_line_numbers(self, dirty_csv, travel_schema):
        items = list(iter_csv_records(dirty_csv, travel_schema,
                                      on_error="skip"))
        assert [line for line, _ in items] == [2, 3, 4, 5, 6]
        assert isinstance(items[2][1], RowError)
        assert all(isinstance(item, Row) for line, item in items
                   if line != 4)

    def test_empty_file_always_raises(self, tmp_path, travel_schema):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        for policy in ("strict", "skip", "quarantine"):
            with pytest.raises(SerializationError, match="empty"):
                list(iter_csv_records(path, travel_schema, on_error=policy))

    def test_header_only_file_yields_nothing(self, tmp_path, travel_schema):
        path = tmp_path / "header.csv"
        path.write_text("name,country,capital,city,conf\n", encoding="utf-8")
        for policy in ("strict", "skip", "quarantine"):
            assert list(iter_csv_records(path, travel_schema,
                                         on_error=policy)) == []

    def test_blank_lines_tolerated_under_all_policies(self, tmp_path,
                                                      travel_schema):
        path = tmp_path / "blank.csv"
        path.write_text("name,country,capital,city,conf\n\n"
                        "a,China,Beijing,Shanghai,ICDE\n\n", encoding="utf-8")
        for policy in ("strict", "skip", "quarantine"):
            items = list(iter_csv_records(path, travel_schema,
                                          on_error=policy))
            assert [line for line, _ in items] == [3]

    def test_header_mismatch_raises_under_all_policies(self, tmp_path,
                                                       travel_schema):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n", encoding="utf-8")
        for policy in ("strict", "skip", "quarantine"):
            with pytest.raises(SerializationError, match="does not match"):
                list(iter_csv_records(path, travel_schema, on_error=policy))


class TestDuplicateHeader:
    """Satellite: `A,A,B` used to silently drop the duplicate column."""

    def test_read_csv_rejects_duplicate_header(self, tmp_path,
                                               travel_schema):
        from repro.relational import Schema
        schema = Schema("R", ["A", "B"])
        path = tmp_path / "dup.csv"
        path.write_text("A,A,B\n1,2,3\n", encoding="utf-8")
        with pytest.raises(SerializationError, match="repeats column"):
            read_csv(path, schema=schema)

    def test_iter_csv_rows_rejects_duplicate_header(self, tmp_path):
        from repro.relational import Schema
        schema = Schema("R", ["A", "B"])
        path = tmp_path / "dup.csv"
        path.write_text("A,A,B\n1,2,3\n", encoding="utf-8")
        with pytest.raises(SerializationError, match="A"):
            list(iter_csv_rows(path, schema))

    def test_error_names_offending_columns(self, tmp_path):
        from repro.relational import Schema
        schema = Schema("R", ["A", "B", "C"])
        path = tmp_path / "dup.csv"
        path.write_text("A,A,C,C,B\nv,w,x,y,z\n", encoding="utf-8")
        with pytest.raises(SerializationError, match="A, C"):
            read_csv(path, schema=schema)


class ExplodingRow(Row):
    """A row whose repair always fails (fast_repair copies rows first)."""

    def copy(self):
        raise RuntimeError("boom")


class TestSessionErrorPolicies:
    def test_try_repair_row_strict_reraises(self, paper_rules,
                                            travel_schema):
        session = RepairSession(paper_rules)
        row = ExplodingRow(travel_schema,
                           ["a", "China", "Shanghai", "x", "ICDE"])
        with pytest.raises(RuntimeError):
            session.try_repair_row(row)

    def test_try_repair_row_skip_records(self, paper_rules, travel_schema):
        session = RepairSession(paper_rules, on_error="skip")
        row = Row(travel_schema, ["a", "China", "Shanghai", "x", "ICDE"])
        bad = ExplodingRow(travel_schema, ["b", "China", "Shanghai", "x",
                                           "ICDE"])
        assert session.try_repair_row(row) is not None
        assert session.try_repair_row(bad, line_no=7, source="s") is None
        stats = session.stats()
        assert stats["rows_failed"] == 1
        assert stats["rows_quarantined"] == 0
        assert stats["errors_by_type"] == {"RuntimeError": 1}

    def test_quarantine_policy_forwards_to_sink(self, paper_rules,
                                                travel_schema):
        captured = []
        session = RepairSession(paper_rules, on_error="quarantine",
                                quarantine_sink=captured.append)
        error = RowError("src", 9, ("x",), "RuleError", "bad")
        session.record_error(error)
        assert captured == [error]
        assert session.rows_quarantined == 1

    def test_repair_stream_skips_failed_rows(self, paper_rules,
                                             travel_schema):
        good = Row(travel_schema, ["a", "China", "Shanghai", "HK", "ICDE"])
        bad = ExplodingRow(travel_schema, ["b", "x", "y", "z", "w"])
        sink = []
        results = list(repair_stream([good, bad, good], paper_rules,
                                     on_error="quarantine",
                                     error_sink=sink.append))
        assert len(results) == 2
        assert len(sink) == 1 and sink[0].error_type == "RuntimeError"


class TestRepairCsvFilePolicies:
    def test_strict_default_aborts(self, dirty_csv, paper_rules, tmp_path):
        with pytest.raises(SerializationError):
            repair_csv_file(dirty_csv, paper_rules, tmp_path / "out.csv")

    def test_skip_repairs_the_rest(self, dirty_csv, paper_rules, tmp_path,
                                   travel_schema):
        out = tmp_path / "out.csv"
        session = repair_csv_file(dirty_csv, paper_rules, out,
                                  on_error="skip")
        stats = session.stats()
        assert stats["rows_seen"] == 4
        assert stats["rows_failed"] == 1
        assert stats["rows_quarantined"] == 0
        table = read_csv(out, schema=travel_schema)
        assert len(table) == 4
        assert table[1]["capital"] == "Beijing"

    def test_quarantine_writes_dead_letters(self, dirty_csv, paper_rules,
                                            tmp_path):
        out = tmp_path / "out.csv"
        qpath = tmp_path / "dead.jsonl"
        session = repair_csv_file(dirty_csv, paper_rules, out,
                                  on_error="quarantine",
                                  quarantine_path=qpath)
        assert session.stats()["rows_quarantined"] == 1
        (entry,) = read_quarantine(qpath)
        assert entry.line_no == 4
        assert entry.source == str(dirty_csv)
        assert entry.record == ("ragged", "row")

    def test_default_quarantine_path(self, dirty_csv, paper_rules,
                                     tmp_path):
        out = tmp_path / "out.csv"
        repair_csv_file(dirty_csv, paper_rules, out, on_error="quarantine")
        assert (tmp_path / "out.csv.quarantine.jsonl").exists()

    def test_quarantine_path_requires_policy(self, clean_csv, paper_rules,
                                             tmp_path):
        with pytest.raises(ValueError, match="quarantine_path"):
            repair_csv_file(clean_csv, paper_rules, tmp_path / "o.csv",
                            quarantine_path=tmp_path / "q.jsonl")

    def test_typeerror_names_argument_and_fix(self, paper_rules, tmp_path):
        """Satellite: the TypeError must be actionable from the traceback."""
        with pytest.raises(TypeError) as excinfo:
            repair_csv_file(tmp_path / "x.csv", paper_rules.rules(),
                            tmp_path / "y.csv")
        message = str(excinfo.value)
        assert "rules=" in message
        assert "list" in message          # the received type
        assert "RuleSet(schema, rules)" in message

    def test_inconsistent_conflicts_propagate(self, clean_csv,
                                              travel_schema, phi1_prime,
                                              phi3, tmp_path):
        """Satellite: InconsistentRulesError.conflicts reaches callers."""
        bad = RuleSet(travel_schema, [phi1_prime, phi3])
        with pytest.raises(InconsistentRulesError) as excinfo:
            repair_csv_file(clean_csv, bad, tmp_path / "out.csv")
        assert excinfo.value.conflicts
        names = {excinfo.value.conflicts[0].rule_a.name,
                 excinfo.value.conflicts[0].rule_b.name}
        assert names == {"phi1_prime", "phi3"}


class TestAtomicOutput:
    """Satellite: a failed run never leaves a half-written output."""

    def test_strict_failure_leaves_no_output(self, dirty_csv, paper_rules,
                                             tmp_path):
        out = tmp_path / "out.csv"
        with pytest.raises(SerializationError):
            repair_csv_file(dirty_csv, paper_rules, out)
        assert not out.exists()
        leftovers = [p for p in tmp_path.iterdir()
                     if p.name.startswith("out.csv.")]
        assert leftovers == []

    def test_crash_without_checkpoint_leaves_no_output(self, clean_csv,
                                                       paper_rules,
                                                       travel_schema,
                                                       tmp_path):
        out = tmp_path / "out.csv"
        with pytest.raises(FaultInjected):
            repair_csv_file(
                clean_csv, paper_rules, out,
                rows=FaultInjector(
                    iter_csv_records(clean_csv, travel_schema), 2))
        assert not out.exists()
        assert [p for p in tmp_path.iterdir()
                if p.name.startswith("out.csv.")] == []

    def test_output_mode_matches_plain_open(self, clean_csv, paper_rules,
                                            tmp_path):
        """The published file gets the mode ``open()`` would give it,
        not the temp file's private 0600."""
        import os
        out = tmp_path / "out.csv"
        repair_csv_file(clean_csv, paper_rules, out)
        plain = tmp_path / "plain.csv"
        plain.write_text("", encoding="utf-8")
        assert os.stat(out).st_mode == os.stat(plain).st_mode

    def test_success_replaces_preexisting_output(self, clean_csv,
                                                 paper_rules, tmp_path,
                                                 travel_schema):
        out = tmp_path / "out.csv"
        out.write_text("stale", encoding="utf-8")
        repair_csv_file(clean_csv, paper_rules, out)
        assert len(read_csv(out, schema=travel_schema)) == 4


class TestQuarantineRoundTrip:
    def test_replay_after_fixing_repairs_cleanly(self, dirty_csv,
                                                 paper_rules, travel_schema,
                                                 tmp_path):
        qpath = tmp_path / "dead.jsonl"
        repair_csv_file(dirty_csv, paper_rules, tmp_path / "out.csv",
                        on_error="quarantine", quarantine_path=qpath)

        def fix(error):
            # the ragged record, corrected to a full (still dirty) row
            return [error.record[0], "China", "Shanghai", "Hongkong",
                    "ICDE"]

        session = RepairSession(paper_rules)
        repaired = [session.repair_row(row).row
                    for row in replay_quarantine(qpath, travel_schema,
                                                 fix=fix)]
        assert len(repaired) == 1
        assert repaired[0]["capital"] == "Beijing"
        assert session.stats()["rows_failed"] == 0

    def test_replay_can_drop_records(self, tmp_path, travel_schema):
        qpath = tmp_path / "dead.jsonl"
        with QuarantineWriter(qpath) as writer:
            writer.write(RowError("s", 2, ("a",), "E", "m"))
        assert list(replay_quarantine(qpath, travel_schema,
                                      fix=lambda e: None)) == []

    def test_corrupt_quarantine_line_raises(self, tmp_path):
        qpath = tmp_path / "dead.jsonl"
        qpath.write_text("not json\n", encoding="utf-8")
        with pytest.raises(PipelineError, match="line 1"):
            read_quarantine(qpath)

    def test_row_error_dict_round_trip(self):
        error = RowError("src", 7, ("a", "b"), "TableError", "msg")
        assert RowError.from_dict(json.loads(
            json.dumps(error.to_dict()))) == error
        assert "src line 7" in error.describe()


class TestCheckpointObject:
    def test_save_load_round_trip(self, tmp_path):
        checkpoint = Checkpoint("in.csv", 42, 1024, 16,
                                {"rows_seen": 40}, {"phi1": 3},
                                {"RuleError": 1})
        path = tmp_path / "ck.json"
        checkpoint.save(path)
        assert Checkpoint.load(path) == checkpoint

    def test_corrupt_checkpoint_raises(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text("{", encoding="utf-8")
        with pytest.raises(CheckpointError, match="corrupt"):
            Checkpoint.load(path)

    def test_wrong_version_raises(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text(json.dumps({"version": 99}), encoding="utf-8")
        with pytest.raises(CheckpointError, match="version"):
            Checkpoint.load(path)

    def test_missing_checkpoint_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            Checkpoint.load(tmp_path / "absent.json")


@pytest.mark.faultinjection
class TestCheckpointResume:
    def _big_input(self, tmp_path, rows=200, ragged_every=17):
        path = tmp_path / "big.csv"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name,country,capital,city,conf\n")
            for i in range(rows):
                if i % ragged_every == 0:
                    handle.write("ragged%d,row\n" % i)
                else:
                    handle.write("p%d,China,Shanghai,Hongkong,ICDE\n" % i)
        return path

    def _reference(self, src, rules, tmp_path):
        ref = tmp_path / "reference.csv"
        qref = tmp_path / "reference.quarantine.jsonl"
        session = repair_csv_file(src, rules, ref, on_error="quarantine",
                                  quarantine_path=qref)
        return ref.read_bytes(), read_quarantine(qref), session.stats()

    def test_kill_and_resume_is_byte_identical(self, paper_rules,
                                               travel_schema, tmp_path):
        src = self._big_input(tmp_path)
        ref_bytes, ref_quarantine, ref_stats = self._reference(
            src, paper_rules, tmp_path)

        out = tmp_path / "out.csv"
        ck = tmp_path / "out.ck.json"
        qpath = tmp_path / "out.quarantine.jsonl"
        with pytest.raises(FaultInjected):
            repair_csv_file(
                src, paper_rules, out, on_error="quarantine",
                quarantine_path=qpath, checkpoint_path=ck,
                checkpoint_interval=13,
                rows=FaultInjector(
                    iter_csv_records(src, travel_schema,
                                     on_error="quarantine"), 101))
        # crash left the resume artifacts, but no final output
        assert not out.exists()
        assert (tmp_path / "out.csv.part").exists()
        assert ck.exists()

        session = repair_csv_file(src, paper_rules, out,
                                  on_error="quarantine",
                                  quarantine_path=qpath,
                                  checkpoint_path=ck,
                                  checkpoint_interval=13, resume=True)
        assert out.read_bytes() == ref_bytes
        got_quarantine = read_quarantine(qpath)
        assert [e.line_no for e in got_quarantine] == \
            [e.line_no for e in ref_quarantine]
        assert session.stats() == ref_stats
        assert not ck.exists()  # removed on success
        assert not (tmp_path / "out.csv.part").exists()

    def test_double_kill_then_resume(self, paper_rules, travel_schema,
                                     tmp_path):
        src = self._big_input(tmp_path)
        ref_bytes, _, ref_stats = self._reference(src, paper_rules,
                                                  tmp_path)
        out = tmp_path / "out.csv"
        ck = tmp_path / "out.ck.json"
        qpath = tmp_path / "out.q.jsonl"
        for kill_after in (40, 60):
            with pytest.raises(FaultInjected):
                repair_csv_file(
                    src, paper_rules, out, on_error="quarantine",
                    quarantine_path=qpath, checkpoint_path=ck,
                    checkpoint_interval=7, resume=True,
                    rows=FaultInjector(
                        iter_csv_records(src, travel_schema,
                                         on_error="quarantine"),
                        kill_after))
        session = repair_csv_file(src, paper_rules, out,
                                  on_error="quarantine",
                                  quarantine_path=qpath,
                                  checkpoint_path=ck,
                                  checkpoint_interval=7, resume=True)
        assert out.read_bytes() == ref_bytes
        assert session.stats() == ref_stats

    def test_kill_before_first_checkpoint(self, paper_rules, travel_schema,
                                          tmp_path):
        src = self._big_input(tmp_path, rows=30)
        ref_bytes, _, _ = self._reference(src, paper_rules, tmp_path)
        out = tmp_path / "out.csv"
        ck = tmp_path / "ck.json"
        with pytest.raises(FaultInjected):
            repair_csv_file(
                src, paper_rules, out, on_error="quarantine",
                checkpoint_path=ck, checkpoint_interval=1000,
                quarantine_path=tmp_path / "q.jsonl",
                rows=FaultInjector(
                    iter_csv_records(src, travel_schema,
                                     on_error="quarantine"), 5))
        assert not ck.exists()  # no commit happened
        repair_csv_file(src, paper_rules, out, on_error="quarantine",
                        checkpoint_path=ck, checkpoint_interval=1000,
                        quarantine_path=tmp_path / "q.jsonl", resume=True)
        assert out.read_bytes() == ref_bytes

    def test_resume_with_wrong_input_refuses(self, paper_rules,
                                             travel_schema, tmp_path):
        src = self._big_input(tmp_path)
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        other = self._big_input(elsewhere)
        out = tmp_path / "out.csv"
        ck = tmp_path / "ck.json"
        with pytest.raises(FaultInjected):
            repair_csv_file(
                src, paper_rules, out, on_error="skip",
                checkpoint_path=ck, checkpoint_interval=5,
                rows=FaultInjector(
                    iter_csv_records(src, travel_schema, on_error="skip"),
                    50))
        with pytest.raises(CheckpointError, match="written for input"):
            repair_csv_file(other, paper_rules, out, on_error="skip",
                            checkpoint_path=ck, resume=True)

    def test_resume_requires_checkpoint_path(self, clean_csv, paper_rules,
                                             tmp_path):
        with pytest.raises(ValueError, match="checkpoint_path"):
            repair_csv_file(clean_csv, paper_rules, tmp_path / "o.csv",
                            resume=True)

    def test_fault_injector_counts(self):
        injector = FaultInjector(iter(range(10)), 3)
        assert [next(injector) for _ in range(3)] == [0, 1, 2]
        with pytest.raises(FaultInjected, match="after 3"):
            next(injector)


class TestDegradedMode:
    def test_default_still_refuses(self, travel_schema, phi1_prime, phi3):
        bad = RuleSet(travel_schema, [phi1_prime, phi3])
        with pytest.raises(InconsistentRulesError):
            RepairSession(bad)

    def test_degrade_warns_and_serves(self, travel_schema, phi1_prime,
                                      phi2, phi3):
        bad = RuleSet(travel_schema, [phi1_prime, phi2, phi3])
        with pytest.warns(RuntimeWarning, match="degraded mode"):
            session = RepairSession(bad, on_inconsistent="degrade")
        assert session.degraded
        assert session.shelved_rules  # something was revised
        stats = session.stats()
        assert stats["degraded"] is True
        assert stats["rules_shelved"] == len(session.shelved_rules)
        # the surviving subset is consistent and still repairs
        row = Row(travel_schema,
                  ["Mike", "Canada", "Toronto", "Toronto", "VLDB"])
        assert session.repair_row(row).row["capital"] == "Ottawa"

    def test_degrade_on_consistent_rules_is_a_no_op(self, paper_rules):
        session = RepairSession(paper_rules, on_inconsistent="degrade")
        assert not session.degraded
        assert session.stats()["rules_shelved"] == 0

    def test_degrade_with_plain_sequence(self, phi1_prime, phi3):
        with pytest.warns(RuntimeWarning):
            session = RepairSession([phi1_prime, phi3],
                                    on_inconsistent="degrade")
        assert session.degraded

    def test_degrade_through_repair_csv_file(self, clean_csv, travel_schema,
                                             phi1_prime, phi2, phi3,
                                             tmp_path):
        bad = RuleSet(travel_schema, [phi1_prime, phi2, phi3])
        out = tmp_path / "out.csv"
        with pytest.warns(RuntimeWarning):
            session = repair_csv_file(clean_csv, bad, out,
                                      on_inconsistent="degrade")
        assert session.degraded
        table = read_csv(out, schema=travel_schema)
        assert table[3]["capital"] == "Ottawa"

    def test_unknown_mode_rejected(self, paper_rules):
        with pytest.raises(ValueError, match="on_inconsistent"):
            RepairSession(paper_rules, on_inconsistent="shrug")
