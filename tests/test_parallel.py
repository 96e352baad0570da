"""The chunked and bulk repair drivers, pinned on concrete cases.

Tuple repairs are independent (Theorem 5), so a driver may split a
table or file into chunks and hand each to the bulk engine without
changing a single cell.  These drivers once fanned the chunks out to a
``fork`` pool; every repair now runs in-process, and the class and
test names still say *parallel* where they mean *chunked*.  The
contract is unchanged: output identical to the row-by-row reference,
byte for byte, whatever the chunking.

Pinned here: Fig. 8 traces through the compiled batch kernel, the
columnar ``repair_table`` backend against the row engine, the chunk
plan of ``repair_csv_file``, byte-identical file output with summed
statistics and quarantine parity between chunks sent through the
columnar scan and chunks chased row by row, and kill-and-resume at
chunk boundaries.  ``COLUMNAR_AUTO_THRESHOLD`` is patched to pick a
chunk's route: 1 sends every chunk through the columnar scan, a value
above the file's size chases every row.  The randomized equivalence
load is carried by ``test_differential_repair.py`` and
``test_properties_parallel.py``.
"""

from __future__ import annotations

import tempfile
from contextlib import contextmanager
from pathlib import Path

import pytest

import repro.core.stream as stream_module
from repro.core import columnar
from repro.core import (ColumnarRepairReport, CompiledRuleSet, FixingRule,
                        RuleSet, compile_for_schema, fast_repair,
                        repair_csv_file, repair_table)
from repro.core.pipeline import FaultInjected, FaultInjector
from repro.datagen import (constraint_attributes, generate_hosp, hosp_fds,
                           inject_noise)
from repro.relational import Schema, Table, write_csv
from repro.relational.csvio import iter_csv_records
from repro.rulegen.seeds import generate_seed_rules


@pytest.fixture(scope="module")
def hosp_case():
    """A small dirty HOSP table with seed rules — realistic cascades."""
    clean = generate_hosp(rows=400, seed=13)
    noise = inject_noise(clean, constraint_attributes(hosp_fds()),
                         noise_rate=0.12, typo_ratio=0.5, seed=13)
    rules = generate_seed_rules(clean, noise.table, hosp_fds())
    return noise.table, RuleSet(clean.schema, rules.rules()[:120])


#: a chunk-route threshold above every test file's row count
ROW_ROUTE = 10 ** 9


@contextmanager
def recorded_chunks():
    """Record the size of every chunk the chunk runner of
    ``repair_csv_file`` repairs."""
    sizes = []
    original = stream_module._columnar_chunk_stream

    def spy(compiled, records, chunk_size):
        for chunk, outcomes in original(compiled, records, chunk_size):
            sizes.append(len(chunk))
            yield chunk, outcomes

    stream_module._columnar_chunk_stream = spy
    try:
        yield sizes
    finally:
        stream_module._columnar_chunk_stream = original


def chunk_plan(n_rows: int, chunk_size: int):
    """Repair an *n_rows* dirty file through the chunked file driver
    and return the chunk sizes it used; every row must come out
    fixed."""
    schema = Schema("T", ["a", "b"])
    rules = RuleSet(schema, [FixingRule({"a": "1"}, "b", ["0"], "1")])
    with tempfile.TemporaryDirectory() as tmp:
        source = Path(tmp) / "dirty.csv"
        source.write_text("a,b\n" + "1,0\n" * n_rows, encoding="utf-8")
        out = Path(tmp) / "out.csv"
        with recorded_chunks() as sizes:
            session = repair_csv_file(source, rules, out,
                                      check_consistency=False,
                                      chunk_size=chunk_size)
        assert out.read_text(encoding="utf-8") == \
            "a,b\n" + "1,1\n" * n_rows
    assert session.rows_changed == n_rows
    return sizes


class TestPlanChunks:
    def test_exact_multiple(self):
        assert chunk_plan(6, 2) == [2, 2, 2]

    def test_ragged_tail(self):
        assert chunk_plan(7, 3) == [3, 3, 1]

    def test_chunk_larger_than_total(self):
        assert chunk_plan(3, 100) == [3]

    def test_empty(self):
        assert chunk_plan(0, 4) == []


class TestBatchKernel:
    def test_clean_row_returns_none(self, travel_data, paper_rules,
                                    travel_schema):
        kernel = compile_for_schema(travel_schema, paper_rules)
        assert kernel.repair_values(travel_data[0].values) is None

    def test_fig8_cascade(self, travel_data, paper_rules, travel_schema):
        """r2: φ1 fixes capital, completing φ4's evidence — the
        cascade of Fig. 8 must survive the positional reformulation."""
        kernel = compile_for_schema(travel_schema, paper_rules)
        result = kernel.repair_row(travel_data[1])
        assert result.row["capital"] == "Beijing"
        assert result.row["city"] == "Shanghai"
        assert [fix.rule.name for fix in result.applied] == ["phi1", "phi4"]
        assert result.assured == {"country", "capital", "city", "conf"}

    def test_matches_fast_repair_on_paper_table(self, travel_data,
                                                paper_rules,
                                                travel_schema):
        kernel = CompiledRuleSet(travel_schema, paper_rules)
        for row in travel_data:
            assert kernel.repair_row(row).row == \
                fast_repair(row, paper_rules).row

    def test_compact_encoding_roundtrip(self, travel_data, paper_rules,
                                        travel_schema):
        kernel = compile_for_schema(travel_schema, paper_rules)
        outcome = kernel.repair_values(travel_data[3].values)
        new_values, applied = outcome
        fixes = kernel.expand_applied(applied)
        assert [(fix.attribute, fix.old_value, fix.new_value)
                for fix in fixes] == [("capital", "Toronto", "Ottawa")]
        assert kernel.assured_for(applied) == {"country", "capital"}


class TestExecutor:
    def test_merges_in_submission_order(self, travel_schema, paper_rules,
                                        travel_data):
        """The chunk runner emits one outcome list per chunk, in
        submission order, each equal to that chunk's own repair."""
        kernel = compile_for_schema(travel_schema, paper_rules)
        records = list(enumerate(travel_data, start=2))
        chunks = list(stream_module._columnar_chunk_stream(
            kernel, iter(records), 1))
        assert [chunk for chunk, _outcomes in chunks] == \
            [[record] for record in records]
        outcomes = [outcome for _chunk, outcome in chunks]
        assert outcomes[0] == [None]          # r1 is clean
        assert outcomes[1][0] is not None     # r2 repaired
        assert outcomes == [[kernel.repair_values(row.values)]
                            for row in travel_data]


class TestParallelRepairTable:
    """``repair_table(backend="columnar")`` against the row engine."""

    def test_matches_serial_on_fig1(self, travel_data, paper_rules):
        serial = repair_table(travel_data, paper_rules, backend="row")
        report = repair_table(travel_data, paper_rules, backend="columnar")
        assert isinstance(report, ColumnarRepairReport)
        assert [row.values for row in report.table] == \
            [row.values for row in serial.table]
        assert report.applications_by_rule() == \
            serial.applications_by_rule()
        assert report.changed_cells == serial.changed_cells
        assert report.total_applications == 4

    def test_matches_serial_on_hosp(self, hosp_case):
        dirty, rules = hosp_case
        serial = repair_table(dirty, rules, backend="row")
        report = repair_table(dirty, rules, backend="columnar")
        assert [row.values for row in report.table] == \
            [row.values for row in serial.table]
        assert report.applications_by_rule() == \
            serial.applications_by_rule()
        assert serial.total_applications > 0  # non-vacuous

    def test_provenance_rehydrated(self, travel_data, paper_rules):
        report = repair_table(travel_data, paper_rules, backend="columnar")
        assert report.provenance() == \
            repair_table(travel_data, paper_rules,
                         backend="row").provenance()

    def test_empty_table_falls_back_serially(self, travel_schema,
                                             paper_rules):
        for backend in ("auto", "columnar"):
            report = repair_table(Table(travel_schema), paper_rules,
                                  backend=backend)
            assert len(report.table) == 0
            assert report.total_applications == 0

    def test_workers_one_falls_back_serially(self, travel_data,
                                             paper_rules, monkeypatch):
        """``backend="auto"`` keeps a table below the columnar
        threshold on the row engine — same answer either way."""
        monkeypatch.setattr(columnar, "COLUMNAR_AUTO_THRESHOLD",
                            len(travel_data) + 1)
        report = repair_table(travel_data, paper_rules)
        assert not isinstance(report, ColumnarRepairReport)
        assert report.total_applications == 4
        monkeypatch.setattr(columnar, "COLUMNAR_AUTO_THRESHOLD", 1)
        bulk = repair_table(travel_data, paper_rules)
        assert isinstance(bulk, ColumnarRepairReport)
        assert [row.values for row in bulk.table] == \
            [row.values for row in report.table]

    def test_input_table_untouched(self, travel_data, paper_rules):
        before = [row.values for row in travel_data]
        repair_table(travel_data, paper_rules, backend="columnar")
        assert [row.values for row in travel_data] == before

    def test_consistency_precheck(self, travel_schema, travel_data,
                                  phi1_prime, phi3):
        from repro.errors import InconsistentRulesError
        bad = RuleSet(travel_schema, [phi1_prime, phi3])
        with pytest.raises(InconsistentRulesError):
            repair_table(travel_data, bad, backend="columnar",
                         check_consistency=True)


class TestRepairTableWorkersParam:
    def test_chase_with_workers_agrees(self, hosp_case):
        """On a consistent Σ the chase agrees with lRepair
        (Church–Rosser), whichever engine runs lRepair."""
        dirty, rules = hosp_case
        chase = repair_table(dirty, rules, algorithm="chase")
        for backend in ("row", "columnar"):
            fast = repair_table(dirty, rules, backend=backend)
            assert [row.values for row in fast.table] == \
                [row.values for row in chase.table]


class TestRepairCsvFileParallel:
    def _write_case(self, tmp_path, hosp_case, corrupt=False):
        dirty, rules = hosp_case
        path = tmp_path / "dirty.csv"
        write_csv(dirty, path)
        if corrupt:
            lines = path.read_text(encoding="utf-8").splitlines()
            lines[7] += ",SPURIOUS_FIELD"
            lines[19] = lines[19].rsplit(",", 1)[0]
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path, rules

    def test_output_byte_identical_and_stats_summed(self, tmp_path,
                                                    hosp_case,
                                                    monkeypatch):
        path, rules = self._write_case(tmp_path, hosp_case)
        out_serial = tmp_path / "serial.csv"
        out_chunked = tmp_path / "chunked.csv"
        monkeypatch.setattr(columnar, "COLUMNAR_AUTO_THRESHOLD", ROW_ROUTE)
        serial = repair_csv_file(path, rules, out_serial,
                                 check_consistency=False)
        monkeypatch.setattr(columnar, "COLUMNAR_AUTO_THRESHOLD", 1)
        with recorded_chunks() as sizes:
            chunked = repair_csv_file(path, rules, out_chunked,
                                      check_consistency=False,
                                      chunk_size=61)
        assert len(sizes) == 7  # 400 rows: six full chunks + a tail
        assert out_serial.read_bytes() == out_chunked.read_bytes()
        assert chunked.stats() == serial.stats()
        assert chunked.applications_by_rule() == \
            serial.applications_by_rule()
        assert chunked.rows_changed > 0

    def test_quarantine_parity(self, tmp_path, hosp_case, monkeypatch):
        path, rules = self._write_case(tmp_path, hosp_case, corrupt=True)
        out_serial = tmp_path / "serial.csv"
        out_chunked = tmp_path / "chunked.csv"
        q_serial = tmp_path / "serial.quarantine.jsonl"
        q_chunked = tmp_path / "chunked.quarantine.jsonl"
        monkeypatch.setattr(columnar, "COLUMNAR_AUTO_THRESHOLD", ROW_ROUTE)
        serial = repair_csv_file(path, rules, out_serial,
                                 check_consistency=False,
                                 on_error="quarantine",
                                 quarantine_path=q_serial)
        monkeypatch.setattr(columnar, "COLUMNAR_AUTO_THRESHOLD", 1)
        chunked = repair_csv_file(path, rules, out_chunked,
                                  check_consistency=False,
                                  on_error="quarantine",
                                  quarantine_path=q_chunked,
                                  chunk_size=23)
        assert out_serial.read_bytes() == out_chunked.read_bytes()
        assert q_serial.read_text() == q_chunked.read_text()
        assert serial.stats() == chunked.stats()
        assert chunked.rows_quarantined == 2

    def test_chunk_size_validated(self, tmp_path, hosp_case):
        path, rules = self._write_case(tmp_path, hosp_case)
        with pytest.raises(ValueError, match="chunk_size"):
            repair_csv_file(path, rules, tmp_path / "out.csv",
                            check_consistency=False, chunk_size=0)
        assert not (tmp_path / "out.csv").exists()


@pytest.mark.faultinjection
class TestParallelKillAndResume:
    """Kill a chunked run mid-chunk, resume from the checkpoint, and
    land on byte-identical output.  Every chunk takes the columnar
    scan unless a test says otherwise."""

    CHUNK = 29
    INTERVAL = 60

    @pytest.fixture(autouse=True)
    def _columnar_route(self, monkeypatch):
        monkeypatch.setattr(columnar, "COLUMNAR_AUTO_THRESHOLD", 1)

    def _setup(self, tmp_path, hosp_case):
        dirty, rules = hosp_case
        path = tmp_path / "dirty.csv"
        write_csv(dirty, path)
        reference = tmp_path / "reference.csv"
        repair_csv_file(path, rules, reference, check_consistency=False)
        return path, rules, reference

    def _run(self, path, rules, out, checkpoint, fail_after=None,
             resume=False, chunk_size=CHUNK):
        records = None
        if fail_after is not None:
            records = FaultInjector(iter_csv_records(path, rules.schema),
                                    fail_after=fail_after)
        return repair_csv_file(
            path, rules, out, check_consistency=False,
            chunk_size=chunk_size, checkpoint_path=checkpoint,
            checkpoint_interval=self.INTERVAL, resume=resume, rows=records)

    def test_resume_parallel_is_byte_identical(self, tmp_path, hosp_case):
        path, rules, reference = self._setup(tmp_path, hosp_case)
        out = tmp_path / "killed.csv"
        checkpoint = tmp_path / "ckpt.json"
        with pytest.raises(FaultInjected):
            self._run(path, rules, out, checkpoint, fail_after=333)
        assert checkpoint.exists()
        assert not out.exists()  # only the .part file exists so far
        session = self._run(path, rules, out, checkpoint, resume=True)
        assert out.read_bytes() == reference.read_bytes()
        assert not checkpoint.exists()  # removed on success
        assert session.stats()["rows_seen"] == 400

    def test_parallel_kill_serial_resume_interoperate(self, tmp_path,
                                                      hosp_case,
                                                      monkeypatch):
        """Commit tokens are input line numbers, so a run killed while
        its chunks take the columnar scan resumes with every row
        chased one by one (and produces the same bytes)."""
        path, rules, reference = self._setup(tmp_path, hosp_case)
        out = tmp_path / "killed.csv"
        checkpoint = tmp_path / "ckpt.json"
        with pytest.raises(FaultInjected):
            self._run(path, rules, out, checkpoint, fail_after=311)
        monkeypatch.setattr(columnar, "COLUMNAR_AUTO_THRESHOLD", ROW_ROUTE)
        repair_csv_file(path, rules, out, check_consistency=False,
                        checkpoint_path=checkpoint,
                        resume=True, checkpoint_interval=self.INTERVAL)
        assert out.read_bytes() == reference.read_bytes()

    def test_double_kill_then_resume(self, tmp_path, hosp_case):
        path, rules, reference = self._setup(tmp_path, hosp_case)
        out = tmp_path / "killed.csv"
        checkpoint = tmp_path / "ckpt.json"
        with pytest.raises(FaultInjected):
            self._run(path, rules, out, checkpoint, fail_after=233)
        # Second crash, now of a resumed run: wrap a fresh reader; the
        # resume filter skips committed lines internally.
        with pytest.raises(FaultInjected):
            self._run(path, rules, out, checkpoint, fail_after=350,
                      resume=True)
        self._run(path, rules, out, checkpoint, resume=True, chunk_size=17)
        assert out.read_bytes() == reference.read_bytes()
