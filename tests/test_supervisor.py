"""In-process supervision of repair work, mechanism by mechanism.

Repairs once ran in a supervised ``fork`` pool; every repair now runs
in the calling process, and each thing the pool supervisor did has an
in-process counterpart, pinned here (the class names follow the pool
mechanisms they replaced):

* the daemon's timing knobs — deadline, grace, ``Retry-After``, drain —
  and their validation (:class:`~repro.serve.ServeConfig`);
* :class:`~repro.serve.pool.ServePool`: poison-row isolation (a row
  whose repair raises becomes an error outcome, its neighbours are
  repaired) and the request deadline, checked between rows;
* degraded mode of the streaming session (Section 5.3) and the per-row
  error marker the chunked drivers share;
* the file driver's exit paths: publish on success, leave nothing
  behind on a crash;
* per-daemon metric scoping;
* the CLI's run summary, ``--fail-on-quarantine`` and flag checks.

The end-to-end chaos legs live in ``test_worker_chaos.py`` (file
driver) and ``test_serve.py`` (HTTP daemon).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core import (CompiledRuleSet, FixingRule, RepairSession, RuleSet,
                        compile_for_schema, repair_csv_file)
from repro.core.pipeline import FaultInjected, FaultInjector
from repro.core.stream import error_marker, is_error_marker
from repro.errors import InconsistentRulesError
from repro.relational import Schema
from repro.relational.csvio import iter_csv_records
from repro.serve import ServeConfig
from repro.serve.pool import DeadlineExceeded, ServePool

from tests.test_parallel import recorded_chunks
from tests.test_serve import request, scrape, start_chaos_daemon


class TestSupervisorConfig:
    def test_defaults_validate(self):
        config = ServeConfig().validate()
        assert config.request_timeout == 30.0
        assert config.grace == 2.0
        assert config.retry_after == 1.0

    @pytest.mark.parametrize("bad", [
        dict(request_timeout=0),
        dict(request_timeout=-1.5),
        dict(request_timeout=float("nan")),
        dict(request_timeout=float("inf")),
        dict(grace=-1.0),
        dict(grace=float("nan")),
        dict(retry_after=-0.1),
        dict(drain_timeout=-1.0),
    ])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            ServeConfig(**bad).validate()


def arm(monkeypatch, trigger, action):
    """Make the compiled engine run *action* before repairing any row
    holding the cell value *trigger*."""
    original = CompiledRuleSet.repair_values

    def repair_values(self, values):
        if trigger in values:
            action()
        return original(self, values)

    monkeypatch.setattr(CompiledRuleSet, "repair_values", repair_values)


@pytest.fixture()
def executor_case(travel_schema, paper_rules, travel_data):
    """The compiled Fig. 1 Σ and the Fig. 1 rows as raw values."""
    rows = [list(row.values) for row in travel_data]
    return compile_for_schema(travel_schema, paper_rules), rows


def _raise_poison():
    raise RuntimeError("poisoned row")


@pytest.mark.faultinjection
class TestPoisonIsolation:
    def test_poison_row_isolated_neighbors_repaired(self, executor_case,
                                                    monkeypatch):
        """A row whose repair raises ends as an error outcome; every
        innocent neighbour in the same batch still gets its repair."""
        kernel, rows = executor_case
        arm(monkeypatch, "Peter", _raise_poison)  # r3's name cell
        outcomes = ServePool().repair(kernel, rows, time.monotonic() + 30)
        assert len(outcomes) == len(rows)
        assert outcomes[0] is None                    # r1 clean
        assert outcomes[1] is not None                # r2 repaired
        assert not is_error_marker(outcomes[1])
        assert is_error_marker(outcomes[2])           # r3 = poison
        assert outcomes[2][1:] == ("RuntimeError", "poisoned row")
        assert outcomes[3] is not None                # r4 repaired
        assert not is_error_marker(outcomes[3])

    def test_transient_kill_heals_with_retry(self, executor_case,
                                             monkeypatch):
        """A row that fails once costs that row in that batch, not the
        engine: the retried batch repairs it like any other."""
        kernel, rows = executor_case
        budget = [1]

        def fail_once():
            if budget[0]:
                budget[0] -= 1
                _raise_poison()

        arm(monkeypatch, "Peter", fail_once)
        pool = ServePool()
        first = pool.repair(kernel, rows, time.monotonic() + 30)
        assert is_error_marker(first[2])
        retry = pool.repair(kernel, rows, time.monotonic() + 30)
        assert not any(is_error_marker(o) for o in retry if o)
        assert retry[2] is not None  # r3 repaired on the retry
        assert retry == [kernel.repair_values(values) for values in rows]

    def test_hung_worker_bounded_by_deadline(self, executor_case,
                                             monkeypatch):
        """A hang has no death to poll for — only the deadline bounds
        it.  The deadline is checked between rows, so the batch stops
        at the first check after the slow row; once the row is fast
        again the retry completes."""
        kernel, rows = executor_case
        delay = [0.5]
        arm(monkeypatch, "Peter", lambda: time.sleep(delay[0]))
        pool = ServePool()
        start = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            pool.repair(kernel, rows, start + 0.2)
        assert time.monotonic() - start < 0.5 + 1.0
        delay[0] = 0.0
        outcomes = pool.repair(kernel, rows, time.monotonic() + 30)
        assert not any(is_error_marker(o) for o in outcomes if o)
        assert outcomes[2] is not None


def _inconsistent_rules(travel_schema, phi1_prime, phi3):
    return RuleSet(travel_schema, [phi1_prime, phi3])


class TestDegradedMode:
    def test_degrades_to_serial_runner(self, travel_schema, travel_data,
                                       phi1_prime, phi3):
        """On an inconsistent Σ a ``degrade`` session resolves Σ to a
        consistent subset and keeps repairing with it."""
        rules = _inconsistent_rules(travel_schema, phi1_prime, phi3)
        with pytest.warns(RuntimeWarning, match="degraded mode"):
            session = RepairSession(rules, on_inconsistent="degrade")
        assert session.degraded
        assert session.shelved_rules
        results = list(session.repair_many(travel_data))
        assert len(results) == len(travel_data)
        assert session.rows_seen == len(travel_data)

    def test_raises_when_degradation_disabled(self, travel_schema,
                                              phi1_prime, phi3):
        rules = _inconsistent_rules(travel_schema, phi1_prime, phi3)
        with pytest.raises(InconsistentRulesError, match="refusing"):
            RepairSession(rules, on_inconsistent="raise")

    def test_poison_marker_shape(self):
        marker = error_marker(RuntimeError("boom"))
        assert is_error_marker(marker)
        assert marker[1] == "RuntimeError"
        assert marker[2] == "boom"
        # ordinary outcomes are never mistaken for markers
        assert not is_error_marker(None)
        assert not is_error_marker((["1", "1"], [(0, "0")]))


class TestShutdownPaths:
    """The chunked file driver publishes its output atomically on a
    clean exit and leaves nothing behind when it dies."""

    @pytest.fixture()
    def file_case(self, tmp_path):
        schema = Schema("T", ["a", "b"])
        rules = RuleSet(schema, [FixingRule({"a": "1"}, "b", ["0"], "1")])
        source = tmp_path / "dirty.csv"
        source.write_text("a,b\n" + "1,0\n2,5\n" * 50, encoding="utf-8")
        return source, rules

    def test_clean_exit_closes_not_terminates(self, file_case, tmp_path):
        source, rules = file_case
        out = tmp_path / "out.csv"
        session = repair_csv_file(source, rules, out,
                                  check_consistency=False, chunk_size=7)
        assert session.rows_seen == 100
        assert out.read_text(encoding="utf-8") == \
            "a,b\n" + "1,1\n2,5\n" * 50
        assert sorted(os.listdir(tmp_path)) == ["dirty.csv", "out.csv"]

    def test_exceptional_exit_terminates(self, file_case, tmp_path):
        source, rules = file_case
        out = tmp_path / "out.csv"
        with pytest.raises(FaultInjected):
            repair_csv_file(source, rules, out, check_consistency=False,
                            chunk_size=7,
                            rows=FaultInjector(
                                iter_csv_records(source, rules.schema),
                                fail_after=40))
        assert os.listdir(tmp_path) == ["dirty.csv"]


FIG1_ROWS = [["Ian", "China", "Shanghai", "Hongkong", "ICDE"],
             ["Mike", "Canada", "Toronto", "Toronto", "VLDB"]]


def _repair_rows(port, copies):
    status, _, payload = request(port, "POST", "/repair",
                                 body={"rows": FIG1_ROWS * copies})
    assert status == 200
    return len(payload["rows"])


class TestStatsSession:
    """Every daemon owns its counters: a daemon reports only what
    happened on its watch, however much repair work the process did
    before it started or does beside it."""

    def test_delta_since_baseline(self, tmp_path):
        first = start_chaos_daemon(tmp_path / "first")
        try:
            _repair_rows(first.port, 3)  # pre-session noise
            second = start_chaos_daemon(tmp_path / "second")
            try:
                assert scrape(second.port, "rows_repaired_total") == 0
                _repair_rows(second.port, 2)
                assert scrape(second.port, "rows_repaired_total") == 4
                assert scrape(second.port, "cells_changed_total") == 4
                # reading one daemon never moves another's counters
                assert scrape(first.port, "rows_repaired_total") == 6
            finally:
                second.stop()
        finally:
            first.stop()

    def test_disjoint_sessions_sum_to_process_totals(self, tmp_path):
        first = start_chaos_daemon(tmp_path / "first")
        second = start_chaos_daemon(tmp_path / "second")
        try:
            sent = 0
            for copies, daemon in ((1, first), (4, second), (2, first)):
                sent += _repair_rows(daemon.port, copies)
            first_seen = scrape(first.port, "rows_repaired_total")
            second_seen = scrape(second.port, "rows_repaired_total")
            assert (first_seen, second_seen) == (6, 8)
            assert first_seen + second_seen == sent
        finally:
            first.stop()
            second.stop()


class TestCliSupervisionFlags:
    @pytest.fixture()
    def cli_case(self, tmp_path):
        from repro.core import save_ruleset
        schema = Schema("T", ["a", "b"])
        rules = RuleSet(schema, [FixingRule({"a": "1"}, "b", ["0"], "1")])
        rule_file = tmp_path / "rules.json"
        save_ruleset(rules, rule_file)
        data = tmp_path / "dirty.csv"
        data.write_text("a,b\n1,0\n1,1\n2,5\n", encoding="utf-8")
        return data, rule_file

    def test_flag_validation(self, cli_case, tmp_path, capsys):
        from repro.cli import main
        data, rule_file = cli_case
        out = tmp_path / "out.csv"
        assert main(["repair", str(data), str(rule_file), str(out),
                     "--chunk-size", "0"]) == 2
        assert main(["repair", str(data), str(rule_file), str(out),
                     "--checkpoint-interval", "0"]) == 2
        assert main(["repair", str(data), str(rule_file), str(out),
                     "--chunk-size", "-1"]) == 2
        err = capsys.readouterr().err
        assert "--chunk-size" in err and "--checkpoint-interval" in err
        assert not out.exists()

    def test_summary_line_and_clean_exit(self, cli_case, tmp_path,
                                         capsys):
        from repro.cli import main
        data, rule_file = cli_case
        out = tmp_path / "out.csv"
        assert main(["repair", str(data), str(rule_file), str(out),
                     "--skip-check", "--fail-on-quarantine"]) == 0
        stdout = capsys.readouterr().out
        assert "repaired 3 rows" in stdout
        assert "summary: rows repaired=3 quarantined=0" in stdout

    def test_fail_on_quarantine_exit_code(self, cli_case, tmp_path,
                                          capsys):
        from repro.cli import main
        data, rule_file = cli_case
        data.write_text("a,b\n1,0\n1,1,EXTRA\n2,5\n", encoding="utf-8")
        out = tmp_path / "out.csv"
        quarantine = tmp_path / "dead.jsonl"
        assert main(["repair", str(data), str(rule_file), str(out),
                     "--skip-check", "--on-error", "quarantine",
                     "--quarantine-path", str(quarantine),
                     "--fail-on-quarantine"]) == 3
        stdout = capsys.readouterr().out
        assert "summary: rows repaired=2 quarantined=1" in stdout
        assert quarantine.exists()

    def test_supervision_flags_reach_parallel_run(self, cli_case,
                                                  tmp_path, capsys):
        """``--chunk-size`` reaches the chunked file driver: the chunk
        runner sees exactly the requested chunks."""
        from repro.cli import main
        data, rule_file = cli_case
        out = tmp_path / "out.csv"
        with recorded_chunks() as sizes:
            assert main(["repair", str(data), str(rule_file), str(out),
                         "--skip-check", "--chunk-size", "2",
                         "--fail-on-quarantine"]) == 0
        assert sizes == [2, 1]
        assert out.read_text(encoding="utf-8") == "a,b\n1,1\n1,1\n2,5\n"
        stdout = capsys.readouterr().out
        assert "summary: rows repaired=3 quarantined=0" in stdout
