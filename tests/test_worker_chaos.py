"""Chaos harness: realistic HOSP runs with faults injected into the
repair engine itself.

Every test patches the compiled engine to misbehave on one planted
cell value — raise, stall, or hang — and asserts the paper-level
contract survives anyway: the output is byte-identical to a clean run
(minus, at most, the deliberately poisoned row, which must land in
quarantine as a structured :class:`~repro.errors.RowError` with exact
line provenance), and a deadline-bound run terminates instead of
hanging on the stuck row.  The mechanism-level tests live in
``test_supervisor.py``; the HTTP-level ones in ``test_serve.py``.

All chaos is deterministic: triggers are planted cell values and every
fault budget is an in-test counter.
"""

from __future__ import annotations

import time

import pytest

from repro.core import CompiledRuleSet, RuleSet, repair_csv_file
from repro.core.pipeline import read_quarantine
from repro.core.stream import is_error_marker
from repro.datagen import (constraint_attributes, generate_hosp, hosp_fds,
                           inject_noise)
from repro.relational import Table, read_csv, write_csv
from repro.rulegen.seeds import generate_seed_rules
from repro.serve.pool import DeadlineExceeded, ServePool

pytestmark = pytest.mark.faultinjection

#: The planted poison cell value, the attribute it is planted in (no
#: rule's evidence or target, so the row stays a repair candidate), its
#: 0-based row index, and that row's input CSV line number (header =
#: line 1, row 0 = line 2).
TRIGGER = "XCHAOSX"
PLANT_ATTR = "phn"
POISON_ROW = 57
POISON_LINE = POISON_ROW + 2


class InjectedFault(RuntimeError):
    """What a poisoned row raises inside the engine."""


@pytest.fixture(scope="module")
def chaos_case(tmp_path_factory):
    """A dirty HOSP CSV with one planted trigger cell + its rules and
    the clean-run reference output."""
    clean = generate_hosp(rows=200, seed=23)
    noise = inject_noise(clean, constraint_attributes(hosp_fds()),
                         noise_rate=0.12, typo_ratio=0.5, seed=23)
    rules = RuleSet(clean.schema,
                    generate_seed_rules(clean, noise.table,
                                        hosp_fds()).rules()[:80])
    rows = [list(row.values) for row in noise.table]
    rows[POISON_ROW][clean.schema.index_of(PLANT_ATTR)] = TRIGGER
    base = tmp_path_factory.mktemp("chaos")
    path = base / "dirty.csv"
    write_csv(Table(clean.schema, rows), path)
    reference = base / "serial.csv"
    session = repair_csv_file(path, rules, reference,
                              check_consistency=False)
    assert session.rows_changed > 0  # non-vacuous workload
    # the planted row is one the engine really repairs
    assert reference.read_bytes().splitlines()[POISON_LINE - 1] != \
        path.read_bytes().splitlines()[POISON_LINE - 1]
    return path, rules, reference


def arm(monkeypatch, action):
    """Run *action* before the engine repairs the row holding
    :data:`TRIGGER` — on every driver, since all of them execute
    :meth:`CompiledRuleSet.repair_values`."""
    original = CompiledRuleSet.repair_values

    def repair_values(self, values):
        if TRIGGER in values:
            action()
        return original(self, values)

    monkeypatch.setattr(CompiledRuleSet, "repair_values", repair_values)


def _poison():
    raise InjectedFault("engine blew up on a planted row")


def _reference_without_poison_row(reference) -> bytes:
    lines = reference.read_bytes().splitlines(keepends=True)
    del lines[POISON_LINE - 1]
    return b"".join(lines)


class TestPoisonRowEndToEnd:
    def test_poison_row_quarantined_output_serial_identical(
            self, chaos_case, tmp_path, monkeypatch):
        """The acceptance scenario on 16-row chunks: a row
        that raises every time it is repaired ends in quarantine with
        exact line provenance, every other row is repaired, and the
        output is byte-identical to the clean run minus that line."""
        path, rules, reference = chaos_case
        arm(monkeypatch, _poison)
        out = tmp_path / "chaos.csv"
        quarantine = tmp_path / "dead.jsonl"
        session = repair_csv_file(path, rules, out,
                                  check_consistency=False,
                                  on_error="quarantine",
                                  quarantine_path=quarantine,
                                  chunk_size=16)
        records = read_quarantine(quarantine)
        assert len(records) == 1
        assert records[0].error_type == "InjectedFault"
        assert records[0].line_no == POISON_LINE
        assert TRIGGER in records[0].record
        assert session.rows_failed == 1
        assert session.rows_quarantined == 1
        assert out.read_bytes() == _reference_without_poison_row(reference)

    def test_poison_row_strict_policy_raises(self, chaos_case, tmp_path,
                                             monkeypatch):
        from repro.errors import PipelineError
        path, rules, _reference = chaos_case
        arm(monkeypatch, _poison)
        out = tmp_path / "out.csv"
        with pytest.raises(PipelineError, match="InjectedFault") as err:
            repair_csv_file(path, rules, out, check_consistency=False,
                            chunk_size=16)
        assert "line %d" % POISON_LINE in str(err.value)
        assert not out.exists()


class TestTransientFaultsHeal:
    def test_slow_worker_changes_nothing(self, chaos_case, tmp_path,
                                         monkeypatch):
        """A straggler row (the file driver has no deadline) just
        finishes late: no failures, byte-identical output."""
        path, rules, reference = chaos_case
        arm(monkeypatch, lambda: time.sleep(0.3))
        out = tmp_path / "slow.csv"
        session = repair_csv_file(path, rules, out,
                                  check_consistency=False,
                                  chunk_size=16)
        assert out.read_bytes() == reference.read_bytes()
        assert session.rows_failed == 0

    def test_hung_worker_deadline_then_heal(self, chaos_case,
                                            monkeypatch):
        """The daemon's executor path: one hang is cut off at the
        first deadline check after it; the retry (the hang spent)
        repairs the whole batch exactly as the clean file run did."""
        path, rules, reference = chaos_case
        hangs = [1]

        def hang_once():
            if hangs[0]:
                hangs[0] -= 1
                time.sleep(1.0)

        arm(monkeypatch, hang_once)
        kernel = CompiledRuleSet(rules.schema, rules)
        rows = [list(row.values) for row in read_csv(path,
                                                     schema=rules.schema)]
        pool = ServePool()
        start = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            pool.repair(kernel, rows, start + 0.5)
        assert time.monotonic() - start < 1.0 + 2.0
        outcomes = pool.repair(kernel, rows, time.monotonic() + 60)
        assert not any(is_error_marker(o) for o in outcomes if o)
        repaired = [list(o[0]) if o is not None else values
                    for values, o in zip(rows, outcomes)]
        expected = [list(row.values) for row in read_csv(
            reference, schema=rules.schema)]
        assert repaired == expected

    def test_worker_exception_is_per_row_not_supervision(
            self, chaos_case, tmp_path, monkeypatch):
        """With the default chunking too, a raising row is an ordinary
        per-row error under the session's policy: it is quarantined as
        the exception it raised and the run carries on."""
        path, rules, reference = chaos_case
        arm(monkeypatch, _poison)
        out = tmp_path / "exc.csv"
        quarantine = tmp_path / "exc.jsonl"
        session = repair_csv_file(path, rules, out,
                                  check_consistency=False,
                                  on_error="quarantine",
                                  quarantine_path=quarantine)
        records = read_quarantine(quarantine)
        assert len(records) == 1
        assert records[0].error_type == "InjectedFault"
        assert records[0].line_no == POISON_LINE
        assert session.errors_by_type == {"InjectedFault": 1}
        assert out.read_bytes() == _reference_without_poison_row(reference)
