"""Differential harness: cRepair ≡ lRepair ≡ columnar, executably.

The paper proves (Prop. 3 / Section 4.4, Church–Rosser) that on a
consistent Σ every proper-application order computes the *unique* fix
of each tuple, so cRepair (Fig. 6) and lRepair (Fig. 7) agree; the
columnar backend merely changes *how* candidate tuples are found, so
it must agree too.  This harness makes that chain of equivalences an
executable check over randomized instances:

* 100 seeded random (ruleset, table) instances over a tiny alphabet —
  small domains make rule interactions (cascades, shared attributes,
  overlapping patterns) frequent rather than vanishingly rare;
* a handful of realistic HOSP instances (datagen noise + seed-rule
  generation), the paper's own experimental setup at reduced scale.

For every instance we assert, cell for cell:

  ``chase_repair == fast_repair == repair_stream
    == repair_table(backend="columnar")``

plus identical assured sets and identical per-rule application
counters.  The streaming leg goes through
:class:`~repro.core.stream.RepairSession`, i.e. the compiled-engine
path a production monitor runs.  Chunk sizes of the chunked file
path are drawn per-instance so chunk boundaries vary across the
corpus; its streaming leg sends every chunk through the columnar scan
and, separately, through the row-by-row chase, and a chaos leg kills
that path mid-file and resumes it from its checkpoint.

Everything is seeded — two runs of this file execute byte-identical
instances (see ``make test-differential``).
"""

from __future__ import annotations

import random

import pytest

from repro.core import columnar
from repro.core import (RuleSet, chase_repair, ensure_consistent,
                        fast_repair, repair_stream, repair_table)
from repro.core.resolution import DROP_CONFLICTING
from repro.datagen import (constraint_attributes, generate_hosp, hosp_fds,
                           inject_noise)
from repro.core import FixingRule
from repro.relational import Row, Schema, Table
from repro.rulegen.seeds import generate_seed_rules

ATTRS = ("a", "b", "c", "d", "e")
VALUES = ("0", "1", "2")
SCHEMA = Schema("Diff", list(ATTRS))

#: seeded random instances (acceptance: >= 100)
N_RANDOM_INSTANCES = 100
ROWS_PER_INSTANCE = 16


def _random_rule(rng: random.Random) -> FixingRule:
    attribute = rng.choice(ATTRS)
    candidates = [a for a in ATTRS if a != attribute]
    x_attrs = rng.sample(candidates, rng.randint(1, 3))
    evidence = {a: rng.choice(VALUES) for a in x_attrs}
    fact = rng.choice(VALUES)
    wrong = [v for v in VALUES if v != fact]
    negatives = rng.sample(wrong, rng.randint(1, len(wrong)))
    return FixingRule(evidence, attribute, negatives, fact)


def make_instance(seed: int):
    """One seeded (consistent ruleset, dirty table, chunk size) triple."""
    rng = random.Random(10_000 + seed)
    candidates = [_random_rule(rng) for _ in range(rng.randint(2, 8))]
    ruleset = ensure_consistent(RuleSet(SCHEMA, candidates),
                                strategy=DROP_CONFLICTING).rules
    table = Table(SCHEMA, [[rng.choice(VALUES) for _ in ATTRS]
                           for _ in range(ROWS_PER_INSTANCE)])
    chunk_size = rng.randint(1, ROWS_PER_INSTANCE + 4)
    return ruleset, table, chunk_size


def _cells(report_table: Table):
    return [row.values for row in report_table]


def assert_all_equivalent(ruleset: RuleSet, table: Table) -> None:
    chase_rows = [chase_repair(row, ruleset) for row in table]
    fast_rows = [fast_repair(row, ruleset) for row in table]
    columnar = repair_table(table, ruleset, backend="columnar")

    stream_rows = list(repair_stream(iter(table), ruleset))

    expected = [result.row.values for result in chase_rows]
    assert [result.row.values for result in fast_rows] == expected
    assert [result.row.values for result in stream_rows] == expected
    assert _cells(columnar.table) == expected

    # Identical assured sets: the paper's fix is (tuple, assured) pairs.
    expected_assured = [result.assured for result in chase_rows]
    assert [result.assured for result in fast_rows] == expected_assured
    assert [result.assured for result in stream_rows] == expected_assured
    assert [result.assured for result in columnar.row_results] == \
        expected_assured

    # Identical provenance through the streaming path too.
    stream_applied = [tuple((f.rule.name, f.attribute, f.old_value,
                             f.new_value) for f in result.applied)
                      for result in stream_rows]
    fast_applied = [tuple((f.rule.name, f.attribute, f.old_value,
                           f.new_value) for f in result.applied)
                    for result in fast_rows]
    assert stream_applied == fast_applied

    # Identical per-fix provenance through the columnar bulk engine.
    columnar_applied = [tuple((f.rule.name, f.attribute, f.old_value,
                               f.new_value) for f in result.applied)
                        for result in columnar.row_results]
    assert columnar_applied == fast_applied

    # Identical aggregate provenance.
    serial_report = repair_table(table, ruleset, backend="row")
    assert columnar.applications_by_rule() == \
        serial_report.applications_by_rule()
    assert columnar.changed_cells == serial_report.changed_cells
    assert columnar.provenance() == serial_report.provenance()


@pytest.mark.parametrize("seed", range(N_RANDOM_INSTANCES))
def test_differential_random_instance(seed):
    ruleset, table, _chunk_size = make_instance(seed)
    assert_all_equivalent(ruleset, table)


@pytest.mark.parametrize("seed", [11, 29])
def test_differential_hosp_instance(seed):
    """Realistic leg: generated HOSP data, injected noise, seed rules —
    the Section 7 protocol at reduced scale."""
    clean = generate_hosp(rows=200, seed=seed)
    noise = inject_noise(clean, constraint_attributes(hosp_fds()),
                         noise_rate=0.12, typo_ratio=0.5, seed=seed)
    rules = generate_seed_rules(clean, noise.table, hosp_fds())
    capped = RuleSet(clean.schema, rules.rules()[:80])
    assert len(capped) > 0
    assert_all_equivalent(capped, noise.table)


@pytest.mark.faultinjection
@pytest.mark.parametrize("seed", [3, 17])
def test_differential_supervised_chaos(seed, tmp_path, monkeypatch):
    """Chaos leg: a chunked file run whose chunks take the columnar
    scan, killed twice mid-file and resumed from its checkpoint, must
    not move a single cell — the output still equals the table repair
    exactly."""
    from repro.core import FaultInjected, FaultInjector, repair_csv_file
    from repro.relational.csvio import (iter_csv_records, read_csv,
                                        write_csv)
    monkeypatch.setattr(columnar, "COLUMNAR_AUTO_THRESHOLD", 1)
    ruleset, table, chunk_size = make_instance(seed)
    serial = repair_table(table, ruleset)
    src = tmp_path / "dirty.csv"
    write_csv(table, src)
    out = tmp_path / "out.csv"
    checkpoint = tmp_path / "ckpt.json"
    for attempt, fail_after in enumerate((ROWS_PER_INSTANCE // 3,
                                          2 * ROWS_PER_INSTANCE // 3)):
        with pytest.raises(FaultInjected):
            repair_csv_file(src, ruleset, out, chunk_size=chunk_size,
                            checkpoint_path=checkpoint,
                            checkpoint_interval=1, resume=attempt > 0,
                            rows=FaultInjector(
                                iter_csv_records(src, ruleset.schema),
                                fail_after=fail_after))
    session = repair_csv_file(src, ruleset, out, chunk_size=chunk_size,
                              checkpoint_path=checkpoint,
                              checkpoint_interval=1, resume=True)
    assert _cells(read_csv(out, schema=ruleset.schema)) == \
        _cells(serial.table)
    assert session.applications_by_rule() == serial.applications_by_rule()
    assert session.rows_seen == ROWS_PER_INSTANCE


@pytest.mark.parametrize("seed", [2, 23, 47, 71])
def test_differential_streaming_columnar(seed, tmp_path, monkeypatch):
    """Streaming leg: ``repair_csv_file`` writes exactly the bytes of
    ``repair_table(backend="row")`` with matching statistics, whether
    every chunk takes the columnar scan (threshold 1) or is chased row
    by row (threshold above the instance)."""
    from repro.core import repair_csv_file
    from repro.relational.csvio import write_csv
    ruleset, table, chunk_size = make_instance(seed)
    src = tmp_path / "dirty.csv"
    write_csv(table, src)
    report = repair_table(table, ruleset, backend="row")
    reference = tmp_path / "reference.csv"
    write_csv(report.table, reference)
    assert report.total_applications > 0  # non-vacuous
    outs = {}
    for threshold in (1, ROWS_PER_INSTANCE + 1):
        monkeypatch.setattr(columnar, "COLUMNAR_AUTO_THRESHOLD", threshold)
        dst = tmp_path / ("out_%d.csv" % threshold)
        session = repair_csv_file(src, ruleset, dst, chunk_size=chunk_size)
        assert dst.read_bytes() == reference.read_bytes(), threshold
        assert session.applications_by_rule() == \
            report.applications_by_rule()
        assert session.cells_changed == report.total_applications
        outs[threshold] = session.stats()
    assert outs[1] == outs[ROWS_PER_INSTANCE + 1]
    assert outs[1]["rows_seen"] == ROWS_PER_INSTANCE


@pytest.mark.parametrize("seed", range(0, N_RANDOM_INSTANCES, 5))
def test_differential_delta_instance(seed):
    """Incremental leg: feed each instance through a
    :class:`~repro.core.delta.DeltaRepairSession` as an interleaving of
    row and Σ deltas, then assert the session equals a from-scratch
    ``fast_repair`` of the same final originals under the same final Σ
    — cells, assured sets, and per-fix provenance."""
    from repro.core import DeltaRepairSession, replay_correction_log
    ruleset, table, _chunk_size = make_instance(seed)
    rng = random.Random(77_000 + seed)
    rows = [list(row.values) for row in table]
    split = len(rows) // 2
    session = DeltaRepairSession(
        ruleset, [(str(i), row) for i, row in enumerate(rows[:split])])

    # Interleave: remaining rows arrive one by one, with rule
    # retractions / re-additions and row overwrites/deletes mixed in.
    removed = []
    for i, row in enumerate(rows[split:], start=split):
        session.apply_rows(upserts=[(str(i), row)])
        roll = rng.random()
        if roll < 0.25 and len(session.rules()) > 1:
            rule = rng.choice(session.rules().rules())
            session.apply_rules(removed=[rule])
            removed.append(rule)
        elif roll < 0.4 and removed:
            session.apply_rules(added=[removed.pop()])
        elif roll < 0.55 and len(session) > 1:
            victim = rng.choice(session.row_ids())
            session.apply_rows(deletes=[victim])
        elif roll < 0.7:
            target = rng.choice(session.row_ids())
            session.apply_rows(upserts=[
                (target, [rng.choice(VALUES) for _ in ATTRS])])

    final_rules = session.rules()
    expected = {rid: fast_repair(Row(SCHEMA, values), final_rules)
                for rid, values in
                ((rid, session.original(rid)) for rid in session.row_ids())}
    for rid in session.row_ids():
        want = expected[rid]
        got = session.row_result(rid)
        assert list(got.row.values) == list(want.row.values), rid
        assert got.assured == want.assured, rid
        got_applied = [(f.rule.signature(), f.attribute, f.old_value,
                        f.new_value) for f in got.applied]
        want_applied = [(f.rule.signature(), f.attribute, f.old_value,
                         f.new_value) for f in want.applied]
        assert got_applied == want_applied, rid

    # The correction log replays to the session's final visible state.
    _schema, replayed, report = replay_correction_log(
        session.log.records())
    assert report["mismatch_count"] == 0
    assert replayed == {rid: values for rid, values in session.items()}


def test_corpus_is_not_trivial():
    """The random corpus must actually exercise repairs: across all
    instances a healthy share of rows change, so the equivalences
    above are not vacuously about untouched tables."""
    changed = total = 0
    instances_with_fixes = 0
    for seed in range(N_RANDOM_INSTANCES):
        ruleset, table, _chunk_size = make_instance(seed)
        report = repair_table(table, ruleset)
        fixes = sum(1 for result in report.row_results if result.changed)
        changed += fixes
        total += len(table)
        if fixes:
            instances_with_fixes += 1
    assert instances_with_fixes >= N_RANDOM_INSTANCES // 2
    assert changed >= total // 20
