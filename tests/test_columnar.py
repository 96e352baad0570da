"""Properties of the columnar dictionary-encoded backend.

Three families of guarantees:

* **Encoding is lossless.**  ``ColumnarTable`` interning must
  round-trip *arbitrary* cell strings byte-for-byte
  — unicode, empty strings, NULL-sentinel lookalikes, embedded NULs,
  heavy duplication — because the repair engine's correctness proof
  (candidate exactness) reasons about original cell values, not about
  their codes.
* **Repair is representation-independent.**  The columnar backend must
  return exactly what the row engine returns (cells, provenance,
  assured sets), and must do so identically with and without numpy.
* **Row-permutation invariance (Theorem 5).**  Each tuple's fix is a
  pure function of the tuple, so permuting input rows permutes the
  repaired rows by exactly the same permutation.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (FixingRule, MatchCounter, RuleSet, counting_rules,
                        ensure_consistent, fast_repair, repair_table)
from repro.core.columnar import (ColumnarKernel, ColumnarTable,
                                 columnar_repair_table, numpy_available)
from repro.core.engine import compile_for_schema
from repro.core.resolution import DROP_CONFLICTING
from repro.relational import Schema, Table

ATTRS = ("a", "b", "c", "d", "e")
VALUES = ("0", "1", "2")
SCHEMA = Schema("Col", list(ATTRS))

#: Backend modes exercised per property: numpy (when importable) and
#: the pure-Python array path.  ``use_numpy`` is the per-call override.
MODES = ([True, False] if numpy_available() else [False])

#: Adversarial cell content: unicode (incl. astral + combining),
#: empty strings, values that *look* like NULL sentinels, embedded
#: NULs and newlines, and plain ASCII for heavy duplication.
cell_values = st.one_of(
    st.sampled_from(["", "NULL", "null", "None", "N/A", "0", "00",
                     "dup", "dup", " dup ", "a\nb", "a\x00b", "☃",
                     "é", "\U0001F600", "ß", "İstanbul"]),
    st.text(max_size=8),
)


@st.composite
def raw_tables(draw):
    n_cols = draw(st.integers(1, 4))
    schema = Schema("T", ["c%d" % i for i in range(n_cols)])
    n_rows = draw(st.integers(0, 12))
    rows = [[draw(cell_values) for _ in range(n_cols)]
            for _ in range(n_rows)]
    return schema, rows


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
def tables(draw):
    n_rows = draw(st.integers(1, 12))
    rows = [[draw(st.sampled_from(VALUES)) for _ in ATTRS]
            for _ in range(n_rows)]
    return Table(SCHEMA, rows)


class TestEncodingRoundTrip:
    """encode → decode is the identity on arbitrary cell strings."""

    @settings(max_examples=200, deadline=None)
    @given(raw_tables())
    def test_intern_round_trip(self, case):
        schema, rows = case
        for mode in MODES:
            ctable = ColumnarTable.from_rows(schema, rows, use_numpy=mode)
            assert ctable.to_rows() == rows
            assert [ctable.row_values(i) for i in range(len(rows))] == rows
            for pos in range(len(schema)):
                dictionary = ctable.dictionary_for(pos)
                assert [dictionary[code] for code
                        in ctable.codes_for(pos)] == \
                    [row[pos] for row in rows]
                assert ctable.column_index(pos) == \
                    {value: code for code, value in enumerate(dictionary)}


class TestBackendEquivalence:
    """Columnar repair ≡ row repair, numpy ≡ pure Python."""

    @settings(max_examples=150, deadline=None)
    @given(consistent_rulesets(), tables())
    def test_columnar_equals_row_engine(self, ruleset, table):
        row_report = repair_table(table, ruleset, backend="row")
        for mode in MODES:
            col_report = columnar_repair_table(table, ruleset,
                                               use_numpy=mode)
            assert [r.values for r in col_report.table] == \
                [r.values for r in row_report.table]
            assert [r.assured for r in col_report.row_results] == \
                [r.assured for r in row_report.row_results]
            assert col_report.provenance() == row_report.provenance()
            assert col_report.applications_by_rule() == \
                row_report.applications_by_rule()
            assert col_report.changed_cells == row_report.changed_cells

    @settings(max_examples=150, deadline=None)
    @given(consistent_rulesets(), tables())
    def test_candidate_mask_is_exact(self, ruleset, table):
        """The kernel's candidate set is exactly the set of rows the
        row engine changes — no false negatives (missed repairs) and
        no false positives (wasted row-engine calls)."""
        compiled = compile_for_schema(SCHEMA, ruleset)
        kernel = ColumnarKernel(compiled)
        changed = {i for i, result
                   in enumerate(repair_table(table, ruleset,
                                             backend="row").row_results)
                   if result.changed}
        for mode in MODES:
            ctable = ColumnarTable.from_table(table, use_numpy=mode)
            assert set(kernel.candidate_indices(ctable)) == changed

    @settings(max_examples=100, deadline=None)
    @given(consistent_rulesets(), tables())
    def test_fast_repair_backend_param(self, ruleset, table):
        """Per row, the Fig. 7 reference ``fast_repair`` equals the
        columnar backend: cells, assured set, provenance in order."""
        for mode in MODES:
            report = columnar_repair_table(table, ruleset, use_numpy=mode)
            for row, via_columnar in zip(table, report.row_results):
                via_row = fast_repair(row, ruleset)
                assert via_columnar.row.values == via_row.row.values
                assert via_columnar.assured == via_row.assured
                assert [(f.rule.name, f.attribute, f.old_value,
                         f.new_value) for f in via_columnar.applied] == \
                    [(f.rule.name, f.attribute, f.old_value, f.new_value)
                     for f in via_row.applied]


class TestPermutationInvariance:
    """Theorem 5: the fix is per-tuple, so row order cannot matter."""

    @settings(max_examples=150, deadline=None)
    @given(consistent_rulesets(), tables(),
           st.randoms(use_true_random=False))
    def test_row_permutation_invariance(self, ruleset, table, rng):
        order = list(range(len(table)))
        rng.shuffle(order)
        permuted = Table(SCHEMA, [list(table[i].values) for i in order])
        base = columnar_repair_table(table, ruleset)
        shuffled = columnar_repair_table(permuted, ruleset)
        assert [shuffled.table[j].values
                for j in range(len(order))] == \
            [base.table[order[j]].values for j in range(len(order))]
        assert shuffled.total_applications == base.total_applications
        assert shuffled.applications_by_rule() == \
            base.applications_by_rule()


class TestKernelContract:

    @settings(max_examples=100, deadline=None)
    @given(consistent_rulesets(), tables())
    def test_instrumented_rules_rejected(self, ruleset, table):
        """Counting rules compile like plain ones: the kernel accepts
        them, its candidates are exactly the rows the Fig. 7 reference
        changes, and the scan never calls ``matches``."""
        counter = MatchCounter()
        counted = counting_rules(ruleset.rules(), counter)
        kernel = ColumnarKernel(compile_for_schema(SCHEMA, counted))
        changed = {i for i, row in enumerate(table)
                   if fast_repair(row, counted).changed}
        counter.reset()
        for mode in MODES:
            ctable = ColumnarTable.from_table(table, use_numpy=mode)
            assert set(kernel.candidate_indices(ctable)) == changed
        assert counter.checks == 0

    def test_use_numpy_true_without_numpy(self):
        if numpy_available():
            pytest.skip("numpy importable here; covered by the "
                        "REPRO_NO_NUMPY CI leg")
        with pytest.raises(RuntimeError):
            ColumnarTable.from_rows(SCHEMA, [["0"] * len(ATTRS)],
                                    use_numpy=True)
