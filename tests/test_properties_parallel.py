"""Property-based tests for the chunked repair path.

Registered alongside ``tests/test_properties*.py`` and reusing its
strategies (tiny alphabet, high rule-interaction density).  The
invariants, per DESIGN.md and Section 4 of the paper:

* the compiled batch kernel every driver runs computes exactly
  :func:`fast_repair` — same cells, same provenance, same assured set
  — and, on a consistent Σ, the same tuple as :func:`chase_repair`;
* output is invariant under the chunk plan: any ``chunk_size``, with
  chunks sent through the columnar scan or chased row by row,
  produces the row-by-row result, and the chunked file path covers
  every row exactly once;
* termination (≤ |attr(R)| proper applications per tuple) and
  assured-set discipline (assured = union of touched attributes of the
  applied rules; assured attributes never rewritten) survive the
  positional reformulation.

All tests run derandomized, so every machine executes the same
examples.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import columnar
from repro.core import (CompiledRuleSet, RuleSet, chase_repair,
                        fast_repair)
from repro.core.stream import _columnar_chunk_stream
from repro.relational import Table

from tests.test_parallel import chunk_plan
from tests.test_properties import (ATTRS, SCHEMA, consistent_rulesets,
                                   rows)

FIXED = dict(deadline=None, derandomize=True)


@st.composite
def tables(draw, min_rows=1, max_rows=12):
    row_list = draw(st.lists(rows(), min_size=min_rows, max_size=max_rows))
    table = Table(SCHEMA)
    for row in row_list:
        table.append(list(row.values))
    return table


class TestKernelEquivalence:
    """The compiled batch kernel ≡ lRepair, tuple for tuple."""

    @settings(max_examples=250, **FIXED)
    @given(consistent_rulesets(), rows())
    def test_kernel_matches_fast_repair(self, ruleset, row):
        kernel = CompiledRuleSet(SCHEMA, ruleset)
        mine = kernel.repair_row(row)
        reference = fast_repair(row, ruleset)
        assert mine.row == reference.row
        assert mine.assured == reference.assured
        assert [(fix.rule.name, fix.attribute, fix.old_value, fix.new_value)
                for fix in mine.applied] == \
               [(fix.rule.name, fix.attribute, fix.old_value, fix.new_value)
                for fix in reference.applied]

    @settings(max_examples=250, **FIXED)
    @given(consistent_rulesets(), rows())
    def test_kernel_never_mutates_input(self, ruleset, row):
        before = row.values
        CompiledRuleSet(SCHEMA, ruleset).repair_values(row.values)
        assert row.values == before

    @settings(max_examples=150, **FIXED)
    @given(consistent_rulesets(), rows())
    def test_kernel_matches_chase(self, ruleset, row):
        """Transitively with the above: kernel ≡ cRepair too
        (Church–Rosser on a consistent Σ)."""
        kernel = CompiledRuleSet(SCHEMA, ruleset)
        assert kernel.repair_row(row).row == chase_repair(row, ruleset).row


class TestChunkInvariance:
    """Chunking must never leak into results."""

    @settings(max_examples=120, **FIXED)
    @given(st.integers(0, 150), st.integers(1, 64))
    def test_plan_chunks_partitions_exactly(self, total, chunk_size):
        """The chunked file path covers every row exactly once, in
        chunks of *chunk_size* rows bar a shorter tail."""
        plan = chunk_plan(total, chunk_size)
        assert sum(plan) == total
        assert all(1 <= size <= chunk_size for size in plan)
        assert all(size == chunk_size for size in plan[:-1])
        # Determinism: the plan is a pure function of its inputs.
        assert plan == chunk_plan(total, chunk_size)

    @settings(max_examples=100, **FIXED)
    @given(consistent_rulesets(), tables(), st.integers(1, 20),
           st.sampled_from([1, 10 ** 9]))
    def test_chunked_kernel_equals_rowwise(self, ruleset, table,
                                           chunk_size, threshold):
        """Repairing chunk by chunk — through the columnar scan
        (threshold 1) or row by row (threshold above any chunk) —
        reassembles to the row-by-row result for any chunk size."""
        records = list(enumerate(table, start=2))
        merged = []
        with mock.patch.object(columnar, "COLUMNAR_AUTO_THRESHOLD",
                               threshold):
            for chunk, outcomes in _columnar_chunk_stream(
                    CompiledRuleSet(SCHEMA, ruleset), iter(records),
                    chunk_size):
                assert len(chunk) <= chunk_size
                for (_line, row), outcome in zip(chunk, outcomes):
                    merged.append(tuple(outcome[0]) if outcome is not None
                                  else row.values)
        expected = [fast_repair(row, ruleset).row.values for row in table]
        assert merged == expected


class TestSectionFourInvariants:
    """Termination and assured-set discipline through the kernel."""

    @settings(max_examples=200, **FIXED)
    @given(consistent_rulesets(), rows())
    def test_termination_bound(self, ruleset, row):
        result = CompiledRuleSet(SCHEMA, ruleset).repair_row(row)
        assert len(result.applied) <= len(ATTRS)

    @settings(max_examples=200, **FIXED)
    @given(consistent_rulesets(), rows())
    def test_assured_is_union_of_touched(self, ruleset, row):
        result = CompiledRuleSet(SCHEMA, ruleset).repair_row(row)
        expected = set()
        for fix in result.applied:
            expected.update(fix.rule.touched_attrs)
        assert result.assured == frozenset(expected)

    @settings(max_examples=200, **FIXED)
    @given(consistent_rulesets(), rows())
    def test_assured_attributes_never_rewritten(self, ruleset, row):
        """Monotonicity: replaying the application log, no fix targets
        an attribute assured by an earlier application."""
        result = CompiledRuleSet(SCHEMA, ruleset).repair_row(row)
        assured = set()
        for fix in result.applied:
            assert fix.attribute not in assured
            assured.update(fix.rule.touched_attrs)

    @settings(max_examples=150, **FIXED)
    @given(consistent_rulesets(), rows())
    def test_result_is_fixpoint_wrt_assured(self, ruleset, row):
        """Condition (2) of a fix, relative to the final assured set
        (plain re-repair from an empty assured set is not guaranteed
        to be a no-op — see tests/test_properties.py)."""
        from repro.core import is_fixpoint
        result = CompiledRuleSet(SCHEMA, ruleset).repair_row(row)
        assert is_fixpoint(result.row, ruleset, set(result.assured))


@pytest.mark.parametrize("bad", [0, -3])
def test_plan_chunks_rejects_bad_chunk_size(bad, tmp_path):
    from repro.core import repair_csv_file
    source = tmp_path / "dirty.csv"
    source.write_text(",".join(ATTRS) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="chunk_size"):
        repair_csv_file(source, RuleSet(SCHEMA, []), tmp_path / "out.csv",
                        check_consistency=False, chunk_size=bad)
