"""Repair algorithms (Section 6 of the paper).

Two tuple-level algorithms plus a table-level driver:

* :func:`chase_repair` — ``cRepair`` (Fig. 6).  A straightforward
  chase: repeatedly scan the unused rules, properly apply any that
  fires, until a fixpoint.  ``O(size(Σ)·|R|)`` per tuple.
* :func:`fast_repair` — ``lRepair`` (Fig. 7).  ``O(size(Σ))`` per
  tuple: each rule is examined at most ``|X_φ| + 1`` times.  Since the
  engine consolidation this is a thin adapter over
  :class:`repro.core.engine.CompiledRuleSet` — the same compiled hot
  path every other driver (table, streaming, daemon) executes.
* :func:`repair_table` — applies either algorithm to every row of a
  table, collecting a :class:`TableRepairReport` with full provenance
  (which rule rewrote which cell from what to what).  The fast path
  compiles Σ once and chases raw cell lists.

Both algorithms implement the *proper application* discipline of
Section 3.2: applying φ rewrites ``t[B_φ] := tp+[B_φ]`` and marks
``X_φ ∪ {B_φ}`` as assured; assured attributes are never rewritten
again.  When Σ is consistent the result is the unique fix of the tuple
(Church–Rosser property); the two algorithms then agree by theorem —
and by the property tests in ``tests/test_properties.py``.
"""

from __future__ import annotations

import random
from typing import (Dict, FrozenSet, List, NamedTuple, Optional, Sequence,
                    Set, Tuple, Union)

from ..errors import InconsistentRulesError
from ..relational import Row, Table
from .engine import CompiledRuleSet, compile_for_schema
from .indexes import HashCounters, InvertedIndex
from .matching import properly_applicable
from .rule import FixingRule
from .ruleset import RuleSet

RuleInput = Union[RuleSet, Sequence[FixingRule]]


class AppliedFix(NamedTuple):
    """Provenance of one rule application."""

    rule: FixingRule
    attribute: str
    old_value: str
    new_value: str


class RepairResult(NamedTuple):
    """Outcome of repairing one tuple.

    ``row`` is a new Row (the input is never mutated by the public
    functions); ``applied`` lists rule applications in chase order;
    ``assured`` is the final assured-attribute set ``A``.
    """

    row: Row
    applied: Tuple[AppliedFix, ...]
    assured: FrozenSet[str]

    @property
    def changed(self) -> bool:
        return bool(self.applied)


def _as_rule_list(rules: RuleInput) -> List[FixingRule]:
    if isinstance(rules, RuleSet):
        return rules.rules()
    return list(rules)


def chase_repair(row: Row, rules: RuleInput,
                 order: Optional[Sequence[int]] = None,
                 rng: Optional[random.Random] = None) -> RepairResult:
    """``cRepair`` (Fig. 6): chase *row* with *rules* to a fixpoint.

    Parameters
    ----------
    row:
        The tuple to repair; not mutated.
    rules:
        A consistent set Σ of fixing rules.  (Consistency is the
        caller's responsibility — on an inconsistent set the result
        depends on application order, exactly as the paper warns.)
    order:
        Optional permutation of rule indices controlling the scan
        order.  The default is input order.  With a consistent Σ the
        result is order-independent; the parameter exists so tests can
        *verify* that (Church–Rosser).
    rng:
        Alternative to *order*: shuffle the scan order randomly.
    """
    rule_list = _as_rule_list(rules)
    if order is not None:
        rule_list = [rule_list[i] for i in order]
    elif rng is not None:
        rule_list = list(rule_list)
        rng.shuffle(rule_list)

    current = row.copy()
    assured: Set[str] = set()
    remaining: List[FixingRule] = list(rule_list)
    applied: List[AppliedFix] = []
    updated = True
    while updated:
        updated = False
        still_unused: List[FixingRule] = []
        for rule in remaining:
            if properly_applicable(rule, current, assured):
                old = current[rule.attribute]
                rule.apply_in_place(current)
                assured.update(rule.touched_attrs)
                applied.append(AppliedFix(rule, rule.attribute, old,
                                          rule.fact))
                updated = True
            else:
                still_unused.append(rule)
        remaining = still_unused
    return RepairResult(current, tuple(applied), frozenset(assured))


def fast_repair(row: Row, rules: RuleInput,
                index: Optional[InvertedIndex] = None,
                counters: Optional[HashCounters] = None,
                backend: str = "row") -> RepairResult:
    """``lRepair`` (Fig. 7): repair *row* through the compiled engine.

    Parameters
    ----------
    row:
        The tuple to repair; not mutated.
    rules:
        A consistent set Σ.  Pass a :class:`~repro.core.ruleset.
        RuleSet` when repairing many tuples — its compiled form is
        memoized, so the ``O(size(Σ))`` compilation is paid once.
        Ignored when *index* is given except that they should describe
        the same Σ.
    index:
        A prebuilt :class:`InvertedIndex` over Σ (the historical
        amortization vehicle).  The compiled engine supersedes it —
        the index now merely memoizes a
        :class:`~repro.core.engine.CompiledRuleSet` on first use —
        but the parameter keeps working for existing callers.
    counters:
        Accepted for backward compatibility and unused: the engine
        keeps its evidence counters in a per-row dict, so there is no
        reusable counter state to share.
    backend:
        ``"row"`` (default, also what ``"auto"`` resolves to for a
        single tuple) runs the compiled per-row engine;
        ``"columnar"`` routes through the dictionary-encoded bulk
        engine (:mod:`repro.core.columnar`) — same
        :class:`RepairResult` by theorem and by the differential
        harness, mainly useful for pinning a backend in tests.

    Each rule enters the frontier Γ at most once (when its evidence
    counter completes) and leaves permanently once examined, applied or
    not — see the correctness argument accompanying Fig. 7.
    """
    del counters  # superseded by the engine's per-row counter dict
    if backend not in VALID_BACKENDS:
        raise ValueError(
            "unknown backend %r; valid choices are %s"
            % (backend, ", ".join(repr(b) for b in VALID_BACKENDS)))
    if backend == "columnar":
        from .columnar import columnar_repair_table
        report = columnar_repair_table(
            Table.from_trusted_rows(row.schema, [row]), rules)
        return report.row_results[0]
    if index is not None:
        compiled = index._compiled
        if compiled is None or not compiled.compatible_with(row.schema):
            compiled = CompiledRuleSet(row.schema, list(index.rules))
            index._compiled = compiled
        return compiled.repair_row(row)
    return compile_for_schema(row.schema, rules).repair_row(row)


class TableRepairReport:
    """Aggregate outcome of repairing a whole table.

    Attributes
    ----------
    table:
        The repaired table (a new instance; the input is untouched).
    row_results:
        One :class:`RepairResult` per row, positionally aligned.
    """

    def __init__(self, table: Table, row_results: List[RepairResult]):
        self.table = table
        self.row_results = row_results

    @property
    def changed_cells(self) -> List[Tuple[int, str]]:
        """Cell addresses rewritten by the repair, in application order."""
        cells: List[Tuple[int, str]] = []
        for i, result in enumerate(self.row_results):
            for fix in result.applied:
                cells.append((i, fix.attribute))
        return cells

    @property
    def total_applications(self) -> int:
        return sum(len(result.applied) for result in self.row_results)

    def applications_by_rule(self) -> Dict[str, int]:
        """How many cells each rule corrected, keyed by rule name.

        This is the quantity plotted in Fig. 12(a) (errors corrected by
        every fixing rule).
        """
        counts: Dict[str, int] = {}
        for result in self.row_results:
            for fix in result.applied:
                counts[fix.rule.name] = counts.get(fix.rule.name, 0) + 1
        return counts

    def provenance(self) -> List[Dict[str, str]]:
        """The full repair log as JSON-ready records, one per applied
        fix, in application order — the audit trail a production
        deployment should persist alongside the repaired data."""
        records: List[Dict[str, str]] = []
        for i, result in enumerate(self.row_results):
            for fix in result.applied:
                records.append({
                    "row": str(i),
                    "attribute": fix.attribute,
                    "old_value": fix.old_value,
                    "new_value": fix.new_value,
                    "rule": fix.rule.name,
                })
        return records

    def __repr__(self) -> str:
        return ("TableRepairReport(%d rows, %d cells changed)"
                % (len(self.row_results), self.total_applications))


#: Algorithm names accepted by :func:`repair_table`.
VALID_ALGORITHMS = ("fast", "chase")

#: Backend names accepted by :func:`repair_table` / :func:`fast_repair`.
#: ``"row"`` is the compiled per-row engine; ``"columnar"`` is the
#: dictionary-encoded bulk engine (:mod:`repro.core.columnar`);
#: ``"auto"`` picks columnar for large tables and row otherwise.
VALID_BACKENDS = ("auto", "row", "columnar")


def repair_table(table: Table, rules: RuleInput, algorithm: str = "fast",
                 check_consistency: bool = False,
                 backend: str = "auto") -> TableRepairReport:
    """Repair every row of *table* with Σ = *rules*.

    Parameters
    ----------
    algorithm:
        ``"fast"`` (lRepair, default) or ``"chase"`` (cRepair).
        Anything else raises :class:`ValueError` naming the valid
        choices — before any expensive work happens.
    check_consistency:
        When ``True``, verify Σ is consistent first and raise
        :class:`~repro.errors.InconsistentRulesError` otherwise.  Off
        by default because the check costs a scan of Σ; when on, the
        verdict is cached on Σ's content fingerprint, so repairing
        many tables with one rule set checks it exactly once.
    backend:
        Which repair engine executes the rows.  ``"row"`` is the
        compiled per-row engine; ``"columnar"`` dictionary-encodes
        the table and scans evidence patterns as bulk integer-array
        intersections (:mod:`repro.core.columnar`) — same output,
        proven cell-for-cell by the differential harness; ``"auto"``
        (default) picks columnar for fast repairs of at least
        :data:`~repro.core.columnar.COLUMNAR_AUTO_THRESHOLD` rows
        when Σ is not instrumented, row otherwise.
        ``backend="columnar"`` with
        ``algorithm="chase"`` raises :class:`ValueError` — the
        columnar candidate detector is an lRepair-shaped engine.
    """
    if algorithm not in VALID_ALGORITHMS:
        raise ValueError(
            "unknown algorithm %r; valid choices are %s"
            % (algorithm, ", ".join(repr(a) for a in VALID_ALGORITHMS)))
    if backend not in VALID_BACKENDS:
        raise ValueError(
            "unknown backend %r; valid choices are %s"
            % (backend, ", ".join(repr(b) for b in VALID_BACKENDS)))
    if backend == "columnar" and algorithm == "chase":
        raise ValueError(
            "backend='columnar' requires algorithm='fast': the "
            "columnar engine is a bulk formulation of lRepair")
    rule_list = _as_rule_list(rules)
    if check_consistency:
        # Imported lazily: consistency checking chases candidate tuples
        # with these same repair primitives.
        from .consistency import find_conflicts_cached
        conflicts = find_conflicts_cached(rules, first_only=True)
        if conflicts:
            raise InconsistentRulesError(
                "rule set is inconsistent: %s" % conflicts[0].describe(),
                conflicts)
    results: List[RepairResult] = []
    if algorithm == "fast":
        from .columnar import COLUMNAR_AUTO_THRESHOLD, columnar_repair_table
        if backend == "columnar" or (
                backend == "auto"
                and len(table) >= COLUMNAR_AUTO_THRESHOLD
                and not compile_for_schema(table.schema, rules).instrumented):
            return columnar_repair_table(table, rules)
        # One compiled Σ for the whole table; the chase runs over raw
        # cell lists and rows are rebuilt through the trusted
        # constructor.
        compiled = compile_for_schema(table.schema, rules)
        if compiled.instrumented:
            repaired_rows: List[Row] = []
            for row in table:
                result = compiled.repair_row(row)
                results.append(result)
                repaired_rows.append(result.row)
            return TableRepairReport(
                Table.from_trusted_rows(table.schema, repaired_rows),
                results)
        schema = table.schema
        from_trusted = Row.from_trusted
        empty_applied: Tuple[AppliedFix, ...] = ()
        empty_assured: FrozenSet[str] = frozenset()
        repaired_rows = []
        repair_values = compiled.repair_values
        for row in table:
            outcome = repair_values(row._cells)
            if outcome is None:
                result = RepairResult(
                    from_trusted(schema, list(row._cells)),
                    empty_applied, empty_assured)
            else:
                new_values, applied = outcome
                result = RepairResult(from_trusted(schema, new_values),
                                      compiled.expand_applied(applied),
                                      compiled.assured_for(applied))
            results.append(result)
            repaired_rows.append(result.row)
        return TableRepairReport(
            Table.from_trusted_rows(schema, repaired_rows), results)

    repaired = Table(table.schema)
    for row in table:
        result = chase_repair(row, rule_list)
        results.append(result)
        repaired.append(result.row)
    return TableRepairReport(repaired, results)
