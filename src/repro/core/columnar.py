"""Dictionary-encoded columnar repair backend.

The compiled engine (:mod:`repro.core.engine`) already chases raw cell
lists, but it still visits every row and probes per-position dicts
cell by cell.  On realistic workloads the overwhelming majority of
rows are *fixpoints* — no rule fires — and proving that per row is
where the serial time goes.  This module exploits the structure of
fixing rules to prove it in bulk:

**Candidate exactness.**  ``repair_values`` starts with an empty
assured set, so the *first* rule it applies must pass the evidence
re-check against the original cell values and must find the original
``t[B]`` among its negative patterns.  Therefore a row is changed by
the chase **iff** some rule's full evidence pattern matches the
original tuple and the original ``B``-value is one of that rule's
negatives.  That predicate only mentions original values, so it can be
evaluated column-wise over the whole table; rows failing it are
provably fixpoints and never enter the per-row chase at all.  (Cascades
are no exception: a cascade still needs a first application, and that
first application fires on the originals.)

The evaluation runs in *code space*: each column is dictionary-encoded
(distinct values sorted into a dictionary, cells stored as ``int32``
code arrays — numpy when importable, ``array('i')`` otherwise), rules
are grouped by their evidence-position signature, and each group's
firing patterns become a set of integer tuples.  With numpy the tuples
collapse further into mixed-radix ``int64`` keys so a group costs one
vectorized key build plus one ``np.isin``; the pure-Python fallback
walks one ``zip`` of the group's code columns against a tuple set —
still a tight C-level loop.  Columns are encoded lazily, so a serial
repair only pays for the columns Σ actually constrains.  Candidate
rows (typically the noise-rate fraction of the table) are then chased
through the very same :meth:`~repro.core.engine.CompiledRuleSet.
repair_values` hot loop, so cells, provenance, assured sets, and chase
order are identical to the row backend by construction — a property
the differential harness (``tests/test_differential_repair.py``) pins
cell for cell.

The returned :class:`ColumnarRepairReport` materializes the repaired
:class:`~repro.relational.Table` eagerly but keeps per-row provenance
in the engine's compact ``(rule_id, old_value)`` form, rehydrating
``row_results`` on first access.  Building 50K ``RepairResult`` tuples
costs more than the entire columnar scan; most callers (CLI,
benchmarks, pipelines) never read them.
"""

from __future__ import annotations

import gc
import os
from array import array
from typing import (Any, Dict, FrozenSet, List, Optional, Sequence, Tuple,
                    Union)

from ..relational import Row, Schema, Table
from .engine import CompiledRuleSet, compile_for_schema
from .repair import RepairResult, RuleInput, TableRepairReport

__all__ = [
    "COLUMNAR_AUTO_THRESHOLD",
    "ColumnarKernel",
    "ColumnarRepairReport",
    "ColumnarTable",
    "columnar_repair_table",
    "numpy_available",
]

#: Row count from which ``repair_table(backend="auto")`` and each
#: chunk of ``repair_csv_file`` switch to the columnar kernel.  Below
#: it the fixed costs (column encode, group key build) eat the per-row
#: win.
COLUMNAR_AUTO_THRESHOLD = 4096

#: Mixed-radix keys use int64; groups whose dictionary-size product
#: exceeds this fall back to per-pattern equality masks.
_RADIX_LIMIT = 2 ** 62


def _load_numpy():
    """Import numpy unless the pure-Python fallback is forced.

    ``REPRO_NO_NUMPY`` (any non-empty value) makes the whole backend
    behave as if numpy were not installed — the CI lever that keeps the
    fallback tested on machines that do have numpy.
    """
    if os.environ.get("REPRO_NO_NUMPY"):
        return None
    try:
        import numpy
    except ImportError:  # pragma: no cover - depends on environment
        return None
    return numpy


_NUMPY = _load_numpy()

def numpy_available() -> bool:
    """Is the numpy code path active (installed and not disabled)?"""
    return _NUMPY is not None


def _resolve_numpy(use_numpy: Optional[bool]):
    """Map the ``use_numpy`` override onto a numpy module or ``None``."""
    if use_numpy is None:
        return _NUMPY
    if not use_numpy:
        return None
    if _NUMPY is None:
        raise RuntimeError(
            "use_numpy=True but numpy is unavailable "
            "(not installed, or disabled via REPRO_NO_NUMPY)")
    return _NUMPY


class ColumnarTable:
    """A table as per-column dictionaries plus int32 code arrays.

    The encoding is exact and deterministic: each column's dictionary
    is its sorted distinct values, so two tables with equal cells
    encode identically (regardless of row order history or hash
    seeding) and decoding reproduces every cell byte for byte —
    unicode, empty strings, NUL-containing sentinels included.  Cells
    must be ``str`` (the invariant :class:`~repro.relational.Row`
    already enforces).

    Columns encode *lazily*: a column pays the sort-and-intern cost
    only when something asks for its codes (the kernel asks for Σ's
    evidence/target columns only).
    """

    __slots__ = ("schema", "n_rows", "use_numpy", "_raw", "_dictionaries",
                 "_codes", "_indexes")

    def __init__(self, schema: Schema, raw_columns: List[Sequence[str]],
                 n_rows: int, use_numpy: bool):
        self.schema = schema
        self.n_rows = n_rows
        self.use_numpy = use_numpy
        self._raw = raw_columns
        n_cols = len(raw_columns)
        self._dictionaries: List[Optional[List[str]]] = [None] * n_cols
        self._codes: List[Any] = [None] * n_cols
        self._indexes: List[Optional[Dict[str, int]]] = [None] * n_cols

    # -- construction --------------------------------------------------------

    @classmethod
    def from_rows(cls, schema: Schema, rows: Sequence[Sequence[str]],
                  use_numpy: Optional[bool] = None) -> "ColumnarTable":
        """Wrap row-major cell values (each row in schema order)."""
        np_mod = _resolve_numpy(use_numpy)
        n_cols = len(schema)
        n_rows = len(rows)
        if n_rows:
            columns: List[Sequence[str]] = list(zip(*rows))
            if len(columns) != n_cols:
                raise ValueError("rows have %d columns, schema %r has %d"
                                 % (len(columns), schema.name, n_cols))
        else:
            columns = [()] * n_cols
        return cls(schema, columns, n_rows, np_mod is not None)

    @classmethod
    def from_table(cls, table: Table,
                   use_numpy: Optional[bool] = None) -> "ColumnarTable":
        return cls.from_rows(table.schema,
                             [row._cells for row in table],
                             use_numpy=use_numpy)

    def _encode(self, pos: int) -> None:
        column = self._raw[pos]
        dictionary = sorted(set(column))
        index = {value: code for code, value in enumerate(dictionary)}
        if self.use_numpy:
            codes = _NUMPY.fromiter(map(index.__getitem__, column),
                                    dtype=_NUMPY.int32, count=len(column))
        else:
            codes = array("i", map(index.__getitem__, column))
        self._dictionaries[pos] = dictionary
        self._codes[pos] = codes
        self._indexes[pos] = index

    # -- access --------------------------------------------------------------

    def codes_for(self, pos: int):
        """The int32 code array of column *pos* (encoding on demand)."""
        codes = self._codes[pos]
        if codes is None:
            self._encode(pos)
            codes = self._codes[pos]
        return codes

    def dictionary_for(self, pos: int) -> List[str]:
        """Sorted distinct values of column *pos* (encoding on demand)."""
        if self._dictionaries[pos] is None:
            self._encode(pos)
        return self._dictionaries[pos]

    def column_index(self, pos: int) -> Dict[str, int]:
        """``value -> code`` for column *pos* (encoding on demand)."""
        if self._indexes[pos] is None:
            self._encode(pos)
        return self._indexes[pos]

    def row_values(self, i: int) -> List[str]:
        """Row *i* as a fresh cell list in schema order."""
        return [column[i] for column in self._raw]

    def to_rows(self) -> List[List[str]]:
        return [self.row_values(i) for i in range(self.n_rows)]

    def to_table(self) -> Table:
        from_trusted = Row.from_trusted
        return Table.from_trusted_rows(
            self.schema,
            [from_trusted(self.schema, self.row_values(i))
             for i in range(self.n_rows)])

    def __len__(self) -> int:
        return self.n_rows

    def __repr__(self) -> str:
        return ("ColumnarTable(%d rows x %d cols, %s)"
                % (self.n_rows, len(self._dictionaries),
                   "numpy" if self.use_numpy else "array"))


class ColumnarKernel:
    """A :class:`CompiledRuleSet`'s evidence patterns compiled into
    code-space group scans.

    Rules are grouped by ``(sorted evidence positions, B position)``;
    each group's members share one set of code columns, so candidate
    detection over a :class:`ColumnarTable` costs one bulk scan per
    *group* (HOSP's 2,000 mined rules collapse to a handful of FD
    shapes), not per rule.  The kernel holds no table state — one
    kernel serves every chunk of a run.
    """

    __slots__ = ("compiled", "_groups")

    def __init__(self, compiled: CompiledRuleSet):
        if compiled.instrumented:
            raise ValueError(
                "columnar backend cannot run instrumented rule sets "
                "(rules overriding matches/apply run through the "
                "Row-level executor only)")
        self.compiled = compiled
        groups: Dict[Tuple[Tuple[int, ...], int],
                     List[Tuple[Tuple[str, ...], FrozenSet[str]]]] = {}
        for ev_pos, b_pos, negatives, _fact in compiled.evidence_layout():
            ordered = tuple(sorted(ev_pos))
            positions = tuple(pos for pos, _value in ordered)
            values = tuple(value for _pos, value in ordered)
            groups.setdefault((positions, b_pos), []).append(
                (values, negatives))
        self._groups = groups

    # -- candidate detection -------------------------------------------------

    def _group_firing_codes(self, ctable: ColumnarTable,
                            positions: Tuple[int, ...], b_pos: int,
                            members) -> set:
        """The group's firing patterns as code tuples over
        ``positions + (b_pos,)``.  Rules (or negatives) mentioning a
        value absent from the column dictionary cannot fire on the
        original tuples and drop out here."""
        indexes = [ctable.column_index(pos) for pos in positions]
        b_index = ctable.column_index(b_pos)
        firing: set = set()
        for values, negatives in members:
            ev_codes = []
            for index, value in zip(indexes, values):
                code = index.get(value)
                if code is None:
                    break
                ev_codes.append(code)
            else:
                base = tuple(ev_codes)
                for negative in negatives:
                    code = b_index.get(negative)
                    if code is not None:
                        firing.add(base + (code,))
        return firing

    def candidate_mask(self, ctable: ColumnarTable):
        """Per-row candidate flags (numpy bool array or bytearray).

        A set flag means "some rule's evidence matches this row's
        original values and its original B-value is among that rule's
        negatives" — exactly the rows ``repair_values`` would change;
        see the module docstring for why the predicate is exact.
        """
        n = ctable.n_rows
        np_mod = _NUMPY if ctable.use_numpy else None
        mask = (np_mod.zeros(n, dtype=bool) if np_mod is not None
                else bytearray(n))
        if n == 0:
            return mask
        for (positions, b_pos), members in self._groups.items():
            firing = self._group_firing_codes(ctable, positions, b_pos,
                                              members)
            if not firing:
                continue
            scan_positions = positions + (b_pos,)
            columns = [ctable.codes_for(pos) for pos in scan_positions]
            if np_mod is not None:
                self._scan_group_numpy(np_mod, mask, ctable,
                                       scan_positions, columns, firing)
            else:
                for i, codes in enumerate(zip(*columns)):
                    if codes in firing:
                        mask[i] = 1
        return mask

    @staticmethod
    def _scan_group_numpy(np_mod, mask, ctable, scan_positions, columns,
                          firing) -> None:
        radices = [max(1, len(ctable.dictionary_for(pos)))
                   for pos in scan_positions]
        capacity = 1
        for radix in radices:
            capacity *= radix
        if capacity <= _RADIX_LIMIT:
            # Mixed-radix: each row's codes over the group columns
            # collapse into one int64 key; one isin per group.
            keys = columns[0].astype(np_mod.int64)
            for column, radix in zip(columns[1:], radices[1:]):
                keys *= radix
                keys += column
            firing_keys = np_mod.fromiter(
                (ColumnarKernel._radix_key(codes, radices)
                 for codes in firing),
                dtype=np_mod.int64, count=len(firing))
            mask |= np_mod.isin(keys, firing_keys)
            return
        # Degenerate dictionaries (key would overflow int64): equality
        # masks per firing pattern instead.
        for codes in firing:
            hit = columns[0] == codes[0]
            for column, code in zip(columns[1:], codes[1:]):
                hit &= column == code
            mask |= hit

    @staticmethod
    def _radix_key(codes, radices) -> int:
        key = codes[0]
        for code, radix in zip(codes[1:], radices[1:]):
            key = key * radix + code
        return key

    def candidate_indices(self, ctable: ColumnarTable) -> List[int]:
        mask = self.candidate_mask(ctable)
        if ctable.use_numpy:
            return _NUMPY.flatnonzero(mask).tolist()
        return [i for i, hit in enumerate(mask) if hit]


class ColumnarRepairReport(TableRepairReport):
    """A :class:`TableRepairReport` whose per-row ``RepairResult``
    objects rehydrate on demand.

    The repaired table is built eagerly — it is the deliverable — but
    provenance stays in the engine's compact ``(rule_id, old_value)``
    form until someone reads :attr:`row_results`; the aggregate views
    (``total_applications``, ``changed_cells``,
    ``applications_by_rule``, ``provenance``) are computed from the
    compact form directly, touching only the rows that changed.
    """

    def __init__(self, table: Table, rows: List[Row],
                 compiled: CompiledRuleSet,
                 applied_by_row: Dict[int, List[Tuple[int, str]]]):
        self.table = table
        self._rows = rows
        self._compiled = compiled
        self._applied_by_row = applied_by_row
        self._materialized: Optional[List[RepairResult]] = None

    @property
    def row_results(self) -> List[RepairResult]:
        if self._materialized is None:
            compiled = self._compiled
            applied_by_row = self._applied_by_row
            empty_applied: Tuple = ()
            empty_assured: FrozenSet[str] = frozenset()
            results = []
            for i, row in enumerate(self._rows):
                applied = applied_by_row.get(i)
                if applied is None:
                    results.append(RepairResult(row, empty_applied,
                                                empty_assured))
                else:
                    results.append(RepairResult(
                        row, compiled.expand_applied(applied),
                        compiled.assured_for(applied)))
            self._materialized = results
        return self._materialized

    @property
    def changed_cells(self) -> List[Tuple[int, str]]:
        rules = self._compiled.rules
        cells: List[Tuple[int, str]] = []
        for i in sorted(self._applied_by_row):
            for rule_id, _old in self._applied_by_row[i]:
                cells.append((i, rules[rule_id].attribute))
        return cells

    @property
    def total_applications(self) -> int:
        return sum(len(applied)
                   for applied in self._applied_by_row.values())

    def applications_by_rule(self) -> Dict[str, int]:
        rules = self._compiled.rules
        counts: Dict[str, int] = {}
        for applied in self._applied_by_row.values():
            for rule_id, _old in applied:
                name = rules[rule_id].name
                counts[name] = counts.get(name, 0) + 1
        return counts

    def provenance(self) -> List[Dict[str, str]]:
        rules = self._compiled.rules
        records: List[Dict[str, str]] = []
        for i in sorted(self._applied_by_row):
            for rule_id, old in self._applied_by_row[i]:
                rule = rules[rule_id]
                records.append({
                    "row": str(i),
                    "attribute": rule.attribute,
                    "old_value": old,
                    "new_value": rule.fact,
                    "rule": rule.name,
                })
        return records

    def __repr__(self) -> str:
        return ("TableRepairReport(%d rows, %d cells changed)"
                % (len(self._rows), self.total_applications))


def columnar_repair_table(table: Table, rules: RuleInput,
                          use_numpy: Optional[bool] = None
                          ) -> ColumnarRepairReport:
    """Repair *table* through the columnar kernel.

    Output is identical — cells, provenance, assured sets, application
    order — to ``repair_table(table, rules)``'s serial fast path; only
    the fixpoint proof strategy (and the report's lazy provenance
    materialization) differs.  Instrumented rule sets are rejected —
    they require the Row-level executor.
    """
    compiled = compile_for_schema(table.schema, rules)
    kernel = ColumnarKernel(compiled)
    schema = table.schema
    source = [row._cells for row in table]
    ctable = ColumnarTable.from_rows(schema, source, use_numpy=use_numpy)
    candidates = kernel.candidate_indices(ctable)
    from .instrumentation import ENGINE_STATS
    ENGINE_STATS.rows_repaired += len(source) - len(candidates)
    from_trusted = Row.from_trusted
    applied_by_row: Dict[int, List[Tuple[int, str]]] = {}
    repair_values = compiled.repair_values
    # The bulk row build allocates ~2 tracked objects per row; none can
    # sit in a reference cycle, but the allocation burst still triggers
    # generational GC passes over the (large, live) input table.  Pause
    # collection — not tracking — for the burst; pending garbage is
    # simply collected a moment later.
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        repaired_rows = [from_trusted(schema, list(cells))
                         for cells in source]
        for i in candidates:
            outcome = repair_values(source[i])
            if outcome is not None:
                new_values, applied = outcome
                repaired_rows[i] = from_trusted(schema, new_values)
                applied_by_row[i] = applied
    finally:
        if gc_was_enabled:
            gc.enable()
    return ColumnarRepairReport(
        Table.from_trusted_rows(schema, repaired_rows), repaired_rows,
        compiled, applied_by_row)
