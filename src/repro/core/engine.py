"""The compiled rule engine — the single hot path for every repair driver.

A positional batch kernel measured ~9x faster than a ``Row``-level
lRepair loop: the win came from compiling Σ once — resolving attribute
names to schema positions, interning the rule constants, and
pre-building the inverted evidence lists — and then chasing raw value
lists instead of ``Row`` objects.  This module is the one execution
engine behind every production repair path:

* :class:`CompiledRuleSet` — Σ compiled against a schema: interned
  constants, rules flattened into positional tuples, the inverted
  lists of Section 6.2 re-keyed by column index, and a content
  :attr:`~CompiledRuleSet.fingerprint` identifying the compilation
  across processes.  The ``repair_table`` loop, the columnar backend,
  :class:`~repro.core.stream.RepairSession`, ``repair_csv_file``,
  :class:`~repro.core.delta.DeltaRepairSession` and the daemon's
  ``/repair`` all execute :meth:`~CompiledRuleSet.repair_values` (or
  its ``Row`` adapter).
* :func:`compile_ruleset` / :func:`compile_for_schema` — compilation
  entry points with memoization: a :class:`~repro.core.ruleset.RuleSet`
  caches its compiled form (invalidated on mutation), so repeated
  repairs against the same Σ pay the ``O(size(Σ))`` compile once.
* :func:`rules_fingerprint` — a stable (process-independent) content
  hash of Σ, keying the consistency-verdict cache in
  :mod:`repro.core.consistency` and the compile cache of the daemon.

The chase follows Fig. 7 line by line and seeds/drains the frontier Γ
in the same order as the ``Row``-level reference
:func:`~repro.core.repair.fast_repair` (ascending rule id, LIFO), so
results are identical even on an (erroneously) inconsistent Σ, where
order matters.  Compilation reads each rule's data — evidence,
attribute, negatives, fact — and execution never calls a rule method,
so a rule subclass that overrides ``matches`` (such as the counting
wrappers of :mod:`repro.core.instrumentation`) repairs exactly like
the plain rule it wraps.

Engine activity (compilations, cache hits, rows repaired) is counted
in :data:`repro.core.instrumentation.ENGINE_STATS`.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import (Dict, FrozenSet, List, Optional, Sequence, Tuple,
                    TYPE_CHECKING, Union)

from ..relational import Row, Schema
from .instrumentation import ENGINE_STATS
from .rule import FixingRule
from .ruleset import RuleSet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .repair import RepairResult

__all__ = [
    "CompiledRuleSet",
    "compile_ruleset",
    "compile_for_schema",
    "compile_cached",
    "clear_compiled_cache",
    "rules_fingerprint",
]

RuleInput = Union[RuleSet, Sequence[FixingRule]]

try:
    from sys import intern as _intern
except ImportError:  # pragma: no cover - sys.intern exists on 3.x
    def _intern(s):
        return s


def _as_rule_list(rules: RuleInput) -> List[FixingRule]:
    if isinstance(rules, RuleSet):
        return rules.rules()
    return list(rules)


def rules_fingerprint(rules: RuleInput) -> str:
    """A stable content hash of Σ (rule order included).

    Independent of process, ``PYTHONHASHSEED``, and rule display
    names: two rule lists with the same evidence patterns, corrected
    attributes, negative-pattern sets, and facts — in the same order —
    hash identically everywhere.  Keys the consistency-verdict cache
    and the fingerprint-keyed compile cache.
    """
    digest = hashlib.sha256()
    for rule in _as_rule_list(rules):
        digest.update(repr((rule._evidence_items, rule.attribute,
                            tuple(sorted(rule.negatives)),
                            rule.fact)).encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


class CompiledRuleSet:
    """Σ compiled against a schema for positional, allocation-light
    repair.

    Built once per ``(schema, Σ)`` pair; all rule state is resolved to
    schema *positions* and interned constants:

    * ``_lists_by_pos[p]`` maps a cell value at position ``p`` to the
      ids of rules whose evidence pattern constrains that attribute to
      that value (the inverted lists of Section 6.2, re-keyed
      positionally);
    * evidence counters live in a per-row dict keyed by rule id, so a
      row only pays for the rules its cells actually hit;
    * the rule constants are ``sys.intern``-ed so the dict probes and
      equality checks in the hot loop hit pointer-equal strings for
      values that recur across rules.

    Thread-compatible after construction: compilation never mutates,
    so one compiled set serves concurrent repairs (each call carries
    its own counters).
    """

    __slots__ = ("schema", "rules", "_nattrs", "_lists_by_pos", "_ev_size",
                 "_b_pos", "_negatives", "_fact", "_touched", "_ev_pos",
                 "_touched_pos", "_fingerprint")

    def __init__(self, schema: Schema, rules: RuleInput):
        rule_list = _as_rule_list(rules)
        for rule in rule_list:
            rule.validate(schema)
        self.schema = schema
        self.rules: Tuple[FixingRule, ...] = tuple(rule_list)
        self._nattrs = len(schema)
        index_of = schema.index_of
        lists: List[Dict[str, Tuple[int, ...]]] = [
            {} for _ in range(self._nattrs)]
        for rule_id, rule in enumerate(rule_list):
            for attr, value in rule._evidence_items:
                lists[index_of(attr)].setdefault(_intern(value),
                                                 []).append(rule_id)
        for per_pos in lists:
            for value in per_pos:
                per_pos[value] = tuple(per_pos[value])
        self._lists_by_pos = lists
        self._ev_size: Tuple[int, ...] = tuple(
            len(rule.evidence) for rule in rule_list)
        self._b_pos: Tuple[int, ...] = tuple(
            index_of(rule.attribute) for rule in rule_list)
        self._negatives: Tuple[FrozenSet[str], ...] = tuple(
            frozenset(_intern(v) for v in rule.negatives)
            for rule in rule_list)
        self._fact: Tuple[str, ...] = tuple(
            _intern(rule.fact) for rule in rule_list)
        self._touched: Tuple[FrozenSet[str], ...] = tuple(
            rule.touched_attrs for rule in rule_list)
        self._ev_pos: Tuple[Tuple[Tuple[int, str], ...], ...] = tuple(
            tuple((index_of(attr), _intern(value))
                  for attr, value in rule._evidence_items)
            for rule in rule_list)
        self._touched_pos: Tuple[FrozenSet[int], ...] = tuple(
            frozenset(index_of(attr) for attr in rule.touched_attrs)
            for rule in rule_list)
        self._fingerprint: Optional[str] = None
        ENGINE_STATS.rulesets_compiled += 1
        ENGINE_STATS.rules_compiled += len(rule_list)

    # -- identity ------------------------------------------------------------

    @property
    def fingerprint(self) -> str:
        """Content hash of the compiled Σ (see :func:`rules_fingerprint`).

        Computed lazily — the repair hot paths never need it — and
        cached; stable across processes.
        """
        if self._fingerprint is None:
            self._fingerprint = rules_fingerprint(self.rules)
        return self._fingerprint

    def evidence_layout(self) -> Tuple[Tuple[Tuple[Tuple[int, str], ...],
                                             int, FrozenSet[str], str], ...]:
        """Per-rule positional pattern data, in rule-id order.

        Each entry is ``(evidence, b_pos, negatives, fact)`` with
        *evidence* as ``(position, value)`` pairs — the compiled form
        array backends (:mod:`repro.core.columnar`) build their scans
        from, exposed so they need not reach into slots.
        """
        return tuple(
            (self._ev_pos[rule_id], self._b_pos[rule_id],
             self._negatives[rule_id], self._fact[rule_id])
            for rule_id in range(len(self.rules)))

    def compatible_with(self, schema: Schema) -> bool:
        """Is the positional layout valid for rows of *schema*?

        True when *schema* is the compile schema or lists the same
        attribute names in the same order — positions then coincide.
        """
        return (schema is self.schema
                or schema.attribute_names == self.schema.attribute_names)

    # -- execution -----------------------------------------------------------

    def repair_values(self, values: Sequence[str]
                      ) -> Optional[Tuple[List[str],
                                          List[Tuple[int, str]]]]:
        """Repair one tuple given as cell values in schema order.

        Returns ``None`` when no rule fires (the common case — the
        input is not copied), otherwise ``(new_values, applied)`` where
        *applied* lists ``(rule_id, old_value)`` pairs in application
        order.  The input sequence is never mutated.
        """
        ENGINE_STATS.rows_repaired += 1
        lists_by_pos = self._lists_by_pos
        ev_size = self._ev_size
        counts: Dict[int, int] = {}
        frontier: Optional[List[int]] = None
        for pos in range(self._nattrs):
            hits = lists_by_pos[pos].get(values[pos])
            if hits:
                for rule_id in hits:
                    count = counts.get(rule_id, 0) + 1
                    counts[rule_id] = count
                    if count == ev_size[rule_id]:
                        if frontier is None:
                            frontier = [rule_id]
                        else:
                            frontier.append(rule_id)
        if frontier is None:
            return None
        # The reference fast_repair seeds Γ in ascending rule-id order
        # (a dense counter scan); match it exactly so the chase order —
        # hence the result, even on an inconsistent Σ — is identical.
        frontier.sort()

        current: List[str] = list(values)
        applied: List[Tuple[int, str]] = []
        assured_positions: set = set()
        in_frontier = set(frontier)
        checked: set = set()
        b_pos = self._b_pos
        negatives = self._negatives
        facts = self._fact
        while frontier:
            rule_id = frontier.pop()
            in_frontier.discard(rule_id)
            checked.add(rule_id)
            target = b_pos[rule_id]
            old = current[target]
            if target in assured_positions or old not in negatives[rule_id]:
                continue  # removed once and for all (Fig. 7, line 16)
            # Evidence re-check: the counter says the pattern matched
            # at completion time, but a later application may have
            # rewritten an evidence cell — properly_applicable() in the
            # reference fast_repair re-reads the tuple, and so must we.
            ok = True
            for pos, value in self._ev_pos[rule_id]:
                if current[pos] != value:
                    ok = False
                    break
            if not ok:
                continue
            fact = facts[rule_id]
            current[target] = fact
            assured_positions.update(self._touched_pos[rule_id])
            applied.append((rule_id, old))
            hit_lists = lists_by_pos[target]
            hits = hit_lists.get(old)
            if hits:
                for other in hits:
                    counts[other] = counts.get(other, 0) - 1
            hits = hit_lists.get(fact)
            if hits:
                for other in hits:
                    count = counts.get(other, 0) + 1
                    counts[other] = count
                    if (count == ev_size[other] and other not in checked
                            and other not in in_frontier):
                        frontier.append(other)
                        in_frontier.add(other)
        if not applied:
            return None
        return current, applied

    def repair_row(self, row: Row) -> "RepairResult":
        """Repair one :class:`~repro.relational.row.Row`, returning the
        classic :class:`~repro.core.repair.RepairResult` (the input is
        never mutated)."""
        from .repair import RepairResult
        # Copy through the row's own hook first, as fast_repair does:
        # Row subclasses and the error-policy tests rely on it.
        current = row.copy()
        outcome = self.repair_values(current._cells)
        if outcome is None:
            return RepairResult(current, (), frozenset())
        new_values, applied = outcome
        # Keep the *row's* schema object: a positionally compatible
        # compile schema may still differ (e.g. in domains).
        return RepairResult(Row.from_trusted(row.schema, new_values),
                            self.expand_applied(applied),
                            self.assured_for(applied))

    # -- provenance rehydration ----------------------------------------------

    def expand_applied(self, applied: Sequence[Tuple[int, str]]
                       ) -> Tuple["AppliedFix", ...]:
        """Rehydrate compact ``(rule_id, old)`` pairs into
        :class:`~repro.core.repair.AppliedFix` provenance records."""
        from .repair import AppliedFix
        fixes = []
        for rule_id, old in applied:
            rule = self.rules[rule_id]
            fixes.append(AppliedFix(rule, rule.attribute, old, rule.fact))
        return tuple(fixes)

    def assured_for(self, applied: Sequence[Tuple[int, str]]
                    ) -> FrozenSet[str]:
        """The assured-attribute set implied by an application log."""
        assured: set = set()
        for rule_id, _old in applied:
            assured.update(self._touched[rule_id])
        return frozenset(assured)

    def __len__(self) -> int:
        return len(self.rules)

    def __repr__(self) -> str:
        return ("%s(%d rules over %s)"
                % (type(self).__name__, len(self.rules), self.schema.name))


def compile_ruleset(rules: RuleInput,
                    schema: Optional[Schema] = None) -> CompiledRuleSet:
    """Compile Σ, memoizing on :class:`~repro.core.ruleset.RuleSet`.

    A ``RuleSet`` caches its compiled form in ``_compiled`` (cleared by
    every mutating method), so the second and later compilations of an
    unchanged Σ are free.  Plain sequences are compiled per call and
    need an explicit *schema*.
    """
    if isinstance(rules, RuleSet):
        cached = rules._compiled
        if cached is not None and (schema is None
                                   or cached.compatible_with(schema)):
            ENGINE_STATS.compile_cache_hits += 1
            return cached
        compiled = CompiledRuleSet(schema or rules.schema, rules.rules())
        if schema is None or compiled.compatible_with(rules.schema):
            rules._compiled = compiled
        return compiled
    if schema is None:
        raise ValueError(
            "compile_ruleset() needs a schema for plain rule sequences; "
            "pass a RuleSet or the schema argument")
    return CompiledRuleSet(schema, rules)


def compile_for_schema(schema: Schema, rules: RuleInput) -> CompiledRuleSet:
    """Compile Σ for rows laid out by *schema*.

    Prefers the memoized compilation of a :class:`RuleSet` whenever its
    positional layout matches *schema* (same attribute names in the
    same order); otherwise compiles against *schema* directly.
    """
    if isinstance(rules, RuleSet):
        if (rules.schema is schema
                or rules.schema.attribute_names == schema.attribute_names):
            return compile_ruleset(rules)
        return CompiledRuleSet(schema, rules.rules())
    return CompiledRuleSet(schema, rules)


# -- fingerprint-keyed compilation cache (multi-tenant serving) --------------
#
# The RuleSet memo above covers the batch drivers, where one Σ object
# lives for the whole run.  A serving process instead juggles many
# tenants whose rule sets arrive, reload, and roll back independently
# as freshly parsed objects, so object-identity memoing never hits.
# This cache keys compilations on Σ's *content* fingerprint (plus the
# positional schema layout), giving every tenant and request the same
# O(1) lookup for an unchanged Σ.

#: Compiled rule sets retained per process; enough for a healthy
#: tenant mix, small enough that a churn attack cannot balloon memory.
COMPILED_CACHE_SIZE = 32

_compiled_cache: "OrderedDict[Tuple[str, Tuple[str, ...]], CompiledRuleSet]" \
    = OrderedDict()
_compiled_cache_lock = threading.Lock()


def compile_cached(schema: Schema, rules: RuleInput,
                   fingerprint: Optional[str] = None,
                   max_entries: int = COMPILED_CACHE_SIZE
                   ) -> CompiledRuleSet:
    """Compile Σ through the process-wide fingerprint-keyed LRU cache.

    *fingerprint* may be passed when the caller already knows Σ's
    content hash (the registry computes it during validation);
    otherwise it is derived here.  Two callers holding *different* rule
    objects with identical content share one compilation — the property
    the multi-tenant serving layer relies on.

    Thread-safe; eviction is LRU.  Cache hits are counted in
    ``ENGINE_STATS.compile_cache_hits`` alongside the RuleSet memo's.
    """
    if fingerprint is None:
        fingerprint = rules_fingerprint(rules)
    key = (fingerprint, tuple(schema.attribute_names))
    with _compiled_cache_lock:
        cached = _compiled_cache.get(key)
        if cached is not None:
            _compiled_cache.move_to_end(key)
            ENGINE_STATS.compile_cache_hits += 1
            return cached
    compiled = compile_for_schema(schema, rules)
    compiled._fingerprint = fingerprint
    with _compiled_cache_lock:
        _compiled_cache[key] = compiled
        _compiled_cache.move_to_end(key)
        while len(_compiled_cache) > max(1, max_entries):
            _compiled_cache.popitem(last=False)
    return compiled


def clear_compiled_cache() -> None:
    """Drop every entry of the fingerprint-keyed compilation cache."""
    with _compiled_cache_lock:
        _compiled_cache.clear()
