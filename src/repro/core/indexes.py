"""Index structures for the fast repair algorithm (Section 6.2).

Two structures back :func:`~repro.core.repair.fast_repair`, the
``Row``-level lRepair that the compiled engine
(:mod:`repro.core.engine`, which re-keys the same inverted lists by
column position) is checked against:

* **Inverted lists** (:class:`InvertedIndex`): a mapping from a key
  ``(A, a)`` — attribute and constant — to the rules φ with
  ``A ∈ X_φ`` and ``tp[A] = a``.  Built once per rule set and shared
  across all tuples.
* **Hash counters** (:class:`HashCounters`): per-tuple counters
  ``c(φ)`` of how many evidence attributes of φ the current tuple
  agrees with.  ``c(φ) = |X_φ|`` means the evidence pattern fully
  matches, so φ *might* be applicable.

The counters are reset per tuple; the inverted index never changes
after construction, so one index can serve concurrent repairs.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from ..relational import Row
from .rule import FixingRule


class InvertedIndex:
    """Inverted lists ``(attribute, constant) -> [rules]``.

    >>> from repro.relational import Schema
    >>> # index.lookup("country", "China") -> rules whose evidence
    >>> # pattern constrains country to China
    """

    __slots__ = ("_lists", "_rules", "_evidence_sizes")

    def __init__(self, rules: Iterable[FixingRule]):
        self._rules: Tuple[FixingRule, ...] = tuple(rules)
        self._lists: Dict[Tuple[str, str], List[int]] = {}
        self._evidence_sizes: Tuple[int, ...] = tuple(
            len(rule.evidence) for rule in self._rules)
        for rule_id, rule in enumerate(self._rules):
            for attr, value in rule.evidence.items():
                self._lists.setdefault((attr, value), []).append(rule_id)

    @property
    def rules(self) -> Tuple[FixingRule, ...]:
        """The indexed rules; positions are the rule ids used throughout."""
        return self._rules

    def evidence_size(self, rule_id: int) -> int:
        """``|X_φ|`` for the rule with id *rule_id*."""
        return self._evidence_sizes[rule_id]

    def lookup(self, attr: str, value: str) -> Sequence[int]:
        """Rule ids whose evidence pattern has ``attr = value``."""
        return self._lists.get((attr, value), ())

    def keys(self) -> Iterator[Tuple[str, str]]:
        return iter(self._lists)

    def __len__(self) -> int:
        return len(self._lists)

    def __repr__(self) -> str:
        return ("InvertedIndex(%d rules, %d keys)"
                % (len(self._rules), len(self._lists)))


class HashCounters:
    """Per-tuple evidence counters ``c(φ)`` over an :class:`InvertedIndex`.

    The lifecycle per tuple is: :meth:`reset_for`, then
    :meth:`on_update` after every cell rewrite.  The return values of
    both surface the rules whose evidence just became fully matched —
    the candidates fed into the lRepair frontier Γ.
    """

    __slots__ = ("_index", "_counts")

    def __init__(self, index: InvertedIndex):
        self._index = index
        self._counts: List[int] = [0] * len(index.rules)

    @property
    def index(self) -> InvertedIndex:
        """The inverted index the counters are keyed by."""
        return self._index

    def reset_for(self, row: Row) -> List[int]:
        """Initialize counters for *row*; return fully-matched rule ids.

        Mirrors lines 2–7 of Fig. 7: clear all counters, then for every
        cell ``(A, t[A])`` bump the counter of each rule in the inverted
        list of that key.
        """
        self._counts = [0] * len(self._index.rules)
        for attr, value in row.items():
            for rule_id in self._index.lookup(attr, value):
                self._counts[rule_id] += 1
        return [rule_id for rule_id, count in enumerate(self._counts)
                if count == self._index.evidence_size(rule_id)]

    def on_update(self, attr: str, old: str, new: str) -> List[int]:
        """Adjust counters after ``t[attr]: old -> new``.

        Returns the rule ids whose evidence became fully matched by
        this update (lines 13–15 of Fig. 7).
        """
        for rule_id in self._index.lookup(attr, old):
            self._counts[rule_id] -= 1
        newly_complete: List[int] = []
        for rule_id in self._index.lookup(attr, new):
            self._counts[rule_id] += 1
            if self._counts[rule_id] == self._index.evidence_size(rule_id):
                newly_complete.append(rule_id)
        return newly_complete

    def count(self, rule_id: int) -> int:
        """Current ``c(φ)`` for the given rule id."""
        return self._counts[rule_id]

    def is_complete(self, rule_id: int) -> bool:
        """``c(φ) == |X_φ|``: does the evidence fully match right now?"""
        return self._counts[rule_id] == self._index.evidence_size(rule_id)
