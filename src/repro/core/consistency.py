"""Consistency analysis of fixing rules (Sections 4.2 and 5.2).

A set Σ is **consistent** iff every tuple has a *unique fix* by Σ.  By
Proposition 3, Σ is consistent iff every pair of distinct rules is
consistent, so both checkers below work pairwise:

* :func:`check_pair_characterize` — the **rule characterization** test
  of Fig. 4 (``isConsist_r``): four syntactic case conditions, O(1)
  per pair with hashed negative patterns, ``O(size(Σ)²)`` overall.
* :func:`check_pair_enumerate` — the **tuple enumeration** test of
  Section 5.2.1 (``isConsist_t``): materialize every tuple that could
  match both rules (values drawn from the evidence and negative
  patterns, a distinguished out-of-domain symbol elsewhere), chase it
  in both preference orders, and compare fixpoints.

Both return a :class:`Conflict` witness rather than a bare boolean so
the resolution workflow (Section 5.3) can act on *why* the pair
conflicts.  ``tests/test_properties.py`` checks the two are equivalent
on randomly generated rule pairs.

Two optimizations keep the Proposition 3 pairwise reduction tractable
at benchmark scale (|Σ| in the thousands):

* **Blocked candidate generation** (``strategy="blocked"``, the
  default for the characterization method).  By Lemma 4, only pairs
  whose evidence patterns are compatible on shared attributes can
  conflict, and the Fig. 4 case analysis narrows that further: every
  conflicting pair either shares a negative pattern on a common
  corrected attribute with differing facts (case 1) or has one rule's
  evidence constant on the other's corrected attribute among that
  other's negative patterns (cases 2a–2c).  Both conditions are
  equi-joins, so hashing negatives by ``(B, value)`` and evidence
  entries by ``(attr, value)`` yields the candidate pairs in
  near-linear time for realistic rule sets; the all-pairs scan only
  reappears when the rules genuinely all collide.  Candidates are
  deduplicated and checked in the same ``(i, j)`` lexicographic order
  the full scan uses, so the conflict list — and the ``first_only``
  conflict — is *identical* to the pairwise scan's, not merely
  equivalent.  ``tests/test_blocked_consistency.py`` asserts this with
  Hypothesis, including on adversarial all-colliding sets.
* **Verdict caching** (:func:`find_conflicts_cached`).  Verdicts are
  cached per process under the rule set's content fingerprint
  (:func:`repro.core.engine.rules_fingerprint`), so drivers that
  validate Σ once per table, per pipeline stage, or per tenant upload
  never re-scan an unchanged Σ.

Scan and pruning activity is counted in
:data:`repro.core.instrumentation.ENGINE_STATS`.
"""

from __future__ import annotations

import itertools
from typing import (Dict, Iterable, List, NamedTuple, Optional, Sequence,
                    Tuple, Union)

from ..relational import Row, Schema
from .engine import rules_fingerprint
from .instrumentation import ENGINE_STATS
from .repair import chase_repair
from .rule import FixingRule
from .ruleset import RuleSet

#: Placeholder value for attributes unconstrained by either rule during
#: tuple enumeration.  The NUL prefix keeps it outside every active
#: domain (pattern constants are ordinary strings).
OUT_OF_DOMAIN = "\x00<out-of-domain>"

#: Conflict kinds, named after the case analysis of Section 5.2.2.
CASE_SAME_ATTRIBUTE = "case1:same-attribute"
CASE_B_I_IN_X_J = "case2a:Bi-in-Xj"
CASE_B_J_IN_X_I = "case2b:Bj-in-Xi"
CASE_MUTUAL = "case2c:mutual"
CASE_ENUMERATED = "enumerated-witness"


class Conflict(NamedTuple):
    """A witness that two rules are inconsistent."""

    rule_a: FixingRule
    rule_b: FixingRule
    kind: str
    detail: str
    witness: Optional[dict] = None

    def describe(self) -> str:
        text = ("rules %s and %s conflict (%s): %s"
                % (self.rule_a.name, self.rule_b.name, self.kind,
                   self.detail))
        if self.witness is not None:
            text += " [witness tuple: %r]" % (self.witness,)
        return text


def _evidence_compatible(rule_a: FixingRule, rule_b: FixingRule) -> bool:
    """Line 2 of Fig. 4: evidence patterns agree on shared X attributes."""
    shared = rule_a.x_attrs & rule_b.x_attrs
    return all(rule_a.evidence[attr] == rule_b.evidence[attr]
               for attr in shared)


def check_pair_characterize(rule_a: FixingRule,
                            rule_b: FixingRule) -> Optional[Conflict]:
    """``isConsist_r`` on one pair: Fig. 4 lines 2–11.

    Returns ``None`` when the pair is consistent, otherwise a
    :class:`Conflict` naming the violated case.
    """
    if not _evidence_compatible(rule_a, rule_b):
        return None  # no tuple can match both (Lemma 4)

    b_a, b_b = rule_a.attribute, rule_b.attribute

    if b_a == b_b:
        # Case 1: same corrected attribute.  Conflict iff some tuple
        # matches both (overlapping negatives) and the facts disagree.
        overlap = rule_a.negatives & rule_b.negatives
        if overlap and rule_a.fact != rule_b.fact:
            return Conflict(
                rule_a, rule_b, CASE_SAME_ATTRIBUTE,
                "both correct %r, negatives overlap on %r, but facts "
                "differ (%r vs %r)"
                % (b_a, sorted(overlap), rule_a.fact, rule_b.fact))
        return None

    a_in_b = b_a in rule_b.x_attrs  # B_i ∈ X_j
    b_in_a = b_b in rule_a.x_attrs  # B_j ∈ X_i

    if a_in_b and not b_in_a:
        # Case 2(a): rule_b reads the attribute rule_a writes.
        if rule_b.evidence[b_a] in rule_a.negatives:
            return Conflict(
                rule_a, rule_b, CASE_B_I_IN_X_J,
                "%s writes %r which %s uses as evidence, and the evidence "
                "value %r is one of %s's negative patterns"
                % (rule_a.name, b_a, rule_b.name,
                   rule_b.evidence[b_a], rule_a.name))
        return None

    if b_in_a and not a_in_b:
        # Case 2(b): symmetric to 2(a).
        if rule_a.evidence[b_b] in rule_b.negatives:
            return Conflict(
                rule_a, rule_b, CASE_B_J_IN_X_I,
                "%s writes %r which %s uses as evidence, and the evidence "
                "value %r is one of %s's negative patterns"
                % (rule_b.name, b_b, rule_a.name,
                   rule_a.evidence[b_b], rule_b.name))
        return None

    if a_in_b and b_in_a:
        # Case 2(c): each reads what the other writes.
        if (rule_a.evidence[b_b] in rule_b.negatives
                and rule_b.evidence[b_a] in rule_a.negatives):
            return Conflict(
                rule_a, rule_b, CASE_MUTUAL,
                "each rule's evidence value on the other's corrected "
                "attribute is among the other's negative patterns")
        return None

    # Case 2(d): neither reads the other's corrected attribute — the two
    # updates commute, always consistent.
    return None


def _candidate_values(attr: str, rule_a: FixingRule,
                      rule_b: FixingRule) -> List[str]:
    """``V_ij(A)``: constants either rule mentions at *attr*.

    Per Section 5.2.1 this is the union of evidence constants and
    negative patterns at that attribute (facts are write-side only and
    never needed to *match* both rules).
    """
    values = set()
    for rule in (rule_a, rule_b):
        if attr in rule.evidence:
            values.add(rule.evidence[attr])
        if attr == rule.attribute:
            values.update(rule.negatives)
    return sorted(values)


def enumerate_candidate_tuples(schema: Schema, rule_a: FixingRule,
                               rule_b: FixingRule) -> Iterable[Row]:
    """Every tuple that could possibly match both rules (Example 9).

    Attributes mentioned by either rule range over ``V_ij(A)``; all
    other attributes take the :data:`OUT_OF_DOMAIN` placeholder.
    """
    mentioned = sorted((rule_a.x_attrs | {rule_a.attribute}
                        | rule_b.x_attrs | {rule_b.attribute}),
                       key=schema.index_of)
    pools = [_candidate_values(attr, rule_a, rule_b) for attr in mentioned]
    base = {name: OUT_OF_DOMAIN for name in schema.attribute_names}
    for combo in itertools.product(*pools):
        cells = dict(base)
        cells.update(zip(mentioned, combo))
        yield Row(schema, cells)


def check_pair_enumerate(schema: Schema, rule_a: FixingRule,
                         rule_b: FixingRule) -> Optional[Conflict]:
    """``isConsist_t`` on one pair: chase every candidate tuple both ways.

    A pair is inconsistent iff some candidate tuple reaches different
    fixpoints depending on which rule is preferred first.
    """
    pair = [rule_a, rule_b]
    for row in enumerate_candidate_tuples(schema, rule_a, rule_b):
        fix_ab = chase_repair(row, pair, order=(0, 1))
        fix_ba = chase_repair(row, pair, order=(1, 0))
        if fix_ab.row != fix_ba.row:
            return Conflict(
                rule_a, rule_b, CASE_ENUMERATED,
                "chase order %s-first yields %r, %s-first yields %r"
                % (rule_a.name, fix_ab.row.values,
                   rule_b.name, fix_ba.row.values),
                witness=row.as_dict())
    return None


RuleInput = Union[RuleSet, Sequence[FixingRule]]


def _rules_and_schema(rules: RuleInput,
                      schema: Optional[Schema]) -> tuple:
    if isinstance(rules, RuleSet):
        return rules.rules(), rules.schema
    return list(rules), schema


#: Candidate-pair strategies accepted by :func:`find_conflicts`.
VALID_STRATEGIES = ("blocked", "pairwise")


def blocked_candidate_pairs(rule_list: Sequence[FixingRule]
                            ) -> List[Tuple[int, int]]:
    """The Lemma-4-admissible candidate pairs of Σ, in ``(i, j)``
    lexicographic order with ``i < j``.

    A pair can only conflict under the Fig. 4 characterization when at
    least one of two hash-joinable conditions holds:

    * **case 1** — same corrected attribute ``B``, a shared negative
      pattern, and differing facts: join the rules on ``(B, negative)``
      keys and emit cross-fact pairs within each bucket;
    * **cases 2a/2b/2c** — some rule reads (as evidence) a value the
      other can erase: join negative patterns ``(B_i, n)`` against
      evidence entries ``(attr, value)`` on equal keys.

    The union is a *superset* of the conflicting pairs (evidence
    compatibility on the remaining shared attributes is still checked
    pairwise), so checking exactly these pairs finds every conflict
    the full scan finds.  Pairs outside every bucket — same-``B`` rules
    with disjoint negatives or equal facts, different-``B`` rules where
    neither evidence pattern mentions the other's negative values —
    fall under Fig. 4's consistent cases by construction and are never
    materialized.

    Within a case-1 bucket the join is additionally *shape-aware*:
    two rules over the same evidence attributes but different evidence
    values disagree on a shared X attribute, so Lemma 4 already rules
    the pair out — same-shape rules are therefore sub-bucketed by
    their full evidence pattern and only identical-evidence rules are
    cross-paired.  Mined rule sets (one rule per FD group) put
    thousands of same-shape rules in one ``(B, value)`` bucket; this
    keeps them near-linear where the naive cross-fact join is
    quadratic.  The refinement drops only provably consistent pairs,
    so the emitted conflict list is unchanged.
    """
    by_negative: Dict[Tuple[str, str], List[int]] = {}
    by_evidence: Dict[Tuple[str, str], List[int]] = {}
    for rule_id, rule in enumerate(rule_list):
        attribute = rule.attribute
        for value in rule.negatives:
            by_negative.setdefault((attribute, value), []).append(rule_id)
        for attr, value in rule._evidence_items:
            by_evidence.setdefault((attr, value), []).append(rule_id)

    pairs = set()
    for key, writer_ids in by_negative.items():
        # Case 1: same (B, negative) bucket, facts differ.  Partition
        # by evidence shape: same-shape pairs must share the entire
        # evidence pattern to be co-matchable, cross-shape pairs are
        # filtered pairwise by the Fig. 4 check.
        if len(writer_ids) > 1:
            by_shape: Dict[frozenset, List[int]] = {}
            for rule_id in writer_ids:
                by_shape.setdefault(rule_list[rule_id].x_attrs,
                                    []).append(rule_id)
            shape_groups = list(by_shape.values())
            for members in shape_groups:
                if len(members) < 2:
                    continue
                by_pattern: Dict[tuple, List[int]] = {}
                for rule_id in members:
                    by_pattern.setdefault(
                        rule_list[rule_id]._evidence_items,
                        []).append(rule_id)
                for matching in by_pattern.values():
                    _cross_fact_pairs(rule_list, matching, pairs)
            for g in range(len(shape_groups)):
                for h in range(g + 1, len(shape_groups)):
                    for i in shape_groups[g]:
                        fact_i = rule_list[i].fact
                        for j in shape_groups[h]:
                            if rule_list[j].fact != fact_i:
                                pairs.add((i, j) if i < j else (j, i))
        # Cases 2a/2b/2c: a reader's evidence constant at B equals one
        # of the writer's negative patterns at B.
        reader_ids = by_evidence.get(key)
        if reader_ids:
            for i in writer_ids:
                for j in reader_ids:
                    if i != j:
                        pairs.add((i, j) if i < j else (j, i))
    return sorted(pairs)


def _cross_fact_pairs(rule_list: Sequence[FixingRule],
                      member_ids: List[int], pairs: set) -> None:
    """Emit every cross-fact pair among *member_ids* into *pairs*."""
    if len(member_ids) < 2:
        return
    by_fact: Dict[str, List[int]] = {}
    for rule_id in member_ids:
        by_fact.setdefault(rule_list[rule_id].fact, []).append(rule_id)
    if len(by_fact) < 2:
        return
    groups = list(by_fact.values())
    for g in range(len(groups)):
        for h in range(g + 1, len(groups)):
            for i in groups[g]:
                for j in groups[h]:
                    pairs.add((i, j) if i < j else (j, i))


def find_conflicts(rules: RuleInput, method: str = "characterize",
                   schema: Optional[Schema] = None,
                   first_only: bool = False,
                   strategy: Optional[str] = None) -> List[Conflict]:
    """All pairwise conflicts in Σ (Proposition 3 reduction).

    Parameters
    ----------
    rules:
        The rule set Σ (a :class:`RuleSet` or plain sequence).
    method:
        ``"characterize"`` (isConsist_r, default) or ``"enumerate"``
        (isConsist_t).  Enumeration needs a schema — taken from the
        RuleSet or the *schema* argument.
    first_only:
        Stop at the first conflict (the paper's "real case" behavior
        in Exp-1, as opposed to the all-pairs worst case).
    strategy:
        ``"blocked"`` checks only the candidate pairs admitted by
        :func:`blocked_candidate_pairs`; ``"pairwise"`` scans all
        ``|Σ|·(|Σ|-1)/2`` pairs.  The default is blocked for the
        characterization (whose case analysis the blocking mirrors
        exactly, so the output is identical) and pairwise for
        enumeration (kept exhaustive by default; pass
        ``strategy="blocked"`` to opt in, sound whenever the two
        methods agree — which ``tests/test_properties.py`` verifies).

    The conflict list is deterministic and strategy-independent:
    pairs are checked in ``(i, j)`` lexicographic order either way.
    """
    rule_list, resolved_schema = _rules_and_schema(rules, schema)
    if method == "characterize":
        def check(a, b):
            return check_pair_characterize(a, b)
    elif method == "enumerate":
        if resolved_schema is None:
            raise ValueError(
                "method='enumerate' needs a schema; pass a RuleSet or the "
                "schema argument")

        def check(a, b):
            return check_pair_enumerate(resolved_schema, a, b)
    else:
        raise ValueError("method must be 'characterize' or 'enumerate', "
                         "got %r" % method)
    if strategy is None:
        strategy = "blocked" if method == "characterize" else "pairwise"
    elif strategy not in VALID_STRATEGIES:
        raise ValueError("strategy must be one of %s, got %r"
                         % (", ".join(repr(s) for s in VALID_STRATEGIES),
                            strategy))

    ENGINE_STATS.consistency_checks += 1
    total_pairs = len(rule_list) * (len(rule_list) - 1) // 2
    conflicts: List[Conflict] = []
    if strategy == "blocked":
        candidates = blocked_candidate_pairs(rule_list)
        ENGINE_STATS.pairs_examined += len(candidates)
        ENGINE_STATS.pairs_pruned += total_pairs - len(candidates)
        for i, j in candidates:
            conflict = check(rule_list[i], rule_list[j])
            if conflict is not None:
                conflicts.append(conflict)
                if first_only:
                    return conflicts
        return conflicts

    ENGINE_STATS.pairs_examined += total_pairs
    for i in range(len(rule_list)):
        for j in range(i + 1, len(rule_list)):
            conflict = check(rule_list[i], rule_list[j])
            if conflict is not None:
                conflicts.append(conflict)
                if first_only:
                    return conflicts
    return conflicts


# -- verdict caching ----------------------------------------------------------
#
# Keyed by the content fingerprint of Σ (rules_fingerprint), valid for
# the characterization method with the default strategy — the verdict
# is a pure function of rule content, independent of schema and
# process.  Each entry is (complete, conflicts): `complete` records
# whether the scan ran to the end (a first_only scan that found a
# conflict did not, so it can only answer later first_only queries).

_VERDICT_CACHE: Dict[str, Tuple[bool, Tuple[Conflict, ...]]] = {}


def find_conflicts_cached(rules: RuleInput,
                          first_only: bool = False) -> List[Conflict]:
    """:func:`find_conflicts` (characterize, blocked) with the verdict
    cached on Σ's content fingerprint.

    The repair drivers — ``repair_table(check_consistency=True)``, the
    streaming session, the daemon's registry, the CLI — all validate Σ
    through this function, so one rule set is scanned at most once per
    process however many tables, chunks, or pipeline stages it repairs.
    """
    fingerprint = rules_fingerprint(rules)
    cached = _VERDICT_CACHE.get(fingerprint)
    if cached is not None:
        complete, conflicts = cached
        if first_only:
            ENGINE_STATS.consistency_cache_hits += 1
            return [conflicts[0]] if conflicts else []
        if complete:
            ENGINE_STATS.consistency_cache_hits += 1
            return list(conflicts)
    conflicts_list = find_conflicts(rules, first_only=first_only)
    complete = not (first_only and conflicts_list)
    _VERDICT_CACHE[fingerprint] = (complete, tuple(conflicts_list))
    return conflicts_list


def clear_conflict_cache() -> None:
    """Drop every cached verdict (tests and long-lived services that
    churn through many rule sets)."""
    _VERDICT_CACHE.clear()


def is_consistent(rules: RuleInput, method: str = "characterize",
                  schema: Optional[Schema] = None) -> bool:
    """Is Σ consistent?  (Theorem 1: decidable in PTIME.)"""
    return not find_conflicts(rules, method=method, schema=schema,
                              first_only=True)


class AssuranceHazard(NamedTuple):
    """A triple that can defeat pairwise consistency checking.

    Discovered by this reproduction's property tests (see
    ``tests/test_prop3_counterexample.py``): the paper's Proposition 3
    ("Σ is consistent iff every pair is") fails when Σ contains

    * two *twin* rules — co-matchable (their evidence patterns agree
      on shared attributes, negatives overlap) and writing the SAME
      fact to the SAME attribute, but over **different evidence
      sets**: both repair the same error, yet they assure different
      attributes; and
    * a *reader* rule whose corrected attribute lies in the evidence
      the ``certifier`` twin assures but the ``alternative`` twin does
      not, and which considers the certifier's evidence value wrong.

    Fire the certifier and the reader is blocked forever; fire the
    alternative and the reader still applies — two fixes, invisible to
    every pairwise test (both of the paper's checkers pass all three
    pairs).  :func:`find_assurance_hazards` flags such triples so the
    Section 5.1 workflow can resolve them (drop either twin).
    """

    certifier: FixingRule
    alternative: FixingRule
    reader: FixingRule

    def describe(self) -> str:
        return ("rules %s and %s write the same fact but assure "
                "different evidence; %s reads an attribute only %s "
                "certifies -- application order decides whether it can "
                "fire" % (self.certifier.name, self.alternative.name,
                          self.reader.name, self.certifier.name))


def find_assurance_hazards(rules: RuleInput) -> List[AssuranceHazard]:
    """Detect the rule triples that escape pairwise checking.

    A conservative *warning* pass, not a decision procedure: every
    reported triple exhibits the structural pattern above, which is
    necessary for the pairwise gap; whether a concrete diverging tuple
    exists additionally depends on the reader's remaining evidence
    being satisfiable.  Run this after :func:`is_consistent` when Σ
    mixes hand-written rules with generated ones (generators in
    :mod:`repro.rulegen` key every rule for one attribute on one fixed
    FD LHS, which cannot produce twins with differing evidence sets).
    """
    rule_list, _ = _rules_and_schema(rules, None)
    hazards: List[AssuranceHazard] = []
    for certifier in rule_list:
        for alternative in rule_list:
            if alternative is certifier:
                continue
            if alternative.attribute != certifier.attribute:
                continue
            if alternative.fact != certifier.fact:
                continue  # different facts: Fig. 4 case 1 handles it
            if not (alternative.negatives & certifier.negatives):
                continue  # twins never co-match: no shared trigger
            if not _evidence_compatible(certifier, alternative):
                continue  # twins never co-match: conflicting evidence
            extra_attrs = (certifier.x_attrs
                           - alternative.x_attrs)
            if not extra_attrs:
                continue
            for reader in rule_list:
                if reader is certifier or reader is alternative:
                    continue
                if reader.attribute not in extra_attrs:
                    continue
                if (certifier.evidence[reader.attribute]
                        in reader.negatives):
                    hazards.append(AssuranceHazard(certifier,
                                                   alternative, reader))
    return hazards


def is_consistent_characterize(rules: RuleInput) -> bool:
    """``isConsist_r`` (Fig. 4) over all pairs."""
    return is_consistent(rules, method="characterize")


def is_consistent_enumerate(rules: RuleInput,
                            schema: Optional[Schema] = None) -> bool:
    """``isConsist_t`` (Section 5.2.1) over all pairs."""
    return is_consistent(rules, method="enumerate", schema=schema)
