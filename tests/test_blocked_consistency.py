"""Blocked consistency checking ≡ full pairwise scan, plus verdict
caching.

The blocking optimization (``strategy="blocked"`` in
:func:`~repro.core.consistency.find_conflicts`) buckets rules by
corrected attribute + shared negative pattern and by
negative-vs-evidence joins, so only Lemma-4-admissible pairs are
examined.  Correctness claim: the conflict list — order included — is
*identical* to the exhaustive |Σ|²/2 scan.  This file proves it:

* a hypothesis property over random rule sets on a tiny alphabet
  (collisions frequent, not vanishingly rare);
* an adversarial corpus where **every** pair shares evidence and
  negatives, so blocking prunes nothing and must still emit every
  conflict;
* a disjoint corpus where no pair can interact, so blocking prunes
  everything and must emit no false positives;
* the seed-rule Σ of the HOSP protocol, where blocking must examine at
  most a tenth of the pairs and still emit every conflict;
* the verdict cache: one check per Σ fingerprint per process, shared
  by every repair driver and backend.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (FixingRule, RepairSession, RuleSet,
                        blocked_candidate_pairs, clear_conflict_cache,
                        engine_stats, find_conflicts, find_conflicts_cached,
                        repair_table, reset_engine_stats)
from repro.core.consistency import Conflict
from repro.datagen import (constraint_attributes, generate_hosp, hosp_fds,
                           inject_noise)
from repro.relational import Schema, Table
from repro.rulegen.seeds import generate_seed_rules

ATTRS = ("a", "b", "c", "d")
VALUES = ("0", "1", "2")
SCHEMA = Schema("Blk", list(ATTRS))


@st.composite
def rules(draw):
    """One random fixing rule over a tiny alphabet, biased toward
    collisions: few attributes, few values, negatives chosen freely."""
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
def rule_lists(draw):
    return draw(st.lists(rules(), min_size=0, max_size=12))


def _key(conflict: Conflict):
    return (conflict.rule_a.name, conflict.rule_b.name, conflict.kind)


class TestBlockedEquivalence:
    """blocked ≡ pairwise, full list and first_only, random Σ."""

    @settings(max_examples=300, deadline=None)
    @given(rule_lists())
    def test_full_scan_identical(self, rule_list):
        blocked = find_conflicts(rule_list, strategy="blocked")
        pairwise = find_conflicts(rule_list, strategy="pairwise")
        assert [_key(c) for c in blocked] == [_key(c) for c in pairwise]

    @settings(max_examples=300, deadline=None)
    @given(rule_lists())
    def test_first_only_identical(self, rule_list):
        blocked = find_conflicts(rule_list, strategy="blocked",
                                 first_only=True)
        pairwise = find_conflicts(rule_list, strategy="pairwise",
                                  first_only=True)
        assert [_key(c) for c in blocked] == [_key(c) for c in pairwise]

    @settings(max_examples=200, deadline=None)
    @given(rule_lists())
    def test_enumerate_blocked_opt_in(self, rule_list):
        """Blocking is sound for isConsist_t too (the two methods agree
        on every pair; see test_properties.py)."""
        blocked = find_conflicts(rule_list, method="enumerate",
                                 schema=SCHEMA, strategy="blocked")
        pairwise = find_conflicts(rule_list, method="enumerate",
                                  schema=SCHEMA, strategy="pairwise")
        assert [_key(c) for c in blocked] == [_key(c) for c in pairwise]

    @settings(max_examples=300, deadline=None)
    @given(rule_lists())
    def test_candidates_are_superset_of_conflicts(self, rule_list):
        """Every conflicting pair is admitted by the blocking — the
        candidate set never loses a conflict."""
        candidates = set(blocked_candidate_pairs(rule_list))
        names = {}
        for idx, rule in enumerate(rule_list):
            names.setdefault(id(rule), idx)
        for conflict in find_conflicts(rule_list, strategy="pairwise"):
            i = names[id(conflict.rule_a)]
            j = names[id(conflict.rule_b)]
            assert (min(i, j), max(i, j)) in candidates


class TestAdversarialCorpora:
    def test_all_pairs_conflict(self):
        """Worst case for blocking: every rule shares evidence, B and a
        negative, with pairwise-distinct facts — all pairs conflict and
        blocking may prune nothing."""
        n = 8
        facts = ["f%d" % k for k in range(n)]
        negatives = {"bad"}
        rule_list = [FixingRule({"a": "0"}, "b", set(negatives), facts[k],
                                name="adv%d" % k) for k in range(n)]
        blocked = find_conflicts(rule_list, strategy="blocked")
        pairwise = find_conflicts(rule_list, strategy="pairwise")
        assert len(pairwise) == n * (n - 1) // 2
        assert [_key(c) for c in blocked] == [_key(c) for c in pairwise]
        assert set(blocked_candidate_pairs(rule_list)) == {
            (i, j) for i in range(n) for j in range(i + 1, n)}

    def test_chained_evidence_collisions(self):
        """Cases 2a–2c stress: each rule's fact feeds the next rule's
        evidence and sits in its negatives."""
        rule_list = []
        for k in range(6):
            rule_list.append(FixingRule(
                {"a": "v%d" % k}, "b", {"v%d" % (k + 1)}, "v%d" % (k + 2),
                name="chain%d" % k))
            rule_list.append(FixingRule(
                {"b": "v%d" % (k + 1)}, "a", {"v%d" % k}, "other%d" % k,
                name="back%d" % k))
        blocked = find_conflicts(rule_list, strategy="blocked")
        pairwise = find_conflicts(rule_list, strategy="pairwise")
        assert [_key(c) for c in blocked] == [_key(c) for c in pairwise]
        assert pairwise  # the corpus actually conflicts

    def test_fully_disjoint_rules_prune_everything(self):
        """No shared attributes or values anywhere: zero candidates,
        zero conflicts, maximal pruning."""
        rule_list = [
            FixingRule({"a": "x%d" % k}, "b", {"n%d" % k}, "f%d" % k,
                       name="iso%d" % k)
            for k in range(10)
        ]
        assert blocked_candidate_pairs(rule_list) == []
        assert find_conflicts(rule_list, strategy="blocked") == []
        assert find_conflicts(rule_list, strategy="pairwise") == []

    def test_pruning_counted(self):
        rule_list = [
            FixingRule({"a": "x%d" % k}, "b", {"n%d" % k}, "f%d" % k)
            for k in range(10)
        ]
        reset_engine_stats()
        find_conflicts(rule_list, strategy="blocked")
        stats = engine_stats()
        assert stats["pairs_examined"] == 0
        assert stats["pairs_pruned"] == 10 * 9 // 2

    def test_invalid_strategy_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            find_conflicts([], strategy="nope")


class TestSeedRuleHosp:
    """Blocking on the Σ the Section 7 protocol writes for HOSP: seed
    rules from FD violations of a noisy table (seed 7, 8% noise)."""

    def test_pairs_pruned_on_seed_rules(self):
        clean = generate_hosp(rows=2_000, seed=7)
        noise = inject_noise(clean, constraint_attributes(hosp_fds()),
                             noise_rate=0.08, typo_ratio=0.5, seed=7)
        rule_list = generate_seed_rules(clean, noise.table,
                                        hosp_fds()).rules()
        total = len(rule_list) * (len(rule_list) - 1) // 2
        reset_engine_stats()
        blocked = find_conflicts(rule_list, strategy="blocked")
        stats = engine_stats()
        pairwise = find_conflicts(rule_list, strategy="pairwise")
        assert [_key(c) for c in blocked] == [_key(c) for c in pairwise]
        assert stats["pairs_examined"] + stats["pairs_pruned"] == total
        assert stats["pairs_examined"] <= total // 10


class TestVerdictCache:
    def setup_method(self):
        clear_conflict_cache()
        reset_engine_stats()

    def test_second_check_is_cache_hit(self, paper_rules):
        first = find_conflicts_cached(paper_rules)
        second = find_conflicts_cached(paper_rules)
        assert first == second == []
        stats = engine_stats()
        assert stats["consistency_checks"] == 1
        assert stats["consistency_cache_hits"] == 1

    def test_first_only_result_serves_first_only(self, travel_schema,
                                                 phi1, phi2):
        conflicting = FixingRule({"country": "China"}, "capital",
                                 {"Shanghai"}, "Nanjing", name="bad")
        rules = [phi1, phi2, conflicting]
        hit = find_conflicts_cached(rules, first_only=True)
        assert len(hit) == 1
        again = find_conflicts_cached(rules, first_only=True)
        assert [_key(c) for c in again] == [_key(c) for c in hit]
        assert engine_stats()["consistency_cache_hits"] == 1

    def test_incomplete_entry_upgraded_for_full_query(self, phi1):
        conflicting = FixingRule({"country": "China"}, "capital",
                                 {"Shanghai"}, "Nanjing", name="bad")
        other = FixingRule({"country": "China"}, "capital",
                           {"Hongkong"}, "Chongqing", name="worse")
        rules = [phi1, conflicting, other]
        find_conflicts_cached(rules, first_only=True)
        full = find_conflicts_cached(rules)  # must rescan: entry incomplete
        assert len(full) >= 2
        assert engine_stats()["consistency_checks"] == 2
        # ...and the rescan's complete verdict now serves full queries.
        assert find_conflicts_cached(rules) == full
        assert engine_stats()["consistency_checks"] == 2

    def test_different_rulesets_do_not_collide(self, phi1, phi2):
        assert find_conflicts_cached([phi1]) == []
        assert find_conflicts_cached([phi2]) == []
        assert engine_stats()["consistency_checks"] == 2


class TestOncePerSigma:
    """``check_consistency=True`` costs one check per Σ per process,
    across drivers and backends alike."""

    def setup_method(self):
        clear_conflict_cache()
        reset_engine_stats()

    def test_serial_repeat_tables_one_check(self, travel_data, paper_rules):
        repair_table(travel_data, paper_rules, check_consistency=True)
        repair_table(travel_data, paper_rules, check_consistency=True)
        stats = engine_stats()
        assert stats["consistency_checks"] == 1
        assert stats["consistency_cache_hits"] >= 1

    def test_parallel_reuses_parent_verdict(self, travel_data, paper_rules):
        """The table driver checks once; a streaming session opened
        afterwards over the same Σ reuses that verdict instead of
        scanning Σ again."""
        repair_table(travel_data, paper_rules, check_consistency=True)
        session = RepairSession(paper_rules, check_consistency=True)
        results = list(session.repair_many(travel_data))
        stats = engine_stats()
        assert stats["consistency_checks"] == 1
        assert stats["consistency_cache_hits"] >= 1
        assert sum(len(result.applied) for result in results) == 4

    def test_mixed_serial_then_parallel(self, travel_data, paper_rules):
        """The row engine and the columnar bulk engine share one
        verdict."""
        repair_table(travel_data, paper_rules, backend="row",
                     check_consistency=True)
        report = repair_table(travel_data, paper_rules, backend="columnar",
                              check_consistency=True)
        assert engine_stats()["consistency_checks"] == 1
        assert report.total_applications == 4
