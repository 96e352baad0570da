"""The compiled rule engine: compilation, caching, and the single-path
guarantee.

Covers the engine-consolidation PR:

* CompiledRuleSet repairs exactly like the historical algorithms
  (chase/fast) on the paper's running example;
* compilation is memoized on RuleSet and invalidated by mutation;
* fingerprints are stable content hashes (name-independent,
  order-sensitive);
* instrumented rule sets (overridden ``matches``) still run through
  the Row-level executor so examination counting keeps meaning;
* ``repair_table(algorithm="chase")`` runs the chase on every backend
  setting — proven on the Example 8 pair where chase and lRepair
  genuinely diverge;
* engine counters in ENGINE_STATS.
"""

from __future__ import annotations

import pytest

from repro.core import columnar
from repro.core import (CompiledRuleSet, FixingRule,
                        InvertedIndex, MatchCounter, RuleSet,
                        chase_repair, compile_for_schema, compile_ruleset,
                        counting_rules, engine_stats, fast_repair,
                        repair_table, reset_engine_stats, rules_fingerprint)
from repro.errors import SchemaError
from repro.relational import Schema, Table


@pytest.fixture()
def r1(travel_data):
    return travel_data[0]


@pytest.fixture()
def r2(travel_data):
    return travel_data[1]


@pytest.fixture()
def r3(travel_data):
    return travel_data[2]


@pytest.fixture()
def r4(travel_data):
    return travel_data[3]


class TestCompiledRuleSetRepairs:
    def test_matches_chase_on_paper_data(self, travel_data, paper_rules):
        compiled = compile_ruleset(paper_rules)
        for row in travel_data:
            expected = chase_repair(row, paper_rules)
            got = compiled.repair_row(row)
            assert got.row == expected.row
            assert got.assured == expected.assured

    def test_repair_values_round_trip(self, r2, paper_rules):
        compiled = compile_ruleset(paper_rules)
        outcome = compiled.repair_values(list(r2.values))
        assert outcome is not None
        new_values, applied = outcome
        assert new_values[paper_rules.schema.index_of("capital")] == \
            "Beijing"
        fixes = compiled.expand_applied(applied)
        assert [f.rule.name for f in fixes] == \
            [f.rule.name for f in fast_repair(r2, paper_rules).applied]
        assert compiled.assured_for(applied) == \
            fast_repair(r2, paper_rules).assured

    def test_clean_row_returns_none(self, r1, paper_rules):
        compiled = compile_ruleset(paper_rules)
        assert compiled.repair_values(list(r1.values)) is None

    def test_input_not_mutated(self, r2, paper_rules):
        compiled = compile_ruleset(paper_rules)
        values = list(r2.values)
        before = list(values)
        compiled.repair_values(values)
        assert values == before

    def test_validates_rules_against_schema(self, travel_schema):
        rule = FixingRule({"nope": "x"}, "alsonope", {"y"}, "z")
        with pytest.raises(SchemaError):
            CompiledRuleSet(travel_schema, [rule])

    def test_repr(self, paper_rules):
        compiled = compile_ruleset(paper_rules)
        assert "CompiledRuleSet" in repr(compiled)
        assert len(compiled) == len(paper_rules)


class TestCompileMemoization:
    def test_ruleset_compilation_is_cached(self, paper_rules):
        first = compile_ruleset(paper_rules)
        assert compile_ruleset(paper_rules) is first
        assert compile_for_schema(paper_rules.schema, paper_rules) is first

    def test_mutation_invalidates(self, travel_schema, phi1, phi3):
        rules = RuleSet(travel_schema, [phi1])
        first = compile_ruleset(rules)
        rules.add(phi3)
        second = compile_ruleset(rules)
        assert second is not first
        assert len(second) == 2
        rules.remove(phi3)
        assert compile_ruleset(rules) is not second

    def test_plain_sequence_needs_schema(self, phi1):
        with pytest.raises(ValueError, match="schema"):
            compile_ruleset([phi1])

    def test_plain_sequence_with_schema(self, travel_schema, phi1, r2):
        compiled = compile_ruleset([phi1], schema=travel_schema)
        assert compiled.repair_row(r2).row["capital"] == "Beijing"

    def test_compile_cache_hit_counter(self, paper_rules):
        reset_engine_stats()
        compile_ruleset(paper_rules)  # may or may not be cached already
        before = engine_stats()
        compile_ruleset(paper_rules)
        after = engine_stats()
        assert after["compile_cache_hits"] == \
            before["compile_cache_hits"] + 1
        assert after["rulesets_compiled"] == before["rulesets_compiled"]

    def test_legacy_index_path_memoizes(self, r2, r4, paper_rules):
        index = InvertedIndex(paper_rules.rules())
        assert fast_repair(r2, paper_rules,
                           index=index).row["capital"] == "Beijing"
        compiled = index._compiled
        assert isinstance(compiled, CompiledRuleSet)
        fast_repair(r4, paper_rules, index=index)
        assert index._compiled is compiled


class TestFingerprint:
    def test_stable_and_name_independent(self, travel_schema):
        a = FixingRule({"country": "China"}, "capital", {"Shanghai"},
                       "Beijing", name="one")
        b = FixingRule({"country": "China"}, "capital", {"Shanghai"},
                       "Beijing", name="two")
        assert rules_fingerprint([a]) == rules_fingerprint([b])

    def test_content_sensitive(self):
        a = FixingRule({"country": "China"}, "capital", {"Shanghai"},
                       "Beijing")
        b = FixingRule({"country": "China"}, "capital", {"Shanghai"},
                       "Nanjing")
        assert rules_fingerprint([a]) != rules_fingerprint([b])

    def test_order_sensitive(self, phi1, phi3):
        assert rules_fingerprint([phi1, phi3]) != \
            rules_fingerprint([phi3, phi1])

    def test_ruleset_and_list_agree(self, paper_rules):
        assert rules_fingerprint(paper_rules) == \
            rules_fingerprint(paper_rules.rules())
        compiled = compile_ruleset(paper_rules)
        assert compiled.fingerprint == rules_fingerprint(paper_rules)


class TestInstrumentedRules:
    def test_detected_and_counted(self, travel_schema, travel_data,
                                  paper_rules):
        counter = MatchCounter()
        wrapped = counting_rules(paper_rules.rules(), counter)
        compiled = CompiledRuleSet(travel_schema, wrapped)
        assert compiled.instrumented
        result = compiled.repair_row(travel_data[1])
        assert result.row["capital"] == "Beijing"
        assert counter.checks > 0

    def test_plain_rules_not_instrumented(self, paper_rules):
        assert not compile_ruleset(paper_rules).instrumented

    def test_instrumented_equivalent(self, travel_data, travel_schema,
                                     paper_rules):
        counter = MatchCounter()
        wrapped = counting_rules(paper_rules.rules(), counter)
        compiled = CompiledRuleSet(travel_schema, wrapped)
        for row in travel_data:
            assert compiled.repair_row(row).row == \
                fast_repair(row, paper_rules).row


class TestBatchKernelCompat:
    def test_kernel_is_engine(self, travel_schema, paper_rules, r2):
        """The batch kernel every driver runs is the compiled engine
        itself, compiled once per RuleSet object."""
        kernel = compile_for_schema(travel_schema, paper_rules)
        assert isinstance(kernel, CompiledRuleSet)
        assert compile_for_schema(travel_schema, paper_rules) is kernel
        assert kernel.repair_row(r2).row["capital"] == "Beijing"


class TestChaseWithWorkersHonored:
    """Regression: a driver must never silently swap the requested
    chase for the lRepair engine."""

    def test_divergent_instance_gets_chase_answer(self, travel_schema,
                                                  r3, phi1_prime, phi3):
        """On the Example 8 pair the two algorithms genuinely diverge
        (chase fixes capital, lRepair's frontier fixes country) — so
        the returned cells prove which algorithm actually ran."""
        table = Table(travel_schema, [list(r3.values)])
        rules = [phi1_prime, phi3]
        serial_chase = repair_table(table, rules, algorithm="chase")
        serial_fast = repair_table(table, rules, algorithm="fast")
        assert serial_chase.table[0]["capital"] == "Beijing"
        assert serial_fast.table[0]["country"] == "Japan"
        assert serial_chase.table[0].values != serial_fast.table[0].values

        # backend="auto" routes big fast repairs to the columnar
        # lRepair engine; a chase must stay a chase at any size
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(columnar, "COLUMNAR_AUTO_THRESHOLD", 1)
            report = repair_table(table, rules, algorithm="chase",
                                  backend="auto")
        assert [row.values for row in report.table] == \
            [row.values for row in serial_chase.table]


class TestEngineStats:
    def test_rows_repaired_counts(self, travel_data, paper_rules):
        reset_engine_stats()
        repair_table(travel_data, paper_rules)
        assert engine_stats()["rows_repaired"] == len(travel_data)

    def test_snapshot_keys(self):
        stats = engine_stats()
        for key in ("rulesets_compiled", "rules_compiled",
                    "compile_cache_hits", "rows_repaired",
                    "consistency_checks", "consistency_cache_hits",
                    "pairs_examined", "pairs_pruned"):
            assert key in stats


class TestSchemaCompatibility:
    def test_same_names_compatible(self, paper_rules):
        compiled = compile_ruleset(paper_rules)
        clone = Schema("TravelClone",
                       list(paper_rules.schema.attribute_names))
        assert compiled.compatible_with(clone)

    def test_different_layout_incompatible(self, paper_rules):
        compiled = compile_ruleset(paper_rules)
        other = Schema("Other", ["x", "y"])
        assert not compiled.compatible_with(other)

    def test_compile_for_schema_recompiles_on_mismatch(self, paper_rules):
        names = list(paper_rules.schema.attribute_names)
        reordered = Schema("Reordered", list(reversed(names)))
        compiled = compile_for_schema(reordered, paper_rules)
        assert compiled.schema is reordered
        assert compiled is not compile_ruleset(paper_rules)


class TestCompileCached:
    """The process-wide fingerprint-keyed compilation cache the serve
    layer's registry relies on (one compile per Σ content, however
    many tenants or uploads name it)."""

    @pytest.fixture(autouse=True)
    def _fresh_cache(self):
        from repro.core.engine import clear_compiled_cache
        clear_compiled_cache()
        yield
        clear_compiled_cache()

    def test_identical_content_shares_one_compilation(self, paper_rules):
        from repro.core.engine import compile_cached
        copy = RuleSet(paper_rules.schema, list(paper_rules.rules()))
        first = compile_cached(paper_rules.schema, paper_rules)
        second = compile_cached(copy.schema, copy)
        assert first is second  # different objects, same content hash

    def test_hit_counted_in_engine_stats(self, paper_rules):
        from repro.core.engine import compile_cached
        reset_engine_stats()
        compile_cached(paper_rules.schema, paper_rules)
        before = engine_stats()["compile_cache_hits"]
        compile_cached(paper_rules.schema, paper_rules)
        assert engine_stats()["compile_cache_hits"] == before + 1

    def test_precomputed_fingerprint_matches_derived(self, paper_rules):
        from repro.core.engine import compile_cached
        fingerprint = rules_fingerprint(paper_rules)
        derived = compile_cached(paper_rules.schema, paper_rules)
        named = compile_cached(paper_rules.schema, paper_rules,
                               fingerprint=fingerprint)
        assert derived is named

    def test_lru_evicts_oldest(self, travel_schema, phi1, phi2, phi3):
        # eviction is only observable through content-equal *copies*:
        # the original RuleSet instance would answer from its own memo
        from repro.core.engine import compile_cached
        sets = [RuleSet(travel_schema, [phi]) for phi in (phi1, phi2, phi3)]
        first = compile_cached(travel_schema, sets[0], max_entries=2)
        compile_cached(travel_schema, sets[1], max_entries=2)
        third = compile_cached(travel_schema, sets[2],
                               max_entries=2)  # evicts φ1
        fresh = [RuleSet(travel_schema, [phi]) for phi in (phi1, phi3)]
        assert compile_cached(travel_schema, fresh[1],
                              max_entries=2) is third  # still cached
        assert compile_cached(travel_schema, fresh[0],
                              max_entries=2) is not first  # recompiled

    def test_schema_layout_is_part_of_the_key(self, paper_rules):
        from repro.core.engine import compile_cached
        names = list(paper_rules.schema.attribute_names)
        reordered = Schema("Reordered", list(reversed(names)))
        base = compile_cached(paper_rules.schema, paper_rules)
        other = compile_cached(reordered, paper_rules)
        assert base is not other
        assert other.schema is reordered
