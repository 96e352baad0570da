"""The paper's primary contribution: fixing rules and their analyses.

Public surface:

* :class:`FixingRule`, :class:`RuleSet` — rule syntax (Section 3.1);
* :mod:`~repro.core.matching` helpers — match / proper application
  (Section 3.2);
* consistency checking — :func:`is_consistent`,
  :func:`find_conflicts`, the two algorithms ``isConsist_t`` /
  ``isConsist_r`` (Sections 4.2, 5.2);
* implication — :func:`implies`, :func:`minimize` (Section 4.3);
* resolution — :func:`ensure_consistent` (Section 5.3);
* repair — :func:`chase_repair` (cRepair), :func:`fast_repair`
  (lRepair), :func:`repair_table` (Section 6);
* the compiled engine — :mod:`~repro.core.engine`:
  :class:`CompiledRuleSet`, the single positional hot path every
  repair driver (table, streaming, daemon) executes, plus the
  content fingerprinting behind consistency-verdict caching;
* fault tolerance — :mod:`~repro.core.pipeline`: error policies,
  dead-letter quarantine, checkpoint/resume, fault injection;
* serialization — JSON round-tripping and the φ text notation.
"""

from .rule import FixingRule
from .ruleset import RuleSet
from .matching import (first_proper, is_fixpoint, matching_rules,
                       properly_applicable)
from .indexes import HashCounters, InvertedIndex
from .engine import (CompiledRuleSet, clear_compiled_cache, compile_cached,
                     compile_for_schema, compile_ruleset, rules_fingerprint)
from .consistency import (AssuranceHazard, CASE_B_I_IN_X_J, CASE_B_J_IN_X_I, CASE_ENUMERATED,
                          CASE_MUTUAL, CASE_SAME_ATTRIBUTE, OUT_OF_DOMAIN,
                          VALID_STRATEGIES, Conflict,
                          blocked_candidate_pairs, check_pair_characterize,
                          check_pair_enumerate, clear_conflict_cache,
                          enumerate_candidate_tuples,
                          find_assurance_hazards, find_conflicts,
                          find_conflicts_cached, is_consistent,
                          is_consistent_characterize,
                          is_consistent_enumerate)
from .implication import implies, iter_small_model, minimize
from .resolution import (DROP_CONFLICTING, SHRINK_NEGATIVES, ResolutionLog,
                         Revision, drop_conflicting, ensure_consistent)
from .repair import (AppliedFix, RepairResult, TableRepairReport,
                     VALID_ALGORITHMS, VALID_BACKENDS, chase_repair,
                     fast_repair, repair_table)
from .columnar import (COLUMNAR_AUTO_THRESHOLD, ColumnarKernel,
                       ColumnarRepairReport, ColumnarTable,
                       columnar_repair_table, numpy_available)
from .serialization import (format_rule, format_ruleset, load_ruleset,
                            rule_from_dict, rule_to_dict, ruleset_from_json,
                            ruleset_to_json, save_ruleset)
from .pipeline import (ERROR_POLICIES, QUARANTINE, SKIP, STRICT, Checkpoint,
                       FaultInjected, FaultInjector, QuarantineWriter,
                       RowError, read_quarantine, replay_quarantine,
                       validate_error_policy)
from .stream import (ON_INCONSISTENT_DEGRADE, ON_INCONSISTENT_RAISE,
                     RepairSession, repair_csv_file, repair_stream)
from .instrumentation import (ENGINE_STATS, CountingRule, EngineStats,
                              MatchCounter, counting_rules, engine_stats,
                              reset_engine_stats)
from .incremental import ConsistentRuleSet
from .delta import (CorrectionLog, DeltaError, DeltaOutcome,
                    DeltaRepairSession, SessionSnapshot,
                    audit_correction_log, iter_log_records,
                    replay_correction_log)
from .stream import repair_delta_stream
from .profile import RuleSetProfile, ruleset_profile
from .explain import (APPLIES, EVIDENCE_MISMATCH, TARGET_ASSURED,
                      VALUE_NOT_NEGATIVE, Explanation, RepairExplanation,
                      explain, explain_all, explain_repair)

__all__ = [
    "FixingRule",
    "RuleSet",
    "properly_applicable",
    "matching_rules",
    "first_proper",
    "is_fixpoint",
    "InvertedIndex",
    "HashCounters",
    "CompiledRuleSet",
    "compile_ruleset",
    "compile_for_schema",
    "compile_cached",
    "clear_compiled_cache",
    "rules_fingerprint",
    "Conflict",
    "OUT_OF_DOMAIN",
    "CASE_SAME_ATTRIBUTE",
    "CASE_B_I_IN_X_J",
    "CASE_B_J_IN_X_I",
    "CASE_MUTUAL",
    "CASE_ENUMERATED",
    "check_pair_characterize",
    "check_pair_enumerate",
    "enumerate_candidate_tuples",
    "find_conflicts",
    "find_conflicts_cached",
    "clear_conflict_cache",
    "blocked_candidate_pairs",
    "VALID_STRATEGIES",
    "AssuranceHazard",
    "find_assurance_hazards",
    "is_consistent",
    "is_consistent_characterize",
    "is_consistent_enumerate",
    "implies",
    "iter_small_model",
    "minimize",
    "DROP_CONFLICTING",
    "SHRINK_NEGATIVES",
    "Revision",
    "ResolutionLog",
    "drop_conflicting",
    "ensure_consistent",
    "AppliedFix",
    "RepairResult",
    "TableRepairReport",
    "VALID_ALGORITHMS",
    "VALID_BACKENDS",
    "chase_repair",
    "fast_repair",
    "repair_table",
    "COLUMNAR_AUTO_THRESHOLD",
    "ColumnarKernel",
    "ColumnarRepairReport",
    "ColumnarTable",
    "columnar_repair_table",
    "numpy_available",
    "CorrectionLog",
    "DeltaError",
    "DeltaOutcome",
    "DeltaRepairSession",
    "SessionSnapshot",
    "audit_correction_log",
    "iter_log_records",
    "replay_correction_log",
    "repair_delta_stream",
    "rule_to_dict",
    "rule_from_dict",
    "ruleset_to_json",
    "ruleset_from_json",
    "save_ruleset",
    "load_ruleset",
    "format_rule",
    "format_ruleset",
    "RepairSession",
    "repair_stream",
    "repair_csv_file",
    "ON_INCONSISTENT_RAISE",
    "ON_INCONSISTENT_DEGRADE",
    "STRICT",
    "SKIP",
    "QUARANTINE",
    "ERROR_POLICIES",
    "validate_error_policy",
    "RowError",
    "Checkpoint",
    "QuarantineWriter",
    "read_quarantine",
    "replay_quarantine",
    "FaultInjected",
    "FaultInjector",
    "MatchCounter",
    "CountingRule",
    "counting_rules",
    "EngineStats",
    "ENGINE_STATS",
    "engine_stats",
    "reset_engine_stats",
    "APPLIES",
    "EVIDENCE_MISMATCH",
    "VALUE_NOT_NEGATIVE",
    "TARGET_ASSURED",
    "Explanation",
    "RepairExplanation",
    "explain",
    "explain_all",
    "explain_repair",
    "ConsistentRuleSet",
    "RuleSetProfile",
    "ruleset_profile",
]
