"""Documentation-freshness checks.

Docs that drift from the code are worse than no docs.  These tests
pin the load-bearing references: files the README/DESIGN name must
exist, the API names the reference doc lists must import, and the CLI
subcommands the docs mention must be registered.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _read(name: str) -> str:
    return (ROOT / name).read_text(encoding="utf-8")


class TestReadmeReferences:
    def test_linked_docs_exist(self):
        readme = _read("README.md")
        for match in re.findall(r"\]\((docs/[\w.-]+\.md)\)", readme):
            assert (ROOT / match).is_file(), match

    def test_example_table_entries_exist(self):
        readme = _read("README.md")
        for match in re.findall(r"`(\w+\.py)`", readme):
            if (ROOT / "examples" / match).exists():
                continue
            # Names like setup.py / conftest.py may appear too.
            assert (ROOT / match).exists() or match in (
                "conftest.py",), match


class TestDesignInventory:
    def test_declared_modules_exist(self):
        design = _read("DESIGN.md")
        for dotted in re.findall(r"`repro\.([\w.]+)`", design):
            module = "repro." + dotted
            importlib.import_module(module)

    def test_declared_bench_targets_exist(self):
        design = _read("DESIGN.md")
        for path in re.findall(r"`(benchmarks/[\w.]+\.py)", design):
            assert (ROOT / path).is_file(), path


class TestApiReference:
    def test_cli_subcommands_registered(self):
        from repro.cli import build_parser
        parser = build_parser()
        registered = set()
        for action in parser._actions:
            if hasattr(action, "choices") and action.choices:
                registered |= set(action.choices)
        reference = _read("docs/api-reference.md")
        block = reference[reference.index("## Command line"):]
        for command in re.findall(r"^repro (\w+)", block, re.M):
            assert command in registered, command

    @pytest.mark.parametrize("module,names", [
        ("repro", ["Schema", "Table", "FixingRule", "RuleSet",
                   "is_consistent", "repair_table", "evaluate_repair"]),
        ("repro.core", ["ConsistentRuleSet", "RepairSession",
                        "repair_csv_file", "ruleset_profile",
                        "explain_repair", "counting_rules",
                        "find_assurance_hazards", "Checkpoint",
                        "QuarantineWriter", "read_quarantine",
                        "replay_quarantine", "FaultInjector",
                        "RowError", "validate_error_policy",
                        "VALID_ALGORITHMS", "VALID_BACKENDS",
                        "CompiledRuleSet",
                        "compile_ruleset", "compile_for_schema",
                        "rules_fingerprint", "blocked_candidate_pairs",
                        "find_conflicts_cached",
                        "clear_conflict_cache", "VALID_STRATEGIES",
                        "engine_stats", "reset_engine_stats"]),
        ("repro.rulegen", ["generate_rules", "discover_rules",
                           "rules_from_master", "fixing_rules_from_cfds",
                           "enrich_with_typo_negatives",
                           "rules_from_examples"]),
        ("repro.discovery", ["DiscoverySession", "mine_candidates",
                             "resolve_by_weight", "WeightedRuleSet",
                             "RuleWeight", "WeightedCandidate",
                             "Suggestion", "evaluate_discovery",
                             "save_weighted_ruleset",
                             "load_weighted_ruleset"]),
        ("repro.durability", ["StateStore", "RecoveryManager",
                              "verify_state_dir", "reduce_record",
                              "scan_wal", "read_wal", "encode_frame",
                              "TornTail", "rehydrate_session",
                              "DiskFaultInjector", "FAULT_POINTS",
                              "FAULT_KINDS", "CrashPoint",
                              "durable_write", "durable_append",
                              "durable_fsync",
                              "durable_replace", "fsync_dir",
                              "atomic_replace_bytes"]),
        ("repro.dependencies", ["FD", "CFD", "MD", "discover_fds",
                                "enforce_md"]),
        ("repro.evaluation", ["build_workload", "prepare", "run_trials",
                              "run_experiment", "format_series"]),
        ("repro.baselines", ["heu_repair", "csm_repair",
                             "apply_editing_rules"]),
        ("repro.datagen", ["generate_hosp", "generate_uis",
                           "inject_noise", "inject_noise_profile",
                           "inject_row_bursts"]),
    ])
    def test_documented_names_importable(self, module, names):
        mod = importlib.import_module(module)
        for name in names:
            assert hasattr(mod, name), "%s.%s" % (module, name)

    def test_figures_api_names(self):
        figures = importlib.import_module("repro.evaluation.figures")
        reference = _read("docs/api-reference.md")
        for name in ("consistency_timing", "accuracy_typo_sweep",
                     "accuracy_rule_sweep",
                     "negative_pattern_distribution",
                     "negatives_budget_series", "corrections_per_rule",
                     "fix_vs_edit", "repair_timing", "runtime_table"):
            assert hasattr(figures, name)
            assert name in reference
