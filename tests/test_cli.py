"""Integration tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.core import RuleSet, save_ruleset
from repro.relational import read_csv, write_csv, Table


@pytest.fixture()
def rules_file(tmp_path, paper_rules):
    path = tmp_path / "rules.json"
    save_ruleset(paper_rules, path)
    return str(path)


@pytest.fixture()
def bad_rules_file(tmp_path, travel_schema, phi1_prime, phi3):
    path = tmp_path / "bad.json"
    save_ruleset(RuleSet(travel_schema, [phi1_prime, phi3]), path)
    return str(path)


@pytest.fixture()
def data_file(tmp_path, travel_data):
    path = tmp_path / "travel.csv"
    write_csv(travel_data, path)
    return str(path)


class TestCheck:
    def test_consistent(self, rules_file, capsys):
        assert main(["check", rules_file]) == 0
        assert "CONSISTENT" in capsys.readouterr().out

    def test_inconsistent(self, bad_rules_file, capsys):
        assert main(["check", bad_rules_file]) == 1
        out = capsys.readouterr().out
        assert "INCONSISTENT" in out and "phi1_prime" in out

    def test_enumerate_method(self, rules_file):
        assert main(["check", rules_file, "--method", "enumerate"]) == 0


class TestRepair:
    def test_repair_roundtrip(self, rules_file, data_file, tmp_path,
                              travel_schema, capsys):
        out_path = str(tmp_path / "fixed.csv")
        assert main(["repair", data_file, rules_file, out_path]) == 0
        assert "4 cells updated" in capsys.readouterr().out
        fixed = read_csv(out_path, schema=travel_schema)
        assert fixed[2]["country"] == "Japan"

    def test_repair_chase_algorithm(self, rules_file, data_file, tmp_path,
                                    travel_data, paper_rules,
                                    travel_schema):
        """The CLI's lRepair output equals the cRepair oracle, which
        stays a library call (``repair_table(algorithm="chase")``)."""
        from repro.core import repair_table
        out_path = str(tmp_path / "fixed.csv")
        assert main(["repair", data_file, rules_file, out_path]) == 0
        chase = repair_table(travel_data, paper_rules, algorithm="chase")
        assert [row.values for row in read_csv(out_path,
                                               schema=travel_schema)] == \
            [row.values for row in chase.table]

    def test_verbose_prints_each_rewritten_cell(self, rules_file,
                                                data_file, tmp_path,
                                                capsys):
        out_path = str(tmp_path / "fixed.csv")
        assert main(["repair", data_file, rules_file, out_path,
                     "--verbose"]) == 0
        out = capsys.readouterr().out
        assert [line for line in out.splitlines()
                if line.startswith("  line ")] == [
            "  line 3, capital -> 'Beijing'",
            "  line 3, city -> 'Shanghai'",
            "  line 4, country -> 'Japan'",
            "  line 5, capital -> 'Ottawa'",
        ]
        # quiet again without the flag
        assert main(["repair", data_file, rules_file, out_path]) == 0
        assert "  line " not in capsys.readouterr().out

    def test_repair_inconsistent_rules_fails(self, bad_rules_file,
                                             data_file, tmp_path, capsys):
        out_path = str(tmp_path / "fixed.csv")
        assert main(["repair", data_file, bad_rules_file, out_path]) == 2
        assert "error:" in capsys.readouterr().err

    def test_skip_check_bypasses(self, bad_rules_file, data_file,
                                 tmp_path):
        out_path = str(tmp_path / "fixed.csv")
        assert main(["repair", data_file, bad_rules_file, out_path,
                     "--skip-check"]) == 0


class TestRepairStreaming:
    """The fault-tolerance flags: --on-error / --quarantine-path /
    --checkpoint / --resume / --on-inconsistent."""

    @pytest.fixture()
    def ragged_file(self, tmp_path, travel_data):
        path = tmp_path / "ragged.csv"
        write_csv(travel_data, path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("too,short\n")
        return str(path)

    def test_stream_flag_matches_batch(self, rules_file, data_file,
                                       tmp_path, travel_schema, capsys):
        out_path = str(tmp_path / "fixed.csv")
        assert main(["repair", data_file, rules_file, out_path]) == 0
        assert "4 cells updated" in capsys.readouterr().out
        assert read_csv(out_path, schema=travel_schema)[2]["country"] \
            == "Japan"

    def test_strict_streaming_aborts_on_ragged(self, rules_file,
                                               ragged_file, tmp_path,
                                               capsys):
        out_path = str(tmp_path / "fixed.csv")
        assert main(["repair", ragged_file, rules_file, out_path]) == 2
        assert "error:" in capsys.readouterr().err

    def test_quarantine_flags(self, rules_file, ragged_file, tmp_path,
                              capsys):
        from repro.core import read_quarantine
        out_path = str(tmp_path / "fixed.csv")
        q_path = str(tmp_path / "dead.jsonl")
        assert main(["repair", ragged_file, rules_file, out_path,
                     "--quarantine-path", q_path]) == 0
        out = capsys.readouterr().out
        assert "1 quarantined" in out
        (entry,) = read_quarantine(q_path)
        assert entry.line_no == 6

    def test_checkpoint_flag_cleans_up(self, rules_file, data_file,
                                       tmp_path):
        out_path = str(tmp_path / "fixed.csv")
        ck_path = str(tmp_path / "ck.json")
        assert main(["repair", data_file, rules_file, out_path,
                     "--checkpoint", ck_path,
                     "--checkpoint-interval", "2", "--resume"]) == 0
        assert not (tmp_path / "ck.json").exists()

    def test_resume_requires_checkpoint(self, rules_file, data_file,
                                        tmp_path, capsys):
        assert main(["repair", data_file, rules_file,
                     str(tmp_path / "o.csv"), "--resume"]) == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_degrade_mode(self, bad_rules_file, data_file, tmp_path,
                          capsys, recwarn):
        out_path = str(tmp_path / "fixed.csv")
        assert main(["repair", data_file, bad_rules_file, out_path,
                     "--on-inconsistent", "degrade"]) == 0
        assert "DEGRADED" in capsys.readouterr().out


class TestGenerate:
    def test_clean_hosp(self, tmp_path, capsys):
        out = str(tmp_path / "hosp.csv")
        assert main(["generate", "hosp", out, "--rows", "40"]) == 0
        table = read_csv(out)
        assert len(table) == 40
        assert "PN" in table.schema.attribute_names

    def test_noisy_uis_with_ground_truth(self, tmp_path, capsys):
        dirty = str(tmp_path / "uis.csv")
        clean = str(tmp_path / "uis_clean.csv")
        assert main(["generate", "uis", dirty, "--rows", "40",
                     "--noise-rate", "0.1", "--clean-output", clean]) == 0
        assert read_csv(dirty) != read_csv(clean)


class TestRulesAndEvaluate:
    def test_full_workflow(self, tmp_path, capsys):
        clean_path = str(tmp_path / "clean.csv")
        dirty_path = str(tmp_path / "dirty.csv")
        rules_path = str(tmp_path / "rules.json")
        fixed_path = str(tmp_path / "fixed.csv")
        # 1. generate clean + dirty
        assert main(["generate", "hosp", dirty_path, "--rows", "120",
                     "--noise-rate", "0.08",
                     "--clean-output", clean_path]) == 0
        # 2. derive rules from the pair
        assert main(["rules", clean_path, dirty_path, rules_path,
                     "--fd", "PN -> HN, city, state, zip",
                     "--fd", "MC -> MN, condition",
                     "--enrich", "2"]) == 0
        # 3. repair
        assert main(["repair", dirty_path, rules_path, fixed_path]) == 0
        # 4. evaluate
        assert main(["evaluate", clean_path, dirty_path, fixed_path]) == 0
        out = capsys.readouterr().out
        assert "precision=" in out

    def test_discover_without_fds(self, tmp_path, capsys):
        dirty_path = str(tmp_path / "dirty.csv")
        rules_path = str(tmp_path / "mined.json")
        assert main(["generate", "hosp", dirty_path, "--rows", "200",
                     "--noise-rate", "0.06"]) == 0
        assert main(["discover", dirty_path, rules_path,
                     "--min-support", "3",
                     "--min-confidence", "0.75"]) == 0
        out = capsys.readouterr().out
        assert "discovered" in out and "discovered FDs" in out
        assert main(["check", rules_path]) == 0

    def test_discover_with_given_fds(self, tmp_path, capsys):
        dirty_path = str(tmp_path / "dirty.csv")
        rules_path = str(tmp_path / "mined.json")
        assert main(["generate", "hosp", dirty_path, "--rows", "200",
                     "--noise-rate", "0.06"]) == 0
        assert main(["discover", dirty_path, rules_path,
                     "--fd", "MC -> MN, condition"]) == 0
        assert "1 given FDs" in capsys.readouterr().out

    def test_show(self, rules_file, capsys):
        assert main(["show", rules_file]) == 0
        out = capsys.readouterr().out
        assert "phi1:" in out and "-> Beijing" in out

    def test_profile(self, rules_file, capsys):
        assert main(["profile", rules_file]) == 0
        out = capsys.readouterr().out
        assert "4 rules" in out and "CONSISTENT" in out

    def test_profile_flags_inconsistent(self, bad_rules_file, capsys):
        assert main(["profile", bad_rules_file]) == 1
        assert "INCONSISTENT" in capsys.readouterr().out

    def test_explain_row(self, rules_file, data_file, capsys):
        assert main(["explain", data_file, rules_file, "--row", "1"]) == 0
        out = capsys.readouterr().out
        assert "phi1 rewrote capital" in out
        assert "final verdicts:" in out

    def test_explain_row_out_of_range(self, rules_file, data_file,
                                      capsys):
        assert main(["explain", data_file, rules_file,
                     "--row", "99"]) == 2
        assert "out of range" in capsys.readouterr().err


class TestServeFlags:
    @pytest.mark.parametrize("flag, value", [
        ("--request-timeout", "nan"),
        ("--request-timeout", "0"),
        ("--drain-timeout", "inf"),
    ])
    def test_bad_timing_rejected_before_binding(self, flag, value, capsys):
        assert main(["serve", "--port", "0", flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "finite" in err
