"""End-to-end tests of the command-line interface."""

import json

import pytest

from poolscreen.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDesign:
    def test_two_percent_recommends_dorfman_8(self, capsys):
        code, out, _ = run_cli(capsys, "design", "--prevalence", "0.02", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["architecture"] == "dorfman"
        assert payload["design"]["batch_size"] == 8
        assert 3.5 <= payload["efficiency_gain"] <= 8.0

    def test_thirty_percent_recommends_pool_of_3(self, capsys):
        code, out, _ = run_cli(capsys, "design", "--prevalence", "0.30", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["design"]["batch_size"] == 3
        assert 1.0 <= payload["efficiency_gain"] <= 1.5

    def test_fifty_percent_individual_with_warning(self, capsys):
        code, out, _ = run_cli(capsys, "design", "--prevalence", "0.5")
        assert code == 0
        assert "individual" in out
        assert "warning" in out

    def test_percent_notation(self, capsys):
        code, out, err = run_cli(capsys, "design", "--prevalence", "2", "--format", "json")
        assert code == 0
        assert json.loads(out)["prevalence"] == 0.02
        assert "percent" in err

    def test_invalid_prevalence_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "design", "--prevalence", "150")
        assert code == 2
        assert "error" in err

    def test_csv_format_rejected(self, capsys):
        # design, estimate and dilution print text or JSON only
        code, out, _ = run_cli(capsys, "design", "--prevalence", "0.02", "--format", "csv")
        assert code == 2
        assert out == ""

    def test_dilution_safe_size_warning(self, capsys):
        # weak positives make the recommended pool of 8 unsafe
        code, out, _ = run_cli(
            capsys, "design", "--prevalence", "0.01", "--concentration", "5",
            "--aliquot", "1", "--sample-volume", "20", "--fn-threshold", "0.05",
        )
        assert code == 0
        assert "dilution-safe" in out


class TestEstimate:
    def test_analysis_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--pools", "6", "--positive", "2", "--pool-size", "7",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["p_hat"] == pytest.approx(0.0563, abs=5e-4)

    def test_zero_positives(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--pools", "10", "--positive", "0", "--pool-size", "8",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["p_hat"] == 0.0

    def test_saturation_warning(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--pools", "10", "--positive", "10", "--pool-size", "8"
        )
        assert code == 0
        assert "saturat" in out

    def test_invalid_counts_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "estimate", "--pools", "5", "--positive", "6", "--pool-size", "8"
        )
        assert code == 2

    def test_plan_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--plan", "--prevalence-guess", "0.01",
            "--target-nrmse", "0.15", "--cap", "20", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["pool_size"] == 20
        assert abs(payload["num_pools"] - 243) <= 2
        assert payload["efficiency_gain"] == pytest.approx(18, abs=0.5)

    def test_unreachable_target_exit_3(self, capsys):
        code, _, err = run_cli(
            capsys, "estimate", "--plan", "--prevalence-guess", "0.01",
            "--target-nrmse", "0.0001",
        )
        assert code == 3
        assert "infeasible" in err

    def test_cost_aware_plan(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--plan", "--prevalence-guess", "0.05",
            "--target-nrmse", "0.15", "--sample-cost", "1", "--test-cost", "10",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "plan-cost"
        assert payload["pool_size"] == 13
        assert payload["num_pools"] == 93
        assert payload["total_samples"] == 1209


class TestSimulate:
    def test_zero_prevalence_dorfman(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--design", "dorfman", "--pool-size", "5",
            "--prevalence", "0", "--population", "100", "--reps", "10", "--seed", "1",
        )
        assert code == 0
        assert json.loads(out)["mean_tests"] == pytest.approx(0.2)

    def test_zero_prevalence_with_noise(self, capsys):
        # no positives, so there is nothing to miss and no dilution model to ask
        code, out, _ = run_cli(
            capsys, "simulate", "--design", "dorfman", "--pool-size", "5",
            "--prevalence", "0", "--population", "100", "--reps", "10", "--concentration", "5",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mean_tests"] == 1 / 5
        assert payload["sensitivity"] == 1.0
        assert payload["pool_miss_rate"] == 0.0

    def test_identical_seed_identical_bytes(self, capsys):
        args = (
            "simulate", "--design", "sterrett", "--pool-size", "9",
            "--prevalence", "0.03", "--population", "90", "--reps", "500", "--seed", "7",
        )
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_format_flag_rejected(self, capsys):
        # simulate always prints JSON
        code, out, _ = run_cli(
            capsys, "simulate", "--design", "dorfman", "--pool-size", "5",
            "--prevalence", "0.05", "--population", "50", "--reps", "10", "--format", "text",
        )
        assert code == 2
        assert out == ""

    def test_gibbs_gower_needs_pools(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--design", "gibbs-gower", "--pool-size", "8",
            "--prevalence", "0.05",
        )
        assert code == 2

    def test_gibbs_gower_rejects_noise(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--design", "gibbs-gower", "--pool-size", "8",
            "--pools", "120", "--prevalence", "0.05", "--concentration", "5",
        )
        assert code == 2
        assert out == ""
        assert "noise" in err

    def test_gibbs_gower_summary(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--design", "gibbs-gower", "--pool-size", "8",
            "--pools", "120", "--prevalence", "0.05", "--reps", "2000", "--seed", "3",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["empirical_rmse"] == pytest.approx(0.05 * 0.155, rel=0.15)


class TestTables:
    def test_rmse_100_csv(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "rmse-100")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 5
        gg_cell = float(lines[1].split(",")[3])
        assert gg_cell == pytest.approx(6.28e-3, rel=0.02)

    def test_tests_for_15pct_nongroup_exact(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "tests-for-15pct")
        row = out.strip().split("\n")[2].split(",")
        assert int(row[1]) == 4400

    def test_exec_estimation_low_prevalence_gain(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "exec-estimation", "--format", "json")
        rows = json.loads(out)["rows"]
        assert rows[0][0] == 0.001
        assert abs(rows[0][2] - 20) <= 1

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(capsys, "tables", "cost-optimized", "--output", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("prevalence,")

    def test_unknown_table_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "tables", "nonexistent")
        assert code == 2


class TestDilution:
    BASE = (
        "dilution", "--concentration", "5", "--aliquot", "1", "--sample-volume", "20",
        "--prevalence", "0.01",
    )

    def test_monitoring_report(self, capsys):
        code, out, _ = run_cli(capsys, *self.BASE, "--pool-size", "10", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["individual_false_negative_rate"] == pytest.approx(5.92e-3, rel=0.01)
        assert payload["pooled_false_negative_rate"] == pytest.approx(0.592, abs=1e-3)
        assert payload["introduced_false_negative_rate"] == pytest.approx(0.586, abs=1e-3)

    def test_zero_concentration_vacuous(self, capsys):
        code, out, _ = run_cli(
            capsys, "dilution", "--concentration", "0", "--aliquot", "1",
            "--sample-volume", "20", "--prevalence", "0.01", "--pool-size", "10",
            "--max-pool", "32", "--format", "json",
        )
        payload = json.loads(out)
        assert payload["introduced_false_negative_rate"] == 0.0
        assert payload["max_safe_pool_size"] == 32

    def test_pool_of_one_introduces_nothing(self, capsys):
        code, out, _ = run_cli(capsys, *self.BASE, "--pool-size", "1", "--format", "json")
        assert json.loads(out)["introduced_false_negative_rate"] == 0.0

    def test_aliquot_larger_than_sample_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "dilution", "--concentration", "5", "--aliquot", "30",
            "--sample-volume", "20", "--prevalence", "0.01", "--pool-size", "4",
        )
        assert code == 2


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("# lab defaults\nprevalence = 0.02\nformat = json\n")
        code, out, _ = run_cli(capsys, "design", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["design"]["batch_size"] == 8

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("prevalence = 0.02\nformat = json\n")
        code, out, _ = run_cli(
            capsys, "design", "--config", str(cfg), "--prevalence", "0.30"
        )
        assert code == 0
        assert json.loads(out)["design"]["batch_size"] == 3

    def test_env_var_config(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("prevalence = 0.02\nformat = json\n")
        monkeypatch.setenv("POOLSCREEN_CONFIG", str(cfg))
        code, out, _ = run_cli(capsys, "design")
        assert code == 0
        assert json.loads(out)["design"]["batch_size"] == 8

    def test_missing_config_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "design", "--config", "/nonexistent.cfg",
                               "--prevalence", "0.02")
        assert code == 2


class TestJsonRoundTrip:
    def test_reports_round_trip(self, capsys):
        for argv in (
            ("design", "--prevalence", "0.02", "--format", "json"),
            ("estimate", "--pools", "6", "--positive", "2", "--pool-size", "7",
             "--format", "json"),
            ("dilution", "--concentration", "5", "--aliquot", "1", "--sample-volume",
             "20", "--prevalence", "0.01", "--pool-size", "10", "--format", "json"),
        ):
            _, out, _ = run_cli(capsys, *argv)
            parsed = json.loads(out)
            assert json.loads(json.dumps(parsed, sort_keys=True)) == parsed
