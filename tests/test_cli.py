"""End-to-end tests of the command-line interface."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from poolscreen.cli import main

ROOT = Path(__file__).resolve().parents[1]


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

    def test_int64_cap_gives_the_design_of_cap_ten_thousand(self, capsys):
        # the search stops on its floor or falling tail, not at the cap; where
        # the tail returns the cap its cost ties individual testing at 1.0,
        # and individual testing wins on rank
        candidates = ("--candidates", "dorfman,array,hypercube,sterrett")
        elapsed = 0.0
        for rho in ("0.0001", "0.01", "0.3", "0.35", "0.5", "0.9"):
            _, expected, _ = run_cli(capsys, "design", "--prevalence", rho, "--cap", "10000",
                                     *candidates)
            start = time.perf_counter()
            code, out, err = run_cli(capsys, "design", "--prevalence", rho,
                                     "--cap", str(2**63 - 1), *candidates)
            elapsed += time.perf_counter() - start
            assert (code, out, err) == (0, expected, ""), rho
        assert elapsed < 1.0

    def test_hypercube_cost_overflow_gives_individual_testing(self, capsys):
        # every side's approximate cost is huge or inf at d = 20
        code, out, err = run_cli(capsys, "design", "--prevalence", "0.01",
                                 "--candidates", "hypercube", "--dimension", "20")
        assert code == 0
        assert "individual" in out
        assert "no pooled design beats" in out
        assert err == ""

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

    def test_too_many_pools_exit_2(self, capsys):
        # the exact moments are summed over a support window that grows with the pool count
        code, out, err = run_cli(
            capsys, "estimate", "--pools", "100001", "--positive", "7", "--pool-size", "5"
        )
        assert code == 2
        assert out == ""
        assert "pool count" in err

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

    @pytest.mark.parametrize("design", ["dorfman", "hypercube", "sterrett", "gibbs-gower"])
    def test_presume_only_for_arrays(self, capsys, design):
        # --presume selects the presumptive array variant; elsewhere it would be ignored
        code, out, err = run_cli(
            capsys, "simulate", "--design", design, "--pool-size", "4", "--pools", "20",
            "--prevalence", "0.05", "--population", "64", "--reps", "10", "--presume",
        )
        assert code == 2
        assert out == ""
        assert "--presume" in err and "array" in err

    FOREIGN_FLAGS = [
        ("dorfman", ("--pools", "20")),
        ("array", ("--pools", "20")),
        ("hypercube", ("--pools", "20")),
        ("sterrett", ("--pools", "20")),
        ("gibbs-gower", ("--population", "64")),
        ("dorfman", ("--dimension", "3")),
        ("array", ("--dimension", "2")),
        ("sterrett", ("--dimension", "3")),
        ("gibbs-gower", ("--dimension", "3")),
    ]

    @pytest.mark.parametrize("design, flag", FOREIGN_FLAGS,
                             ids=[design + flag[0] for design, flag in FOREIGN_FLAGS])
    def test_flags_of_other_designs_rejected(self, capsys, design, flag):
        # a flag that the design does not read would otherwise be ignored
        base = {"gibbs-gower": ("--pools", "20")}.get(design, ("--population", "64"))
        code, out, err = run_cli(
            capsys, "simulate", "--design", design, "--pool-size", "4", "--prevalence", "0.05",
            "--reps", "10", *base, *flag,
        )
        assert code == 2
        assert out == ""
        assert flag[0] in err

    def test_hypercube_dimension(self, capsys):
        args = ("simulate", "--design", "hypercube", "--pool-size", "3", "--prevalence", "0.05",
                "--population", "81", "--reps", "10")
        assert json.loads(run_cli(capsys, *args)[1])["design"]["dimension"] == 3
        code, out, _ = run_cli(capsys, *args, "--dimension", "4")
        assert code == 0
        assert json.loads(out)["design"]["dimension"] == 4

    def test_presume_array(self, capsys):
        args = ("simulate", "--design", "array", "--pool-size", "4", "--prevalence", "0.05",
                "--population", "64", "--reps", "10")
        code, out, _ = run_cli(capsys, *args, "--presume")
        assert code == 0
        assert json.loads(out)["design"]["confirm_stage"] is False
        assert json.loads(run_cli(capsys, *args)[1])["design"]["confirm_stage"] is True

    def test_pools_beyond_int64_exit_2(self, capsys):
        # NumPy draws pool counts as int64
        code, out, err = run_cli(
            capsys, "simulate", "--design", "gibbs-gower", "--pool-size", "8",
            "--pools", str(2**63), "--prevalence", "0.05", "--reps", "5",
        )
        assert code == 2
        assert out == ""
        assert "num_pools" in err

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

    def test_int64_pool_cap_is_bisected(self, capsys):
        # a scan from the cap would build ~9.2e18 scenarios; the answer is 1
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, *self.BASE, "--pool-size", "8",
                               "--max-pool", "9223372036854775807", "--format", "json")
        assert time.perf_counter() - start < 0.5
        assert code == 0
        assert json.loads(out)["max_safe_pool_size"] == 1

    def test_pool_of_one_introduces_nothing(self, capsys):
        code, out, _ = run_cli(capsys, *self.BASE, "--pool-size", "1", "--format", "json")
        assert json.loads(out)["introduced_false_negative_rate"] == 0.0

    def test_aliquot_larger_than_sample_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "dilution", "--concentration", "5", "--aliquot", "30",
            "--sample-volume", "20", "--prevalence", "0.01", "--pool-size", "4",
        )
        assert code == 2

    def test_huge_pool_size_exit_2(self, capsys):
        code, out, err = run_cli(capsys, *self.BASE, "--pool-size", "9" * 300)
        assert code == 2
        assert out == ""
        assert "pool_size" in err


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
    SIMULATE = ("simulate", "--prevalence", "0.05", "--reps", "50", "--seed", "2")
    REPORTS = {
        "design": ("design", "--prevalence", "0.02", "--format", "json"),
        "design-all-candidates": ("design", "--prevalence", "0.002", "--cap", "64",
                                  "--candidates", "dorfman,array,hypercube,sterrett",
                                  "--format", "json"),
        "estimate-analysis": ("estimate", "--pools", "6", "--positive", "2", "--pool-size", "7",
                              "--format", "json"),
        "estimate-plan": ("estimate", "--plan", "--prevalence-guess", "0.01", "--format", "json"),
        "estimate-plan-cost": ("estimate", "--plan", "--prevalence-guess", "0.05",
                               "--sample-cost", "1", "--test-cost", "10", "--format", "json"),
        "dilution": ("dilution", "--concentration", "5", "--aliquot", "1", "--sample-volume",
                     "20", "--prevalence", "0.01", "--pool-size", "10", "--format", "json"),
        "simulate": (*SIMULATE, "--design", "dorfman", "--pool-size", "5", "--population", "100"),
        "simulate-noisy": (*SIMULATE, "--design", "sterrett", "--pool-size", "9",
                           "--population", "90", "--concentration", "5"),
        "simulate-gibbs-gower": (*SIMULATE, "--design", "gibbs-gower", "--pool-size", "8",
                                 "--pools", "120"),
        "tables": ("tables", "exec-classification", "--format", "json"),
    }

    def test_reports_round_trip(self, capsys):
        # every payload is plain Python values, printed as sorted JSON
        for name, argv in self.REPORTS.items():
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0, name
            assert out == json.dumps(json.loads(out), sort_keys=True) + "\n", name


def _kv(**pairs):
    return "".join(f"{key}: {value}\n" for key, value in pairs.items())


class TestExactText:
    """The text reports, byte for byte."""

    DILUTION = ("--concentration", "5", "--aliquot", "1", "--sample-volume", "20")
    CASES = [
        ("design-individual", ("design", "--prevalence", "0.5"),
         "prevalence: 0.5\narchitecture: individual\nparameters: {'batch_size': 1}\n"
         "expected tests per person: 1.00000\nefficiency gain: 1.000\n"
         "warning: prevalence above 30%: pooling gives little or no benefit here\n"
         "warning: no pooled design beats individual testing at this prevalence\n"),
        ("design-dilution-safe",
         ("design", "--prevalence", "0.01", *DILUTION, "--fn-threshold", "0.05"),
         "prevalence: 0.01\narchitecture: dorfman\nparameters: {'batch_size': 8}\n"
         "expected tests per person: 0.20226\nefficiency gain: 4.944\n"
         "warning: recommended pool of 8 exceeds the dilution-safe size 1 for an "
         "introduced false-negative threshold of 0.05\n"),
        ("estimate-saturated",
         ("estimate", "--pools", "10", "--positive", "10", "--pool-size", "8"),
         _kv(mode="analysis", p_hat=1.0, pool_positive_rate_hat=1.0, expected_p_hat=None,
             mse=None, asymptotic_variance=None, nrmse=None, saturated=True)
         + "warning: every pool tested positive; the estimate saturates at its ceiling "
           "and cannot distinguish high prevalences\n"),
        ("estimate-plan",
         ("estimate", "--plan", "--prevalence-guess", "0.01", "--target-nrmse", "0.15",
          "--cap", "20"),
         _kv(mode="plan", prevalence_guess=0.01, pool_size=20, num_pools=244,
             total_samples=4880, predicted_nrmse=0.14992269805583425,
             individual_tests_needed=4400, efficiency_gain=18.0327868852459)),
        ("estimate-plan-cost",
         ("estimate", "--plan", "--prevalence-guess", "0.05", "--sample-cost", "1",
          "--test-cost", "10"),
         _kv(mode="plan-cost", prevalence_guess=0.05, sample_cost=1.0, test_cost=10.0,
             pool_size=13, num_pools=93, total_samples=1209, objective_value=2139.0,
             predicted_nrmse=0.1494694816511891)),
        ("dilution", ("dilution", *DILUTION, "--prevalence", "0.01", "--pool-size", "10"),
         _kv(individual_false_negative_rate=0.005920529220334023,
             pooled_false_negative_rate=0.5920133070819105,
             introduced_false_negative_rate=0.5860927778615764, pool_size=10,
             threshold=0.05, max_safe_pool_size=1)
         + "warning: introduced false-negative rate 0.586 exceeds 0.05; reduce the pool "
           "size to at most 1\n"),
    ]

    @pytest.mark.parametrize("argv, expected", [c[1:] for c in CASES],
                             ids=[c[0] for c in CASES])
    def test_text_report(self, capsys, argv, expected):
        assert run_cli(capsys, *argv) == (0, expected, "")


def test_command_runs_as_a_process(capsys):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("POOLSCREEN_CONFIG", None)

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "poolscreen.cli", *argv], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=300)

    tables = run("tables", "exec-classification")
    assert tables.returncode == 0, tables.stderr
    assert tables.stdout == run_cli(capsys, "tables", "exec-classification")[1]
    assert run("design", "--prevalence", "150").returncode == 2
    infeasible = run("estimate", "--plan", "--prevalence-guess", "0.01",
                     "--target-nrmse", "0.0001")
    assert infeasible.returncode == 3
    assert "infeasible" in infeasible.stderr
