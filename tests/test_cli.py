"""CLI surface: flags, schemas, exit codes, and byte determinism."""

import csv
import hashlib
import io
import json

import pytest

from blotto_alliance.cli import _dumps, _json_float, main

G1_FLAGS = ["--phi1", "1", "--phi2", "1.2", "--x1", "0.5", "--x2", "1.5"]
# G1 with every budget tripled; the adversary holds 3
G1_XA_FLAGS = ["--phi1", "1", "--phi2", "1.2", "--x1", "1.5", "--x2", "4.5", "--xa", "3"]
# G1 with the players exchanged, so analysis runs in the swapped frame
G1_SWAPPED_FLAGS = ["--phi1", "1.2", "--phi2", "1", "--x1", "1.5", "--x2", "0.5"]
# the error of an alliance march whose seed polynomials leave the float range
SEED_OVERFLOW = "(1 - x1)**2 or (1 - x2)**2 overflows (x1=1e+200, x2=1.0 against a unit adversary)"

# sha256 of stdout for fixed commands. The behaviour contract is identical
# bytes: a change that moves a digit here must name it and say why. The
# closed-form alliance march moved alliance_tau, tau_dagger and the beta
# sweep's alliance columns by up to 2.6e-9 in analyze, region and beta-sweep.
# The closed-form mutual-benefit interval moved the lower endpoint of
# analyze's mb_interval to the exact edge of the proportional band, from
# -0.45918367279181904 to -0.4591836729383591 (xa = 1) and from
# -1.3775510183754571 to -1.3775510188150772 (xa = 3), where bisection had
# stopped; provenance lost its tau_tolerance line.
GOLDEN_STDOUT = {
    "analyze-json": (
        ["analyze", *G1_FLAGS, "--beta", "0.8", "--json"],
        "b32145d4cb113134784413e50cb0da10c6a39bf1a181dc0d22745964b6527cf8",
    ),
    "analyze-json-xa": (
        ["analyze", *G1_XA_FLAGS, "--beta", "0.8", "--json"],
        "89dc3dd44649250b9f23ed6f03937e3c9bef1ebf77726a92482d552e7b782d26",
    ),
    # the interval's lower endpoint prints as 0.000000, no longer -0.000000
    "analyze-text-swapped": (
        ["analyze", *G1_SWAPPED_FLAGS, "--beta", "0.9", "--text"],
        "bbc0c5c96681cc2386224b8ba3c149e0fd38c46a8ad21eee53a5558129360aba",
    ),
    "curve": (
        ["curve", *G1_FLAGS, "--beta", "0.8", "--tau-min", "-1.5", "--tau-max", "0.5", "--steps", "401"],
        "53130435b7fefe8c18f09fde1061348c1b7788c191e7dc133ea81414a862b690",
    ),
    "curve-xa": (
        ["curve", *G1_XA_FLAGS, "--beta", "0.8", "--tau-min", "-4.5", "--tau-max", "1.5", "--steps", "401"],
        "db5fa5c764c1c5cd1fdba9431b5c0daed6bffefef28e8b3bc5ec28eedba31cf1",
    ),
    "region": (
        [
            "region", "--phi1", "1.2", "--phi2", "1", "--beta-list", "0.25,0.5,1.0",
            "--x1-min", "0.1", "--x1-max", "3.0", "--x2-min", "0.1", "--x2-max", "3.0",
            "--resolution", "40",
        ],
        "07d44c8452334b9f1183a00df54a5a726e8ad09ea5829f8db87bf0569a31d3f2",
    ),
    "beta-sweep": (
        ["beta-sweep", *G1_FLAGS, "--beta-min", "0.05", "--beta-max", "1.0", "--steps", "50"],
        "cd4ff19ecf75606b672f211912bdcf6c681de419625fcdef50d220c82ba97e99",
    ),
    "beta-sweep-xa": (
        ["beta-sweep", *G1_XA_FLAGS, "--beta-min", "0.05", "--beta-max", "1.0", "--steps", "50"],
        "a8be1177ce97ca510c898c811003cf77f3cd5d3222802974de58419a4b2fafa1",
    ),
    "beta-sweep-case-3": (
        [
            "beta-sweep", "--phi1", "2", "--phi2", "0.5", "--x1", "0.05", "--x2", "0.5",
            "--beta-min", "0.05", "--beta-max", "1.0", "--steps", "200",
        ],
        "392ad8cfe5653f109699e34800ee5ddf1ec95c16588e9171dcb1326d4ba7d0a6",
    ),
    "curve-case-4": (
        [
            "curve", "--phi1", "1", "--phi2", "2", "--x1", "0.5", "--x2", "1", "--beta", "0.7",
            "--tau-min", "-1", "--tau-max", "0.5", "--steps", "401",
        ],
        "a5d356a4c2e9e471517d9139c2c1ff546f15a54f35368875dd4d4343e83f4d61",
    ),
    # phi1 < phi2 on a box taller than wide: 3,837 of 4,800 cells in frame
    "region-phi1-below-phi2": (
        [
            "region", "--phi1", "1", "--phi2", "1.2", "--beta-list", "0.25,0.5,1.0",
            "--x1-min", "0.1", "--x1-max", "1.0", "--x2-min", "0.1", "--x2-max", "3.0",
            "--resolution", "40",
        ],
        "73668564b8164718f3c7ab900e7551b8fdd4478760985659055cfa98c6beae14",
    ),
    # five decades of budgets at phi2/phi1 = 1/15: 4,584 in-frame cells in cases 1-3
    "region-wide": (
        [
            "region", "--phi1", "3", "--phi2", "0.2", "--beta-list", "0.1,0.6,1.0",
            "--x1-min", "0.001", "--x1-max", "50", "--x2-min", "0.001", "--x2-max", "50",
            "--resolution", "40",
        ],
        "5e538fd0424db9208cffc163626ce4f6cd4c4dce7a8e7a06709808bc152e717d",
    ),
    # phi1 = phi2 puts the diagonal on the proportional ray: 102 case-4 cells
    "region-case-4-diagonal": (
        [
            "region", "--phi1", "1", "--phi2", "1", "--beta-list", "0.3,0.9",
            "--x1-min", "0.05", "--x1-max", "3", "--x2-min", "0.05", "--x2-max", "3",
            "--resolution", "60",
        ],
        "0d9902e921a960e8f503d111b626ab31103c0e2ae3a79fc9cd6844da2ad2a294",
    ),
    "verify": (
        ["verify", "--trials", "3", "--seed", "7", "--tau-step", "1e-3"],
        "351506f5f1c3741405757ced43cc51e9bf380b256b46abd71d44e40d0ec113df",
    ),
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestGoldenBytes:
    @pytest.mark.parametrize("name", list(GOLDEN_STDOUT))
    def test_stdout_unchanged(self, capsys, name):
        argv, digest = GOLDEN_STDOUT[name]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


class TestSerialization:
    def test_floats_use_17_significant_digits(self):
        assert _json_float(0.1) == "0.10000000000000001"
        assert _json_float(1.0) == "1.0"
        assert _json_float(-0.5) == "-0.5"

    def test_json_round_trips_losslessly(self):
        for x in (0.1, 1e-17, 123456.789, 0.5099407093782344, -9.0 / 22.0):
            assert json.loads(_json_float(x)) == x

    def test_document_round_trip(self):
        doc = {"a": [1.0, None, True], "b": {"c": 0.3}}
        assert json.loads(_dumps(doc)) == doc


class TestAnalyze:
    def test_lossless_reference_game(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", *G1_FLAGS, "--beta", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == "1"
        assert doc["transfer_analysis"]["mb_exists"] is True
        assert doc["case_at_zero"] == 2
        assert doc["transfer_analysis"]["mb_beta_threshold"] == pytest.approx(0.50994, abs=1e-3)

    def test_half_efficiency_has_no_mutual_transfer(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", *G1_FLAGS, "--beta", "0.5")
        assert code == 0
        doc = json.loads(out)
        assert doc["transfer_analysis"]["mb_exists"] is False
        assert doc["transfer_analysis"]["mb_interval"] is None

    def test_case_4_game_zero_alliance_transfer(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "--phi1", "1", "--phi2", "2", "--x1", "0.5",
            "--x2", "1", "--beta", "0.7",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["transfer_analysis"]["alliance_tau"] == 0.0
        assert doc["transfer_analysis"]["in_g_dagger"] is True
        assert doc["case_at_zero"] == 4

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", *G1_FLAGS, "--beta", "1", "--text")
        assert code == 0
        assert "mutual benefit: exists=True" in out

    def test_missing_parameter_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--phi1", "1", "--beta", "1")
        assert code == 2
        assert "--phi2" in err

    def test_invalid_parameter_named_in_diagnostic(self, capsys):
        code, _, err = run_cli(
            capsys, "analyze", "--phi1", "-1", "--phi2", "1.2", "--x1", "0.5",
            "--x2", "1.5", "--beta", "1",
        )
        assert code == 2
        assert "phi1" in err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_nonfinite_parameter_exits_2(self, capsys, value):
        code, out, err = run_cli(
            capsys, "analyze", "--phi1", "1", "--phi2", value, "--x1", "0.5",
            "--x2", "1.5", "--beta", "0.8",
        )
        assert code == 2
        assert out == ""
        assert "phi2 must be finite" in err

    @pytest.mark.parametrize(
        "budgets, how",
        [
            (["--x1", "1e300", "--x2", "1e-300"], "underflows to 0"),
            (["--x1", "1e200", "--x2", "1e200"], "overflows"),
        ],
    )
    def test_threshold_out_of_float_range_exits_2(self, capsys, budgets, how):
        code, out, err = run_cli(
            capsys, "analyze", "--phi1", "1e300", "--phi2", "1e-300", *budgets, "--beta", "0.5"
        )
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and f"phi1*x2**3 {how}" in err

    def test_seed_square_overflow_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "analyze", "--phi1", "1e300", "--phi2", "1", "--x1", "1e200", "--x2", "1", "--beta", "0.5"
        )
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and SEED_OVERFLOW in err

    def test_bad_beta_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "analyze", *G1_FLAGS, "--beta", "1.5")
        assert code == 2
        assert "beta" in err


class TestCurve:
    def test_reference_curves(self, capsys):
        code, out, _ = run_cli(
            capsys, "curve", *G1_FLAGS, "--beta", "1",
            "--tau-min", "-1.5", "--tau-max", "0.5", "--steps", "2000",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["tau", "du1", "du2", "u12"]
        assert len(rows) == 2000
        mutual = [r for r in rows if float(r[1]) > 0 and float(r[2]) > 0]
        assert mutual

    def test_half_efficiency_no_mutual_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "curve", *G1_FLAGS, "--beta", "0.5",
            "--tau-min", "-1.5", "--tau-max", "0.5", "--steps", "2000",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert not [r for r in rows if float(r[1]) > 0 and float(r[2]) > 0]

    def test_range_outside_domain_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "curve", *G1_FLAGS, "--beta", "1",
            "--tau-min", "-2.0", "--tau-max", "0.5", "--steps", "100",
        )
        assert code == 2
        assert "tau range" in err


class TestRegion:
    def test_schema_and_markers(self, capsys):
        code, out, _ = run_cli(
            capsys, "region", "--phi1", "1.2", "--phi2", "1",
            "--beta-list", "0.5,1.0", "--x1-min", "0.25", "--x1-max", "1.75",
            "--x2-min", "0.25", "--x2-max", "1.75", "--resolution", "7",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["beta", "x1", "x2", "in_frame", "case", "mb_exists", "tau_dagger"]
        assert len(rows) == 2 * 7 * 7
        out_of_frame = [r for r in rows if r[3] == "0"]
        assert out_of_frame
        for r in out_of_frame:
            assert r[4] == "" and r[5] == "" and r[6] == ""
        in_frame = [r for r in rows if r[3] == "1"]
        for r in in_frame:
            if r[5] == "1":
                assert float(r[6]) != 0.0

    def test_nested_regions_across_beta(self, capsys):
        code, out, _ = run_cli(
            capsys, "region", "--phi1", "1.2", "--phi2", "1",
            "--beta-list", "0.25,0.5,1.0", "--x1-min", "0.2", "--x1-max", "2.4",
            "--x2-min", "0.2", "--x2-max", "2.4", "--resolution", "12",
        )
        assert code == 0
        _, rows = parse_csv(out)
        regions = {}
        for r in rows:
            if r[3] == "1":
                regions.setdefault(float(r[0]), set())
                if r[5] == "1":
                    regions[float(r[0])].add((r[1], r[2]))
        assert regions[0.25] <= regions[0.5] <= regions[1.0]

    def test_reruns_are_byte_identical(self, capsys):
        flags = [
            "region", "--phi1", "1.2", "--phi2", "1", "--beta-list", "0.5",
            "--x1-min", "0.2", "--x1-max", "1.2", "--x2-min", "0.2",
            "--x2-max", "1.2", "--resolution", "6",
        ]
        _, first, _ = run_cli(capsys, *flags)
        _, second, _ = run_cli(capsys, *flags)
        assert first == second

    def test_threshold_out_of_float_range_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "region", "--phi1", "1", "--phi2", "1", "--beta-list", "0.5",
            "--x1-min", "1e-120", "--x1-max", "2e-120", "--x2-min", "1e-110",
            "--x2-max", "2e-110", "--resolution", "2",
        )
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "phi1*x2**3 underflows to 0" in err

    def test_seed_square_overflow_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "region", "--phi1", "1e300", "--phi2", "1", "--beta-list", "0.5",
            "--x1-min", "1e200", "--x1-max", "2e200", "--x2-min", "1", "--x2-max", "2", "--resolution", "2",
        )
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and SEED_OVERFLOW in err

    def test_beta_list_outside_unit_interval_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "region", "--phi1", "1.2", "--phi2", "1", "--beta-list", "0.5,1.5",
            "--x1-min", "0.2", "--x1-max", "1.2", "--x2-min", "0.2", "--x2-max", "1.2", "--resolution", "6",
        )
        assert code == 2 and out == ""
        assert err == "error: beta must lie in (0, 1], got 1.5\n"

    @pytest.mark.parametrize("name", ["region-wide", "region-case-4-diagonal"])
    def test_no_warning_in_a_fresh_process(self, name):
        import subprocess
        import sys

        argv, digest = GOLDEN_STDOUT[name]
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "blotto_alliance.cli", *argv], capture_output=True
        )
        assert result.returncode == 0
        assert result.stderr == b""
        assert hashlib.sha256(result.stdout).hexdigest() == digest

    def test_malformed_range_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "region", "--phi1", "1.2", "--phi2", "1", "--beta-list", "0.5",
            "--x1-min", "2.0", "--x1-max", "1.0", "--x2-min", "0.1",
            "--x2-max", "1.0", "--resolution", "5",
        )
        assert code == 2
        assert "lower" in err


class TestBetaSweep:
    def test_schema_and_monotone_alliance_max(self, capsys):
        code, out, _ = run_cli(
            capsys, "beta-sweep", *G1_FLAGS,
            "--beta-min", "0.05", "--beta-max", "1.0", "--steps", "25",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header[0] == "beta" and "max_u12" in header
        j = header.index("max_u12")
        values = [float(r[j]) for r in rows]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_threshold_out_of_float_range_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "beta-sweep", "--phi1", "1e300", "--phi2", "1e-300", "--x1", "1e300",
            "--x2", "1e-300", "--beta-min", "0.1", "--beta-max", "0.5", "--steps", "3",
        )
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "phi1*x2**3 underflows to 0" in err

    def test_seed_square_overflow_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "beta-sweep", "--phi1", "1e300", "--phi2", "1", "--x1", "1e200",
            "--x2", "1", "--beta-min", "0.1", "--beta-max", "0.5", "--steps", "2",
        )
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and SEED_OVERFLOW in err

    def test_beta_range_outside_unit_interval_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "beta-sweep", *G1_FLAGS,
            "--beta-min", "0.0", "--beta-max", "1.0", "--steps", "10",
        )
        assert code == 2
        assert "beta range" in err


class TestVerify:
    VERIFY_FLAGS = [
        "verify", "--trials", "2", "--seed", "7",
        "--tau-step", "2e-3", "--split-step", "2e-3", "--beta-list", "0.3,1.0",
    ]

    def test_beta_list_outside_unit_interval_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--trials", "1", "--beta-list", "0.5,0")
        assert code == 2 and out == ""
        assert err == "error: beta must lie in (0, 1], got 0.0\n"

    def test_small_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, *self.VERIFY_FLAGS)
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["disagreements"] == 0
        assert doc["summary"]["pairs_checked"] == 4
        assert doc["failures"] == []

    def test_reruns_are_byte_identical(self, capsys):
        _, first, _ = run_cli(capsys, *self.VERIFY_FLAGS)
        _, second, _ = run_cli(capsys, *self.VERIFY_FLAGS)
        assert first == second

    def test_fixed_case_1_game_seed(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--trials", "1", "--seed", "fixed-case-1-game",
            "--tau-step", "2e-3", "--split-step", "2e-3", "--beta-list", "0.5",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["disagreements"] == 0

    def test_string_seed_is_hashed_deterministically(self, capsys):
        flags = [
            "verify", "--trials", "1", "--seed", "some-arbitrary-label",
            "--tau-step", "2e-3", "--split-step", "2e-3", "--beta-list", "0.5",
        ]
        code, first, _ = run_cli(capsys, *flags)
        assert code == 0
        _, second, _ = run_cli(capsys, *flags)
        assert first == second

    def test_negative_seed_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--trials", "1", "--seed", "-1")
        assert code == 2
        assert out == ""
        assert "seed must be >= 0" in err

    def test_tau_step_above_a_budget_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--trials", "2", "--seed", "3", "--tau-step", "4"
        )
        assert code == 2
        assert out == ""
        assert "tau_step must be smaller than both player budgets" in err

    def test_disagreement_exits_1_and_reports_game(self, capsys, monkeypatch):
        import dataclasses

        from blotto_alliance import cli as cli_module

        true_summary = cli_module.closed_form_summary

        def corrupted(g, beta):
            closed = true_summary(g, beta)
            return dataclasses.replace(closed, alliance_value=closed.alliance_value + 0.5)

        monkeypatch.setattr(cli_module, "closed_form_summary", corrupted)
        code, out, _ = run_cli(
            capsys, "verify", "--trials", "1", "--seed", "fixed-case-2-game",
            "--tau-step", "2e-3", "--split-step", "2e-3", "--beta-list", "1.0",
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["summary"]["disagreements"] >= 1
        game = doc["failures"][0]["game"]
        assert game == {"phi1": 1.0, "phi2": 1.2, "x1": 0.5, "x2": 1.5}

    # sha256 of stdout on two failing runs, which the golden commands never
    # reach: every disagreement kind in the order the audit appends them, and
    # the positive-transfer verdict on a game that is not oriented.
    FAILING_FLAGS = [
        "verify", "--trials", "1", "--seed", "fixed-case-2-game",
        "--tau-step", "2e-3", "--split-step", "2e-3",
    ]

    def test_corrupted_summary_bytes(self, capsys, monkeypatch):
        import dataclasses

        from blotto_alliance import cli as cli_module

        true_summary = cli_module.closed_form_summary

        def corrupted(g, beta):
            closed = true_summary(g, beta)
            return dataclasses.replace(
                closed,
                mb_exists=not closed.mb_exists,
                tau_dagger=0.0,
                alliance_value=closed.alliance_value + 0.5,
                adversary_payoff_at_zero=closed.adversary_payoff_at_zero + 0.1,
            )

        monkeypatch.setattr(cli_module, "closed_form_summary", corrupted)
        code, out, _ = run_cli(capsys, *self.FAILING_FLAGS, "--beta-list", "0.3,1.0")
        assert code == 1
        assert json.loads(out)["summary"]["disagreements"] == 7
        assert (
            hashlib.sha256(out.encode("utf-8")).hexdigest()
            == "c45d7aa9eaa4791ab1a81be5bae18d9548bf46d58c23f0b4168fd8ec74b51203"
        )

    def test_mirrored_fixture_positive_tau_mutual_bytes(self, capsys, monkeypatch):
        from blotto_alliance import cli as cli_module
        from blotto_alliance.adversary_response import GameParams

        # fixed-case-2-game with the players exchanged: mutual benefit lies at tau > 0
        monkeypatch.setitem(
            cli_module.FIXED_SEED_GAMES, "fixed-case-2-game", GameParams(1.2, 1.0, 1.5, 0.5)
        )
        code, out, _ = run_cli(capsys, *self.FAILING_FLAGS, "--beta-list", "0.8,1.0")
        assert code == 1
        summary = json.loads(out)["summary"]
        assert summary["positive_tau_mutual"] == summary["disagreements"] == 2
        assert (
            hashlib.sha256(out.encode("utf-8")).hexdigest()
            == "7944df68862679a200f7dd579ab93379169ee7e8efacc2d906662d35ef19ff42"
        )


class TestConsoleScript:
    def test_installed_entry_point(self):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "blotto_alliance.cli", "analyze", *G1_FLAGS, "--beta", "1"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["transfer_analysis"]["mb_exists"] is True


class TestConfigFile:
    def test_config_supplies_flags(self, capsys, tmp_path):
        cfg = tmp_path / "game.cfg"
        cfg.write_text(
            "# reference game\nphi1 = 1\nphi2 = 1.2\nx1 = 0.5\nx2 = 1.5\nbeta = 1\n"
        )
        code, out, _ = run_cli(capsys, "analyze", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["transfer_analysis"]["mb_exists"] is True

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "game.cfg"
        cfg.write_text("phi1 = 1\nphi2 = 1.2\nx1 = 0.5\nx2 = 1.5\nbeta = 1\n")
        code, out, _ = run_cli(capsys, "analyze", "--config", str(cfg), "--beta", "0.5")
        assert code == 0
        assert json.loads(out)["transfer_analysis"]["mb_exists"] is False

    def test_unknown_key_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "game.cfg"
        cfg.write_text("phi9 = 1\n")
        code, _, err = run_cli(capsys, "analyze", "--config", str(cfg))
        assert code == 2
        assert "phi9" in err

    def test_keys_of_other_subcommands_are_ignored(self, capsys, tmp_path):
        cfg = tmp_path / "game.cfg"
        cfg.write_text(
            "phi1 = 1\nphi2 = 1.2\nx1 = 0.5\nx2 = 1.5\nbeta = 0.8\ntrials = 5\ntau-step = 1e-3\n"
        )
        code, out, _ = run_cli(capsys, "analyze", "--config", str(cfg))
        assert code == 0
        _, flags_out, _ = run_cli(capsys, "analyze", *G1_FLAGS, "--beta", "0.8")
        assert out == flags_out

    def test_format_key_and_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "game.cfg"
        cfg.write_text("phi1 = 1\nphi2 = 1.2\nx1 = 0.5\nx2 = 1.5\nbeta = 1\nformat = text\n")
        code, out, _ = run_cli(capsys, "analyze", "--config", str(cfg))
        assert code == 0
        assert out.startswith("game: ")
        code, out, _ = run_cli(capsys, "analyze", "--config", str(cfg), "--json")
        assert code == 0
        assert json.loads(out)["transfer_analysis"]["mb_exists"] is True

    def test_verify_config_matches_golden_flags(self, capsys, tmp_path):
        cfg = tmp_path / "verify.cfg"
        cfg.write_text("trials = 3\nseed = 7\ntau-step = 1e-3\nphi1 = 9\n")
        code, out, _ = run_cli(capsys, "verify", "--config", str(cfg))
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_STDOUT["verify"][1]

    def test_beta_sweep_range_from_config(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "phi1 = 1\nphi2 = 1.2\nx1 = 0.5\nx2 = 1.5\nbeta-min = 0.05\nbeta-max = 1.0\nsteps = 50\n"
        )
        code, out, _ = run_cli(capsys, "beta-sweep", "--config", str(cfg))
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_STDOUT["beta-sweep"][1]

    def test_unconvertible_value_exits_2_naming_the_key(self, tmp_path):
        import subprocess
        import sys

        cfg = tmp_path / "game.cfg"
        cfg.write_text("phi1 = 1\nphi2 = 1.2\nx1 = abc\nx2 = 1.5\nbeta = 1\n")
        result = subprocess.run(
            [sys.executable, "-m", "blotto_alliance.cli", "analyze", "--config", str(cfg)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert "x1" in result.stderr

    def test_verify_defaults_in_config_block(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--trials", "1", "--seed", "7", "--tau-step", "1e-3"
        )
        assert code == 0
        config = json.loads(out)["config"]
        assert config["beta_list"] == [0.1, 0.3, 0.5, 0.8, 1.0]
        assert config["split_step"] == 0.001
