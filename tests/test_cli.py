"""CLI surface: flags, schemas, exit codes, and byte determinism."""

import csv
import hashlib
import io
import json

import pytest

from blotto_alliance.adversary_response import GameParams
from blotto_alliance.cli import _dumps, _json_float, main
from blotto_alliance.transfer_engine import analyze
from support import decimal_thresholds

G1_FLAGS = ["--phi1", "1", "--phi2", "1.2", "--x1", "0.5", "--x2", "1.5"]
# G1 with every budget tripled; the adversary holds 3
G1_XA_FLAGS = ["--phi1", "1", "--phi2", "1.2", "--x1", "1.5", "--x2", "4.5", "--xa", "3"]
# G1 with the players exchanged, so analysis runs in the swapped frame
G1_SWAPPED_FLAGS = ["--phi1", "1.2", "--phi2", "1", "--x1", "1.5", "--x2", "0.5"]
# G1 with the valuations exchanged: the reference game of the benchmark's figures workload
FIGURES_FLAGS = ["--phi1", "1.2", "--phi2", "1", "--x1", "0.5", "--x2", "1.5"]
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
# stopped; provenance lost its tau_tolerance line. Writing the case-3
# stationary ratio as beta*beta*phi1/phi2 and the case-3 alliance threshold
# as sqrt(phi2*x1/(phi1*x2)) moved, by rounding only, tau_dagger in 44 cells
# of region, 1 of region-wide and 81 of region-case-4-diagonal (each by at
# most 2.3e-16), and in beta-sweep-case-3 u1_at_alliance_opt in 22 rows,
# u2_at_alliance_opt in 26 and max_u12 in 15 (each by at most 3 ulp); no
# case, in_frame, mb_exists or alliance_nonzero cell changed. Reading the
# beta sweep's four maxima at closed-form candidate transfers in place of a
# 2,002-point grid raised them in all three beta-sweep commands, by at most
# 4.6e-4 (max_u1_mutual), 5.4e-8 (max_u2_mutual), 3.8e-4 (max_u1_any) and
# 5.4e-8 (max_u2_any); max_u1_mutual fell by 9.7e-14 in one row of
# beta-sweep, where the grid's slack had admitted a point at which player 2
# lost. No other column changed. Writing the mutual-benefit threshold
# through R = sqrt(phi2/phi1 * x1/x2) moved mb_beta_threshold in analyze-json
# and analyze-json-xa by one ulp, from 0.50994070937823444 to
# 0.50994070937823455, by rounding only. Reading every transfer in the
# adversary's units moved curve-xa and beta-sweep-xa, whose xa = 3 rounds
# tau/3 and x/3 differently: curve-xa's last row moved to the unit-adversary
# edge, tau 1.4999999999985 -> 1.4999999999970002 and u12 by 2.3e-7, its
# first row's tau in the 17th digit, and 128 other rows by rounding only
# (at most 2.0e-16*(phi1 + phi2)); beta-sweep-xa's max_u1_any and
# max_u1_mutual moved by at most 2.7e-13*(phi1 + phi2) at that edge and its
# other columns by rounding only. beta-sweep-xa now equals beta-sweep byte
# for byte, as its game is G1 in units of 3. Taking case 3's split as
# 1/(1 + sqrt(phi2/phi1 * x2/x1)) moved, by rounding only, every row of
# beta-sweep-case-3 (at most 6.1e-16 relative, in u2_at_alliance_opt), u1
# and u2 of analyze-tiny-budgets in their last digits, and du1 and du2
# in all three rows of curve-tiny-budgets.
GOLDEN_STDOUT = {
    "analyze-json": (
        ["analyze", *G1_FLAGS, "--beta", "0.8", "--json"],
        "7707a6bad28eee842fe7379e11b037fbafad2b9b049346b61d59bd3dedad933f",
    ),
    "analyze-json-xa": (
        ["analyze", *G1_XA_FLAGS, "--beta", "0.8", "--json"],
        "7d0926ee97e76c86de6cbff6c0b773d9daf341391c5a13cc36eed791f7213d99",
    ),
    # the interval's lower endpoint prints as 0.000000, no longer -0.000000
    "analyze-text-swapped": (
        ["analyze", *G1_SWAPPED_FLAGS, "--beta", "0.9", "--text"],
        "bbc0c5c96681cc2386224b8ba3c149e0fd38c46a8ad21eee53a5558129360aba",
    ),
    # case 3, swapped, against a non-unit adversary: mutual benefit and the alliance
    # march share their zero-transfer work here. CI checks it through the console script.
    "analyze-case-3-swapped": (
        [
            "analyze", "--phi1", "0.016601198819119242", "--phi2", "729841.7476219544",
            "--x1", "7.883419048024603", "--x2", "4.570722311590334e-06", "--xa", "6242.757586339481",
            "--beta", "0.5", "--json",
        ],
        "967093e0c99dc131661ec1f983be3829835f30e12cb0472f1caabba168b5e9b0",
    ),
    "curve": (
        ["curve", *G1_FLAGS, "--beta", "0.8", "--tau-min", "-1.5", "--tau-max", "0.5", "--steps", "401"],
        "53130435b7fefe8c18f09fde1061348c1b7788c191e7dc133ea81414a862b690",
    ),
    "curve-xa": (
        ["curve", *G1_XA_FLAGS, "--beta", "0.8", "--tau-min", "-4.5", "--tau-max", "1.5", "--steps", "401"],
        "b73d77fcd1dd648e067d6a901f71e979da5c9d52a20a09fd72a5f7bfae963b75",
    ),
    "region": (
        [
            "region", "--phi1", "1.2", "--phi2", "1", "--beta-list", "0.25,0.5,1.0",
            "--x1-min", "0.1", "--x1-max", "3.0", "--x2-min", "0.1", "--x2-max", "3.0",
            "--resolution", "40",
        ],
        "9a3cf705eefc1ad0b63cc34a74ff6011e45a80cc45cff48e9ffa02f277b8d9d9",
    ),
    "beta-sweep": (
        ["beta-sweep", *G1_FLAGS, "--beta-min", "0.05", "--beta-max", "1.0", "--steps", "50"],
        "a3fc5ed3e4e7938969070f634bbe03cff8f12142a1da988f6ef8a31cba4206c3",
    ),
    "beta-sweep-xa": (
        ["beta-sweep", *G1_XA_FLAGS, "--beta-min", "0.05", "--beta-max", "1.0", "--steps", "50"],
        "a3fc5ed3e4e7938969070f634bbe03cff8f12142a1da988f6ef8a31cba4206c3",
    ),
    "beta-sweep-case-3": (
        [
            "beta-sweep", "--phi1", "2", "--phi2", "0.5", "--x1", "0.05", "--x2", "0.5",
            "--beta-min", "0.05", "--beta-max", "1.0", "--steps", "200",
        ],
        "b9b295999ccbc62d7cd8d3f0e1da26d24bb881c662fe5aece59524162083e1ed",
    ),
    "curve-case-4": (
        [
            "curve", "--phi1", "1", "--phi2", "2", "--x1", "0.5", "--x2", "1", "--beta", "0.7",
            "--tau-min", "-1", "--tau-max", "0.5", "--steps", "401",
        ],
        "a5d356a4c2e9e471517d9139c2c1ff546f15a54f35368875dd4d4343e83f4d61",
    ),
    # the benchmark's curve size, on its reference pair (1.2, 1), at both of its betas
    "curve-2001-beta-0.5": (
        ["curve", *FIGURES_FLAGS, "--beta", "0.5", "--tau-min", "-1.5", "--tau-max", "0.5", "--steps", "2001"],
        "961e6487454152fd631d8c791b884c12771e3ace0bc39bd39309949a26f2b672",
    ),
    "curve-2001-beta-1": (
        ["curve", *FIGURES_FLAGS, "--beta", "1", "--tau-min", "-1.5", "--tau-max", "0.5", "--steps", "2001"],
        "cc6f490682d0c7f86dcfd56c3fa74f586d77e49e1f773f0355ec48d12fc7d8f8",
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
        "f8ea0c00411034c9737157bb96c71d0612270b6a796bdfef85e4a0b21104cf8a",
    ),
    # phi1 = phi2 puts the diagonal on the proportional ray: 102 case-4 cells
    "region-case-4-diagonal": (
        [
            "region", "--phi1", "1", "--phi2", "1", "--beta-list", "0.3,0.9",
            "--x1-min", "0.05", "--x1-max", "3", "--x2-min", "0.05", "--x2-max", "3",
            "--resolution", "60",
        ],
        "120e08a0e2c4433d9c61022dd8277bf1ea45c45f8533955b1b9427bfa4b6c573",
    ),
    "verify": (
        ["verify", "--trials", "3", "--seed", "7", "--tau-step", "1e-3"],
        "351506f5f1c3741405757ced43cc51e9bf380b256b46abd71d44e40d0ec113df",
    ),
    # Budgets at or below 1e-12, where an edge of 1e-12 inverted the domain:
    # analyze raised a bare "math domain error", region reported tau_dagger
    # +9e-13 and curve printed every row at tau -9e-13. CI runs these three too.
    "analyze-tiny-budgets": (
        ["analyze", "--phi1", "1", "--phi2", "1", "--x1", "1e-14", "--x2", "1e-13", "--beta", "0.5", "--json"],
        "bcb5a67589369cbabd102d3c1e653c6626c792829a958bfc710bafc7b07ffc13",
    ),
    "region-tiny-budgets": (
        [
            "region", "--phi1", "1", "--phi2", "1", "--beta-list", "0.5", "--x1-min", "1e-14",
            "--x1-max", "2e-14", "--x2-min", "1e-13", "--x2-max", "2e-13", "--resolution", "2",
        ],
        "1edd22a2e27321eac4a11774b5756fbd908bc1b60ab045ec293918ebb0497a4a",
    ),
    "curve-tiny-budgets": (
        [
            "curve", "--phi1", "1", "--phi2", "1", "--x1", "1e-13", "--x2", "1e-12", "--beta", "0.5",
            "--tau-min=-1e-12", "--tau-max", "1e-13", "--steps", "3",
        ],
        "aadddb374945f4c943c23cdcc3092eec98618d4e598f6e2a11ecf9a26cd5888f",
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

    # the threshold once divided by phi1*x2**3, which underflows to 0 at the first game and overflows at the second
    @pytest.mark.parametrize("x1, x2", [("1e-120", "1e-110"), ("1e200", "1e200")], ids=["tiny-budgets", "huge-budgets"])
    def test_former_threshold_range_errors_are_finite(self, capsys, x1, x2):
        code, out, _ = run_cli(capsys, "analyze", "--phi1", "1", "--phi2", "1", "--x1", x1, "--x2", x2, "--beta", "0.5")
        assert code == 0
        threshold = json.loads(out)["transfer_analysis"]["mb_beta_threshold"]
        exact = min(decimal_thresholds(1.0, 1.0, float(x1), float(x2))[0])
        assert threshold == pytest.approx(float(exact), rel=1e-15)

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

    # a case-2 game where phi1*phi2 once underflowed, a case-3 game where it once overflowed
    @pytest.mark.parametrize("phi, x1, x2", [("1e-200", "0.5", "1.5"), ("1e160", "0.05", "0.5")])
    def test_common_phi_scale_changes_only_the_gain(self, capsys, phi, x1, x2):
        import subprocess
        import sys

        def flags(value):
            return ["analyze", "--phi1", value, "--phi2", value, "--x1", x1, "--x2", x2, "--beta", "0.5"]

        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "blotto_alliance.cli", *flags(phi)], capture_output=True
        )
        assert result.returncode == 0 and result.stderr == b""
        got = json.loads(result.stdout)["transfer_analysis"]
        code, out, _ = run_cli(capsys, *flags("1"))
        want = json.loads(out)["transfer_analysis"]
        assert code == 0 and got.pop("alliance_payoff_gain") > 0.0
        del want["alliance_payoff_gain"]
        assert got == want


class TestBudgetRatioRange:
    """Every command that takes --xa exits 2 with one line where x/xa leaves the float range."""

    # at 1e300/1e-100 analyze once named x2 and curve printed nan rows; at 1e-300/1e100 curve
    # and beta-sweep raised a bare ZeroDivisionError
    @pytest.mark.parametrize("command", [
        ["analyze", "--beta", "0.5"],
        ["curve", "--beta", "0.5", "--tau-min=-1", "--tau-max", "1", "--steps", "3"],
        ["beta-sweep", "--beta-min", "0.1", "--beta-max", "0.5", "--steps", "3"],
    ], ids=["analyze", "curve", "beta-sweep"])
    @pytest.mark.parametrize("budget, xa", [("1e300", "1e-100"), ("1e-300", "1e100")], ids=["overflow", "underflow"])
    @pytest.mark.parametrize("name", ["x1", "x2"])
    def test_exits_2_naming_the_ratio(self, capsys, command, name, budget, xa):
        budgets = {"x1": "0.5", "x2": "1.5", name: budget}
        code, out, err = run_cli(
            capsys, *command, "--phi1", "1", "--phi2", "1.2", "--x1", budgets["x1"], "--x2", budgets["x2"], "--xa", xa
        )
        assert code == 2 and out == ""
        assert err == f"error: {name}/adversary_budget leaves the float range: {float(budget)}/{float(xa)}\n"


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

    def test_fields_are_float_reprs(self, capsys):
        code, out, _ = run_cli(
            capsys, "curve", *G1_FLAGS, "--beta", "0.8",
            "--tau-min", "-1.5", "--tau-max", "0.5", "--steps", "101",
        )
        assert code == 0
        assert "np.float64(" not in out
        _, rows = parse_csv(out)
        assert len(rows) == 101
        for row in rows:
            assert len(row) == 4
            assert all(field == repr(float(field)) for field in row)

    def test_negative_tau_min_in_exponent_notation(self, capsys):
        # "--tau-min -1e-06" reads -1e-06 as an option, so the value is attached with "="
        code, out, _ = run_cli(
            capsys, "curve", *G1_FLAGS, "--beta", "1",
            "--tau-min=-1e-06", "--tau-max", "0.5", "--steps", "3",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert [row[0] for row in rows] == ["-1e-06", "0.2499995", "0.499999999999"]

    def test_range_outside_domain_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "curve", *G1_FLAGS, "--beta", "1",
            "--tau-min", "-2.0", "--tau-max", "0.5", "--steps", "100",
        )
        assert code == 2
        assert "tau range" in err

    def test_last_row_is_tau_max(self, capsys):
        # -1.425 + 1.725*2/2 rounds to 0.30000000000000004
        code, out, err = run_cli(
            capsys, "curve", *G1_FLAGS, "--beta", "0.8",
            "--tau-min", "-1.425", "--tau-max", "0.3", "--steps", "3",
        )
        assert code == 0 and err == ""
        _, rows = parse_csv(out)
        assert len(rows) == 3 and float(rows[-1][0]) == 0.3


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

    def test_last_budgets_are_the_maxima(self, capsys):
        # 0.075 + 0.925*82/82 rounds to 1.0000000000000002
        code, out, err = run_cli(
            capsys, "region", "--phi1", "1", "--phi2", "1.2", "--beta-list", "0.5",
            "--x1-min", "0.075", "--x1-max", "1", "--x2-min", "0.075", "--x2-max", "1", "--resolution", "83",
        )
        assert code == 0 and err == ""
        _, rows = parse_csv(out)
        assert len(rows) == 83 * 83
        assert max(float(r[1]) for r in rows) == float(rows[-1][1]) == 1.0
        assert max(float(r[2]) for r in rows) == float(rows[-1][2]) == 1.0
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

    def test_budgets_below_1e_100_match_analyze(self, capsys):
        code, out, _ = run_cli(
            capsys, "region", "--phi1", "1", "--phi2", "1", "--beta-list", "0.5",
            "--x1-min", "1e-120", "--x1-max", "2e-120", "--x2-min", "1e-110",
            "--x2-max", "2e-110", "--resolution", "2",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 4
        for beta, x1, x2, in_frame, case, mb, tau in rows:
            analysis = analyze(GameParams(1.0, 1.0, float(x1), float(x2)), float(beta))
            assert in_frame == "1" and case == str(int(analysis.case_at_zero)) == "3"
            assert mb == str(int(analysis.mb_exists)) and float(tau) == analysis.alliance_tau

    def test_seed_square_overflow_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "region", "--phi1", "1e300", "--phi2", "1", "--beta-list", "0.5",
            "--x1-min", "1e200", "--x1-max", "2e200", "--x2-min", "1", "--x2-max", "2", "--resolution", "2",
        )
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and SEED_OVERFLOW in err

    def test_names_the_first_failing_cell_as_analyze_does(self, capsys):
        # the marches of both cells at x2 = 1 overflow; the error names the first
        code, out, err = run_cli(
            capsys, "region", "--phi1", "1e300", "--phi2", "1", "--beta-list", "0.5",
            "--x1-min", "1e200", "--x1-max", "2e200", "--x2-min", "1", "--x2-max", "1e103", "--resolution", "2",
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

    def test_budgets_below_1e_100_run(self, capsys):
        # a case-3 game with threshold 2R + x1/x2 = 2.00001e-05: every beta transfers, to mutual benefit
        code, out, _ = run_cli(
            capsys, "beta-sweep", "--phi1", "1", "--phi2", "1", "--x1", "1e-120",
            "--x2", "1e-110", "--beta-min", "0.1", "--beta-max", "0.5", "--steps", "3",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert len(rows) == 3
        assert all(r[header.index("mb_exists")] == r[header.index("alliance_nonzero")] == "1" for r in rows)
        assert all(float(r[header.index("max_u12")]) > float(r[header.index("u12_nominal")]) for r in rows)

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

    def test_last_row_is_beta_max(self, capsys):
        # 0.075 + 0.925*82/82 rounds to 1.0000000000000002
        code, out, err = run_cli(
            capsys, "beta-sweep", *G1_FLAGS,
            "--beta-min", "0.075", "--beta-max", "1", "--steps", "83",
        )
        assert code == 0 and err == ""
        _, rows = parse_csv(out)
        assert len(rows) == 83 and float(rows[-1][0]) == 1.0


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

    def test_infinite_split_step_exits_2_before_any_scan(self, capsys, monkeypatch):
        from blotto_alliance import oracle

        def no_scan(*args):
            raise AssertionError("the oracle scanned with an unusable split step")

        monkeypatch.setattr(oracle, "transfer_grid_scan", no_scan)
        code, out, err = run_cli(capsys, "verify", "--trials", "1", "--split-step", "inf")
        assert code == 2 and out == ""
        assert err == "error: split_step must lie in (0, inf), got inf\n"

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
        # a comment may follow a value on its line
        cfg.write_text(
            "# the recorded audit\ntrials = 3 # three games\nseed = 7  # the recorded seed\ntau-step = 1e-3\nphi1 = 9\n"
        )
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


REGION_FLAGS = [
    "region", "--phi1", "1.2", "--phi2", "1", "--beta-list", "0.5", "--x1-min", "0.1", "--x1-max", "1",
    "--x2-min", "0.1", "--x2-max", "1", "--resolution", "3",
]
CURVE_FLAGS = ["curve", *G1_FLAGS, "--beta", "0.8", "--tau-min", "-1", "--tau-max", "0.5", "--steps", "5"]


def with_flag(argv, flag, value):
    """argv with the value after flag replaced."""
    out = list(argv)
    out[out.index(flag) + 1] = value
    return out


@pytest.mark.parametrize(
    "argv, config, error",
    [
        (with_flag(REGION_FLAGS, "--x1-min", "0"), None, "axis x1: lower must be positive for budget axes"),
        (with_flag(REGION_FLAGS, "--phi1", "-1"), None, "phi1 and phi2 must be positive"),
        (
            ["region", "--phi1", "1", "--phi2", "inf", "--beta-list", "0.5", "--x1-min", "0.5", "--x1-max", "1",
             "--x2-min", "0.5", "--x2-max", "1", "--resolution", "2"],
            None,
            "phi1 and phi2 must be positive and finite, got 1.0 and inf",
        ),
        (with_flag(REGION_FLAGS, "--x1-max", "inf"), None, "axis x1: upper must be finite, got inf"),
        (with_flag(CURVE_FLAGS, "--steps", "1"), None, "steps must be >= 2, got 1"),
        (
            ["beta-sweep", *G1_FLAGS, "--beta-min", "0.1", "--beta-max", "1", "--steps", "1"],
            None,
            "steps must be >= 2, got 1",
        ),
        (with_flag(CURVE_FLAGS, "--tau-min", "0.6"), None, "tau range must satisfy lo < hi"),
        (["verify", "--trials", "0"], None, "trials must be >= 1, got 0"),
        (["verify", "--trials", "1", "--beta-list", "x"], None, "malformed beta list 'x'"),
        (["verify", "--trials", "1", "--beta-list", ","], None, "beta list must be nonempty"),
        (["analyze", "--config", "{cfg}"], "phi1 1\n", "{cfg}:1: expected 'key = value', got 'phi1 1'"),
        (["analyze", "--config", "{cfg}"], None, "cannot read config file {cfg}: "),
        (["analyze", "--config", "{cfg}"], "format = xml\n", "config key 'format' takes json or text, got 'xml'"),
    ],
    ids=[
        "region-x1-min", "region-phi1", "region-phi2-inf", "region-x1-max-inf", "curve-steps", "beta-sweep-steps",
        "curve-tau-range",
        "verify-trials", "verify-beta-list", "verify-empty-beta-list", "config-line", "config-missing",
        "config-format",
    ],
)
def test_rejected_input_exits_2_with_one_line(capsys, tmp_path, argv, config, error):
    cfg = tmp_path / "game.cfg"
    if config is not None:
        cfg.write_text(config)
    code, out, err = run_cli(capsys, *(a.format(cfg=cfg) for a in argv))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith(f"error: {error.format(cfg=cfg)}")
