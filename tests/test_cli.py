import csv
import io
import json
import math

import numpy as np
import pytest

from latsum.cli import build_parser, main
from latsum.theta import DEFAULT_POLICY

from conftest import run_under_memory_limit

Y_HEX = math.sqrt(3.0) / 2.0


def brute_force_gaussian(x, y, u, v, alpha, reach=12):
    """E((u, v); alpha) on lattice_from_tau(x, y), summed over |k|, |l| <= reach:
    exp(-pi alpha (a^2 + 2 x a b + (x^2 + y^2) b^2) / y) at (a, b) = (k + u, l + v)."""
    k = np.arange(-reach, reach + 1)
    a, b = np.meshgrid(k + u, k + v, indexing="ij")
    q = (a * a + 2.0 * x * a * b + (x * x + y * y) * b * b) / y
    return math.fsum(np.exp(-math.pi * alpha * q).ravel().tolist())


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTheta:
    def test_hexagonal_headline(self, capsys):
        code, out, _ = run(
            capsys,
            ["theta", "--lattice", "0.5,0.8660254", "--shift",
             "0.3333333,0.3333333", "--alpha", "1"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(0.920371, abs=5e-6)
        assert payload["converged"] is True

    def test_square_origin(self, capsys):
        code, out, _ = run(capsys, ["theta", "--lattice", "0,1", "--shift", "0,0", "--alpha", "1"])
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(1.1803, abs=1e-4)

    def test_negative_alpha_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["theta", "--alpha", "-1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--alpha" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["theta", "--alpha", "inf", "--shift", "0,0"],
            ["theta", "--alpha", "nan"],
            ["theta", "--tol", "nan"],
            ["heat", "--t", "inf"],
            ["heat", "--t", "nan"],
            ["zeta", "--s", "nan"],
        ],
    )
    def test_nonfinite_argument_exits_two(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "finite" in capsys.readouterr().err

    def test_tail_not_met_exits_three(self, capsys):
        code, out, _ = run(
            capsys, ["theta", "--alpha", "1", "--max-radius", "2", "--tol", "1e-14"]
        )
        assert code == 3
        assert json.loads(out)["converged"] is False

    def test_rounding_above_tol_exits_three(self, capsys):
        # at tol 1e-30 the truncation tail fits, the rounding of a value near 0.92 does not
        code, out, _ = run(
            capsys, ["theta", "--lattice", "0.5,0.8660254037844386", "--alpha", "1", "--tol", "1e-30"]
        )
        assert code == 3
        payload = json.loads(out)
        assert payload["converged"] is False
        assert payload["tail_bound"] > 1e-16

    def test_default_shift_is_point_b(self, capsys):
        code, out, _ = run(capsys, ["theta"])
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.920371, abs=5e-6)


class TestSweep:
    ARGS = [
        "sweep", "--alpha", "1", "--x", "0:0.5:11", "--y",
        "0.8660254:2:11", "--tol", "1e-10", "--csv", "--grid-n", "16",
    ]

    def test_shape_and_header(self, capsys):
        code, out, _ = run(capsys, self.ARGS)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["x", "y", "alpha", "min_value", "argmin_u", "argmin_v", "tail_bound"]
        assert len(rows) - 1 == 121

    def test_round_trip_and_order(self, capsys):
        code, out, _ = run(capsys, self.ARGS)
        reader = csv.DictReader(io.StringIO(out))
        keys = []
        for row in reader:
            parsed = {k: float(v) for k, v in row.items()}
            # shortest round-trip serialization: parsing is lossless
            assert repr(parsed["min_value"]) == row["min_value"]
            keys.append((parsed["x"], parsed["y"], parsed["alpha"]))
        assert keys == sorted(keys)

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, self.ARGS)
        _, out2, _ = run(capsys, self.ARGS)
        assert out1 == out2

    def test_nonpositive_y_exits_two(self, capsys):
        code, _, err = run(capsys, ["sweep", "--x", "0:0.2:2", "--y", "0:-1:2"])
        assert code == 2
        assert "positive" in err

    def test_exploratory_columns(self, capsys):
        code, out, _ = run(
            capsys,
            ["sweep", "--alpha", "1", "--x", "0.5:0.5:1", "--y", "1:1.2:2",
             "--csv", "--grid-n", "16", "--exploratory"],
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][-2:] == ["value_at_a", "value_at_b"]

    def test_max_radius_caps_the_ball(self, capsys):
        caps = ["--tol", "1e-14", "--max-radius", "1"]
        _, out, _ = run(capsys, ["sweep", "--x", "0.5:0.5:1", "--y", f"{Y_HEX}:{Y_HEX}:1"] + caps)
        (swept,) = json.loads(out)
        _, out, _ = run(capsys, ["minimize", "--lattice", f"0.5,{Y_HEX}"] + caps)
        assert swept["tail_bound"] == json.loads(out)["tail_bound"]
        # the radius-1 ball leaves out most of the sum; its tail still covers it
        exact = brute_force_gaussian(0.5, Y_HEX, swept["argmin_u"], swept["argmin_v"], 1.0)
        assert abs(swept["min_value"] - exact) <= swept["tail_bound"]

    def test_unconverged_cell_exits_three(self, capsys):
        argv = ["sweep", "--x", "0.5:0.5:1", "--y", f"{Y_HEX}:{Y_HEX}:1",
                "--tol", "1e-14", "--max-radius", "1"]
        code, out, _ = run(capsys, argv)
        assert code == 3
        assert json.loads(out)[0]["tail_bound"] > 1e-14

    def test_cell_outside_domain_matches_minimize(self, capsys):
        # (0, 0.8660254) lies below the unit circle; sweep takes any y > 0
        code, out, _ = run(
            capsys,
            ["sweep", "--alpha", "1", "--x", "0:0:1", "--y", "0.8660254:0.8660254:1",
             "--grid-n", "24"],
        )
        assert code == 0
        (swept,) = json.loads(out)
        code, out, _ = run(
            capsys, ["minimize", "--lattice", "0,0.8660254", "--alpha", "1", "--grid-n", "24"]
        )
        assert code == 0
        single = json.loads(out)
        for key in ("min_value", "argmin_u", "argmin_v", "tail_bound"):
            assert swept[key] == single[key]

    @pytest.mark.parametrize("fmt", [[], ["--csv"]])
    def test_empty_alpha_list_exits_two(self, capsys, fmt):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--alpha", ",", "--x", "0.5:0.5:1", "--y", "1:1:1"] + fmt)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--alpha" in captured.err


class TestFrameBounds:
    def test_hexagonal_ratio(self, capsys):
        code, out, _ = run(capsys, ["frame-bounds", "--shape", "0.5,0.8660254", "--density", "2"])
        assert code == 0
        assert json.loads(out)["ratio"] == pytest.approx(1.259921, abs=1e-6)
        assert json.loads(out)["converged"] is True

    def test_odd_density_exits_two(self, capsys):
        code, _, err = run(capsys, ["frame-bounds", "--density", "3"])
        assert code == 2
        assert "density" in err

    def test_max_radius_exits_three(self, capsys):
        code, out, _ = run(capsys, ["frame-bounds", "--density", "2", "--max-radius", "1"])
        assert code == 3
        assert json.loads(out)["converged"] is False


class TestVerifyLemmas:
    def test_full_suite(self, capsys):
        code, out, _ = run(capsys, ["verify-lemmas", "--suite", "all"])
        assert code == 0
        payload = json.loads(out)
        assert len(payload) >= 12
        assert all(entry["pass"] for entry in payload)
        assert {"lemma_id", "params_tested", "worst_margin", "pass"} <= set(payload[0])

    def test_subset(self, capsys):
        code, out, _ = run(capsys, ["verify-lemmas", "--suite", "q1_ledger,tail_constants"])
        assert code == 0
        assert {e["lemma_id"] for e in json.loads(out)} == {"q1_ledger", "tail_constants"}

    def test_unknown_id_exits_two(self, capsys):
        code, _, err = run(capsys, ["verify-lemmas", "--suite", "nope"])
        assert code == 2
        assert "nope" in err


class TestPolicyOptions:
    @pytest.mark.parametrize(
        "argv",
        [["verify-lemmas", "--tol", "1e-9"], ["reduce", "--tau", "2.5,0.9", "--max-radius", "5"]],
    )
    def test_commands_that_do_not_sum_reject_them(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_summing_command_takes_them(self, capsys):
        code, out, _ = run(capsys, ["theta", "--tol", "1e-9", "--max-radius", "50"])
        assert code == 0
        assert json.loads(out)["converged"] is True

    def test_radius_cap_defaults_to_the_library_policy(self):
        args = build_parser().parse_args(["theta"])
        assert args.max_radius == DEFAULT_POLICY.max_radius


class TestOtherCommands:
    def test_reduce(self, capsys):
        code, out, _ = run(capsys, ["reduce", "--tau", "2.5,0.9"])
        assert code == 0
        payload = json.loads(out)
        assert payload["tau_out_re"] == pytest.approx(0.5)
        assert payload["word"] == ["Tinv", "Tinv"]

    def test_heat_routes_agree(self, capsys):
        base = ["heat", "--t", "0.08", "--z", "0.2,0.4"]
        _, out1, _ = run(capsys, base + ["--route", "gaussian"])
        _, out2, _ = run(capsys, base + ["--route", "spectral"])
        v1, v2 = json.loads(out1)["value"], json.loads(out2)["value"]
        assert v1 == pytest.approx(v2, abs=1e-10)
        # by default the shorter series is summed, and the row names it: the
        # spectral one, as covol = 1 < 4 pi t
        code, out, _ = run(capsys, base)
        assert code == 0
        assert json.loads(out) == json.loads(out2)
        # at t = 1e4 that is the spectral series, k = 1 / covol up to
        # e^(-4 pi^2 t) from one term, where the Gaussian ball is capped
        code, out, _ = run(capsys, ["heat", "--t", "1e4", "--z", "0.2,0.4"])
        assert code == 0
        row = json.loads(out)
        assert row["route"] == "spectral"
        assert abs(row["value"] - 1.0) <= row["tail_bound"]

    def test_heat_huge_t_exits_three(self):
        # the Gaussian route's ball is cut where its index box would outgrow memory
        proc = run_under_memory_limit(
            "import sys\nfrom latsum.cli import main\n"
            "sys.exit(main(['heat', '--t', '1e300', '--route', 'gaussian']))\n"
        )
        assert proc.returncode == 3, proc.stderr
        assert json.loads(proc.stdout)["converged"] is False

    def test_zeta(self, capsys):
        argv = ["zeta", "--s", "2", "--lattice", "0,1", "--z", "0.5,0.5"]
        # the default --tol 1e-10 is met
        code, out, _ = run(capsys, argv)
        assert code == 0
        default = json.loads(out)
        assert default["converged"] is True
        assert default["tail_bound"] <= 1e-10
        assert default["value"] == pytest.approx(18.0804361, abs=1e-6)
        code, out, _ = run(capsys, argv + ["--tol", "1e-8"])
        assert code == 0
        met = json.loads(out)
        assert met["converged"] is True
        assert met["tail_bound"] <= 1e-8
        assert met["value"] == pytest.approx(default["value"], abs=1e-8)

    def test_zeta_tail_not_met_exits_three(self, capsys):
        # a tolerance below the rounding term of a sum near 18.7
        code, out, _ = run(
            capsys,
            ["zeta", "--lattice", "0.5,0.8660254", "--z", "0.3333333,0.3333333",
             "--s", "1.5", "--tol", "1e-18"],
        )
        assert code == 3
        assert json.loads(out)["tail_bound"] > 1e-18

    def test_zeta_max_radius_caps_the_ball(self, capsys):
        code, out, _ = run(
            capsys,
            ["zeta", "--s", "2", "--lattice", "0,1", "--z", "0.5,0.5",
             "--tol", "1e-8", "--max-radius", "1"],
        )
        assert code == 3
        payload = json.loads(out)
        assert payload["converged"] is False
        # the radius-1 balls: the four nearest lattice points and the four
        # shortest nonzero dual vectors
        assert payload["terms_used"] == 4 + 4
        assert payload["tail_bound"] > 1e-8

    def test_born_honeycomb(self, capsys):
        code, out, _ = run(capsys, ["born", "--period", "3"])
        assert code == 0
        payload = json.loads(out)
        assert payload["charge_sum"] == pytest.approx(0.0, abs=1e-12)
        assert payload["charge_norm_sq"] == pytest.approx(9.0, abs=1e-12)
        assert payload["converged"] is True

    def test_born_max_radius_exits_three(self, capsys):
        code, out, _ = run(capsys, ["born", "--period", "3", "--max-radius", "1"])
        assert code == 3
        assert json.loads(out)["converged"] is False

    def test_born_alternating_interaction_negative(self, capsys):
        code, out, _ = run(
            capsys, ["born", "--lattice", "0,1", "--pattern", "alternating", "--period", "2"]
        )
        assert code == 0
        assert json.loads(out)["interaction_energy"] < 0

    def test_landau(self, capsys):
        code, out, _ = run(capsys, ["landau"])
        assert code == 0
        payload = json.loads(out)
        assert payload["l_hex"] == pytest.approx(0.543259, abs=1e-6)
        assert payload["product"] == pytest.approx(0.5, abs=1e-6)
        assert payload["converged"] is True

    def test_landau_max_radius_exits_three(self, capsys):
        code, out, _ = run(capsys, ["landau", "--max-radius", "1"])
        assert code == 3
        assert json.loads(out)["converged"] is False

    def test_human_format(self, capsys):
        code, out, _ = run(capsys, ["landau", "--human"])
        assert code == 0
        assert "l_hex =" in out

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run(capsys, ["landau", "--out", str(target)])
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["product"] == pytest.approx(0.5, abs=1e-6)
