import csv
import io
import json
import math

import pytest

from latsum import proofcheck
from latsum.cli import main

from conftest import run_under_memory_limit

Y_HEX = math.sqrt(3.0) / 2.0


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
        # no rounding meets tol 1e-30, at a minimum as at a point
        code, out, _ = run(capsys, ["minimize", "--alpha", "1", "--tol", "1e-30"])
        assert code == 3
        assert json.loads(out)["tail_bound"] > 1e-30

    def test_rounding_above_tol_exits_three(self, capsys):
        # at tol 1e-30 the truncation tail fits, the rounding of a value near 0.92 does not
        code, out, _ = run(
            capsys, ["theta", "--lattice", "0.5,0.8660254037844386", "--alpha", "1", "--tol", "1e-30"]
        )
        assert code == 3
        payload = json.loads(out)
        assert payload["converged"] is False
        assert payload["tail_bound"] > 1e-16

    @pytest.mark.parametrize("shape", ["0.5,nan", "nan,1", "0.3,inf", "inf,1"])
    def test_nonfinite_lattice_exits_two_naming_it(self, capsys, shape):
        code, out, err = run(capsys, ["theta", "--lattice", shape])
        assert code == 2
        assert out == ""
        x, y = (float(v) for v in shape.split(","))
        assert err == f"error: lattice shape ({x}, {y}) must be finite\n"

    def test_default_shift_is_point_b(self, capsys):
        code, out, _ = run(capsys, ["theta"])
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.920371, abs=5e-6)

    @pytest.mark.parametrize("command", ["theta", "minimize"])
    def test_alpha_with_infinite_reciprocal_exits_two(self, capsys, command):
        # the dual weights scale by 1/alpha, which overflows for a subnormal alpha
        code, out, err = run(capsys, [command, "--alpha", "1e-310"])
        assert code == 2
        assert out == ""
        assert "1/alpha must be finite" in err

    def test_tiny_alpha_exits_three_with_finite_json(self, capsys):
        # 1/alpha = 1e308 is finite, and so is the certificate: the constant
        # term 1e308 with a rounding bound scaled by eps before it is summed,
        # not converged at the default tolerance
        code, out, err = run(capsys, ["theta", "--alpha", "1e-308"])
        assert code == 3
        assert err == ""
        payload = json.loads(out)
        assert payload["value"] == 1e308
        assert 0.0 < payload["tail_bound"] < math.inf
        assert payload["converged"] is False


class TestSweep:
    ARGS = [
        "sweep", "--alpha", "1", "--x", "0:0.5:11", "--y",
        "0.8660254:2:11", "--tol", "1e-10", "--csv", "--grid-n", "16",
    ]

    def test_shape_and_header(self, capsys):
        code, out, _ = run(capsys, self.ARGS)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == [
            "x", "y", "alpha", "min_value", "argmin_u", "argmin_v", "tail_bound", "converged"
        ]
        assert len(rows) - 1 == 121

    def test_round_trip_and_order(self, capsys):
        code, out, _ = run(capsys, self.ARGS)
        reader = csv.DictReader(io.StringIO(out))
        keys = []
        for row in reader:
            assert row.pop("converged") == "true"
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

    def test_unconverged_cell_exits_three(self, capsys):
        argv = ["sweep", "--x", "0.5:0.5:1", "--y", f"{Y_HEX}:{Y_HEX}:1", "--tol", "1e-30"]
        code, out, _ = run(capsys, argv)
        assert code == 3
        assert json.loads(out)[0]["tail_bound"] > 1e-30

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

    @pytest.mark.parametrize("fmt", ["--json", "--csv", "--human"])
    @pytest.mark.parametrize("tol, code, flag", [([], 0, "true"), (["--tol", "1e-18"], 3, "false")])
    @pytest.mark.parametrize(
        "argv", [["minimize"], ["sweep", "--x", "0.3:0.5:2", "--y", "0.9:1.2:2"]],
        ids=lambda argv: argv[0],
    )
    def test_rows_carry_converged(self, capsys, argv, tol, code, flag, fmt):
        # every row says whether its minimum met the tolerance, and the exit
        # code follows them: the rounding of a value near 0.9 misses 1e-18
        got, out, _ = run(capsys, argv + tol + [fmt])
        assert got == code
        if fmt == "--json":
            rows = json.loads(out)
            rows = rows if argv[0] == "sweep" else [rows]
            flags = [json.dumps(row["converged"]) for row in rows]
        elif fmt == "--csv":
            flags = [row["converged"] for row in csv.DictReader(io.StringIO(out))]
        else:
            flags = [line[len("converged = "):] for line in out.splitlines()
                     if line.startswith("converged = ")]
        assert flags == [flag] * (4 if argv[0] == "sweep" else 1)

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

    def test_tail_not_met_exits_three(self, capsys):
        code, out, _ = run(capsys, ["frame-bounds", "--density", "2", "--tol", "1e-30"])
        assert code == 3
        assert json.loads(out)["converged"] is False

    @pytest.mark.parametrize(
        "argv",
        [
            ["frame-bounds", "--shape", "0.5,1e6"],
            ["frame-bounds", "--shape", "0.5,1e12"],
            ["theta", "--lattice", "0.5,1e12"],
        ],
        ids=["cell-1e6", "cell-1e12", "point-1e12"],
    )
    def test_too_elongated_shape_exits_two(self, argv):
        # no index box within the 2^21-cell cap holds a ball of radius 1: the
        # cell-wide box of the minimum is widened by the cell half-diameter
        # (about sqrt(y) / 2), the pointwise box is not
        proc = run_under_memory_limit(
            f"import sys\nfrom latsum.cli import main\nsys.exit(main({argv!r}))\n"
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        shape = tuple(float(c) for c in argv[-1].split(","))
        assert f"lattice shape {shape} is too elongated" in proc.stderr


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

    @pytest.mark.parametrize("name", list(proofcheck._THRESHOLDS))
    def test_failing_lemma_exits_four(self, capsys, monkeypatch, name):
        # with one id's rhs at half its lhs the inequality fails up to the
        # scan's end: no empirical threshold, a failing report and exit 4;
        # the shared scan reads the patched entry of each id
        stated, usage, lhs, _ = proofcheck._THRESHOLDS[name]
        monkeypatch.setitem(
            proofcheck._THRESHOLDS, name, (stated, usage, lhs, lambda a: 0.5 * lhs(a))
        )
        code, out, _ = run(capsys, ["verify-lemmas", "--suite", "alpha_thresholds"])
        assert code == 4
        (entry,) = json.loads(out)
        assert not entry["pass"] and entry["worst_margin"] < 0
        assert f"{name}: stated {stated}, empirical inf, checked 10.0" in entry["params_tested"]
        inf_notes = [note for note in entry["params_tested"].split("; ") if "empirical inf" in note]
        assert len(inf_notes) == 1

    def test_unknown_id_exits_two(self, capsys):
        code, _, err = run(capsys, ["verify-lemmas", "--suite", "nope"])
        assert code == 2
        assert "nope" in err


class TestPolicyOptions:
    @pytest.mark.parametrize(
        "argv",
        [["verify-lemmas", "--tol", "1e-9"], ["reduce", "--tau", "2.5,0.9", "--tol", "1e-9"]],
    )
    def test_commands_that_do_not_sum_reject_them(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_summing_command_takes_them(self, capsys):
        code, out, _ = run(capsys, ["theta", "--tol", "1e-9"])
        assert code == 0
        assert json.loads(out)["converged"] is True

    @pytest.mark.parametrize(
        "argv",
        [["theta"], ["minimize"], ["sweep", "--x", "0:0:1", "--y", "1:1:1"], ["frame-bounds"],
         ["heat", "--t", "1"], ["zeta", "--s", "2"], ["born"], ["landau"], ["verify-lemmas"],
         ["reduce", "--tau", "2.5,0.9"]],
        ids=lambda argv: argv[0],
    )
    def test_no_command_takes_a_radius_cap(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--max-radius", "50"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --max-radius 50" in capsys.readouterr().err


class TestOtherCommands:
    def test_reduce(self, capsys):
        code, out, _ = run(capsys, ["reduce", "--tau", "2.5,0.9"])
        assert code == 0
        payload = json.loads(out)
        assert payload["tau_out_re"] == pytest.approx(0.5)
        assert payload["word"] == ["Tinv", "Tinv"]

    @pytest.mark.parametrize("tau", ["nan,1", "inf,1", "-inf,1", "1,nan", "1,inf", "1,-inf"])
    def test_reduce_nonfinite_tau_exits_two_naming_it(self, capsys, tau):
        code, out, err = run(capsys, ["reduce", f"--tau={tau}"])
        assert code == 2
        assert out == ""
        re_part, im_part = (float(v) for v in tau.split(","))
        if im_part < 0:
            assert err == f"error: Im(tau) must be positive, got {im_part}\n"
        else:
            assert err == f"error: tau must be finite, got {complex(re_part, im_part)}\n"

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

    def test_zeta_sums_the_direct_route_only(self, capsys):
        # the quadrature route is a cross-check of the library, which never
        # certifies (test_applications: test_quadrature_route_never_converges)
        code, out, _ = run(capsys, ["zeta", "--s", "3"])
        assert code == 0
        assert list(json.loads(out)) == ["value", "tail_bound", "terms_used", "converged", "s"]
        with pytest.raises(SystemExit) as exc:
            main(["zeta", "--s", "3", "--method", "quadrature"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --method quadrature" in capsys.readouterr().err

    def test_zeta_overflow_exits_two(self, capsys):
        # Gamma(300) overflows a float
        code, out, err = run(capsys, ["zeta", "--s", "300"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_zeta_direct_overflow_exits_two(self, capsys):
        # Gamma(170) is finite, the direct route's powers X^(s-1) are not
        code, out, err = run(capsys, ["zeta", "--s", "170"])
        assert code == 2
        assert out == ""
        assert err == "error: the direct Epstein zeta overflows the float range at s = 170.0\n"

    def test_theta_division_by_zero_exits_two(self, capsys):
        # y^2 underflows to 0 in the default shift, point b
        code, out, err = run(capsys, ["theta", "--lattice", "0,1e-300"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_born_honeycomb(self, capsys):
        code, out, _ = run(capsys, ["born", "--period", "3"])
        assert code == 0
        payload = json.loads(out)
        assert payload["charge_sum"] == pytest.approx(0.0, abs=1e-12)
        assert payload["charge_norm_sq"] == pytest.approx(9.0, abs=1e-12)
        assert payload["converged"] is True

    def test_born_tail_not_met_exits_three(self, capsys):
        code, out, _ = run(capsys, ["born", "--period", "3", "--tol", "1e-30"])
        assert code == 3
        assert json.loads(out)["converged"] is False

    @pytest.mark.parametrize("period", ["0", "-2"])
    def test_born_period_below_one_exits_two(self, capsys, period):
        code, out, err = run(capsys, ["born", "--pattern", "alternating", "--period", period])
        assert code == 2
        assert out == ""
        assert err == f"error: the period must be at least 1, got {period}\n"

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

    def test_landau_tail_not_met_exits_three(self, capsys):
        code, out, _ = run(capsys, ["landau", "--tol", "1e-30"])
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

    @pytest.mark.parametrize("target", ["missing/x.json", "."], ids=["missing-dir", "directory"])
    def test_unwritable_out_exits_two(self, capsys, tmp_path, target):
        # the OSError from opening --out is a usage error: exit 2, one error line
        path = str(tmp_path / target)
        code, out, err = run(capsys, ["reduce", "--tau", "2.5,0.9", "--out", path])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(tmp_path) in err
