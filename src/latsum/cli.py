"""Command-line surface with machine-readable output.

Every command emits one JSON object, a JSON array, or CSV rows (RFC-4180
style, '.' decimal separator).  Floats are serialized with shortest
round-trip precision, so identical invocations produce byte-identical
output; a NaN or infinite result is an error, not output.  Exit codes:
0 success, 2 argument/validation error (an arithmetic overflow or division
by zero, or an --out path that cannot be written, included), 3 numerical
tolerance not met, 4 lemma-suite failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import applications as app
from . import proofcheck
from .errors import LatSumError
from .lattice import (
    PhasePoint,
    lattice_from_tau,
    reduce_to_fundamental,
    special_point_a,
    special_point_b,
)
from .optimize import MinResult, minimize_over_cell, sweep_fundamental_domain
from .theta import TruncationPolicy, theta_charged, theta_shifted

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_TOLERANCE = 3
EXIT_LEMMA = 4


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text}")
    return value


def _pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'a,b', got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected numbers in {text!r}") from exc


def _float_list(text: str) -> list[float]:
    try:
        values = [float(p) for p in text.split(",") if p]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers: {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError(f"expected at least one number, got {text!r}")
    return values


def _linspace_triple(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected start:stop:count, got {text!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad triple {text!r}") from exc
    if count < 1:
        raise argparse.ArgumentTypeError("count must be at least 1")
    return [float(v) for v in np.linspace(start, stop, count)]


def _format_value(v) -> str:
    if isinstance(v, np.floating):
        v = float(v)
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _emit(rows: list[dict], args, single: bool = False) -> None:
    for key, v in (item for row in rows for item in row.items()):
        if isinstance(v, float) and not math.isfinite(v):
            raise ValueError(f"{key} is {v}, not a finite number")
    if args.csv:
        lines = [",".join(rows[0].keys())]
        for row in rows:
            lines.append(",".join(_format_value(v) for v in row.values()))
        text = "\n".join(lines) + "\n"
    elif args.human:
        blocks = []
        for row in rows:
            blocks.append("\n".join(f"{k} = {_format_value(v)}" for k, v in row.items()))
        text = ("\n\n".join(blocks)) + "\n"
    else:
        payload = rows[0] if single else rows
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_output(p: argparse.ArgumentParser) -> None:
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON output (default)")
    fmt.add_argument("--csv", action="store_true", help="CSV output")
    fmt.add_argument("--human", action="store_true", help="key = value lines")
    p.add_argument("--out", metavar="PATH", help="write output to a file")


def _add_summing(p: argparse.ArgumentParser) -> None:
    """The output options and the tolerance of a command that sums."""
    _add_output(p)
    p.add_argument(
        "--tol", type=_positive_float, default=1e-10, help="target tail tolerance"
    )


def _policy(args) -> TruncationPolicy:
    return TruncationPolicy(target_tol=args.tol)


def _exit_code(converged: bool) -> int:
    """Exit code of a command whose result carries a convergence flag."""
    return EXIT_OK if converged else EXIT_TOLERANCE


def _certified_row(cv, extra: dict | None = None) -> dict:
    row = {
        "value": cv.value,
        "tail_bound": cv.tail_bound,
        "terms_used": cv.terms_used,
        "converged": cv.converged,
    }
    if extra:
        row.update(extra)
    return row


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_theta(args) -> int:
    x, y = args.lattice
    lat = lattice_from_tau(x, y)
    if args.shift is None:
        b = special_point_b(x, y)
    else:
        b = PhasePoint(args.shift[0], args.shift[1])
    fn = theta_charged if args.charged else theta_shifted
    cv = fn(lat, b, args.alpha, _policy(args))
    _emit([_certified_row(cv)], args, single=True)
    return _exit_code(cv.converged)


def _min_row(x: float, y: float, alpha: float, res: MinResult) -> dict:
    """The keys that ``minimize`` and ``sweep`` share for one torus minimum."""
    return {
        "x": x,
        "y": y,
        "alpha": alpha,
        "min_value": res.value.value,
        "argmin_u": res.argmin.u,
        "argmin_v": res.argmin.v,
        "tail_bound": res.value.tail_bound,
        "converged": res.value.converged,
    }


def _cmd_minimize(args) -> int:
    x, y = args.lattice
    res = minimize_over_cell(lattice_from_tau(x, y), args.alpha, args.grid_n, _policy(args))
    row = _min_row(x, y, args.alpha, res)
    row["grid_resolution"] = res.grid_resolution
    row["refinement_steps"] = res.refinement_steps
    _emit([row], args, single=True)
    return _exit_code(res.value.converged)


def _cmd_sweep(args) -> int:
    pol = _policy(args)
    records = sweep_fundamental_domain(args.alpha, args.x, args.y, args.grid_n, pol)
    rows = []
    for (x, y, alpha), res in records:
        row = _min_row(x, y, alpha, res)
        if args.exploratory:
            lat = lattice_from_tau(x, y)
            row["value_at_a"] = theta_shifted(lat, special_point_a(x, y), alpha, pol).value
            row["value_at_b"] = theta_shifted(lat, special_point_b(x, y), alpha, pol).value
        rows.append(row)
    _emit(rows, args)
    return _exit_code(all(res.value.converged for _, res in records))


def _cmd_frame_bounds(args) -> int:
    x, y = args.shape
    fb = app.gabor_frame_bounds(x, y, args.density, _policy(args))
    row = {
        "x": x,
        "y": y,
        "density": fb.density,
        "lower_A": fb.lower_A,
        "upper_B": fb.upper_B,
        "ratio": fb.ratio,
        "argmin_u": fb.argmin_z.u,
        "argmin_v": fb.argmin_z.v,
        "converged": fb.converged,
    }
    _emit([row], args, single=True)
    return _exit_code(fb.converged)


def _cmd_heat(args) -> int:
    x, y = args.lattice
    u, v = args.z
    lat = lattice_from_tau(x, y)
    route = args.route or app.heat_route(lat, args.t)
    cv = app.heat_kernel_torus(lat, PhasePoint(u, v), args.t, _policy(args), route=route)
    _emit([_certified_row(cv, {"route": route, "t": args.t})], args, single=True)
    return _exit_code(cv.converged)


def _cmd_zeta(args) -> int:
    x, y = args.lattice
    u, v = args.z
    cv = app.epstein_zeta_shifted(lattice_from_tau(x, y), PhasePoint(u, v), args.s, _policy(args))
    _emit([_certified_row(cv, {"s": args.s})], args, single=True)
    return _exit_code(cv.converged)


def _cmd_born(args) -> int:
    x, y = args.lattice
    lat = lattice_from_tau(x, y)
    if args.pattern == "honeycomb":
        eps = app.epsilon_opt_hexagonal(args.period)
    else:
        if args.period % 2 != 0:
            raise LatSumError("alternating pattern needs an even period")
        m1, m2 = np.meshgrid(np.arange(args.period), np.arange(args.period), indexing="ij")
        eps = app.ChargeDistribution(args.period, np.where((m1 + m2) % 2 == 0, 1.0, -1.0))
    p = app.CMPotential.gaussian(args.node_alpha)
    eps.validate()
    table, converged = app.born_interaction_table(lat, eps.period_N, p, _policy(args))
    energy = app.born_energy_from_table(table, eps)
    row = {
        "pattern": args.pattern,
        "period": args.period,
        "node_alpha": args.node_alpha,
        "energy": energy,
        "interaction_energy": energy - p.at_zero(),
        "charge_sum": float(np.sum(eps.weights)),
        "charge_norm_sq": float(np.sum(eps.weights**2)),
        "converged": converged,
    }
    _emit([row], args, single=True)
    return _exit_code(converged)


def _cmd_landau(args) -> int:
    lc = app.landau_constants(_policy(args))
    row = dataclasses.asdict(lc)
    _emit([row], args, single=True)
    return _exit_code(lc.converged)


def _cmd_verify_lemmas(args) -> int:
    reports = proofcheck.run_default_suite()
    if args.suite != "all":
        wanted = set(args.suite.split(","))
        unknown = wanted - {r.lemma_id for r in reports}
        if unknown:
            raise LatSumError(f"unknown lemma ids: {sorted(unknown)}")
        reports = [r for r in reports if r.lemma_id in wanted]
    rows = [
        {
            "lemma_id": r.lemma_id,
            "params_tested": r.params_tested,
            "worst_margin": r.worst_margin,
            "pass": r.passed,
        }
        for r in reports
    ]
    _emit(rows, args)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_LEMMA


def _cmd_reduce(args) -> int:
    re, im = args.tau
    trace = reduce_to_fundamental(complex(re, im))
    row = {
        "tau_in_re": trace.tau_in.real,
        "tau_in_im": trace.tau_in.imag,
        "tau_out_re": trace.tau_out.real,
        "tau_out_im": trace.tau_out.imag,
        "word": list(trace.word),
    }
    _emit([row], args, single=True)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latsum",
        description="Lattice Gaussian sums with certified tails: evaluation, "
        "minimization, sweeps, applications, lemma verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    hex_xy = f"0.5,{math.sqrt(3) / 2!r}"

    p = sub.add_parser("theta", help="evaluate the shifted or charged family")
    p.add_argument("--lattice", type=_pair, default=_pair(hex_xy), metavar="X,Y")
    p.add_argument("--shift", type=_pair, default=None, metavar="U,V",
                   help="shift/charge in lattice coordinates (default: point b)")
    p.add_argument("--alpha", type=_positive_float, default=1.0)
    p.add_argument("--charged", action="store_true", help="charged family")
    _add_summing(p)
    p.set_defaults(func=_cmd_theta)

    p = sub.add_parser("minimize", help="global torus minimum of the Gaussian sum")
    p.add_argument("--lattice", type=_pair, default=_pair(hex_xy), metavar="X,Y")
    p.add_argument("--alpha", type=_positive_float, default=1.0)
    p.add_argument("--grid-n", type=int, default=64)
    _add_summing(p)
    p.set_defaults(func=_cmd_minimize)

    p = sub.add_parser("sweep", help="fundamental-domain sweep of torus minima")
    p.add_argument("--alpha", type=_float_list, default=[1.0], metavar="A1,A2,...")
    p.add_argument("--x", type=_linspace_triple, required=True, metavar="START:STOP:COUNT")
    p.add_argument("--y", type=_linspace_triple, required=True, metavar="START:STOP:COUNT")
    p.add_argument("--grid-n", type=int, default=32)
    p.add_argument("--exploratory", action="store_true",
                   help="append values at the moving points a and b (no pass/fail)")
    _add_summing(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("frame-bounds", help="Gaussian frame bounds for even density")
    p.add_argument("--shape", type=_pair, default=_pair(hex_xy), metavar="X,Y")
    p.add_argument("--density", type=int, default=2)
    _add_summing(p)
    p.set_defaults(func=_cmd_frame_bounds)

    p = sub.add_parser("heat", help="heat kernel on the torus of a lattice")
    p.add_argument("--lattice", type=_pair, default=_pair(hex_xy), metavar="X,Y")
    p.add_argument("--z", type=_pair, default=(0.0, 0.0), metavar="U,V")
    p.add_argument("--t", type=_positive_float, required=True)
    p.add_argument(
        "--route", choices=("gaussian", "spectral"), default=None,
        help="force one series (default: the shorter one)",
    )
    _add_summing(p)
    p.set_defaults(func=_cmd_heat)

    p = sub.add_parser("zeta", help="shifted Epstein zeta (squared-distance power)")
    p.add_argument("--lattice", type=_pair, default=_pair(hex_xy), metavar="X,Y")
    p.add_argument("--z", type=_pair, default=(1.0 / 3.0, 1.0 / 3.0), metavar="U,V")
    p.add_argument("--s", type=_positive_float, required=True)
    _add_summing(p)
    p.set_defaults(func=_cmd_zeta)

    p = sub.add_parser("born", help="periodic charge energy per point")
    p.add_argument("--lattice", type=_pair, default=_pair(hex_xy), metavar="X,Y")
    p.add_argument("--pattern", choices=("honeycomb", "alternating"), default="honeycomb")
    p.add_argument("--period", type=int, default=3)
    p.add_argument("--node-alpha", type=_positive_float, default=1.0)
    _add_summing(p)
    p.set_defaults(func=_cmd_born)

    p = sub.add_parser("landau", help="disc-covering constants and the 1/2 product")
    _add_summing(p)
    p.set_defaults(func=_cmd_landau)

    p = sub.add_parser("verify-lemmas", help="run the lemma verification suite")
    p.add_argument("--suite", default="all", help="'all' or comma-separated lemma ids")
    _add_output(p)
    p.set_defaults(func=_cmd_verify_lemmas)

    p = sub.add_parser("reduce", help="reduce tau into the fundamental half-domain")
    p.add_argument("--tau", type=_pair, required=True, metavar="RE,IM")
    _add_output(p)
    p.set_defaults(func=_cmd_reduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (LatSumError, ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
