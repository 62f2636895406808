"""Command-line front end.

Subcommands: orbital, derivative, combo, gk, int, bc, kernel-matrix,
volumes, verify.  Values print as human-readable polynomials by default;
--json switches to the exact JSON encoding and --at-q <value> evaluates
q numerically (exact rational arithmetic either way).

Exit codes: 0 on success / all checks passed, 1 on a verification mismatch,
2 on usage or parameter errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .exactpoly import LaurentSeries, QPolynomial
from .intersection import GKPair, gross_keating, int_circ, int_circ_kr_closed, int_total
from .kernel import build_matrix, row_reduce
from .orbital import (
    INFINITY,
    OrbitalParams,
    derivative_closed_form,
    derivative_combo,
    orbital_closed_form,
    orbital_support_sum,
    transfer_factor,
    validate,
)
from .satake import bc_s2_combo_image, bc_s2_on_basis, bc_s3_on_basis, p_r_polynomial, satake_u3_indicator
from .verify import SUITE_NAMES, SweepConfig, run_suite


def _add_orbit_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-r", type=int, default=0, help="Hecke basis level (>= 0)")
    parser.add_argument("--vb", type=int, required=True, help="v(b)")
    parser.add_argument("--vc", type=int, required=True, help="v(c); vb + vc must be odd and >= 1")
    parser.add_argument("--ve", type=int, required=True, help="v(e); negative means the vanishing regime")
    parser.add_argument("--vda", default="0", help="v(d - a): a nonnegative integer or 'inf'")


def _parse_vda(text: str) -> int | float:
    """--vda: a nonnegative integer or 'inf' (range checked by validate)."""
    if text.lower() in ("inf", "infinity"):
        return INFINITY
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"--vda must be an integer or 'inf', got {text!r}") from None


def _parse_params(args) -> OrbitalParams:
    p = OrbitalParams(r=args.r, vb=args.vb, vc=args.vc, ve=args.ve, vda=_parse_vda(args.vda))
    return validate(p, allow_vanishing=True)


def _fraction_json(x: Fraction) -> list[int]:
    x = Fraction(x)
    return [x.numerator, x.denominator]


def _print_qpoly(poly: QPolynomial, args) -> None:
    if getattr(args, "at_q", None) is not None:
        value = poly.evaluate(Fraction(args.at_q))
        if args.json:
            print(json.dumps({"value": _fraction_json(Fraction(value))}))
        else:
            print(value)
    elif args.json:
        print(json.dumps(poly.to_json()))
    else:
        print(poly)


def _print_series(series: LaurentSeries, args) -> None:
    if getattr(args, "at_q", None) is not None:
        q = Fraction(args.at_q)
        terms = [[k, _fraction_json(Fraction(c.evaluate(q)))] for k, c in series.sorted_items()]
        if args.json:
            print(json.dumps({"t_terms": terms}))
        else:
            body = " ".join(f"({num}/{den})*T^{k}" if den != 1 else f"({num})*T^{k}" for k, (num, den) in terms)
            print(body if body else "0")
    elif args.json:
        print(json.dumps(series.to_json()))
    else:
        print(series)


def cmd_orbital(args) -> int:
    p = _parse_params(args)
    series = orbital_closed_form(p)
    _print_series(series, args)
    if args.oracle:
        oracle = orbital_support_sum(p)
        match = series == oracle
        print(f"oracle: {'match' if match else 'MISMATCH'}")
        if not match:
            print(f"support sum: {oracle}")
            return 1
    return 0


def cmd_derivative(args) -> int:
    p = _parse_params(args)
    value = derivative_closed_form(p)
    if args.raw:
        sign = -1 if (p.vc + p.r) % 2 else 1
        value = value.scale(sign)
    _print_qpoly(value, args)
    return 0


def cmd_combo(args) -> int:
    p = _parse_params(args)
    value = derivative_combo(p)
    if args.raw:
        sign = -1 if (p.vc + p.r) % 2 else 1
        value = value.scale(sign)
    _print_qpoly(value, args)
    return 0


def cmd_transfer(args) -> int:
    p = _parse_params(args)
    print(transfer_factor(p))
    return 0


def cmd_gk(args) -> int:
    _print_qpoly(gross_keating(GKPair(args.n1, args.n2)), args)
    return 0


def cmd_int(args) -> int:
    p = _parse_params(args)
    if args.mode == "circ":
        value = int_circ(p)
    elif args.mode == "total":
        value = int_total(p)
    else:
        value = int_circ_kr_closed(p)
    _print_qpoly(value, args)
    return 0


def cmd_bc(args) -> int:
    if args.rank == "s3":
        if args.basis is not None:
            value = bc_s3_on_basis(args.basis)
        else:
            value = satake_u3_indicator(args.r)
    else:
        if args.basis is not None:
            value = bc_s2_on_basis(args.basis)
        elif args.pr:
            value = p_r_polynomial(args.r)
        else:
            value = bc_s2_combo_image(args.r)
    if args.json:
        print(json.dumps(value.to_json()))
    else:
        print(value)
    return 0


def cmd_kernel_matrix(args) -> int:
    m = build_matrix(args.sum_bc, _parse_vda(args.vda), args.N)
    m1, m2 = row_reduce(m)
    chosen = {"M": m, "M'": m1, "M''": m2}[args.stage]
    rows = [[str(chosen.entry(i, r)) for r in range(chosen.cols)] for i in range(chosen.rows)]
    if args.json:
        print(json.dumps({"stage": args.stage, "rows": [[chosen.entry(i, r).to_json() for r in range(chosen.cols)] for i in range(chosen.rows)]}))
        return 0
    widths = [max(len(row[c]) for row in rows) for c in range(chosen.cols)]
    for row in rows:
        print("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return 0


def cmd_volumes(args) -> int:
    config = SweepConfig(p=args.p, precision=args.N)
    (result,) = run_suite("volumes", config)
    return _report_results([result], args)


def cmd_verify(args) -> int:
    rmax_satake = args.rmax_satake
    if rmax_satake is None:
        # `verify satake --rmax 8` reads naturally as the base-change bound.
        rmax_satake = args.rmax if args.suite == "satake" else 8
    config = SweepConfig(
        r_max=args.rmax,
        sum_bc_max=args.sum_bc_max,
        ve_max=args.ve_max,
        vda_max=args.vda_max,
        rmax_satake=rmax_satake,
        p=args.p,
        precision=args.precision,
        seed=args.seed,
    )
    return _report_results(run_suite(args.suite, config), args)


def _report_results(results, args) -> int:
    all_pass = True
    for result in results:
        status = "pass" if result.passed else "FAIL"
        print(f"{result.name}: {status} ({result.checked} checks)")
        for failure in result.failures:
            print(json.dumps(failure))
        all_pass = all_pass and result.passed
    return 0 if all_pass else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semilie",
        description="Exact rank-2 orbital integrals, intersection numbers and base-change tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common_output(sp):
        sp.add_argument("--json", action="store_true", help="emit JSON")
        sp.add_argument("--at-q", dest="at_q", default=None, help="evaluate q at an exact rational")

    sp = sub.add_parser("orbital", help="orbital integral as a polynomial in T = q^s")
    _add_orbit_args(sp)
    sp.add_argument("--oracle", action="store_true", help="also run the support-sum oracle and report a verdict")
    common_output(sp)
    sp.set_defaults(func=cmd_orbital)

    sp = sub.add_parser("derivative", help="normalised derivative at s = 0")
    _add_orbit_args(sp)
    sp.add_argument("--raw", action="store_true", help="undo the (-1)^(vc+r) normalisation")
    common_output(sp)
    sp.set_defaults(func=cmd_derivative)

    sp = sub.add_parser("combo", help="normalised derivative against levels r and r-1 combined")
    _add_orbit_args(sp)
    sp.add_argument("--raw", action="store_true", help="undo the (-1)^(vc+r) normalisation")
    common_output(sp)
    sp.set_defaults(func=cmd_combo)

    sp = sub.add_parser("transfer", help="transfer factor (-1)^(vc+1)")
    _add_orbit_args(sp)
    sp.set_defaults(func=cmd_transfer)

    sp = sub.add_parser("gk", help="Gross-Keating polynomial for a pair (n1, n2)")
    sp.add_argument("--n1", type=int, required=True)
    sp.add_argument("--n2", type=int, required=True)
    common_output(sp)
    sp.set_defaults(func=cmd_gk)

    sp = sub.add_parser("int", help="intersection numbers from orbit parameters")
    _add_orbit_args(sp)
    sp.add_argument("--mode", choices=("circ", "total", "kr"), default="circ")
    common_output(sp)
    sp.set_defaults(func=cmd_int)

    sp = sub.add_parser("bc", help="base-change images on the unitary side")
    sp.add_argument("rank", choices=("s2", "s3"))
    sp.add_argument("-r", type=int, default=0, help="level")
    sp.add_argument("--basis", type=int, default=None, help="image of a single basis element instead")
    sp.add_argument("--pr", action="store_true", help="rank 2: the three-window vanishing polynomial")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_bc)

    sp = sub.add_parser("kernel-matrix", help="derivative matrix M and its reductions")
    sp.add_argument("--sum-bc", dest="sum_bc", type=int, required=True)
    sp.add_argument("--vda", default="0")
    sp.add_argument("-N", type=int, required=True)
    sp.add_argument("--stage", choices=("M", "M'", "M''"), default="M")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_kernel_matrix)

    sp = sub.add_parser("volumes", help="disk-volume enumeration against the closed forms")
    sp.add_argument("-p", type=int, default=3, help="odd prime")
    sp.add_argument("-N", type=int, default=4, help="working precision")
    sp.set_defaults(func=cmd_volumes)

    sp = sub.add_parser("verify", help="run an identity suite over a grid")
    sp.add_argument("suite", choices=SUITE_NAMES + ("intersection", "all"))
    sp.add_argument("--rmax", type=int, default=6)
    sp.add_argument("--sum-bc-max", dest="sum_bc_max", type=int, default=11)
    sp.add_argument("--ve-max", dest="ve_max", type=int, default=10)
    sp.add_argument("--vda-max", dest="vda_max", type=int, default=6)
    sp.add_argument("--rmax-satake", dest="rmax_satake", type=int, default=None)
    sp.add_argument("-p", type=int, default=3)
    sp.add_argument("-N", "--precision", dest="precision", type=int, default=4)
    sp.add_argument("--seed", type=int, default=20240501)
    sp.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # includes InvalidParamsError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
