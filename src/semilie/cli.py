"""Command-line front end.

Subcommands: orbital, derivative, combo, gk, int, bc, kernel-matrix,
volumes, verify.  Values print as human-readable polynomials by default;
--json switches to the exact JSON encoding and --at-q <value> evaluates
q numerically (exact rational arithmetic either way).

The sweep commands, verify and volumes, take every default from
``SweepConfig``: each flag given sets one field (``SWEEP_FLAGS``).

``main`` parses a query once, with its command's parser; the top-level
parser handles help and usage errors (no command or an unknown one, -h,
arguments the command's parser leaves over).

orbital and kernel-matrix compute on packed ints, the matrix at the width
``kernel._packed_matrix`` returns; ``exactpoly._decoded`` decodes each once.

Exit codes: 0 on success / all checks passed, 1 on a verification mismatch,
2 on usage or parameter errors.  An orbit, gk, bc or kernel-matrix query
whose estimated work is above ``MAX_WORK`` is a parameter error, and so is a
``verify`` or ``volumes`` run of which any suite is charged above
``MAX_SWEEP_WORK``; each suite states its own charge (``verify.sweep_work``).
A reader that closes stdout early cuts the output short, not the exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import os
import re
import sys
from fractions import Fraction
from itertools import chain, islice

from .exactpoly import LaurentSeries, QPolynomial, _decoded, _json_text, _printed
from .intersection import GKPair, gross_keating, int_circ, int_circ_kr_closed, int_total
from .kernel import _matrix_rows, _packed_matrix, _reduce_rows
from .orbital import (
    INFINITY,
    OrbitalParams,
    _closed_form_rows,
    _support_sum_rows,
    derivative_closed_form,
    derivative_combo,
    row_width,
    support_points,
    transfer_factor,
)
from .satake import bc_s2_combo_image, bc_s2_on_basis, bc_s3_on_basis, p_r_polynomial, satake_u3_indicator
from .verify import SUITE_CHOICES, SweepConfig, run_suite, sweep_work

#: JSON text of a value: every value printed is a freshly built tree of
#: dicts, lists, strs and ints, so the encoder skips its circular-reference walk.
_json = json.JSONEncoder(check_circular=False).encode

#: The most work one orbit, ``gk``, ``bc`` or ``kernel-matrix`` query may ask
#: for, in q-terms and support-lattice points.  With --at-q, a term of degree
#: <= N also costs (N * bits(q) / 1024) ** log2(3) units, rounded down: the
#: powers of q that ``QPolynomial.evaluate`` forms have up to N * bits(q)
#: bits, and their cost grows with that size to the Karatsuba exponent.  A
#: larger query exits 2 instead of running for minutes or out of memory.  The
#: largest README example needs 1,420 units, a calculator query with r <= 30,
#: ve <= 40, vb >= -50 and vb + vc <= 41 at most 16,605.
MAX_WORK = 200_000

#: The most work any one suite of a ``verify`` or ``volumes`` run may be
#: charged, in the unit every suite's charge shares (see ``verify._suite``):
#: about 0.12 µs of suite time on a 2-CPU host with Python 3.11, so some 50 s.
#: The default grid's largest charge is its orbital suite's 29,069,040 units;
#: ``verify orbital --rmax 40 --ve-max 40 --sum-bc-max 41`` (8 * 10**10),
#: ``verify satake --rmax 150`` (5 * 10**8), ``volumes -p 13 -N 3`` (9.2 *
#: 10**8), ``verify quaternion -p 10000019`` (3.6 * 10**9) and ``verify
#: quaternion -N 20000`` (1.0 * 10**9) exit 2; ``volumes -p 11 -N 3``
#: (3.4 * 10**8) runs, in about 27 s.
MAX_SWEEP_WORK = 400_000_000

#: The flags of the two sweep commands, each mapped to the ``SweepConfig``
#: field it sets.  No flag has a default of its own: a flag left out leaves
#: its field at the ``SweepConfig`` default.  By ``SWEEP_ALIASES``, a field
#: given for one suite alone also sets a second one, unless that is given
#: too: ``verify satake --rmax 8`` reads naturally as the base-change bound.
SWEEP_FLAGS = {
    "volumes": {"-p": "p", "-N": "precision"},
    "verify": {"--rmax": "r_max", "--sum-bc-max": "sum_bc_max", "--ve-max": "ve_max", "--vda-max": "vda_max",
               "--rmax-satake": "rmax_satake", "-p": "p", "-N --precision": "precision", "--seed": "seed"},
}
SWEEP_ALIASES = {"satake": {"r_max": "rmax_satake"}}
_SWEEP_HELP = {("volumes", "p"): "odd prime", ("volumes", "precision"): "working precision"}

#: The most decimal digits, exponent included, that an --at-q literal may
#: stand for; a literal near this bound takes seconds to expand.  Checked
#: before the literal is expanded.
MAX_AT_Q_DIGITS = 3_840_000

#: What --vda accepts, as ``_parse_vda`` reads it.
_VDA_HELP = "v(d - a): a nonnegative integer, or 'inf' or 'infinity' in any case"


def _add_orbit_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-r", type=int, default=0, help="Hecke basis level (>= 0)")
    parser.add_argument("--vb", type=int, required=True, help="v(b)")
    parser.add_argument("--vc", type=int, required=True, help="v(c); vb + vc must be odd and >= 1")
    parser.add_argument("--ve", type=int, required=True, help="v(e); negative means the vanishing regime")
    parser.add_argument("--vda", default="0", help=_VDA_HELP)


def _parse_vda(text: str) -> int | float:
    """--vda: a nonnegative integer, or 'inf' or 'infinity' in any case
    (range checked by OrbitalParams)."""
    if text.lower() in ("inf", "infinity"):
        return INFINITY
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"--vda must be an integer, or 'inf' or 'infinity' in any case, got {text!r}") from None


def _refuse_above(work: int, limit: int) -> None:
    if work > limit:
        raise ValueError(f"the query needs about {work} units of work, more than the limit of {limit}")


def _check_work(args, terms: int, degree: int) -> None:
    """Reject a query of ``terms`` units of work (q-terms of degree <=
    ``degree``) above ``MAX_WORK``."""
    q = getattr(args, "at_q", None)
    if q is not None and degree > 0:
        # Every caller has more than ``degree`` terms, so a degree above
        # MAX_WORK is refused anyway; the cap keeps the float finite.
        bits = min(degree, MAX_WORK) * max(q.numerator.bit_length(), q.denominator.bit_length())
        terms *= 1 + int((bits / 1024) ** math.log2(3))
    _refuse_above(terms, MAX_WORK)


def _parse_params(args) -> OrbitalParams:
    p = OrbitalParams(r=args.r, vb=args.vb, vc=args.vc, ve=args.ve, vda=_parse_vda(args.vda))
    # Each q-polynomial has <= N + 1 terms; the closed-form series has
    # 2ve + vb + vc + 2r + 1, int --mode total is charged ve/2 + 1 of them
    # (it sums ve + 1 packed Gross-Keating values, each a few int operations
    # on ints of N + 1 digits, and decodes one), and --oracle walks the
    # support lattice, which is empty for ve < 0.
    n = max(p.n_bound() + 1, 0)
    if args.command == "orbital":
        terms = (2 * p.ve + p.sum_bc() + 2 * p.r + 1) * n
        if args.oracle and p.ve >= 0:
            terms += support_points(p.r, p.sum_bc(), p.ve)
    else:
        terms = (max(p.ve + 1, 0) // 2 + 1) * n if getattr(args, "mode", None) == "total" else n
    _check_work(args, terms, p.n_bound())
    return p


def _fraction_json(x: Fraction) -> list[int]:
    return [x.numerator, x.denominator]


def _parse_at_q(text: str) -> Fraction:
    """--at-q: an exact rational such as 5, -3/2, 0.25 or 1e3."""
    exponent = re.search(r"e[-+]?([\d_]+)\s*$", text, re.IGNORECASE)
    exponent = exponent[1].replace("_", "").lstrip("0") if exponent else ""
    if len(exponent) > len(str(MAX_AT_Q_DIGITS)) or len(text) + int(exponent or 0) > MAX_AT_Q_DIGITS:
        raise ValueError(f"--at-q has more than {MAX_AT_Q_DIGITS} digits, exponent included")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--at-q must be an exact rational, got {text!r}") from None


def _check_value_digits(poly: QPolynomial, q: Fraction) -> None:
    """Refuse, before evaluating, a value whose numerator or denominator
    would have more digits than ``sys.get_int_max_str_digits()`` lets an int
    print with.

    With q = a/b, lowest exponent m and highest t, poly(q) has a denominator
    dividing D = lcm(coefficient denominators) * a**max(-m, 0) * b**max(t, 0)
    and a numerator of at most D * sum |c q**e|.  Their digits are counted
    from the logarithms of these bounds, so the count reads high only where
    terms cancel or the fraction reduces, never low.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit, as before 3.10.7
    if not limit or not q or not poly:
        return
    log = math.log10
    la, lb = log(abs(q.numerator)), log(q.denominator)
    m, t = poly.min_exponent(), poly.max_exponent()
    den = log(math.lcm(*(c.denominator for c in poly.coefficients()))) + max(-m, 0) * la + max(t, 0) * lb
    terms = [log(abs(c.numerator)) - log(c.denominator) + e * (la - lb) for e, c in poly.items()]
    top = max(terms)
    top += log(sum(10 ** (x - top) for x in terms))
    # 1e-6 absorbs the float rounding of the logarithms, so that 10**k counts k + 1 digits.
    digits = 1 + math.floor(den + max(0.0, top) + 1e-6)
    if digits > limit:
        raise ValueError(f"the value at this q would have about {digits} digits, more than the {limit} an int may print with")


def _check_evaluable(poly: QPolynomial, q: Fraction) -> None:
    """Reject q = 0 where a negative power of q occurs, and a value too long to print."""
    if not q and poly and poly.min_exponent() < 0:
        raise ValueError(f"cannot evaluate at q = 0: the value has the term q^{poly.min_exponent()}")
    _check_value_digits(poly, q)


def _evaluate(poly: QPolynomial, q: Fraction):
    """``poly`` at q, once ``_check_evaluable`` admits it."""
    _check_evaluable(poly, q)
    return poly.evaluate(q)


def _print_qpoly(poly: QPolynomial, args) -> None:
    if getattr(args, "at_q", None) is not None:
        value = _evaluate(poly, args.at_q)
        if args.json:
            print(_json({"value": _fraction_json(Fraction(value))}))
        else:
            print(value)
    elif args.json:
        print(_json(poly.to_json()))
    else:
        print(poly)


def _print_series(rows: dict[int, int], width: int, args) -> None:
    """The series packed in ``rows`` at ``width`` bits per digit: --json
    prints the rows' own JSON text, the other forms decode the rows once."""
    if args.at_q is not None:
        items = LaurentSeries._from_rows(rows, width).sorted_items()
        for _, c in items:  # all of them before evaluating any
            _check_evaluable(c, args.at_q)
        terms = [[k, _fraction_json(Fraction(c.evaluate(args.at_q)))] for k, c in items]
        if args.json:
            print(_json({"t_terms": terms}))
        else:
            body = " ".join(f"({num}/{den})*T^{k}" if den != 1 else f"({num})*T^{k}" for k, (num, den) in terms)
            print(body if body else "0")
    elif args.json:
        print(LaurentSeries._rows_json_text(rows, width))
    else:
        print(LaurentSeries._from_rows(rows, width))


def cmd_orbital(args) -> int:
    """The series of ``orbital_closed_form``, and with --oracle the verdict
    of ``orbital_support_sum`` against it, read from the two builders'
    packed rows at one ``row_width`` as the orbital sweep reads them: equal
    rows are equal series, so the verdict is one dict compare.  The
    oracle's rows are decoded only on a mismatch, to print them."""
    p = _parse_params(args)
    width = row_width(p)
    rows = _closed_form_rows(p, width)
    _print_series(rows, width, args)
    if args.oracle:
        oracle_rows = _support_sum_rows(p, width)
        match = rows == oracle_rows
        print(f"oracle: {'match' if match else 'MISMATCH'}")
        if not match:
            print(f"support sum: {LaurentSeries._from_rows(oracle_rows, width)}")
            return 1
    return 0


def cmd_derivative(args) -> int:
    """``derivative`` and ``combo``: D at level r, or against levels r and r - 1."""
    p = _parse_params(args)
    value = (derivative_combo if args.command == "combo" else derivative_closed_form)(p)
    if args.raw:
        value = value.scale(-1 if (p.vc + p.r) % 2 else 1)
    _print_qpoly(value, args)
    return 0


def cmd_transfer(args) -> int:
    print(transfer_factor(_parse_params(args)))
    return 0


def cmd_gk(args) -> int:
    if min(args.n1, args.n2) < 0:  # GKPair admits (-1, -1), the empty-divisor sentinel
        raise ValueError(f"--n1 and --n2 must be >= 0, got ({args.n1}, {args.n2})")
    _check_work(args, args.n1 // 2 + 1, args.n1 // 2)
    _print_qpoly(gross_keating(GKPair(args.n1, args.n2)), args)
    return 0


def cmd_int(args) -> int:
    p = _parse_params(args)
    _print_qpoly({"circ": int_circ, "total": int_total, "kr": int_circ_kr_closed}[args.mode](p), args)
    return 0


def cmd_bc(args) -> int:
    basis = args.basis is not None
    if args.pr and (basis or args.rank == "s3"):
        raise ValueError("--pr, the rank-2 three-window vanishing polynomial, takes s2 and -r, not s3 or --basis")
    if basis and args.r is not None:
        raise ValueError("--basis gives the level itself: drop -r")
    level = args.basis if basis else args.r or 0
    if level < 0 and not basis:  # the library reads a negative level as the zero image
        raise ValueError(f"need r >= 0, got {level}")
    # An image has level + 1 Y-coefficients of at most three q-terms each.
    _check_work(args, 3 * (level + 1), 0)
    if args.rank == "s3":
        value = (bc_s3_on_basis if basis else satake_u3_indicator)(level)
    else:
        value = (bc_s2_on_basis if basis else p_r_polynomial if args.pr else bc_s2_combo_image)(level)
    print(_json(value.to_json()) if args.json else value)
    return 0


def cmd_kernel_matrix(args) -> int:
    """The matrix M of normalised derivatives at (--sum-bc, --vda, -N), or
    its reduction M' or M'' (--stage), refused above ``MAX_WORK`` before
    anything is built.  M is built and reduced as packed ints; each distinct
    entry is encoded once, as its JSON text with --json and as it prints
    otherwise, and equals ``orbital.derivative_closed_form``."""
    vda, n = _parse_vda(args.vda), args.N
    n_rows = _matrix_rows(args.sum_bc, vda, n)
    # (N + theta/2 + 2) x (N + 1) entries, the bottom right one the longest
    degree = OrbitalParams(r=n, vb=0, vc=args.sum_bc, ve=n_rows - 1, vda=vda).n_bound()
    _check_work(args, n_rows * (n + 1) * (degree + 1), degree)
    rows, width = _packed_matrix(args.sum_bc, vda, n)
    if args.stage != "M":
        rows = _reduce_rows(rows)[args.stage == "M''"]
    texts = iter(_decoded(chain.from_iterable(rows), width, _json_text if args.json else _printed))
    cells = [list(islice(texts, n + 1)) for _ in rows]
    if args.json:
        body = ", ".join(f"[{', '.join(row)}]" for row in cells)
        print(f'{{"stage": {_json(args.stage)}, "rows": [{body}]}}')
        return 0
    widths = [max(map(len, col)) for col in zip(*cells)]
    for row in cells:
        print("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return 0


def cmd_sweep(args) -> int:
    """``verify`` and ``volumes``: run the suites named on the ``SweepConfig``
    of the flags given, refused before any runs if one of them is charged
    above ``MAX_SWEEP_WORK``."""
    name = getattr(args, "suite", args.command)  # volumes runs the suite it is named after
    given = {field: vars(args)[field] for field in SWEEP_FLAGS[args.command].values() if field in vars(args)}
    given = {target: given[field] for field, target in SWEEP_ALIASES.get(name, {}).items() if field in given} | given
    config = SweepConfig(**given)
    _refuse_above(sweep_work(name, config), MAX_SWEEP_WORK)
    return _report_results(run_suite(name, config), args)


def _report_results(results, args) -> int:
    if args.json:
        print(_json([result.to_json() for result in results]))
    else:
        for result in results:
            print(f"{result.name}: {'pass' if result.passed else 'FAIL'} ({result.checked} checks)")
            for failure in result.failures:
                print(_json(failure))
            if result.failures_omitted:
                print(f"({result.failures_omitted} more failures not recorded)")
    return 0 if all(result.passed for result in results) else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every
    later one in the process: callers must not mutate it."""
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

    for command, text in (("derivative", "normalised derivative at s = 0"),
                          ("combo", "normalised derivative against levels r and r-1 combined")):
        sp = sub.add_parser(command, help=text)
        _add_orbit_args(sp)
        sp.add_argument("--raw", action="store_true", help="undo the (-1)^(vc+r) normalisation")
        common_output(sp)
        sp.set_defaults(func=cmd_derivative)

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
    sp.add_argument("-r", type=int, default=None, help="level (default 0)")
    sp.add_argument("--basis", type=int, default=None, help="image of a single basis element instead")
    sp.add_argument("--pr", action="store_true", help="rank 2: the three-window vanishing polynomial")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_bc)

    sp = sub.add_parser("kernel-matrix", help="derivative matrix M and its reductions")
    sp.add_argument("--sum-bc", dest="sum_bc", type=int, required=True)
    sp.add_argument("--vda", default="0", help=_VDA_HELP)
    sp.add_argument("-N", type=int, required=True)
    sp.add_argument("--stage", choices=("M", "M'", "M''"), default="M")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_kernel_matrix)

    for command, text, json_text in (
        ("volumes", "disk-volume enumeration against the closed forms", "print the suite report as JSON"),
        ("verify", "run an identity suite over a grid", "print the suite reports as one JSON list"),
    ):
        sp = sub.add_parser(command, help=text)
        if command == "verify":
            sp.add_argument("suite", choices=SUITE_CHOICES)
        for flags, field in SWEEP_FLAGS[command].items():
            names = flags.split()  # --help names the value after the last flag, as argparse does by default
            sp.add_argument(*names, dest=field, metavar=names[-1].lstrip("-").replace("-", "_").upper(), type=int,
                            default=argparse.SUPPRESS, help=_SWEEP_HELP.get((command, field)))
        sp.add_argument("--json", action="store_true", help=json_text)
        sp.set_defaults(func=cmd_sweep)

    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, with the query parsed once.

    The full parse classifies every option string of a query and then hands
    them all to the command's parser, which parses them again.  Here an argv
    that starts with a command goes to that command's parser alone, and what
    it leaves over is the top-level parser's usage error, as in the full
    parse.  Any other argv (none, -h, an unknown command, a leading --)
    takes the full parse.
    """
    parser = build_parser()
    commands = parser._subparsers._group_actions[0].choices  # the add_subparsers action's parsers
    if not argv or argv[0] not in commands:
        return parser.parse_args(argv)
    args, extras = commands[argv[0]].parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):  # so that "--at-q -3/2" is not read as an option
        if argv[i - 1] == "--at-q":
            argv[i - 1 : i + 1] = [f"--at-q={argv[i]}"]
    args = _parse_args(argv)
    try:
        if getattr(args, "at_q", None) is not None:
            args.at_q = _parse_at_q(args.at_q)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = args.func(args)
    except ValueError as exc:  # includes InvalidParamsError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        sys.stdout.write(out.getvalue())
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe: stdout goes to the null device from here
        # on, so the flush at interpreter exit does not fail as well.
        with contextlib.suppress(OSError, ValueError), open(os.devnull, "wb") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
