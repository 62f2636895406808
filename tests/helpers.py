"""Shared test helpers: a tiny parser so expected polynomials can be written
the way they print, e.g. qp("2q^3 + q^2 - 3q")."""

from __future__ import annotations

import re
from fractions import Fraction

from semilie import LaurentSeries, OrbitalParams, QPolynomial, derivative_closed_form, gk_from_params, gross_keating

_TERM = re.compile(
    r"""^
    (?P<coef>\(?-?\d+(?:/\d+)?\)?)?      # optional coefficient, maybe (a/b)
    \*?
    (?P<var>q(?:\^(?P<exp>-?\d+))?)?     # optional q power
    $""",
    re.VERBOSE,
)


def qp(text: str) -> QPolynomial:
    """Parse strings like '23q^13 + q - 6', '-q^3', 'q^-2', '(3/2)q^2', '0'."""
    text = text.replace("−", "-").replace(" ", "")
    if text in ("", "0"):
        return QPolynomial.zero()
    out: dict[int, Fraction] = {}
    # Shield exponent signs from the term split.
    text = text.replace("^-", "^~")
    for chunk in re.findall(r"[+-]?[^+-]+", text):
        chunk = chunk.replace("^~", "^-")
        sign = 1
        if chunk[0] == "+":
            chunk = chunk[1:]
        elif chunk[0] == "-":
            sign, chunk = -1, chunk[1:]
        m = _TERM.match(chunk)
        if not m or (m.group("coef") is None and m.group("var") is None):
            raise ValueError(f"cannot parse term {chunk!r} in {text!r}")
        coef_text = m.group("coef")
        coef = Fraction(coef_text.strip("()")) if coef_text else Fraction(1)
        if m.group("var") is None:
            exp = 0
        elif m.group("exp") is None:
            exp = 1
        else:
            exp = int(m.group("exp"))
        out[exp] = out.get(exp, Fraction(0)) + sign * coef
    return QPolynomial(out)


def series(terms: dict[int, str]) -> LaurentSeries:
    """Build a T-series from {k: 'q-polynomial text'}."""
    return LaurentSeries({k: qp(text) for k, text in terms.items()})


def pack_row(coeffs: dict[int, int], width: int) -> int:
    """A q-polynomial {e: c} packed as its value at q = 2**width, the form
    ``semilie.exactpoly.unpack`` reads back."""
    return sum(c << width * e for e, c in coeffs.items())


def reference_int_circ(p: OrbitalParams) -> QPolynomial:
    """int_circ as the ``QPolynomial`` difference of the ``gross_keating``
    values at ve and ve - 1: the reference for the packed
    ``semilie.intersection.int_circ``."""
    return gross_keating(gk_from_params(p)) - gross_keating(gk_from_params(p.with_ve(p.ve - 1)))


def reference_int_total(p: OrbitalParams) -> QPolynomial:
    """int_total as the ``QPolynomial`` sum of ``reference_int_circ`` at ve,
    ve - 2, ..., down to ve mod 2: the reference for the packed
    ``semilie.intersection.int_total``."""
    out = QPolynomial.zero()
    for ve in range(p.ve, -1, -2):
        out = out + reference_int_circ(p.with_ve(ve))
    return out


def reference_stages(sum_bc: int, vda: int | float, n_cap: int) -> dict[str, list[list[QPolynomial]]]:
    """{"M": M, "M'": M', "M''": M''} of the derivative matrix, built entry
    by entry from ``derivative_closed_form`` and row-reduced by
    ``QPolynomial`` subtraction, bottom row first: M' takes each row
    below the top minus the row above it, M'' each row of M' below the
    second minus the row two above it."""
    theta = min(sum_bc, 2 * vda)
    m = [
        [derivative_closed_form(OrbitalParams(r=r, vb=0, vc=sum_bc, ve=ve, vda=vda)) for r in range(n_cap + 1)]
        for ve in range(n_cap + theta // 2 + 2)
    ]
    m1 = [list(row) for row in m]
    for i in range(len(m1) - 1, 0, -1):
        m1[i] = [a - b for a, b in zip(m1[i], m1[i - 1])]
    m2 = [list(row) for row in m1]
    for i in range(len(m2) - 1, 1, -1):
        m2[i] = [a - b for a, b in zip(m2[i], m2[i - 2])]
    return {"M": m, "M'": m1, "M''": m2}


def bareiss_rank(entries, seen: list | None = None) -> int:
    """The rank of a matrix of ``QPolynomial``s by fraction-free (Bareiss)
    elimination over ``QPolynomial`` mul and ``div_exact``: the reference
    for ``semilie.kernel._packed_rank``, which takes the same pivots.  Each
    entry the elimination computes is appended to ``seen`` when given."""
    mat = [list(row) for row in entries]
    n_rows = len(mat)
    n_cols = len(mat[0]) if n_rows else 0
    prev = QPolynomial.one()
    rank = 0
    for col in range(n_cols):
        pivot_row = next((i for i in range(rank, n_rows) if mat[i][col]), None)
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        piv = mat[rank][col]
        for i in range(rank + 1, n_rows):
            row_i, row_p = mat[i], mat[rank]
            head = row_i[col]
            for j in range(col + 1, n_cols):
                row_i[j] = (piv * row_i[j] - head * row_p[j]).div_exact(prev)
                if seen is not None:
                    seen.append(row_i[j])
            row_i[col] = QPolynomial.zero()
        prev = piv
        rank += 1
        if rank == min(n_rows, n_cols):
            break
    return rank
