"""Shared test helpers: a tiny parser so expected polynomials can be written
the way they print, e.g. qp("2q^3 + q^2 - 3q")."""

from __future__ import annotations

import re
from fractions import Fraction

from semilie import LaurentSeries, QPolynomial

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
