"""Exact sparse Laurent-polynomial arithmetic.

Two kinds of container:

  * ``QPolynomial`` -- a Laurent polynomial in the residue-field size q with
    exact rational coefficients, stored sparsely as {exponent: coefficient}.
    Exponents may be negative.
  * ``KeyedModule`` -- a finitely supported map from keys to QPolynomial
    coefficients, the one container shared by every other object semilie
    computes.  Each subclass fixes only its key rule, printing and JSON:
    ``LaurentSeries`` here (keys are T exponents; T stands for q**s, so a
    series is an exact stand-in for a function of the complex parameter s),
    and ``satake.SatakeY``, ``satake.SatakeGL`` and ``orbital.HeckeVector``.

Coefficients are Python ints or ``fractions.Fraction``; there is no floating
point anywhere.  Both kinds are canonical (zero coefficients are never
stored) and immutable by convention: every operation returns a new value, so
instances are safe to share between threads.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

Scalar = Union[int, Fraction]


def _norm_scalar(c: Scalar) -> Scalar:
    """Collapse integral Fractions to int so dict equality stays canonical."""
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    return c


class QPolynomial:
    """Laurent polynomial in q with exact rational coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, Scalar] | Iterable[tuple[int, Scalar]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        d: dict[int, Scalar] = {}
        for e, c in items:
            if c:
                s = _norm_scalar(d.get(e, 0) + c)
                if s:
                    d[e] = s
                elif e in d:
                    del d[e]
        self._terms = d

    @classmethod
    def _raw(cls, terms: dict[int, Scalar]) -> "QPolynomial":
        """Adopt ``terms`` without copying; caller must hand over a fresh,
        canonical dict (no zero values)."""
        self = object.__new__(cls)
        self._terms = terms
        return self

    # ---------------------------------------------------------- constructors
    @classmethod
    def zero(cls) -> "QPolynomial":
        return cls._raw({})

    @classmethod
    def one(cls) -> "QPolynomial":
        return cls._raw({0: 1})

    @classmethod
    def constant(cls, c: Scalar) -> "QPolynomial":
        c = _norm_scalar(c)
        return cls._raw({0: c} if c else {})

    @classmethod
    def q_power(cls, e: int, c: Scalar = 1) -> "QPolynomial":
        c = _norm_scalar(c)
        return cls._raw({e: c} if c else {})

    @classmethod
    def geometric(cls, n: int) -> "QPolynomial":
        """1 + q + ... + q**n (n+1 terms); the empty sum 0 when n < 0."""
        if n < 0:
            return cls.zero()
        return cls._raw({e: 1 for e in range(n + 1)})

    # ------------------------------------------------------------- structure
    def items(self) -> Iterator[tuple[int, Scalar]]:
        return iter(self._terms.items())

    def sorted_items(self) -> list[tuple[int, Scalar]]:
        return sorted(self._terms.items())

    def coefficient(self, e: int) -> Scalar:
        return self._terms.get(e, 0)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def min_exponent(self) -> int:
        return min(self._terms)

    def max_exponent(self) -> int:
        return max(self._terms)

    # ------------------------------------------------------------------ ring
    def __add__(self, other: "QPolynomial") -> "QPolynomial":
        if not isinstance(other, QPolynomial):
            return NotImplemented
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = _norm_scalar(s)
            elif e in out:
                del out[e]
        return QPolynomial._raw(out)

    def __neg__(self) -> "QPolynomial":
        return QPolynomial._raw({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "QPolynomial") -> "QPolynomial":
        if not isinstance(other, QPolynomial):
            return NotImplemented
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = out.get(e, 0) - c
            if s:
                out[e] = _norm_scalar(s)
            elif e in out:
                del out[e]
        return QPolynomial._raw(out)

    def __mul__(self, other: "QPolynomial | Scalar") -> "QPolynomial":
        if isinstance(other, QPolynomial):
            out: dict[int, Scalar] = {}
            for e1, c1 in self._terms.items():
                for e2, c2 in other._terms.items():
                    e = e1 + e2
                    s = out.get(e, 0) + c1 * c2
                    if s:
                        out[e] = s
                    elif e in out:
                        del out[e]
            return QPolynomial._raw({e: _norm_scalar(c) for e, c in out.items()})
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def scale(self, c: Scalar) -> "QPolynomial":
        c = _norm_scalar(c)
        if not c:
            return QPolynomial.zero()
        return QPolynomial._raw({e: _norm_scalar(v * c) for e, v in self._terms.items()})

    def shift(self, n: int) -> "QPolynomial":
        """Multiply by q**n."""
        return QPolynomial._raw({e + n: c for e, c in self._terms.items()})

    def div_exact(self, other: "QPolynomial") -> "QPolynomial":
        """Exact Laurent division; raises ArithmeticError on a nonzero remainder.

        Used by the fraction-free elimination, where every division is exact
        by construction.
        """
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return QPolynomial.zero()
        # Shift both to ordinary polynomials, divide, shift back.
        s_min, o_min = self.min_exponent(), other.min_exponent()
        rem = {e - s_min: Fraction(c) for e, c in self._terms.items()}
        div = {e - o_min: Fraction(c) for e, c in other._terms.items()}
        d_deg = max(div)
        d_lead = div[d_deg]
        quot: dict[int, Scalar] = {}
        while rem:
            r_deg = max(rem)
            if r_deg < d_deg:
                raise ArithmeticError("inexact polynomial division")
            f = rem[r_deg] / d_lead
            quot[r_deg - d_deg] = _norm_scalar(f)
            for e, c in div.items():
                t = e + r_deg - d_deg
                s = rem.get(t, 0) - f * c
                if s:
                    rem[t] = s
                elif t in rem:
                    del rem[t]
        return QPolynomial._raw({e + s_min - o_min: c for e, c in quot.items()})

    # ------------------------------------------------------------ evaluation
    def evaluate(self, q: Scalar) -> Scalar:
        """Exact value at a numeric q (Fraction arithmetic throughout)."""
        total = Fraction(0)
        for e, c in self._terms.items():
            total += Fraction(c) * Fraction(q) ** e
        return _norm_scalar(total)

    # ------------------------------------------------------------ comparison
    def __eq__(self, other: object) -> bool:
        if isinstance(other, QPolynomial):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == QPolynomial.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # --------------------------------------------------------- serialization
    def to_json(self) -> dict:
        triples = []
        for e in sorted(self._terms):
            c = Fraction(self._terms[e])
            triples.append([e, c.numerator, c.denominator])
        return {"q_terms": triples}

    @classmethod
    def from_json(cls, data: Mapping) -> "QPolynomial":
        return cls((e, Fraction(num, den)) for e, num, den in data["q_terms"])

    # -------------------------------------------------------------- printing
    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for e in sorted(self._terms, reverse=True):
            c = self._terms[e]
            mag = c if (isinstance(c, int) and c > 0) or (isinstance(c, Fraction) and c > 0) else -c
            sign = "-" if c != mag else "+"
            mag_str = str(mag) if isinstance(mag, int) else f"({mag})"
            if e == 0:
                body = mag_str
            else:
                var = "q" if e == 1 else f"q^{e}"
                body = var if mag == 1 else f"{mag_str}{var}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = first_body if first_sign == "+" else f"-{first_body}"
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self) -> str:
        return f"QPolynomial({dict(sorted(self._terms.items()))!r})"


def _as_qpoly(c: "QPolynomial | Scalar") -> QPolynomial:
    return c if isinstance(c, QPolynomial) else QPolynomial.constant(c)


def _accumulate(d: dict, key, c: QPolynomial) -> None:
    """Add the nonzero ``c`` into ``d[key]``, pruning the entry if it cancels."""
    cur = d.get(key)
    s = c if cur is None else cur + c
    if s:
        d[key] = s
    else:
        del d[key]


class KeyedModule:
    """Finitely supported map from keys to nonzero QPolynomial coefficients.

    The one sparse container behind ``LaurentSeries`` (keys: T exponents),
    ``satake.SatakeY`` (Y-exponents i >= 0), ``orbital.HeckeVector`` (basis
    levels r >= 0) and ``satake.SatakeGL`` (descending exponent tuples).
    A subclass fixes its key rule by overriding ``_key``; construction,
    the module operations and equality live here once.  Values of different
    subclasses never compare equal and cannot be added.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping | Iterable[tuple] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        d: dict = {}
        for k, c in items:
            k = self._key(k)
            if k is None:
                continue
            c = _as_qpoly(c)
            if c:
                _accumulate(d, k, c)
        self._terms = d

    def _key(self, k):
        """Canonical form of the key ``k``; ``None`` drops the term, and an
        inadmissible key raises ValueError."""
        return k

    @classmethod
    def _raw(cls, terms: dict) -> "KeyedModule":
        """Adopt ``terms`` without copying; caller must hand over a fresh,
        canonical dict (no zero values)."""
        self = object.__new__(cls)
        self._terms = terms
        return self

    def _like(self, terms: dict) -> "KeyedModule":
        """``_raw`` for a result of the same kind as ``self``."""
        return self._raw(terms)

    @classmethod
    def zero(cls) -> "KeyedModule":
        return cls()

    # ------------------------------------------------------------- structure
    def items(self):
        """The (key, coefficient) pairs in storage order."""
        return self._terms.items()

    def sorted_items(self) -> list:
        return sorted(self._terms.items())

    def coefficient(self, k) -> QPolynomial:
        return self._terms.get(self._key(k), QPolynomial.zero())

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    # ---------------------------------------------------------------- module
    def __add__(self, other: "KeyedModule") -> "KeyedModule":
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self._terms)
        for k, p in other._terms.items():
            _accumulate(out, k, p)
        return self._like(out)

    def __neg__(self) -> "KeyedModule":
        return self._like({k: -p for k, p in self._terms.items()})

    def __sub__(self, other: "KeyedModule") -> "KeyedModule":
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def scale(self, c: "QPolynomial | Scalar") -> "KeyedModule":
        """Multiply every coefficient by ``c``.  A product of nonzero Laurent
        polynomials over Q is nonzero, so only c == 0 can prune."""
        c = _as_qpoly(c)
        return self._like({k: p * c for k, p in self._terms.items()} if c else {})

    # ------------------------------------------------------------ comparison
    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({ {k: str(c) for k, c in self.sorted_items()} })"


class LaurentSeries(KeyedModule):
    """Finitely supported sum over k of QPolynomial coefficients times T**k."""

    __slots__ = ()

    @classmethod
    def t_power(cls, k: int, coeff: QPolynomial | Scalar = 1) -> "LaurentSeries":
        coeff = _as_qpoly(coeff)
        return cls._raw({k: coeff} if coeff else {})

    def support(self) -> list[int]:
        return sorted(self._terms)

    # ------------------------------------------------------------------ ring
    def __mul__(self, other: "LaurentSeries | QPolynomial | Scalar") -> "LaurentSeries":
        if isinstance(other, LaurentSeries):
            out: dict[int, QPolynomial] = {}
            for k1, p1 in self._terms.items():
                for k2, p2 in other._terms.items():
                    _accumulate(out, k1 + k2, p1 * p2)
            return LaurentSeries._raw(out)
        if isinstance(other, (QPolynomial, int, Fraction)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    # ---------------------------------------------------- s-space evaluation
    def at_one(self) -> QPolynomial:
        """Value at T = 1 (the series at s = 0): the sum of all coefficients."""
        total = QPolynomial.zero()
        for p in self._terms.values():
            total = total + p
        return total

    def log_derivative_at_zero(self) -> QPolynomial:
        """d/ds at s = 0, divided by log q.

        Since d/ds (q**s)**k = k log(q) (q**s)**k, this is the k-weighted sum
        of the coefficients.  The transcendental factor log q is never
        materialised; every caller works with this normalisation.
        """
        total = QPolynomial.zero()
        for k, p in self._terms.items():
            if k:
                total = total + p.scale(k)
        return total

    # ------------------------------------------------------------ comparison
    # perfbench/tracing.py wraps __eq__ through LaurentSeries.__dict__, so it
    # is bound here; binding __eq__ in a class body resets __hash__ to None.
    __eq__ = KeyedModule.__eq__
    __hash__ = KeyedModule.__hash__

    # --------------------------------------------------------- serialization
    def to_json(self) -> dict:
        return {"t_terms": [[k, self._terms[k].to_json()] for k in sorted(self._terms)]}

    @classmethod
    def from_json(cls, data: Mapping) -> "LaurentSeries":
        return cls((k, QPolynomial.from_json(p)) for k, p in data["t_terms"])

    # -------------------------------------------------------------- printing
    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for k in sorted(self._terms):
            p = self._terms[k]
            sign = "+"
            if len(p) == 1:
                ((e, c),) = p.items()
                if (isinstance(c, int) or isinstance(c, Fraction)) and c < 0:
                    sign, p = "-", -p
            body = str(p)
            if k != 0:
                tvar = "T" if k == 1 else f"T^{k}"
                if p == QPolynomial.one():
                    body = tvar
                else:
                    body = f"{body}*{tvar}" if len(p) == 1 else f"({body})*{tvar}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = first_body if first_sign == "+" else f"-{first_body}"
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self) -> str:
        return f"LaurentSeries({ {k: dict(sorted(p._terms.items())) for k, p in sorted(self._terms.items())}!r})"
