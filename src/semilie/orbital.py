"""Rank-2 semi-Lie weighted orbital integrals, exactly.

An orbit is parametrised by five valuation integers:

  r    -- index of the Hecke basis element (r >= 0),
  vb   -- v(b),
  vc   -- v(c),        with vb + vc odd and >= 1,
  ve   -- v(e),        negative values put the orbit in the vanishing regime,
  vda  -- v(d - a),    >= 0, or INFINITY when only a lower bound is known.

The residue-field size q stays symbolic: every operation returns a
``QPolynomial`` or ``LaurentSeries`` (see ``exactpoly``), and numeric
evaluation happens only when a caller asks for it.

Sign conventions.  The orbital integral itself is a Laurent polynomial in
T = q**s.  All derivative values are divided by log q, and the "normalised
derivative" D additionally carries the sign (-1)**(vc + r):

    D = (-1)**(vc + r) / log(q) * (d/ds at s=0 of the orbital integral).

``derivative_closed_form`` and ``derivative_combo`` return D;
``derivative_of_vector`` resolves the signs internally and returns the plain
(1/log q)-normalised derivative of a linear combination of basis functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .exactpoly import KeyedModule, LaurentSeries, QPolynomial, Scalar

#: Sentinel for an unbounded v(d - a).  Compares larger than every int.
INFINITY = math.inf


class InvalidParamsError(ValueError):
    """Raised when orbit parameters violate the admissibility constraints."""


@dataclass(frozen=True)
class OrbitalParams:
    """Valuation data of a regular semisimple orbit plus a basis index r."""

    r: int
    vb: int
    vc: int
    ve: int
    vda: int | float = 0

    def sum_bc(self) -> int:
        return self.vb + self.vc

    def theta(self) -> int:
        """min(vb + vc, 2 vda); odd iff vb + vc < 2 vda."""
        return min(self.vb + self.vc, 2 * self.vda)

    def n_bound(self) -> int | float:
        """min(ve, (vb + vc - 1)/2 + r, vda + r), the top q-degree."""
        return min(self.ve, (self.vb + self.vc - 1) // 2 + self.r, self.vda + self.r)

    def kappa(self) -> int | float:
        """ve - (vda + r)."""
        return self.ve - (self.vda + self.r)

    def with_r(self, r: int) -> "OrbitalParams":
        return replace(self, r=r)

    def with_ve(self, ve: int) -> "OrbitalParams":
        return replace(self, ve=ve)

    def label(self) -> dict:
        vda = "inf" if self.vda == INFINITY else self.vda
        return {"r": self.r, "vb": self.vb, "vc": self.vc, "ve": self.ve, "vda": vda}


def validate(p: OrbitalParams, allow_vanishing: bool = False) -> OrbitalParams:
    """Check the admissibility constraints, returning ``p`` unchanged.

    ve < 0 is accepted only when ``allow_vanishing`` is set; such parameters
    are meaningful solely because every orbital/derivative operation is
    identically zero there.
    """
    if p.r < 0:
        raise InvalidParamsError(f"r must be >= 0, got {p.r}")
    s = p.vb + p.vc
    if s % 2 == 0:
        raise InvalidParamsError(f"vb + vc must be odd, got {p.vb} + {p.vc} = {s}")
    if s < 1:
        raise InvalidParamsError(f"vb + vc must be >= 1, got {s}")
    if p.vda != INFINITY and (not isinstance(p.vda, int) or p.vda < 0):
        raise InvalidParamsError(f"vda must be a nonnegative int or INFINITY, got {p.vda!r}")
    if p.ve < 0 and not allow_vanishing:
        raise InvalidParamsError(
            f"ve = {p.ve} < 0 (vanishing regime); pass allow_vanishing=True to accept"
        )
    return p


def transfer_factor(p: OrbitalParams) -> int:
    """The matching sign (-1)**(vc + 1) = (-1)**vb."""
    validate(p, allow_vanishing=True)
    return -1 if p.vc % 2 == 0 else 1


def _vanishes(p: OrbitalParams) -> bool:
    return p.ve < 0 or p.vb + p.vc < -2 * p.r


def orbital_closed_form(p: OrbitalParams) -> LaurentSeries:
    """The orbital integral as a signed sum of geometric q-blocks times T**k.

    Zero when ve < 0 or vb + vc < -2r.  Otherwise the coefficient of T**k is
    (-1)**k (1 + q + ... + q**n(k)) over k in [-(vb+r), 2 ve + vc + r], plus,
    when vda < ve - r and vb + vc > 2 vda, a plateau correction
    (-1)**k c(k) q**(vda + r) over k in [2 vda - vb + r, 2 ve + vc - 2 vda - r].
    """
    validate(p, allow_vanishing=True)
    if _vanishes(p):
        return LaurentSeries.zero()
    r, vb, vc, ve, vda = p.r, p.vb, p.vc, p.ve, p.vda
    cap = p.n_bound()
    lo = -(vb + r)
    hi = 2 * ve + vc + r
    terms: dict[int, dict[int, Scalar]] = {}
    for k in range(lo, hi + 1):
        n_k = min((k - lo) // 2, (hi - k) // 2, cap)
        sign = -1 if k % 2 else 1
        terms[k] = {e: sign for e in range(n_k + 1)}
    if vda < ve - r and vb + vc > 2 * vda:
        c_lo = 2 * vda - vb + r
        c_hi = 2 * ve + vc - 2 * vda - r
        plateau = ve - vda - r
        e = vda + r
        for k in range(c_lo, c_hi + 1):
            c_k = min(k - c_lo, c_hi - k, plateau)
            if not c_k:
                continue
            sign = -1 if k % 2 else 1
            coeff = terms.setdefault(k, {})
            s = coeff.get(e, 0) + sign * c_k
            if s:
                coeff[e] = s
            elif e in coeff:
                del coeff[e]
    return LaurentSeries._raw(
        {k: QPolynomial._raw(c) for k, c in terms.items() if c}
    )


def orbital_support_sum(p: OrbitalParams) -> LaurentSeries:
    """Independent evaluation of the orbital integral from its support.

    Sums the raw contributions over the support lattice (n2, m) without any
    of the closed-form bookkeeping:

      * the always-present block contributes q**min(n2, floor(m/2)) (-T)**k
        for 0 <= n2 <= ve and 0 <= m <= theta + 2r,
      * when theta is even, two extra blocks each weighted
        q**min(n2, theta/2 + r) cover theta + 2r < m up to
        max(r, n2 - theta/2) + vb + vc + r and up to n2 + theta/2 + r,

    with k = 2 n2 - m + vc + r throughout and empty ranges contributing
    nothing.  This is the oracle that ``orbital_closed_form`` is checked
    against, term by term.
    """
    validate(p, allow_vanishing=True)
    r, vb, vc, ve, vda = p.r, p.vb, p.vc, p.ve, p.vda
    th = p.theta()
    base = vc + r
    acc: dict[int, dict[int, Scalar]] = {}

    def bump(k: int, e: int, delta: int) -> None:
        coeff = acc.setdefault(k, {})
        s = coeff.get(e, 0) + delta
        if s:
            coeff[e] = s
        else:
            del coeff[e]

    for n2 in range(ve + 1):
        k0 = 2 * n2 + base
        for m in range(th + 2 * r + 1):
            k = k0 - m
            bump(k, min(n2, m // 2), -1 if k % 2 else 1)
    if th % 2 == 0:
        half = th // 2
        m_lo = th + 2 * r + 1
        for n2 in range(ve + 1):
            k0 = 2 * n2 + base
            e = min(n2, half + r)
            for m in range(m_lo, max(r, n2 - half) + vb + vc + r + 1):
                k = k0 - m
                bump(k, e, -1 if k % 2 else 1)
            for m in range(m_lo, n2 + half + r + 1):
                k = k0 - m
                bump(k, e, -1 if k % 2 else 1)
    return LaurentSeries._raw(
        {k: QPolynomial._raw(c) for k, c in acc.items() if c}
    )


def derivative_closed_form(p: OrbitalParams) -> QPolynomial:
    """The normalised derivative D = (-1)**(vc+r)/log(q) * dOrb/ds at s=0.

    D depends on (vb, vc) only through vb + vc.  It is the main sum

        sum_{j=0}^{N} ((2 ve + vb + vc + 1)/2 + r - 2j) q**j

    minus, when kappa = ve - (vda + r) >= 0 and vb + vc > 2 vda, the
    correction q**(vda+r) * (kappa/2 when kappa is even, otherwise
    (ve + (vb+vc)/2 - 2 vda - r) - kappa/2).  Zero in the vanishing regime.
    """
    validate(p, allow_vanishing=True)
    if _vanishes(p):
        return QPolynomial.zero()
    r, vb, vc, ve, vda = p.r, p.vb, p.vc, p.ve, p.vda
    cap = p.n_bound()
    top = (2 * ve + vb + vc + 1) // 2 + r
    terms = {}
    for j in range(cap + 1):
        c = top - 2 * j
        if c:
            terms[j] = c
    out = QPolynomial._raw(terms)
    kap = p.kappa()
    if kap >= 0 and vb + vc > 2 * vda:
        if kap % 2 == 0:
            corr = kap // 2
        else:
            corr = (2 * ve + vb + vc - 4 * vda - 2 * r - kap) // 2
        if corr:
            out = out - QPolynomial.q_power(vda + r, corr)
    return out


def derivative_combo(p: OrbitalParams) -> QPolynomial:
    """Normalised derivative against the sum of two consecutive basis
    elements (index r and r - 1), for r >= 1:

        (q**N + ... + 1) + C q**N + C' q**(N-1)

    with N = min(ve, (vb+vc-1)/2 + r, vda + r) and C, C' as below.
    Equals derivative_closed_form(r) - derivative_closed_form(r-1).
    """
    validate(p, allow_vanishing=True)
    if p.r < 1:
        raise InvalidParamsError(
            "derivative_combo needs r >= 1; at r = 0 the combination is the "
            "single basis element, use derivative_closed_form"
        )
    if _vanishes(p):
        return QPolynomial.zero()
    r, vb, vc, ve, vda = p.r, p.vb, p.vc, p.ve, p.vda
    s = vb + vc
    cap = p.n_bound()
    kap = p.kappa()
    if kap > 0 and kap % 2 == 1 and s > 2 * vda:
        c_top = (kap - 1) // 2
    elif kap >= 0 and kap % 2 == 0 and s > 2 * vda:
        c_top = (kap + s - 2 * vda - 1) // 2
    elif ve >= (s - 1) // 2 + r and 2 * vda > s:
        c_top = ve - cap
    else:
        c_top = 0
    c_next = c_top + 1 if (kap >= 0 and s > 2 * vda) else 0
    out = QPolynomial.geometric(cap)
    if c_top:
        out = out + QPolynomial.q_power(cap, c_top)
    if c_next:
        out = out + QPolynomial.q_power(cap - 1, c_next)
    return out


class HeckeVector(KeyedModule):
    """Finitely supported combination of the basis indicator functions,
    indexed by r >= 0, with int/Fraction or polynomial-in-q coefficients."""

    __slots__ = ()

    def __init__(
        self,
        coeffs: Mapping[int, Union[Scalar, QPolynomial]]
        | Iterable[tuple[int, Union[Scalar, QPolynomial]]] = (),
    ):
        super().__init__(coeffs)

    def _key(self, r: int) -> int | None:
        return r if r >= 0 else None  # the basis has no negative indices; treat as 0


def derivative_of_vector(base: OrbitalParams, vec: HeckeVector) -> QPolynomial:
    """(1/log q) * dOrb/ds at s=0 against a basis combination.

    The basis index of each entry of ``vec`` supplies r; ``base.r`` is
    ignored.  All (-1)**(vc+r) normalisation signs are resolved internally:
    the result is sum_r c_r (-1)**(vc+r) D(r), i.e. the un-normalised
    derivative divided by log q only.
    """
    validate(base, allow_vanishing=True)
    out = QPolynomial.zero()
    for r, c in vec.items():
        d = derivative_closed_form(base.with_r(r))
        if (base.vc + r) % 2:
            d = -d
        out = out + d * c
    return out
