"""Gross-Keating intersection polynomials and the rank-2 intersection numbers.

Only valuation data crosses this module's boundary: the intersection numbers
depend on the orbit parameters exclusively through (r, vb + vc, ve, vda), and
on the geometric side through (v(Nm u), v(beta), v(alpha - conj(alpha))).

The empty-divisor convention: when ve < 0 (the test vector u/pi is no longer
integral) the Gross-Keating pair degenerates; ``GKPair.empty()`` encodes this
and ``gross_keating`` maps it to 0.  That choice is what makes the
subtraction and telescoping identities below total, and it is validated by
the identity sweeps rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactpoly import QPolynomial, Scalar, _norm_scalar
from .orbital import (
    INFINITY,
    InvalidParamsError,
    OrbitalParams,
    derivative_closed_form,
    require_ints,
)


@dataclass(frozen=True)
class GKPair:
    """The two Gross-Keating valuation invariants, ints with 0 <= n1 <= n2,
    or the empty-divisor sentinel (-1, -1) that ``empty()`` builds."""

    n1: int
    n2: int

    def __post_init__(self):
        require_ints(n1=self.n1, n2=self.n2)
        if not 0 <= self.n1 <= self.n2 and (self.n1, self.n2) != (-1, -1):
            raise InvalidParamsError(f"need 0 <= n1 <= n2, got ({self.n1}, {self.n2})")

    @classmethod
    def empty(cls) -> "GKPair":
        return cls(-1, -1)

    def is_empty(self) -> bool:
        return self.n1 < 0


@dataclass(frozen=True)
class GeometricParams:
    """Valuations of the unitary-side data: v(Nm u), v(beta) and
    v(alpha - conj(alpha)) (the latter possibly INFINITY)."""

    v_nm_u: int
    v_beta: int
    v_alpha_diff: int | float

    def __post_init__(self):
        require_ints(v_nm_u=self.v_nm_u, v_beta=self.v_beta)
        if self.v_alpha_diff != INFINITY:
            require_ints(v_alpha_diff=self.v_alpha_diff)
        if self.v_nm_u < 0:
            raise ValueError(f"v(Nm u) must be >= 0 for integral u, got {self.v_nm_u}")
        if self.v_beta < 0:
            raise ValueError(f"v(beta) must be >= 0, got {self.v_beta}")
        if self.v_alpha_diff != INFINITY and self.v_alpha_diff < 0:
            raise ValueError(f"v(alpha - conj(alpha)) must be >= 0, got {self.v_alpha_diff}")


@dataclass(frozen=True)
class PartialOrbitalParams:
    """Orbit valuations determined by geometric data: vb and vc are pinned
    only through their sum, and r is left free."""

    sum_bc: int
    ve: int
    vda: int | float

    def complete(self, r: int, vb: int = 0) -> OrbitalParams:
        return OrbitalParams(r=r, vb=vb, vc=self.sum_bc - vb, ve=self.ve, vda=self.vda)


def gross_keating(g: GKPair) -> QPolynomial:
    """The Gross-Keating intersection polynomial.

    n1 odd:   sum_{j=0}^{(n1-1)/2} (n1 + n2 - 4j) q**j
    n1 even:  (n2 - n1 + 1)/2 * q**(n1/2) + sum_{j=0}^{n1/2-1} (n1+n2-4j) q**j
    empty:    0
    """
    if g.is_empty():
        return QPolynomial.zero()
    n1, n2 = g.n1, g.n2
    # n1 <= n2 keeps every coefficient positive, so the dict is canonical.
    terms: dict[int, Scalar] = {j: n1 + n2 - 4 * j for j in range((n1 + 1) // 2)}
    if n1 % 2 == 0:
        terms[n1 // 2] = _norm_scalar(Fraction(n2 - n1 + 1, 2))
    return QPolynomial._raw(terms)


def gk_from_params(p: OrbitalParams) -> GKPair:
    """Translate orbit valuations into the Gross-Keating pair:

        n1 = min(2 ve, vb + vc + 2r, 2 vda + 2r),
        n2 = 2 ve + vb + vc + 2r - n1,

    with the empty sentinel when ve < 0."""
    if p.ve < 0:
        return GKPair.empty()
    n1 = min(2 * p.ve, p.vb + p.vc + 2 * p.r, 2 * p.vda + 2 * p.r)
    n2 = 2 * p.ve + p.vb + p.vc + 2 * p.r - n1
    return GKPair(n1, n2)


def int_circ(p: OrbitalParams) -> QPolynomial:
    """Primitive intersection number: GK at ve minus GK at ve - 1."""
    if p.ve < 0:
        raise InvalidParamsError(f"int_circ is undefined in the vanishing regime, got ve = {p.ve}")
    return gross_keating(gk_from_params(p)) - gross_keating(gk_from_params(p.with_ve(p.ve - 1)))


def int_total(p: OrbitalParams) -> QPolynomial:
    """Total intersection number: sum of int_circ at ve, ve-2, ve-4, ...

    Equals derivative_closed_form(p) exactly (checked by the identity
    sweeps), which is what ties the geometric side to the orbital side.
    """
    if p.ve < 0:
        raise InvalidParamsError(f"int_total is undefined in the vanishing regime, got ve = {p.ve}")
    out = QPolynomial.zero()
    ve = p.ve
    while ve >= 0:
        out = out + int_circ(p.with_ve(ve))
        ve -= 2
    return out


def int_circ_kr_closed(p: OrbitalParams) -> QPolynomial:
    """Closed form for the primitive intersection number against the single
    Cartan-cell indicator at level r (r >= 1, ve >= 1):

        (C+1) q**N + (C+2) q**(N-1)   if ve - r = vda <= (vb+vc-1)/2,
        2 q**N                         if (vb+vc-1)/2 + r < min(ve, vda + r),
        q**N + q**(N-1)                otherwise,

    where N = min(ve, (vb+vc-1)/2 + r, vda + r) and, in the first case,
    C = (vb + vc - 2 vda - 1)/2.  Equals int_circ(r) - int_circ(r-1)."""
    if p.r < 1:
        raise InvalidParamsError(f"int_circ_kr_closed needs r >= 1, got {p.r}")
    if p.ve < 1:
        raise InvalidParamsError(f"int_circ_kr_closed needs ve >= 1, got {p.ve}")
    s = p.vb + p.vc
    cap = p.n_bound()
    if p.ve - p.r == p.vda and p.vda <= (s - 1) // 2:
        c = (s - 2 * p.vda - 1) // 2
        return QPolynomial({cap: c + 1, cap - 1: c + 2})
    if (s - 1) // 2 + p.r < min(p.ve, p.vda + p.r):
        return QPolynomial.q_power(cap, 2)
    return QPolynomial({cap: 1, cap - 1: 1})


def geom_to_orbital(g: GeometricParams) -> PartialOrbitalParams:
    """Valuation translation from the unitary side to the orbit side:

        vb + vc = 2 v(beta) + 1,   ve = v(Nm u),   vda = v(alpha - conj(alpha)).
    """
    return PartialOrbitalParams(
        sum_bc=2 * g.v_beta + 1,
        ve=g.v_nm_u,
        vda=g.v_alpha_diff,
    )


def verify_miracle(p: OrbitalParams) -> dict:
    """Check that GK at (p, ve) equals D(ve) + D(ve - 1) in normalised form.

    Never raises on a mismatch; returns a report with both sides, raw."""
    if p.ve < 0:
        raise InvalidParamsError(f"verify_miracle is undefined in the vanishing regime, got ve = {p.ve}")
    lhs = gross_keating(gk_from_params(p))
    rhs = derivative_closed_form(p) + derivative_closed_form(p.with_ve(p.ve - 1))
    return {"params": p, "lhs": lhs, "rhs": rhs, "pass": lhs == rhs}
