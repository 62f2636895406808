"""Gross-Keating intersection polynomials and the rank-2 intersection numbers.

Only valuation data crosses this module's boundary: the intersection numbers
depend on the orbit parameters exclusively through (r, vb + vc, ve, vda), and
on the geometric side through (v(Nm u), v(beta), v(alpha - conj(alpha))).

The empty-divisor convention: when ve < 0 (the test vector u/pi is no longer
integral) the Gross-Keating pair degenerates; ``GKPair.empty()`` encodes this
and ``gross_keating`` maps it to 0.  That choice is what makes the
subtraction and telescoping identities below total, and it is validated by
the identity sweeps rather than assumed.

Packed values.  A Gross-Keating value that comes from orbit parameters has
int coefficients.  ``_packed_gk`` computes it as one int, its value at
q = 2**width (see ``exactpoly.unpack``), in a fixed number of int
operations on ``orbital._derivative_tables``' prefix tables, the way
``orbital._packed_derivative`` computes the derivative.  ``int_circ`` and
``int_total`` add and subtract such ints and decode the result once; the
miracle and afl sweeps in ``verify`` compare them without decoding.
``gross_keating`` decodes the same ``_packed_gk``, with one branch for the
Fraction top coefficient of a pair no orbit gives, and ``int_circ_kr_closed``
decodes ``_packed_kr_closed``, which the afl sweep compares with the level
difference of two packed int_circ values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactpoly import QPolynomial, unpack, width_for
from .orbital import (
    INFINITY,
    InvalidParamsError,
    OrbitalParams,
    _derivative_tables,
    _n_bound,
    _top_tables,
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

    ``_packed_gk`` decoded at the width of ``_gk_bound``, its top digit
    replaced by (n2 - n1 + 1)/2 where n1 and n2 - n1 are both even.
    """
    if g.is_empty():
        return QPolynomial.zero()
    n1, n2 = g.n1, g.n2
    width = width_for(_gk_bound(n1, n2))
    terms = unpack(_packed_gk(n1, n2, _top_tables(width, n1 >> 1)), width)
    if not (n1 | n2) & 1:  # n1 and n2 - n1 both even
        terms[n1 >> 1] = Fraction(n2 - n1 + 1, 2)
    return QPolynomial._raw(terms)


def _gk_pair(r: int, s: int, ve: int, vda: int | float) -> tuple[int, int]:
    """(n1, n2) of the orbit at level r with vb + vc = s, ve >= 0 and vda:
    n1 = min(2 ve, s + 2r, 2 vda + 2r) and n2 = 2 ve + s + 2r - n1.

    With cap = ``orbital._n_bound`` = min(ve, a, b), s + 2r = 2a + 1, so n1
    is 2 cap + 1 where a is strictly least (a < ve and a < b give 2a + 1 <
    2 ve and < 2b) and 2 cap elsewhere (cap = min(ve, b) <= a, so 2 cap <
    2a + 1).  Either way floor(n1/2) = cap."""
    cap = _n_bound(r, s, ve, vda)
    n1 = 2 * cap + 1 if cap < ve and cap < vda + r else 2 * cap
    return n1, 2 * ve + s + 2 * r - n1


def _gk_bound(n1: int, n2: int) -> int:
    """The coefficient bound of the Gross-Keating value of (n1, n2), and of
    the digits ``_packed_gk`` leaves where the value is not integral:
    n1 + n2 + 1.  The value's coefficients lie in [1, n1 + n2]: n1 + n2 -
    4j >= n2 - n1 + 2 for j <= (n1 - 1)/2, and (n2 - n1 + 1)/2 >= 1.  Where
    n1 and n2 - n1 are both even, the top digit is (n2 - n1)/2 + 1 <= n1 +
    n2 + 1 instead, 1 at (0, 0)."""
    return n1 + n2 + 1


def _packed_gk(n1: int, n2: int, tables: tuple) -> int:
    """The Gross-Keating value (``gross_keating``) of an integral pair (n1
    odd, or n2 - n1 odd), packed (see ``exactpoly.unpack``) at the width of
    ``tables``, ``orbital._derivative_tables`` with n >= floor(n1/2) or
    ``orbital._top_tables`` at degrees including floor(n1/2).  Every pair ``_gk_pair``
    gives is integral: n1 + n2 = 2 ve + vb + vc + 2r is odd.

    With m = floor(n1/2), the main sum of (n1 + n2 - 4j) q**j over j <= m
    is (n1 + n2) G[m] - 4 W[m].  For odd n1 that is the value.  For even n1
    the value's top term is (n2 - n1 + 1)/2 q**m where the main sum has
    n1 + n2 - 4m = n2 - n1, so (n2 - n1 - 1)/2 X**m is taken off.  The
    width must hold ``_gk_bound``."""
    width, geometric, weighted, _ = tables
    m = n1 >> 1
    x = (n1 + n2) * geometric[m] - 4 * weighted[m]
    if not n1 & 1:
        x -= (n2 - n1 - 1) // 2 << width * m
    return x


def _packed_circ(r: int, s: int, ve: int, vda: int | float, tables: tuple) -> int:
    """``int_circ`` at (r, vb + vc = s, ve >= 0, vda), packed as
    ``_packed_gk`` is: the value at ve less the value at ve - 1, 0 at
    ve - 1 = -1 (the empty sentinel).  The width must hold its coefficients,
    which lie within ``_total_bound``."""
    x = _packed_gk(*_gk_pair(r, s, ve, vda), tables)
    if ve:
        x -= _packed_gk(*_gk_pair(r, s, ve - 1, vda), tables)
    return x


def _total_bound(r: int, s: int, ve: int) -> int:
    """The coefficient bound of ``int_total`` and ``int_circ`` at level r,
    vb + vc = s and ve >= 0: M = (ve + 1) C, C = 2 ve + s + 2r.  GK(i), the
    Gross-Keating value at v(e) = i <= ve, has its coefficients in [1, n1 +
    n2] = [1, 2 i + s + 2r] (``_gk_bound``), within [0, C].  So a
    coefficient of any signed sum of the ve + 1 values, each partial sum
    included, lies in [-M, M], and int_circ's, a difference of two, in
    [-C, C].  The bound reads only the shape of each GK(i), never that the
    total equals the derivative, so a wrong closed form decodes to its own
    coefficients and never wraps into a right one."""
    return (ve + 1) * (2 * ve + s + 2 * r)


def _total_width(p: OrbitalParams) -> int:
    """The width ``int_total`` and ``int_circ`` pack p at: ``width_for`` of ``_total_bound``."""
    return width_for(_total_bound(p.r, p.vb + p.vc, p.ve))


def int_circ(p: OrbitalParams) -> QPolynomial:
    """Primitive intersection number: GK at ve minus GK at ve - 1, packed
    (``_packed_circ``) at ``int_total``'s width and decoded once.  The
    prefix sums are read at the two degrees floor(n1/2) = ``_n_bound`` of
    ``_gk_pair`` at ve and ve - 1 alone (``orbital._top_tables``), so the
    tables hold O(n) bits, not the O(n**2) of ``orbital._derivative_tables``."""
    if p.ve < 0:
        raise InvalidParamsError(f"int_circ is undefined in the vanishing regime, got ve = {p.ve}")
    r, s, ve, vda = p.r, p.vb + p.vc, p.ve, p.vda
    width = _total_width(p)
    degrees = [_n_bound(r, s, i, vda) for i in (ve, ve - 1) if i >= 0]
    return QPolynomial._from_packed(_packed_circ(r, s, ve, vda, _top_tables(width, *degrees)), width)


def int_total(p: OrbitalParams) -> QPolynomial:
    """Total intersection number: the sum of int_circ at ve, ve - 2, ...,
    down to ve mod 2, the recurrence total(ve) = int_circ(ve) + total(ve -
    2) that the afl sweep checks.  Each int_circ is ``_packed_circ`` at
    ``_total_width``, read from prefix tables up to ``n_bound``, which is
    at least floor(n1/2) = ``_n_bound`` at every v(e) <= ve, and the sum is
    decoded once.  Equals derivative_closed_form(p) exactly (checked by the
    identity sweeps), which is what ties the geometric side to the orbital
    side.
    """
    if p.ve < 0:
        raise InvalidParamsError(f"int_total is undefined in the vanishing regime, got ve = {p.ve}")
    r, s, ve, vda = p.r, p.vb + p.vc, p.ve, p.vda
    width = _total_width(p)
    tables = _derivative_tables(width, p.n_bound())
    x = sum([_packed_circ(r, s, i, vda, tables) for i in range(ve, -1, -2)])
    return QPolynomial._from_packed(x, width)


def int_circ_kr_closed(p: OrbitalParams) -> QPolynomial:
    """Closed form for the primitive intersection number against the single
    Cartan-cell indicator at level r (r >= 1, ve >= 1), ``_packed_kr_closed``
    decoded at the width of ``_kr_closed_bound``.  Equals int_circ(r) -
    int_circ(r-1)."""
    if p.r < 1:
        raise InvalidParamsError(f"int_circ_kr_closed needs r >= 1, got {p.r}")
    if p.ve < 1:
        raise InvalidParamsError(f"int_circ_kr_closed needs ve >= 1, got {p.ve}")
    s = p.vb + p.vc
    width = width_for(_kr_closed_bound(s))
    return QPolynomial._from_packed(_packed_kr_closed(p.r, s, p.ve, p.vda, width), width)


def _kr_closed_bound(s: int) -> int:
    """The coefficient bound of ``int_circ_kr_closed`` at vb + vc = s, any
    r, ve >= 1: (s + 3)/2, as its coefficients are 1, 2, C + 1 and C + 2
    with C <= (s - 1)/2 (``_packed_kr_closed``)."""
    return (s + 3) // 2


def _packed_kr_closed(r: int, s: int, ve: int, vda: int | float, width: int) -> int:
    """``int_circ_kr_closed`` at level r >= 1 of the orbit with vb + vc = s,
    ve >= 1 and vda, packed (see ``exactpoly.unpack``) at ``width``, with
    X = 2**width:

        (C+1) X**N + (C+2) X**(N-1)   if vda + r attains N and N = ve,
        2 X**N                         if (s-1)/2 + r is strictly least,
        X**N + X**(N-1)                otherwise,

    where N = ``orbital._n_bound`` >= 1 (r, ve >= 1) and, in the first
    case, C = (s - 2 vda - 1)/2 >= 0.  It reads no prefix table.  The width
    must hold ``_kr_closed_bound``."""
    cap = _n_bound(r, s, ve, vda)
    if cap == vda + r == ve:
        c = (s - 2 * vda - 1) // 2
        return (c + 1 << width * cap) + (c + 2 << width * (cap - 1))
    if cap < ve and cap < vda + r:
        return 2 << width * cap
    return (1 << width * cap) + (1 << width * (cap - 1))


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
    lhs = gross_keating(GKPair(*_gk_pair(p.r, p.vb + p.vc, p.ve, p.vda)))
    rhs = derivative_closed_form(p) + derivative_closed_form(p.with_ve(p.ve - 1))
    return {"params": p, "lhs": lhs, "rhs": rhs, "pass": lhs == rhs}
