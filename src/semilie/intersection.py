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

from .exactpoly import QPolynomial, unpack
from .orbital import (
    INFINITY,
    InvalidParamsError,
    OrbitalParams,
    _derivative_tables,
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

    ``_packed_gk`` decoded.  Its digits lie in [1, n1 + n2] (``_packed_gk``)
    but where n1 and n2 - n1 are both even: there the top digit is
    (n2 - n1)/2 + 1 <= n1 + n2 + 1, 1 at (0, 0), and (n2 - n1 + 1)/2 replaces
    it.  So the width is bits(n1 + n2 + 1) + 1.
    """
    if g.is_empty():
        return QPolynomial.zero()
    n1, n2 = g.n1, g.n2
    width = (n1 + n2 + 1).bit_length() + 1
    terms = unpack(_packed_gk(n1, n2, _top_tables(width, n1 >> 1)), width)
    if not (n1 | n2) & 1:  # n1 and n2 - n1 both even
        terms[n1 >> 1] = Fraction(n2 - n1 + 1, 2)
    return QPolynomial._raw(terms)


def _gk_pair(r: int, s: int, ve: int, vda: int | float) -> tuple[int, int]:
    """(n1, n2) of the orbit at level r with vb + vc = s, ve >= 0 and vda:
    n1 = min(2 ve, s + 2r, 2 vda + 2r) and n2 = 2 ve + s + 2r - n1."""
    n1 = 2 * ve  # min(2 ve, s + 2r, 2 vda + 2r), without calling min
    if s + 2 * r < n1:
        n1 = s + 2 * r
    if 2 * (vda + r) < n1:
        n1 = 2 * (vda + r)
    return n1, 2 * ve + s + 2 * r - n1


def _packed_gk(n1: int, n2: int, tables: tuple) -> int:
    """The Gross-Keating value (``gross_keating``) of an integral pair (n1
    odd, or n2 - n1 odd), packed (see ``exactpoly.unpack``) at the width of
    ``tables``, ``orbital._derivative_tables`` with n >= floor(n1/2) or
    ``orbital._top_tables`` at degrees including floor(n1/2).  Every pair ``_gk_pair``
    gives is integral: n1 + n2 = 2 ve + vb + vc + 2r is odd.

    With m = floor(n1/2), the main sum of (n1 + n2 - 4j) q**j over j <= m
    is (n1 + n2) G[m] - 4 W[m].  For odd n1 that is the value.  For even n1
    the value's top term is (n2 - n1 + 1)/2 q**m where the main sum has
    n1 + n2 - 4m = n2 - n1, so (n2 - n1 - 1)/2 X**m is taken off.

    The width must hold the value's coefficients, which lie in [1, n1 + n2]:
    n1 + n2 - 4j >= n2 - n1 + 2 for j <= (n1 - 1)/2, and (n2 - n1 + 1)/2 >= 1."""
    width, geometric, weighted, _ = tables
    m = n1 >> 1
    x = (n1 + n2) * geometric[m] - 4 * weighted[m]
    if not n1 & 1:
        x -= (n2 - n1 - 1) // 2 << width * m
    return x


def _packed_circ(r: int, s: int, ve: int, vda: int | float, tables: tuple) -> int:
    """``int_circ`` at (r, vb + vc = s, ve >= 0, vda), packed as
    ``_packed_gk`` is: the value at ve less the value at ve - 1, 0 at
    ve - 1 = -1 (the empty sentinel).  Both values' coefficients lie in
    [0, 2 ve + s + 2r], so the difference's lie in [-(2 ve + s + 2r),
    2 ve + s + 2r]."""
    x = _packed_gk(*_gk_pair(r, s, ve, vda), tables)
    if ve:
        x -= _packed_gk(*_gk_pair(r, s, ve - 1, vda), tables)
    return x


def _total_width(p: OrbitalParams) -> int:
    """The width at which ``int_total`` and ``int_circ`` pack p, bits(M) +
    1 with M = (ve + 1)(2 ve + vb + vc + 2r), which ``int_total`` shows to
    hold both."""
    return ((p.ve + 1) * (2 * p.ve + p.vb + p.vc + 2 * p.r)).bit_length() + 1


def _total_tables(p: OrbitalParams) -> tuple:
    """``orbital._derivative_tables`` at ``_total_width`` and with n =
    ``n_bound``: at every v(e) = i <= ve, floor(n1/2) = min(i, (vb + vc -
    1)/2 + r, vda + r) is at most that."""
    return _derivative_tables(_total_width(p), p.n_bound())


def int_circ(p: OrbitalParams) -> QPolynomial:
    """Primitive intersection number: GK at ve minus GK at ve - 1, packed
    (``_packed_circ``) at ``int_total``'s width and decoded once.  The
    prefix sums are read at the two degrees floor(n1/2) of ``_gk_pair`` at
    ve and ve - 1 alone (``orbital._top_tables``), so the tables hold O(n)
    bits, not the O(n**2) of ``orbital._derivative_tables``."""
    if p.ve < 0:
        raise InvalidParamsError(f"int_circ is undefined in the vanishing regime, got ve = {p.ve}")
    r, s, ve, vda = p.r, p.vb + p.vc, p.ve, p.vda
    width = _total_width(p)
    degrees = [_gk_pair(r, s, i, vda)[0] >> 1 for i in (ve, ve - 1) if i >= 0]
    return QPolynomial._from_packed(_packed_circ(r, s, ve, vda, _top_tables(width, *degrees)), width)


def int_total(p: OrbitalParams) -> QPolynomial:
    """Total intersection number: the sum of int_circ at ve, ve - 2, ...,
    down to ve mod 2.  Each int_circ is GK(i) - GK(i - 1), GK(i) the
    Gross-Keating value at v(e) = i and GK(-1) = 0 the empty sentinel, so
    the sum telescopes to one alternating sum,

        sum_{i=0}^{ve} (-1)**(ve - i) GK(i),

    made of ``_packed_gk`` ints and decoded once.  Equals
    derivative_closed_form(p) exactly (checked by the identity sweeps),
    which is what ties the geometric side to the orbital side.

    It packs at width B = bits(M) + 1, M = (ve + 1)(2 ve + s + 2r) with
    s = vb + vc, which holds every coefficient of the sum whatever cancels.
    GK(i)'s coefficients lie in [1, n1 + n2] = [1, 2 i + s + 2r]
    (``_packed_gk``), within [0, C] for C = 2 ve + s + 2r.  So a coefficient
    of any signed sum of the ve + 1 values, each partial sum included, lies
    in [-M, M], and M < 2**bits(M) = 2**(B - 1).  The bound reads only the
    shape of each GK(i), never that the sum equals the derivative, so a
    wrong closed form decodes to its own coefficients and never wraps into
    a right one.  int_circ packs at the same width: its coefficients lie in
    [-C, C] (``_packed_circ``).
    """
    if p.ve < 0:
        raise InvalidParamsError(f"int_total is undefined in the vanishing regime, got ve = {p.ve}")
    r, s, ve, vda = p.r, p.vb + p.vc, p.ve, p.vda
    tables = _total_tables(p)
    x = sum([_packed_gk(*_gk_pair(r, s, i, vda), tables) for i in range(ve, -1, -2)])
    x -= sum([_packed_gk(*_gk_pair(r, s, i, vda), tables) for i in range(ve - 1, -1, -2)])
    return QPolynomial._from_packed(x, tables[0])


def int_circ_kr_closed(p: OrbitalParams) -> QPolynomial:
    """Closed form for the primitive intersection number against the single
    Cartan-cell indicator at level r (r >= 1, ve >= 1), ``_packed_kr_closed``
    decoded at width bits((vb + vc + 3)/2) + 1, its coefficient bound.
    Equals int_circ(r) - int_circ(r-1)."""
    if p.r < 1:
        raise InvalidParamsError(f"int_circ_kr_closed needs r >= 1, got {p.r}")
    if p.ve < 1:
        raise InvalidParamsError(f"int_circ_kr_closed needs ve >= 1, got {p.ve}")
    s = p.vb + p.vc
    width = ((s + 3) // 2).bit_length() + 1
    return QPolynomial._from_packed(_packed_kr_closed(p.r, s, p.ve, p.vda, width), width)


def _packed_kr_closed(r: int, s: int, ve: int, vda: int | float, width: int) -> int:
    """``int_circ_kr_closed`` at level r >= 1 of the orbit with vb + vc = s,
    ve >= 1 and vda, packed (see ``exactpoly.unpack``) at ``width``, with
    X = 2**width:

        (C+1) X**N + (C+2) X**(N-1)   if ve - r = vda <= (s-1)/2,
        2 X**N                         if (s-1)/2 + r < min(ve, vda + r),
        X**N + X**(N-1)                otherwise,

    where N = min(ve, (s-1)/2 + r, vda + r) >= 1 (r, ve >= 1) and, in the
    first case, C = (s - 2 vda - 1)/2 >= 0.  It reads no prefix table.

    The width must hold the coefficients, which lie in [1, (s + 3)/2]: C + 2
    is at most (s + 3)/2.  That is below 2 ve + s + 2 r, the int_circ bound
    of ``verify._afl_width``."""
    cap = (s - 1) // 2 + r  # min(ve, (s - 1)/2 + r, vda + r), without calling min
    if ve < cap:
        cap = ve
    if vda + r < cap:
        cap = vda + r
    if ve - r == vda and 2 * vda < s:
        c = (s - 2 * vda - 1) // 2
        return (c + 1 << width * cap) + (c + 2 << width * (cap - 1))
    if (s - 1) // 2 + r < ve and (s - 1) // 2 < vda:
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
