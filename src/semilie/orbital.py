"""Rank-2 semi-Lie weighted orbital integrals, exactly.

An orbit is parametrised by five valuation integers:

  r    -- index of the Hecke basis element (r >= 0),
  vb   -- v(b),
  vc   -- v(c),        with vb + vc odd and >= 1,
  ve   -- v(e),        negative values put the orbit in the vanishing regime,
  vda  -- v(d - a),    >= 0, or INFINITY when only a lower bound is known.

``OrbitalParams`` checks all of this when it is constructed, with r, vb, vc
and ve exact ints.  ve < 0 always constructs: every orbital integral and
derivative is 0 there; ``int_circ``, ``int_total``, ``verify_miracle`` reject it.

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

Packed rows.  The two series builders, the closed form and the support-sum
oracle, return one int per power of T, its q-polynomial coefficient packed
(see ``exactpoly``) at the tuple's width (``row_width``).  The public
``orbital_closed_form`` and ``orbital_support_sum`` decode the rows
(``LaurentSeries._from_rows``); the orbital sweep in ``verify`` works on the
rows themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exactpoly import KeyedModule, LaurentSeries, QPolynomial

#: Sentinel for an unbounded v(d - a).  Compares larger than every int.
INFINITY = math.inf


class InvalidParamsError(ValueError):
    """Raised when orbit parameters violate the admissibility constraints."""


def require_ints(**fields) -> None:
    """Reject the first field that is not exactly an ``int`` (bools included)."""
    for name, value in fields.items():
        if type(value) is not int:
            raise InvalidParamsError(f"{name} must be an int, got {value!r}")


@dataclass(frozen=True)
class OrbitalParams:
    """Valuation data of a regular semisimple orbit plus a basis index r."""

    r: int
    vb: int
    vc: int
    ve: int
    vda: int | float = 0

    def __post_init__(self):
        if not type(self.r) is type(self.vb) is type(self.vc) is type(self.ve) is int:
            require_ints(r=self.r, vb=self.vb, vc=self.vc, ve=self.ve)
        if self.r < 0:
            raise InvalidParamsError(f"r must be >= 0, got {self.r}")
        s = self.vb + self.vc
        if s % 2 == 0:
            raise InvalidParamsError(f"vb + vc must be odd, got {self.vb} + {self.vc} = {s}")
        if s < 1:
            raise InvalidParamsError(f"vb + vc must be >= 1, got {s}")
        if self.vda != INFINITY and (type(self.vda) is not int or self.vda < 0):
            raise InvalidParamsError(f"vda must be a nonnegative int or INFINITY, got {self.vda!r}")

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
        return OrbitalParams(r, self.vb, self.vc, self.ve, self.vda)

    def with_ve(self, ve: int) -> "OrbitalParams":
        return OrbitalParams(self.r, self.vb, self.vc, ve, self.vda)

    def label(self) -> dict:
        vda = "inf" if self.vda == INFINITY else self.vda
        return {"r": self.r, "vb": self.vb, "vc": self.vc, "ve": self.ve, "vda": vda}


def transfer_factor(p: OrbitalParams) -> int:
    """The matching sign (-1)**(vc + 1) = (-1)**vb."""
    return -1 if p.vc % 2 == 0 else 1


def orbital_closed_form(p: OrbitalParams) -> LaurentSeries:
    """The orbital integral as a signed sum of geometric q-blocks times T**k.

    Zero when ve < 0.  Otherwise the coefficient of T**k is
    (-1)**k (1 + q + ... + q**n(k)) over k in [-(vb+r), 2 ve + vc + r], plus,
    when vda < ve - r and vb + vc > 2 vda, a plateau correction
    (-1)**k c(k) q**(vda + r) over k in [2 vda - vb + r, 2 ve + vc - 2 vda - r].
    """
    width = row_width(p)
    return LaurentSeries._from_rows(_closed_form_rows(p, width), width)


def support_points(r: int, s: int, ve: int) -> int:
    """A bound on the support-lattice points of ``orbital_support_sum`` at
    level r, vb + vc = s and v(e) = ve >= 0: (ve + 1)(2 ve + 2 s + 2 r + 1),
    since per n2 the first block has theta + 2r + 1 <= s + 2r + 1 points and
    the two extra blocks at most ve + s and ve."""
    return (ve + 1) * (2 * ve + 2 * s + 2 * r + 1)


def row_width(p: OrbitalParams) -> int:
    """Bits per q-digit B at which the T-power rows of ``p``'s series pack.

    Each row of the two builders below is a q-polynomial with exponents in
    [0, n_bound] (``n_bound`` <= ve) and int coefficients, packed as its
    value at q = 2**B (see ``exactpoly.unpack``).  Every coefficient of the
    rows, of their sum (the value at s = 0) and of their k-weighted sum (the
    log-derivative) must be below 2**(B - 1) in absolute value.  Each
    support-lattice point adds +-1 to one coefficient, so an oracle
    coefficient is at most the number of points P (``support_points``).  A
    closed-form coefficient, and any coefficient of the sum of its rows, is
    at most the total coefficient mass M <= (2 ve + s + 2 r + 1)(n_bound +
    1 + plateau height), and M <= P: the plateau is active only where
    vda < ve - r and s > 2 vda, so (s - 1)/2 >= vda, n_bound = vda + r and
    n_bound + plateau = ve; elsewhere it is 0 and n_bound <= ve.  Either way
    n_bound + 1 + plateau <= ve + 1, and 2 ve + s + 2 r + 1 <= 2 ve + 2 s +
    2 r + 1 as s >= 1.  Both series live on k in [-(vb + r), 2 ve + vc + r],
    so a k-weighted coefficient is at most K = max |k| times P, and
    B = bits(P * K) + 1 bounds all of them.  B reads only r, vb, vc and ve,
    never vda.  Zero rows (ve < 0) pack at any width.
    """
    if p.ve < 0:
        return 2
    r, vb, vc, ve = p.r, p.vb, p.vc, p.ve
    k_max = max(abs(vb + r), abs(2 * ve + vc + r), 1)
    return (support_points(r, vb + vc, ve) * k_max).bit_length() + 1


def _closed_form_rows(p: OrbitalParams, width: int) -> dict[int, int]:
    """``orbital_closed_form`` as packed rows {k: row}, ``width`` >=
    ``row_width(p)``: with X = 2**width, row k is (-1)**k (1 + X + ... +
    X**n(k)) plus the plateau monomial (-1)**k c(k) X**(vda + r), of the same
    sign, so no row is 0.  Rows run over increasing k."""
    if p.ve < 0:
        return {}
    r, vb, vc, ve, vda = p.r, p.vb, p.vc, p.ve, p.vda
    cap = p.n_bound()
    lo = -(vb + r)
    hi = 2 * ve + vc + r
    geometric = [1]  # geometric[n] = 1 + X + ... + X**n
    for n in range(1, cap + 1):
        geometric.append(geometric[-1] | 1 << width * n)
    rows = {}
    for k in range(lo, hi + 1):
        # n(k) = min((k - lo) // 2, (hi - k) // 2, cap), without calling min
        n, n_hi = (k - lo) >> 1, (hi - k) >> 1
        if n_hi < n:
            n = n_hi
        if cap < n:
            n = cap
        g = geometric[n]
        rows[k] = -g if k & 1 else g
    if vda < ve - r and vb + vc > 2 * vda:
        c_lo = 2 * vda - vb + r
        c_hi = 2 * ve + vc - 2 * vda - r
        plateau = ve - vda - r
        x = 1 << width * (vda + r)
        for k in range(c_lo, c_hi + 1):
            c_k = min(k - c_lo, c_hi - k, plateau) * x
            rows[k] += -c_k if k & 1 else c_k
    return rows


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
    width = row_width(p)
    return LaurentSeries._from_rows(_support_sum_rows(p, width), width)


def _support_sum_rows(p: OrbitalParams, width: int) -> dict[int, int]:
    """``orbital_support_sum`` as packed rows {k: row}, ``width`` >=
    ``row_width(p)``, in increasing k with zero rows dropped.

    Every lattice point adds its own X**e, X = 2**width, to the unsigned
    total of row k, kept in a list indexed by k - lo; the sign (-1)**k is
    applied once per row.  lo is the walk's own lowest k: k rises by 2 per
    n2 step and each block's top m by at most 1, so every block reaches its
    lowest k at n2 = 0, and lo is the least of those.  Only the accumulator
    is packed."""
    if p.ve < 0:
        return {}
    r, vb, vc, ve = p.r, p.vb, p.vc, p.ve
    th = p.theta()
    even = th % 2 == 0
    half = th // 2
    base = vc + r
    m_top = th + 2 * r  # the first block's top m; the extra blocks' at n2 = 0 follow
    if even:
        m_top = max(m_top, max(r, -half) + vb + vc + r, half + r)
    lo = base - m_top
    power = [1 << width * e for e in range(ve + 1)]  # power[e] = X**e
    acc = [0] * (2 * ve + m_top + 1)  # acc[k - lo], k in [lo, 2 ve + base]
    for n2 in range(ve + 1):
        i0 = 2 * n2 + m_top  # the index of k at m = 0
        split, x_top = 2 * n2, power[n2]
        for m in range(th + 2 * r + 1):
            acc[i0 - m] += power[m >> 1] if m < split else x_top  # X**min(n2, m // 2)
    if even:
        m_lo = th + 2 * r + 1
        for n2 in range(ve + 1):
            i0 = 2 * n2 + m_top
            x = power[min(n2, half + r)]
            for m_hi in (max(r, n2 - half) + vb + vc + r, n2 + half + r):
                for m in range(m_lo, m_hi + 1):
                    acc[i0 - m] += x
    rows = {}
    for k, x in enumerate(acc, lo):
        if x:
            rows[k] = -x if k & 1 else x
    return rows


def derivative_closed_form(p: OrbitalParams) -> QPolynomial:
    """The normalised derivative D = (-1)**(vc+r)/log(q) * dOrb/ds at s=0.

    D depends on (vb, vc) only through vb + vc.  It is the main sum

        sum_{j=0}^{N} ((2 ve + vb + vc + 1)/2 + r - 2j) q**j

    minus, when kappa = ve - (vda + r) >= 0 and vb + vc > 2 vda, the
    correction q**(vda+r) * (kappa/2 when kappa is even, otherwise
    (ve + (vb+vc)/2 - 2 vda - r) - kappa/2).  Zero in the vanishing regime.
    """
    if p.ve < 0:
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
    if p.r < 1:
        raise InvalidParamsError(
            "derivative_combo needs r >= 1; at r = 0 the combination is the "
            "single basis element, use derivative_closed_form"
        )
    if p.ve < 0:
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

    def _key(self, r: int) -> int | None:
        return r if r >= 0 else None  # the basis has no negative indices; treat as 0


def derivative_of_vector(base: OrbitalParams, vec: HeckeVector) -> QPolynomial:
    """(1/log q) * dOrb/ds at s=0 against a basis combination.

    The basis index of each entry of ``vec`` supplies r; ``base.r`` is
    ignored.  All (-1)**(vc+r) normalisation signs are resolved internally:
    the result is sum_r c_r (-1)**(vc+r) D(r), i.e. the un-normalised
    derivative divided by log q only.
    """
    out = QPolynomial.zero()
    for r, c in vec.items():
        d = derivative_closed_form(base.with_r(r))
        if (base.vc + r) % 2:
            d = -d
        out = out + d * c
    return out
