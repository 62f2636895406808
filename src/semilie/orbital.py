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
oracle, return one canonical pair (lo, rows): ``rows`` lists the T-power
coefficients of T**lo, T**(lo + 1), ... in order, each a q-polynomial packed
(see ``exactpoly``) at any width from the tuple's ``row_width`` on, with no
zero row at either end, so two pairs are equal exactly when their series
are.  Both builders start at lo = -(vb + r); the zero series is (0, []).
The public ``orbital_closed_form`` and ``orbital_support_sum`` decode the
pair (``LaurentSeries._from_rows``); the orbital sweep in ``verify`` works
on the pair itself.  The closed form's rows may be shared: calls on the
same ``_derivative_tables`` return one memoised list for every tuple of a
tent, so no caller may mutate the rows a builder returns.
``_packed_derivative`` is D packed the same way, one int per tuple, which
the sweeps and the kernel matrix read and ``derivative_closed_form``
decodes.  The three private builders take the five ints (r, vb, vc, ve,
vda) rather than an ``OrbitalParams``, so that a sweep builds none per
tuple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add, neg, sub

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
    tables = _derivative_tables(width, max(p.n_bound(), 0))
    return LaurentSeries._from_rows(_closed_form_rows(p.r, p.vb, p.vc, p.ve, p.vda, tables), width)


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


def _closed_form_rows(r: int, vb: int, vc: int, ve: int, vda: int | float, tables: tuple) -> tuple[int, list[int]]:
    """``orbital_closed_form`` at (r, vb, vc, ve, vda) as the pair (lo, rows)
    (see "Packed rows" above), packed at the width of ``tables``,
    ``_derivative_tables`` at a width >= ``row_width`` with n >= n_bound;
    the arguments must be admissible (``OrbitalParams``).  With
    X = 2**width, row k is (-1)**k G[n(k)], G[n] = 1 + X + ... + X**n, plus
    the plateau monomial (-1)**k c(k) X**(vda + r), of the same sign, so no
    row is 0.  The returned rows may be shared with other calls on the same
    ``tables`` and must never be mutated.

    With j = k - lo, lo = -(vb + r), the span h = hi - lo = 2 ve + vb + vc
    + 2 r is odd, so n(k) = min(j // 2, (h - j) // 2, cap) is the same at
    j = 2i and 2i + 1: min(i, H - i, cap), H = (h - 1)/2 (``half``).  Over i in [0, H]
    that is a tent G[0], ..., G[cap - 1], then G[cap] H + 1 - 2 cap times,
    then G[cap - 1], ..., G[0], as cap <= ve and cap <= (vb + vc - 1)/2 + r
    give 2 cap <= H.  The rows are the tent at even k and its negation at
    odd k, each built by list slicing; they read only (half, cap, lo & 1)
    and G, so they are built once per key and kept in the memo of
    ``tables``.  The plateau adds the trapezoid c(k) = min(k - c_lo, c_hi -
    k, plateau) X**(vda + r) to a copy of them: a ramp, a flat top and the
    ramp reversed, c_hi - c_lo being odd and above 2 plateau, added with
    the sign of k on the two stride-2 slices of its span."""
    if ve < 0:
        return 0, []
    width, geometric, _, tents = tables
    a = (vb + vc - 1) // 2 + r
    cap = ve if ve < a else a  # min(ve, (vb + vc - 1)/2 + r, vda + r)
    if vda + r < cap:
        cap = vda + r
    lo = -(vb + r)
    half = ve + a
    key = half, cap, lo & 1
    rows = tents.get(key)
    if rows is None:
        rise = geometric[:cap]
        tent = rise + geometric[cap:cap + 1] * (half + 1 - 2 * cap) + rise[::-1]
        rows = tents[key] = [0] * (2 * half + 2)
        rows[lo & 1::2] = tent  # the even k
        rows[(lo + 1) & 1::2] = map(neg, tent)  # the odd k
    if vda < ve - r and vb + vc > 2 * vda:
        c_lo = 2 * vda - vb + r
        c_hi = 2 * ve + vc - 2 * vda - r
        plateau = ve - vda - r
        x = 1 << width * (vda + r)
        ramp = range(0, plateau * x, x)
        trapezoid = [*ramp, *[plateau * x] * (c_hi - c_lo + 1 - 2 * plateau), *ramp[::-1]]
        rows = [*rows]
        i, j = c_lo - lo, c_hi - lo + 1
        first, second = (sub, add) if c_lo & 1 else (add, sub)
        rows[i:j:2] = map(first, rows[i:j:2], trapezoid[::2])
        rows[i + 1:j:2] = map(second, rows[i + 1:j:2], trapezoid[1::2])
    return lo, rows


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
    return LaurentSeries._from_rows(_support_sum_rows(p.r, p.vb, p.vc, p.ve, p.vda, width), width)


def _support_sum_rows(r: int, vb: int, vc: int, ve: int, vda: int | float, width: int) -> tuple[int, list[int]]:
    """``orbital_support_sum`` at (r, vb, vc, ve, vda) as the pair (lo, rows)
    (see "Packed rows" above), packed at ``width`` >= ``row_width``; the
    arguments must be admissible (``OrbitalParams``): the lattice walk
    ``_support_walk`` at (r, vb + vc, ve, theta) finished at its lo by
    ``_support_finish``.  lo is the walk's own lowest k, base - m_top with
    base = vc + r; it is -(vb + r), the closed form's, as m_top = vb + vc +
    2 r (see ``_support_walk``)."""
    if ve < 0:
        return 0, []
    s = vb + vc
    m_top, acc = _support_walk(r, s, ve, min(s, 2 * vda), width)
    return _support_finish(vc + r - m_top, acc)


def _support_walk(r: int, s: int, ve: int, theta: int, width: int) -> tuple[int, list[int]]:
    """The support lattice of ``orbital_support_sum`` at level r, vb + vc =
    s, v(e) = ve >= 0 and theta = min(s, 2 vda), walked point by point, as
    (m_top, acc): every lattice point adds its own X**e, X = 2**width, to
    the unsigned total of its row k, kept in ``acc`` indexed by k - lo with
    lo = base - m_top, base = vc + r.

    The walk reads only (r, s, ve, theta, width).  The blocks' n2 and m
    ranges and weights are written in r, ve, theta, half = theta/2 and
    vb + vc + r = s + r; k = 2 n2 - m + base enters only through its index
    k - lo = 2 n2 - m + m_top, where base cancels; and m_top is a function
    of r, s and theta.  So every split vb of s with the same theta walks
    the same lattice into the same list, and only lo, the offset of k,
    depends on vc.

    k rises by 2 per n2 step and each block's top m by at most 1, so every
    block reaches its lowest k at n2 = 0, and m_top is the largest top m
    there: m_top = s + 2 r.  At an odd theta, theta = s and m_top is the
    first block's theta + 2 r.  At an even theta = 2 vda < s, half = vda >=
    0, so max(r, -half) = r and the first extra block's top is r + s + r,
    above the first block's 2 vda + 2 r and the second extra block's vda +
    r.  Only the accumulator is packed."""
    even = theta % 2 == 0
    half = theta // 2
    m_top = theta + 2 * r  # the first block's top m; the extra blocks' at n2 = 0 follow
    if even:
        m_top = max(m_top, max(r, -half) + s + r, half + r)
    power = [1 << width * e for e in range(ve + 1)]  # power[e] = X**e
    acc = [0] * (2 * ve + m_top + 1)  # acc[k - lo], k in [lo, 2 ve + base]
    first = range(theta + 2 * r + 1)  # the first block's m, the same at every n2
    for n2 in range(ve + 1):
        i0 = 2 * n2 + m_top  # the index of k at m = 0
        split, x_top = 2 * n2, power[n2]
        for m in first:
            acc[i0 - m] += power[m >> 1] if m < split else x_top  # X**min(n2, m // 2)
    if even:
        m_lo = theta + 2 * r + 1
        half_r, top_r = half + r, s + r
        for n2 in range(ve + 1):
            i0 = 2 * n2 + m_top
            x = power[n2 if n2 < half_r else half_r]  # X**min(n2, half + r)
            m_hi = (r if r > n2 - half else n2 - half) + top_r  # max(r, n2 - half) + s + r
            for m in range(m_lo, m_hi + 1):
                acc[i0 - m] += x
            for m in range(m_lo, n2 + half_r + 1):
                acc[i0 - m] += x
    return m_top, acc


def _support_finish(lo: int, acc: list[int]) -> tuple[int, list[int]]:
    """The pair (lo, rows) of a walk's unsigned accumulator ``acc``, row k
    at acc[k - lo]: the sign (-1)**k applied to the odd k in one slice
    assignment and zero rows at either end trimmed, into a new list, so
    that ``acc`` may be finished again at another lo."""
    rows = [*acc]
    rows[(lo + 1) & 1::2] = map(neg, rows[(lo + 1) & 1::2])  # the odd k
    while rows and not rows[-1]:
        rows.pop()
    if not rows:
        return 0, []
    start = 0
    while not rows[start]:
        start += 1
    return lo + start, rows[start:] if start else rows


def derivative_closed_form(p: OrbitalParams) -> QPolynomial:
    """The normalised derivative D = (-1)**(vc+r)/log(q) * dOrb/ds at s=0,
    ``_packed_derivative`` decoded; 0 in the vanishing regime (ve < 0).
    It packs at width bits(T) + 1, T = ve + (vb + vc + 1)/2 + r: D's
    coefficients lie in [0, T], as ``kernel._packed_matrix`` proves."""
    if p.ve < 0:
        return QPolynomial.zero()
    width = (p.ve + (p.vb + p.vc + 1) // 2 + p.r).bit_length() + 1
    x = _packed_derivative(p.r, p.vb, p.vc, p.ve, p.vda, _top_tables(width, p.n_bound()))
    return QPolynomial._from_packed(x, width)


def _derivative_tables(width: int, n: int) -> tuple[int, list[int], list[int], dict]:
    """(width, G, W, tents), the prefix tables that ``_packed_derivative``
    reads at X = 2**width, G[m] = X**0 + ... + X**m and W[m] = 1 X + 2 X**2
    + ... + m X**m for 0 <= m <= n, and the memo of the signed tent rows
    that ``_closed_form_rows`` slices out of G, empty until it fills it."""
    geometric, weighted = [1], [0]
    for m in range(1, n + 1):
        x = 1 << width * m
        geometric.append(geometric[-1] + x)
        weighted.append(weighted[-1] + m * x)
    return width, geometric, weighted, {}


def _top_tables(width: int, *degrees: int) -> tuple[int, dict[int, int], dict[int, int], None]:
    """``_derivative_tables`` read at the given degrees m alone, as maps
    (the full tables hold O(n**2) bits), with no tent memo: G[m] =
    (X**(m + 1) - 1)/(X - 1) and W[m] = X (m X**(m + 1) - (m + 1) X**m +
    1)/(X - 1)**2, X = 2**width."""
    x = 1 << width
    geometric, weighted = {}, {}
    for m in degrees:
        top = 1 << width * (m + 1)
        geometric[m] = (top - 1) // (x - 1)
        weighted[m] = x * (m * top - (m + 1) * (top >> width) + 1) // (x - 1) ** 2
    return width, geometric, weighted, None


def _packed_derivative(r: int, vb: int, vc: int, ve: int, vda: int | float, tables: tuple) -> int:
    """D at (r, vb, vc, ve, vda), packed (see ``exactpoly.unpack``) at the
    width of ``tables``, ``_derivative_tables`` with n >= cap = min(ve,
    (s - 1)/2 + r, vda + r), s = vb + vc, or ``_top_tables`` at n = cap;
    the arguments must be admissible (``OrbitalParams``), and ve < 0 gives
    0.  D is the main sum of (top - 2j) q**j over j <= cap, top = (2 ve + s
    + 1)/2 + r, which is top G[cap] - 2 W[cap], less, when kappa = ve -
    (vda + r) >= 0 and s > 2 vda, corr q**(vda + r): corr = kappa/2 for
    even kappa, else (ve + s/2 - 2 vda - r) - kappa/2.

    The width must hold D's coefficients, which lie in [0, ve + (s + 1)/2
    + r] (the bound on M in ``kernel._packed_matrix``); any width at least
    ``row_width`` does, as its 2**(B - 1) exceeds the support points
    P >= 2 ve + 2 s + 2 r + 1, more than that bound."""
    width, geometric, weighted, _ = tables
    s = vb + vc
    cap = (s - 1) // 2 + r  # min(ve, (s - 1)/2 + r, vda + r), without calling min
    if ve < cap:
        cap = ve
    if vda + r < cap:
        cap = vda + r
    if cap < 0:
        return 0
    x = ((2 * ve + s + 1) // 2 + r) * geometric[cap] - 2 * weighted[cap]
    kap = ve - vda - r
    if kap >= 0 and s > 2 * vda:
        corr = kap // 2 if kap % 2 == 0 else (2 * ve + s - 4 * vda - 2 * r - kap) // 2
        x -= corr << width * (vda + r)
    return x


def derivative_combo(p: OrbitalParams) -> QPolynomial:
    """Normalised derivative against the sum of two consecutive basis
    elements (index r and r - 1), for r >= 1:

        (q**N + ... + 1) + C q**N + C' q**(N-1)

    with N = min(ve, (vb+vc-1)/2 + r, vda + r) and C, C' as below.
    Equals derivative_closed_form(r) - derivative_closed_form(r-1).
    C and C' are >= 0, so the coefficients are positive and are built as
    one dict; C' is 0 at N = 0, which needs ve = 0 (r >= 1), so kappa < 0.
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
    terms = dict.fromkeys(range(cap + 1), 1)
    terms[cap] += c_top
    if c_next:
        terms[cap - 1] += c_next
    return QPolynomial._raw(terms)


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
