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
tent or plateau key, so no caller may mutate the rows a builder returns.
``_packed_derivative`` is D packed the same way, one int per tuple, which
the sweeps and the kernel matrix read and ``derivative_closed_form``
decodes; ``_packed_combo`` is ``derivative_combo`` packed, which the afl
sweep reads and ``derivative_combo`` decodes.  The private builders take
the orbit's ints rather than an ``OrbitalParams``, so that a sweep builds
none per tuple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add, neg, sub

from .exactpoly import KeyedModule, LaurentSeries, QPolynomial, width_for

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
        """``_theta`` of the orbit."""
        return _theta(self.vb + self.vc, self.vda)

    def n_bound(self) -> int:
        """``_n_bound`` of the orbit, the top q-degree."""
        return _n_bound(self.r, self.vb + self.vc, self.ve, self.vda)

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


def _theta(s: int, vda: int | float) -> int:
    """theta = min(s, 2 vda) of an orbit with vb + vc = s: the even 2 vda
    where 2 vda < s, else the odd s, so theta is odd exactly where vda >
    (s - 1)/2.  It is nondecreasing in vda."""
    return s if s < 2 * vda else 2 * vda


def _n_bound(r: int, s: int, ve: int, vda: int | float) -> int:
    """n_bound = min(ve, a, b), a = (s - 1)/2 + r and b = vda + r (b is
    infinite with vda), of the orbit at level r with vb + vc = s: the top
    q-degree of every closed form.  It is < 0 exactly where ve < 0, as a
    and b are >= 0.

    Every closed form splits on which term attains it, ties going to the
    first case that holds:
      * b, ``cap == vda + r``: b <= ve, that is kappa = ve - b >= 0, and
        b <= a, that is 2 vda <= s - 1, so theta = 2 vda is even.  This is
        D's correction and the combination's plateau; the closed form's
        plateau, of height ve - cap, also needs ``cap < ve``.
      * a strictly least, ``cap < ve and cap < vda + r``: then cap = a, and
        a < b reads 2 vda > s - 1, so theta = s is odd.  This is the odd
        n1 = 2 cap + 1 of ``intersection._gk_pair`` and the single cell's
        2 X**N.
      * ve otherwise: cap = ve < b.
    As s is odd, theta (``_theta``) is odd exactly where a < b: never in the
    first case, always in the second.  So n_bound is one number per (r, s,
    ve, theta): either theta = 2 vda < s fixes vda, or theta = s < 2 vda,
    b > a and n_bound = min(ve, a) does not read vda."""
    a = (s - 1) // 2 + r
    cap = ve if ve < a else a
    b = vda + r
    return b if b < cap else cap


def transfer_factor(p: OrbitalParams) -> int:
    """The matching sign (-1)**(vc + 1) = (-1)**vb."""
    return -1 if p.vc % 2 == 0 else 1


def orbital_closed_form(p: OrbitalParams) -> LaurentSeries:
    """The orbital integral as a signed sum of geometric q-blocks times T**k.

    Zero when ve < 0.  Otherwise the coefficient of T**k is
    (-1)**k (1 + q + ... + q**n(k)) over k in [-(vb+r), 2 ve + vc + r], plus,
    when vda + r attains n_bound and is below ve (``_n_bound``), a plateau
    correction (-1)**k c(k) q**(vda + r) over k in [2 vda - vb + r,
    2 ve + vc - 2 vda - r].
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


def _rows_bound(r: int, vb: int, vc: int, ve: int) -> int:
    """The coefficient bound of the series rows at (r, vb, vc, ve), of
    their sum (the value at s = 0) and of their k-weighted sum (the
    log-derivative): P K, P = ``support_points(r, vb + vc, ve)`` and K =
    max(|vb + r|, |2 ve + vc + r|, 1); 1 at ve < 0, where the rows are 0.

    Each support-lattice point adds +-1 to one coefficient of a row, a
    q-polynomial with exponents in [0, n_bound] (``n_bound`` <= ve), so an
    oracle coefficient is at most the number of points P.  A closed-form
    coefficient, and any coefficient of the sum of its rows, is at most the
    total coefficient mass M <= (2 ve + s + 2 r + 1)(n_bound + 1 + plateau
    height), s = vb + vc, and M <= P: the plateau is active only where
    vda + r attains n_bound below ve (``_n_bound``), its height ve -
    n_bound; elsewhere it is 0 and n_bound <= ve.  Either way
    n_bound + 1 + plateau <= ve + 1, and 2 ve + s + 2 r + 1 <= 2 ve + 2 s +
    2 r + 1 as s >= 1.  Both series live on k in [-(vb + r), 2 ve + vc + r],
    so a k-weighted coefficient is at most K P.  The bound never reads vda."""
    if ve < 0:
        return 1
    return support_points(r, vb + vc, ve) * max(abs(vb + r), abs(2 * ve + vc + r), 1)


def row_width(p: OrbitalParams) -> int:
    """Bits per q-digit at which the T-power rows of ``p``'s series pack
    (see ``exactpoly.unpack``): ``width_for`` of ``_rows_bound``."""
    return width_for(_rows_bound(p.r, p.vb, p.vc, p.ve))


def _closed_form_rows(r: int, vb: int, vc: int, ve: int, vda: int | float, tables: tuple) -> tuple[int, list[int]]:
    """``orbital_closed_form`` at (r, vb, vc, ve, vda) as the pair (lo, rows)
    (see "Packed rows" above), packed at the width of ``tables``,
    ``_derivative_tables`` at a width >= ``row_width`` with n >= cap =
    ``_n_bound``; the arguments must be admissible (``OrbitalParams``).
    With X = 2**width, row k is (-1)**k G[n(k)], G[n] = 1 + X + ... +
    X**n, plus the plateau monomial (-1)**k c(k) X**(vda + r), of the same
    sign, so no row is 0.  The returned rows may be shared with other calls on the same
    ``tables`` and must never be mutated.

    With j = k - lo, lo = -(vb + r), the span h = hi - lo = 2 ve + vb + vc
    + 2 r is odd, so n(k) = min(j // 2, (h - j) // 2, cap) is the same at
    j = 2i and 2i + 1: min(i, H - i, cap), H = (h - 1)/2 (``half``).  Over i
    in [0, H] that is a tent G[0], ..., G[cap - 1], then G[cap] H + 1 - 2 cap
    times, then G[cap - 1], ..., G[0], as cap <= ve and cap <= (vb + vc -
    1)/2 + r give 2 cap <= H.  The rows are the tent at even k and its
    negation at odd k: they read only (half, cap, lo & 1) and G.

    The plateau, active where vda + r attains cap and cap < ve
    (``_n_bound``), adds c(k) = min(k - c_lo, c_hi - k, ve - vda - r) over k
    in [c_lo, c_hi], c_lo = 2 vda - vb + r and c_hi = 2 ve + vc - 2 vda - r.
    There cap = vda + r, s = vb + vc, and, in terms of the key:
      * the monomial is X**cap, and the height ve - vda - r is ve - cap;
      * c_lo - lo = 2 vda + 2 r = 2 cap;
      * c_hi - lo + 1 = 2 ve + s - 2 vda + 1 = 2 half - 2 cap + 2, as
        half = ve + (s - 1)/2 + r;
      * c_lo = lo + 2 cap has the parity of lo, which fixes the sign of
        each of the trapezoid's two stride-2 slices.
    So a plateau tuple's rows read only (half, cap, lo & 1, ve - cap) and
    G, and both kinds of rows are built once per key (``_memo_rows``) and
    kept in the memo of ``tables``, a tent under its 3-tuple key and a
    plateau under its 4-tuple key."""
    if ve < 0:
        return 0, []
    memo = tables[3]
    s = vb + vc
    cap = _n_bound(r, s, ve, vda)
    half = ve + (s - 1) // 2 + r
    lo = -(vb + r)
    if cap == vda + r and cap < ve:  # the plateau
        key = half, cap, lo & 1, ve - cap
    else:
        key = half, cap, lo & 1
    rows = memo.get(key)
    if rows is None:
        rows = memo[key] = _memo_rows(tables, *key)
    return lo, rows


def _memo_rows(tables: tuple, half: int, cap: int, parity: int, plateau: int = 0) -> list[int]:
    """The rows ``_closed_form_rows`` keeps in the memo of ``tables`` under
    the key (half, cap, parity) or (half, cap, parity, plateau), with
    lo & 1 = parity: the signed tent, by list slicing; or, for a plateau
    height, the trapezoid [0, x, ..., (plateau - 1) x, plateau x, ...,
    plateau x, (plateau - 1) x, ..., 0], x = X**cap, on rows [2 cap, 2 half
    - 2 cap + 2) of a copy of the tent (read from the memo), with the sign
    of k on each stride-2 slice, c_hi - c_lo being odd and above 2 plateau."""
    width, geometric, _, memo = tables
    if not plateau:
        rise = geometric[:cap]
        tent = rise + geometric[cap:cap + 1] * (half + 1 - 2 * cap) + rise[::-1]
        rows = [0] * (2 * half + 2)
        rows[parity::2] = tent  # the even k
        rows[parity ^ 1::2] = map(neg, tent)  # the odd k
        return rows
    rows = memo.get((half, cap, parity))
    if rows is None:
        rows = memo[half, cap, parity] = _memo_rows(tables, half, cap, parity)
    x = 1 << width * cap
    ramp = range(0, plateau * x, x)
    i, j = 2 * cap, 2 * half - 2 * cap + 2
    trapezoid = [*ramp, *[plateau * x] * (j - i - 2 * plateau), *ramp[::-1]]
    rows = [*rows]
    first, second = (sub, add) if parity else (add, sub)
    rows[i:j:2] = map(first, rows[i:j:2], trapezoid[::2])
    rows[i + 1:j:2] = map(second, rows[i + 1:j:2], trapezoid[1::2])
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
    m_top, acc = _support_walk(r, s, ve, _theta(s, vda), width)
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
    ``_packed_derivative`` decoded at the width of ``_derivative_bound``;
    0 in the vanishing regime (ve < 0)."""
    if p.ve < 0:
        return QPolynomial.zero()
    width = width_for(_derivative_bound(p.r, p.vb + p.vc, p.ve))
    x = _packed_derivative(p.r, p.vb, p.vc, p.ve, p.vda, _top_tables(width, p.n_bound()))
    return QPolynomial._from_packed(x, width)


def _derivative_tables(width: int, n: int) -> tuple[int, list[int], list[int], dict]:
    """(width, G, W, memo), the prefix tables that ``_packed_derivative``
    reads at X = 2**width, G[m] = X**0 + ... + X**m and W[m] = 1 X + 2 X**2
    + ... + m X**m for 0 <= m <= n, and the memo of the signed tent and
    plateau rows that ``_closed_form_rows`` builds from G, empty until it
    fills it."""
    geometric, weighted = [1], [0]
    for m in range(1, n + 1):
        x = 1 << width * m
        geometric.append(geometric[-1] + x)
        weighted.append(weighted[-1] + m * x)
    return width, geometric, weighted, {}


def _top_tables(width: int, *degrees: int) -> tuple[int, dict[int, int], dict[int, int], None]:
    """``_derivative_tables`` read at the given degrees m alone, as maps
    (the full tables hold O(n**2) bits), with no row memo: G[m] =
    (X**(m + 1) - 1)/(X - 1) and W[m] = X (m X**(m + 1) - (m + 1) X**m +
    1)/(X - 1)**2, X = 2**width."""
    x = 1 << width
    geometric, weighted = {}, {}
    for m in degrees:
        top = 1 << width * (m + 1)
        geometric[m] = (top - 1) // (x - 1)
        weighted[m] = x * (m * top - (m + 1) * (top >> width) + 1) // (x - 1) ** 2
    return width, geometric, weighted, None


def _derivative_bound(r: int, s: int, ve: int) -> int:
    """The coefficient bound of D at level r, vb + vc = s and ve >= 0:
    ve + (s + 1)/2 + r, D's constant term unless vda = r = 0.  With a =
    (s - 1)/2 + r and b = vda + r, D is a sum of (ve + a + 1 - 2j) q**j over
    j <= c = ``_n_bound``, less corr q**b where b attains c, so b <= a and
    k = ve - b >= 0 (``_packed_derivative``).  Since 2 c <= ve + a, every
    main coefficient lies in [1, ve + a + 1], and the correction (then
    c = b) leaves k/2 + a - b + 1 at q**b for even k and (k + 1)/2 for odd
    k.  So D's coefficients lie in [0, ve + a + 1]."""
    return ve + (s + 1) // 2 + r


def _packed_derivative(r: int, vb: int, vc: int, ve: int, vda: int | float, tables: tuple) -> int:
    """D at (r, vb, vc, ve, vda), packed (see ``exactpoly.unpack``) at the
    width of ``tables``, ``_derivative_tables`` with n >= cap =
    ``_n_bound``, s = vb + vc, or ``_top_tables`` at n = cap; the arguments
    must be admissible (``OrbitalParams``), and ve < 0 gives 0.  D is the
    main sum of (top - 2j) q**j over j <= cap, top = (2 ve + s + 1)/2 + r,
    which is top G[cap] - 2 W[cap], less, where vda + r attains cap, corr
    q**cap with kappa = ve - cap >= 0: corr = kappa/2 for even kappa, else
    (ve + s/2 - 2 vda - r) - kappa/2.

    The width must hold ``_derivative_bound``; any width at least
    ``row_width`` does, as ``_rows_bound`` is at least the support points
    P >= 2 ve + 2 s + 2 r + 1, more than that bound."""
    width, geometric, weighted, _ = tables
    s = vb + vc
    cap = _n_bound(r, s, ve, vda)
    if cap < 0:
        return 0
    x = ((2 * ve + s + 1) // 2 + r) * geometric[cap] - 2 * weighted[cap]
    if cap == vda + r:  # the correction
        kap = ve - cap
        corr = kap // 2 if kap % 2 == 0 else (2 * ve + s - 4 * vda - 2 * r - kap) // 2
        x -= corr << width * cap
    return x


def derivative_combo(p: OrbitalParams) -> QPolynomial:
    """Normalised derivative against the sum of two consecutive basis
    elements (index r and r - 1), for r >= 1:

        (q**N + ... + 1) + C q**N + C' q**(N-1)

    with N = n_bound (``_n_bound``) and C, C' as in ``_packed_combo``,
    which this decodes at the width of ``_combo_bound``.
    Equals derivative_closed_form(r) - derivative_closed_form(r-1).
    """
    if p.r < 1:
        raise InvalidParamsError(
            "derivative_combo needs r >= 1; at r = 0 the combination is the "
            "single basis element, use derivative_closed_form"
        )
    if p.ve < 0:
        return QPolynomial.zero()
    s = p.vb + p.vc
    width = width_for(_combo_bound(s, p.ve))
    x = _packed_combo(p.r, s, p.ve, p.vda, _top_tables(width, p.n_bound()))
    return QPolynomial._from_packed(x, width)


def _combo_bound(s: int, ve: int) -> int:
    """The coefficient bound of ``derivative_combo`` at vb + vc = s and
    ve >= 0, any level r >= 1: ve + (s + 3)/2.  Its coefficients are 1, 1 +
    C and 1 + C' (``_packed_combo``): 1 + C is at most (ve + 1)/2,
    (ve + s + 1)/2 or ve + 1 in the three cases with C > 0, as kappa <= ve,
    and 1 + C' at most (ve + 3)/2 or (ve + s + 3)/2."""
    return ve + (s + 3) // 2


def _packed_combo(r: int, s: int, ve: int, vda: int | float, tables: tuple) -> int:
    """``derivative_combo`` at level r >= 1 of the orbit with vb + vc = s,
    ve >= 0 and vda, packed (see ``exactpoly.unpack``) at the width of
    ``tables``, ``_derivative_tables`` with n >= N = ``_n_bound`` or
    ``_top_tables`` at N: G[N] + C X**N + C' X**(N - 1).  Where vda + r
    attains N (the plateau), kappa = ve - N >= 0 and

      C  = (kappa - 1)/2              for odd kappa,
           (kappa + s - 2 vda - 1)/2  for even kappa,
      C' = C + 1;

    elsewhere C = ve - N, which is 0 unless (s - 1)/2 + r is strictly
    least, and C' = 0.  The plateau has N = vda + r >= 1, as r >= 1.  The
    width must hold ``_combo_bound``."""
    width, geometric, _, _ = tables
    cap = _n_bound(r, s, ve, vda)
    if cap != vda + r:
        return geometric[cap] + (ve - cap << width * cap)
    kap = ve - cap  # the plateau
    c_top = (kap - 1) // 2 if kap & 1 else (kap + s - 2 * vda - 1) // 2
    return geometric[cap] + (c_top << width * cap) + (c_top + 1 << width * (cap - 1))


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
