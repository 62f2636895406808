"""Shared test helpers: a tiny parser so expected polynomials can be written
the way they print, e.g. qp("2q^3 + q^2 - 3q")."""

from __future__ import annotations

import re
from fractions import Fraction
from operator import mul

from semilie import GKPair, LaurentSeries, OrbitalParams, QPolynomial, SweepConfig
from semilie.exactpoly import _as_qpoly, _norm_scalar, _sign_mask
from semilie.intersection import _gk_pair
from semilie.orbital import _derivative_tables
from semilie.verify import _VB_MIN

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


def t_power(k: int, coeff: QPolynomial | int | Fraction = 1) -> LaurentSeries:
    """coeff T**k."""
    coeff = _as_qpoly(coeff)
    return LaurentSeries._raw({k: coeff} if coeff else {})


def support(f: LaurentSeries) -> list[int]:
    """The T exponents of ``f``'s nonzero coefficients, in increasing order."""
    return sorted(k for k, _ in f.items())


def series_mul(f: LaurentSeries, g: LaurentSeries) -> LaurentSeries:
    """The product of two T-series: the sum over k1, k2 of the coefficient
    products times T**(k1 + k2)."""
    products = ((k1 + k2, p1 * p2) for k1, p1 in f.items() for k2, p2 in g.items())
    return LaurentSeries._raw(LaurentSeries._accumulate({}, products))


def series_from_json(data) -> LaurentSeries:
    """The T-series of its ``to_json()`` encoding."""
    return LaurentSeries((k, QPolynomial.from_json(p)) for k, p in data["t_terms"])


def div_exact(a: QPolynomial, b: QPolynomial) -> QPolynomial:
    """Exact Laurent division a / b; raises ArithmeticError on a nonzero
    remainder.  ``bareiss_rank`` divides with it, where every division is
    exact by construction."""
    if b.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if a.is_zero():
        return QPolynomial.zero()
    # Shift both to ordinary polynomials, divide, shift back.  The
    # quotient coefficients stay ints while the leading coefficient
    # divides exactly, as it does in the fraction-free elimination.
    s_min, o_min = a.min_exponent(), b.min_exponent()
    rem = {e - s_min: c for e, c in a.items()}
    div = {e - o_min: c for e, c in b.items()}
    d_deg = max(div)
    d_lead = div[d_deg]
    quot = {}
    while rem:
        r_deg = max(rem)
        if r_deg < d_deg:
            raise ArithmeticError("inexact polynomial division")
        lead = rem[r_deg]
        if type(lead) is int and type(d_lead) is int and not lead % d_lead:
            f = lead // d_lead
        else:
            f = _norm_scalar(Fraction(lead, d_lead))
        quot[r_deg - d_deg] = f
        for e, c in div.items():
            t = e + r_deg - d_deg
            rest = rem.get(t, 0) - f * c
            if rest:
                rem[t] = rest
            elif t in rem:
                del rem[t]
    return QPolynomial._raw({e + s_min - o_min: c for e, c in quot.items()})


def reduced_tuples(config: SweepConfig):
    """(r, sum_bc, ve, vda) with the canonical split vb = 0, in the order
    the miracle and afl sweeps walk them as ints."""
    for r in range(config.r_max + 1):
        for s in config.sum_bc_values():
            for ve in range(config.ve_max + 1):
                for vda in config.vda_values():
                    yield OrbitalParams(r=r, vb=0, vc=s, ve=ve, vda=vda)


def full_tuples(config: SweepConfig):
    """All splits vb in [_VB_MIN, sum_bc], in the order the orbital sweep
    walks them as ints."""
    for r in range(config.r_max + 1):
        for s in config.sum_bc_values():
            for vb in range(_VB_MIN, s + 1):
                for ve in range(config.ve_max + 1):
                    for vda in config.vda_values():
                        yield OrbitalParams(r=r, vb=vb, vc=s - vb, ve=ve, vda=vda)


def pack_row(coeffs: dict[int, int], width: int) -> int:
    """A q-polynomial {e: c} packed as its value at q = 2**width, the form
    ``semilie.exactpoly.unpack`` reads back."""
    return sum(c << width * e for e, c in coeffs.items())


def orbit_fields(p: OrbitalParams) -> tuple:
    """(r, vb, vc, ve, vda), the ints the private series builders of
    ``semilie.orbital`` take in place of ``p``."""
    return p.r, p.vb, p.vc, p.ve, p.vda


def tables_at(p: OrbitalParams, width: int) -> tuple:
    """The prefix tables ``semilie.orbital._closed_form_rows`` reads for
    ``p`` at ``width``: ``_derivative_tables`` up to p's n_bound."""
    return _derivative_tables(width, max(p.n_bound(), 0))


def reference_closed_form_rows(p: OrbitalParams, width: int) -> dict[int, int]:
    """The closed form's packed rows as a {k: row} dict in increasing k,
    built k by k: the reference for the pair (lo, rows) of
    ``semilie.orbital._closed_form_rows``.  With X = 2**width, row k is
    (-1)**k (1 + X + ... + X**n(k)) plus the plateau monomial (-1)**k c(k)
    X**(vda + r), of the same sign, so no row is 0."""
    if p.ve < 0:
        return {}
    r, vb, vc, ve, vda = p.r, p.vb, p.vc, p.ve, p.vda
    cap = p.n_bound()
    lo, hi = -(vb + r), 2 * ve + vc + r
    geometric = [1]  # geometric[n] = 1 + X + ... + X**n
    for n in range(1, cap + 1):
        geometric.append(geometric[-1] | 1 << width * n)
    rows = {}
    for k in range(lo, hi + 1):
        g = geometric[min((k - lo) >> 1, (hi - k) >> 1, cap)]
        rows[k] = -g if k & 1 else g
    if vda < ve - r and vb + vc > 2 * vda:
        c_lo, c_hi = 2 * vda - vb + r, 2 * ve + vc - 2 * vda - r
        x = 1 << width * (vda + r)
        for k in range(c_lo, c_hi + 1):
            c_k = min(k - c_lo, c_hi - k, ve - vda - r) * x
            rows[k] += -c_k if k & 1 else c_k
    return rows


def reference_support_sum_rows(p: OrbitalParams, width: int) -> dict[int, int]:
    """The support-lattice sum's packed rows as a {k: row} dict in
    increasing k with zero rows dropped: the reference for the pair
    (lo, rows) of ``semilie.orbital._support_sum_rows``, whose lattice walk
    it repeats, the unsigned rows kept in a list indexed by k - lo."""
    if p.ve < 0:
        return {}
    r, vb, vc, ve = p.r, p.vb, p.vc, p.ve
    th = p.theta()
    even = th % 2 == 0
    half = th // 2
    base = vc + r
    m_top = th + 2 * r
    if even:
        m_top = max(m_top, max(r, -half) + vb + vc + r, half + r)
    lo = base - m_top
    power = [1 << width * e for e in range(ve + 1)]  # power[e] = X**e
    acc = [0] * (2 * ve + m_top + 1)  # acc[k - lo]
    for n2 in range(ve + 1):
        i0 = 2 * n2 + m_top
        split, x_top = 2 * n2, power[n2]
        for m in range(th + 2 * r + 1):
            acc[i0 - m] += power[m >> 1] if m < split else x_top  # X**min(n2, m // 2)
    if even:
        for n2 in range(ve + 1):
            i0 = 2 * n2 + m_top
            x = power[min(n2, half + r)]
            for m_hi in (max(r, n2 - half) + vb + vc + r, n2 + half + r):
                for m in range(th + 2 * r + 1, m_hi + 1):
                    acc[i0 - m] += x
    return {k: -x if k & 1 else x for k, x in enumerate(acc, lo) if x}


def reference_row_sums(rows: dict[int, int], negate: bool) -> tuple[bool, int]:
    """Whether the {k: row} rows sum to 0, and their k-weighted sum, negated
    if ``negate``: the reference for ``semilie.verify._row_sums``."""
    weighted = sum(map(mul, rows, rows.values()))
    return not sum(rows.values()), -weighted if negate else weighted


def reference_first_sign_break(rows: dict[int, int], width: int, digits: int) -> int | None:
    """The least k at which (-1)**k rows[k] fails the sign mask, one row at a
    time: the reference for ``semilie.verify._first_sign_break``."""
    mask = _sign_mask(width, digits)
    for k in sorted(rows):
        x = rows[k]
        if (-x if k & 1 else x) & mask:
            return k
    return None


def reference_derivative(p: OrbitalParams) -> QPolynomial:
    """The normalised derivative D built as one dict of its coefficients:
    the reference for ``semilie.orbital._packed_derivative``, which
    ``derivative_closed_form`` decodes.

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


def reference_gross_keating(g: GKPair) -> QPolynomial:
    """The Gross-Keating polynomial built as one dict of its coefficients:
    the reference for ``semilie.intersection._packed_gk``, which
    ``gross_keating`` decodes.

    n1 odd:   sum_{j=0}^{(n1-1)/2} (n1 + n2 - 4j) q**j
    n1 even:  (n2 - n1 + 1)/2 * q**(n1/2) + sum_{j=0}^{n1/2-1} (n1+n2-4j) q**j
    empty:    0
    """
    if g.is_empty():
        return QPolynomial.zero()
    n1, n2 = g.n1, g.n2
    # n1 <= n2 keeps every coefficient positive, so the dict is canonical.
    terms = {j: n1 + n2 - 4 * j for j in range((n1 + 1) // 2)}
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
    return GKPair(*_gk_pair(p.r, p.vb + p.vc, p.ve, p.vda))


def reference_int_circ(p: OrbitalParams) -> QPolynomial:
    """int_circ as the ``QPolynomial`` difference of the
    ``reference_gross_keating`` values at ve and ve - 1: the reference for
    the packed ``semilie.intersection.int_circ``."""
    below = reference_gross_keating(gk_from_params(p.with_ve(p.ve - 1)))
    return reference_gross_keating(gk_from_params(p)) - below


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
    by entry from ``reference_derivative`` and row-reduced by
    ``QPolynomial`` subtraction, bottom row first: M' takes each row
    below the top minus the row above it, M'' each row of M' below the
    second minus the row two above it."""
    theta = min(sum_bc, 2 * vda)
    m = [
        [reference_derivative(OrbitalParams(r=r, vb=0, vc=sum_bc, ve=ve, vda=vda)) for r in range(n_cap + 1)]
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
                row_i[j] = div_exact(piv * row_i[j] - head * row_p[j], prev)
                if seen is not None:
                    seen.append(row_i[j])
            row_i[col] = QPolynomial.zero()
        prev = piv
        rank += 1
        if rank == min(n_rows, n_cols):
            break
    return rank
