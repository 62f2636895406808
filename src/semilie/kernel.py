"""Derivative matrices across (ve, r), their row reduction, and exact rank
certificates; also the vanishing test-function combinations.

The matrix M has entry (i, r) equal to the normalised derivative D at
parameters (r, vb + vc, ve = i, vda) -- see ``orbital.derivative_closed_form``.
D depends on vb and vc only through their sum, so a matrix is keyed by
(sum_bc, vda, N) where N + 1 is the number of columns.  Relative to the
un-normalised derivative the stored entries differ by a global sign
(-1)**vc, which changes neither rank nor any zero pattern.

Packed entries.  ``_packed_matrix`` builds the matrix once as packed ints
(see ``exactpoly``), a fixed number of int operations per entry
(``orbital._packed_derivative``, which the orbital sweep shares), and
returns them with the one width they pack at, which its docstring proves.
Both row reductions subtract ints (``_reduce_rows``), ``build_matrix``
decodes each distinct int once (``exactpoly._decoded``), and the tests
compare every entry with a dict-built D.

Packed vanishing.  ``derivative_of_vector`` sums ``QPolynomial`` values for
any ``HeckeVector``, whose weights need not pack.  The kernel sweep in
``verify`` computes the same value as one packed int: each vector's weights
packed once (``_packed_weights``), the signed D(j) of an orbit packed once
(``_signed_derivatives``), and their combination (``_packed_combination``)
compared with 0, at a width its caller proves.

Rank certification is two-sided: a fraction-free (Bareiss) elimination on
the packed entries (``_packed_rank``), at a width every minor fits
(``_rank_bound``), computes the rank outright, and independently the
reduced matrix M'' is checked against the predicted zero pattern and
anti-diagonal entries, whose product is spot-evaluated at q = 3, 5, 7.  One
int core (``_certificate``) does all of it on M packed once, at one width
rule (``_certificate_width``): the kernel sweep's ``_packed_certificate``
builds M from ``_packed_derivative``, its row 1-norms read as values at
q = 1, and ``certify_full_rank`` packs a ``DerivMatrix``'s entries.  No
``QPolynomial`` is built: the spot check sums each pivot's ``unpack``ed
digits at q = 3, 5 and 7 as ints.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain, islice
from math import prod
from operator import sub

from .exactpoly import QPolynomial, _decoded, unpack, width_for
from .orbital import (
    INFINITY,
    HeckeVector,
    InvalidParamsError,
    OrbitalParams,
    _derivative_bound,
    _derivative_tables,
    _packed_derivative,
    _theta,
    derivative_of_vector,
    require_ints,
)


@dataclass(frozen=True)
class DerivMatrix:
    """(N + floor(theta/2) + 2) x (N + 1) matrix of normalised derivatives."""

    sum_bc: int
    vda: int | float
    n_cap: int
    entries: tuple = field(repr=False)

    @property
    def theta(self) -> int:
        return _theta(self.sum_bc, self.vda)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def entry(self, i: int, r: int) -> QPolynomial:
        return self.entries[i][r]


def _matrix_rows(sum_bc: int, vda: int | float, n_cap: int) -> int:
    """The number of rows, N + floor(theta/2) + 2, of the matrix at
    (sum_bc, vda, N = n_cap); raises ``InvalidParamsError`` on parameters
    no matrix has, first for (sum_bc, vda) as ``OrbitalParams`` checks
    them, then for N."""
    theta = OrbitalParams(r=0, vb=0, vc=sum_bc, ve=0, vda=vda).theta()
    require_ints(N=n_cap)
    if n_cap < 0:
        raise InvalidParamsError(f"N must be >= 0, got {n_cap}")
    return n_cap + theta // 2 + 2


def _packed_matrix(sum_bc: int, vda: int | float, n_cap: int) -> tuple[list[tuple[int, ...]], int]:
    """The rows of ``build_matrix(sum_bc, vda, n_cap)`` packed in the
    ``exactpoly`` form, and the width B, bits per q-digit, at which they
    pack; raises as ``_matrix_rows`` does, in the same order as
    ``build_matrix``.

    B must hold every coefficient of M, M' and M''.  Fix a column r, let
    a = (s - 1)/2 + r and b = vda + r (s = sum_bc; b is infinite with vda):
    the entry D_i at ve = i has its coefficients in [0, i + a + 1]
    (``orbital._derivative_bound``, which writes D_i out).

    * M' (row i >= 1 is D_i - D_(i-1); row 0 is D_0, in [0, a + 1]): it is
      1 at each q**j with j <= c_(i-1) and j < b, plus a + 1 - i at q**i
      when i <= min(a, b); and when i > b (b <= a), a - b + 1 at q**b for
      even k = i - b and b - a for odd k.  So its coefficients lie in
      [0, a + 1], but for b - a in [-a, 0] at q**b in rows i > b with i - b
      odd.
    * M'' (row i >= 2 is M'_i - M'_(i-2)): where neither term is negative,
      the difference lies in [-(a + 1), a + 1].  A negative M'_(i-2) at
      q**b has i - 2 - b odd, so M'_i is the same b - a there: difference
      0.  A negative M'_i at q**b cancels the same way when i - 2 > b;
      otherwise i = b + 1, and q**b is above row i - 2's top degree, so the
      difference is b - a.

    Each bound is at most D's at the bottom right entry, ve = N +
    floor(theta/2) + 1 and r = N, so B is ``width_for`` of that; the entry
    attains it unless vda = N = 0, so B - 1 would not hold M.
    """
    n_rows = _matrix_rows(sum_bc, vda, n_cap)
    width = width_for(_derivative_bound(n_cap, sum_bc, n_rows - 1))
    return _matrix_ints(sum_bc, vda, n_cap, n_rows, width), width


def _matrix_ints(sum_bc: int, vda: int | float, n_cap: int, n_rows: int, width: int) -> list[tuple[int, ...]]:
    """The first ``n_rows`` rows of the matrix at (sum_bc, vda, N = n_cap),
    each entry its value at q = 2**width: entry (i, r) is
    ``orbital._packed_derivative`` at (r, 0, sum_bc, ve = i, vda), read from
    one set of prefix tables at ``width`` >= 0.  At a width that holds the
    coefficients that is the packed form; at width 0 it is the value at
    q = 1."""
    tables = _derivative_tables(width, n_rows - 1)
    cols = range(n_cap + 1)
    return [tuple([_packed_derivative(r, 0, sum_bc, ve, vda, tables) for r in cols]) for ve in range(n_rows)]


def build_matrix(sum_bc: int, vda: int | float, n_cap: int) -> DerivMatrix:
    """Entry (i, r) = D(r, vb + vc = sum_bc, ve = i, vda) for
    0 <= i <= n_cap + floor(theta/2) + 1 and 0 <= r <= n_cap: the rows of
    ``_packed_matrix``, each distinct int decoded once and its (immutable)
    ``QPolynomial`` shared."""
    rows, width = _packed_matrix(sum_bc, vda, n_cap)
    polys = iter(_decoded(chain.from_iterable(rows), width))
    entries = tuple(tuple(islice(polys, n_cap + 1)) for _ in rows)
    return DerivMatrix(sum_bc=sum_bc, vda=vda, n_cap=n_cap, entries=entries)


def _reduce_rows(rows: Sequence[tuple]) -> tuple[list[tuple], list[tuple]]:
    """M' and M'' of the rows of M, as lists of tuples, for entries of any
    type with ``-`` (``QPolynomial``s, or ints packed at one width): M'
    keeps row 0 and takes each later row minus the row above it, and M''
    keeps rows 0 and 1 of M' and takes each later row of M' minus the row
    two above it."""
    m1 = [*rows[:1], *(tuple(map(sub, row, above)) for above, row in zip(rows, rows[1:]))]
    m2 = [*m1[:2], *(tuple(map(sub, row, above)) for above, row in zip(m1, m1[2:]))]
    return m1, m2


def row_reduce(m: DerivMatrix) -> tuple[DerivMatrix, DerivMatrix]:
    """Two row-reduction passes: single-step downward differences give M',
    then two-step differences of M' give M''."""
    m1, m2 = _reduce_rows(m.entries)
    return (
        DerivMatrix(m.sum_bc, m.vda, m.n_cap, tuple(m1)),
        DerivMatrix(m.sum_bc, m.vda, m.n_cap, tuple(m2)),
    )


def _rank_bound(norms: Sequence[int], cols: int) -> int:
    """The coefficient bound b of every minor of a matrix of ``cols``
    columns of q-polynomials with int coefficients and exponents >= 0, whose
    rows have the 1-norms ``norms`` (the sum of |c| over a row's entries'
    coefficients): the product of the largest ``cols`` norms, each at least
    1.  Expanded as a sum over permutations, a k x k minor's coefficient
    1-norm is at most the product of its rows' 1-norms.  ``_packed_rank``
    keeps only minors (Sylvester's identity, which makes each division
    exact) of at most ``cols`` rows.  A coefficient of M'' is c_i - c_(i-1)
    - c_(i-2) + c_(i-3) in coefficients of one column, each at most its
    row's 1-norm, so at most b: it lies in [-4b, 4b]."""
    return prod(max(norm, 1) for norm in sorted(norms, reverse=True)[:cols])


def _packed_rank(rows: Sequence[Sequence[int]]) -> int:
    """The rank of a matrix of q-polynomials with int coefficients and
    exponents >= 0, by fraction-free (Bareiss) elimination on its rows
    packed (see ``exactpoly.unpack``) at a width that holds ``_rank_bound``.

    Packing is evaluation at q = 2**width, a ring homomorphism, so every
    int the elimination keeps is the value of the minor the same
    elimination over q-polynomials would keep, and each division of the
    value of prev * minor by the value of prev leaves no remainder.  A
    minor's coefficients lie in the digit range, so its value is 0 exactly
    when the minor is: the pivots are those of the q-polynomial elimination,
    and so is the rank.  Each division checks its remainder all the same,
    and raises ArithmeticError rather than return a rank."""
    mat = [list(row) for row in rows]
    n_rows = len(mat)
    n_cols = len(mat[0]) if n_rows else 0
    prev, rank = 1, 0
    for col in range(n_cols):
        pivot_row = next((i for i in range(rank, n_rows) if mat[i][col]), None)
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        row_p = mat[rank]
        piv = row_p[col]
        for i in range(rank + 1, n_rows):
            row_i = mat[i]
            head = row_i[col]
            for j in range(col + 1, n_cols):
                row_i[j], rem = divmod(piv * row_i[j] - head * row_p[j], prev)
                if rem:
                    raise ArithmeticError("inexact division in the packed elimination")
            row_i[col] = 0
        prev = piv
        rank += 1
        if rank == min(n_rows, n_cols):
            break
    return rank


def _antidiagonal_bound(sum_bc: int) -> int:
    """The coefficient bound of ``predicted_antidiagonal`` at sum_bc,
    (sum_bc + 1)/2: at an odd theta its coefficients are 1 and -1, and an
    even theta = 2 vda is below the odd sum_bc, so C1 >= 0 and they are
    -C1 and -(C1 + 1) >= -(sum_bc + 1)/2."""
    return (sum_bc + 1) // 2


def _packed_antidiagonal(sum_bc: int, vda: int | float, r: int, width: int) -> int:
    """``predicted_antidiagonal`` at column r of the matrix at (sum_bc,
    vda), packed (see ``exactpoly.unpack``) at ``width``, with X = 2**width
    and x = r + floor(theta/2):

      theta odd:   X**x - X**(x-1),
      theta even:  -C1 X**x - (C1 + 1) X**(x-1),  C1 = (sum_bc - 1 - 2 vda)/2,

    the X**(x-1) term dropped at x = 0.  The width must hold
    ``_antidiagonal_bound``."""
    theta = _theta(sum_bc, vda)
    x = r + theta // 2
    if theta % 2:
        top, below = 1, 1
    else:
        top = -((sum_bc - 1 - 2 * vda) // 2)
        below = 1 - top
    out = top << width * x
    if x >= 1:
        out -= below << width * (x - 1)
    return out


def predicted_antidiagonal(m: DerivMatrix, r: int) -> QPolynomial:
    """Predicted M'' entry at (r + floor(theta/2) + 1, r): ``_packed_antidiagonal``
    decoded at the width of ``_antidiagonal_bound``."""
    width = width_for(_antidiagonal_bound(m.sum_bc))
    return QPolynomial._from_packed(_packed_antidiagonal(m.sum_bc, m.vda, r, width), width)


@dataclass
class RankCertificate:
    sum_bc: int
    vda: int | float
    n_cap: int
    rank: int
    expected_rank: int
    structural_zeros: bool
    antidiagonal_match: bool
    fallback_row_used: bool
    spot_checks: dict
    flags: list[str]

    @property
    def full_rank(self) -> bool:
        return self.rank == self.expected_rank

    @property
    def passed(self) -> bool:
        return (
            self.full_rank
            and self.structural_zeros
            and self.antidiagonal_match
            and all(self.spot_checks.values())
            and not self.flags
        )

    def label(self) -> dict:
        return _matrix_label(self.sum_bc, self.vda, self.n_cap)


def _matrix_label(sum_bc: int, vda: int | float, n_cap: int) -> dict:
    """The label of the matrix at (sum_bc, vda, N = n_cap), an infinite vda
    written "inf"."""
    return {"sum_bc": sum_bc, "vda": "inf" if vda == INFINITY else vda, "N": n_cap}


def _certificate_width(sum_bc: int, norms: Sequence[int], cols: int) -> int:
    """The width at which ``_certificate`` reads a matrix at sum_bc of
    ``cols`` columns whose rows have the 1-norms ``norms``: ``width_for``
    of the larger of 4b, b their ``_rank_bound``, which holds every minor
    and M'' whatever the entries' signs, and ``_antidiagonal_bound``."""
    return width_for(max(4 * _rank_bound(norms, cols), _antidiagonal_bound(sum_bc)))


def _certificate(sum_bc: int, vda: int | float, n_cap: int, rows: list[tuple[int, ...]], width: int) -> RankCertificate:
    """The certificate of the matrix at (sum_bc, vda, N = n_cap) from its
    rows ``rows`` packed at ``_certificate_width``, so that equal ints are
    equal q-polynomials and an int is 0 exactly when its q-polynomial is.

    M' and M'' are reduced on the ints (``_reduce_rows``); the structural
    zeros are the ints of M'' below the anti-diagonal; the anti-diagonal is
    compared with ``_packed_antidiagonal`` and gives the pivots, the top
    row's entry standing in at column 0 where it is 0 (which is legitimate
    only where floor(theta/2) <= 1); the rank is ``_packed_rank`` of M.  The
    spot check asks that the pivots' product be nonzero at q = 3, 5 and 7,
    that is, each pivot, as evaluation is a ring homomorphism into the
    integers: each is the int sum of c q**e over its ``unpack``ed digits."""
    _, m2 = _reduce_rows(rows)
    n_rows, cols = len(rows), len(rows[0]) if rows else 0
    half = _theta(sum_bc, vda) // 2
    flags: list[str] = []
    structural = all(not m2[i][r] for r in range(cols) for i in range(r + half + 2, n_rows))
    antidiagonal = True
    pivots: list[int] = []
    fallback = False
    for r in range(cols):
        i = r + half + 1
        actual = m2[i][r]
        if actual != _packed_antidiagonal(sum_bc, vda, r, width):
            antidiagonal = False
            flags.append(f"entry ({i},{r}) != predicted anti-diagonal value")
        if actual:
            pivots.append(actual)
        elif r == 0:
            fallback = True
            pivots.append(m2[0][0])
            if half > 1:
                flags.append("unexpected zero pivot at column 0")
        else:
            flags.append(f"unexpected zero pivot at column {r}")
            pivots.append(actual)
    digits = [unpack(piv, width).items() for piv in pivots]
    spot = {q: all(sum(c * q**e for e, c in piv) for piv in digits) for q in (3, 5, 7)}
    return RankCertificate(
        sum_bc=sum_bc,
        vda=vda,
        n_cap=n_cap,
        rank=_packed_rank(rows),
        expected_rank=cols,
        structural_zeros=structural,
        antidiagonal_match=antidiagonal,
        fallback_row_used=fallback,
        spot_checks=spot,
        flags=flags,
    )


def _packed_certificate(sum_bc: int, vda: int | float, n_cap: int) -> RankCertificate:
    """``certify_full_rank(build_matrix(sum_bc, vda, n_cap))`` on M packed
    once, at its ``_certificate_width``; raises as ``_matrix_rows`` does.
    M's coefficients are >= 0 (``_packed_matrix``), so a row's 1-norm is
    the sum of its entries' values at q = 1, which ``_matrix_ints`` gives
    at width 0."""
    n_rows = _matrix_rows(sum_bc, vda, n_cap)
    norms = [sum(row) for row in _matrix_ints(sum_bc, vda, n_cap, n_rows, 0)]
    width = _certificate_width(sum_bc, norms, n_cap + 1)
    return _certificate(sum_bc, vda, n_cap, _matrix_ints(sum_bc, vda, n_cap, n_rows, width), width)


def certify_full_rank(m: DerivMatrix) -> RankCertificate:
    """Exact elimination rank plus the structural checks on M'': the int
    core ``_certificate`` on m's entries packed at the
    ``_certificate_width`` of their coefficient 1-norms."""
    norms = [sum(abs(c) for poly in row for c in poly.coefficients()) for row in m.entries]
    width = _certificate_width(m.sum_bc, norms, m.cols)
    rows = [tuple([poly._packed(width) for poly in row]) for row in m.entries]
    return _certificate(m.sum_bc, m.vda, m.n_cap, rows, width)


def _packed_weights(vec: HeckeVector, width: int) -> list[tuple[int, int]]:
    """The (level, weight) pairs of ``vec``, each weight packed at ``width``
    (``QPolynomial._packed``).  Raises ArithmeticError on a weight that does
    not pack there, which a width proven for the vector never meets."""
    out = []
    for r, c in vec.items():
        x = c._packed(width)
        if x is None:
            raise ArithmeticError(f"the weight {c} at level {r} does not pack at width {width}")
        out.append((r, x))
    return out


def _signed_derivatives(sum_bc: int, ve: int, vda: int | float, top: int, tables: tuple) -> list[int]:
    """(-1)**(sum_bc + j) D(j) for j = 0, ..., ``top``, each
    ``orbital._packed_derivative`` at (j, 0, sum_bc, ve, vda) packed at the
    width of ``tables``: the signed derivatives that ``derivative_of_vector``
    combines at the orbit with vb + vc = sum_bc, split as (0, sum_bc)."""
    out = []
    for j in range(top + 1):
        d = _packed_derivative(j, 0, sum_bc, ve, vda, tables)
        out.append(-d if (sum_bc + j) & 1 else d)
    return out


def _packed_combination(weights: list[tuple[int, int]], signed: list[int]) -> int:
    """``derivative_of_vector`` packed: the sum of weight * signed[level]
    over ``weights`` (``_packed_weights``), with ``signed`` from
    ``_signed_derivatives``.  Packing is evaluation at q = 2**width, a ring
    homomorphism, so the int is the packed value of the combination, and 0
    exactly when it is, wherever the combination's coefficients fit the
    width."""
    return sum([w * signed[r] for r, w in weights])


def large_r_vector(r: int) -> HeckeVector:
    """The combination with weights 1, 2, 1 at levels r, r-1, r-2."""
    return HeckeVector({r: 1, r - 1: 2, r - 2: 1})


def test_large_r_vanishing(p: OrbitalParams) -> dict:
    """Evaluate the 1,2,1 combination at ``p``; it must vanish for
    r >= ve + 2, and is merely recorded otherwise.  Reports raw values."""
    value = derivative_of_vector(p, large_r_vector(p.r))
    expected_zero = p.r >= p.ve + 2
    return {
        "params": p,
        "value": value,
        "expected_zero": expected_zero,
        "pass": (not expected_zero) or value.is_zero(),
    }


def phi_vector(r: int) -> HeckeVector:
    """Levels r, r-1 with weight 1 and levels r-2, r-3 with weight -q**2."""
    if r < 3:
        raise InvalidParamsError(f"phi is defined for r >= 3, got {r}")
    q2 = QPolynomial.q_power(2)
    return HeckeVector({r: 1, r - 1: 1, r - 2: -q2, r - 3: -q2})


def phi_sequence_vector(r: int) -> HeckeVector:
    """phi_r + (q+1) phi_(r-1) + q phi_(r-2), for r >= 5."""
    if r < 5:
        raise InvalidParamsError(f"the sequence is defined for r >= 5, got {r}")
    q = QPolynomial.q_power(1)
    out = phi_vector(r)
    out = out + phi_vector(r - 1).scale(q + QPolynomial.one())
    out = out + phi_vector(r - 2).scale(q)
    return out


def phi_exceptional_window(p: OrbitalParams) -> tuple[int, int]:
    """The three consecutive r values where the sequence may not vanish:
    ve - m + 2 through + 4, m = min((vb+vc-1)/2, vda) = floor(theta/2)
    (``orbital._theta``), as vb + vc is odd."""
    m = _theta(p.vb + p.vc, p.vda) // 2
    return (p.ve - m + 2, p.ve - m + 4)


def test_phi_sequence(p: OrbitalParams, r: int) -> dict:
    """Evaluate the sequence combination at level r; it must vanish outside
    the exceptional window, and is merely recorded inside it (raw values)."""
    value = derivative_of_vector(p, phi_sequence_vector(r))
    lo, hi = phi_exceptional_window(p)
    inside = lo <= r <= hi
    return {
        "params": p,
        "r": r,
        "window": [lo, hi],
        "value": value,
        "pass": inside or value.is_zero(),
        "inside_window": inside,
    }
