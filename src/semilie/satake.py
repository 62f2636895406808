"""Satake transforms and base-change tables for ranks 2 and 3.

Representations, both ``exactpoly.KeyedModule`` containers that differ
only in their key rule, printing and JSON:

  * ``SatakeGL`` -- a symmetric Laurent polynomial in X_1..X_n, stored as a
    map from the sorted (descending) exponent tuple to its coefficient; each
    key stands for the sum of the monomial's distinct permutations, so
    symmetry is structural.
  * ``SatakeY`` -- a Laurent polynomial in a single Y invariant under
    Y -> 1/Y, stored by the coefficients of Y**i + Y**-i for i >= 1 and of
    the constant for i = 0.  Palindromicity is structural.

The rank-3 unitary-side image of the level-r indicator uses the exponent
2*floor((r+i)/2) - i + r, i.e. q**(2r) when i and r have equal parity and
q**(2r-1) otherwise.  The alternative convention with the parity indicator
subtracted on equal parity fails the base-change identities verified in the
test suite, so it is not used here.

The base-change images of the individual basis indicators are explicit
formulas.  The aggregate identities are unit-triangular, so their solution
is unique: ``verify satake`` proves the formulas at each level it checks.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterable, Mapping

from .exactpoly import KeyedModule, QPolynomial, Scalar


class SatakeGL(KeyedModule):
    """Symmetric-group-invariant Laurent polynomial in X_1..X_n, stored as
    orbit sums keyed by descending exponent tuples."""

    __slots__ = ("n",)

    def __init__(self, n: int, terms: Mapping[tuple, Scalar | QPolynomial] | Iterable = ()):
        self.n = n
        super().__init__(terms)

    def _key(self, key: tuple) -> tuple:
        key = tuple(sorted(key, reverse=True))
        if len(key) != self.n:
            raise ValueError(f"exponent tuple {key} has length != {self.n}")
        return key

    def _like(self, terms: dict) -> "SatakeGL":
        out = self._raw(terms)
        out.n = self.n
        return out

    def __add__(self, other: "SatakeGL") -> "SatakeGL":
        if isinstance(other, SatakeGL) and self.n != other.n:
            raise ValueError("mixed variable counts")
        return super().__add__(other)

    def __sub__(self, other: "SatakeGL") -> "SatakeGL":
        return self + (-other) if isinstance(other, SatakeGL) else NotImplemented

    def __eq__(self, other: object) -> bool:
        return KeyedModule.__eq__(self, other) and self.n == other.n

    __hash__ = KeyedModule.__hash__

    def __repr__(self) -> str:
        return f"SatakeGL({self.n}, { {k: str(c) for k, c in self.sorted_items()} })"


class SatakeY(KeyedModule):
    """Palindromic Laurent polynomial in Y: coefficients of Y**i + Y**-i."""

    __slots__ = ()

    def _key(self, i: int) -> int:
        if i < 0:
            raise ValueError("SatakeY stores only i >= 0")
        return i

    @classmethod
    def from_signed(cls, signed: Mapping[int, QPolynomial]) -> "SatakeY":
        """Fold a {j: coeff} map over signed exponents, checking palindromy."""
        out: dict[int, QPolynomial] = {}
        for j, c in signed.items():
            if j < 0:
                continue
            if c != signed.get(-j, c if j == 0 else QPolynomial.zero()):
                raise ValueError(f"not palindromic at Y**{j}")
            if c:
                out[j] = c
        for j in signed:
            if j < 0 and -j not in out and signed[j]:
                raise ValueError(f"not palindromic at Y**{j}")
        return cls._raw(out)

    @classmethod
    def one(cls) -> "SatakeY":
        return cls({0: 1})

    @classmethod
    def window(cls, k: int) -> "SatakeY":
        """sum_{j=-k}^{k} Y**j; zero when k < 0."""
        return cls({i: 1 for i in range(k + 1)}) if k >= 0 else cls()

    def coefficient(self, i: int) -> QPolynomial:
        return super().coefficient(abs(i))

    def to_json(self) -> dict:
        return {"y_terms": [[i, self._terms[i].to_json()] for i in sorted(self._terms)]}

    @classmethod
    def from_json(cls, data: Mapping) -> "SatakeY":
        return cls((i, QPolynomial.from_json(p)) for i, p in data["y_terms"])

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for i in sorted(self._terms, reverse=True):
            c = self._terms[i]
            if i == 0:
                parts.append(str(c))
                continue
            y = f"(Y+Y^-1)" if i == 1 else f"(Y^{i}+Y^-{i})"
            if c == QPolynomial.one():
                parts.append(y)
            elif len(c) == 1:
                parts.append(f"{c}{y}")
            else:
                parts.append(f"({c}){y}")
        return " + ".join(parts)


def _compositions(total: int, parts: int):
    """All tuples of ``parts`` nonnegative ints summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def satake_gl_det(n: int, r: int) -> SatakeGL:
    """Satake image of the integral-matrix indicator with determinant
    valuation r: q**((n-1) r) times the sum of all monomials of degree r."""
    if n not in (2, 3):
        raise ValueError(f"supported ranks are 2 and 3, got {n}")
    if r < 0:
        raise ValueError(f"need r >= 0, got {r}")
    weight = QPolynomial.q_power((n - 1) * r)
    orbits = {tuple(sorted(comp, reverse=True)): weight for comp in _compositions(r, n)}
    return SatakeGL(n, orbits)


def satake_u3_indicator(r: int) -> SatakeY:
    """Rank-3 unitary side: Satake image of the level-r lattice indicator,

        sum_{i=0}^{r} q**(2*floor((r+i)/2) - i + r) * (Y**i + Y**-i),

    so the exponent is 2r when i == r (mod 2) and 2r - 1 otherwise."""
    if r < 0:
        return SatakeY()
    return SatakeY(
        {i: QPolynomial.q_power(2 * ((r + i) // 2) - i + r) for i in range(r + 1)}
    )


def bc_gl3_to_u3(x: SatakeGL) -> SatakeY:
    """Base change on rank-3 Satake polynomials: the monomial with exponents
    (a, b, c) maps to Y**(a - c), extended over each orbit sum."""
    if x.n != 3:
        raise ValueError("base-change rule implemented for rank 3")
    monomials = ((perm[0] - perm[2], c) for key, c in x._terms.items() for perm in set(permutations(key)))
    return SatakeY.from_signed(KeyedModule._accumulate({}, monomials))


def proj_fiber_gl3(r: int) -> dict[int, QPolynomial]:
    """Fiber integration of the determinant-valuation-r indicator down to the
    rank-3 symmetric space: coefficients on the single-cell basis are

        c_j(q) = sum_{i=0}^{2(r-j)} min(1 + floor(i/2), 1 + floor((2(r-j)-i)/2)) q**i

    for 0 <= j <= r."""
    if r < 0:
        return {}
    out: dict[int, QPolynomial] = {}
    for j in range(r + 1):
        top = 2 * (r - j)
        out[j] = QPolynomial(
            {i: min(1 + i // 2, 1 + (top - i) // 2) for i in range(top + 1)}
        )
    return out


def bc_s3_weight(r: int, j: int) -> QPolynomial:
    """The aggregate weight 1 + 2q + ... + 2q**(r-j) (just 1 when j == r)."""
    if j == r:
        return QPolynomial.one()
    return QPolynomial({0: 1, **{e: 2 for e in range(1, r - j + 1)}})


def bc_s3_table(bound: int) -> list[SatakeY]:
    """Images of the single-cell basis indicators at levels 0..bound under the
    rank-3 symmetric space base change."""
    return [bc_s3_on_basis(j) for j in range(bound + 1)]


def bc_s3_on_basis(j: int) -> SatakeY:
    """Image of the level-j single-cell basis indicator: 1 at j = 0, and for
    j >= 1 the coefficient of Y**i + Y**-i (the constant at i = 0) is

        q**(2j)                      when i == j,
        -(q**(2j-1) + q**(2j-2))     when j - i is odd,
        q**(2j) + q**(2j-3)          when j - i >= 2 is even.

    This is the unique solution of the unit-triangular aggregate identities
    BC(sum_{j<=r} bc_s3_weight(r, j) basis_j) = satake_u3_indicator(r)."""
    if j < 0:
        raise ValueError(f"need j >= 0, got {j}")
    if j == 0:
        return SatakeY.one()
    odd = QPolynomial({2 * j - 1: -1, 2 * j - 2: -1})
    even = QPolynomial({2 * j: 1, 2 * j - 3: 1})
    coeffs = {i: odd if (j - i) % 2 else even for i in range(j)}
    coeffs[j] = QPolynomial.q_power(2 * j)
    return SatakeY(coeffs)


def bc_s2_combo_image(r: int) -> SatakeY:
    """Rank-2: Satake image of the base change of the sum of the nested basis
    indicators at levels r and r - 1,

        (-1)**r (q**r sum_{|j|<=r} Y**j - q**(r-1) sum_{|j|<=r-1} Y**j),

    valid for r >= 0 (the r = 0 value is the unit)."""
    if r < 0:
        return SatakeY()
    out = SatakeY.window(r).scale(QPolynomial.q_power(r))
    if r >= 1:
        out = out - SatakeY.window(r - 1).scale(QPolynomial.q_power(r - 1))
    if r % 2:
        out = out.scale(-1)
    return out


def bc_s2_on_basis(r: int) -> SatakeY:
    """Rank-2: Satake image of the base change of the single nested basis
    indicator at level r, (-1)**r q**r sum_{|j|<=r} Y**j: the unique solution
    of image(r) + image(r - 1) = bc_s2_combo_image(r), r = 0, 1, ...."""
    if r < 0:
        raise ValueError(f"need r >= 0, got {r}")
    return SatakeY.window(r).scale(QPolynomial.q_power(r, (-1) ** r))


def p_r_polynomial(r: int) -> SatakeY:
    """The vanishing-combination polynomial

        q**r sum_{|j|<=r} Y**j - 2 q**(r-1) sum_{|j|<=r-1} Y**j
                                + q**(r-2) sum_{|j|<=r-2} Y**j,

    where windows with negative top are zero."""
    out = SatakeY.window(r).scale(QPolynomial.q_power(r))
    out = out - SatakeY.window(r - 1).scale(QPolynomial.q_power(r - 1, 2))
    out = out + SatakeY.window(r - 2).scale(QPolynomial.q_power(r - 2))
    return out
