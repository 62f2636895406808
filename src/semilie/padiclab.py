"""Finite-precision arithmetic in the unramified quadratic extension and the
quaternion algebra over it, used as an exhaustive counting oracle.

Elements of the quadratic extension are pairs (a, b) of ints modulo
p**precision, standing for a + b*sqrt(eps) with eps a fixed non-residue
unit.  The quaternion algebra adjoins J with J**2 = p and J*t = conj(t)*J.

Valuations are computed up to the working precision: the valuation of an
element that vanishes mod p**precision is reported as ``precision`` and
means ">= precision".  Predicates that would need to see past the working
precision raise ``InsufficientPrecisionError`` instead of guessing; this is
what keeps the enumeration a sound oracle.

Measure normalisation: the ring of integers of the quadratic extension has
volume 1, so each residue class mod p**precision has volume
p**(-2*precision); all volumes are exact ``Fraction`` values.

The one-disk volume formula is stated for arbitrary field elements, but its
constraint v(1 - x*conj(x)) = n >= 1 forces x*conj(x) to be a unit and hence
x to be an integral unit, so enumerating the truncated integer ring loses
nothing.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterator

Element = tuple[int, int]


class InsufficientPrecisionError(ValueError):
    """A predicate needed more p-adic digits than the ring carries."""


def _int_val(a: int, p: int, precision: int) -> int:
    """p-adic valuation of a mod p**precision, capped at ``precision``."""
    a %= p**precision
    if a == 0:
        return precision
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v


def _smallest_nonresidue(p: int) -> int:
    residues = {pow(x, 2, p) for x in range(1, p)}
    for candidate in range(2, p):
        if candidate not in residues:
            return candidate
    raise ValueError(f"no quadratic non-residue mod {p}")


class QuadExtRing:
    """The integers of the unramified quadratic extension, mod p**precision."""

    def __init__(self, p: int = 3, precision: int = 4, eps: int | None = None):
        if p < 3 or p % 2 == 0:
            raise ValueError(f"p must be an odd prime, got {p}")
        if precision < 1:
            raise ValueError(f"precision must be >= 1, got {precision}")
        self.p = p
        self.precision = precision
        self.modulus = p**precision
        self.eps = _smallest_nonresidue(p) if eps is None else eps % self.modulus
        if pow(self.eps, (p - 1) // 2, p) != p - 1:
            raise ValueError(f"eps = {self.eps} is not a non-residue unit mod {p}")

    # ------------------------------------------------------------- elements
    def element(self, a: int, b: int = 0) -> Element:
        return (a % self.modulus, b % self.modulus)

    def zero(self) -> Element:
        return (0, 0)

    def one(self) -> Element:
        return (1, 0)

    def add(self, x: Element, y: Element) -> Element:
        return ((x[0] + y[0]) % self.modulus, (x[1] + y[1]) % self.modulus)

    def sub(self, x: Element, y: Element) -> Element:
        return ((x[0] - y[0]) % self.modulus, (x[1] - y[1]) % self.modulus)

    def neg(self, x: Element) -> Element:
        return ((-x[0]) % self.modulus, (-x[1]) % self.modulus)

    def mul(self, x: Element, y: Element) -> Element:
        a, b = x
        c, d = y
        return (
            (a * c + self.eps * b * d) % self.modulus,
            (a * d + b * c) % self.modulus,
        )

    def scalar_mul(self, c: int, x: Element) -> Element:
        return ((c * x[0]) % self.modulus, (c * x[1]) % self.modulus)

    def conj(self, x: Element) -> Element:
        return (x[0], (-x[1]) % self.modulus)

    def norm(self, x: Element) -> int:
        """x * conj(x) = a**2 - eps*b**2, an int mod p**precision."""
        return (x[0] * x[0] - self.eps * x[1] * x[1]) % self.modulus

    def trace(self, x: Element) -> int:
        return (2 * x[0]) % self.modulus

    def val(self, x: Element) -> int:
        """min of the component valuations; ``precision`` means ">= precision"."""
        return min(
            _int_val(x[0], self.p, self.precision),
            _int_val(x[1], self.p, self.precision),
        )

    def val_int(self, a: int) -> int:
        return _int_val(a, self.p, self.precision)

    def is_unit(self, x: Element) -> bool:
        return self.val(x) == 0

    def inverse(self, x: Element) -> Element:
        """1/(a + b sqrt(eps)) = conj(x)/norm(x); x must be a unit."""
        nrm = self.norm(x)
        if nrm % self.p == 0:
            raise ZeroDivisionError(f"{x} is not a unit")
        inv_norm = pow(nrm, -1, self.modulus)
        return self.scalar_mul(inv_norm, self.conj(x))

    def elements(self) -> Iterator[Element]:
        for a in range(self.modulus):
            for b in range(self.modulus):
                yield (a, b)

    def units(self) -> Iterator[Element]:
        p = self.p
        for x in self.elements():
            if x[0] % p or x[1] % p:
                yield x

    # --------------------------------------------------------- norm preimage
    def norm_preimage(self, m: int) -> Element:
        """Some x with norm(x) == m mod p**precision, for a unit m.

        A base solution mod p exists because the norm surjects onto the units
        of the residue field; it lifts digit by digit since the norm form has
        a unit partial derivative at any nonzero point (p is odd).
        """
        p, prec = self.p, self.precision
        m %= self.modulus
        if m % p == 0:
            raise ValueError(f"norm preimage needs a unit target, got {m}")
        base = None
        for a0 in range(p):
            for b0 in range(p):
                if (a0 or b0) and (a0 * a0 - self.eps * b0 * b0) % p == m % p:
                    base = (a0, b0)
                    break
            if base:
                break
        assert base is not None
        a, b = base
        lift_a = a % p != 0
        for k in range(2, prec + 1):
            pk = p**k
            err = (a * a - self.eps * b * b - m) % pk
            step = err // p ** (k - 1)
            if lift_a:
                delta = (-step * pow(2 * a % p, -1, p)) % p
                a += delta * p ** (k - 1)
            else:
                delta = (step * pow(2 * self.eps * b % p, -1, p)) % p
                b += delta * p ** (k - 1)
        x = self.element(a, b)
        assert self.norm(x) == m
        return x

    # ------------------------------------------------------------- sampling
    def random_element(self, rng: random.Random) -> Element:
        return (rng.randrange(self.modulus), rng.randrange(self.modulus))

    def random_unit(self, rng: random.Random) -> Element:
        while True:
            x = self.random_element(rng)
            if self.is_unit(x):
                return x


class DiskCounter:
    """Histograms of v(1 - x*conj(x)) over closed disks, memoised by coset.

    The disk {x : v(x - center) >= rho} depends on the center only through
    its class mod p**max(rho, 0), so histograms are shared across centers in
    the same class; this makes full sweeps over all unit centers cheap while
    each histogram is still produced by brute enumeration.
    """

    def __init__(self, ring: QuadExtRing):
        self.ring = ring
        self._memo: dict = {}

    def _coset_key(self, center: Element, rho: int) -> tuple:
        rho = max(rho, 0)
        pr = self.ring.p**rho
        return (center[0] % pr, center[1] % pr, rho)

    def histogram(self, center: Element, rho: int) -> tuple[int, ...]:
        """Counts of v(1 - x*conj(x)) = v over the disk, indexed by v;
        index ``precision`` collects everything at or beyond precision."""
        key = self._coset_key(center, rho)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        ring = self.ring
        p, prec, modulus, eps = ring.p, ring.precision, ring.modulus, ring.eps
        rho_eff = key[2]
        step = p**rho_eff
        span = p ** (prec - rho_eff)
        a0, b0, _ = key
        counts = [0] * (prec + 1)
        for i in range(span):
            a = a0 + step * i
            aa = a * a
            for j in range(span):
                b = b0 + step * j
                gap = (1 - aa + eps * b * b) % modulus
                counts[_int_val(gap, p, prec)] += 1
        result = tuple(counts)
        self._memo[key] = result
        return result

    def pair_histogram(
        self, c1: Element, rho1: int, c2: Element, rho2: int
    ) -> tuple[int, ...]:
        """Same histogram over the intersection of two disks (rho1 >= rho2)."""
        key = (self._coset_key(c1, rho1), self._coset_key(c2, rho2))
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        ring = self.ring
        p, prec, modulus, eps = ring.p, ring.precision, ring.modulus, ring.eps
        (a0, b0, rho1_eff), (a2, b2, rho2_eff) = key
        step = p**rho1_eff
        span = p ** (prec - rho1_eff)
        p_rho2 = p**rho2_eff
        counts = [0] * (prec + 1)
        for i in range(span):
            a = a0 + step * i
            da_ok_all = (a - a2) % p_rho2 == 0
            if not da_ok_all:
                continue
            aa = a * a
            for j in range(span):
                b = b0 + step * j
                if (b - b2) % p_rho2:
                    continue
                gap = (1 - aa + eps * b * b) % modulus
                counts[_int_val(gap, p, prec)] += 1
        result = tuple(counts)
        self._memo[key] = result
        return result


def _check_one_disk_args(ring: QuadExtRing, xi: Element, rho: int, n: int) -> None:
    if not ring.is_unit(xi):
        raise ValueError(f"center {xi} must be a unit")
    if n < max(rho, 1):
        raise ValueError(f"need n >= max(rho, 1), got n={n}, rho={rho}")
    if ring.precision < n + 1 or ring.precision < rho + 1:
        raise InsufficientPrecisionError(
            f"precision {ring.precision} too small for n={n}, rho={rho}"
        )


def count_one_disk(
    ring: QuadExtRing, xi: Element, rho: int, n: int, counter: DiskCounter | None = None
) -> Fraction:
    """Enumerated volume of {x : v(1 - x*conj(x)) = n, v(x - xi) >= rho}."""
    _check_one_disk_args(ring, xi, rho, n)
    counter = counter or DiskCounter(ring)
    count = counter.histogram(xi, rho)[n]
    return Fraction(count, ring.p ** (2 * ring.precision))


def formula_one_disk(ring: QuadExtRing, xi: Element, rho: int, n: int) -> Fraction:
    """The closed-form volume the enumeration must reproduce."""
    _check_one_disk_args(ring, xi, rho, n)
    q = ring.p
    gap_val = ring.val_int(1 - ring.norm(xi))
    if gap_val < rho:
        return Fraction(0)
    if rho <= 0:
        return Fraction(1, q**n) * (1 - Fraction(1, q**2))
    return Fraction(1, q ** (n + rho)) * (1 - Fraction(1, q))


def _check_two_disk_args(
    ring: QuadExtRing, xi1: Element, xi2: Element, rho1: int, rho2: int, n: int
) -> None:
    if rho1 < rho2:
        raise ValueError(f"need rho1 >= rho2, got {rho1} < {rho2}")
    if not ring.is_unit(xi1) or not ring.is_unit(xi2):
        raise ValueError("centers must be units")
    if n < max(rho1, 1):
        raise ValueError(f"need n >= max(rho1, 1), got n={n}, rho1={rho1}")
    if ring.precision < n + 1 or ring.precision < rho1 + 1:
        raise InsufficientPrecisionError(
            f"precision {ring.precision} too small for n={n}, rho1={rho1}"
        )


def count_two_disk(
    ring: QuadExtRing,
    xi1: Element,
    xi2: Element,
    rho1: int,
    rho2: int,
    n: int,
    counter: DiskCounter | None = None,
) -> Fraction:
    """Enumerated volume of the intersection of two disks cut by
    v(1 - x*conj(x)) = n."""
    _check_two_disk_args(ring, xi1, xi2, rho1, rho2, n)
    counter = counter or DiskCounter(ring)
    count = counter.pair_histogram(xi1, rho1, xi2, rho2)[n]
    return Fraction(count, ring.p ** (2 * ring.precision))


def formula_two_disk(
    ring: QuadExtRing, xi1: Element, xi2: Element, rho1: int, rho2: int, n: int
) -> Fraction:
    """Closed form: zero unless the smaller disk meets the unit-norm locus
    and sits inside the bigger disk, else the one-disk value at rho1."""
    _check_two_disk_args(ring, xi1, xi2, rho1, rho2, n)
    q = ring.p
    if ring.val_int(1 - ring.norm(xi1)) < rho1:
        return Fraction(0)
    if ring.val(ring.sub(xi1, xi2)) < rho2:
        return Fraction(0)
    if rho1 >= 1:
        return Fraction(1, q ** (n + rho1)) * (1 - Fraction(1, q))
    return Fraction(1, q**n) * (1 - Fraction(1, q**2))


# --------------------------------------------------------------- quaternions

Quaternion = tuple[Element, Element]  # x + y*J with J**2 = p


def quat_mul(ring: QuadExtRing, u: Quaternion, w: Quaternion) -> Quaternion:
    """(x1 + y1 J)(x2 + y2 J) = (x1 x2 + y1 conj(y2) p) + (x1 y2 + y1 conj(x2)) J."""
    x1, y1 = u
    x2, y2 = w
    first = ring.add(
        ring.mul(x1, x2), ring.scalar_mul(ring.p, ring.mul(y1, ring.conj(y2)))
    )
    second = ring.add(ring.mul(x1, y2), ring.mul(y1, ring.conj(x2)))
    return (first, second)


def quat_conj(ring: QuadExtRing, u: Quaternion) -> Quaternion:
    return (ring.conj(u[0]), ring.neg(u[1]))


def quat_scalar(ring: QuadExtRing, t: Element, u: Quaternion) -> Quaternion:
    """Left multiplication by the quadratic extension: t(x + yJ) = tx + (ty)J."""
    return (ring.mul(t, u[0]), ring.mul(t, u[1]))


def quat_norm(ring: QuadExtRing, u: Quaternion) -> int:
    """Reduced norm norm(x) - norm(y)*p, an int mod p**precision."""
    return (ring.norm(u[0]) - ring.norm(u[1]) * ring.p) % ring.modulus


def herm(ring: QuadExtRing, x: Quaternion, y: Quaternion) -> Element:
    """Hermitian form: the first component of x * conj(y)."""
    return quat_mul(ring, x, quat_conj(ring, y))[0]


def quaternion_invariants(
    ring: QuadExtRing,
    lam: Element,
    alpha: Element,
    beta: Element,
    s: Element,
    t: Element,
) -> dict:
    """Compute trace, determinant and the two Hermitian pairings of the
    unitary transformation x -> lam**-1 x (alpha + beta J) against the test
    vector u = s + t J (one of s, t zero), both from the 2x2 matrix /
    quaternion arithmetic and from the closed forms, and report agreement.

    Raises on an inadmissible triple (lam not a unit, norm constraint
    violated, or a test vector that is zero / has both parts nonzero).
    """
    if not ring.is_unit(lam):
        raise ValueError("lam must be a unit")
    zero = ring.zero()
    if (s != zero) and (t != zero):
        raise ValueError("test vector needs s = 0 or t = 0")
    if s == zero and t == zero:
        raise ValueError("test vector must be nonzero")
    nm_g = (ring.norm(alpha) - ring.norm(beta) * ring.p) % ring.modulus
    if ring.norm(lam) != nm_g:
        raise ValueError("constraint norm(lam) = norm(alpha + beta J) violated")

    lam_inv = ring.inverse(lam)
    # Matrix of the transformation in the basis {1, J}.
    m11 = ring.mul(lam_inv, alpha)
    m12 = ring.mul(lam_inv, ring.scalar_mul(ring.p, ring.conj(beta)))
    m21 = ring.mul(lam_inv, beta)
    m22 = ring.mul(lam_inv, ring.conj(alpha))

    trace_matrix = ring.add(m11, m22)
    trace_expected = ring.mul(lam_inv, ring.add(alpha, ring.conj(alpha)))
    det_matrix = ring.sub(ring.mul(m11, m22), ring.mul(m12, m21))
    lam_inv2 = ring.mul(lam_inv, lam_inv)
    det_expected = ring.mul(
        lam_inv2,
        ring.sub(
            ring.mul(alpha, ring.conj(alpha)),
            ring.scalar_mul(ring.p, ring.mul(beta, ring.conj(beta))),
        ),
    )

    u: Quaternion = (s, t)
    gu = quat_scalar(ring, lam_inv, quat_mul(ring, u, (alpha, beta)))
    uu = herm(ring, u, u)
    uu_expected = ring.sub(
        ring.mul(s, ring.conj(s)), ring.scalar_mul(ring.p, ring.mul(t, ring.conj(t)))
    )
    gu_u = herm(ring, gu, u)
    nm_u = ring.element(quat_norm(ring, u))
    a_or_conj = ring.conj(alpha) if s == zero else alpha
    gu_u_expected = ring.mul(ring.mul(lam_inv, a_or_conj), nm_u)

    checks = {
        "trace": trace_matrix == trace_expected,
        "det": det_matrix == det_expected,
        "herm_u_u": uu == uu_expected,
        "herm_gu_u": gu_u == gu_u_expected,
    }
    return {
        "computed": {
            "trace": trace_matrix,
            "det": det_matrix,
            "herm_u_u": uu,
            "herm_gu_u": gu_u,
        },
        "expected": {
            "trace": trace_expected,
            "det": det_expected,
            "herm_u_u": uu_expected,
            "herm_gu_u": gu_u_expected,
        },
        "checks": checks,
        "pass": all(checks.values()),
    }


def sample_admissible(ring: QuadExtRing, rng: random.Random) -> tuple[Element, Element, Element]:
    """Random (lam, alpha, beta) with lam a unit, beta nonzero and
    norm(lam) = norm(alpha + beta J)."""
    lam = ring.random_unit(rng)
    while True:
        beta = ring.random_element(rng)
        if beta != ring.zero():
            break
    target = (ring.norm(lam) + ring.norm(beta) * ring.p) % ring.modulus
    alpha = ring.norm_preimage(target)
    return lam, alpha, beta
