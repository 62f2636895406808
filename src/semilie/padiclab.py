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
p**(-2*precision); all volumes are exact ``Fraction`` values.  Scaled by
p**(2*precision), a volume is the number of residue classes the enumeration
counts: ``one_disk_points`` gives the closed forms in that integer scaling,
which is exact whenever n + 1 <= precision (the precision guard of every
disk lemma), and the sweeps compare these counts as ints.

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


#: Miller-Rabin to the bases ``_PRIME_BASES``, the primes up to 41, decides
#: primality exactly for every n below this bound (Sorenson and Webster,
#: "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017).
PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < ``PRIME_TEST_BOUND``."""
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_ring_args(p: int, precision: int) -> None:
    """Refuse p other than an odd prime below ``PRIME_TEST_BOUND``, or
    precision < 1."""
    if p < 3 or not p & 1:
        raise ValueError(f"p must be an odd prime, got {p}")
    if p >= PRIME_TEST_BOUND:
        raise ValueError(f"p must be below {PRIME_TEST_BOUND}, where the primality test is exact, got {p}")
    if not _is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    if precision < 1:
        raise ValueError(f"precision must be >= 1, got {precision}")


def _smallest_nonresidue(p: int) -> int:
    """The least quadratic non-residue mod the odd prime p, by Euler's
    criterion: a is a non-residue exactly when a**((p - 1)/2) = -1 mod p."""
    for candidate in range(2, p):
        if pow(candidate, (p - 1) // 2, p) == p - 1:
            return candidate
    raise ValueError(f"no quadratic non-residue mod {p}")


class QuadExtRing:
    """The integers of the unramified quadratic extension, mod p**precision."""

    def __init__(self, p: int = 3, precision: int = 4):
        _check_ring_args(p, precision)
        self.p = p
        self.precision = precision
        self.modulus = p**precision
        self.eps = _smallest_nonresidue(p)

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

    def val(self, x: Element) -> int:
        """min of the component valuations; ``precision`` means ">= precision"."""
        return min(
            _int_val(x[0], self.p, self.precision),
            _int_val(x[1], self.p, self.precision),
        )

    def val_int(self, a: int) -> int:
        return _int_val(a, self.p, self.precision)

    def is_unit(self, x: Element) -> bool:
        # Equals val(x) == 0: p divides p**precision, so reducing first changes nothing mod p.
        return bool(x[0] % self.p or x[1] % self.p)

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
        return filter(self.is_unit, self.elements())

    # --------------------------------------------------------- norm preimage
    def norm_preimage(self, m: int) -> Element:
        """Some x with norm(x) == m mod p**precision, for a unit m.

        A base solution mod p exists because the norm surjects onto the units
        of the residue field; it lifts digit by digit since the norm form has
        a unit partial derivative at any nonzero point (p is odd).
        """
        p, eps = self.p, self.eps
        m %= self.modulus
        m0 = m % p
        if m0 == 0:
            raise ValueError(f"norm preimage needs a unit target, got {m}")
        a, b = next((a0, b0) for a0 in range(p) for b0 in range(p) if (a0 * a0 - eps * b0 * b0) % p == m0)
        # Lift a if it is a unit, else b: the lifted coordinate keeps its
        # residue mod p, so one inverse of the partial derivative serves
        # every digit.  pk runs through p**(k - 1) for k = 2..precision and err
        # is (norm - m) / pk: adding d*pk to a adds pk*d*(2a + d*pk) to the norm.
        lift_a = a != 0
        inv = pow(2 * a if lift_a else 2 * eps * b, -1, p)
        err = (a * a - eps * b * b - m) // p
        pk = p
        for _ in range(1, self.precision):
            if lift_a:
                d = -err * inv % p
                err = (err + d * (2 * a + d * pk)) // p
                a += d * pk
            else:
                d = err * inv % p
                err = (err - eps * d * (2 * b + d * pk)) // p
                b += d * pk
            pk *= p
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
    each histogram is still produced by brute enumeration.  A disk's coset
    key is (center mod p**rho, rho); ``coset_keys`` gives a center's key at
    every rho in 0..precision at once, from moduli computed once.
    """

    def __init__(self, ring: QuadExtRing):
        self.ring = ring
        self._memo: dict = {}
        self._moduli = [ring.p**rho for rho in range(ring.precision + 1)]

    def coset_keys(self, center: Element) -> list[tuple]:
        """(center mod p**rho, rho) at each rho in 0..precision, indexed by rho."""
        a, b = center
        return [(a % pr, b % pr, rho) for rho, pr in enumerate(self._moduli)]

    def _coset_key(self, center: Element, rho: int) -> tuple:
        """``coset_keys(center)[rho]``, with every rho <= 0 keyed as rho = 0;
        a disk smaller than one residue class is refused."""
        if rho > self.ring.precision:
            raise InsufficientPrecisionError(f"precision {self.ring.precision} too small for a disk of radius rho={rho}")
        return self.coset_keys(center)[max(rho, 0)]

    def histogram(self, center: Element, rho: int) -> tuple[int, ...]:
        """Counts of v(1 - x*conj(x)) = v over the disk, indexed by v;
        index ``precision`` collects everything at or beyond precision.

        A disk is its own intersection with itself, so this is the memo
        entry of the coincident pair."""
        key = self._coset_key(center, rho)
        return self.keyed_histogram(key, key)

    def pair_histogram(
        self, c1: Element, rho1: int, c2: Element, rho2: int
    ) -> tuple[int, ...]:
        """Same histogram over the intersection of two disks (rho1 >= rho2)."""
        return self.keyed_histogram(self._coset_key(c1, rho1), self._coset_key(c2, rho2))

    def keyed_histogram(self, key1: tuple, key2: tuple) -> tuple[int, ...]:
        """``pair_histogram`` of the disks with coset keys ``key1`` and
        ``key2``, for a caller that keys each center once (``coset_keys``)."""
        return self._memo.get((key1, key2)) or self._build((key1, key2))

    def _build(self, key: tuple) -> tuple[int, ...]:
        """Enumerate the smaller disk ``key[0]`` point by point, count the
        points inside the disk ``key[1]`` by v(1 - x*conj(x)), and memoise.
        Runs only on a memo miss, so it is where a hand-made key with a
        radius outside 0..precision is refused, before anything is stored."""
        ring = self.ring
        p, prec, modulus, eps = ring.p, ring.precision, ring.modulus, ring.eps
        (a0, b0, rho1), (a2, b2, rho2) = key
        for rho in (rho1, rho2):
            if rho < 0:
                raise ValueError(f"a coset key's radius must be >= 0, got rho={rho}")
            if rho > prec:
                raise InsufficientPrecisionError(f"precision {prec} too small for a disk of radius rho={rho}")
        step = p**rho1
        span = p ** (prec - rho1)
        p_rho2 = p**rho2
        counts = [0] * (prec + 1)
        for i in range(span):
            a = a0 + step * i
            if (a - a2) % p_rho2:
                continue
            aa = a * a
            for j in range(span):
                b = b0 + step * j
                if (b - b2) % p_rho2:
                    continue
                gap = (1 - aa + eps * b * b) % modulus
                counts[_int_val(gap, p, prec)] += 1
        result = self._memo[key] = tuple(counts)
        return result


def _check_one_disk_args(ring: QuadExtRing, xi: Element, rho: int, n: int) -> None:
    if not ring.is_unit(xi):
        raise ValueError(f"center {xi} must be a unit")
    if n < rho or n < 1:
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


def one_disk_points(ring: QuadExtRing, gap_val: int, rho: int, n: int) -> int:
    """The closed-form one-disk volume times p**(2*precision): the number of
    residue classes with v(1 - x*conj(x)) = n and v(x - xi) >= rho, for a
    center xi with v(1 - norm(xi)) = ``gap_val``.  An int for n + 1 <= precision."""
    if gap_val < rho:
        return 0
    q, prec = ring.p, ring.precision
    if rho <= 0:
        return q ** (2 * prec - n - 2) * (q * q - 1)
    return q ** (2 * prec - n - rho - 1) * (q - 1)


def formula_one_disk(ring: QuadExtRing, xi: Element, rho: int, n: int) -> Fraction:
    """The closed-form volume the enumeration must reproduce."""
    _check_one_disk_args(ring, xi, rho, n)
    gap_val = ring.val_int(1 - ring.norm(xi))
    return Fraction(one_disk_points(ring, gap_val, rho, n), ring.p ** (2 * ring.precision))


def _check_two_disk_args(
    ring: QuadExtRing, xi1: Element, xi2: Element, rho1: int, rho2: int, n: int
) -> None:
    if rho1 < rho2:
        raise ValueError(f"need rho1 >= rho2, got {rho1} < {rho2}")
    if not (ring.is_unit(xi1) and ring.is_unit(xi2)):
        raise ValueError("centers must be units")
    if n < rho1 or n < 1:
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
    if ring.val(ring.sub(xi1, xi2)) < rho2:
        return Fraction(0)
    gap_val = ring.val_int(1 - ring.norm(xi1))
    return Fraction(one_disk_points(ring, gap_val, rho1, n), ring.p ** (2 * ring.precision))


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
    if ring.norm(lam) != quat_norm(ring, (alpha, beta)):
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
