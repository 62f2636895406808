"""Truncated quadratic-extension and quaternion arithmetic, and the
disk-volume enumeration against the closed forms."""

import random
from fractions import Fraction

import pytest

from semilie.padiclab import (
    DiskCounter,
    PRIME_TEST_BOUND,
    InsufficientPrecisionError,
    QuadExtRing,
    _check_ring_args,
    _check_one_disk_args,
    _check_two_disk_args,
    count_one_disk,
    count_two_disk,
    formula_one_disk,
    formula_two_disk,
    herm,
    one_disk_points,
    quat_conj,
    quat_mul,
    quat_norm,
    quaternion_invariants,
    sample_admissible,
)
from semilie.padiclab import _is_prime, _smallest_nonresidue


@pytest.fixture(scope="module")
def ring():
    return QuadExtRing(p=3, precision=3)


@pytest.fixture(scope="module")
def counter(ring):
    return DiskCounter(ring)


class TestRing:
    def test_eps_is_nonresidue(self, ring):
        assert ring.eps == 2

    def test_norm_and_conj(self, ring):
        x = ring.element(4, 7)
        assert ring.norm(x) == (16 - 2 * 49) % ring.modulus
        assert ring.mul(x, ring.conj(x)) == ring.element(ring.norm(x), 0)

    def test_val(self, ring):
        assert ring.val(ring.element(3, 9)) == 1
        assert ring.val(ring.element(0, 0)) == ring.precision  # means >= precision
        assert ring.val(ring.element(1, 3)) == 0

    def test_inverse(self, ring):
        rng = random.Random(1)
        for _ in range(20):
            x = ring.random_unit(rng)
            assert ring.mul(x, ring.inverse(x)) == ring.one()

    def test_inverse_of_nonunit(self, ring):
        with pytest.raises(ZeroDivisionError):
            ring.inverse(ring.element(3, 3))

    def test_norm_preimage(self, ring):
        for m in (1, 2, 4, 5, 7, 8, 10):
            x = ring.norm_preimage(m)
            assert ring.norm(x) == m % ring.modulus
        with pytest.raises(ValueError):
            ring.norm_preimage(3)

    @pytest.mark.parametrize("p, precision", [(3, 1), (3, 5), (5, 4), (7, 3), (101, 7), (3, 200), (10007, 50)])
    def test_norm_preimage_matches_reference(self, p, precision):
        ring = QuadExtRing(p, precision)
        rng = random.Random(p * 100 + precision)
        targets = [1, 2, ring.modulus - 1] + [rng.randrange(ring.modulus) for _ in range(30)]
        for m in targets:
            if m % p:
                assert ring.norm_preimage(m) == reference_norm_preimage(ring, m), m

    def test_norm_preimage_lifts_either_coordinate(self):
        ring = QuadExtRing(3, 4)
        # m = 1 mod 3 starts from (0, 1) and lifts b; m = 2 mod 3 lifts a.
        assert [reference_norm_preimage(QuadExtRing(3, 1), m) for m in (1, 2)] == [(0, 1), (1, 1)]
        assert ring.norm_preimage(7) == reference_norm_preimage(ring, 7) and ring.norm_preimage(7)[0] == 0
        assert ring.norm_preimage(8) == reference_norm_preimage(ring, 8) and ring.norm_preimage(8)[1] == 1


def reference_norm_preimage(ring, m):
    """The base search and Hensel lift ``norm_preimage`` used before it
    hoisted the residue, the inverse and the powers of p."""
    p, prec = ring.p, ring.precision
    m %= ring.modulus
    base = None
    for a0 in range(p):
        for b0 in range(p):
            if (a0 or b0) and (a0 * a0 - ring.eps * b0 * b0) % p == m % p:
                base = (a0, b0)
                break
        if base:
            break
    a, b = base
    lift_a = a % p != 0
    for k in range(2, prec + 1):
        pk = p**k
        err = (a * a - ring.eps * b * b - m) % pk
        step = err // p ** (k - 1)
        if lift_a:
            delta = (-step * pow(2 * a % p, -1, p)) % p
            a += delta * p ** (k - 1)
        else:
            delta = (step * pow(2 * ring.eps * b % p, -1, p)) % p
            b += delta * p ** (k - 1)
    return ring.element(a, b)


class TestQuaternions:
    def test_j_squared_is_p(self, ring):
        j = (ring.zero(), ring.one())
        jj = quat_mul(ring, j, j)
        assert jj == (ring.element(ring.p, 0), ring.zero())

    def test_conj_anti_involution(self, ring):
        rng = random.Random(2)
        for _ in range(30):
            u = (ring.random_element(rng), ring.random_element(rng))
            w = (ring.random_element(rng), ring.random_element(rng))
            assert quat_conj(ring, quat_conj(ring, u)) == u
            assert quat_conj(ring, quat_mul(ring, u, w)) == quat_mul(
                ring, quat_conj(ring, w), quat_conj(ring, u)
            )

    def test_reduced_norm_multiplicative(self, ring):
        rng = random.Random(3)
        for _ in range(30):
            u = (ring.random_element(rng), ring.random_element(rng))
            w = (ring.random_element(rng), ring.random_element(rng))
            assert quat_norm(ring, quat_mul(ring, u, w)) == (
                quat_norm(ring, u) * quat_norm(ring, w)
            ) % ring.modulus

    def test_norm_is_self_pairing(self, ring):
        rng = random.Random(4)
        for _ in range(10):
            u = (ring.random_element(rng), ring.random_element(rng))
            assert herm(ring, u, u) == ring.element(quat_norm(ring, u), 0)


class TestOneDisk:
    def test_rho_zero_example(self):
        ring = QuadExtRing(p=3, precision=2)
        xi = ring.one()
        assert count_one_disk(ring, xi, 0, 1) == Fraction(8, 27)
        assert formula_one_disk(ring, xi, 0, 1) == Fraction(8, 27)

    def test_rho_one_example(self):
        ring = QuadExtRing(p=3, precision=2)
        xi = ring.one()
        assert count_one_disk(ring, xi, 1, 1) == Fraction(2, 27)
        assert formula_one_disk(ring, xi, 1, 1) == Fraction(2, 27)

    def test_far_center_gives_zero(self):
        ring = QuadExtRing(p=3, precision=2)
        xi = ring.element(2, 1)  # v(1 - norm(xi)) = 0 < rho = 1
        assert ring.val_int(1 - ring.norm(xi)) == 0
        assert formula_one_disk(ring, xi, 1, 1) == Fraction(0)
        assert count_one_disk(ring, xi, 1, 1) == Fraction(0)

    def test_full_sweep(self, ring, counter):
        for xi in ring.units():
            for rho in range(ring.precision):
                for n in range(max(rho, 1), ring.precision):
                    got = count_one_disk(ring, xi, rho, n, counter)
                    want = formula_one_disk(ring, xi, rho, n)
                    assert got == want, (xi, rho, n)

    def test_negative_rho_matches_rho_zero(self, ring, counter):
        # The disk condition is vacuous for any rho <= 0.
        xi = ring.element(1, 1)
        for n in (1, 2):
            assert count_one_disk(ring, xi, -2, n, counter) == count_one_disk(
                ring, xi, 0, n, counter
            )
            assert formula_one_disk(ring, xi, -2, n) == formula_one_disk(ring, xi, 0, n)

    def test_precision_guard(self, ring):
        with pytest.raises(InsufficientPrecisionError):
            count_one_disk(ring, ring.one(), 0, ring.precision)

    def test_preconditions(self, ring):
        with pytest.raises(ValueError):
            count_one_disk(ring, ring.element(3, 3), 0, 1)  # center not a unit
        with pytest.raises(ValueError):
            count_one_disk(ring, ring.one(), 2, 1)  # n < rho


def reference_one_disk(ring, xi, rho, n):
    """The Fraction expression formula_one_disk used before the integer scaling."""
    q = ring.p
    if ring.val_int(1 - ring.norm(xi)) < rho:
        return Fraction(0)
    if rho <= 0:
        return Fraction(1, q**n) * (1 - Fraction(1, q**2))
    return Fraction(1, q ** (n + rho)) * (1 - Fraction(1, q))


def reference_two_disk(ring, xi1, xi2, rho1, rho2, n):
    """The Fraction expression formula_two_disk used before the integer scaling."""
    q = ring.p
    if ring.val_int(1 - ring.norm(xi1)) < rho1:
        return Fraction(0)
    if ring.val(ring.sub(xi1, xi2)) < rho2:
        return Fraction(0)
    if rho1 >= 1:
        return Fraction(1, q ** (n + rho1)) * (1 - Fraction(1, q))
    return Fraction(1, q**n) * (1 - Fraction(1, q**2))


@pytest.mark.parametrize("p, precision", [(3, 2), (3, 3), (5, 2), (5, 3)])
def test_closed_forms_match_reference(p, precision):
    ring = QuadExtRing(p=p, precision=precision)
    classes = p ** (2 * precision)
    rhos = range(-2, precision)
    offsets = [(0, 0)] + [(p**v, 0) for v in range(precision)] + [(0, p**v) for v in range(precision)]
    gaps_seen = set()
    for xi1 in ring.units():
        gap = ring.val_int(1 - ring.norm(xi1))
        for rho in rhos:
            for n in range(max(rho, 1), precision):
                want = formula_one_disk(ring, xi1, rho, n)
                assert want == reference_one_disk(ring, xi1, rho, n), (xi1, rho, n)
                points = one_disk_points(ring, gap, rho, n)
                assert type(points) is int and points == want * classes
        # Both two-disk forms see xi1 only through its gap and xi2 only through
        # v(xi1 - xi2): one center per gap against every offset covers them all.
        if gap in gaps_seen:
            continue
        gaps_seen.add(gap)
        for delta in offsets:
            xi2 = ring.sub(xi1, delta)
            if not ring.is_unit(xi2):
                continue
            for rho1 in rhos:
                for rho2 in range(-2, rho1 + 1):
                    for n in range(max(rho1, 1), precision):
                        got = formula_two_disk(ring, xi1, xi2, rho1, rho2, n)
                        assert got == reference_two_disk(ring, xi1, xi2, rho1, rho2, n), (
                            xi1, xi2, rho1, rho2, n,
                        )


@pytest.mark.parametrize("p, precision", [(3, 1), (3, 2), (5, 2)])
def test_is_unit_matches_valuation(p, precision):
    ring = QuadExtRing(p=p, precision=precision)
    m = ring.modulus
    values = [0, 1, -1, p, -p, p - 1, m, -m, 2 * m, m + 1, m - 1, m + p, -m - 1, 3 * m * p + 2, -(p**5)]
    for a in values:
        for b in values:
            assert ring.is_unit((a, b)) == (ring.val((a, b)) == 0), (a, b)
    assert not ring.is_unit((0, 0))


# Every raise path of the two argument checks, with its exact message, at
# precision 3; where several conditions fail, the first in this order wins:
# rho order, units, n >= max(rho, 1), precision.
ONE_DISK_REFUSALS = [
    (((3, 3), 0, 1), ValueError, "center (3, 3) must be a unit"),
    (((0, 0), 5, 0), ValueError, "center (0, 0) must be a unit"),
    (((1, 0), 0, 0), ValueError, "need n >= max(rho, 1), got n=0, rho=0"),
    (((1, 0), -2, 0), ValueError, "need n >= max(rho, 1), got n=0, rho=-2"),
    (((1, 0), 2, 1), ValueError, "need n >= max(rho, 1), got n=1, rho=2"),
    (((1, 0), 4, 3), ValueError, "need n >= max(rho, 1), got n=3, rho=4"),
    (((1, 0), 0, 3), InsufficientPrecisionError, "precision 3 too small for n=3, rho=0"),
    (((2, 1), 3, 3), InsufficientPrecisionError, "precision 3 too small for n=3, rho=3"),
]
TWO_DISK_REFUSALS = [
    (((1, 0), (1, 0), 0, 1, 1), ValueError, "need rho1 >= rho2, got 0 < 1"),
    (((0, 3), (0, 0), 0, 1, 0), ValueError, "need rho1 >= rho2, got 0 < 1"),
    (((3, 0), (1, 0), 1, 0, 1), ValueError, "centers must be units"),
    (((1, 0), (0, 3), 1, 0, 1), ValueError, "centers must be units"),
    (((1, 0), (0, 3), 0, 0, 0), ValueError, "centers must be units"),
    (((1, 0), (1, 0), 0, 0, 0), ValueError, "need n >= max(rho1, 1), got n=0, rho1=0"),
    (((1, 0), (1, 0), -1, -1, 0), ValueError, "need n >= max(rho1, 1), got n=0, rho1=-1"),
    (((1, 0), (2, 0), 2, 1, 1), ValueError, "need n >= max(rho1, 1), got n=1, rho1=2"),
    (((1, 0), (1, 0), 0, 0, 3), InsufficientPrecisionError, "precision 3 too small for n=3, rho1=0"),
    (((1, 0), (1, 1), 3, 2, 3), InsufficientPrecisionError, "precision 3 too small for n=3, rho1=3"),
]


@pytest.mark.parametrize("args, error, message", ONE_DISK_REFUSALS)
def test_one_disk_argument_refusals(ring, args, error, message):
    with pytest.raises(error) as info:
        _check_one_disk_args(ring, *args)
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("args, error, message", TWO_DISK_REFUSALS)
def test_two_disk_argument_refusals(ring, args, error, message):
    with pytest.raises(error) as info:
        _check_two_disk_args(ring, *args)
    assert type(info.value) is error and str(info.value) == message


def test_argument_checks_admit_the_sweep_bounds(ring):
    """Both checks admit radii below 0, and every (rho, n) and (rho1,
    rho2 <= rho1, n) the volumes sweep visits (rho <= n <= precision - 1),
    which is why the sweep re-checks no argument."""
    for rho in range(-2, 3):
        for n in range(max(rho, 1), 3):
            _check_one_disk_args(ring, (1, 0), rho, n)
            for rho2 in range(-2, rho + 1):
                _check_two_disk_args(ring, (1, 0), (2, 3), rho, rho2, n)
    for precision in range(2, 7):
        sweep_ring = QuadExtRing(p=3, precision=precision)
        for rho1 in range(precision):
            for n in range(max(rho1, 1), precision):
                _check_one_disk_args(sweep_ring, (1, 0), rho1, n)
                for rho2 in range(rho1 + 1):
                    _check_two_disk_args(sweep_ring, (1, 0), (2, 3), rho1, rho2, n)


def test_coset_key(ring):
    counter = DiskCounter(ring)
    centers = [(1, 0), (25, 13), (-1, 5), (7, -30), (100, 2)]
    for xi in centers:
        for rho in (-5, -1, 0):
            assert counter._coset_key(xi, rho) == (0, 0, 0)
        # Inside the precision: the class of the center as given, mod 3**rho.
        for rho in range(1, ring.precision + 1):
            assert counter._coset_key(xi, rho) == (xi[0] % 3**rho, xi[1] % 3**rho, rho)
        # Past it, a disk smaller than one residue class.
        for rho in range(ring.precision + 1, 7):
            with pytest.raises(InsufficientPrecisionError, match=f"^precision 3 too small for a disk of radius rho={rho}$"):
                counter._coset_key(xi, rho)
    assert counter._coset_key((-1, 5), 3) == (26, 5, 3)


def test_histogram_is_the_coincident_pair(ring):
    counter = DiskCounter(ring)
    for xi in [(1, 0), (25, 13), (2, 3)]:
        for rho in range(-1, ring.precision + 1):
            hist = counter.histogram(xi, rho)
            entries = len(counter._memo)
            assert counter.pair_histogram(xi, rho, xi, rho) == hist
            assert len(counter._memo) == entries, (xi, rho)


def test_disk_past_the_precision_refused():
    counter = DiskCounter(QuadExtRing(3, 2))
    # rho = precision is one residue class, the center's own.
    assert counter.histogram((1, 0), 2) == (0, 0, 1)
    assert counter.pair_histogram((4, 0), 2, (1, 0), 1) == (0, 1, 0)  # v(1 - 16) = 1
    with pytest.raises(InsufficientPrecisionError, match="rho=3"):
        counter.histogram((1, 0), 3)
    with pytest.raises(InsufficientPrecisionError, match="rho=3"):
        counter.pair_histogram((1, 0), 3, (1, 0), 0)
    assert len(counter._memo) == 2


@pytest.mark.parametrize(
    "key1, key2, error, message",
    [
        ((0, 0, 5), (0, 0, 0), InsufficientPrecisionError, "precision 3 too small for a disk of radius rho=5"),
        ((0, 0, 0), (0, 0, -1), ValueError, "a coset key's radius must be >= 0, got rho=-1"),
        ((0, 0, 0), (0, 0, 4), InsufficientPrecisionError, "precision 3 too small for a disk of radius rho=4"),
    ],
    ids=["first_past_precision", "second_negative", "second_past_precision"],
)
def test_keyed_histogram_refuses_malformed_keys(ring, key1, key2, error, message):
    """A hand-made coset key with a radius outside 0..precision is refused
    with the package's error, and leaves no memo entry behind."""
    counter = DiskCounter(ring)
    with pytest.raises(error) as info:
        counter.keyed_histogram(key1, key2)
    assert type(info.value) is error and str(info.value) == message
    assert counter._memo == {}
    # Valid keys still build, one memo entry each.
    keys = counter.coset_keys((1, 0))
    assert counter.keyed_histogram(keys[3], keys[0]) == counter.pair_histogram((1, 0), 3, (1, 0), 0)
    assert counter.keyed_histogram(keys[0], keys[0]) == counter.histogram((1, 0), 0)
    assert len(counter._memo) == 2


class TestTwoDisk:
    def test_coincident_reduces_to_one_disk(self, ring, counter):
        xi = ring.one()
        got = count_two_disk(ring, xi, xi, 0, 0, 1, counter)
        assert got == count_one_disk(ring, xi, 0, 1, counter)

    def test_disjoint_disks(self, ring, counter):
        xi1 = ring.one()
        xi2 = ring.element(2, 0)  # v(xi1 - xi2) = 0 < rho2 = 1
        assert formula_two_disk(ring, xi1, xi2, 1, 1, 1) == Fraction(0)
        assert count_two_disk(ring, xi1, xi2, 1, 1, 1, counter) == Fraction(0)

    def test_generic_admissible(self):
        ring = QuadExtRing(p=3, precision=4)
        xi = ring.one()
        got = count_two_disk(ring, xi, ring.element(1, 3), 1, 1, 2)
        assert got == Fraction(2, 81)

    def test_sweep_with_offsets(self, ring, counter):
        offsets = [(0, 0), (1, 0), (0, 1), (3, 0), (0, 3)]
        units = [u for u in ring.units() if u[0] % 3 == 1][:40]
        for xi1 in units:
            for da, db in offsets:
                xi2 = ring.sub(xi1, (da, db))
                if not ring.is_unit(xi2):
                    continue
                for rho1 in range(ring.precision):
                    for rho2 in range(rho1 + 1):
                        for n in range(max(rho1, 1), ring.precision):
                            got = count_two_disk(ring, xi1, xi2, rho1, rho2, n, counter)
                            want = formula_two_disk(ring, xi1, xi2, rho1, rho2, n)
                            assert got == want, (xi1, xi2, rho1, rho2, n)

    def test_rho_order_enforced(self, ring):
        with pytest.raises(ValueError):
            count_two_disk(ring, ring.one(), ring.one(), 0, 1, 1)


class TestQuaternionInvariants:
    def test_u_equals_one(self, ring):
        rng = random.Random(5)
        lam, alpha, beta = sample_admissible(ring, rng)
        report = quaternion_invariants(ring, lam, alpha, beta, ring.one(), ring.zero())
        assert report["pass"]
        lam_inv = ring.inverse(lam)
        assert report["computed"]["herm_u_u"] == ring.one()
        assert report["computed"]["herm_gu_u"] == ring.mul(lam_inv, alpha)

    def test_u_equals_j(self, ring):
        rng = random.Random(6)
        lam, alpha, beta = sample_admissible(ring, rng)
        report = quaternion_invariants(ring, lam, alpha, beta, ring.zero(), ring.one())
        assert report["pass"]
        assert report["computed"]["herm_u_u"] == ring.element(-ring.p, 0)

    def test_randomized(self, ring):
        rng = random.Random(7)
        for i in range(60):
            lam, alpha, beta = sample_admissible(ring, rng)
            if i % 2:
                s, t = ring.zero(), ring.random_unit(rng)
            else:
                s, t = ring.random_unit(rng), ring.zero()
            assert quaternion_invariants(ring, lam, alpha, beta, s, t)["pass"]

    def test_constraint_enforced(self, ring):
        with pytest.raises(ValueError, match="constraint"):
            quaternion_invariants(
                ring, ring.one(), ring.element(2, 0), ring.zero(), ring.one(), ring.zero()
            )

    def test_st_both_nonzero_rejected(self, ring):
        rng = random.Random(8)
        lam, alpha, beta = sample_admissible(ring, rng)
        with pytest.raises(ValueError, match="s = 0 or t = 0"):
            quaternion_invariants(ring, lam, alpha, beta, ring.one(), ring.one())

    def test_valuation_translation_on_samples(self, ring):
        # v(lam**-2 * beta * conj(beta) * p) = 2 v(beta) + 1 whenever that is
        # within working precision.
        rng = random.Random(9)
        for _ in range(40):
            lam, _, beta = sample_admissible(ring, rng)
            v_beta = ring.val(beta)
            if 2 * v_beta + 1 >= ring.precision:
                continue
            lam_inv = ring.inverse(lam)
            bc = ring.scalar_mul(
                ring.p,
                ring.mul(ring.mul(lam_inv, lam_inv), ring.mul(beta, ring.conj(beta))),
            )
            assert ring.val(bc) == 2 * v_beta + 1


def test_smallest_nonresidue_by_euler_criterion():
    """The same eps as the least number missing from the set of squares."""
    for p in filter(_is_prime, range(3, 200)):
        squares = {x * x % p for x in range(1, p)}
        assert _smallest_nonresidue(p) == min(a for a in range(2, p) if a not in squares)


def test_ring_at_a_large_prime_is_cheap():
    assert QuadExtRing(p=1000003, precision=1).eps == 2


def test_is_prime_agrees_with_trial_division():
    assert [n for n in range(3000) if _is_prime(n)] == [n for n in range(2, 3000) if all(n % d for d in range(2, n))]
    assert _is_prime(1000000000000000003) and _is_prime(2**61 - 1)
    assert not _is_prime(2**61 + 1) and not _is_prime((2**31 - 1) * (2**61 - 1))


@pytest.mark.parametrize("p", [561, 41041, 3215031751, 3317044064679887385961981, 9, 1, 2, -7])
def test_ring_args_refuse_non_primes(p):
    """Carmichael numbers included; the bound itself is a strong pseudoprime
    to every base up to 41, refused as out of range."""
    with pytest.raises(ValueError, match="p must be"):
        _check_ring_args(p, 1)


def test_ring_args_refuse_p_above_the_bound():
    with pytest.raises(ValueError, match=f"p must be below {PRIME_TEST_BOUND}, where the primality test is exact"):
        _check_ring_args(PRIME_TEST_BOUND + 2, 1)
