"""Identity-verification sweeps over parameter grids.

Each suite checks one family of exact identities and returns a
``SuiteResult`` carrying the number of checks performed and a JSON-ready
record for every failure.  Suites are deterministic (randomised ones take a
seed) and order-independent.

The default grid is r in [0, 6], vb + vc odd in {1, ..., 11} with
vb in [-6, vb + vc], ve in [0, 10] and vda in {0, ..., 6, INFINITY}; it
covers every case split of the closed forms (parity of the correction
offset, parity of theta, and each branch attaining the degree bound).
Identities that depend on (vb, vc) only through their sum are swept over the
reduced grid with the canonical split vb = 0; the dependence reduction is
itself one of the checked properties.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator

from .exactpoly import QPolynomial
from .intersection import (
    gk_from_params,
    gross_keating,
    int_circ,
    int_circ_kr_closed,
    int_total,
    verify_miracle,
)
from .kernel import (
    build_matrix,
    certify_full_rank,
    test_large_r_vanishing,
    test_phi_sequence,
)
from .orbital import (
    INFINITY,
    OrbitalParams,
    derivative_closed_form,
    derivative_combo,
    orbital_closed_form,
    orbital_support_sum,
)
from .padiclab import (
    DiskCounter,
    QuadExtRing,
    count_one_disk,
    count_two_disk,
    formula_one_disk,
    formula_two_disk,
    quaternion_invariants,
    sample_admissible,
)
from .satake import (
    SatakeY,
    bc_gl3_to_u3,
    bc_s2_combo_image,
    bc_s2_on_basis,
    bc_s3_table,
    bc_s3_weight,
    p_r_polynomial,
    proj_fiber_gl3,
    satake_gl_det,
    satake_u3_indicator,
)

@dataclass
class SweepConfig:
    """Parameter ranges for the identity sweeps."""

    r_max: int = 6
    sum_bc_max: int = 11
    vb_min: int = -6
    ve_max: int = 10
    vda_max: int = 6
    include_vda_inf: bool = True
    rmax_satake: int = 8
    p: int = 3
    precision: int = 4
    quaternion_samples: int = 120
    seed: int = 20240501

    def __post_init__(self):
        if self.r_max < 0 or self.ve_max < 0 or self.sum_bc_max < 1:
            raise ValueError("ranges must be nonempty")

    def vda_values(self) -> list:
        vals: list = list(range(self.vda_max + 1))
        if self.include_vda_inf:
            vals.append(INFINITY)
        return vals

    def sum_bc_values(self) -> list[int]:
        return list(range(1, self.sum_bc_max + 1, 2))

    def reduced_tuples(self) -> Iterator[OrbitalParams]:
        """(r, sum_bc, ve, vda) with the canonical split vb = 0."""
        for r in range(self.r_max + 1):
            for s in self.sum_bc_values():
                for ve in range(self.ve_max + 1):
                    for vda in self.vda_values():
                        yield OrbitalParams(r=r, vb=0, vc=s, ve=ve, vda=vda)

    def full_tuples(self) -> Iterator[OrbitalParams]:
        """All splits vb in [vb_min, sum_bc]."""
        for r in range(self.r_max + 1):
            for s in self.sum_bc_values():
                for vb in range(self.vb_min, s + 1):
                    for ve in range(self.ve_max + 1):
                        for vda in self.vda_values():
                            yield OrbitalParams(r=r, vb=vb, vc=s - vb, ve=ve, vda=vda)


@dataclass
class SuiteResult:
    name: str
    checked: int = 0
    failures: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def fail(self, record: dict) -> None:
        self.failures.append(record)

    def to_json(self) -> dict:
        return {
            "suite": self.name,
            "checked": self.checked,
            "passed": self.passed,
            "failures": self.failures,
            "notes": self.notes,
        }


# --------------------------------------------------------------- orbital

def suite_orbital(config: SweepConfig | None = None) -> SuiteResult:
    """Closed form == support-sum oracle, value 0 at s = 0, derivative
    consistency against the series derivative, coefficient sign pattern, and
    the reduction of the derivative to vb + vc; all over the full grid."""
    config = config or SweepConfig()
    res = SuiteResult("orbital")
    seen_derivative: dict[tuple, QPolynomial] = {}
    for p in config.full_tuples():
        series = orbital_closed_form(p)
        oracle = orbital_support_sum(p)
        if series != oracle:
            res.fail({"identity": "closed_form == support_sum", "params": p.label()})
        if series.at_one():
            res.fail({"identity": "value at s=0 is 0", "params": p.label()})
        deriv = derivative_closed_form(p)
        log_deriv = series.log_derivative_at_zero()
        if (p.vc + p.r) % 2:
            log_deriv = -log_deriv
        if deriv != log_deriv:
            res.fail({"identity": "derivative == signed series derivative", "params": p.label()})
        for k, coeff in series.items():
            flipped = -coeff if k % 2 else coeff
            if any(c < 0 for _, c in flipped.items()):
                res.fail({"identity": "sign pattern (-1)^k", "params": p.label(), "k": k})
                break
        key = (p.r, p.vb + p.vc, p.ve, p.vda)
        prior = seen_derivative.get(key)
        if prior is None:
            seen_derivative[key] = deriv
        elif prior != deriv:
            res.fail({"identity": "derivative depends only on vb+vc", "params": p.label()})
        res.checked += 5
    return res


# ---------------------------------------------------------- intersection

def suite_miracle(config: SweepConfig | None = None) -> SuiteResult:
    """Gross-Keating value == sum of normalised derivatives at ve and ve-1."""
    config = config or SweepConfig()
    res = SuiteResult("miracle")
    for p in config.reduced_tuples():
        report = verify_miracle(p)
        res.checked += 1
        if not report["pass"]:
            res.fail(report)
    return res


def suite_afl(config: SweepConfig | None = None) -> SuiteResult:
    """The rank-2 identity chain on the default grid:

      * total intersection number == normalised derivative (all r >= 0),
      * its level difference == the two-element combination derivative
        (r >= 1), which carries the transfer-factor signs once both sides
        are dressed with (-1)**r,
      * the clean closed form for the single-cell intersection number ==
        the Gross-Keating difference (r >= 1, ve >= 1),
      * n1 + n2 == 2 ve + vb + vc + 2r.
    """
    config = config or SweepConfig()
    res = SuiteResult("afl")
    for p in config.reduced_tuples():
        total = int_total(p)
        deriv = derivative_closed_form(p)
        res.checked += 1
        if total != deriv:
            res.fail(
                {
                    "identity": "int_total == derivative_closed_form",
                    "params": p.label(),
                    "lhs": total.to_json(),
                    "rhs": deriv.to_json(),
                }
            )
        pair = gk_from_params(p)
        res.checked += 1
        if pair.n1 + pair.n2 != 2 * p.ve + p.vb + p.vc + 2 * p.r:
            res.fail({"identity": "n1 + n2 == 2 ve + vb + vc + 2r", "params": p.label()})
        if p.r >= 1:
            lhs = total - int_total(p.with_r(p.r - 1))
            rhs = derivative_combo(p)
            res.checked += 1
            if lhs != rhs:
                res.fail(
                    {
                        "identity": "int_total(r) - int_total(r-1) == derivative_combo",
                        "params": p.label(),
                        "lhs": lhs.to_json(),
                        "rhs": rhs.to_json(),
                    }
                )
            if p.ve >= 1:
                closed = int_circ_kr_closed(p)
                diff = int_circ(p) - int_circ(p.with_r(p.r - 1))
                res.checked += 1
                if closed != diff:
                    res.fail(
                        {
                            "identity": "int_circ_kr_closed == int_circ(r) - int_circ(r-1)",
                            "params": p.label(),
                            "lhs": closed.to_json(),
                            "rhs": diff.to_json(),
                        }
                    )
    return res


# ---------------------------------------------------------------- kernel

KERNEL_RANK_GRID = {
    "sum_bc": (1, 3, 5, 17),
    "vda": (0, 1, 2, 8),
    "n_cap": (1, 2, 3, 4, 5, 6),
}


def suite_kernel(config: SweepConfig | None = None) -> SuiteResult:
    """Full-rank certificates over the rank grid, the large-r vanishing
    combination, and the almost-kernel sequence outside its window."""
    config = config or SweepConfig()
    res = SuiteResult("kernel")
    for s in KERNEL_RANK_GRID["sum_bc"]:
        for vda in KERNEL_RANK_GRID["vda"]:
            for n_cap in KERNEL_RANK_GRID["n_cap"]:
                cert = certify_full_rank(build_matrix(s, vda, n_cap))
                res.checked += 1
                if not cert.passed:
                    res.fail(
                        {
                            "identity": "full rank certificate",
                            "params": cert.label(),
                            "rank": cert.rank,
                            "expected": cert.expected_rank,
                            "flags": cert.flags,
                        }
                    )
    for s in (1, 3, 5, 11):
        for vda in (0, 2, INFINITY):
            for ve in range(0, config.ve_max + 1, 2):
                base = OrbitalParams(r=0, vb=0, vc=s, ve=ve, vda=vda)
                for r in range(ve + 2, ve + 9):
                    report = test_large_r_vanishing(base.with_r(r))
                    res.checked += 1
                    if not report["pass"]:
                        res.fail({"identity": "large-r 1,2,1 vanishing", **report})
                for r in range(5, ve + 9):
                    report = test_phi_sequence(base, r)
                    res.checked += 1
                    if not report["pass"]:
                        res.fail({"identity": "sequence vanishing outside window", **report})
    return res


# ---------------------------------------------------------------- satake

def suite_satake(config: SweepConfig | None = None) -> SuiteResult:
    """Base-change identities for ranks 3 and 2, for r = 0..rmax."""
    config = config or SweepConfig()
    rmax = config.rmax_satake
    res = SuiteResult("satake")
    images = bc_s3_table(rmax)
    two = QPolynomial.q_power(2)
    for r in range(rmax + 1):
        # Aggregate identity: weighted sum of basis images reproduces the
        # unitary-side indicator image (this is how the table was solved, so
        # recompute the sum explicitly as a consistency check).
        agg = SatakeY()
        for j in range(r + 1):
            agg = agg + images[j].scale(bc_s3_weight(r, j))
        res.checked += 1
        if agg != satake_u3_indicator(r):
            res.fail({"identity": "rank-3 aggregate base change", "r": r})
        # Second identity: single-cell combination gives the indicator difference.
        lhs = images[r]
        for j in range(r):
            lhs = lhs + images[j].scale(QPolynomial.q_power(r - j, 2))
        rhs = satake_u3_indicator(r) - satake_u3_indicator(r - 1)
        res.checked += 1
        if lhs != rhs:
            res.fail({"identity": "rank-3 single-cell base change", "r": r})
        # Determinant-indicator route: BC(Sat(f_r)) - q^2 BC(Sat(f_{r-1}))
        # equals q^(2r) (Y^r + Y^(r-2) + ... + Y^-r).
        bc_r = bc_gl3_to_u3(satake_gl_det(3, r))
        diff = bc_r if r == 0 else bc_r - bc_gl3_to_u3(satake_gl_det(3, r - 1)).scale(two)
        expected = SatakeY(
            {i: QPolynomial.q_power(2 * r) for i in range(r % 2, r + 1, 2)}
        )
        res.checked += 1
        if diff != expected:
            res.fail({"identity": "rank-3 determinant-route base change", "r": r})
        # Fiber integration consistency.
        proj_r = proj_fiber_gl3(r)
        if r >= 1:
            proj_prev = proj_fiber_gl3(r - 1)
            ok = all(
                proj_r[j] - (proj_prev[j] * two if j <= r - 1 else QPolynomial.zero())
                == QPolynomial.geometric(r - j)
                for j in range(r + 1)
            )
            res.checked += 1
            if not ok:
                res.fail({"identity": "fiber projection difference", "r": r})
        # Rank 2: triangular solve against the combination images, and the
        # three-term recombination of the vanishing polynomials.
        combo = bc_s2_combo_image(r)
        basis_sum = bc_s2_on_basis(r) + (bc_s2_on_basis(r - 1) if r >= 1 else SatakeY())
        res.checked += 1
        if combo != basis_sum:
            res.fail({"identity": "rank-2 combination == sum of basis images", "r": r})
        # The clean three-term shape needs every window nonempty, i.e. r >= 3.
        if r >= 3:
            three_term = p_r_polynomial(r) - p_r_polynomial(r - 1).scale(QPolynomial.q_power(1))
            expected3 = SatakeY(
                {
                    r: QPolynomial.q_power(r),
                    r - 1: QPolynomial.q_power(r - 1, -2),
                    r - 2: QPolynomial.q_power(r - 2),
                }
            )
            res.checked += 1
            if three_term != expected3:
                res.fail({"identity": "three-term vanishing polynomial shape", "r": r})
    return res


# ---------------------------------------------------------------- volumes

def suite_volumes(config: SweepConfig | None = None) -> SuiteResult:
    """Enumerated disk volumes against the closed forms.

    One-disk: every unit center, every admissible (rho, n) within precision.
    Two-disk: every unit first center against offsets hitting every
    separation valuation, every admissible (rho1, rho2, n).
    """
    config = config or SweepConfig()
    ring = QuadExtRing(p=config.p, precision=config.precision)
    counter = DiskCounter(ring)
    res = SuiteResult("volumes")
    prec = ring.precision
    rho_values = range(0, prec)
    for xi in ring.units():
        for rho in rho_values:
            for n in range(max(rho, 1), prec):
                got = count_one_disk(ring, xi, rho, n, counter)
                want = formula_one_disk(ring, xi, rho, n)
                res.checked += 1
                if got != want:
                    res.fail(
                        {
                            "lemma": "one_disk",
                            "params": {"xi": xi, "rho": rho, "n": n},
                            "enumerated": [got.numerator, got.denominator],
                            "formula": [want.numerator, want.denominator],
                            "match": False,
                        }
                    )
    # Offsets delta = xi1 - xi2 with v(delta) = 0, 1, ..., >= precision.
    offsets = [(0, 0)]
    for v in range(prec):
        offsets.append((ring.p**v, 0))
        offsets.append((0, ring.p**v))
    for xi1 in ring.units():
        for da, db in offsets:
            xi2 = ring.sub(xi1, (da, db))
            if not ring.is_unit(xi2):
                continue
            for rho1 in range(0, prec):
                for rho2 in range(0, rho1 + 1):
                    for n in range(max(rho1, 1), prec):
                        got = count_two_disk(ring, xi1, xi2, rho1, rho2, n, counter)
                        want = formula_two_disk(ring, xi1, xi2, rho1, rho2, n)
                        res.checked += 1
                        if got != want:
                            res.fail(
                                {
                                    "lemma": "two_disk",
                                    "params": {
                                        "xi1": xi1,
                                        "xi2": xi2,
                                        "rho1": rho1,
                                        "rho2": rho2,
                                        "n": n,
                                    },
                                    "enumerated": [got.numerator, got.denominator],
                                    "formula": [want.numerator, want.denominator],
                                    "match": False,
                                }
                            )
    return res


def suite_quaternion(config: SweepConfig | None = None) -> SuiteResult:
    """Invariant identities for randomized admissible unitary data."""
    config = config or SweepConfig()
    ring = QuadExtRing(p=config.p, precision=config.precision)
    rng = random.Random(config.seed)
    res = SuiteResult("quaternion")
    for i in range(config.quaternion_samples):
        lam, alpha, beta = sample_admissible(ring, rng)
        if i % 2:
            s, t = ring.zero(), ring.random_unit(rng)
        else:
            s, t = ring.random_unit(rng), ring.zero()
        report = quaternion_invariants(ring, lam, alpha, beta, s, t)
        res.checked += 1
        if not report["pass"]:
            res.fail(
                {
                    "identity": "quaternion invariants",
                    "lam": lam,
                    "alpha": alpha,
                    "beta": beta,
                    "s": s,
                    "t": t,
                    "checks": report["checks"],
                }
            )
    return res


_SUITE_RUNNERS = {
    "orbital": suite_orbital,
    "miracle": suite_miracle,
    "afl": suite_afl,
    "kernel": suite_kernel,
    "satake": suite_satake,
    "volumes": suite_volumes,
    "quaternion": suite_quaternion,
}
SUITE_NAMES = tuple(_SUITE_RUNNERS)


def run_suite(name: str, config: SweepConfig | None = None) -> list[SuiteResult]:
    """Run one named suite, or all of them; 'intersection' is an alias that
    runs the miracle and afl suites together."""
    if name == "all":
        names = SUITE_NAMES
    elif name == "intersection":
        names = ["miracle", "afl"]
    elif name in _SUITE_RUNNERS:
        names = [name]
    else:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}, all")
    return [_SUITE_RUNNERS[n](config) for n in names]
