"""Identity-verification sweeps over parameter grids.

Each suite, registered once by ``@_suite(name, work=...)``, checks one
family of exact identities and returns a ``SuiteResult`` carrying the checks
made, counted per named identity, and a JSON-ready record for every failure.
Every identity at every grid point is one check, made through
``SuiteResult.check(ok, identity, **record)``, which counts it and, only if
it fails, appends ``record`` with orbit parameters and exact values encoded
by ``_encode``.  The orbital and volumes sweeps make the same counts and
records in bulk: each identity counted once per run (``SuiteResult.count``)
and each failure appended as it occurs (``SuiteResult.record``).  Suites are
deterministic (randomised ones take a seed) and order-independent.  Each
registration also states what a run of the suite costs, as a function of
the ``SweepConfig`` fields the suite reads (``sweep_work``), so that a caller
can refuse a run before it starts.

The default grid is r in [0, 6], vb + vc odd in {1, ..., 11} with
vb in [-6, vb + vc], ve in [0, 10] and vda in {0, ..., 6, INFINITY}; it
covers every case split of the closed forms (parity of the correction
offset, parity of theta, and each branch attaining the degree bound).
Identities that depend on (vb, vc) only through their sum are swept over the
reduced grid with the canonical split vb = 0; the dependence reduction is
itself one of the checked properties.  The default grid never reaches
ve < 0, where both sides of every identity are 0.  The orbital suite checks
the series builders' packed rows (see ``orbital``) without building a
``LaurentSeries``, through ``exactpoly._decoded`` and ``_sign_mask``.
"""

from __future__ import annotations

import random
from operator import mul
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Callable, Iterator

from .exactpoly import QPolynomial, _decoded, _sign_mask
from .intersection import (
    gk_from_params,
    int_circ,
    int_circ_kr_closed,
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
    _closed_form_rows,
    _support_sum_rows,
    derivative_closed_form,
    derivative_combo,
    require_ints,
    row_width,
    support_points,
)
from .padiclab import (
    DiskCounter,
    QuadExtRing,
    _check_one_disk_args,
    _check_ring_args,
    _check_two_disk_args,
    one_disk_points,
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

#: The lowest vb of the full grid; vda = INFINITY is always on the grid too.
_VB_MIN = -6


@dataclass
class SweepConfig:
    """Parameter ranges for the identity sweeps, validated when built: every
    field an int, nonempty ranges, and p and precision a valid ring."""

    r_max: int = 6
    sum_bc_max: int = 11
    ve_max: int = 10
    vda_max: int = 6
    rmax_satake: int = 8
    p: int = 3
    precision: int = 4
    quaternion_samples: int = 120
    seed: int = 20240501

    def __post_init__(self):
        require_ints(**{f.name: getattr(self, f.name) for f in fields(self)})
        _check_ring_args(self.p, self.precision)
        if self.r_max < 0 or self.ve_max < 0 or self.sum_bc_max < 1:
            raise ValueError("ranges must be nonempty")
        if self.rmax_satake < 0:
            raise ValueError(f"rmax_satake must be >= 0, got {self.rmax_satake}")

    def vda_values(self) -> list:
        return [*range(self.vda_max + 1), INFINITY]

    def sum_bc_values(self) -> list[int]:
        return list(range(1, self.sum_bc_max + 1, 2))

    def reduced_tuples(self) -> Iterator[OrbitalParams]:
        """(r, sum_bc, ve, vda) with the canonical split vb = 0."""
        for r in range(self.r_max + 1):
            for s in self.sum_bc_values():
                for ve in range(self.ve_max + 1):
                    for vda in self.vda_values():
                        yield OrbitalParams(r=r, vb=0, vc=s, ve=ve, vda=vda)

    def reduced_tuple_count(self) -> int:
        """How many tuples ``reduced_tuples`` yields, counted without walking them."""
        odd = (self.sum_bc_max + 1) // 2  # arithmetic, not len(): fields may pass sys.maxsize
        return (self.r_max + 1) * odd * (self.ve_max + 1) * (max(self.vda_max, -1) + 2)

    def full_tuple_count(self) -> int:
        """How many tuples ``full_tuples`` yields: each odd s splits s + 1 -
        _VB_MIN ways, on average (sum_bc_max + 1)/2 + 1 - _VB_MIN."""
        return self.reduced_tuple_count() * ((self.sum_bc_max + 1) // 2 + 1 - _VB_MIN)

    def full_tuples(self) -> Iterator[OrbitalParams]:
        """All splits vb in [_VB_MIN, sum_bc]."""
        for r in range(self.r_max + 1):
            for s in self.sum_bc_values():
                for vb in range(_VB_MIN, s + 1):
                    for ve in range(self.ve_max + 1):
                        for vda in self.vda_values():
                            yield OrbitalParams(r=r, vb=vb, vc=s - vb, ve=ve, vda=vda)


@dataclass
class SuiteResult:
    """One suite run.  ``identity_key`` is the failure-record key that names
    the failed identity, first in the record; None leaves the name out."""

    name: str
    checked: int = 0
    failures: list = field(default_factory=list)
    checks_by_identity: dict = field(default_factory=dict)
    identity_key: str | None = "identity"

    @property
    def passed(self) -> bool:
        """No failures, and at least one check: a vacuous suite fails."""
        return self.checked > 0 and not self.failures

    def count(self, identity: str, n: int = 1) -> None:
        """Count ``n`` checks of ``identity``."""
        self.checked += n
        self.checks_by_identity[identity] = self.checks_by_identity.get(identity, 0) + n

    def check(self, ok: bool, identity: str, /, **record) -> bool:
        """Count one check of ``identity``; if it fails, record it."""
        self.count(identity)
        if not ok:
            self.record(identity, **record)
        return ok

    def record(self, identity: str, /, **record) -> None:
        """Append a failure of ``identity`` with ``record`` encoded: orbit
        parameters and exact values are encoded only here."""
        head = {self.identity_key: identity} if self.identity_key else {}
        self.failures.append(head | {key: _encode(value) for key, value in record.items()})

    def to_json(self) -> dict:
        return {
            "suite": self.name,
            "checked": self.checked,
            "checks_by_identity": self.checks_by_identity,
            "passed": self.passed,
            "failures": self.failures,
        }


def _encode(value):
    """A failure record's value in JSON form: orbit parameters by their label,
    exact values by ``to_json``, volumes as [num, den], anything else as is."""
    if isinstance(value, OrbitalParams):
        return value.label()
    if isinstance(value, QPolynomial):
        return value.to_json()
    if isinstance(value, Fraction):
        return [value.numerator, value.denominator]
    return value


_SUITES: dict[str, Callable[..., SuiteResult]] = {}


def _suite(name: str, identity_key: str | None = "identity", *, work: Callable[[SweepConfig], int]):
    """Register ``body(config, res)`` as ``suite(config=None) -> SuiteResult``,
    which runs it on ``config`` (default: the default grid) and returns ``res``.

    ``work(config)`` charges a run from the fields the suite reads, in a unit
    of about 0.12 µs on a 2-CPU host with Python 3.11 (the default orbital
    sweep: 29,069,040 units, 3.5 s; it runs in 2.3-2.7 s, so the charge is
    1.3-1.5 times its time)."""

    def register(body: Callable[[SweepConfig, SuiteResult], None]) -> Callable[..., SuiteResult]:
        def suite(config: SweepConfig | None = None) -> SuiteResult:
            res = SuiteResult(name, identity_key=identity_key)
            body(config or SweepConfig(), res)
            return res

        suite.__name__, suite.__qualname__, suite.__doc__ = body.__name__, body.__qualname__, body.__doc__
        suite.work = work
        _SUITES[name] = suite
        return suite

    return register


# --------------------------------------------------------------- orbital

def _first_sign_break(rows: dict[int, int], width: int, digits: int) -> int | None:
    """The first k at which (-1)**k row has a negative q-coefficient or a
    term of degree ``digits`` or more, or None: one ``exactpoly._sign_mask``
    test per row, the ``rows`` packed at ``width`` bits per digit."""
    mask = _sign_mask(width, digits)
    for k, x in rows.items():
        if (-x if k % 2 else x) & mask:
            return k
    return None


def _grid_work(config: SweepConfig) -> int:
    """Every full-grid tuple at the support-lattice points of the grid's top
    corner, the most any tuple has: the orbital oracle's work."""
    return config.full_tuple_count() * support_points(config.r_max, config.sum_bc_max, config.ve_max)


def _top_degree(config: SweepConfig) -> int:
    """min(ve_max, (sum_bc_max - 1)/2 + r_max), the top q-degree on the
    reduced grid (vda = INFINITY is on it)."""
    return min(config.ve_max, (config.sum_bc_max - 1) // 2 + config.r_max)


def _miracle_work(config: SweepConfig) -> int:
    """200 + 2n units per reduced tuple, n = ``_top_degree``: a tuple
    builds one Gross-Keating polynomial and two derivatives of at most
    n + 1 terms.  Timed on a 2-CPU Xeon with Python 3.11 (single runs), the
    charge at 0.12 µs a unit is 1.04-1.77 times the suite's time (15-37 µs a
    tuple) from the default grid to ve_max = 200 and to r_max = ve_max =
    100; --rmax 40 --ve-max 40 --sum-bc-max 41 runs in 7.9 s, charged
    79,074,240."""
    return config.reduced_tuple_count() * (200 + 2 * _top_degree(config))


def _afl_work(config: SweepConfig) -> int:
    """500 + 5n units per reduced tuple, n = ``_top_degree``: a tuple
    builds one ``int_circ`` (two Gross-Keating polynomials), two
    derivatives and, for r >= 1, the single-cell closed form, each of at
    most n + 1 terms.  Timed on a 2-CPU Xeon with Python 3.11 (single
    in-process runs, 36-89 µs a tuple), the charge at 0.12 µs a unit is
    1.2-1.8 times the suite's time from the smoke grid and the default grid
    to ve_max = 300, r_max = 456, sum_bc_max = 1075, vda_max = 715, r_max =
    ve_max = 60 and r_max = ve_max = 100; --rmax 40 --ve-max 40
    --sum-bc-max 41 runs in 15 s, charged 197,685,600."""
    return config.reduced_tuple_count() * (500 + 5 * _top_degree(config))


def _row_sums(rows: dict[int, int], width: int, negate: bool) -> tuple[bool, QPolynomial]:
    """Whether the rows sum to 0 (the value at s = 0), and their k-weighted
    sum decoded, negated if ``negate`` (the signed log-derivative)."""
    weighted = sum(map(mul, rows, rows.values()))
    return not sum(rows.values()), _decoded((-weighted if negate else weighted,), width)[0]


_ORBITAL_IDENTITIES = (
    "closed_form == support_sum",
    "value at s=0 is 0",
    "derivative == signed series derivative",
    "sign pattern (-1)^k",
    "derivative depends only on vb+vc",
)


@_suite("orbital", work=_grid_work)
def suite_orbital(config: SweepConfig, res: SuiteResult) -> None:
    """Closed form == support-sum oracle, value 0 at s = 0, derivative
    consistency against the series derivative, coefficient sign pattern, and
    the reduction of the derivative to vb + vc; all over the full grid.

    Both series are compared as the builders' packed rows, one int per T
    power at the width ``row_width`` gives the tuple, the forms the public
    ``orbital_closed_form`` and ``orbital_support_sum`` wrap: equal ints are
    equal q-polynomials.  The value at s = 0 is the sum of the rows and the
    log-derivative their k-weighted sum, decoded once (``exactpoly``); no
    tuple allocates a ``LaurentSeries``.

    The oracle reads a tuple only through its orbit (r, vb, vc, ve) and
    theta, and the width only through the orbit; ``full_tuples`` walks vda
    innermost.  So each orbit's width is computed once, and its oracle rows
    once per theta (at most vda_max + 2 of them), kept only while the walk
    stays on that orbit.  Every tuple still builds its own closed form and
    compares it with the lattice sum for exactly its own inputs.

    The three checks that read only the rows (the value at s = 0, the signed
    log-derivative, whose sign (-1)**(vc + r) is the orbit's, and the sign
    pattern) are read once per oracle entry: a tuple whose closed-form rows
    equal the entry's rows reuses them, and a tuple whose rows differ reads
    its own.  Each identity is counted once for the whole grid; failures are
    recorded as they occur, in tuple order and, within a tuple, in the order
    above."""
    seen_derivative: dict[tuple, QPolynomial] = {}
    orbit = None
    tuples = 0
    for p in config.full_tuples():
        tuples += 1
        if orbit != (p.r, p.vb, p.vc, p.ve):
            orbit, width, oracle = (p.r, p.vb, p.vc, p.ve), row_width(p), {}
            negate = (p.vc + p.r) % 2
        theta = p.theta()
        entry = oracle.get(theta)
        if entry is None:
            # The sign pattern reads n_bound = min(ve, (s - 1)/2 + r, vda + r), one
            # number per entry as s = vb + vc is odd: either theta = 2 vda < s, so
            # vda is fixed, or theta = s < 2 vda, so vda + r > (s - 1)/2 + r.
            oracle_rows = _support_sum_rows(p, width)
            k = _first_sign_break(oracle_rows, width, max(p.n_bound() + 1, 0))
            entry = oracle[theta] = (oracle_rows, *_row_sums(oracle_rows, width, negate), k)
        oracle_rows, zero, log_deriv, k = entry
        rows = _closed_form_rows(p, width)
        if rows != oracle_rows:
            res.record("closed_form == support_sum", params=p)
            zero, log_deriv = _row_sums(rows, width, negate)
            k = _first_sign_break(rows, width, max(p.n_bound() + 1, 0))
        if not zero:
            res.record("value at s=0 is 0", params=p)
        deriv = derivative_closed_form(p)
        if deriv != log_deriv:
            res.record("derivative == signed series derivative", params=p)
        if k is not None:
            res.record("sign pattern (-1)^k", params=p, k=k)
        key = (p.r, p.vb + p.vc, p.ve, p.vda)
        if seen_derivative.setdefault(key, deriv) != deriv:
            res.record("derivative depends only on vb+vc", params=p)
    for identity in _ORBITAL_IDENTITIES:
        res.count(identity, tuples)


# ---------------------------------------------------------- intersection

@_suite("miracle", identity_key=None, work=_miracle_work)
def suite_miracle(config: SweepConfig, res: SuiteResult) -> None:
    """Gross-Keating value == sum of normalised derivatives at ve and ve-1."""
    for p in config.reduced_tuples():
        report = verify_miracle(p)
        res.check(report["pass"], "gross_keating == D(ve) + D(ve-1)", **report)


@_suite("afl", work=_afl_work)
def suite_afl(config: SweepConfig, res: SuiteResult) -> None:
    """The rank-2 identity chain on the default grid:

      * total intersection number == normalised derivative (all r >= 0),
      * its level difference == the two-element combination derivative
        (r >= 1), which carries the transfer-factor signs once both sides
        are dressed with (-1)**r,
      * the clean closed form for the single-cell intersection number ==
        the Gross-Keating difference (r >= 1, ve >= 1),
      * n1 + n2 == 2 ve + vb + vc + 2r.

    ``int_circ`` runs once per tuple, and ``int_total``, the sum of
    ``int_circ`` at ve, ve - 2, ..., is never called: the total at ve is
    ``int_circ`` at ve plus the total at ve - 2, which this level computed
    before, since ``reduced_tuples`` walks ve upwards within each (r,
    vb + vc).  It walks r outermost, so the values at r - 1 are those the
    level below computed.  Both are kept by (vb + vc, ve, vda) for the
    current level and the one below it only.
    """
    level, here, below = None, {}, {}
    zero = QPolynomial.zero()
    for p in config.reduced_tuples():
        if p.r != level:
            level, here, below = p.r, {}, here
        s = p.vb + p.vc
        key = (s, p.ve, p.vda)
        circ = int_circ(p)
        total = circ + (here[s, p.ve - 2, p.vda][0] if p.ve >= 2 else zero)
        here[key] = total, circ
        deriv = derivative_closed_form(p)
        res.check(total == deriv, "int_total == derivative_closed_form", params=p, lhs=total, rhs=deriv)
        pair = gk_from_params(p)
        res.check(pair.n1 + pair.n2 == 2 * p.ve + p.vb + p.vc + 2 * p.r, "n1 + n2 == 2 ve + vb + vc + 2r", params=p)
        if p.r >= 1:
            total_below, circ_below = below[key]
            lhs = total - total_below
            rhs = derivative_combo(p)
            res.check(lhs == rhs, "int_total(r) - int_total(r-1) == derivative_combo", params=p, lhs=lhs, rhs=rhs)
            if p.ve >= 1:
                closed = int_circ_kr_closed(p)
                diff = circ - circ_below
                res.check(
                    closed == diff, "int_circ_kr_closed == int_circ(r) - int_circ(r-1)", params=p, lhs=closed, rhs=diff
                )


# ---------------------------------------------------------------- kernel

KERNEL_RANK_GRID = {
    "sum_bc": (1, 3, 5, 17),
    "vda": (0, 1, 2, 8),
    "n_cap": (1, 2, 3, 4, 5, 6),
}


# Charged 80 (ve_max + 20)**3, fitted to the suite's times at ve_max 10 to
# 120 (0.28 s to 25 s): the rank grid is fixed, so only ve_max counts.
@_suite("kernel", work=lambda config: 80 * (config.ve_max + 20) ** 3)
def suite_kernel(config: SweepConfig, res: SuiteResult) -> None:
    """Full-rank certificates over the rank grid, the large-r vanishing
    combination, and the almost-kernel sequence outside its window."""
    for s in KERNEL_RANK_GRID["sum_bc"]:
        for vda in KERNEL_RANK_GRID["vda"]:
            for n_cap in KERNEL_RANK_GRID["n_cap"]:
                cert = certify_full_rank(build_matrix(s, vda, n_cap))
                res.check(
                    cert.passed, "full rank certificate",
                    params=cert.label(), rank=cert.rank, expected=cert.expected_rank, flags=cert.flags,
                )
    for s in (1, 3, 5, 11):
        for vda in (0, 2, INFINITY):
            for ve in range(0, config.ve_max + 1, 2):
                base = OrbitalParams(r=0, vb=0, vc=s, ve=ve, vda=vda)
                for r in range(ve + 2, ve + 9):
                    report = test_large_r_vanishing(base.with_r(r))
                    res.check(report["pass"], "large-r 1,2,1 vanishing", **report)
                for r in range(5, ve + 9):
                    report = test_phi_sequence(base, r)
                    res.check(report["pass"], "sequence vanishing outside window", **report)


# ---------------------------------------------------------------- satake

@_suite("satake", work=lambda config: (config.rmax_satake + 1) ** 4)
def suite_satake(config: SweepConfig, res: SuiteResult) -> None:
    """Base-change identities for ranks 3 and 2, for r = 0..rmax."""
    rmax = config.rmax_satake
    images = bc_s3_table(rmax)
    two = QPolynomial.q_power(2)
    for r in range(rmax + 1):
        # Aggregate identity: the weighted basis formulas sum to the unitary
        # indicator image (unit-triangular, so passing proves the formulas).
        agg = SatakeY()
        for j in range(r + 1):
            agg = agg + images[j].scale(bc_s3_weight(r, j))
        res.check(agg == satake_u3_indicator(r), "rank-3 aggregate base change", r=r)
        # Second identity: single-cell combination gives the indicator difference.
        lhs = images[r]
        for j in range(r):
            lhs = lhs + images[j].scale(QPolynomial.q_power(r - j, 2))
        rhs = satake_u3_indicator(r) - satake_u3_indicator(r - 1)
        res.check(lhs == rhs, "rank-3 single-cell base change", r=r)
        # Determinant-indicator route: BC(Sat(f_r)) - q^2 BC(Sat(f_{r-1}))
        # equals q^(2r) (Y^r + Y^(r-2) + ... + Y^-r).
        bc_r = bc_gl3_to_u3(satake_gl_det(3, r))
        diff = bc_r if r == 0 else bc_r - bc_gl3_to_u3(satake_gl_det(3, r - 1)).scale(two)
        expected = SatakeY(
            {i: QPolynomial.q_power(2 * r) for i in range(r % 2, r + 1, 2)}
        )
        res.check(diff == expected, "rank-3 determinant-route base change", r=r)
        # Fiber integration consistency.
        proj_r = proj_fiber_gl3(r)
        if r >= 1:
            proj_prev = proj_fiber_gl3(r - 1)
            ok = all(
                proj_r[j] - (proj_prev[j] * two if j <= r - 1 else QPolynomial.zero())
                == QPolynomial.geometric(r - j)
                for j in range(r + 1)
            )
            res.check(ok, "fiber projection difference", r=r)
        # Rank 2: the basis formula against the combination images, and the
        # three-term recombination of the vanishing polynomials.
        combo = bc_s2_combo_image(r)
        basis_sum = bc_s2_on_basis(r) + (bc_s2_on_basis(r - 1) if r >= 1 else SatakeY())
        res.check(combo == basis_sum, "rank-2 combination == sum of basis images", r=r)
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
            res.check(three_term == expected3, "three-term vanishing polynomial shape", r=r)


# ---------------------------------------------------------------- volumes

def _volumes_work(config: SweepConfig) -> int:
    """250,000 units a run, plus 60 + 6N(N + 1) per center pair: each of
    the p**(2N) classes is a center against 2N + 1 offsets, and a pair costs
    about 60 units of its own and 12 for each of its N(N + 1)/2 lookups with
    their share of the enumeration.  Past N = 16, already 10**11 times any
    sane bound, the estimate stays at N = 16's.  Timed on a 2-CPU Xeon with
    Python 3.11, the charge at 0.12 µs a unit is 1.3-1.7 times the suite's
    time at p = 3 with N = 4 and 5, p = 5 with N = 3 and 4, p = 7 and 11
    with N = 3 and p = 11-29 with N = 2 (1.1-5 times below 0.2 s, 2.3-2.5 at
    N = 1): -p 3 -N 5 runs in 13 s, and -p 5 -N 4 (52 s) is refused."""
    n = min(config.precision, 16)
    return config.p ** (2 * n) * (2 * n + 1) * (60 + 6 * n * (n + 1)) + 250_000


def _record_mismatches(res: SuiteResult, lemma: str, hist, ns: range, want: tuple, classes: int, **params) -> None:
    """Record, in n order, each n of ``ns`` at which the histogram ``hist``
    differs from the closed forms ``want``, both as reduced volumes."""
    for n, w in zip(ns, want):
        if hist[n] != w:
            res.record(lemma, params=params | {"n": n}, enumerated=Fraction(hist[n], classes),
                       formula=Fraction(w, classes), match=False)


@_suite("volumes", identity_key="lemma", work=_volumes_work)
def suite_volumes(config: SweepConfig, res: SuiteResult) -> None:
    """Enumerated disk volumes against the closed forms.

    One-disk: every unit center, every admissible (rho, n) within precision.
    Two-disk: every unit first center against offsets hitting every
    separation valuation, every admissible (rho1, rho2, n).

    Each check compares the enumerated count of residue classes with the
    closed form scaled to an int by ``one_disk_points``; a failure record
    reports both as reduced volumes.  The closed forms depend on a center
    only through v(1 - norm(center)), so they are tabulated once per run, as
    one tuple per (gap valuation, rho) over the disk's n range, and each
    histogram is checked by one slice compare; only a mismatch walks the n
    range to record each failing n in order.  Both halves key each center's
    cosets once (``DiskCounter.coset_keys``), so a disk or disk pair costs
    one memo lookup by those keys (a disk is the coincident pair) and that
    one compare.
    """
    ring = QuadExtRing(p=config.p, precision=config.precision)
    counter = DiskCounter(ring)
    prec = ring.precision
    classes = ring.p ** (2 * prec)

    # A disk's n range runs from the lemmas' lower bound max(rho, 1) to
    # precision - 1.  Either every rho in range(prec) has a nonempty n range
    # (prec >= 2) or none does, so the rows are indexed by rho: wants[gap][rho]
    # holds the closed forms over rho's n range at a center with
    # v(1 - norm(center)) = gap, and zeros[rho] the row of two disks that miss.
    # Being a unit does not depend on the radii, so one argument check per
    # center (pair) at the top rho1 with rho2 = 0 and n = precision - 1 covers
    # every disk (pair) the loops visit; no disks (precision 1), no check.
    disks = [(rho, range(max(rho, 1), prec)) for rho in range(prec) if max(rho, 1) < prec]
    wants = [[tuple(one_disk_points(ring, gap, rho, n) for n in ns) for rho, ns in disks] for gap in range(prec + 1)]
    zeros = [(0,) * len(ns) for _, ns in disks]
    keyed_histogram = counter.keyed_histogram
    one_disk = two_disk = 0
    for xi in ring.units():
        want_at = wants[ring.val_int(1 - ring.norm(xi))]
        keys = counter.coset_keys(xi)
        if disks:
            _check_one_disk_args(ring, xi, disks[-1][0], prec - 1)
        for rho, ns in disks:
            hist = keyed_histogram(keys[rho], keys[rho])
            want = want_at[rho]
            if hist[ns.start:prec] != want:
                _record_mismatches(res, "one_disk", hist, ns, want, classes, xi=xi, rho=rho)
            # Counted per histogram and compared as one slice, not by check():
            # a record per n made the suite about 1.5x slower.
            one_disk += len(ns)
    res.count("one_disk", one_disk)
    # Offsets delta = xi1 - xi2 with v(delta) = 0, 1, ..., >= precision,
    # each with its valuation: sep = v(xi1 - xi2) is that of the offset.
    offsets = [((0, 0), prec)]
    for v in range(prec):
        offsets.append(((ring.p**v, 0), v))
        offsets.append(((0, ring.p**v), v))
    for xi1 in ring.units():
        want_at = wants[ring.val_int(1 - ring.norm(xi1))]
        keys1 = counter.coset_keys(xi1)
        for delta, sep in offsets:
            xi2 = ring.sub(xi1, delta)
            if not ring.is_unit(xi2):
                continue
            if disks:
                _check_two_disk_args(ring, xi1, xi2, disks[-1][0], 0, prec - 1)
            keys2 = counter.coset_keys(xi2)
            for rho1, ns in disks:
                key1, hit, miss = keys1[rho1], want_at[rho1], zeros[rho1]
                for rho2 in range(rho1 + 1):
                    hist = keyed_histogram(key1, keys2[rho2])
                    want = hit if rho2 <= sep else miss
                    if hist[ns.start:prec] != want:
                        _record_mismatches(res, "two_disk", hist, ns, want, classes,
                                           xi1=xi1, xi2=xi2, rho1=rho1, rho2=rho2)
                two_disk += len(ns) * (rho1 + 1)
    res.count("two_disk", two_disk)


def _quaternion_work(config: SweepConfig) -> int:
    """Per sample 3p + 20N + b**2/200, b = N bits(p): ``norm_preimage``
    searches O(p) residues and lifts through N small-by-big digit updates,
    and the invariants multiply and invert ints of b bits.  Timed on a 2-CPU
    Xeon with Python 3.11 (single runs), the charge at 0.12 µs a unit is
    1.24-1.73 times the suite's time at p = 3 with N = 500-15,000, p = 101
    with N = 1,000-5,000, p = 1,009 with N = 500-4,000, p = 10,007 with
    N = 100-2,000, p = 100,003 with N = 4 and 100 and p = 1,000,003 with
    N = 4: -p 3 -N 12000 runs in 33 s, and -N 15000 (54 s) is refused."""
    n = config.precision
    size = n * config.p.bit_length()
    return config.quaternion_samples * (3 * config.p + 20 * n + size * size // 200)


@_suite("quaternion", work=_quaternion_work)
def suite_quaternion(config: SweepConfig, res: SuiteResult) -> None:
    """Invariant identities for randomized admissible unitary data."""
    ring = QuadExtRing(p=config.p, precision=config.precision)
    rng = random.Random(config.seed)
    for i in range(config.quaternion_samples):
        lam, alpha, beta = sample_admissible(ring, rng)
        if i % 2:
            s, t = ring.zero(), ring.random_unit(rng)
        else:
            s, t = ring.random_unit(rng), ring.zero()
        report = quaternion_invariants(ring, lam, alpha, beta, s, t)
        res.check(
            report["pass"], "quaternion invariants", lam=lam, alpha=alpha, beta=beta, s=s, t=t, checks=report["checks"]
        )


SUITE_NAMES = tuple(_SUITES)
#: The names that run several suites, and every name ``run_suite`` takes.
_ALIASES = {"intersection": ("miracle", "afl"), "all": SUITE_NAMES}
SUITE_CHOICES = SUITE_NAMES + tuple(_ALIASES)


def _suites(name: str) -> list[Callable[..., SuiteResult]]:
    """The suites ``name`` stands for: one named suite, or an alias's."""
    names = _ALIASES.get(name, (name,))
    if names[0] not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}, all")
    return [_SUITES[n] for n in names]


def run_suite(name: str, config: SweepConfig | None = None) -> list[SuiteResult]:
    """Run one named suite, or all of them; 'intersection' is an alias that
    runs the miracle and afl suites together."""
    return [suite(config) for suite in _suites(name)]


def sweep_work(name: str, config: SweepConfig | None = None) -> int:
    """The largest charge among the suites ``run_suite(name, config)`` runs
    (see ``_suite``), computed without running any."""
    return max(suite.work(config or SweepConfig()) for suite in _suites(name))
