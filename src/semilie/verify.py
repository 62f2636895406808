"""Identity-verification sweeps over parameter grids.

Each suite, registered once by ``@_suite(name, work=...)``, checks one
family of exact identities and returns a ``SuiteResult`` carrying the checks
made, counted per named identity, and a JSON-ready record for every failure.
Every identity at every grid point is one check, made through
``SuiteResult.check(ok, identity, **record)``, which counts it and, only if
it fails, appends ``record`` with orbit parameters and exact values encoded
by ``_encode``.  The orbital, miracle, afl and volumes sweeps and the
kernel suite's vanishing checks make the same counts and records in bulk:
each identity counted once per run (``SuiteResult.count``) and each failure
appended as it occurs (``SuiteResult.record``).  Suites are deterministic
(randomised ones take a seed) and order-independent.  Each registration
also states what a run of the suite costs, as a function of the
``SweepConfig`` fields the suite reads (``sweep_work``), so that a caller
can refuse a run before it starts.

The default grid is r in [0, 6], vb + vc odd in {1, ..., 11} with
vb in [-6, vb + vc], ve in [0, 10] and vda in {0, ..., 6, INFINITY}; it
covers every case split of the closed forms (parity of the correction
offset, parity of theta, and each branch attaining the degree bound).
Identities that depend on (vb, vc) only through their sum are swept over the
reduced grid with the canonical split vb = 0; the dependence reduction is
itself one of the checked properties.  The default grid never reaches
ve < 0, where both sides of every identity are 0.  The orbital suite checks
the series builders' packed pairs (lo, rows) and the packed derivative (see
``orbital``) as ints, without decoding them, its sign pattern through
``exactpoly._sign_mask``; the miracle and afl suites check the packed
Gross-Keating values (see ``intersection``) against the packed derivative
the same way, and afl its two closed forms packed too; and the kernel suite
certifies each rank on packed ints and checks each vanishing Hecke
combination as one packed int compared with 0 (see ``kernel``); each
decodes a value only for a failure record (the certificate its pivots, for
its spot check).  The orbital, miracle and afl suites walk their grids as
nested loops over ints and build an ``OrbitalParams`` only for a failure
record.

Packed widths.  A packed sweep compares every value at one width per run,
at which equal ints are equal q-polynomials: ``exactpoly.width_for`` of a
multiple of its values' named coefficient bounds (``orbital``,
``intersection``, ``kernel``) at the top corner of its grid, the largest
r, vb + vc and ve it reaches.  Every named bound is nondecreasing in r,
vb + vc and ve, so no tuple of the grid has a larger one than the corner;
the rows' bound, which reads vb too, is read at its largest over vb
(``_orbital_width``).
"""

from __future__ import annotations

import random
from functools import reduce
from itertools import groupby
from operator import mul, neg, or_
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Callable

from .exactpoly import QPolynomial, _sign_mask, width_for
from .intersection import (
    _gk_pair,
    _packed_circ,
    _packed_gk,
    _packed_kr_closed,
    _total_bound,
)
from .kernel import (
    _packed_certificate,
    _packed_combination,
    _packed_weights,
    _signed_derivatives,
    large_r_vector,
    phi_exceptional_window,
    phi_sequence_vector,
)
from .orbital import (
    INFINITY,
    OrbitalParams,
    _closed_form_rows,
    _derivative_bound,
    _derivative_tables,
    _n_bound,
    _packed_combo,
    _packed_derivative,
    _support_finish,
    _support_walk,
    _theta,
    require_ints,
    row_width,
    support_points,
)
from .padiclab import (
    DiskCounter,
    QuadExtRing,
    _check_ring_args,
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
    field an int, nonempty ranges, and p and precision a valid ring.
    vda runs over 0..vda_max and INFINITY, so vda_max = -1 means INFINITY alone."""

    r_max: int = 6
    sum_bc_max: int = 11
    ve_max: int = 10
    vda_max: int = 6
    rmax_satake: int = 8
    p: int = 3
    precision: int = 4
    seed: int = 20240501

    def __post_init__(self):
        require_ints(**{f.name: getattr(self, f.name) for f in fields(self)})
        _check_ring_args(self.p, self.precision)
        if self.r_max < 0 or self.ve_max < 0 or self.sum_bc_max < 1:
            raise ValueError("ranges must be nonempty")
        if self.rmax_satake < 0:
            raise ValueError(f"rmax_satake must be >= 0, got {self.rmax_satake}")
        if self.vda_max < -1:
            raise ValueError(f"vda_max must be >= -1 (INFINITY alone), got {self.vda_max}")

    def vda_values(self) -> list:
        return [*range(self.vda_max + 1), INFINITY]

    def sum_bc_values(self) -> list[int]:
        return list(range(1, self.sum_bc_max + 1, 2))

    def reduced_tuple_count(self) -> int:
        """How many tuples (r, sum_bc, ve, vda) the miracle and afl sweeps
        walk, with the canonical split vb = 0, counted without walking them."""
        odd = (self.sum_bc_max + 1) // 2  # arithmetic, not len(): fields may pass sys.maxsize
        return (self.r_max + 1) * odd * (self.ve_max + 1) * (self.vda_max + 2)

    def full_tuple_count(self) -> int:
        """How many tuples the orbital sweep walks, every split vb in
        [_VB_MIN, sum_bc]: each odd s splits s + 1 - _VB_MIN ways, on
        average (sum_bc_max + 1)/2 + 1 - _VB_MIN."""
        return self.reduced_tuple_count() * ((self.sum_bc_max + 1) // 2 + 1 - _VB_MIN)


#: The most failure records a suite run keeps per identity; later failures
#: are only counted (``SuiteResult.failures_omitted``), so that a run with
#: millions of mismatches reports in bounded memory.
RECORDS_PER_IDENTITY = 25_000


@dataclass
class SuiteResult:
    """One suite run.  ``identity_key`` is the failure-record key that names
    the failed identity, first in the record; None leaves the name out.
    ``failures`` keeps the first ``RECORDS_PER_IDENTITY`` records of each
    identity, in order, and ``failures_omitted`` counts the rest."""

    name: str
    checked: int = 0
    failures: list = field(default_factory=list)
    checks_by_identity: dict = field(default_factory=dict)
    identity_key: str | None = "identity"
    failures_omitted: int = 0
    records_by_identity: dict = field(default_factory=dict, init=False, repr=False)

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

    def full(self, identity: str) -> bool:
        """Whether ``identity`` has its ``RECORDS_PER_IDENTITY`` records, so
        that a caller may skip building the values of one more."""
        return self.records_by_identity.get(identity, 0) >= RECORDS_PER_IDENTITY

    def record(self, identity: str, /, **record) -> None:
        """Append a failure of ``identity`` with ``record`` encoded, or only
        count it once the identity is ``full``: orbit parameters and exact
        values are encoded only here."""
        if self.full(identity):
            self.failures_omitted += 1
            return
        self.records_by_identity[identity] = self.records_by_identity.get(identity, 0) + 1
        head = {self.identity_key: identity} if self.identity_key else {}
        self.failures.append(head | {key: _encode(value) for key, value in record.items()})

    def to_json(self) -> dict:
        return {
            "suite": self.name,
            "checked": self.checked,
            "checks_by_identity": self.checks_by_identity,
            "passed": self.passed,
            "failures": self.failures,
            "failures_omitted": self.failures_omitted,
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

#: The identity under which a suite run records an exception from its body.
INTERNAL_ERROR = "internal error"


def _suite(name: str, identity_key: str | None = "identity", *, work: Callable[[SweepConfig], int]):
    """Register ``body(config, res)`` as ``suite(config=None) -> SuiteResult``,
    which runs it on ``config`` (default: the default grid) and returns ``res``.
    An exception from the body ends the run with one failure record under
    ``INTERNAL_ERROR`` holding its type and message, so that the run fails
    and the other suites of a ``run_suite`` call still run.

    ``work(config)`` charges a run from the fields the suite reads, in a unit
    of about 0.12 µs on a 2-CPU host with Python 3.11 (the default orbital
    sweep: 29,069,040 units, 3.5 s; walked as ints on the (lo, rows) pairs,
    at one width and with one table per run, the rows of each tent and of
    each plateau built once, each oracle lattice walked once per (r, vb +
    vc, ve, theta) and its row checks read once per finish, it runs in about
    0.16 s of a 0.24 s ``grid_orbital`` pass on perfbench's host clock, so
    the charge is about 22 times its time)."""

    def register(body: Callable[[SweepConfig, SuiteResult], None]) -> Callable[..., SuiteResult]:
        def suite(config: SweepConfig | None = None) -> SuiteResult:
            res = SuiteResult(name, identity_key=identity_key)
            config = config or SweepConfig()
            try:
                body(config, res)
            except Exception as exc:
                res.record(INTERNAL_ERROR, error=type(exc).__name__, message=str(exc))
            return res

        suite.__name__, suite.__qualname__, suite.__doc__ = body.__name__, body.__qualname__, body.__doc__
        suite.work = work
        _SUITES[name] = suite
        return suite

    return register


# --------------------------------------------------------------- orbital

def _first_sign_break(pair: tuple[int, list[int]], mask: int) -> int | None:
    """The first k at which (-1)**k row has a negative q-coefficient or a
    term of degree ``digits`` or more, or None, for the pair (lo, rows)
    packed at ``width`` bits per digit, with ``mask`` =
    ``exactpoly._sign_mask(width, digits)``.  A mask bit is set in the OR of
    the signed rows exactly when it is set in one of them, so one mask test
    clears every row; k is sought row by row only on a hit."""
    lo, rows = pair
    signed = reduce(or_, rows[lo & 1::2], 0) | reduce(or_, map(neg, rows[(lo + 1) & 1::2]), 0)
    if not signed & mask:
        return None
    for k, x in enumerate(rows, lo):
        if (-x if k & 1 else x) & mask:
            return k
    return None


def _grid_work(config: SweepConfig) -> int:
    """Every full-grid tuple at the support-lattice points of the grid's top
    corner, the most any tuple has: the orbital oracle's work were it walked
    once per tuple.  The sweep walks once per (r, vb + vc, ve, theta), 2,079
    walks for the 48,048 default tuples, so this is a bound well above the
    work; it is kept so that no refusal boundary moves."""
    return config.full_tuple_count() * support_points(config.r_max, config.sum_bc_max, config.ve_max)


def _top_degree(config: SweepConfig) -> int:
    """``orbital._n_bound`` at the top corner with vda = INFINITY (on every
    grid), the top q-degree on the reduced grid."""
    return _n_bound(config.r_max, config.sum_bc_max, config.ve_max, INFINITY)


def _miracle_work(config: SweepConfig) -> int:
    """200 + 2n units per reduced tuple, n = ``_top_degree``: a tuple
    builds one Gross-Keating value and two derivatives of at most n + 1
    terms, each a packed int.  Timed on a 2-CPU Xeon with Python 3.11
    (single in-process runs), the charge at 0.12 µs a unit is 5.8-12.3
    times the suite's time (3.0-4.6 µs a tuple) from the default grid to
    ve_max = 200 and to r_max = ve_max = 100; --rmax 40 --ve-max 40
    --sum-bc-max 41 runs in 0.9 s, charged 79,074,240.  The charge was
    fitted to the suite's QPolynomial form, 5-10 times slower, and is kept
    so that no refusal boundary moves."""
    return config.reduced_tuple_count() * (200 + 2 * _top_degree(config))


def _afl_work(config: SweepConfig) -> int:
    """500 + 5n units per reduced tuple, n = ``_top_degree``: a tuple
    builds one packed ``int_circ`` (two Gross-Keating values) and packed
    derivative and, for r >= 1, the packed ``derivative_combo`` and
    single-cell closed form, each of at most n + 1 terms.  Timed on a 2-CPU
    Xeon with Python 3.11 (single in-process runs, 3-7.5 µs a tuple), the
    charge at 0.12 µs a unit is 9-27 times the suite's time from the smoke
    grid and the default grid to ve_max = 300, r_max = 456, sum_bc_max =
    1075, vda_max = 715, r_max = ve_max = 60 and r_max = ve_max = 100;
    --rmax 40 --ve-max 40 --sum-bc-max 41 runs in 1.4 s, charged
    197,685,600.  The charge was fitted to the suite's QPolynomial form,
    several times slower, and is kept so that no refusal boundary moves."""
    return config.reduced_tuple_count() * (500 + 5 * _top_degree(config))


def _row_sums(pair: tuple[int, list[int]], negate: bool) -> tuple[bool, int]:
    """Whether the rows of the pair (lo, rows) sum to 0 (the value at
    s = 0), and their k-weighted sum, negated if ``negate`` (the signed
    log-derivative), packed as the rows are."""
    lo, rows = pair
    weighted = sum(map(mul, range(lo, lo + len(rows)), rows))
    return not sum(rows), -weighted if negate else weighted


def _finish_checks(lo: int, acc: list[int], negate: bool, mask: int) -> tuple:
    """A walk's accumulator ``acc`` finished at lo (``orbital._support_finish``)
    with its three row checks read once, by ``_row_sums`` and
    ``_first_sign_break``: (lo, pair, zero, log-derivative, signed row sum,
    sign break, mask), the row sum signed as the log-derivative is."""
    pair = _support_finish(lo, acc)
    total = sum(pair[1])
    return lo, pair, *_row_sums(pair, negate), -total if negate else total, _first_sign_break(pair, mask), mask


def _shifted_checks(finish: tuple, lo: int) -> tuple:
    """The oracle entry (pair, zero, log-derivative, sign break, mask) at lo
    of a ``_finish_checks`` ``finish`` read at lo0 = lo - d, d even, derived
    without reading the rows: the pair's lo moves by d, the value at s = 0
    stays, the log-derivative moves by d times the signed row sum, and the
    first sign break moves by d, or stays None.

    That is ``_row_sums`` (at the same sign) and ``_first_sign_break`` (at
    the same mask) at the shifted pair: as d is even, each row keeps the
    parity of its k, so its sign and its mask test; the rows sum to the same
    total; and their k-weighted sum gains d for each unit of it."""
    lo0, (pair_lo, rows), zero, log_deriv, step, k, mask = finish
    d = lo - lo0
    return (pair_lo + d, rows), zero, log_deriv + d * step, k if k is None else k + d, mask


def _orbital_width(config: SweepConfig) -> int:
    """The width at which ``suite_orbital`` packs every tuple of the grid:
    the ``row_width`` of its top corner, r = r_max, vb = _VB_MIN, the
    largest odd s = vb + vc on the grid and ve = ve_max.  ``_rows_bound`` is
    P K, P reading vb only through s, and K = max(|vb + r|, 2 ve + s - vb +
    r, 1) is convex in vb, so largest on [_VB_MIN, s] at an end: the low
    end, since with _VB_MIN <= 0 its K = 2 ve + s - _VB_MIN + r is at least
    both terms at vb = s, s + r and 2 ve + r."""
    s = config.sum_bc_values()[-1]
    return row_width(OrbitalParams(r=config.r_max, vb=_VB_MIN, vc=s - _VB_MIN, ve=config.ve_max))


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
    the reduction of the derivative to vb + vc; all over the full grid:
    every split vb in [_VB_MIN, vb + vc] of each odd vb + vc.

    The suite walks the full grid as nested loops over ints, r, s = vb +
    vc, vb, ve and vda in that order, and builds an ``OrbitalParams`` only
    for a failure record.  Every tuple it visits is admissible by
    construction: r >= 0, s odd and >= 1, ints throughout, and vda a
    nonnegative int or INFINITY (``SweepConfig`` checks the fields).

    Both series and the derivative are compared as packed ints (see
    ``exactpoly``): the series as the builders' canonical pairs (lo, rows),
    one int per T power from T**lo on, equal exactly when the series are and
    compared as tuples, the forms the public ``orbital_closed_form`` and
    ``orbital_support_sum`` wrap, and the derivative as
    ``orbital._packed_derivative``, one int per tuple.  A run has one width,
    ``_orbital_width``, and one table: the closed form and the derivative
    read one set of prefix tables, whose memo keeps the rows the closed form
    builds from them, so each (half, cap, parity of lo) of the run builds
    its signed tent once, and each (half, cap, parity of lo, ve - cap) its
    plateau rows once, the trapezoid added to a copy of the tent
    (``orbital._closed_form_rows``: 222 tents and 640 plateaus for the
    48,048 default tuples, 11,190 of them at a plateau).  The value at s = 0
    is the sum of the rows and the log-derivative their k-weighted sum;
    nothing is decoded, and no tuple allocates a ``LaurentSeries`` or
    ``QPolynomial``.

    The oracle's lattice walk (``orbital._support_walk``) reads a tuple
    only through (r, vb + vc, ve, theta), and its finish
    (``orbital._support_finish``) reads vc only through lo = vc + r -
    m_top, the walk's own m_top.  So each block (r, vb + vc) walks each
    (ve, theta) once and keeps the walk while the sweep stays in the block,
    shared by every split vb; and it finishes each walk once per parity of
    lo, as two splits of the same parity sign the same rows and differ only
    in lo, the finished rows shifted by it.  At ve >= 0 the walk's point
    n2 = m = 0 adds 1 to the accumulator, whose entries are sums of
    positive powers, so no finish is the zero series (0, []), whose lo
    would not shift.  Each oracle entry (r, vb, vc, ve, theta) is so exactly
    ``orbital._support_sum_rows`` at it, the walk followed by the finish at
    the entry's own lo.  theta (``orbital._theta``) is nondecreasing in
    vda, so each block walks its vdas in runs of equal theta, each run
    contiguous and in vda order, and reads one oracle entry per (vb, ve,
    run).  Every tuple still builds its own closed form and derivative and
    compares them with the lattice sum for exactly its own inputs.

    The three checks that read only the rows (the value at s = 0, the signed
    log-derivative, whose sign (-1)**(vc + r) is the orbit's, and the sign
    pattern) are read once per finish (ve, theta, lo & 1) of a block, by
    ``_row_sums`` and ``_first_sign_break`` at the finish's own lo0
    (``_finish_checks``), and kept in ``finished`` with its rows.  An
    oracle entry at lo = lo0 + d derives its own from them
    (``_shifted_checks``): the same value at s = 0, the log-derivative plus
    d times the signed row sum, and the first sign break plus d, or None.
    That is exact, as the entries that share a finish key
      * hold the same rows, shifted by an even d (see ``_shifted_checks``);
      * share n_bound, one number per (r, s, ve, theta)
        (``orbital._n_bound``), so the sign mask;
      * share the sign negate = (vc + r) & 1 = (lo + m_top) & 1, with m_top
        the walk's own.
    A tuple whose closed-form pair equals the entry's pair reuses the
    entry's checks, and a tuple whose pair differs reads its own.  The sign
    pattern reads its ``exactpoly._sign_mask`` at the digit count
    n_bound + 1 from the run's masks, one per n_bound in [0, ve_max].  The
    derivative at (ve, vda) is compared across the splits of one block
    (r, vb + vc), the first split's kept only while the walk stays in the
    block.  Each identity is counted once for the whole grid;
    failures are recorded as they occur, in tuple order and, within a
    tuple, in the order above."""
    ves, vdas = range(config.ve_max + 1), config.vda_values()
    width = _orbital_width(config)
    tables = _derivative_tables(width, config.ve_max)
    masks = [_sign_mask(width, n + 1) for n in ves]  # masks[n_bound]
    tuples = 0
    for r in range(config.r_max + 1):
        for s in config.sum_bc_values():
            runs = [(theta, [*run]) for theta, run in groupby(vdas, lambda vda: _theta(s, vda))]
            seen_derivative: dict[tuple, int] = {}
            walks: dict[tuple, tuple[int, list[int]]] = {}  # (ve, theta): (m_top, acc)
            finished: dict[tuple, tuple] = {}  # (ve, theta, lo & 1): its _finish_checks
            for vb in range(_VB_MIN, s + 1):
                vc = s - vb
                negate = (vc + r) & 1
                for ve in ves:
                    tuples += len(vdas)
                    for theta, run in runs:
                        walk = walks.get((ve, theta))
                        if walk is None:
                            walk = walks[ve, theta] = _support_walk(r, s, ve, theta, width)
                        m_top, acc = walk
                        lo = vc + r - m_top
                        shared = finished.get((ve, theta, lo & 1))
                        if shared is None:
                            mask = masks[_n_bound(r, s, ve, run[0])]  # one n_bound per (ve, theta)
                            shared = finished[ve, theta, lo & 1] = _finish_checks(lo, acc, negate, mask)
                        entry = _shifted_checks(shared, lo)
                        for vda in run:
                            oracle_pair, zero, log_deriv, k, mask = entry
                            pair = _closed_form_rows(r, vb, vc, ve, vda, tables)
                            p = None
                            if pair != oracle_pair:
                                p = OrbitalParams(r, vb, vc, ve, vda)
                                res.record("closed_form == support_sum", params=p)
                                zero, log_deriv = _row_sums(pair, negate)
                                k = _first_sign_break(pair, mask)
                            deriv = _packed_derivative(r, vb, vc, ve, vda, tables)
                            first = seen_derivative.setdefault((ve, vda), deriv)
                            if zero and deriv == log_deriv and k is None and first == deriv:
                                continue
                            p = p or OrbitalParams(r, vb, vc, ve, vda)
                            if not zero:
                                res.record("value at s=0 is 0", params=p)
                            if deriv != log_deriv:
                                res.record("derivative == signed series derivative", params=p)
                            if k is not None:
                                res.record("sign pattern (-1)^k", params=p, k=k)
                            if first != deriv:
                                res.record("derivative depends only on vb+vc", params=p)
    for identity in _ORBITAL_IDENTITIES:
        res.count(identity, tuples)


# ---------------------------------------------------------- intersection

def _miracle_width(config: SweepConfig) -> int:
    """The width at which ``suite_miracle`` packs both sides of every
    tuple: twice D's bound (``orbital._derivative_bound``) at the top corner
    (see "Packed widths" above).  D(ve) + D(ve - 1) is within it, and so is
    the Gross-Keating value, whose bound n1 + n2 + 1 = 2 ve + s + 2r + 1
    (``intersection._gk_bound``) is twice D's, as s is odd."""
    return width_for(2 * _derivative_bound(config.r_max, config.sum_bc_max, config.ve_max))


_MIRACLE = "gross_keating == D(ve) + D(ve-1)"


@_suite("miracle", identity_key=None, work=_miracle_work)
def suite_miracle(config: SweepConfig, res: SuiteResult) -> None:
    """Gross-Keating value == sum of normalised derivatives at ve and ve-1.

    The suite walks the reduced grid as nested loops over ints, r, s, ve
    and vda in that order, with vb = 0 and vc = s, admissible by
    construction as in ``suite_orbital``.  Both sides are packed ints at one
    width (``_miracle_width``): the value is ``intersection._packed_gk`` at
    ``_gk_pair`` and each derivative ``orbital._packed_derivative``.  The
    sides are decoded, and the tuple's ``OrbitalParams`` built, only for a
    failure record, which holds the ``verify_miracle`` report: params, lhs,
    rhs and pass."""
    width = _miracle_width(config)
    tables = _derivative_tables(width, config.ve_max)
    ves, vdas = range(config.ve_max + 1), config.vda_values()
    for r in range(config.r_max + 1):
        for s in config.sum_bc_values():
            for ve in ves:
                for vda in vdas:
                    lhs = _packed_gk(*_gk_pair(r, s, ve, vda), tables)
                    rhs = (_packed_derivative(r, 0, s, ve, vda, tables)
                           + _packed_derivative(r, 0, s, ve - 1, vda, tables))
                    if lhs != rhs:
                        res.record(_MIRACLE, params=OrbitalParams(r, 0, s, ve, vda),
                                   lhs=QPolynomial._from_packed(lhs, width),
                                   rhs=QPolynomial._from_packed(rhs, width), **{"pass": False})
    res.count(_MIRACLE, config.reduced_tuple_count())


def _afl_width(config: SweepConfig) -> int:
    """The width at which ``suite_afl`` packs every value it compares:
    twice the total's bound M (``intersection._total_bound``) at the top
    corner (see "Packed widths" above).  A difference of two totals is
    within 2M, and so are an int_circ and a difference of two, within 2C,
    C = 2 ve + s + 2r (``_total_bound``); D (``orbital._derivative_bound``)
    is within C, and at r >= 1 so are the two closed forms
    (``orbital._combo_bound``, ``intersection._kr_closed_bound``)."""
    return width_for(2 * _total_bound(config.r_max, config.sum_bc_max, config.ve_max))


_AFL_TOTAL = "int_total == derivative_closed_form"
_AFL_PAIR = "n1 + n2 == 2 ve + vb + vc + 2r"
_AFL_LEVEL = "int_total(r) - int_total(r-1) == derivative_combo"
_AFL_CELL = "int_circ_kr_closed == int_circ(r) - int_circ(r-1)"


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

    The suite walks the reduced grid as nested loops over ints, as
    ``suite_miracle`` does.  Every value is a packed int at one width,
    ``_afl_width``.  ``intersection._packed_circ`` runs once per tuple, and no total is
    summed afresh: the total at ve is the int_circ at ve plus the total at
    ve - 2, which this level computed before, since the walk takes ve
    upwards within each (r, vb + vc).  It walks r outermost, so the values
    at r - 1 are those the level below computed.  Both are kept by
    (vb + vc, ve, vda) for the current level and the one below it only.  The
    derivative is ``orbital._packed_derivative``, and the two closed forms
    are ``orbital._packed_combo`` and ``intersection._packed_kr_closed``,
    which ``derivative_combo`` and ``int_circ_kr_closed`` decode.  A packed
    side is decoded, and the tuple's ``OrbitalParams`` built, only for a
    failure record.  Each identity is counted once for the whole grid."""
    width = _afl_width(config)
    tables = _derivative_tables(width, config.ve_max)
    ves, vdas = range(config.ve_max + 1), config.vda_values()
    here = {}
    levels = cells = 0
    for r in range(config.r_max + 1):
        here, below = {}, here
        for s in config.sum_bc_values():
            for ve in ves:
                for vda in vdas:
                    key = (s, ve, vda)
                    circ = _packed_circ(r, s, ve, vda, tables)
                    total = circ + here[s, ve - 2, vda][0] if ve >= 2 else circ
                    here[key] = total, circ
                    deriv = _packed_derivative(r, 0, s, ve, vda, tables)
                    if total != deriv:
                        res.record(_AFL_TOTAL, params=OrbitalParams(r, 0, s, ve, vda),
                                   lhs=QPolynomial._from_packed(total, width),
                                   rhs=QPolynomial._from_packed(deriv, width))
                    n1, n2 = _gk_pair(r, s, ve, vda)
                    if n1 + n2 != 2 * ve + s + 2 * r:
                        res.record(_AFL_PAIR, params=OrbitalParams(r, 0, s, ve, vda))
                    if r == 0:
                        continue
                    levels += 1
                    total_below, circ_below = below[key]
                    lhs = total - total_below
                    combo = _packed_combo(r, s, ve, vda, tables)
                    if combo != lhs:
                        res.record(_AFL_LEVEL, params=OrbitalParams(r, 0, s, ve, vda),
                                   lhs=QPolynomial._from_packed(lhs, width),
                                   rhs=QPolynomial._from_packed(combo, width))
                    if ve >= 1:
                        cells += 1
                        closed = _packed_kr_closed(r, s, ve, vda, width)
                        diff = circ - circ_below
                        if closed != diff:
                            res.record(_AFL_CELL, params=OrbitalParams(r, 0, s, ve, vda),
                                       lhs=QPolynomial._from_packed(closed, width),
                                       rhs=QPolynomial._from_packed(diff, width))
    tuples = config.reduced_tuple_count()
    for identity, n in ((_AFL_TOTAL, tuples), (_AFL_PAIR, tuples), (_AFL_LEVEL, levels), (_AFL_CELL, cells)):
        if n:
            res.count(identity, n)


# ---------------------------------------------------------------- kernel

KERNEL_RANK_GRID = {
    "sum_bc": (1, 3, 5, 17),
    "vda": (0, 1, 2, 8),
    "n_cap": (1, 2, 3, 4, 5, 6),
}


#: The orbits (vb + vc, vda) of the kernel suite's vanishing checks, split
#: as (vb, vc) = (0, vb + vc), at each even ve <= ve_max.
_KERNEL_SUMS = (1, 3, 5, 11)
_KERNEL_VDAS = (0, 2, INFINITY)
_LARGE_R = "large-r 1,2,1 vanishing"
_PHI = "sequence vanishing outside window"


def _kernel_width(config: SweepConfig) -> int:
    """The width at which ``suite_kernel`` packs its vanishing combinations:
    16 times D's bound B (``orbital._derivative_bound``) at the top corner
    of its checks (see "Packed widths" above), level ve_max + 8, the largest
    s of _KERNEL_SUMS and ve = ve_max.  A combination at the orbit (s, ve,
    vda) and level r <= ve + 8 is sum_j c_j (-1)**(s + j) D(j), so its
    coefficients are at most |c| B, |c| the vector's 1-norm, the sum of the
    absolute values of its weights' coefficients: 4 for the 1,2,1 vector,
    and at most 4 + 2 * 4 + 4 = 16 for phi_r + (q + 1) phi_(r-1) + q
    phi_(r-2), as each phi has 1-norm 4 (weights 1, 1, -q**2, -q**2) and
    |(q + 1) phi| <= |q + 1| |phi| = 8.  A weight's coefficients are at
    most 2."""
    return width_for(16 * _derivative_bound(config.ve_max + 8, max(_KERNEL_SUMS), config.ve_max))


# Charged 80 (ve_max + 20)**3, fitted to the suite's times at ve_max 10 to
# 120 (0.28 s to 25 s) when each vanishing check multiplied q-polynomials:
# the rank grid is fixed, so only ve_max counts.  On packed ints the suite
# runs in 0.02 s at ve_max 10, 0.08 s at 80 and 0.2 s at 150, the most the
# sweep limit admits (in-process, a 2-CPU Xeon with Python 3.11), so the
# charge at 0.12 µs a unit is 13, 120 and about 200 times its time.  It is
# kept so that no refusal boundary moves.
@_suite("kernel", work=lambda config: 80 * (config.ve_max + 20) ** 3)
def suite_kernel(config: SweepConfig, res: SuiteResult) -> None:
    """Full-rank certificates over the rank grid, the large-r vanishing
    combination, and the almost-kernel sequence outside its window.

    Each certificate is ``kernel._packed_certificate``, the
    ``certify_full_rank`` of ``build_matrix`` on M packed once at its rank
    width: it decodes only the pivots of its spot check.  Each vanishing
    check is one packed int compared with 0 (see ``kernel``, "Packed
    vanishing"), at one width, ``_kernel_width``: each vector's weights are
    packed once per level r, and the signed D(j) once per orbit (s, ve,
    vda).  Inside the sequence's window the check passes by
    definition, so nothing is computed there.  Only a nonzero int builds a
    failure record, with the keys, in order, of the ``kernel`` report
    (``test_large_r_vanishing`` or ``test_phi_sequence``) and its value
    decoded from the int."""
    for s in KERNEL_RANK_GRID["sum_bc"]:
        for vda in KERNEL_RANK_GRID["vda"]:
            for n_cap in KERNEL_RANK_GRID["n_cap"]:
                cert = _packed_certificate(s, vda, n_cap)
                res.check(
                    cert.passed, "full rank certificate",
                    params=cert.label(), rank=cert.rank, expected=cert.expected_rank, flags=cert.flags,
                )
    width = _kernel_width(config)
    tables = _derivative_tables(width, config.ve_max)
    top = config.ve_max + 8
    large = {r: _packed_weights(large_r_vector(r), width) for r in range(2, top + 1)}
    phi = {r: _packed_weights(phi_sequence_vector(r), width) for r in range(5, top + 1)}
    large_checks = phi_checks = 0
    for s in _KERNEL_SUMS:
        for vda in _KERNEL_VDAS:
            for ve in range(0, config.ve_max + 1, 2):
                base = OrbitalParams(r=0, vb=0, vc=s, ve=ve, vda=vda)
                signed = _signed_derivatives(s, ve, vda, ve + 8, tables)
                for r in range(ve + 2, ve + 9):  # r >= ve + 2: every check expects 0
                    value = _packed_combination(large[r], signed)
                    if value:
                        res.record(_LARGE_R, params=base.with_r(r), value=QPolynomial._from_packed(value, width),
                                   expected_zero=True, **{"pass": False})
                large_checks += 7
                lo, hi = phi_exceptional_window(base)
                for r in range(5, ve + 9):
                    if lo <= r <= hi:
                        continue
                    value = _packed_combination(phi[r], signed)
                    if value:
                        res.record(_PHI, params=base, r=r, window=[lo, hi],
                                   value=QPolynomial._from_packed(value, width), **{"pass": False},
                                   inside_window=False)
                phi_checks += ve + 4
    res.count(_LARGE_R, large_checks)
    res.count(_PHI, phi_checks)


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
    """250,000 units a run plus the sweep's own work, with P = p**(2N)
    residue classes and d = N(N + 1)/2 disk pairs per center pair: 20 units
    for each of the about P(2N + 1) center pairs (each is a center against
    2N + 1 offsets, with one verdict lookup), 8 for each of the P d points
    ``DiskCounter._build`` enumerates (each disk, at every radius of its
    pairs), and 8 for each disk pair of the distinct comparisons (a unit
    entry and the second center's keys) that the sweep compares in full,
    charged at about 2N P/p**2 of them, an estimate from above: 5,832 at
    p = 3, N = 4, where the sweep makes 4,608.  Past N = 16, already 10**11
    times any sane bound, the estimate stays at N = 16's.  On perfbench's
    host clock (a 2-CPU Xeon with Python 3.11 in its fast state), the charge
    at 0.12 µs a unit is 1.4-1.8 times the suite's time at p = 3 with
    N = 4-6, p = 5 with N = 3 and 4, p = 7, 11 and 13 with N = 3, p = 11-41
    with N = 2 and p = 1009 with N = 1 (2.9-31 times below 0.1 s, at p = 3
    with N = 2 and 3 and p = 7 with N = 2, where the 250,000 units a run
    dominate): -p 3 -N 6 runs in 30 s, -p 11 -N 3 in 27 s and -p 41 -N 2 in
    29 s, and -p 13 -N 3 (74 s) is refused."""
    n = min(config.precision, 16)
    p = config.p
    return p ** (2 * n - 2) * (p * p * (40 * n + 20 + 4 * n * (n + 1)) + 8 * n * n * (n + 1)) + 250_000


def _record_mismatches(res: SuiteResult, lemma: str, hist, ns: range, want: tuple, classes: int, **params) -> None:
    """Record, in n order, each n of ``ns`` at which the histogram ``hist``
    differs from the closed forms ``want``, both as reduced volumes (their
    Fractions built only while ``lemma`` has room for the record)."""
    for n, w in zip(ns, want):
        if hist[n] != w:
            if res.full(lemma):
                res.record(lemma)  # only counted, so its values are never built
                continue
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
    reports both as reduced volumes.  The lemmas' hypotheses hold by
    construction, so no argument is re-checked: ``SweepConfig`` checks the
    ring, every center is one of ``ring.units()`` (a second center is one
    whose ``unit_of`` entry is set), and every (rho, n) comes from
    ``disks``, where rho <= n <= precision - 1.  The closed forms depend on
    a center only through v(1 - norm(center)), so they are tabulated once
    per run, as one tuple per (gap valuation, rho) over the disk's n range.
    The one-disk half keys each unit's cosets once
    (``DiskCounter.coset_keys``) and keeps its keys and gap valuation,
    interned as one unit entry, for the two-disk half.  Every histogram comes
    from ``DiskCounter.keyed_histogram``, whose memo enumerates each distinct
    pair of coset keys (a disk is the coincident pair) once; a comparison
    reads the histogram's slice over the n range.  The inputs of a
    comparison fix its verdict: a unit's disks are fixed by its entry, and a
    center pair's disk pairs by (xi1's entry, xi2's keys).  Each
    distinct comparison that matched in full is remembered, so a unit or pair
    that repeats it costs one dict lookup and adds its checks to the count;
    any other compares its slices, and a mismatch walks the n range to record
    each failing n in order.  At p = 3, N = 4 that is 5,832 key derivations,
    684 distinct unit entries for the 5,832 units and 4,608 distinct
    comparisons for the 51,030 center pairs, which make 48,816 lookups and
    build 10,525 histograms for 1,022,058 checks; a perfbench
    ``grid_volumes`` pass takes about 0.14 s on the host clock.
    """
    ring = QuadExtRing(p=config.p, precision=config.precision)
    counter = DiskCounter(ring)
    prec, modulus = ring.precision, ring.modulus
    classes = ring.p ** (2 * prec)

    # A disk's n range runs from the lemmas' lower bound max(rho, 1) to
    # precision - 1.  Either every rho in range(prec) has a nonempty n range
    # (prec >= 2) or none does, so the rows are indexed by rho: wants[gap][rho]
    # holds the closed forms over rho's n range at a center with
    # v(1 - norm(center)) = gap, and zeros[rho] the row of two disks that miss.
    disks = [(rho, range(max(rho, 1), prec)) for rho in range(prec) if max(rho, 1) < prec]
    wants = [[tuple(one_disk_points(ring, gap, rho, n) for n in ns) for rho, ns in disks] for gap in range(prec + 1)]
    zeros = [(0,) * len(ns) for _, ns in disks]
    keyed_histogram = counter.keyed_histogram
    # interned.setdefault(x, x) is the first value equal to x that it saw, so
    # equal keys, tuples of keys and unit entries share one object: a unit's
    # keys at rho < precision depend only on its class mod p**(precision - 1).
    interned: dict = {}
    # unit_of[a * modulus + b] holds the unit a + b sqrt(eps) as (its keys at
    # every rho a disk has, v(1 - norm)); a non-unit's entry stays None.
    unit_of: list = [None] * modulus**2
    # A distinct comparison is named by the ids of its interned inputs, one
    # int: a unit by id(entry), a center pair by id(xi2's keys) within
    # passed_pairs[id(xi1's entry)].  sep need not name a pair: the want reads
    # it only as rho2 <= sep with rho2 <= rho1 <= precision - 1, which holds
    # exactly when the centers share their coset key at rho2.
    # passed_units and the dicts in passed_pairs hold the names that matched
    # in full, every slice equal to its closed forms (read from the compares,
    # not the records, which stop at RECORDS_PER_IDENTITY), so a later unit or
    # pair with the same name only adds its checks; any other is compared
    # afresh, and a failing one is walked again at every unit or pair that
    # reaches it.
    # Dicts, not sets: a first center's entry has 5 to 10 pair names at p = 3,
    # N = 4 and 5 and p = 5, N = 3, and such a dict is half a set's size.
    passed_units: dict = {}
    passed_pairs: dict = {}
    units = pairs = 0
    for xi in ring.units():
        keys = tuple([interned.setdefault(key, key) for key in counter.coset_keys(xi)[:prec]])
        keys = interned.setdefault(keys, keys)
        gap = ring.val_int(1 - ring.norm(xi))
        entry = (keys, gap)
        entry = unit_of[xi[0] * modulus + xi[1]] = interned.setdefault(entry, entry)
        units += 1
        if id(entry) in passed_units:
            continue
        matched = True
        for (rho, ns), key, want in zip(disks, keys, wants[gap]):
            hist = keyed_histogram(key, key)
            if hist[ns.start:prec] != want:
                matched = False
                _record_mismatches(res, "one_disk", hist, ns, want, classes, xi=xi, rho=rho)
        if matched:
            passed_units[id(entry)] = True
    # Counted per unit and pair and compared as one slice per histogram, not
    # by check(): a record per n made the suite about 1.5x slower.
    res.count("one_disk", units * sum(len(ns) for _, ns in disks))
    # Offsets delta = xi1 - xi2 with v(delta) = 0, 1, ..., >= precision,
    # each with its valuation: sep = v(xi1 - xi2) is that of the offset.
    offsets = [((0, 0), prec)]
    for v in range(prec):
        offsets.append(((ring.p**v, 0), v))
        offsets.append(((0, ring.p**v), v))
    for xi1 in ring.units():
        entry1 = unit_of[xi1[0] * modulus + xi1[1]]
        keys1, gap = entry1
        want_at = wants[gap]
        passed = passed_pairs.setdefault(id(entry1), {})
        for delta, sep in offsets:
            xi2 = ring.sub(xi1, delta)
            unit2 = unit_of[xi2[0] * modulus + xi2[1]]
            if unit2 is None:  # xi2 is not a unit
                continue
            keys2 = unit2[0]
            pairs += 1
            name = id(keys2)
            if name in passed:
                continue
            matched = True
            for (rho1, ns), key1, hit, miss in zip(disks, keys1, want_at, zeros):
                for rho2 in range(rho1 + 1):
                    want = hit if rho2 <= sep else miss
                    hist = keyed_histogram(key1, keys2[rho2])
                    if hist[ns.start:prec] != want:
                        matched = False
                        _record_mismatches(res, "two_disk", hist, ns, want, classes,
                                           xi1=xi1, xi2=xi2, rho1=rho1, rho2=rho2)
            if matched:
                passed[name] = True
    res.count("two_disk", pairs * sum(len(ns) * (rho1 + 1) for rho1, ns in disks))


#: The admissible unitary samples a quaternion run draws.
QUATERNION_SAMPLES = 120


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
    return QUATERNION_SAMPLES * (3 * config.p + 20 * n + size * size // 200)


@_suite("quaternion", work=_quaternion_work)
def suite_quaternion(config: SweepConfig, res: SuiteResult) -> None:
    """Invariant identities for ``QUATERNION_SAMPLES`` randomized
    admissible unitary data."""
    ring = QuadExtRing(p=config.p, precision=config.precision)
    rng = random.Random(config.seed)
    for i in range(QUATERNION_SAMPLES):
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
