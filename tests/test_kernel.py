"""Derivative matrices, row reduction, rank certificates, and the vanishing
test-function combinations.

The three (N = 4) example matrices below are golden data, frozen
independently of the code under test.
"""

import random

import pytest
from helpers import (
    bareiss_rank,
    coefficient_norms,
    pack_row,
    qp,
    reference_antidiagonal,
    reference_certificate,
    reference_derivative,
    reference_stages,
)

from semilie import INFINITY, InvalidParamsError, OrbitalParams, QPolynomial, build_matrix, certify_full_rank, row_reduce
from semilie import kernel
from semilie.exactpoly import unpack, width_for
from semilie.kernel import (
    _matrix_ints,
    _matrix_rows,
    _packed_antidiagonal,
    _packed_certificate,
    _packed_combination,
    _packed_matrix,
    _packed_rank,
    _packed_weights,
    _rank_bound,
    _reduce_rows,
    _signed_derivatives,
    large_r_vector,
    phi_exceptional_window,
    phi_sequence_vector,
    predicted_antidiagonal,
    test_large_r_vanishing as large_r_report,
    test_phi_sequence as phi_sequence_report,
)
from semilie.orbital import HeckeVector, _derivative_tables, derivative_of_vector
from semilie.verify import _KERNEL_SUMS, _KERNEL_VDAS, KERNEL_RANK_GRID, SweepConfig, _kernel_width

# --- Example A: sum_bc = 1, vda = 0 (6 x 5) ----------------------------------

MATRIX_A = [
    ["1", "2", "3", "4", "5"],
    ["1", "q + 3", "2q + 4", "3q + 5", "4q + 6"],
    ["2", "q + 4", "q^2 + 3q + 5", "2q^2 + 4q + 6", "3q^2 + 5q + 7"],
    ["2", "2q + 5", "q^2 + 4q + 6", "q^3 + 3q^2 + 5q + 7", "2q^3 + 4q^2 + 6q + 8"],
    ["3", "2q + 6", "2q^2 + 5q + 7", "q^3 + 4q^2 + 6q + 8", "q^4 + 3q^3 + 5q^2 + 7q + 9"],
    ["3", "3q + 7", "2q^2 + 6q + 8", "2q^3 + 5q^2 + 7q + 9", "q^4 + 4q^3 + 6q^2 + 8q + 10"],
]

MATRIX_A1 = [
    ["1", "2", "3", "4", "5"],
    ["0", "q + 1", "2q + 1", "3q + 1", "4q + 1"],
    ["1", "1", "q^2 + q + 1", "2q^2 + q + 1", "3q^2 + q + 1"],
    ["0", "q + 1", "q + 1", "q^3 + q^2 + q + 1", "2q^3 + q^2 + q + 1"],
    ["1", "1", "q^2 + q + 1", "q^2 + q + 1", "q^4 + q^3 + q^2 + q + 1"],
    ["0", "q + 1", "q + 1", "q^3 + q^2 + q + 1", "q^3 + q^2 + q + 1"],
]

MATRIX_A2 = [
    ["1", "2", "3", "4", "5"],
    ["0", "q + 1", "2q + 1", "3q + 1", "4q + 1"],
    ["0", "-1", "q^2 + q - 2", "2q^2 + q - 3", "3q^2 + q - 4"],
    ["0", "0", "-q", "q^3 + q^2 - 2q", "2q^3 + q^2 - 3q"],
    ["0", "0", "0", "-q^2", "q^4 + q^3 - 2q^2"],
    ["0", "0", "0", "0", "-q^3"],
]

# --- Example B: sum_bc = 17, vda = 2 (8 x 5) ---------------------------------
# For M and M' only the first 3 and 4 columns are pinned.

MATRIX_B_COLS3 = [
    ["9", "10", "11"],
    ["8q + 10", "9q + 11", "10q + 12"],
    ["7q^2 + 9q + 11", "8q^2 + 10q + 12", "9q^2 + 11q + 13"],
    ["q^2 + 10q + 12", "7q^3 + 9q^2 + 11q + 13", "8q^3 + 10q^2 + 12q + 14"],
    ["8q^2 + 11q + 13", "q^3 + 10q^2 + 12q + 14", "7q^4 + 9q^3 + 11q^2 + 13q + 15"],
    ["2q^2 + 12q + 14", "8q^3 + 11q^2 + 13q + 15", "q^4 + 10q^3 + 12q^2 + 14q + 16"],
    ["9q^2 + 13q + 15", "2q^3 + 12q^2 + 14q + 16", "8q^4 + 11q^3 + 13q^2 + 15q + 17"],
    ["3q^2 + 14q + 16", "9q^3 + 13q^2 + 15q + 17", "2q^4 + 12q^3 + 14q^2 + 16q + 18"],
]

MATRIX_B1_COLS4 = [
    ["9", "10", "11", "12"],
    ["8q + 1", "9q + 1", "10q + 1", "11q + 1"],
    ["7q^2 + q + 1", "8q^2 + q + 1", "9q^2 + q + 1", "10q^2 + q + 1"],
    ["-6q^2 + q + 1", "7q^3 + q^2 + q + 1", "8q^3 + q^2 + q + 1", "9q^3 + q^2 + q + 1"],
    ["7q^2 + q + 1", "-6q^3 + q^2 + q + 1", "7q^4 + q^3 + q^2 + q + 1", "8q^4 + q^3 + q^2 + q + 1"],
    ["-6q^2 + q + 1", "7q^3 + q^2 + q + 1", "-6q^4 + q^3 + q^2 + q + 1", "7q^5 + q^4 + q^3 + q^2 + q + 1"],
    ["7q^2 + q + 1", "-6q^3 + q^2 + q + 1", "7q^4 + q^3 + q^2 + q + 1", "-6q^5 + q^4 + q^3 + q^2 + q + 1"],
    ["-6q^2 + q + 1", "7q^3 + q^2 + q + 1", "-6q^4 + q^3 + q^2 + q + 1", "7q^5 + q^4 + q^3 + q^2 + q + 1"],
]

MATRIX_B2 = [
    ["9", "10", "11", "12", "13"],
    ["8q + 1", "9q + 1", "10q + 1", "11q + 1", "12q + 1"],
    ["7q^2 + q - 8", "8q^2 + q - 9", "9q^2 + q - 10", "10q^2 + q - 11", "11q^2 + q - 12"],
    ["-6q^2 - 7q", "7q^3 + q^2 - 8q", "8q^3 + q^2 - 9q", "9q^3 + q^2 - 10q", "10q^3 + q^2 - 11q"],
    ["0", "-6q^3 - 7q^2", "7q^4 + q^3 - 8q^2", "8q^4 + q^3 - 9q^2", "9q^4 + q^3 - 10q^2"],
    ["0", "0", "-6q^4 - 7q^3", "7q^5 + q^4 - 8q^3", "8q^5 + q^4 - 9q^3"],
    ["0", "0", "0", "-6q^5 - 7q^4", "7q^6 + q^5 - 8q^4"],
    ["0", "0", "0", "0", "-6q^6 - 7q^5"],
]

# --- Example C: sum_bc = 5, vda = 8 (8 x 5) ----------------------------------

MATRIX_C_COLS3 = [
    ["3", "4", "5"],
    ["2q + 4", "3q + 5", "4q + 6"],
    ["q^2 + 3q + 5", "2q^2 + 4q + 6", "3q^2 + 5q + 7"],
    ["2q^2 + 4q + 6", "q^3 + 3q^2 + 5q + 7", "2q^3 + 4q^2 + 6q + 8"],
    ["3q^2 + 5q + 7", "2q^3 + 4q^2 + 6q + 8", "q^4 + 3q^3 + 5q^2 + 7q + 9"],
    ["4q^2 + 6q + 8", "3q^3 + 5q^2 + 7q + 9", "2q^4 + 4q^3 + 6q^2 + 8q + 10"],
    ["5q^2 + 7q + 9", "4q^3 + 6q^2 + 8q + 10", "3q^4 + 5q^3 + 7q^2 + 9q + 11"],
    ["6q^2 + 8q + 10", "5q^3 + 7q^2 + 9q + 11", "4q^4 + 6q^3 + 8q^2 + 10q + 12"],
]

MATRIX_C1 = [
    ["3", "4", "5", "6", "7"],
    ["2q + 1", "3q + 1", "4q + 1", "5q + 1", "6q + 1"],
    ["q^2 + q + 1", "2q^2 + q + 1", "3q^2 + q + 1", "4q^2 + q + 1", "5q^2 + q + 1"],
    ["q^2 + q + 1", "q^3 + q^2 + q + 1", "2q^3 + q^2 + q + 1", "3q^3 + q^2 + q + 1", "4q^3 + q^2 + q + 1"],
    ["q^2 + q + 1", "q^3 + q^2 + q + 1", "q^4 + q^3 + q^2 + q + 1", "2q^4 + q^3 + q^2 + q + 1", "3q^4 + q^3 + q^2 + q + 1"],
    ["q^2 + q + 1", "q^3 + q^2 + q + 1", "q^4 + q^3 + q^2 + q + 1", "q^5 + q^4 + q^3 + q^2 + q + 1", "2q^5 + q^4 + q^3 + q^2 + q + 1"],
    ["q^2 + q + 1", "q^3 + q^2 + q + 1", "q^4 + q^3 + q^2 + q + 1", "q^5 + q^4 + q^3 + q^2 + q + 1", "q^6 + q^5 + q^4 + q^3 + q^2 + q + 1"],
    ["q^2 + q + 1", "q^3 + q^2 + q + 1", "q^4 + q^3 + q^2 + q + 1", "q^5 + q^4 + q^3 + q^2 + q + 1", "q^6 + q^5 + q^4 + q^3 + q^2 + q + 1"],
]

MATRIX_C2 = [
    ["3", "4", "5", "6", "7"],
    ["2q + 1", "3q + 1", "4q + 1", "5q + 1", "6q + 1"],
    ["q^2 + q - 2", "2q^2 + q - 3", "3q^2 + q - 4", "4q^2 + q - 5", "5q^2 + q - 6"],
    ["q^2 - q", "q^3 + q^2 - 2q", "2q^3 + q^2 - 3q", "3q^3 + q^2 - 4q", "4q^3 + q^2 - 5q"],
    ["0", "q^3 - q^2", "q^4 + q^3 - 2q^2", "2q^4 + q^3 - 3q^2", "3q^4 + q^3 - 4q^2"],
    ["0", "0", "q^4 - q^3", "q^5 + q^4 - 2q^3", "2q^5 + q^4 - 3q^3"],
    ["0", "0", "0", "q^5 - q^4", "q^6 + q^5 - 2q^4"],
    ["0", "0", "0", "0", "q^6 - q^5"],
]


def assert_matrix(matrix, expected_rows):
    for i, row in enumerate(expected_rows):
        for r, text in enumerate(row):
            assert matrix.entry(i, r) == qp(text), (i, r, text, str(matrix.entry(i, r)))


@pytest.mark.parametrize(
    "sum_bc, vda, n_cap, message",
    [
        (2, 0, 2, "odd"),
        (-1, 0, 2, ">= 1"),
        (True, 0, 2, "vc must be an int"),
        (1, -1, 2, "vda"),
        (1, True, 2, "vda"),
        (1, 2.0, 2, "vda"),
        (1, 0, -1, "N must be >= 0"),
        (1, 0, True, "N must be an int"),
        (1, 0, 2.0, "N must be an int"),
        (2, -1, -1, "odd"),
        (1, -1, -1, "vda"),
    ],
)
def test_build_matrix_rejects(sum_bc, vda, n_cap, message):
    """``build_matrix`` and its packed rows and width raise the same error."""
    for make in (build_matrix, _packed_matrix):
        with pytest.raises(InvalidParamsError, match=message):
            make(sum_bc, vda, n_cap)


CALC_VDAS = (*range(21), INFINITY)


def unpacked(rows, width):
    return [[QPolynomial._raw(unpack(x, width)) for x in row] for row in rows]


@pytest.mark.parametrize("sum_bc", range(1, 42, 2))
def test_packed_matrix_matches_the_closed_form(sum_bc):
    """Every matrix of the calculator's range (vda in 0..20 or inf, N <= 10)
    unpacks to ``helpers.reference_stages`` at every entry, and so do its
    reductions on the packed ints, at a width that some coefficient of M
    needs in full (but at vda = N = 0).

    The reference is built once per vda, at N = 10.  The matrix at a smaller
    N is its top left (N + theta/2 + 2) x (N + 1) block, and so are the
    reductions: M' and M'' take differences within a column, of a row and
    rows above it."""
    for vda in CALC_VDAS:
        full = reference_stages(sum_bc, vda, 10)
        for n_cap in range(11):
            rows, width = _packed_matrix(sum_bc, vda, n_cap)
            want = {stage: [row[: n_cap + 1] for row in m[: len(rows)]] for stage, m in full.items()}
            assert len(rows) == n_cap + min(sum_bc, 2 * vda) // 2 + 2
            m1, m2 = _reduce_rows(rows)
            for stage, got in (("M", rows), ("M'", m1), ("M''", m2)):
                assert unpacked(got, width) == want[stage], (sum_bc, vda, n_cap, stage)
            top = max(abs(c) for row in want["M"] for e in row for c in e.coefficients())
            assert top >= 1 << (width - 2) or vda == n_cap == 0, (sum_bc, vda, n_cap, width, top)


def test_build_matrix_and_row_reduce_on_the_rank_grid():
    for sum_bc in KERNEL_RANK_GRID["sum_bc"]:
        for vda in KERNEL_RANK_GRID["vda"]:
            for n_cap in KERNEL_RANK_GRID["n_cap"]:
                m = build_matrix(sum_bc, vda, n_cap)
                got = dict(zip(("M", "M'", "M''"), (m, *row_reduce(m))))
                for stage, entries in reference_stages(sum_bc, vda, n_cap).items():
                    assert [list(row) for row in got[stage].entries] == entries, (sum_bc, vda, n_cap, stage)


def rank_grid_matrices():
    return [
        build_matrix(sum_bc, vda, n_cap)
        for sum_bc in KERNEL_RANK_GRID["sum_bc"]
        for vda in KERNEL_RANK_GRID["vda"]
        for n_cap in KERNEL_RANK_GRID["n_cap"]
    ]


def with_column(entries, col, make):
    """``entries`` with column ``col`` replaced by ``make(row)`` in each row."""
    return [[make(row) if j == col else e for j, e in enumerate(row)] for row in entries]


#: Rank-deficient matrices from a full-rank one, each one short of full rank.
DEFICIENT = {
    "zero_column": lambda m: with_column(m, 2, lambda row: QPolynomial.zero()),
    "repeated_column": lambda m: with_column(m, 3, lambda row: row[1]),
    "q_times_a_column": lambda m: with_column(m, 3, lambda row: row[0] * QPolynomial.q_power(1)),
}


def rank_width(entries):
    """The packed certificate's width, ``width_for`` of twice the
    ``_rank_bound`` of q-polynomial entries, read from their coefficient
    1-norms."""
    return width_for(2 * _rank_bound(coefficient_norms(entries), len(entries[0])))


def packed_rank(entries):
    """``_packed_rank`` of q-polynomial entries packed at their
    ``rank_width``."""
    width = rank_width(entries)
    return _packed_rank([[pack_row(dict(poly.items()), width) for poly in row] for row in entries])


def test_packed_rank_matches_the_reference_on_the_rank_grid():
    for m in rank_grid_matrices():
        assert packed_rank(m.entries) == bareiss_rank(m.entries) == m.cols, (m.sum_bc, m.vda, m.n_cap)


@pytest.mark.parametrize("make", DEFICIENT.values(), ids=DEFICIENT)
@pytest.mark.parametrize("sum_bc, vda, n_cap", [(1, 0, 4), (17, 2, 4), (5, INFINITY, 6)])
def test_packed_rank_matches_the_reference_below_full_rank(make, sum_bc, vda, n_cap):
    entries = make(build_matrix(sum_bc, vda, n_cap).entries)
    assert packed_rank(entries) == bareiss_rank(entries) == n_cap


def test_packed_elimination_keeps_every_minor_in_the_digit_range():
    """Every entry the q-polynomial elimination computes, the minors the
    packed one holds as ints, has its coefficients below 2**(width - 1) at
    ``rank_width``, on the rank grid and below full rank."""
    matrices = [m.entries for m in rank_grid_matrices()]
    matrices += [make(build_matrix(17, 8, 6).entries) for make in DEFICIENT.values()]
    for entries in matrices:
        seen = [e for row in entries for e in row]
        bareiss_rank(entries, seen)
        top = max(abs(c) for e in seen for c in e.coefficients())
        assert top < 1 << (rank_width(entries) - 1)


def test_inexact_packed_division_raises(monkeypatch):
    """A division that leaves a remainder raises, and no rank is returned."""
    monkeypatch.setattr(kernel, "divmod", lambda a, b: (a // b, 1), raising=False)
    with pytest.raises(ArithmeticError, match="inexact"):
        packed_rank(build_matrix(3, 1, 2).entries)


#: Matrices past the rank grid: the calculator's largest vb + vc among
#: them, a vda past every theta/2 and an unbounded one, and N from 0.
OFF_GRID_CERTIFICATES = [
    (sum_bc, vda, n_cap) for sum_bc in (7, 11, 41) for vda in (3, 20, INFINITY) for n_cap in range(11)
]


RANK_GRID_CERTIFICATES = [
    (s, v, n) for s in KERNEL_RANK_GRID["sum_bc"] for v in KERNEL_RANK_GRID["vda"] for n in KERNEL_RANK_GRID["n_cap"]
]


@pytest.mark.parametrize("cases", [RANK_GRID_CERTIFICATES, OFF_GRID_CERTIFICATES], ids=["rank_grid", "off_grid"])
def test_packed_certificate_matches_the_reference(cases):
    """Every field of the certificate the kernel suite reads, on M packed
    once at its rank width, and of ``certify_full_rank``, which runs the
    same int core on the decoded matrix, equals the ``QPolynomial``
    certificate of ``helpers.reference_certificate``; the row 1-norms read
    as values at q = 1 equal the coefficient 1-norms; and the packed
    anti-diagonal decodes to its monomial reference."""
    for sum_bc, vda, n_cap in cases:
        m = build_matrix(sum_bc, vda, n_cap)
        want = reference_certificate(m)
        assert _packed_certificate(sum_bc, vda, n_cap) == want == certify_full_rank(m), (sum_bc, vda, n_cap)
        assert want.passed, (sum_bc, vda, n_cap, want.flags)
        n_rows = _matrix_rows(sum_bc, vda, n_cap)
        assert [sum(row) for row in _matrix_ints(sum_bc, vda, n_cap, n_rows, 0)] == coefficient_norms(m.entries)
        width = rank_width(m.entries)
        for r in range(m.cols):
            want = reference_antidiagonal(m, r)
            assert predicted_antidiagonal(m, r) == want, (sum_bc, vda, n_cap, r)
            assert QPolynomial._raw(unpack(_packed_antidiagonal(sum_bc, vda, r, width), width)) == want


def test_certificates_flag_what_the_reference_flags():
    """On matrices whose M'' breaks the predicted shape, a column made
    zero or an entry moved, the int core reports the reference's fields:
    the rank, the flags in order, the fallback pivot and the spot checks."""
    m = build_matrix(5, 1, 4)
    moved = [list(row) for row in m.entries]
    moved[3][1] = moved[3][1] + QPolynomial.one()
    broken = [
        with_column(m.entries, 2, lambda row: QPolynomial.zero()),
        moved,
        with_column(m.entries, 0, lambda row: QPolynomial.zero()),
    ]
    for entries in broken:
        bad = kernel.DerivMatrix(m.sum_bc, m.vda, m.n_cap, tuple(map(tuple, entries)))
        got, want = certify_full_rank(bad), reference_certificate(bad)
        assert got == want and not got.passed


class TestFrozenMatrices:
    def test_example_a(self):
        m = build_matrix(1, 0, 4)
        assert (m.rows, m.cols) == (6, 5)
        m1, m2 = row_reduce(m)
        assert_matrix(m, MATRIX_A)
        assert_matrix(m1, MATRIX_A1)
        assert_matrix(m2, MATRIX_A2)

    def test_example_b(self):
        m = build_matrix(17, 2, 4)
        assert (m.rows, m.cols) == (8, 5)
        m1, m2 = row_reduce(m)
        assert_matrix(m, MATRIX_B_COLS3)
        assert_matrix(m1, MATRIX_B1_COLS4)
        assert_matrix(m2, MATRIX_B2)

    def test_example_c(self):
        m = build_matrix(5, 8, 4)
        assert (m.rows, m.cols) == (8, 5)
        m1, m2 = row_reduce(m)
        assert_matrix(m, MATRIX_C_COLS3)
        assert_matrix(m1, MATRIX_C1)
        assert_matrix(m2, MATRIX_C2)


class TestCertificates:
    def test_rank_grid(self):
        for sum_bc in (1, 3, 5, 17):
            for vda in (0, 1, 2, 8):
                for n_cap in range(1, 7):
                    cert = certify_full_rank(build_matrix(sum_bc, vda, n_cap))
                    assert cert.passed, (sum_bc, vda, n_cap, cert.flags)
                    assert cert.rank == n_cap + 1
                    assert all(cert.spot_checks.values())

    def test_fallback_pivot_case(self):
        cert = certify_full_rank(build_matrix(1, 0, 4))
        assert cert.fallback_row_used
        assert cert.passed

    def test_unbounded_vda(self):
        for sum_bc in (1, 5):
            cert = certify_full_rank(build_matrix(sum_bc, INFINITY, 3))
            assert cert.passed and cert.rank == 4

    def test_zero_pattern_random_params(self):
        rng = random.Random(7)
        for _ in range(12):
            sum_bc = rng.choice((1, 3, 7, 9, 13))
            vda = rng.choice((0, 1, 3, 5, INFINITY))
            n_cap = rng.randrange(1, 5)
            m = build_matrix(sum_bc, vda, n_cap)
            _, m2 = row_reduce(m)
            half = m.theta // 2
            for r in range(m.cols):
                for i in range(r + half + 2, m.rows):
                    assert m2.entry(i, r).is_zero(), (sum_bc, vda, n_cap, i, r)


class TestVanishingSuites:
    BASES = [
        OrbitalParams(r=0, vb=0, vc=s, ve=ve, vda=vda)
        for s in (1, 3, 7)
        for ve in (0, 2, 5)
        for vda in (0, 1, INFINITY)
    ]

    def test_large_r(self):
        for base in self.BASES:
            for r in (base.ve + 2, base.ve + 5):
                report = large_r_report(base.with_r(r))
                assert report["pass"] and report["expected_zero"], report

    def test_boundary_r_recorded_not_asserted(self):
        base = OrbitalParams(r=0, vb=0, vc=1, ve=3, vda=0)
        report = large_r_report(base.with_r(base.ve + 1))
        assert not report["expected_zero"]
        assert report["pass"]  # recorded only; never fails outside the regime

    def test_phi_sequence_outside_window(self):
        for base in self.BASES:
            lo, hi = phi_exceptional_window(base)
            for r in range(5, hi + 4):
                report = phi_sequence_report(base, r)
                if not (lo <= r <= hi):
                    assert report["pass"] and not report["inside_window"], report

    def test_phi_window_example(self):
        base = OrbitalParams(r=0, vb=0, vc=3, ve=6, vda=1)
        assert phi_exceptional_window(base) == (7, 9)
        nonzero = [
            r
            for r in range(5, 14)
            if not derivative_of_vector(base, phi_sequence_vector(r)).is_zero()
        ]
        assert set(nonzero) <= {7, 8, 9}

    def test_phi_needs_r_at_least_5(self):
        with pytest.raises(Exception):
            phi_sequence_vector(4)


class TestPackedVanishing:
    def test_packed_combinations_decode_to_derivative_of_vector(self):
        """At every orbit and level of the kernel suite's vanishing checks up
        to ve = 80, inside the sequence's window too, the packed combination
        at the suite's width decodes to the ``derivative_of_vector`` sum,
        sum_j c_j (-1)**(vc + j) D(j), built from ``reference_derivative``
        once per orbit and level j: the width holds every coefficient far
        past the default grid, and the packed D(j) are the reference's."""
        config = SweepConfig(ve_max=80)
        width = _kernel_width(config)
        tables = _derivative_tables(width, config.ve_max)
        top = config.ve_max + 8
        vectors = {
            "large": {r: large_r_vector(r) for r in range(2, top + 1)},
            "phi": {r: phi_sequence_vector(r) for r in range(5, top + 1)},
        }
        weights = {name: {r: _packed_weights(vec, width) for r, vec in vecs.items()} for name, vecs in vectors.items()}
        checked = 0
        for s in _KERNEL_SUMS:
            for vda in _KERNEL_VDAS:
                for ve in range(0, config.ve_max + 1, 2):
                    base = OrbitalParams(r=0, vb=0, vc=s, ve=ve, vda=vda)
                    signed = _signed_derivatives(s, ve, vda, ve + 8, tables)
                    refs = [reference_derivative(base.with_r(j)) for j in range(ve + 9)]
                    refs = [-d if (s + j) % 2 else d for j, d in enumerate(refs)]
                    for name, levels in (("large", range(ve + 2, ve + 9)), ("phi", range(5, ve + 9))):
                        for r in levels:
                            got = _packed_combination(weights[name][r], signed)
                            want = QPolynomial.zero()
                            for j, c in vectors[name][r].items():
                                want = want + c * refs[j]
                            assert QPolynomial._from_packed(got, width) == want, (name, s, vda, ve, r)
                            checked += 1
        assert checked == 3444 + 21648  # the sequence's count takes in its window's levels

    def test_weights_pack_at_the_width_or_raise(self):
        """Weights pack as ``QPolynomial._packed`` does; one that does not
        fit the width raises rather than packs wrong."""
        vec = phi_sequence_vector(5)
        assert _packed_weights(vec, 4) == [(r, c._packed(4)) for r, c in vec.items()]
        with pytest.raises(ArithmeticError):
            _packed_weights(HeckeVector({3: 8}), 4)
