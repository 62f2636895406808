"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``): run

    pytest -s tests/test_acceptance.py

All comparisons are exact; the stated runtime budgets are asserted where a
criterion carries one.
"""

import time

import pytest
from helpers import qp, support

import test_kernel as kernel_data
from semilie import (
    INFINITY,
    OrbitalParams,
    QPolynomial,
    build_matrix,
    certify_full_rank,
    derivative_combo,
    orbital_closed_form,
    row_reduce,
)
from semilie.verify import (
    SweepConfig,
    suite_afl,
    suite_kernel,
    suite_miracle,
    suite_orbital,
    suite_quaternion,
    suite_satake,
    suite_volumes,
)


# The default grid's check count per identity, for each suite.
CHECKS_BY_IDENTITY = {
    "orbital": dict.fromkeys(
        [
            "closed_form == support_sum", "value at s=0 is 0", "derivative == signed series derivative",
            "sign pattern (-1)^k", "derivative depends only on vb+vc",
        ],
        48_048,
    ),
    "miracle": {"gross_keating == D(ve) + D(ve-1)": 3_696},
    "afl": {
        "int_total == derivative_closed_form": 3_696,
        "n1 + n2 == 2 ve + vb + vc + 2r": 3_696,
        "int_total(r) - int_total(r-1) == derivative_combo": 3_168,
        "int_circ_kr_closed == int_circ(r) - int_circ(r-1)": 2_880,
    },
    "kernel": {"full rank certificate": 96, "large-r 1,2,1 vanishing": 504, "sequence vanishing outside window": 648},
    "satake": {
        "rank-3 aggregate base change": 9,
        "rank-3 single-cell base change": 9,
        "rank-3 determinant-route base change": 9,
        "rank-2 combination == sum of basis images": 9,
        "fiber projection difference": 8,
        "three-term vanishing polynomial shape": 6,
    },
    "volumes": {"one_disk": 52_488, "two_disk": 969_570},
    "quaternion": {"quaternion invariants": 120},
}


def counts_pinned(result) -> bool:
    return result.checks_by_identity == CHECKS_BY_IDENTITY[result.name]


def report(num: int, description: str, ok: bool, elapsed: float, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f" {extra}" if extra else ""
    print(f"ACCEPTANCE {num:2d} [{status}] {description} ({elapsed:.1f}s){tail}")
    assert ok, f"criterion {num} failed: {description}"


@pytest.fixture(scope="module")
def orbital_sweep():
    """Shared full-grid sweep used by criteria 3 and 11."""
    t0 = time.time()
    result = suite_orbital(SweepConfig())
    return result, time.time() - t0


# --------------------------------------------------------------------------
def test_criterion_1_combo_examples():
    t0 = time.time()
    ok = True
    expected1 = QPolynomial.geometric(13) + qp("22q^13")
    for vda in (9, 40, INFINITY):
        value = derivative_combo(OrbitalParams(r=5, vb=-20, vc=37, ve=35, vda=vda))
        signed = value.scale((-1) ** ((37 + 5) % 2))
        ok = ok and signed == expected1
    ok = ok and (time.time() - t0) < 1.0

    t1 = time.time()
    p2 = OrbitalParams(r=6, vb=10, vc=5, ve=7, vda=2)
    signed2 = derivative_combo(p2).scale((-1) ** ((5 + 6) % 2))
    ok = ok and signed2 == -QPolynomial.geometric(7)
    ok = ok and (time.time() - t1) < 1.0

    t2 = time.time()
    p3 = OrbitalParams(r=8, vb=-101, vc=1000, ve=29, vda=11)
    signed3 = derivative_combo(p3).scale((-1) ** ((1000 + 8) % 2))
    expected3 = QPolynomial.geometric(19) + qp("443q^19 + 444q^18")
    ok = ok and signed3 == expected3
    ok = ok and (time.time() - t2) < 1.0
    report(1, "signed two-level derivative reproduces the three worked values", ok, time.time() - t0)


def test_criterion_2_orbital_tables():
    t0 = time.time()
    ok = True

    # Table 1: r=14, vb=-5, vc=100, ve=3 (any vda >= 0); support -9..120,
    # magnitude ramps 1, 1, q+1, q+1, ... up to the constant q^3+q^2+q+1 block.
    series = orbital_closed_form(OrbitalParams(r=14, vb=-5, vc=100, ve=3, vda=5))
    ok = ok and support(series) == list(range(-9, 121))
    pinned_low = {
        -9: "-1", -8: "1", -7: "-q - 1", -6: "q + 1",
        -5: "-q^2 - q - 1", -4: "q^2 + q + 1",
        -3: "-q^3 - q^2 - q - 1", -2: "q^3 + q^2 + q + 1",
        -1: "-q^3 - q^2 - q - 1", 0: "q^3 + q^2 + q + 1",
        1: "-q^3 - q^2 - q - 1", 2: "q^3 + q^2 + q + 1",
    }
    pinned_high = {
        111: "-q^3 - q^2 - q - 1", 112: "q^3 + q^2 + q + 1",
        113: "-q^3 - q^2 - q - 1", 114: "q^3 + q^2 + q + 1",
        115: "-q^2 - q - 1", 116: "q^2 + q + 1",
        117: "-q - 1", 118: "q + 1", 119: "-1", 120: "1",
    }
    for k, text in {**pinned_low, **pinned_high}.items():
        ok = ok and series.coefficient(k) == qp(text)
    block = QPolynomial.geometric(3)
    for k in range(3, 111):
        expected = -block if k % 2 else block
        ok = ok and series.coefficient(k) == expected

    # Table 2: r=2, vb=-5, vc=100, ve=20, vda=1; support 3..142 with a
    # plateau of height 18 on the q^3 coefficient.
    series = orbital_closed_form(OrbitalParams(r=2, vb=-5, vc=100, ve=20, vda=1))
    ok = ok and support(series) == list(range(3, 143))

    def expected_table2(k: int) -> QPolynomial:
        if k <= 8:
            mag = QPolynomial.geometric((k - 3) // 2)
        elif k <= 26:
            mag = QPolynomial.geometric(3) + QPolynomial.q_power(3, k - 9)
        elif k <= 119:
            mag = QPolynomial.geometric(3) + QPolynomial.q_power(3, 17)
        elif k <= 136:
            mag = QPolynomial.geometric(3) + QPolynomial.q_power(3, 136 - k)
        else:
            mag = QPolynomial.geometric((142 - k) // 2)
        return -mag if k % 2 else mag

    pinned2 = {
        3: "-1", 4: "1", 5: "-q - 1", 6: "q + 1",
        7: "-q^2 - q - 1", 8: "q^2 + q + 1",
        9: "-q^3 - q^2 - q - 1", 10: "2q^3 + q^2 + q + 1",
        26: "18q^3 + q^2 + q + 1", 27: "-18q^3 - q^2 - q - 1",
        28: "18q^3 + q^2 + q + 1", 119: "-18q^3 - q^2 - q - 1",
        120: "17q^3 + q^2 + q + 1", 121: "-16q^3 - q^2 - q - 1",
        122: "15q^3 + q^2 + q + 1", 134: "3q^3 + q^2 + q + 1",
        135: "-2q^3 - q^2 - q - 1", 136: "q^3 + q^2 + q + 1",
        137: "-q^2 - q - 1", 138: "q^2 + q + 1",
        139: "-q - 1", 140: "q + 1", 141: "-1", 142: "1",
    }
    for k, text in pinned2.items():
        ok = ok and series.coefficient(k) == qp(text)
    for k in range(3, 143):
        ok = ok and series.coefficient(k) == expected_table2(k)

    report(2, "both long orbital tables match coefficient-for-coefficient", ok, time.time() - t0)


def test_criterion_3_oracle_equivalence(orbital_sweep):
    result, elapsed = orbital_sweep
    oracle_failures = [f for f in result.failures if "support_sum" in f["identity"]]
    ok = not oracle_failures and elapsed < 30.0 and counts_pinned(result)
    report(
        3,
        "closed form == support-sum oracle on the full default grid",
        ok,
        elapsed,
        f"[{result.checked // 5} tuples]",
    )


def test_criterion_4_gk_derivative_identity():
    t0 = time.time()
    result = suite_miracle(SweepConfig())
    elapsed = time.time() - t0
    ok = result.passed and elapsed < 10.0 and counts_pinned(result)
    report(4, "Gross-Keating == sum of two consecutive normalised derivatives", ok, elapsed)


def test_criterion_5_afl_identity():
    # The rank-2 matching identity: the difference of total intersection
    # numbers at consecutive levels equals the two-level combination
    # derivative; dressed with (-1)**r and the transfer factor both sides
    # carry the same sign.  (See the AFL notes in the repo docs: the check
    # uses the telescoped total intersection number.)
    t0 = time.time()
    result = suite_afl(SweepConfig())
    elapsed = time.time() - t0
    failures = [f for f in result.failures if "derivative_combo" in f.get("identity", "")]
    ok = result.passed and not failures and counts_pinned(result)
    report(5, "level difference of total intersection numbers == combo derivative", ok, elapsed)


def test_criterion_6_clean_intersection():
    t0 = time.time()
    result = suite_afl(SweepConfig())
    failures = [f for f in result.failures if "int_circ_kr_closed" in f.get("identity", "")]
    ok = not failures
    report(6, "single-cell intersection closed form == GK difference", ok, time.time() - t0)


def test_criterion_7_kernel_matrices():
    t0 = time.time()
    ok = True
    for sum_bc, vda, frozen in (
        (1, 0, (kernel_data.MATRIX_A, kernel_data.MATRIX_A1, kernel_data.MATRIX_A2)),
        (17, 2, (kernel_data.MATRIX_B_COLS3, kernel_data.MATRIX_B1_COLS4, kernel_data.MATRIX_B2)),
        (5, 8, (kernel_data.MATRIX_C_COLS3, kernel_data.MATRIX_C1, kernel_data.MATRIX_C2)),
    ):
        m = build_matrix(sum_bc, vda, 4)
        m1, m2 = row_reduce(m)
        for matrix, rows in zip((m, m1, m2), frozen):
            for i, row in enumerate(rows):
                for r, text in enumerate(row):
                    ok = ok and matrix.entry(i, r) == qp(text)
    for sum_bc in (1, 3, 5, 17):
        for vda in (0, 1, 2, 8):
            for n_cap in range(1, 7):
                cert = certify_full_rank(build_matrix(sum_bc, vda, n_cap))
                ok = ok and cert.full_rank and all(cert.spot_checks.values()) and cert.passed
    report(7, "frozen matrices entrywise + full-rank certificates + spot checks", ok, time.time() - t0)


def test_criterion_8_vanishing_suites():
    t0 = time.time()
    result = suite_kernel(SweepConfig())
    ok = result.passed and counts_pinned(result)
    report(8, "large-level vanishing and almost-kernel sequence outside window", ok, time.time() - t0)


def test_criterion_9_base_change():
    t0 = time.time()
    result = suite_satake(SweepConfig(rmax_satake=8))
    ok = result.passed and counts_pinned(result)
    report(9, "rank-3 and rank-2 base-change identities for levels 0..8", ok, time.time() - t0)


def test_criterion_10_volume_enumeration():
    t0 = time.time()
    result = suite_volumes(SweepConfig(p=3, precision=4))
    elapsed = time.time() - t0
    ok = result.passed and elapsed < 60.0 and counts_pinned(result)
    report(
        10,
        "disk-volume enumeration matches closed forms at p=3, precision 4",
        ok,
        elapsed,
        f"[{result.checked} checks]",
    )


def test_criterion_11_property_suite(orbital_sweep):
    result, elapsed = orbital_sweep
    t0 = time.time()
    vanish_failures = [f for f in result.failures if "s=0" in f["identity"]]
    deriv_failures = [f for f in result.failures if "signed series" in f["identity"]]
    quat = suite_quaternion(SweepConfig())
    ok = not vanish_failures and not deriv_failures and quat.passed and quat.checked >= 100 and counts_pinned(quat)
    report(
        11,
        "s=0 vanishing + derivative consistency on full grid; quaternion invariants",
        ok,
        elapsed + time.time() - t0,
    )
