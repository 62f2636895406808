"""Orbital integral closed form, support-sum oracle, and derivatives."""

import json
import random
from fractions import Fraction

import pytest
from helpers import qp, reduced_tuples, reference_derivative

from semilie import (
    INFINITY,
    HeckeVector,
    InvalidParamsError,
    OrbitalParams,
    SweepConfig,
    derivative_closed_form,
    derivative_combo,
    derivative_of_vector,
    int_circ,
    int_total,
    orbital_closed_form,
    orbital_support_sum,
    transfer_factor,
    verify_miracle,
)
from semilie.intersection import _gk_pair
from semilie.orbital import _n_bound, _theta


def params(r=0, vb=0, vc=1, ve=0, vda=0):
    return OrbitalParams(r=r, vb=vb, vc=vc, ve=ve, vda=vda)


# A modest deterministic grid exercising every case split; the full default
# grid runs in the acceptance suite.
SMALL_GRID = [
    params(r, vb, s - vb, ve, vda)
    for r in (0, 1, 2, 3)
    for s in (1, 3, 5)
    for vb in (-2, 0, s)
    for ve in (0, 1, 2, 3, 5)
    for vda in (0, 1, 2, INFINITY)
]


class TestValidate:
    """``OrbitalParams`` checks admissibility when it is constructed."""

    def test_minimal_valid(self):
        params()

    def test_even_sum_rejected(self):
        with pytest.raises(InvalidParamsError, match="odd"):
            params(vb=0, vc=2)

    def test_worked_example_params(self):
        params(r=5, vb=-20, vc=37, ve=35, vda=9)

    def test_negative_r(self):
        with pytest.raises(InvalidParamsError, match="r must"):
            params(r=-1)

    def test_nonpositive_sum(self):
        with pytest.raises(InvalidParamsError, match=">= 1"):
            params(vb=-2, vc=1)

    def test_negative_ve_constructs(self):
        p = params(ve=-1)
        assert p.with_ve(-5).ve == -5 and p.with_r(3).ve == -1

    @pytest.mark.parametrize("fn", [int_total, int_circ, verify_miracle])
    def test_negative_ve_rejected_where_undefined(self, fn):
        with pytest.raises(InvalidParamsError, match=f"{fn.__name__} is undefined in the vanishing regime"):
            fn(params(ve=-1))

    def test_bad_vda(self):
        with pytest.raises(InvalidParamsError, match="vda"):
            params(vda=-1)

    @pytest.mark.parametrize(
        "field, value",
        [("r", True), ("r", 1.5), ("vb", 0.0), ("vc", Fraction(1)), ("ve", False), ("ve", 2.0)],
    )
    def test_non_int_field_rejected(self, field, value):
        with pytest.raises(InvalidParamsError, match=f"{field} must be an int"):
            params(**{field: value})

    @pytest.mark.parametrize("vda", [True, 1.5, 2.0, Fraction(1)])
    def test_non_int_vda_rejected(self, vda):
        with pytest.raises(InvalidParamsError, match="vda"):
            params(vda=vda)

    def test_int_and_infinity_accepted(self):
        params(r=2, vb=-1, vc=4, ve=3, vda=INFINITY)

    def test_derived_params_checked(self):
        p = params(r=1, vb=0, vc=3, ve=2)
        with pytest.raises(InvalidParamsError, match="r must"):
            p.with_r(-1)
        with pytest.raises(InvalidParamsError, match="ve must be an int"):
            p.with_ve(1.0)


class TestClosedForm:
    def test_ve_zero_alternating_window(self):
        s = orbital_closed_form(params(r=1, vb=0, vc=1, ve=0, vda=0))
        assert str(s) == "-T^-1 + 1 - T + T^2"
        assert orbital_closed_form(params(r=1, vb=0, vc=1, ve=0, vda=3)) == s

    def test_worked_example_spot_values(self):
        s = orbital_closed_form(OrbitalParams(r=14, vb=-5, vc=100, ve=3, vda=0))
        assert s.coefficient(-9) == qp("-1")
        assert s.coefficient(-5) == -qp("q^2 + q + 1")
        assert s.coefficient(0) == qp("q^3 + q^2 + q + 1")

    def test_worked_example_with_plateau_spot_values(self):
        s = orbital_closed_form(OrbitalParams(r=2, vb=-5, vc=100, ve=20, vda=1))
        assert s.coefficient(10) == qp("2q^3 + q^2 + q + 1")
        assert s.coefficient(26) == qp("18q^3 + q^2 + q + 1")

    def test_vanishing_regime(self):
        assert orbital_closed_form(params(ve=-1)).is_zero()

    def test_s0_symmetry(self):
        for p in SMALL_GRID:
            assert orbital_closed_form(p).at_one().is_zero()

    def test_sign_pattern(self):
        for p in SMALL_GRID:
            for k, coeff in orbital_closed_form(p).items():
                flipped = -coeff if k % 2 else coeff
                assert all(c > 0 for _, c in flipped.items()), (p, k)


class TestSupportSumOracle:
    def test_hand_evaluation(self):
        assert str(orbital_support_sum(params())) == "1 - T"

    def test_matches_closed_form_pointwise(self):
        for p in [params(ve=1), params(r=3, vb=2, vc=1, ve=2, vda=1)]:
            assert orbital_support_sum(p) == orbital_closed_form(p)

    def test_matches_closed_form_on_grid(self):
        for p in SMALL_GRID:
            assert orbital_support_sum(p) == orbital_closed_form(p), p


class TestDerivative:
    def test_minimal(self):
        assert derivative_closed_form(params()) == qp("1")

    def test_with_kappa_zero_correction(self):
        assert derivative_closed_form(params(vc=3, ve=1, vda=1)) == qp("q + 3")

    def test_vanishing(self):
        assert derivative_closed_form(params(ve=-1)).is_zero()

    def test_consistency_with_series_derivative(self):
        for p in SMALL_GRID:
            expected = orbital_closed_form(p).log_derivative_at_zero()
            if (p.vc + p.r) % 2:
                expected = -expected
            assert derivative_closed_form(p) == expected, p

    def test_depends_only_on_sum(self):
        for vb in (-3, -1, 0, 2, 5):
            p = params(r=2, vb=vb, vc=5 - vb, ve=4, vda=1)
            assert derivative_closed_form(p) == derivative_closed_form(
                params(r=2, vb=0, vc=5, ve=4, vda=1)
            )


class TestCombo:
    def test_r_zero_rejected(self):
        with pytest.raises(InvalidParamsError, match="r >= 1"):
            derivative_combo(params(r=0))

    def test_equals_difference_of_singles(self):
        """On the small grid, the default reduced grid and 600 seeded tuples
        of the calculator's ranges (r <= 30, odd vb + vc <= 41, vb >= -50,
        ve <= 40, vda in {0..20, INFINITY}): the same polynomial, printed and
        encoded the same, its coefficients positive ints."""
        rng = random.Random(29)
        wide = []
        for _ in range(600):
            s = rng.randrange(1, 42, 2)
            vb = rng.randint(-50, s)
            vda = rng.choice([*range(21), INFINITY])
            wide.append(OrbitalParams(rng.randint(1, 30), vb, s - vb, rng.randint(-3, 40), vda))
        for p in [*SMALL_GRID, *reduced_tuples(SweepConfig()), *wide]:
            if p.r < 1:
                continue
            expected = derivative_closed_form(p) - derivative_closed_form(p.with_r(p.r - 1))
            got = derivative_combo(p)
            assert got == expected and str(got) == str(expected), p
            assert json.dumps(got.to_json()) == json.dumps(expected.to_json()), p
            assert all(type(c) is int and c > 0 for _, c in got.items()), p

    def test_large_vda_insensitive(self):
        a = derivative_combo(OrbitalParams(r=5, vb=-20, vc=37, ve=35, vda=9))
        b = derivative_combo(OrbitalParams(r=5, vb=-20, vc=37, ve=35, vda=INFINITY))
        assert a == b


class TestTransferFactor:
    def test_values(self):
        assert transfer_factor(params(vb=1, vc=0)) == -1
        assert transfer_factor(params(vb=0, vc=1)) == 1

    def test_parity_consistency(self):
        for p in SMALL_GRID:
            assert transfer_factor(p) == (-1) ** (p.vc + 1) == (-1) ** p.vb


class TestHeckeVector:
    def test_single_element(self):
        p = params(vc=3, ve=2, vda=1)
        got = derivative_of_vector(p, HeckeVector({0: 1}))
        expected = reference_derivative(p.with_r(0))
        if p.vc % 2:
            expected = -expected
        assert got == expected

    def test_combo_consistency(self):
        p = params(r=0, vb=0, vc=3, ve=4, vda=1)
        for r in (1, 2, 3, 5):
            got = derivative_of_vector(p, HeckeVector({r: 1, r - 1: 1}))
            expected = derivative_combo(p.with_r(r))
            if (p.vc + r) % 2:
                expected = -expected
            assert got == expected

    def test_large_r_combination_vanishes(self):
        for p in SMALL_GRID:
            for r in (p.ve + 2, p.ve + 5):
                vec = HeckeVector({r: 1, r - 1: 2, r - 2: 1})
                assert derivative_of_vector(p, vec).is_zero(), (p, r)

    def test_polynomial_scalar_linearity(self):
        p = params(vc=3, ve=3, vda=1)
        a, b = qp("q^2 + 1"), qp("3q")
        vec = HeckeVector({2: a, 4: b})
        expected = derivative_of_vector(p, HeckeVector({2: 1})) * a + derivative_of_vector(
            p, HeckeVector({4: 1})
        ) * b
        assert derivative_of_vector(p, vec) == expected

    def test_negative_levels_dropped(self):
        assert HeckeVector({0: 1, -1: 5}) == HeckeVector({0: 1})


def test_case_splits_read_which_term_attains_n_bound():
    """``_n_bound`` and ``_theta`` are the builtin minima, and each branch
    that reads which term attains cap = n_bound is the predicate it stands
    for, written out here, on a box with every tie: r <= 12, odd s <= 25,
    ve in -2..18 and vda in 0..15 or INFINITY."""
    for r in range(13):
        for s in range(1, 26, 2):
            for vda in [*range(16), INFINITY]:
                assert _theta(s, vda) == min(s, 2 * vda)
                b = vda + r
                for ve in range(-2, 19):
                    cap = _n_bound(r, s, ve, vda)
                    assert cap == min(ve, (s - 1) // 2 + r, vda + r)
                    # the closed form's plateau
                    assert (cap == b and cap < ve) == (vda < ve - r and s > 2 * vda)
                    # D's correction, the combination's plateau
                    assert (cap == b) == (ve - vda - r >= 0 and s > 2 * vda)
                    # the single cell's (C+1) X**N + (C+2) X**(N-1) and 2 X**N
                    assert (cap == b == ve) == (ve - r == vda and 2 * vda < s)
                    assert (cap < ve and cap < b) == ((s - 1) // 2 + r < ve and (s - 1) // 2 < vda)
                    # off the plateau the combination's C is ve - N in every case
                    if cap != b:
                        c = ve - cap if 2 * vda > s and ve >= (s - 1) // 2 + r else 0
                        assert ve - cap == c
                    assert _gk_pair(r, s, ve, vda)[0] == min(2 * ve, s + 2 * r, 2 * vda + 2 * r)
