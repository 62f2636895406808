"""Satake images and base-change identities for ranks 2 and 3."""

import pytest
from helpers import qp

from semilie import (
    QPolynomial,
    SatakeGL,
    SatakeY,
    bc_gl3_to_u3,
    bc_s2_combo_image,
    bc_s2_on_basis,
    bc_s3_on_basis,
    p_r_polynomial,
    proj_fiber_gl3,
    satake_gl_det,
    satake_u3_indicator,
)
from semilie.satake import bc_s3_table, bc_s3_weight


def bc_s3_table_reference(bound):
    """The triangular solve through SatakeY subtraction and scaling."""
    images = []
    for r in range(bound + 1):
        rhs = satake_u3_indicator(r)
        for j in range(r):
            rhs = rhs - images[j].scale(bc_s3_weight(r, j))
        images.append(rhs)
    return images


def bc_s2_table_reference(bound):
    """The rank-2 triangular solve image(r) = combo_image(r) - image(r-1)."""
    images = [bc_s2_combo_image(0)]
    for r in range(1, bound + 1):
        images.append(bc_s2_combo_image(r) - images[-1])
    return images


def has_zero_coefficient(image):
    return not all(c and all(c.coefficients()) for _, c in image.items())


class TestSatakeGLDet:
    def test_r0_is_one(self):
        assert satake_gl_det(3, 0) == SatakeGL(3, {(0, 0, 0): 1})

    def test_r1(self):
        assert satake_gl_det(3, 1) == SatakeGL(3, {(1, 0, 0): qp("q^2")})

    def test_r2(self):
        expected = SatakeGL(3, {(2, 0, 0): qp("q^4"), (1, 1, 0): qp("q^4")})
        assert satake_gl_det(3, 2) == expected

    def test_rank2(self):
        assert satake_gl_det(2, 2) == SatakeGL(
            2, {(2, 0): qp("q^2"), (1, 1): qp("q^2")}
        )

    def test_unsupported_rank(self):
        with pytest.raises(ValueError):
            satake_gl_det(4, 1)


class TestU3Indicator:
    def test_r0(self):
        assert satake_u3_indicator(0) == SatakeY({0: 1})

    def test_r1(self):
        assert satake_u3_indicator(1) == SatakeY({1: qp("q^2"), 0: qp("q")})

    def test_r2(self):
        expected = SatakeY({2: qp("q^4"), 1: qp("q^3"), 0: qp("q^4")})
        assert satake_u3_indicator(2) == expected


class TestBcMonomialRule:
    def test_unit(self):
        assert bc_gl3_to_u3(SatakeGL(3, {(0, 0, 0): 1})) == SatakeY({0: 1})

    def test_first_orbit(self):
        got = bc_gl3_to_u3(SatakeGL(3, {(1, 0, 0): 1}))
        assert got == SatakeY({1: 1, 0: 1})  # Y + 1 + Y^-1

    def test_determinant_route(self):
        two = qp("q^2")
        for r in range(9):
            image = bc_gl3_to_u3(satake_gl_det(3, r))
            if r:
                image = image - bc_gl3_to_u3(satake_gl_det(3, r - 1)).scale(two)
            expected = SatakeY({i: qp(f"q^{2 * r}") for i in range(r % 2, r + 1, 2)})
            assert image == expected, r


class TestFiberProjection:
    def test_r0(self):
        assert proj_fiber_gl3(0) == {0: QPolynomial.one()}

    def test_r1(self):
        got = proj_fiber_gl3(1)
        assert got == {0: qp("q^2 + q + 1"), 1: qp("1")}

    def test_difference_identity(self):
        two = qp("q^2")
        for r in range(1, 9):
            cur, prev = proj_fiber_gl3(r), proj_fiber_gl3(r - 1)
            for j in range(r + 1):
                lhs = cur[j] - (prev[j] * two if j < r else QPolynomial.zero())
                assert lhs == QPolynomial.geometric(r - j), (r, j)


class TestBcS3:
    def test_basis_zero(self):
        assert bc_s3_on_basis(0) == SatakeY({0: 1})

    def test_aggregate_identity_r1(self):
        b0, b1 = bc_s3_table(1)
        assert b0.scale(qp("2q + 1")) + b1 == satake_u3_indicator(1)

    def test_single_cell_identity(self):
        images = bc_s3_table(8)
        for r in range(9):
            lhs = images[r]
            for j in range(r):
                lhs = lhs + images[j].scale(qp(f"2q^{r - j}"))
            assert lhs == satake_u3_indicator(r) - satake_u3_indicator(r - 1), r

    def test_table_matches_subtract_and_scale_reference(self):
        images, reference = bc_s3_table(60), bc_s3_table_reference(60)
        assert len(images) == 61
        for j, (image, expected) in enumerate(zip(images, reference)):
            assert image == expected, j
            assert bc_s3_on_basis(j) == expected and not has_zero_coefficient(image), j

    def test_unit_diagonal(self):
        for r in range(6):
            assert bc_s3_weight(r, r) == QPolynomial.one()


class TestBcS2:
    def test_r0_identity(self):
        assert bc_s2_combo_image(0) == SatakeY({0: 1})
        assert bc_s2_on_basis(0) == SatakeY({0: 1})

    def test_r1_combo(self):
        # -(q(Y + 1 + Y^-1) - 1)
        assert bc_s2_combo_image(1) == SatakeY({1: qp("-q"), 0: qp("1 - q")})

    def test_basis_matches_triangular_solve_reference(self):
        for r, expected in enumerate(bc_s2_table_reference(60)):
            image = bc_s2_on_basis(r)
            assert image == expected and not has_zero_coefficient(image), r

    def test_triangular_solve(self):
        for r in range(9):
            lhs = bc_s2_on_basis(r)
            if r:
                lhs = lhs + bc_s2_on_basis(r - 1)
            assert lhs == bc_s2_combo_image(r), r

    def test_p_r_shape(self):
        assert p_r_polynomial(0) == SatakeY({0: 1})
        for r in range(3, 9):
            got = p_r_polynomial(r) - p_r_polynomial(r - 1).scale(qp("q"))
            expected = SatakeY(
                {
                    r: qp(f"q^{r}"),
                    r - 1: qp(f"-2q^{r - 1}"),
                    r - 2: qp(f"q^{r - 2}"),
                }
            )
            assert got == expected, r

    def test_palindromic_storage(self):
        with pytest.raises(ValueError):
            SatakeY({-1: 1})

    def test_y_json_roundtrip(self):
        y = satake_u3_indicator(3)
        assert SatakeY.from_json(y.to_json()) == y

    def test_str(self):
        assert str(satake_u3_indicator(1)) == "q^2(Y+Y^-1) + q"
