"""Gross-Keating values, intersection numbers, and the identity chain."""

import random
from fractions import Fraction

import pytest
from helpers import (
    gk_from_params,
    qp,
    reference_derivative,
    reference_gross_keating,
    reference_int_circ,
    reference_int_total,
)

from semilie import (
    INFINITY,
    GeometricParams,
    GKPair,
    InvalidParamsError,
    OrbitalParams,
    PartialOrbitalParams,
    QPolynomial,
    derivative_combo,
    geom_to_orbital,
    gross_keating,
    int_circ,
    int_circ_kr_closed,
    int_total,
    verify_miracle,
)
from semilie import intersection, orbital
from semilie.intersection import _packed_gk, _total_width
from semilie.orbital import _derivative_tables

GRID = [
    OrbitalParams(r=r, vb=0, vc=s, ve=ve, vda=vda)
    for r in (0, 1, 2, 3)
    for s in (1, 3, 5, 7)
    for ve in (0, 1, 2, 3, 4, 6)
    for vda in (0, 1, 2, 3, INFINITY)
]


class TestGrossKeating:
    def test_small_pairs(self):
        assert gross_keating(GKPair(1, 1)) == qp("2")
        assert gross_keating(GKPair(2, 3)) == qp("q + 5")
        assert gross_keating(GKPair(0, 5)) == qp("3")

    def test_empty_sentinel(self):
        assert gross_keating(GKPair.empty()).is_zero()

    def test_matches_constructor_form(self):
        """The one-dict build against the sum of the generic constructor and
        a q-power, with the top coefficient collapsed to an int when it can be."""
        for n1 in range(61):
            for n2 in range(n1, 91):
                terms = {j: n1 + n2 - 4 * j for j in range((n1 - 1) // 2 + 1 if n1 % 2 else n1 // 2)}
                want = QPolynomial(terms)
                if n1 % 2 == 0:
                    want = want + QPolynomial.q_power(n1 // 2, Fraction(n2 - n1 + 1, 2))
                got = gross_keating(GKPair(n1, n2))
                assert got == want, (n1, n2)
                assert all(type(c) is int or c.denominator > 1 for c in got.coefficients()), (n1, n2)

    def test_inverted_pair_rejected(self):
        with pytest.raises(ValueError, match="n1 <= n2"):
            GKPair(3, 1)

    @pytest.mark.parametrize("n1, n2", [(-5, 3), (-1, -7), (-1, 0), (-2, -2), (0, -1), (2, -3)])
    def test_negative_pair_rejected(self, n1, n2):
        """Only the sentinel (-1, -1) of ``empty()`` may hold a negative."""
        with pytest.raises(InvalidParamsError, match="0 <= n1 <= n2"):
            GKPair(n1, n2)

    @pytest.mark.parametrize("n1, n2", [(True, 2), (1, 2.0), (1.0, 2), (0, False)])
    def test_non_int_pair_rejected(self, n1, n2):
        with pytest.raises(InvalidParamsError, match="must be an int"):
            GKPair(n1, n2)


class TestTranslation:
    def test_direct_min(self):
        assert gk_from_params(OrbitalParams(r=0, vb=0, vc=3, ve=1, vda=1)) == GKPair(2, 3)
        assert gk_from_params(OrbitalParams(r=1, vb=0, vc=3, ve=0, vda=0)) == GKPair(0, 5)

    def test_vanishing_sentinel(self):
        assert gk_from_params(OrbitalParams(r=0, vb=0, vc=1, ve=-1, vda=0)).is_empty()

    def test_int_circ_at_ve_zero_reaches_the_sentinel(self):
        """int_circ at ve = 0 subtracts the empty pair at ve - 1 = -1."""
        p = OrbitalParams(r=1, vb=0, vc=3, ve=0, vda=0)
        assert gk_from_params(p.with_ve(-1)) == GKPair.empty()
        assert int_circ(p) == reference_gross_keating(gk_from_params(p))

    def test_pair_sum_invariant(self):
        for p in GRID:
            pair = gk_from_params(p)
            assert pair.n1 + pair.n2 == 2 * p.ve + p.vb + p.vc + 2 * p.r


class TestIntCirc:
    def test_examples(self):
        assert int_circ(OrbitalParams(r=0, vb=0, vc=3, ve=1, vda=1)) == qp("q + 3")
        assert int_circ(OrbitalParams(r=1, vb=0, vc=3, ve=0, vda=0)) == qp("3")

    def test_negative_ve_rejected(self):
        with pytest.raises(InvalidParamsError):
            int_circ(OrbitalParams(r=0, vb=0, vc=1, ve=-1, vda=0))


class TestIntTotal:
    def test_examples(self):
        assert int_total(OrbitalParams(r=0, vb=0, vc=3, ve=1, vda=1)) == qp("q + 3")
        assert int_total(OrbitalParams(r=0, vb=0, vc=1, ve=0, vda=0)) == qp("1")

    def test_matches_derivative_on_grid(self):
        for p in GRID:
            assert int_total(p) == reference_derivative(p), p


class TestPacked:
    def test_packed_gk_decodes_to_gross_keating_at_every_integral_pair(self):
        """Every integral pair 0 <= n1 <= n2 <= 90 (n1 odd, or n2 - n1 odd):
        the packed value decodes to ``reference_gross_keating``, with its coefficients
        in [1, n1 + n2], the bound every packing width rests on."""
        width = (2 * 90).bit_length() + 1
        tables = _derivative_tables(width, 45)
        pairs = 0
        for n1 in range(91):
            for n2 in range(n1, 91):
                if n1 % 2 == 0 and (n2 - n1) % 2 == 0:
                    continue  # a Fraction top coefficient: no orbit gives such a pair
                got = QPolynomial._from_packed(_packed_gk(n1, n2, tables), width)
                assert got == reference_gross_keating(GKPair(n1, n2)), (n1, n2)
                assert all(1 <= c <= n1 + n2 for c in got.coefficients()), (n1, n2)
                pairs += 1
        assert pairs == 4186 - 1081  # all pairs less those with n1 and n2 both even

    @pytest.mark.parametrize("ve", [0, 1, 2, 3, 4, 9, 24, 60])
    def test_int_total_and_int_circ_match_the_reference_sums(self, ve):
        """``int_total`` and ``int_circ`` equal the ``QPolynomial`` sums of
        ``reference_gross_keating`` values past calculator ranges (r <= 30, vb + vc <=
        41, ve <= 60, vda in {0..20, INFINITY}) at the splits vb in {-50, 0,
        vb + vc}.  And the width holds the sum's coefficient bound: the plain
        sum of the ve + 1 Gross-Keating values, whose coefficients bound
        those of every signed sum of them, stays within M = (ve + 1)(2 ve +
        vb + vc + 2r) < 2**(width - 1)."""
        for r in (0, 1, 2, 3, 7, 30):
            for s in (1, 3, 5, 9, 41):
                for vda in (*range(21), INFINITY):
                    base = OrbitalParams(r=r, vb=0, vc=s, ve=ve, vda=vda)
                    total, circ = reference_int_total(base), reference_int_circ(base)
                    for vb in (-50, 0, s):
                        p = OrbitalParams(r=r, vb=vb, vc=s - vb, ve=ve, vda=vda)
                        assert int_total(p) == total and int_circ(p) == circ, p
                    values = [reference_gross_keating(gk_from_params(base.with_ve(i))) for i in range(ve + 1)]
                    absolute = sum(values, QPolynomial.zero())
                    bound = (ve + 1) * (2 * ve + s + 2 * r)
                    assert max(absolute.coefficients()) <= bound < 2 ** (_total_width(base) - 1), base

    def test_int_circ_reads_the_two_degrees_alone(self, monkeypatch):
        """``int_circ`` builds no O(n**2) prefix tables, only the two top
        sums it reads, and equals ``reference_int_circ`` on seeded tuples in
        the calculator's ranges (r <= 30, vb in [-50, vb + vc], odd vb + vc
        <= 41, ve <= 40, vda in {0..20, INFINITY}) and at ve 0 and 1."""
        built = []

        def counted(*args):
            built.append(args)
            return _derivative_tables(*args)

        monkeypatch.setattr(orbital, "_derivative_tables", counted)
        monkeypatch.setattr(intersection, "_derivative_tables", counted)
        rng = random.Random(33)
        tuples = [OrbitalParams(r=0, vb=0, vc=1, ve=0, vda=0), OrbitalParams(r=2, vb=-3, vc=6, ve=1, vda=INFINITY)]
        for _ in range(300):
            s = rng.randrange(1, 42, 2)
            vb = rng.randint(-50, s)
            tuples.append(OrbitalParams(rng.randint(0, 30), vb, s - vb, rng.randint(0, 40), rng.choice([*range(21), INFINITY])))
        for p in tuples:
            assert int_circ(p) == reference_int_circ(p), p
        assert not built


class TestMiracle:
    def test_examples(self):
        assert verify_miracle(OrbitalParams(r=0, vb=0, vc=3, ve=1, vda=1))["pass"]
        assert verify_miracle(OrbitalParams(r=0, vb=0, vc=1, ve=0, vda=0))["pass"]

    def test_grid(self):
        for p in GRID:
            report = verify_miracle(p)
            assert report["pass"], report


class TestCleanIntersection:
    def test_first_case(self):
        p = OrbitalParams(r=1, vb=0, vc=3, ve=1, vda=0)
        assert int_circ_kr_closed(p) == qp("2q + 3")

    def test_second_case(self):
        p = OrbitalParams(r=1, vb=0, vc=1, ve=3, vda=1)
        assert int_circ_kr_closed(p) == qp("2q")

    def test_third_case(self):
        p = OrbitalParams(r=1, vb=0, vc=5, ve=1, vda=3)
        assert int_circ_kr_closed(p) == qp("q + 1")

    def test_preconditions(self):
        with pytest.raises(InvalidParamsError, match="r >= 1"):
            int_circ_kr_closed(OrbitalParams(r=0, vb=0, vc=3, ve=1, vda=0))
        with pytest.raises(InvalidParamsError, match="ve >= 1"):
            int_circ_kr_closed(OrbitalParams(r=1, vb=0, vc=3, ve=0, vda=0))

    def test_matches_gk_difference_on_grid(self):
        for p in GRID:
            if p.r < 1 or p.ve < 1:
                continue
            diff = int_circ(p) - int_circ(p.with_r(p.r - 1))
            assert int_circ_kr_closed(p) == diff, p


class TestAflChain:
    def test_total_difference_equals_combo(self):
        for p in GRID:
            if p.r < 1:
                continue
            lhs = int_total(p) - int_total(p.with_r(p.r - 1))
            assert lhs == derivative_combo(p), p

    def test_signed_dressing(self):
        # Dressed with (-1)**r on the geometric side and the transfer factor
        # on the analytic side, both sides agree because the raw identity
        # does: (-1)**r [Int(r) - Int(r-1)] == (-1)**vc * (dOrb-combo / log q).
        for p in GRID[: len(GRID) // 3]:
            if p.r < 1:
                continue
            lhs = (int_total(p) - int_total(p.with_r(p.r - 1))).scale((-1) ** p.r)
            raw_combo = derivative_combo(p).scale((-1) ** ((p.vc + p.r) % 2))
            rhs = raw_combo.scale((-1) ** p.vc)
            assert lhs == rhs, p


class TestGeomTranslation:
    def test_direct_substitution(self):
        partial = geom_to_orbital(GeometricParams(v_nm_u=1, v_beta=1, v_alpha_diff=1))
        assert (partial.sum_bc, partial.ve, partial.vda) == (3, 1, 1)
        partial = geom_to_orbital(GeometricParams(v_nm_u=0, v_beta=0, v_alpha_diff=INFINITY))
        assert (partial.sum_bc, partial.ve, partial.vda) == (1, 0, INFINITY)

    def test_degree_bound_translates(self):
        # min(v(Nm u), v(beta) + r, v(alpha - conj(alpha)) + r) on the unitary
        # side becomes the orbital degree bound N under the translation.
        for v_nm_u in (0, 1, 3):
            for v_beta in (0, 2):
                for v_ad in (0, 1, 4, INFINITY):
                    g = GeometricParams(v_nm_u, v_beta, v_ad)
                    for r in (1, 2):
                        p = geom_to_orbital(g).complete(r)
                        assert p.n_bound() == min(v_nm_u, v_beta + r, v_ad + r)

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            GeometricParams(-1, 0, 0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("v_nm_u", 1.5), ("v_nm_u", True), ("v_nm_u", Fraction(1)),
            ("v_beta", 1.0), ("v_beta", False), ("v_beta", Fraction(1)),
            ("v_alpha_diff", 2.0), ("v_alpha_diff", True), ("v_alpha_diff", Fraction(2)),
        ],
    )
    def test_non_int_geometry_rejected(self, field, value):
        fields = {"v_nm_u": 1, "v_beta": 1, "v_alpha_diff": 2, field: value}
        with pytest.raises(InvalidParamsError, match=f"{field} must be an int"):
            geom_to_orbital(GeometricParams(**fields)).complete(1)

    @pytest.mark.parametrize("field, value", [("ve", 1.5), ("ve", True), ("vda", Fraction(2)), ("sum_bc", 3.0)])
    def test_partial_params_checked_on_completion(self, field, value):
        fields = {"sum_bc": 3, "ve": 1, "vda": 2, field: value}
        with pytest.raises(InvalidParamsError, match="vc" if field == "sum_bc" else field):
            PartialOrbitalParams(**fields).complete(1)
