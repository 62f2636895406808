"""Ring operations and the two s-space evaluations."""

from fractions import Fraction

import pytest
from helpers import qp, series
from hypothesis import given, settings
from hypothesis import strategies as st

from semilie import HeckeVector, LaurentSeries, QPolynomial, SatakeGL, SatakeY

coeffs = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=7),
)
qpolys = st.builds(
    QPolynomial, st.dictionaries(st.integers(-6, 6), coeffs, max_size=5)
)
t_series = st.builds(
    LaurentSeries, st.dictionaries(st.integers(-4, 4), qpolys, max_size=4)
)


def test_parser_roundtrip():
    assert qp("2q") == QPolynomial({1: 2})
    assert qp("-q^3 + q^-2 - 5") == QPolynomial({3: -1, -2: 1, 0: -5})
    assert qp("(3/2)q^2") == QPolynomial({2: Fraction(3, 2)})


def test_ring_identities():
    assert qp("q + 1") + qp("q - 1") == qp("2q")
    one_minus = LaurentSeries({0: qp("1"), 1: qp("-1")})
    one_plus = LaurentSeries({0: qp("1"), 1: qp("1")})
    assert one_minus * one_plus == LaurentSeries({0: qp("1"), 2: qp("-1")})
    assert LaurentSeries.zero() * one_plus == LaurentSeries.zero()
    assert qp("0") * qp("q^5") == QPolynomial.zero()


def test_canonical_no_zero_terms():
    p = qp("q + 1") - qp("q")
    assert dict(p.items()) == {0: 1}
    assert (p - QPolynomial.one()).is_zero()


# The four KeyedModule containers, each built from (int key, coefficient)
# pairs; SatakeGL(3, .) takes the int key k to the exponent tuple (k, 0, 0).
CONTAINERS = {
    "LaurentSeries": LaurentSeries,
    "SatakeY": SatakeY,
    "HeckeVector": HeckeVector,
    "SatakeGL3": lambda pairs: SatakeGL(3, [((0, k, 0), c) for k, c in pairs]),
}
containers = pytest.mark.parametrize("make", CONTAINERS.values(), ids=CONTAINERS.keys())
container_terms = st.lists(st.tuples(st.integers(0, 4), st.one_of(coeffs, qpolys)), max_size=6)


def assert_canonical(x):
    assert all(p for _, p in x.items()), x


@containers
def test_container_canonical_no_zero_terms(make):
    assert make([(1, qp("q + 1")), (1, qp("-q - 1"))]).is_zero()
    assert not make([(0, 0), (2, QPolynomial.zero())])
    x = make([(1, qp("q + 1")), (1, qp("-q")), (2, 3), (2, Fraction(-3))])
    assert_canonical(x)
    assert len(x.items()) == 1 and x == make([(1, 1)])
    assert x.scale(0).is_zero()


@containers
@settings(max_examples=25)  # four classes share one implementation
@given(container_terms, container_terms, st.one_of(coeffs, qpolys))
def test_container_module_axioms(make, a_terms, b_terms, c):
    a, b = make(a_terms), make(b_terms)
    for x in (a + b, a - b, -a, a.scale(c)):
        assert_canonical(x)
    assert a + b - b == a
    assert hash(a + b - b) == hash(a)
    assert (a - a).is_zero()
    assert (a + (-a)).is_zero()
    assert a.scale(c) + b.scale(c) == (a + b).scale(c)


def test_container_classes_never_equal():
    values = [make([(0, 1)]) for make in CONTAINERS.values()]
    values += [make([]) for make in CONTAINERS.values()]
    values += [SatakeGL(2), SatakeGL(2, {(0, 0): 1})]
    for i, x in enumerate(values):
        for j, y in enumerate(values):
            assert (x == y) == (i == j), (x, y)
    with pytest.raises(TypeError):
        LaurentSeries({0: 1}) + SatakeY({0: 1})
    with pytest.raises(ValueError):
        SatakeGL(2) + SatakeGL(3)


def test_container_key_rules():
    with pytest.raises(ValueError):
        SatakeY({-1: 1})
    assert HeckeVector({-1: 1}).is_zero()
    assert [k for k, _ in SatakeGL(3, {(0, 1, 0): 1}).items()] == [(1, 0, 0)]
    with pytest.raises(ValueError):
        SatakeGL(3, {(1, 0): 1})
    assert LaurentSeries({-3: 1}).support() == [-3]


def test_geometric():
    assert QPolynomial.geometric(3) == qp("q^3 + q^2 + q + 1")
    assert QPolynomial.geometric(0) == qp("1")
    assert QPolynomial.geometric(-1).is_zero()


def test_at_one():
    assert LaurentSeries({0: qp("1"), 1: qp("-1")}).at_one().is_zero()
    assert series({-1: "-1", 0: "1", 1: "-1", 2: "1"}).at_one().is_zero()
    assert LaurentSeries({0: qp("q")}).at_one() == qp("q")


def test_log_derivative_at_zero():
    assert LaurentSeries({0: qp("1"), 1: qp("-1")}).log_derivative_at_zero() == qp("-1")
    assert LaurentSeries({-1: qp("-1"), 1: qp("1")}).log_derivative_at_zero() == qp("2")
    assert series({0: "1", 1: "-1"}).log_derivative_at_zero() == qp("-1")


def test_div_exact():
    a = qp("q^2 - 1")
    b = qp("q - 1")
    assert a.div_exact(b) == qp("q + 1")
    assert qp("q - q^-1").div_exact(qp("q^-1")) == qp("q^2 - 1")
    with pytest.raises(ArithmeticError):
        qp("q^2 + 1").div_exact(qp("q - 1"))


def test_evaluate():
    assert qp("q^2 + q + 1").evaluate(3) == 13
    assert qp("q^-1").evaluate(2) == Fraction(1, 2)


def test_str_formats():
    assert str(qp("q + 5")) == "q + 5"
    assert str(qp("-6q^6 - 7q^5")) == "-6q^6 - 7q^5"
    assert str(QPolynomial.zero()) == "0"
    s = LaurentSeries({-1: qp("-1"), 0: qp("1"), 1: qp("-1"), 2: qp("1")})
    assert str(s) == "-T^-1 + 1 - T + T^2"


def test_json_roundtrip():
    p = qp("(3/2)q^2 - q^-3 + 7")
    assert QPolynomial.from_json(p.to_json()) == p
    s = LaurentSeries({-2: p, 5: qp("q")})
    assert LaurentSeries.from_json(s.to_json()) == s
    exponents = [t[0] for t in p.to_json()["q_terms"]]
    assert exponents == sorted(exponents)


@given(qpolys, qpolys, qpolys)
def test_qpoly_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + QPolynomial.zero() == a
    assert a * QPolynomial.one() == a
    assert (a - a).is_zero()


@given(t_series, t_series, t_series)
def test_series_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@given(t_series, t_series, st.integers(-5, 5), st.integers(-5, 5))
def test_log_derivative_linear(f, g, a, b):
    lhs = (f.scale(a) + g.scale(b)).log_derivative_at_zero()
    rhs = f.log_derivative_at_zero().scale(a) + g.log_derivative_at_zero().scale(b)
    assert lhs == rhs


@given(t_series, t_series)
def test_at_one_is_ring_hom(f, g):
    assert (f + g).at_one() == f.at_one() + g.at_one()
    assert (f * g).at_one() == f.at_one() * g.at_one()
