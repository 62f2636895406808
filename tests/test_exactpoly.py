"""Ring operations and the two s-space evaluations."""

import json
from fractions import Fraction

import pytest
from helpers import div_exact, qp, series, series_from_json, series_mul, support
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semilie import HeckeVector, LaurentSeries, QPolynomial, SatakeGL, SatakeY
from semilie.exactpoly import unpack, width_for

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
    assert series_mul(one_minus, one_plus) == LaurentSeries({0: qp("1"), 2: qp("-1")})
    assert series_mul(LaurentSeries.zero(), one_plus) == LaurentSeries.zero()
    assert qp("0") * qp("q^5") == QPolynomial.zero()


def test_canonical_no_zero_terms():
    p = qp("q + 1") - qp("q")
    assert dict(p.items()) == {0: 1}
    assert (p - QPolynomial.one()).is_zero()


# The sparse containers, each built from (int key, coefficient) pairs;
# SatakeGL(3, .) takes the int key k to the exponent tuple (k, 0, 0).  Each
# comes with two coefficients of its kind that sum to 1, and the strategy
# its coefficients are drawn from: QPolynomial takes scalars only.
poly_coeffs = (qp("q + 1"), qp("-q"), st.one_of(coeffs, qpolys))
CONTAINERS = {
    "LaurentSeries": (LaurentSeries, *poly_coeffs),
    "SatakeY": (SatakeY, *poly_coeffs),
    "HeckeVector": (HeckeVector, *poly_coeffs),
    "SatakeGL3": (lambda pairs: SatakeGL(3, [((0, k, 0), c) for k, c in pairs]), *poly_coeffs),
    "QPolynomial": (QPolynomial, Fraction(5, 2), Fraction(-3, 2), coeffs),
}
containers = pytest.mark.parametrize("make, p, r, coeff", CONTAINERS.values(), ids=CONTAINERS.keys())


def assert_canonical(x):
    assert all(c for _, c in x.items()), x
    for _, c in x.items():
        assert not isinstance(c, Fraction) or c.denominator > 1, x


@containers
def test_container_canonical_no_zero_terms(make, p, r, coeff):
    assert make([(1, p), (1, -p)]).is_zero()
    assert not make([(0, 0), (2, p - p)])
    x = make([(1, p), (1, r), (2, 3), (2, Fraction(-3))])
    assert_canonical(x)
    assert len(x.items()) == 1 and x == make([(1, 1)])
    assert x.scale(0).is_zero()


@containers
@settings(max_examples=25)  # five classes share one implementation
@given(data=st.data())
def test_container_module_axioms(make, p, r, coeff, data):
    terms = st.lists(st.tuples(st.integers(0, 4), coeff), max_size=6)
    a, b, c = make(data.draw(terms)), make(data.draw(terms)), data.draw(coeff)
    for x in (a + b, a - b, -a, a.scale(c)):
        assert_canonical(x)
    assert a + b - b == a
    assert hash(a + b - b) == hash(a)
    assert (a - a).is_zero()
    assert (a + (-a)).is_zero()
    assert a.scale(c) + b.scale(c) == (a + b).scale(c)


def test_container_classes_never_equal():
    values = [make([(0, 1)]) for make, *_ in CONTAINERS.values()]
    values += [make([]) for make, *_ in CONTAINERS.values()]
    values += [SatakeGL(2), SatakeGL(2, {(0, 0): 1})]
    for i, x in enumerate(values):
        for j, y in enumerate(values):
            assert (x == y) == (i == j), (x, y)
    with pytest.raises(TypeError):
        LaurentSeries({0: 1}) + SatakeY({0: 1})
    with pytest.raises(TypeError):
        QPolynomial({0: 1}) + LaurentSeries({0: 1})
    with pytest.raises(ValueError):
        SatakeGL(2) + SatakeGL(3)


# Scalars, the constants they make, and small polynomials: a space where
# equal pairs across kinds come up often.
_hashables = st.one_of(
    coeffs,
    coeffs.map(QPolynomial.constant),
    st.builds(QPolynomial, st.dictionaries(st.integers(-1, 1), st.integers(-1, 1), max_size=2)),
)


@given(_hashables, _hashables)
@example(QPolynomial.one(), 1)
@example(QPolynomial.zero(), 0)
@example(QPolynomial.constant(Fraction(-3, 2)), Fraction(-3, 2))
@example(QPolynomial({1: 1}), 1)
def test_hash_agrees_with_equality(a, b):
    if a == b:
        assert hash(a) == hash(b), (a, b)
    assert len({a, b}) == (1 if a == b else 2)


def test_container_key_rules():
    with pytest.raises(ValueError):
        SatakeY({-1: 1})
    assert HeckeVector({-1: 1}).is_zero()
    assert [k for k, _ in SatakeGL(3, {(0, 1, 0): 1}).items()] == [(1, 0, 0)]
    with pytest.raises(ValueError):
        SatakeGL(3, {(1, 0): 1})
    assert support(LaurentSeries({-3: 1})) == [-3]


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


@st.composite
def s_eval_series(draw):
    """Series with negative T-exponents whose s-evaluations may cancel to
    zero or sum Fraction halves to an integer."""
    pairs = draw(st.lists(st.tuples(st.integers(-6, 6), qpolys), max_size=4))
    k1, j = draw(st.integers(-6, 6)), draw(st.integers(-3, 3))
    p = draw(qpolys)
    extra = draw(st.sampled_from(["none", "cancel_at_one", "cancel_log_derivative", "halves"]))
    if extra == "cancel_at_one":
        pairs += [(k1, p), (k1 + j, -p)]
    elif extra == "cancel_log_derivative":
        pairs += [(k1, p), (-k1, p)]
    elif extra == "halves":
        half = QPolynomial({j: Fraction(1, 2)})
        pairs += [(k1, half), (k1 + 2 * j + 2, half)]
    return LaurentSeries(pairs)


def at_one_reference(f):
    total = QPolynomial.zero()
    for _, p in f.items():
        total = total + p
    return total


def log_derivative_reference(f):
    total = QPolynomial.zero()
    for k, p in f.items():
        total = total + p.scale(k)
    return total


def assert_canonical_scalars(poly):
    for _, c in poly.items():
        assert c != 0, poly
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), poly


@settings(max_examples=25)
@given(s_eval_series())
@example(LaurentSeries({-1: qp("q - 1"), 2: qp("-q + 1")}))
@example(LaurentSeries({-3: qp("(1/2)q"), 1: qp("(1/2)q - 2"), 0: qp("(1/3)")}))
def test_s_evaluations_match_reference(f):
    for got, want in (
        (f.at_one(), at_one_reference(f)),
        (f.log_derivative_at_zero(), log_derivative_reference(f)),
    ):
        assert got == want
        assert_canonical_scalars(got)


def test_div_exact():
    a = qp("q^2 - 1")
    b = qp("q - 1")
    assert div_exact(a, b) == qp("q + 1")
    assert div_exact(qp("q - q^-1"), qp("q^-1")) == qp("q^2 - 1")
    with pytest.raises(ArithmeticError):
        div_exact(qp("q^2 + 1"), qp("q - 1"))


@given(qpolys, qpolys, st.integers(-6, 6))
def test_div_exact_inverts_multiplication(a, b, e):
    """div_exact undoes a product, keeping int coefficients int, and a
    product plus a monomial is no multiple of a b that is not a monomial."""
    if b.is_zero():
        return
    quotient = div_exact(a * b, b)
    assert quotient == a
    assert_canonical_scalars(quotient)
    if len(b) >= 2:
        with pytest.raises(ArithmeticError):
            div_exact(a * b + QPolynomial.q_power(e), b)


def test_evaluate():
    assert qp("q^2 + q + 1").evaluate(3) == 13
    assert qp("q^-1").evaluate(2) == Fraction(1, 2)


def evaluate_reference(p, q):
    total = Fraction(0)
    for e, c in p.items():
        total += Fraction(c) * Fraction(q) ** e
    return total


@given(qpolys, st.one_of(coeffs, st.fractions(max_denominator=10**6)))
def test_evaluate_matches_per_term_reference(p, q):
    if not q and p and p.min_exponent() < 0:
        with pytest.raises(ZeroDivisionError):
            p.evaluate(q)
        return
    value = p.evaluate(q)
    assert value == evaluate_reference(p, q)
    assert type(value) is int or (type(value) is Fraction and value.denominator > 1)


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
    assert series_from_json(s.to_json()) == s
    exponents = [t[0] for t in p.to_json()["q_terms"]]
    assert exponents == sorted(exponents)


def to_json_reference(p):
    """The encoding through one Fraction per term."""
    triples = []
    for e in sorted(p._terms):
        c = Fraction(p._terms[e])
        triples.append([e, c.numerator, c.denominator])
    return {"q_terms": triples}


@given(qpolys)
@example(QPolynomial({-3: Fraction(-5, 4), 0: 7, 2: -1}))
@example(QPolynomial({-1: -2, 1: Fraction(1, 3), 4: 9}))
def test_to_json_matches_fraction_reference(p):
    got = p.to_json()
    assert json.dumps(got) == json.dumps(to_json_reference(p))
    assert all(type(x) is int for triple in got["q_terms"] for x in triple)
    assert QPolynomial.from_json(json.loads(json.dumps(got))) == p


def test_series_to_json_is_the_per_row_encoding():
    x = 5 + (3 << 8)  # 3q + 5 at 8 bits per digit
    s = LaurentSeries._from_rows((-1, [x, 1, 0, 0, x, 0]), 8)  # T**-1 .. T**4
    got = s.to_json()
    per_row = {"t_terms": [[k, s._terms[k].to_json()] for k in sorted(s._terms)]}
    assert json.dumps(got) == json.dumps(per_row)
    rows = dict(got["t_terms"])
    assert rows[0] == {"q_terms": [[0, 1, 1]]}


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
    assert series_mul(series_mul(f, g), h) == series_mul(f, series_mul(g, h))
    assert series_mul(f, g + h) == series_mul(f, g) + series_mul(f, h)


@given(t_series, t_series, st.integers(-5, 5), st.integers(-5, 5))
def test_log_derivative_linear(f, g, a, b):
    lhs = (f.scale(a) + g.scale(b)).log_derivative_at_zero()
    rhs = f.log_derivative_at_zero().scale(a) + g.log_derivative_at_zero().scale(b)
    assert lhs == rhs


@given(t_series, t_series)
def test_at_one_is_ring_hom(f, g):
    assert (f + g).at_one() == f.at_one() + g.at_one()
    assert series_mul(f, g).at_one() == f.at_one() * g.at_one()


def test_width_for_is_the_least_width_that_holds_its_bound():
    """A polynomial with coefficients +-b packs at ``width_for(b)`` and
    unpacks back to itself; one bit lower, a coefficient of b does not
    pack, at either sign, for b = 1, 2, 3 and 2**k - 1, 2**k, 2**k + 1 up
    to k = 70."""
    for b in sorted({1, 2, 3} | {2**k + d for k in range(2, 71) for d in (-1, 0, 1)}):
        width = width_for(b)
        poly = QPolynomial({0: b, 1: -b, 3: b, 4: -1})
        x = poly._packed(width)
        assert x is not None and unpack(x, width) == {0: b, 1: -b, 3: b, 4: -1}, b
        assert QPolynomial._from_packed(x, width) == poly
        assert QPolynomial.constant(b)._packed(width - 1) is None, b
        assert QPolynomial.q_power(2, -b)._packed(width - 1) is None, b
