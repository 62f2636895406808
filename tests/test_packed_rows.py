"""Packed T-power rows: the exactpoly codec and the orbital row builders.

A row is a q-polynomial packed as its value at q = 2**width.  The reference
builders below accumulate the same two series term by term into
{k: {e: c}} maps, with no packing, so every packed row can be checked
against the map it must unpack to.  Every site that decodes packed ints
decodes each distinct int once.
"""

import dataclasses
import functools
import random
from fractions import Fraction

import pytest
from helpers import (
    full_tuples,
    orbit_fields,
    pack_row,
    reference_closed_form_rows,
    reference_derivative,
    reference_first_sign_break,
    reference_row_sums,
    reference_support_sum_rows,
    tables_at,
)
from hypothesis import HealthCheck, given, note, settings
from hypothesis import strategies as st

from semilie import INFINITY, LaurentSeries, OrbitalParams, QPolynomial, build_matrix, cli, exactpoly
from semilie.cli import _json
from semilie.exactpoly import _sign_mask, unpack
from semilie.kernel import _packed_matrix, _reduce_rows
from semilie.orbital import (
    _closed_form_rows,
    _derivative_tables,
    _packed_derivative,
    _support_sum_rows,
    row_width,
    support_points,
)
from semilie.verify import SweepConfig, _first_sign_break, _orbital_width, _row_sums

SMALL = SweepConfig(r_max=2, sum_bc_max=3, ve_max=3, vda_max=2)


def add_term(acc, k, e, c):
    coeff = acc.setdefault(k, {})
    coeff[e] = coeff.get(e, 0) + c
    if not coeff[e]:
        del coeff[e]


def reference_closed_form(p):
    """The closed form of ``orbital_closed_form``'s docstring, as a map."""
    acc = {}
    if p.ve < 0:
        return acc
    r, vb, vc, ve, vda = p.r, p.vb, p.vc, p.ve, p.vda
    lo, hi = -(vb + r), 2 * ve + vc + r
    for k in range(lo, hi + 1):
        for e in range(min((k - lo) // 2, (hi - k) // 2, p.n_bound()) + 1):
            add_term(acc, k, e, (-1) ** k)
    if vda < ve - r and vb + vc > 2 * vda:
        c_lo, c_hi = 2 * vda - vb + r, 2 * ve + vc - 2 * vda - r
        for k in range(c_lo, c_hi + 1):
            c_k = min(k - c_lo, c_hi - k, ve - vda - r)
            if c_k:
                add_term(acc, k, vda + r, (-1) ** k * c_k)
    return {k: c for k, c in acc.items() if c}


def reference_support_sum(p):
    """The support-lattice sum of ``orbital_support_sum``'s docstring, as a map."""
    acc = {}
    r, vb, vc, ve = p.r, p.vb, p.vc, p.ve
    th = p.theta()
    for n2 in range(ve + 1):
        for m in range(th + 2 * r + 1):
            k = 2 * n2 - m + vc + r
            add_term(acc, k, min(n2, m // 2), (-1) ** k)
        if th % 2 == 0:
            half = th // 2
            for m_hi in (max(r, n2 - half) + vb + vc + r, n2 + half + r):
                for m in range(th + 2 * r + 1, m_hi + 1):
                    k = 2 * n2 - m + vc + r
                    add_term(acc, k, min(n2, half + r), (-1) ** k)
    return {k: c for k, c in acc.items() if c}


def closed_form_pair(p, width):
    """``_closed_form_rows`` at ``p`` and ``width``."""
    return _closed_form_rows(*orbit_fields(p), tables_at(p, width))


def support_sum_pair(p, width):
    """``_support_sum_rows`` at ``p`` and ``width``."""
    return _support_sum_rows(*orbit_fields(p), width)


BUILDERS = [(closed_form_pair, reference_closed_form), (support_sum_pair, reference_support_sum)]


def unpacked(pair, width):
    """The {k: {e: c}} map of a pair (lo, rows), its zero rows left out."""
    lo, rows = pair
    return {k: unpack(x, width) for k, x in enumerate(rows, lo) if x}


def assert_rows_match(p):
    width = row_width(p)
    for build, reference in BUILDERS:
        want = reference(p)
        pair = build(p, width)
        assert unpacked(pair, width) == want
        lo, rows = pair
        assert all(rows) and (lo, lo + len(rows)) == ((min(want), max(want) + 1) if want else (0, 0))
        # The width bound: every coefficient of the rows, of their sum and of
        # their k-weighted sum is below 2**(width - 1) in absolute value.
        value, weighted = {}, {}
        for k, coeff in want.items():
            for e, c in coeff.items():
                value[e] = value.get(e, 0) + c
                weighted[e] = weighted.get(e, 0) + k * c
        biggest = max((abs(c) for m in (*want.values(), value, weighted) for c in m.values()), default=0)
        assert biggest < 1 << (width - 1)
        # The rows do not depend on the width.
        wider = build(p, width + 16)
        assert unpacked(wider, width + 16) == want
        assert unpack(sum(wider[1]), width + 16) == unpack(sum(rows), width)
        assert unpack(sum(k * x for k, x in enumerate(wider[1], wider[0])), width + 16) == {
            e: c for e, c in weighted.items() if c
        }


@st.composite
def balanced_digits(draw):
    width = draw(st.integers(2, 40))
    bound = (1 << (width - 1)) - 1
    coeffs = draw(st.dictionaries(st.integers(0, 30), st.integers(-bound, bound).filter(bool), max_size=12))
    return width, coeffs


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(balanced_digits())
def test_unpack_round_trip(case):
    width, coeffs = case
    assert unpack(pack_row(coeffs, width), width) == coeffs
    poly = QPolynomial(coeffs)
    assert poly._packed(width) == pack_row(coeffs, width)
    assert QPolynomial._from_packed(pack_row(coeffs, width), width) == poly


@pytest.mark.parametrize(
    "coeffs",
    [{0: 8}, {1: -8}, {0: 1, 2: 9}, {-1: 1}, {0: Fraction(1, 2)}],
    ids=["top_of_range", "bottom_of_range", "past_range", "negative_exponent", "fraction"],
)
def test_packed_refuses_what_does_not_fit(coeffs):
    """At width 4 a digit is in [-7, 7]: a polynomial with a coefficient
    outside it, a negative exponent or a Fraction packs to None, which
    equals no packed int."""
    assert QPolynomial(coeffs)._packed(4) is None


@pytest.mark.parametrize(
    "coeffs",
    [{0: 1, 3: -2}, {2: -1}, {0: 3, 1: -1, 2: 5}, {0: -7, 4: 7}, {0: 7, 1: -7, 2: 7}],
    ids=["negative_top", "negative_monomial", "negative_under_positive_top", "low_negative", "alternating_at_bound"],
)
def test_unpack_negative_digits(coeffs):
    assert unpack(pack_row(coeffs, 4), 4) == coeffs


@pytest.mark.parametrize("x", [1, -1, 2, 3, 1 << 40])
@pytest.mark.parametrize("width", [0, 1])
def test_unpack_refuses_a_width_without_digits(x, width):
    """Below width 2 the digit range holds only 0: a nonzero int raises
    rather than loops, and 0 is still the zero polynomial at width 1."""
    with pytest.raises(ArithmeticError):
        unpack(x, width)
    assert unpack(0, 1) == {}


@pytest.mark.parametrize("width", [2, 5, 17, 64])
def test_unpack_splits_a_long_int_and_reads_the_same_digits(width):
    """Past ``_UNPACK_SPLIT`` bits an int is read in two parts, and reads
    back every digit in [-X/2, X/2), X = 2**width, lowest first: with a
    negative digit at the split, digits at both ends of the range and runs
    of zero digits."""
    rng = random.Random(width)
    half = 1 << (width - 1)
    n = 3 * exactpoly._UNPACK_SPLIT // width
    for trial in range(4):
        coeffs = {e: rng.choice([-half, -half + 1, -1, 0, 0, 1, half - 1]) for e in range(n)}
        coeffs[n // 2 + trial] = -1
        coeffs = {e: c for e, c in coeffs.items() if c}
        x = pack_row(coeffs, width)
        assert x.bit_length() > exactpoly._UNPACK_SPLIT + 2 * width
        assert list(unpack(x, width).items()) == list(coeffs.items())


@pytest.mark.parametrize(
    "coeffs, breaks",
    [
        ({0: 1, 1: 7, 2: 3}, False),
        ({0: 3, 1: -1, 2: 5}, True),  # positive int, one digit borrows
        ({0: 7, 1: 7, 2: -1}, True),  # negative top digit
        ({}, False),
    ],
    ids=["nonnegative", "negative_under_positive_top", "negative_top", "zero"],
)
def test_sign_mask(coeffs, breaks):
    """(-1)**k row must have no negative digit: the mask sees one under a
    positive top digit, where the packed int itself is positive."""
    x = pack_row(coeffs, 4)
    assert _first_sign_break((0, [x]), _sign_mask(4, 3)) == (0 if breaks else None)
    assert _first_sign_break((1, [-x]), _sign_mask(4, 3)) == (1 if breaks else None)


def test_rows_match_the_reference_maps_on_a_small_grid():
    for p in full_tuples(SMALL):
        assert_rows_match(p)
    for ve in (-3, -1):
        p = OrbitalParams(r=2, vb=-1, vc=4, ve=ve, vda=1)
        assert closed_form_pair(p, row_width(p)) == support_sum_pair(p, row_width(p)) == (0, [])


@pytest.mark.parametrize("vda", [0, 1, 20, INFINITY], ids=["vda0", "vda1", "vda20", "vda_inf"])
@pytest.mark.parametrize("ve", [0, 40], ids=["ve0", "ve40"])
def test_rows_match_the_reference_maps_at_the_calculator_corner(ve, vda):
    """vb = -50 with vb + vc = 41 and r = 30 puts the lowest k of the
    calculator ranges in an extra block at every even theta (vda finite),
    below the first block's; vda = INFINITY has the odd theta, no extra blocks."""
    p = OrbitalParams(r=30, vb=-50, vc=91, ve=ve, vda=vda)
    assert (p.theta() % 2 == 0) == (vda != INFINITY)
    assert_rows_match(p)
    assert support_sum_pair(p, row_width(p))[0] == min(reference_support_sum(p))


VDA = st.one_of(st.integers(0, 20), st.just(INFINITY))


@st.composite
def off_grid_params(draw):
    """The calculator's ranges: r <= 30, ve <= 40 (and some ve < 0),
    vda in {0..20, inf}, odd vb + vc <= 41 with vb in [-50, vb + vc]."""
    sum_bc = draw(st.integers(0, 20)) * 2 + 1
    vb = draw(st.integers(-50, sum_bc))
    vda = draw(VDA)
    return OrbitalParams(r=draw(st.integers(0, 30)), vb=vb, vc=sum_bc - vb, ve=draw(st.integers(-3, 40)), vda=vda)


@settings(max_examples=100, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(off_grid_params())
def test_rows_match_the_reference_maps_off_grid(p):
    vda = "inf" if p.vda == INFINITY else p.vda
    note(f"semilie orbital -r {p.r} --vb {p.vb} --vc {p.vc} --ve {p.ve} --vda {vda} --oracle")
    assert_rows_match(p)


def pair_of(rows):
    """The canonical pair (lo, rows) of a {k: row} dict: its zero rows at
    either end dropped, those inside kept as 0."""
    ks = [k for k, x in rows.items() if x]
    if not ks:
        return 0, []
    lo = min(ks)
    return lo, [rows.get(k, 0) for k in range(lo, max(ks) + 1)]


def row_check_inputs(rows, width):
    """The dict rows, and mutations of them that the orbital checks must
    read as the dict form does: the first row's sign flipped, 1 added at
    T**0 (below lo, above hi or inside), X added at T**1, an interior row
    zeroed, and every row zeroed."""
    x = 1 << width
    yield rows
    if rows:
        k0 = min(rows)
        yield {**rows, k0: -rows[k0]}
    yield {**rows, 0: rows.get(0, 0) + 1}
    yield {**rows, 1: rows.get(1, 0) + x}
    if len(rows) > 2:
        yield {**rows, sorted(rows)[1]: 0}
    yield dict.fromkeys(rows, 0)


def assert_pair_invariants(p, width, tables, oracle, references=True):
    """Both builders' pairs at ``width``, the oracle's given as ``oracle``:
    lo = -(vb + r), 2 ve + vb + vc + 2 r + 1 rows with none 0 at either
    end, and the closed form's rows those of its dict reference, which the
    oracle's pair equals.  With ``references``, the oracle's rows are also
    its own dict reference's, and on them and their mutations the row sums
    and the sign break read a pair as the dict references read the dict."""
    pair = _closed_form_rows(*orbit_fields(p), tables)
    assert pair == oracle
    want = reference_closed_form_rows(p, width)
    assert {k: x for k, x in enumerate(pair[1], pair[0]) if x} == want
    if p.ve < 0:
        assert pair == (0, []) and want == {}
        return
    lo, rows = pair
    assert lo == -(p.vb + p.r) and len(rows) == 2 * p.ve + p.vb + p.vc + 2 * p.r + 1, (p, lo, len(rows))
    assert rows[0] and rows[-1]
    if not references:
        return
    assert reference_support_sum_rows(p, width) == want
    digits = max(p.n_bound() + 1, 0)
    negate = (p.vc + p.r) % 2
    for mutated in row_check_inputs(want, width):
        got = pair_of(mutated)
        assert _row_sums(got, negate) == reference_row_sums(mutated, negate)
        assert _first_sign_break(got, _sign_mask(width, digits)) == reference_first_sign_break(mutated, width, digits)


def test_pair_invariants_on_the_default_grid():
    """Every full default-grid tuple at the run's width, the oracle built
    once per (orbit, theta) as the orbital sweep builds it.  The oracle's
    pair equals the closed form's, so its rows are the closed form's dict
    reference's too; the dict references and row checks are compared off
    the grid."""
    config = SweepConfig()
    width = _orbital_width(config)
    oracles, tables = {}, _derivative_tables(width, config.ve_max)
    for p in full_tuples(config):
        key = (p.r, p.vb, p.vc, p.ve, p.theta())
        if key not in oracles:
            oracles[key] = support_sum_pair(p, width)
        assert_pair_invariants(p, width, tables, oracles[key], references=False)
    assert len(oracles) == 29_722


def seeded_off_grid_tuples(n, seed=30):
    """n tuples past the default grid: r <= 30, odd vb + vc <= 91 with
    vb in [-50, vb + vc], ve in {0, 1, 40}, vda in {0, 20, INFINITY}."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        s = rng.randrange(1, 92, 2)
        vb = rng.randint(-50, s)
        out.append(OrbitalParams(rng.randint(0, 30), vb, s - vb, rng.choice((0, 1, 40)), rng.choice((0, 20, INFINITY))))
    return out


def test_pair_invariants_off_grid():
    """2,000 seeded tuples of both lo parities and one with ve < 0, with
    both dict references and the row checks on mutated and zero rows."""
    tuples = seeded_off_grid_tuples(2000)
    assert {(p.vb + p.r) % 2 for p in tuples} == {0, 1}  # both parities of lo
    assert {p.ve for p in tuples} == {0, 1, 40} and {p.vda for p in tuples} == {0, 20, INFINITY}
    for p in tuples + [OrbitalParams(r=3, vb=-1, vc=4, ve=-2, vda=1)]:
        width = row_width(p)
        assert_pair_invariants(p, width, tables_at(p, width), support_sum_pair(p, width))


@functools.cache
def derivative_tables(width):
    """Prefix tables at ``width`` up to degree 40, the calculator's top ve."""
    return _derivative_tables(width, 40)


@functools.cache
def matrix_width(sum_bc, vda, n_cap):
    return _packed_matrix(sum_bc, vda, n_cap)[1]


def packed_matrix_width(p):
    """The width of the smallest ``_packed_matrix`` holding ``p``'s
    derivative, at row ve and column r: N >= r, N + theta/2 + 1 >= ve."""
    return matrix_width(p.sum_bc(), p.vda, max(p.r, p.ve - p.theta() // 2 - 1))


def assert_memoised_rows(tuples, tables_for):
    """``_closed_form_rows`` at each tuple in order, read from the tables
    ``tables_for(p)`` returns, against its dict reference at their width.
    Returns how many calls found their tent in the tables' memo and the
    parities of c_lo = 2 vda - vb + r at the plateau tuples."""
    hits, parities = 0, set()
    for p in tuples:
        tables = tables_for(p)
        width, tents = tables[0], tables[3]
        before = len(tents)
        lo, rows = _closed_form_rows(*orbit_fields(p), tables)
        hits += len(tents) == before
        assert {k: x for k, x in enumerate(rows, lo) if x} == reference_closed_form_rows(p, width), p
        if p.vda < p.ve - p.r and p.sum_bc() > 2 * p.vda:
            parities.add((2 * p.vda - p.vb + p.r) & 1)
    return hits, parities


@pytest.mark.parametrize("config", [SMALL, SweepConfig()], ids=["small", "default"])
def test_memoised_rows_match_the_reference_block_by_block(config):
    """The grid walked block (r, vb + vc) by block in the orbital sweep's
    order with one set of tables for the run at its width, as the sweep
    reads them: most tuples reuse a tent an earlier tuple memoised, plateau
    tuples (which add to a copy) included, at both parities of c_lo."""
    tables = _derivative_tables(_orbital_width(config), config.ve_max)
    hits, parities = assert_memoised_rows(full_tuples(config), lambda p: tables)
    assert 2 * hits > config.full_tuple_count()
    assert parities == {0, 1}


def seeded_calculator_tuples(n, seed=33):
    """n draws in the calculator's ranges, r <= 30, odd vb + vc <= 41 with
    vb in [-50, vb + vc], ve <= 40, each walked at three vda in {0, ..., 20,
    INFINITY} in a row, where tuples of equal cap share a tent."""
    rng = random.Random(seed)
    vdas = [*range(21), INFINITY]
    out = []
    for _ in range(n):
        s = rng.randrange(1, 42, 2)
        vb = rng.randint(-50, s)
        r, ve = rng.randint(0, 30), rng.randint(0, 40)
        out += [OrbitalParams(r, vb, s - vb, ve, vda) for vda in rng.sample(vdas, 3)]
    return out


def test_memoised_rows_match_the_reference_off_grid():
    """Seeded calculator-range tuples at their ``row_width``, one set of
    tables per width shared by the whole walk."""
    shared = {}

    def tables_for(p):
        width = row_width(p)
        if width not in shared:
            shared[width] = _derivative_tables(width, 40)
        return shared[width]

    tuples = seeded_calculator_tuples(600)
    hits, parities = assert_memoised_rows(tuples, tables_for)
    assert hits > len(tuples) // 4
    assert parities == {0, 1}


def assert_packed_derivative(p, width):
    x = _packed_derivative(p.r, p.vb, p.vc, p.ve, p.vda, derivative_tables(width))
    assert QPolynomial._raw(unpack(x, width)) == reference_derivative(p), (p, width)


def test_packed_derivative_matches_the_closed_form_on_the_default_grid():
    """At every full default-grid tuple, every split of vb + vc included, at
    the orbital sweep's width and at the kernel matrix's width."""
    config = SweepConfig()
    width = _orbital_width(config)
    for p in full_tuples(config):
        assert_packed_derivative(p, width)
        assert_packed_derivative(p, packed_matrix_width(p))


@pytest.mark.parametrize("vda", [0, 1, 20, INFINITY], ids=["vda0", "vda1", "vda20", "vda_inf"])
@pytest.mark.parametrize("ve", [0, 40], ids=["ve0", "ve40"])
def test_packed_derivative_matches_the_closed_form_at_the_calculator_corner(ve, vda):
    p = OrbitalParams(r=30, vb=-50, vc=91, ve=ve, vda=vda)
    for width in (row_width(p), packed_matrix_width(p)):
        assert_packed_derivative(p, width)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(off_grid_params())
def test_packed_derivative_matches_the_closed_form_off_grid(p):
    """Any width from ``row_width`` on holds the derivative; ve < 0 packs 0."""
    assert_packed_derivative(p, row_width(p))


@pytest.mark.parametrize(
    "config",
    [SweepConfig(), SweepConfig(r_max=8, ve_max=13, sum_bc_max=13), SweepConfig(r_max=0, sum_bc_max=12, ve_max=0)],
    ids=["default", "rmax8_ve13_sbc13", "even_sum_bc_max"],
)
def test_run_width_is_the_widest_row_width_of_the_grid(config):
    """So every tuple's rows, sums and derivative fit at the orbital
    sweep's one width per run, which the grid's top corner attains."""
    assert max(row_width(p) for p in full_tuples(config)) == _orbital_width(config)


def mass_bound(p):
    """The closed form's coefficient-mass bound, (2 ve + s + 2 r + 1)(n_bound
    + 1 + plateau height), which ``row_width`` need not read."""
    s = p.sum_bc()
    plateau = p.ve - p.vda - p.r if p.vda < p.ve - p.r and s > 2 * p.vda else 0
    return (2 * p.ve + s + 2 * p.r + 1) * (p.n_bound() + 1 + plateau)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(off_grid_params(), st.lists(VDA, min_size=1, max_size=4))
def test_row_width_reads_no_vda(p, others):
    """The mass bound is at most the lattice bound, so the width is the same
    at every vda of an orbit: the orbital sweep computes it once per orbit."""
    for vda in (p.vda, *others):
        q = dataclasses.replace(p, vda=vda)
        assert row_width(q) == row_width(p)
        if q.ve >= 0:
            assert mass_bound(q) <= support_points(q.r, q.sum_bc(), q.ve)


def assert_rows_json_matches(pair, width):
    """The calculator's row JSON is the series' own JSON, byte for byte."""
    assert LaurentSeries._rows_json_text(pair, width) == _json(LaurentSeries._from_rows(pair, width).to_json())


@settings(max_examples=100, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(off_grid_params())
def test_rows_json_text_off_grid(p):
    width = row_width(p)
    for build, _ in BUILDERS:
        assert_rows_json_matches(build(p, width), width)


@pytest.mark.parametrize("vda", [0, INFINITY], ids=["vda0", "vda_inf"])
def test_rows_json_text_at_the_calculator_corner(vda):
    p = OrbitalParams(r=30, vb=-50, vc=91, ve=40, vda=vda)
    width = row_width(p)
    for build, _ in BUILDERS:
        pair = build(p, width)
        assert len(set(pair[1])) < len(pair[1])  # shared rows are encoded once
        assert_rows_json_matches(pair, width)


def test_rows_json_text_skips_zero_rows_and_sorts_k():
    """Zero rows anywhere in the pair are skipped; k runs up from lo."""
    width = 5
    x = pack_row({0: 2, 4: -1}, width)
    rows = (-2, [0, x, 0, pack_row({1: -15}, width), 0, x, 0])
    text = LaurentSeries._rows_json_text(rows, width)
    assert text == ('{"t_terms": [[-1, {"q_terms": [[0, 2, 1], [4, -1, 1]]}], [1, {"q_terms": [[1, -15, 1]]}], '
                    '[3, {"q_terms": [[0, 2, 1], [4, -1, 1]]}]]}')
    assert_rows_json_matches(rows, width)
    for empty in ((0, []), (0, [0])):
        assert LaurentSeries._rows_json_text(empty, width) == _json(LaurentSeries.zero().to_json()) == '{"t_terms": []}'


MEMO_MATRICES = [(1, 0, 4), (41, INFINITY, 10)]


@pytest.mark.parametrize("sum_bc, vda, n_cap", MEMO_MATRICES)
def test_build_matrix_shares_one_polynomial_per_distinct_int(sum_bc, vda, n_cap):
    rows, _ = _packed_matrix(sum_bc, vda, n_cap)
    entries = build_matrix(sum_bc, vda, n_cap).entries
    shared = {}
    for row, polys in zip(rows, entries):
        for x, poly in zip(row, polys):
            assert shared.setdefault(x, poly) is poly
    assert len({id(poly) for row in entries for poly in row}) == len(shared) < len(rows) * len(rows[0])


def test_from_rows_shares_one_polynomial_per_distinct_row():
    p = OrbitalParams(r=30, vb=-50, vc=91, ve=40, vda=0)
    width = row_width(p)
    pair = closed_form_pair(p, width)
    series = LaurentSeries._from_rows(pair, width)
    shared = {}
    for k, x in enumerate(pair[1], pair[0]):
        assert shared.setdefault(x, series.coefficient(k)) is series.coefficient(k)
    assert len(shared) < len(pair[1])


def count_calls(monkeypatch, owner, name, *more_owners):
    """Wrap ``owner.<name>``, and the same function held by ``more_owners``,
    so that each call's one argument is recorded."""
    calls, original = [], getattr(owner, name)

    def wrapper(value):
        calls.append(value)
        return original(value)

    for o in (owner, *more_owners):
        monkeypatch.setattr(o, name, wrapper)
    return calls


@pytest.mark.parametrize("stage", ["M", "M''"])
@pytest.mark.parametrize("sum_bc, vda, n_cap", MEMO_MATRICES)
def test_kernel_matrix_encodes_each_distinct_entry_once(monkeypatch, capsys, sum_bc, vda, n_cap, stage):
    """Both forms print every entry, the zero of M'' too, from one encoding
    per distinct packed int."""
    rows, _ = _packed_matrix(sum_bc, vda, n_cap)
    if stage != "M":
        rows = _reduce_rows(rows)[1]
    distinct = len({x for row in rows for x in row})
    argv = ["kernel-matrix", "--sum-bc", str(sum_bc), "--vda", str(vda), "-N", str(n_cap), "--stage", stage]
    texts = count_calls(monkeypatch, exactpoly, "_json_text", cli)
    assert cli.main([*argv, "--json"]) == 0
    assert len(texts) == distinct
    printed = count_calls(monkeypatch, QPolynomial, "__str__")
    assert cli.main(argv) == 0
    assert len(printed) == distinct
    capsys.readouterr()


def test_orbital_json_encodes_each_distinct_row_once(monkeypatch, capsys):
    p = OrbitalParams(r=30, vb=-50, vc=91, ve=40, vda=0)
    _, rows = closed_form_pair(p, row_width(p))
    texts = count_calls(monkeypatch, exactpoly, "_json_text", cli)
    assert cli.main(["orbital", "-r", "30", "--vb", "-50", "--vc", "91", "--ve", "40", "--vda", "0", "--json"]) == 0
    assert len(texts) == len({x for x in rows if x}) < len(rows)
    capsys.readouterr()
