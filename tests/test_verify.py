"""Suite drivers: grids, determinism, and report schema."""

import dataclasses
import functools
import json
import random
from fractions import Fraction

import pytest
from helpers import (
    bareiss_rank,
    coefficient_norms,
    full_tuples,
    gk_from_params,
    orbit_fields,
    pack_row,
    reference_antidiagonal,
    reference_combo,
    reference_derivative,
    reference_gross_keating,
    reference_int_circ,
    reference_int_total,
    reference_kr_closed,
    reference_stages,
    reduced_tuples,
    support,
    t_power,
    tables_at,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from semilie import (
    INFINITY,
    DerivMatrix,
    GKPair,
    HeckeVector,
    LaurentSeries,
    OrbitalParams,
    QPolynomial,
    SatakeY,
    SweepConfig,
    run_suite,
)
from semilie import cli, intersection, kernel, orbital, satake, verify
from semilie.exactpoly import _sign_mask, unpack
from semilie.intersection import _gk_bound, _kr_closed_bound, _total_bound
from semilie.kernel import _antidiagonal_bound, _rank_bound, large_r_vector, phi_sequence_vector
from semilie.orbital import InvalidParamsError, _combo_bound, _derivative_bound, derivative_of_vector
from semilie.padiclab import DiskCounter, QuadExtRing
from semilie.verify import (
    _KERNEL_SUMS,
    _KERNEL_VDAS,
    KERNEL_RANK_GRID,
    SuiteResult,
    suite_miracle,
    suite_orbital,
    suite_quaternion,
)

SMALL = SweepConfig(r_max=2, sum_bc_max=3, ve_max=3, vda_max=2, precision=3)


def test_default_grid_shape():
    config = SweepConfig()
    assert config.vda_values() == [0, 1, 2, 3, 4, 5, 6, INFINITY]
    assert config.sum_bc_values() == [1, 3, 5, 7, 9, 11]
    reduced = list(reduced_tuples(config))
    assert len(reduced) == 7 * 6 * 11 * 8
    full = sum(1 for _ in full_tuples(config))
    assert full == 7 * sum(6 + s + 1 for s in (1, 3, 5, 7, 9, 11)) * 11 * 8


@pytest.mark.parametrize(
    "config",
    [SMALL, SweepConfig(), SweepConfig(r_max=0, sum_bc_max=12, ve_max=0, vda_max=0),
     SweepConfig(r_max=1, sum_bc_max=3, ve_max=1, vda_max=-1)],
    ids=["small", "default", "even_sum_bc_max", "vda_inf_only"],
)
def test_full_tuple_count(config):
    assert config.full_tuple_count() == sum(1 for _ in full_tuples(config))
    assert config.reduced_tuple_count() == sum(1 for _ in reduced_tuples(config))


def test_runs_are_deterministic():
    a = suite_miracle(SMALL).to_json()
    b = suite_miracle(SMALL).to_json()
    assert a == b
    qa = suite_quaternion(SMALL).to_json()
    qb = suite_quaternion(SMALL).to_json()
    assert qa == qb


def test_reports_are_json_serialisable():
    for result in run_suite("intersection", SMALL):
        json.dumps(result.to_json())


def test_run_suite_aliases():
    names = [r.name for r in run_suite("intersection", SMALL)]
    assert names == ["miracle", "afl"]
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("bogus", SMALL)


def test_empty_ranges_rejected():
    with pytest.raises(ValueError):
        SweepConfig(r_max=-1)


def test_vda_max_below_minus_one_rejected(capsys):
    """-1 is the least vda_max, INFINITY alone; below it the grid would only
    repeat that one, so it is refused rather than read as -1."""
    assert SweepConfig(vda_max=-1).vda_values() == [INFINITY]
    for vda_max in (-2, -5):
        with pytest.raises(ValueError, match=f"vda_max must be >= -1 \\(INFINITY alone\\), got {vda_max}"):
            SweepConfig(vda_max=vda_max)
    assert cli.main(["verify", "orbital", "--vda-max", "-5"]) == 2
    assert capsys.readouterr() == ("", "error: vda_max must be >= -1 (INFINITY alone), got -5\n")


@pytest.mark.parametrize("value", [True, 1.5], ids=["bool", "float"])
def test_config_fields_must_be_ints(value):
    """Refused when built, not partway through a sweep."""
    with pytest.raises(InvalidParamsError, match=f"r_max must be an int, got {value}"):
        SweepConfig(r_max=value)


IDENTITIES = {
    "orbital": {
        "closed_form == support_sum", "value at s=0 is 0", "derivative == signed series derivative",
        "sign pattern (-1)^k", "derivative depends only on vb+vc",
    },
    "miracle": {"gross_keating == D(ve) + D(ve-1)"},
    "afl": {
        "int_total == derivative_closed_form", "n1 + n2 == 2 ve + vb + vc + 2r",
        "int_total(r) - int_total(r-1) == derivative_combo", "int_circ_kr_closed == int_circ(r) - int_circ(r-1)",
    },
    "kernel": {"full rank certificate", "large-r 1,2,1 vanishing", "sequence vanishing outside window"},
    "satake": {
        "rank-3 aggregate base change", "rank-3 single-cell base change", "rank-3 determinant-route base change",
        "fiber projection difference", "rank-2 combination == sum of basis images",
        "three-term vanishing polynomial shape",
    },
    "volumes": {"one_disk", "two_disk"},
    "quaternion": {"quaternion invariants"},
}


@pytest.mark.parametrize("suite", list(IDENTITIES))
def test_checks_by_identity(suite):
    (result,) = run_suite(suite, SMALL)
    counts = result.checks_by_identity
    assert sum(counts.values()) == result.checked
    assert all(counts.values())
    assert set(counts) == IDENTITIES[suite]
    assert result.to_json()["checks_by_identity"] == counts


def test_suite_names_come_from_the_registry():
    assert verify.SUITE_NAMES == tuple(IDENTITIES)


FIELDS = tuple(f.name for f in dataclasses.fields(SweepConfig))

#: Admissible values of every field, most far past any grid that could run.
FIELD_VALUES = {name: st.integers(0, 10**30) for name in FIELDS} | {
    "sum_bc_max": st.integers(1, 10**30),
    "precision": st.integers(1, 10**30),
    "p": st.sampled_from([3, 5, 7, 101, 10007, 10000019, 1000000000000000003]),
}


@functools.cache
def fields_read(name):
    """The fields a run of suite ``name`` on SMALL reads, seen through a
    config that logs every field it is asked for."""
    seen = set()

    class Logged(SweepConfig):
        def __getattribute__(self, attr):
            if attr in FIELDS:
                seen.add(attr)
            return super().__getattribute__(attr)

    config = Logged(**dataclasses.asdict(SMALL))
    seen.clear()  # building it validated every field
    verify._SUITES[name](config)
    return frozenset(seen)


@pytest.mark.parametrize("name", verify.SUITE_NAMES)
@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_charge_ignores_fields_the_suite_never_reads(name, data):
    """A suite is charged only for what it reads: changing every field it
    never reads leaves its charge as it was."""
    read = fields_read(name)
    assert read
    config = SweepConfig(**{field: data.draw(FIELD_VALUES[field], label=field) for field in FIELDS})
    changed = dataclasses.replace(
        config, **{field: data.draw(FIELD_VALUES[field], label=f"new {field}") for field in FIELDS if field not in read}
    )
    assert verify._SUITES[name].work(changed) == verify._SUITES[name].work(config)


def term_maps(series):
    return {k: dict(coeff.items()) for k, coeff in series.items()}


def pack_terms(terms, width):
    """The canonical packed pair (lo, rows) of a {k: {e: c}} map of nonzero
    coefficients (see ``orbital``): rows from its least k to its greatest,
    0 where the map has no k, and (0, []) for the empty map."""
    if not terms:
        return 0, []
    lo = min(terms)
    return lo, [pack_row(terms.get(k, {}), width) for k in range(lo, max(terms) + 1)]


@pytest.mark.parametrize(
    "public, private",
    [
        (orbital.orbital_closed_form, lambda p, width: orbital._closed_form_rows(*orbit_fields(p), tables_at(p, width))),
        (orbital.orbital_support_sum, lambda p, width: orbital._support_sum_rows(*orbit_fields(p), width)),
    ],
    ids=["closed_form", "support_sum"],
)
def test_public_builders_wrap_their_rows(public, private):
    """Each public series is the wrap of its builder's packed pair, and the
    rows hold no zero, so the orbital suite may compare pairs with ==."""
    for p in full_tuples(SMALL):
        width = orbital.row_width(p)
        pair = private(p, width)
        assert all(pair[1])
        series = public(p)
        assert series == LaurentSeries._from_rows(pair, width)
        assert pack_terms(term_maps(series), width) == pair


def flip_one_coefficient(series):
    if series.is_zero():
        return series
    k, coeff = min(series.items())
    e, c = coeff.sorted_items()[0]
    return series + t_power(k, QPolynomial.q_power(e, -2 * c))


def past_top_degree(series):
    """One more term at the least k, one q-degree past the series' top and
    signed (-1)**k: its sign is the row's, so of the sign pattern only the
    degree bound n_bound breaks."""
    if series.is_zero():
        return series
    k = min(support(series))
    top = max(coeff.max_exponent() for _, coeff in series.items())
    return series + t_power(k, QPolynomial.q_power(top + 1, -1 if k % 2 else 1))


#: Mutations of the closed-form series, made on the series its rows stand for.
CLOSED_FORM_MUTATIONS = {
    "sign_flip": flip_one_coefficient,
    "constant_at_T0": lambda series: series + t_power(0, 1),
    "term_at_T1": lambda series: series + t_power(1, QPolynomial.q_power(1)),
    "past_top_degree": past_top_degree,
}

#: At vb + vc = 1, vda = 1, 2 and INFINITY share theta = 1, so this tuple is
#: checked against the oracle rows built at vda = 1.
SHARED_THETA_TARGET = OrbitalParams(r=1, vb=-1, vc=2, ve=2, vda=2)


def mutated_rows(mutation, only=None):
    """``verify._closed_form_rows`` with the pair of every tuple, or of
    ``only`` alone, replaced by the canonical pair of the mutated series."""
    original, mutate = verify._closed_form_rows, CLOSED_FORM_MUTATIONS[mutation]

    def rows(*args):
        out, tables = original(*args), args[5]
        if only is None or OrbitalParams(*args[:5]) == only:
            width = tables[0]
            out = pack_terms(term_maps(mutate(LaurentSeries._from_rows(out, width))), width)
        return out

    return rows


def test_constant_at_T0_below_lo_extends_lo():
    """A mutation that adds a row below lo gives the canonical pair of the
    mutated series: lo moves down to it, and the rows between are 0."""
    p = OrbitalParams(r=0, vb=-6, vc=7, ve=1, vda=0)
    tables = tables_at(p, orbital.row_width(p))
    lo, rows = verify._closed_form_rows(*orbit_fields(p), tables)
    assert lo == 6
    assert mutated_rows("constant_at_T0")(*orbit_fields(p), tables) == (0, [1, 0, 0, 0, 0, 0, *rows])


@pytest.mark.parametrize(
    "mutation, identities",
    [
        ("sign_flip", {"closed_form == support_sum", "sign pattern (-1)^k"}),
        ("constant_at_T0", {"value at s=0 is 0"}),
        ("term_at_T1", {"derivative == signed series derivative"}),
    ],
    ids=["sign_flip", "constant_at_T0", "term_at_T1"],
)
def test_orbital_suite_reports_mutated_closed_form(monkeypatch, mutation, identities):
    """The suite reads the closed form as the builder's packed rows; each
    mutation is made on the series those rows stand for."""
    clean = suite_orbital(SMALL)
    assert clean.passed and clean.checked == 5 * sum(1 for _ in full_tuples(SMALL))
    monkeypatch.setattr(verify, "_closed_form_rows", mutated_rows(mutation))
    mutated = suite_orbital(SMALL)
    assert not mutated.passed and mutated.checked == clean.checked
    assert identities <= {f["identity"] for f in mutated.failures}


def walk_orbital(config):
    """The orbital sweep as a plain per-tuple walk: five ``check`` calls at
    each tuple, each on the tuple's own rows, with the oracle run afresh."""
    res = verify.SuiteResult("orbital")
    seen = {}
    for p in full_tuples(config):
        width = orbital.row_width(p)
        pair = verify._closed_form_rows(*orbit_fields(p), tables_at(p, width))
        res.check(pair == orbital._support_sum_rows(*orbit_fields(p), width), "closed_form == support_sum", params=p)
        lo, rows = pair
        res.check(not sum(rows), "value at s=0 is 0", params=p)
        weighted = sum(k * x for k, x in enumerate(rows, lo))
        log_deriv = QPolynomial(unpack(-weighted if (p.vc + p.r) % 2 else weighted, width))
        deriv = reference_derivative(p)
        res.check(deriv == log_deriv, "derivative == signed series derivative", params=p)
        k = verify._first_sign_break(pair, _sign_mask(width, max(p.n_bound() + 1, 0)))
        res.check(k is None, "sign pattern (-1)^k", params=p, k=k)
        key = (p.r, p.vb + p.vc, p.ve, p.vda)
        res.check(seen.setdefault(key, deriv) == deriv, "derivative depends only on vb+vc", params=p)
    return res


@pytest.mark.parametrize(
    "mutation, only",
    [
        (None, None),
        ("sign_flip", None),
        ("constant_at_T0", None),
        ("term_at_T1", None),
        ("past_top_degree", None),
        ("constant_at_T0", SHARED_THETA_TARGET),
        ("term_at_T1", SHARED_THETA_TARGET),
    ],
    ids=["clean", "sign_flip", "constant_at_T0", "term_at_T1", "past_top_degree", "constant_at_T0-shared",
         "term_at_T1-shared"],
)
def test_orbital_records_match_the_per_tuple_walk(monkeypatch, mutation, only):
    """Reading the row checks once per finish and counting each
    identity once leaves the report as the per-tuple walk makes it: the
    same counts in the same key order, the same records in the same order."""
    if mutation:
        monkeypatch.setattr(verify, "_closed_form_rows", mutated_rows(mutation, only))
    got, want = suite_orbital(SMALL).to_json(), walk_orbital(SMALL).to_json()
    assert bool(want["failures"]) == bool(mutation)
    assert [*got.items()][:4] == [*want.items()][:4]  # suite, checked, counts, passed
    assert [*got["checks_by_identity"]] == [*want["checks_by_identity"]]
    assert len(got["failures"]) == len(want["failures"])
    for i, (g, w) in enumerate(zip(got["failures"], want["failures"])):
        assert json.dumps(g) == json.dumps(w), f"failure record {i}"
    assert json.dumps(got) == json.dumps(want)


def counted(monkeypatch, name):
    """Wrap ``verify.<name>`` so that each call's arguments are recorded."""
    calls, original = [], getattr(verify, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(verify, name, wrapper)
    return calls


class ComparedPair(tuple):
    """A closed-form pair (lo, rows) that records, in ``log``, the tuple it
    was built for and each pair it is compared with by ``!=``."""

    def __new__(cls, pair, params, log):
        out = super().__new__(cls, pair)
        out.params, out.log = params, log
        return out

    def __ne__(self, other):
        self.log.append((self.params, other))
        return tuple.__ne__(self, other)


def block_key(p):
    """(r, vb + vc, ve, theta), all that the oracle's lattice walk reads."""
    return p.r, p.sum_bc(), p.ve, p.theta()


@pytest.mark.parametrize("config", [SMALL, dataclasses.replace(SMALL, vda_max=-1)], ids=["small", "vda_inf_only"])
def test_orbital_oracle_walks_once_per_sum_and_theta(monkeypatch, config):
    """The oracle's lattice walk reads a tuple only through (r, vb + vc, ve,
    theta), and the suite walks once for each of those, all at the run's
    one width; the pair it compares with each tuple's closed form is
    exactly the oracle run afresh at that tuple."""
    walks = counted(monkeypatch, "_support_walk")
    compared, original = [], verify._closed_form_rows

    def closed(*args):
        return ComparedPair(original(*args), OrbitalParams(*args[:5]), compared)

    monkeypatch.setattr(verify, "_closed_form_rows", closed)
    assert suite_orbital(config).passed
    tuples = list(full_tuples(config))
    keys = [args[:4] for args in walks]
    assert len(keys) == len(set(keys)) and set(keys) == {block_key(p) for p in tuples}
    width = verify._orbital_width(config)
    assert {args[4] for args in walks} == {width}
    assert [p for p, _ in compared] == tuples
    for p, oracle_pair in compared:
        assert width >= orbital.row_width(p)
        assert oracle_pair == orbital._support_sum_rows(*orbit_fields(p), width), p


@pytest.mark.parametrize("key", [(1, 3, 2, 2), (2, 3, 3, 3), (0, 1, 0, 1)], ids=["even_theta", "odd_theta", "corner"])
def test_mutated_walk_fails_every_split_that_shares_it(monkeypatch, key):
    """A lattice walk mutated at one key (r, vb + vc, ve, theta), its point
    n2 = m = 0 counted twice, fails ``closed_form == support_sum`` at every
    tuple that shares the key, every split vb and every vda of that theta,
    and at no other: sharing the walk across splits hides none of them."""
    original = orbital._support_walk

    def mutated(*args):
        m_top, acc = original(*args)
        if args[:4] == key:
            acc[m_top] += 1  # k - lo at n2 = m = 0, where X**0 = 1 is added
        return m_top, acc

    monkeypatch.setattr(orbital, "_support_walk", mutated)
    monkeypatch.setattr(verify, "_support_walk", mutated)
    res = suite_orbital(SMALL)
    failed = [f["params"] for f in res.failures if f["identity"] == "closed_form == support_sum"]
    sharing = [p.label() for p in full_tuples(SMALL) if block_key(p) == key]
    assert len({p["vb"] for p in sharing}) == key[1] + 1 - verify._VB_MIN
    assert failed == sharing
    assert all(f["identity"] == "closed_form == support_sum" for f in res.failures)


@pytest.mark.parametrize("config", [SMALL, SweepConfig(r_max=3, sum_bc_max=5, ve_max=4, vda_max=1)], ids=["small", "rmax3_ve4"])
def test_orbital_sets_up_once_per_run(monkeypatch, config):
    """One ``suite_orbital`` call builds one set of prefix tables, at the
    run's width up to ve_max, and one sign mask per n_bound in [0, ve_max]."""
    tables = counted(monkeypatch, "_derivative_tables")
    masks = counted(monkeypatch, "_sign_mask")
    assert suite_orbital(config).passed
    assert tables == [(verify._orbital_width(config), config.ve_max)]
    assert len(masks) <= config.ve_max + 1


def test_shared_oracle_reports_only_the_mutated_tuple(monkeypatch):
    """A closed form mutated at ``SHARED_THETA_TARGET`` alone, checked
    against the oracle rows built at vda = 1, fails there, and nowhere else."""
    target = SHARED_THETA_TARGET
    assert {dataclasses.replace(target, vda=vda).theta() for vda in (1, 2, INFINITY)} == {1}
    original = verify._closed_form_rows

    def mutated(*args):
        lo, rows = original(*args)
        if OrbitalParams(*args[:5]) == target:
            rows = [*rows]  # the closed form's rows may be shared with other tuples
            rows[-lo] += 1  # the row of T**0
        return lo, rows

    monkeypatch.setattr(verify, "_closed_form_rows", mutated)
    res = suite_orbital(SMALL)
    assert "closed_form == support_sum" in {f["identity"] for f in res.failures}
    assert all(f["params"] == target.label() for f in res.failures)


def finish_key(p):
    """(r, vb + vc, ve, theta, lo & 1), lo = -(vb + r) the walk's lowest k:
    one finish of the oracle's walk, whose rows every entry at that key
    shares, shifted by its own lo."""
    return (*block_key(p), (p.vb + p.r) & 1)


def negate_top_row(monkeypatch, key):
    """Negate, at the walk key ``key`` (r, vb + vc, ve, theta) alone, the top
    row of the oracle's walk and of the closed form of every tuple that
    shares the key: the same signed row change on both sides, so that the
    pairs still agree.  The top row, k = 2 ve + vc + r, holds the walk's
    point n2 = ve, m = 0 (never trimmed), and negated it breaks the row sum
    and leaves a negative coefficient; its k is not 0 while ve >= 1."""
    walk, closed = orbital._support_walk, verify._closed_form_rows

    def mutated_walk(*args):
        m_top, acc = walk(*args)
        if args[:4] == key:
            acc[-1] = -acc[-1]
        return m_top, acc

    def mutated_closed(*args):
        lo, rows = closed(*args)
        if block_key(OrbitalParams(*args[:5])) == key:
            rows = [*rows[:-1], -rows[-1]]  # the closed form's rows may be shared with other tuples
        return lo, rows

    monkeypatch.setattr(orbital, "_support_walk", mutated_walk)
    monkeypatch.setattr(verify, "_support_walk", mutated_walk)
    monkeypatch.setattr(verify, "_closed_form_rows", mutated_closed)


ROW_CHECK_CASES = ["clean", "one_tuple_differs", "negated_top_row"]


@pytest.mark.parametrize("case", ROW_CHECK_CASES, ids=ROW_CHECK_CASES)
def test_row_checks_read_once_per_finish(monkeypatch, case):
    """The value at s = 0, the log-derivative and the sign pattern are read
    once per finish (r, vb + vc, ve, theta, lo & 1) of the oracle's walk,
    in the walk's frame k - lo (``_finish_checks``); a tuple whose rows
    differ from its entry's reads its own, once more.  Each oracle entry
    (orbit, theta) reads its finish at its own lo, row i at k = lo + start
    + i, and that is exactly ``_row_sums`` and ``_first_sign_break`` at the
    entry's own pair and mask, also where a walk and the closed forms
    sharing it are mutated alike, so that the checks fail; its pair is the
    one the sweep compares with the closed form of every tuple of the
    entry.  Every tuple still builds its own closed form and packed
    derivative, in order."""
    row_sums, first_sign_break = verify._row_sums, verify._first_sign_break
    differs = case == "one_tuple_differs"
    if differs:
        monkeypatch.setattr(verify, "_closed_form_rows", mutated_rows("constant_at_T0", SHARED_THETA_TARGET))
    if case == "negated_top_row":
        negate_top_row(monkeypatch, (1, 3, 2, 2))
    breaks = counted(monkeypatch, "_first_sign_break")
    sums = counted(monkeypatch, "_row_sums")
    derivatives = counted(monkeypatch, "_packed_derivative")
    walks = counted(monkeypatch, "_support_walk")
    compared, closed = [], verify._closed_form_rows
    monkeypatch.setattr(
        verify, "_closed_form_rows", lambda *args: ComparedPair(closed(*args), OrbitalParams(*args[:5]), compared)
    )
    finishes, finish = {}, verify._finish_checks

    def recorded(parity, m_top, acc, mask):
        out = finish(parity, m_top, acc, mask)
        finishes[(*walks[-1][:4], parity)] = m_top, mask, out  # a walk's finishes follow it
        return out

    monkeypatch.setattr(verify, "_finish_checks", recorded)
    assert suite_orbital(SMALL).passed == (case == "clean")
    tuples = list(full_tuples(SMALL))
    entries = {(p.r, p.vb, p.vc, p.ve, p.theta()) for p in tuples}
    assert set(finishes) == {finish_key(p) for p in tuples}
    assert len(finishes) < len(entries) < len(tuples)
    assert len(sums) == len(breaks) == len(finishes) + differs
    assert len({id(oracle_pair) for _, oracle_pair in compared}) == len(entries)  # one pair per entry, kept alive
    width = verify._orbital_width(SMALL)
    for p, oracle_pair in compared:
        m_top, mask, (start, rows, zero, w, t, k) = finishes[finish_key(p)]
        lo = p.vc + p.r - m_top
        pair = lo + start, rows
        assert pair == oracle_pair == orbital._support_sum_rows(*orbit_fields(p), width), p
        assert mask == _sign_mask(width, p.n_bound() + 1), p
        assert (zero, w + lo * t) == row_sums(pair, (p.vc + p.r) & 1), p
        assert (k if k is None else k + lo) == first_sign_break(pair, mask), p
    assert [p for p, _ in compared] == [OrbitalParams(*args[:5]) for args in derivatives] == tuples


def test_default_orbital_pass_walks_and_finishes_once_per_key(monkeypatch):
    """A default orbital pass walks each (r, vb + vc, ve, theta) once and
    finishes each walk once per parity of lo: every block's vb spans at
    least 8 consecutive values, so each walk reaches both."""
    walks = counted(monkeypatch, "_support_walk")
    finishes = counted(monkeypatch, "_finish_checks")
    assert suite_orbital(SweepConfig()).passed
    assert (len(walks), len(finishes)) == (2_079, 4_158)
    assert [args[0] for args in finishes] == [0, 1] * 2_079


def raising_at(monkeypatch, name, hit):
    """Wrap ``verify.<name>`` so that it raises ValueError at the first call
    whose 1-based number and arguments satisfy ``hit``; returns the
    arguments of every call, the raising one last."""
    calls, original = [], getattr(verify, name)

    def wrapper(*args):
        calls.append(args)
        if hit(len(calls), args):
            raise ValueError("raised at a grid point")
        return original(*args)

    monkeypatch.setattr(verify, name, wrapper)
    return calls


def internal_error(params, identity_key="identity"):
    """The record of ``raising_at``'s exception at ``params`` (a label)."""
    head = {identity_key: "internal error"} if identity_key else {}
    return head | {"error": "ValueError", "message": "raised at a grid point", "params": params}


@pytest.mark.parametrize("name, call", [("_packed_derivative", 500), ("_support_walk", 40)], ids=["tuple", "walk"])
def test_orbital_internal_error_names_its_tuple(monkeypatch, name, call):
    """An exception inside the orbital sweep ends it with one record that
    names the tuple the sweep was at, for a walk the first tuple that reads
    it, and the identities counted for every block (r, vb + vc) finished
    before it."""
    calls = raising_at(monkeypatch, name, lambda n, args: n == call)
    res = suite_orbital(SMALL)
    tuples = list(full_tuples(SMALL))
    if name == "_support_walk":
        at = next(p for p in tuples if block_key(p) == calls[-1][:4])
    else:
        at = OrbitalParams(*calls[-1][:5])
    finished = sum((p.r, p.sum_bc()) < (at.r, at.sum_bc()) for p in tuples)
    assert 0 < finished < len(tuples)
    assert res.failures == [internal_error(at.label())]
    assert res.checks_by_identity == dict.fromkeys(verify._ORBITAL_IDENTITIES, finished)


@pytest.mark.parametrize("suite, name", [("miracle", "_packed_gk"), ("afl", "_packed_circ")])
def test_level_sweeps_count_each_level_they_finish(monkeypatch, suite, name):
    """The miracle and afl sweeps call their Gross-Keating builder once per
    reduced tuple; one raising at the 40th names that tuple in the
    record, and each identity is counted at every level r finished before
    it, as a run that raises nowhere counts it there."""
    raising_at(monkeypatch, name, lambda n, args: n == 40)
    (res,) = run_suite(suite, SMALL)
    at = list(reduced_tuples(SMALL))[39]
    assert at.r == 1
    assert res.failures == [internal_error(at.label(), res.identity_key)]
    monkeypatch.undo()
    (level_0,) = run_suite(suite, dataclasses.replace(SMALL, r_max=0))
    assert level_0.passed and res.checks_by_identity == level_0.checks_by_identity


def test_kernel_internal_error_names_its_certificate_or_its_level(monkeypatch):
    """An exception in the kernel suite's certificate nest names the
    certificate's label, after the certificates checked before it; one in
    its vanishing nest names the orbit at the level r being checked, here
    the first combination of top level 7, the 1,2,1 vector at the first
    orbit."""
    calls = raising_at(monkeypatch, "_packed_certificate", lambda n, args: n == 50)
    (res,) = run_suite("kernel", SMALL)
    s, vda, n_cap = calls[-1]
    assert res.failures == [internal_error({"sum_bc": s, "vda": vda, "N": n_cap})]
    assert res.checks_by_identity == {"full rank certificate": 49}
    monkeypatch.undo()
    raising_at(monkeypatch, "_packed_combination", lambda n, args: max(level for level, _ in args[0]) == 7)
    (res,) = run_suite("kernel", SMALL)
    at = OrbitalParams(r=7, vb=0, vc=_KERNEL_SUMS[0], ve=0, vda=_KERNEL_VDAS[0])
    assert res.failures == [internal_error(at.label())]
    assert res.checks_by_identity == {"full rank certificate": 96}


ROW_IDENTITIES = ("value at s=0 is 0", "derivative == signed series derivative", "sign pattern (-1)^k")


@pytest.mark.parametrize("key", [(1, 3, 2, 2), (2, 3, 3, 3), (0, 1, 1, 0)], ids=["even_theta", "odd_theta", "theta_0"])
def test_mutated_finish_fails_every_entry_that_shares_it(monkeypatch, key):
    """A walk and the closed forms that share it, mutated alike at one key
    (r, vb + vc, ve, theta), agree, so every tuple there reuses its entry's
    row checks, read from its walk's finish at its own lo; each of the
    three row identities fails at exactly the tuples that share the key, and
    the report is the per-tuple walk's, which reads every tuple's rows
    afresh."""
    negate_top_row(monkeypatch, key)
    res = suite_orbital(SMALL)
    sharing = [p.label() for p in full_tuples(SMALL) if block_key(p) == key]
    assert len({p["vb"] for p in sharing}) == key[1] + 1 - verify._VB_MIN
    assert {f["identity"] for f in res.failures} == set(ROW_IDENTITIES)
    for identity in ROW_IDENTITIES:
        assert [f["params"] for f in res.failures if f["identity"] == identity] == sharing, identity
    assert json.dumps(res.to_json()) == json.dumps(walk_orbital(SMALL).to_json())


WALK_CONFIGS = [
    SMALL,
    SweepConfig(r_max=0, sum_bc_max=12, ve_max=0, vda_max=0),
    SweepConfig(r_max=1, sum_bc_max=3, ve_max=1, vda_max=-1),
    SweepConfig(r_max=3, sum_bc_max=5, ve_max=4, vda_max=1),
]


@pytest.mark.parametrize(
    "suite, tuples, calls_per_tuple",
    [("orbital", full_tuples, 1), ("miracle", reduced_tuples, 2), ("afl", reduced_tuples, 1)],
    ids=["orbital", "miracle", "afl"],
)
@pytest.mark.parametrize("config", WALK_CONFIGS, ids=["small", "even_sum_bc_max", "vda_inf_only", "rmax3_ve4"])
def test_int_walks_visit_the_grid_in_order(monkeypatch, suite, tuples, calls_per_tuple, config):
    """Each sweep walks its grid as ints and reads each tuple's packed
    derivative first at the tuple itself (the miracle suite then at
    ve - 1): those tuples are exactly ``full_tuples`` or ``reduced_tuples``,
    in order, and each constructs as an ``OrbitalParams``."""
    derivatives = counted(monkeypatch, "_packed_derivative")
    (res,) = run_suite(suite, config)
    assert res.passed
    assert [OrbitalParams(*args[:5]) for args in derivatives[::calls_per_tuple]] == list(tuples(config))


def walk_kernel_vanishing(config):
    """The kernel suite's vanishing checks as one ``check`` per combination,
    each on the ``kernel`` report built from ``derivative_of_vector``."""
    res = SuiteResult("kernel")
    for s in (1, 3, 5, 11):
        for vda in (0, 2, INFINITY):
            for ve in range(0, config.ve_max + 1, 2):
                base = OrbitalParams(r=0, vb=0, vc=s, ve=ve, vda=vda)
                for r in range(ve + 2, ve + 9):
                    report = kernel.test_large_r_vanishing(base.with_r(r))
                    res.check(report["pass"], "large-r 1,2,1 vanishing", **report)
                for r in range(5, ve + 9):
                    report = kernel.test_phi_sequence(base, r)
                    res.check(report["pass"], "sequence vanishing outside window", **report)
    return res


@pytest.mark.parametrize("mutated", [None, "large_r_vector", "phi_sequence_vector"])
def test_kernel_vanishing_matches_the_report_walk(monkeypatch, mutated):
    """The packed vanishing checks count and record as the per-check walk
    over the ``kernel`` reports does: the same counts, and the same records
    in the same order, each value decoded from its packed int equal to the
    report's ``derivative_of_vector``; also with a vector 1 too large at its
    top level, which fails every check of its identity outside the window."""
    if mutated:
        wrong = plus_top_level(getattr(kernel, mutated))
        monkeypatch.setattr(kernel, mutated, wrong)
        monkeypatch.setattr(verify, mutated, wrong)
    (got,) = run_suite("kernel", SMALL)
    want = walk_kernel_vanishing(SMALL)
    assert list(got.checks_by_identity.items())[1:] == list(want.checks_by_identity.items())
    assert got.failures == want.failures
    assert bool(got.failures) == bool(mutated)
    if mutated:
        identity = {"large_r_vector": "large-r 1,2,1 vanishing"}.get(mutated, "sequence vanishing outside window")
        assert {f["identity"] for f in got.failures} == {identity}
        assert all(not f.get("inside_window") for f in got.failures)


@pytest.mark.parametrize(
    "config, n_entries, n_walks",
    [(SweepConfig(), 29_722, 2_079), (SweepConfig(r_max=8, ve_max=13, sum_bc_max=13), 68_796, 4_410)],
    ids=["default", "rmax8_ve13_sbc13"],
)
def test_n_bound_is_one_number_per_oracle_entry(config, n_entries, n_walks):
    """``suite_orbital`` reads the row checks once per finish of a walk and
    derives each oracle entry's (orbit, theta) from them, which needs:
    n_bound, whose digit count n_bound + 1 the sign break reads, one number
    per walk key (r, vb + vc, ve, theta), so per entry; and the sign
    (vc + r) & 1 one number per finish key (r, vb + vc, ve, theta, lo & 1),
    lo = vc + r - m_top at the walk's own m_top; two finishes per walk, one
    per parity of lo, on the default grid and past it."""
    width = verify._orbital_width(config)
    m_top, n_bound, negate, entries = {}, {}, {}, set()
    for p in full_tuples(config):
        key = block_key(p)
        if key not in m_top:
            m_top[key] = orbital._support_walk(*key, width)[0]
        lo = p.vc + p.r - m_top[key]
        assert finish_key(p) == (*key, lo & 1), p
        assert n_bound.setdefault(key, p.n_bound()) == p.n_bound(), p
        assert negate.setdefault(finish_key(p), (p.vc + p.r) & 1) == (p.vc + p.r) & 1, p
        entries.add((p.r, p.vb, p.vc, p.ve, p.theta()))
    assert len(entries) == n_entries
    assert len(n_bound) == n_walks and len(negate) == 2 * n_walks


def reference_afl(config, derivative=reference_derivative):
    """``suite_afl`` as a plain ``QPolynomial`` walk: the total and int_circ
    summed afresh from ``reference_gross_keating`` values (``reference_int_total``,
    ``reference_int_circ``) at every reduced tuple and at its level below."""
    res = SuiteResult("afl")
    for p in reduced_tuples(config):
        total, deriv = reference_int_total(p), derivative(p)
        res.check(total == deriv, "int_total == derivative_closed_form", params=p, lhs=total, rhs=deriv)
        pair = gk_from_params(p)
        res.check(pair.n1 + pair.n2 == 2 * p.ve + p.vb + p.vc + 2 * p.r, "n1 + n2 == 2 ve + vb + vc + 2r", params=p)
        if p.r >= 1:
            lhs, rhs = total - reference_int_total(p.with_r(p.r - 1)), reference_combo(p)
            res.check(lhs == rhs, "int_total(r) - int_total(r-1) == derivative_combo", params=p, lhs=lhs, rhs=rhs)
            if p.ve >= 1:
                closed = reference_kr_closed(p)
                diff = reference_int_circ(p) - reference_int_circ(p.with_r(p.r - 1))
                res.check(
                    closed == diff, "int_circ_kr_closed == int_circ(r) - int_circ(r-1)", params=p, lhs=closed, rhs=diff
                )
    return res


@pytest.mark.parametrize("mutated", [False, True], ids=["clean", "derivative_mutated"])
def test_afl_matches_a_per_tuple_int_total_walk(monkeypatch, mutated):
    """The suite never calls ``int_total`` and calls ``_packed_circ`` once
    per reduced tuple, in the grid's order; its report is the plain walk's,
    also with the packed derivative and the walk's derivative both 1 too
    large at one tuple."""
    derivative = reference_derivative
    if mutated:
        target, original = OrbitalParams(r=1, vb=0, vc=3, ve=3, vda=1), verify._packed_derivative
        monkeypatch.setattr(
            verify, "_packed_derivative", lambda *args: original(*args) + (OrbitalParams(*args[:5]) == target)
        )

        def derivative(p):
            d = reference_derivative(p)
            return d + QPolynomial.one() if p == target else d

    want = reference_afl(SMALL, derivative).to_json()
    totals = []
    for module in (intersection, verify):
        if hasattr(module, "int_total"):
            monkeypatch.setattr(module, "int_total", lambda *args: totals.append(args) or intersection.int_total(*args))
    circs = counted(monkeypatch, "_packed_circ")
    (res,) = run_suite("afl", SMALL)
    assert res.to_json() == want
    assert res.passed != mutated
    assert totals == []
    assert [args[:4] for args in circs] == [(p.r, p.vb + p.vc, p.ve, p.vda) for p in reduced_tuples(SMALL)]


LEVEL_DIFFERENCE = "int_total(r) - int_total(r-1) == derivative_combo"
KR_CLOSED = "int_circ_kr_closed == int_circ(r) - int_circ(r-1)"
TOTAL = "int_total == derivative_closed_form"


@pytest.mark.parametrize(
    "ve, failed",
    [
        (0, {(TOTAL, 1, 0), (TOTAL, 1, 2), (LEVEL_DIFFERENCE, 1, 0), (LEVEL_DIFFERENCE, 1, 2),
             (LEVEL_DIFFERENCE, 2, 0), (LEVEL_DIFFERENCE, 2, 2)}),
        (2, {(TOTAL, 1, 2), (LEVEL_DIFFERENCE, 1, 2), (LEVEL_DIFFERENCE, 2, 2), (KR_CLOSED, 1, 2), (KR_CLOSED, 2, 2)}),
    ],
    ids=["ve0", "ve2"],
)
def test_afl_int_circ_mutation_reaches_every_value_built_from_it(monkeypatch, ve, failed):
    """The packed int_circ (``_packed_circ``) 1 too large at one r = 1 tuple
    fails the checks of every value built from it: the total there and,
    read back as the total at ve - 2, the total two steps up (no higher ve
    here), each at its own level and as the level below at r = 2; and with
    ve >= 1, the single-cell difference at r = 1 and r = 2."""
    target = OrbitalParams(r=1, vb=0, vc=3, ve=ve, vda=1)
    original = verify._packed_circ
    monkeypatch.setattr(verify, "_packed_circ", lambda *args: original(*args) + (args[:4] == (1, 3, ve, 1)))
    (res,) = run_suite("afl", SMALL)
    assert {(f["identity"], f["params"]["r"], f["params"]["ve"]) for f in res.failures} == failed
    assert all(f["params"] == {**target.label(), "r": f["params"]["r"], "ve": f["params"]["ve"]} for f in res.failures)


def packed_plus_one(original):
    """+ 1 at q**0 on a packed value."""
    return lambda *args: original(*args) + 1


def doubled(original):
    return lambda *args: original(*args).scale(2)


def flip_pass(original):
    return lambda *args: {**original(*args), "pass": False}


def plus_top_level(original):
    """The Hecke vector at level r plus 1 at r, so that its derivative
    gains D(r), which is never 0: the q**0 coefficient is at least 1."""
    return lambda r: original(r) + HeckeVector({r: 1})


ORBIT = ["identity", "params"]
SIDES = ["identity", "params", "lhs", "rhs"]
SATAKE = ["identity", "r"]


RECORD_CASES = [
    (
        "orbital",
        "_packed_derivative",
        lambda f: lambda r, vb, *rest: f(r, vb, *rest) + (vb == 1),  # + 1 at q**0 where vb == 1
        {"derivative == signed series derivative": ORBIT, "derivative depends only on vb+vc": ORBIT},
    ),
    ("afl", "_packed_derivative", packed_plus_one, {"int_total == derivative_closed_form": SIDES}),
    (
        "afl",
        "_gk_pair",
        lambda f: lambda *args: (f(*args)[0], f(*args)[1] + 1),
        {"n1 + n2 == 2 ve + vb + vc + 2r": ORBIT},
    ),
    ("afl", "_packed_combo", packed_plus_one, {"int_total(r) - int_total(r-1) == derivative_combo": SIDES}),
    ("afl", "_packed_kr_closed", packed_plus_one, {"int_circ_kr_closed == int_circ(r) - int_circ(r-1)": SIDES}),
    ("miracle", "_packed_gk", packed_plus_one, {None: ["params", "lhs", "rhs", "pass"]}),
    (
        "kernel",
        "_packed_certificate",
        lambda f: lambda *args: dataclasses.replace(f(*args), rank=f(*args).rank - 1),
        {"full rank certificate": ["identity", "params", "rank", "expected", "flags"]},
    ),
    (
        "kernel",
        "large_r_vector",
        plus_top_level,
        {"large-r 1,2,1 vanishing": ["identity", "params", "value", "expected_zero", "pass"]},
    ),
    (
        "kernel",
        "phi_sequence_vector",
        plus_top_level,
        {
            "sequence vanishing outside window": [
                "identity", "params", "r", "window", "value", "pass", "inside_window",
            ]
        },
    ),
    (
        "satake",
        "satake_u3_indicator",
        doubled,
        {"rank-3 aggregate base change": SATAKE, "rank-3 single-cell base change": SATAKE},
    ),
    ("satake", "bc_gl3_to_u3", doubled, {"rank-3 determinant-route base change": SATAKE}),
    (
        "satake",
        "proj_fiber_gl3",
        lambda f: lambda r: {j: c.scale(2) for j, c in f(r).items()},
        {"fiber projection difference": SATAKE},
    ),
    ("satake", "bc_s2_combo_image", doubled, {"rank-2 combination == sum of basis images": SATAKE}),
    ("satake", "p_r_polynomial", doubled, {"three-term vanishing polynomial shape": SATAKE}),
    (
        "quaternion",
        "quaternion_invariants",
        flip_pass,
        {"quaternion invariants": ["identity", "lam", "alpha", "beta", "s", "t", "checks"]},
    ),
]


@pytest.mark.parametrize(
    "suite, callee, mutate, records", RECORD_CASES, ids=[f"{suite}-{callee}" for suite, callee, *_ in RECORD_CASES]
)
def test_suite_failure_records(monkeypatch, suite, callee, mutate, records):
    """One mutated callee per case: the suite keeps its check count and
    reports exactly the named identities, each record with its keys in order
    and its exact values JSON-encoded."""
    (clean,) = run_suite(suite, SMALL)
    assert clean.passed
    monkeypatch.setattr(verify, callee, mutate(getattr(verify, callee)))
    (mutated,) = run_suite(suite, SMALL)
    assert not mutated.passed and mutated.checked == clean.checked
    assert {f.get("identity") for f in mutated.failures} == set(records)
    for f in mutated.failures:
        assert list(f) == records[f.get("identity")]
        json.dumps(f)
        if suite in ("orbital", "afl", "miracle"):
            assert list(f["params"]) == ["r", "vb", "vc", "ve", "vda"]
        for side in ("lhs", "rhs"):
            if side in f:
                assert QPolynomial.from_json(f[side]).to_json() == f[side]


SMOKE = SweepConfig(r_max=2, ve_max=4, sum_bc_max=5)


def largest_coefficient(*values):
    """The largest |coefficient| of the q-polynomials ``values``."""
    return max((abs(c) for value in values for c in value._terms.values()), default=0)


#: The dict references memoised: ``miracle_values``, ``afl_values`` and
#: ``bounded_references`` read the same values at a tuple, and the level
#: differences read the level below's.
cached_derivative, cached_circ, cached_total = map(
    functools.cache, (reference_derivative, reference_int_circ, reference_int_total)
)


def miracle_values(p):
    """Every value ``suite_miracle`` packs at ``p``: the Gross-Keating value,
    D(ve), D(ve - 1) and their sum, from the dict references."""
    here, below = cached_derivative(p), cached_derivative(p.with_ve(p.ve - 1))
    return reference_gross_keating(gk_from_params(p)), here, below, here + below


def afl_values(p):
    """Every value ``suite_afl`` packs at ``p`` but its two closed forms: the
    total, int_circ and D, and at r >= 1 the level differences of the total
    and of int_circ, from the dict references."""
    values = [cached_total(p), cached_circ(p), cached_derivative(p)]
    if p.r >= 1:
        q = p.with_r(p.r - 1)
        values += [values[0] - cached_total(q), values[1] - cached_circ(q)]
    return values


def bounded_references(p, totals=True):
    """{family: (named bound, values)} at ``p``: each coefficient bound a
    packed builder is proven within, read at p's ints, and the dict
    references it must hold.  The total's bound holds int_circ and, with
    ``totals``, int_total; the anti-diagonal's is read at column r."""
    s = p.vb + p.vc
    gk = gk_from_params(p)
    totals = [cached_total(p)] if totals else []
    antidiagonal = reference_antidiagonal(DerivMatrix(s, p.vda, p.r, ()), p.r)
    out = {
        "derivative": (_derivative_bound(p.r, s, p.ve), [cached_derivative(p)]),
        "gross_keating": (_gk_bound(gk.n1, gk.n2), [reference_gross_keating(gk)]),
        "total": (_total_bound(p.r, s, p.ve), [cached_circ(p), *totals]),
        "antidiagonal": (_antidiagonal_bound(s), [antidiagonal]),
    }
    if p.r >= 1:
        out["combo"] = _combo_bound(s, p.ve), [reference_combo(p)]
        if p.ve >= 1:
            out["kr_closed"] = _kr_closed_bound(s), [reference_kr_closed(p)]
    return out


def kernel_references(config):
    """(family, bound, values) for the kernel suite at ``config``: each
    vanishing combination (``derivative_of_vector``) at its orbits and
    levels up to ``ve_max``, against its vector's 1-norm times D's bound at
    its top level; and each rank-grid matrix's minors (``bareiss_rank``)
    against their ``_rank_bound`` b, and its M'' against 2b."""
    for s in _KERNEL_SUMS:
        for vda in _KERNEL_VDAS:
            for ve in range(0, config.ve_max + 1, 2):
                base = OrbitalParams(r=0, vb=0, vc=s, ve=ve, vda=vda)
                vectors = [large_r_vector(r) for r in range(ve + 2, ve + 9)]
                vectors += [phi_sequence_vector(r) for r in range(5, ve + 9)]
                for vec in vectors:
                    norm = sum(abs(c) for _, weight in vec.items() for c in weight.coefficients())
                    r = max(level for level, _ in vec.items())
                    yield "kernel", norm * _derivative_bound(r, s, ve), [derivative_of_vector(base, vec)]
    for s in KERNEL_RANK_GRID["sum_bc"]:
        for vda in KERNEL_RANK_GRID["vda"]:
            for n_cap in KERNEL_RANK_GRID["n_cap"]:
                stages = reference_stages(s, vda, n_cap)
                bound = _rank_bound(coefficient_norms(stages["M"]), n_cap + 1)
                minors = []
                bareiss_rank(stages["M"], minors)
                yield "rank", bound, minors
                yield "rank_m2", 2 * bound, [e for row in stages["M''"] for e in row]


def far_points(n=1500, seed=20261021):
    """Seeded tuples far past the default grid: r <= 200, odd vb + vc <=
    399, vb >= -50, ve <= 199 and vda <= 99 or INFINITY."""
    rng = random.Random(seed)
    for _ in range(n):
        s = 2 * rng.randrange(200) + 1
        vb = rng.randrange(-50, s + 1)
        vda = rng.choice([INFINITY, rng.randrange(100)])
        yield OrbitalParams(r=rng.randrange(201), vb=vb, vc=s - vb, ve=rng.randrange(200), vda=vda)


#: The families whose bound a value on the smoke and default grids attains;
#: the total's at r = ve = 0 and vb + vc = 1, where int_total is 1.
GRID_ATTAINED = {"derivative", "kr_closed", "antidiagonal", "total"}


@pytest.mark.parametrize(
    "config, largest, attained",
    [(SMOKE, {"miracle": 17, "afl": 9, "combo": 5, "kr_closed": 4, "derivative": 9, "gross_keating": 17, "total": 9,
              "antidiagonal": 3, "kernel": 11, "rank": 123844671, "rank_m2": 15}, GRID_ATTAINED),
     (SweepConfig(), {"miracle": 43, "afl": 22, "combo": 11, "kr_closed": 7, "derivative": 22, "gross_keating": 43,
                      "total": 22, "antidiagonal": 6, "kernel": 11, "rank": 123844671, "rank_m2": 15}, GRID_ATTAINED),
     (None, {"combo": 255, "kr_closed": 140, "derivative": 539, "gross_keating": 1077, "total": 417,
             "antidiagonal": 193, "gk_top_digit": 60}, {"derivative", "kr_closed", "antidiagonal", "gk_top_digit"})],
    ids=["smoke", "default", "far"],
)
def test_packing_widths_hold_every_value(config, largest, attained):
    """Equal packed ints are equal q-polynomials only while every
    coefficient is below 2**(width - 1) in absolute value.  Every named
    coefficient bound holds its values, read from the dict references, at
    every reduced tuple of the smoke and default grids and at seeded far
    points (``bounded_references``); on the grids, so do the kernel suite's
    (``kernel_references``), and every value the miracle and afl sweeps pack
    fits their width (``_miracle_width``, ``_afl_width``), the afl sweep's
    two closed forms included.  At the far points the Gross-Keating bound
    also holds the packed top digit of each pair with n1 and n2 - n1 both
    even, the reference's Fraction top coefficient plus 1/2.  The largest
    |coefficient| of each family is pinned, and so are the families whose
    bound some value attains, so that the bound less 1 would fail: on the
    default grid miracle's 43 against 64 is the tightest width, so a width
    one bit lower fails."""
    got, reached = dict.fromkeys(largest, 0), set()

    def hold(family, bound, values):
        top = largest_coefficient(*values)
        assert top <= bound, family
        got[family] = max(got[family], top)
        if top == bound:
            reached.add(family)

    widths = {}
    if config is None:
        for p in far_points():
            for family, (bound, values) in bounded_references(p, totals=p.ve <= 40).items():
                hold(family, bound, values)
        for n1 in range(0, 60, 2):
            for n2 in range(n1, 120, 2):
                top = reference_gross_keating(GKPair(n1, n2)).coefficient(n1 // 2) + Fraction(1, 2)
                hold("gk_top_digit", _gk_bound(n1, n2), [QPolynomial.constant(top)])
    else:
        widths = {"miracle": verify._miracle_width(config), "afl": verify._afl_width(config)}
        widths["combo"] = widths["kr_closed"] = widths["afl"]
        widths["kernel"] = verify._kernel_width(config)
        for p in reduced_tuples(config):
            for family, (bound, values) in bounded_references(p).items():
                hold(family, bound, values)
            got["miracle"] = max(got["miracle"], largest_coefficient(*miracle_values(p)))
            got["afl"] = max(got["afl"], largest_coefficient(*afl_values(p)))
        for family, bound, values in kernel_references(config):
            hold(family, bound, values)
    assert (got, reached) == (largest, attained)
    for name, width in widths.items():
        assert got[name] < 2 ** (width - 1), name


@pytest.mark.parametrize(
    "module, formula, argv, printed, suites",
    [
        (orbital, "_packed_derivative", "derivative -r 0 --vb 0 --vc 5 --ve 4 --vda 1", "2q + 7", ["miracle", "afl"]),
        (intersection, "_packed_gk", "gk --n1 2 --n2 3", "q + 5", ["miracle"]),
    ],
    ids=["derivative", "gk"],
)
def test_calculator_prints_the_formula_the_sweeps_check(monkeypatch, capsys, module, formula, argv, printed, suites):
    """``derivative`` and ``gk`` print the packed forms the sweeps compare:
    the form 1 too large at q**0, patched in its own module, which the
    calculator's decoder reads, and in ``verify``, which imports it, moves
    the printed value and fails the smoke grid's suites that read it."""
    assert cli.main(argv.split()) == 0 and capsys.readouterr().out == printed + "\n"
    wrong = packed_plus_one(getattr(module, formula))
    monkeypatch.setattr(module, formula, wrong)
    monkeypatch.setattr(verify, formula, wrong)
    assert cli.main(argv.split()) == 0
    assert capsys.readouterr().out != printed + "\n"
    for suite in suites:
        (res,) = run_suite(suite, SMOKE)
        assert not res.passed, suite


def wrong_coefficient(original):
    """The rank-3 formula with the constant term at level 2 off by one."""
    return lambda j: original(j) + SatakeY.one() if j == 2 else original(j)


def unsigned(original):
    """The rank-2 formula without its sign (-1)**r."""
    return lambda r: SatakeY.window(r).scale(QPolynomial.q_power(r))


@pytest.mark.parametrize(
    "module, formula, mutate, identities",
    [
        (satake, "bc_s3_on_basis", wrong_coefficient,
         {"rank-3 aggregate base change", "rank-3 single-cell base change"}),
        (verify, "bc_s2_on_basis", unsigned, {"rank-2 combination == sum of basis images"}),
    ],
    ids=["rank-3", "rank-2"],
)
def test_satake_suite_checks_the_formulas(monkeypatch, module, formula, mutate, identities):
    """The base-change images are formulas, not solves of the identities the
    suite checks, so a wrong formula fails its identity at the same count."""
    monkeypatch.setattr(module, formula, mutate(getattr(module, formula)))
    (mutated,) = run_suite("satake", SMALL)
    assert not mutated.passed and mutated.checked == 50
    assert {f["identity"] for f in mutated.failures} == identities


VOLUMES = SweepConfig(precision=3)
VOLUME_PARAMS = {"one_disk": {"xi", "rho", "n"}, "two_disk": {"xi1", "xi2", "rho1", "rho2", "n"}}


def assert_volume_failures(result, lemmas):
    assert not result.passed and result.checked == 42606
    assert {f["lemma"] for f in result.failures} == lemmas
    for f in result.failures:
        assert set(f) == {"lemma", "params", "enumerated", "formula", "match"}
        assert set(f["params"]) == VOLUME_PARAMS[f["lemma"]]
        enumerated, formula = Fraction(*f["enumerated"]), Fraction(*f["formula"])
        assert [enumerated.numerator, enumerated.denominator] == f["enumerated"]
        assert [formula.numerator, formula.denominator] == f["formula"]
        assert abs(enumerated - formula) == Fraction(1, 3**6) and f["match"] is False


def test_volumes_suite_reports_mutated_closed_form(monkeypatch):
    clean = verify.suite_volumes(VOLUMES)
    assert clean.passed and clean.checked == 42606
    original = verify.one_disk_points

    def off_by_one(ring, gap_val, rho, n):
        return original(ring, gap_val, rho, n) + ((rho, n) == (1, 2))

    monkeypatch.setattr(verify, "one_disk_points", off_by_one)
    mutated = verify.suite_volumes(VOLUMES)
    assert_volume_failures(mutated, {"one_disk", "two_disk"})
    for f in mutated.failures:
        assert f["params"]["n"] == 2
        assert f["params"].get("rho", f["params"].get("rho1")) == 1


@pytest.mark.parametrize(
    "second_key, lemmas",
    [(lambda key2: key2 == (1, 0, 2), {"one_disk", "two_disk"}), (lambda key2: key2 != (1, 0, 2), {"two_disk"})],
    ids=["histogram-one_disk", "keyed_histogram-two_disk"],
)
def test_volumes_suite_reports_mutated_histogram(monkeypatch, second_key, lemmas):
    """Plus 1 at n = 2 on every histogram whose first disk has coset key
    (1, 0, 2) and whose second key passes ``second_key``.  A disk is the
    memo entry of its coincident pair, so key1 == key2 reaches both lemmas."""
    original = DiskCounter.keyed_histogram

    def bumped(self, key1, key2):
        hist = original(self, key1, key2)
        if key1 == (1, 0, 2) and second_key(key2):
            hist = hist[:2] + (hist[2] + 1,) + hist[3:]
        return hist

    monkeypatch.setattr(DiskCounter, "keyed_histogram", bumped)
    mutated = verify.suite_volumes(VOLUMES)
    assert_volume_failures(mutated, lemmas)
    assert mutated.failures == walk_volume_failures(VOLUMES)
    for f in mutated.failures:
        params = f["params"]
        assert params["n"] == 2 and params.get("rho", params.get("rho1")) == 2


def volume_pairs(config):
    """The two-disk sweep's center pairs (xi1, xi2), in sweep order."""
    ring = QuadExtRing(p=config.p, precision=config.precision)
    p, prec = ring.p, ring.precision
    deltas = [(0, 0)] + [d for v in range(prec) for d in ((p**v, 0), (0, p**v))]
    pairs = ((xi1, ring.sub(xi1, delta)) for xi1 in ring.units() for delta in deltas)
    return [(xi1, xi2) for xi1, xi2 in pairs if ring.is_unit(xi2)]


def test_coset_keys_are_the_center_mod_p_rho():
    ring = QuadExtRing(p=VOLUMES.p, precision=VOLUMES.precision)
    counter = DiskCounter(ring)
    for a, b in ring.units():
        want = [(a % ring.p**rho, b % ring.p**rho, rho) for rho in range(ring.precision + 1)]
        assert counter.coset_keys((a, b)) == want, (a, b)


def test_keyed_histogram_is_the_pair_histogram_memo_entry():
    ring = QuadExtRing(p=VOLUMES.p, precision=VOLUMES.precision)
    counter = DiskCounter(ring)
    for xi1, xi2 in volume_pairs(VOLUMES):
        keys1, keys2 = counter.coset_keys(xi1), counter.coset_keys(xi2)
        for rho1 in range(ring.precision + 1):
            for rho2 in range(rho1 + 1):
                hist = counter.keyed_histogram(keys1[rho1], keys2[rho2])
                assert hist is counter.pair_histogram(xi1, rho1, xi2, rho2), (xi1, xi2, rho1, rho2)


def test_volumes_reads_each_key_pair_once(monkeypatch):
    """A clean run keys each unit's cosets once and enumerates each distinct
    (key1, key2) pair of the disks and disk pairs it checks once: every
    later lookup of the pair is a ``keyed_histogram`` memo hit."""
    ring = QuadExtRing(p=VOLUMES.p, precision=VOLUMES.precision)
    counter, prec = DiskCounter(ring), ring.precision
    want = set()
    for xi in ring.units():
        keys = counter.coset_keys(xi)
        want.update((keys[rho], keys[rho]) for rho in range(prec))
    for xi1, xi2 in volume_pairs(VOLUMES):
        keys1, keys2 = counter.coset_keys(xi1), counter.coset_keys(xi2)
        want.update((keys1[rho1], keys2[rho2]) for rho1 in range(prec) for rho2 in range(rho1 + 1))
    keyed, lookups, built = [], [], []
    coset_keys, keyed_histogram, build = DiskCounter.coset_keys, DiskCounter.keyed_histogram, DiskCounter._build

    def counted_keys(self, center):
        keyed.append(center)
        return coset_keys(self, center)

    def counted_lookup(self, key1, key2):
        lookups.append((key1, key2))
        return keyed_histogram(self, key1, key2)

    def counted_build(self, key):
        built.append(key)
        return build(self, key)

    monkeypatch.setattr(DiskCounter, "coset_keys", counted_keys)
    monkeypatch.setattr(DiskCounter, "keyed_histogram", counted_lookup)
    monkeypatch.setattr(DiskCounter, "_build", counted_build)
    assert verify.suite_volumes(VOLUMES).passed
    assert keyed == list(ring.units())
    assert len(built) == len(set(built)) == len(want) and set(built) == want
    assert set(lookups) == want


def test_volumes_without_disks_makes_no_checks():
    assert verify.suite_volumes(SweepConfig(precision=1)).checked == 0


def walk_volume_failures(config):
    """suite_volumes' failure records from a walk over every (disk, n) in
    sweep order, asking ``verify.one_disk_points`` for each n: the suite's
    comparison before it tabulated the closed forms."""
    ring = QuadExtRing(p=config.p, precision=config.precision)
    counter, prec, p = DiskCounter(ring), ring.precision, ring.p
    records = []

    def compare(lemma, params, hist, wants):
        for n, want in wants:
            if hist[n] != want:
                got, want = Fraction(hist[n], p ** (2 * prec)), Fraction(want, p ** (2 * prec))
                records.append({"lemma": lemma, "params": {**params, "n": n}, "match": False,
                                "enumerated": [got.numerator, got.denominator],
                                "formula": [want.numerator, want.denominator]})

    for xi in ring.units():
        gap = ring.val_int(1 - ring.norm(xi))
        for rho in range(prec):
            wants = [(n, verify.one_disk_points(ring, gap, rho, n)) for n in range(max(rho, 1), prec)]
            compare("one_disk", {"xi": xi, "rho": rho}, counter.histogram(xi, rho), wants)
    for xi1, xi2 in volume_pairs(config):
        gap = ring.val_int(1 - ring.norm(xi1))
        for rho1 in range(prec):
            for rho2 in range(rho1 + 1):
                far = ring.val(ring.sub(xi1, xi2)) < rho2
                wants = [(n, 0 if far else verify.one_disk_points(ring, gap, rho1, n)) for n in range(max(rho1, 1), prec)]
                hist = counter.pair_histogram(xi1, rho1, xi2, rho2)
                compare("two_disk", {"xi1": xi1, "xi2": xi2, "rho1": rho1, "rho2": rho2}, hist, wants)
    return records


def bump_points(where):
    """one_disk_points plus 1 wherever ``where(gap, rho, n)`` holds."""
    original = verify.one_disk_points
    return lambda ring, gap, rho, n: original(ring, gap, rho, n) + where(gap, rho, n)


def bump_far_pairs(original):
    """keyed_histogram plus 1 at n = 1 where the disks miss: the first key
    reduced mod p**rho2 differs from the second (v(c1 - c2) < rho2)."""

    def bumped(self, key1, key2):
        hist = original(self, key1, key2)
        pr = self.ring.p ** key2[2]
        if (key1[0] % pr, key1[1] % pr) != key2[:2]:
            hist = hist[:1] + (hist[1] + 1,) + hist[2:]
        return hist

    return bumped


def bump_second_key(original, key2):
    """keyed_histogram plus 1 at n = 2 wherever the second disk has coset
    key ``key2``, and nowhere else."""

    def bumped(self, key1, second):
        hist = original(self, key1, second)
        return hist[:2] + (hist[2] + 1,) + hist[3:] if second == key2 else hist

    return bumped


# A mismatch walks the n range only where the one slice compare per histogram
# fails, and a comparison is skipped only where an equal one (the same unit
# entry, or the same xi1 entry, xi2 keys and sep) matched in full, so each
# mutation must leave the records (and their order) of the walk.  The suite
# indexes units and shares equal keys by the ring's modulus, so two cases run
# on other rings, the second at p = 7, where each class mod p holds p**2 = 49
# units with the same keys.  The last two split comparisons that share all
# but one part of their name: units with equal keys but not gap, and pairs
# with equal xi1 entries and sep but not xi2 keys.
@pytest.mark.parametrize(
    "config, target, mutation, checked, count",
    [
        (VOLUMES, verify, ("one_disk_points", bump_points(lambda gap, rho, n: n == 2)), 42606, 23490),  # the last n
        (VOLUMES, verify, ("one_disk_points", bump_points(lambda gap, rho, n: (rho, n) == (0, 1))), 42606, 5022),  # first n at rho = 0
        (VOLUMES, DiskCounter, ("keyed_histogram", bump_far_pairs(DiskCounter.keyed_histogram)), 42606, 1134),  # an all-zero row
        (SweepConfig(p=5, precision=2), DiskCounter, ("keyed_histogram", bump_far_pairs(DiskCounter.keyed_histogram)),
         10050, 1150),
        (SweepConfig(p=7, precision=2), DiskCounter,
         ("keyed_histogram", bump_far_pairs(DiskCounter.keyed_histogram)), 39690, 4606),
        (VOLUMES, verify, ("one_disk_points", bump_points(lambda gap, rho, n: gap == 3 and n == 2)), 42606, 1278),
        (VOLUMES, DiskCounter, ("keyed_histogram", bump_second_key(DiskCounter.keyed_histogram, (1, 0, 1))), 42606, 1215),
    ],
    ids=["last_n", "rho0_first_n", "zero_row", "zero_row_p5_N2", "zero_row_p7_N2", "one_gap", "one_key2_at_rho2_1"],
)
def test_volumes_failure_records_match_the_per_n_walk(monkeypatch, config, target, mutation, checked, count):
    assert verify.suite_volumes(config).failures == walk_volume_failures(config) == []
    monkeypatch.setattr(target, *mutation)
    mutated = verify.suite_volumes(config)
    assert mutated.checked == checked and len(mutated.failures) == count
    assert mutated.failures == walk_volume_failures(config)


def first_records(failures, cap, key):
    """The records of ``failures`` that a cap of ``cap`` per identity (read
    from ``key``) keeps: the first ``cap`` of each, in order."""
    kept = {}
    return [f for f in failures if kept.setdefault(f[key], []).append(f) or len(kept[f[key]]) <= cap]


def test_orbital_records_stop_at_the_cap(monkeypatch, capsys):
    """Past ``RECORDS_PER_IDENTITY`` records of an identity, a failure is
    only counted: the report keeps each identity's first records in order,
    the same checks and verdict, and the count of the rest, which the text
    report prints after the records."""
    monkeypatch.setattr(verify, "_closed_form_rows", mutated_rows("sign_flip"))
    full = suite_orbital(SMALL)
    monkeypatch.setattr(verify, "RECORDS_PER_IDENTITY", 3)
    capped = suite_orbital(SMALL).to_json()
    assert capped["failures"] == first_records(full.failures, 3, "identity")
    assert capped["failures_omitted"] == len(full.failures) - len(capped["failures"]) > 0
    assert [*capped.items()][:4] == [*full.to_json().items()][:4]  # suite, checked, counts, passed
    assert full.failures_omitted == 0
    argv = ["verify", "orbital", "--rmax", "2", "--sum-bc-max", "3", "--ve-max", "3", "--vda-max", "2"]
    assert cli.main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:-1] == [json.dumps(f) for f in capped["failures"]]
    assert lines[-1] == f"({capped['failures_omitted']} more failures not recorded)"


def test_volumes_records_stop_at_the_cap_without_building_their_values(monkeypatch):
    """A capped volumes run meets every failure the uncapped one records,
    so a comparison that failed is never remembered as passed, and builds
    the two Fractions of a record only while its lemma has room."""
    monkeypatch.setattr(verify, "one_disk_points", bump_points(lambda gap, rho, n: n == 2))  # the last n
    full = verify.suite_volumes(VOLUMES)
    assert len(full.failures) == 23490 and full.failures_omitted == 0
    fractions = []

    class CountedFraction(Fraction):
        def __new__(cls, *args):
            fractions.append(args)
            return super().__new__(cls, *args)

    monkeypatch.setattr(verify, "Fraction", CountedFraction)
    monkeypatch.setattr(verify, "RECORDS_PER_IDENTITY", 5)
    capped = verify.suite_volumes(VOLUMES)
    assert capped.failures == first_records(full.failures, 5, "lemma")
    assert len(capped.failures) + capped.failures_omitted == len(full.failures) and capped.checked == full.checked
    assert len(fractions) == 2 * len(capped.failures) == 2 * 10
