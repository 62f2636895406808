"""End-to-end identity chain on parameters outside the default sweep grid.

Each case runs the whole chain at once: support-sum oracle, value at s = 0,
series-derivative consistency, total intersection number, the two-derivative
splitting of the Gross-Keating value, and the level-difference identities.
Seven hand-picked extreme tuples run as their own cases; a derandomised
Hypothesis test draws more from the calculator's off-grid ranges.
"""

import pytest
from helpers import reference_derivative
from hypothesis import HealthCheck, given, note, settings
from hypothesis import strategies as st

from semilie import (
    INFINITY,
    GeometricParams,
    OrbitalParams,
    derivative_closed_form,
    derivative_combo,
    geom_to_orbital,
    int_circ,
    int_circ_kr_closed,
    int_total,
    orbital_closed_form,
    orbital_support_sum,
    verify_miracle,
)

EXTREME_CASES = [
    OrbitalParams(r=9, vb=-10, vc=25, ve=13, vda=5),
    OrbitalParams(r=9, vb=15, vc=0, ve=13, vda=0),
    OrbitalParams(r=0, vb=21, vc=0, ve=12, vda=10),
    OrbitalParams(r=12, vb=-12, vc=13, ve=0, vda=INFINITY),
    OrbitalParams(r=7, vb=0, vc=19, ve=15, vda=3),
    OrbitalParams(r=3, vb=-8, vc=9, ve=18, vda=0),
    OrbitalParams(r=1, vb=-1, vc=2, ve=25, vda=12),
]


def assert_full_chain(p):
    series = orbital_closed_form(p)
    assert series == orbital_support_sum(p)
    assert series.at_one().is_zero()

    deriv = derivative_closed_form(p)
    log_deriv = series.log_derivative_at_zero()
    if (p.vc + p.r) % 2:
        log_deriv = -log_deriv
    assert deriv == log_deriv

    assert int_total(p) == reference_derivative(p)
    assert verify_miracle(p)["pass"]

    if p.r >= 1:
        assert int_total(p) - int_total(p.with_r(p.r - 1)) == derivative_combo(p)
        if p.ve >= 1:
            assert int_circ_kr_closed(p) == int_circ(p) - int_circ(p.with_r(p.r - 1))


@pytest.mark.parametrize("p", EXTREME_CASES, ids=lambda p: str(p.label()))
def test_full_chain(p):
    assert_full_chain(p)


@st.composite
def off_grid_params(draw):
    """r <= 30, ve <= 40, vda in {0..20, inf} and odd vb + vc <= 41 with
    vb in [-50, vb + vc]; some tuples come from unitary-side valuations
    through ``geom_to_orbital(...).complete(r)``, which splits vb = 0."""
    r, ve, v_beta = draw(st.integers(0, 30)), draw(st.integers(0, 40)), draw(st.integers(0, 20))
    vda = draw(st.one_of(st.integers(0, 20), st.just(INFINITY)))
    if draw(st.booleans()):
        return geom_to_orbital(GeometricParams(v_nm_u=ve, v_beta=v_beta, v_alpha_diff=vda)).complete(r)
    sum_bc = 2 * v_beta + 1
    vb = draw(st.integers(-50, sum_bc))
    return OrbitalParams(r=r, vb=vb, vc=sum_bc - vb, ve=ve, vda=vda)


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(off_grid_params())
def test_full_chain_off_grid(p):
    vda = "inf" if p.vda == INFINITY else p.vda
    note(f"semilie orbital -r {p.r} --vb {p.vb} --vc {p.vc} --ve {p.ve} --vda {vda} --oracle")
    assert_full_chain(p)
