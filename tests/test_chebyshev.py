
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqsvt.chebyshev import (
    EPS_FLOOR,
    ChebyshevSeries,
    FilterSpec,
    _sup_norm,
    certify_filter,
    cheb_eval,
    heaviside_filter,
    synthesis_margin,
)
from fqsvt.linalg import rng
from fqsvt.qsp import synthesize_symmetric


def test_cheb_eval_t1_t2():
    assert cheb_eval(ChebyshevSeries([0.0, 1.0], "odd"), 0.7) == pytest.approx(0.7)
    assert cheb_eval(ChebyshevSeries([0.0, 0.0, 1.0], "even"), 0.3) == pytest.approx(-0.82)


def test_cheb_eval_matches_direct_summation():
    gen = rng(1)
    coeffs = gen.uniform(-1, 1, 21)
    series = ChebyshevSeries(coeffs, "none")
    xs = gen.uniform(-1, 1, 100)
    direct = sum(c * np.cos(k * np.arccos(xs)) for k, c in enumerate(coeffs))
    assert np.max(np.abs(series(xs) - direct)) <= 1e-12


def test_cheb_eval_rejects_outside_domain():
    with pytest.raises(ValueError, match="outside"):
        cheb_eval(ChebyshevSeries([1.0]), 1.1)


def test_parity_validation():
    with pytest.raises(ValueError, match="odd-index"):
        ChebyshevSeries([0.0, 0.5], "even")
    ChebyshevSeries([0.0, 0.5], "odd")


def test_filter_spec_invariants():
    FilterSpec(0.5, 0.3, 1e-3)
    with pytest.raises(ValueError, match="inside"):
        FilterSpec(0.9, 0.3, 1e-3)
    with pytest.raises(ValueError, match="inside"):
        FilterSpec(0.1, 0.3, 1e-3)
    with pytest.raises(ValueError, match="budget"):
        FilterSpec(0.5, 0.3, 1.5)


def test_heaviside_low_degree_example():
    spec = FilterSpec(0.5, 0.6, 0.1)
    filt = heaviside_filter(spec)
    assert filt.degree <= 12
    assert filt.parity == "even"
    assert certify_filter(filt, spec).passed


def test_heaviside_value_near_one_at_zero():
    for spec in (FilterSpec(0.5, 0.6, 0.1), FilterSpec(0.4, 0.2, 1e-3)):
        filt = heaviside_filter(spec)
        assert abs(1.0 - filt(0.0)) < spec.eps / 2


def test_heaviside_even_parity_enforced():
    filt = heaviside_filter(FilterSpec(0.5, 0.2, 1e-3))
    assert np.max(np.abs(filt.coeffs[1::2])) <= 1e-12


def test_sup_norm_in_u_variable_brackets_dense_grid_maximum():
    filt = heaviside_filter(FilterSpec(0.5, 0.2, 1e-3))
    xs = np.linspace(-1.0, 1.0, 200_001)
    grid_max = float(np.max(np.abs(filt(xs))))
    # The even filter is G(2x^2 - 1); G's coefficients are the even ones.
    sup = _sup_norm(filt.coeffs[0::2])
    assert grid_max <= sup <= grid_max + 1e-9
    assert sup == pytest.approx(_sup_norm(filt.coeffs), abs=1e-12)


@pytest.mark.parametrize("eps", [1e-1, 1e-3, 1e-5, 4e-6, 1e-6, 1e-7])
def test_heaviside_certifies_and_synthesizes_down_to_small_budgets(eps):
    # A fixed 1e-6 synthesis margin used to eat the low-side budget for
    # every eps <= 4e-6.
    spec = FilterSpec(0.5, 0.2, eps)
    filt = heaviside_filter(spec)
    report = certify_filter(filt, spec)
    assert report.passed
    assert report.sup_norm.bound == 1.0 - synthesis_margin(eps)
    psi = synthesize_symmetric(filt, 1e-11)
    assert psi.symmetric and psi.degree == filt.degree


def test_budget_below_floor_rejected():
    FilterSpec(0.5, 0.2, EPS_FLOOR)
    with pytest.raises(ValueError, match="floor"):
        FilterSpec(0.5, 0.2, 0.5 * EPS_FLOOR)


def test_heaviside_min_degree():
    spec = FilterSpec(0.5, 0.3, 1e-3)
    base = heaviside_filter(spec)
    assert np.array_equal(heaviside_filter(spec, min_degree=0).coeffs, base.coeffs)
    padded = heaviside_filter(spec, min_degree=base.degree + 10)
    assert padded.degree == base.degree + 10
    assert certify_filter(padded, spec).passed
    with pytest.raises(ValueError, match="even"):
        heaviside_filter(spec, min_degree=7)


def test_heaviside_min_degree_searches_above_it():
    # Certification is not monotone here: 166 and 172 certify, 168 and 170
    # do not. The search from 0 lands on 172; from 150 it must stay above
    # 150 and finds 166.
    spec = FilterSpec(0.5, 0.2, 1e-5)
    assert heaviside_filter(spec).degree == 172
    assert heaviside_filter(spec, min_degree=150).degree == 166
    assert heaviside_filter(spec, min_degree=168).degree == 172


# FilterSpecs across the constructor's box with delta in [0.15, 0.6] and
# eps up to 0.3: narrower windows only raise the degree and the run time.
@st.composite
def filter_boxes(draw):
    delta = draw(st.floats(0.15, 0.6))
    mu = draw(st.floats(delta / 2 + 1e-3, 1.0 - delta / 2 - 1e-3))
    eps = 10.0 ** draw(st.floats(np.log10(EPS_FLOOR), np.log10(0.3)))
    return FilterSpec(mu, delta, eps), draw(st.floats(0.0, 1.05))


@settings(max_examples=12, deadline=None, derandomize=True)
@given(filter_boxes())
def test_heaviside_min_degree_properties(box):
    spec, fraction = box
    base = heaviside_filter(spec)
    m = 2 * int(fraction * base.degree / 2)
    filt = heaviside_filter(spec, min_degree=m)
    assert certify_filter(filt, spec).passed
    assert filt.degree % 2 == 0 and filt.degree >= m
    if m == 0:
        assert np.array_equal(filt.coeffs, base.coeffs)
    # A filter depends only on its degree, however the search reached it.
    pinned = heaviside_filter(spec, min_degree=filt.degree)
    assert np.array_equal(pinned.coeffs, filt.coeffs)


def test_certify_constant_half_fails_both_sides():
    report = certify_filter(ChebyshevSeries([0.5]), FilterSpec(0.5, 0.2, 0.1))
    assert not report.high_side.passed
    assert not report.low_side.passed
    assert report.high_side.margin == pytest.approx(-0.45)
    assert report.low_side.margin == pytest.approx(-0.45)


def test_certify_t2_fails_low_side():
    report = certify_filter(ChebyshevSeries([0, 0, 1.0], "even"), FilterSpec(0.5, 0.2, 0.5))
    assert not report.low_side.passed


def test_certify_rejects_small_grid():
    with pytest.raises(ValueError, match="gridsize"):
        certify_filter(ChebyshevSeries([0.5]), FilterSpec(0.5, 0.2, 0.1), gridsize=50)


def test_certify_refinement_never_flips_to_pass():
    spec = FilterSpec(0.5, 0.4, 1e-2)
    filt = heaviside_filter(spec)
    # Refined grids include every coarse point, so new violations can only
    # appear, never disappear.
    assert certify_filter(filt, spec, gridsize=2001).passed
    assert certify_filter(filt, spec, gridsize=4001).passed
    bad = ChebyshevSeries([0.5])
    assert not certify_filter(bad, spec, gridsize=2001).passed
    assert not certify_filter(bad, spec, gridsize=4001).passed


def test_composition_inequalities_for_squared_filter():
    spec = FilterSpec(0.5, 0.3, 1e-2)
    filt = heaviside_filter(spec)
    low = np.linspace(0.0, spec.mu - spec.delta / 2, 1001)
    vals_low = np.asarray(filt(low))
    assert np.max(np.abs(1 - vals_low**2)) <= np.max(2 * np.abs(1 - vals_low))
    assert np.max(np.abs(1 - vals_low**2)) < spec.eps
    high = np.linspace(spec.mu + spec.delta / 2, 1.0, 1001)
    vals_high = np.asarray(filt(high))
    assert np.max(vals_high**2) < spec.eps**2 / 4


def test_series_json_round_trip():
    filt = heaviside_filter(FilterSpec(0.5, 0.6, 0.1))
    doc = filt.to_json()
    assert doc["parity"] == "even"
    restored = ChebyshevSeries.from_json(doc)
    assert np.array_equal(restored.coeffs, filt.coeffs)
