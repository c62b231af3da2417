
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqsvt import chebyshev
from fqsvt.chebyshev import (
    EPS_FLOOR,
    ChebyshevSeries,
    FilterSpec,
    _minimax_step,
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
    # An even filter is certified as G(2x^2 - 1) at half the degree; its
    # exact sup-norm can only sit above a dense grid's maximum in x.
    spec = FilterSpec(0.5, 0.2, 1e-3)
    filt = heaviside_filter(spec)
    grid_max = float(np.max(np.abs(filt(np.linspace(-1.0, 1.0, 200_001)))))
    sup = certify_filter(filt, spec).sup_norm.worst
    assert grid_max - 1e-13 <= sup <= grid_max + 1e-9


def _even_series(g_power: np.ndarray) -> ChebyshevSeries:
    """The even filter f(x) = G(2x^2 - 1) of G given in the power basis of u."""
    g = np.polynomial.chebyshev.poly2cheb(g_power)
    coeffs = np.zeros(2 * len(g) - 1)
    coeffs[0::2] = g
    return ChebyshevSeries(coeffs, "even")


def test_certify_finds_a_clustered_critical_point():
    # G(u) = 0.9 - 0.1 (u - 0.3)^4 peaks at a triple root of G', which the
    # colleague matrix returns as a complex cluster around 0.3.
    g = -0.1 * np.polynomial.polynomial.polyfromroots([0.3] * 4)
    g[0] += 0.9
    filt = _even_series(g)
    report = certify_filter(filt, FilterSpec(0.5, 0.2, 0.1))
    assert report.sup_norm.worst == pytest.approx(0.9, abs=1e-15)
    assert report.sup_norm.worst_x == pytest.approx(np.sqrt(0.65), abs=1e-4)


def test_certify_exact_worst_at_a_peak_between_grid_points():
    # T_201's extrema cos(j pi / 201) miss the points of a 2001-point grid
    # away from the ends, so the grid undershoots an interior peak.
    filt = ChebyshevSeries(np.eye(202)[201], "odd")
    spec = FilterSpec(0.5, 0.2, 0.1)
    report = certify_filter(filt, spec)
    assert report.high_side.worst == pytest.approx(1.0, abs=1e-12)
    grid = np.linspace(spec.mu + spec.delta / 2, 1.0, 2001)[1:-1]
    assert np.max(np.abs(filt(grid))) < 1.0 - 1e-7

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


def test_heaviside_degree_is_the_smallest_feasible():
    # The erfc filter certified here at 166 and 172 but not at 168 or 170.
    # The minimax verdict is monotone: every lower half-degree is infeasible
    # and the next few above stay feasible.
    spec = FilterSpec(0.5, 0.2, 1e-5)
    filt = heaviside_filter(spec)
    half = filt.degree // 2
    assert filt.degree == 92
    assert all(_minimax_step(spec, h)[1] >= 1.0 for h in range(1, half))
    assert all(_minimax_step(spec, h)[1] < 1.0 for h in range(half, half + 8))


@pytest.mark.parametrize("spec, degree", [
    # Creeps up: early-exit levels extrapolate short, one half-degree a probe.
    (FilterSpec(0.457, 0.0796, 8.9e-7), 290),
    # Creeps down: feasible levels near 1 are not monotone in the degree.
    (FilterSpec(0.0834, 0.1128, 7.1e-7), 222),
])
def test_heaviside_search_does_not_creep(monkeypatch, spec, degree):
    # Extrapolating from the last two probes alone took 12 and 18 calls.
    calls = []

    def counting(spec, half):
        calls.append(half)
        return _minimax_step(spec, half)

    monkeypatch.setattr(chebyshev, "_minimax_step", counting)
    assert heaviside_filter(spec).degree == degree
    assert len(calls) <= 8, calls


def test_heaviside_raises_when_the_cap_is_too_low(monkeypatch):
    monkeypatch.setattr(chebyshev, "DEGREE_CAP", 20)
    with pytest.raises(RuntimeError, match="no even filter of degree <= 20"):
        heaviside_filter(FilterSpec(0.5, 0.2, 1e-3))


def _grid_worsts(filt, spec, points=200_001):
    lo_edge, hi_edge = spec.mu - spec.delta / 2, spec.mu + spec.delta / 2
    return (np.max(np.abs(filt(np.linspace(hi_edge, 1.0, points)))),
            np.max(np.abs(1.0 - filt(np.linspace(0.0, lo_edge, points)))),
            np.max(np.abs(filt(np.linspace(-1.0, 1.0, points)))))


# FilterSpecs across the constructor's box with delta in [0.15, 0.6] and
# eps up to 0.3: narrower windows only raise the degree and the run time.
@st.composite
def filter_specs(draw):
    delta = draw(st.floats(0.15, 0.6))
    mu = draw(st.floats(delta / 2 + 1e-3, 1.0 - delta / 2 - 1e-3))
    eps = 10.0 ** draw(st.floats(np.log10(EPS_FLOOR), np.log10(0.3)))
    return FilterSpec(mu, delta, eps)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(filter_specs())
def test_heaviside_filter_properties(spec):
    filt = heaviside_filter(spec)
    report = certify_filter(filt, spec)
    assert report.passed
    assert filt.degree % 2 == 0
    assert _minimax_step(spec, filt.degree // 2 - 1)[1] >= 1.0
    # Exact extrema never undershoot a dense grid, up to roundoff.
    for cond, grid_worst in zip(report.conditions(), _grid_worsts(filt, spec)):
        assert cond.worst >= grid_worst - 1e-13


def test_certify_constant_half_fails_both_sides():
    report = certify_filter(ChebyshevSeries([0.5]), FilterSpec(0.5, 0.2, 0.1))
    assert not report.high_side.passed
    assert not report.low_side.passed
    assert report.high_side.margin == pytest.approx(-0.45)
    assert report.low_side.margin == pytest.approx(-0.45)


def test_certify_t2_fails_low_side():
    report = certify_filter(ChebyshevSeries([0, 0, 1.0], "even"), FilterSpec(0.5, 0.2, 0.5))
    assert not report.low_side.passed


def test_certify_refinement_never_flips_to_pass():
    # Exact extrema bound every grid from above, so no refinement of a grid
    # can fail a filter that exact certification passes.
    spec = FilterSpec(0.5, 0.4, 1e-2)
    for filt in (heaviside_filter(spec), ChebyshevSeries([0.5])):
        report = certify_filter(filt, spec)
        for points in (2001, 4001):
            grid = _grid_worsts(filt, spec, points)
            assert all(c.worst >= g - 1e-13 for c, g in zip(report.conditions(), grid))
    assert not certify_filter(ChebyshevSeries([0.5]), spec).passed


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
    restored = ChebyshevSeries(doc["coeffs"], doc["parity"])
    assert np.array_equal(restored.coeffs, filt.coeffs)
