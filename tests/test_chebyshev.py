import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqsvt import chebyshev
from fqsvt.bands import detect_bands, synthetic_band_spectrum
from fqsvt.chebyshev import (
    EPS_FLOOR,
    PROVED,
    ChebyshevSeries,
    FilterSpec,
    UnresolvedWindowError,
    _build_filters,
    _clenshaw,
    _critical_points,
    _exchange,
    _grid_critical_points,
    _Plateaus,
    _Probe,
    _remez_step,
    certify_filter,
    heaviside_filter,
    synthesis_margin,
)
from fqsvt.cli import main
from fqsvt.linalg import eigh, hermitian_from_spectrum, rng
from fqsvt.qsp import synthesize_symmetric


def test_series_evaluates_t1_t2():
    assert _clenshaw(ChebyshevSeries([0.0, 1.0]).coeffs, 0.7) == pytest.approx(0.7)
    assert _clenshaw(ChebyshevSeries([0.0, 0.0, 1.0]).coeffs, 0.3) == pytest.approx(-0.82)


def test_series_matches_direct_summation():
    gen = rng(1)
    coeffs = gen.uniform(-1, 1, 21)
    series = ChebyshevSeries(coeffs)
    xs = gen.uniform(-1, 1, 100)
    direct = sum(c * np.cos(k * np.arccos(xs)) for k, c in enumerate(coeffs))
    assert np.max(np.abs(_clenshaw(series.coeffs, xs) - direct)) <= 1e-12


def reference_clenshaw(coeffs: np.ndarray, x) -> np.ndarray:
    """The Clenshaw recurrence with a fresh array per step, as `_clenshaw` ran it before."""
    x = np.asarray(x)
    if len(coeffs) == 0:
        return np.zeros_like(x, dtype=complex if np.iscomplexobj(coeffs) else float)
    b1 = np.zeros_like(x, dtype=coeffs.dtype)
    b2 = np.zeros_like(b1)
    for c in coeffs[:0:-1]:
        b1, b2 = 2.0 * x * b1 - b2 + c, b1
    return x * b1 - b2 + coeffs[0]


def test_clenshaw_matches_the_reference_recurrence_bitwise():
    gen = rng(3)
    grids = [np.linspace(-1.0, 1.0, 401), gen.uniform(-1.0, 1.0, 16), np.float64(-0.3)]
    for d in range(60):
        real = gen.standard_normal(d + 1)
        cplx = real + 1j * gen.standard_normal(d + 1)
        stack = gen.standard_normal((d + 1, 3)) + 1j * gen.standard_normal((d + 1, 3))
        for x in grids:
            for coeffs in (real, cplx):
                got, want = _clenshaw(coeffs, x), reference_clenshaw(coeffs, x)
                assert got.shape == want.shape and np.array_equal(got, want), (d, coeffs.dtype)
            # A (d+1, 3, 1) stack gives one row of values per coefficient column.
            rows = _clenshaw(stack.reshape(stack.shape + (1,) * np.ndim(x)), x)
            for j in range(3):
                assert np.array_equal(rows[j], reference_clenshaw(stack[:, j], x)), d


def test_parity_validation():
    # The degree fixes a series' parity: the same odd coefficient is refused
    # in a degree-2 target and synthesizes as a degree-1 one.
    message = "degree 2 has a coefficient 5.000e-01 of the other parity"
    with pytest.raises(ValueError, match=message):
        synthesize_symmetric([ChebyshevSeries([0.0, 0.5, 0.0])])
    assert synthesize_symmetric([ChebyshevSeries([0.0, 0.5])])[0].degree == 1


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
    filt = heaviside_filter([spec])[0]
    assert filt.degree <= 12
    assert filt.degree % 2 == 0
    assert certify_filter(filt, spec).passed


def test_heaviside_value_near_one_at_zero():
    for spec in (FilterSpec(0.5, 0.6, 0.1), FilterSpec(0.4, 0.2, 1e-3)):
        filt = heaviside_filter([spec])[0]
        assert abs(1.0 - _clenshaw(filt.coeffs, 0.0)) < spec.eps / 2


def test_heaviside_even_parity_enforced():
    filt = heaviside_filter([FilterSpec(0.5, 0.2, 1e-3)])[0]
    assert np.max(np.abs(filt.coeffs[1::2])) <= 1e-12


def test_sup_norm_in_u_variable_brackets_dense_grid_maximum():
    # An even filter is certified as G(2x^2 - 1) at half the degree; its
    # exact sup-norm can only sit above a dense grid's maximum in x.
    spec = FilterSpec(0.5, 0.2, 1e-3)
    filt = heaviside_filter([spec])[0]
    grid_max = float(np.max(np.abs(_clenshaw(filt.coeffs, np.linspace(-1.0, 1.0, 200_001)))))
    sup = certify_filter(filt, spec).sup_norm.worst
    assert grid_max - 1e-13 <= sup <= grid_max + 1e-9


def _even_series(g_power: np.ndarray) -> ChebyshevSeries:
    """The even filter f(x) = G(2x^2 - 1) of G given in the power basis of u."""
    g = np.polynomial.chebyshev.poly2cheb(g_power)
    coeffs = np.zeros(2 * len(g) - 1)
    coeffs[0::2] = g
    return ChebyshevSeries(coeffs)


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
    # T_202 = T_101(2x^2 - 1) is even, and its extrema cos(j pi / 202) miss
    # the points of a 2001-point grid away from the ends, so the grid
    # undershoots an interior peak.
    filt = ChebyshevSeries(np.eye(203)[202])
    spec = FilterSpec(0.5, 0.2, 0.1)
    report = certify_filter(filt, spec)
    assert report.high_side.worst == pytest.approx(1.0, abs=1e-12)
    grid = np.linspace(spec.mu + spec.delta / 2, 1.0, 2001)[1:-1]
    assert np.max(np.abs(_clenshaw(filt.coeffs, grid))) < 1.0 - 1e-7

@pytest.mark.parametrize("coeffs", [np.eye(202)[201], [0.5, 1e-300, 0.2], [0.5, 0, 0.2, 0.1]],
                         ids=["odd", "mixed", "odd-top"])
def test_certify_rejects_an_odd_coefficient_naming_the_degree(coeffs):
    # Every filter built is even; an odd series has f(0) = 0 and can never
    # pass the low side, which starts at x = 0.
    series = ChebyshevSeries(coeffs)
    with pytest.raises(ValueError, match=f"even series only, and the series of degree "
                                         f"{series.degree} has an odd coefficient"):
        certify_filter(series, FilterSpec(0.5, 0.2, 0.1))


@pytest.mark.parametrize("eps", [1e-1, 1e-3, 1e-5, 4e-6, 1e-6, 1e-7])
def test_heaviside_certifies_and_synthesizes_down_to_small_budgets(eps):
    # A fixed 1e-6 synthesis margin used to eat the low-side budget for
    # every eps <= 4e-6.
    spec = FilterSpec(0.5, 0.2, eps)
    filt = heaviside_filter([spec])[0]
    report = certify_filter(filt, spec)
    assert report.passed
    assert report.sup_norm.bound == 1.0 - synthesis_margin(eps)
    psi = synthesize_symmetric([filt])[0]
    assert psi.symmetric and psi.degree == filt.degree


def test_budget_below_floor_rejected():
    FilterSpec(0.5, 0.2, EPS_FLOOR)
    with pytest.raises(ValueError, match="floor"):
        FilterSpec(0.5, 0.2, 0.5 * EPS_FLOOR)


def minimax_verdict(spec: FilterSpec, half: int):
    """The verdict of one Remez probe of `spec` at half-degree `half`, run alone."""
    probe = _Probe(_Plateaus(spec), half)
    while (verdict := _remez_step([probe])[0]) is None:
        pass
    return verdict


def test_heaviside_degree_is_the_smallest_feasible():
    # The erfc filter certified here at 166 and 172 but not at 168 or 170.
    # The minimax verdict is monotone: every lower half-degree is infeasible
    # and the next few above stay feasible.
    spec = FilterSpec(0.5, 0.2, 1e-5)
    filt = heaviside_filter([spec])[0]
    half = filt.degree // 2
    assert filt.degree == 92
    assert all(minimax_verdict(spec, h).level >= 1.0 for h in range(1, half))
    assert all(minimax_verdict(spec, h).level < 1.0 for h in range(half, half + 8))


@pytest.mark.parametrize("spec, degree", [
    # Creeps up: early-exit levels extrapolate short, one half-degree a probe.
    (FilterSpec(0.457, 0.0796, 8.9e-7), 290),
    # Creeps down: feasible levels near 1 are not monotone in the degree.
    (FilterSpec(0.0834, 0.1128, 7.1e-7), 222),
])
def test_heaviside_search_does_not_creep(monkeypatch, spec, degree):
    # Extrapolating from the last two probes alone took 12 and 18 calls.
    calls = []

    def counting(probes):
        verdicts = _remez_step(probes)
        calls.extend(p.half for p, v in zip(probes, verdicts) if v is not None)
        return verdicts

    monkeypatch.setattr(chebyshev, "_remez_step", counting)
    assert heaviside_filter([spec])[0].degree == degree
    assert len(calls) <= 8, calls


def layout_structure(count: int):
    """`count` bands of 2 eigenvalues 0.02 apart, centred evenly on [0.05, 0.95].

    The layout of the multi-band benchmark inputs.
    """
    centers = np.linspace(0.05, 0.95, count)
    return detect_bands(np.sort(np.concatenate([centers - 0.01, centers + 0.01])),
                        target_bands=count)


@functools.cache
def layout_filters(count: int) -> tuple:
    """The split filters of `layout_structure(count)` at round_eps 1e-3."""
    structure = layout_structure(count)
    return tuple(heaviside_filter([FilterSpec(float(c), structure.delta, 1e-3)])[0]
                 for c in structure.centers)


# Degrees returned when every exchange step took its extrema from exact
# root solves; the grid-located exchange must return the same ones.
LAYOUT_DEGREES = {
    8: [116, 108, 106, 98, 88, 74, 52],
    16: [310, 300, 300, 298, 290, 284, 276, 264, 254, 240, 224, 206, 184, 158, 122],
}
PINNED_DEGREES = [
    (0.578, 0.0663, 1.42e-6, 306), (0.202, 0.0532, 8.96e-8, 558),
    (0.8, 0.134, 1.6e-7, 128), (0.687, 0.262, 4.17e-3, 26), (0.724, 0.236, 1.11e-6, 74),
    (0.428, 0.259, 8.35e-5, 60), (0.773, 0.0971, 1.36e-7, 192), (0.541, 0.196, 8.78e-4, 56),
    (0.837, 0.125, 6.73e-4, 58), (0.135, 0.12, 1.68e-3, 96), (0.733, 0.157, 0.0893, 20),
    (0.74, 0.0462, 2.23e-4, 220), (0.298, 0.267, 4.2e-3, 36), (0.689, 0.0324, 0.0596, 108),
    (0.207, 0.0885, 6.03e-4, 148), (0.537, 0.244, 6.08e-7, 90), (0.236, 0.274, 4.84e-6, 76),
    (0.353, 0.0451, 0.0216, 138), (0.769, 0.146, 5.5e-7, 118), (0.68, 0.241, 1.68e-7, 88),
    (0.292, 0.0938, 6.8e-3, 88), (0.694, 0.0779, 3e-5, 176), (0.16, 0.246, 3.88e-7, 102),
]


@pytest.mark.parametrize("count", sorted(LAYOUT_DEGREES))
def test_layout_filter_degrees_are_pinned(count):
    structure = layout_structure(count)
    filters = layout_filters(count)
    assert [f.degree for f in filters] == LAYOUT_DEGREES[count]
    for c, filt in zip(structure.centers, filters):
        assert certify_filter(filt, FilterSpec(float(c), structure.delta, 1e-3)).passed


@pytest.mark.parametrize("mu, delta, eps, degree", PINNED_DEGREES)
def test_filter_degree_is_pinned(mu, delta, eps, degree):
    spec = FilterSpec(mu, delta, eps)
    filt = heaviside_filter([spec])[0]
    assert filt.degree == degree
    assert certify_filter(filt, spec).passed


def test_a_window_that_nearly_fills_the_interval_raises_naming_it():
    # The low edge 1.0000000272e-9 maps to u = -1 exactly, and the first
    # reference repeats that point, so the exchange's solve is singular.
    with pytest.raises(UnresolvedWindowError,
                       match=r"^transition window \[1\.0000000272292198e-09, "
                             r"0\.9999999989999999\] nearly fills \(0, 1\)"):
        heaviside_filter([FilterSpec(0.5, 0.999999998, 2.5e-4)])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("delta, window, u", [
    (1e-16, r"0\.49999999999999994, 0\.5", r"-0\.5000000000000001 and -0\.5"),
    (1e-17, r"0\.5, 0\.5", r"-0\.5 and -0\.5"),
], ids=["neighbouring-floats-in-u", "one-x"])
def test_a_window_narrower_than_float_resolution_raises_naming_it(delta, window, u):
    # The quadrature nodes of one plateau round onto the other plateau's
    # edge, where the equilibrium density would divide by zero: the build
    # raises, with no warning.
    with pytest.raises(UnresolvedWindowError, match=rf"^transition window \[{window}\] is "
                                                    rf"narrower than float resolution: its "
                                                    rf"edges map to u = 2x\^2 - 1 = {u},"):
        heaviside_filter([FilterSpec(0.2, 0.1, 1e-3), FilterSpec(0.5, delta, 1e-3)])


@pytest.mark.parametrize("spec, degree", [
    (FilterSpec(0.5, 0.99999998, 2.5e-4), 2),
    # An edge of 3e-9 also maps to u = -1, and the exchange resolves it.
    (FilterSpec(0.45 + 1.5e-9, 0.9 - 3e-9, 1e-3), 6),
    # A first iterate that meets both plateau targets exactly has level 0.
    (FilterSpec(0.500000001, 0.999999996, 0.1), 2),
], ids=["low-edge-1e-8", "low-edge-3e-9", "level-zero"])
def test_windows_that_nearly_fill_the_interval_can_build(spec, degree):
    (search,) = _build_filters([spec])
    assert search.filter.degree == degree
    assert search.report.passed


def test_heaviside_raises_when_the_cap_is_too_low(monkeypatch):
    # The probe at the cap proves it infeasible, so the spec alone decides it.
    monkeypatch.setattr(chebyshev, "DEGREE_CAP", 20)
    with pytest.raises(chebyshev.UnresolvedWindowError, match="no even filter of degree <= 20"):
        heaviside_filter([FilterSpec(0.5, 0.2, 1e-3)])


def test_the_cap_error_names_the_item_and_its_unproven_probes(monkeypatch):
    # Item 0 needs degree 8; item 1 needs 60 and, with one exchange iteration
    # a probe, stops unproven at each of its probes below the cap.
    # A cap probe proved infeasible is an UnresolvedWindowError (a ValueError); one
    # that stopped unproven decides nothing and stays a RuntimeError.
    specs = [FilterSpec(0.5, 0.6, 0.1), FilterSpec(0.5, 0.2, 1e-3)]
    monkeypatch.setattr(chebyshev, "DEGREE_CAP", 20)
    with pytest.raises(chebyshev.UnresolvedWindowError,
                       match=r"delta=0\.2, eps=0\.001\) \(item 1 of 2\); "
                             r"0 of its 1 probes stopped unproven$"):
        heaviside_filter(specs)
    monkeypatch.setattr(chebyshev, "DEGREE_CAP", 58)
    monkeypatch.setattr(chebyshev, "REMEZ_MAX_ITER", 1)
    with pytest.raises(RuntimeError, match=r"\(item 1 of 2\); 3 of its 3 probes stopped unproven$"):
        heaviside_filter(specs)
    with pytest.raises(RuntimeError, match=r"eps=0\.001\); 3 of its 3 probes"):
        heaviside_filter([specs[1]])


def benchmark_hamiltonian(seed: int) -> np.ndarray:
    """H of the enumerate-L8 benchmark inputs at `seed`: 8 bands of 2, 0.02 wide, on a Haar basis.

    The basis is the QR factor of a complex Gaussian matrix with the phases
    of R's diagonal folded in, drawn from numpy's default generator seeded
    with [seed, 20240807].
    """
    gen = np.random.default_rng([seed, 20240807])
    z = (gen.standard_normal((16, 16)) + 1j * gen.standard_normal((16, 16))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    basis = q * (np.diag(r) / np.abs(np.diag(r)))
    h = (basis * synthetic_band_spectrum(8, 2, 0.02)) @ basis.conj().T
    return 0.5 * (h + h.conj().T)


def test_every_infeasible_probe_on_the_run_layouts_is_proved():
    # The enumerate-L8 benchmark inputs at seeds 0-2, and the synthetic 2-,
    # 4-, 8- and 16-band models of the CI's project runs (basis seed 5):
    # no probe stops at a stall, a short exchange or the iteration cap.
    layouts = [(benchmark_hamiltonian(seed), 8, 1e-3) for seed in range(3)]
    for bands, per_band, width, eps in [(2, 8, 0.02, 1e-2), (4, 2, 0.02, 1e-3),
                                        (8, 2, 0.02, 1e-3), (16, 1, 0.0, 1e-3)]:
        values = synthetic_band_spectrum(bands, per_band, width)
        layouts.append((hermitian_from_spectrum(values, rng(5, 1)), bands, eps))
    reasons = []
    for h, bands, eps in layouts:
        structure = detect_bands(eigh(h).values, target_bands=bands)
        searches = _build_filters([FilterSpec(float(c), structure.delta, eps)
                                   for c in structure.centers])
        reasons += [reason for search in searches for _, reason in search.probes]
    assert "infeasible" in reasons
    assert set(reasons) <= set(PROVED)


def _grid_worsts(filt, spec, points=200_001):
    lo_edge, hi_edge = spec.mu - spec.delta / 2, spec.mu + spec.delta / 2
    return (np.max(np.abs(_clenshaw(filt.coeffs, np.linspace(hi_edge, 1.0, points)))),
            np.max(np.abs(1.0 - _clenshaw(filt.coeffs, np.linspace(0.0, lo_edge, points)))),
            np.max(np.abs(_clenshaw(filt.coeffs, np.linspace(-1.0, 1.0, points)))))


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
    filt = heaviside_filter([spec])[0]
    report = certify_filter(filt, spec)
    assert report.passed
    assert filt.degree % 2 == 0
    assert minimax_verdict(spec, filt.degree // 2 - 1).level >= 1.0
    # Exact extrema never undershoot a dense grid, up to roundoff.
    for cond, grid_worst in zip(report.conditions(), _grid_worsts(filt, spec)):
        assert cond.worst >= grid_worst - 1e-13


# Lists of 1-8 specs drawn from a pool of up to 4, so duplicates are common.
spec_lists = st.lists(filter_specs(), min_size=1, max_size=4).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=8))


@settings(max_examples=10, deadline=None, derandomize=True)
@given(spec_lists)
def test_a_list_of_specs_builds_what_each_builds_alone(specs):
    # The searches advance in lockstep, yet each probes the same half-degrees
    # in the same order and ends on the same filter and report, bit for bit.
    together = _build_filters(specs)
    listed = heaviside_filter(specs)
    assert len(together) == len(listed) == len(specs)
    for spec, search, filt in zip(specs, together, listed):
        alone = _build_filters([spec])[0]
        assert search.probes == alone.probes
        assert np.array_equal(search.filter.coeffs, alone.filter.coeffs)
        assert np.array_equal(filt.coeffs, alone.filter.coeffs)
        assert search.report == alone.report


def test_certify_constant_half_fails_both_sides():
    report = certify_filter(ChebyshevSeries([0.5]), FilterSpec(0.5, 0.2, 0.1))
    assert not report.high_side.passed
    assert not report.low_side.passed
    assert report.high_side.margin == pytest.approx(-0.45)
    assert report.low_side.margin == pytest.approx(-0.45)


def test_certify_t2_fails_low_side():
    report = certify_filter(ChebyshevSeries([0, 0, 1.0]), FilterSpec(0.5, 0.2, 0.5))
    assert not report.low_side.passed


def test_certify_refinement_never_flips_to_pass():
    # Exact extrema bound every grid from above, so no refinement of a grid
    # can fail a filter that exact certification passes.
    spec = FilterSpec(0.5, 0.4, 1e-2)
    for filt in (heaviside_filter([spec])[0], ChebyshevSeries([0.5])):
        report = certify_filter(filt, spec)
        for points in (2001, 4001):
            grid = _grid_worsts(filt, spec, points)
            assert all(c.worst >= g - 1e-13 for c, g in zip(report.conditions(), grid))
    assert not certify_filter(ChebyshevSeries([0.5]), spec).passed


def test_composition_inequalities_for_squared_filter():
    spec = FilterSpec(0.5, 0.3, 1e-2)
    filt = heaviside_filter([spec])[0]
    low = np.linspace(0.0, spec.mu - spec.delta / 2, 1001)
    vals_low = np.asarray(_clenshaw(filt.coeffs, low))
    assert np.max(np.abs(1 - vals_low**2)) <= np.max(2 * np.abs(1 - vals_low))
    assert np.max(np.abs(1 - vals_low**2)) < spec.eps
    high = np.linspace(spec.mu + spec.delta / 2, 1.0, 1001)
    vals_high = np.asarray(_clenshaw(filt.coeffs, high))
    assert np.max(vals_high**2) < spec.eps**2 / 4


def reference_exchange(points: np.ndarray, errors: np.ndarray, n: int) -> np.ndarray:
    """`_exchange` with its same-sign merge as a loop over the points."""
    points, first = np.unique(points, return_index=True)
    errors = errors[first]
    keep = [0]
    for i in range(1, len(points)):
        if (errors[i] > 0) != (errors[keep[-1]] > 0):
            keep.append(i)
        elif abs(errors[i]) > abs(errors[keep[-1]]):
            keep[-1] = i
    while len(keep) > n:
        mags = np.abs(errors[keep])
        last = len(keep) - 1
        if len(keep) == n + 1:
            drop = [0 if mags[0] < mags[last] else last]
        else:
            i = int(np.argmin(mags))
            drop = [i] if i in (0, last) else [i, i - 1 if mags[i - 1] < mags[i + 1] else i + 1]
        for j in sorted(drop, reverse=True):
            del keep[j]
    return points[keep]


@st.composite
def exchange_sets(draw):
    """Points drawn from a few values, so they repeat, with errors of a few magnitudes."""
    size = draw(st.integers(2, 40))
    pool = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=size))
    mags = draw(st.lists(st.sampled_from([0.5, 1.0, 1.0, 2.0, 3.0]), min_size=size, max_size=size))
    points = np.array([draw(st.sampled_from(pool)) for _ in range(size)])
    signs = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=size, max_size=size)))
    return points, signs * np.array(mags), draw(st.integers(2, size))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(exchange_sets())
def test_exchange_matches_the_loop(case):
    points, errors, n = case
    assert np.array_equal(_exchange(points, errors, n), reference_exchange(points, errors, n))


def reference_grid_critical_points(coeffs: np.ndarray) -> np.ndarray:
    """`_grid_critical_points` with sin and cos of every angle k t in its Newton steps."""
    h = len(coeffs) - 1
    k = np.arange(h + 1)
    kc = k * coeffs
    intervals = 8 * h + 63
    theta = np.arange(1, intervals) * (np.pi / intervals)
    slope = -np.fft.rfft(kc, 2 * intervals).imag[1:intervals]
    i = np.flatnonzero((slope[:-1] > 0.0) != (slope[1:] > 0.0))
    lo, hi = theta[i], theta[i + 1]
    t = lo + (hi - lo) * slope[i] / (slope[i] - slope[i + 1])
    for _ in range(4):
        angles = np.outer(t, k)
        t = np.clip(t - (np.sin(angles) @ kc) / (np.cos(angles) @ (k * kc)), lo, hi)
    return np.cos(t)


@pytest.mark.parametrize("count", [8, 16])
def test_grid_critical_points_match_the_trig_newton(count):
    # The layout filters' G at half their degree, up to h = 155.
    for filt in layout_filters(count):
        g = filt.coeffs[0::2]
        got, want = _grid_critical_points([g])[0], reference_grid_critical_points(g)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13
        exact = _critical_points(g)
        assert np.max(np.min(np.abs(got[:, None] - exact[None, :]), axis=1)) <= 1e-9


def test_heaviside_filter_certifies_without_a_root_solve_of_its_own(monkeypatch):
    # Certification reuses the critical points of the feasible verdict, so
    # every colleague-matrix solve happens inside a Remez step.
    solves = {"inside": 0, "outside": 0}
    where = ["outside"]

    def counting_roots(coeffs):
        solves[where[-1]] += 1
        return _critical_points(coeffs)

    def step(probes):
        where.append("inside")
        try:
            return _remez_step(probes)
        finally:
            where.pop()

    monkeypatch.setattr(chebyshev, "_critical_points", counting_roots)
    monkeypatch.setattr(chebyshev, "_remez_step", step)
    spec = FilterSpec(0.5, 0.2, 1e-5)
    filt = heaviside_filter([spec])[0]
    assert solves["inside"] > 0 and solves["outside"] == 0
    monkeypatch.undo()
    assert certify_filter(filt, spec).passed


def phases_artifacts(tmp_path, spec: FilterSpec) -> dict:
    """The JSON artifacts of `fqsvt phases` for `spec`, by file name."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"mu": spec.mu, "delta": spec.delta, "eps": spec.eps}))
    assert main(["phases", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    return {path.name: json.loads(path.read_text(encoding="utf-8"))
            for path in (tmp_path / "out").glob("*.json")}


def test_series_json_round_trip(tmp_path):
    filt = heaviside_filter([FilterSpec(0.5, 0.6, 0.1)])[0]
    doc = phases_artifacts(tmp_path, FilterSpec(0.5, 0.6, 0.1))["filter.json"]
    assert doc["parity"] == "even"
    restored = ChebyshevSeries(doc["coeffs"])
    assert np.array_equal(restored.coeffs, filt.coeffs)
