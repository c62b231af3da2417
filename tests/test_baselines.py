import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqsvt.bands import BandStructure, detect_bands, exact_projectors, synthetic_band_spectrum
from fqsvt.baselines import (
    _BLOCK,
    _evolve_steps,
    adiabatic_leakage_scaling,
    adiabatic_time_estimate,
    prob_projection_depth,
    random_walk_success,
)
from fqsvt.linalg import dagger, eigh, hermitian_from_spectrum, rng


def _reference_walk(structure, spectrum, trials, gen):
    """Monte Carlo success rate of the walk, one trial at a time, with n x n
    band projectors on a Haar input.

    The walk keeps a claimed prefix i. At each level it queries split
    k = i + 2^(ell - level), the projector onto the bands below k, and then
    guesses the outcome: a high guess moves the prefix to k. A level whose
    split reaches past the last band is skipped: it makes no query and draws
    no guess. Every draw comes from `gen`, a test-local generator.
    """
    count = structure.band_count
    ell = math.ceil(math.log2(count)) if count > 1 else 0
    projectors = exact_projectors(spectrum, structure)
    n = spectrum.vectors.shape[0]

    successes = 0
    for _ in range(trials):
        state = gen.standard_normal(n) + 1j * gen.standard_normal(n)
        state /= np.linalg.norm(state)
        prefix = 0
        for level in range(1, ell + 1):
            split = prefix + 2 ** (ell - level)
            if split >= count:
                continue
            low_part = sum(projectors[:split]) @ state
            w_low = float(np.vdot(low_part, low_part).real)
            total = float(np.vdot(state, state).real)
            outcome_low = gen.random() < w_low / total
            state = low_part if outcome_low else state - low_part
            if level < ell and gen.random() >= 0.5:
                prefix = split
        weight = float(np.vdot(state, state).real)
        if weight > 0:
            band_weights = [float(np.vdot(state, p @ state).real) for p in projectors]
            if max(band_weights) >= (1.0 - 1e-9) * weight:
                successes += 1
    return successes / trials


def _reference_evolve(h0, h1, total_time, steps, amplitudes):
    """Fourth-order Magnus steps along the linear path, one `eigh` call per step.

    Step k exponentiates K = dt H(s) - i (dt^3 / (12 T)) [V, H(s)] at the
    midpoint s = (k + 0.5) / steps, with V = H1 - H0.
    """
    state = amplitudes.astype(complex)
    dt = total_time / steps
    drift = h1 - h0
    commutator_weight = dt**3 / (12.0 * total_time)
    for k in range(steps):
        g = (k + 0.5) / steps
        h = (1.0 - g) * h0 + g * h1
        spec = eigh(dt * h - 1j * commutator_weight * (drift @ h - h @ drift))
        phases = np.exp(-1j * spec.values)
        state = spec.vectors @ (phases * (dagger(spec.vectors) @ state))
    return state


def test_prob_projection_depth_examples():
    assert prob_projection_depth(np.full(16, 1 / 16)) == 4.0
    assert prob_projection_depth([1.0]) == 1.0
    assert prob_projection_depth([0.25, 0.75]) == pytest.approx(0.5 + math.sqrt(0.75))
    # An empty band costs nothing.
    assert prob_projection_depth([0.5, 0.5, 0.0]) == pytest.approx(math.sqrt(2.0))


def test_prob_projection_depth_validation():
    with pytest.raises(ValueError, match="sum"):
        prob_projection_depth([0.5, 0.4])
    with pytest.raises(ValueError, match="nonnegative"):
        prob_projection_depth([1.5, -0.5])


def test_prob_projection_depth_sum_tolerance_is_1e_9():
    # The sums miss 1 by 2e-9 and 5e-10, either side of the 1e-9 tolerance.
    with pytest.raises(ValueError, match="probabilities must sum to 1"):
        prob_projection_depth([0.5, 0.5 + 2e-9])
    assert prob_projection_depth([0.5, 0.5 + 5e-10]) == pytest.approx(math.sqrt(2.0))


def _structure(sizes):
    """Consecutive bands of the given sizes; the gap centers are placeholders."""
    edges = np.cumsum([0, *sizes])
    return BandStructure(np.arange(len(sizes) - 1) + 0.5, 1.0,
                         [list(range(a, b)) for a, b in zip(edges[:-1], edges[1:])])


def test_random_walk_two_bands_always_classifies():
    assert random_walk_success(_structure([2, 2])) == 1.0


def test_random_walk_four_bands_bounded_by_half():
    structure = detect_bands(synthetic_band_spectrum(4, 2, 0.02), target_bands=4)
    assert random_walk_success(structure) == 0.5


@pytest.mark.parametrize("sizes, success", [
    ([3], 1.0),
    # A low first guess leaves all three bands alone, a high one only band 2:
    # (4 + 2) / (2 * 4), and (4 + 1) / (2 * 4) with the sizes reversed.
    ([1, 1, 2], 0.75),
    ([2, 1, 1], 0.625),
    # Both paths that guess low first leave three bands alone, both that
    # guess high only band 4: (3 + 3 + 1 + 1) / (4 * 5).
    ([1, 1, 1, 1, 1], 0.4),
    # Splits 4, 2, 1 or 4, 2, 3 after a low first guess and 4, 5 after a high
    # one (split 6 is past the last band): every path leaves two bands of 2
    # alone, 4 / 12.
    ([2, 2, 2, 2, 2, 2], 1 / 3),
], ids=["one-band", "three-bands-heavy-last", "three-bands-heavy-first", "five-bands",
        "six-bands"])
def test_random_walk_success_by_hand(sizes, success):
    assert random_walk_success(_structure(sizes)) == success


@pytest.mark.parametrize("count", list(range(1, 17)))
@pytest.mark.parametrize("seed, trials", [(0, 1000), (1, 1001), (2, 1300)])
def test_random_walk_matches_per_trial_reference(count, seed, trials):
    # A z-test of the exact expectation against a Monte Carlo of the walk on
    # one Haar basis, with bands of 1-3 eigenvalues.
    per_band = 1 + (count + seed) % 3
    spectrum = eigh(hermitian_from_spectrum(
        synthetic_band_spectrum(count, per_band, 0.02), rng(seed, count)))
    structure = detect_bands(spectrum.values, target_bands=count)
    exact = random_walk_success(structure)
    rate = _reference_walk(structure, spectrum, trials, np.random.default_rng([seed, count]))
    stderr = math.sqrt(max(exact * (1.0 - exact), 1.0 / trials) / trials)
    assert abs(rate - exact) <= 4.0 * stderr


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from([2, 4, 8, 16]).flatmap(
    lambda count: st.lists(st.integers(1, 4), min_size=count, max_size=count)))
def test_random_walk_success_is_two_over_L_at_powers_of_two(sizes):
    assert abs(random_walk_success(_structure(sizes)) - 2.0 / len(sizes)) <= 1e-15


@pytest.mark.parametrize("count", list(range(2, 17)))
def test_random_walk_success_is_two_over_L_with_one_eigenvalue_per_band(count):
    # The splits form a binary tree over the bands, and a uniform walk down
    # it leaves two bands alone on average at every L.
    assert random_walk_success(_structure([1] * count)) == 2.0 / count


def _reference_instance():
    gen = rng(1)
    h0 = np.diag([0.0, 0.15, 1.0, 1.15]).astype(complex)
    v = 0.1 * (gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4)))
    v = 0.5 * (v + dagger(v))
    return h0, h0 + v


@pytest.mark.parametrize("change, message", [
    ({"h0": np.triu(np.ones((4, 4)))}, "not Hermitian"),
    ({"h1": np.eye(2)}, "share a dimension"),
    ({"initial": [1, 0]}, "initial state dimension"),
    ({"initial": [np.nan, 0, 0, 0]}, "finite"),
    ({"times": [50.0, 0.0]}, "positive finite"),
    ({"times": [-1.0]}, "positive finite"),
    ({"times": [math.inf]}, "positive finite"),
    ({"times": []}, "nonempty"),
    ({"band": -1}, r"^band -1 is outside 0\.\.1$"),
    ({"band": 2}, r"^band 2 is outside 0\.\.1$"),
    ({"band": 0.5}, r"^band must be an integer, got 0\.5$"),
    ({"band": True}, r"^band must be an integer, got True$"),
    ({"times": [50.0]}, r"^a slope needs at least two distinct times, got \[50\.\]$"),
    ({"times": [50.0, 50.0]}, r"^a slope needs at least two distinct times, got \[50\. 50\.\]$"),
], ids=["h0-not-hermitian", "shapes-differ", "state-length", "state-nan", "zero-time",
        "negative-time", "infinite-time", "no-times", "band-negative", "band-past-last",
        "band-half", "band-bool", "one-time", "repeated-time"])
def test_leakage_scaling_validates_its_inputs(change, message):
    h0, h1 = _reference_instance()
    args = {"h0": h0, "h1": h1, "structure": detect_bands(eigh(h1).values, target_bands=2),
            "band": 0, "times": [50.0, 100.0], "initial": [1, 0, 0, 0], **change}
    with pytest.raises(ValueError, match=message):
        adiabatic_leakage_scaling(**args)


def test_leakage_scaling_takes_a_numpy_integer_band():
    h0, h1 = _reference_instance()
    structure = detect_bands(eigh(h1).values, target_bands=2)
    fits = [adiabatic_leakage_scaling(h0, h1, structure, band, [5.0, 10.0], [1, 0, 0, 0])
            for band in (1, np.int64(1))]
    assert np.array_equal(fits[0].leakages, fits[1].leakages)


def test_adiabatic_constant_hamiltonian():
    gen = rng(4)
    h = hermitian_from_spectrum([0.1, 0.4, 0.7, 0.9], gen)
    spec = eigh(h)
    init = spec.vectors[:, 1]
    out = _evolve_steps(h, h, 5.0, 100, init)
    expected = math.e ** (-1j * 5.0 * spec.values[1]) * spec.vectors[:, 1]
    assert np.max(np.abs(out - expected)) <= 1e-10
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("steps", [1, _BLOCK - 1, _BLOCK + 1, 2 * _BLOCK + 37])
@pytest.mark.parametrize("total_time", [30.0, -12.5])
def test_evolve_steps_matches_per_step_reference(steps, total_time):
    h0, h1 = _reference_instance()
    init = np.array([0.6, 0.0, 0.8j, 0.0])
    assert np.array_equal(_evolve_steps(h0, h1, total_time, steps, init),
                          _reference_evolve(h0, h1, total_time, steps, init))


def test_evolve_steps_checks_every_interpolated_hamiltonian():
    # Entries below 1 put every stacked matrix's Hermitian tolerance at 1e-10.
    h0, h1 = (0.5 * h for h in _reference_instance())
    assert max(np.max(np.abs(h0)), np.max(np.abs(h1))) < 1.0
    skewed = h1.copy()
    steps = 2 * _BLOCK
    # The skew of step k is s_k times the endpoint's, so steps from 300 on,
    # matrix 44 of the second block first, pass the tolerance.
    skewed[0, 3] += 1e-10 * steps / 300
    with pytest.raises(ValueError, match=r"matrix 44 of the stack is not Hermitian: "
                                         r"entry \((0, 3|3, 0)\)"):
        _evolve_steps(h0, skewed, 1.0, steps, np.array([1, 0, 0, 0], dtype=complex))


def test_adiabatic_time_reversal():
    h0, h1 = _reference_instance()
    init = np.array([1, 0, 0, 0], dtype=complex)
    forward = _evolve_steps(h0, h1, 30.0, 600, init)
    returned = _evolve_steps(h1, h0, -30.0, 600, forward)
    assert np.max(np.abs(returned - init)) <= 1e-8


def _halving_deviation(h0, h1, total_time, steps, initial):
    """Largest change of the evolved state when the step is halved."""
    coarse = _evolve_steps(h0, h1, total_time, steps, initial)
    return float(np.max(np.abs(coarse - _evolve_steps(h0, h1, total_time, 2 * steps, initial))))


def test_adiabatic_convergence_check_raises_on_coarse_steps():
    # A test-local step-halving check at a 1e-8 gate flags T = 100 at 40
    # steps and passes T = 5 at 4000.
    h0, h1 = _reference_instance()
    init = np.array([1, 0, 0, 0], dtype=complex)
    assert _halving_deviation(h0, h1, 100.0, 40, init) >= 1e-8
    assert _halving_deviation(h0, h1, 5.0, 4000, init) < 1e-8


def test_criterion_9_leakage_is_converged_at_its_step_rule():
    # Doubling criterion 9's steps, max(64, ceil(4 T)), moves each leakage it
    # fits by less than 1e-4 relative (5.0e-6 to 7.3e-6 here).
    h0, h1 = _reference_instance()
    structure = detect_bands(eigh(h1).values, target_bands=2)
    projector = exact_projectors(eigh(h1), structure)[0]
    init = np.array([1, 0, 0, 0], dtype=complex)
    times = [50.0, 100.0, 200.0, 400.0]
    fit = adiabatic_leakage_scaling(h0, h1, structure, 0, times, init)
    for total_time, leakage in zip(times, fit.leakages):
        final = _evolve_steps(h0, h1, total_time, 2 * max(64, math.ceil(4 * total_time)), init)
        fine = float(np.linalg.norm(projector @ final - final))
        assert abs(leakage - fine) < 1e-4 * fine


def _midpoint_evolve(h0, h1, total_time, steps, amplitudes):
    """Second-order exponential midpoint steps along the linear path, one stacked `eigh`."""
    g = (np.arange(steps) + 0.5) / steps
    spec = eigh((1.0 - g)[:, None, None] * h0 + g[:, None, None] * h1)
    phases = np.exp(-1j * (total_time / steps) * spec.values)
    state = amplitudes.astype(complex)
    for vectors, ph in zip(spec.vectors, phases):
        state = vectors @ (ph * (dagger(vectors) @ state))
    return state


def test_evolve_steps_is_fourth_order():
    # Against a midpoint reference at 1024 steps per unit time (3e-9 from one
    # at 512), the state errors at 20, 40 and 80 steps are 1.4e-5, 8.3e-7 and
    # 5.1e-8: each halving of the step cuts the error 16-fold, where a
    # second-order step would cut it 4-fold.
    h0, h1 = _reference_instance()
    init = np.array([1, 0, 0, 0], dtype=complex)
    total_time = 20.0
    reference = _midpoint_evolve(h0, h1, total_time, int(1024 * total_time), init)
    errors = [float(np.max(np.abs(_evolve_steps(h0, h1, total_time, steps, init) - reference)))
              for steps in (20, 40, 80)]
    assert errors[0] >= 12 * errors[1] and errors[1] >= 12 * errors[2], errors


def test_adiabatic_leakage_decreases_with_time():
    h0, h1 = _reference_instance()
    structure = detect_bands(eigh(h1).values, target_bands=2)
    fit = adiabatic_leakage_scaling(h0, h1, structure, 0, [50.0, 100.0, 200.0],
                                    [1, 0, 0, 0])
    assert not fit.degenerate
    assert np.all(np.diff(fit.leakages) < 0)
    assert fit.slope < -0.5


def test_adiabatic_leakage_degenerate_for_trivial_instance():
    _, h1 = _reference_instance()
    structure = detect_bands(eigh(h1).values, target_bands=2)
    init = eigh(h1).vectors[:, 0]
    fit = adiabatic_leakage_scaling(h1, h1, structure, 0, [5.0, 10.0], init)
    assert fit.degenerate
    assert np.all(fit.leakages < 1e-9)


def test_adiabatic_leakage_grows_when_gap_shrinks():
    h0, h1 = _reference_instance()
    shrunk0 = np.diag([0.0, 0.15, 0.6, 0.75]).astype(complex)
    shrunk1 = shrunk0 + (h1 - h0)
    init = [1, 0, 0, 0]
    wide = adiabatic_leakage_scaling(h0, h1, detect_bands(eigh(h1).values, target_bands=2),
                                     0, [50.0, 100.0], init)
    narrow = adiabatic_leakage_scaling(shrunk0, shrunk1,
                                       detect_bands(eigh(shrunk1).values, target_bands=2),
                                       0, [50.0, 100.0], init)
    assert np.all(narrow.leakages > wide.leakages)


def test_adiabatic_time_estimate_examples():
    assert adiabatic_time_estimate(1, 1, 1) == 1.0
    assert adiabatic_time_estimate(2, 1, 1) == pytest.approx(2**1.5)
    assert adiabatic_time_estimate(4, 0.1, 0.01) == pytest.approx(8.0e5)
    with pytest.raises(ValueError):
        adiabatic_time_estimate(0, 0.1, 0.1)


@pytest.mark.parametrize("eigenpaths, gap, eps", [
    (2, 1e-200, 1e-2),  # gap^3 underflows to 0
    (2, 1e-104, 1e-2),  # the quotient overflows to inf
    (2, 0.1, 1e-320),
    (10**300, 0.1, 0.1),  # M^(3/2) overflows
], ids=["gap-cube-underflows", "quotient-overflows", "eps-subnormal", "power-overflows"])
def test_adiabatic_time_estimate_names_an_overflow(eigenpaths, gap, eps):
    with pytest.raises(ValueError, match=rf"M={eigenpaths}, gap={gap!r}, eps={eps!r}"):
        adiabatic_time_estimate(eigenpaths, gap, eps)


def test_adiabatic_time_estimate_of_a_huge_gap_underflows_to_zero():
    # gap^3 overflows, so the estimate is 0, as IEEE division by inf gives.
    assert adiabatic_time_estimate(2, 1e200, 1e-2) == 0.0
