import math

import numpy as np
import pytest

from fqsvt.bands import detect_bands, exact_projectors, synthetic_band_spectrum
from fqsvt.baselines import (
    _BLOCK,
    AdiabaticSchedule,
    ConvergenceError,
    WalkEstimate,
    _evolve_steps,
    adiabatic_evolve,
    adiabatic_leakage_scaling,
    adiabatic_time_estimate,
    prob_projection_depth,
    random_walk_success,
)
from fqsvt.linalg import StateVector, dagger, eigh, haar_vector, hermitian_from_spectrum, rng


def _reference_walk(structure, spectrum, trials, seed):
    """The walk one trial at a time, with n x n band projectors on the state."""
    count = structure.band_count
    ell = math.ceil(math.log2(count)) if count > 1 else 0
    projectors = exact_projectors(spectrum, structure)
    n = spectrum.vectors.shape[0]

    def range_projector(lo, hi):
        out = np.zeros((n, n), dtype=complex)
        for j in range(lo, min(hi, count)):
            out += projectors[j]
        return out

    successes = 0
    for trial in range(trials):
        gen = rng(seed, trial)
        state = haar_vector(gen, n)
        lo, hi = 0, 2**ell
        for level in range(1, ell + 1):
            mid = lo + 2 ** (ell - level)
            low_part = range_projector(lo, mid) @ state
            w_low = float(np.vdot(low_part, low_part).real)
            total = float(np.vdot(state, state).real)
            outcome_low = gen.random() < w_low / total
            state = low_part if outcome_low else state - low_part
            if level < ell:
                guess_low = gen.random() < 0.5
                lo, hi = (lo, mid) if guess_low else (mid, hi)
        weight = float(np.vdot(state, state).real)
        if weight > 0:
            band_weights = [float(np.vdot(state, p @ state).real) for p in projectors]
            if max(band_weights) >= (1.0 - 1e-9) * weight:
                successes += 1
    rate = successes / trials
    stderr = math.sqrt(max(rate * (1.0 - rate), 1.0 / trials) / trials)
    return WalkEstimate(rate, stderr, trials, ell)


def _reference_evolve(h0, h1, gamma, total_time, steps, amplitudes):
    """Midpoint exponential steps with one `eigh` call per step."""
    state = amplitudes.astype(complex)
    if total_time == 0.0:
        return state
    dt = total_time / steps
    for k in range(steps):
        g = gamma((k + 0.5) / steps)
        spec = eigh((1.0 - g) * h0 + g * h1)
        phases = np.exp(-1j * dt * spec.values)
        state = spec.vectors @ (phases * (dagger(spec.vectors) @ state))
    return state


def test_prob_projection_depth_examples():
    assert prob_projection_depth(np.full(16, 1 / 16), "amplify") == 4.0
    assert prob_projection_depth([1.0], "amplify") == 1.0
    assert prob_projection_depth([1.0], "repeat") == 1.0
    assert prob_projection_depth([0.25, 0.75], "amplify") == pytest.approx(0.5 + math.sqrt(0.75))
    assert prob_projection_depth([0.5, 0.5, 0.0], "repeat") == 2.0


def test_prob_projection_depth_validation():
    with pytest.raises(ValueError, match="sum"):
        prob_projection_depth([0.5, 0.4], "amplify")
    with pytest.raises(ValueError, match="strategy"):
        prob_projection_depth([1.0], "both")


def test_random_walk_two_bands_always_classifies():
    gen = rng(1)
    h = hermitian_from_spectrum(synthetic_band_spectrum(2, 2, 0.02), gen)
    spec = eigh(h)
    structure = detect_bands(spec.values, target_bands=2)
    est = random_walk_success(structure, spec, trials=1000, seed=2)
    assert est.success_rate == pytest.approx(1.0, abs=1e-9)
    assert est.queries_per_trial == 1


def test_random_walk_four_bands_bounded_by_half():
    gen = rng(2)
    h = hermitian_from_spectrum(synthetic_band_spectrum(4, 2, 0.02), gen)
    spec = eigh(h)
    structure = detect_bands(spec.values, target_bands=4)
    est = random_walk_success(structure, spec, trials=2000, seed=3)
    assert est.success_rate <= 0.5 + 3 * est.stderr
    assert est.success_rate >= 0.5 - 3 * est.stderr


def test_random_walk_requires_enough_trials():
    gen = rng(3)
    h = hermitian_from_spectrum([0.1, 0.9], gen)
    spec = eigh(h)
    structure = detect_bands(spec.values, target_bands=2)
    with pytest.raises(ValueError, match="trials"):
        random_walk_success(structure, spec, trials=10, seed=1)


@pytest.mark.parametrize("count", [1, 2, 3, 5, 8, 16])
@pytest.mark.parametrize("seed, trials", [(0, 1000), (1, 1001), (2, 1300)])
def test_random_walk_matches_per_trial_reference(count, seed, trials):
    per_band = 1 + (count + seed) % 3
    spectrum = eigh(hermitian_from_spectrum(
        synthetic_band_spectrum(count, per_band, 0.02), rng(seed, count)))
    structure = detect_bands(spectrum.values, target_bands=count)
    assert random_walk_success(structure, spectrum, trials, seed) == \
        _reference_walk(structure, spectrum, trials, seed)


def test_schedule_validation():
    AdiabaticSchedule(lambda s: s, 10.0, 100)
    with pytest.raises(ValueError, match="gamma"):
        AdiabaticSchedule(lambda s: 0.5 * s, 10.0, 100)
    with pytest.raises(ValueError, match="nondecreasing"):
        AdiabaticSchedule(lambda s: math.sin(4 * math.pi * s) * 0.5 + s, 1.0, 10)


def test_adiabatic_constant_hamiltonian():
    gen = rng(4)
    h = hermitian_from_spectrum([0.1, 0.4, 0.7, 0.9], gen)
    spec = eigh(h)
    init = StateVector(2, spec.vectors[:, 1])
    out = adiabatic_evolve(h, h, AdiabaticSchedule(lambda s: s, 5.0, 100), init)
    expected = math.e ** (-1j * 5.0 * spec.values[1]) * spec.vectors[:, 1]
    assert np.max(np.abs(out.amplitudes - expected)) <= 1e-10
    assert out.norm == pytest.approx(1.0, abs=1e-10)


def test_adiabatic_zero_time_returns_initial():
    gen = rng(5)
    h = hermitian_from_spectrum([0.2, 0.8], gen)
    init = StateVector(1, [1.0, 0.0])
    out = adiabatic_evolve(h, h, AdiabaticSchedule(lambda s: s, 0.0, 5), init)
    assert np.array_equal(out.amplitudes, init.amplitudes)


def _reference_instance():
    gen = rng(1)
    h0 = np.diag([0.0, 0.15, 1.0, 1.15]).astype(complex)
    v = 0.1 * (gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4)))
    v = 0.5 * (v + dagger(v))
    return h0, h0 + v


@pytest.mark.parametrize("steps", [1, _BLOCK - 1, _BLOCK + 1, 2 * _BLOCK + 37])
@pytest.mark.parametrize("total_time", [30.0, -12.5])
def test_evolve_steps_matches_per_step_reference(steps, total_time):
    h0, h1 = _reference_instance()
    init = np.array([0.6, 0.0, 0.8j, 0.0])
    gamma = lambda s: s * s * (3.0 - 2.0 * s)  # noqa: E731
    assert np.array_equal(_evolve_steps(h0, h1, gamma, total_time, steps, init),
                          _reference_evolve(h0, h1, gamma, total_time, steps, init))


def test_convergence_check_compares_the_reference_evolutions():
    h0, h1 = _reference_instance()
    init = StateVector(2, [1, 0, 0, 0])
    with pytest.raises(ConvergenceError) as info:
        adiabatic_evolve(h0, h1, AdiabaticSchedule(lambda s: s, 100.0, 300), init,
                         check_convergence=True)
    amps = init.amplitudes
    assert np.array_equal(info.value.coarse,
                          _reference_evolve(h0, h1, lambda s: s, 100.0, 300, amps))
    assert np.array_equal(info.value.fine,
                          _reference_evolve(h0, h1, lambda s: s, 100.0, 600, amps))
    out = adiabatic_evolve(h0, h1, AdiabaticSchedule(lambda s: s, 5.0, 4000), init,
                           check_convergence=True)
    assert np.array_equal(out.amplitudes,
                          _reference_evolve(h0, h1, lambda s: s, 5.0, 4000, amps))


def test_evolve_steps_checks_every_interpolated_hamiltonian():
    h0, h1 = _reference_instance()
    skewed = h1.copy()
    skewed[0, 3] += 1e-6
    steps = 2 * _BLOCK
    # Only step _BLOCK + 44 sees the non-Hermitian endpoint.
    gamma = lambda s: 1.0 if round(s * steps - 0.5) == _BLOCK + 44 else 0.0  # noqa: E731
    with pytest.raises(ValueError, match=r"matrix 44 of the stack is not Hermitian: "
                                         r"entry \((0, 3|3, 0)\)"):
        _evolve_steps(h0, skewed, gamma, 1.0, steps, np.array([1, 0, 0, 0], dtype=complex))


def test_adiabatic_time_reversal():
    h0, h1 = _reference_instance()
    init = np.array([1, 0, 0, 0], dtype=complex)
    forward = _evolve_steps(h0, h1, lambda s: s, 30.0, 600, init)
    returned = _evolve_steps(h0, h1, lambda s: 1.0 - s, -30.0, 600, forward)
    assert np.max(np.abs(returned - init)) <= 1e-8


def test_adiabatic_convergence_check_raises_on_coarse_steps():
    h0, h1 = _reference_instance()
    init = StateVector(2, [1, 0, 0, 0])
    with pytest.raises(ConvergenceError):
        adiabatic_evolve(h0, h1, AdiabaticSchedule(lambda s: s, 100.0, 40), init,
                         check_convergence=True)
    adiabatic_evolve(h0, h1, AdiabaticSchedule(lambda s: s, 5.0, 4000), init,
                     check_convergence=True)


def test_adiabatic_leakage_decreases_with_time():
    h0, h1 = _reference_instance()
    structure = detect_bands(eigh(h1).values, target_bands=2)
    fit = adiabatic_leakage_scaling(h0, h1, structure, 0, [50.0, 100.0, 200.0],
                                    lambda s: s, StateVector(2, [1, 0, 0, 0]),
                                    steps_per_unit=16)
    assert not fit.degenerate
    assert np.all(np.diff(fit.leakages) < 0)
    assert fit.slope < -0.5


def test_adiabatic_leakage_degenerate_for_trivial_instance():
    _, h1 = _reference_instance()
    structure = detect_bands(eigh(h1).values, target_bands=2)
    init = StateVector(2, eigh(h1).vectors[:, 0])
    fit = adiabatic_leakage_scaling(h1, h1, structure, 0, [5.0, 10.0],
                                    lambda s: s, init, steps_per_unit=16)
    assert fit.degenerate
    assert np.all(fit.leakages < 1e-9)


def test_adiabatic_leakage_grows_when_gap_shrinks():
    h0, h1 = _reference_instance()
    shrunk0 = np.diag([0.0, 0.15, 0.6, 0.75]).astype(complex)
    shrunk1 = shrunk0 + (h1 - h0)
    init = StateVector(2, [1, 0, 0, 0])
    wide = adiabatic_leakage_scaling(h0, h1, detect_bands(eigh(h1).values, target_bands=2),
                                     0, [50.0, 100.0], lambda s: s, init, steps_per_unit=16)
    narrow = adiabatic_leakage_scaling(shrunk0, shrunk1,
                                       detect_bands(eigh(shrunk1).values, target_bands=2),
                                       0, [50.0, 100.0], lambda s: s, init, steps_per_unit=16)
    assert np.all(narrow.leakages > wide.leakages)


def test_adiabatic_time_estimate_examples():
    assert adiabatic_time_estimate(1, 1, 1) == 1.0
    assert adiabatic_time_estimate(2, 1, 1) == pytest.approx(2**1.5)
    assert adiabatic_time_estimate(4, 0.1, 0.01) == pytest.approx(8.0e5)
    with pytest.raises(ValueError):
        adiabatic_time_estimate(0, 0.1, 0.1)
