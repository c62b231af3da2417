"""Comparator methods that use no measurement feedback.

Three baselines frame the feedforward advantage: expected circuit depth of
probabilistic projection, the success probability of a memoryless random
walk over binary spectral splits, and adiabatic band following with its
1/T diabatic leakage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bands import BandStructure, exact_projectors
from .linalg import (WALK_NORMALS, WALK_UNIFORMS, HermitianSpectrum, _check_state,
                     check_hermitian, eigh, rng)

__all__ = [
    "WalkEstimate",
    "LeakageFit",
    "prob_projection_depth",
    "random_walk_success",
    "adiabatic_leakage_scaling",
    "adiabatic_time_estimate",
]

# Trials of the walk, and steps of the adiabatic evolution, handled per
# vectorised block: large enough to amortise the Python loop, small enough
# to keep the working set a few hundred kilobytes.
_BLOCK = 256


def prob_projection_depth(q) -> float:
    """Expected query depth of amplified projection onto a band drawn from q.

    Amplitude amplification pays 1/sqrt(q(j)) per draw and averages to
    sum_j sqrt(q(j)).
    """
    q = np.asarray(q, dtype=float)
    if np.any(q < 0):
        raise ValueError("probabilities must be nonnegative")
    if abs(float(np.sum(q)) - 1.0) > 1e-9:
        raise ValueError(f"probabilities must sum to 1, got {np.sum(q)}")
    return float(np.sum(np.sqrt(q[q > 0])))


@dataclass
class WalkEstimate:
    """Monte Carlo estimate of the memoryless walk's success probability."""

    success_rate: float
    stderr: float
    queries_per_trial: int


def random_walk_success(
    structure: BandStructure,
    spectrum: HermitianSpectrum,
    trials: int,
    seed: int,
) -> WalkEstimate:
    """Success rate of binary splitting when the runner cannot see outcomes.

    Each level applies the query pair dictated by the runner's guessed
    range; the state collapses by the Born rule, while the runner draws its
    guess of the outcome uniformly (the guess is only needed to choose the
    next query, so none is drawn after the last level). A trial succeeds
    when the final collapsed state is fully supported on a single band.

    Band projectors are diagonal in the eigenbasis, so a trial is its
    input's weight on each band plus the set of bands its collapses have
    kept; trials run in blocks of `_BLOCK`. Trial t reads row t of a
    (trials, 2n) Gaussian block from the `WALK_NORMALS` stream (real then
    imaginary parts of its input) and of a (trials, 2 ell - 1) uniform block
    from `WALK_UNIFORMS` (outcome and guess draws in level order).
    """
    if trials < 1000:
        raise ValueError("use at least 1000 trials for a meaningful estimate")
    count = structure.band_count
    ell = math.ceil(math.log2(count)) if count > 1 else 0
    n = spectrum.vectors.shape[0]
    if n != structure.dimension:
        raise ValueError("spectrum dimension does not match the band structure")
    membership = np.zeros((n, count))
    for j, band in enumerate(structure.bands):
        membership[band, j] = 1.0
    band_index = np.arange(count)

    normal_gen, uniform_gen = rng(seed, WALK_NORMALS), rng(seed, WALK_UNIFORMS)
    successes = 0
    for start in range(0, trials, _BLOCK):
        size = min(_BLOCK, trials - start)
        normals = normal_gen.standard_normal((size, 2 * n))
        uniforms = uniform_gen.random((size, max(2 * ell - 1, 0)))
        amps = normals[:, :n] + 1j * normals[:, n:]
        weights = np.abs(amps @ spectrum.vectors.conj()) ** 2 @ membership
        alive = np.ones((size, count), dtype=bool)
        lo = np.zeros(size, dtype=int)
        for level in range(1, ell + 1):
            mid = lo + 2 ** (ell - level)
            low = (band_index >= lo[:, None]) & (band_index < mid[:, None])
            w_low = np.where(alive & low, weights, 0.0).sum(axis=1)
            total = np.where(alive, weights, 0.0).sum(axis=1)
            outcome_low = uniforms[:, 2 * level - 2] < w_low / total
            alive &= low == outcome_low[:, None]
            if level < ell:
                # Memoryless guess of the outcome, used only to steer the
                # next query; it never sees `outcome_low`.
                guess_low = uniforms[:, 2 * level - 1] < 0.5
                lo = np.where(guess_low, lo, mid)
        kept = np.where(alive, weights, 0.0)
        successes += int(np.count_nonzero(kept.max(axis=1) >= (1.0 - 1e-9) * kept.sum(axis=1)))
    rate = successes / trials
    stderr = math.sqrt(max(rate * (1.0 - rate), 1.0 / trials) / trials)
    return WalkEstimate(rate, stderr, ell)


def _evolve_steps(h0, h1, total_time, steps, amplitudes) -> np.ndarray:
    """Midpoint exponential steps along H(s) = (1 - s) H0 + s H1.

    Step k applies the exact exponential of H at s = (k + 0.5) / steps, so
    the only error is the time discretization. Each block of `_BLOCK` steps
    is one stacked `eigh`; its phases and adjoint eigenvectors are formed
    once, and each step then applies V (phases * (V^dagger state)) in that
    order.
    """
    state = amplitudes.astype(complex)
    dt = total_time / steps
    for start in range(0, steps, _BLOCK):
        g = (np.arange(start, min(start + _BLOCK, steps)) + 0.5) / steps
        spec = eigh((1.0 - g)[:, None, None] * h0 + g[:, None, None] * h1)
        phases = np.exp(-1j * dt * spec.values)
        adjoints = spec.vectors.conj().swapaxes(-1, -2)
        for vectors, ph, adjoint in zip(spec.vectors, phases, adjoints):
            state = vectors @ (ph * (adjoint @ state))
    return state


@dataclass
class LeakageFit:
    """Diabatic leakage at each total evolution time, and the slope of its log-log fit."""

    leakages: np.ndarray
    slope: float
    degenerate: bool


def adiabatic_leakage_scaling(
    h0: np.ndarray,
    h1: np.ndarray,
    structure: BandStructure,
    band: int,
    times,
    initial: np.ndarray,
) -> LeakageFit:
    """Leakage out of the target band of H1 after the linear path from H0, fit against T.

    The endpoints, the state, the band (0 .. L-1) and the times (positive,
    finite, at least two distinct) are checked once. The evolution
    to time T runs max(64, ceil(16 T)) steps of `_evolve_steps`. The projector
    comes from H1's spectrum; leakage below 1e-9 at every time makes the fit
    degenerate (reported, not raised).
    """
    h0 = check_hermitian(h0)
    h1 = check_hermitian(h1)
    if h0.shape != h1.shape:
        raise ValueError("endpoint Hamiltonians must share a dimension")
    initial = _check_state(initial)
    if h0.shape[0] != len(initial):
        raise ValueError("initial state dimension does not match the Hamiltonians")
    if not 0 <= band < structure.band_count:
        raise ValueError(f"band {band} is outside 0..{structure.band_count - 1}")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or not len(times) or not np.all(np.isfinite(times) & (times > 0)):
        raise ValueError(f"times must be a nonempty list of positive finite values, got {times}")
    if np.all(times == times[0]):
        raise ValueError(f"a slope needs at least two distinct times, got {times}")
    spectrum = eigh(h1)
    projector = exact_projectors(spectrum, structure)[band]
    leakages = []
    for total_time in times:
        steps = max(64, int(math.ceil(16.0 * total_time)))
        final = _evolve_steps(h0, h1, float(total_time), steps, initial)
        leakages.append(float(np.linalg.norm(projector @ final - final)))
    leakages = np.array(leakages)
    if np.all(leakages < 1e-9):
        return LeakageFit(leakages, 0.0, True)
    slope = np.polyfit(np.log(times), np.log(leakages), 1)[0]
    return LeakageFit(leakages, float(slope), False)


def adiabatic_time_estimate(eigenpaths: int, min_gap: float, eps: float) -> float:
    """Order estimate of the adiabatic evolution time: M^(3/2) / (eps gap^3).

    Raises a ValueError naming M, gap and eps when the estimate overflows a float.
    """
    if eigenpaths <= 0 or min_gap <= 0 or eps <= 0:
        raise ValueError("eigenpath count, gap, and error target must be positive")
    try:  # a float power raises on overflow where a product gives inf
        cube = min_gap**3
    except OverflowError:
        cube = math.inf
    try:
        estimate = eigenpaths**1.5 / (eps * cube)
    except (OverflowError, ZeroDivisionError):
        estimate = math.inf
    if not math.isfinite(estimate):
        raise ValueError(f"adiabatic time estimate M^(3/2) / (eps gap^3) overflows at "
                         f"M={eigenpaths}, gap={min_gap!r}, eps={eps!r}")
    return estimate
