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
from .linalg import HermitianSpectrum, StateVector, check_hermitian, dagger, eigh, rng

__all__ = [
    "AdiabaticSchedule",
    "WalkEstimate",
    "LeakageFit",
    "ConvergenceError",
    "prob_projection_depth",
    "random_walk_success",
    "adiabatic_evolve",
    "adiabatic_leakage_scaling",
    "adiabatic_time_estimate",
]

# Trials of the walk, and steps of the adiabatic evolution, handled per
# vectorised block: large enough to amortise the Python loop, small enough
# to keep the working set a few hundred kilobytes.
_BLOCK = 256


def prob_projection_depth(q, strategy: str) -> float:
    """Expected query depth of projection onto a band drawn from q.

    Classical repetition pays 1/q(j) per draw and averages to the number of
    populated bands; amplitude amplification pays 1/sqrt(q(j)) and averages
    to sum_j sqrt(q(j)).
    """
    q = np.asarray(q, dtype=float)
    if np.any(q < 0):
        raise ValueError("probabilities must be nonnegative")
    if abs(float(np.sum(q)) - 1.0) > 1e-9:
        raise ValueError(f"probabilities must sum to 1, got {np.sum(q)}")
    nonzero = q[q > 0]
    if strategy == "repeat":
        return float(len(nonzero))
    if strategy == "amplify":
        return float(np.sum(np.sqrt(nonzero)))
    raise ValueError(f"unknown strategy {strategy!r}")


@dataclass
class WalkEstimate:
    """Monte Carlo estimate of the memoryless walk's success probability."""

    success_rate: float
    stderr: float
    trials: int
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
    kept; trials run in blocks of `_BLOCK`. Trial t draws from its own
    stream `rng(seed, t)`: the Haar input's real then imaginary parts, then
    the outcome and guess uniforms in the order the levels use them.
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

    successes = 0
    for start in range(0, trials, _BLOCK):
        block = range(start, min(start + _BLOCK, trials))
        normals = np.empty((len(block), 2 * n))
        uniforms = np.empty((len(block), max(2 * ell - 1, 0)))
        for row, trial in enumerate(block):
            gen = rng(seed, trial)
            normals[row] = gen.standard_normal(2 * n)
            uniforms[row] = gen.random(uniforms.shape[1])
        amps = normals[:, :n] + 1j * normals[:, n:]
        weights = np.abs(amps @ spectrum.vectors.conj()) ** 2 @ membership
        alive = np.ones((len(block), count), dtype=bool)
        lo = np.zeros(len(block), dtype=int)
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
    return WalkEstimate(rate, stderr, trials, ell)


@dataclass
class AdiabaticSchedule:
    """Interpolation schedule gamma on [0, 1] with total time and step count."""

    gamma: callable
    total_time: float
    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("step count must be positive")
        if self.total_time < 0:
            raise ValueError("total time must be nonnegative")
        grid = np.linspace(0.0, 1.0, 513)
        vals = np.array([self.gamma(s) for s in grid])
        if abs(vals[0]) > 1e-12 or abs(vals[-1] - 1.0) > 1e-12:
            raise ValueError("schedule must satisfy gamma(0) = 0 and gamma(1) = 1")
        if np.any(np.diff(vals) < -1e-12):
            raise ValueError("schedule must be nondecreasing")


class ConvergenceError(RuntimeError):
    def __init__(self, message: str, coarse: np.ndarray, fine: np.ndarray):
        super().__init__(message)
        self.coarse = coarse
        self.fine = fine


def _evolve_steps(h0, h1, gamma, total_time, steps, amplitudes) -> np.ndarray:
    """Midpoint exponential steps; each block of `_BLOCK` steps is one stacked `eigh`."""
    state = amplitudes.astype(complex)
    if total_time == 0.0:
        return state
    dt = total_time / steps
    for start in range(0, steps, _BLOCK):
        g = np.array([gamma((k + 0.5) / steps) for k in range(start, min(start + _BLOCK, steps))])
        spec = eigh((1.0 - g)[:, None, None] * h0 + g[:, None, None] * h1)
        for values, vectors in zip(spec.values, spec.vectors):
            phases = np.exp(-1j * dt * values)
            state = vectors @ (phases * (dagger(vectors) @ state))
    return state


def adiabatic_evolve(
    h0: np.ndarray,
    h1: np.ndarray,
    schedule: AdiabaticSchedule,
    initial: StateVector,
    check_convergence: bool = False,
) -> StateVector:
    """Propagate through the interpolating Hamiltonian with midpoint exponentials.

    Each step applies the exact exponential of the Hamiltonian evaluated at
    the step midpoint, so the only error is the time-discretization of the
    schedule. With `check_convergence`, the evolution is repeated at twice
    the resolution and must agree to 1e-8.
    """
    h0 = check_hermitian(h0)
    h1 = check_hermitian(h1)
    if h0.shape != h1.shape:
        raise ValueError("endpoint Hamiltonians must share a dimension")
    if h0.shape[0] != len(initial.amplitudes):
        raise ValueError("initial state dimension does not match the Hamiltonians")
    out = _evolve_steps(h0, h1, schedule.gamma, schedule.total_time,
                        schedule.steps, initial.amplitudes)
    if check_convergence:
        fine = _evolve_steps(h0, h1, schedule.gamma, schedule.total_time,
                             2 * schedule.steps, initial.amplitudes)
        dev = float(np.max(np.abs(out - fine)))
        if dev >= 1e-8:
            raise ConvergenceError(
                f"halving the step changes the output by {dev:.3e} "
                f"(steps {schedule.steps} vs {2 * schedule.steps})",
                out, fine,
            )
    return StateVector(initial.n_qubits, out)


@dataclass
class LeakageFit:
    """Log-log fit of diabatic leakage against total evolution time."""

    times: np.ndarray
    leakages: np.ndarray
    slope: float
    intercept: float
    residual: float
    degenerate: bool


def adiabatic_leakage_scaling(
    h0: np.ndarray,
    h1: np.ndarray,
    structure: BandStructure,
    band: int,
    times,
    gamma,
    initial: StateVector,
    steps_per_unit: float = 16.0,
) -> LeakageFit:
    """Leakage out of the target band of the final Hamiltonian, fit against T.

    The projector comes from the final Hamiltonian's spectrum; leakage below
    1e-9 at every time makes the fit degenerate (reported, not raised).
    """
    spectrum = eigh(h1)
    projector = exact_projectors(spectrum, structure)[band]
    times = np.asarray(times, dtype=float)
    leakages = []
    for total_time in times:
        steps = max(64, int(math.ceil(steps_per_unit * total_time)))
        schedule = AdiabaticSchedule(gamma, float(total_time), steps)
        final = adiabatic_evolve(h0, h1, schedule, initial)
        amp = final.amplitudes
        leakages.append(float(np.linalg.norm(projector @ amp - amp)))
    leakages = np.array(leakages)
    if np.all(leakages < 1e-9):
        return LeakageFit(times, leakages, 0.0, 0.0, 0.0, True)
    logs = np.log(leakages)
    logt = np.log(times)
    slope, intercept = np.polyfit(logt, logs, 1)
    fitted = slope * logt + intercept
    residual = float(np.sqrt(np.mean((logs - fitted) ** 2)))
    return LeakageFit(times, leakages, float(slope), float(intercept), residual, False)


def adiabatic_time_estimate(eigenpaths: int, min_gap: float, eps: float) -> float:
    """Order estimate of the adiabatic evolution time: M^(3/2) / (eps gap^3)."""
    if eigenpaths <= 0 or min_gap <= 0 or eps <= 0:
        raise ValueError("eigenpath count, gap, and error target must be positive")
    return eigenpaths**1.5 / (eps * min_gap**3)
