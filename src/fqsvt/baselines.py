"""Comparator methods that use no measurement feedback.

Three baselines frame the feedforward advantage: expected circuit depth of
probabilistic projection, the exact expected success probability of a
memoryless random walk over binary spectral splits, and adiabatic band
following with its 1/T diabatic leakage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bands import BandStructure, exact_projectors
from .feedforward import MultibandPolicy
from .linalg import _check_state, check_hermitian, eigh

__all__ = [
    "LeakageFit",
    "prob_projection_depth",
    "random_walk_success",
    "adiabatic_leakage_scaling",
    "adiabatic_time_estimate",
]

# Steps of the adiabatic evolution handled per stacked `eigh` (one Magnus
# exponent each): large enough to amortise the Python loop, small enough to
# keep the working set a few hundred kilobytes.
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


def random_walk_success(structure: BandStructure) -> float:
    """Expected success of binary splitting, over Haar inputs, when the runner cannot see outcomes.

    The walk runs feedforward's split schedule, `MultibandPolicy`, on a
    record of guessed band bits with every success bit 0, so a round whose
    split reaches past the last band makes no query and draws no guess. The
    state collapses by the Born rule, while the runner guesses the outcome
    uniformly (the guess only chooses the next query). A run succeeds when
    its final collapsed state lies in a single band.

    Band projectors commute, so along one of the 2^(ell - 1) guess paths
    each band carries one bit per round, and the run ends in the cell of
    bands that share its bits with probability the input's weight on that
    cell. The success is linear in the band weights, and a Haar input puts
    mean weight m_j / n on band j of m_j eigenvalues, so the expected
    success is the sum of m_j / n over the bands alone in their cell,
    averaged over the paths. The splits form a binary tree over the bands
    and each guess picks a child uniformly, so by induction the paths leave
    two bands alone on average: with bands of equal size the success is
    exactly 2/L at every L.
    """
    count = structure.band_count
    policy = MultibandPolicy(count, {})
    paths = 2 ** max(policy.ell - 1, 0)
    sizes = np.array([len(band) for band in structure.bands])
    band_index = np.arange(count)
    alone = 0
    for path in range(paths):
        # Each band's integer cell label gains one bit per round: at or
        # above the queried split or not. Round r guesses bit r of the path.
        labels = np.zeros(count, dtype=int)
        record = ()
        while (split := policy.next_block(record)) is not None:
            labels = 2 * labels + (band_index >= split)
            record += (path >> len(record) // 2 & 1, 0)
        alone += int(sizes[np.bincount(labels)[labels] == 1].sum())
    return alone / (structure.dimension * paths)


def _evolve_steps(h0, h1, total_time, steps, amplitudes) -> np.ndarray:
    """Fourth-order Magnus steps along H(t) = H0 + (t / T) V, V = H1 - H0.

    Step k of length dt = T / steps applies exp(-i K_k), where
    K_k = dt H(s_k) - i (dt^3 / (12 T)) [V, H(s_k)] at the midpoint
    s_k = (k + 0.5) / steps. That is the two-point Gauss Magnus exponent,
    which for a path linear in time reduces to the midpoint term plus one
    commutator; it is Hermitian, and the local error is O(dt^5), so the
    state error falls 16-fold per halving of the step. Every interpolated
    H(s_k) is checked at its own scale before its exponent is formed. Each
    block of `_BLOCK` steps is one stacked `eigh` of the exponents; its
    phases and adjoint eigenvectors are formed once, and each step then
    applies V (phases * (V^dagger state)) in that order.
    """
    state = amplitudes.astype(complex)
    dt = total_time / steps
    drift = h1 - h0
    commutator_weight = dt**3 / (12.0 * total_time)
    for start in range(0, steps, _BLOCK):
        g = (np.arange(start, min(start + _BLOCK, steps)) + 0.5) / steps
        mid = check_hermitian((1.0 - g)[:, None, None] * h0 + g[:, None, None] * h1)
        spec = eigh(dt * mid - 1j * commutator_weight * (drift @ mid - mid @ drift))
        phases = np.exp(-1j * spec.values)
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

    The endpoints, the state, the band (an integer in 0 .. L-1, not a
    bool) and the times (positive, finite, at least two distinct) are
    checked once. The evolution to time T runs max(64, ceil(4 T))
    fourth-order Magnus steps of `_evolve_steps`. The projector comes from
    H1's spectrum; leakage below 1e-9 at every time makes the fit
    degenerate (reported, not raised).
    """
    h0 = check_hermitian(h0)
    h1 = check_hermitian(h1)
    if h0.shape != h1.shape:
        raise ValueError("endpoint Hamiltonians must share a dimension")
    initial = _check_state(initial)
    if h0.shape[0] != len(initial):
        raise ValueError("initial state dimension does not match the Hamiltonians")
    if isinstance(band, bool) or not isinstance(band, (int, np.integer)):
        raise ValueError(f"band must be an integer, got {band!r}")
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
        steps = max(64, int(math.ceil(4.0 * total_time)))
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
