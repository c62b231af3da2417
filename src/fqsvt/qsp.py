"""Quantum signal processing over SU(2).

A phase-factor sequence (psi_0 ... psi_d) generates the product

    U(x) = e^{i psi_0 Z} prod_{j=1..d} e^{i arccos(x) X} e^{i psi_j Z},

whose entries are a polynomial pair (P, Q) with |P|^2 + (1-x^2)|Q|^2 = 1.
Every phase set here is in this rotation convention. This module extracts
the pair, states the fixed offsets by which the interleaved circuit's
phases differ (`_circuit_offsets`), and synthesizes symmetric phase
factors realizing a target real polynomial as Re P: damped Newton on one
Chebyshev node per free phase, sweeping only the first half of the
palindromic sequence, checked on 2d nodes by a sweep of the whole one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chebyshev import SYNTHESIS_GUARD, ChebyshevSeries, _clenshaw

__all__ = [
    "PhaseFactorSet",
    "QspPolynomialPair",
    "SynthesisError",
    "extract_pq",
    "synthesize_symmetric",
]

SYMMETRY_TOL = 1e-12
# A synthesis target's coefficients of the other parity than its degree must stay below this.
PARITY_TOL = 1e-12
# `extract_pq` certifies each residual of its pairs to this sup-norm over [-1, 1].
VALIDATION_TOL = 1e-9
# Every command's phase synthesis meets this residual on its 2d-node contract grid.
SYNTHESIS_TOL = 1e-11
# Phase synthesis stops its damped Newton after this many iterations.
NEWTON_MAX_ITER = 80


@dataclass(eq=False)
class PhaseFactorSet:
    """A length-(d+1) sequence of real rotation-convention angles.

    They parameterize the rotation product above. Only circuit assembly
    and the `phases_circuit.json` writer see circuit phases, and both form
    them as `values - _circuit_offsets(degree)`.
    """

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or len(self.values) == 0:
            raise ValueError("phase factors must be a nonempty 1-d array")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("phase factors must be finite")

    @property
    def degree(self) -> int:
        return len(self.values) - 1

    @property
    def symmetric(self) -> bool:
        """Palindrome test on the stored values."""
        return bool(np.max(np.abs(self.values - self.values[::-1])) <= SYMMETRY_TOL)


def _sweep_start(values: np.ndarray, xs: np.ndarray):
    """The first partial product of the QSP sequence and the factors of every step.

    An SU(2) matrix [[a, b], [-conj(b), conj(a)]] is stored as the pair
    (a, b), and the pairs at all points xs as one array of shape
    (..., 2, len(xs)). The k-th partial product at x_j is
    e^{i psi_0 Z} prod_{l=1..k} W(x_j) e^{i psi_l Z}, where W(x) is the pair
    (x, i sqrt(1-x^2)) and e^{i psi Z} the pair (e^{i psi}, 0). `values` is
    one phase sequence of shape (d+1,) or a stack of shape (..., d+1),
    swept together; each row gets the pairs it would get alone, bit for bit.
    Returns the pair of factor 0, the clipped points, i sqrt(1-x^2), and the
    (e^{i psi_k}, e^{-i psi_k}) scales that `_step` takes.
    """
    xs = np.clip(xs, -1.0, 1.0)
    isx = 1j * np.sqrt(1.0 - xs * xs)
    phases = np.moveaxis(np.exp(1j * values), -1, 0)
    scale = np.stack([phases, phases.conj()], axis=-1)[..., None]
    first = np.zeros(phases.shape[1:] + (2, len(xs)), dtype=complex)
    first[..., 0, :] = phases[0][..., None]
    return first, xs, isx, scale


def _step(ab, xs, isx, scale, out) -> None:
    """Right-multiply the pairs (a, b) by W e^{i psi Z} into `out`, which may be `ab`.

    That gives ((x a + i s b) e^{i psi}, (i s a + x b) e^{-i psi}): four
    elementwise operations.
    """
    t = xs * ab
    t += isx * ab[..., ::-1, :]
    np.multiply(t, scale, out=out)


def _product(values: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """The product of every factor, keeping only the running partial product.

    Phases need not be palindromic; `extract_pq` reads any sequence this way,
    and `synthesize_symmetric` checks its mirrored sequences.
    """
    ab, xs, isx, scale = _sweep_start(values, xs)
    for k in range(1, len(scale)):
        _step(ab, xs, isx, scale[k], out=ab)
    return ab


@dataclass
class QspPolynomialPair:
    """Chebyshev coefficients of the pair (P, Q) generated by a phase set.

    P has degree <= d = len(p) - 1 with parity d mod 2; Q has degree <= d - 1
    with the complementary parity (empty for d = 0).
    """

    p: np.ndarray
    q: np.ndarray

    @property
    def degree(self) -> int:
        return len(self.p) - 1


def _cheb_interpolate(values: np.ndarray, theta: np.ndarray, degree: int) -> np.ndarray:
    """Chebyshev coefficients from samples at first-kind nodes cos(theta).

    `values` has one row of samples per item; each row is a separate
    matrix-vector product, because a stacked matrix product may round
    differently.
    """
    n = len(theta)
    # Cast once: a real matrix times a complex row is cast to complex per product anyway.
    basis = np.cos(np.outer(np.arange(degree + 1), theta)).astype(complex)
    coeffs = np.array([(2.0 / n) * (basis @ row) for row in values])
    coeffs[:, 0] *= 0.5
    return coeffs


def _validation_grid(d: int) -> np.ndarray:
    """The M + 1 Chebyshev-Lobatto points cos(j pi / M), M = 4 max(d, 1), that `extract_pq` checks."""
    m = 4 * max(d, 1)
    return np.cos(np.arange(m + 1) * (math.pi / m))


def extract_pq(items: list[PhaseFactorSet]) -> list[QspPolynomialPair]:
    """Interpolate (P, Q) from unitary samples at Chebyshev nodes, and certify each pair.

    `items` are `PhaseFactorSet`s of one degree, and their pairs come back
    in the same order. P is read from the top-left entry at d+1 nodes, Q
    from the top-right at d interior nodes (where the sqrt(1-x^2) prefactor
    is nonzero). Every item's interpolation is then re-checked on the
    validation grid (`_validation_grid`), and a failure names the first
    inconsistent item. Both residuals, P(x) - a(x) and
    i sqrt(1-x^2) Q(x) - b(x) at x = cos(theta), are trigonometric
    polynomials of degree <= d in theta, and the grid samples theta at 2M
    equispaced points of the circle, so each residual's sup over [-1, 1] is
    at most sec(d pi / (2M)) <= sec(pi / 8) times its grid max (Ehlich and
    Zeller, Math. Z. 1964). The gate is `VALIDATION_TOL` cos(pi / 8), so a
    pair that passes is certified to `VALIDATION_TOL` at every degree, up to
    the sweep's roundoff; a uniform grid of fixed size guarantees nothing
    once d^2 exceeds its point count (Coppersmith and Rivlin, SIAM J. Math.
    Anal. 1992). One forward sweep covers all three node sets and every
    item, each column on its own, and each item is interpolated on its own,
    so it gets the pair it would get alone.
    """
    degrees = {ps.degree for ps in items}
    if len(degrees) > 1:
        raise ValueError(f"stacked phase factors must share one degree, got {sorted(degrees)}")
    if not items:
        return []
    d = degrees.pop()
    theta_p = (2.0 * np.arange(d + 1) + 1.0) * math.pi / (2.0 * (d + 1))
    theta_q = (2.0 * np.arange(d) + 1.0) * math.pi / (2.0 * d)
    xq = np.cos(theta_q)
    xs = _validation_grid(d)
    values = np.array([ps.values for ps in items])
    a, b = np.moveaxis(_product(values, np.concatenate([np.cos(theta_p), xq, xs])), -2, 0)

    p = _cheb_interpolate(a[:, : d + 1], theta_p, d)
    if d == 0:
        q = np.zeros((len(items), 0), dtype=complex)
    else:
        q = _cheb_interpolate(b[:, d + 1 : 2 * d + 1] / (1j * np.sqrt(1.0 - xq * xq)),
                              theta_q, d - 1)

    # Shape (d+1, 2, items, 1): P and Q, zero-padded to P's length, in one recurrence.
    series = np.zeros((d + 1, 2, len(items), 1), dtype=complex)
    series[:, 0, :, 0] = p.T
    series[:d, 1, :, 0] = q.T
    p_on_grid, q_on_grid = _clenshaw(series, xs)
    res_p = np.max(np.abs(p_on_grid - a[:, 2 * d + 1 :]), axis=-1)
    res_q = np.max(np.abs(1j * np.sqrt(1.0 - xs * xs) * q_on_grid - b[:, 2 * d + 1 :]), axis=-1)
    bad = np.maximum(res_p, res_q) > VALIDATION_TOL * math.cos(math.pi / 8.0)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise RuntimeError(
            f"polynomial interpolation inconsistent on validation grid: "
            f"P residual {res_p[i]:.3e}, Q residual {res_q[i]:.3e}"
            + (f" (item {i} of {len(items)})" if len(items) > 1 else "")
        )
    return [QspPolynomialPair(pi, qi) for pi, qi in zip(p, q)]


def _circuit_offsets(d: int) -> np.ndarray:
    """Rotation minus circuit phases: (-1)^(d-k) pi/2 at phase k, halved at both ends."""
    offsets = (-1.0) ** (d - np.arange(d + 1)) * (math.pi / 2.0)
    offsets[[0, d]] *= 0.5
    return offsets


class SynthesisError(RuntimeError):
    """Raised when phase-factor optimization stalls above the requested tolerance.

    `index` is the failed target's position in the list given to
    `synthesize_symmetric` and `history` its max residual at each Newton
    iterate.
    """

    def __init__(self, message: str, history: list[float], index: int = 0):
        super().__init__(message)
        self.history = history
        self.index = index


def _mirror(free: np.ndarray, d: int) -> np.ndarray:
    """Palindromic phases from the free ones; a stack mirrors each row."""
    full = np.empty(free.shape[:-1] + (d + 1,))
    m = free.shape[-1]
    full[..., :m] = free
    full[..., m:] = free[..., : d + 1 - m][..., ::-1]
    return full


def _half_prefixes(free: np.ndarray, d: int, xs: np.ndarray) -> np.ndarray:
    """Every partial product of the first half L of a palindromic sequence.

    The 2d + 1 factors e^{i psi_0 Z}, W, e^{i psi_1 Z}, ..., W, e^{i psi_d Z}
    read the same backwards and each is a symmetric matrix, so U = L L^T.
    L ends on the free phase m - 1 = d/2 at half angle for an even degree,
    and on W^(1/2) = (cos(theta/2), i sin(theta/2)) at x = cos(theta) after
    the last free phase for an odd one. The pairs come in an array of shape
    (m + d % 2, ..., 2, len(xs)), as `_sweep_start` stores them: entry k < m
    ends on free phase k, and the last entry is L. A stack of free phases
    (..., m) is swept together, each row as it would be alone.
    """
    if d % 2 == 0:
        free = free.copy()
        free[..., -1] *= 0.5
    first, xs, isx, scale = _sweep_start(free, xs)
    m = len(scale)
    pairs = np.empty((m + d % 2,) + first.shape, dtype=complex)
    pairs[0] = first
    for k in range(1, m):
        _step(pairs[k - 1], xs, isx, scale[k], out=pairs[k])
    if d % 2:
        _step(pairs[m - 1], np.sqrt(0.5 * (1.0 + xs)), 1j * np.sqrt(0.5 * (1.0 - xs)), 1.0,
              out=pairs[m])
    return pairs


def _fold(half: np.ndarray):
    """The pair (a, b) of U = L L^T from L's pair (alpha, beta), stacked as `half`.

    a = alpha^2 + beta^2 and b = beta conj(alpha) - alpha conj(beta).
    """
    alpha, beta = half[..., 0, :], half[..., 1, :]
    return alpha * alpha + beta * beta, beta * alpha.conj() - alpha * beta.conj()


def _newton_system(prefix: np.ndarray, d: int, target: np.ndarray):
    """Residuals Re P(x_j) - f(x_j) and their Jacobian in the free phases.

    `prefix` is the `_half_prefixes` array. With the prefix pair
    A_k = (a_k, b_k) of factors 0..k and U = (a, b), a phase at position k
    moves U by A_k (iZ) A_k^dagger U, so
    d(Re P)/d(psi_k) = -Im((|a_k|^2 - |b_k|^2) a + 2 a_k b_k conj(b)).
    U is symmetric, so the mirrored occurrence of a free phase adds the same
    term again; the middle phase of an even degree has no mirror partner.
    The term is blind to the last phase of A_k, so the half-angle middle
    prefix serves. A stacked prefix gives stacked residuals (..., n) and
    Jacobians (..., n, m).
    """
    m = (d + 2) // 2
    a, b = _fold(prefix[-1])
    pa, pb = prefix[:m, ..., 0, :], prefix[:m, ..., 1, :]
    weight = (pa * pa.conj()).real - (pb * pb.conj()).real
    jac_t = -2.0 * (weight * a + 2.0 * pa * pb * b.conj()).imag
    if d % 2 == 0:
        jac_t[-1] *= 0.5
    return a.real - target, np.moveaxis(jac_t, 0, -1)


def _damped_newton(free, d, xs, target, tol, histories):
    """Newton with backtracking on the max residual, one node per free phase.

    Row s of `free` and `target` is one target; each accepts its own step
    length and keeps its own converged or stalled flag, and `histories[s]`
    gets its max residual at each iterate. Every half sweep covers the
    rows still running or searching, and one solve takes their stacked
    Jacobians.
    Line-search trials need only the residual; the sweep of an accepted
    trial also yields its next Jacobian, so no sweep runs besides the trials.
    """
    free = free.copy()
    running = np.arange(len(free))
    r, jac = _newton_system(_half_prefixes(free, d, xs), d, target)
    for _ in range(NEWTON_MAX_ITER):
        cur = np.max(np.abs(r), axis=-1)
        for s, c in zip(running, cur):
            histories[s].append(float(c))
        live = ~(cur <= tol)
        running, r, jac, cur = running[live], r[live], jac[live], cur[live]
        if len(running) == 0:
            break
        step = np.linalg.solve(jac, -r[..., None])[..., 0]
        # Every row still searching has been halved as often, so one t serves all.
        t = 1.0
        searching = np.arange(len(running))
        moved = np.zeros(len(running), dtype=bool)
        for _ in range(30):
            rows = running[searching]
            trial = free[rows] + t * step[searching]
            prefix = _half_prefixes(trial, d, xs)
            a, _ = _fold(prefix[-1])
            better = np.max(np.abs(a.real - target[rows]), axis=-1) < cur[searching]
            accepted = searching[better]
            free[rows[better]] = trial[better]
            if not better.all():
                prefix = prefix[:, better]
            r[accepted], jac[accepted] = _newton_system(prefix, d, target[rows[better]])
            moved[accepted] = True
            searching = searching[~better]
            if len(searching) == 0:
                break
            t *= 0.5
        running, r, jac = running[moved], r[moved], jac[moved]
    return free


def _closed_form(f: ChebyshevSeries) -> np.ndarray | None:
    """Validate one target's magnitude; return its phases if a closed form gives them."""
    d = f.degree
    if d == 0:
        c0 = float(f.coeffs[0])
        if abs(c0) > 1.0:
            raise ValueError(f"constant target {c0} exceeds magnitude 1")
        return np.array([math.acos(c0)])

    top = float(f.coeffs[d])
    if np.all(np.abs(f.coeffs[:d]) <= 1e-15 * max(1.0, abs(top))):
        # Pure c T_d: the rotation product with only end phases multiplies
        # T_d by a unit phase, so psi_0 = psi_d = arccos(c) / 2 is exact.
        if abs(top) > 1.0:
            raise ValueError(f"target coefficient {top} exceeds magnitude 1")
        values = np.zeros(d + 1)
        values[0] = values[d] = 0.5 * math.acos(top)
        return values
    return None


def synthesize_symmetric(targets: list[ChebyshevSeries]) -> list[PhaseFactorSet]:
    """Symmetric phases whose Re P matches each target.

    `targets` share one degree, and their phases come back in the same
    order. Each target must have the parity of its degree (every coefficient
    of the other parity within `PARITY_TOL` of 0) and, unless it is a single
    Chebyshev component (handled in closed form), stay strictly inside the
    synthesis margin; callers rescale, this routine never does. A symmetric
    degree-d sequence has m = (d+2)//2 free phases, and Re P - f has definite
    parity, so it is solved on the m positive Chebyshev nodes
    cos((2j-1) pi / (4m)): a square system, solved by damped Newton from the
    (pi/4, 0, ..., 0, pi/4) iterate (Dong, Lin, Ni and Wang,
    arXiv:2209.10162). Residuals and the Jacobian come from one sweep of
    SU(2) pairs over the first half L of the palindrome, U = L L^T
    (`_half_prefixes`); each Newton step reuses the sweep of its accepted
    line-search trial. All targets run in one Newton pass over their stack,
    each with its own steps, so each gets the phases it would get alone.
    Every result must then meet `SYNTHESIS_TOL` on the 2d-node grid, swept
    over the whole mirrored sequence (`_product`), or `SynthesisError` names
    the first that does not.
    """
    degrees = {g.degree for g in targets}
    if len(degrees) > 1:
        raise ValueError(f"stacked synthesis targets must share one degree, got {sorted(degrees)}")
    for i, g in enumerate(targets):
        wrong = float(np.max(np.abs(g.coeffs[1 - g.degree % 2 :: 2]), initial=0.0))
        if wrong > PARITY_TOL:
            raise ValueError(
                f"synthesis target of degree {g.degree} has a coefficient {wrong:.3e} of the "
                f"other parity (tolerance {PARITY_TOL:g})"
                + (f" (item {i} of {len(targets)})" if len(targets) > 1 else "")
            )
    values = [_closed_form(g) for g in targets]
    solve = [i for i, v in enumerate(values) if v is None]
    if solve:
        d = degrees.pop()
        # Shape (d+1, rows, 1): `_clenshaw` runs down the first axis, one row per target.
        coeffs = np.array([targets[i].coeffs for i in solve]).T[..., None]
        margin_grid = np.linspace(-1.0, 1.0, max(2001, 20 * (d + 1)))
        sup = np.max(np.abs(_clenshaw(coeffs, margin_grid)), axis=-1)
        if np.any(sup > 1.0 - SYNTHESIS_GUARD):
            j = int(np.argmax(sup > 1.0 - SYNTHESIS_GUARD))
            raise ValueError(
                f"target sup-norm {sup[j]:.12f} violates the synthesis margin "
                f"1 - {SYNTHESIS_GUARD:g}; rescale the target before synthesis"
                + (f" (item {solve[j]} of {len(targets)})" if len(targets) > 1 else "")
            )

        m = (d + 2) // 2
        xs = np.cos((2.0 * np.arange(1, m + 1) - 1.0) * math.pi / (4.0 * m))
        x0 = np.zeros((len(solve), m))
        x0[:, 0] = math.pi / 4.0
        histories: list[list[float]] = [[] for _ in solve]
        free = _damped_newton(x0, d, xs, _clenshaw(coeffs, xs), 0.25 * SYNTHESIS_TOL, histories)

        # Contract check on the full 2d-node grid (parity mirrors the positive nodes),
        # by a sweep of the whole mirrored sequence, not by the U = L L^T that Newton uses.
        check_grid = np.cos((2.0 * np.arange(1, 2 * d + 1) - 1.0) * math.pi / (4.0 * d))
        a = _product(_mirror(free, d), check_grid)[..., 0, :]
        final = np.max(np.abs(a.real - _clenshaw(coeffs, check_grid)), axis=-1)
        for j, i in enumerate(solve):
            if final[j] > SYNTHESIS_TOL:
                raise SynthesisError(
                    f"phase synthesis stalled at residual {final[j]:.3e} "
                    f"(target {SYNTHESIS_TOL:.3e}, degree {d}"
                    + (f", item {i} of {len(targets)})" if len(targets) > 1 else ")"),
                    histories[j], i,
                )
            values[i] = _mirror(free[j], d)
    return [PhaseFactorSet(v) for v in values]
