"""Chebyshev-basis real polynomials and the minimax step filter.

The filter is the best uniform (minimax) approximation of a threshold step,
found by a weighted two-plateau Remez exchange on the even half of the
polynomial (the convex-optimisation QSP targets of Dong, Meng, Whaley and
Lin, arXiv:2002.11649, without a generic solver). Its error cannot grow with
the degree, so the smallest degree is found by a search on that error.
Every filter is certified against the three filter conditions (flat near one
below the transition window, flat near zero above it, bounded by the
synthesis margin everywhere) at the exact extrema of each condition's
region: its endpoints plus the real critical points inside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as C

__all__ = [
    "ChebyshevSeries",
    "FilterSpec",
    "FilterReport",
    "cheb_eval",
    "heaviside_filter",
    "certify_filter",
]

# Interior margin left for phase-factor synthesis: a filter certified for
# budget eps satisfies |f| <= 1 - synthesis_margin(eps) on [-1, 1].
SYNTHESIS_MARGIN = 1e-6
# Phase synthesis rejects targets whose sup-norm exceeds 1 - SYNTHESIS_GUARD.
SYNTHESIS_GUARD = 1e-8
# Smallest budget whose margin eps / 8 still clears the synthesis guard.
EPS_FLOOR = 8.0 * SYNTHESIS_GUARD

PARITY_TOL = 1e-12
DEGREE_CAP = 2000
# Remez stops once the level is within this factor of the levelled error.
REMEZ_TOL = 1e-6
REMEZ_MAX_ITER = 40
# Nodes of the quadratures that place the first Remez reference.
QUADRATURE = 1000


def _clenshaw(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x)
    if len(coeffs) == 0:
        return np.zeros_like(x, dtype=complex if np.iscomplexobj(coeffs) else float)
    b1 = np.zeros_like(x, dtype=coeffs.dtype)
    b2 = np.zeros_like(b1)
    for c in coeffs[:0:-1]:
        b1, b2 = 2.0 * x * b1 - b2 + c, b1
    return x * b1 - b2 + coeffs[0]


@dataclass(eq=False)
class ChebyshevSeries:
    """Real polynomial sum_k c_k T_k(x) with a parity tag."""

    coeffs: np.ndarray
    parity: str = "none"

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.ndim != 1 or len(self.coeffs) == 0:
            raise ValueError("coefficients must be a nonempty 1-d array")
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("coefficients must be finite")
        if self.parity not in ("even", "odd", "none"):
            raise ValueError(f"unknown parity tag {self.parity!r}")
        if self.parity == "even" and np.any(np.abs(self.coeffs[1::2]) > PARITY_TOL):
            raise ValueError("even series has odd-index coefficients above tolerance")
        if self.parity == "odd" and np.any(np.abs(self.coeffs[0::2]) > PARITY_TOL):
            raise ValueError("odd series has even-index coefficients above tolerance")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x) -> np.ndarray:
        return cheb_eval(self, x)

    def to_json(self) -> dict:
        return {"parity": self.parity, "coeffs": [float(c) for c in self.coeffs]}


def cheb_eval(f: ChebyshevSeries, x):
    """Clenshaw evaluation of the series at x in [-1, 1] (scalar or array)."""
    arr = np.asarray(x, dtype=float)
    if np.any(np.abs(arr) > 1.0 + 1e-14):
        raise ValueError("evaluation point outside [-1, 1]")
    arr = np.clip(arr, -1.0, 1.0)
    out = _clenshaw(f.coeffs, arr)
    return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


@dataclass(frozen=True)
class FilterSpec:
    """Step-filter parameters: threshold mu, transition width delta, error budget eps."""

    mu: float
    delta: float
    eps: float

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0):
            raise ValueError(f"error budget must lie in (0, 1), got {self.eps}")
        if self.eps < EPS_FLOOR:
            raise ValueError(
                f"error budget {self.eps} is below the floor {EPS_FLOOR:g}: the "
                "synthesis margin eps/8 would fall under the phase-synthesis guard"
            )
        if self.delta <= 0.0:
            raise ValueError("transition width must be positive")
        if not (self.mu - self.delta / 2.0 > 0.0 and self.mu + self.delta / 2.0 < 1.0):
            raise ValueError(
                f"transition window [{self.mu - self.delta / 2}, {self.mu + self.delta / 2}] "
                "must sit strictly inside (0, 1)"
            )


def synthesis_margin(eps: float) -> float:
    """Margin below 1 that a filter with budget eps keeps for synthesis.

    A fixed margin would eat the low-side budget eps/2 once eps nears it,
    so small budgets shrink the margin to eps/8.
    """
    return min(SYNTHESIS_MARGIN, eps / 8.0)


@dataclass
class ConditionReport:
    name: str
    bound: float
    worst: float
    worst_x: float
    passed: bool

    @property
    def margin(self) -> float:
        return self.bound - self.worst


@dataclass
class FilterReport:
    """Worst-case margins of the three filter conditions at their exact extrema."""

    high_side: ConditionReport
    low_side: ConditionReport
    sup_norm: ConditionReport

    @property
    def passed(self) -> bool:
        return self.high_side.passed and self.low_side.passed and self.sup_norm.passed

    def conditions(self) -> list[ConditionReport]:
        return [self.high_side, self.low_side, self.sup_norm]


def _extrema(coeffs: np.ndarray, *regions: tuple) -> list[np.ndarray]:
    """Each region's endpoints plus the critical points of sum_k c_k T_k inside it.

    One colleague-matrix root solve serves every region. The real part of
    every root counts, since a clustered root comes out as a complex group
    and an extra point inside a region can only raise the maximum found.
    """
    der = C.chebtrim(C.chebder(coeffs), 0.0) if len(coeffs) > 2 else []
    crit = C.chebroots(der).real if len(der) > 1 else np.empty(0)
    return [np.concatenate(([lo, hi], crit[(crit > lo) & (crit < hi)])) for lo, hi in regions]


def _window_in_u(spec: FilterSpec) -> tuple[float, float]:
    """The window edges mu -/+ delta/2 in u = 2x^2 - 1."""
    return (2.0 * (spec.mu - spec.delta / 2.0) ** 2 - 1.0,
            2.0 * (spec.mu + spec.delta / 2.0) ** 2 - 1.0)


def _condition(name: str, bound: float, points, values, to_x, strict: bool) -> ConditionReport:
    i = int(np.argmax(values))
    worst = float(values[i])
    return ConditionReport(name, bound, worst, float(to_x(points[i])),
                           worst < bound if strict else worst <= bound)


def certify_filter(f: ChebyshevSeries, spec: FilterSpec) -> FilterReport:
    """Evaluate the three filter conditions at the exact extrema of their regions.

    A series with no odd coefficients is f(x) = G(2x^2 - 1) with G's
    coefficients the even ones; x -> 2x^2 - 1 maps [0, 1] monotonically onto
    [-1, 1] and f is even, so each region's extrema are G's on the mapped
    region, found at half the degree. Any other series is checked in x.
    """
    if np.any(f.coeffs[1::2]):
        coeffs, to_x = f.coeffs, lambda x: x
        regions = ((spec.mu + spec.delta / 2.0, 1.0), (0.0, spec.mu - spec.delta / 2.0),
                   (-1.0, 1.0))
    else:
        coeffs, to_x = f.coeffs[0::2], lambda u: math.sqrt(0.5 * (1.0 + u))
        lo_u, hi_u = _window_in_u(spec)
        regions = ((hi_u, 1.0), (-1.0, lo_u), (-1.0, 1.0))
    high, low, everywhere = _extrema(coeffs, *regions)
    half_eps = spec.eps / 2.0
    return FilterReport(
        high_side=_condition("vanishes-above-window", half_eps, high,
                             np.abs(_clenshaw(coeffs, high)), to_x, strict=True),
        low_side=_condition("near-one-below-window", half_eps, low,
                            np.abs(1.0 - _clenshaw(coeffs, low)), to_x, strict=True),
        sup_norm=_condition("bounded-with-margin", 1.0 - synthesis_margin(spec.eps), everywhere,
                            np.abs(_clenshaw(coeffs, everywhere)), to_x, strict=False),
    )


def _exchange(points: np.ndarray, errors: np.ndarray, n: int) -> np.ndarray:
    """The next Remez reference: n points of alternating error, the largest kept.

    Same-sign neighbours merge into the larger; a dropped interior point takes
    the smaller of its neighbours with it, so the signs keep alternating.
    """
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


def _first_reference(a: float, b: float, n: int) -> np.ndarray:
    """n points at even quantiles of the equilibrium measure of [-1, a] and [b, 1].

    Its density |u - c| / (pi sqrt|(1 - u^2)(u - a)(u - b)|), c in (a, b) fixed
    by a zero integral over the gap, is the limit distribution of a minimax
    error's extrema, crowded at all four ends; a start without the crowding at
    a and b lets roundoff swamp the exchange at small budgets. Substituting
    u = mid -/+ half cos(phi) cancels an interval's pair of root singularities.
    """
    phi = (np.arange(QUADRATURE) + 0.5) * math.pi / QUADRATURE
    gap = 0.5 * (a + b) + 0.5 * (b - a) * np.cos(phi)
    c = np.sum(gap / np.sqrt(1.0 - gap**2)) / np.sum(1.0 / np.sqrt(1.0 - gap**2))
    phi = np.linspace(0.0, math.pi, QUADRATURE)
    bands = []
    for lo, hi, far in ((-1.0, a, (1.0, b)), (b, 1.0, (-1.0, a))):
        u = 0.5 * (lo + hi) - 0.5 * (hi - lo) * np.cos(phi)
        density = np.abs(u - c) / np.sqrt((u - far[0]) * (u - far[1]))
        mass = np.concatenate([[0.0], np.cumsum(density[1:] + density[:-1])])
        bands.append((u, mass))
    (u_low, m_low), (u_high, m_high) = bands
    n_low = min(max(1, round(n * m_low[-1] / (m_low[-1] + m_high[-1]))), n - 1)
    ref = np.concatenate([np.interp(np.linspace(0.0, m_low[-1], n_low), m_low, u_low),
                          np.interp(np.linspace(0.0, m_high[-1], n - n_low), m_high, u_high)])
    ref[0], ref[n_low - 1], ref[n_low], ref[-1] = -1.0, a, b, 1.0
    return ref


def _minimax_step(spec: FilterSpec, half: int) -> tuple[np.ndarray, float]:
    """A step G(u) of degree `half` in u = 2x^2 - 1, and its weighted level.

    G targets 1 - m - r on [-1, a] with ripple r = (eps/2 - m)/2, where
    m = synthesis_margin(eps), and 0 on [b, 1] with ripple eps/2 (a, b: the
    window edges in u). The level is the largest plateau error in units of
    the ripple, so below 1 both plateau conditions hold and G < 1 - m there.
    The exchange stops at the first iterate whose level at its exact extrema
    is below 1, or at the first reference whose levelled error reaches 1
    (by de la Vallee Poussin no G of this degree does better), so the verdict
    is the minimax one, which cannot get worse with the degree.
    """
    margin = synthesis_margin(spec.eps)
    ripple = (spec.eps / 2.0 - margin) / 2.0
    top = 1.0 - margin - ripple
    a, b = _window_in_u(spec)
    n = half + 2
    ref = _first_reference(a, b, n)
    signs = (-1.0) ** np.arange(n)
    for _ in range(REMEZ_MAX_ITER):
        low = ref <= a
        scale = np.where(low, ripple, spec.eps / 2.0)
        system = np.column_stack([C.chebvander(ref, half), -signs * scale])
        solution = np.linalg.solve(system, np.where(low, top, 0.0))
        coeffs, levelled = solution[:-1], abs(solution[-1])
        if levelled >= 1.0:
            return coeffs, levelled
        low_pts, high_pts = _extrema(coeffs, (-1.0, a), (b, 1.0))
        errors = np.concatenate([(_clenshaw(coeffs, low_pts) - top) / ripple,
                                 _clenshaw(coeffs, high_pts) / (spec.eps / 2.0)])
        level = float(np.max(np.abs(errors)))
        if level < 1.0 or level <= (1.0 + REMEZ_TOL) * levelled:
            return coeffs, level
        # The reference points keep their levelled errors, so every lobe of
        # the error has a candidate; points below the levelled error (such as
        # the real part of a complex root) cannot enter.
        points = np.concatenate([ref, low_pts, high_pts])
        errors = np.concatenate([signs * solution[-1], errors])
        eligible = np.abs(errors) >= levelled
        ref = _exchange(points[eligible], errors[eligible], n)
        if len(ref) < n:
            break
    return coeffs, level


def heaviside_filter(spec: FilterSpec) -> ChebyshevSeries:
    """The even minimax step filter at the smallest degree whose level is below 1.

    The search on the half-degree h keeps a bracket of infeasible and feasible
    values. log(level) falls about linearly in h from about log(2/eps) at
    h = 0, so until both ends are probed each probe extrapolates from the last
    two, and then it interpolates between the ends. An infeasible level may
    be the early-exit lower bound, which extrapolates short, so no step up is
    shorter than the one before; a step up is capped at a quarter, as the
    exchange loses accuracy far above the answer. Raises if no degree up to
    `DEGREE_CAP` has a level below 1 or certification fails.
    """
    cap = DEGREE_CAP // 2
    bad, good, best, rise = 0, cap + 1, None, 0
    last = (0, math.log(2.0 / spec.eps))
    half = min(max(1, math.ceil(0.8 * last[1] * math.sqrt(1.0 - spec.mu**2) / spec.delta)), cap)
    while good - bad > 1:
        coeffs, level = _minimax_step(spec, half)
        log_level = math.log(level)
        if level < 1.0:
            good, good_log, best = half, log_level, coeffs
        else:
            bad, bad_log = half, log_level
        if best is not None and bad > 0:
            probe = math.ceil(bad + (good - bad) * bad_log / (bad_log - good_log))
        else:
            slope = (log_level - last[1]) / (half - last[0])
            guess = half - log_level / slope if slope < 0.0 else half + 1
            if best is None:
                probe = max(math.ceil(guess), half + rise)
            else:
                probe = min(math.ceil(guess), half - 1)
        last = (half, log_level)
        probe = min(probe, half + max(1, half // 4))
        probe = min(max(probe, bad + 1), good - 1)
        rise, half = probe - half, probe
    if best is None:
        raise RuntimeError(f"no even filter of degree <= {DEGREE_CAP} meets {spec}")
    # T_h(2x^2 - 1) = T_2h(x): G's coefficients are the filter's even ones.
    coeffs = np.zeros(2 * len(best) - 1)
    coeffs[0::2] = best
    filt = ChebyshevSeries(coeffs, "even")
    report = certify_filter(filt, spec)
    if not report.passed:
        worst = min(report.conditions(), key=lambda c: c.margin)
        raise RuntimeError(
            f"filter construction failed certification at degree {filt.degree}: "
            f"condition {worst.name} has value {worst.worst:.3e} at x={worst.worst_x:.6f} "
            f"(bound {worst.bound:.3e})"
        )
    return filt
