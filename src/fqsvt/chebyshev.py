"""Chebyshev-basis real polynomials and the smoothed step filter.

The filter construction smooths a threshold step with an error-function
profile, expands the even extension in the Chebyshev basis, and certifies
the result against the three filter conditions (flat near one below the
transition window, flat near zero above it, bounded by the synthesis
margin everywhere).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, erfcinv

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

    @classmethod
    def from_json(cls, doc: dict) -> "ChebyshevSeries":
        return cls(np.asarray(doc["coeffs"], dtype=float), doc.get("parity", "none"))


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
    """Worst-case margins of the three filter conditions on certification grids."""

    high_side: ConditionReport
    low_side: ConditionReport
    sup_norm: ConditionReport

    @property
    def passed(self) -> bool:
        return self.high_side.passed and self.low_side.passed and self.sup_norm.passed

    def conditions(self) -> list[ConditionReport]:
        return [self.high_side, self.low_side, self.sup_norm]


def _sup_norm(coeffs: np.ndarray) -> float:
    """Exact supremum of |sum_k c_k T_k| on [-1, 1].

    Interior extrema are the real roots of the derivative, found through
    the Chebyshev colleague matrix; grid maxima can undershoot the true
    peak by O((degree/points)^2), which matters at the margin boundary.
    For an even filter f(x) = G(2x^2 - 1), pass G's coefficients (the
    u-basis `a` of `_even_chebyshev_coeffs`): x -> 2x^2 - 1 maps [-1, 1]
    onto [-1, 1], so sup|f| = sup|G| exactly at half the degree.
    """
    cand = [-1.0, 1.0]
    der = np.polynomial.chebyshev.chebder(coeffs)
    if len(der) > 1:
        roots = np.polynomial.chebyshev.chebroots(der)
        for r in roots:
            if abs(r.imag) < 1e-9 and abs(r.real) <= 1.0:
                cand.append(float(r.real))
    return float(np.max(np.abs(_clenshaw(coeffs, np.array(cand)))))


def _region_grid(lo: float, hi: float, gridsize: int) -> np.ndarray:
    # Base grid, its half-step shift, and the region endpoints; both grids
    # must pass so a refinement can only reveal more violations.
    base = np.linspace(lo, hi, gridsize)
    half = base[:-1] + 0.5 * (hi - lo) / (gridsize - 1)
    return np.concatenate([base, half, [lo, hi]])


def certify_filter(f: ChebyshevSeries, spec: FilterSpec, gridsize: int = 2001) -> FilterReport:
    """Evaluate the three filter conditions on dense grids over their regions."""
    if gridsize < 101:
        raise ValueError("gridsize must be at least 101")
    lo_edge = spec.mu - spec.delta / 2.0
    hi_edge = spec.mu + spec.delta / 2.0
    half_eps = spec.eps / 2.0
    sup_bound = 1.0 - synthesis_margin(spec.eps)

    xs_hi = _region_grid(hi_edge, 1.0, gridsize)
    worst_hi = np.abs(cheb_eval(f, xs_hi))
    i_hi = int(np.argmax(worst_hi))

    xs_lo = _region_grid(0.0, lo_edge, gridsize)
    worst_lo = np.abs(1.0 - cheb_eval(f, xs_lo))
    i_lo = int(np.argmax(worst_lo))

    xs_all = _region_grid(-1.0, 1.0, gridsize)
    worst_all = np.abs(cheb_eval(f, xs_all))
    i_all = int(np.argmax(worst_all))

    return FilterReport(
        high_side=ConditionReport(
            "vanishes-above-window", half_eps, float(worst_hi[i_hi]), float(xs_hi[i_hi]),
            bool(worst_hi[i_hi] < half_eps),
        ),
        low_side=ConditionReport(
            "near-one-below-window", half_eps, float(worst_lo[i_lo]), float(xs_lo[i_lo]),
            bool(worst_lo[i_lo] < half_eps),
        ),
        sup_norm=ConditionReport(
            "bounded-with-margin", sup_bound, float(worst_all[i_all]),
            float(xs_all[i_all]), bool(worst_all[i_all] <= sup_bound),
        ),
    )


def _step_profile(spec: FilterSpec) -> tuple:
    # Gaussian-convolved step: g(x) = erfc(k (|x| - mu)) / 2. The smoothing
    # rate pins the plateau error to eps/4 at the window edges, leaving the
    # other eps/4 of each condition's budget for truncation ripple; a
    # sharper rate wastes degree on plateau slack nobody certifies.
    k = (2.0 / spec.delta) * float(erfcinv(spec.eps / 2.0))

    def g(x):
        return 0.5 * erfc(k * (np.abs(x) - spec.mu))

    return k, g


def _even_chebyshev_coeffs(g, half_degree: int) -> np.ndarray:
    # Expand g(x) = G(u) with u = 2x^2 - 1, so only even T_k(x) appear by
    # construction: c_{2m}(x-basis) = a_m(u-basis), T_m(u) = T_{2m}(x).
    nq = 4 * max(half_degree, 1)
    theta = (np.arange(nq) + 0.5) * math.pi / nq
    u = np.cos(theta)
    x = np.sqrt(0.5 * (1.0 + u))
    vals = g(x)
    m = np.arange(half_degree + 1)
    cosines = np.cos(np.outer(m, theta))
    a = (2.0 / nq) * cosines @ vals
    a[0] *= 0.5
    return a


def _assemble_even(a: np.ndarray) -> np.ndarray:
    c = np.zeros(2 * (len(a) - 1) + 1)
    c[0::2] = a
    return c


def _certification_error(f: ChebyshevSeries, report: FilterReport) -> RuntimeError:
    worst = min(report.conditions(), key=lambda c: c.margin)
    return RuntimeError(
        f"filter construction failed certification at degree {f.degree}: "
        f"condition {worst.name} has value {worst.worst:.3e} at x={worst.worst_x:.6f} "
        f"(bound {worst.bound:.3e})"
    )


def heaviside_filter(
    spec: FilterSpec, degree_cap: int = DEGREE_CAP, min_degree: int = 0
) -> ChebyshevSeries:
    """Even Chebyshev step filter at a certifying even degree >= `min_degree`.

    The expansion degree escalates until the coefficient tail is resolved
    and small coefficients are dropped. The filter of degree 2h is the
    first h+1 even coefficients of that expansion, rescaled to the
    synthesis margin by their own sup-norm, so it depends only on its
    degree, not on how the search reached it. A positive `min_degree` is
    tried first; only if it fails does a binary search run over the
    degrees above it, up to the kept expansion. The search treats
    certification as monotone in the degree, which it is not always
    (mu 0.5, delta 0.2, eps 1e-5 certifies at 166 and 172 but not at 168
    or 170), so the result certifies but a lower degree may too. A caller
    that needs one depth for several thresholds passes the running
    maximum, so most builds certify on the first try. Raises if no degree
    passes.
    """
    if min_degree < 0 or min_degree % 2 == 1:
        raise ValueError(f"min_degree must be even and nonnegative, got {min_degree}")
    k, g = _step_profile(spec)
    half = max(8, int(math.ceil(1.5 * k)) + 8)
    a = None
    while True:
        half = min(half, degree_cap // 2)
        a = _even_chebyshev_coeffs(g, half)
        tail = np.max(np.abs(a[int(0.9 * half):]))
        thresh = spec.eps / (8.0 * (2 * half))
        if tail < 1e-3 * thresh or half >= degree_cap // 2:
            break
        half *= 2
    lo = min_degree // 2
    if lo > len(a) - 1:
        raise ValueError(
            f"min_degree {min_degree} exceeds the resolved expansion "
            f"degree {2 * (len(a) - 1)}"
        )

    # Drop coefficients below the truncation threshold eps / (8 d).
    keep = len(a) - 1
    while keep > 0 and abs(a[keep]) < spec.eps / (8.0 * max(2 * keep, 1)):
        keep -= 1
    ceiling = 1.0 - synthesis_margin(spec.eps)

    def scaled_series(half_deg: int) -> ChebyshevSeries:
        sup = _sup_norm(a[: half_deg + 1])
        return ChebyshevSeries(
            _assemble_even(a[: half_deg + 1]) * (ceiling / max(1.0, sup * (1.0 + 1e-12))),
            "even",
        )

    if lo > 0:
        first = scaled_series(lo)
        report = certify_filter(first, spec)
        if report.passed:
            return first
        if lo >= keep:
            raise _certification_error(first, report)
        lo += 1

    full = scaled_series(keep)
    report = certify_filter(full, spec)
    if not report.passed:
        raise _certification_error(full, report)
    # Binary search on the prefix length for the smallest certifying degree.
    hi = keep
    while lo < hi:
        mid = (lo + hi) // 2
        if certify_filter(scaled_series(mid), spec).passed:
            hi = mid
        else:
            lo = mid + 1
    return scaled_series(lo)
