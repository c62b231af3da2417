"""Chebyshev-basis real polynomials and the minimax step filter.

The filter is the best uniform (minimax) approximation of a threshold step,
found by a weighted two-plateau Remez exchange on the even half of the
polynomial (the convex-optimisation QSP targets of Dong, Meng, Whaley and
Lin, arXiv:2002.11649, without a generic solver). Its error cannot grow with
the degree, so the smallest degree is found by a search on that error.
Every filter is certified against the three filter conditions (flat near one
below the transition window, flat near zero above it, bounded by the
synthesis margin everywhere) at the exact extrema of each condition's
region: its endpoints plus the real critical points inside. The searches of
several specs advance in lockstep, one exchange iteration of each per round,
sharing the degree-long recurrences of every iteration.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as C

__all__ = [
    "ChebyshevSeries",
    "FilterSpec",
    "FilterReport",
    "UnresolvedWindowError",
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

DEGREE_CAP = 2000
# Remez stops once the level is within this factor of the levelled error.
REMEZ_TOL = 1e-6
REMEZ_MAX_ITER = 40
# Nodes of the quadratures that place the first Remez reference.
QUADRATURE = 1000
# The verdicts of a Remez probe that are proofs; see `_Verdict`.
PROVED = ("feasible", "infeasible")


def _clenshaw(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Sum of coeffs[k] T_k(x), run down the first axis of `coeffs`.

    A stack of shape (d+1, ...) broadcasts its trailing axes against x, and
    each row equals the sum for that row alone, bit for bit.
    """
    x = np.asarray(x)
    if len(coeffs) == 0:
        return np.zeros_like(x, dtype=complex if np.iscomplexobj(coeffs) else float)
    x2 = 2.0 * x
    b1 = np.zeros(np.broadcast_shapes(x.shape, coeffs.shape[1:]), dtype=np.result_type(x, coeffs))
    b2 = np.zeros_like(b1)
    for c in coeffs[:0:-1]:
        t = x2 * b1
        t -= b2
        t += c
        b1, b2 = t, b1
    return x * b1 - b2 + coeffs[0]


@dataclass(eq=False)
class ChebyshevSeries:
    """Real polynomial sum_k c_k T_k(x)."""

    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.ndim != 1 or len(self.coeffs) == 0:
            raise ValueError("coefficients must be a nonempty 1-d array")
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("coefficients must be finite")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


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
        _check_window(self.mu, self.delta)


def _check_window(mu: float, delta: float):
    """The transition window [mu - delta/2, mu + delta/2] must sit strictly inside (0, 1)."""
    if not (mu - delta / 2.0 > 0.0 and mu + delta / 2.0 < 1.0):
        raise ValueError(
            f"transition window [{mu - delta / 2}, {mu + delta / 2}] "
            "must sit strictly inside (0, 1)"
        )


class UnresolvedWindowError(ValueError):
    """No filter the search can build resolves the spec's window; the spec alone decides it.

    The three causes, each with its own message:
    - The window is narrower than float resolution in u = 2x^2 - 1. Its
      edges map to one u, or to neighbouring floats, so the quadrature nodes
      of one plateau round onto the other plateau's edge and the equilibrium
      measure that places the first Remez reference is not finite:
      FilterSpec(0.5, 1e-16, eps) maps its window [0.49999999999999994, 0.5]
      to u = -0.5000000000000001 and -0.5.
    - The window nearly fills (0, 1), leaving a plateau too narrow for the
      exchange. In u the plateaus are [-1, a] and [b, 1]. A low window edge
      below about 5e-9 maps to a = -1 exactly, so the first reference can
      repeat u = -1; points crowded within a few 1e-9 of u = 1 make the
      Chebyshev-Vandermonde system numerically singular too. An edge that
      rounds to u = -1 is not rejected as such: the window [3e-9, 0.9] at
      eps 1e-3 builds at degree 6.
    - The probe at half-degree DEGREE_CAP // 2 proved that no filter up to
      the cap meets the spec. Its infeasible verdict is the minimax one,
      which a lower degree cannot improve: FilterSpec(0.5, 1e-4, 1e-3) has
      it. A cap probe that stopped unproven decides nothing and raises
      RuntimeError.
    """


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


def _critical_points(coeffs: np.ndarray) -> np.ndarray:
    """The critical points of sum_k c_k T_k, from one colleague-matrix root solve.

    The real part of every root counts, since a clustered root comes out as
    a complex group and an extra point inside a region can only raise the
    maximum found there.
    """
    der = C.chebtrim(C.chebder(coeffs), 0.0) if len(coeffs) > 2 else []
    return C.chebroots(der).real if len(der) > 1 else np.empty(0)


def _grid_critical_points(coeffs: list[np.ndarray]) -> list[np.ndarray]:
    """The critical points in (-1, 1) that a grid brackets, of each series sum_k c_k T_k.

    With u = cos(theta), dG/dtheta = -sum_k k c_k sin(k theta). Its sign
    changes on 8h + 64 equispaced angles in [0, pi], evaluated by one FFT
    per series, bracket the critical points; each is refined by 4 Newton
    steps from the secant point, kept inside its bracket. A step takes the
    powers e^{ikt} as one running product along k, not sin and cos of every
    k t. The steps of every series run on one stack of their brackets, its
    rows as long as the longest series; each series' sums are taken on its
    own columns, so its points are those it would get alone. A grid cell
    holding two roots shows no sign change, so a verdict needs
    `_critical_points`.
    """
    weights, brackets = [], []
    for c in coeffs:
        h = len(c) - 1
        k = np.arange(h + 1)
        kc = k * c
        # Column 0 weighs the sine sum of dG/dtheta, column 1 the cosine sum of its derivative.
        weights.append(np.column_stack([kc, k * kc]))
        intervals = 8 * h + 63
        theta = np.arange(1, intervals) * (math.pi / intervals)
        slope = -np.fft.rfft(kc, 2 * intervals).imag[1:intervals]
        i = np.flatnonzero((slope[:-1] > 0.0) != (slope[1:] > 0.0))
        lo, hi = theta[i], theta[i + 1]
        brackets.append((lo, hi, lo + (hi - lo) * slope[i] / (slope[i] - slope[i + 1])))
    lo, hi, t = (np.concatenate(parts) for parts in zip(*brackets))
    sizes = [len(b[0]) for b in brackets]
    rows = [slice(end - size, end) for size, end in zip(sizes, itertools.accumulate(sizes))]
    powers = np.ones((len(t), max(map(len, coeffs))), dtype=complex)
    for _ in range(4):
        powers[:, 1:] = np.exp(1j * t)[:, None]
        np.cumprod(powers, axis=1, out=powers)
        sums = np.concatenate([powers[r, :len(w)] @ w for r, w in zip(rows, weights)])
        t = np.clip(t - sums[:, 0].imag / sums[:, 1].real, lo, hi)
    points = np.cos(t)
    return [points[r] for r in rows]


def _extrema(crit: np.ndarray, *regions: tuple) -> list[np.ndarray]:
    """Each region's endpoints plus the critical points `crit` inside it."""
    return [np.concatenate(([lo, hi], crit[(crit > lo) & (crit < hi)])) for lo, hi in regions]


def _window_in_u(spec: FilterSpec) -> tuple[float, float]:
    """The window edges mu -/+ delta/2 in u = 2x^2 - 1."""
    return (2.0 * (spec.mu - spec.delta / 2.0) ** 2 - 1.0,
            2.0 * (spec.mu + spec.delta / 2.0) ** 2 - 1.0)


def _condition(name: str, bound: float, points, values, strict: bool) -> ConditionReport:
    """The worst of `values` on the points u, reported at the x in [0, 1] with 2x^2 - 1 = u."""
    i = int(np.argmax(values))
    worst = float(values[i])
    return ConditionReport(name, bound, worst, math.sqrt(0.5 * (1.0 + points[i])),
                           worst < bound if strict else worst <= bound)


def certify_filter(f: ChebyshevSeries, spec: FilterSpec) -> FilterReport:
    """Evaluate the three filter conditions of an even series at the exact extrema of their regions.

    f(x) = G(2x^2 - 1) with G's coefficients the even ones; x -> 2x^2 - 1
    maps [0, 1] monotonically onto [-1, 1], so each region's extrema are G's
    on the mapped region, found at half the degree. An odd coefficient
    raises: every filter built here is even, and an odd series has f(0) = 0,
    so it fails the low side, whose region starts at x = 0.
    """
    if np.any(f.coeffs[1::2]):
        raise ValueError(f"certify_filter takes even series only, and the series of degree "
                         f"{f.degree} has an odd coefficient")
    coeffs = f.coeffs[0::2]
    return _certify(coeffs, _critical_points(coeffs), spec)


def _certify(coeffs: np.ndarray, crit: np.ndarray, spec: FilterSpec) -> FilterReport:
    """The report of `certify_filter` from G's coefficients and critical points `crit`.

    One Clenshaw recurrence evaluates the extrema of all three regions.
    """
    lo_u, hi_u = _window_in_u(spec)
    high, low, everywhere = _extrema(crit, (hi_u, 1.0), (-1.0, lo_u), (-1.0, 1.0))
    on_high, on_low, on_all = np.split(_clenshaw(coeffs, np.concatenate([high, low, everywhere])),
                                       [len(high), len(high) + len(low)])
    half_eps = spec.eps / 2.0
    return FilterReport(
        high_side=_condition("vanishes-above-window", half_eps, high, np.abs(on_high), strict=True),
        low_side=_condition("near-one-below-window", half_eps, low, np.abs(1.0 - on_low),
                            strict=True),
        sup_norm=_condition("bounded-with-margin", 1.0 - synthesis_margin(spec.eps), everywhere,
                            np.abs(on_all), strict=False),
    )


def _exchange(points: np.ndarray, errors: np.ndarray, n: int) -> np.ndarray:
    """The next Remez reference: n points of alternating error, the largest kept.

    Same-sign neighbours merge into the larger, the first of a tie; a dropped
    interior point takes the smaller of its neighbours with it, so the signs
    keep alternating.
    """
    points, first = np.unique(points, return_index=True)
    errors = errors[first]
    positive = errors > 0
    run = np.concatenate([[0], np.cumsum(positive[1:] != positive[:-1])])
    # Stable: within a run the largest magnitude comes first, ties in point order.
    order = np.lexsort((-np.abs(errors), run))
    keep = order[np.concatenate([[True], run[order][1:] != run[order][:-1]])].tolist()
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


def _equilibrium(a: float, b: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """The equilibrium measure of [-1, a] and [b, 1]: each interval's nodes and cumulative mass.

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
    return bands


class _Plateaus:
    """The weighted two-plateau target of one spec, shared by every probe of its search.

    G(u), u = 2x^2 - 1, targets `top` = 1 - m - r on [-1, a] with ripple
    r = (eps/2 - m)/2, where m = synthesis_margin(eps), and 0 on [b, 1] with
    ripple eps/2 (a, b: the window edges in u). The level is the largest
    plateau error in units of the ripple, so below 1 both plateau conditions
    hold and G < 1 - m there. The equilibrium measure that places a probe's
    first reference depends on a and b alone, so it is integrated once.
    """

    def __init__(self, spec: FilterSpec):
        margin = synthesis_margin(spec.eps)
        self.ripple = (spec.eps / 2.0 - margin) / 2.0
        self.high_ripple = spec.eps / 2.0
        self.top = 1.0 - margin - self.ripple
        self.a, self.b = _window_in_u(spec)
        self.window = (spec.mu - spec.delta / 2.0, spec.mu + spec.delta / 2.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            self.measure = _equilibrium(self.a, self.b)
        if not all(np.isfinite(mass[-1]) for _, mass in self.measure):
            raise UnresolvedWindowError(
                f"transition window [{self.window[0]}, {self.window[1]}] is narrower than "
                f"float resolution: its edges map to u = 2x^2 - 1 = {self.a!r} and {self.b!r}, "
                f"too close for the equilibrium measure that places the first Remez reference"
            )

    def first_reference(self, n: int) -> np.ndarray:
        """n points at even quantiles of the equilibrium measure of [-1, a] and [b, 1]."""
        (u_low, m_low), (u_high, m_high) = self.measure
        n_low = min(max(1, round(n * m_low[-1] / (m_low[-1] + m_high[-1]))), n - 1)
        ref = np.concatenate([np.interp(np.linspace(0.0, m_low[-1], n_low), m_low, u_low),
                              np.interp(np.linspace(0.0, m_high[-1], n - n_low), m_high, u_high)])
        ref[0], ref[n_low - 1], ref[n_low], ref[-1] = -1.0, self.a, self.b, 1.0
        return ref


class _Probe:
    """The Remez exchange for a G of degree `half`: its reference and iterations so far."""

    def __init__(self, plateaus: _Plateaus, half: int):
        self.plateaus, self.half, self.n = plateaus, half, half + 2
        self.ref = plateaus.first_reference(self.n)
        self.signs = (-1.0) ** np.arange(self.n)
        self.iterations = 0


class _Verdict:
    """How a probe ended: G's coefficients, its level, and the reason it stopped.

    "feasible": the level at G's exact extrema, `crit`, is below 1.
    "infeasible": a reference's levelled error reached 1, so no G of this
    degree does better. The other reasons stop unproven: "stall" (the level
    within `REMEZ_TOL` of the levelled error), "short exchange" (fewer than
    half + 2 alternating points) and "iteration cap" (`REMEZ_MAX_ITER`).
    """

    def __init__(self, coeffs: np.ndarray, level: float, reason: str,
                 crit: np.ndarray | None = None):
        self.coeffs, self.level, self.reason, self.crit = coeffs, level, reason, crit


def _plateau_errors(probes: list[_Probe], coeffs: list, crits: list) -> list[tuple]:
    """Each probe's plateau extrema (endpoints plus `crits` inside) and its G's weighted errors.

    One Clenshaw recurrence evaluates every G, over a stack zero-padded to
    the longest; zero leading coefficients leave a row's bits unchanged.
    Each coefficient is repeated across its row's points, since a
    broadcast add costs more than the recurrence's own adds.
    """
    extrema = [_extrema(crit, (-1.0, p.plateaus.a), (p.plateaus.b, 1.0))
               for p, crit in zip(probes, crits)]
    points = [np.concatenate(e) for e in extrema]
    x = np.zeros((len(points), max(map(len, points))))
    stack = np.zeros((max(map(len, coeffs)), *x.shape))
    for r, (c, pts) in enumerate(zip(coeffs, points)):
        stack[:len(c), r] = c[:, np.newaxis]
        x[r, :len(pts)] = pts
    values = _clenshaw(stack, x)
    out = []
    for p, (low, _), pts, v in zip(probes, extrema, points, values):
        plateaus, v = p.plateaus, v[:len(pts)]
        out.append((pts, np.where(np.arange(len(pts)) < len(low),
                                  (v - plateaus.top) / plateaus.ripple, v / plateaus.high_ripple)))
    return out


def _remez_step(probes: list[_Probe]) -> list[_Verdict | None]:
    """One exchange iteration of every probe, in lockstep: each its verdict, or None to go on.

    The Chebyshev-Vandermonde recurrence, the grid Newton steps and the
    plateau Clenshaw run once over zero-padded stacks of every probe; the
    solve, the FFT brackets, the exchange and the root solves run per probe
    on its own arrays. So each probe does the float operations it does alone.
    Each step takes its extrema from an angle grid; de la Vallee Poussin's
    bound holds for any alternating reference, so they need not be exact.
    A probe stops at the first iterate whose level at its exact extrema is
    below 1, or at the first reference whose levelled error reaches 1. So
    the feasible/infeasible call is the minimax one, which cannot get worse
    with the degree. A feasible verdict's level is that of its first iterate
    below 1, not the minimax error, so it need not fall with the degree: on
    FilterSpec(0.578, 0.0663, 1.42e-6), halves 157, 158 and 159 give 0.812,
    0.898 and 0.696.
    """
    verdicts: list[_Verdict | None] = [None] * len(probes)
    widest = max(p.half for p in probes)
    refs = np.zeros((len(probes), widest + 2))
    for r, p in enumerate(probes):
        refs[r, :p.n] = p.ref
    vander = C.chebvander(refs, widest)
    running, solutions = [], []
    for r, p in enumerate(probes):
        plateaus = p.plateaus
        low = p.ref <= plateaus.a
        scale = np.where(low, plateaus.ripple, plateaus.high_ripple)
        system = np.column_stack([vander[r, :p.n, :p.half + 1], -p.signs * scale])
        try:
            solution = np.linalg.solve(system, np.where(low, plateaus.top, 0.0))
        except np.linalg.LinAlgError:
            raise UnresolvedWindowError(
                f"transition window [{plateaus.window[0]}, {plateaus.window[1]}] nearly fills "
                f"(0, 1): its plateaus [-1, {plateaus.a!r}] and [{plateaus.b!r}, 1] in "
                f"u = 2x^2 - 1 are too narrow for the Remez exchange, whose reference system "
                f"at half-degree {p.half} is singular"
            ) from None
        p.iterations += 1
        if abs(solution[-1]) >= 1.0:
            verdicts[r] = _Verdict(solution[:-1], abs(solution[-1]), "infeasible")
        else:
            running.append(r)
            solutions.append(solution)
    # Freed before the larger arrays below are allocated, so they reuse its memory.
    del vander
    if not running:
        return verdicts
    probes_left = [probes[r] for r in running]
    coeffs = [s[:-1] for s in solutions]
    found = _plateau_errors(probes_left, coeffs, _grid_critical_points(coeffs))
    levels = [float(np.max(np.abs(errors))) for _, errors in found]
    # The grid can miss an extremum, which only lowers the level: a feasible
    # verdict is taken at the exact extrema.
    near = [j for j, level in enumerate(levels) if level < 1.0]
    if near:
        crits = [_critical_points(coeffs[j]) for j in near]
        exact = _plateau_errors([probes_left[j] for j in near], [coeffs[j] for j in near], crits)
        for j, crit, (points, errors) in zip(near, crits, exact):
            found[j], levels[j] = (points, errors), float(np.max(np.abs(errors)))
            if levels[j] < 1.0:
                verdicts[running[j]] = _Verdict(coeffs[j], levels[j], "feasible", crit)
    for j, (r, p, solution) in enumerate(zip(running, probes_left, solutions)):
        if verdicts[r] is not None:
            continue
        levelled = abs(solution[-1])
        if levels[j] <= (1.0 + REMEZ_TOL) * levelled:
            verdicts[r] = _Verdict(coeffs[j], levels[j], "stall")
            continue
        # The reference points keep their levelled errors, so every lobe of
        # the error has a candidate; points below the levelled error (such as
        # the real part of a complex root) cannot enter.
        points = np.concatenate([p.ref, found[j][0]])
        errors = np.concatenate([p.signs * solution[-1], found[j][1]])
        eligible = np.abs(errors) >= levelled
        p.ref = _exchange(points[eligible], errors[eligible], p.n)
        if len(p.ref) < p.n:
            verdicts[r] = _Verdict(coeffs[j], levels[j], "short exchange")
        elif p.iterations == REMEZ_MAX_ITER:
            verdicts[r] = _Verdict(coeffs[j], levels[j], "iteration cap")
    return verdicts


class _Search:
    """The degree search of one spec, the probe it runs, and every verdict so far.

    The search on the half-degree h keeps a bracket of infeasible and feasible
    values. log(level) falls about linearly in h from about log(2/eps) at
    h = 0, so until both ends are probed each probe extrapolates from the last
    two, and then it interpolates between the ends. An infeasible level may
    be the early-exit lower bound, which extrapolates short, so no step up is
    shorter than the one before; a step up is capped at a quarter, as the
    exchange loses accuracy far above the answer. A verdict that stopped
    unproven counts as infeasible. `probes` lists each probe's (h, reason).
    """

    def __init__(self, spec: FilterSpec):
        self.spec, self.plateaus = spec, _Plateaus(spec)
        cap = DEGREE_CAP // 2
        self.bad, self.good, self.best, self.rise = 0, cap + 1, None, 0
        self.last = (0, math.log(2.0 / spec.eps))
        self.probes: list[tuple[int, str]] = []
        half = min(max(1, math.ceil(0.8 * self.last[1] * math.sqrt(1.0 - spec.mu**2)
                                    / spec.delta)), cap)
        self.probe = _Probe(self.plateaus, half) if self.searching else None

    @property
    def searching(self) -> bool:
        return self.good - self.bad > 1

    def record(self, verdict: _Verdict) -> None:
        """Take the running probe's verdict, then start the next probe while the bracket is open."""
        half = self.probe.half
        self.probes.append((half, verdict.reason))
        # A level of exactly 0 (G meets every plateau target at its extrema) is feasible.
        log_level = math.log(max(verdict.level, math.ulp(0.0)))
        if verdict.level < 1.0:
            self.good, self.good_log, self.best = half, log_level, verdict
        else:
            self.bad, self.bad_log = half, log_level
        if self.best is not None and self.bad > 0:
            probe = math.ceil(self.bad + (self.good - self.bad) * self.bad_log
                              / (self.bad_log - self.good_log))
        else:
            slope = (log_level - self.last[1]) / (half - self.last[0])
            guess = half - log_level / slope if slope < 0.0 else half + 1
            if self.best is None:
                probe = max(math.ceil(guess), half + self.rise)
            else:
                probe = min(math.ceil(guess), half - 1)
        self.last = (half, log_level)
        probe = min(probe, half + max(1, half // 4))
        probe = min(max(probe, self.bad + 1), self.good - 1)
        self.rise = probe - half
        self.probe = _Probe(self.plateaus, probe) if self.searching else None


def heaviside_filter(specs: list[FilterSpec]) -> list[ChebyshevSeries]:
    """The even minimax step filter of each spec, at the smallest degree whose level is below 1.

    The filters come back in the order of `specs`. Their degree searches
    advance in lockstep, and each filter equals a one-item call's bit for
    bit. Raises if no degree up to `DEGREE_CAP` has a level below 1 or
    certification fails.
    """
    return [search.filter for search in _build_filters(specs)]


def _build_filters(specs: list[FilterSpec]) -> list[_Search]:
    """The finished search of every spec, with its `filter` and passing `certify_filter` `report`.

    Each round runs one exchange iteration (`_remez_step`) of every search
    still open; a search whose probe ends starts its next probe the round
    after. Certification takes the exact critical points of the feasible
    verdict's G. A failure names its spec, by list position when there are
    several.
    """
    searches = [_Search(spec) for spec in specs]
    running = [s for s in searches if s.searching]
    while running:
        for search, verdict in zip(running, _remez_step([s.probe for s in running])):
            if verdict is not None:
                search.record(verdict)
        running = [s for s in running if s.searching]
    for i, search in enumerate(searches):
        item = f" (item {i} of {len(specs)})" if len(specs) > 1 else ""
        best = search.best
        if best is None:
            unproven = sum(reason not in PROVED for _, reason in search.probes)
            error = UnresolvedWindowError if search.probes[-1][1] == "infeasible" else RuntimeError
            raise error(
                f"no even filter of degree <= {DEGREE_CAP} meets {search.spec}{item}; "
                f"{unproven} of its {len(search.probes)} probes stopped unproven"
            )
        # T_h(2x^2 - 1) = T_2h(x): G's coefficients are the filter's even ones.
        coeffs = np.zeros(2 * len(best.coeffs) - 1)
        coeffs[0::2] = best.coeffs
        search.filter = ChebyshevSeries(coeffs)
        search.report = _certify(best.coeffs, best.crit, search.spec)
        if not search.report.passed:
            worst = min(search.report.conditions(), key=lambda c: c.margin)
            raise RuntimeError(
                f"filter construction failed certification at degree {search.filter.degree}"
                f"{item}: condition {worst.name} has value {worst.worst:.3e} at "
                f"x={worst.worst_x:.6f} (bound {worst.bound:.3e})"
            )
    return searches
