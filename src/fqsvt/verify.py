"""Acceptance battery: one runnable check per closed-form claim.

Every criterion is exact or statistical at desk scale and runs on one
core; `run_criteria` executes a subset or all of them and returns
structured pass/fail results used by both the CLI and the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bands import detect_bands, exact_projectors, synthetic_band_spectrum
from .baselines import (
    adiabatic_leakage_scaling,
    prob_projection_depth,
    random_walk_success,
)
from .blockenc import dilate_hermitian
from .bosehubbard import (
    band_labels,
    build_h0,
    build_h1,
    default_model,
    fock_occupations,
    normalize_for_qsvt,
)
from .chebyshev import FilterSpec, heaviside_filter, _clenshaw
from .feedforward import (
    channel_distance,
    extract_kraus,
    feedforward_query_count,
    run_1fqsvt,
    run_multiband,
)
from .linalg import StateVector, dagger, eigh, haar_vector, hermitian_from_spectrum, rng
from .qsp import PhaseFactorSet, _mirror, extract_pq, synthesize_symmetric, to_circuit
from .qsvt import assemble_full, garbage_state, predicted_blocks

__all__ = ["CriterionResult", "run_criteria", "CRITERIA"]


@dataclass
class CriterionResult:
    ident: int
    title: str
    passed: bool
    detail: str


def _random_symmetric(gen, degree: int) -> PhaseFactorSet:
    free = gen.uniform(-math.pi, math.pi, (degree + 2) // 2)
    return PhaseFactorSet(_mirror(free, degree), "su2")


def criterion_1() -> CriterionResult:
    """Polynomial pair round-trip: normalization to 1e-10 and real Q for symmetric phases."""
    gen = rng(101)
    xs = np.linspace(-1.0, 1.0, 401)
    worst_norm = 0.0
    worst_imag = 0.0
    for trial in range(200):
        degree = int(gen.integers(1, 31))
        psi = _random_symmetric(gen, degree)
        pair = extract_pq(psi)
        p = pair.eval_p(xs)
        q = pair.eval_q(xs)
        norm_dev = float(np.max(np.abs(np.abs(p) ** 2 + (1 - xs**2) * np.abs(q) ** 2 - 1.0)))
        imag_dev = float(np.max(np.abs(pair.q.imag))) if len(pair.q) else 0.0
        worst_norm = max(worst_norm, norm_dev)
        worst_imag = max(worst_imag, imag_dev)
    passed = worst_norm <= 1e-10 and worst_imag <= 1e-10
    return CriterionResult(
        1, "signal-processing pair round-trip",
        passed, f"normalization dev {worst_norm:.2e}, Q imaginary part {worst_imag:.2e}",
    )


def criterion_2() -> CriterionResult:
    """Assembled circuit matches every predicted sector block to 1e-9."""
    gen = rng(102)
    worst = 0.0
    for trial in range(50):
        n = int(2 ** gen.integers(1, 4))
        degree = int(gen.integers(1, 13))
        h = hermitian_from_spectrum(gen.uniform(0.02, 0.98, n), gen)
        enc = dilate_hermitian(h)
        phi = PhaseFactorSet(gen.uniform(-math.pi, math.pi, degree + 1), "circuit")
        q = assemble_full(enc, phi)
        pred = predicted_blocks(h, phi)
        for i in range(4):
            for j in range(4):
                block = q[i * n : (i + 1) * n, j * n : (j + 1) * n]
                worst = max(worst, float(np.max(np.abs(block - pred.sector(i, j)))))
    return CriterionResult(
        2, "comprehensive circuit block prediction",
        worst <= 1e-9, f"worst block deviation {worst:.2e} over 50 instances",
    )


def criterion_3() -> CriterionResult:
    """Garbage-state prediction and the three-term norm identity for symmetric phases."""
    gen = rng(103)
    worst_state = 0.0
    worst_norm = 0.0
    for trial in range(50):
        n = int(2 ** gen.integers(1, 4))
        degree = int(gen.integers(1, 16))
        h = hermitian_from_spectrum(gen.uniform(0.02, 0.98, n), gen)
        enc = dilate_hermitian(h)
        psi = _random_symmetric(gen, degree)
        phi = to_circuit(psi)
        amp = haar_vector(gen, n)
        state = StateVector(int(round(math.log2(n))), amp)

        q = assemble_full(enc, phi)
        full = np.zeros(4 * n, dtype=complex)
        full[:n] = amp
        full = q @ full
        actual_garbage = full.copy()
        actual_garbage[:n] = 0.0
        predicted = garbage_state(h, phi, state)
        worst_state = max(worst_state, float(np.max(np.abs(predicted.amplitudes - actual_garbage))))

        pair = extract_pq(psi)
        spec_h = eigh(h)
        evals = spec_h.values
        weights = np.abs(dagger(spec_h.vectors) @ amp) ** 2
        f_vals = _clenshaw(pair.p.real, evals)
        p_im = _clenshaw(pair.p.imag, evals)
        q_re = _clenshaw(pair.q.real, evals) if len(pair.q) else np.zeros_like(evals)
        total = float(np.sum(weights * (f_vals**2 + p_im**2 + (1 - evals**2) * q_re**2)))
        worst_norm = max(worst_norm, abs(total - 1.0))
    passed = worst_state <= 1e-9 and worst_norm <= 1e-10
    return CriterionResult(
        3, "garbage-state structure and norm identity",
        passed, f"state dev {worst_state:.2e}, norm identity dev {worst_norm:.2e}",
    )


def criterion_4() -> CriterionResult:
    """Two-block primitive exactness, including the worked E = 0.6 example."""
    gen = rng(104)
    h = np.diag([0.6, 0.3]).astype(complex)
    enc = dilate_hermitian(h)
    phi = to_circuit(PhaseFactorSet([0.0, 0.0], "su2"))
    branches = {b.record: b for b in run_1fqsvt(enc, phi, StateVector(1, [1.0, 0.0]))}
    example_dev = max(
        abs(branches[(0, 0)].probability - 0.1296),
        abs(branches[(1, 0)].probability - 0.4096),
        abs(branches[(0, 1)].probability + branches[(1, 1)].probability - 0.4608),
        float(np.max(np.abs(branches[(0, 0)].state.amplitudes
                            - np.array([0.36, 0, 0, 0])))),
        float(np.max(np.abs(branches[(1, 0)].state.amplitudes
                            - np.array([-0.64, 0, 0, 0])))),
    )

    worst = 0.0
    for trial in range(200):
        n_qubits = int(gen.integers(1, 5))
        n = 2**n_qubits
        h = hermitian_from_spectrum(gen.uniform(0.02, 0.98, n), gen)
        enc = dilate_hermitian(h)
        degree = int(gen.integers(1, 31))
        psi = _random_symmetric(gen, degree)
        phi = to_circuit(psi)
        pair = extract_pq(psi)
        spec_h = eigh(h)
        f2 = (spec_h.vectors * _clenshaw(pair.p.real, spec_h.values) ** 2) @ dagger(spec_h.vectors)
        amp = haar_vector(gen, n)
        leaves = {b.record: b for b in run_1fqsvt(enc, phi, StateVector(n_qubits, amp))}
        s00 = leaves[(0, 0)].state.amplitudes
        s10 = leaves[(1, 0)].state.amplitudes
        worst = max(
            worst,
            float(np.max(np.abs(s00[:n] - f2 @ amp))),
            float(np.max(np.abs(s00[n:]))),
            float(np.max(np.abs(s10[:n] + (np.eye(n) - f2) @ amp))),
            float(np.max(np.abs(s10[n:]))),
            abs(sum(b.probability for b in leaves.values()) - 1.0),
        )
    passed = worst <= 1e-9 and example_dev <= 1e-9
    return CriterionResult(
        4, "two-block primitive exactness",
        passed, f"worst branch dev {worst:.2e}, worked example dev {example_dev:.2e}",
    )


def criterion_5() -> CriterionResult:
    """Failure probability of a certified filter round stays below 2 sqrt(2) eps."""
    eps = 1e-3
    gen = rng(105)
    h = hermitian_from_spectrum([0.08, 0.15, 0.82, 0.93], gen)
    spec_h = eigh(h)
    filt = heaviside_filter(FilterSpec(0.5, 0.5, eps))
    phi = to_circuit(synthesize_symmetric(filt, 1e-11))
    enc = dilate_hermitian(h)
    bound = 2.0 * math.sqrt(2.0) * eps

    worst_fail = 0.0
    worst_proj = 0.0
    inputs = [spec_h.vectors[:, j] for j in range(4)]
    inputs.append(spec_h.vectors.sum(axis=1) / 2.0)
    inputs.append(haar_vector(gen, 4))
    low = spec_h.vectors[:, :2] @ dagger(spec_h.vectors[:, :2])
    for amp in inputs:
        leaves = {b.record: b for b in run_1fqsvt(enc, phi, StateVector(2, amp))}
        p_fail = leaves[(0, 1)].probability + leaves[(1, 1)].probability
        worst_fail = max(worst_fail, p_fail)
        s00 = leaves[(0, 0)].state.amplitudes[:4]
        s10 = leaves[(1, 0)].state.amplitudes[:4]
        worst_proj = max(
            worst_proj,
            float(np.linalg.norm(low @ amp - s00)),
            float(np.linalg.norm(-(np.eye(4) - low) @ amp - s10)),
        )
    passed = worst_fail <= bound and worst_proj < eps
    return CriterionResult(
        5, "binary projection error budget",
        passed,
        f"P(second bit = 1) {worst_fail:.2e} <= {bound:.2e}, projection error {worst_proj:.2e}",
    )


def criterion_6() -> CriterionResult:
    """Channel-distance proxy, exact query count, and filter-degree scaling laws."""
    gen = rng(106)
    round_eps = 1e-3
    detail = []
    passed = True
    for count in (2, 4, 8):
        values = synthetic_band_spectrum(count, per_band=2 if count <= 4 else 1, width=0.02)
        h = hermitian_from_spectrum(values, gen)
        spectrum = eigh(h)
        structure = detect_bands(spectrum.values, target_bands=count)
        enc = dilate_hermitian(h)
        n = enc.encoded_dim
        amp = spectrum.vectors.sum(axis=1) / math.sqrt(n)
        tree = run_multiband(enc, structure, round_eps,
                             StateVector(int(round(math.log2(n))), amp))
        kraus = extract_kraus(tree)
        projectors = exact_projectors(spectrum, structure)
        proxy = channel_distance(kraus, projectors, samples=24, seed=106)
        bound = 4.0 * count * math.log2(count) * round_eps
        queries_ok = tree.query_count == feedforward_query_count(count, tree.degree)
        passed = passed and proxy <= bound and queries_ok
        detail.append(f"L={count}: proxy {proxy:.1e}<= {bound:.1e} queries {tree.query_count}")

    deltas = np.array([0.4, 0.2, 0.1, 0.05])
    degrees = [heaviside_filter(FilterSpec(0.5, d, 1e-3)).degree for d in deltas]
    slope_delta = float(np.polyfit(np.log(1.0 / deltas), np.log(degrees), 1)[0])
    epses = np.array([1e-2, 1e-3, 1e-4])
    degrees_eps = [heaviside_filter(FilterSpec(0.5, 0.2, e)).degree for e in epses]
    slope_eps = float(np.polyfit(np.log(np.log(1.0 / epses)), np.log(degrees_eps), 1)[0])
    passed = passed and abs(slope_delta - 1.0) <= 0.15 and slope_eps <= 1.2
    detail.append(f"degree slopes: vs gap {slope_delta:.3f}, vs log(1/eps) {slope_eps:.3f}")
    return CriterionResult(6, "multi-band channel accuracy and query scaling",
                           passed, "; ".join(detail))


def criterion_7() -> CriterionResult:
    """Memoryless walk success stays below 2/L; query separation against feedforward."""
    gen = rng(107)
    degree = heaviside_filter(FilterSpec(0.5, 0.2, 1e-3)).degree
    passed = True
    detail = []
    rates = {}
    for count in (2, 4, 8, 16):
        values = synthetic_band_spectrum(count, per_band=2, width=0.01)
        h = hermitian_from_spectrum(values, gen)
        spectrum = eigh(h)
        structure = detect_bands(spectrum.values, target_bands=count)
        est = random_walk_success(structure, spectrum, trials=10000, seed=107)
        bound = 2.0 / count + 3.0 * est.stderr
        passed = passed and est.success_rate <= bound
        rates[count] = est.success_rate
        detail.append(f"L={count}: success {est.success_rate:.4f} (bound {bound:.4f})")
    # Separation: repetitions to success grow like L (factor ~8 from L=2 to
    # L=16) while feedforward queries grow like log L (factor 4).
    cost_growth = rates[2] / rates[16]
    query_growth = feedforward_query_count(16, degree) / feedforward_query_count(2, degree)
    passed = passed and cost_growth > query_growth
    detail.append(f"cost growth x{cost_growth:.1f} vs query growth x{query_growth:.0f}")
    return CriterionResult(7, "memoryless-walk success bound and separation",
                           passed, "; ".join(detail))


def criterion_8() -> CriterionResult:
    """Amplified probabilistic projection depth equals sqrt(L) exactly on uniform weights."""
    devs = []
    for count in (4, 16, 64):
        depth = prob_projection_depth(np.full(count, 1.0 / count), "amplify")
        devs.append(abs(depth - math.sqrt(count)))
    passed = all(d == 0.0 for d in devs)
    return CriterionResult(8, "amplified projection depth on uniform weights",
                           passed, f"deviations {devs}")


def criterion_9() -> CriterionResult:
    """Diabatic leakage falls off as 1/T on the two-band reference instance."""
    gen = rng(1)
    h0 = np.diag([0.0, 0.15, 1.0, 1.15]).astype(complex)
    v = 0.1 * (gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4)))
    v = 0.5 * (v + dagger(v))
    h1 = h0 + v
    structure = detect_bands(eigh(h1).values, target_bands=2)
    fit = adiabatic_leakage_scaling(
        h0, h1, structure, 0, [50.0, 100.0, 200.0, 400.0],
        lambda s: s, StateVector(2, [1, 0, 0, 0]), steps_per_unit=16,
    )
    passed = (not fit.degenerate) and abs(fit.slope + 1.0) <= 0.2
    return CriterionResult(
        9, "adiabatic leakage 1/T scaling",
        passed, f"log-log slope {fit.slope:.3f} (target -1.0 +- 0.2)",
    )


def criterion_10() -> CriterionResult:
    """Transmon instance: band grouping, detection under perturbation, sampled histogram."""
    model = default_model()
    labeling = band_labels(model)
    groups = labeling.groups()
    expected = {
        0: ["00", "01", "10", "11"],
        1: ["02", "12", "20", "21"],
        2: ["22"],
        3: ["03", "13", "30", "31"],
    }
    occ = fock_occupations(model)
    grouping_ok = all(
        sorted("".join(map(str, occ[i])) for i in groups[band]) == names
        for band, names in expected.items()
    )

    detection_ok = True
    for perturb_seed in (None, 110, 111):
        m = model if perturb_seed is None else model.perturbed(perturb_seed)
        h = build_h0(m) + build_h1(m)
        normalized, mapping = normalize_for_qsvt(h, 0.1)
        spectrum = eigh(normalized)
        structure = detect_bands(spectrum.values, min_gap=0.5 * m.eta * mapping.scale)
        if [len(b) for b in structure.bands] != [4, 4, 1, 4, 2, 1]:
            detection_ok = False
            continue
        for j, band in enumerate(structure.bands):
            for col in band:
                weights = np.zeros(7)
                for k in range(model.dimension):
                    weights[labeling.labels[k]] += abs(spectrum.vectors[k, col]) ** 2
                if int(np.argmax(weights)) != sorted(set(labeling.labels))[j]:
                    detection_ok = False

    h = build_h0(model) + build_h1(model)
    normalized, mapping = normalize_for_qsvt(h, 0.1)
    spectrum = eigh(normalized)
    structure = detect_bands(spectrum.values, min_gap=0.5 * model.eta * mapping.scale)
    enc = dilate_hermitian(normalized)
    gen = rng(110, 3)
    amp = haar_vector(gen, model.dimension)
    projectors = exact_projectors(spectrum, structure)
    weights = np.array([float(np.vdot(amp, p @ amp).real) for p in projectors])
    trials = 1000
    tree = run_multiband(enc, structure, 1e-3, StateVector(4, amp), mode="sample",
                         seed=110, trajectories=trials)
    counts = np.zeros(structure.band_count)
    for leaf in tree.leaves:
        counts[leaf.claimed_band] += 1
    freqs = counts / trials
    sigma = np.sqrt(np.maximum(weights * (1 - weights), 1.0 / trials) / trials)
    histogram_ok = bool(np.all(np.abs(freqs - weights) <= 3.0 * sigma))

    passed = grouping_ok and detection_ok and histogram_ok
    worst_band = int(np.argmax(np.abs(freqs - weights) / sigma))
    return CriterionResult(
        10, "transmon band grouping and sampled projection",
        passed,
        f"grouping {grouping_ok}, detection {detection_ok}, histogram "
        f"worst z={abs(freqs[worst_band] - weights[worst_band]) / sigma[worst_band]:.2f}",
    )


CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
    10: criterion_10,
}


def run_criteria(numbers=None) -> list:
    chosen = sorted(CRITERIA) if not numbers else sorted(set(numbers))
    results = []
    for number in chosen:
        if number not in CRITERIA:
            raise ValueError(f"unknown acceptance criterion {number}")
        results.append(CRITERIA[number]())
    return results
