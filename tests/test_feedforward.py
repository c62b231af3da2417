import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqsvt import feedforward
from fqsvt.bands import BandStructure, detect_bands, exact_projectors, synthetic_band_spectrum
from fqsvt.blockenc import dilate_hermitian
from fqsvt.chebyshev import FilterSpec, _clenshaw, heaviside_filter
from fqsvt.feedforward import (
    KrausExtraction,
    MultibandPolicy,
    TreeLeaf,
    _multiband_phase_table,
    channel_distance,
    extract_kraus,
    feedforward_query_count,
    round_budget,
    run_1fqsvt,
    run_multiband,
)
from fqsvt.linalg import StateVector, eigh, haar_vector, hermitian_from_spectrum, rng
from fqsvt.qsp import (
    PhaseFactorSet,
    _mirror,
    extract_pq,
    synthesize_symmetric,
    to_circuit,
    to_su2,
)
from fqsvt.qsvt import assemble_full


def success_projectors(kraus: KrausExtraction) -> dict:
    """Claimed band -> approximate projector, from the non-failed records.

    On a success record the register operator lives on the all-zero ancilla
    sector, so its top block acts on the system alone. Each garbage-branch
    round adds a deterministic minus sign, undone by (-1)^(sum of band bits).
    """
    n = kraus.system_dim
    return {leaf.claimed_band: (-1.0) ** sum(leaf.record[0::2]) * leaf.operator[:n, :]
            for leaf in kraus.leaves if not leaf.failed}


def random_symmetric(gen, degree):
    return PhaseFactorSet(_mirror(gen.uniform(-np.pi, np.pi, (degree + 2) // 2), degree), "su2")


IDENTITY = to_circuit(PhaseFactorSet([0.0, 0.0], "su2"))  # f(x) = x, degree 1


def test_mar_deterministic_zero_branch():
    # f(1) = 1: the first MAR reads 0 with certainty and leaves the input in place.
    enc = dilate_hermitian(np.diag([1.0, 0.3]))
    leaves = {b.record: b for b in
              run_1fqsvt(enc, IDENTITY, StateVector(1, [1, 0]))}
    assert leaves[(0, 0)].probability == pytest.approx(1.0, abs=1e-12)
    assert leaves[(1, 0)].probability + leaves[(1, 1)].probability <= 1e-24
    assert np.allclose(leaves[(0, 0)].state.amplitudes, [1, 0, 0, 0], atol=1e-12)


def test_mar_definition_branch_states():
    # f^2 = 1/2: the first MAR splits evenly, and the reset 1-branch keeps
    # its weight through the second block.
    enc = dilate_hermitian(np.diag([1.0 / math.sqrt(2.0), 0.3]))
    leaves = {b.record: b for b in
              run_1fqsvt(enc, IDENTITY, StateVector(1, [1, 0]))}
    first_one = leaves[(1, 0)].probability + leaves[(1, 1)].probability
    assert leaves[(0, 0)].probability + leaves[(0, 1)].probability == pytest.approx(0.5)
    assert first_one == pytest.approx(0.5)
    assert np.allclose(leaves[(0, 0)].state.amplitudes, [0.5, 0, 0, 0])
    assert np.allclose(leaves[(1, 0)].state.amplitudes, [-0.5, 0, 0, 0])


def test_mar_sampled_frequencies_match_enumerate():
    enc = dilate_hermitian(np.diag([0.6, 0.3]))
    structure = detect_bands([0.3, 0.6], min_gap=0.2)
    state = StateVector(1, [0.8, 0.6])
    enumerated = run_multiband(enc, structure, 1e-2, state)
    p1 = sum(leaf.probability for leaf in enumerated.leaves if leaf.record[0] == 1)
    draws = 10000
    sampled = run_multiband(enc, structure, 1e-2, state, mode="sample", seed=5,
                            trajectories=draws)
    hits = sum(leaf.record[0] for leaf in sampled.leaves)
    sigma = math.sqrt(p1 * (1 - p1) / draws)
    assert abs(hits / draws - p1) <= 3 * sigma


def test_mar_rejects_zero_state():
    enc = dilate_hermitian(np.diag([0.6, 0.3]))
    with pytest.raises(ValueError, match="unit norm"):
        run_1fqsvt(enc, IDENTITY, StateVector(1, [0.0, 0.0]))


def test_one_step_identity_polynomial_worked_example():
    h = np.diag([0.6, 0.3]).astype(complex)
    enc = dilate_hermitian(h)
    phi = to_circuit(PhaseFactorSet([0.0, 0.0], "su2"))
    leaves = {b.record: b for b in
              run_1fqsvt(enc, phi, StateVector(1, [1, 0]))}
    assert leaves[(0, 0)].probability == pytest.approx(0.1296, abs=1e-12)
    assert leaves[(1, 0)].probability == pytest.approx(0.4096, abs=1e-12)
    p_fail = leaves[(0, 1)].probability + leaves[(1, 1)].probability
    assert p_fail == pytest.approx(0.4608, abs=1e-12)
    assert np.allclose(leaves[(0, 0)].state.amplitudes, [0.36, 0, 0, 0], atol=1e-12)
    assert np.allclose(leaves[(1, 0)].state.amplitudes, [-0.64, 0, 0, 0], atol=1e-12)


def test_one_step_t2_zero_crossing():
    # f = T2 vanishes at 1/sqrt(2): the (0,0) branch dies and (1,0) returns
    # the input with the physical minus sign.
    e = 1.0 / math.sqrt(2.0)
    h = np.diag([e, 0.2]).astype(complex)
    enc = dilate_hermitian(h)
    phi = to_circuit(PhaseFactorSet([0.0, 0.0, 0.0], "su2"))
    leaves = {b.record: b for b in
              run_1fqsvt(enc, phi, StateVector(1, [1, 0]))}
    assert leaves[(0, 0)].probability <= 1e-12
    assert leaves[(1, 0)].probability == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(leaves[(1, 0)].state.amplitudes, [-1, 0, 0, 0], atol=1e-10)


def test_one_step_heaviside_keeps_low_eigenstate():
    eps = 1e-3
    filt = heaviside_filter(FilterSpec(0.5, 0.4, eps))
    phi = to_circuit(synthesize_symmetric(filt, 1e-11))
    h = np.diag([0.2, 0.85]).astype(complex)
    enc = dilate_hermitian(h)
    leaves = {b.record: b for b in
              run_1fqsvt(enc, phi, StateVector(1, [1, 0]))}
    assert leaves[(0, 0)].probability >= (1 - eps) ** 2
    assert np.linalg.norm(leaves[(0, 0)].state.amplitudes - np.array([1, 0, 0, 0])) < eps


def test_one_step_rejects_asymmetric_phases():
    enc = dilate_hermitian(np.diag([0.3, 0.6]))
    phi = to_circuit(PhaseFactorSet([0.4, 0.0, 0.1], "su2"))
    with pytest.raises(ValueError, match="symmetric"):
        run_1fqsvt(enc, phi, StateVector(1, [1, 0]))


def test_multiband_two_band_worked_example():
    gen = rng(21)
    h = hermitian_from_spectrum([0.1, 0.9], gen)
    spec = eigh(h)
    structure = detect_bands(spec.values, min_gap=0.5)
    enc = dilate_hermitian(h)
    amp = (spec.vectors[:, 0] + spec.vectors[:, 1]) / math.sqrt(2)
    tree = run_multiband(enc, structure, round_budget(1e-2, 2), StateVector(1, amp))
    leaves = {l.record: l for l in tree.leaves}
    eps = tree.round_eps
    assert leaves[(0, 0)].probability == pytest.approx(0.5, abs=3 * eps)
    assert leaves[(1, 0)].probability == pytest.approx(0.5, abs=3 * eps)
    s00 = leaves[(0, 0)].state.amplitudes[:2]
    s10 = leaves[(1, 0)].state.amplitudes[:2]
    assert np.linalg.norm(s00 - spec.vectors[:, 0] / math.sqrt(2)) < eps
    assert np.linalg.norm(s10 + spec.vectors[:, 1] / math.sqrt(2)) < eps
    assert leaves[(0, 0)].claimed_band == 0
    assert leaves[(1, 0)].claimed_band == 1


def test_multiband_four_bands_uniform_input():
    gen = rng(22)
    h = hermitian_from_spectrum([0.05, 0.35, 0.65, 0.95], gen)
    spec = eigh(h)
    structure = detect_bands(spec.values, min_gap=0.2)
    enc = dilate_hermitian(h)
    amp = spec.vectors.sum(axis=1) / 2.0
    tree = run_multiband(enc, structure, round_budget(4e-2, 4), StateVector(2, amp))
    assert tree.rounds == 2
    assert len(tree.leaves) == 16
    success = {l.claimed_band: l for l in tree.leaves if not l.failed}
    for band in range(4):
        assert success[band].probability == pytest.approx(0.25, abs=5e-3)
    total = sum(l.probability for l in tree.leaves)
    assert total == pytest.approx(1.0, abs=1e-10)


def test_multiband_probability_conserved_at_every_depth():
    gen = rng(23)
    h = hermitian_from_spectrum([0.05, 0.35, 0.65, 0.95], gen)
    spec = eigh(h)
    structure = detect_bands(spec.values, min_gap=0.2)
    enc = dilate_hermitian(h)
    amp = spec.vectors.sum(axis=1) / 2.0
    tree = run_multiband(enc, structure, round_budget(4e-2, 4), StateVector(2, amp))
    # Sibling probabilities sum to the parent's: group leaves by prefix.
    by_prefix: dict = {}
    for leaf in tree.leaves:
        for cut in (0, 2, 4):
            by_prefix.setdefault(leaf.record[:cut], 0.0)
            by_prefix[leaf.record[:cut]] += leaf.probability
    assert by_prefix[()] == pytest.approx(1.0, abs=1e-10)
    for prefix, weight in by_prefix.items():
        if len(prefix) == 2:
            children = sum(
                v for k, v in by_prefix.items() if len(k) == 4 and k[:2] == prefix
            )
            assert children == pytest.approx(weight, abs=1e-10)


def test_multiband_three_bands_never_claims_missing_band():
    gen = rng(24)
    h = hermitian_from_spectrum([0.1, 0.5, 0.88, 0.92], gen)
    spec = eigh(h)
    structure = detect_bands(spec.values, min_gap=0.3)
    assert structure.band_count == 3
    enc = dilate_hermitian(h)
    amp = spec.vectors[:, :3].sum(axis=1) / math.sqrt(3)
    tree = run_multiband(enc, structure, round_budget(2e-2, 3), StateVector(2, amp))
    claimed = {l.claimed_band for l in tree.leaves}
    assert claimed <= {0, 1, 2}
    # The upper subtree stops after one round.
    upper = [l for l in tree.leaves if l.record[:1] == (1,)]
    assert all(len(l.record) == 2 for l in upper)


def test_multiband_single_band_trivial_tree():
    gen = rng(25)
    h = hermitian_from_spectrum([0.4, 0.45, 0.5, 0.55], gen)
    structure = detect_bands(eigh(h).values, min_gap=0.3)
    assert structure.band_count == 1
    tree = run_multiband(dilate_hermitian(h), structure, 0.0,
                         StateVector(2, eigh(h).vectors[:, 0]))
    assert len(tree.leaves) == 1
    assert tree.leaves[0].claimed_band == 0
    assert tree.query_count == 0


def test_multiband_band_supported_input_claims_its_band():
    gen = rng(26)
    h = hermitian_from_spectrum([0.1, 0.5, 0.9, 0.95], gen)
    spec = eigh(h)
    structure = detect_bands(spec.values, min_gap=0.3)
    enc = dilate_hermitian(h)
    target_band = 1
    amp = spec.vectors[:, 1]
    tree = run_multiband(enc, structure, round_budget(1e-2, 3), StateVector(2, amp),
                         mode="sample", seed=9, trajectories=200)
    hits = sum(1 for l in tree.leaves if l.claimed_band == target_band and not l.failed)
    assert hits / 200 >= 1.0 - 8 * tree.rounds * tree.round_eps - 0.03


def per_trajectory_sample(enc, policy, amp, seed, trajectories):
    """Sampling as one propagation per trajectory: (record, state, queries) per trajectory.

    Each trajectory runs the circuits on its own input column and draws each
    MAR outcome from the weights of the two halves, one uniform from
    `rng(seed, s)` per MAR.
    """
    circuits = {k: assemble_full(enc, phi) for k, phi in policy.phase_table.items()}
    n = enc.encoded_dim
    reg_dim = n * enc.ancilla_dim
    reflect_signs = -np.ones((2 * reg_dim, 1))
    for mon in (0, 1):
        reflect_signs[mon * reg_dim : mon * reg_dim + n] = 1.0
    out = []
    for s in range(trajectories):
        gen = rng(seed, s)
        bits, queries = (), 0
        register = np.zeros((reg_dim, 1), dtype=complex)
        register[:n, 0] = amp
        while (k := policy.next_block(bits)) is not None:
            second = len(bits) % 2 == 1
            degree = policy.phase_table[k].degree
            full = np.zeros((2 * reg_dim, 1), dtype=complex)
            if second and bits[-1] == 1:
                full[reg_dim:] = register
            else:
                full[:reg_dim] = register
            circuit = circuits[k]
            if second and degree % 2 == 1:
                full = reflect_signs * (circuit @ (reflect_signs * full))
            else:
                full = circuit @ full
            halves = (full[:reg_dim], full[reg_dim:])
            weights = [float(np.vdot(h, h).real) for h in halves]
            bit = 0 if gen.random() < weights[0] / (weights[0] + weights[1]) else 1
            bits, register = bits + (bit,), halves[bit]
            queries += degree
        out.append((bits, register[:, 0], queries))
    return out


@pytest.mark.parametrize("count", [1, 2, 3, 5, 8, 16])
def test_sample_mode_matches_per_trajectory_propagation(count, monkeypatch):
    # Walking the enumerated tree of the input column must reach, for every
    # trajectory, the leaf a propagation of that trajectory alone reaches,
    # bit for bit. Bands hold one or two eigenvalues on 2^ceil(log2 L) dims.
    n = 2 ** max(1, math.ceil(math.log2(count)))
    centers = synthetic_band_spectrum(count)
    gen = rng(40, count)
    h = hermitian_from_spectrum(np.sort(np.concatenate([centers, centers[: n - count] + 0.01])),
                                gen)
    structure = detect_bands(eigh(h).values, target_bands=count)
    enc = dilate_hermitian(h)
    state = StateVector(int(math.log2(n)), haar_vector(gen, n))
    compiled = _multiband_phase_table(structure, 1e-1)
    monkeypatch.setattr(feedforward, "_multiband_phase_table", lambda *_: compiled)
    policy = MultibandPolicy(count, compiled[0])
    for seed in (3, 11):
        # Trajectory s depends on stream s alone, so one reference run covers both lengths.
        reference = per_trajectory_sample(enc, policy, state.amplitudes, seed, 3000)
        for trajectories in (1, 3000):
            tree = run_multiband(enc, structure, 1e-1, state, mode="sample", seed=seed,
                                 trajectories=trajectories)
            expected = reference[:trajectories]
            assert [(leaf.record, leaf.probability, leaf.claimed_band, leaf.failed, leaf.queries)
                    for leaf in tree.leaves] == [
                (bits, float(np.vdot(amplitudes, amplitudes).real),
                 policy.claimed_band(bits), any(bits[1::2]), queries)
                for bits, amplitudes, queries in expected]
            assert np.array_equal([leaf.state.amplitudes for leaf in tree.leaves],
                                  [amplitudes for _, amplitudes, _ in expected])
            if trajectories > 1 and count > 1:
                assert len({leaf.record for leaf in tree.leaves}) > 2


def test_run_multiband_rejects_unknown_mode_before_compiling(monkeypatch):
    def no_filters(spec):
        raise AssertionError("a filter was built before the mode was checked")

    monkeypatch.setattr(feedforward, "heaviside_filter", no_filters)
    enc = dilate_hermitian(np.diag([0.6, 0.3]))
    structure = detect_bands([0.3, 0.6], min_gap=0.2)
    with pytest.raises(ValueError, match="unknown mode 'walk'"):
        run_multiband(enc, structure, 1e-2, StateVector(1, [1, 0]), mode="walk")


def test_tree_height_is_log2_band_count():
    gen = rng(27)
    for count, dim in ((2, 2), (4, 4), (8, 8)):
        h = hermitian_from_spectrum(synthetic_band_spectrum(count), gen)
        spec = eigh(h)
        structure = detect_bands(spec.values, target_bands=count)
        tree = run_multiband(dilate_hermitian(h), structure, round_budget(1e-1, count),
                             StateVector(int(math.log2(dim)), spec.vectors[:, 0]))
        assert tree.rounds == math.ceil(math.log2(count))
        assert max(len(l.record) for l in tree.leaves) == 2 * tree.rounds


def test_extract_kraus_completeness_and_projectors():
    # Two bands, and three bands on a four-dimensional system: the upper
    # subtree of the three-band run finishes a round early.
    gen = rng(28)
    for values, min_gap, count in (([0.1, 0.9], 0.5, 2), ([0.1, 0.5, 0.88, 0.92], 0.3, 3)):
        h = hermitian_from_spectrum(values, gen)
        spec = eigh(h)
        structure = detect_bands(spec.values, min_gap=min_gap)
        assert structure.band_count == count
        n = len(values)
        amp = spec.vectors.sum(axis=1) / math.sqrt(n)
        tree = run_multiband(dilate_hermitian(h), structure, round_budget(1e-2, count),
                             StateVector(int(math.log2(n)), amp))
        kraus = extract_kraus(tree)
        assert kraus.completeness_residual <= 1e-9
        assert [leaf.record for leaf in kraus.leaves] == sorted(l.record for l in tree.leaves)
        projectors = exact_projectors(spec, structure)
        success = success_projectors(kraus)
        assert sorted(success) == list(range(count))
        for band, op in success.items():
            assert np.linalg.norm(op - projectors[band], 2) <= tree.round_eps


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.integers(2, 8), st.integers(1, 3), st.integers(0, 2**32 - 1),
       st.sampled_from([1e-1, 1e-2]))
def test_extract_kraus_complete_and_probability_conserved_on_random_spectra(
        count, qubits, seed, round_eps):
    # L bands in [0.02, 0.98] split by gaps at least 0.08 wide at jittered
    # centers; each band holds one eigenvalue plus a random share of the rest.
    gen = rng(seed)
    qubits = max(qubits, math.ceil(math.log2(count)))
    n = 2**qubits
    cuts = 0.02 + 0.96 * (np.arange(1, count) + gen.uniform(-0.1, 0.1, count - 1)) / count
    lows = np.concatenate([[0.02], cuts + 0.04])
    highs = np.concatenate([cuts - 0.04, [0.98]])
    sizes = 1 + np.bincount(gen.integers(0, count, n - count), minlength=count)
    values = np.sort(np.concatenate(
        [gen.uniform(lo, hi, size) for lo, hi, size in zip(lows, highs, sizes)]))
    h = hermitian_from_spectrum(values, gen)
    structure = detect_bands(eigh(h).values, target_bands=count)
    tree = run_multiband(dilate_hermitian(h), structure, round_eps,
                         StateVector(qubits, haar_vector(gen, n)))
    assert extract_kraus(tree).completeness_residual <= 1e-9
    assert abs(sum(leaf.probability for leaf in tree.leaves) - 1.0) <= 1e-12


def test_extract_kraus_branch_linearity():
    # Every operator applied to the input must match a propagation of that
    # input alone: the two-block primitive on the same split phases, and its
    # closed forms f^2(H) and -(1 - f^2(H)) on the success records.
    gen = rng(29)
    h = hermitian_from_spectrum([0.1, 0.9], gen)
    spec = eigh(h)
    structure = detect_bands(spec.values, min_gap=0.5)
    enc = dilate_hermitian(h)
    amp = (0.6 * spec.vectors[:, 0] + 0.8 * spec.vectors[:, 1])
    tree = run_multiband(enc, structure, round_budget(1e-2, 2), StateVector(1, amp))
    kraus = extract_kraus(tree)
    by_record = {leaf.record: leaf.operator for leaf in kraus.leaves}
    table, _ = _multiband_phase_table(structure, tree.round_eps)
    single = run_1fqsvt(enc, table[1], StateVector(1, amp))
    assert sorted(by_record) == sorted(l.record for l in single)
    for leaf in single:
        predicted = by_record[leaf.record] @ amp
        assert np.max(np.abs(predicted - leaf.state.amplitudes)) <= 1e-12
    f = _clenshaw(extract_pq(to_su2(table[1])).p.real, spec.values)
    f2 = (spec.vectors * f**2) @ spec.vectors.conj().T
    assert np.max(np.abs(by_record[(0, 0)][:2] - f2)) <= 1e-10
    assert np.max(np.abs(by_record[(1, 0)][:2] + (np.eye(2) - f2))) <= 1e-10

    # Four bands: sampled trajectories carry unnormalized single-column
    # registers, which must equal the enumerated operator on the input.
    h = hermitian_from_spectrum([0.05, 0.35, 0.65, 0.95], gen)
    spec = eigh(h)
    structure = detect_bands(spec.values, min_gap=0.2)
    enc = dilate_hermitian(h)
    amp = spec.vectors @ np.array([0.4, 0.5, 0.3, math.sqrt(0.5)])
    state = StateVector(2, amp)
    kraus = extract_kraus(run_multiband(enc, structure, round_budget(4e-2, 4), state))
    by_record = {leaf.record: leaf.operator for leaf in kraus.leaves}
    sampled = run_multiband(enc, structure, round_budget(4e-2, 4), state, mode="sample",
                            seed=4, trajectories=40)
    assert len({l.record for l in sampled.leaves}) == 4
    for leaf in sampled.leaves:
        predicted = by_record[leaf.record] @ amp
        assert np.max(np.abs(predicted - leaf.state.amplitudes)) <= 1e-12


def test_extract_kraus_failure_weight_bounded():
    gen = rng(30)
    h = hermitian_from_spectrum([0.05, 0.35, 0.65, 0.95], gen)
    spec = eigh(h)
    structure = detect_bands(spec.values, min_gap=0.2)
    enc = dilate_hermitian(h)
    eps = 1e-3
    for band in range(4):
        tree = run_multiband(enc, structure, eps, StateVector(2, spec.vectors[:, band]))
        failed_weight = sum(l.probability for l in tree.leaves if l.failed)
        assert failed_weight <= 2 * math.sqrt(2) * eps * tree.rounds * 1.1


def test_extract_kraus_requires_enumerate_tree():
    gen = rng(31)
    h = hermitian_from_spectrum([0.1, 0.9], gen)
    spec = eigh(h)
    structure = detect_bands(spec.values, min_gap=0.5)
    tree = run_multiband(dilate_hermitian(h), structure, round_budget(1e-2, 2),
                         StateVector(1, spec.vectors[:, 0]), mode="sample", seed=1)
    with pytest.raises(ValueError, match="enumerate"):
        extract_kraus(tree)


def test_channel_distance_zero_for_exact_projectors():
    gen = rng(32)
    h = hermitian_from_spectrum([0.2, 0.8], gen)
    spec = eigh(h)
    structure = detect_bands(spec.values, min_gap=0.4)
    projectors = exact_projectors(spec, structure)
    amp = spec.vectors[:, 0]
    kraus = KrausExtraction(
        [TreeLeaf((band, 0), StateVector(1, p @ amp), float(np.vdot(amp, p @ amp).real),
                  band, False, 2, p.copy())
         for band, p in enumerate(projectors)],
        completeness_residual=0.0,
    )
    assert channel_distance(kraus, projectors, samples=8, seed=1) <= 1e-12


def test_channel_distance_roughly_linear_in_budget():
    # Eigenvalues pinned at the window edges keep the filter error at its
    # eps/4 design point; the proxy then tracks the budget with scaling
    # exponent near 1 (trimmed degrees quantize, so single halvings jitter).
    gen = rng(33)
    h = hermitian_from_spectrum([0.25, 0.75], gen)
    spec = eigh(h)
    structure = detect_bands(spec.values, min_gap=0.4)
    enc = dilate_hermitian(h)
    amp = spec.vectors[:, 0]
    projectors = exact_projectors(spec, structure)
    eps_hi, eps_lo = 4e-3, 2.5e-4
    proxies = []
    for eps in (eps_hi, eps_lo):
        tree = run_multiband(enc, structure, eps, StateVector(1, amp))
        proxies.append(channel_distance(extract_kraus(tree), projectors, samples=12, seed=2))
    exponent = math.log(proxies[0] / proxies[1]) / math.log(eps_hi / eps_lo)
    assert 0.5 <= exponent <= 1.5


def test_phase_table_builds_each_split_once_and_pads_to_the_hardest(monkeypatch):
    # Split 2 needs the highest degree; splits 1 and 3 keep their own lower
    # degree filters, zero-padded, and are never built again.
    structure = BandStructure(4, [0.125, 0.225, 0.5], 0.2, [[0], [1], [2], [3]])
    eps = 0.1
    built = {}

    def recording(spec):
        built.setdefault(spec, []).append(heaviside_filter(spec))
        return built[spec][-1]

    monkeypatch.setattr(feedforward, "heaviside_filter", recording)
    table, degree = _multiband_phase_table(structure, eps)
    own = {spec: builds[0].degree for spec, builds in built.items()}
    assert all(len(builds) == 1 for builds in built.values()) and len(built) == 3
    assert degree == max(own.values()) and len(set(own.values())) > 1
    xs = np.linspace(-1.0, 1.0, 101)
    for k, c in enumerate(structure.centers, start=1):
        filt = built[FilterSpec(float(c), structure.delta, eps)][0]
        assert table[k].degree == degree
        realized = _clenshaw(extract_pq(to_su2(table[k])).p.real, xs)
        assert np.max(np.abs(realized - filt(xs))) <= 1e-10


@pytest.mark.parametrize("count", range(2, 18))
def test_policy_reaches_every_split_and_no_other(count):
    # The phase table holds splits 1 .. L-1; a walk over every bit string
    # must look up each of them and nothing else.
    # Every record on the way claims a band below L, so replaying the band
    # bits never runs past the last band.
    policy = MultibandPolicy(count, {k: IDENTITY for k in range(1, count)})
    reached = set()
    frontier = [()]
    while frontier:
        bits = frontier.pop()
        assert policy.claimed_band(bits) < count
        k = policy.next_block(bits)
        if k is not None:
            reached.add(k)
            frontier += [bits + (0,), bits + (1,)]
    assert reached == set(range(1, count))


def test_query_count_formula():
    assert feedforward_query_count(1, 50) == 0
    assert feedforward_query_count(4, 50) == 200
    assert feedforward_query_count(5, 50) == 300
    with pytest.raises(ValueError):
        feedforward_query_count(0, 10)


def test_tree_json_shape():
    gen = rng(34)
    h = hermitian_from_spectrum([0.1, 0.9], gen)
    spec = eigh(h)
    structure = detect_bands(spec.values, min_gap=0.5)
    tree = run_multiband(dilate_hermitian(h), structure, round_budget(1e-2, 2),
                         StateVector(1, spec.vectors[:, 0]))
    doc = tree.to_json()
    assert doc["L"] == 2
    assert all(set(leaf) == {"record", "prob", "claimed_band", "failed"}
               for leaf in doc["leaves"])
