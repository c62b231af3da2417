import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqsvt import feedforward, qsp
from fqsvt.bands import BandStructure, detect_bands, exact_projectors, synthetic_band_spectrum
from fqsvt.baselines import adiabatic_leakage_scaling
from fqsvt.blockenc import dilate_hermitian
from fqsvt.chebyshev import ChebyshevSeries, FilterSpec, _clenshaw, heaviside_filter
from fqsvt.cli import main, matrix_to_json
from fqsvt.feedforward import (
    BranchTree,
    KrausExtraction,
    MultibandPolicy,
    TreeLeaf,
    _leaves,
    _multiband_phase_table,
    _run_blocks,
    channel_bound,
    channel_distance,
    extract_kraus,
    feedforward_query_count,
    round_budget,
    run_1fqsvt,
    run_multiband,
    sample_trajectories,
)
from fqsvt.linalg import (
    SAMPLE_UNIFORMS,
    eigh,
    haar_vector,
    hermitian_from_spectrum,
    random_hermitian,
    rng,
)
from fqsvt.qsp import (
    PhaseFactorSet,
    SynthesisError,
    _mirror,
    extract_pq,
    synthesize_symmetric,
)
from fqsvt.qsvt import assemble_full
from test_qsvt import random_completion


def success_projectors(kraus: KrausExtraction) -> dict:
    """Claimed band -> approximate projector, from the non-failed records.

    On a success record the register operator lives on the all-zero ancilla
    sector, so its top block acts on the system alone. Each garbage-branch
    round adds a deterministic minus sign, undone by (-1)^(sum of band bits).
    """
    n = kraus.leaves[0].operator.shape[1]
    return {leaf.claimed_band: (-1.0) ** sum(leaf.record[0::2]) * leaf.operator[:n, :]
            for leaf in kraus.leaves if not leaf.failed}


def random_symmetric(gen, degree):
    return PhaseFactorSet(_mirror(gen.uniform(-np.pi, np.pi, (degree + 2) // 2), degree))


IDENTITY = PhaseFactorSet([0.0, 0.0])  # f(x) = x, degree 1


def test_mar_deterministic_zero_branch():
    # f(1) = 1: the first MAR reads 0 with certainty and leaves the input in place.
    enc = dilate_hermitian(np.diag([1.0, 0.3]))
    leaves = {b.record: b for b in
              run_1fqsvt(enc, IDENTITY, [1, 0])}
    assert leaves[(0, 0)].probability == pytest.approx(1.0, abs=1e-12)
    assert leaves[(1, 0)].probability + leaves[(1, 1)].probability <= 1e-24
    assert np.allclose(leaves[(0, 0)].state, [1, 0, 0, 0], atol=1e-12)


def test_mar_definition_branch_states():
    # f^2 = 1/2: the first MAR splits evenly, and the reset 1-branch keeps
    # its weight through the second block.
    enc = dilate_hermitian(np.diag([1.0 / math.sqrt(2.0), 0.3]))
    leaves = {b.record: b for b in
              run_1fqsvt(enc, IDENTITY, [1, 0])}
    first_one = leaves[(1, 0)].probability + leaves[(1, 1)].probability
    assert leaves[(0, 0)].probability + leaves[(0, 1)].probability == pytest.approx(0.5)
    assert first_one == pytest.approx(0.5)
    assert np.allclose(leaves[(0, 0)].state, [0.5, 0, 0, 0])
    assert np.allclose(leaves[(1, 0)].state, [-0.5, 0, 0, 0])


def test_mar_sampled_frequencies_match_enumerate():
    enc = dilate_hermitian(np.diag([0.6, 0.3]))
    structure = detect_bands([0.3, 0.6], min_gap=0.2)
    state = [0.8, 0.6]
    enumerated = run_multiband(enc, structure, 1e-2, state)
    p1 = sum(leaf.probability for leaf in enumerated.leaves if leaf.record[0] == 1)
    draws = 10000
    sampled = sample_trajectories(enumerated, 5, draws)
    hits = sum(leaf.record[0] for leaf in sampled)
    sigma = math.sqrt(p1 * (1 - p1) / draws)
    assert abs(hits / draws - p1) <= 3 * sigma


def test_mar_rejects_zero_state():
    enc = dilate_hermitian(np.diag([0.6, 0.3]))
    with pytest.raises(ValueError, match="unit norm"):
        run_1fqsvt(enc, IDENTITY, [0.0, 0.0])


def test_one_step_identity_polynomial_worked_example():
    h = np.diag([0.6, 0.3]).astype(complex)
    enc = dilate_hermitian(h)
    phi = PhaseFactorSet([0.0, 0.0])
    leaves = {b.record: b for b in
              run_1fqsvt(enc, phi, [1, 0])}
    assert leaves[(0, 0)].probability == pytest.approx(0.1296, abs=1e-12)
    assert leaves[(1, 0)].probability == pytest.approx(0.4096, abs=1e-12)
    p_fail = leaves[(0, 1)].probability + leaves[(1, 1)].probability
    assert p_fail == pytest.approx(0.4608, abs=1e-12)
    assert np.allclose(leaves[(0, 0)].state, [0.36, 0, 0, 0], atol=1e-12)
    assert np.allclose(leaves[(1, 0)].state, [-0.64, 0, 0, 0], atol=1e-12)


def test_one_step_t2_zero_crossing():
    # f = T2 vanishes at 1/sqrt(2): the (0,0) branch dies and (1,0) returns
    # the input with the physical minus sign.
    e = 1.0 / math.sqrt(2.0)
    h = np.diag([e, 0.2]).astype(complex)
    enc = dilate_hermitian(h)
    phi = PhaseFactorSet([0.0, 0.0, 0.0])
    leaves = {b.record: b for b in
              run_1fqsvt(enc, phi, [1, 0])}
    assert leaves[(0, 0)].probability <= 1e-12
    assert leaves[(1, 0)].probability == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(leaves[(1, 0)].state, [-1, 0, 0, 0], atol=1e-10)


def test_one_step_heaviside_keeps_low_eigenstate():
    eps = 1e-3
    filt = heaviside_filter([FilterSpec(0.5, 0.4, eps)])[0]
    phi = synthesize_symmetric([filt])[0]
    h = np.diag([0.2, 0.85]).astype(complex)
    enc = dilate_hermitian(h)
    leaves = {b.record: b for b in
              run_1fqsvt(enc, phi, [1, 0])}
    assert leaves[(0, 0)].probability >= (1 - eps) ** 2
    assert np.linalg.norm(leaves[(0, 0)].state - np.array([1, 0, 0, 0])) < eps


def test_one_step_rejects_asymmetric_phases():
    enc = dilate_hermitian(np.diag([0.3, 0.6]))
    phi = PhaseFactorSet([0.4, 0.0, 0.1])
    with pytest.raises(ValueError, match="symmetric"):
        run_1fqsvt(enc, phi, [1, 0])


def test_multiband_two_band_worked_example():
    gen = rng(21)
    h = hermitian_from_spectrum([0.1, 0.9], gen)
    spec = eigh(h)
    structure = detect_bands(spec.values, min_gap=0.5)
    enc = dilate_hermitian(h)
    amp = (spec.vectors[:, 0] + spec.vectors[:, 1]) / math.sqrt(2)
    tree = run_multiband(enc, structure, round_budget(1e-2, 2), amp)
    leaves = {l.record: l for l in tree.leaves}
    eps = tree.round_eps
    assert leaves[(0, 0)].probability == pytest.approx(0.5, abs=3 * eps)
    assert leaves[(1, 0)].probability == pytest.approx(0.5, abs=3 * eps)
    s00 = leaves[(0, 0)].state[:2]
    s10 = leaves[(1, 0)].state[:2]
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
    tree = run_multiband(enc, structure, round_budget(4e-2, 4), amp)
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
    tree = run_multiband(enc, structure, round_budget(4e-2, 4), amp)
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
    tree = run_multiband(enc, structure, round_budget(2e-2, 3), amp)
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
    tree = run_multiband(dilate_hermitian(h), structure, 0.0, eigh(h).vectors[:, 0])
    assert len(tree.leaves) == 1
    assert tree.leaves[0].claimed_band == 0
    assert tree.query_count == 0


def test_single_band_distance_is_zero_only_for_the_exact_identity():
    # One band runs no block: the sole operator is [I; 0] and the channel
    # is one-band dephasing. An operator that is not exactly [I; 0] takes
    # the general bracket: sqrt(0.9) [I; 0] is 0.9 times the identity
    # channel, at distance 0.1.
    gen = rng(25)
    h = hermitian_from_spectrum([0.4, 0.45, 0.5, 0.55], gen)
    spectrum = eigh(h)
    structure = detect_bands(spectrum.values, min_gap=0.3)
    kraus = extract_kraus(run_multiband(dilate_hermitian(h), structure, 0.0,
                                        spectrum.vectors[:, 0]))
    assert np.array_equal(kraus.leaves[0].operator, np.eye(8, 4))
    assert channel_distance(kraus, spectrum, structure) == (0.0, 0.0, 0.0)
    kraus.leaves[0].operator = math.sqrt(0.9) * kraus.leaves[0].operator
    lower, upper, residual = channel_distance(kraus, spectrum, structure)
    assert residual <= 1e-14
    assert lower == pytest.approx(0.1, abs=1e-12) and upper == pytest.approx(0.1, abs=1e-12)


def test_multiband_band_supported_input_claims_its_band():
    gen = rng(26)
    h = hermitian_from_spectrum([0.1, 0.5, 0.9, 0.95], gen)
    spec = eigh(h)
    structure = detect_bands(spec.values, min_gap=0.3)
    enc = dilate_hermitian(h)
    target_band = 1
    amp = spec.vectors[:, 1]
    tree = run_multiband(enc, structure, round_budget(1e-2, 3), amp)
    leaves = sample_trajectories(tree, 9, 200)
    hits = sum(1 for l in leaves if l.claimed_band == target_band and not l.failed)
    assert hits / 200 >= 1.0 - 8 * tree.rounds * tree.round_eps - 0.03


def propagate(enc, policy, circuits, columns, choose):
    """One trajectory on its own block of input columns: (record, register, queries).

    `circuits` maps each split index to its assembled circuit, and
    `choose(bits, halves)` picks the outcome of the MAR after `bits` from the
    two unnormalized halves of the register.
    """
    n = len(enc) // 2
    reg_dim = 2 * n
    reflect_signs = -np.ones((2 * reg_dim, 1))
    for mon in (0, 1):
        reflect_signs[mon * reg_dim : mon * reg_dim + n] = 1.0
    bits, queries = (), 0
    register = np.zeros((reg_dim, columns.shape[1]), dtype=complex)
    register[:n] = columns
    while (k := policy.next_block(bits)) is not None:
        second = len(bits) % 2 == 1
        degree = policy.phase_table[k].degree
        full = np.zeros((2 * reg_dim, columns.shape[1]), dtype=complex)
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
        bit = choose(bits, halves)
        bits, register = bits + (bit,), halves[bit]
        queries += degree
    return bits, register, queries


def per_trajectory_sample(enc, policy, amp, seed, trajectories):
    """Sampling as one propagation per trajectory: (record, state, queries) per trajectory.

    Each trajectory runs the circuits on the identity columns and draws each
    MAR outcome from the weights ||half @ amp||^2 of the two halves:
    trajectory s at its MAR after `len(bits)` bits reads entry `len(bits)`
    of row s of the `SAMPLE_UNIFORMS` block, drawn whole in one call.
    """
    circuits = {k: assemble_full(enc, [phi])[0] for k, phi in policy.phase_table.items()}
    uniforms = rng(seed, SAMPLE_UNIFORMS).random((trajectories, 2 * policy.ell))
    out = []
    for row in uniforms:
        def choose(bits, halves):
            w0, w1 = (float(np.vdot(h @ amp, h @ amp).real) for h in halves)
            return 0 if row[len(bits)] < w0 / (w0 + w1) else 1

        bits, register, queries = propagate(enc, policy, circuits, np.eye(len(amp)), choose)
        out.append((bits, register @ amp, queries))
    return out


@pytest.mark.parametrize("count", [1, 2, 3, 5, 8, 16])
def test_sample_mode_matches_per_trajectory_propagation(count, monkeypatch):
    # Walking the enumerated tree must reach, for every trajectory, the leaf
    # a propagation of that trajectory alone reaches, bit for bit, and hand
    # back that very leaf of the tree. Bands hold one or two eigenvalues on
    # 2^ceil(log2 L) dims.
    n = 2 ** max(1, math.ceil(math.log2(count)))
    centers = synthetic_band_spectrum(count)
    gen = rng(40, count)
    h = hermitian_from_spectrum(np.sort(np.concatenate([centers, centers[: n - count] + 0.01])),
                                gen)
    structure = detect_bands(eigh(h).values, target_bands=count)
    enc = dilate_hermitian(h)
    state = haar_vector(gen, n)
    compiled = _multiband_phase_table(structure, 1e-1)
    monkeypatch.setattr(feedforward, "_multiband_phase_table", lambda *_: compiled)
    policy = MultibandPolicy(count, compiled[0])
    for seed in (3, 11):
        # Trajectory s reads row s alone, so one reference run covers both lengths.
        reference = per_trajectory_sample(enc, policy, state, seed, 3000)
        tree = run_multiband(enc, structure, 1e-1, state)
        for trajectories in (1, 3000):
            leaves = sample_trajectories(tree, seed, trajectories)
            expected = reference[:trajectories]
            assert all(any(leaf is own for own in tree.leaves) for leaf in leaves)
            assert [(leaf.record, leaf.probability, leaf.claimed_band, leaf.failed,
                     len(leaf.record) * tree.degree) for leaf in leaves] == [
                (bits, float(np.vdot(amplitudes, amplitudes).real),
                 policy.claimed_band(bits), any(bits[1::2]), queries)
                for bits, amplitudes, queries in expected]
            assert np.array_equal([leaf.state for leaf in leaves],
                                  [amplitudes for _, amplitudes, _ in expected])
            if trajectories > 1 and count > 1:
                assert len({leaf.record for leaf in leaves}) > 2


def test_sample_mode_builds_one_generator_whatever_the_trajectory_count(monkeypatch):
    h = hermitian_from_spectrum(synthetic_band_spectrum(4, 1), rng(41))
    structure = detect_bands(eigh(h).values, target_bands=4)
    enc = dilate_hermitian(h)
    state = haar_vector(rng(42), 4)
    tree = run_multiband(enc, structure, 1e-1, state)
    built = []
    philox = np.random.Philox
    monkeypatch.setattr(np.random, "Philox", lambda **kw: built.append(kw) or philox(**kw))
    for trajectories in (1, 2000):
        built.clear()
        sample_trajectories(tree, 5, trajectories)
        assert len(built) == 1


@pytest.mark.parametrize("trajectories", [0, -1])
def test_sample_trajectories_rejects_a_count_below_one_before_drawing(monkeypatch, trajectories):
    h = hermitian_from_spectrum(synthetic_band_spectrum(2, 1), rng(41))
    tree = run_multiband(dilate_hermitian(h), detect_bands(eigh(h).values, target_bands=2),
                         1e-1, [1.0, 0.0])

    def no_draw(*args):
        raise AssertionError("a generator was built before the count was checked")

    monkeypatch.setattr(feedforward, "rng", no_draw)
    with pytest.raises(ValueError, match=f"^trajectory count must be at least 1, "
                                         f"got {trajectories}$"):
        sample_trajectories(tree, 5, trajectories)


@pytest.mark.parametrize("mode", ["1fqsvt", "enumerate", "sample"])
def test_input_state_must_match_the_encoded_dimension(monkeypatch, mode):
    def no_filters(specs):
        raise AssertionError("a filter was built before the state was checked")

    monkeypatch.setattr(feedforward, "heaviside_filter", no_filters)
    structure = detect_bands([0.2, 0.3, 0.6, 0.7], min_gap=0.2)

    def run(enc, state):
        if mode == "1fqsvt":
            run_1fqsvt(enc, IDENTITY, state)
        elif mode == "enumerate":
            run_multiband(enc, structure, 1e-2, state)
        else:
            sample_trajectories(run_multiband(enc, structure, 1e-2, state), 0, 1)

    with pytest.raises(ValueError, match="dimension 2, the encoding acts on dimension 4"):
        run(dilate_hermitian(np.diag([0.2, 0.3, 0.6, 0.7])), [1.0, 0.0])
    with pytest.raises(ValueError, match="not unitary"):
        run(np.diag([1.0, 0.5, 1.0, 1.0]), [1.0, 0.0])


H4 = np.diag([0.2, 0.3, 0.6, 0.7])
# Each entry takes (H, encoding, state); H is diagonal, so its diagonal is its spectrum.
ENTRIES = {
    "run_1fqsvt": lambda h, enc, state: run_1fqsvt(enc, IDENTITY, state),
    "enumerate": lambda h, enc, state: run_multiband(
        enc, detect_bands(np.diag(h), min_gap=0.2), 1e-2, state),
    # The sample path of `fqsvt project`: the run, then the walk.
    "sample": lambda h, enc, state: sample_trajectories(run_multiband(
        enc, detect_bands(np.diag(h), min_gap=0.2), 1e-2, state), 0, 1),
    "adiabatic": lambda h, enc, state: adiabatic_leakage_scaling(
        h, h, detect_bands(np.diag(h), min_gap=0.2), 0, [1.0, 2.0], state),
    "assemble_full": lambda h, enc, state: assemble_full(enc, [IDENTITY])[0],
}
# case -> (H, state, expected message); the encoding is H's dilation.
BAD_STATES = {
    "nan": (H4, [np.nan, 0.0, 0.0, 0.0], "amplitudes must be finite"),
    "0-d": (H4, np.array(1.0), r"qubit register, got shape \(\)"),
    "column": (H4, np.eye(4)[:, :1], r"qubit register, got shape \(4, 1\)"),
    "wrong-length": (H4, [1.0, 0.0], "dimension"),
    # The length matches H, so only the power-of-two check can reject it.
    "not-a-power-of-two": (np.diag([0.2, 0.3, 0.7]), [1.0, 0.0, 0.0],
                           r"qubit register, got shape \(3,\)"),
}
# case -> (encoding, expected message); H is H4 and the state [1, 0].
BAD_ENCODINGS = {
    "odd": (np.eye(3), "square unitary of even size"),
    "not-square": (np.eye(4)[:, :2], "square unitary of even size"),
    "not-unitary": (np.diag([1.0, 0.5, 1.0, 1.0]), "not unitary"),
}


# case -> expected message, for a stack of three H4 instances whose item 1
# `bad_stack` spoils.
BAD_STACK_ITEMS = {
    "not-unitary": r"^matrix 1 of the stack is not unitary: ",
    "wrong-length": r"^state 1 of the stack: input state has dimension 2, "
                    r"the encoding acts on dimension 4$",
    "not-unit": r"^state 1 of the stack: input system state must be unit norm$",
    "phase-count": r"^expected one phase set per encoding \(3\), got 2$",
    "asymmetric": r"\(palindromic\) phase factors; phase set 1 of the stack is not$",
}


def bad_stack(case):
    """(encodings, phase sets, states) of three H4 instances, item 1 spoiled as `case` names."""
    encs = np.array([dilate_hermitian(H4)] * 3)
    phis, states = [IDENTITY] * 3, [np.eye(4)[0]] * 3
    if case == "not-unitary":
        encs[1] = np.diag([1.0, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    elif case == "wrong-length":
        states[1] = np.eye(2)[0]
    elif case == "not-unit":
        states[1] = 0.5 * np.eye(4)[0]
    elif case == "phase-count":
        phis = phis[:2]
    else:
        phis[1] = PhaseFactorSet([0.1, 0.2])
    return encs, phis, states


@pytest.mark.parametrize("entry, case", [
    *((entry, case) for entry in ("run_1fqsvt", "enumerate", "sample", "adiabatic")
      for case in BAD_STATES),
    *((entry, case) for entry in ("run_1fqsvt", "enumerate", "sample", "assemble_full")
      for case in BAD_ENCODINGS),
    *(("run_1fqsvt-stack", case) for case in BAD_STACK_ITEMS),
])
def test_entries_reject_bad_states_and_encodings_by_name(monkeypatch, entry, case):
    # A state or encoding from the caller is checked where it enters, before
    # any filter is built or any circuit assembled, and always with a
    # ValueError (never an IndexError). In a stack the message names the
    # offending item's stack index.
    def no_filters(specs):
        raise AssertionError("a filter was built before the input was checked")

    def no_assembly(enc, phis):
        raise AssertionError("a circuit was assembled before the input was checked")

    monkeypatch.setattr(feedforward, "heaviside_filter", no_filters)
    monkeypatch.setattr(feedforward, "assemble_full", no_assembly)
    if entry == "run_1fqsvt-stack":
        with pytest.raises(ValueError, match=BAD_STACK_ITEMS[case]):
            run_1fqsvt(*bad_stack(case))
        return
    if case in BAD_STATES:
        h, state, message = BAD_STATES[case]
        enc = dilate_hermitian(h)
    else:
        (enc, message), h, state = BAD_ENCODINGS[case], H4, [1.0, 0.0]
    with pytest.raises(ValueError, match=message):
        ENTRIES[entry](h, enc, state)


def criterion_4_instances():
    """Criterion 4's 200 draws from rng(104): (encoding, symmetric phases, input) each.

    n = 2-16, degrees 1-30; the same generator calls as the criterion.
    """
    gen = rng(104)
    instances = []
    for trial in range(200):
        n = 2 ** int(gen.integers(1, 5))
        enc = dilate_hermitian(hermitian_from_spectrum(gen.uniform(0.02, 0.98, n), gen))
        psi = random_symmetric(gen, int(gen.integers(1, 31)))
        instances.append((enc, psi, haar_vector(gen, n)))
    return instances


def test_stacked_run_1fqsvt_equals_one_instance_calls_field_by_field():
    # Criterion 4's instances, grouped by size into stacks of up to seven in
    # draw order (mixed degrees, odd and even): every field of every leaf
    # equals the one-instance call's, arrays byte for byte. An empty stack
    # has no leaf lists.
    by_size = {}
    for instance in criterion_4_instances():
        by_size.setdefault(len(instance[0]), []).append(instance)
    assert sorted(by_size) == [4, 8, 16, 32]
    for instances in by_size.values():
        for lo in range(0, len(instances), 7):
            encs, phis, states = zip(*instances[lo : lo + 7])
            runs = run_1fqsvt(np.array(encs), list(phis), np.array(states))
            assert len(runs) == len(encs)
            for run, enc, phi, state in zip(runs, encs, phis, states):
                single = run_1fqsvt(enc, phi, state)
                assert [leaf.record for leaf in run] == [(0, 0), (0, 1), (1, 0), (1, 1)]
                for ours, theirs in zip(run, single, strict=True):
                    assert (ours.record, ours.probability, ours.claimed_band, ours.failed) == (
                        theirs.record, theirs.probability, theirs.claimed_band, theirs.failed)
                    assert ours.state.tobytes() == theirs.state.tobytes()
                    assert ours.operator.tobytes() == theirs.operator.tobytes()
    assert run_1fqsvt(np.zeros((0, 4, 4)), [], np.zeros((0, 2))) == []


def test_tree_height_is_log2_band_count():
    gen = rng(27)
    for count in (2, 4, 8):
        h = hermitian_from_spectrum(synthetic_band_spectrum(count), gen)
        spec = eigh(h)
        structure = detect_bands(spec.values, target_bands=count)
        tree = run_multiband(dilate_hermitian(h), structure, round_budget(1e-1, count),
                             spec.vectors[:, 0])
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
        tree = run_multiband(dilate_hermitian(h), structure, round_budget(1e-2, count), amp)
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
    tree = run_multiband(dilate_hermitian(h), structure, round_eps, haar_vector(gen, n))
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
    tree = run_multiband(enc, structure, round_budget(1e-2, 2), amp)
    kraus = extract_kraus(tree)
    by_record = {leaf.record: leaf.operator for leaf in kraus.leaves}
    table, _ = _multiband_phase_table(structure, tree.round_eps)
    single = run_1fqsvt(enc, table[1], amp)
    assert sorted(by_record) == sorted(l.record for l in single)
    for leaf in single:
        predicted = by_record[leaf.record] @ amp
        assert np.max(np.abs(predicted - leaf.state)) <= 1e-12
    f = _clenshaw(extract_pq([table[1]])[0].p.real, spec.values)
    f2 = (spec.vectors * f**2) @ spec.vectors.conj().T
    assert np.max(np.abs(by_record[(0, 0)][:2] - f2)) <= 1e-10
    assert np.max(np.abs(by_record[(1, 0)][:2] + (np.eye(2) - f2))) <= 1e-10

    # Four bands: propagating the input column alone down each sampled
    # record must reach that leaf's state, the enumerated operator on the input.
    h = hermitian_from_spectrum([0.05, 0.35, 0.65, 0.95], gen)
    spec = eigh(h)
    structure = detect_bands(spec.values, min_gap=0.2)
    enc = dilate_hermitian(h)
    amp = spec.vectors @ np.array([0.4, 0.5, 0.3, math.sqrt(0.5)])
    tree = run_multiband(enc, structure, round_budget(4e-2, 4), amp)
    sampled = sample_trajectories(tree, 4, 40)
    assert len({l.record for l in sampled}) == 4
    table, _ = _multiband_phase_table(structure, tree.round_eps)
    policy = MultibandPolicy(4, table)
    circuits = {k: assemble_full(enc, [phi])[0] for k, phi in table.items()}
    for leaf in sampled:
        bits, register, _ = propagate(enc, policy, circuits, amp[:, np.newaxis],
                                      lambda bits, halves: leaf.record[len(bits)])
        assert bits == leaf.record
        assert np.max(np.abs(register[:, 0] - leaf.state)) <= 1e-12


def test_extract_kraus_failure_weight_bounded():
    gen = rng(30)
    h = hermitian_from_spectrum([0.05, 0.35, 0.65, 0.95], gen)
    spec = eigh(h)
    structure = detect_bands(spec.values, min_gap=0.2)
    enc = dilate_hermitian(h)
    eps = 1e-3
    for band in range(4):
        tree = run_multiband(enc, structure, eps, spec.vectors[:, band])
        failed_weight = sum(l.probability for l in tree.leaves if l.failed)
        assert failed_weight <= 2 * math.sqrt(2) * eps * tree.rounds * 1.1


def test_extract_kraus_rejects_a_nan_leaf_operator():
    # NaN > tol is false, so the trace-preservation check must not be written that way.
    gen = rng(31)
    h = hermitian_from_spectrum([0.1, 0.9], gen)
    spec = eigh(h)
    structure = detect_bands(spec.values, min_gap=0.5)
    tree = run_multiband(dilate_hermitian(h), structure, round_budget(1e-2, 2),
                         spec.vectors[:, 0])
    assert extract_kraus(tree).completeness_residual <= 1e-9
    tree.leaves[-1].operator[0, 0] = math.nan
    with pytest.raises(RuntimeError, match="not trace preserving"):
        extract_kraus(tree)


def test_channel_distance_zero_for_exact_projectors():
    gen = rng(32)
    h = hermitian_from_spectrum([0.2, 0.8], gen)
    spec = eigh(h)
    structure = detect_bands(spec.values, min_gap=0.4)
    projectors = exact_projectors(spec, structure)
    amp = spec.vectors[:, 0]
    kraus = KrausExtraction(
        [TreeLeaf((band, 0), p @ amp, float(np.vdot(amp, p @ amp).real),
                  band, False, p.copy())
         for band, p in enumerate(projectors)],
        completeness_residual=0.0,
    )
    assert all(abs(x) <= 1e-12 for x in channel_distance(kraus, spec, structure))


def choi_oracle(kraus: KrausExtraction, projectors) -> tuple[float, float]:
    """(||J||_1 / n, ||Tr_out |J| ||_inf) for the n^2 x n^2 Choi matrix J of the
    leaf channel minus band dephasing, with no use of H's eigenbasis: the
    trace distance at one probe, the maximally entangled input, and Watrous'
    upper bound."""
    n = len(projectors[0])
    blocks = [block for leaf in kraus.leaves for block in leaf.operator.reshape(-1, n, n)]
    vec_ff = np.array([k.T.reshape(-1) for k in blocks]).T
    vec_deph = np.array([p.T.reshape(-1) for p in projectors]).T
    values, vectors = np.linalg.eigh(vec_ff @ vec_ff.conj().T - vec_deph @ vec_deph.conj().T)
    absolute = (vectors * np.abs(values)) @ vectors.conj().T
    partial = np.einsum("iaja->ij", absolute.reshape(n, n, n, n))
    return float(np.abs(values).sum()) / n, float(np.linalg.eigvalsh(partial)[-1])


@pytest.mark.parametrize("count, n", [(2, 4), (2, 16), (3, 4), (4, 8), (5, 8), (6, 8), (7, 8),
                                      (8, 16)])
def test_channel_distance_matches_per_probe_reference(count, n):
    # Eigenvalue i lies in band i mod L, spread over 60% of the band's slot,
    # so bands carry several eigenvalues each and the filter error shows.
    gen = rng(40 + count)
    values = np.sort((np.arange(n) % count + 0.5 + 0.3 * gen.uniform(-1.0, 1.0, n)) / count)
    h = hermitian_from_spectrum(values, gen)
    spec = eigh(h)
    structure = detect_bands(spec.values, target_bands=count)
    tree = run_multiband(dilate_hermitian(h), structure, 0.1, spec.vectors[:, 0])
    kraus = extract_kraus(tree)
    lower, upper, residual = channel_distance(kraus, spec, structure)
    trace, watrous = choi_oracle(kraus, exact_projectors(spec, structure))
    assert 0.0 <= residual <= 1e-10 * trace
    assert abs(lower + residual - trace) <= 1e-10 * trace
    assert abs(upper - residual - watrous) <= 1e-10 * watrous
    assert lower <= upper


def test_channel_distance_qubit_identity_against_full_dephasing():
    # M = [[0, 1], [1, 0]]: the identity channel is at distance exactly 1.
    spec = eigh(np.diag([0.2, 0.8]))
    structure = BandStructure([0.5], 0.6, [[0], [1]])
    kraus = KrausExtraction([TreeLeaf((), np.eye(2)[:, 0], 1.0, 0, False, np.eye(2))], 0.0)
    lower, upper, residual = channel_distance(kraus, spec, structure)
    assert residual == 0.0
    assert abs(lower - 1.0) <= 1e-12 and abs(upper - 1.0) <= 1e-12


def test_channel_distance_takes_band_labels_not_positions():
    # Bands {0, 2} and {1}, on diagonal Kraus blocks that differ per
    # eigenvector, so the labelling matters.
    spec = eigh(np.diag([0.1, 0.5, 0.9]))
    theta = np.array([0.1, 0.7, 1.3])
    operator = np.vstack([np.diag(np.cos(theta)), np.diag(np.sin(theta))])
    kraus = KrausExtraction([TreeLeaf((), operator[:, 0], 1.0, 0, False, operator)], 0.0)
    split = BandStructure([0.3], 0.4, [[0, 2], [1]])
    lower, upper, residual = channel_distance(kraus, spec, split)
    trace, watrous = choi_oracle(kraus, exact_projectors(spec, split))
    assert residual == 0.0
    assert abs(lower - trace) <= 1e-12 and abs(upper - watrous) <= 1e-12
    contiguous = BandStructure([0.3], 0.4, [[0, 1], [2]])
    assert abs(channel_distance(kraus, spec, contiguous)[0] - lower) > 1e-2
    with pytest.raises(ValueError, match="dimension"):
        channel_distance(kraus, spec, BandStructure([0.5], 0.4, [[0], [1]]))


def test_channel_distance_residual_covers_a_block_off_the_eigenbasis():
    # A unitary W on one leaf's top block keeps the set trace preserving but
    # moves that block off H's eigenbasis; the residual must carry the upper
    # end past the rotated channel's Choi trace distance.
    gen = rng(34)
    h = hermitian_from_spectrum([0.1, 0.3, 0.7, 0.9], gen)
    spec = eigh(h)
    structure = detect_bands(spec.values, target_bands=2)
    kraus = extract_kraus(run_multiband(dilate_hermitian(h), structure, 1e-2, spec.vectors[:, 0]))
    angles = eigh(random_hermitian(4, gen))
    rotation = (angles.vectors * np.exp(0.05j * angles.values)) @ angles.vectors.conj().T
    leaf = kraus.leaves[0]
    leaf.operator = np.vstack([rotation @ leaf.operator[:4], leaf.operator[4:]])
    lower, upper, residual = channel_distance(kraus, spec, structure)
    trace, watrous = choi_oracle(kraus, exact_projectors(spec, structure))
    assert residual > 1e-3
    assert lower <= trace <= upper
    assert watrous <= upper


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(2, 16), st.integers(0, 2), st.integers(0, 2**32 - 1),
       st.floats(1e-3, 1e-1))
def test_channel_distance_bracket_within_the_papers_bound(count, extra, seed, round_eps):
    # L clusters, each in the middle fifth of its slot of [0.02, 0.98], on a
    # power-of-two dimension n in [L, 16]; each cluster holds one eigenvalue
    # plus a random share of the rest.
    gen = rng(seed)
    n = min(16, 2 ** (math.ceil(math.log2(count)) + extra))
    slot = 0.96 / count
    sizes = 1 + np.bincount(gen.integers(0, count, n - count), minlength=count)
    values = np.sort(np.concatenate(
        [0.02 + slot * (j + 0.5 + gen.uniform(-0.1, 0.1, size)) for j, size in enumerate(sizes)]))
    h = hermitian_from_spectrum(values, gen)
    spec = eigh(h)
    structure = detect_bands(spec.values, target_bands=count)
    tree = run_multiband(dilate_hermitian(h), structure, round_eps, spec.vectors[:, 0])
    lower, upper, _ = channel_distance(extract_kraus(tree), spec, structure)
    assert lower <= upper <= channel_bound(count, round_eps)


def test_channel_distance_roughly_linear_in_budget():
    # Eigenvalues pinned at the window edges keep the filter error at its
    # eps/4 design point; the upper end then tracks the budget with scaling
    # exponent near 1 (trimmed degrees quantize, so single halvings jitter).
    gen = rng(33)
    h = hermitian_from_spectrum([0.25, 0.75], gen)
    spec = eigh(h)
    structure = detect_bands(spec.values, min_gap=0.4)
    enc = dilate_hermitian(h)
    amp = spec.vectors[:, 0]
    eps_hi, eps_lo = 4e-3, 2.5e-4
    uppers = []
    for eps in (eps_hi, eps_lo):
        tree = run_multiband(enc, structure, eps, amp)
        uppers.append(channel_distance(extract_kraus(tree), spec, structure)[1])
    exponent = math.log(uppers[0] / uppers[1]) / math.log(eps_hi / eps_lo)
    assert 0.5 <= exponent <= 1.5


def test_phase_table_builds_each_split_once_and_pads_to_the_hardest(monkeypatch):
    # Split 2 needs the highest degree; splits 1 and 3 keep their own lower
    # degree filters, zero-padded, and are never built again.
    structure = BandStructure([0.125, 0.225, 0.5], 0.2, [[0], [1], [2], [3]])
    eps = 0.1
    built = {}

    def recording(specs):
        filters = heaviside_filter(specs)
        for spec, filt in zip(specs, filters):
            built.setdefault(spec, []).append(filt)
        return filters

    monkeypatch.setattr(feedforward, "heaviside_filter", recording)
    table, degree = _multiband_phase_table(structure, eps)
    own = {spec: builds[0].degree for spec, builds in built.items()}
    assert all(len(builds) == 1 for builds in built.values()) and len(built) == 3
    assert degree == max(own.values()) and len(set(own.values())) > 1
    xs = np.linspace(-1.0, 1.0, 101)
    for k, c in enumerate(structure.centers, start=1):
        filt = built[FilterSpec(float(c), structure.delta, eps)][0]
        assert table[k].degree == degree
        realized = _clenshaw(extract_pq([table[k]])[0].p.real, xs)
        assert np.max(np.abs(realized - _clenshaw(filt.coeffs, xs))) <= 1e-10


def test_phase_table_names_the_split_whose_synthesis_stalls(monkeypatch):
    # A pure 0.5 T_10 filter has closed-form phases, so at an unreachable
    # tolerance only split 2, given 0.3 + 0.5 T_10, can stall.
    structure = BandStructure([0.125, 0.225, 0.5], 0.2, [[0], [1], [2], [3]])

    def fake_filter(spec):
        coeffs = np.zeros(11)
        coeffs[[0, 10]] = (0.3 if spec.mu == 0.225 else 0.0), 0.5
        return ChebyshevSeries(coeffs)

    monkeypatch.setattr(feedforward, "heaviside_filter",
                        lambda specs: [fake_filter(spec) for spec in specs])
    monkeypatch.setattr(qsp, "SYNTHESIS_TOL", 1e-30)
    with pytest.raises(SynthesisError, match=r"^split 2: phase synthesis stalled") as info:
        _multiband_phase_table(structure, 0.1)
    assert info.value.index == 1 and info.value.history


def zero_padded_nodes(enc, policy: MultibandPolicy) -> dict:
    """The branch tree with each register copied into a zero-filled (4n, n) block input.

    Every block multiplies the whole circuit into that input, and at odd
    degree a round's second block runs between full ancilla reflections.
    """
    table = policy.phase_table
    circuits = dict(zip(table, assemble_full(enc, list(table.values()))))
    n = len(enc) // 2
    reflect = -np.ones((4 * n, 1))
    reflect[:n] = reflect[2 * n : 3 * n] = 1.0
    nodes = {(): np.eye(2 * n, n, dtype=complex)}
    records = [()]
    for bits in records:
        k = policy.next_block(bits)
        if k is None:
            continue
        second = len(bits) % 2 == 1
        full = np.zeros((4 * n, n), dtype=complex)
        if second and bits[-1] == 1:
            full[2 * n :] = nodes[bits]
        else:
            full[: 2 * n] = nodes[bits]
        if second and table[k].degree % 2 == 1:
            full = reflect * (circuits[k] @ (reflect * full))
        else:
            full = circuits[k] @ full
        for bit in (0, 1):
            nodes[bits + (bit,)] = full[bit * 2 * n : (bit + 1) * 2 * n]
            records.append(bits + (bit,))
    return nodes


@pytest.mark.parametrize("completion", [False, True], ids=["dilation", "random-completion"])
@pytest.mark.parametrize("degree", [4, 5, 10, 11])
@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
def test_block_products_equal_the_zero_padded_full_product(n, degree, completion):
    # A block multiplies only the circuit's columns of the half its register
    # occupies. Every node, taken before the purity check, equals the whole
    # circuit on the zero-padded input, on the dilation and on a completion
    # U' = (I + Y) U (I + X) of the same top block. An exact zero may change
    # sign. At n = 2 and up the values are equal bit for bit; at n = 1 numpy
    # multiplies a column by matrix-vector kernels, whose 2- and 4-column
    # forms may round differently, and no command runs a block there (a
    # 1 x 1 model has a single band).
    gen = rng(41, 100 * n + degree)
    enc = dilate_hermitian(hermitian_from_spectrum(gen.uniform(0.02, 0.98, n), gen))
    if completion:
        enc = random_completion(gen, enc)
    for count in (2, 4, 5):
        policy = MultibandPolicy(count, {k: random_symmetric(gen, degree) for k in range(1, count)})
        nodes = _run_blocks(enc, policy)
        expected = zero_padded_nodes(enc, policy)
        assert list(nodes) == list(expected)
        for bits, register in nodes.items():
            if n == 1:
                assert np.max(np.abs(register - expected[bits])) <= 1e-15, bits
            else:
                assert np.array_equal(register, expected[bits]), bits


def test_enumerate_purity_check_covers_the_whole_success_operator():
    # A success operator that is pure on the input column and leaks into the
    # ancilla only on the orthogonal column: the leak is part of the operator
    # that kraus.json writes, so the run rejects it.
    policy = MultibandPolicy(2, {1: IDENTITY})
    operator = np.zeros((4, 2), dtype=complex)
    operator[0, 0] = 1.0
    operator[3, 1] = 0.5
    amp = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(RuntimeError, match=r"success branch \(record \(0, 0\)\): purity 0\.8$"):
        _leaves(2, policy, {(0, 0): operator}, amp)
    # A failed record is not checked, and without the leak the operator passes.
    assert _leaves(2, policy, {(0, 1): operator}, amp)[0].failed
    operator[3, 1] = 0.0
    (leaf,) = _leaves(2, policy, {(0, 0): operator}, amp)
    assert leaf.probability == 1.0 and not leaf.failed


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


@pytest.mark.parametrize("count", range(1, 17))
def test_deepest_record_and_query_count_follow_the_schedule(count):
    # On a cheap table of one degree, the deepest record runs every level of
    # the schedule and the tree's query count is the paper's formula.
    phases = random_symmetric(rng(43), 3)
    policy = MultibandPolicy(count, {k: phases for k in range(1, count)})
    enc = dilate_hermitian(np.diag([0.1, 0.9]))
    leaves = _leaves(2, policy, _run_blocks(enc, policy), np.array([1.0, 0.0]))
    tree = BranchTree(leaves, policy.ell, 0.1, phases.degree)
    assert max(len(leaf.record) for leaf in leaves) == 2 * math.ceil(math.log2(count))
    assert tree.query_count == feedforward_query_count(count, 3)


def test_query_count_formula():
    assert feedforward_query_count(1, 50) == 0
    assert feedforward_query_count(4, 50) == 200
    assert feedforward_query_count(5, 50) == 300
    with pytest.raises(ValueError):
        feedforward_query_count(0, 10)


def test_channel_bound_is_the_papers_bound_and_inverts_round_budget():
    assert channel_bound(1, 0.0) == 0.0
    assert channel_bound(1, 1e-3) == 0.0
    for count in (2, 3, 8, 16):
        assert channel_bound(count, 1e-3) == 4.0 * count * math.log2(count) * 1e-3
        assert round_budget(channel_bound(count, 1.0), count) == 1.0
        assert channel_bound(count, round_budget(0.1, count)) == pytest.approx(0.1, rel=1e-15)


@pytest.mark.parametrize("call, message", [
    (lambda: round_budget(4e-2, 1), "band count must be at least 2 for a round budget, got 1"),
    (lambda: round_budget(4e-2, 0), "band count must be at least 2 for a round budget, got 0"),
    (lambda: channel_bound(0, 1e-3), "band count must be at least 1, got 0"),
    (lambda: channel_bound(-1, 1e-3), "band count must be at least 1, got -1"),
], ids=["round_budget-1", "round_budget-0", "channel_bound-0", "channel_bound-negative"])
def test_bounds_below_their_band_count_name_it(call, message):
    # One band has no round to budget, and no band count below 1 has a bound.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_tree_json_shape(tmp_path):
    gen = rng(34)
    h = hermitian_from_spectrum([0.1, 0.9], gen)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": {"type": "inline", "matrix": matrix_to_json(h)},
                                  "bands": {"min_gap": 0.5}, "budget": 1e-2,
                                  "input": {"type": "eigenstate", "index": 0}},
                                 default=np.ndarray.tolist))
    assert main(["project", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    doc = json.loads((tmp_path / "out" / "tree.json").read_text(encoding="utf-8"))
    assert doc["L"] == 2
    assert all(set(leaf) == {"record", "prob", "claimed_band", "failed"}
               for leaf in doc["leaves"])
