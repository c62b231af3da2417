
import numpy as np
import pytest

from fqsvt.blockenc import dilate_hermitian
from fqsvt.chebyshev import _clenshaw
from fqsvt.linalg import StateVector, dagger, eigh, hermitian_from_spectrum, rng
from fqsvt.qsp import PhaseFactorSet, _mirror, extract_pq, to_circuit, to_su2
from fqsvt.qsvt import (
    assemble_full,
    assemble_interleaved,
    garbage_state,
    predicted_blocks,
)


def random_symmetric(gen, degree):
    return PhaseFactorSet(_mirror(gen.uniform(-np.pi, np.pi, (degree + 2) // 2), degree), "su2")


@pytest.fixture
def setup():
    gen = rng(11)
    h = hermitian_from_spectrum(gen.uniform(0.05, 0.95, 4), gen)
    return gen, h, dilate_hermitian(h)


def test_interleaved_degree_zero_identity(setup):
    _, _, enc = setup
    u = assemble_interleaved(enc, PhaseFactorSet([0.0], "circuit"))
    assert np.allclose(u, np.eye(8))


def test_interleaved_degree_one_is_encoding(setup):
    _, _, enc = setup
    u = assemble_interleaved(enc, PhaseFactorSet([0.0, 0.0], "circuit"))
    assert np.allclose(u, enc.unitary)


def test_full_circuit_realizes_identity_polynomial(setup):
    _, h, enc = setup
    phi = to_circuit(PhaseFactorSet([0.0, 0.0], "su2"))
    q = assemble_full(enc, phi)
    assert np.max(np.abs(q[:4, :4] - h)) <= 1e-12


def test_full_circuit_realizes_t2(setup):
    _, h, enc = setup
    phi = to_circuit(PhaseFactorSet([0.0, 0.0, 0.0], "su2"))
    q = assemble_full(enc, phi)
    expected = 2 * h @ h - np.eye(4)
    assert np.max(np.abs(q[:4, :4] - expected)) <= 1e-10


def test_full_circuit_unitary(setup):
    gen, _, enc = setup
    phi = PhaseFactorSet(gen.uniform(-np.pi, np.pi, 8), "circuit")
    q = assemble_full(enc, phi)
    assert np.max(np.abs(dagger(q) @ q - np.eye(16))) <= 1e-10
    with pytest.raises(ValueError, match="circuit-convention"):
        assemble_full(enc, PhaseFactorSet(phi.values, "su2"))


def test_predicted_blocks_match_assembled_both_parities(setup):
    gen, h, enc = setup
    for degree in (2, 5):
        phi = PhaseFactorSet(gen.uniform(-np.pi, np.pi, degree + 1), "circuit")
        q = assemble_full(enc, phi)
        pred = predicted_blocks(h, phi)
        for i in range(4):
            for j in range(4):
                block = q[i * 4 : (i + 1) * 4, j * 4 : (j + 1) * 4]
                assert np.max(np.abs(block - pred.sector(i, j))) <= 1e-9


def test_predicted_blocks_wrong_parity_choice_fails(setup):
    gen, h, enc = setup
    phi = PhaseFactorSet(gen.uniform(-np.pi, np.pi, 4), "circuit")
    q = assemble_full(enc, phi)
    right = predicted_blocks(h, phi)
    wrong = predicted_blocks(h, phi, t2_is_w2=phi.degree % 2 == 0)

    def deviation(pred):
        return max(
            float(np.max(np.abs(q[i * 4 : (i + 1) * 4, j * 4 : (j + 1) * 4] - pred.sector(i, j))))
            for i in range(4)
            for j in range(4)
        )

    assert deviation(right) <= 1e-9
    assert deviation(wrong) > 1e-3


def test_predicted_blocks_symmetric_kills_q_imag(setup):
    gen, h, _ = setup
    phi = to_circuit(random_symmetric(gen, 7))
    pred = predicted_blocks(h, phi)
    # The Q_Im sectors of the A (monitoring-even) half.
    for block in (pred.sector(0, 1), pred.sector(1, 0)):
        assert np.max(np.abs(block)) <= 1e-10


def test_garbage_state_prediction(setup):
    gen, h, enc = setup
    phi = to_circuit(random_symmetric(gen, 6))
    amp = gen.standard_normal(4) + 1j * gen.standard_normal(4)
    amp /= np.linalg.norm(amp)
    state = StateVector(2, amp)
    q = assemble_full(enc, phi)
    full = np.zeros(16, dtype=complex)
    full[:4] = amp
    full = q @ full
    actual = full.copy()
    actual[:4] = 0.0
    predicted = garbage_state(h, phi, state)
    assert np.max(np.abs(predicted.amplitudes - actual)) <= 1e-9
    # All garbage weight sits in the monitoring |1> sector.
    assert np.max(np.abs(predicted.amplitudes[4:8])) <= 1e-12


def test_garbage_norm_identity_on_eigenstates(setup):
    gen, h, _ = setup
    spec = eigh(h)
    phi = to_circuit(random_symmetric(gen, 9))
    pair = extract_pq(to_su2(phi))
    for idx in range(4):
        state = StateVector(2, spec.vectors[:, idx])
        garbage = garbage_state(h, phi, state)
        f_val = float(_clenshaw(pair.p.real, np.array([spec.values[idx]]))[0])
        assert garbage.norm**2 == pytest.approx(1.0 - f_val**2, abs=1e-10)


def test_garbage_vanishes_where_filter_is_exactly_one():
    # Psi = (0, 0, 0) realizes f = T2; at the eigenvalue 0 the filter hits -1
    # exactly, so the normalization condition forces zero garbage.
    h = np.diag([0.0, 0.5])
    phi = to_circuit(PhaseFactorSet([0.0, 0.0, 0.0], "su2"))
    garbage = garbage_state(h, phi, StateVector(1, [1.0, 0.0]))
    assert garbage.norm <= 1e-12


def test_garbage_state_rejects_asymmetric_phases(setup):
    _, h, _ = setup
    phi = to_circuit(PhaseFactorSet([0.3, 0.1, -0.2], "su2"))
    with pytest.raises(ValueError, match="symmetric"):
        garbage_state(h, phi, StateVector(2, [1, 0, 0, 0]))


def test_three_term_norm_completeness(setup):
    gen, h, _ = setup
    spec = eigh(h)
    phi = to_circuit(random_symmetric(gen, 8))
    pair = extract_pq(to_su2(phi))
    amp = gen.standard_normal(4) + 1j * gen.standard_normal(4)
    amp /= np.linalg.norm(amp)
    weights = np.abs(dagger(spec.vectors) @ amp) ** 2
    evals = spec.values
    f_vals = _clenshaw(pair.p.real, evals)
    p_im = _clenshaw(pair.p.imag, evals)
    q_re = _clenshaw(pair.q.real, evals)
    total = np.sum(weights * (f_vals**2 + p_im**2 + (1 - evals**2) * q_re**2))
    assert total == pytest.approx(1.0, abs=1e-10)


def test_negated_phase_substitution_identity(setup):
    gen, _, _ = setup
    phi = PhaseFactorSet(gen.uniform(-np.pi, np.pi, 7), "circuit")
    pair = extract_pq(to_su2(phi))
    neg = extract_pq(to_su2(PhaseFactorSet(-phi.values, "circuit")))
    assert np.max(np.abs(neg.p - pair.p.conj())) <= 1e-10
    assert np.max(np.abs(neg.q + pair.q.conj())) <= 1e-10


def test_monitoring_flag_single_ancilla_suffices(setup):
    gen, h, enc = setup
    phi = to_circuit(random_symmetric(gen, 5))
    q = assemble_full(enc, phi)
    amp = gen.standard_normal(4) + 1j * gen.standard_normal(4)
    amp /= np.linalg.norm(amp)
    full = np.zeros(16, dtype=complex)
    full[:4] = amp
    full = q @ full
    # Outcome 0 on the monitoring qubit leaves the encoding ancilla in |0>.
    assert np.max(np.abs(full[4:8])) <= 1e-10
