
import re

import numpy as np
import pytest

from fqsvt.blockenc import dilate_hermitian
from fqsvt.chebyshev import _clenshaw
from fqsvt.linalg import (check_hermitian, dagger, eigh, haar_vector,
                          hermitian_from_spectrum, rng)
from fqsvt.qsp import PhaseFactorSet, _mirror, extract_pq
from fqsvt.qsvt import _interleaved, assemble_full, predicted_blocks
from test_blockenc import csd_factors
from test_chebyshev import reference_clenshaw
from test_qsp import reference_circuit_offsets, reference_single_extract_pq


def random_symmetric(gen, degree):
    return PhaseFactorSet(_mirror(gen.uniform(-np.pi, np.pi, (degree + 2) // 2), degree))


def reference_predicted_blocks(h, phi: PhaseFactorSet, t2_is_w2: bool | None = None) -> np.ndarray:
    """The sector table through the dilation and its explicit cosine-sine factors.

    The final basis transformation is W2 at odd degree and V2 at even
    degree; `t2_is_w2` overrides the choice.
    """
    h = check_hermitian(h)
    pair = reference_single_extract_pq(phi)
    if t2_is_w2 is None:
        t2_is_w2 = phi.degree % 2 == 1

    factors = csd_factors(dilate_hermitian(h), h)
    v, v2 = factors.v, factors.v2
    t2 = factors.w2 if t2_is_w2 else factors.v2
    sigma, s = factors.sigma, factors.s

    p_re = reference_clenshaw(pair.p.real, sigma)
    p_im = reference_clenshaw(pair.p.imag, sigma)
    if len(pair.q):
        q_re = reference_clenshaw(pair.q.real, sigma)
        q_im = reference_clenshaw(pair.q.imag, sigma)
    else:
        q_re = np.zeros_like(sigma)
        q_im = np.zeros_like(sigma)

    vh = dagger(v)
    v2h = dagger(v2)
    a00 = (v * p_re) @ vh
    a01 = -(v * (s * q_im)) @ v2h
    a10 = (t2 * (s * q_im)) @ vh
    a11 = (t2 * p_re) @ v2h
    b00 = 1j * (v * p_im) @ vh
    b01 = 1j * (v * (s * q_re)) @ v2h
    b10 = 1j * (t2 * (s * q_re)) @ vh
    b11 = -1j * (t2 * p_im) @ v2h

    n = h.shape[0]
    table = np.empty((4, 4, n, n), dtype=complex)
    a_row = [[a00, a01], [a10, a11]]
    b_row = [[b00, b01], [b10, b11]]
    for i in range(2):
        for j in range(2):
            table[i, j] = a_row[i][j]
            table[i, j + 2] = b_row[i][j]
            table[i + 2, j] = b_row[i][j]
            table[i + 2, j + 2] = a_row[i][j]
    return table


def sector_garbage(table: np.ndarray, state) -> np.ndarray:
    """The garbage component of the action on |0...0>|state>: sectors (2, 0) and (3, 0) of `table`."""
    n = table.shape[-1]
    amp = np.asarray(state, dtype=complex)
    out = np.zeros(4 * n, dtype=complex)
    out[2 * n : 3 * n] = table[2, 0] @ amp
    out[3 * n :] = table[3, 0] @ amp
    return out


def reference_garbage_state(h, phi: PhaseFactorSet, state: np.ndarray) -> np.ndarray:
    """The garbage component read from the reference table, for symmetric phases."""
    assert phi.symmetric
    return sector_garbage(reference_predicted_blocks(h, phi), state)


def blocks(h, phi: PhaseFactorSet) -> np.ndarray:
    """The one-item `predicted_blocks` table of the pair that `extract_pq` gives for `phi`."""
    return predicted_blocks([h], extract_pq([phi]))[0]


@pytest.fixture
def setup():
    gen = rng(11)
    h = hermitian_from_spectrum(gen.uniform(0.05, 0.95, 4), gen)
    return gen, h, dilate_hermitian(h)


def test_interleaved_degree_zero_identity(setup):
    # Circuit phase 0: the +phi product of rotation phase pi/4 is the identity.
    _, _, enc = setup
    u = _interleaved(enc, [PhaseFactorSet([np.pi / 4])])[0]
    assert np.allclose(u, np.eye(8))


def test_interleaved_degree_one_is_encoding(setup):
    # Circuit phases (0, 0) are rotation phases (-pi/4, pi/4).
    _, _, enc = setup
    u = _interleaved(enc, [PhaseFactorSet([-np.pi / 4, np.pi / 4])])[0]
    assert np.allclose(u, enc)


def test_full_circuit_realizes_identity_polynomial(setup):
    _, h, enc = setup
    q = assemble_full(enc, [PhaseFactorSet([0.0, 0.0])])[0]
    assert np.max(np.abs(q[:4, :4] - h)) <= 1e-12


def test_full_circuit_realizes_t2(setup):
    _, h, enc = setup
    q = assemble_full(enc, [PhaseFactorSet([0.0, 0.0, 0.0])])[0]
    expected = 2 * h @ h - np.eye(4)
    assert np.max(np.abs(q[:4, :4] - expected)) <= 1e-10


def test_full_circuit_unitary(setup):
    gen, _, enc = setup
    phi = PhaseFactorSet(gen.uniform(-np.pi, np.pi, 8))
    q = assemble_full(enc, [phi])[0]
    assert np.max(np.abs(dagger(q) @ q - np.eye(16))) <= 1e-10


def reference_interleaved(enc, values: np.ndarray) -> np.ndarray:
    """The interleaved product of circuit phases `values`, one rotation diagonal per factor."""

    def rotation(angle):
        diag = np.full(len(enc), np.exp(-1j * angle), dtype=complex)
        diag[: len(enc) // 2] = np.exp(1j * angle)
        return diag

    d = len(values) - 1
    u = np.diag(rotation(values[0]))
    for k in range(1, d + 1):
        u = u @ (enc if (d - k) % 2 == 0 else dagger(enc))
        u = u * rotation(values[k])[np.newaxis, :]
    return u


def circuit_values(psi: PhaseFactorSet) -> np.ndarray:
    return psi.values - reference_circuit_offsets(psi.degree)


def reference_assemble_full(enc, phi: PhaseFactorSet) -> np.ndarray:
    """`assemble_full` from two separate interleaved products."""
    values = circuit_values(phi)
    u_pos, u_neg = reference_interleaved(enc, values), reference_interleaved(enc, -values)
    a, b = 0.5 * (u_pos + u_neg), 0.5 * (u_pos - u_neg)
    return np.block([[a, b], [b, a]])


def test_stacked_assembly_matches_separate_products_bitwise():
    # Criterion 2 draws random phases of degree 1-12 on n = 2, 4, 8;
    # criterion 3 symmetric phases of degree 1-15.
    gen = rng(102)
    for trial in range(40):
        n = int(2 ** gen.integers(1, 4))
        h = hermitian_from_spectrum(gen.uniform(0.02, 0.98, n), gen)
        enc = dilate_hermitian(h)
        if trial % 2:
            phi = random_symmetric(gen, int(gen.integers(1, 16)))
        else:
            phi = PhaseFactorSet(gen.uniform(-np.pi, np.pi, int(gen.integers(1, 13)) + 1))
        assert np.array_equal(assemble_full(enc, [phi])[0], reference_assemble_full(enc, phi))
        assert np.array_equal(_interleaved(enc, [phi])[0],
                              reference_interleaved(enc, circuit_values(phi)))


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_assembly_of_a_list_matches_single_calls_bitwise(n):
    # 1-7 phase sets of one degree, random and symmetric, in one stacked
    # product: each matrix of a matmul stack is its own product.
    gen = rng(200 + n)
    enc = dilate_hermitian(hermitian_from_spectrum(gen.uniform(0.02, 0.98, n), gen))
    for count in range(1, 8):
        degree = int(gen.integers(1, 13))
        phis = [random_symmetric(gen, degree) if j % 2 else
                PhaseFactorSet(gen.uniform(-np.pi, np.pi, degree + 1))
                for j in range(count)]
        stacked = assemble_full(enc, phis)
        assert isinstance(stacked, list) and len(stacked) == count
        for phi, q in zip(phis, stacked):
            assert np.array_equal(q, assemble_full(enc, [phi])[0])


def test_assembly_of_a_list_of_mixed_degrees_equals_single_calls(setup):
    # Degrees 1 and 2 share one end-aligned product, in either order.
    _, _, enc = setup
    short, long = PhaseFactorSet([0.1, 0.2]), PhaseFactorSet([0.1, 0.2, 0.3])
    for phis in ([short, long], [long, short]):
        for phi, q in zip(phis, assemble_full(enc, phis)):
            assert q.tobytes() == assemble_full(enc, [phi])[0].tobytes()
    assert assemble_full(enc, []) == []


def haar_unitary(gen, n: int) -> np.ndarray:
    q, r = np.linalg.qr(gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_completion(gen, enc: np.ndarray) -> np.ndarray:
    """U' = (I + Y) U (I + X), X and Y Haar on the ancilla's |1> block: U's top block."""
    n = len(enc) // 2
    left, right = np.eye(2 * n, dtype=complex), np.eye(2 * n, dtype=complex)
    left[n:, n:], right[n:, n:] = haar_unitary(gen, n), haar_unitary(gen, n)
    return left @ enc @ right


def rotation_diagonal(angle: float, size: int) -> np.ndarray:
    return np.diag(np.where(np.arange(size) < size // 2, np.exp(1j * angle), np.exp(-1j * angle)))


@pytest.mark.parametrize("completion", [False, True], ids=["dilation", "random-completion"])
@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_stacked_assembly_of_mixed_degrees_matches_the_references_bitwise(n, completion):
    # Degrees 0-30 in one stack, up to an even and an odd longest degree,
    # random and symmetric phases, in the shared-encoding form and with one
    # encoding per phase set. A random completion has U != U^dag, so a
    # swapped U / U^dag in the end-aligned alternation would miss the
    # reference. Degree 0 runs no factor.
    gen = rng(300 + n, int(completion))
    encs = [dilate_hermitian(hermitian_from_spectrum(gen.uniform(0.02, 0.98, n), gen))
            for _ in range(12)]
    if completion:
        encs = [random_completion(gen, enc) for enc in encs]
        assert not np.allclose(encs[0], dagger(encs[0]))
    for top in (30, 29):
        degrees = [0, top, *gen.integers(0, top + 1, 10)]
        gen.shuffle(degrees)
        phis = [random_symmetric(gen, int(d)) if j % 2 else
                PhaseFactorSet(gen.uniform(-np.pi, np.pi, int(d) + 1))
                for j, d in enumerate(degrees)]
        shared = assemble_full(encs[0], phis)
        stacked = assemble_full(np.array(encs), phis)
        interleaved = _interleaved(np.array(encs), phis)
        for j, phi in enumerate(phis):
            assert shared[j].tobytes() == reference_assemble_full(encs[0], phi).tobytes()
            assert stacked[j].tobytes() == reference_assemble_full(encs[j], phi).tobytes()
            for sign in (1, -1):
                assert interleaved[2 * j + (sign < 0)].tobytes() == reference_interleaved(
                    encs[j], sign * circuit_values(phi)).tobytes()
            if phi.degree == 0:
                (angle,) = circuit_values(phi)
                assert np.array_equal(interleaved[2 * j], rotation_diagonal(angle, 2 * n))
                assert np.array_equal(interleaved[2 * j + 1], rotation_diagonal(-angle, 2 * n))


def test_stacked_assembly_takes_one_encoding_per_phase_set(setup):
    _, _, enc = setup
    phis = [PhaseFactorSet([0.1, 0.2]), PhaseFactorSet([0.3])]
    with pytest.raises(ValueError, match=r"^expected one encoding per phase set \(2\), got shape "
                                         r"\(1, 8, 8\)$"):
        assemble_full(enc[np.newaxis], phis)
    bad = np.array([enc, np.diag([1.0, 0.5, 1, 1, 1, 1, 1, 1])])
    with pytest.raises(ValueError, match=r"^matrix 1 of the stack is not unitary"):
        assemble_full(bad, phis)


def test_predicted_blocks_match_assembled_both_parities(setup):
    gen, h, enc = setup
    for degree in (2, 5):
        phi = PhaseFactorSet(gen.uniform(-np.pi, np.pi, degree + 1))
        q = assemble_full(enc, [phi])[0]
        pred = blocks(h, phi)
        assert pred.shape == (4, 4, 4, 4)
        for i in range(4):
            for j in range(4):
                block = q[i * 4 : (i + 1) * 4, j * 4 : (j + 1) * 4]
                assert np.max(np.abs(block - pred[i, j])) <= 1e-9


def test_predicted_blocks_wrong_parity_choice_fails(setup):
    # W2 and V2 differ only in sign, so a table with the other choice of T2
    # (built by the reference) must miss the assembled circuit.
    gen, h, enc = setup
    phi = PhaseFactorSet(gen.uniform(-np.pi, np.pi, 4))
    q = assemble_full(enc, [phi])[0]
    right = blocks(h, phi)
    wrong = reference_predicted_blocks(h, phi, t2_is_w2=phi.degree % 2 == 0)

    def deviation(pred):
        return max(
            float(np.max(np.abs(q[i * 4 : (i + 1) * 4, j * 4 : (j + 1) * 4] - pred[i, j])))
            for i in range(4)
            for j in range(4)
        )

    assert deviation(right) <= 1e-9
    assert deviation(wrong) > 1e-3


def test_predicted_blocks_symmetric_kills_q_imag(setup):
    gen, h, _ = setup
    phi = random_symmetric(gen, 7)
    pred = blocks(h, phi)
    # The Q_Im sectors of the A (monitoring-even) half.
    for block in (pred[0, 1], pred[1, 0]):
        assert np.max(np.abs(block)) <= 1e-10


def test_closed_form_matches_the_cosine_sine_route_bitwise():
    # n = 1, 2, 4, 8; degree 0-15; random and symmetric phases;
    # spectra that contain 0 and 1 exactly, and random interior ones.
    gen = rng(15)
    checked = 0
    for trial in range(240):
        n = 2 ** (trial % 4)
        degree = (trial // 4) % 16
        values = gen.uniform(0.0, 1.0, n)
        if trial % 3 == 1:
            values[0] = 0.0
        elif trial % 3 == 2:
            values[-1] = 1.0
            values[0] = 0.0 if n > 1 else 1.0
        h = hermitian_from_spectrum(values, gen)
        symmetric = (trial // 64) % 2 == 1
        if symmetric:
            phi = random_symmetric(gen, degree)
        else:
            phi = PhaseFactorSet(gen.uniform(-np.pi, np.pi, degree + 1))
        table = blocks(h, phi)
        assert table.shape == (4, 4, n, n)
        assert np.array_equal(table, reference_predicted_blocks(h, phi))
        if symmetric:
            state = haar_vector(gen, n)
            assert np.array_equal(sector_garbage(table, state),
                                  reference_garbage_state(h, phi, state))
            checked += 1
    assert checked >= 100


# Each case: the matrix, its message alone, and its message as the one matrix of a stack.
BAD_HAMILTONIANS = {
    "not-square": (np.zeros((2, 3)), "expected a square matrix, got shape (2, 3)",
                   "expected a square matrix, got shape (1, 2, 3)"),
    "vector": (np.ones(2), "expected a square matrix, got shape (2,)",
               "expected a square matrix, got shape (1, 2)"),
    "non-finite": (np.array([[0.5, np.nan], [np.nan, 0.5]]), "matrix entries must be finite",
                   "matrix entries must be finite"),
    "non-hermitian": (np.array([[0.5, 0.1], [0.0, 0.5]]), "matrix is not Hermitian: entry (0, 1) "
                      "deviates from its conjugate transpose by 1.000e-01",
                      "matrix 0 of the stack is not Hermitian: entry (0, 1) deviates from its "
                      "conjugate transpose by 1.000e-01"),
    "above-one": (np.diag([0.5, 1.25]), "spectrum must lie in [0, 1] for the symmetric "
                                        "dilation; offending eigenvalue 1.25",
                  "spectrum of matrix 0 of the stack must lie in [0, 1] for the symmetric "
                  "dilation; offending eigenvalue 1.25"),
    "below-zero": (np.diag([-0.25, 0.5]), "spectrum must lie in [0, 1] for the symmetric "
                                          "dilation; offending eigenvalue -0.25",
                   "spectrum of matrix 0 of the stack must lie in [0, 1] for the symmetric "
                   "dilation; offending eigenvalue -0.25"),
}


@pytest.mark.parametrize("case", BAD_HAMILTONIANS)
@pytest.mark.parametrize("entry, stacked", [
    (dilate_hermitian, False),
    (lambda h: dilate_hermitian([h]), True),
    (lambda h: blocks(h, PhaseFactorSet([0.3, 0.1, 0.3])), True),
], ids=["dilate_hermitian", "dilate_hermitian-stack", "predicted_blocks"])
def test_entries_reject_bad_hamiltonians_with_the_full_message(entry, stacked, case):
    h, alone, in_stack = BAD_HAMILTONIANS[case]
    message = in_stack if stacked else alone
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        entry(h)


def test_predicted_blocks_list_form_equals_one_item_calls_bitwise():
    # Odd and even degrees 0-12 mixed in each stack, n = 1 to 8: one stacked
    # `eigh`, a per-pair T2 sign and zero-padded series change no bit.
    gen = rng(16)
    for n in (1, 2, 4, 8):
        hs = [hermitian_from_spectrum(gen.uniform(0.0, 1.0, n), gen) for _ in range(13)]
        phis = [PhaseFactorSet(gen.uniform(-np.pi, np.pi, degree + 1))
                if degree % 3 else random_symmetric(gen, degree)
                for degree in gen.permutation(13)]
        pairs = [extract_pq([phi])[0] for phi in phis]
        tables = predicted_blocks(np.array(hs), pairs)
        assert len(tables) == len(pairs)
        for h, pair, table in zip(hs, pairs, tables):
            assert table.tobytes() == predicted_blocks([h], [pair])[0].tobytes()


def test_predicted_blocks_takes_one_matrix_per_pair(setup):
    gen, h, _ = setup
    pair = extract_pq([PhaseFactorSet([0.3, 0.1, 0.3])])[0]
    assert predicted_blocks([], []) == []
    with pytest.raises(ValueError, match=r"^expected one matrix per pair \(2\), got shape "
                                         r"\(1, 4, 4\)$"):
        predicted_blocks([h], [pair, pair])
    with pytest.raises(ValueError, match=r"^expected one matrix per pair \(1\), got shape "
                                         r"\(4, 4\)$"):
        predicted_blocks(h, [pair])


def test_garbage_state_prediction(setup):
    gen, h, enc = setup
    phi = random_symmetric(gen, 6)
    amp = gen.standard_normal(4) + 1j * gen.standard_normal(4)
    amp /= np.linalg.norm(amp)
    q = assemble_full(enc, [phi])[0]
    full = np.zeros(16, dtype=complex)
    full[:4] = amp
    full = q @ full
    actual = full.copy()
    actual[:4] = 0.0
    predicted = sector_garbage(blocks(h, phi), amp)
    assert np.max(np.abs(predicted - actual)) <= 1e-9
    # All garbage weight sits in the monitoring |1> sector.
    assert np.max(np.abs(predicted[4:8])) <= 1e-12


def test_garbage_norm_identity_on_eigenstates(setup):
    gen, h, _ = setup
    spec = eigh(h)
    phi = random_symmetric(gen, 9)
    pair = extract_pq([phi])[0]
    table = predicted_blocks([h], [pair])[0]
    for idx in range(4):
        garbage = sector_garbage(table, spec.vectors[:, idx])
        f_val = float(_clenshaw(pair.p.real, np.array([spec.values[idx]]))[0])
        assert np.linalg.norm(garbage)**2 == pytest.approx(1.0 - f_val**2, abs=1e-10)


def test_garbage_vanishes_where_filter_is_exactly_one():
    # Psi = (0, 0, 0) realizes f = T2; at the eigenvalue 0 the filter hits -1
    # exactly, so the normalization condition forces zero garbage.
    h = np.diag([0.0, 0.5])
    garbage = sector_garbage(blocks(h, PhaseFactorSet([0.0, 0.0, 0.0])), [1.0, 0.0])
    assert np.linalg.norm(garbage) <= 1e-12


def test_three_term_norm_completeness(setup):
    gen, h, _ = setup
    spec = eigh(h)
    phi = random_symmetric(gen, 8)
    pair = extract_pq([phi])[0]
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
    # Negating the circuit phases phi = psi - offsets gives rotation phases 2 offsets - psi.
    gen, _, _ = setup
    psi = PhaseFactorSet(gen.uniform(-np.pi, np.pi, 7))
    pair = extract_pq([psi])[0]
    neg = extract_pq([PhaseFactorSet(2.0 * reference_circuit_offsets(6) - psi.values)])[0]
    assert np.max(np.abs(neg.p - pair.p.conj())) <= 1e-10
    assert np.max(np.abs(neg.q + pair.q.conj())) <= 1e-10


def test_monitoring_flag_single_ancilla_suffices(setup):
    gen, h, enc = setup
    phi = random_symmetric(gen, 5)
    q = assemble_full(enc, [phi])[0]
    amp = gen.standard_normal(4) + 1j * gen.standard_normal(4)
    amp /= np.linalg.norm(amp)
    full = np.zeros(16, dtype=complex)
    full[:4] = amp
    full = q @ full
    # Outcome 0 on the monitoring qubit leaves the encoding ancilla in |0>.
    assert np.max(np.abs(full[4:8])) <= 1e-10
