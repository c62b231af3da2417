import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqsvt.chebyshev import ChebyshevSeries, heaviside_filter
from fqsvt.linalg import rng
from fqsvt.qsp import (
    PhaseFactorSet,
    SynthesisError,
    _batch_unitaries,
    _forward_pairs,
    _mirror,
    _residual,
    _residual_and_jacobian,
    extract_pq,
    synthesize_symmetric,
    to_circuit,
    to_su2,
)
from test_chebyshev import filter_specs


def random_symmetric(gen, degree):
    return PhaseFactorSet(_mirror(gen.uniform(-np.pi, np.pi, (degree + 2) // 2), degree), "su2")


def qsp_unitary(x: float, values) -> np.ndarray:
    """The signal-processing unitary U(x) of rotation-convention phases."""
    return _batch_unitaries(np.asarray(values, dtype=float), np.array([x]))[0]


def test_qsp_unitary_zero_phases_is_x_rotation():
    u = qsp_unitary(0.3, [0.0, 0.0])
    s = math.sqrt(1 - 0.09)
    assert np.allclose(u, [[0.3, 1j * s], [1j * s, 0.3]])


def test_qsp_unitary_at_one_collapses_to_z():
    u = qsp_unitary(1.0, [0.3, 0.5, -0.2])
    assert np.allclose(u, np.diag([np.exp(0.6j), np.exp(-0.6j)]))


def test_qsp_unitary_three_zero_phases_gives_t2():
    u = qsp_unitary(0.3, [0.0, 0.0, 0.0])
    assert u[0, 0] == pytest.approx(-0.82, abs=1e-12)


def test_qsp_unitary_special_unitary():
    gen = rng(1)
    for _ in range(20):
        d = int(gen.integers(0, 12))
        values = gen.uniform(-np.pi, np.pi, d + 1)
        u = qsp_unitary(float(gen.uniform(-1, 1)), values)
        assert abs(np.linalg.det(u) - 1.0) < 1e-12
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-12


def test_batch_unitaries_match_explicit_matrix_product():
    # Reference: the rotation product built from explicit 2x2 matrices.
    gen = rng(7)
    xs = np.linspace(-1, 1, 17)
    for d in (0, 1, 4, 25):
        values = gen.uniform(-np.pi, np.pi, d + 1)
        got = _batch_unitaries(values, xs)
        for x, u in zip(xs, got):
            s = math.sqrt(1 - x * x)
            w = np.array([[x, 1j * s], [1j * s, x]])
            ref = np.diag(np.exp([1j * values[0], -1j * values[0]]))
            for psi in values[1:]:
                ref = ref @ w @ np.diag(np.exp([1j * psi, -1j * psi]))
            assert np.max(np.abs(u - ref)) <= 1e-13


def test_extract_pq_chebyshev_case():
    d = 5
    pair = extract_pq(PhaseFactorSet(np.zeros(d + 1), "su2"))
    t5 = np.zeros(d + 1)
    t5[d] = 1.0
    assert np.allclose(pair.p, t5, atol=1e-12)
    # Q = U_4 has Chebyshev-T expansion T0 + 2 T2 + 2 T4.
    assert np.allclose(pair.q, [1, 0, 2, 0, 2], atol=1e-12)


def test_extract_pq_degree_zero():
    pair = extract_pq(PhaseFactorSet([math.pi / 2], "su2"))
    assert np.allclose(pair.p, [1j])
    assert len(pair.q) == 0


def test_extract_pq_symmetric_q_real():
    gen = rng(2)
    pair = extract_pq(random_symmetric(gen, 9))
    assert np.max(np.abs(pair.q.imag)) <= 1e-10


def test_conversion_examples():
    psi = to_su2(PhaseFactorSet([0.0, 0.0], "circuit"))
    assert np.allclose(psi.values, [-np.pi / 4, np.pi / 4])
    psi2 = to_su2(PhaseFactorSet([0.0, 0.0, 0.0], "circuit"))
    assert np.allclose(psi2.values, [np.pi / 4, -np.pi / 2, np.pi / 4])
    phi = to_circuit(PhaseFactorSet([-np.pi / 4, np.pi / 4], "su2"))
    assert np.allclose(phi.values, [0.0, 0.0])
    phi0 = to_circuit(PhaseFactorSet([0.0], "su2"))
    assert np.allclose(phi0.values, [-np.pi / 4])


def test_conversion_round_trips():
    gen = rng(3)
    for _ in range(100):
        d = int(gen.integers(0, 15))
        vals = gen.uniform(-np.pi, np.pi, d + 1)
        psi = PhaseFactorSet(vals, "su2")
        assert np.allclose(to_su2(to_circuit(psi)).values, vals)
        phi = PhaseFactorSet(vals, "circuit")
        assert np.allclose(to_circuit(to_su2(phi)).values, vals)


def test_conversion_requires_convention():
    with pytest.raises(ValueError, match="circuit"):
        to_su2(PhaseFactorSet([0.0], "su2"))


def test_conjugation_identity():
    # Negating circuit phases conjugates the signal-processing unitary
    # entrywise, at every degree >= 1.
    grid = np.linspace(-1, 1, 33)

    def deviation(values):
        pos = _batch_unitaries(to_su2(PhaseFactorSet(values, "circuit")).values, grid)
        neg = _batch_unitaries(to_su2(PhaseFactorSet(-values, "circuit")).values, grid)
        return float(np.max(np.abs(neg - pos.conj())))

    assert deviation(np.array([0.0, 0.0])) <= 1e-10
    gen = rng(4)
    for _ in range(50):
        d = int(gen.integers(1, 21))
        values = gen.uniform(-np.pi, np.pi, d + 1)
        assert deviation(values) <= 1e-10
    assert deviation(np.array([0.2, np.pi, -0.4])) <= 1e-10


def test_symmetric_flag():
    assert PhaseFactorSet([0.1, 0.5, 0.1], "su2").symmetric
    assert not PhaseFactorSet([0.1, 0.5, 0.2], "su2").symmetric


def test_synthesize_identity_target():
    psi = synthesize_symmetric(ChebyshevSeries([0.0, 1.0], "odd"), 1e-12)
    assert np.allclose(psi.values, [0.0, 0.0])


def test_synthesize_chebyshev_target():
    psi = synthesize_symmetric(ChebyshevSeries([0, 0, 0, 0, 0, 1.0], "odd"), 1e-12)
    assert np.allclose(psi.values, np.zeros(6))


def test_synthesize_scaled_chebyshev():
    target = ChebyshevSeries([0, 0, 0, 0, 0.9], "even")
    psi = synthesize_symmetric(target, 1e-12)
    assert psi.symmetric
    pair = extract_pq(psi)
    xs = np.linspace(-1, 1, 401)
    realized = pair.eval_p(xs).real
    assert np.max(np.abs(realized - 0.9 * np.cos(4 * np.arccos(xs)))) <= 1e-12


def test_synthesize_general_target_and_normalization():
    gen = rng(5)
    xs = np.linspace(-1, 1, 401)
    for d in (6, 11):
        source = random_symmetric(gen, d)
        coeffs = 0.95 * extract_pq(source).p.real
        coeffs[(1 if d % 2 == 0 else 0)::2] = 0.0
        target = ChebyshevSeries(coeffs, "even" if d % 2 == 0 else "odd")
        psi = synthesize_symmetric(target, 1e-11)
        pair = extract_pq(psi)
        assert np.max(np.abs(pair.eval_p(xs).real - target(xs))) <= 1e-11
        norm = np.abs(pair.eval_p(xs)) ** 2 + (1 - xs**2) * np.abs(pair.eval_q(xs)) ** 2
        assert np.max(np.abs(norm - 1)) <= 1e-10
        # Parity: opposite-parity Chebyshev coefficients of Re P vanish.
        off = pair.p.real[(1 if d % 2 == 0 else 0)::2]
        assert np.max(np.abs(off)) <= 1e-10
        assert np.max(np.abs(pair.q.imag)) <= 1e-10


@st.composite
def synthesis_targets(draw):
    """A minimax filter, or Re P of random symmetric phases scaled below 1."""
    if draw(st.booleans()):
        return heaviside_filter(draw(filter_specs()))
    d = draw(st.integers(1, 120))
    scale = 1.0 - 10.0 ** draw(st.floats(-6.0, -0.5))
    source = random_symmetric(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), d)
    coeffs = scale * extract_pq(source).p.real
    coeffs[(d + 1) % 2::2] = 0.0
    return ChebyshevSeries(coeffs, "even" if d % 2 == 0 else "odd")


@settings(max_examples=30, deadline=None, derandomize=True)
@given(synthesis_targets())
def test_synthesis_meets_the_2d_node_contract(target):
    tol = 1e-11
    psi = synthesize_symmetric(target, tol)
    d = target.degree
    xs = np.cos((2 * np.arange(1, 2 * d + 1) - 1) * np.pi / (4 * d))
    assert psi.symmetric and psi.degree == d
    assert np.max(np.abs(_batch_unitaries(psi.values, xs)[:, 0, 0].real - target(xs))) <= tol


def test_synthesis_stall_raises_with_its_history():
    gen = rng(9)
    coeffs = 0.9 * extract_pq(random_symmetric(gen, 10)).p.real
    coeffs[1::2] = 0.0
    with pytest.raises(SynthesisError, match="stalled") as info:
        synthesize_symmetric(ChebyshevSeries(coeffs, "even"), 1e-30)
    assert info.value.history and min(info.value.history) > 2.5e-31


def test_synthesize_rejects_margin_violation():
    coeffs = np.zeros(5)
    coeffs[0] = 0.6
    coeffs[2] = 0.3
    coeffs[4] = 0.2  # sup-norm above 1 - 1e-8 at x = 1
    with pytest.raises(ValueError, match="margin"):
        synthesize_symmetric(ChebyshevSeries(coeffs, "even"), 1e-10)


def test_synthesize_rejects_mixed_parity():
    with pytest.raises(ValueError, match="parity"):
        synthesize_symmetric(ChebyshevSeries([0.1, 0.2], "none"), 1e-10)


def test_gradient_matches_finite_differences():
    # Even degrees exercise the unmirrored middle phase.
    gen = rng(6)
    for d in (9, 10, 184):
        xs = np.cos((2 * np.arange(1, d + 1) - 1) * np.pi / (4 * d))
        target = 0.4 * xs
        free = gen.uniform(-0.6, 0.6, (d + 2) // 2)
        _, jac = _residual_and_jacobian(_forward_pairs(_mirror(free, d), xs), target)
        step = 1e-6
        for i in range(len(free)):
            up, down = free.copy(), free.copy()
            up[i] += step
            down[i] -= step
            numeric = (_residual(up, d, xs, target) - _residual(down, d, xs, target)) / (2 * step)
            scale = max(1.0, np.max(np.abs(numeric)))
            assert np.max(np.abs(jac[:, i] - numeric)) <= 1e-6 * scale, (d, i)


@pytest.mark.parametrize("d", [1, 10, 184])
def test_residual_matches_unitary_entry(d):
    gen = rng(8)
    xs = np.cos((2 * np.arange(1, d + 1) - 1) * np.pi / (4 * d))
    target = 0.3 * xs
    free = gen.uniform(-np.pi, np.pi, (d + 2) // 2)
    expected = _batch_unitaries(_mirror(free, d), xs)[:, 0, 0].real - target
    r, _ = _residual_and_jacobian(_forward_pairs(_mirror(free, d), xs), target)
    assert np.max(np.abs(_residual(free, d, xs, target) - expected)) <= 1e-13
    assert np.array_equal(r, _residual(free, d, xs, target))


def test_phase_set_json_round_trip():
    phi = PhaseFactorSet([0.1, -0.2, 0.3], "circuit")
    doc = phi.to_json()
    assert doc["convention"] == "circuit"
    restored = PhaseFactorSet(doc["values"], doc["convention"])
    assert np.allclose(restored.values, phi.values)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 200), st.integers(0, 2**32 - 1))
def test_to_su2_and_to_circuit_are_inverses(degree, seed):
    values = np.random.default_rng(seed).uniform(-np.pi, np.pi, degree + 1)
    phi = PhaseFactorSet(values, "circuit")
    back = to_circuit(to_su2(phi))
    assert back.convention == "circuit"
    assert np.max(np.abs(back.values - values)) <= 1e-14
    psi = PhaseFactorSet(values, "su2")
    again = to_su2(to_circuit(psi))
    assert again.convention == "su2"
    assert np.max(np.abs(again.values - values)) <= 1e-14
