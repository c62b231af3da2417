import math
import re

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from fqsvt import chebyshev, qsp
from fqsvt.chebyshev import ChebyshevSeries, FilterSpec, _clenshaw, heaviside_filter
from fqsvt.linalg import rng
from fqsvt.qsp import (
    SYNTHESIS_TOL,
    PhaseFactorSet,
    SynthesisError,
    _damped_newton,
    _fold,
    _half_prefixes,
    _mirror,
    _newton_system,
    _product,
    extract_pq,
    synthesize_symmetric,
)
from test_chebyshev import filter_specs, layout_filters, phases_artifacts, reference_clenshaw


def batch_unitaries(values: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """U(x) for every x, as an array of shape (len(xs), 2, 2)."""
    a, b = _product(values, xs)
    return np.stack([np.stack([a, b], axis=-1),
                     np.stack([-b.conj(), a.conj()], axis=-1)], axis=-2)


def random_symmetric(gen, degree):
    return PhaseFactorSet(_mirror(gen.uniform(-np.pi, np.pi, (degree + 2) // 2), degree))


def reference_circuit_offsets(d: int) -> np.ndarray:
    """Rotation minus circuit phases, written out entry by entry.

    +pi/2 at phase d, alternating in sign down to phase 0, and halved at
    both ends (once at degree 0).
    """
    offsets = np.array([math.pi / 2.0 if (d - k) % 2 == 0 else -math.pi / 2.0
                        for k in range(d + 1)])
    offsets[0] *= 0.5
    if d > 0:
        offsets[d] *= 0.5
    return offsets


def qsp_unitary(x: float, values) -> np.ndarray:
    """The signal-processing unitary U(x) of rotation-convention phases."""
    return batch_unitaries(np.asarray(values, dtype=float), np.array([x]))[0]


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
        got = batch_unitaries(values, xs)
        for x, u in zip(xs, got):
            s = math.sqrt(1 - x * x)
            w = np.array([[x, 1j * s], [1j * s, x]])
            ref = np.diag(np.exp([1j * values[0], -1j * values[0]]))
            for psi in values[1:]:
                ref = ref @ w @ np.diag(np.exp([1j * psi, -1j * psi]))
            assert np.max(np.abs(u - ref)) <= 1e-13


def test_extract_pq_chebyshev_case():
    d = 5
    pair = extract_pq([PhaseFactorSet(np.zeros(d + 1))])[0]
    t5 = np.zeros(d + 1)
    t5[d] = 1.0
    assert np.allclose(pair.p, t5, atol=1e-12)
    # Q = U_4 has Chebyshev-T expansion T0 + 2 T2 + 2 T4.
    assert np.allclose(pair.q, [1, 0, 2, 0, 2], atol=1e-12)


def test_extract_pq_degree_zero():
    pair = extract_pq([PhaseFactorSet([math.pi / 2])])[0]
    assert np.allclose(pair.p, [1j])
    assert len(pair.q) == 0


def test_extract_pq_symmetric_q_real():
    gen = rng(2)
    pair = extract_pq([random_symmetric(gen, 9)])[0]
    assert np.max(np.abs(pair.q.imag)) <= 1e-10


def reference_interpolate(values: np.ndarray, theta: np.ndarray, degree: int) -> np.ndarray:
    """Chebyshev coefficients of one row of samples at the nodes cos(theta)."""
    coeffs = (2.0 / len(theta)) * (np.cos(np.outer(np.arange(degree + 1), theta)) @ values)
    coeffs[0] *= 0.5
    return coeffs


def reference_extract_pq(psi: PhaseFactorSet):
    """(p, q) of `extract_pq` from separate sweeps over the P nodes and the Q nodes."""
    d = psi.degree
    theta_p = (2.0 * np.arange(d + 1) + 1.0) * math.pi / (2.0 * (d + 1))
    p = reference_interpolate(batch_unitaries(psi.values, np.cos(theta_p))[:, 0, 0], theta_p, d)
    if d == 0:
        return p, np.zeros(0, dtype=complex)
    theta_q = (2.0 * np.arange(d) + 1.0) * math.pi / (2.0 * d)
    xq = np.cos(theta_q)
    qvals = batch_unitaries(psi.values, xq)[:, 0, 1] / (1j * np.sqrt(1.0 - xq * xq))
    return p, reference_interpolate(qvals, theta_q, d - 1)


def test_extract_pq_one_sweep_matches_separate_sweeps_bitwise():
    # Criterion 1 draws symmetric phases of degree 1-30; criterion 2 reads
    # the pair of random phases of degree 1-12.
    gen = rng(101)
    cases = [PhaseFactorSet([0.3])]
    cases += [random_symmetric(gen, int(gen.integers(1, 31))) for _ in range(60)]
    cases += [PhaseFactorSet(gen.uniform(-np.pi, np.pi, int(gen.integers(1, 13)) + 1))
              for _ in range(60)]
    for psi in cases:
        pair = extract_pq([psi])[0]
        p, q = reference_extract_pq(psi)
        assert np.array_equal(pair.p, p) and np.array_equal(pair.q, q), psi.values


def reference_forward_pairs(values: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Every partial product of the full sequence in one preallocated array."""
    xs = np.clip(xs, -1.0, 1.0)
    isx = 1j * np.sqrt(1.0 - xs * xs)
    phases = np.moveaxis(np.exp(1j * values), -1, 0)
    scale = np.stack([phases, phases.conj()], axis=-1)[..., None]
    pairs = np.empty(phases.shape + (2, len(xs)), dtype=complex)
    pairs[0, ..., 0, :] = phases[0][..., None]
    pairs[0, ..., 1, :] = 0.0
    for k in range(1, len(phases)):
        ab = pairs[k - 1]
        np.multiply(xs * ab + isx * ab[..., ::-1, :], scale[k], out=pairs[k])
    return pairs


def reference_single_extract_pq(psi: PhaseFactorSet) -> qsp.QspPolynomialPair:
    """`extract_pq` of one phase set as it ran before it took stacks, validation included."""
    d = psi.degree
    theta_p = (2.0 * np.arange(d + 1) + 1.0) * math.pi / (2.0 * (d + 1))
    theta_q = (2.0 * np.arange(d) + 1.0) * math.pi / (2.0 * d)
    xq = np.cos(theta_q)
    xs = np.linspace(-1.0, 1.0, 401)
    a, b = reference_forward_pairs(psi.values, np.concatenate([np.cos(theta_p), xq, xs]))[-1]
    p = reference_interpolate(a[: d + 1], theta_p, d)
    if d == 0:
        q = np.zeros(0, dtype=complex)
    else:
        q = reference_interpolate(b[d + 1 : 2 * d + 1] / (1j * np.sqrt(1.0 - xq * xq)),
                                  theta_q, d - 1)
    res_p = np.max(np.abs(reference_clenshaw(p, xs) - a[2 * d + 1 :]))
    res_q = np.max(np.abs(1j * np.sqrt(1.0 - xs * xs) * reference_clenshaw(q, xs) - b[2 * d + 1 :]))
    assert max(res_p, res_q) <= 1e-9
    return qsp.QspPolynomialPair(p, q)


def test_sweeps_match_the_preallocated_loop_bitwise():
    # The half sweep's prefixes are the full loop's over the free phases,
    # the middle phase of an even degree at half angle.
    gen = rng(12)
    for d in (0, 1, 2, 7, 30, 116):
        xs = gen.uniform(-1.0, 1.0, 23)
        m = (d + 2) // 2
        for shape in ((d + 1,), (5, d + 1), (2, 3, d + 1)):
            values = gen.uniform(-np.pi, np.pi, shape)
            assert np.array_equal(_product(values, xs), reference_forward_pairs(values, xs)[-1])
            free = values[..., :m]
            half = free.copy()
            if d % 2 == 0:
                half[..., -1] *= 0.5
            prefixes = _half_prefixes(free, d, xs)
            assert np.array_equal(prefixes[:m], reference_forward_pairs(half, xs))
            assert len(prefixes) == m + d % 2


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 200), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_half_sweep_folds_to_the_full_product(d, rows, seed):
    # U = L L^T: the half sweep of a palindromic stack, W^(1/2) ending the
    # odd degrees, gives the full sweep's (a, b) up to roundoff.
    gen = np.random.default_rng(seed)
    free = gen.uniform(-np.pi, np.pi, (rows, (d + 2) // 2))
    xs = np.concatenate([[-1.0, 0.0, 1.0], gen.uniform(-1.0, 1.0, 20)])
    a, b = _fold(_half_prefixes(free, d, xs)[-1])
    full = _product(_mirror(free, d), xs)
    assert np.max(np.abs(a - full[..., 0, :])) <= 1e-13
    assert np.max(np.abs(b - full[..., 1, :])) <= 1e-13


@st.composite
def phase_stacks(draw):
    """1-8 rotation-convention phase sets of one degree in 0-30, symmetric or general."""
    d = draw(st.integers(0, 30))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return [random_symmetric(gen, d) if draw(st.booleans())
            else PhaseFactorSet(gen.uniform(-np.pi, np.pi, d + 1))
            for _ in range(draw(st.integers(1, 8)))]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(phase_stacks())
def test_stacked_extract_pq_matches_the_single_call_bitwise(stack):
    pairs = extract_pq(stack)
    assert len(pairs) == len(stack)
    for psi, pair in zip(stack, pairs):
        want = reference_single_extract_pq(psi)
        assert pair.degree == psi.degree
        assert np.array_equal(pair.p, want.p) and np.array_equal(pair.q, want.q), psi.values
        alone = extract_pq([psi])[0]
        assert np.array_equal(alone.p, want.p) and np.array_equal(alone.q, want.q)


def test_stacked_extract_pq_checks_its_items():
    with pytest.raises(ValueError, match=r"one degree, got \[2, 3\]"):
        extract_pq([PhaseFactorSet([0.1, 0.2, 0.1]), PhaseFactorSet(np.zeros(4))])
    assert extract_pq([]) == []


def test_extract_pq_names_the_item_that_fails_validation(monkeypatch):
    interpolate = qsp._cheb_interpolate
    bad = {"row": 2}

    def corrupt_one_row(values, theta, degree):
        coeffs = interpolate(values, theta, degree)
        coeffs[bad["row"], 0] += 1e-6
        return coeffs

    monkeypatch.setattr(qsp, "_cheb_interpolate", corrupt_one_row)
    gen = rng(13)
    stack = [random_symmetric(gen, 6) for _ in range(4)]
    with pytest.raises(RuntimeError, match=r"P residual 1\.000e-06, .* \(item 2 of 4\)"):
        extract_pq(stack)
    bad["row"] = 3
    with pytest.raises(RuntimeError, match=r"\(item 3 of 4\)"):
        extract_pq(stack)
    bad["row"] = 0
    with pytest.raises(RuntimeError, match=r"P residual 1\.000e-06, Q residual [^(]*$"):
        extract_pq([stack[1]])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 120), st.floats(-0.2, 0.5), st.integers(0, 2**32 - 1))
def test_the_validation_grid_certifies_the_sup_of_both_residual_shapes(d, tilt, seed):
    # Both residuals of `extract_pq` are trigonometric polynomials of degree
    # <= d in theta: P(cos theta), and i sin(theta) Q(cos theta) with Q of
    # degree d - 1. On its grid of 2M equispaced angles, M = 4 max(d, 1),
    # sec(pi / 8) times the grid max bounds the sup (Ehlich and Zeller), here
    # read on 20 001 uniform angles. A negative tilt weights the top degrees.
    gen = np.random.default_rng(seed)
    coeffs = ((gen.standard_normal(d + 1) + 1j * gen.standard_normal(d + 1))
              * np.exp(-tilt * np.arange(d + 1)))
    grid = qsp._validation_grid(d)
    assert len(grid) == 4 * max(d, 1) + 1
    dense = np.cos(np.linspace(0.0, np.pi, 20001))
    for shape in (lambda x: _clenshaw(coeffs, x),
                  lambda x: 1j * np.sqrt(1.0 - x * x) * _clenshaw(coeffs[:d], x)):
        assert (np.max(np.abs(shape(dense)))
                <= np.max(np.abs(shape(grid))) / math.cos(math.pi / 8.0))


@pytest.mark.parametrize("d", [0, 1, 12, 57, 116])
@pytest.mark.parametrize("bump, raises", [(1e-9, True), (0.9e-9, False)])
def test_the_validation_gate_certifies_a_sup_of_1e_9(monkeypatch, d, bump, raises):
    # bump * T_d added to one item's P moves its residual by bump at x = 1, a
    # grid point, and by no more anywhere: 1e-9 exceeds the gate
    # 1e-9 cos(pi / 8), and 0.9e-9 stays under it.
    interpolate = qsp._cheb_interpolate

    def bump_one_p(values, theta, degree):
        coeffs = interpolate(values, theta, degree)
        if degree == d:  # P's call; Q's has degree d - 1
            coeffs[1, d] += bump
        return coeffs

    monkeypatch.setattr(qsp, "_cheb_interpolate", bump_one_p)
    gen = rng(14)
    stack = [random_symmetric(gen, d) for _ in range(3)]
    if raises:
        with pytest.raises(RuntimeError, match=r"P residual 1\.000e-09, .* \(item 1 of 3\)$"):
            extract_pq(stack)
    else:
        assert len(extract_pq(stack)) == 3


def failing_filter_build(monkeypatch, count):
    monkeypatch.setattr(chebyshev, "DEGREE_CAP", 20)
    heaviside_filter([FilterSpec(0.5, 0.6, 0.1), FilterSpec(0.5, 0.2, 1e-3)][-count:])


def failing_extraction(monkeypatch, count):
    interpolate = qsp._cheb_interpolate

    def corrupt_the_last_row(values, theta, degree):
        coeffs = interpolate(values, theta, degree)
        coeffs[-1, 0] += 1e-6
        return coeffs

    monkeypatch.setattr(qsp, "_cheb_interpolate", corrupt_the_last_row)
    gen = rng(13)
    extract_pq([random_symmetric(gen, 6) for _ in range(count)])


def failing_synthesis(monkeypatch, count):
    # The pure 0.5 T_10 target has closed-form phases; the other stalls.
    coeffs = 0.9 * extract_pq([random_symmetric(rng(9), 10)])[0].p.real
    coeffs[1::2] = 0.0
    pure = ChebyshevSeries(np.eye(11)[10] * 0.5)
    monkeypatch.setattr(qsp, "SYNTHESIS_TOL", 1e-30)
    synthesize_symmetric([pure, ChebyshevSeries(coeffs)][-count:])


@pytest.mark.parametrize("count", [1, 2])
@pytest.mark.parametrize("stage, error", [(failing_filter_build, chebyshev.UnresolvedWindowError),
                                          (failing_extraction, RuntimeError),
                                          (failing_synthesis, SynthesisError)],
                         ids=["heaviside_filter", "extract_pq", "synthesize_symmetric"])
def test_a_failure_names_its_item_only_in_a_list_of_several(monkeypatch, stage, error, count):
    # The last item fails: a list of two names it, a one-item list does not.
    with pytest.raises(error) as info:
        stage(monkeypatch, count)
    if count == 1:
        assert "item" not in str(info.value)
    else:
        assert "item 1 of 2" in str(info.value)


def test_conversion_examples():
    # Rotation phases are circuit phases plus `_circuit_offsets`: circuit
    # (0, 0) and (0, 0, 0) are rotation (-pi/4, pi/4) and (pi/4, -pi/2, pi/4),
    # and rotation (0) is circuit (-pi/4).
    offsets = qsp._circuit_offsets
    assert np.allclose(offsets(1), [-np.pi / 4, np.pi / 4])
    assert np.allclose(offsets(2), [np.pi / 4, -np.pi / 2, np.pi / 4])
    assert np.allclose(np.array([-np.pi / 4, np.pi / 4]) - offsets(1), [0.0, 0.0])
    assert np.allclose(-offsets(0), [-np.pi / 4])
    for d in range(64):
        assert np.array_equal(offsets(d), reference_circuit_offsets(d)), d


def test_conjugation_identity():
    # Negating circuit phases conjugates the signal-processing unitary
    # entrywise, at every degree >= 1.
    grid = np.linspace(-1, 1, 33)

    def deviation(values):
        offsets = reference_circuit_offsets(len(values) - 1)
        pos = batch_unitaries(values + offsets, grid)
        neg = batch_unitaries(-values + offsets, grid)
        return float(np.max(np.abs(neg - pos.conj())))

    assert deviation(np.array([0.0, 0.0])) <= 1e-10
    gen = rng(4)
    for _ in range(50):
        d = int(gen.integers(1, 21))
        values = gen.uniform(-np.pi, np.pi, d + 1)
        assert deviation(values) <= 1e-10
    assert deviation(np.array([0.2, np.pi, -0.4])) <= 1e-10


def test_symmetric_flag():
    assert PhaseFactorSet([0.1, 0.5, 0.1]).symmetric
    assert not PhaseFactorSet([0.1, 0.5, 0.2]).symmetric


def test_synthesize_identity_target():
    psi = synthesize_symmetric([ChebyshevSeries([0.0, 1.0])])[0]
    assert np.allclose(psi.values, [0.0, 0.0])


def test_synthesize_chebyshev_target():
    psi = synthesize_symmetric([ChebyshevSeries([0, 0, 0, 0, 0, 1.0])])[0]
    assert np.allclose(psi.values, np.zeros(6))


def test_synthesize_scaled_chebyshev():
    target = ChebyshevSeries([0, 0, 0, 0, 0.9])
    psi = synthesize_symmetric([target])[0]
    assert psi.symmetric
    pair = extract_pq([psi])[0]
    xs = np.linspace(-1, 1, 401)
    realized = _clenshaw(pair.p, xs).real
    assert np.max(np.abs(realized - 0.9 * np.cos(4 * np.arccos(xs)))) <= 1e-12


def test_synthesize_general_target_and_normalization():
    gen = rng(5)
    xs = np.linspace(-1, 1, 401)
    for d in (6, 11):
        source = random_symmetric(gen, d)
        coeffs = 0.95 * extract_pq([source])[0].p.real
        coeffs[(1 if d % 2 == 0 else 0)::2] = 0.0
        target = ChebyshevSeries(coeffs)
        psi = synthesize_symmetric([target])[0]
        pair = extract_pq([psi])[0]
        assert np.max(np.abs(_clenshaw(pair.p, xs).real - _clenshaw(target.coeffs, xs))) <= 1e-11
        norm = np.abs(_clenshaw(pair.p, xs)) ** 2 + (1 - xs**2) * np.abs(_clenshaw(pair.q, xs)) ** 2
        assert np.max(np.abs(norm - 1)) <= 1e-10
        # Parity: opposite-parity Chebyshev coefficients of Re P vanish.
        off = pair.p.real[(1 if d % 2 == 0 else 0)::2]
        assert np.max(np.abs(off)) <= 1e-10
        assert np.max(np.abs(pair.q.imag)) <= 1e-10


@st.composite
def synthesis_targets(draw):
    """A minimax filter, or Re P of random symmetric phases scaled below 1."""
    if draw(st.booleans()):
        return heaviside_filter([draw(filter_specs())])[0]
    d = draw(st.integers(1, 120))
    scale = 1.0 - 10.0 ** draw(st.floats(-6.0, -0.5))
    source = random_symmetric(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), d)
    coeffs = scale * extract_pq([source])[0].p.real
    coeffs[(d + 1) % 2::2] = 0.0
    return ChebyshevSeries(coeffs)


# `derandomize` seeds from a hash of the test's source, so an edited body
# draws other targets. This seed is the one it derived from the body before
# `synthesize_symmetric` lost its tolerance argument, and keeps those 30
# targets. Another draw can hit a filter at the budget floor whose synthesis
# stalls, as `phases` {"mu": 0.8125, "delta": 0.328125, "eps": 8.1e-8} does.
@seed(38249639985805191125463901567435815602381738777365179865727210646090685593595730811772922560196671617468461846964728)
@settings(max_examples=30, deadline=None, derandomize=True)
@given(synthesis_targets())
def test_synthesis_meets_the_2d_node_contract(target):
    psi = synthesize_symmetric([target])[0]
    d = target.degree
    xs = np.cos((2 * np.arange(1, 2 * d + 1) - 1) * np.pi / (4 * d))
    assert psi.symmetric and psi.degree == d
    realized = batch_unitaries(psi.values, xs)[:, 0, 0].real
    assert np.max(np.abs(realized - _clenshaw(target.coeffs, xs))) <= SYNTHESIS_TOL


def test_the_contract_check_sweeps_the_whole_mirrored_sequence(monkeypatch):
    # The check reads the mirrored phases with the full sweep, not with the
    # half sweep that Newton solved on: a full sweep that misreads the
    # phases by 1e-9 fails it.
    targets = [ChebyshevSeries([0.1, 0, 0.5, 0, 0.2]), ChebyshevSeries([-0.3, 0, 0.4, 0, 0.1])]
    swept = []

    def recording(values, xs):
        swept.append(values.copy())
        return _product(values, xs)

    monkeypatch.setattr(qsp, "_product", recording)
    phases = synthesize_symmetric(targets)
    assert len(swept) == 1 and np.array_equal(swept[0], [psi.values for psi in phases])
    monkeypatch.setattr(qsp, "_product", lambda values, xs: _product(values + 1e-9, xs))
    with pytest.raises(SynthesisError, match="item 0 of 2"):
        synthesize_symmetric(targets)


def test_synthesis_stall_raises_with_its_history(monkeypatch):
    monkeypatch.setattr(qsp, "SYNTHESIS_TOL", 1e-30)
    gen = rng(9)
    coeffs = 0.9 * extract_pq([random_symmetric(gen, 10)])[0].p.real
    coeffs[1::2] = 0.0
    target = ChebyshevSeries(coeffs)
    with pytest.raises(SynthesisError, match="stalled") as info:
        synthesize_symmetric([target])
    alone = info.value.history
    assert alone and min(alone) > 2.5e-31 and info.value.index == 0
    # In a stack, a pure 0.5 T_10 target has closed-form phases and cannot
    # stall, so the error names the second item and carries its own history.
    pure = ChebyshevSeries(np.eye(11)[10] * 0.5)
    with pytest.raises(SynthesisError, match="item 1 of 2") as info:
        synthesize_symmetric([pure, target])
    assert info.value.index == 1 and info.value.history == alone


def half_residual(free, d, xs, target):
    """Residuals Re P(x_j) - f(x_j) from the half product alone."""
    a, _ = _fold(_half_prefixes(free, d, xs)[-1])
    return a.real - target


def reference_newton(free, d, xs, target, tol, history, max_iters=80, sweep=None):
    """Damped Newton on one target, the reference for the stacked solver.

    A scalar step length halved up to 30 times, a stop at `tol`, and a stall
    when no halving lowers the max residual. `sweep` maps free phases to
    their residuals and Jacobian, by default from the half sweep.
    """
    if sweep is None:
        def sweep(free):
            return _newton_system(_half_prefixes(free, d, xs), d, target)
    r, jac = sweep(free)
    for _ in range(max_iters):
        cur = float(np.max(np.abs(r)))
        history.append(cur)
        if cur <= tol:
            break
        step = np.linalg.solve(jac, -r)
        t = 1.0
        for _ in range(30):
            trial = free + t * step
            trial_r, trial_jac = sweep(trial)
            if float(np.max(np.abs(trial_r))) < cur:
                free, r, jac = trial, trial_r, trial_jac
                break
            t *= 0.5
        else:
            break
    return free


def full_sweep_system(free, d, xs, target):
    """Residuals and Jacobian from every partial product of the mirrored phases.

    With the prefix pair A_k = (a_k, b_k) of factors 0..k and the full
    product U = (a, b), d(Re P)/d(psi_k) = -Im((|a_k|^2 - |b_k|^2) a
    + 2 a_k b_k conj(b)) at every position k, and mirrored positions add
    into their free phase.
    """
    prefix = reference_forward_pairs(_mirror(free, d), xs)
    pa, pb = prefix[..., 0, :], prefix[..., 1, :]
    a, b = pa[d], pb[d]
    weight = (pa * pa.conj()).real - (pb * pb.conj()).real
    grad_full = -(weight * a + 2.0 * pa * pb * b.conj()).imag
    m = (d + 2) // 2
    jac_t = grad_full[:m].copy()
    jac_t[: d + 1 - m] += grad_full[m:][::-1]
    return a.real - target, np.moveaxis(jac_t, 0, -1)


def newton_start(targets):
    """`_damped_newton`'s inputs for a list of targets of one degree d."""
    d = targets[0].degree
    m = (d + 2) // 2
    xs = np.cos((2.0 * np.arange(1, m + 1) - 1.0) * math.pi / (4.0 * m))
    x0 = np.zeros((len(targets), m))
    x0[:, 0] = math.pi / 4.0
    return x0, d, xs, np.array([_clenshaw(f.coeffs, xs) for f in targets])


def padded_to_one_degree(filters) -> list:
    degree = max(f.degree for f in filters)
    return [ChebyshevSeries(np.pad(f.coeffs, (0, degree - f.degree))) for f in filters]


@pytest.mark.parametrize("count", [2, 4, 8, 16])
def test_batched_synthesis_matches_the_per_split_loop_bitwise(count):
    targets = padded_to_one_degree(layout_filters(count))
    phases = synthesize_symmetric(targets)
    x0, d, xs, values = newton_start(targets)
    assert len(phases) == len(targets)
    for psi, start, target, series in zip(phases, x0, values, targets):
        free = reference_newton(start, d, xs, target, 0.25 * SYNTHESIS_TOL, [])
        assert np.array_equal(psi.values, _mirror(free, d))
        assert np.array_equal(psi.values, synthesize_symmetric([series])[0].values)


@st.composite
def shared_degree_targets(draw):
    """2-6 even targets of one degree, scaled below 1.

    Re P of random symmetric phases converges from the standard start in a
    few full steps; random Chebyshev coefficients often need the line
    search and may stall, each at its own iteration.
    """
    d = 2 * draw(st.integers(1, 30))
    grid = np.linspace(-1.0, 1.0, 4001)
    targets = []
    for _ in range(draw(st.integers(2, 6))):
        gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        if draw(st.booleans()):
            coeffs = extract_pq([random_symmetric(gen, d)])[0].p.real
        else:
            coeffs = gen.standard_normal(d + 1)
        coeffs[1::2] = 0.0
        scale = (1.0 - 10.0 ** draw(st.floats(-6.0, -0.5))) / np.max(np.abs(_clenshaw(coeffs, grid)))
        targets.append(ChebyshevSeries(scale * coeffs))
    return targets


@settings(max_examples=15, deadline=None, derandomize=True)
@given(shared_degree_targets())
def test_batched_newton_matches_the_per_target_loop_on_random_stacks(targets):
    x0, d, xs, values = newton_start(targets)
    histories = [[] for _ in targets]
    free = _damped_newton(x0, d, xs, values, 2.5e-12, histories)
    for row, start, target, history in zip(free, x0, values, histories):
        alone = []
        assert np.array_equal(row, reference_newton(start, d, xs, target, 2.5e-12, alone))
        assert history == alone


def test_a_stack_of_copies_takes_the_sweeps_of_one_target(monkeypatch):
    target = padded_to_one_degree(layout_filters(4))[0]
    sweeps = []

    def counting(free, d, xs):
        sweeps.append(free.shape)
        return _half_prefixes(free, d, xs)

    monkeypatch.setattr(qsp, "_half_prefixes", counting)
    alone = synthesize_symmetric([target])[0]
    single = len(sweeps)
    sweeps.clear()
    stacked = synthesize_symmetric([target] * 7)
    assert len(sweeps) == single > 2
    assert all(shape[0] == 7 for shape in sweeps)
    assert all(np.array_equal(psi.values, alone.values) for psi in stacked)


def test_synthesize_rejects_targets_of_different_degrees():
    with pytest.raises(ValueError, match="one degree"):
        synthesize_symmetric([ChebyshevSeries([0.1, 0.0, 0.2]),
                              ChebyshevSeries([0.1, 0.0, 0.2, 0.0, 0.1])])


def test_synthesize_rejects_margin_violation():
    coeffs = np.zeros(5)
    coeffs[0] = 0.6
    coeffs[2] = 0.3
    coeffs[4] = 0.2  # sup-norm above 1 - 1e-8 at x = 1
    with pytest.raises(ValueError, match="margin"):
        synthesize_symmetric([ChebyshevSeries(coeffs)])


def test_synthesize_rejects_mixed_parity():
    # The degree fixes the parity: every coefficient of the other parity must
    # stay within PARITY_TOL of 0, and a list names the offending item.
    message = "synthesis target of degree {} has a coefficient {} of the other parity"
    with pytest.raises(ValueError, match=re.escape(message.format(1, "1.000e-01"))
                       + r" \(tolerance 1e-12\)$"):
        synthesize_symmetric([ChebyshevSeries([0.1, 0.2])])
    with pytest.raises(ValueError, match=re.escape(message.format(2, "5.000e-01"))
                       + r" \(tolerance 1e-12\) \(item 1 of 2\)$"):
        synthesize_symmetric([ChebyshevSeries([0.1, 0.0, 0.2]),
                              ChebyshevSeries([0.0, 0.5, 0.0])])
    with pytest.raises(ValueError, match=re.escape(message.format(2, "2.000e-12"))):
        synthesize_symmetric([ChebyshevSeries([0.1, 2e-12, 0.2])])
    # Within the tolerance, a target synthesizes.
    synthesize_symmetric([ChebyshevSeries([0.1, 1e-12, 0.2])])


def test_gradient_matches_finite_differences():
    # Even degrees exercise the halved middle phase, odd ones the W^(1/2) end.
    gen = rng(6)
    for d in (1, 2, 9, 10, 184):
        xs = np.cos((2 * np.arange(1, d + 1) - 1) * np.pi / (4 * d))
        target = 0.4 * xs
        free = gen.uniform(-0.6, 0.6, (d + 2) // 2)
        _, jac = _newton_system(_half_prefixes(free, d, xs), d, target)
        step = 1e-6
        for i in range(len(free)):
            up, down = free.copy(), free.copy()
            up[i] += step
            down[i] -= step
            numeric = (half_residual(up, d, xs, target)
                       - half_residual(down, d, xs, target)) / (2 * step)
            scale = max(1.0, np.max(np.abs(numeric)))
            assert np.max(np.abs(jac[:, i] - numeric)) <= 1e-6 * scale, (d, i)


@pytest.mark.parametrize("d", [1, 2, 10, 184])
def test_residual_matches_unitary_entry(d):
    gen = rng(8)
    xs = np.cos((2 * np.arange(1, d + 1) - 1) * np.pi / (4 * d))
    target = 0.3 * xs
    free = gen.uniform(-np.pi, np.pi, (d + 2) // 2)
    expected = batch_unitaries(_mirror(free, d), xs)[:, 0, 0].real - target
    r, _ = _newton_system(_half_prefixes(free, d, xs), d, target)
    assert np.max(np.abs(half_residual(free, d, xs, target) - expected)) <= 1e-13
    assert np.array_equal(r, half_residual(free, d, xs, target))


@pytest.mark.parametrize("d", [1, 2, 9, 10, 116, 184])
def test_half_sweep_system_matches_the_full_sweep(d):
    # The Jacobian's terms of the two occurrences of a free phase are equal,
    # so the half sweep counts one of them twice.
    gen = rng(10)
    xs = np.cos((2 * np.arange(1, d + 1) - 1) * np.pi / (4 * d))
    target = 0.3 * xs
    free = gen.uniform(-np.pi, np.pi, (3, (d + 2) // 2))
    r, jac = _newton_system(_half_prefixes(free, d, xs), d, target)
    want_r, want_jac = full_sweep_system(free, d, xs, target)
    assert np.max(np.abs(r - want_r)) <= 1e-13
    assert np.max(np.abs(jac - want_jac)) <= 1e-13 * max(1.0, np.max(np.abs(want_jac)))


def test_half_sweep_newton_matches_the_full_sweep_newton():
    # The full sweep's Newton, the solver before the half sweep, lands on
    # the same layout phases up to roundoff.
    targets = padded_to_one_degree(layout_filters(8))
    x0, d, xs, values = newton_start(targets)
    for start, target in zip(x0, values):
        half = reference_newton(start, d, xs, target, 0.25 * SYNTHESIS_TOL, [])
        full = reference_newton(start, d, xs, target, 0.25 * SYNTHESIS_TOL, [],
                                sweep=lambda free: full_sweep_system(free, d, xs, target))
        assert np.max(np.abs(half - full)) <= 1e-11


@pytest.mark.parametrize("count", [2, 4, 8, 16])
def test_layout_phases_realize_their_filters_through_extract_pq(count):
    # `extract_pq` reads the phases with the full sweep, an oracle that
    # shares no kernel with the half sweep that synthesized them.
    targets = padded_to_one_degree(layout_filters(count))
    phases = synthesize_symmetric(targets)
    d = targets[0].degree
    xs = np.cos((2 * np.arange(1, 2 * d + 1) - 1) * np.pi / (4 * d))
    for target, pair in zip(targets, extract_pq(phases)):
        realized = _clenshaw(pair.p, xs).real
        assert np.max(np.abs(realized - _clenshaw(target.coeffs, xs))) <= SYNTHESIS_TOL


def random_even_target(seed: int, sup: float) -> ChebyshevSeries:
    """An even degree-40 series of standard normal coefficients, scaled to sup-norm `sup`."""
    coeffs = np.random.default_rng(seed).standard_normal(41)
    coeffs[1::2] = 0.0
    coeffs *= sup / np.max(np.abs(_clenshaw(coeffs, np.linspace(-1.0, 1.0, 4001))))
    return ChebyshevSeries(coeffs)


# Seeds 0-19 whose target at sup-norm 0.9999 synthesizes; 13 and 14 stall
# from the standard start.
CONVERGING_SEEDS = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 15, 16, 17, 18, 19]


def test_random_targets_near_sup_norm_one_synthesize():
    for seed in CONVERGING_SEEDS:
        target = random_even_target(seed, 0.9999)
        psi = synthesize_symmetric([target])[0]
        xs = np.cos((2 * np.arange(1, 81) - 1) * np.pi / 160)
        realized = _clenshaw(extract_pq([psi])[0].p, xs).real
        assert np.max(np.abs(realized - _clenshaw(target.coeffs, xs))) <= 1e-11, seed


def test_phase_set_json_round_trip(tmp_path):
    # `phases_circuit.json` is `phases_su2.json` minus the circuit offsets, bit for bit.
    spec = FilterSpec(0.5, 0.6, 0.1)
    psi = synthesize_symmetric(heaviside_filter([spec]))[0]
    docs = phases_artifacts(tmp_path, spec)
    su2, circuit = docs["phases_su2.json"], docs["phases_circuit.json"]
    assert su2["convention"] == "su2" and circuit["convention"] == "circuit"
    values = np.array(su2["values"])
    assert np.array_equal(values, psi.values)
    assert np.array_equal(np.array(circuit["values"]),
                          values - reference_circuit_offsets(psi.degree))
