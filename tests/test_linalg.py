import json

import numpy as np
import pytest

from fqsvt import linalg
from fqsvt.cli import MATRIX, _encode_json, _read, matrix_to_json
from fqsvt.linalg import (
    SAMPLE_UNIFORMS,
    check_hermitian,
    eigh,
    haar_vector,
    hermitian_from_spectrum,
    random_hermitian,
    rng,
    trace_norm,
)


def reconstruct(spec) -> np.ndarray:
    return (spec.vectors * spec.values) @ spec.vectors.conj().T


def test_eigh_diagonal_sorts_ascending():
    spec = eigh(np.diag([0.9, 0.1]))
    assert np.allclose(spec.values, [0.1, 0.9])
    assert np.allclose(np.abs(spec.vectors), [[0, 1], [1, 0]])


def test_eigh_pauli_x():
    spec = eigh(np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.allclose(spec.values, [-1.0, 1.0])
    v0 = spec.vectors[:, 0] * np.sign(spec.vectors[0, 0])
    v1 = spec.vectors[:, 1] * np.sign(spec.vectors[0, 1])
    assert np.allclose(v0, [1 / np.sqrt(2), -1 / np.sqrt(2)])
    assert np.allclose(v1, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_eigh_random_reconstruction():
    gen = rng(3)
    h = random_hermitian(8, gen)
    spec = eigh(h)
    scale = max(1.0, np.max(np.abs(h)))
    assert np.max(np.abs(reconstruct(spec) - h)) <= 1e-10 * scale


def test_eigh_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        eigh(np.ones((2, 3)))


def test_eigh_rejects_non_hermitian_with_entry():
    bad = np.array([[1.0, 2.0], [0.5, 1.0]])
    with pytest.raises(ValueError, match=r"\(0, 1\)|\(1, 0\)"):
        eigh(bad)


@pytest.mark.parametrize("dim", [1, 2, 4, 16])
def test_eigh_stack_equals_per_matrix_calls(dim):
    gen = rng(21, dim)
    stack = np.array([random_hermitian(dim, gen) for _ in range(6)]).reshape(2, 3, dim, dim)
    spec = eigh(stack)
    assert spec.values.shape == (2, 3, dim)
    for i in range(2):
        for j in range(3):
            single = eigh(stack[i, j])
            assert np.array_equal(spec.values[i, j], single.values)
            assert np.array_equal(spec.vectors[i, j], single.vectors)


def test_eigh_stack_names_the_non_hermitian_matrix_and_entry():
    stack = np.array([random_hermitian(3, rng(22)) for _ in range(5)])
    stack[3, 2, 0] += 1e-6
    with pytest.raises(ValueError, match=r"^matrix 3 of the stack is not Hermitian: "
                                         r"entry \((2, 0|0, 2)\) deviates .* by 1\.000e-06$"):
        eigh(stack)
    with pytest.raises(ValueError, match="square"):
        eigh(np.ones((2, 2, 3)))


def test_eigh_stack_tolerance_is_per_matrix():
    # The same 1e-8 deviation is within tolerance at scale 1e3, not at scale 1.
    large = np.diag([1e3, 0.0]).astype(complex)
    small = np.eye(2, dtype=complex)
    large[0, 1] = small[0, 1] = 1e-8
    eigh(np.array([large, large]))
    with pytest.raises(ValueError, match="matrix 1 of the stack"):
        eigh(np.array([large, small]))


@pytest.mark.parametrize("amplitude", [1e-3, 1e3])
@pytest.mark.parametrize("dim", [1, 2, 4, 16])
def test_a_matrix_and_its_one_item_stack_get_the_same_verdict(monkeypatch, dim, amplitude):
    # A skew entry sets the deviation; the tolerance sits just either side of
    # deviation / max(1, max|H|), on both sides of the scale's floor of 1.
    h = amplitude * random_hermitian(dim, rng(23, dim))
    h[0, -1] += 1e-7j * amplitude
    dev = np.max(np.abs(h - h.conj().T))
    ratio = dev / max(1.0, np.max(np.abs(h)))
    monkeypatch.setattr(linalg, "HERMITIAN_TOL", ratio * (1 + 1e-9))
    check_hermitian(h)
    check_hermitian(h[np.newaxis])
    monkeypatch.setattr(linalg, "HERMITIAN_TOL", ratio * (1 - 1e-9))
    messages = []
    for case in (h, h[np.newaxis]):
        with pytest.raises(ValueError) as info:
            check_hermitian(case)
        messages.append(str(info.value))
    assert messages[0].startswith("matrix is not Hermitian: entry (")
    assert messages[1] == messages[0].replace("matrix", "matrix 0 of the stack", 1)


def test_eigh_reconstruction_sweep():
    # 1000 random Hermitian matrices up to 32x32, residual <= 1e-10, plus the
    # 1x1 matrix, the zero matrix and a rank-2 projector (exactly degenerate).
    gen = rng(4)
    cases = [random_hermitian(int(gen.integers(2, 33)), gen) for _ in range(1000)]
    basis = eigh(random_hermitian(4, gen)).vectors[:, :2]
    special = [np.array([[0.7]]), np.zeros((5, 5)), basis @ basis.conj().T]
    worst = 0.0
    for h in cases + special:
        spec = eigh(h)
        scale = max(1.0, np.max(np.abs(h)))
        worst = max(worst, np.max(np.abs(reconstruct(spec) - h)) / scale)
        assert np.all(np.diff(spec.values) >= 0)
        gram = spec.vectors.conj().T @ spec.vectors
        assert np.max(np.abs(gram - np.eye(len(h)))) <= 1e-12
    assert worst <= 1e-10
    assert np.array_equal(eigh(special[0]).values, [0.7])
    assert np.array_equal(eigh(special[1]).values, np.zeros(5))
    assert np.allclose(eigh(special[2]).values, [0.0, 0.0, 1.0, 1.0], atol=1e-12)


def test_trace_norm_identity_zero_rank1():
    assert trace_norm(np.eye(7)) == pytest.approx(7.0, abs=1e-12)
    assert trace_norm(np.zeros((3, 5))) == 0.0
    assert trace_norm(np.diag([-0.3, 0.5])) == pytest.approx(0.8, abs=1e-15)
    u = haar_vector(rng(1), 4)
    v = haar_vector(rng(2), 4)
    assert trace_norm(np.outer(u, v.conj())) == pytest.approx(1.0, abs=1e-10)


def test_trace_norm_unitary_invariance():
    gen = rng(8)
    a = gen.standard_normal((5, 5)) + 1j * gen.standard_normal((5, 5))
    u = eigh(random_hermitian(5, gen)).vectors
    w = eigh(random_hermitian(5, gen)).vectors
    assert trace_norm(u @ a @ w) == pytest.approx(trace_norm(a), abs=1e-10)


def test_haar_vector_matches_legacy_draw_order():
    # Real parts first, then imaginary parts: the draw order that keeps haar
    # inputs and channel-distance samples identical for a given seed.
    for seed, stream, dim in ((0, 0, 1), (7, 2, 4), (110, 3, 16)):
        gen = rng(seed, stream)
        z = gen.standard_normal(dim) + 1j * gen.standard_normal(dim)
        assert np.array_equal(haar_vector(rng(seed, stream), dim), z / np.linalg.norm(z))


@pytest.mark.parametrize("draw", ["standard_normal", "random"])
@pytest.mark.parametrize("a, b, width", [(1, 1, 1), (7, 250, 5), (256, 3, 32), (3, 0, 4)])
def test_purpose_stream_draws_are_chunk_invariant(draw, a, b, width):
    # The block contract: trial t reads row t whatever the chunking, so an
    # (a + b, w) draw must equal an (a, w) draw followed by a (b, w) draw.
    whole = getattr(rng(5, SAMPLE_UNIFORMS), draw)((a + b, width))
    gen = rng(5, SAMPLE_UNIFORMS)
    parts = [getattr(gen, draw)((a, width)), getattr(gen, draw)((b, width))]
    assert np.array_equal(whole, np.concatenate(parts))


def test_haar_state_reproducible_and_distinct():
    a = haar_vector(rng(7), 2)
    b = haar_vector(rng(7), 2)
    c = haar_vector(rng(8), 2)
    assert np.array_equal(a, b)
    assert not np.allclose(a, c)
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)


def test_haar_state_component_moments():
    # |a_i|^2 is Beta(1, K-1) under the flat measure: mean 1/K,
    # second moment 2/(K(K+1)).
    qubits, draws = 2, 10000
    dim = 2**qubits
    mags = np.empty((draws, dim))
    for t in range(draws):
        mags[t] = np.abs(haar_vector(rng(42, t), dim)) ** 2
    mean = mags.mean()
    var_single = (dim - 1) / (dim**2 * (dim + 1))
    sigma = np.sqrt(var_single / (draws * dim))
    assert abs(mean - 1.0 / dim) <= 3 * sigma
    second = (mags**2).mean()
    assert second == pytest.approx(2.0 / (dim * (dim + 1)), rel=0.05)


def test_haar_state_unitary_invariance_statistic():
    gen = rng(9)
    u = eigh(random_hermitian(4, gen)).vectors
    probe = np.zeros(4, dtype=complex)
    probe[0] = 1.0
    raw, rotated = [], []
    for t in range(4000):
        amp = haar_vector(rng(13, t), 4)
        raw.append(abs(np.vdot(probe, amp)) ** 2)
        rotated.append(abs(np.vdot(probe, u @ amp)) ** 2)
    # Overlap statistics with any fixed state agree within Monte Carlo error.
    se = np.std(raw) / np.sqrt(len(raw))
    assert abs(np.mean(raw) - np.mean(rotated)) <= 4 * se


def test_matrix_json_round_trip():
    gen = rng(10)
    a = gen.standard_normal((3, 2)) + 1j * gen.standard_normal((3, 2))
    doc = matrix_to_json(a)
    assert doc["rows"] == 3 and doc["cols"] == 2
    assert np.array_equal(_read(MATRIX, json.loads(_encode_json(doc, "m.json")), "matrix"), a)


def test_hermitian_from_spectrum_matches_values():
    gen = rng(11)
    values = [0.1, 0.4, 0.7, 0.9]
    h = hermitian_from_spectrum(values, gen)
    assert np.allclose(eigh(h).values, values)
