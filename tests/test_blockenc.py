"""Block encodings, and the cosine-sine factors of the symmetric dilation.

The library uses the dilation's factors only in closed form (V2 = V and
W2 = -V, inside `qsvt.predicted_blocks`). `CsdFactors` and `csd_factors`
below solve the block equations explicitly and assert the reassembly
identity; `test_qsvt` builds its reference sector table from them.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from fqsvt.blockenc import _check_encoding, _check_unitary, dilate_hermitian
from fqsvt.linalg import check_hermitian, dagger, eigh, hermitian_from_spectrum, rng


@dataclass
class CsdFactors:
    """Cosine-sine factors of a symmetric dilation: U = diag(V, W2) M diag(V, V2)^dag.

    For the positive semidefinite case the left and right system-space
    factors coincide with the eigenvector matrix V. When an eigenvalue sits
    at 1 the completion blocks are not unique.
    """

    v: np.ndarray
    sigma: np.ndarray
    s: np.ndarray
    w2: np.ndarray
    v2: np.ndarray

    def middle(self) -> np.ndarray:
        n = len(self.sigma)
        mid = np.zeros((2 * n, 2 * n), dtype=complex)
        mid[:n, :n] = np.diag(self.sigma)
        mid[:n, n:] = np.diag(self.s)
        mid[n:, :n] = -np.diag(self.s)
        mid[n:, n:] = np.diag(self.sigma)
        return mid

    def reassemble(self) -> np.ndarray:
        n = len(self.sigma)
        left = np.zeros((2 * n, 2 * n), dtype=complex)
        left[:n, :n] = self.v
        left[n:, n:] = self.w2
        right = np.zeros((2 * n, 2 * n), dtype=complex)
        right[:n, :n] = self.v
        right[n:, n:] = self.v2
        return left @ self.middle() @ dagger(right)


def csd_factors(enc: np.ndarray, h: np.ndarray) -> CsdFactors:
    """Cosine-sine factors of the symmetric dilation of H, checked by reassembly.

    Solving the block equations for [[H, S], [S, -H]] with H = V Sigma V^dag
    gives V2 = V and W2 = -V; the reassembly identity is asserted before
    returning.
    """
    spectrum = eigh(check_hermitian(h))
    sigma = spectrum.values.copy()
    svals = np.sqrt(np.clip(1.0 - sigma**2, 0.0, None))
    v = spectrum.vectors
    factors = CsdFactors(v=v, sigma=sigma, s=svals, w2=-v, v2=v.copy())
    dev = float(np.max(np.abs(factors.reassemble() - enc)))
    if dev > 1e-9:
        raise ValueError(
            f"cosine-sine reassembly deviates from the encoding by {dev:.3e}; "
            "the encoding does not match the symmetric dilation of H"
        )
    return factors


def test_scalar_dilation():
    enc = dilate_hermitian(np.array([[0.6]]))
    assert np.allclose(enc, [[0.6, 0.8], [0.8, -0.6]])
    assert enc.shape == (2, 2) and enc.dtype == complex


def test_identity_dilation_has_zero_sine_block():
    enc = dilate_hermitian(np.eye(2))
    expected = np.block([[np.eye(2), np.zeros((2, 2))], [np.zeros((2, 2)), -np.eye(2)]])
    assert np.allclose(enc, expected)


def test_dilation_unitarity():
    u = dilate_hermitian(np.diag([0.1, 0.9]))
    assert np.max(np.abs(dagger(u) @ u - np.eye(4))) <= 1e-12


def test_dilation_rejects_out_of_range_spectrum():
    with pytest.raises(ValueError, match="offending eigenvalue"):
        dilate_hermitian(np.diag([0.5, 1.2]))
    with pytest.raises(ValueError, match="offending eigenvalue"):
        dilate_hermitian(np.diag([-0.1, 0.5]))


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_stacked_dilation_equals_one_matrix_calls_bitwise(n):
    # A (2, 3) stack: one `eigh` for all six, and each dilation keeps every bit.
    gen = rng(3, n)
    hs = np.array([[hermitian_from_spectrum(gen.uniform(0.0, 1.0, n), gen) for _ in range(3)]
                   for _ in range(2)])
    encs = dilate_hermitian(hs)
    assert encs.shape == (2, 3, 2 * n, 2 * n)
    for index in np.ndindex(2, 3):
        assert encs[index].tobytes() == dilate_hermitian(hs[index]).tobytes()


def test_stacked_dilation_names_the_offending_matrix():
    hs = np.array([[np.diag([0.1, 0.9]), np.diag([0.2, 0.8])],
                   [np.diag([0.3, 0.7]), np.diag([0.5, 1.2])]])
    with pytest.raises(ValueError, match=r"^spectrum of matrix 1, 1 of the stack must lie in "
                                         r"\[0, 1\] for the symmetric dilation; offending "
                                         r"eigenvalue 1.2$"):
        dilate_hermitian(hs)
    hs[0, 1] = np.diag([-0.1, 0.5])
    with pytest.raises(ValueError, match=r"^spectrum of matrix 0, 1 of the stack .* -0.1$"):
        dilate_hermitian(hs)


def test_dilation_takes_a_nested_list():
    h = [[0.2, 0.1 - 0.05j], [0.1 + 0.05j, 0.8]]
    assert np.array_equal(dilate_hermitian(h), dilate_hermitian(np.array(h)))


def test_encoded_block_inverts_dilation():
    gen = rng(1)
    h = hermitian_from_spectrum([0.2, 0.5, 0.7, 0.9], gen)
    enc = dilate_hermitian(h)
    assert np.max(np.abs(enc[:4, :4] - h)) <= 1e-12


def test_encoded_block_identity_unitary():
    enc = _check_encoding(np.eye(2))
    assert enc.dtype == complex and np.allclose(enc[:1, :1], [[1.0]])


def test_encoded_block_norm_bound_for_random_unitary():
    gen = rng(2)
    u = eigh(hermitian_from_spectrum(gen.uniform(0, 1, 4), gen)).vectors
    enc = _check_encoding(u)
    assert np.linalg.norm(enc[:2, :2], 2) <= 1.0 + 1e-12


def test_block_encoding_rejects_non_unitary():
    with pytest.raises(ValueError, match="not unitary"):
        _check_encoding(np.diag([1.0, 0.5]))


def test_unitarity_check_names_the_offending_matrix_of_a_stack():
    stack = np.array([np.eye(2), np.eye(2), np.diag([1.0, 0.5])])
    with pytest.raises(ValueError, match=r"^matrix 2 of the stack is not unitary: "
                                         r"\|\|U\^dag U - I\|\|_max = 7\.500e-01$"):
        _check_unitary(stack)


@pytest.mark.parametrize("u", [np.eye(3), np.eye(4)[:, :2], np.eye(2)[0], np.zeros((0, 0))],
                         ids=["odd", "not-square", "vector", "empty"])
def test_block_encoding_rejects_shapes_other_than_even_square(u):
    with pytest.raises(ValueError, match="square unitary of even size"):
        _check_encoding(u)


def test_csd_diagonal_case():
    h = np.diag([0.1, 0.9])
    factors = csd_factors(dilate_hermitian(h), h)
    assert np.allclose(factors.v2, np.eye(2))
    assert np.allclose(factors.w2, -np.eye(2))
    assert np.allclose(factors.sigma, [0.1, 0.9])


def test_csd_reassembly_random():
    gen = rng(3)
    h = hermitian_from_spectrum(gen.uniform(0.05, 0.95, 4), gen)
    enc = dilate_hermitian(h)
    factors = csd_factors(enc, h)
    assert np.max(np.abs(factors.reassemble() - enc)) <= 1e-10
    assert np.allclose(factors.sigma, eigh(h).values)
    assert np.max(np.abs(factors.sigma**2 + factors.s**2 - 1.0)) <= 1e-12


def test_csd_flags_near_singular_sine():
    h = np.diag([0.5, 1.0 - 1e-8])
    factors = csd_factors(dilate_hermitian(h), h)
    # The sine of the top eigenvalue is about 1.4e-4: reassembly still holds.
    assert factors.s[1] < 1e-3
    assert np.max(np.abs(factors.reassemble() - dilate_hermitian(h))) <= 1e-9


def test_qubitized_middle_block_structure():
    gen = rng(4)
    n = 4
    h = hermitian_from_spectrum(gen.uniform(0.1, 0.9, n), gen)
    factors = csd_factors(dilate_hermitian(h), h)
    mid = factors.middle()
    # Sector-major index j (system fast, ancilla slow) to the per-eigenvalue
    # 2x2 ordering: row 2j picks original row j, row 2j+1 picks row n + j.
    perm = [j // 2 + (j % 2) * n for j in range(2 * n)]
    permuted = mid[np.ix_(perm, perm)]
    expected = np.zeros((2 * n, 2 * n), dtype=complex)
    for j in range(n):
        c, s = factors.sigma[j], factors.s[j]
        expected[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = [[c, s], [-s, c]]
    assert np.max(np.abs(permuted - expected)) <= 1e-12

