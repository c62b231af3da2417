import numpy as np
import pytest

from fqsvt.blockenc import (
    BlockEncoding,
    csd_factors,
    dilate_hermitian,
    encoded_block,
)
from fqsvt.linalg import dagger, eigh, hermitian_from_spectrum, rng


def test_scalar_dilation():
    enc = dilate_hermitian(np.array([[0.6]]))
    assert np.allclose(enc.unitary, [[0.6, 0.8], [0.8, -0.6]])
    assert enc.m == 1 and enc.alpha == 1.0


def test_identity_dilation_has_zero_sine_block():
    enc = dilate_hermitian(np.eye(2))
    expected = np.block([[np.eye(2), np.zeros((2, 2))], [np.zeros((2, 2)), -np.eye(2)]])
    assert np.allclose(enc.unitary, expected)


def test_dilation_unitarity():
    enc = dilate_hermitian(np.diag([0.1, 0.9]))
    u = enc.unitary
    assert np.max(np.abs(dagger(u) @ u - np.eye(4))) <= 1e-12


def test_dilation_rejects_out_of_range_spectrum():
    with pytest.raises(ValueError, match="offending eigenvalue"):
        dilate_hermitian(np.diag([0.5, 1.2]))
    with pytest.raises(ValueError, match="offending eigenvalue"):
        dilate_hermitian(np.diag([-0.1, 0.5]))


def test_encoded_block_inverts_dilation():
    gen = rng(1)
    h = hermitian_from_spectrum([0.2, 0.5, 0.7, 0.9], gen)
    enc = dilate_hermitian(h)
    assert np.max(np.abs(encoded_block(enc) - h)) <= 1e-12


def test_encoded_block_identity_unitary():
    enc = BlockEncoding(np.eye(2, dtype=complex), m=1, alpha=1.0, encoded_dim=1)
    assert np.allclose(encoded_block(enc), [[1.0]])


def test_encoded_block_norm_bound_for_random_unitary():
    gen = rng(2)
    u = eigh(hermitian_from_spectrum(gen.uniform(0, 1, 4), gen)).vectors
    enc = BlockEncoding(u, m=1, alpha=1.0, encoded_dim=2)
    assert np.linalg.norm(encoded_block(enc), 2) <= 1.0 + 1e-12


def test_block_encoding_rejects_non_unitary():
    with pytest.raises(ValueError, match="not unitary"):
        BlockEncoding(np.diag([1.0, 0.5]), m=1, alpha=1.0, encoded_dim=1)


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
    assert np.max(np.abs(factors.reassemble() - enc.unitary)) <= 1e-10
    assert np.allclose(factors.sigma, eigh(h).values)
    assert np.max(np.abs(factors.sigma**2 + factors.s**2 - 1.0)) <= 1e-12


def test_csd_flags_near_singular_sine():
    h = np.diag([0.5, 1.0 - 1e-8])
    factors = csd_factors(dilate_hermitian(h), h)
    # The sine of the top eigenvalue is about 1.4e-4: reassembly still holds.
    assert factors.s[1] < 1e-3
    assert np.max(np.abs(factors.reassemble() - dilate_hermitian(h).unitary)) <= 1e-9


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

