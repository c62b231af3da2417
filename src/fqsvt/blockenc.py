"""Unitary block encodings of Hermitian matrices and their cosine-sine factors.

Only the single-ancilla symmetric dilation [[H, S], [S, -H]] with
S = sqrt(I - H^2) is constructed natively; arbitrary user-supplied
encodings are accepted through verification. For the symmetric dilation
the cosine-sine decomposition is solved in closed form from the block
equations rather than by a general-purpose CSD routine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import HermitianSpectrum, check_hermitian, dagger, eigh

__all__ = [
    "BlockEncoding",
    "CsdFactors",
    "dilate_hermitian",
    "encoded_block",
    "csd_factors",
]

UNITARITY_TOL = 1e-10


@dataclass
class BlockEncoding:
    """Unitary whose top-left N x N block is H / alpha, using m ancilla qubits."""

    unitary: np.ndarray
    m: int
    alpha: float
    encoded_dim: int

    def __post_init__(self):
        self.unitary = np.asarray(self.unitary, dtype=complex)
        n = self.encoded_dim
        size = n * 2**self.m
        if self.unitary.shape != (size, size):
            raise ValueError(
                f"encoding of dimension {n} with {self.m} ancillas must be "
                f"{size}x{size}, got {self.unitary.shape}"
            )
        if self.alpha <= 0.0:
            raise ValueError("scale alpha must be positive")
        dev = np.max(np.abs(dagger(self.unitary) @ self.unitary - np.eye(size)))
        if dev > UNITARITY_TOL:
            raise ValueError(f"matrix is not unitary: ||U^dag U - I||_max = {dev:.3e}")

    @property
    def ancilla_dim(self) -> int:
        return 2**self.m


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


def _psd_contraction_spectrum(h: np.ndarray) -> HermitianSpectrum:
    spectrum = eigh(h)
    lo, hi = spectrum.values[0], spectrum.values[-1]
    if lo < -1e-12 or hi > 1.0 + 1e-12:
        bad = lo if lo < -1e-12 else hi
        raise ValueError(
            f"spectrum must lie in [0, 1] for the symmetric dilation; "
            f"offending eigenvalue {bad}"
        )
    return spectrum


def dilate_hermitian(h: np.ndarray) -> BlockEncoding:
    """Single-ancilla symmetric dilation [[H, S], [S, -H]] of a PSD contraction."""
    h = check_hermitian(h)
    spectrum = _psd_contraction_spectrum(h)
    svals = np.sqrt(np.clip(1.0 - spectrum.values**2, 0.0, None))
    s = (spectrum.vectors * svals) @ dagger(spectrum.vectors)
    n = h.shape[0]
    u = np.zeros((2 * n, 2 * n), dtype=complex)
    u[:n, :n] = h
    u[:n, n:] = s
    u[n:, :n] = s
    u[n:, n:] = -h
    return BlockEncoding(u, m=1, alpha=1.0, encoded_dim=n)


def encoded_block(enc: BlockEncoding) -> np.ndarray:
    """The matrix carried by the encoding: alpha times the top-left block."""
    n = enc.encoded_dim
    return enc.alpha * enc.unitary[:n, :n]


def csd_factors(enc: BlockEncoding, h: np.ndarray) -> CsdFactors:
    """Closed-form cosine-sine factors of the symmetric dilation of H.

    Solving the block equations for [[H, S], [S, -H]] with H = V Sigma V^dag
    gives V2 = V and W2 = -V; the reassembly identity is asserted before
    returning.
    """
    if enc.m != 1:
        raise ValueError("cosine-sine factors are derived only for m = 1 dilations")
    h = check_hermitian(h)
    spectrum = _psd_contraction_spectrum(h)
    sigma = spectrum.values.copy()
    svals = np.sqrt(np.clip(1.0 - sigma**2, 0.0, None))
    v = spectrum.vectors
    factors = CsdFactors(
        v=v,
        sigma=sigma,
        s=svals,
        w2=-v,
        v2=v.copy(),
    )
    dev = float(np.max(np.abs(factors.reassemble() - enc.unitary)))
    if dev > 1e-9:
        raise ValueError(
            f"cosine-sine reassembly deviates from the encoding by {dev:.3e}; "
            "the encoding does not match the symmetric dilation of H"
        )
    return factors

