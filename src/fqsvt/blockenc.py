"""Unitary block encodings of Hermitian matrices.

Only the single-ancilla symmetric dilation [[H, S], [S, -H]] with
S = sqrt(I - H^2) is constructed natively; arbitrary user-supplied
encodings are accepted through verification. For the symmetric dilation
the cosine-sine factors are fixed by the block equations: with
H = V Sigma V^dag they are V2 = V and W2 = -V, which `qsvt.predicted_blocks`
uses in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import HermitianSpectrum, check_hermitian, dagger, eigh

__all__ = [
    "BlockEncoding",
    "dilate_hermitian",
    "encoded_block",
]

UNITARITY_TOL = 1e-10


@dataclass
class BlockEncoding:
    """Unitary of size 2N whose top-left N x N block is the encoded matrix (one ancilla qubit)."""

    unitary: np.ndarray

    def __post_init__(self):
        self.unitary = np.asarray(self.unitary, dtype=complex)
        shape = self.unitary.shape
        if len(shape) != 2 or shape[0] != shape[1] or shape[0] % 2 or not shape[0]:
            raise ValueError(f"encoding must be a square unitary of even size, got shape {shape}")
        dev = np.max(np.abs(dagger(self.unitary) @ self.unitary - np.eye(shape[0])))
        if dev > UNITARITY_TOL:
            raise ValueError(f"matrix is not unitary: ||U^dag U - I||_max = {dev:.3e}")

    @property
    def encoded_dim(self) -> int:
        return self.unitary.shape[0] // 2


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
    return BlockEncoding(u)


def encoded_block(enc: BlockEncoding) -> np.ndarray:
    """The matrix carried by the encoding: a copy of its top-left block."""
    n = enc.encoded_dim
    return enc.unitary[:n, :n].copy()
