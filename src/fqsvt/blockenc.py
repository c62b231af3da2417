"""Unitary block encodings of Hermitian matrices.

An encoding is a plain complex array: a unitary of size 2N whose top-left
N x N block is the encoded matrix (one ancilla qubit). Only the
single-ancilla symmetric dilation [[H, S], [S, -H]] with S = sqrt(I - H^2)
is constructed natively. Any other unitary may be passed in: `_check_encoding`
verifies it where it enters, in `feedforward.run_1fqsvt`,
`feedforward.run_multiband` and `qsvt.assemble_full`. For the symmetric
dilation the cosine-sine factors are fixed by the block equations: with
H = V Sigma V^dag they are V2 = V and W2 = -V, which `qsvt.predicted_blocks`
uses in closed form.
"""

from __future__ import annotations

import numpy as np

from .linalg import HermitianSpectrum, dagger, eigh

__all__ = [
    "dilate_hermitian",
]

UNITARITY_TOL = 1e-10


def _check_encoding(u) -> np.ndarray:
    """`u` as a complex array, checked to be a unitary of even, non-zero size."""
    u = np.asarray(u, dtype=complex)
    shape = u.shape
    if len(shape) != 2 or shape[0] != shape[1] or shape[0] % 2 or not shape[0]:
        raise ValueError(f"encoding must be a square unitary of even size, got shape {shape}")
    dev = np.max(np.abs(dagger(u) @ u - np.eye(shape[0])))
    if dev > UNITARITY_TOL:
        raise ValueError(f"matrix is not unitary: ||U^dag U - I||_max = {dev:.3e}")
    return u


def _psd_contraction_spectrum(h: np.ndarray) -> tuple[HermitianSpectrum, np.ndarray]:
    """The spectrum of H, checked to lie in [0, 1], and the sines sqrt(1 - sigma^2)."""
    spectrum = eigh(h)
    lo, hi = spectrum.values[0], spectrum.values[-1]
    if lo < -1e-12 or hi > 1.0 + 1e-12:
        bad = lo if lo < -1e-12 else hi
        raise ValueError(
            f"spectrum must lie in [0, 1] for the symmetric dilation; "
            f"offending eigenvalue {bad}"
        )
    return spectrum, np.sqrt(np.clip(1.0 - spectrum.values**2, 0.0, None))


def dilate_hermitian(h: np.ndarray) -> np.ndarray:
    """The 2N x 2N single-ancilla symmetric dilation [[H, S], [S, -H]] of a PSD contraction."""
    spectrum, svals = _psd_contraction_spectrum(h)
    s = (spectrum.vectors * svals) @ dagger(spectrum.vectors)
    n = len(spectrum.values)
    u = np.zeros((2 * n, 2 * n), dtype=complex)
    u[:n, :n] = h
    u[:n, n:] = s
    u[n:, :n] = s
    u[n:, n:] = -u[:n, :n]
    return _check_encoding(u)
