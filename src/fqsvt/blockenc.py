"""Unitary block encodings of Hermitian matrices.

An encoding is a plain complex array: a unitary of size 2N whose top-left
N x N block is the encoded matrix (one ancilla qubit). Only the
single-ancilla symmetric dilation [[H, S], [S, -H]] with S = sqrt(I - H^2)
is constructed natively. Any other unitary may be passed in: `_check_encoding`
verifies it where it enters, in `feedforward.run_1fqsvt`,
`feedforward.run_multiband` and `qsvt.assemble_full`, and a stack of them in
one product where `run_1fqsvt` and `assemble_full` take a stack. For the
symmetric dilation the cosine-sine factors are fixed by the block equations:
with H = V Sigma V^dag they are V2 = V and W2 = -V, which
`qsvt.predicted_blocks` uses in closed form.
"""

from __future__ import annotations

import numpy as np

from .linalg import HermitianSpectrum, _first_in_stack, dagger, eigh

__all__ = [
    "dilate_hermitian",
]

UNITARITY_TOL = 1e-10


def _check_encoding(u, stack: bool = False) -> np.ndarray:
    """`u` as a complex array, checked to be a unitary of even, non-zero size.

    With `stack`, `u` is a stack (B, 2N, 2N) of such unitaries, checked in
    one stacked product, and the diagnostic names the first offending
    matrix's stack index.
    """
    u = np.asarray(u, dtype=complex)
    shape = u.shape
    if (len(shape) != (3 if stack else 2) or shape[-1] != shape[-2]
            or shape[-1] % 2 or not shape[-1]):
        raise ValueError(f"encoding must be a square unitary of even size, got shape {shape}")
    return _check_unitary(u)


def _check_unitary(u: np.ndarray) -> np.ndarray:
    """`u`, a square matrix or a stack of them, checked to be unitary to `UNITARITY_TOL`.

    The diagnostic names the first offending matrix's stack index, if it has one.
    """
    dev = np.abs(dagger(u) @ u - np.eye(u.shape[-1])).max(axis=(-2, -1))
    bad = dev > UNITARITY_TOL
    if bad.any():
        index, stack = _first_in_stack(bad)
        raise ValueError(f"matrix{stack} is not unitary: ||U^dag U - I||_max = {dev[index]:.3e}")
    return u


def _psd_contraction_spectrum(h) -> tuple[HermitianSpectrum, np.ndarray]:
    """The spectrum of H, checked to lie in [0, 1], and the sines sqrt(1 - sigma^2).

    H may be a stack (..., N, N), diagonalized in one `eigh`; the diagnostic
    names the first offending matrix's stack index, if it has one.
    """
    spectrum = eigh(h)
    lo, hi = spectrum.values[..., 0], spectrum.values[..., -1]
    bad = (lo < -1e-12) | (hi > 1.0 + 1e-12)
    if bad.any():
        index, stack = _first_in_stack(bad)
        value = lo[index] if lo[index] < -1e-12 else hi[index]
        raise ValueError(
            f"spectrum{' of matrix' + stack if stack else ''} must lie in [0, 1] for the "
            f"symmetric dilation; offending eigenvalue {value}"
        )
    return spectrum, np.sqrt(np.clip(1.0 - spectrum.values**2, 0.0, None))


def _dilation(h, vectors: np.ndarray, svals: np.ndarray) -> np.ndarray:
    """[[H, S], [S, -H]] with S = V diag(svals) V^dag, for H or each matrix of a stack.

    `vectors` and `svals` are H's eigenvectors and sines from
    `_psd_contraction_spectrum`, with H's stack axes. Unitarity is checked by
    `dilate_hermitian`, or by the runtime where the result enters it.
    """
    s = (vectors * svals[..., np.newaxis, :]) @ dagger(vectors)
    n = svals.shape[-1]
    u = np.zeros(svals.shape[:-1] + (2 * n, 2 * n), dtype=complex)
    u[..., :n, :n] = h
    u[..., :n, n:] = s
    u[..., n:, :n] = s
    u[..., n:, n:] = -u[..., :n, :n]
    return u


def dilate_hermitian(h) -> np.ndarray:
    """The 2N x 2N single-ancilla symmetric dilation [[H, S], [S, -H]] of a PSD contraction.

    A stack (..., N, N) gives the stack of dilations from one `eigh`, each
    equal to the one-matrix call's bit for bit, and each checked to be unitary.
    """
    spectrum, svals = _psd_contraction_spectrum(h)
    return _check_unitary(_dilation(h, spectrum.vectors, svals))
