"""Dense complex linear algebra and randomness substrate.

Everything downstream (block encodings, circuit assembly, band projectors,
verification oracles) is built on the routines here: a validated LAPACK
Hermitian eigensolver, the trace norm, and seeded Haar-random vector
sampling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "HermitianSpectrum",
    "rng",
    "eigh",
    "trace_norm",
    "haar_vector",
    "hermitian_from_spectrum",
    "dagger",
    "check_hermitian",
]

def dagger(a: np.ndarray) -> np.ndarray:
    """The conjugate transpose of a matrix, or of each matrix of a stack (..., m, n)."""
    return a.conj().swapaxes(-1, -2)


# The purpose stream of trajectory sampling: one generator `rng(seed,
# SAMPLE_UNIFORMS)` whose block row t belongs to trajectory t. The id sits
# above 2^32, beyond every other stream index (0-3 or a band count).
# Every sampled record depends on its value.
SAMPLE_UNIFORMS = 2**32 + 2

# `check_hermitian`'s bound on |H - H^dag|, relative to max(1, max|H|).
HERMITIAN_TOL = 1e-10


def rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator (Philox) keyed by (seed, stream).

    Philox is counter-based, so runs are bit-reproducible across platforms
    and independent streams come from distinct keys rather than shared
    state. Trajectory sampling draws from the purpose stream above.
    """
    if seed < 0 or seed >= 2**64:
        raise ValueError(f"seed must fit in 64 bits, got {seed}")
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def _check_state(state) -> np.ndarray:
    """`state` as a complex vector: 1-d, finite, of a power-of-two length, any norm."""
    amp = np.asarray(state, dtype=complex)
    if amp.ndim != 1 or not len(amp) or len(amp) & (len(amp) - 1):
        raise ValueError(f"expected the amplitudes of a qubit register, got shape {amp.shape}")
    if not np.all(np.isfinite(amp)):
        raise ValueError("amplitudes must be finite")
    return amp


@dataclass
class HermitianSpectrum:
    """Eigenvalues (ascending) and matching eigenvector columns of a Hermitian matrix."""

    values: np.ndarray
    vectors: np.ndarray


def _first_in_stack(bad: np.ndarray) -> tuple[tuple, str]:
    """The stack index of the first matrix that `bad` flags, one flag per matrix, and its label.

    The label reads " i, j of the stack" after the word "matrix" in a
    diagnostic, and is empty for a single matrix, whose flag has no axes.
    """
    index = np.unravel_index(int(np.argmax(bad)), np.shape(bad))
    return index, f" {', '.join(str(int(i)) for i in index)} of the stack" if index else ""


def check_hermitian(h: np.ndarray) -> np.ndarray:
    """Validate a square Hermitian matrix or a stack of them; the diagnostic names the worst entry.

    A matrix is a stack with no stack axes. Each matrix of shape (..., n, n)
    is checked at its own scale `HERMITIAN_TOL * max(1, max|H_k|)`, and the
    diagnostic names the first offending matrix's stack index, if it has
    one, and its worst entry.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    if not np.isfinite(h).all():
        raise ValueError("matrix entries must be finite")
    dev = np.abs(h - h.conj().swapaxes(-1, -2))
    bad = dev.max(axis=(-2, -1)) > HERMITIAN_TOL * np.abs(h).max(axis=(-2, -1), initial=1.0)
    if bad.any():
        index, stack = _first_in_stack(bad)
        row, col = np.unravel_index(int(np.argmax(dev[index])), dev.shape[-2:])
        raise ValueError(
            f"matrix{stack} is not Hermitian: entry ({int(row)}, {int(col)}) deviates "
            f"from its conjugate transpose by {dev[index][row, col]:.3e}"
        )
    return h


def eigh(h: np.ndarray) -> HermitianSpectrum:
    """Diagonalize a Hermitian matrix with LAPACK (`numpy.linalg.eigh`).

    Eigenvalues are returned ascending with matching eigenvector columns.
    Within a degenerate cluster the eigenvector basis is solver-defined;
    downstream band logic only ever uses projectors, which are basis-free.
    A stack of shape (..., n, n) is diagonalized in one call, each matrix
    exactly as on its own; `values` and `vectors` then carry the stack axes.
    """
    values, vectors = np.linalg.eigh(check_hermitian(h))
    return HermitianSpectrum(values, vectors)


def trace_norm(a: np.ndarray) -> float:
    """Sum of singular values (trace norm) of a rectangular matrix."""
    a = np.asarray(a, dtype=complex)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    return float(np.linalg.svd(a, compute_uv=False).sum())


def haar_vector(gen: np.random.Generator, dim: int) -> np.ndarray:
    """Unit-norm Haar-random vector of length `dim` drawn from `gen`.

    The real parts are drawn before the imaginary parts, so a given
    generator state always yields the same vector.
    """
    z = gen.standard_normal(dim) + 1j * gen.standard_normal(dim)
    return z / np.linalg.norm(z)


def random_hermitian(dim: int, gen: np.random.Generator) -> np.ndarray:
    """Random Hermitian matrix with Gaussian entries (GUE up to scale)."""
    z = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    return 0.5 * (z + dagger(z))


def hermitian_from_spectrum(values, gen: np.random.Generator) -> np.ndarray:
    """Hermitian matrix with the prescribed eigenvalues in a random eigenbasis.

    The basis is the eigenvector matrix of a GUE sample, which is Haar
    distributed up to column phases.
    """
    values = np.asarray(values, dtype=float)
    return _in_eigenbasis_of(random_hermitian(len(values), gen), values)


def _in_eigenbasis_of(samples: np.ndarray, values) -> np.ndarray:
    """V diag(values) V^dag, V the eigenvectors of `samples`, a matrix or a stack (..., n, n).

    `values` has shape (..., n) with the same stack axes. A stack takes one
    `eigh` and one product, and each matrix equals the one-matrix call's bit
    for bit; `hermitian_from_spectrum` is that call on the GUE sample it draws.
    """
    basis = eigh(samples).vectors
    return (basis * np.asarray(values, dtype=float)[..., np.newaxis, :]) @ dagger(basis)

