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
    "StateVector",
    "HermitianSpectrum",
    "rng",
    "eigh",
    "trace_norm",
    "haar_vector",
    "random_hermitian",
    "hermitian_from_spectrum",
    "dagger",
    "check_hermitian",
    "matrix_to_json",
    "matrix_from_json",
]

def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator (Philox) keyed by (seed, stream).

    Philox is counter-based, so runs are bit-reproducible across platforms
    and independent streams come from distinct keys rather than shared
    state. Parallel Monte Carlo passes one stream index per trial.
    """
    if seed < 0 or seed >= 2**64:
        raise ValueError(f"seed must fit in 64 bits, got {seed}")
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


@dataclass
class StateVector:
    """Amplitudes of an n-qubit register; intentionally allowed to be unnormalized."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (2**self.n_qubits,):
            raise ValueError(
                f"expected {2**self.n_qubits} amplitudes for {self.n_qubits} qubits, "
                f"got shape {self.amplitudes.shape}"
            )
        if not np.all(np.isfinite(self.amplitudes)):
            raise ValueError("amplitudes must be finite")

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass
class HermitianSpectrum:
    """Eigenvalues (ascending) and matching eigenvector columns of a Hermitian matrix."""

    values: np.ndarray
    vectors: np.ndarray


def check_hermitian(h: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Validate a square Hermitian matrix; the diagnostic names the worst entry.

    A stack of shape (..., n, n) is checked matrix by matrix, each at its own
    scale `tol * max(1, max|H_k|)`, and the diagnostic names the first
    offending matrix's stack index and its worst entry.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValueError("matrix entries must be finite")
    if h.ndim == 2:
        dev = np.abs(h - dagger(h))
        row, col = np.unravel_index(int(np.argmax(dev)), dev.shape)
        scale = max(1.0, float(np.max(np.abs(h))))
        if dev[row, col] > tol * scale:
            raise ValueError(
                f"matrix is not Hermitian: entry ({int(row)}, {int(col)}) deviates "
                f"from its conjugate transpose by {dev[row, col]:.3e}"
            )
        return h
    dev = np.abs(h - np.swapaxes(h, -1, -2).conj())
    limit = tol * np.maximum(1.0, np.max(np.abs(h), axis=(-2, -1)))
    bad = np.max(dev, axis=(-2, -1)) > limit
    if np.any(bad):
        index = np.unravel_index(int(np.argmax(bad)), bad.shape)
        row, col = np.unravel_index(int(np.argmax(dev[index])), dev.shape[-2:])
        raise ValueError(
            f"matrix {', '.join(str(int(i)) for i in index)} of the stack is not Hermitian: "
            f"entry ({int(row)}, {int(col)}) deviates from its conjugate transpose "
            f"by {dev[index][row, col]:.3e}"
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


def random_hermitian(dim: int, gen: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Random Hermitian matrix with Gaussian entries (GUE up to scale)."""
    z = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    return scale * 0.5 * (z + dagger(z))


def hermitian_from_spectrum(values, gen: np.random.Generator) -> np.ndarray:
    """Hermitian matrix with the prescribed eigenvalues in a random eigenbasis.

    The basis is the eigenvector matrix of a GUE sample, which is Haar
    distributed up to column phases.
    """
    values = np.asarray(values, dtype=float)
    basis = eigh(random_hermitian(len(values), gen)).vectors
    return (basis * values) @ dagger(basis)


def matrix_to_json(a: np.ndarray) -> dict:
    """Encode a complex matrix as {"rows", "cols", "data"} with (re, im) pairs, row-major."""
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    data = [[float(z.real), float(z.imag)] for z in a.ravel(order="C")]
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "data": data}


def matrix_from_json(doc: dict) -> np.ndarray:
    rows, cols = int(doc["rows"]), int(doc["cols"])
    data = doc["data"]
    if len(data) != rows * cols:
        raise ValueError(f"matrix JSON claims {rows}x{cols} but carries {len(data)} entries")
    flat = np.array([complex(re, im) for re, im in data])
    return flat.reshape(rows, cols)
