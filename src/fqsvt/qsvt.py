"""Assembly of the full projector-controlled circuit unitary and its predicted blocks.

The circuit acts on monitoring qubit (x) encoding ancilla (x) system. Its
matrix is the Hadamard butterfly over the monitoring sectors of the
interleaved product of controlled rotations and the block encoding. Every
sector of the assembled matrix is predicted in closed form from the
polynomial pair of the phase factors and the eigenbasis of H, which fixes
the cosine-sine factors of the symmetric dilation. For palindromic
phases the garbage component of the action on |0...0>|phi>, which
feedforward reclaims, is sectors (2, 0) and (3, 0) of that prediction.
"""

from __future__ import annotations

import numpy as np

from .blockenc import _check_encoding, _psd_contraction_spectrum
from .chebyshev import _clenshaw
from .linalg import dagger
from .qsp import PhaseFactorSet, QspPolynomialPair, _circuit_offsets

__all__ = [
    "assemble_full",
    "predicted_blocks",
]


def _interleaved(enc: np.ndarray, phis: list[PhaseFactorSet]) -> np.ndarray:
    """The interleaved product for +phi and -phi, one (NM, NM) matrix per phase set and sign.

    `enc` is one encoding shared by every phase set, or a stack
    (len(phis), NM, NM) with one per phase set. Returns the
    (2 * len(phis), NM, NM) stack, item-major: rows 2i and 2i + 1 are phase
    set i's +phi and -phi products. phi_k are the circuit phases,
    psi_k - `_circuit_offsets(d)`[k]. The product is
    R(phi_0) prod_k U^{(-1)^{d-k}} R(phi_k): the encoding and its inverse
    alternate, ending on U itself. Rotation k is
    diag(e^{i phi_k} I_N, e^{-i phi_k} I_{N (M-1)}); one `exp` gives every
    rotation diagonal of every sign and phase set.

    Phase sets of different degrees share the product end-aligned. Sorted
    by degree, longest first, the stack runs K = max d global steps, and
    step k multiplies only the prefix whose degree reaches it (d > K - k),
    at its own factor k - (K - d). Since d minus that factor is K - k, every
    item of the prefix takes the same U or U^dag at step k. A shared
    encoding is one GEMM on the prefix's rows, a stack one GEMM per item on
    its 2 NM rows, into a buffer that the rotation then scales back into
    the stack; row by row it is each matrix's own product, so each item
    does exactly the float operations of its one-item call.
    """
    stack = np.ndim(enc) == 3
    base = _check_encoding(enc, stack=stack)
    if stack and len(base) != len(phis):
        raise ValueError(f"expected one encoding per phase set ({len(phis)}), "
                         f"got shape {base.shape}")
    size = base.shape[-1]
    n = size // 2
    degrees = np.array([psi.degree for psi in phis])
    order = np.argsort(-degrees, kind="stable")
    in_order = np.array_equal(order, np.arange(len(phis)))
    if stack and not in_order:
        base = base[order]
    base_inv = dagger(base)
    top = int(degrees.max(initial=0))
    starts = top - degrees[order]
    # Each set's circuit phases sit at the end of K + 1 global steps, the
    # +phi row before the -phi row; the steps before its own start are unused.
    phases = np.zeros((len(phis), 2, top + 1))
    for row, (i, start) in enumerate(zip(order, starts)):
        phases[row, :, start:] = np.multiply.outer(
            [1.0, -1.0], phis[i].values - _circuit_offsets(phis[i].degree))
    diags = np.exp(np.multiply.outer(phases, [1j, -1j]))[..., (np.arange(size) >= n).astype(int)]
    u = np.zeros((len(phis), 2, size, size), dtype=complex)
    u[..., np.arange(size), np.arange(size)] = diags[np.arange(len(phis)), :, starts]
    # The prefix at step k: the sets whose degree exceeds K - k, i.e. start below k.
    active = np.searchsorted(starts, np.arange(1, top + 1))
    product = np.empty_like(u)
    for k, m in enumerate(active.tolist(), start=1):
        factor = base if (top - k) % 2 == 0 else base_inv
        if stack:
            np.matmul(u[:m].reshape(m, 2 * size, size), factor[:m],
                      out=product[:m].reshape(m, 2 * size, size))
        else:
            np.matmul(u[:m].reshape(-1, size), factor, out=product[:m].reshape(-1, size))
        np.multiply(product[:m], diags[:m, :, k, np.newaxis, :], out=u[:m])
    if not in_order:
        u = u[np.argsort(order)]
    return u.reshape(-1, size, size)


def assemble_full(enc: np.ndarray, phis: list[PhaseFactorSet]) -> list[np.ndarray]:
    """Full circuit unitaries of size 2NM: Hadamard butterfly over +Phi / -Phi sectors.

    `enc` is one encoding shared by every phase set, or a stack
    (len(phis), NM, NM) with one encoding per phase set; `phis` are
    `PhaseFactorSet`s of any degrees. Their unitaries come back in the same
    order from one end-aligned interleaved product (`_interleaved`), which
    applies the circuit offsets; each equals a one-item call's bit for bit.
    """
    if not phis:
        return []
    u = _interleaved(enc, phis)
    size = u.shape[-1]
    u = u.reshape(len(phis), 2, size, size)
    u_pos, u_neg = u[:, 0], u[:, 1]
    q = np.empty((len(phis), 2 * size, 2 * size), dtype=complex)
    a, b = q[:, :size, :size], q[:, :size, size:]
    np.multiply(0.5, np.add(u_pos, u_neg, out=a), out=a)
    np.multiply(0.5, np.subtract(u_pos, u_neg, out=b), out=b)
    q[:, size:, :size] = b
    q[:, size:, size:] = a
    return list(q)


def _pair_series(pairs: list[QspPolynomialPair], x: np.ndarray) -> np.ndarray:
    """P_Re, P_Im, Q_Re and Q_Im of each pair at its row of `x` (len(pairs), N), stacked first.

    One Clenshaw recurrence over every series zero-padded to the longest P:
    its rows do not interact, and zero leading coefficients keep a row's bits.
    """
    series = np.zeros((max(len(pair.p) for pair in pairs), len(pairs), 4, 1))
    for k, pair in enumerate(pairs):
        series[: len(pair.p), k, :2, 0] = np.column_stack([pair.p.real, pair.p.imag])
        series[: len(pair.q), k, 2:, 0] = np.column_stack([pair.q.real, pair.q.imag])
    return np.moveaxis(_clenshaw(series, x[:, None, :]), 1, 0)


def predicted_blocks(hs, pairs: list[QspPolynomialPair]) -> list[np.ndarray]:
    """Sector-by-sector prediction of each assembled circuit from (P, Q) and H's eigenbasis.

    `hs` is a stack of one size's matrices, shape (len(pairs), N, N), and
    `pairs[k]` is the `extract_pq` pair of the circuit on `hs[k]`. Returns
    one (4, 4, N, N) table per pair, in order; entry [i, j] is the block at
    sector row i, column j, sectors being (monitoring, ancilla) pairs
    flattened to 0..3 in register order. With H = V Sigma V^dag the
    dilation's cosine-sine factors are V2 = V and W2 = -V, so the final
    basis transformation is T2 = (-1)^d V, its sign taken per pair.
    Palindromic phases give Q_Im = 0, so the garbage of the action on
    |0...0>|phi> sits in sectors (2, 0) and (3, 0): i P_Im(H)|phi> and
    i T2 sqrt(I - Sigma^2) Q_Re(Sigma) V^dag|phi>. One `eigh` diagonalizes
    the stack, and the four real series of every pair are evaluated in one
    Clenshaw recurrence; each table equals a one-item call's bit for bit.
    """
    if not pairs:
        return []
    spectrum, s = _psd_contraction_spectrum(hs)
    if spectrum.values.shape[:-1] != (len(pairs),):
        raise ValueError(f"expected one matrix per pair ({len(pairs)}), "
                         f"got shape {spectrum.vectors.shape}")
    v = spectrum.vectors
    t2 = np.where(np.array([pair.degree % 2 for pair in pairs], dtype=bool)[:, None, None], -v, v)
    # Each series of shape (pairs, 1, N) scales the columns of that pair's V or T2.
    p_re, p_im, q_re, q_im = _pair_series(pairs, spectrum.values)[:, :, None]
    s = s[:, None, :]

    vh = dagger(v)
    a = [[(v * p_re) @ vh, -(v * (s * q_im)) @ vh],
         [(t2 * (s * q_im)) @ vh, (t2 * p_re) @ vh]]
    b = [[1j * (v * p_im) @ vh, 1j * (v * (s * q_re)) @ vh],
         [1j * (t2 * (s * q_re)) @ vh, -1j * (t2 * p_im) @ vh]]
    # The monitoring butterfly: A on the diagonal sector pairs, B off it.
    tables = np.array([[*a[0], *b[0]], [*a[1], *b[1]], [*b[0], *a[0]], [*b[1], *a[1]]])
    return list(np.moveaxis(tables, 2, 0))
