"""Assembly of the full projector-controlled circuit unitary and its predicted blocks.

The circuit acts on monitoring qubit (x) encoding ancilla (x) system. Its
matrix is the Hadamard butterfly over the monitoring sectors of the
interleaved product of controlled rotations and the block encoding. Every
sector of the assembled matrix is predicted in closed form from the
polynomial pair of the phase factors and the cosine-sine factors of the
encoding; the garbage component of the action on |0...0>|phi> is predicted
likewise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockenc import BlockEncoding, csd_factors, dilate_hermitian
from .chebyshev import _clenshaw
from .linalg import StateVector, check_hermitian, dagger
from .qsp import PhaseFactorSet, extract_pq, to_su2

__all__ = [
    "PredictedBlocks",
    "assemble_interleaved",
    "assemble_full",
    "predicted_blocks",
    "garbage_state",
]


def _interleaved(enc: BlockEncoding, phi: PhaseFactorSet, signs: list) -> np.ndarray:
    """The interleaved product for sign * phi, one (NM, NM) matrix per sign.

    Rotation k is diag(e^{i phi_k} I_N, e^{-i phi_k} I_{N (M-1)}); one `exp`
    gives every rotation diagonal of every sign, and each factor of the
    encoding is one matmul on the stack.
    """
    if phi.convention != "circuit":
        raise ValueError("interleaved assembly takes circuit-convention phases")
    base = enc.unitary
    base_inv = dagger(base)
    n = enc.encoded_dim
    d = phi.degree
    size = base.shape[0]
    phases = np.multiply.outer(signs, phi.values)
    diags = np.exp(np.multiply.outer(phases, [1j, -1j]))[..., (np.arange(size) >= n).astype(int)]
    u = np.zeros((len(signs), size, size), dtype=complex)
    u[:, np.arange(size), np.arange(size)] = diags[:, 0]
    for k in range(1, d + 1):
        u = u @ (base if (d - k) % 2 == 0 else base_inv)
        u *= diags[:, k, np.newaxis, :]
    return u


def assemble_interleaved(enc: BlockEncoding, phi: PhaseFactorSet) -> np.ndarray:
    """Product R(phi_0) prod_k U^{(-1)^{d-k}} R(phi_k) on the NM-dim register.

    The encoding and its inverse alternate, ending on U itself. The
    feedforward runtime runs odd-degree second blocks through this same
    matrix, conjugated by a reflection on the encoding ancillas.
    """
    return _interleaved(enc, phi, [1.0])[0]


def assemble_full(enc: BlockEncoding, phi: PhaseFactorSet) -> np.ndarray:
    """Full circuit unitary of size 2NM: Hadamard butterfly over +Phi / -Phi sectors."""
    u_pos, u_neg = _interleaved(enc, phi, [1.0, -1.0])
    a = 0.5 * (u_pos + u_neg)
    b = 0.5 * (u_pos - u_neg)
    size = u_pos.shape[0]
    q = np.empty((2 * size, 2 * size), dtype=complex)
    q[:size, :size] = a
    q[:size, size:] = b
    q[size:, :size] = b
    q[size:, size:] = a
    return q


@dataclass
class PredictedBlocks:
    """Closed-form sector table of the circuit unitary for an m = 1 encoding.

    Sectors are indexed by (monitoring, ancilla) pairs flattened to 0..3 in
    register order; `sector(i, j)` returns the predicted N x N block at
    sector row i, column j.
    """

    table: np.ndarray
    degree: int
    t2_is_w2: bool

    def sector(self, i: int, j: int) -> np.ndarray:
        return self.table[i, j]


def predicted_blocks(
    h: np.ndarray, phi: PhaseFactorSet, t2_is_w2: bool | None = None
) -> PredictedBlocks:
    """Sector-by-sector prediction of the assembled circuit from (P, Q) and CSD factors.

    The final basis transformation uses W2 for odd degree and V2 for even
    degree; pass `t2_is_w2` to override when probing which choice matches.
    """
    h = check_hermitian(h)
    pair = extract_pq(to_su2(phi))
    d = phi.degree
    if t2_is_w2 is None:
        t2_is_w2 = d % 2 == 1

    factors = csd_factors(dilate_hermitian(h), h)
    v, v2 = factors.v, factors.v2
    t2 = factors.w2 if t2_is_w2 else factors.v2
    sigma, s = factors.sigma, factors.s

    p_re = _clenshaw(pair.p.real, sigma)
    p_im = _clenshaw(pair.p.imag, sigma)
    if len(pair.q):
        q_re = _clenshaw(pair.q.real, sigma)
        q_im = _clenshaw(pair.q.imag, sigma)
    else:
        q_re = np.zeros_like(sigma)
        q_im = np.zeros_like(sigma)

    vh = dagger(v)
    v2h = dagger(v2)
    a00 = (v * p_re) @ vh
    a01 = -(v * (s * q_im)) @ v2h
    a10 = (t2 * (s * q_im)) @ vh
    a11 = (t2 * p_re) @ v2h
    b00 = 1j * (v * p_im) @ vh
    b01 = 1j * (v * (s * q_re)) @ v2h
    b10 = 1j * (t2 * (s * q_re)) @ vh
    b11 = -1j * (t2 * p_im) @ v2h

    n = h.shape[0]
    table = np.empty((4, 4, n, n), dtype=complex)
    a_row = [[a00, a01], [a10, a11]]
    b_row = [[b00, b01], [b10, b11]]
    for i in range(2):
        for j in range(2):
            table[i, j] = a_row[i][j]
            table[i, j + 2] = b_row[i][j]
            table[i + 2, j] = b_row[i][j]
            table[i + 2, j + 2] = a_row[i][j]
    return PredictedBlocks(table, d, t2_is_w2)


def garbage_state(h: np.ndarray, phi: PhaseFactorSet, state: StateVector) -> StateVector:
    """Predicted garbage component of the circuit action on |0...0>|phi>.

    For phases whose rotation-convention values are palindromic the garbage
    sits entirely in the monitoring-qubit |1> sector, with ancilla
    components i P_Im(H)|phi> and i T2 V^dag sqrt(I-H^2) Q_Re(H)|phi>.
    """
    h = check_hermitian(h)
    psi = to_su2(phi)
    if not psi.symmetric:
        raise ValueError(
            "garbage-state prediction requires symmetric phase factors "
            "(palindromic rotation-convention values); use predicted_blocks "
            "for the general case"
        )
    blocks = predicted_blocks(h, phi)
    n = h.shape[0]
    amp = np.asarray(state.amplitudes, dtype=complex)
    if amp.shape != (n,):
        raise ValueError(f"input state must have dimension {n}")
    out = np.zeros(4 * n, dtype=complex)
    out[2 * n : 3 * n] = blocks.sector(2, 0) @ amp
    out[3 * n :] = blocks.sector(3, 0) @ amp
    qubits = int(np.round(np.log2(4 * n)))
    return StateVector(qubits, out)
