"""Tunable-coupler transmon (gmon) Hamiltonian on a truncated Fock space.

The anharmonicity term is diagonal and sets large constant-energy gaps;
the controls (hopping, detuning, microwave drive) are perturbative. Energy
bands are labeled by the excitation structure sum_j n_j (n_j - 1) / 2, so
the lowest band is the qubit subspace and projection onto any other band
flags leakage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .linalg import dagger, eigh, rng

__all__ = [
    "GmonModel",
    "CONTROL_LIMIT",
    "build_h0",
    "build_h1",
    "fock_occupations",
    "band_labels",
    "normalize_for_qsvt",
    "default_model",
]

# Table-scale control bound: amplitudes of g, delta, f lie in [-20, 20] MHz,
# expressed here in angular frequency units (2 pi MHz).
CONTROL_LIMIT = 2.0 * math.pi * 20.0
CONTROL_ERROR_SCALE = 2.0 * math.pi * 1.0
# Standard deviation of the seeded noise on the coupler phases phi, in radians.
PHASE_ERROR_SCALE = 0.05


@dataclass
class GmonModel:
    """Static snapshot of the control parameters of a gmon array."""

    modes: int
    nmax: int
    eta: float
    edges: list
    delta: list
    f: list
    phi: list
    check_ranges: bool = True

    def __post_init__(self):
        if self.modes < 1 or self.nmax < 1:
            raise ValueError("need at least one mode and two Fock levels")
        for name, arr in (("delta", self.delta), ("f", self.f), ("phi", self.phi)):
            if len(arr) != self.modes:
                raise ValueError(f"{name} must carry one value per mode")
        for edge in self.edges:
            l, j, _ = edge
            if not (0 <= l < self.modes and 0 <= j < self.modes and l != j):
                raise ValueError(f"edge {edge} references invalid modes")
        if self.check_ranges:
            for _, _, g in self.edges:
                if abs(g) > CONTROL_LIMIT:
                    raise ValueError(
                        f"coupling {g} outside the [-{CONTROL_LIMIT}, {CONTROL_LIMIT}] "
                        "control range (amplitude 20 MHz)"
                    )
            for name, arr, lim in (
                ("detuning", self.delta, CONTROL_LIMIT),
                ("drive amplitude", self.f, CONTROL_LIMIT),
            ):
                for val in arr:
                    if abs(val) > lim:
                        raise ValueError(
                            f"{name} {val} outside the control range "
                            f"(amplitude 20 MHz)"
                        )
            for val in self.phi:
                if not (0.0 <= val <= 2.0 * math.pi):
                    raise ValueError(f"drive phase {val} outside [0, 2 pi]")
        # A Gershgorin bound R on H0 + H1, summed field by field: each term is
        # the field's largest contribution to the absolute sum of a row. While
        # 4 R is finite, so are every entry, every eigenvalue and the padded
        # span (at most 4 R) that `normalize_for_qsvt` divides by.
        bound = 0.0
        for name, part in (
            ("eta", 0.5 * abs(self.eta) * self.modes * self.nmax * (self.nmax - 1)),
            ("edges", 2 * self.nmax * sum(abs(g) for _, _, g in self.edges)),
            ("delta", self.nmax * sum(abs(v) for v in self.delta)),
            ("f", 2 * math.sqrt(self.nmax) * sum(abs(v) for v in self.f)),
        ):
            bound += part
            if not math.isfinite(4.0 * bound):
                raise ValueError(f"{name} makes the Hamiltonian's spectrum overflow a float "
                                 f"(4 times its Gershgorin bound is {4.0 * bound})")

    @property
    def levels(self) -> int:
        return self.nmax + 1

    @property
    def dimension(self) -> int:
        return self.levels**self.modes

    def perturbed(self, seed: int) -> "GmonModel":
        """Model with seeded Gaussian control noise at the 1 MHz error scale."""
        gen = rng(seed)
        edges = [
            (l, j, g + CONTROL_ERROR_SCALE * gen.standard_normal())
            for l, j, g in self.edges
        ]
        delta = [d + CONTROL_ERROR_SCALE * gen.standard_normal() for d in self.delta]
        f = [v + CONTROL_ERROR_SCALE * gen.standard_normal() for v in self.f]
        phi = [
            min(max(p + PHASE_ERROR_SCALE * gen.standard_normal(), 0.0), 2.0 * math.pi)
            for p in self.phi
        ]
        return replace(self, edges=edges, delta=delta, f=f, phi=phi)


def default_model() -> GmonModel:
    """Desk-scale instance: 2 modes, 4 Fock levels, eta = 2 pi 200, controls at 2 pi 10."""
    unit = 2.0 * math.pi
    return GmonModel(
        modes=2,
        nmax=3,
        eta=unit * 200.0,
        edges=[(0, 1, unit * 10.0)],
        delta=[unit * 10.0, -unit * 10.0],
        f=[unit * 10.0, unit * 10.0],
        phi=[0.4, 1.9],
    )


def _annihilation(levels: int) -> np.ndarray:
    a = np.zeros((levels, levels), dtype=complex)
    for k in range(1, levels):
        a[k - 1, k] = math.sqrt(k)
    return a


def _on_mode(op: np.ndarray, mode: int, model: GmonModel) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for j in range(model.modes):
        out = np.kron(out, op if j == mode else np.eye(model.levels, dtype=complex))
    return out


def fock_occupations(model: GmonModel) -> np.ndarray:
    """Occupation tuples by basis index, first mode most significant."""
    dims = model.dimension
    occ = np.zeros((dims, model.modes), dtype=int)
    for idx in range(dims):
        rem = idx
        for j in range(model.modes - 1, -1, -1):
            occ[idx, j] = rem % model.levels
            rem //= model.levels
    return occ


def build_h0(model: GmonModel) -> np.ndarray:
    """Anharmonicity term (eta/2) sum_j n_j (n_j - 1), diagonal in the Fock basis."""
    occ = fock_occupations(model)
    diag = 0.5 * model.eta * np.sum(occ * (occ - 1), axis=1)
    return np.diag(diag.astype(complex))


def build_h1(model: GmonModel) -> np.ndarray:
    """Control terms: hopping, detuning, and the microwave drive.

    Each term is X + X^dag entry by entry, so H1 equals its conjugate transpose exactly.
    """
    dims = model.dimension
    h = np.zeros((dims, dims), dtype=complex)
    a_ops = [_on_mode(_annihilation(model.levels), j, model) for j in range(model.modes)]
    for l, j, g in model.edges:
        hop = dagger(a_ops[l]) @ a_ops[j]
        h += g * (hop + dagger(hop))
    for j in range(model.modes):
        number = dagger(a_ops[j]) @ a_ops[j]
        h += model.delta[j] * number
        drive = 1j * model.f[j] * (
            a_ops[j] * np.exp(-1j * model.phi[j])
            - dagger(a_ops[j]) * np.exp(1j * model.phi[j])
        )
        h += drive
    return h


def band_labels(model: GmonModel) -> np.ndarray:
    """Excitation-structure label sum_j n_j (n_j - 1) / 2 for every Fock state.

    Band b's bare energy is b times the model's eta.
    """
    occ = fock_occupations(model)
    return (np.sum(occ * (occ - 1), axis=1) // 2).astype(int)


def normalize_for_qsvt(h: np.ndarray, margin: float) -> tuple:
    """(matrix, scale): the spectrum mapped affinely into [margin', 1 - margin'].

    The margin fraction is taken relative to the spectral span; energy
    differences such as gap widths scale by `scale`.
    """
    if not (0.0 < margin < 0.5):
        raise ValueError("margin must lie in (0, 1/2)")
    h = np.asarray(h, dtype=complex)
    values = eigh(h).values
    lo, hi = float(values[0]), float(values[-1])
    span = hi - lo
    if span <= 0.0:
        raise ValueError("spectrum is a single point; nothing to normalize")
    pad = margin * span
    scale = 1.0 / (span + 2.0 * pad)
    if math.isinf(scale):
        raise ValueError(f"spectral span {span:.3g} is too narrow to normalize: "
                         "its reciprocal overflows a float")
    offset = -(lo - pad) * scale
    return scale * h + offset * np.eye(h.shape[0]), scale
