"""Workload definitions and seeded inputs, built with numpy only.

Every input the program receives is generated here from the workload seed:
a Haar-random eigenbasis (QR of a complex Gaussian matrix with the phases of
R's diagonal folded into Q) and, for sample mode, a Haar-random input state.
The same seed always gives the same inputs, so the output checks can rebuild
the exact band projectors without asking the program for anything.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

VERIFY_CRITERIA = (1, 2, 3, 4, 7, 8, 9)

# Band layout shared by the project workloads: evenly spaced centres in
# [0.05, 0.95], each band `per_band` eigenvalues spread over `width`.
SPECTRUM_LO, SPECTRUM_HI = 0.05, 0.95

WORKLOADS = {
    "enumerate-L8": {"command": "project", "mode": "enumerate", "bands": 8, "per_band": 2,
                     "width": 0.02, "round_eps": 1e-3, "haar_samples": 32},
    "sample-L4": {"command": "project", "mode": "sample", "bands": 4, "per_band": 4,
                  "width": 0.02, "round_eps": 1e-3, "trajectories": 50_000},
    "oracle-battery": {"command": "verify", "criteria": VERIFY_CRITERIA},
}


@dataclass
class ProjectInputs:
    """One project workload's inputs plus the exact quantities derived from them."""

    spec: dict
    values: np.ndarray
    basis: np.ndarray
    amplitudes: np.ndarray | None

    @property
    def band_count(self) -> int:
        return self.spec["bands"]

    @property
    def rounds(self) -> int:
        return math.ceil(math.log2(self.band_count))

    def hamiltonian(self) -> np.ndarray:
        h = (self.basis * self.values) @ self.basis.conj().T
        return 0.5 * (h + h.conj().T)

    def projectors(self) -> list[np.ndarray]:
        """Exact band projectors, lowest band first, from the generated basis."""
        per = self.spec["per_band"]
        return [self.basis[:, j * per:(j + 1) * per] @ self.basis[:, j * per:(j + 1) * per].conj().T
                for j in range(self.band_count)]

    def band_weights(self) -> np.ndarray:
        overlaps = np.abs(self.basis.conj().T @ self.amplitudes) ** 2
        return overlaps.reshape(self.band_count, self.spec["per_band"]).sum(axis=1)

    def config(self) -> dict:
        doc = {
            "model": {"type": "inline", "matrix": _matrix_json(self.hamiltonian())},
            "bands": {"target": self.band_count},
            "mode": self.spec["mode"],
            "round_eps": self.spec["round_eps"],
        }
        if self.spec["mode"] == "enumerate":
            doc["haar_samples"] = self.spec["haar_samples"]
        else:
            doc["trajectories"] = self.spec["trajectories"]
            doc["input"] = {"type": "amplitudes",
                            "values": [[float(a.real), float(a.imag)] for a in self.amplitudes]}
        return doc


def _matrix_json(a: np.ndarray) -> dict:
    return {"rows": a.shape[0], "cols": a.shape[1],
            "data": [[float(z.real), float(z.imag)] for z in a.ravel()]}


def haar_unitary(dim: int, gen: np.random.Generator) -> np.ndarray:
    z = (gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def haar_state(dim: int, gen: np.random.Generator) -> np.ndarray:
    z = gen.standard_normal(dim) + 1j * gen.standard_normal(dim)
    return z / np.linalg.norm(z)


def band_spectrum(bands: int, per_band: int, width: float) -> np.ndarray:
    centers = np.linspace(SPECTRUM_LO, SPECTRUM_HI, bands)
    offsets = np.linspace(-width / 2.0, width / 2.0, per_band)
    return np.sort(np.concatenate([c + offsets for c in centers]))


def project_inputs(workload: str, seed: int) -> ProjectInputs:
    spec = WORKLOADS[workload]
    gen = np.random.default_rng([seed, 20240807])
    values = band_spectrum(spec["bands"], spec["per_band"], spec["width"])
    basis = haar_unitary(len(values), gen)
    amplitudes = haar_state(len(values), gen) if spec["mode"] == "sample" else None
    return ProjectInputs(spec, values, basis, amplitudes)


def cli_argv(workload: str, seed: int, workdir: Path) -> list[str]:
    """Write the workload's inputs under `workdir`; return the `fqsvt` arguments."""
    spec = WORKLOADS[workload]
    out = workdir / "out"
    if spec["command"] == "verify":
        return ["verify", "--criteria", ",".join(map(str, spec["criteria"])), "--out", str(out)]
    config = workdir / "config.json"
    config.write_text(json.dumps(project_inputs(workload, seed).config()), encoding="utf-8")
    return ["project", "--config", str(config), "--seed", str(seed), "--out", str(out)]
