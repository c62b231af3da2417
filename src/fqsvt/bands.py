"""Band structure detection and exact band projectors.

The exact projectors built here are the verification oracles for every
feedforward run: the runtime's extracted operators are compared against
them, never the other way around.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import HermitianSpectrum, dagger

__all__ = [
    "BandStructure",
    "detect_bands",
    "exact_projectors",
    "check_band_assumption",
    "synthetic_band_spectrum",
]


@dataclass
class BandStructure:
    """L bands separated by L-1 gap centers; delta is the smallest selected gap width."""

    centers: np.ndarray
    delta: float
    bands: list[list[int]]

    def __post_init__(self):
        self.centers = np.asarray(self.centers, dtype=float)
        if len(self.centers) != self.band_count - 1:
            raise ValueError(
                f"{self.band_count} bands need {self.band_count - 1} centers, "
                f"got {len(self.centers)}"
            )
        if len(self.centers) > 1 and np.any(np.diff(self.centers) <= 0):
            raise ValueError("gap centers must be strictly ascending")
        seen = [i for band in self.bands for i in band]
        if sorted(seen) != list(range(len(seen))):
            raise ValueError("band index sets must partition 0..N-1")

    @property
    def band_count(self) -> int:
        return len(self.bands)

    @property
    def dimension(self) -> int:
        return sum(len(b) for b in self.bands)


def detect_bands(
    values,
    min_gap: float | None = None,
    target_bands: int | None = None,
) -> BandStructure:
    """Split an ascending spectrum at its eigenvalue-free intervals.

    With `min_gap`, every maximal gap at least that wide is selected (no
    qualifying gap yields a single-band structure, not an error). With
    `target_bands` = L, the L - 1 widest gaps are selected, ties broken
    toward lower energy. Two selected gaps whose centers round to one float
    are narrower than float resolution, and raise a ValueError naming them.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or len(values) == 0:
        raise ValueError("expected a nonempty 1-d array of eigenvalues")
    if np.any(np.diff(values) < 0):
        raise ValueError("eigenvalues must be ascending")
    if (min_gap is None) == (target_bands is None):
        raise ValueError("pass exactly one of min_gap or target_bands")

    widths = np.diff(values)
    if min_gap is not None:
        if min_gap <= 0:
            raise ValueError("min_gap must be positive")
        chosen = [i for i, w in enumerate(widths) if w >= min_gap]
    else:
        if not (1 <= target_bands <= len(values)):
            raise ValueError(f"target band count {target_bands} out of range")
        order = sorted(range(len(widths)), key=lambda i: (-widths[i], i))
        chosen = sorted(order[: target_bands - 1])

    if not chosen:
        return BandStructure(np.zeros(0), 0.0, [list(range(len(values)))])

    centers = np.array([(values[i] + values[i + 1]) / 2.0 for i in chosen])
    tied = np.flatnonzero(np.diff(centers) == 0.0)
    if len(tied):
        gaps = [f"({float(values[i])!r}, {float(values[i + 1])!r})"
                for i in chosen[tied[0] : tied[0] + 2]]
        raise ValueError(f"the gaps {gaps[0]} and {gaps[1]} both center on "
                         f"{float(centers[tied[0]])!r}: they are narrower than float resolution")
    delta = float(min(widths[i] for i in chosen))
    edges = [0] + [i + 1 for i in chosen] + [len(values)]
    bands = [list(range(edges[j], edges[j + 1])) for j in range(len(edges) - 1)]
    return BandStructure(centers, delta, bands)


def check_band_assumption(values, structure: BandStructure):
    """No eigenvalue may fall inside any half-width window around a gap center."""
    values = np.asarray(values, dtype=float)
    half = structure.delta / 2.0
    for center in structure.centers:
        inside = np.abs(values - center) < half - 1e-12
        if np.any(inside):
            bad = float(values[inside][0])
            raise ValueError(
                f"band assumption violated: eigenvalue {bad} lies within "
                f"{half} of gap center {center}"
            )


def exact_projectors(spectrum: HermitianSpectrum, structure: BandStructure) -> list[np.ndarray]:
    """Spectral projectors onto each band, summed from eigenvector outer products."""
    if spectrum.vectors.shape[0] != structure.dimension:
        raise ValueError("spectrum dimension does not match the band structure")
    projectors = []
    for band in structure.bands:
        cols = spectrum.vectors[:, band]
        projectors.append(cols @ dagger(cols))
    return projectors


def synthetic_band_spectrum(bands: int, per_band: int = 1, width: float = 0.0) -> np.ndarray:
    """Evenly spaced band clusters centred in [0.05, 0.95] for driver and test instances."""
    if bands < 1 or per_band < 1:
        raise ValueError("need at least one band with one eigenvalue")
    centers = np.linspace(0.05, 0.95, bands) if bands > 1 else np.array([0.5])
    if per_band == 1:
        return centers.copy()
    offsets = np.linspace(-width / 2.0, width / 2.0, per_band)
    return np.sort(np.concatenate([c + offsets for c in centers]))
