import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fqsvt.bands import (
    BandStructure,
    check_band_assumption,
    detect_bands,
    exact_channel,
    exact_projectors,
    synthetic_band_spectrum,
)
from fqsvt.linalg import dagger, eigh, hermitian_from_spectrum, rng


def test_detect_bands_worked_example():
    values = [0.05, 0.1, 0.4, 0.45, 0.8, 0.85]
    s = detect_bands(values, min_gap=0.25)
    assert s.band_count == 3
    assert np.allclose(s.centers, [0.25, 0.625])
    assert s.delta == pytest.approx(0.3)
    assert s.bands == [[0, 1], [2, 3], [4, 5]]


def test_detect_bands_no_gap_returns_single_band():
    s = detect_bands(np.linspace(0, 1, 11), min_gap=0.5)
    assert s.band_count == 1
    assert s.bands == [list(range(11))]
    assert s.delta == 0.0


def test_detect_bands_target_count_ties_toward_lower_energy():
    # Two equal-width gaps; asking for 2 bands picks the lower one.
    values = [0.1, 0.4, 0.7]
    s = detect_bands(values, target_bands=2)
    assert s.band_count == 2
    assert s.centers[0] == pytest.approx(0.25)


def test_detect_bands_affine_equivariance():
    values = np.array([0.05, 0.1, 0.4, 0.45, 0.8, 0.85])
    base = detect_bands(values, min_gap=0.25)
    scale, shift = 0.5, 0.2
    moved = detect_bands(scale * values + shift, min_gap=scale * 0.25)
    assert np.allclose(moved.centers, scale * base.centers + shift)
    assert moved.delta == pytest.approx(scale * base.delta)
    assert moved.bands == base.bands


def test_detect_bands_input_validation():
    with pytest.raises(ValueError, match="ascending"):
        detect_bands([0.5, 0.1], min_gap=0.1)
    with pytest.raises(ValueError, match="exactly one"):
        detect_bands([0.1, 0.9], min_gap=0.1, target_bands=2)
    with pytest.raises(ValueError, match="exactly one"):
        detect_bands([0.1, 0.9])


def test_exact_projectors_diagonal_case():
    spec = eigh(np.diag([0.1, 0.2, 0.8, 0.9]))
    s = detect_bands(spec.values, min_gap=0.5)
    projectors = exact_projectors(spec, s)
    assert np.allclose(projectors[0], np.diag([1, 1, 0, 0]))
    assert np.allclose(projectors[1], np.diag([0, 0, 1, 1]))


def test_exact_projectors_idempotent_and_complete():
    gen = rng(1)
    h = hermitian_from_spectrum(synthetic_band_spectrum(3, 2, 0.02), gen)
    spec = eigh(h)
    s = detect_bands(spec.values, target_bands=3)
    projectors = exact_projectors(spec, s)
    total = np.zeros_like(h)
    for p in projectors:
        assert np.max(np.abs(p @ p - p)) <= 1e-10
        assert np.max(np.abs(p - dagger(p))) <= 1e-12
        total += p
    assert np.max(np.abs(total - np.eye(6))) <= 1e-10


def test_exact_channel_fixed_point_and_dephasing():
    gen = rng(2)
    h = hermitian_from_spectrum([0.1, 0.15, 0.8, 0.85], gen)
    spec = eigh(h)
    s = detect_bands(spec.values, min_gap=0.5)
    projectors = exact_projectors(spec, s)

    # Uniform superposition of one eigenvector per band dephases to an
    # equal mixture of those eigenvectors.
    v0, v2 = spec.vectors[:, 0], spec.vectors[:, 2]
    pure = (v0 + v2) / np.sqrt(2)
    rho = np.outer(pure, pure.conj())
    out = exact_channel(rho, projectors)
    expected = 0.5 * (np.outer(v0, v0.conj()) + np.outer(v2, v2.conj()))
    assert np.max(np.abs(out - expected)) <= 1e-12
    # Already block-diagonal input is a fixed point; the channel is idempotent.
    again = exact_channel(out, projectors)
    assert np.max(np.abs(again - out)) <= 1e-12
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
    assert np.min(eigh(out).values) >= -1e-10


def test_exact_channel_rejects_non_density():
    projectors = [np.eye(2)]
    with pytest.raises(ValueError, match="trace"):
        exact_channel(np.eye(2), projectors)
    with pytest.raises(ValueError, match="Hermitian"):
        exact_channel(np.array([[0.5, 0.5], [0.0, 0.5]]), projectors)
    with pytest.raises(ValueError, match="positive"):
        exact_channel(np.diag([1.5, -0.5]), projectors)


def test_band_assumption_checker():
    values = np.array([0.1, 0.2, 0.8, 0.9])
    s = detect_bands(values, min_gap=0.5)
    check_band_assumption(values, s)
    bad = BandStructure(2, [0.5], 0.7, [[0, 1], [2, 3]])
    with pytest.raises(ValueError, match="band assumption"):
        check_band_assumption(values, bad)


def test_band_structure_validation_and_json():
    s = BandStructure(2, [0.5], 0.2, [[0, 1], [2]])
    doc = s.to_json()
    assert doc["L"] == 2
    restored = BandStructure(doc["L"], doc["centers"], doc["delta"], doc["bands"])
    assert restored.bands == s.bands
    with pytest.raises(ValueError, match="partition"):
        BandStructure(2, [0.5], 0.2, [[0], [2]])
    with pytest.raises(ValueError, match="centers"):
        BandStructure(3, [0.5], 0.2, [[0], [1], [2]])


def test_synthetic_band_spectrum_shapes():
    values = synthetic_band_spectrum(4, per_band=2, width=0.02)
    assert len(values) == 8
    assert np.all(np.diff(values) > 0)
    single = synthetic_band_spectrum(1, per_band=4, width=0.1)
    assert len(single) == 4


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(2, 12), st.integers(0, 2**32 - 1), st.floats(0.1, 10.0),
       st.floats(-5.0, 5.0), st.integers(1, 12))
def test_detect_bands_is_affine_equivariant(n, seed, scale, shift, target):
    values = np.cumsum(np.random.default_rng(seed).uniform(0.0, 1.0, n))
    widths = np.sort(np.diff(values))
    # Distinct gap widths: no tie for roundoff in the map to break differently.
    assume(np.all(np.diff(widths) > 1e-9 * widths[-1]))
    moved_values = scale * values + shift
    # A min_gap between the two narrowest gaps (or below the only one).
    min_gap = 0.5 * (widths[0] + widths[1]) if n > 2 else 0.5 * widths[0]
    for kwargs, moved_kwargs in (({"target_bands": min(target, n)},) * 2,
                                 ({"min_gap": min_gap}, {"min_gap": scale * min_gap})):
        base = detect_bands(values, **kwargs)
        moved = detect_bands(moved_values, **moved_kwargs)
        assert moved.bands == base.bands
        assert np.allclose(moved.centers, scale * base.centers + shift, rtol=0.0, atol=1e-12)
        assert moved.delta == pytest.approx(scale * base.delta, rel=1e-12, abs=1e-15)
