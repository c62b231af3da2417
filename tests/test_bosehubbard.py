import math

import numpy as np
import pytest

from fqsvt.bands import detect_bands
from fqsvt.bosehubbard import (
    GmonModel,
    band_labels,
    build_h0,
    build_h1,
    default_model,
    fock_occupations,
    normalize_for_qsvt,
)
from fqsvt.linalg import eigh

TWO_PI = 2 * math.pi


def pauli_basis_fit(matrix: np.ndarray, model: GmonModel) -> tuple:
    """Least-squares fit of a 2^modes matrix onto the control Pauli patterns."""
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    eye = np.eye(2, dtype=complex)

    def on_qubit(op, mode):
        out = np.eye(1, dtype=complex)
        for j in range(model.modes):
            out = np.kron(out, op if j == mode else eye)
        return out

    patterns = {"identity": np.eye(2**model.modes, dtype=complex)}
    for j in range(model.modes):
        patterns[f"X{j}"] = on_qubit(x, j)
        patterns[f"Y{j}"] = on_qubit(y, j)
        patterns[f"Z{j}"] = on_qubit(z, j)
    for l, j, _ in model.edges:
        patterns[f"XX+YY({l},{j})"] = on_qubit(x, l) @ on_qubit(x, j) + on_qubit(y, l) @ on_qubit(y, j)

    names = list(patterns)
    stack = np.stack([patterns[name].ravel() for name in names], axis=1)
    coeffs, *_ = np.linalg.lstsq(stack, matrix.ravel(), rcond=None)
    fit = (stack @ coeffs).reshape(matrix.shape)
    residual = float(np.max(np.abs(matrix - fit)))
    return dict(zip(names, coeffs.real)), residual


def qubit_projection_check(model: GmonModel) -> tuple:
    """Project the control Hamiltonian onto the qubit subspace and fit Pauli patterns.

    Returns (coefficients, residual): the projected matrix must lie in the
    span of per-edge XX+YY, per-mode Z, X, Y, and the identity.
    """
    h1 = build_h1(model)
    occ = fock_occupations(model)
    qubit_rows = np.where(np.all(occ <= 1, axis=1))[0]
    # Order qubit basis states as binary numbers, first mode most significant.
    order = np.argsort([int("".join(map(str, occ[r])), 2) for r in qubit_rows])
    rows = qubit_rows[order]
    projected = h1[np.ix_(rows, rows)]
    return pauli_basis_fit(projected, model)


def fock_index(model, occupations):
    idx = 0
    for n in occupations:
        idx = idx * model.levels + n
    return idx


def test_h0_band_energies():
    model = default_model()
    h0 = build_h0(model)
    diag = np.real(np.diagonal(h0))
    assert diag[fock_index(model, (0, 2))] == pytest.approx(model.eta)
    assert diag[fock_index(model, (2, 2))] == pytest.approx(2 * model.eta)
    assert diag[fock_index(model, (0, 3))] == pytest.approx(3 * model.eta)
    for occ in ((0, 0), (0, 1), (1, 0), (1, 1)):
        assert diag[fock_index(model, occ)] == 0.0


def test_h1_zero_controls_vanishes():
    model = GmonModel(2, 3, TWO_PI * 200, [(0, 1, 0.0)], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0])
    assert np.max(np.abs(build_h1(model))) == 0.0


def test_h1_single_mode_drive_structure():
    model = GmonModel(1, 3, TWO_PI * 200, [], [0.0], [1.0], [0.0], check_ranges=False)
    h1 = build_h1(model)
    for k in range(1, 4):
        assert h1[k - 1, k] == pytest.approx(1j * math.sqrt(k))
        assert h1[k, k - 1] == pytest.approx(-1j * math.sqrt(k))
    assert np.max(np.abs(np.real(h1))) == 0.0


def test_h1_hermitian_for_generic_controls():
    model = default_model()
    h1 = build_h1(model)
    assert np.max(np.abs(h1 - h1.conj().T)) <= 1e-12


def test_control_range_enforcement():
    GmonModel(2, 3, TWO_PI * 200, [(0, 1, TWO_PI * 20)], [0, 0], [0, 0], [0, 0])
    with pytest.raises(ValueError, match="control range"):
        GmonModel(2, 3, TWO_PI * 200, [(0, 1, TWO_PI * 30)], [0, 0], [0, 0], [0, 0])
    with pytest.raises(ValueError, match="phase"):
        GmonModel(2, 3, TWO_PI * 200, [], [0, 0], [0, 0], [7.0, 0.0])
    # With range checking disabled the same coupling is accepted.
    GmonModel(2, 3, TWO_PI * 200, [(0, 1, TWO_PI * 30)], [0, 0], [0, 0], [0, 0],
              check_ranges=False)


def test_band_labels_examples():
    model = default_model()
    labeling = band_labels(model)
    assert labeling.labels[fock_index(model, (1, 1))] == 0
    assert labeling.labels[fock_index(model, (2, 1))] == 1
    assert labeling.labels[fock_index(model, (3, 0))] == 3
    # Band b's bare energy is b times eta.
    assert np.array_equal(np.diag(build_h0(model)).real, labeling.labels * model.eta)


def test_band_labels_four_listed_groups():
    model = default_model()
    occ = fock_occupations(model)
    groups = band_labels(model).groups()

    def names(band):
        return sorted("".join(map(str, occ[i])) for i in groups[band])

    assert names(0) == ["00", "01", "10", "11"]
    assert names(1) == ["02", "12", "20", "21"]
    assert names(2) == ["22"]
    assert names(3) == ["03", "13", "30", "31"]


def test_perturbative_band_integrity():
    model = default_model().perturbed(seed=42)
    labeling = band_labels(model)
    h = build_h0(model) + build_h1(model)
    spectrum = eigh(h)
    structure = detect_bands(spectrum.values, min_gap=model.eta / 2)
    assert [len(b) for b in structure.bands] == [4, 4, 1, 4, 2, 1]
    label_order = sorted(set(int(l) for l in labeling.labels))
    for j, band in enumerate(structure.bands):
        for col in band:
            weights = np.zeros(7)
            for k in range(model.dimension):
                weights[labeling.labels[k]] += abs(spectrum.vectors[k, col]) ** 2
            assert weights[label_order[j]] >= 0.9


def test_truncation_stability_of_qubit_band():
    # The qubit band only reaches the added Fock level through high-order
    # drive processes, so deepening the truncation leaves it untouched at
    # the 1e-6 level; higher bands couple to the new level directly and
    # shift at the perturbative scale instead.
    base = default_model()
    bigger = GmonModel(base.modes, base.nmax + 1, base.eta, base.edges,
                       base.delta, base.f, base.phi)
    vals3 = np.sort(eigh(build_h0(base) + build_h1(base)).values)
    vals4 = np.sort(eigh(build_h0(bigger) + build_h1(bigger)).values)
    rel = np.max(np.abs(vals3[:4] - vals4[:4])) / base.eta
    assert rel < 1e-6


def test_normalize_round_trip_and_validation():
    h = np.diag([0.1, 0.9])
    normalized, mapping = normalize_for_qsvt(h, 0.1)
    values = eigh(normalized).values
    assert values[0] > 0 and values[-1] < 1
    assert np.allclose(values, mapping.scale * np.array([0.1, 0.9]) + mapping.offset,
                       rtol=0.0, atol=1e-14)
    with pytest.raises(ValueError, match="margin"):
        normalize_for_qsvt(h, 0.0)
    with pytest.raises(ValueError, match="single point"):
        normalize_for_qsvt(np.eye(3), 0.1)


def test_normalized_gmon_gap_scales_with_eta():
    model = default_model()
    h = build_h0(model) + build_h1(model)
    normalized, mapping = normalize_for_qsvt(h, 0.1)
    structure = detect_bands(eigh(normalized).values, min_gap=0.5 * model.eta * mapping.scale)
    assert structure.band_count == 6
    assert structure.delta >= 0.5 * model.eta * mapping.scale


def test_qubit_projection_pattern():
    model = default_model()
    coeffs, residual = qubit_projection_check(model)
    assert residual <= 1e-10
    g = model.edges[0][2]
    assert coeffs["XX+YY(0,1)"] == pytest.approx(g / 2, rel=1e-9)
    for j in range(2):
        assert abs(coeffs[f"Z{j}"]) == pytest.approx(abs(model.delta[j]) / 2, rel=1e-9)
        amp = math.hypot(coeffs[f"X{j}"], coeffs[f"Y{j}"])
        assert amp == pytest.approx(model.f[j], rel=1e-9)


def test_model_json_round_trip():
    model = default_model()
    restored = GmonModel.from_json(model.to_json())
    assert restored.modes == model.modes
    assert restored.edges == model.edges
    assert np.allclose(restored.delta, model.delta)


def test_perturbed_respects_seed():
    model = default_model()
    a = model.perturbed(7)
    b = model.perturbed(7)
    c = model.perturbed(8)
    assert a.edges == b.edges
    assert a.edges != c.edges
