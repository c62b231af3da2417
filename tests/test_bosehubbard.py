import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings

from fqsvt import cli
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
from fqsvt.cli import GMON_SPEC, _read, cmd_bosehubbard, main
from fqsvt.linalg import eigh
from test_config_fuzz import gmon_specs, key

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


@pytest.mark.parametrize("field, rejected, accepted", [
    # 4 (eta/2) m nmax (nmax - 1) is 2e308 for eta = 2.5e307 and m = nmax = 2.
    ("eta", 2.5e307, 1e307),
    ("edges", [(0, 1, 1e308)], [(0, 1, 1e306)]),
    ("delta", [1e308, 1e308], [1e306, 1e306]),
    ("f", [0.0, 1e308], [0.0, 1e306]),
])
def test_model_rejects_a_hamiltonian_that_could_overflow(field, rejected, accepted):
    fields = dict(modes=2, nmax=2, eta=1.0, edges=[(0, 1, 1.0)], delta=[1.0, 1.0],
                  f=[1.0, 1.0], phi=[0.1, 0.2], check_ranges=False)
    with pytest.raises(ValueError, match=rf"^{field} makes the Hamiltonian's spectrum overflow"):
        GmonModel(**{**fields, field: rejected})
    # Within the bound, the field builds a finite Hamiltonian and spectrum.
    model = GmonModel(**{**fields, field: accepted})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = eigh(build_h0(model) + build_h1(model)).values
    assert np.all(np.isfinite(values))


def test_band_labels_examples():
    model = default_model()
    labels = band_labels(model)
    assert labels[fock_index(model, (1, 1))] == 0
    assert labels[fock_index(model, (2, 1))] == 1
    assert labels[fock_index(model, (3, 0))] == 3
    # Band b's bare energy is b times eta.
    assert np.array_equal(np.diag(build_h0(model)).real, labels * model.eta)


def test_band_labels_four_listed_groups():
    model = default_model()
    occ = fock_occupations(model)
    labels = band_labels(model)

    def names(band):
        return sorted("".join(map(str, occ[i])) for i in np.flatnonzero(labels == band))

    assert names(0) == ["00", "01", "10", "11"]
    assert names(1) == ["02", "12", "20", "21"]
    assert names(2) == ["22"]
    assert names(3) == ["03", "13", "30", "31"]


def test_perturbative_band_integrity():
    model = default_model().perturbed(seed=42)
    labels = band_labels(model)
    h = build_h0(model) + build_h1(model)
    spectrum = eigh(h)
    structure = detect_bands(spectrum.values, min_gap=model.eta / 2)
    assert [len(b) for b in structure.bands] == [4, 4, 1, 4, 2, 1]
    label_order = sorted(set(int(l) for l in labels))
    for j, band in enumerate(structure.bands):
        for col in band:
            weights = np.zeros(7)
            for k in range(model.dimension):
                weights[labels[k]] += abs(spectrum.vectors[k, col]) ** 2
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
    normalized, scale = normalize_for_qsvt(h, 0.1)
    values = eigh(normalized).values
    # The span 0.8 and its two margins of 0.08 map onto [0, 1].
    assert scale == pytest.approx(1.0 / 0.96, rel=1e-15)
    assert np.allclose(values, scale * (np.array([0.1, 0.9]) - 0.1 + 0.08),
                       rtol=0.0, atol=1e-14)
    with pytest.raises(ValueError, match="margin"):
        normalize_for_qsvt(h, 0.0)
    with pytest.raises(ValueError, match="single point"):
        normalize_for_qsvt(np.eye(3), 0.1)


def test_normalized_gmon_gap_scales_with_eta():
    model = default_model()
    h = build_h0(model) + build_h1(model)
    normalized, scale = normalize_for_qsvt(h, 0.1)
    structure = detect_bands(eigh(normalized).values, min_gap=0.5 * model.eta * scale)
    assert structure.band_count == 6
    assert structure.delta >= 0.5 * model.eta * scale


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


def written_model(tmp_path, config: dict) -> dict:
    """model.json as `fqsvt bosehubbard` writes it for `config`."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["bosehubbard", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    return json.loads((tmp_path / "out" / "model.json").read_text(encoding="utf-8"))


def test_model_json_round_trip(tmp_path):
    model = default_model()
    restored = _read(GMON_SPEC, written_model(tmp_path, {}), "model")
    assert restored.modes == model.modes
    assert restored.edges == model.edges
    assert np.allclose(restored.delta, model.delta)


def test_perturbed_model_json_reads_back_equal(tmp_path):
    model = default_model().perturbed(3)
    doc = written_model(tmp_path, {"perturb_seed": 3})
    assert _read(GMON_SPEC, doc, "model") == model
    # The same controls as numpy float64 scalars write the same bytes.
    floats = {name: list(np.array(getattr(model, name))) for name in ("delta", "f", "phi")}
    scalars = replace(model, eta=np.float64(model.eta),
                      edges=[(l, j, np.float64(g)) for l, j, g in model.edges], **floats)
    assert type(scalars.delta[0]) is np.float64
    cmd_bosehubbard({"model": scalars, "margin": 0.1, "min_gap_fraction": 0.5}, tmp_path, 0)
    assert (tmp_path / "model.json").read_bytes() == (tmp_path / "out" / "model.json").read_bytes()
    assert _read(GMON_SPEC, json.loads((tmp_path / "model.json").read_text()), "model") == model


def test_perturbed_respects_seed():
    model = default_model()
    a = model.perturbed(7)
    b = model.perturbed(7)
    c = model.perturbed(8)
    assert a.edges == b.edges
    assert a.edges != c.edges


def assert_h1_exactly_hermitian(model: GmonModel):
    h1 = build_h1(model)
    assert np.array_equal(h1, h1.conj().T)


@pytest.mark.parametrize("perturb_seed", [None, *range(20)])
def test_h1_equals_its_conjugate_transpose_exactly(perturb_seed):
    # Every control term is summed as X + X^dag, so H1 needs no tolerance:
    # on the default model and its perturbations ...
    model = default_model()
    assert_h1_exactly_hermitian(model if perturb_seed is None else model.perturbed(perturb_seed))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(gmon_specs(key(cli.BOSEHUBBARD, "model"), range(2, 65)))
def test_h1_of_any_config_model_equals_its_conjugate_transpose_exactly(spec):
    # ... and on any model a config can describe, controls out of range included.
    assert_h1_exactly_hermitian(GmonModel(**spec))
