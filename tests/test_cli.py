import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fqsvt
from fqsvt.bosehubbard import default_model
from fqsvt.cli import ConfigError, _number, main
from fqsvt.linalg import matrix_to_json


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_import_loads_no_scipy(tmp_path):
    # No module of the package imports scipy, so neither the import nor a
    # full phase synthesis may load it.
    cfg = write_config(tmp_path, {"mu": 0.5, "delta": 0.3, "eps": 1e-3})
    argv = ["phases", "--config", cfg, "--out", str(tmp_path / "out")]
    code = (f"import sys, fqsvt.cli; assert fqsvt.cli.main({argv!r}) == 0; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    env = {**os.environ, "PYTHONPATH": str(Path(fqsvt.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.strip() == "[]"


def test_phases_command_writes_artifacts(tmp_path):
    cfg = write_config(tmp_path, {"mu": 0.5, "delta": 0.4, "eps": 1e-2})
    out = tmp_path / "out"
    assert main(["phases", "--config", cfg, "--out", str(out)]) == 0
    for name in ("filter.json", "phases_su2.json", "phases_circuit.json", "certification.csv"):
        assert (out / name).exists()
    cert = (out / "certification.csv").read_text().splitlines()
    assert cert[0] == "condition,bound,worst_value,margin,passed"
    assert len(cert) == 4
    phases = json.loads((out / "phases_circuit.json").read_text())
    assert phases["convention"] == "circuit"


def test_phases_command_deterministic(tmp_path):
    cfg = write_config(tmp_path, {"mu": 0.5, "delta": 0.4, "eps": 1e-2})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["phases", "--config", cfg, "--out", str(out1)])
    main(["phases", "--config", cfg, "--out", str(out2)])
    for name in ("filter.json", "phases_su2.json", "certification.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_phases_rejects_invalid_window(tmp_path):
    cfg = write_config(tmp_path, {"mu": 0.9, "delta": 0.3, "eps": 1e-2})
    assert main(["phases", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_unknown_config_key_rejected(tmp_path):
    cfg = write_config(tmp_path, {"mu": 0.5, "delta": 0.4, "eps": 1e-2, "bogus": 1})
    assert main(["phases", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_missing_config_file(tmp_path):
    assert main(["phases", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 2


def test_project_enumerate_synthetic(tmp_path):
    cfg = write_config(tmp_path, {
        "model": {"type": "synthetic", "bands": 2, "per_band": 2, "width": 0.02,
                  "basis_seed": 5},
        "bands": {"target": 2},
        "round_eps": 2e-3,
        "haar_samples": 8,
    })
    out = tmp_path / "proj"
    assert main(["project", "--config", cfg, "--seed", "3", "--out", str(out)]) == 0
    tree = json.loads((out / "tree.json").read_text())
    assert tree["L"] == 2
    rows = dict(
        line.split(",") for line in
        (out / "distance.csv").read_text().splitlines()[1:]
    )
    assert float(rows["distance_proxy"]) <= float(rows["bound_4_L_log2L_eps"])
    assert rows["queries"] == rows["query_formula"]
    kraus = json.loads((out / "kraus.json").read_text())
    assert kraus["completeness_residual"] <= 1e-9


def test_project_sample_mode_records(tmp_path):
    cfg = write_config(tmp_path, {
        "model": {"type": "synthetic", "bands": 2, "per_band": 1, "basis_seed": 6},
        "bands": {"target": 2},
        "round_eps": 5e-3,
        "mode": "sample",
        "trajectories": 40,
        "input": {"type": "haar", "seed": 11},
    })
    out = tmp_path / "sample"
    assert main(["project", "--config", cfg, "--seed", "4", "--out", str(out)]) == 0
    lines = (out / "records.csv").read_text().splitlines()
    assert lines[0] == "trajectory,record_bits,claimed_band,failed"
    assert len(lines) == 41
    weights = (out / "band_weights.csv").read_text().splitlines()
    assert len(weights) == 3


def _inline(matrix) -> dict:
    return {"type": "inline", "matrix": matrix_to_json(np.asarray(matrix))}


GOOD_MODEL = _inline(np.diag([0.2, 0.8]))


@pytest.mark.parametrize("model, inp, cause", [
    ({"type": "inline", "matrix": {"rows": 2, "cols": 2, "data": [[0.5, 0.0]] * 3}}, {},
     "claims 2x2 but carries 3 entries"),
    (_inline(0.5 * np.eye(2, 4)), {}, "expected a square matrix"),
    (_inline([[0.2, 0.1], [0.3, 0.8]]), {}, "not Hermitian"),
    (_inline(np.diag([0.5, 1.4])), {}, "spectrum must lie in [0, 1]"),
    (GOOD_MODEL, {"type": "eigenstate", "index": 2}, "eigenstate index 2 outside [0, 2)"),
    (GOOD_MODEL, {"type": "eigenstate", "index": -1}, "eigenstate index -1 outside [0, 2)"),
    (GOOD_MODEL, {"type": "amplitudes", "values": [[1.0, 0.0]] * 3}, "expected 2 amplitudes"),
    (GOOD_MODEL, {"type": "amplitudes", "values": [[0.0, 0.0]] * 2}, "amplitudes are all zero"),
    (GOOD_MODEL, {"type": "amplitudes", "values": [[1.0, 0.0], [math.inf, 0.0]]},
     "amplitudes must be finite"),
    (GOOD_MODEL, {"type": "amplitudes", "values": [1, 2]},
     "input.values: expected a list of numeric [re, im] pairs"),
], ids=["entry-count", "non-square", "non-hermitian", "spectrum", "index-high", "index-negative",
        "amplitude-count", "amplitudes-zero", "amplitudes-nonfinite", "amplitudes-not-pairs"])
def test_project_rejects_bad_inline_model_or_input_with_exit_2(tmp_path, capsys, model, inp, cause):
    cfg = write_config(tmp_path, {
        "model": model,
        "bands": {"target": 2},
        "round_eps": 1e-2,
        "input": inp,
    })
    assert main(["project", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert cause in capsys.readouterr().err


def test_project_rejects_gmon_non_power_of_two_with_exit_2(tmp_path, capsys):
    spec = default_model().to_json()
    spec["nmax"] = 2  # two modes with three levels: dimension 9
    cfg = write_config(tmp_path, {
        "model": {"type": "gmon", "spec": spec},
        "bands": {"target": 2},
        "round_eps": 1e-2,
    })
    assert main(["project", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "power-of-two dimension, got 9" in capsys.readouterr().err


def test_project_rejects_inline_non_power_of_two_with_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "model": {"type": "inline", "matrix": matrix_to_json(np.diag([0.2, 0.5, 0.8]))},
        "bands": {"target": 3},
        "round_eps": 1e-2,
    })
    assert main(["project", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "power-of-two dimension, got 3" in capsys.readouterr().err


@pytest.mark.parametrize("budget", [{"round_eps": 1e-8}, {"budget": 1e-7}])
def test_project_rejects_round_budget_below_floor_with_exit_2(tmp_path, capsys, budget):
    cfg = write_config(tmp_path, {
        "model": {"type": "synthetic", "bands": 2, "per_band": 2, "width": 0.02},
        "bands": {"target": 2},
        **budget,
    })
    assert main(["project", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "per-round budget" in capsys.readouterr().err


SMALL_SYNTHETIC = {"type": "synthetic", "bands": 2, "per_band": 2, "width": 0.02}


@pytest.mark.parametrize("changes, cause", [
    ({"bands": {"min_gap": -1}}, "bands.min_gap must be > 0.0, got -1.0"),
    ({"model": GOOD_MODEL, "bands": {"target": 5}}, "bands.target must be <= 2, got 5"),
    ({"bands": {"target": "x"}}, "bands.target: expected int, got 'x'"),
    ({"model": {**SMALL_SYNTHETIC, "per_band": 0}}, "model.per_band must be >= 1, got 0"),
    ({"round_eps": "abc"}, "project.round_eps: expected float, got 'abc'"),
    ({"round_eps": None, "budget": "x"}, "project.budget: expected float, got 'x'"),
    ({"round_eps": None, "budget": 0.1, "split_constant": 0},
     "project.split_constant must be > 0.0, got 0.0"),
    ({"mode": "sample", "trajectories": -3}, "project.trajectories must be >= 1, got -3"),
    ({"haar_samples": -4}, "project.haar_samples must be >= 0, got -4"),
    ({"round_eps": float("nan")}, "project.round_eps: expected a finite value"),
    ({"model": {**SMALL_SYNTHETIC, "width": 0.5}}, "model.width 0.5: spectrum must lie in [0, 1]"),
    ({"model": {"type": "gmon", "margin": 0.7}}, "model.margin must be < 0.5, got 0.7"),
    ({"model": {"type": "gmon", "spec": {"modes": 2}}}, "model.spec: missing key 'nmax'"),
    ({"model": {"type": "gmon", "spec": {**default_model().to_json(), "delta": [0.0]}}},
     "model.spec: delta must carry one value per mode"),
    ({"model": {**SMALL_SYNTHETIC, "basis_seed": 2**64}},
     "model.basis_seed must be <= 18446744073709551615, got 18446744073709551616"),
    ({"input": {"type": "haar", "seed": 2**64}},
     "input.seed must be <= 18446744073709551615, got 18446744073709551616"),
    ({"model": {"type": "gmon", "perturb_seed": 2**64}},
     "model.perturb_seed must be <= 18446744073709551615, got 18446744073709551616"),
    ({"mode": "sample", "trajectories": 2.7}, "project.trajectories: expected int, got 2.7"),
    ({"model": {**SMALL_SYNTHETIC, "bands": 2.9}}, "model.bands: expected int, got 2.9"),
    ({"bands": {"target": True}}, "bands.target: expected int, got True"),
    ({"round_eps": True}, "project.round_eps: expected float, got True"),
], ids=["min-gap-negative", "target-too-large", "target-type", "per-band-zero",
        "round-eps-type", "budget-type", "split-constant-zero", "trajectories-negative",
        "haar-samples-negative", "round-eps-nan", "width-outside-unit-interval",
        "gmon-margin-too-large", "gmon-spec-missing-key", "gmon-spec-bad-field",
        "basis-seed-above-64-bits", "input-seed-above-64-bits", "perturb-seed-above-64-bits",
        "trajectories-fractional", "bands-fractional", "target-boolean", "round-eps-boolean"])
def test_project_rejects_bad_config_value_with_exit_2(tmp_path, capsys, changes, cause):
    doc = {"model": SMALL_SYNTHETIC, "bands": {"target": 2}, "round_eps": 1e-2, **changes}
    doc = {key: value for key, value in doc.items() if value is not None}
    cfg = write_config(tmp_path, doc)
    assert main(["project", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert cause in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_project_rejects_seed_outside_64_bits_with_exit_2(tmp_path, capsys, seed):
    # The synthetic basis seed defaults to --seed, so the error must name --seed.
    cfg = write_config(tmp_path, {"model": SMALL_SYNTHETIC, "bands": {"target": 2},
                                  "round_eps": 1e-2})
    assert main(["project", "--config", cfg, "--seed", seed, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "--seed must be " in err and "basis_seed" not in err


def test_number_keeps_integral_floats_and_numeric_strings():
    assert _number(int, 1e4, "n") == 10000
    assert _number(int, "12", "n") == 12
    assert _number(float, "0.25", "x") == 0.25
    assert _number(float, 3, "x") == 3.0
    for kind, value in ((int, 2.5), (int, False), (float, True)):
        with pytest.raises(ConfigError, match=f"n: expected {kind.__name__}"):
            _number(kind, value, "n")


@pytest.mark.parametrize("mode, files", [
    ("enumerate", ("bands.json", "tree.json", "kraus.json", "distance.csv")),
    ("sample", ("bands.json", "records.csv", "band_weights.csv")),
])
def test_project_reruns_write_identical_artifacts(tmp_path, mode, files):
    cfg = write_config(tmp_path, {
        "model": {**SMALL_SYNTHETIC, "basis_seed": 7},
        "bands": {"target": 2},
        "round_eps": 2e-3,
        "mode": mode,
        "trajectories": 25,
        "haar_samples": 6,
        "input": {"type": "haar"},
    })
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["project", "--config", cfg, "--seed", "9", "--out", str(out)]) == 0
    assert sorted(path.name for path in outs[0].iterdir()) == sorted(files)
    for name in files:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_baselines_csv(tmp_path):
    cfg = write_config(tmp_path, {"Ls": [2, 4], "trials": 1000,
                                  "filter": {"delta": 0.4, "eps": 1e-2}})
    out = tmp_path / "base"
    assert main(["baselines", "--config", cfg, "--seed", "5", "--out", str(out)]) == 0
    lines = (out / "baselines.csv").read_text().splitlines()
    assert lines[0].startswith("L,feedforward_queries,random_walk_success")
    assert len(lines) == 3
    for line, count in zip(lines[1:], (2, 4)):
        cells = line.split(",")
        assert int(cells[0]) == count
        assert float(cells[2]) <= 2.0 / count + 3 * float(cells[3])
    # Amplified depth column is sqrt(L) for the uniform weights.
    assert float(lines[1].split(",")[4]) == pytest.approx(math.sqrt(2))

    out2 = tmp_path / "base2"
    main(["baselines", "--config", cfg, "--seed", "5", "--out", str(out2)])
    assert (out / "baselines.csv").read_bytes() == (out2 / "baselines.csv").read_bytes()


def test_baselines_single_row(tmp_path):
    cfg = write_config(tmp_path, {"Ls": [2], "trials": 1000})
    out = tmp_path / "single"
    assert main(["baselines", "--config", cfg, "--out", str(out)]) == 0
    assert len((out / "baselines.csv").read_text().splitlines()) == 2


def test_bosehubbard_outputs(tmp_path):
    cfg = write_config(tmp_path, {"margin": 0.1})
    out = tmp_path / "bh"
    assert main(["bosehubbard", "--config", cfg, "--out", str(out)]) == 0
    labels = (out / "labels.csv").read_text().splitlines()
    assert labels[0] == "index,occupations,band"
    assert len(labels) == 17
    bands = json.loads((out / "bands.json").read_text())
    assert bands["L"] == 6


def test_bosehubbard_rejects_margin_outside_open_half_with_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"margin": 0.7})
    assert main(["bosehubbard", "--config", cfg, "--out", str(tmp_path / "bh")]) == 2
    assert "bosehubbard.margin must be < 0.5, got 0.7" in capsys.readouterr().err


@pytest.mark.parametrize("command, doc, cause", [
    ("bosehubbard", {"perturb_seed": 2**64},
     "bosehubbard.perturb_seed must be <= 18446744073709551615, got 18446744073709551616"),
    ("bosehubbard", {"perturb_seed": True}, "bosehubbard.perturb_seed: expected int, got True"),
    ("phases", {"mu": 0.5, "delta": 0.3, "eps": 1e-3, "tol": True},
     "phases.tol: expected float, got True"),
], ids=["perturb-seed-above-64-bits", "perturb-seed-boolean", "tol-boolean"])
def test_other_commands_reject_bad_numbers_with_exit_2(tmp_path, capsys, command, doc, cause):
    cfg = write_config(tmp_path, doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert cause in capsys.readouterr().err


@pytest.mark.parametrize("changes, cause", [
    ({"filter": {"delta": 1.5}}, "baselines.filter: invalid filter parameters: transition window"),
    ({"filter": {"eps": 1e-9}}, "baselines.filter: invalid filter parameters: error budget 1e-09"),
    ({"adiabatic_min_gap": 0}, "baselines.adiabatic_min_gap must be > 0.0, got 0.0"),
    ({"adiabatic_eps": -1}, "baselines.adiabatic_eps must be > 0.0, got -1.0"),
    ({"trials": 999}, "baselines.trials must be >= 1000, got 999"),
    ({"trials": 1000.5}, "baselines.trials: expected int, got 1000.5"),
], ids=["filter-delta", "filter-eps", "adiabatic-min-gap", "adiabatic-eps", "trials-below-1000",
        "trials-fractional"])
def test_baselines_rejects_bad_config_value_with_exit_2(tmp_path, capsys, changes, cause):
    cfg = write_config(tmp_path, {"Ls": [2], "trials": 1000, **changes})
    assert main(["baselines", "--config", cfg, "--out", str(tmp_path / "b")]) == 2
    assert cause in capsys.readouterr().err


@pytest.mark.parametrize("model, cause", [
    ({"modes": 2}, "bosehubbard.model: missing key 'nmax'"),
    ({**default_model().to_json(), "nmax": 0}, "bosehubbard.model: need at least one mode"),
], ids=["missing-key", "bad-field"])
def test_bosehubbard_rejects_bad_model_with_exit_2(tmp_path, capsys, model, cause):
    cfg = write_config(tmp_path, {"model": model})
    assert main(["bosehubbard", "--config", cfg, "--out", str(tmp_path / "bh")]) == 2
    assert cause in capsys.readouterr().err


@pytest.mark.parametrize("criteria, cause", [
    ("11", "verify --criteria: unknown criteria [11]"),
    ("1,x", "verify --criteria: expected int, got 'x'"),
], ids=["unknown", "not-a-number"])
def test_verify_rejects_bad_criteria_with_exit_2(tmp_path, capsys, criteria, cause):
    out = tmp_path / "v"
    assert main(["verify", "--criteria", criteria, "--out", str(out)]) == 2
    assert cause in capsys.readouterr().err
    assert not out.exists()


def test_verify_subset(capsys):
    assert main(["verify", "--criteria", "8"]) == 0
    captured = capsys.readouterr()
    assert "[PASS]" in captured.out
