import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import orjson
import pytest

import fqsvt
from fqsvt import chebyshev, cli, feedforward
from fqsvt.cli import ConfigError, _number, main, matrix_to_json
from fqsvt.linalg import SAMPLE_UNIFORMS
from fqsvt.verify import CRITERIA


def write_config(tmp_path, doc, name="config.json"):
    """`doc` as a config file; the arrays of `matrix_to_json` documents become lists."""
    path = tmp_path / name
    path.write_text(json.dumps(doc, default=np.ndarray.tolist))
    return str(path)


def default_model_doc() -> dict:
    """The default gmon model as `fqsvt bosehubbard` writes it to model.json."""
    with tempfile.TemporaryDirectory() as tmp:
        config = write_config(Path(tmp), {})
        assert main(["bosehubbard", "--config", config, "--out", tmp]) == 0
        return json.loads((Path(tmp) / "model.json").read_text(encoding="utf-8"))


GMON_SPEC_DOC = default_model_doc()


def reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def assert_json_is_compact_and_sorted(out: Path):
    """Every JSON artifact is orjson's compact, key-sorted dump of its own content,
    and standard JSON: stdlib `json` parses it, with no NaN or Infinity."""
    paths = sorted(out.glob("*.json"))
    assert paths
    for path in paths:
        data = path.read_bytes()
        assert data == orjson.dumps(orjson.loads(data), option=orjson.OPT_SORT_KEYS) + b"\n", \
            path.name
        json.loads(data.decode("ascii"), parse_constant=reject_constant)


def test_cli_import_loads_no_scipy(tmp_path):
    # No module of the package imports scipy, so neither the import nor a
    # full phase synthesis may load it. `verify` writes no JSON, so it does
    # not load orjson either.
    cfg = write_config(tmp_path, {"mu": 0.5, "delta": 0.3, "eps": 1e-3})
    env = {**os.environ, "PYTHONPATH": str(Path(fqsvt.__file__).parents[1])}
    for argv, unloaded in ((["phases", "--config", cfg, "--out", str(tmp_path / "out")],
                            ("scipy",)),
                           (["verify", "--criteria", "8"], ("scipy", "orjson"))):
        code = (f"import sys, fqsvt.cli; assert fqsvt.cli.main({argv!r}) == 0; "
                f"print(sorted(m for m in sys.modules if m.startswith({unloaded!r})))")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, check=True)
        assert done.stdout.splitlines()[-1] == "[]", argv


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
    assert_json_is_compact_and_sorted(out)


def test_phases_command_deterministic(tmp_path):
    cfg = write_config(tmp_path, {"mu": 0.5, "delta": 0.4, "eps": 1e-2})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["phases", "--config", cfg, "--out", str(out1)])
    main(["phases", "--config", cfg, "--out", str(out2)])
    for name in ("filter.json", "phases_su2.json", "certification.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_phases_certifies_without_a_root_solve_after_the_build(tmp_path, monkeypatch):
    # The filter build certifies on the critical points its last feasible
    # verdict solved, and `phases` writes that report: every colleague-matrix
    # root solve of the command happens inside the build.
    spec = {"mu": 0.5, "delta": 0.3, "eps": 1e-3}
    solves = []
    critical_points = chebyshev._critical_points

    def recording(coeffs):
        frame, names = sys._getframe(1), set()
        while frame is not None:
            names.add(frame.f_code.co_name)
            frame = frame.f_back
        solves.append("_build_filters" in names)
        return critical_points(coeffs)

    monkeypatch.setattr(chebyshev, "_critical_points", recording)
    chebyshev.heaviside_filter([chebyshev.FilterSpec(**spec)])
    build_solves, solves[:] = len(solves), []
    assert main(["phases", "--config", write_config(tmp_path, spec),
                 "--out", str(tmp_path / "out")]) == 0
    assert build_solves > 0
    assert solves == [True] * build_solves


def test_phases_rejects_invalid_window(tmp_path):
    cfg = write_config(tmp_path, {"mu": 0.9, "delta": 0.3, "eps": 1e-2})
    assert main(["phases", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_unknown_config_key_rejected(tmp_path):
    cfg = write_config(tmp_path, {"mu": 0.5, "delta": 0.4, "eps": 1e-2, "bogus": 1})
    assert main(["phases", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_missing_config_file(tmp_path):
    assert main(["phases", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 2


def distance_rows(out) -> dict:
    """quantity -> value, as text, from a run's distance.csv."""
    return dict(line.split(",") for line in (out / "distance.csv").read_text().splitlines()[1:])


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
    rows = distance_rows(out)
    lower, upper, residual = (float(rows[f"distance_{end}"])
                              for end in ("lower", "upper", "residual"))
    assert 0.0 <= residual <= 1e-10
    assert lower <= upper <= float(rows["bound_4_L_log2L_eps"])
    assert rows["queries"] == rows["query_formula"]
    kraus = json.loads((out / "kraus.json").read_text())
    assert kraus["completeness_residual"] <= 1e-9
    assert_json_is_compact_and_sorted(out)


def test_single_band_distance_csv_is_bracketed_by_its_bound(tmp_path):
    # One band runs no block, so the channel is exactly one-band dephasing,
    # the identity; a 0 exit certifies lower <= upper <= 4 L log2(L) eps = 0.
    cfg = write_config(tmp_path, {
        "model": {"type": "synthetic", "bands": 1, "per_band": 4, "width": 0.02},
        "bands": {"target": 1},
        "round_eps": 1e-3,
    })
    out = tmp_path / "single"
    assert main(["project", "--config", cfg, "--seed", "5", "--out", str(out)]) == 0
    rows = {key: float(value) for key, value in distance_rows(out).items()}
    assert rows["distance_lower"] <= rows["distance_upper"] <= rows["bound_4_L_log2L_eps"]
    assert rows["distance_upper"] == rows["distance_residual"] == 0.0


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
     "input.values: expected a finite value, got inf"),
    (GOOD_MODEL, {"type": "amplitudes", "values": [1, 2]},
     "input.values: expected a list of numeric [re, im] pairs"),
    (GOOD_MODEL, {"type": "amplitudes", "values": [[True, False], [False, True]]},
     "input.values: expected float, got True"),
    ([1], {}, "model: expected a JSON object, got [1]"),
    (GOOD_MODEL, "haar", "input: expected a JSON object, got 'haar'"),
    ({"type": "inline", "matrix": {**GOOD_MODEL["matrix"], "rows": 2.9}}, {},
     "model.matrix.rows: expected int, got 2.9"),
    ({"type": "inline", "matrix": {**GOOD_MODEL["matrix"],
                                   "data": [[0.2, 0.0], [0.0, 0.0], [0.0, 0.0], [True, 0.0]]}},
     {}, "model.matrix.data: expected float, got True"),
    # A split's transition window, its center +- half the narrowest gap, must
    # sit strictly inside (0, 1).
    (_inline(np.diag([0.0, 0.9])), {},
     "project.model: eigenvalue 0.0 is a band edge at 0 or 1 next to the selected gap "
     "(0.0, 0.9): transition window [0.0, 0.9] must sit strictly inside (0, 1)"),
    (_inline(np.diag([0.0, 1.0])), {},
     "project.model: eigenvalue 0.0 is a band edge at 0 or 1 next to the selected gap "
     "(0.0, 1.0): transition window [0.0, 1.0] must sit strictly inside (0, 1)"),
    (_inline(np.diag([0.5, 1.0])), {},
     "project.model: eigenvalue 1.0 is a band edge at 0 or 1 next to the selected gap "
     "(0.5, 1.0): transition window [0.5, 1.0] must sit strictly inside (0, 1)"),
], ids=["entry-count", "non-square", "non-hermitian", "spectrum", "index-high", "index-negative",
        "amplitude-count", "amplitudes-zero", "amplitudes-nonfinite", "amplitudes-not-pairs",
        "amplitudes-boolean", "model-not-an-object", "input-not-an-object", "rows-fractional",
        "matrix-entry-boolean", "band-edge-at-0", "projector", "band-edge-at-1"])
def test_project_rejects_bad_inline_model_or_input_with_exit_2(tmp_path, capsys, monkeypatch,
                                                             model, inp, cause):
    def no_filters(specs):
        raise AssertionError("a filter was built before the config was checked")

    monkeypatch.setattr(feedforward, "heaviside_filter", no_filters)
    cfg = write_config(tmp_path, {
        "model": model,
        "bands": {"target": 2},
        "round_eps": 1e-2,
        "input": inp,
    })
    assert main(["project", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert cause in capsys.readouterr().err


@pytest.mark.parametrize("model, bands", [
    ({"type": "inline", "matrix": matrix_to_json(np.array([[0.2, 0.1 - 0.05j],
                                                           [0.1 + 0.05j, 0.8]]))},
     {"target": 2}),
    ({"type": "synthetic", "bands": 2, "per_band": 2, "width": 0.02}, {"target": 2}),
    ({"type": "gmon"}, {"min_gap": 0.05}),
], ids=["inline", "synthetic", "gmon"])
def test_project_dilates_and_checks_the_bands_once(tmp_path, monkeypatch, model, bands):
    calls = {"dilations": [], "runs": [], "band_checks": 0}

    def dilate(h):
        calls["dilations"].append(fqsvt.blockenc.dilate_hermitian(h))
        return calls["dilations"][-1]

    def run(enc, *args, **kwargs):
        calls["runs"].append(enc)
        return feedforward.run_multiband(enc, *args, **kwargs)

    def check_bands(*args):
        calls["band_checks"] += 1
        return fqsvt.bands.check_band_assumption(*args)

    monkeypatch.setattr(cli, "dilate_hermitian", dilate)
    monkeypatch.setattr(cli, "run_multiband", run)
    monkeypatch.setattr(cli, "check_band_assumption", check_bands, raising=False)
    monkeypatch.setattr(feedforward, "check_band_assumption", check_bands)
    cfg = write_config(tmp_path, {"model": model, "bands": bands, "round_eps": 1e-2})
    assert main(["project", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert len(calls["dilations"]) == 1 and len(calls["runs"]) == 1
    assert calls["runs"][0] is calls["dilations"][0]
    assert calls["band_checks"] == 1


def test_project_amplitudes_near_the_float_limit_scale_exactly(tmp_path):
    # The amplitudes are scaled by a power of two before normalising, so
    # entries near 1e308, whose squares overflow, give the same state, bit for
    # bit, as the same entries at unit scale.
    outs = []
    for scale in (1.0, 2.0**1023):
        cfg = write_config(tmp_path, {
            "model": GOOD_MODEL, "bands": {"target": 2}, "round_eps": 1e-2, "mode": "sample",
            "trajectories": 20, "input": {"type": "amplitudes",
                                          "values": [[0.6 * scale, 0.0], [0.0, 0.8 * scale]]},
        })
        outs.append(tmp_path / f"o{scale:g}")
        assert main(["project", "--config", cfg, "--out", str(outs[-1])]) == 0
    for name in ("band_weights.csv", "records.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.mark.parametrize("message, cause", [
    ("Unable to allocate 14.9 GiB for an array with shape (1000000000, 2) and data type float64",
     "Unable to allocate 14.9 GiB for an array with shape (1000000000, 2)"),
    ("", "an allocation failed"),
], ids=["numpy-message", "no-message"])
def test_project_out_of_memory_exits_1_naming_the_cause(tmp_path, capsys, monkeypatch,
                                                        message, cause):
    # A trajectory count inside the documented range can need more memory
    # than the machine has; the run stands in for the allocation that fails.
    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "run_multiband", exhausted)
    cfg = write_config(tmp_path, {
        "model": {"type": "synthetic", "bands": 2, "per_band": 2, "width": 0.02},
        "bands": {"target": 2}, "round_eps": 1e-2, "mode": "sample",
        "trajectories": 1_000_000_000,
    })
    assert main(["project", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ") and cause in err
    assert "Traceback" not in err


def test_project_rejects_gmon_non_power_of_two_with_exit_2(tmp_path, capsys):
    spec = {**GMON_SPEC_DOC, "nmax": 2}  # two modes with three levels: dimension 9
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


@pytest.mark.parametrize("command, spec, cause", [
    ("bosehubbard", {"eta": 1e308}, "bosehubbard.model: eta makes"),
    ("bosehubbard", {"delta": [1e308, -1e308], "check_ranges": False},
     "bosehubbard.model: delta makes"),
    ("project", {"eta": 1e308}, "project.model.spec: eta makes"),
    ("project", {"f": [1e308, 0.0], "check_ranges": False}, "project.model.spec: f makes"),
], ids=["bosehubbard-eta", "bosehubbard-delta", "project-eta", "project-f"])
def test_gmon_spec_that_overflows_exits_2_naming_the_field(tmp_path, capsys, command, spec,
                                                           cause):
    spec = {**GMON_SPEC_DOC, **spec}
    doc = ({"model": spec} if command == "bosehubbard" else
           {"model": {"type": "gmon", "spec": spec}, "bands": {"min_gap": 0.05},
            "round_eps": 1e-3})
    cfg = write_config(tmp_path, doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow RuntimeWarning fails the test
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cause} the Hamiltonian's spectrum overflow"), err


SMALL_SYNTHETIC = {"type": "synthetic", "bands": 2, "per_band": 2, "width": 0.02}
# A gmon spec whose Hamiltonian is eta times the band labels alone.
ZERO_CONTROLS = {"edges": [], "delta": [0.0] * GMON_SPEC_DOC["modes"],
                 "f": [0.0] * GMON_SPEC_DOC["modes"]}
# The default spec with mode 0's detuning at 2 pi 19.99 MHz, just inside its range.
NEAR_RANGE_GMON = {**GMON_SPEC_DOC, "delta": [125.6, GMON_SPEC_DOC["delta"][1]]}
# One mode, one excitation: two eigenvalues, normalized to margin' and 1 - margin'.
TWO_LEVEL_GMON = {"modes": 1, "nmax": 1, "eta": 1.0, "edges": [], "delta": [1.0], "f": [0.0],
                  "phi": [0.0]}


@pytest.mark.parametrize("changes, cause", [
    ({"bands": {"min_gap": -1}}, "bands.min_gap must be > 0.0, got -1.0"),
    ({"model": GOOD_MODEL, "bands": {"target": 5}}, "bands.target must be <= 2, got 5"),
    ({"bands": {"target": "x"}}, "bands.target: expected int, got 'x'"),
    ({"model": {**SMALL_SYNTHETIC, "per_band": 0}}, "model.per_band must be >= 1, got 0"),
    ({"round_eps": "abc"}, "project.round_eps: expected float, got 'abc'"),
    ({"round_eps": None, "budget": "x"}, "project.budget: expected float, got 'x'"),
    ({"round_eps": None, "budget": 0.1, "split_constant": 0},
     "project: unknown keys ['split_constant']"),
    ({"mode": "sample", "trajectories": -3}, "project.trajectories must be >= 1, got -3"),
    ({"haar_samples": -4}, "project.haar_samples must be >= 1, got -4"),
    ({"haar_samples": 0}, "project.haar_samples must be >= 1, got 0"),
    ({"round_eps": float("nan")}, "project.round_eps: expected a finite value"),
    ({"model": {**SMALL_SYNTHETIC, "width": 0.5}}, "model.width 0.5: spectrum must lie in [0, 1]"),
    ({"model": {**SMALL_SYNTHETIC, "width": 0.2}, "round_eps": 1e-3},
     "config error: project.model.width 0.2: spectrum must lie in [0, 1] for the symmetric "
     "dilation; offending eigenvalue -0.050000000000000044\n"),
    ({"model": {"type": "gmon", "margin": 0.7}}, "model.margin must be < 0.5, got 0.7"),
    ({"model": {"type": "gmon", "spec": {"modes": 2}}}, "model.spec: missing key 'nmax'"),
    ({"model": {"type": "gmon", "spec": {**GMON_SPEC_DOC, "delta": [0.0]}}},
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
    ({"model": {"type": "gmon", "spec": {**GMON_SPEC_DOC, "nmax": 3.9}}},
     "model.spec.nmax: expected int, got 3.9"),
    ({"model": {"type": "gmon", "spec": {**GMON_SPEC_DOC, "check_ranges": "no"}}},
     "model.spec.check_ranges: expected true or false, got 'no'"),
    # In range, but decided by the config alone: a gmon spectrum with no
    # width, and a window that nearly fills (0, 1) at margin 1e-9.
    ({"model": {"type": "gmon", "spec": {**GMON_SPEC_DOC, **ZERO_CONTROLS, "eta": 0.0}}},
     "config error: project.model: spectrum is a single point; nothing to normalize"),
    ({"model": {"type": "gmon", "margin": 1e-9, "spec": TWO_LEVEL_GMON},
      "bands": {"min_gap": 0.05}, "round_eps": 1e-3},
     "config error: project: transition window [9.999999717180685e-10, 0.999999999] nearly "
     "fills (0, 1)"),
    # Gaps narrower than float resolution: a window whose edges map to
    # neighbouring floats in u, and two gaps whose centers round to one float.
    ({"model": _inline(np.diag([0.1, 0.5, 0.5000000000000001, 0.5000000000000002])),
      "bands": {"min_gap": 1e-300}},
     "config error: project: transition window [0.49999999999999994, 0.5] is narrower than "
     "float resolution"),
    ({"model": _inline(np.diag([0.1, 0.3, 0.30000000000000004, 0.3000000000000001])),
      "bands": {"min_gap": 1e-300}},
     "config error: project.bands: the gaps (0.3, 0.30000000000000004) and "
     "(0.30000000000000004, 0.3000000000000001) both center on 0.30000000000000004"),
    # Seeded control noise moves a detuning past its range.
    ({"model": {"type": "gmon", "spec": NEAR_RANGE_GMON, "perturb_seed": 1},
      "bands": {"min_gap": 0.05}, "round_eps": 1e-3},
     "config error: project.model.perturb_seed 1 moves the model out of range: detuning "
     "130.37341875031717 outside the control range (amplitude 20 MHz)"),
    # A gap of 1e-4 needs a filter above the degree cap.
    ({"model": _inline(np.diag([0.1, 0.5, 0.5001, 0.9])), "bands": {"min_gap": 1e-5},
      "round_eps": 1e-3},
     "config error: project: no even filter of degree <= 2000 meets FilterSpec(mu=0.3, "
     "delta=9.999999999998899e-05, eps=0.001) (item 0 of 3); 0 of its 1 probes stopped "
     "unproven"),
    # Hermitian to within the check's tolerance, but its dilation is not unitary.
    ({"model": {"type": "inline", "matrix": {"rows": 2, "cols": 2, "data": [
        [0.6382111963750102, -3.96316479734803e-11], [0.24684534476127407, 0.2533945154488064],
        [0.24684534479308473, -0.253394515402791], [0.39615213370553803, -4.995e-11]]}},
      "round_eps": 1e-3},
     "config error: project.model: invalid inline matrix: matrix is not unitary: "
     "||U^dag U - I||_max = 1.086e-10"),
], ids=["min-gap-negative", "target-too-large", "target-type", "per-band-zero",
        "round-eps-type", "budget-type", "split-constant-zero", "trajectories-negative",
        "haar-samples-negative", "haar-samples-zero", "round-eps-nan", "width-outside-unit-interval",
        "width-names-its-key",
        "gmon-margin-too-large", "gmon-spec-missing-key", "gmon-spec-bad-field",
        "basis-seed-above-64-bits", "input-seed-above-64-bits", "perturb-seed-above-64-bits",
        "trajectories-fractional", "bands-fractional", "target-boolean", "round-eps-boolean",
        "gmon-spec-fractional-nmax", "gmon-spec-string-check-ranges", "gmon-single-point",
        "gmon-window-nearly-fills", "window-narrower-than-resolution", "gap-centers-tie",
        "perturbed-out-of-range", "above-the-degree-cap", "dilation-not-unitary"])
def test_project_rejects_bad_config_value_with_exit_2(tmp_path, capsys, changes, cause):
    doc = {"model": SMALL_SYNTHETIC, "bands": {"target": 2}, "round_eps": 1e-2, **changes}
    doc = {key: value for key, value in doc.items() if value is not None}
    cfg = write_config(tmp_path, doc)
    assert main(["project", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert cause in capsys.readouterr().err
    assert not any((tmp_path / "o").iterdir())


@pytest.mark.parametrize("error, code, message", [
    (ValueError, 1, "error: boom\n"),
    (chebyshev.UnresolvedWindowError, 2, "config error: project: boom\n"),
], ids=["value-error", "unresolved-window"])
def test_main_classifies_a_run_failure_by_its_type(tmp_path, capsys, monkeypatch, error, code,
                                                   message):
    # Only the filter-spec error is the config's; any other ValueError from a
    # run is numerical.
    def failing(*args, **kwargs):
        raise error("boom")

    monkeypatch.setattr(cli, "run_multiband", failing)
    cfg = write_config(tmp_path, {"model": SMALL_SYNTHETIC, "bands": {"target": 2},
                                  "round_eps": 1e-2})
    assert main(["project", "--config", cfg, "--out", str(tmp_path / "o")]) == code
    assert capsys.readouterr().err == message


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


def test_no_random_stream_key_serves_two_purposes(tmp_path, monkeypatch):
    # A purpose stream is read whole, so a call site that built its
    # (seed, stream) key in the same run would replay every one of its draws.
    # Within each run every key must come from one call site, and each
    # purpose stream from its own call site in every run.
    philox = np.random.Philox
    keys = {}

    def recording(**kw):
        site = sys._getframe(2)  # Philox <- linalg.rng <- the call site
        keys.setdefault(tuple(int(k) for k in kw["key"]), set()).add(
            (site.f_code.co_filename, site.f_lineno))
        return philox(**kw)

    monkeypatch.setattr(np.random, "Philox", recording)
    project = write_config(tmp_path, {
        "model": {**SMALL_SYNTHETIC, "bands": 4}, "bands": {"target": 4}, "round_eps": 1e-2,
        "mode": "sample", "trajectories": 50, "input": {"type": "haar"}}, "project.json")
    # The gmon noise draws from key (perturb_seed, 0), here equal to --seed.
    enumerate_project = write_config(tmp_path, {
        "model": {"type": "gmon", "perturb_seed": 4}, "bands": {"target": 2},
        "round_eps": 1e-2}, "enumerate.json")
    baselines = write_config(tmp_path, {"Ls": [1, 2, 4]}, "baselines.json")
    runs = {
        "project": lambda: main(["project", "--config", project, "--seed", "3",
                                 "--out", str(tmp_path / "p")]) == 0,
        "enumerate project": lambda: main(["project", "--config", enumerate_project,
                                           "--seed", "4", "--out", str(tmp_path / "e")]) == 0,
        "baselines": lambda: main(["baselines", "--config", baselines, "--seed", "3",
                                   "--out", str(tmp_path / "b")]) == 0,
        "criterion 6": lambda: CRITERIA[6]().passed,
        "criterion 7": lambda: CRITERIA[7]().passed,
        "criterion 10": lambda: CRITERIA[10]().passed,
    }
    purpose_sites = {}
    for name, run in runs.items():
        keys.clear()
        assert run()
        if name in ("baselines", "criterion 7"):  # the memoryless walk is exact
            assert not keys, f"{name}: built generators for keys {sorted(keys)}"
        shared = {key: sites for key, sites in keys.items() if len(sites) > 1}
        assert not shared, f"{name}: keys built at two call sites: {shared}"
        for (_, stream), sites in keys.items():
            if stream >= 2**32:
                purpose_sites.setdefault(stream, set()).update(sites)
    assert sorted(purpose_sites) == [SAMPLE_UNIFORMS]
    assert all(len(sites) == 1 for sites in purpose_sites.values()), purpose_sites


def test_baselines_csv(tmp_path):
    cfg = write_config(tmp_path, {"Ls": [2, 4], "filter": {"delta": 0.4, "eps": 1e-2}})
    out = tmp_path / "base"
    assert main(["baselines", "--config", cfg, "--seed", "5", "--out", str(out)]) == 0
    lines = (out / "baselines.csv").read_text().splitlines()
    assert lines[0] == ("L,feedforward_queries,random_walk_success,"
                        "prob_projection_depth_amplify,adiabatic_time_estimate")
    assert len(lines) == 3
    for line, count in zip(lines[1:], (2, 4)):
        cells = line.split(",")
        assert int(cells[0]) == count
        # The walk's exact success at a power of two.
        assert float(cells[2]) == 2.0 / count
    # Amplified depth column is sqrt(L) for the uniform weights.
    assert float(lines[1].split(",")[3]) == pytest.approx(math.sqrt(2))

    out2 = tmp_path / "base2"
    main(["baselines", "--config", cfg, "--seed", "5", "--out", str(out2)])
    assert (out / "baselines.csv").read_bytes() == (out2 / "baselines.csv").read_bytes()


def test_baselines_csv_does_not_depend_on_the_seed(tmp_path):
    # Nothing in `fqsvt baselines` is drawn: the walk's success is exact.
    cfg = write_config(tmp_path, {"Ls": [1, 2, 4, 8, 16]})
    outs = [tmp_path / f"seed-{seed}" for seed in (3, 5)]
    for seed, out in zip((3, 5), outs):
        assert main(["baselines", "--config", cfg, "--seed", str(seed), "--out", str(out)]) == 0
    assert (outs[0] / "baselines.csv").read_bytes() == (outs[1] / "baselines.csv").read_bytes()


def test_baselines_single_row(tmp_path):
    cfg = write_config(tmp_path, {"Ls": [2]})
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
    assert_json_is_compact_and_sorted(out)


def test_bosehubbard_rejects_margin_outside_open_half_with_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"margin": 0.7})
    assert main(["bosehubbard", "--config", cfg, "--out", str(tmp_path / "bh")]) == 2
    assert "bosehubbard.margin must be < 0.5, got 0.7" in capsys.readouterr().err


@pytest.mark.parametrize("command, doc, cause", [
    ("bosehubbard", {"perturb_seed": 2**64},
     "bosehubbard.perturb_seed must be <= 18446744073709551615, got 18446744073709551616"),
    ("bosehubbard", {"perturb_seed": True}, "bosehubbard.perturb_seed: expected int, got True"),
    ("phases", {"mu": 0.5, "delta": 0.3, "eps": True}, "phases.eps: expected float, got True"),
    ("phases", {"mu": 0.5, "delta": 0.3, "eps": 1e-3, "tol": 1e-11},
     "config error: phases: unknown keys ['tol']"),
    # An int past the float range is not finite, and never reaches math.isfinite.
    ("baselines", {"Ls": [2], "per_band": 10**399}, "baselines.per_band: expected a finite value"),
    ("bosehubbard", {"model": {**GMON_SPEC_DOC, "nmax": 10**399}},
     "bosehubbard.model.nmax: expected a finite value"),
    # In range, but decided by the config alone.
    ("bosehubbard", {"min_gap_fraction": 5e-324},
     "config error: bosehubbard.min_gap_fraction 4.94066e-324 times model.eta 1256.64 "
     "underflows to a band gap of 0 in normalized units"),
    ("phases", {"mu": 0.5, "delta": 0.999999998, "eps": 2.5e-4},
     "config error: phases: transition window [1.0000000272292198e-09, 0.9999999989999999] "
     "nearly fills (0, 1): its plateaus [-1, -1.0] and"),
    ("phases", {"mu": 0.5, "delta": 1e-16, "eps": 1e-3},
     "config error: phases: transition window [0.49999999999999994, 0.5] is narrower than "
     "float resolution: its edges map to u = 2x^2 - 1 = -0.5000000000000001 and -0.5"),
    ("baselines", {"Ls": [2], "filter": {"delta": 1e-16}},
     "config error: baselines: transition window [0.49999999999999994, 0.5] is narrower than "
     "float resolution"),
    ("bosehubbard", {"model": {"modes": 2, "nmax": 3, "eta": 1e-100, "edges": [],
                               "delta": [1e66, 1.0], "f": [1.0, 2.0], "phi": [0.4, 1.9],
                               "check_ranges": False}},
     "config error: bosehubbard.min_gap_fraction 0.5 times model.eta 1e-100 selects gaps that "
     "cannot be told apart: the gaps (0.08333333333333336, 0.08333333333333337) and "
     "(0.08333333333333337, 0.08333333333333338) both center on 0.08333333333333337"),
    # Seeded control noise moves a detuning 4.8 MHz past its 20 MHz range.
    ("bosehubbard", {"model": NEAR_RANGE_GMON, "perturb_seed": 1},
     "config error: bosehubbard.perturb_seed 1 moves the model out of range: detuning "
     "130.37341875031717 outside the control range (amplitude 20 MHz)"),
    # The probe at the degree cap proves that no filter up to it meets the spec.
    ("phases", {"mu": 0.5, "delta": 1e-4, "eps": 1e-3},
     "config error: phases: no even filter of degree <= 2000 meets "
     "FilterSpec(mu=0.5, delta=0.0001, eps=0.001); 0 of its 1 probes stopped unproven"),
    ("baselines", {"Ls": [2], "filter": {"delta": 1e-4}},
     "config error: baselines: no even filter of degree <= 2000 meets "
     "FilterSpec(mu=0.5, delta=0.0001, eps=0.001); 0 of its 1 probes stopped unproven"),
], ids=["perturb-seed-above-64-bits", "perturb-seed-boolean", "eps-boolean", "tol-unknown-key",
        "per-band-past-the-float-range", "nmax-past-the-float-range", "gap-underflows",
        "window-nearly-fills", "window-narrower-than-resolution",
        "filter-window-narrower-than-resolution", "gap-centers-tie", "perturbed-out-of-range",
        "above-the-degree-cap", "filter-above-the-degree-cap"])
def test_other_commands_reject_bad_numbers_with_exit_2(tmp_path, capsys, command, doc, cause):
    cfg = write_config(tmp_path, doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert cause in capsys.readouterr().err


def test_a_cap_probe_that_stops_unproven_exits_1(tmp_path, capsys, monkeypatch):
    # With one exchange iteration a probe, every probe up to the cap stops
    # unproven: that decides nothing about the spec, so it is no config error.
    monkeypatch.setattr(chebyshev, "DEGREE_CAP", 58)
    monkeypatch.setattr(chebyshev, "REMEZ_MAX_ITER", 1)
    cfg = write_config(tmp_path, {"mu": 0.5, "delta": 0.2, "eps": 1e-3})
    assert main(["phases", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        "error: no even filter of degree <= 58 meets FilterSpec(mu=0.5, delta=0.2, eps=0.001); "
        "3 of its 3 probes stopped unproven\n")


@pytest.mark.parametrize("case", ["config-not-utf8", "config-directory", "out-is-a-file"])
def test_unreadable_config_or_output_path_exits_2(tmp_path, capsys, case):
    cfg = write_config(tmp_path, {"mu": 0.5, "delta": 0.3, "eps": 1e-3})
    out = tmp_path / "o"
    if case == "config-not-utf8":
        Path(cfg).write_bytes(b'{"mu": 0.5, "delta": 0.3, "eps": 1e-3, "tol": "\xff"}')
        cause = f"config file {cfg} is not UTF-8"
    elif case == "config-directory":
        cfg = str(tmp_path)
        cause = f"config file {cfg}: Is a directory"
    else:
        out.write_text("")
        cause = f"--out {out}: "
    assert main(["phases", "--config", cfg, "--out", str(out)]) == 2
    assert cause in capsys.readouterr().err


@pytest.mark.parametrize("changes, cause", [
    ({"filter": {"delta": 1.5}}, "baselines.filter: invalid filter parameters: transition window"),
    ({"filter": {"eps": 1e-9}}, "baselines.filter: invalid filter parameters: error budget 1e-09"),
    ({"adiabatic_min_gap": 0}, "baselines.adiabatic_min_gap must be > 0.0, got 0.0"),
    ({"adiabatic_eps": -1}, "baselines.adiabatic_eps must be > 0.0, got -1.0"),
    ({"per_band": 0}, "baselines.per_band must be >= 1, got 0"),
    ({"per_band": 1.5}, "baselines.per_band: expected int, got 1.5"),
    ({"trials": 1000}, "baselines: unknown keys ['trials']"),
    # Clusters 0.01 wide and 0.9 / (L - 1) apart that band detection cannot
    # split into L bands of `per_band`: the walk would be priced on wrong bands.
    ({"Ls": [2, 64]}, "baselines.Ls: L=64 with per_band=2 spaces its clusters, 0.01 wide, "
                      "0.0143 apart; band detection does not split them into 64 bands of 2 "
                      "eigenvalues"),
    ({"Ls": [128], "per_band": 4}, "baselines.Ls: L=128 with per_band=4 "),
    ({"filter": {"delta": 0.999999998, "eps": 2.5e-4}},
     "config error: baselines: transition window [1.0000000272292198e-09, "),
    # Inside the documented range (positive), but the adiabatic estimate overflows a float.
    ({"adiabatic_min_gap": 1e-120},
     "config error: baselines.per_band (M), baselines.adiabatic_min_gap (gap) and "
     "baselines.adiabatic_eps (eps): adiabatic time estimate M^(3/2) / (eps gap^3) overflows "
     "at M=2, gap=1e-120, eps=0.01"),
    ({"adiabatic_min_gap": 1e-200}, "(eps): adiabatic time estimate M^(3/2) / (eps gap^3) "
                                    "overflows at M=2, gap=1e-200, eps=0.01"),
    ({"adiabatic_min_gap": 1e-104}, "(eps): adiabatic time estimate M^(3/2) / (eps gap^3) "
                                    "overflows at M=2, gap=1e-104, eps=0.01"),
    ({"adiabatic_eps": 1e-320}, "(eps): adiabatic time estimate M^(3/2) / (eps gap^3) "
                                "overflows at M=2, gap=0.1, eps=1e-320"),
], ids=["filter-delta", "filter-eps", "adiabatic-min-gap", "adiabatic-eps", "per-band-below-1",
        "per-band-fractional", "trials-unknown", "L64-unresolved", "L128-per-band-4-unresolved",
        "filter-window-nearly-fills", "adiabatic-estimate-overflows",
        "adiabatic-gap-cube-underflows", "adiabatic-estimate-overflows-at-1e-104",
        "adiabatic-eps-subnormal"])
def test_baselines_rejects_bad_config_value_with_exit_2(tmp_path, capsys, changes, cause):
    cfg = write_config(tmp_path, {"Ls": [2], **changes})
    assert main(["baselines", "--config", cfg, "--out", str(tmp_path / "b")]) == 2
    assert cause in capsys.readouterr().err
    assert not (tmp_path / "b" / "baselines.csv").exists()


@pytest.mark.parametrize("budget", [{"budget": 0.1, "round_eps": 1e-2}, {}],
                         ids=["both", "neither"])
def test_project_takes_exactly_one_of_budget_and_round_eps(tmp_path, capsys, budget):
    cfg = write_config(tmp_path, {"model": SMALL_SYNTHETIC, "bands": {"target": 2}, **budget})
    assert main(["project", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "project: pass exactly one of budget or round_eps" in capsys.readouterr().err


def test_project_trajectories_past_the_array_limit_exit_1_out_of_memory(tmp_path, capsys):
    # numpy refuses a (10**20, 2) shape before it allocates anything.
    cfg = write_config(tmp_path, {"model": SMALL_SYNTHETIC, "bands": {"target": 2},
                                  "round_eps": 1e-2, "mode": "sample", "trajectories": 10**20})
    assert main(["project", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: the (100000000000000000000, 2) uniform block")
    assert "Traceback" not in err


@pytest.mark.parametrize("model, cause", [
    ({"modes": 2}, "bosehubbard.model: missing key 'nmax'"),
    ({**GMON_SPEC_DOC, "nmax": 0}, "bosehubbard.model: need at least one mode"),
    ({**GMON_SPEC_DOC, "nmax": 3.9}, "bosehubbard.model.nmax: expected int, got 3.9"),
    ({**GMON_SPEC_DOC, "check_ranges": "no"},
     "bosehubbard.model.check_ranges: expected true or false, got 'no'"),
    ({**GMON_SPEC_DOC, "edges": [[0, 1]]},
     "bosehubbard.model.edges: expected a list of [l, j, g] triples, got [[0, 1]]"),
    ({**GMON_SPEC_DOC, "eta": "x"}, "bosehubbard.model.eta: expected float, got 'x'"),
    ({**GMON_SPEC_DOC, "phi": 1.0},
     "bosehubbard.model.phi: expected a list of numbers, got 1.0"),
    ({**GMON_SPEC_DOC, "coupler": 1}, "bosehubbard.model: unknown keys ['coupler']"),
    ({**GMON_SPEC_DOC, "eta": 0}, "bosehubbard.model.eta must be > 0.0, got 0.0"),
    ({**GMON_SPEC_DOC, "eta": -1256.6},
     "bosehubbard.model.eta must be > 0.0, got -1256.6"),
    # In range, but the spectrum eta spans cannot be normalized.
    ({**GMON_SPEC_DOC, **ZERO_CONTROLS, "eta": 5e-324},
     "config error: bosehubbard.model: spectrum is a single point; nothing to normalize"),
    ({**GMON_SPEC_DOC, **ZERO_CONTROLS, "eta": 1e-310},
     "config error: bosehubbard.model: spectral span 6e-310 is too narrow to normalize"),
], ids=["missing-key", "bad-field", "fractional-nmax", "string-check-ranges", "edge-not-a-triple",
        "eta-not-a-number", "phi-not-a-list", "unknown-key", "eta-zero", "eta-negative",
        "eta-single-point", "eta-span-too-narrow"])
def test_bosehubbard_rejects_bad_model_with_exit_2(tmp_path, capsys, model, cause):
    cfg = write_config(tmp_path, {"model": model})
    assert main(["bosehubbard", "--config", cfg, "--out", str(tmp_path / "bh")]) == 2
    assert cause in capsys.readouterr().err


@pytest.mark.parametrize("eta", [0.0, -1256.6])
def test_project_runs_a_gmon_spec_of_any_eta(tmp_path, eta):
    # Only bosehubbard derives its band gap from eta; project detects bands itself.
    cfg = write_config(tmp_path, {"model": {"type": "gmon",
                                            "spec": {**GMON_SPEC_DOC, "eta": eta}},
                                  "bands": {"min_gap": 0.05}, "round_eps": 1e-3})
    assert main(["project", "--config", cfg, "--seed", "5", "--out", str(tmp_path / "p")]) == 0


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
