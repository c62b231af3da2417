"""Tests of the benchmark's own checks and tracer.

Run with `python3 -m pytest bench`. The artifacts here are built from the
benchmark's exact projectors, so they pass; each corruption must be counted
as a failure.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracer
from inputs import WORKLOADS, project_inputs

SEED = 5


def _matrix_json(a):
    return {"rows": a.shape[0], "cols": a.shape[1],
            "data": [[float(z.real), float(z.imag)] for z in a.ravel()]}


def _write_enumerate(out: Path, operators, claimed, degree=184, queries=1104):
    out.mkdir(parents=True, exist_ok=True)
    (out / "kraus.json").write_text(json.dumps({
        "completeness_residual": 0.0,
        "operators": [{"record": [], "claimed_band": band, "failed": False,
                       "matrix": _matrix_json(op)} for op, band in zip(operators, claimed)],
    }))
    (out / "distance.csv").write_text(
        "quantity,value\nround_eps,0.001\n"
        f"degree,{degree}\nqueries,{queries}\nquery_formula,{queries}\n")


@pytest.fixture
def enumerate_case(tmp_path):
    inputs = project_inputs("enumerate-L8", SEED)
    n = len(inputs.values)
    # Register operators: the band projector on the all-zero ancilla sector.
    operators = [np.vstack([p, np.zeros((n, n))]) for p in inputs.projectors()]
    return tmp_path / "out", inputs, operators, list(range(inputs.band_count))


def test_exact_enumerate_artifacts_pass(enumerate_case):
    out, inputs, operators, claimed = enumerate_case
    _write_enumerate(out, operators, claimed)
    problems, values = checks.check_enumerate(out, inputs)
    assert problems == []
    assert values["choi_distance"] < 1e-12


def test_scaled_kraus_matrix_fails_completeness(enumerate_case):
    out, inputs, operators, claimed = enumerate_case
    operators[3] = operators[3] * (1.0 + 1e-5)
    _write_enumerate(out, operators, claimed)
    problems, _ = checks.check_enumerate(out, inputs)
    assert any("completeness" in p for p in problems)


def test_rotated_kraus_matrix_fails_channel_distance(enumerate_case):
    # A unitary on the output keeps completeness and the POVM but changes the channel.
    out, inputs, operators, claimed = enumerate_case
    rotation = project_inputs("enumerate-L8", SEED + 1).basis
    n = rotation.shape[0]
    operators[3] = np.vstack([rotation @ operators[3][:n], operators[3][n:]])
    _write_enumerate(out, operators, claimed)
    problems, values = checks.check_enumerate(out, inputs)
    assert any("choi_distance" in p for p in problems)
    assert values["completeness_residual"] < 1e-12


def test_swapped_claimed_bands_fail(enumerate_case):
    out, inputs, operators, claimed = enumerate_case
    claimed[0], claimed[1] = claimed[1], claimed[0]
    _write_enumerate(out, operators, claimed)
    problems, _ = checks.check_enumerate(out, inputs)
    assert any("POVM" in p for p in problems)


def test_wrong_query_count_fails(enumerate_case):
    out, inputs, operators, claimed = enumerate_case
    _write_enumerate(out, operators, claimed, queries=1105)
    problems, _ = checks.check_enumerate(out, inputs)
    assert any("queries" in p for p in problems)


def test_missing_artifact_is_a_failure(tmp_path):
    problems, _ = checks.check_enumerate(tmp_path, project_inputs("enumerate-L8", SEED))
    assert problems and "unreadable" in problems[0]


def _write_sample(out: Path, claimed, weights):
    out.mkdir(parents=True, exist_ok=True)
    rows = [f"{t},0000,{band},False" for t, band in enumerate(claimed)]
    (out / "records.csv").write_text(
        "trajectory,record_bits,claimed_band,failed\n" + "\n".join(rows) + "\n")
    (out / "band_weights.csv").write_text(
        "band,exact_weight\n" + "".join(f"{j},{w:.17g}\n" for j, w in enumerate(weights)))


@pytest.fixture
def sample_case(tmp_path):
    inputs = project_inputs("sample-L4", SEED)
    weights = inputs.band_weights()
    total = WORKLOADS["sample-L4"]["trajectories"]
    counts = np.floor(weights * total).astype(int)
    counts[0] += total - counts.sum()
    claimed = np.repeat(np.arange(inputs.band_count), counts).tolist()
    return tmp_path / "out", inputs, claimed, weights


def test_exact_sample_artifacts_pass(sample_case):
    out, inputs, claimed, weights = sample_case
    _write_sample(out, claimed, weights)
    assert checks.check_sample(out, inputs)[0] == []


def test_swapped_band_weight_fails(sample_case):
    out, inputs, claimed, weights = sample_case
    weights = weights.copy()
    weights[[0, 1]] = weights[[1, 0]]
    _write_sample(out, claimed, weights)
    problems, _ = checks.check_sample(out, inputs)
    assert any("band_weights.csv" in p for p in problems)


def test_relabelled_trajectories_fail(sample_case):
    out, inputs, claimed, weights = sample_case
    _write_sample(out, [min(band + 1, inputs.band_count - 1) for band in claimed], weights)
    problems, _ = checks.check_sample(out, inputs)
    assert any("claimed frequency" in p for p in problems)


def test_missing_record_fails(sample_case):
    out, inputs, claimed, weights = sample_case
    _write_sample(out, claimed[:-1], weights)
    problems, _ = checks.check_sample(out, inputs)
    assert any("records for" in p for p in problems)


def test_verify_lines():
    criteria = WORKLOADS["oracle-battery"]["criteria"]
    good = "\n".join(f"[PASS] {c:>2} title detail" for c in criteria)
    assert checks.check_verify(good, criteria)[0] == []
    failing = good.replace("[PASS]  7", "[FAIL]  7")
    assert checks.check_verify(failing, criteria)[0]
    assert checks.check_verify("\n".join(good.splitlines()[:-1]), criteria)[0]


def test_inputs_depend_only_on_seed():
    a, b = project_inputs("sample-L4", 3), project_inputs("sample-L4", 3)
    assert np.array_equal(a.basis, b.basis) and np.array_equal(a.amplitudes, b.amplitudes)
    assert not np.array_equal(a.basis, project_inputs("sample-L4", 4).basis)


def test_tracer_wraps_every_binding_and_reports_missing(tmp_path, monkeypatch):
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .linalg import eigh\n")
    (pkg / "linalg.py").write_text("def eigh(x):\n    return x + 1\n")
    (pkg / "cli.py").write_text(
        "from .linalg import eigh as _eigh\n\n"
        "def cmd_project(x):\n    return _eigh(x) + _eigh(x)\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.setattr(tracer, "LAYERS", {"linalg": ("eigh", "removed_fn"),
                                           "cli": ("cmd_project",)})
    t = tracer.Tracer()
    t.install("fakepkg")
    try:
        cli = sys.modules["fakepkg.cli"]
        assert cli.cmd_project(1) == 4
        assert sys.modules["fakepkg"].eigh(0) == 1
        summary = t.summary()
        assert t.missing == ["linalg.removed_fn"]
        assert summary["linalg.eigh"]["calls"] == 3
        assert summary["cli.cmd_project"]["calls"] == 1
        assert summary["linalg.removed_fn"]["calls"] == 0
        assert summary["cli.cmd_project"]["self_s"] >= 0.0
    finally:
        for name in [m for m in sys.modules if m.split(".")[0] == "fakepkg"]:
            del sys.modules[name]


def test_benchmark_json_names_match_the_runner():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.per_layer_units()
    predictions = json.loads((run.BENCH_DIR / "predictions.json").read_text())
    assert list(predictions["workloads"]) == list(WORKLOADS)
