"""The streamed artifact writers of `fqsvt.cli` against one-shot encoders.

The references below encode the whole document as nested lists and write it
at once: the CSV reference is the earlier writer, kept verbatim, and the
JSON reference one orjson dump with sorted keys.
"""

import json
import math
import tracemalloc

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fqsvt import cli
from fqsvt.cli import _write_csv, _write_json, _write_kraus, main, matrix_to_json
from fqsvt.feedforward import KrausExtraction, TreeLeaf
from fqsvt.linalg import hermitian_from_spectrum, rng

SPECIAL_FLOATS = [-0.0, 5e-324, 1e-5, 1e16, math.nan, math.inf, -math.inf]


def reference_write_csv(path, header, rows):
    lines = (",".join(map(str, row)) + "\n" for row in [header, *rows])
    path.write_text("".join(lines), encoding="utf-8")


def reference_write_json(path, doc):
    path.write_bytes(orjson.dumps(doc, option=orjson.OPT_SORT_KEYS) + b"\n")


def reference_matrix_doc(a):
    """The matrix document with its (re, im) pairs as nested lists of Python floats."""
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    return {"rows": a.shape[0], "cols": a.shape[1],
            "data": np.stack([a.real, a.imag], axis=-1).reshape(-1, 2).tolist()}


def reference_kraus_doc(kraus):
    return {
        "completeness_residual": kraus.completeness_residual,
        "operators": [
            {
                "record": list(leaf.record),
                "claimed_band": leaf.claimed_band,
                "failed": leaf.failed,
                "matrix": reference_matrix_doc(leaf.operator),
            }
            for leaf in kraus.leaves
        ],
    }


def reference_write_kraus(path, kraus):
    reference_write_json(path, reference_kraus_doc(kraus))


def leaf(record, claimed_band, failed, operator) -> TreeLeaf:
    return TreeLeaf(tuple(record), None, 0.0, claimed_band, failed, operator)


def random_kraus(gen, count, shape) -> KrausExtraction:
    ops = gen.standard_normal((count, *shape, 2)).view(complex)[..., 0]
    return KrausExtraction([leaf(gen.integers(0, 2, 6).tolist(), k % 8, bool(k % 3 == 0), op)
                            for k, op in enumerate(ops)], float(gen.random() * 1e-15))


def is_finite(kraus) -> bool:
    return math.isfinite(kraus.completeness_residual) and all(
        np.all(np.isfinite(leaf.operator)) for leaf in kraus.leaves)


def assert_kraus_matches_or_refuses(out, kraus):
    """A finite `kraus` byte-matches the one-shot dump; any NaN or inf raises
    a ValueError naming the artifact and leaves no file behind."""
    if not is_finite(kraus):
        with pytest.raises(ValueError, match="kraus.json: a non-finite value"):
            _write_kraus(out / "kraus.json", kraus)
        assert list(out.iterdir()) == []
        return
    _write_kraus(out / "kraus.json", kraus)
    reference_write_kraus(out / "reference.json", kraus)
    assert_same_bytes(out / "kraus.json", out / "reference.json")


def assert_same_bytes(path, reference):
    assert path.read_bytes() == reference.read_bytes()
    assert sorted(p.name for p in path.parent.iterdir()) == sorted([path.name, reference.name])


any_float = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
finite_float = st.one_of(st.sampled_from([x for x in SPECIAL_FLOATS if math.isfinite(x)]),
                         st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def kraus_sets(draw, floats=finite_float):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    count = draw(st.integers(0, 12))
    leaves = []
    for _ in range(count):
        entries = draw(st.lists(floats, min_size=2 * rows * cols, max_size=2 * rows * cols))
        operator = np.array(entries).view(complex).reshape(rows, cols)
        leaves.append(leaf(draw(st.lists(st.integers(0, 1), max_size=8)),
                           draw(st.integers(0, 64)), draw(st.booleans()), operator))
    return KrausExtraction(leaves, draw(floats))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(kraus=kraus_sets())
@example(kraus=KrausExtraction([], 0.0))
@example(kraus=KrausExtraction([leaf((0, 1), 1, False, np.eye(2))], 1e-16))
def test_kraus_writer_matches_the_one_shot_encoder(tmp_path_factory, kraus):
    assert is_finite(kraus)
    assert_kraus_matches_or_refuses(tmp_path_factory.mktemp("kraus"), kraus)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(kraus=kraus_sets(any_float))
def test_kraus_writer_refuses_non_finite_draws(tmp_path_factory, kraus):
    assert_kraus_matches_or_refuses(tmp_path_factory.mktemp("kraus"), kraus)


@pytest.mark.parametrize("value", SPECIAL_FLOATS, ids=repr)
def test_kraus_writer_matches_on_special_floats(tmp_path, value):
    operator = np.array([[value, 1.0], [complex(0.5, value), complex(value, value)]])
    kraus = KrausExtraction([leaf((1, 0), 0, True, operator), leaf((), 3, False, operator.T)],
                            value)
    assert_kraus_matches_or_refuses(tmp_path, kraus)


def test_json_writer_copies_arrays_that_are_not_contiguous(tmp_path):
    # orjson refuses an array that is not C-contiguous; the writer copies it.
    grid = np.arange(12.0).reshape(3, 4) - 5.5
    matrix = (grid + 1j * grid[::-1])[:, 1:3].T
    assert not any(a.flags.c_contiguous for a in (grid[:, ::2], grid.T, matrix))
    _write_json(tmp_path / "doc.json", {"strided": grid[:, ::2], "transposed": grid.T,
                                        "empty": grid[:0, ::2], "matrix": matrix_to_json(matrix)})
    reference_write_json(tmp_path / "reference.json", {
        "strided": grid[:, ::2].tolist(), "transposed": grid.T.tolist(), "empty": [],
        "matrix": reference_matrix_doc(matrix)})
    assert_same_bytes(tmp_path / "doc.json", tmp_path / "reference.json")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(rows=st.lists(st.lists(st.one_of(any_float, st.integers(), st.booleans(),
                                        st.text(alphabet="01ab", max_size=6)), max_size=5),
                     max_size=30))
@example(rows=[])
@example(rows=[[0, "0110", 2, False]])
def test_csv_writer_matches_the_one_shot_writer_on_a_generator(tmp_path_factory, rows):
    out = tmp_path_factory.mktemp("csv")
    header = ["a", "b", "c"]
    _write_csv(out / "rows.csv", header, (row for row in rows))
    reference_write_csv(out / "reference.csv", header, rows)
    assert_same_bytes(out / "rows.csv", out / "reference.csv")


def test_kraus_writer_holds_a_fraction_of_the_file(tmp_path):
    # 64 operators of 32 x 16, the enumerate-L8 artifact's shape: the streamed
    # writer holds about one encoded operator at a time, the one-shot writer
    # the whole document several times over.
    kraus = random_kraus(np.random.default_rng(0), 64, (32, 16))

    def traced_peak(writer, path):
        tracemalloc.start()
        try:
            writer(path, kraus)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    streamed = traced_peak(_write_kraus, tmp_path / "kraus.json")
    one_shot = traced_peak(reference_write_kraus, tmp_path / "reference.json")
    size = (tmp_path / "kraus.json").stat().st_size
    assert size == (tmp_path / "reference.json").stat().st_size > 1_000_000
    assert streamed < 0.25 * size, (streamed, size)
    assert one_shot >= 0.25 * size, (one_shot, size)


def failing_on_the_fourth(items):
    yield from items[:3]
    raise RuntimeError("item 3 cannot be encoded")


def write_kraus_with_a_nan_fourth(path, kraus):
    leaves = [leaf(l.record, l.claimed_band, l.failed, l.operator.copy()) for l in kraus.leaves]
    leaves[3].operator[1, 0] = math.nan
    _write_kraus(path, KrausExtraction(leaves, 0.0))


def write_json_holding_an_inf(path, kraus):
    _write_json(path, {"leaves": len(kraus.leaves), "centers": [0.5, math.inf]})


def write_json_holding_a_nan_array(path, kraus):
    _write_json(path, {"leaves": len(kraus.leaves), "centers": np.array([0.5, math.nan])})


def write_json_failing_to_replace(path, kraus):
    """`_write_json` of a small document whose final move onto `path` fails."""
    def replace(src, dst):
        raise OSError("item 3 cannot be moved into place")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli.os, "replace", replace)
        _write_json(path, {"leaves": len(kraus.leaves)})


@pytest.mark.parametrize("name, write, error, match", [
    ("kraus.json", lambda path, kraus: _write_kraus(
        path, KrausExtraction(failing_on_the_fourth(kraus.leaves), 0.0)), RuntimeError, "item 3"),
    ("kraus.json", write_kraus_with_a_nan_fourth, ValueError, "kraus.json: a non-finite"),
    ("records.csv", lambda path, kraus: _write_csv(
        path, ["record"], failing_on_the_fourth([[k] for k in range(8)])), RuntimeError,
     "item 3"),
    ("bands.json", write_json_holding_an_inf, ValueError, "bands.json: a non-finite"),
    ("bands.json", write_json_failing_to_replace, OSError, "item 3"),
    ("bands.json", write_json_holding_a_nan_array, ValueError, "bands.json: a non-finite"),
], ids=["kraus", "kraus-nan", "csv", "json-inf", "json", "json-nan-array"])
@pytest.mark.parametrize("earlier", [False, True], ids=["fresh", "over-an-earlier-run"])
def test_a_failed_write_leaves_no_partial_artifact(tmp_path, name, write, error, match, earlier):
    kraus = random_kraus(np.random.default_rng(1), 6, (4, 2))
    path = tmp_path / name
    if earlier:
        path.write_text("earlier run\n", encoding="utf-8")
    with pytest.raises(error, match=match):
        write(path, kraus)
    assert sorted(p.name for p in tmp_path.iterdir()) == ([name] if earlier else [])
    if earlier:
        assert path.read_text(encoding="utf-8") == "earlier run\n"


def three_band_model() -> dict:
    h = hermitian_from_spectrum(np.array([0.1, 0.12, 0.5, 0.9]), rng(0, 1))
    return {"type": "inline", "matrix": reference_matrix_doc(h)}


@pytest.mark.parametrize("model, bands, mode, leaves", [
    ({"type": "synthetic", "bands": 1, "per_band": 4}, 1, "enumerate", 1),
    ({"type": "synthetic", "bands": 2, "per_band": 4, "width": 0.02}, 2, "enumerate", 4),
    (three_band_model(), 3, "enumerate", 10),
    ({"type": "synthetic", "bands": 8, "per_band": 2, "width": 0.02}, 8, "enumerate", 64),
    ({"type": "synthetic", "bands": 4, "per_band": 2, "width": 0.02}, 4, "sample", 300),
], ids=["L1", "L2", "L3", "L8", "sample-L4"])
def test_project_artifacts_match_the_one_shot_encoders(tmp_path, monkeypatch, model, bands,
                                                       mode, leaves):
    # `leaves` counts the Kraus operators, or in sample mode the trajectories.
    captured = {}

    def capture(key, fn):
        def wrapped(*args, **kwargs):
            captured[key] = fn(*args, **kwargs)
            return captured[key]
        return wrapped

    monkeypatch.setattr(cli, "run_multiband", capture("tree", cli.run_multiband))
    monkeypatch.setattr(cli, "extract_kraus", capture("kraus", cli.extract_kraus))
    monkeypatch.setattr(cli, "sample_trajectories",
                        capture("sampled", cli.sample_trajectories))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"model": model, "bands": {"target": bands}, "round_eps": 1e-3,
                               "mode": mode, "trajectories": 300, "input": {"type": "haar"}}))
    out, reference = tmp_path / "out", tmp_path / "reference"
    reference.mkdir()
    assert main(["project", "--config", str(cfg), "--seed", "5", "--out", str(out)]) == 0

    if mode == "enumerate":
        assert len(captured["kraus"].leaves) == leaves
        reference_write_kraus(reference / "kraus.json", captured["kraus"])
        files = ["bands.json", "distance.csv", "kraus.json", "tree.json"]
    else:
        assert len(captured["sampled"]) == leaves
        reference_write_csv(reference / "records.csv",
                            ["trajectory", "record_bits", "claimed_band", "failed"],
                            [[t, "".join(map(str, leaf.record)), leaf.claimed_band, leaf.failed]
                             for t, leaf in enumerate(captured["sampled"])])
        files = ["band_weights.csv", "bands.json", "records.csv"]
    assert sorted(p.name for p in out.iterdir()) == files
    for path in reference.iterdir():
        assert (out / path.name).read_bytes() == path.read_bytes(), path.name


def test_project_exits_1_on_a_non_finite_artifact_value(tmp_path, monkeypatch, capsys):
    # A NaN leaf probability reaches tree.json: the run exits 1 and leaves
    # no partial tree.json.
    run_multiband = cli.run_multiband

    def nan_probability(*args, **kwargs):
        tree = run_multiband(*args, **kwargs)
        tree.leaves[0].probability = math.nan
        return tree

    monkeypatch.setattr(cli, "run_multiband", nan_probability)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"model": {"type": "synthetic", "bands": 2, "per_band": 2},
                               "bands": {"target": 2}, "round_eps": 1e-2}))
    out = tmp_path / "out"
    assert main(["project", "--config", str(cfg), "--out", str(out)]) == 1
    assert "error: tree.json: a non-finite value" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["bands.json"]


@pytest.mark.parametrize("artifact, corrupt, written", [
    ("bands.json", "centers", []),
    ("kraus.json", "operator", ["bands.json", "tree.json"]),
], ids=["centers", "kraus-operator"])
def test_project_exits_1_on_a_nan_in_an_artifact_array(tmp_path, monkeypatch, capsys, artifact,
                                                       corrupt, written):
    # A NaN in a numpy array of a document, the gap centers or a Kraus
    # operator, fails the run naming that artifact and leaves no part of it.
    run_multiband, extract_kraus = cli.run_multiband, cli.extract_kraus

    def nan_center(enc, structure, *args, **kwargs):
        tree = run_multiband(enc, structure, *args, **kwargs)
        structure.centers[0] = math.nan
        return tree

    def nan_operator(tree):
        kraus = extract_kraus(tree)
        kraus.leaves[-1].operator[1, 0] = math.nan
        return kraus

    if corrupt == "centers":
        monkeypatch.setattr(cli, "run_multiband", nan_center)
    else:
        monkeypatch.setattr(cli, "extract_kraus", nan_operator)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"model": {"type": "synthetic", "bands": 2, "per_band": 2},
                               "bands": {"target": 2}, "round_eps": 1e-2}))
    out = tmp_path / "out"
    assert main(["project", "--config", str(cfg), "--out", str(out)]) == 1
    assert f"error: {artifact}: a non-finite value" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == written
