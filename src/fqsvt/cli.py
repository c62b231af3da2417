"""Command-line front end: experiment drivers, config ingestion, CSV/JSON emitters.

Each subcommand reads one JSON config document (validated against a fixed
schema, unknown keys rejected), runs deterministically given (config,
seed), and writes CSV and JSON artifacts so reruns diff byte-identically:
CSV floats carry 17 significant digits, JSON floats their shortest
round-trip form. Exit codes: 0 success, 1 numerical or assertion failure,
2 config error.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .bands import detect_bands, exact_projectors, synthetic_band_spectrum
from .baselines import (
    adiabatic_time_estimate,
    prob_projection_depth,
    random_walk_success,
)
from .blockenc import dilate_hermitian
from .bosehubbard import (
    GmonModel,
    band_labels,
    build_h0,
    build_h1,
    default_model,
    fock_occupations,
    normalize_for_qsvt,
)
from .chebyshev import EPS_FLOOR, FilterSpec, _build_filters, heaviside_filter
from .feedforward import (
    KrausExtraction,
    channel_bound,
    channel_distance,
    extract_kraus,
    feedforward_query_count,
    round_budget,
    run_multiband,
)
from .linalg import (
    eigh,
    haar_vector,
    hermitian_from_spectrum,
    matrix_to_json,
    rng,
)
from .qsp import synthesize_symmetric, to_circuit

__all__ = ["main", "ConfigError"]


class ConfigError(Exception):
    pass


def _fmt(x) -> str:
    return f"{float(x):.17g}"


@contextlib.contextmanager
def _replacing(path: Path):
    """A text file, written at a sibling name and moved onto `path` once whole.

    If the body raises, the partial file is removed and `path` is untouched.
    """
    part = path.with_name(path.name + ".part")
    try:
        with part.open("w", encoding="utf-8") as f:
            yield f
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


def _write_csv(path: Path, header: list, rows):
    """`header` and then each row of the iterable `rows`, comma-joined, a line each."""
    with _replacing(path) as f:
        for row in itertools.chain([header], rows):
            f.write(",".join(map(str, row)) + "\n")


def _encode_json(doc, name: str) -> str:
    """`doc` as compact, key-sorted JSON with shortest round-trip floats.

    orjson writes NaN and +-inf as null, which no artifact holds otherwise, so
    a null raises a ValueError naming the artifact `name`.
    """
    import orjson  # here, so that `fqsvt verify`, which writes no JSON, never loads it

    text = orjson.dumps(doc, option=orjson.OPT_SORT_KEYS)
    if b"null" in text:
        raise ValueError(f"{name}: a non-finite value cannot be written as JSON")
    return text.decode("ascii")


def _write_json(path: Path, doc):
    with _replacing(path) as f:
        f.write(_encode_json(doc, path.name) + "\n")


def _write_kraus(path: Path, kraus: KrausExtraction):
    """The Kraus document, encoded and written one operator at a time.

    The bytes are those of `_write_json` on {"completeness_residual",
    "operators": [{"claimed_band", "failed", "matrix", "record"}, ...]}; the
    head is that dump with no operators, cut before its closing "]}".
    """
    head = _encode_json({"completeness_residual": kraus.completeness_residual,
                         "operators": []}, path.name)
    with _replacing(path) as f:
        f.write(head[:-2])
        sep = ""
        for leaf in kraus.leaves:
            f.write(sep)
            f.write(_encode_json({
                "record": list(leaf.record),
                "claimed_band": leaf.claimed_band,
                "failed": leaf.failed,
                "matrix": matrix_to_json(leaf.operator),
            }, path.name))
            sep = ","
        f.write("]}\n")


def _check_keys(doc: dict, allowed: dict, context: str) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError(f"{context}: expected a JSON object")
    unknown = set(doc) - set(allowed)
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")
    for key, required in allowed.items():
        if required and key not in doc:
            raise ConfigError(f"{context}: missing key {key!r}")
    return doc


def _number(kind, value, name: str, low=None, above=None, high=None, below=None):
    """`value` converted by `kind` (int or float), finite and within the given bounds.

    Booleans are rejected, and so is a float with a fractional part where an int
    is expected; numeric strings convert. `low` and `high` are inclusive, `above`
    and `below` exclusive; a ConfigError names `name` and the cause.
    """
    wrong = ConfigError(f"{name}: expected {kind.__name__}, got {value!r}")
    if isinstance(value, bool):
        raise wrong
    try:
        x = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise wrong from exc
    if kind is int and isinstance(value, float) and x != value:
        raise wrong
    if not math.isfinite(x):
        raise ConfigError(f"{name}: expected a finite value, got {value!r}")
    for bad, rule in ((low is not None and x < low, f">= {low}"),
                      (above is not None and x <= above, f"> {above}"),
                      (high is not None and x > high, f"<= {high}"),
                      (below is not None and x >= below, f"< {below}")):
        if bad:
            raise ConfigError(f"{name} must be {rule}, got {x}")
    return x


def _seed(value, name: str) -> int:
    """`value` as a seed: an int in [0, 2^64), the key range of `linalg.rng`."""
    return _number(int, value, name, low=0, high=2**64 - 1)


def _gmon_model(doc, name: str) -> GmonModel:
    """A gmon spec document, with the keys of `GmonModel.to_json`, as a model."""
    _check_keys(doc, {"modes": True, "nmax": True, "eta": True, "edges": True, "delta": True,
                      "f": True, "phi": True, "check_ranges": False}, name)
    for key, entries in (("edges", "[l, j, g] triples"), ("delta", "numbers"),
                         ("f", "numbers"), ("phi", "numbers")):
        if not isinstance(doc[key], list) or (key == "edges" and not all(
                isinstance(edge, list) and len(edge) == 3 for edge in doc[key])):
            raise ConfigError(f"{name}.{key}: expected a list of {entries}, got {doc[key]!r}")
    check_ranges = doc.get("check_ranges", True)
    if not isinstance(check_ranges, bool):
        raise ConfigError(f"{name}.check_ranges: expected true or false, got {check_ranges!r}")
    fields = {key: _number(kind, doc[key], f"{name}.{key}")
              for key, kind in (("modes", int), ("nmax", int), ("eta", float))}
    fields.update({key: [_number(float, v, f"{name}.{key}") for v in doc[key]]
                   for key in ("delta", "f", "phi")})
    edges = [tuple(_number(kind, v, f"{name}.edges") for kind, v in zip((int, int, float), edge))
             for edge in doc["edges"]]
    try:
        return GmonModel(**fields, edges=edges, check_ranges=check_ranges)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _complex_pairs(values, name: str) -> np.ndarray:
    """A list of numeric [re, im] pairs as a (len, 2) float array."""
    if not isinstance(values, list) or not all(
            isinstance(pair, list) and len(pair) == 2 for pair in values):
        raise ConfigError(f"{name}: expected a list of numeric [re, im] pairs")
    return np.array([[_number(float, v, name) for v in pair] for pair in values]).reshape(-1, 2)


def _inline_matrix(doc, name: str) -> np.ndarray:
    """A matrix document, with the keys of `linalg.matrix_to_json`, as a complex array."""
    _check_keys(doc, {"rows": True, "cols": True, "data": True}, name)
    rows, cols = (_number(int, doc[key], f"{name}.{key}", low=1) for key in ("rows", "cols"))
    pairs = _complex_pairs(doc["data"], f"{name}.data")
    if len(pairs) != rows * cols:
        raise ConfigError(f"{name}: claims {rows}x{cols} but carries {len(pairs)} entries")
    return pairs.view(complex).reshape(rows, cols)


def _load_config(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except OSError as exc:
        raise ConfigError(f"config file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8: {exc.reason}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def _out_dir(path) -> Path:
    """The output directory `path`, created with its parents if missing."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {path}: {exc.strerror}") from exc
    return out


def cmd_phases(config: dict, out: Path, seed: int) -> int:
    _check_keys(config, {"mu": True, "delta": True, "eps": True, "tol": False}, "phases")
    mu, delta, eps = (_number(float, config[key], f"phases.{key}")
                      for key in ("mu", "delta", "eps"))
    try:
        spec = FilterSpec(mu, delta, eps)
    except ValueError as exc:
        raise ConfigError(f"phases: invalid filter parameters: {exc}") from exc
    tol = _number(float, config.get("tol", 1e-11), "phases.tol", above=0.0)

    build = _build_filters([spec])[0]
    filt, report = build.filter, build.report
    psi = synthesize_symmetric(filt, tol)
    phi = to_circuit(psi)

    _write_json(out / "filter.json", filt.to_json())
    _write_json(out / "phases_su2.json", psi.to_json())
    _write_json(out / "phases_circuit.json", phi.to_json())
    rows = [
        [cond.name, _fmt(cond.bound), _fmt(cond.worst), _fmt(cond.margin), cond.passed]
        for cond in report.conditions()
    ]
    _write_csv(out / "certification.csv",
               ["condition", "bound", "worst_value", "margin", "passed"], rows)
    return 0 if report.passed else 1


def _resolve_model(doc, seed: int) -> np.ndarray:
    """Config model block -> symmetric dilation of a Hermitian matrix with spectrum in [0, 1]."""
    if not isinstance(doc, dict):
        raise ConfigError(f"model: expected a JSON object, got {doc!r}")
    kind = doc.get("type")
    if kind == "inline":
        _check_keys(doc, {"type": True, "matrix": True}, "model")
        h = _inline_matrix(doc["matrix"], "model.matrix")
        try:
            return dilate_hermitian(h)
        except ValueError as exc:
            raise ConfigError(f"model: invalid inline matrix: {exc}") from exc
    if kind == "gmon":
        _check_keys(doc, {"type": True, "spec": False, "margin": False,
                          "perturb_seed": False}, "model")
        model = _gmon_model(doc["spec"], "model.spec") if "spec" in doc else default_model()
        if "perturb_seed" in doc:
            model = model.perturbed(_seed(doc["perturb_seed"], "model.perturb_seed"))
        h = build_h0(model) + build_h1(model)
        margin = _number(float, doc.get("margin", 0.1), "model.margin", above=0.0, below=0.5)
        return dilate_hermitian(normalize_for_qsvt(h, margin)[0])
    if kind == "synthetic":
        _check_keys(doc, {"type": True, "bands": True, "per_band": False,
                          "width": False, "basis_seed": False}, "model")
        width = _number(float, doc.get("width", 0.0), "model.width")
        values = synthetic_band_spectrum(
            _number(int, doc["bands"], "model.bands", low=1),
            _number(int, doc.get("per_band", 1), "model.per_band", low=1),
            width,
        )
        gen = rng(_seed(doc.get("basis_seed", seed), "model.basis_seed"), 1)
        h = hermitian_from_spectrum(values, gen)
        try:
            return dilate_hermitian(h)
        except ValueError as exc:
            raise ConfigError(f"model.width {width}: {exc}") from exc
    raise ConfigError(f"model: unknown type {kind!r}")


def _resolve_input(doc, spectrum, seed: int) -> np.ndarray:
    if not isinstance(doc, dict):
        raise ConfigError(f"input: expected a JSON object, got {doc!r}")
    kind = doc.get("type", "uniform-eigen")
    n = spectrum.vectors.shape[0]
    if kind == "uniform-eigen":
        _check_keys(doc, {"type": False}, "input")
        return spectrum.vectors.sum(axis=1) / math.sqrt(n)
    if kind == "haar":
        _check_keys(doc, {"type": True, "seed": False}, "input")
        return haar_vector(rng(_seed(doc.get("seed", seed), "input.seed"), 2), n)
    if kind == "eigenstate":
        _check_keys(doc, {"type": True, "index": True}, "input")
        index = _number(int, doc["index"], "input.index")
        if not 0 <= index < n:
            raise ConfigError(f"input: eigenstate index {index} outside [0, {n})")
        return spectrum.vectors[:, index].copy()
    if kind == "amplitudes":
        _check_keys(doc, {"type": True, "values": True}, "input")
        pairs = _complex_pairs(doc["values"], "input.values")
        if len(pairs) != n:
            raise ConfigError(f"input: expected {n} amplitudes, got {len(pairs)}")
        # A power of two brings the largest entry into [0.5, 1), so the norm
        # cannot overflow, and scales the normalized state exactly.
        amp = np.ldexp(pairs, -np.frexp(np.max(np.abs(pairs)))[1]).view(complex)[:, 0]
        norm = np.linalg.norm(amp)
        if norm == 0.0:
            raise ConfigError("input: amplitudes are all zero")
        return amp / norm
    raise ConfigError(f"input: unknown type {kind!r}")


def cmd_project(config: dict, out: Path, seed: int) -> int:
    _check_keys(config, {
        "model": True, "bands": True, "mode": False, "budget": False,
        "round_eps": False, "trajectories": False,
        "haar_samples": False, "input": False,
    }, "project")
    enc = _resolve_model(config["model"], seed)
    dim = len(enc) // 2
    if dim & (dim - 1):
        raise ConfigError(
            f"model: the system register needs a power-of-two dimension, got {dim}"
        )
    spectrum = eigh(enc[:dim, :dim])

    band_doc = _check_keys(config["bands"], {"min_gap": False, "target": False}, "bands")
    if ("min_gap" in band_doc) == ("target" in band_doc):
        raise ConfigError("bands: pass exactly one of min_gap or target")
    if "min_gap" in band_doc:
        min_gap = _number(float, band_doc["min_gap"], "bands.min_gap", above=0.0)
        structure = detect_bands(spectrum.values, min_gap=min_gap)
    else:
        target = _number(int, band_doc["target"], "bands.target", low=1, high=dim)
        structure = detect_bands(spectrum.values, target_bands=target)

    mode = config.get("mode", "enumerate")
    if mode not in ("enumerate", "sample"):
        raise ConfigError(f"project: unknown mode {mode!r}")
    trajectories = _number(int, config.get("trajectories", 1), "project.trajectories", low=1)
    _number(int, config.get("haar_samples", 32), "project.haar_samples", low=1)  # has no effect
    count = structure.band_count
    if "round_eps" in config:
        round_eps = _number(float, config["round_eps"], "project.round_eps")
    elif "budget" in config:
        budget = _number(float, config["budget"], "project.budget")
        round_eps = round_budget(budget, count) if count > 1 else None
    else:
        raise ConfigError("project: pass budget or round_eps")
    if count > 1 and not EPS_FLOOR <= round_eps < 1.0:
        raise ConfigError(
            f"project: per-round budget {round_eps:.3g} outside "
            f"[{EPS_FLOOR:g}, 1); raise budget or round_eps"
        )

    amp = _resolve_input(config.get("input", {}), spectrum, seed)
    tree = run_multiband(enc, structure, round_eps, amp, mode=mode, seed=seed,
                         trajectories=trajectories)
    _write_json(out / "bands.json", structure.to_json())

    if mode == "sample":
        rows = ((t, "".join(map(str, leaf.record)), leaf.claimed_band, leaf.failed)
                for t, leaf in enumerate(tree.leaves))
        _write_csv(out / "records.csv",
                   ["trajectory", "record_bits", "claimed_band", "failed"], rows)
        weights = [float(np.vdot(amp, p @ amp).real)
                   for p in exact_projectors(spectrum, structure)]
        _write_csv(out / "band_weights.csv", ["band", "exact_weight"],
                   [[j, _fmt(w)] for j, w in enumerate(weights)])
        return 0

    _write_json(out / "tree.json", tree.to_json())
    kraus = extract_kraus(tree)
    _write_kraus(out / "kraus.json", kraus)

    lower, upper, residual = channel_distance(kraus, spectrum, structure)
    bound = channel_bound(count, tree.round_eps)
    rows = [["distance_lower", _fmt(lower)],
            ["distance_upper", _fmt(upper)],
            ["distance_residual", _fmt(residual)],
            ["bound_4_L_log2L_eps", _fmt(bound)],
            ["round_eps", _fmt(tree.round_eps)],
            ["degree", tree.degree],
            ["queries", tree.query_count],
            ["query_formula", feedforward_query_count(count, tree.degree)]]
    _write_csv(out / "distance.csv", ["quantity", "value"], rows)
    return 0 if (count == 1 or upper <= bound) else 1


def cmd_baselines(config: dict, out: Path, seed: int) -> int:
    _check_keys(config, {
        "Ls": True, "trials": False, "per_band": False, "filter": False,
        "adiabatic_min_gap": False, "adiabatic_eps": False,
    }, "baselines")
    if not isinstance(config["Ls"], list) or not config["Ls"]:
        raise ConfigError("baselines: Ls must be a nonempty list")
    band_counts = [_number(int, v, "baselines.Ls", low=1) for v in config["Ls"]]
    trials = _number(int, config.get("trials", 10000), "baselines.trials", low=1000)
    per_band = _number(int, config.get("per_band", 2), "baselines.per_band", low=1)
    filt_doc = _check_keys(config.get("filter", {}), {"delta": False, "eps": False},
                           "baselines.filter")
    delta = _number(float, filt_doc.get("delta", 0.2), "baselines.filter.delta")
    eps = _number(float, filt_doc.get("eps", 1e-3), "baselines.filter.eps")
    try:
        spec = FilterSpec(0.5, delta, eps)
    except ValueError as exc:
        raise ConfigError(f"baselines.filter: invalid filter parameters: {exc}") from exc
    min_gap = _number(float, config.get("adiabatic_min_gap", 0.1), "baselines.adiabatic_min_gap",
                      above=0.0)
    ad_eps = _number(float, config.get("adiabatic_eps", 1e-2), "baselines.adiabatic_eps",
                     above=0.0)
    degree = heaviside_filter(spec).degree

    rows = []
    for count in band_counts:
        dim = count * per_band
        if dim & (dim - 1):
            raise ConfigError(
                f"baselines: L={count} with per_band={per_band} is not a "
                "power-of-two dimension"
            )
        values = synthetic_band_spectrum(count, per_band, width=0.01)
        h = hermitian_from_spectrum(values, rng(seed, count))
        spectrum = eigh(h)
        structure = detect_bands(spectrum.values, target_bands=count)
        walk = random_walk_success(structure, spectrum, trials, seed)
        rows.append([
            count,
            feedforward_query_count(count, degree),
            _fmt(walk.success_rate),
            _fmt(walk.stderr),
            _fmt(prob_projection_depth(np.full(count, 1.0 / count), "amplify")),
            _fmt(adiabatic_time_estimate(per_band, min_gap, ad_eps)),
        ])
    _write_csv(
        out / "baselines.csv",
        ["L", "feedforward_queries", "random_walk_success", "walk_stderr",
         "prob_projection_depth_amplify", "adiabatic_time_estimate"],
        rows,
    )
    return 0


def cmd_bosehubbard(config: dict, out: Path, seed: int) -> int:
    _check_keys(config, {"model": False, "margin": False, "min_gap_fraction": False,
                         "perturb_seed": False}, "bosehubbard")
    model = (_gmon_model(config["model"], "bosehubbard.model") if "model" in config
             else default_model())
    # The detected band gap is min_gap_fraction * eta in normalized units.
    _number(float, model.eta, "bosehubbard.model.eta", above=0.0)
    if "perturb_seed" in config:
        model = model.perturbed(_seed(config["perturb_seed"], "bosehubbard.perturb_seed"))
    margin = _number(float, config.get("margin", 0.1), "bosehubbard.margin",
                     above=0.0, below=0.5)
    gap_fraction = _number(float, config.get("min_gap_fraction", 0.5),
                           "bosehubbard.min_gap_fraction", above=0.0)

    h0 = build_h0(model)
    h1 = build_h1(model)
    labeling = band_labels(model)
    normalized, mapping = normalize_for_qsvt(h0 + h1, margin)
    spectrum = eigh(normalized)
    structure = detect_bands(spectrum.values, min_gap=gap_fraction * model.eta * mapping.scale)

    _write_json(out / "model.json", model.to_json())
    _write_json(out / "h0.json", matrix_to_json(h0))
    _write_json(out / "h1.json", matrix_to_json(h1))
    occ = fock_occupations(model)
    _write_csv(out / "labels.csv", ["index", "occupations", "band"],
               [[i, "".join(map(str, occ[i])), int(labeling.labels[i])]
                for i in range(model.dimension)])
    _write_csv(out / "spectrum.csv", ["index", "normalized_energy"],
               [[i, _fmt(v)] for i, v in enumerate(spectrum.values)])
    _write_json(out / "bands.json", structure.to_json())
    return 0


def cmd_verify(numbers, out: str | None) -> int:
    from .verify import CRITERIA, run_criteria

    unknown = sorted(set(numbers or ()) - set(CRITERIA))
    if unknown:
        raise ConfigError(f"verify --criteria: unknown criteria {unknown}, "
                          f"expected numbers in {sorted(CRITERIA)}")
    if out is not None:
        out = _out_dir(out)
    results = run_criteria(numbers)
    width = max(len(r.title) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.ident:>2} {r.title:<{width}} {r.detail}")
    if out is not None:
        _write_csv(out / "verify.csv", ["criterion", "title", "passed", "detail"],
                   [[r.ident, r.title, r.passed, r.detail.replace(",", ";")] for r in results])
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fqsvt",
        description="Feedforward singular-value-transformation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("phases", "project", "baselines", "bosehubbard"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", required=True)
    v = sub.add_parser("verify")
    v.add_argument("--criteria", default="", help="comma-separated subset, e.g. 1,4,8")
    v.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    try:
        if args.command == "verify":
            numbers = [_number(int, tok, "verify --criteria")
                       for tok in args.criteria.split(",") if tok.strip()]
            return cmd_verify(numbers or None, args.out)
        seed = _seed(args.seed, "--seed")
        config = _load_config(args.config)
        out = _out_dir(args.out)
        handler = {
            "phases": cmd_phases,
            "project": cmd_project,
            "baselines": cmd_baselines,
            "bosehubbard": cmd_bosehubbard,
        }[args.command]
        return handler(config, out, seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy's message names the allocation, e.g. a sample run's uniform block.
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
