"""Command-line front end: experiment drivers, config ingestion, CSV/JSON emitters.

Each subcommand reads one JSON config document (validated against a fixed
schema, unknown keys rejected), runs deterministically given (config,
seed), and writes CSV/JSON artifacts with 17-significant-digit floats so
reruns diff byte-identically. Exit codes: 0 success, 1 numerical or
assertion failure, 2 config error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .bands import (
    check_band_assumption,
    detect_bands,
    exact_projectors,
    synthetic_band_spectrum,
)
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
from .chebyshev import EPS_FLOOR, FilterSpec, certify_filter, heaviside_filter
from .feedforward import (
    channel_distance,
    extract_kraus,
    feedforward_query_count,
    round_budget,
    run_multiband,
)
from .linalg import (
    StateVector,
    eigh,
    haar_vector,
    hermitian_from_spectrum,
    matrix_from_json,
    matrix_to_json,
    rng,
)
from .qsp import synthesize_symmetric, to_circuit

__all__ = ["main", "ConfigError"]


class ConfigError(Exception):
    pass


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _write_csv(path: Path, header: list, rows: list):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(cell) for cell in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_json(path: Path, doc):
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def _check_keys(doc: dict, allowed: dict, context: str) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError(f"{context}: expected a JSON object")
    unknown = set(doc) - set(allowed)
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")
    for key, required in allowed.items():
        if required and key not in doc:
            raise ConfigError(f"{context}: missing required key {key!r}")
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
    try:
        return GmonModel.from_json(doc)
    except KeyError as exc:
        raise ConfigError(f"{name}: missing key {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _load_config(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def cmd_phases(config: dict, out: Path, seed: int) -> int:
    _check_keys(config, {"mu": True, "delta": True, "eps": True, "tol": False}, "phases")
    mu, delta, eps = (_number(float, config[key], f"phases.{key}")
                      for key in ("mu", "delta", "eps"))
    try:
        spec = FilterSpec(mu, delta, eps)
    except ValueError as exc:
        raise ConfigError(f"phases: invalid filter parameters: {exc}") from exc
    tol = _number(float, config.get("tol", 1e-11), "phases.tol", above=0.0)

    filt = heaviside_filter(spec)
    psi = synthesize_symmetric(filt, tol)
    phi = to_circuit(psi)
    report = certify_filter(filt, spec)

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


def _resolve_model(doc: dict, seed: int):
    """Config model block -> (Hamiltonian with spectrum in [0, 1], metadata)."""
    kind = doc.get("type")
    if kind == "inline":
        _check_keys(doc, {"type": True, "matrix": True}, "model")
        try:
            h = matrix_from_json(doc["matrix"])
            # The dilation validates shape, hermiticity and the [0, 1] spectrum.
            dilate_hermitian(h)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"model: invalid inline matrix: {exc}") from exc
        return h, {"source": "inline"}
    if kind == "gmon":
        _check_keys(doc, {"type": True, "spec": False, "margin": False,
                          "perturb_seed": False}, "model")
        model = _gmon_model(doc["spec"], "model.spec") if "spec" in doc else default_model()
        if "perturb_seed" in doc:
            model = model.perturbed(_seed(doc["perturb_seed"], "model.perturb_seed"))
        h = build_h0(model) + build_h1(model)
        margin = _number(float, doc.get("margin", 0.1), "model.margin", above=0.0, below=0.5)
        normalized, mapping = normalize_for_qsvt(h, margin)
        return normalized, {"source": "gmon", "scale": mapping.scale, "offset": mapping.offset}
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
            # The dilation validates the [0, 1] spectrum, as for inline models.
            dilate_hermitian(h)
        except ValueError as exc:
            raise ConfigError(f"model.width {width}: {exc}") from exc
        return h, {"source": "synthetic"}
    raise ConfigError(f"model: unknown type {kind!r}")


def _resolve_input(doc: dict, spectrum, seed: int) -> np.ndarray:
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
        try:
            amp = np.array([complex(re, im) for re, im in doc["values"]])
        except (TypeError, ValueError) as exc:
            raise ConfigError("input.values: expected a list of numeric [re, im] pairs") from exc
        if amp.shape != (n,):
            raise ConfigError(f"input: expected {n} amplitudes, got {len(amp)}")
        if not np.all(np.isfinite(amp)):
            raise ConfigError("input: amplitudes must be finite")
        norm = np.linalg.norm(amp)
        if norm == 0.0:
            raise ConfigError("input: amplitudes are all zero")
        return amp / norm
    raise ConfigError(f"input: unknown type {kind!r}")


def cmd_project(config: dict, out: Path, seed: int) -> int:
    _check_keys(config, {
        "model": True, "bands": True, "mode": False, "budget": False,
        "round_eps": False, "split_constant": False, "trajectories": False,
        "haar_samples": False, "input": False,
    }, "project")
    h, meta = _resolve_model(config["model"], seed)
    dim = h.shape[0]
    if dim & (dim - 1):
        raise ConfigError(
            f"model: the system register needs a power-of-two dimension, got {dim}"
        )
    spectrum = eigh(h)

    band_doc = _check_keys(config["bands"], {"min_gap": False, "target": False}, "bands")
    if ("min_gap" in band_doc) == ("target" in band_doc):
        raise ConfigError("bands: pass exactly one of min_gap or target")
    if "min_gap" in band_doc:
        min_gap = _number(float, band_doc["min_gap"], "bands.min_gap", above=0.0)
        structure = detect_bands(spectrum.values, min_gap=min_gap)
    else:
        target = _number(int, band_doc["target"], "bands.target", low=1, high=dim)
        structure = detect_bands(spectrum.values, target_bands=target)
    check_band_assumption(spectrum.values, structure)

    mode = config.get("mode", "enumerate")
    if mode not in ("enumerate", "sample"):
        raise ConfigError(f"project: unknown mode {mode!r}")
    trajectories = _number(int, config.get("trajectories", 1), "project.trajectories", low=1)
    samples = _number(int, config.get("haar_samples", 32), "project.haar_samples", low=0)
    split_constant = _number(float, config.get("split_constant", 4.0), "project.split_constant",
                             above=0.0)
    count = structure.band_count
    if "round_eps" in config:
        round_eps = _number(float, config["round_eps"], "project.round_eps")
    elif "budget" in config:
        budget = _number(float, config["budget"], "project.budget")
        round_eps = round_budget(budget, count, split_constant) if count > 1 else None
    else:
        raise ConfigError("project: pass budget or round_eps")
    if count > 1 and not EPS_FLOOR <= round_eps < 1.0:
        raise ConfigError(
            f"project: per-round budget {round_eps:.3g} outside "
            f"[{EPS_FLOOR:g}, 1); raise budget or round_eps"
        )

    enc = dilate_hermitian(h)
    n = enc.encoded_dim
    amp = _resolve_input(config.get("input", {}), spectrum, seed)
    state = StateVector(int(round(math.log2(n))), amp)
    tree = run_multiband(enc, structure, round_eps, state, mode=mode, seed=seed,
                         trajectories=trajectories)
    _write_json(out / "bands.json", structure.to_json())

    if mode == "sample":
        rows = []
        for t, leaf in enumerate(tree.leaves):
            rows.append([t, "".join(map(str, leaf.record)), leaf.claimed_band,
                         leaf.failed])
        _write_csv(out / "records.csv",
                   ["trajectory", "record_bits", "claimed_band", "failed"], rows)
        projectors = exact_projectors(spectrum, structure)
        weights = [float(np.vdot(amp, p @ amp).real) for p in projectors]
        _write_csv(out / "band_weights.csv", ["band", "exact_weight"],
                   [[j, _fmt(w)] for j, w in enumerate(weights)])
        return 0

    _write_json(out / "tree.json", tree.to_json())
    kraus = extract_kraus(tree)
    _write_json(out / "kraus.json", {
        "completeness_residual": kraus.completeness_residual,
        "operators": [
            {
                "record": list(leaf.record),
                "claimed_band": leaf.claimed_band,
                "failed": leaf.failed,
                "matrix": matrix_to_json(leaf.operator),
            }
            for leaf in kraus.leaves
        ],
    })

    projectors = exact_projectors(spectrum, structure)
    proxy = channel_distance(kraus, projectors, samples=samples, seed=seed)
    bound = (4.0 * count * math.log2(count) * tree.round_eps) if count > 1 else 0.0
    rows = [["distance_proxy", _fmt(proxy)],
            ["bound_4_L_log2L_eps", _fmt(bound)],
            ["round_eps", _fmt(tree.round_eps)],
            ["degree", tree.degree],
            ["queries", tree.query_count],
            ["query_formula", feedforward_query_count(count, tree.degree)]]
    _write_csv(out / "distance.csv", ["quantity", "value"], rows)
    return 0 if (count == 1 or proxy <= bound) else 1


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
        gen = rng(seed, count)
        h = hermitian_from_spectrum(values, gen)
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


def cmd_verify(numbers, out: Path | None) -> int:
    from .verify import CRITERIA, run_criteria

    unknown = sorted(set(numbers or ()) - set(CRITERIA))
    if unknown:
        raise ConfigError(f"verify --criteria: unknown criteria {unknown}, "
                          f"expected numbers in {sorted(CRITERIA)}")
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
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
            return cmd_verify(numbers or None, None if args.out is None else Path(args.out))
        seed = _seed(args.seed, "--seed")
        config = _load_config(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
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


if __name__ == "__main__":
    sys.exit(main())
