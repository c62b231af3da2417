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
from collections import namedtuple
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
from .chebyshev import (EPS_FLOOR, FilterSpec, UnresolvedWindowError, _build_filters,
                        _check_window, heaviside_filter)
from .feedforward import (
    KrausExtraction,
    channel_bound,
    channel_distance,
    extract_kraus,
    feedforward_query_count,
    round_budget,
    run_multiband,
    sample_trajectories,
)
from .linalg import eigh, haar_vector, hermitian_from_spectrum, rng
from .qsp import _circuit_offsets, synthesize_symmetric

__all__ = ["main", "ConfigError"]


class ConfigError(Exception):
    pass


def _fmt(x) -> str:
    return f"{x:.17g}"


@contextlib.contextmanager
def _config_error(prefix: str, errors=ValueError):
    """Re-raise an `errors` exception from the body as a ConfigError led by `prefix`."""
    try:
        yield
    except errors as exc:
        raise ConfigError(f"{prefix}: {exc}") from exc


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


def _contiguous(value):
    """orjson's fallback for a value it cannot write: a C-contiguous copy of an array."""
    if isinstance(value, np.ndarray) and not value.flags.c_contiguous:
        return np.ascontiguousarray(value)
    raise TypeError(f"{type(value).__name__} cannot be written as JSON")


def _encode_json(doc, name: str) -> str:
    """`doc` as compact, key-sorted JSON with shortest round-trip floats.

    numpy arrays and scalars are written as they are, with the digits of the
    equal Python numbers. orjson writes NaN and +-inf as null, which no
    artifact holds otherwise, so a null raises a ValueError naming the
    artifact `name`.
    """
    import orjson  # here, so that `fqsvt verify`, which writes no JSON, never loads it

    text = orjson.dumps(doc, default=_contiguous,
                        option=orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY)
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
                "record": leaf.record,
                "claimed_band": leaf.claimed_band,
                "failed": leaf.failed,
                "matrix": matrix_to_json(leaf.operator),
            }, path.name))
            sep = ","
        f.write("]}\n")


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
    if not abs(x) <= sys.float_info.max:  # NaN, +-inf, or an int past the float range
        raise ConfigError(f"{name}: expected a finite value, got {value!r}")
    for bad, rule in ((low is not None and x < low, f">= {low}"),
                      (above is not None and x <= above, f"> {above}"),
                      (high is not None and x > high, f"<= {high}"),
                      (below is not None and x >= below, f"< {below}")):
        if bad:
            raise ConfigError(f"{name} must be {rule}, got {x}")
    return x


# Config schema: each command reads its JSON config through one `Table`, and
# README's key tables and the config fuzzer read the same objects. A table's
# `fields` map key -> (kind, default); a default is read through the kind like
# a given value, or is REQUIRED, or OPTIONAL (an absent key stays absent).
REQUIRED, OPTIONAL = object(), object()
# `_number`'s rules with inclusive `low`/`high` and exclusive `above`/`below` bounds.
Num = namedtuple("Num", "type low above high below", defaults=(None,) * 4)
# One of `options`, equal in value and type (so 1 is not true); `what` describes them.
Choice = namedtuple("Choice", "options what")
# A list of `what`, each entry read by `item`, or, if `item` is a plain tuple of
# kinds, a list of that length read entry by entry; `options` lists allowed entries.
ListOf = namedtuple("ListOf", "item what nonempty options", defaults=(False, None))
# A JSON object, read into a dict or, if `build` is set, into `build(**dict)`.
Table = namedtuple("Table", "fields build", defaults=(None,))
# A JSON object whose "type" (`default` if absent) picks the table in `tables`
# that reads its other keys; the dict read carries the type too.
Variant = namedtuple("Variant", "tables default", defaults=(None,))


def _read(kind, value, name: str):
    """`value` read by `kind`, or a ConfigError that names the dotted key `name`."""
    if isinstance(kind, Num):
        return _number(kind.type, value, name, kind.low, kind.above, kind.high, kind.below)
    if isinstance(kind, Choice):
        if not any(type(value) is type(option) and value == option for option in kind.options):
            raise ConfigError(f"{name}: expected {kind.what}, got {value!r}")
        return value
    if isinstance(kind, ListOf):
        rows = type(kind.item) is tuple
        if not isinstance(value, list) or (kind.nonempty and not value) or rows and not all(
                isinstance(v, list) and len(v) == len(kind.item) for v in value):
            raise ConfigError(f"{name}: expected a {'nonempty ' * kind.nonempty}list of "
                              f"{kind.what}, got {value!r}")
        items = [tuple(_read(k, x, name) for k, x in zip(kind.item, v)) if rows
                 else _read(kind.item, v, name) for v in value]
        unknown = sorted(set(items) - set(kind.options)) if kind.options else []
        if unknown:
            raise ConfigError(f"{name}: unknown {kind.what} {unknown}, "
                              f"expected numbers in {list(kind.options)}")
        return items
    if not isinstance(value, dict):
        raise ConfigError(f"{name}: expected a JSON object, got {value!r}")
    if isinstance(kind, Variant):
        choice = value.get("type", kind.default)
        if not isinstance(choice, str) or choice not in kind.tables:
            raise ConfigError(f"{name}: unknown type {choice!r}")
        rest = {key: v for key, v in value.items() if key != "type"}
        return {"type": choice, **_read(kind.tables[choice], rest, name)}
    unknown = sorted(set(value) - set(kind.fields))
    if unknown:
        raise ConfigError(f"{name}: unknown keys {unknown}")
    for key, (_, default) in kind.fields.items():
        if default is REQUIRED and key not in value:
            raise ConfigError(f"{name}: missing key {key!r}")
    values = {key: _read(k, value.get(key, default), f"{name}.{key}")
              for key, (k, default) in kind.fields.items()
              if key in value or default is not OPTIONAL}
    with _config_error(name):
        return values if kind.build is None else kind.build(**values)


def matrix_to_json(a: np.ndarray) -> dict:
    """Encode a complex matrix as {"rows", "cols", "data"} with (re, im) pairs, row-major.

    `data` is a float view of the matrix, written as nested lists by `_encode_json`.
    """
    a = np.ascontiguousarray(np.atleast_2d(a), dtype=complex)
    return {"rows": a.shape[0], "cols": a.shape[1], "data": a.view(float).reshape(-1, 2)}


def _matrix(rows: int, cols: int, data: list) -> np.ndarray:
    """A matrix document, with the keys of `matrix_to_json`, as a complex array."""
    if len(data) != rows * cols:
        raise ValueError(f"claims {rows}x{cols} but carries {len(data)} entries")
    return np.array(data, dtype=float).reshape(-1, 2).view(complex).reshape(rows, cols)


NUMBER, POSITIVE, COUNT = Num(float), Num(float, above=0.0), Num(int, low=1)
MARGIN = Num(float, above=0.0, below=0.5)
SEED = Num(int, low=0, high=2**64 - 1)  # the key range of `linalg.rng`
NUMBERS = ListOf(NUMBER, "numbers")
PAIRS = ListOf((NUMBER, NUMBER), "numeric [re, im] pairs")
CRITERIA_LIST = ListOf(Num(int), "criteria", options=tuple(range(1, 11)))  # verify.CRITERIA
MATRIX = Table({"rows": (COUNT, REQUIRED), "cols": (COUNT, REQUIRED),
                "data": (PAIRS, REQUIRED)}, build=_matrix)
GMON_FIELDS = {"modes": (Num(int), REQUIRED), "nmax": (Num(int), REQUIRED),
               "eta": (NUMBER, REQUIRED),
               "edges": (ListOf((Num(int), Num(int), NUMBER), "[l, j, g] triples"), REQUIRED),
               "delta": (NUMBERS, REQUIRED), "f": (NUMBERS, REQUIRED), "phi": (NUMBERS, REQUIRED),
               "check_ranges": (Choice((True, False), "true or false"), True)}
GMON_SPEC = Table(GMON_FIELDS, build=GmonModel)

PHASES = Table({"mu": (NUMBER, REQUIRED), "delta": (NUMBER, REQUIRED), "eps": (NUMBER, REQUIRED)})
PROJECT = Table({
    "model": (Variant({
        "inline": Table({"matrix": (MATRIX, REQUIRED)}),
        "gmon": Table({"spec": (GMON_SPEC, OPTIONAL),
                       "margin": (MARGIN, 0.1), "perturb_seed": (SEED, OPTIONAL)}),
        "synthetic": Table({"bands": (COUNT, REQUIRED), "per_band": (COUNT, 1),
                            "width": (NUMBER, 0.0), "basis_seed": (SEED, OPTIONAL)}),
    }), REQUIRED),
    "bands": (Table({"min_gap": (POSITIVE, OPTIONAL), "target": (COUNT, OPTIONAL)}), REQUIRED),
    "mode": (Choice(("enumerate", "sample"), "enumerate or sample"), "enumerate"),
    "budget": (NUMBER, OPTIONAL),
    "round_eps": (NUMBER, OPTIONAL),
    "trajectories": (COUNT, 1),
    "haar_samples": (COUNT, 32),  # accepted, with no effect
    "input": (Variant({
        "uniform-eigen": Table({}),
        "haar": Table({"seed": (SEED, OPTIONAL)}),
        "eigenstate": Table({"index": (Num(int), REQUIRED)}),
        "amplitudes": Table({"values": (PAIRS, REQUIRED)}),
    }, default="uniform-eigen"), {}),
})
BASELINES = Table({
    "Ls": (ListOf(COUNT, "band counts", nonempty=True), REQUIRED),
    "per_band": (COUNT, 2),
    "filter": (Table({"delta": (NUMBER, 0.2), "eps": (NUMBER, 1e-3)}), {}),
    "adiabatic_min_gap": (POSITIVE, 0.1),
    "adiabatic_eps": (POSITIVE, 1e-2),
})
# bosehubbard derives its band gap from eta, so eta must be positive there.
BOSEHUBBARD = Table({
    "model": (Table({**GMON_FIELDS, "eta": (POSITIVE, REQUIRED)}, build=GmonModel), OPTIONAL),
    "margin": (MARGIN, 0.1),
    "min_gap_fraction": (POSITIVE, 0.5),
    "perturb_seed": (SEED, OPTIONAL),
})


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


def cmd_phases(cfg: dict, out: Path, seed: int) -> int:
    with _config_error("phases: invalid filter parameters"):
        spec = FilterSpec(cfg["mu"], cfg["delta"], cfg["eps"])

    build = _build_filters([spec])[0]
    filt, report = build.filter, build.report
    psi = synthesize_symmetric([filt])[0]

    # Every filter is even by construction: T_h(2x^2 - 1) = T_2h(x).
    _write_json(out / "filter.json", {"parity": "even", "coeffs": filt.coeffs})
    _write_json(out / "phases_su2.json", {"convention": "su2", "values": psi.values})
    _write_json(out / "phases_circuit.json",
                {"convention": "circuit", "values": psi.values - _circuit_offsets(psi.degree)})
    rows = [
        [cond.name, _fmt(cond.bound), _fmt(cond.worst), _fmt(cond.margin), cond.passed]
        for cond in report.conditions()
    ]
    _write_csv(out / "certification.csv",
               ["condition", "bound", "worst_value", "margin", "passed"], rows)
    return 0


def _write_bands(path: Path, structure):
    """The band structure as written by `project` and `bosehubbard`."""
    _write_json(path, {"L": structure.band_count, "centers": structure.centers,
                       "delta": structure.delta, "bands": structure.bands})


def _perturbed(model: GmonModel, seed: int, where: str) -> GmonModel:
    """`model.perturbed(seed)`, or a ConfigError that names `where`.perturb_seed and the cause.

    The cause is a control that the noise moved outside its range.
    """
    with _config_error(f"{where}.perturb_seed {seed} moves the model out of range"):
        return model.perturbed(seed)


def _resolve_model(model: dict, seed: int) -> np.ndarray:
    """A read `model` -> symmetric dilation of a Hermitian matrix with spectrum in [0, 1]."""
    if model["type"] == "gmon":
        gmon = model["spec"] if "spec" in model else default_model()
        if "perturb_seed" in model:
            gmon = _perturbed(gmon, model["perturb_seed"], "project.model")
        h = build_h0(gmon) + build_h1(gmon)
        with _config_error("project.model"):
            h = normalize_for_qsvt(h, model["margin"])[0]
        return dilate_hermitian(h)
    if model["type"] == "inline":
        h, where = model["matrix"], "project.model: invalid inline matrix"
    else:
        values = synthetic_band_spectrum(model["bands"], model["per_band"], model["width"])
        h = hermitian_from_spectrum(values, rng(model.get("basis_seed", seed), 1))
        where = f"project.model.width {model['width']}"
    with _config_error(where):
        return dilate_hermitian(h)


def _resolve_input(inp: dict, spectrum, seed: int) -> np.ndarray:
    n = spectrum.vectors.shape[0]
    if inp["type"] == "uniform-eigen":
        return spectrum.vectors.sum(axis=1) / math.sqrt(n)
    if inp["type"] == "haar":
        return haar_vector(rng(inp.get("seed", seed), 2), n)
    if inp["type"] == "eigenstate":
        if not 0 <= inp["index"] < n:
            raise ConfigError(f"project.input: eigenstate index {inp['index']} outside [0, {n})")
        return spectrum.vectors[:, inp["index"]].copy()
    pairs = np.array(inp["values"], dtype=float).reshape(-1, 2)
    if len(pairs) != n:
        raise ConfigError(f"project.input: expected {n} amplitudes, got {len(pairs)}")
    # A power of two brings the largest entry into [0.5, 1), so the norm
    # cannot overflow, and scales the normalized state exactly.
    amp = np.ldexp(pairs, -np.frexp(np.max(np.abs(pairs)))[1]).view(complex)[:, 0]
    norm = np.linalg.norm(amp)
    if norm == 0.0:
        raise ConfigError("project.input: amplitudes are all zero")
    return amp / norm


def cmd_project(cfg: dict, out: Path, seed: int) -> int:
    if ("min_gap" in cfg["bands"]) == ("target" in cfg["bands"]):
        raise ConfigError("project.bands: pass exactly one of min_gap or target")
    if ("budget" in cfg) == ("round_eps" in cfg):
        raise ConfigError("project: pass exactly one of budget or round_eps")
    enc = _resolve_model(cfg["model"], seed)
    dim = len(enc) // 2
    if dim & (dim - 1):
        raise ConfigError(
            f"project.model: the system register needs a power-of-two dimension, got {dim}"
        )
    spectrum = eigh(enc[:dim, :dim])
    with _config_error("project.bands"):
        if "min_gap" in cfg["bands"]:
            structure = detect_bands(spectrum.values, min_gap=cfg["bands"]["min_gap"])
        else:
            target = _number(int, cfg["bands"]["target"], "project.bands.target", high=dim)
            structure = detect_bands(spectrum.values, target_bands=target)

    count = structure.band_count
    if "round_eps" in cfg:
        round_eps = cfg["round_eps"]
    else:
        round_eps = round_budget(cfg["budget"], count) if count > 1 else None
    if count > 1 and not EPS_FLOOR <= round_eps < 1.0:
        raise ConfigError(
            f"project: per-round budget {round_eps:.3g} outside "
            f"[{EPS_FLOOR:g}, 1); raise budget or round_eps"
        )
    # Each split's filter needs its transition window strictly inside (0, 1),
    # so an eigenvalue at 0 or 1 next to the narrowest selected gap rejects
    # the model before any filter is built.
    for j, center in enumerate(structure.centers):
        below = spectrum.values[structure.bands[j][-1]]
        above = spectrum.values[structure.bands[j + 1][0]]
        edge = below if center - structure.delta / 2.0 <= 0.0 else above
        with _config_error(f"project.model: eigenvalue {edge} is a band edge at 0 or 1 "
                           f"next to the selected gap ({below}, {above})"):
            _check_window(float(center), structure.delta)

    amp = _resolve_input(cfg["input"], spectrum, seed)
    tree = run_multiband(enc, structure, round_eps, amp)
    # Drawn before any artifact is written, so a draw too large to hold writes none.
    sampled = (sample_trajectories(tree, seed, cfg["trajectories"])
               if cfg["mode"] == "sample" else None)
    _write_bands(out / "bands.json", structure)

    if sampled is not None:
        rows = ((t, "".join(map(str, leaf.record)), leaf.claimed_band, leaf.failed)
                for t, leaf in enumerate(sampled))
        _write_csv(out / "records.csv",
                   ["trajectory", "record_bits", "claimed_band", "failed"], rows)
        weights = [np.vdot(amp, p @ amp).real for p in exact_projectors(spectrum, structure)]
        _write_csv(out / "band_weights.csv", ["band", "exact_weight"],
                   [[j, _fmt(w)] for j, w in enumerate(weights)])
        return 0

    _write_json(out / "tree.json", {
        "L": count, "rounds": tree.rounds, "round_eps": tree.round_eps, "degree": tree.degree,
        "leaves": [{"record": leaf.record, "prob": leaf.probability,
                    "claimed_band": leaf.claimed_band, "failed": leaf.failed}
                   for leaf in tree.leaves],
    })
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
    return 0 if upper <= bound else 1


def cmd_baselines(cfg: dict, out: Path, seed: int) -> int:
    with _config_error("baselines.filter: invalid filter parameters"):
        spec = FilterSpec(0.5, cfg["filter"]["delta"], cfg["filter"]["eps"])
    per_band = cfg["per_band"]
    with _config_error("baselines.per_band (M), baselines.adiabatic_min_gap (gap) and "
                       "baselines.adiabatic_eps (eps)"):
        estimate = adiabatic_time_estimate(per_band, cfg["adiabatic_min_gap"],
                                           cfg["adiabatic_eps"])
    degree = heaviside_filter([spec])[0].degree

    rows = []
    for count in cfg["Ls"]:
        dim = count * per_band
        if dim & (dim - 1):
            raise ConfigError(
                f"baselines: L={count} with per_band={per_band} is not a "
                "power-of-two dimension"
            )
        values = synthetic_band_spectrum(count, per_band, width=0.01)
        structure = detect_bands(values, target_bands=count)
        if [len(band) for band in structure.bands] != [per_band] * count:
            raise ConfigError(
                f"baselines.Ls: L={count} with per_band={per_band} spaces its clusters, "
                f"0.01 wide, {values[per_band] - values[0]:.3g} apart; band detection does "
                f"not split them into {count} bands of {per_band} eigenvalues"
            )
        rows.append([
            count,
            feedforward_query_count(count, degree),
            _fmt(random_walk_success(structure)),
            _fmt(prob_projection_depth(np.full(count, 1.0 / count))),
            _fmt(estimate),
        ])
    _write_csv(
        out / "baselines.csv",
        ["L", "feedforward_queries", "random_walk_success", "prob_projection_depth_amplify",
         "adiabatic_time_estimate"],
        rows,
    )
    return 0


def cmd_bosehubbard(cfg: dict, out: Path, seed: int) -> int:
    model = cfg["model"] if "model" in cfg else default_model()
    if "perturb_seed" in cfg:
        model = _perturbed(model, cfg["perturb_seed"], "bosehubbard")

    h0 = build_h0(model)
    h1 = build_h1(model)
    labels = band_labels(model)
    with _config_error("bosehubbard.model"):
        normalized, scale = normalize_for_qsvt(h0 + h1, cfg["margin"])
    spectrum = eigh(normalized)
    # The detected band gap is min_gap_fraction * eta in normalized units.
    min_gap = cfg["min_gap_fraction"] * model.eta * scale
    if min_gap == 0.0:
        raise ConfigError(
            f"bosehubbard.min_gap_fraction {cfg['min_gap_fraction']:g} times model.eta "
            f"{model.eta:g} underflows to a band gap of 0 in normalized units "
            f"(scale {scale:.3g})"
        )
    with _config_error(f"bosehubbard.min_gap_fraction {cfg['min_gap_fraction']:g} times "
                       f"model.eta {model.eta:g} selects gaps that cannot be told apart"):
        structure = detect_bands(spectrum.values, min_gap=min_gap)

    _write_json(out / "model.json", {key: getattr(model, key) for key in GMON_FIELDS})
    _write_json(out / "h0.json", matrix_to_json(h0))
    _write_json(out / "h1.json", matrix_to_json(h1))
    occ = fock_occupations(model)
    _write_csv(out / "labels.csv", ["index", "occupations", "band"],
               [[i, "".join(map(str, occ[i])), labels[i]]
                for i in range(model.dimension)])
    _write_csv(out / "spectrum.csv", ["index", "normalized_energy"],
               [[i, _fmt(v)] for i, v in enumerate(spectrum.values)])
    _write_bands(out / "bands.json", structure)
    return 0


def cmd_verify(numbers, out: str | None) -> int:
    from .verify import run_criteria

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
            tokens = [tok for tok in args.criteria.split(",") if tok.strip()]
            numbers = _read(CRITERIA_LIST, tokens, "verify --criteria")
            return cmd_verify(numbers or None, args.out)
        seed = _read(SEED, args.seed, "--seed")
        config = _load_config(args.config)
        out = _out_dir(args.out)
        handler, table = {
            "phases": (cmd_phases, PHASES),
            "project": (cmd_project, PROJECT),
            "baselines": (cmd_baselines, BASELINES),
            "bosehubbard": (cmd_bosehubbard, BOSEHUBBARD),
        }[args.command]
        # Every filter spec comes from the config: a command's filter keys or its model's gaps.
        with _config_error(args.command, UnresolvedWindowError):
            return handler(_read(table, config, args.command), out, seed)
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
