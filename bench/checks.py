"""Output checks that use numpy only, never `fqsvt.linalg`.

Each check takes the CLI's output directory and the benchmark's own inputs
and returns (problems, values): a list of human-readable failures (empty when
the output is correct) and the quantities it measured on the way.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from inputs import ProjectInputs

COMPLETENESS_TOL = 1e-6
WEIGHT_TOL = 1e-8
SAMPLING_SIGMAS = 5.0


def paper_bound(band_count: int, round_eps: float) -> float:
    """The paper's channel-distance bound 4 L log2(L) eps."""
    return 4.0 * band_count * math.log2(band_count) * round_eps


def failure_budget(inputs: ProjectInputs, round_eps: float) -> float:
    """Per-round failure budget summed over the rounds: 2 ceil(log2 L) eps."""
    return 2.0 * inputs.rounds * round_eps


def _matrix(doc: dict) -> np.ndarray:
    flat = np.array([complex(re, im) for re, im in doc["data"]])
    return flat.reshape(int(doc["rows"]), int(doc["cols"]))


def _read_table(path: Path) -> dict:
    with path.open(newline="", encoding="utf-8") as fh:
        return {row["quantity"]: row["value"] for row in csv.DictReader(fh)}


def choi_distance(operators: list[np.ndarray], projectors: list[np.ndarray]) -> float:
    """||J_ff - J_deph||_1 / n between the system channel and band dephasing.

    Register operators of shape (m*n, n) split into m Kraus blocks of the
    system channel (ancillas traced out). J = sum_K |K>><<K| with
    |K>> = sum_i |i> (x) K|i>.
    """
    n = projectors[0].shape[0]
    kraus = [block for op in operators for block in op.reshape(-1, n, n)]
    v_ff = np.array([k.T.reshape(-1) for k in kraus]).T
    v_deph = np.array([p.T.reshape(-1) for p in projectors]).T
    delta = v_ff @ v_ff.conj().T - v_deph @ v_deph.conj().T
    return float(np.sum(np.abs(np.linalg.eigvalsh(delta)))) / n


def check_enumerate(out: Path, inputs: ProjectInputs) -> tuple[list, dict]:
    problems: list[str] = []
    try:
        table = _read_table(out / "distance.csv")
        kraus_doc = json.loads((out / "kraus.json").read_text(encoding="utf-8"))
        degree, queries = int(table["degree"]), int(table["queries"])
        round_eps = float(table["round_eps"])
        entries = kraus_doc["operators"]
        operators = [_matrix(e["matrix"]) for e in entries]
        claimed = [int(e["claimed_band"]) for e in entries]
        claimed_residual = float(kraus_doc["completeness_residual"])
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return [f"unreadable enumerate artifacts: {exc!r}"], {}

    count = inputs.band_count
    n = len(inputs.values)
    projectors = inputs.projectors()
    values = {"degree": degree, "queries": queries}
    if round_eps != inputs.spec["round_eps"]:
        problems.append(f"round_eps {round_eps} differs from the input {inputs.spec['round_eps']}")
    expected_queries = 2 * inputs.rounds * degree
    if queries != expected_queries:
        problems.append(f"queries {queries} != 2 ceil(log2 L) degree = {expected_queries}")
    if any(op.ndim != 2 or op.shape[1] != n or op.shape[0] % n for op in operators):
        return problems + ["Kraus operators have the wrong shape"], values

    residual = float(np.max(np.abs(sum(op.conj().T @ op for op in operators) - np.eye(n))))
    values["completeness_residual"] = residual
    if residual > COMPLETENESS_TOL or claimed_residual > COMPLETENESS_TOL:
        problems.append(f"completeness residual {residual:.3e} (claimed "
                        f"{claimed_residual:.3e}) above {COMPLETENESS_TOL}")

    bound = paper_bound(count, round_eps)
    distance = choi_distance(operators, projectors)
    values["choi_distance"] = distance
    if not distance <= bound:
        problems.append(f"choi_distance {distance:.3e} above 4 L log2 L eps = {bound:.3e}")

    # The claimed labels carry the measurement statistics: the POVM element
    # of each claimed band must be close to its exact projector.
    povm = [np.zeros((n, n), dtype=complex) for _ in range(count)]
    for band, op in zip(claimed, operators):
        if not 0 <= band < count:
            return problems + [f"claimed band {band} outside 0..{count - 1}"], values
        povm[band] += op.conj().T @ op
    deviation = max(float(np.linalg.norm(e - p, 2)) for e, p in zip(povm, projectors))
    values["povm_deviation"] = deviation
    if deviation > failure_budget(inputs, round_eps):
        problems.append(f"claimed-band POVM deviates from the band projectors by "
                        f"{deviation:.3e} > {failure_budget(inputs, round_eps):.3e}")
    return problems, values


def check_sample(out: Path, inputs: ProjectInputs) -> tuple[list, dict]:
    count = inputs.band_count
    trajectories = inputs.spec["trajectories"]
    try:
        with (out / "records.csv").open(newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        indices = [int(r["trajectory"]) for r in rows]
        claimed = np.array([int(r["claimed_band"]) for r in rows])
        with (out / "band_weights.csv").open(newline="", encoding="utf-8") as fh:
            reported = {int(r["band"]): float(r["exact_weight"]) for r in csv.DictReader(fh)}
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return [f"unreadable sample artifacts: {exc!r}"], {}

    problems: list[str] = []
    values = {"trajectories": len(rows)}
    if indices != list(range(trajectories)):
        problems.append(f"{len(rows)} records for {trajectories} trajectories")
        return problems, values
    if np.any((claimed < 0) | (claimed >= count)):
        return problems + [f"claimed band outside 0..{count - 1}"], values

    weights = inputs.band_weights()
    if sorted(reported) != list(range(count)) or any(
        abs(reported[j] - weights[j]) > WEIGHT_TOL for j in range(count)
    ):
        problems.append(f"band_weights.csv {reported} differs from the exact weights "
                        f"{weights.tolist()}")
    freq = np.bincount(claimed, minlength=count) / trajectories
    sigma = np.sqrt(weights * (1.0 - weights) / trajectories)
    allowed = SAMPLING_SIGMAS * sigma + failure_budget(inputs, inputs.spec["round_eps"])
    values["max_frequency_error"] = float(np.max(np.abs(freq - weights)))
    for j in range(count):
        if abs(freq[j] - weights[j]) > allowed[j]:
            problems.append(f"band {j}: claimed frequency {freq[j]:.5f} vs exact weight "
                            f"{weights[j]:.5f} (allowed {allowed[j]:.5f})")
    return problems, values


def check_verify(stdout: str, criteria) -> tuple[list, dict]:
    problems: list[str] = []
    seen = {}
    for line in stdout.splitlines():
        fields = line.split()
        if len(fields) >= 2 and fields[0] in ("[PASS]", "[FAIL]"):
            seen[fields[1]] = fields[0]
            if fields[0] != "[PASS]":
                problems.append(f"criterion line does not read PASS: {line.strip()}")
    for number in criteria:
        if str(number) not in seen:
            problems.append(f"no result line for criterion {number}")
    if len(seen) != len(criteria):
        problems.append(f"{len(seen)} result lines for {len(criteria)} criteria")
    return problems, {"criteria_passed": sum(v == "[PASS]" for v in seen.values())}
