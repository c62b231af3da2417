"""Config fuzzer: configs drawn from the CLI's own schema tables.

Each draw is an in-range config of one command: every number comes from its
kind's range in the command's table, narrowed where the run would only get
slower (system dimension n <= 8, band gaps >= 0.05) or where a rule that
depends on the model or on two keys would reject it. Such a config exits 0,
or exits 1 with `error:` and a cause, or exits 2 with one of the documented
causes that in-range keys can still produce (`IN_RANGE_EXIT_2`). The same
config with one key out of range or of the wrong type exits 2 and names that
key. No draw may raise out of `main`.
"""

import contextlib
import copy
import io
import json
import math
import os
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fqsvt import cli
from fqsvt.bosehubbard import CONTROL_LIMIT


def within(kind, lo=None, hi=None):
    """The values `kind` reads, inside [lo, hi] where given."""
    lows = [(x, True) for x in (kind.above,) if x is not None]
    lows += [(x, False) for x in (kind.low, lo) if x is not None]
    highs = [(x, True) for x in (kind.below,) if x is not None]
    highs += [(x, False) for x in (kind.high, hi) if x is not None]
    low, open_low = max(lows, key=lambda b: (b[0], b[1]), default=(None, False))
    high, open_high = min(highs, key=lambda b: (b[0], not b[1]), default=(None, False))
    if kind.type is int:
        return st.integers(None if low is None else math.floor(low) + open_low,
                           None if high is None else math.ceil(high) - open_high)
    return st.floats(low, high, exclude_min=open_low, exclude_max=open_high,
                     allow_nan=False, allow_infinity=False)


def key(table, *path):
    """The kind of `path` in `table`, looking through variants by name (`model:gmon`)."""
    kind = table
    for step in path:
        name, _, variant = step.partition(":")
        kind = kind.fields[name][0]
        if variant:
            kind = kind.tables[variant]
    return kind


def optional(draw, doc, name, strategy):
    if draw(st.booleans()):
        doc[name] = draw(strategy)


@st.composite
def gmon_specs(draw, table, dimensions):
    """A gmon spec with (nmax + 1)^modes in `dimensions`, its controls in range
    unless `check_ranges` is false.

    eta and unchecked controls stay within 1e300 in magnitude, so the model's
    Hamiltonian stays far from overflow, which `GmonModel` rejects."""
    modes, nmax = draw(st.sampled_from([(m, k) for m in (1, 2, 3) for k in (1, 2, 3, 7)
                                        if (k + 1) ** m in dimensions]))
    check_ranges = draw(st.booleans())
    number = within(cli.NUMBER, -1e300, 1e300)
    control = st.floats(-CONTROL_LIMIT, CONTROL_LIMIT) if check_ranges else number
    phase = st.floats(0.0, 2 * math.pi) if check_ranges else number
    pairs = [(l, j) for l in range(modes) for j in range(modes) if l != j]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=2)) if pairs else []
    spec = {"modes": modes, "nmax": nmax, "eta": draw(within(key(table, "eta"), -1e300, 1e300)),
            "edges": [[l, j, draw(control)] for l, j in edges],
            "delta": draw(st.lists(control, min_size=modes, max_size=modes)),
            "f": draw(st.lists(control, min_size=modes, max_size=modes)),
            "phi": draw(st.lists(phase, min_size=modes, max_size=modes))}
    if not check_ranges or draw(st.booleans()):
        spec["check_ranges"] = check_ranges
    return spec


@st.composite
def phases_configs(draw):
    table = cli.PHASES
    delta = draw(within(key(table, "delta"), 0.05, 0.9))
    doc = {"mu": draw(within(key(table, "mu"), delta / 2 + 0.01, 1 - delta / 2 - 0.01)),
           "delta": delta, "eps": draw(within(key(table, "eps"), 1e-4, 0.5))}
    return doc


@st.composite
def project_configs(draw):
    table = cli.PROJECT
    kind = draw(st.sampled_from(["synthetic", "inline", "gmon"]))
    if kind == "synthetic":
        bands = draw(st.sampled_from([1, 2, 4, 8]))
        model = {"type": kind, "bands": bands}
        optional(draw, model, "per_band", st.sampled_from([p for p in (1, 2, 4, 8)
                                                           if bands * p <= 8]))
        optional(draw, model, "width", within(key(table, "model:synthetic", "width"), 0.0, 0.02))
        optional(draw, model, "basis_seed", within(key(table, "model:synthetic", "basis_seed")))
        n = bands * model.get("per_band", 1)
        band_doc = {"target": draw(within(key(table, "bands", "target"), None, bands))}
    else:
        if kind == "inline":  # a diagonal matrix: the bands need no basis
            n = draw(st.sampled_from([1, 2, 4, 8]))
            # No eigenvalue within 1e-9 of 0 or 1: one next to a selected gap
            # is a band edge, which `project` rejects with exit 2.
            values = draw(st.lists(st.floats(1e-9, 1.0 - 1e-9), min_size=n, max_size=n))
            data = [[values[i] if i == j else 0.0, 0.0] for i in range(n) for j in range(n)]
            model = {"type": kind, "matrix": {"rows": n, "cols": n, "data": data}}
        else:
            spec = draw(gmon_specs(key(table, "model:gmon", "spec"), (2, 4, 8)))
            model = {"type": kind, "spec": spec}
            # A margin of at least 1e-9 keeps the normalized spectrum off 0 and 1.
            optional(draw, model, "margin", within(key(table, "model:gmon", "margin"), 1e-9))
            optional(draw, model, "perturb_seed", within(key(table, "model:gmon", "perturb_seed")))
            n = (spec["nmax"] + 1) ** spec["modes"]
        # Every gap between detected bands is at least min_gap.
        band_doc = {"min_gap": draw(within(key(table, "bands", "min_gap"), 0.05, 2.0))}
    doc = {"model": model, "bands": band_doc}
    if draw(st.booleans()):
        doc["round_eps"] = draw(within(key(table, "round_eps"), 1e-3, 0.5))
    else:  # budget / (4 L log2 L) stays in [1e-5, 0.5) for L <= 16
        doc["budget"] = draw(within(key(table, "budget"), 2e-3, 0.5))
    mode = draw(st.sampled_from(["enumerate", "sample"]))
    if mode == "sample" or draw(st.booleans()):
        doc["mode"] = mode
    if mode == "sample":
        optional(draw, doc, "trajectories", within(key(table, "trajectories"), None, 200))
    optional(draw, doc, "haar_samples", within(key(table, "haar_samples")))
    inputs = {
        "uniform-eigen": st.just({}),
        "haar": st.fixed_dictionaries({}, optional={
            "seed": within(key(table, "input:haar", "seed"))}),
        "eigenstate": st.fixed_dictionaries({"index": st.integers(0, n - 1)}),
        "amplitudes": st.fixed_dictionaries({"values": st.lists(
            st.lists(within(cli.NUMBER), min_size=2, max_size=2), min_size=n, max_size=n
        ).filter(lambda pairs: any(any(pair) for pair in pairs))}),
    }
    kind = draw(st.sampled_from(sorted(inputs)))
    if kind != "uniform-eigen" or draw(st.booleans()):
        doc["input"] = {"type": kind, **draw(inputs[kind])}
    return doc


@st.composite
def baselines_configs(draw):
    table = cli.BASELINES
    per_band = draw(st.sampled_from([1, 2, 4]))
    doc = {"Ls": draw(st.lists(st.sampled_from([c for c in (1, 2, 4, 8) if c * per_band <= 8]),
                               min_size=1, max_size=3))}
    if per_band != 2 or draw(st.booleans()):
        doc["per_band"] = per_band
    optional(draw, doc, "filter", st.fixed_dictionaries({}, optional={
        "delta": within(key(table, "filter", "delta"), 0.05, 0.9),
        "eps": within(key(table, "filter", "eps"), 1e-4, 0.5)}))
    for name in ("adiabatic_min_gap", "adiabatic_eps"):
        optional(draw, doc, name, within(key(table, name)))
    return doc


@st.composite
def bosehubbard_configs(draw):
    table = cli.BOSEHUBBARD
    doc = {}
    optional(draw, doc, "model", gmon_specs(key(table, "model"), range(2, 9)))
    for name in ("margin", "min_gap_fraction", "perturb_seed"):
        optional(draw, doc, name, within(key(table, name)))
    return doc


# Causes that the config alone decides though every key is in range: an
# underflowed gmon gap or gmon gaps narrower than float resolution, a gmon
# spectrum too narrow to normalize, a transition window that nearly fills
# (0, 1), an adiabatic time estimate that overflows a float, and seeded
# control noise that moves a control outside its range.
IN_RANGE_EXIT_2 = re.compile(
    r"config error: (bosehubbard\.min_gap_fraction \S+ times model\.eta \S+ "
    r"(underflows|selects gaps that cannot be told apart)"
    r"|(bosehubbard|project)\.model: (spectrum is a single point|spectral span \S+ is too narrow)"
    r"|(phases|project|baselines): transition window \[\S+, \S+\] nearly fills \(0, 1\)"
    r"|baselines\.per_band \(M\), baselines\.adiabatic_min_gap \(gap\) and "
    r"baselines\.adiabatic_eps \(eps\): adiabatic time estimate \S+ / \(eps gap\^3\) overflows"
    r"|(bosehubbard|project\.model)\.perturb_seed \d+ moves the model out of range: "
    r"(detuning|drive amplitude|coupling) \S+ outside the control range)"
)


# Draws per command: 25 in Tier-1; CI's fuzz step sets FQSVT_FUZZ_EXAMPLES=200.
EXAMPLES = int(os.environ.get("FQSVT_FUZZ_EXAMPLES", "25"))

CONFIGS = {"phases": phases_configs(), "project": project_configs(),
           "baselines": baselines_configs(), "bosehubbard": bosehubbard_configs()}


def keys_of(kind, doc, path=()):
    """(path, kind) of every key that `doc`, read by the table or variant `kind`, has
    or could have."""
    if isinstance(kind, cli.Variant):
        kind = kind.tables[doc.get("type", kind.default)]
    for name, (sub, _) in kind.fields.items():
        yield path + (name,), sub
        if name in doc and isinstance(sub, (cli.Table, cli.Variant)):
            yield from keys_of(sub, doc[name], path + (name,))


def bad_values(kind) -> list:
    """Values of the wrong type or out of range for `kind`."""
    if isinstance(kind, cli.Num):
        bad = ["x", True, [1], {}, math.nan, math.inf, -math.inf]
        bad += [0.5, 10**400] if kind.type is int else []
        bad += [x for x in (kind.above, kind.below) if x is not None]
        bad += [kind.low - 1] if kind.low is not None else []
        bad += [kind.high + 1] if kind.high is not None else []
        return bad
    if isinstance(kind, cli.Choice):
        return ["bogus", 1, None, [], {}]
    if isinstance(kind, cli.ListOf):
        bad = [1.0, "x", {}, [None]] + ([[]] if kind.nonempty else [])
        if type(kind.item) is tuple:
            return bad + [[[0.0] * (len(kind.item) + 1)], [["x"] * len(kind.item)]]
        return bad + [[value] for value in bad_values(kind.item)]
    if isinstance(kind, cli.Variant):
        return [[1], "x", {"type": "bogus"}, {"type": [1]}]
    required = [name for name, (_, default) in kind.fields.items() if default is cli.REQUIRED]
    return [[1], "x", 1, {"bogus": 1}] + ([{}] if required else [])


def run(command, doc, seed):
    """main's exit code, its stderr, the text of every artifact, and the warnings
    raised, for `doc`."""
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        config, out = Path(tmp) / "config.json", Path(tmp) / "out"
        config.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([command, "--config", str(config), "--seed", str(seed),
                             "--out", str(out)])
        artifacts = {path.name: path.read_text() for path in out.glob("*")}
    return code, err.getvalue(), artifacts, [str(w.message) for w in caught]


@pytest.mark.parametrize("command", sorted(CONFIGS))
@settings(max_examples=EXAMPLES, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(data=st.data())
def test_configs_from_the_schema_exit_by_contract(command, data):
    doc = data.draw(CONFIGS[command], label="config")
    seed = data.draw(within(cli.SEED), label="seed")
    code, err, artifacts, warned = run(command, doc, seed)
    if code == 2:
        assert IN_RANGE_EXIT_2.match(err), err
    else:
        assert code in (0, 1), err
        assert (err == "") if code == 0 else (err.startswith("error: ") and len(err) > 8), err
    if code == 0:  # a successful run computes and writes finite numbers only
        assert not warned
        for name, text in artifacts.items():
            assert not re.search(r"\b(inf|nan)\b", text, re.IGNORECASE), (name, text)

    kinds = dict(keys_of(getattr(cli, command.upper()), doc))
    path = data.draw(st.sampled_from(sorted(kinds)), label="key")
    bad = data.draw(st.sampled_from(bad_values(kinds[path])), label="bad value")
    mutated = copy.deepcopy(doc)
    target = mutated
    for name in path[:-1]:
        target = target[name]
    target[path[-1]] = bad
    code, err, _, _ = run(command, mutated, seed)
    name = ".".join((command,) + path)
    assert code == 2 and err.startswith("config error: ") and name in err, (mutated, err)
