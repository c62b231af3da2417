import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fqsvt
from fqsvt import cli
from fqsvt.verify import CRITERIA

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    # The README's python example must keep working as the public API shrinks.
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert len(blocks) == 1
    env = {**os.environ, "PYTHONPATH": str(Path(fqsvt.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", blocks[0]], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    run, counts = done.stdout.splitlines()
    assert len(run.split()) == 3
    # One count per band for the 1000 sampled trajectories.
    assert sum(map(int, counts.strip("[]").split())) == 1000


def show(x) -> str:
    return "2^64" if x == 2**64 else f"{x:g}"


def describe(kind) -> str:
    """The README's range text for a schema kind."""
    if isinstance(kind, cli.Num):
        noun = "integer" if kind.type is int else "number"
        lower = (f"[{show(kind.low)}" if kind.low is not None
                 else f"({show(kind.above)}" if kind.above is not None else None)
        if kind.high is not None:  # an inclusive integer bound h reads as the exclusive h + 1
            upper = f"{show(kind.high + 1)})" if kind.type is int else f"{show(kind.high)}]"
        else:
            upper = None if kind.below is None else f"{show(kind.below)})"
        if lower and upper:
            return f"{noun} in {lower}, {upper}"
        assert upper is None, "no kind has only an upper bound"
        if lower:
            return f"{noun} {'>=' if kind.low is not None else '>'} {lower[1:]}"
        return noun
    if isinstance(kind, cli.Choice):
        return kind.what
    if isinstance(kind, cli.ListOf):
        text = f"{'nonempty ' * kind.nonempty}list of {kind.what}"
        if kind.options:
            return f"{text} from {min(kind.options)} to {max(kind.options)}"
        bounded = isinstance(kind.item, cli.Num) and any(b is not None for b in kind.item[1:])
        return f"{text}, each {describe(kind.item)}" if bounded else text
    return "object"


def default_text(default) -> str:
    if default is cli.REQUIRED or default is cli.OPTIONAL:
        return "required" if default is cli.REQUIRED else "optional"
    return json.dumps(default)


def schema_rows(kind, path="", variant=""):
    """(dotted key, range, default) rows of a table kind, nested keys after their parent."""
    if isinstance(kind, cli.Variant):
        *names, last = kind.tables
        yield (f"{path}.type", f"{', '.join(names)} or {last}",
               default_text(cli.REQUIRED if kind.default is None else kind.default))
        for name, table in kind.tables.items():
            yield from schema_rows(table, path, f"{name}: ")
        return
    for key, (sub, default) in kind.fields.items():
        dotted = f"{path}.{key}".lstrip(".")
        yield dotted, variant + describe(sub), default_text(default)
        if isinstance(sub, (cli.Table, cli.Variant)):
            yield from schema_rows(sub, dotted)


def readme_rows(section: str) -> list:
    """The key-table rows of README's `### section` (or `## CLI`) section."""
    text = README.read_text(encoding="utf-8")
    body = re.split(rf"^##+ {re.escape(section)}\n", text, flags=re.M)[1]
    body = re.split(r"^##+ ", body, flags=re.M)[0]
    return [tuple(cell.strip().strip("`") for cell in line.strip("|").split("|"))
            for line in body.splitlines() if line.startswith("| `")]


@pytest.mark.parametrize("command", ["phases", "project", "baselines", "bosehubbard"])
def test_readme_states_each_key_with_its_range_and_default(command):
    table = getattr(cli, command.upper())
    assert readme_rows(command) == list(schema_rows(table))


def test_readme_states_the_option_ranges():
    assert readme_rows("CLI") == [("--seed", describe(cli.SEED), "0"),
                                  ("--criteria", describe(cli.CRITERIA_LIST), "all")]
    assert set(cli.CRITERIA_LIST.options) == set(CRITERIA)


@pytest.mark.parametrize("command", ["phases", "project", "baselines", "bosehubbard"])
def test_readme_config_example_runs(command, tmp_path):
    text = README.read_text(encoding="utf-8")
    section = re.split(r"^##+ ", text.split(f"\n### {command}\n")[1], flags=re.M)[0]
    (example,) = re.findall(r"```json\n(.*?)```", section, re.DOTALL)
    config = tmp_path / "config.json"
    config.write_text(example, encoding="utf-8")
    assert cli.main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 0
