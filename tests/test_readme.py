import os
import re
import subprocess
import sys
from pathlib import Path

import fqsvt

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    # The README's python example must keep working as the public API shrinks.
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert len(blocks) == 1
    env = {**os.environ, "PYTHONPATH": str(Path(fqsvt.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", blocks[0]], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.split()) == 3
