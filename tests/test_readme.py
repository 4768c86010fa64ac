import os
import re
import subprocess
import sys
from pathlib import Path

import pmdiag

README = Path(__file__).resolve().parents[1] / "README.md"


def python_block(heading: str) -> str:
    """The first python code block under the README's `## heading`."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def run_block(heading: str) -> subprocess.CompletedProcess:
    """Run the README's python block under `## heading` against the imported package."""
    src = str(Path(pmdiag.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-c", python_block(heading)], env=env, capture_output=True, text=True, timeout=300
    )


def test_library_block_runs():
    done = run_block("Library")
    assert done.returncode == 0, done.stderr


def test_scripting_block_runs():
    # the default config's dataset, generated and preprocessed on every CPU without pmdiag.cli
    done = run_block("Scripting")
    assert done.returncode == 0, done.stderr
