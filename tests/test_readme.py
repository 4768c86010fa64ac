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


def test_library_block_runs():
    src = str(Path(pmdiag.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", python_block("Library")], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
