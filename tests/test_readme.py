"""The Python quick start in README.md runs as written."""

import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_readme_python_quick_start_runs(capsys):
    with open(os.path.join(ROOT, "README.md")) as fh:
        block = re.search(r"^```python\n(.*?)^```", fh.read(), re.M | re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    # the printed values are the ones the block's comments promise
    assert out == ["witness_at 2 (0, 1, 1, 1)", "False", "True", "3 2"]
