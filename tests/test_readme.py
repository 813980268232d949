"""The Python quick start and the CLI examples in README.md run as written."""

import json
import os
import re
import shlex

from coverpack.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _readme() -> str:
    with open(os.path.join(ROOT, "README.md")) as fh:
        return fh.read()


def test_readme_python_quick_start_runs(capsys):
    block = re.search(r"^```python\n(.*?)^```", _readme(), re.M | re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    # the printed values are the ones the block's comments promise
    assert out == ["witness_at 2 (0, 1, 1, 1)", "False", "True", "3 2"]


def test_readme_cli_examples_run(capsys):
    section = _readme().split("\n## CLI\n", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```", section, re.M | re.S).group(1)
    reports = {}
    for line in block.splitlines():
        argv = shlex.split(line.split("#", 1)[0])
        assert argv[0] == "coverpack", line
        assert main(argv[1:]) == 0, line
        reports[" ".join(argv[1:])] = json.loads(capsys.readouterr().out)["result"]
    assert len(reports) == 8
    # the values the block's comments promise
    simis = reports["simis --graph star:4 --t 3 --smax 3"]
    assert (simis["verdict"], simis["s"], simis["witness"]) == ("witness_at", 2, "x2*x3*x4")
    konig = reports["konig --graph cycle:9 --t 3"]
    assert konig["konig"] and len(konig["certificate"]) == 3
    assert reports["packing --graph cycle:12 --t 3"]["packed"] is False
    lp = reports["lp --graph cycle:7 --t 3"]
    assert (lp["tau"], lp["nu"]) == (3, 2)
