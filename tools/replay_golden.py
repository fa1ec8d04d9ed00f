"""Replay the numpy-free golden command lines with one Python interpreter.

    python3 tools/replay_golden.py PYTHON

Runs every case of ``tests/cli_golden.json`` except ``simulate`` (the one
command that needs numpy) as ``PYTHON -m lupi.cli ...`` against this
checkout's ``src``, and compares each exit status and stdout with the
recorded bytes. The placeholder profiles are written first: ``{ASYM3}`` and
``{ASYM4}`` from the documents below (the same as in ``tests/test_cli.py``),
``{PAPER40}`` and ``{EXACT40}`` by ``PYTHON -m lupi.cli solve --n 40
--save-profile``. Prints one line per differing case and a summary line,
and exits 1 when any case differs. Standard library only, so it runs on an
interpreter without numpy or pytest.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ASYM3 = {"n": 3, "strategies": [[0, 0, 1], [0.5, 0.5, 0], [0.5, 0.5, 0]],
         "labels": ["Alice", "Bob", "Charles"]}
ASYM4 = {"n": 4, "strategies": [[0, 0, 1, 0], [0.5, 0.5, 0, 0], [0.5, 0.5, 0, 0], [0.5, 0.5, 0, 0]]}


def main(argv):
    if len(argv) != 1:
        print("usage: replay_golden.py PYTHON", file=sys.stderr)
        return 1
    python = argv[0]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")

    def lupi(*args):
        return subprocess.run([python, "-m", "lupi.cli", *args], capture_output=True, text=True, env=env)

    version = subprocess.run([python, "-c", "import platform; print(platform.python_version())"],
                             capture_output=True, text=True, check=True).stdout.strip()
    cases = [case for case in json.loads((ROOT / "tests" / "cli_golden.json").read_text())
             if case["argv"][0] != "simulate"]
    differ = 0
    with tempfile.TemporaryDirectory() as root:
        paths = {}
        for name, doc in (("ASYM3", ASYM3), ("ASYM4", ASYM4)):
            paths[name] = os.path.join(root, f"{name.lower()}.json")
            Path(paths[name]).write_text(json.dumps(doc))
        for model in ("paper", "exact"):
            paths[f"{model.upper()}40"] = path = os.path.join(root, f"{model}40.json")
            proc = lupi("solve", "--n", "40", "--model", model, "--save-profile", path)
            if proc.returncode != 0:
                print(f"cannot write the {model} n = 40 profile: {proc.stderr.strip()}", file=sys.stderr)
                return 1
        for case in cases:
            proc = lupi(*(arg.format(**paths) for arg in case["argv"]))
            if (proc.returncode, proc.stdout) != (case["exit"], case["stdout"]):
                differ += 1
                print(f"differs: {' '.join(case['argv'])} (exit {proc.returncode}, recorded {case['exit']})")
    print(f"Python {version}: {differ} of {len(cases)} numpy-free golden cases differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
