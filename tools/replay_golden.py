"""Replay the numpy-free golden command lines with each of some Python interpreters.

    python3 tools/replay_golden.py PYTHON [PYTHON ...]

For each interpreter in turn, runs every case of ``tests/cli_golden.json``
except ``simulate`` (the one command that needs numpy) as ``PYTHON -m
lupi.cli ...`` against this checkout's ``src``, with ``PYTHONUNBUFFERED``
empty so that stdout is block-buffered, and compares each exit status and
stdout with the recorded bytes. The placeholder profiles are written
first: ``{ASYM3}`` and ``{ASYM4}`` from the documents below (which
``tests/test_cli.py`` reads too), ``{PAPER40}`` and ``{EXACT40}`` by
``PYTHON -m lupi.cli solve --n 40 --save-profile``. Prints one line per
differing case and one summary line per interpreter, and exits 1 when any
case differs on any of them. An interpreter that cannot run gets one line
naming it and the reason, its cases count as differing, and the next one
is replayed. Standard library only, so it runs on an
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


def replay(python, cases):
    """Number of ``cases`` whose exit status or stdout under ``python`` differs from the record."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1", PYTHONUNBUFFERED="")

    def lupi(*args):
        return subprocess.run([python, "-m", "lupi.cli", *args], capture_output=True, text=True, env=env)

    try:
        proc = subprocess.run([python, "-c", "import platform; print(platform.python_version())"],
                              capture_output=True, text=True)
        reason = f"exit {proc.returncode}" if proc.returncode else ""
    except OSError as exc:
        reason = exc.strerror or str(exc)
    if reason:
        print(f"cannot run {python} ({reason}): its {len(cases)} cases count as differing")
        return len(cases)
    version = proc.stdout.strip()
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
                print(f"Python {version}: cannot write the {model} n = 40 profile: {proc.stderr.strip()}")
                return len(cases)
        for case in cases:
            proc = lupi(*(arg.format(**paths) for arg in case["argv"]))
            if (proc.returncode, proc.stdout) != (case["exit"], case["stdout"]):
                differ += 1
                print(f"differs: {' '.join(case['argv'])} (exit {proc.returncode}, recorded {case['exit']})")
    print(f"Python {version}: {differ} of {len(cases)} numpy-free golden cases differ")
    return differ


def main(argv):
    if not argv:
        print("usage: replay_golden.py PYTHON [PYTHON ...]", file=sys.stderr)
        return 1
    cases = [case for case in json.loads((ROOT / "tests" / "cli_golden.json").read_text())
             if case["argv"][0] != "simulate"]
    differ = [replay(python, cases) for python in argv]
    return 1 if any(differ) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
