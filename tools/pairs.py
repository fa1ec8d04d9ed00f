"""Time one command at two git revisions, in alternating pairs.

    python3 tools/pairs.py PARENT CHANGE [--pairs N] [--json] -- ARGV...
    python3 tools/pairs.py PARENT CHANGE [--pairs N] [--json] --in-process -- [SETUP...] EXPR

Run it inside a git checkout. Each revision's committed tree is written by
``git archive`` into its own temporary directory, so it holds no
``__pycache__``, and no run writes one. Pair k runs both sides one after the
other, the parent first when k is even (counting from 0) and the change
first when k is odd. Each run is a fresh process whose working directory is
the side's tree, with ``PYTHONPATH=<tree>/src``, ``PYTHONDONTWRITEBYTECODE=1``
and otherwise this environment; its output is discarded, and every run of a
side must exit with the status of that side's first run (0 with
``--in-process``), so a command whose status differs between the revisions
can be timed too. A run still going after ``RUN_LIMIT_S`` seconds is
killed, with every process it started, and the tool names the side and the
pair and exits 1. By default a run is ARGV and its time is the process's
wall time (``perf_counter`` around it). With ``--in-process`` a run is this
interpreter executing each SETUP statement, evaluating EXPR once to warm up
and once more timed, with stdout sent to a string; the time is that second
evaluation's.

Prints each side's median and inclusive quartiles in seconds, with its exit
status where that is not 0, the number of pairs the change won (it took
less time than the parent; a tie counts for neither side), and whether a
gain claim would stand: the change won at least 9 in 10 pairs
(``nine_in_ten_won``), and its median lies below the parent's by more than
the parent's quartile spread (``median_gain_past_spread``). ``--json``
prints the block instead, in the shape of a ``BENCH_*.json`` record's
``pairs``: ``{"wall_s" or "call_s": {"parent_median", "parent_q1_q3",
"change_median", "change_q1_q3", "change_better_pairs", "pairs",
"nine_in_ten_won", "median_gain_past_spread"}}``.
Standard library only.
"""

import argparse
import io
import json
import os
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")
# seconds one run may take before it is killed
RUN_LIMIT_S = 600

_IN_PROCESS = """
import contextlib, io, sys, time
*setup, expr = sys.argv[1:]
for statement in setup:
    exec(statement)
with contextlib.redirect_stdout(io.StringIO()):
    eval(expr)
    start = time.perf_counter()
    eval(expr)
    seconds = time.perf_counter() - start
print(seconds)
"""


def materialise(revision, tree):
    """Write ``revision``'s committed files into the directory ``tree``; return its full hash."""
    def git(*args):
        return subprocess.run(["git", *args], capture_output=True, check=True).stdout

    full = git("rev-parse", "--verify", f"{revision}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", full))) as archive:
        archive.extractall(tree, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return full


def run_once(tree, argv, in_process):
    """The finished process of one run of ``argv`` in ``tree``, and the run's seconds.

    The run is a process group of its own, killed whole, and TimeoutExpired
    raised, when it takes more than ``RUN_LIMIT_S`` seconds.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(tree) / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-c", _IN_PROCESS, *argv] if in_process else argv
    start = time.perf_counter()
    with subprocess.Popen(command, cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as child:
        try:
            stdout, stderr = child.communicate(timeout=RUN_LIMIT_S)
        finally:
            if child.returncode is None:
                os.killpg(child.pid, signal.SIGKILL)
    seconds = time.perf_counter() - start
    proc = subprocess.CompletedProcess(command, child.returncode, stdout, stderr)
    return proc, float(stdout.split()[-1]) if in_process and not proc.returncode else seconds


def pairs_entry(times):
    """The BENCH ``pairs`` entry of ``times``, a list of seconds per side, in pair order."""
    entry = {}
    for side in SIDES:
        q1, median, q3 = statistics.quantiles(times[side], n=4, method="inclusive")
        entry[f"{side}_median"], entry[f"{side}_q1_q3"] = median, [q1, q3]
    entry["change_better_pairs"] = sum(c < p for p, c in zip(times["parent"], times["change"]))
    entry["pairs"] = len(times["parent"])
    entry["nine_in_ten_won"] = 10 * entry["change_better_pairs"] >= 9 * entry["pairs"]
    q1, q3 = entry["parent_q1_q3"]
    entry["median_gain_past_spread"] = entry["parent_median"] - entry["change_median"] > q3 - q1
    return entry


def main(argv):
    cut = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(
        prog="pairs.py", usage="%(prog)s PARENT CHANGE [--pairs N] [--json] [--in-process] -- ARGV...")
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--in-process", action="store_true")
    args, command = parser.parse_args(argv[:cut]), argv[cut + 1:]
    if not command or args.pairs < 2:
        parser.error("give ARGV after -- and at least 2 pairs")
    times = {side: [] for side in SIDES}
    expected = dict.fromkeys(SIDES, 0) if args.in_process else {}
    with tempfile.TemporaryDirectory() as root:
        trees = {side: os.path.join(root, side) for side in SIDES}
        revisions = {side: materialise(getattr(args, side), trees[side]) for side in SIDES}
        for k in range(args.pairs):
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                try:
                    proc, seconds = run_once(trees[side], command, args.in_process)
                except subprocess.TimeoutExpired:
                    print(f"pairs.py: the {side} run of pair {k} ran past {RUN_LIMIT_S} s and was killed",
                          file=sys.stderr)
                    return 1
                if proc.returncode != expected.setdefault(side, proc.returncode):
                    print(f"pairs.py: the {side} run of pair {k} exited {proc.returncode}, not {expected[side]}",
                          proc.stderr, sep="\n", end="", file=sys.stderr)
                    return 1
                times[side].append(seconds)
    entry = pairs_entry(times)
    if args.json:
        print(json.dumps({"call_s" if args.in_process else "wall_s": entry}, indent=2))
        return 0
    for side in SIDES:
        q1, q3 = entry[f"{side}_q1_q3"]
        status = f", exit status {expected[side]}" if expected[side] else ""
        print(f"{side} {revisions[side][:7]}: median {entry[f'{side}_median']:.4f} s,"
              f" quartiles {q1:.4f} .. {q3:.4f} s{status}")
    print(f"the change took less time in {entry['change_better_pairs']} of {args.pairs} pairs")
    q1, q3 = entry["parent_q1_q3"]
    verdict = "stand" if entry["nine_in_ten_won"] and entry["median_gain_past_spread"] else "not stand"
    print(f"a gain claim would {verdict}: 9 in 10 pairs won: {'yes' if entry['nine_in_ten_won'] else 'no'};"
          f" median gain {entry['parent_median'] - entry['change_median']:.4f} s against the parent's quartile"
          f" spread {q3 - q1:.4f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
