#!/usr/bin/env python3
"""lupi benchmark: closed-loop CLI workloads, whole-process metrics, layer trace.

    python3 perfbench/run.py --workload solve-sweep --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all

Run it from the root of a source checkout; it puts ``src`` on the command
processes' PYTHONPATH and needs nothing installed. One client runs the
workload's command list as a closed loop: one fresh ``python -m lupi.cli``
process per command, the next one started when the last has exited, so at
most one core is busy. The list is repeated ``max(min_passes,
ceil(seconds / nominal_pass_s))`` times, a count fixed by the workload and
``--seconds`` alone so that every run takes the same number of samples.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs one plain
pass and one pass through ``trace_shim.py`` and prints the per-layer
metrics, including the tracing overhead. Every output is checked in both
modes. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
the full result record with the run metadata. Generated inputs live in
``.bench_work/`` under the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import workloads
from trace_shim import KERNEL_ROUTES

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 7
TAIL_BEYOND = 10


class Runner:
    """Starts one lupi process per command and waits for it to end."""

    def __init__(self, root: Path, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src
        self.count = 0

    def spawn(self, argv):
        """Run argv with the package on its path; returns (rc, stdout, seconds, peak rss in MB)."""
        self.count += 1
        out_path = self.workdir / f"out-{self.count}.txt"
        err_path = self.workdir / f"err-{self.count}.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        text = out_path.read_text(encoding="utf-8")
        out_path.unlink()
        err_path.unlink()
        return proc.returncode, text, seconds, usage.ru_maxrss / 1024.0

    def lupi(self, command, trace_path=None):
        if trace_path is None:
            argv = [sys.executable, "-m", "lupi.cli"] + command.argv
        else:
            argv = [sys.executable, str(HERE / "trace_shim.py"), str(trace_path), "--"] + command.argv
        return self.spawn(argv)


def metadata(runner, root, seed):
    """Machine, interpreter, numpy, backend and revision; also warms the bytecode cache."""
    probe = "import json, lupi, numpy; print(json.dumps([lupi.backend_name(), numpy.__version__]))"
    rc, out, _, _ = runner.spawn([sys.executable, "-c", probe])
    if rc != 0:
        raise RuntimeError("cannot import lupi from src/")
    backend, numpy_version = json.loads(out)
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "backend": backend,
        "git_revision": git_revision(root),
        "seed": seed,
    }


def git_revision(root: Path) -> str:
    """HEAD of root/.git if the checkout has one, else "unknown"; starts no process."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def time_import(runner):
    """Seconds from starting a fresh interpreter to a completed ``import lupi``."""
    rc, _, elapsed, _ = runner.spawn([sys.executable, "-c", "import lupi"])
    if rc != 0:
        raise RuntimeError("import lupi failed")
    return elapsed


def tail(pass_samples):
    """Tail command time as (value, percentile).

    The highest percentile with at least ten samples beyond it. Below forty
    samples that percentile would sit under the 75th, close to the median, so
    the slowest command of each pass is taken instead, as a median over
    passes, and the percentile reads 100.
    """
    ordered = sorted(t for samples in pass_samples for t in samples)
    count = len(ordered)
    if count < 4 * TAIL_BEYOND:
        return statistics.median(max(samples) for samples in pass_samples), 100.0
    return ordered[count - TAIL_BEYOND - 1], 100.0 * (count - TAIL_BEYOND) / count


def _ratio(num, den):
    return num / den if den else 0.0


def _no_spans():
    return {"calls": 0, "busy_s": 0.0, "self_s": 0.0}


def merge_traces(paths):
    merged = {"names": {}, "layers": {}, "counters": {}, "absent": set()}
    for path in paths:
        record = json.loads(Path(path).read_text())
        for table in ("names", "layers"):
            for key, entry in record[table].items():
                into = merged[table].setdefault(key, _no_spans())
                for field, value in entry.items():
                    into[field] += value
        for key, value in record["counters"].items():
            merged["counters"][key] = merged["counters"].get(key, 0) + value
        merged["absent"].update(record["absent"])
    return merged


def layer_metrics(trace, overhead_s):
    """Per-layer metrics of one traced pass; kernel routes that do not exist are left out."""
    layer = defaultdict(_no_spans, trace["layers"])
    span = defaultdict(_no_spans, trace["names"])
    counter = defaultdict(int, trace["counters"])
    verify = span["analysis.verify_profile"]
    m = {
        "cli.self_s": (layer["cli"]["self_s"], "s"),
        "profiles.busy_s": (layer["profiles"]["busy_s"], "s"),
        "solve.calls": (layer["solve"]["calls"], "count"),
        "solve.busy_s": (layer["solve"]["busy_s"], "s"),
        "solve.self_s": (layer["solve"]["self_s"], "s"),
        "solve.residual_evals": (counter["solve.residual_evals"], "count"),
        "solve.iterations": (counter["solve.iterations"], "count"),
        "solve.converged_ratio": (_ratio(counter["solve.converged"], counter["solve.results"]), "ratio"),
        "model.calls": (layer["model"]["calls"], "count"),
        "model.busy_s": (layer["model"]["busy_s"], "s"),
        "game.win_probabilities.calls": (span["game.win_probabilities"]["calls"], "count"),
        "game.self_s": (layer["game"]["self_s"], "s"),
        "game.exact_profile_payoffs.busy_s": (span["game.exact_profile_payoffs"]["busy_s"], "s"),
        "analysis.verify.calls": (verify["calls"], "count"),
        "analysis.verify.busy_s": (verify["busy_s"], "s"),
        "analysis.self_s": (layer["analysis"]["self_s"], "s"),
        "analysis.folds_per_verify": (_ratio(counter["analysis.folds"], verify["calls"]), "ratio"),
        "simulate.self_s": (layer["simulate"]["self_s"], "s"),
    }
    for route in KERNEL_ROUTES:
        name = f"kernel.{route}"
        if name in trace["absent"]:
            continue
        m[f"{name}.calls"] = (span[name]["calls"], "count")
        m[f"{name}.busy_s"] = (span[name]["busy_s"], "s")
    if "kernel.distinct.calls" in m:
        states = counter["kernel.distinct.states"]
        m["kernel.distinct.states_per_s"] = (_ratio(states, span["kernel.distinct"]["busy_s"]), "1/s")
    if "kernel.sampler.calls" in m:
        draws = counter["kernel.sampler.draws"]
        m["kernel.sampler.draws_per_s"] = (_ratio(draws, span["kernel.sampler"]["busy_s"]), "1/s")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


def run_workload(root, name, seed, seconds, trace):
    workdir = root / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(root, workdir)
        meta = metadata(runner, root, seed)
        workload = workloads.WORKLOADS[name](seed, workdir)
        references = [(c,) + runner.lupi(c)[:2] for c in workload.references]
        context = workload.prepare(references)

        if trace:
            plan = [False, True]
        else:
            plan = [False] * max(workload.min_passes, math.ceil(seconds / workload.nominal_pass_s))
        # set-up probes are spread over the run so that they sample its whole span
        total = len(plan) * len(workload.commands)
        probes_due = [] if trace else [j * total // SETUP_REPEATS for j in range(SETUP_REPEATS)]
        setup, pass_samples, rss, verdicts, trace_paths = [], [], [], [], []
        for tag, traced in enumerate(plan):
            pass_samples.append([])
            for k, command in enumerate(workload.commands):
                for _ in range(probes_due.count(tag * len(workload.commands) + k)):
                    setup.append(time_import(runner))
                trace_path = workdir / f"trace-{tag}-{k}.json" if traced else None
                rc, out, elapsed, peak = runner.lupi(command, trace_path)
                if traced:
                    trace_paths.append(trace_path)
                pass_samples[-1].append(elapsed)
                rss.append(peak)
                try:
                    verdict = workload.check(command, rc, out, context)
                except (ValueError, KeyError, IndexError, TypeError) as exc:
                    verdict = (workloads.WRONG, f"unreadable output: {exc!r}")
                verdicts.append((verdict, command.argv))

        walls = [sum(times) for times in pass_samples]
        attempted = len(verdicts)
        failed = sum(1 for (status, _), _ in verdicts if status != workloads.OK)
        wrong = sum(1 for (status, _), _ in verdicts if status == workloads.WRONG)
        samples = [t for times in pass_samples for t in times]
        absent, tail_pct = [], None
        if trace:
            merged = merge_traces(trace_paths)
            absent = sorted(merged["absent"])
            metrics = layer_metrics(merged, walls[1] - walls[0])
        else:
            tail_value, tail_pct = tail(pass_samples)
            metrics = {
                "setup_s": (statistics.median(setup), "s"),
                "wall_s": (statistics.median(walls), "s"),
                "cmd_p50_s": (statistics.median(samples), "s"),
                "cmd_tail_s": (tail_value, "s"),
                "peak_rss_mb": (max(rss), "MB"),
                "ok_ratio": ((attempted - failed) / attempted, "ratio"),
            }
        problems = sorted({f"{status}: {message} ({' '.join(argv)})"
                           for (status, message), argv in verdicts if status != workloads.OK})
        record = {
            "workload": name,
            "trace": int(trace),
            "meta": meta,
            "passes": len(plan),
            "pass_wall_s": walls,
            "cmd_samples": len(samples),
            "cmd_s": [[" ".join(c.argv), [times[k] for times in pass_samples]]
                      for k, c in enumerate(workload.commands)],
            "cmd_tail_percentile": tail_pct,
            "failed_ratio": failed / attempted,
            "problems": problems,
            "absent": absent,
            "metrics": {key: {"value": v, "unit": u} for key, (v, u) in metrics.items()},
        }
        return record, attempted, failed, wrong
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "lupi" / "cli.py").is_file():
        print("run.py: no src/lupi/cli.py here; run from the root of a lupi checkout", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        record, attempted, failed, wrong = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
        for key, metric in record["metrics"].items():
            print(f"{name:14s} {key:36s} {metric['value']!r} {metric['unit']}")
        for problem in record["problems"]:
            print(f"{name:14s} {problem}")
        print(json.dumps(record))
        total["correct"] = total["correct"] and wrong == 0
        total["attempted"] += attempted
        total["failed"] += failed
        prefix = "" if len(names) == 1 else f"{name}."
        total["metrics"].update({prefix + key: metric for key, metric in record["metrics"].items()})
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
