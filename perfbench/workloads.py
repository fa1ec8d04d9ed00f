"""Workloads of the lupi benchmark: seeded inputs, command lists and output checks.

Each workload is a fixed list of ``lupi`` command lines run in order, one
fresh process per command. Inputs (profile documents, ``--eps``,
simulation seeds, output formats) come from the workload seed alone; the
program sees only the generated files and flags. The checks do not depend
on the seed: they compare outputs with closed forms, with the exact
oracle, or with each other.

solve-sweep  the symmetric solver and the identical-opponent kernel.
hetero       the distinct-opponent capped-count fold behind payoff/verify,
             and the seeded round sampler at small and at large n.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import re
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from typing import Callable

OK, FAILED, WRONG = "ok", "failed", "wrong"
FORMATS = ("text", "csv", "json")
EXIT_OK, EXIT_NOT_NASH, EXIT_NO_CONVERGENCE = 0, 2, 3

ROOT3 = math.sqrt(3.0)
PAPER_N3 = (2 * ROOT3 - 3, 2 - ROOT3, 2 - ROOT3)
# acceptance criterion 3: table rows for n = 3..8 at three significant figures
TABLE_APPROX_3_8 = ["0.281", "0.133", "0.0645", "0.0317", "0.0157", "0.00784"]
TABLE_REFERENCE_3_8 = ["0.25", "0.125", "0.0625", "0.0313", "0.0156", "0.00781"]


@dataclass
class Command:
    """One lupi command line plus what its check needs to know."""

    argv: list
    kind: str
    info: dict = field(default_factory=dict)


@dataclass
class Workload:
    """Command list of one pass and its per-command check.

    ``check(command, rc, out, context)`` returns ``(verdict, message)``;
    ``context`` is shared by every check of a run and starts as what
    ``prepare`` makes of the untimed ``references`` commands' results.
    """

    name: str
    commands: list
    check: Callable
    # seconds of one pass on a 2-core Xeon with the pure-Python kernels
    nominal_pass_s: float
    references: list = field(default_factory=list)
    prepare: Callable = lambda results: {}
    min_passes: int = 1


# ---------------------------------------------------------------------------
# output parsing


def _text_fields(out):
    fields = {}
    for line in out.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields[key.strip()] = value.strip()
    return fields


def _csv_rows(out):
    return list(csv.reader(io.StringIO(out)))


def parse_solve(fmt, out):
    """(converged, residual_norm, strategy) from a solve output."""
    if fmt == "json":
        d = json.loads(out)
        return bool(d["converged"]), float(d["residual_norm"]), [float(p) for p in d["strategy"]]
    if fmt == "csv":
        header, row = _csv_rows(out)
        d = dict(zip(header, row))
        probs = [float(d[f"p{i + 1}"]) for i in range(int(d["n"]))]
        return d["converged"] == "True", float(d["residual_norm"]), probs
    d = _text_fields(out)
    return d["converged"] == "yes", float(d["residual_norm"]), [float(p) for p in d["strategy"].split()]


_VERIFY_LINE = re.compile(r"^player .*?: payoff (\S+) \|.*\| gain (\S+)")


def parse_verify(fmt, out):
    """(payoffs, deviation_gains) from a verify output."""
    if fmt == "json":
        d = json.loads(out)
        return [float(v) for v in d["payoffs"]], [float(v) for v in d["deviation_gains"]]
    if fmt == "csv":
        rows = _csv_rows(out)[1:]
        return [float(r[2]) for r in rows], [float(r[4]) for r in rows]
    matches = [_VERIFY_LINE.match(line) for line in out.splitlines()]
    matches = [m for m in matches if m]
    return [float(m.group(1)) for m in matches], [float(m.group(2)) for m in matches]


def parse_approx(fmt, out):
    if fmt == "json":
        return [float(p) for p in json.loads(out)["strategy"]]
    if fmt == "csv":
        header, row = _csv_rows(out)
        d = dict(zip(header, row))
        return [float(d[f"p{i + 1}"]) for i in range(int(d["n"]))]
    return [float(p) for p in _text_fields(out)["strategy"].split()]


def sig3(value):
    """Half-up rounding to three significant figures, trailing zeros dropped."""
    d = Decimal(value)
    adjust = d.adjusted()
    q = d.scaleb(2 - adjust).quantize(Decimal(1), rounding=ROUND_HALF_UP).scaleb(adjust - 2)
    return format(q.normalize(), "f")


def parse_table(fmt, out):
    """Row name -> list of cells as rendered at three significant figures."""
    if fmt == "json":
        d = json.loads(out)
        return {"approx": [sig3(v) for v in d["approx"]], "reference": [sig3(v) for v in d["reference"]]}
    if fmt == "csv":
        rows = _csv_rows(out)
    else:
        rows = [line.split() for line in out.splitlines()]
    return {row[0]: row[1:] for row in rows if row}


# ---------------------------------------------------------------------------
# checks shared by the workloads


def _verdict_verify(rc, payoffs, gains, eps, n):
    """Exit status must agree with the reported gains at the given epsilon."""
    if rc not in (EXIT_OK, EXIT_NOT_NASH):
        return WRONG, f"verify exited {rc}"
    if len(gains) != n or len(payoffs) != n:
        return WRONG, f"verify reported {len(gains)} gains for n={n}"
    if (max(gains) <= eps) != (rc == EXIT_OK):
        return WRONG, f"verify exit {rc} disagrees with max gain {max(gains)!r} at eps {eps!r}"
    if sum(payoffs) > 1.0 + 1e-12:
        return WRONG, f"payoff sum {sum(payoffs)!r} exceeds 1"
    return OK, ""


def _is_distribution(probs, n):
    return len(probs) == n and min(probs) >= 0.0 and abs(sum(probs) - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# solve-sweep


def solve_sweep(seed, workdir):
    commands = []
    for n in range(3, 11):
        path = f"exact-{n}.json"
        commands.append(Command(["solve", "--n", str(n), "--model", "exact", "--save-profile", path],
                                "solve", {"n": n, "model": "exact", "tol": 1e-10}))
        commands.append(Command(["verify", "--profile", path], "verify-solved", {"n": n, "eps": 1e-9}))
    for n in range(3, 13):
        commands.append(Command(["solve", "--n", str(n), "--model", "paper"],
                                "solve", {"n": n, "model": "paper", "tol": 1e-12}))
    commands.append(Command(["approx", "--n", "12", "--save-profile", "approx-12.json"], "approx", {"n": 12}))
    commands.append(Command(["verify", "--profile", "approx-12.json"], "verify", {"n": 12, "eps": 1e-9}))
    commands.append(Command(["table", "--max-n", "12"], "table", {"max_n": 12}))
    for i, command in enumerate(commands):
        command.info["format"] = FORMATS[(seed + i) % len(FORMATS)]
        command.argv += ["--format", command.info["format"]]
    return Workload("solve-sweep", commands, check_solve_sweep, 13.0)


def _check_solve(command, rc, out):
    info = command.info
    if rc not in (EXIT_OK, EXIT_NO_CONVERGENCE):
        return WRONG, f"solve exited {rc}"
    converged, residual, probs = parse_solve(info["format"], out)
    if converged != (rc == EXIT_OK):
        return WRONG, f"solve exit {rc} disagrees with converged={converged}"
    if not _is_distribution(probs, info["n"]):
        return WRONG, "solve strategy is not a distribution"
    if rc == EXIT_NO_CONVERGENCE:
        return FAILED, f"{info['model']} n={info['n']} did not converge"
    if residual > info["tol"]:
        return WRONG, f"converged with residual {residual!r} above {info['tol']!r}"
    if info["model"] == "paper" and info["n"] == 3:
        if max(abs(a - b) for a, b in zip(probs, PAPER_N3)) > 1e-9:
            return WRONG, f"paper n=3 root {probs} is not (2*sqrt3-3, 2-sqrt3, 2-sqrt3)"
    return OK, ""


def _check_table(command, rc, out):
    if rc != EXIT_OK:
        return WRONG, f"table exited {rc}"
    rows = parse_table(command.info["format"], out)
    ns = range(3, command.info["max_n"] + 1)
    reference = [sig3(0.5 ** (n - 1)) for n in ns]
    if rows.get("approx", [])[:6] != TABLE_APPROX_3_8 or rows.get("reference", [])[:6] != TABLE_REFERENCE_3_8:
        return WRONG, "table rows for n=3..8 differ from acceptance criterion 3"
    if rows["reference"] != reference:
        return WRONG, "table reference row is not 1/2**(n-1)"
    return OK, ""


def _check_approx(command, rc, out):
    if rc != EXIT_OK:
        return WRONG, f"approx exited {rc}"
    n = command.info["n"]
    expected = [0.5 ** i for i in range(1, n)] + [0.5 ** (n - 1)]
    probs = parse_approx(command.info["format"], out)
    if len(probs) != n or max(abs(a - b) for a, b in zip(probs, expected)) > 1e-15:
        return WRONG, "approx strategy is not the geometric strategy"
    return OK, ""


def check_solve_sweep(command, rc, out, context):
    info = command.info
    if command.kind == "solve":
        verdict = _check_solve(command, rc, out)
        context["solved"] = verdict[0] == OK
        return verdict
    if command.kind == "approx":
        return _check_approx(command, rc, out)
    if command.kind == "table":
        return _check_table(command, rc, out)
    payoffs, gains = parse_verify(info["format"], out) if rc in (0, 2) else ([], [])
    verdict = _verdict_verify(rc, payoffs, gains, info["eps"], info["n"])
    if verdict[0] == OK and command.kind == "verify-solved" and context.get("solved") and rc != EXIT_OK:
        return WRONG, f"converged exact root n={info['n']} failed verify"
    return verdict


# ---------------------------------------------------------------------------
# hetero: payoff, verify and simulate of heterogeneous profile documents


def _normalized(weights):
    total = sum(weights)
    return [w / total for w in weights]


def _hetero_rows(rng, n, zeros):
    """n random rows; row i is zero on the ``zeros`` integers from i + 1 on (cyclic).

    The zero pattern is fixed up to a seeded relabelling of the integers, so
    the capped-count fold visits the same number of states for every seed.
    """
    relabel = list(range(n))
    rng.shuffle(relabel)
    rows = []
    for i in range(n):
        weights = [rng.random() + 0.05 for _ in range(n)]
        for j in range(zeros):
            weights[(i + j) % n] = 0.0
        rows.append(_normalized([weights[relabel[c]] for c in range(n)]))
    return rows


def _write_profile(workdir, name, rows):
    with open(workdir / name, "w", encoding="utf-8") as handle:
        json.dump({"n": len(rows), "strategies": rows}, handle)
    return name


def check_verify_hetero(command, rc, out, context):
    n = command.info["n"]
    if command.kind == "payoff":
        context["payoffs"] = None
        if rc != EXIT_OK:
            return WRONG, f"payoff exited {rc}"
        payoffs = [float(v) for v in json.loads(out)["payoffs"]]
        if len(payoffs) != n or sum(payoffs) > 1.0 + 1e-12:
            return WRONG, f"payoff sum {sum(payoffs)!r} exceeds 1 or wrong length"
        context["payoffs"] = payoffs
        return OK, ""
    payoffs, gains = parse_verify("json", out) if rc in (0, 2) else ([], [])
    verdict = _verdict_verify(rc, payoffs, gains, command.info["eps"], n)
    seen = context.get("payoffs")
    if verdict[0] == OK and (seen is None or max(abs(a - b) for a, b in zip(payoffs, seen)) > 1e-12):
        return WRONG, "verify payoffs differ from payoff by more than 1e-12"
    return verdict


# (n, profile kind, zero entries per row) of the payoff and verify commands.
# Dense profiles at n = 10 and 11 are left out: a payoff and verify pair takes
# about 4.6 s and 15.7 s there, so a run would hold too few passes for steady
# medians. With 8 of 11 entries zero, the zero-skip keeps the n = 11 pair near
# 3.4 s.
HETERO_PROFILES = ((9, "dense", 0), (11, "sparse", 8))
# fixed shapes with seeded jitter keep the inverse-CDF scan length steady across seeds
SIM4_SHAPES = ([0.4, 0.3, 0.2, 0.1], [0.25, 0.25, 0.25, 0.25], [0.1, 0.2, 0.3, 0.4], [0.5, 0.25, 0.15, 0.1])
SIM12_SHAPE = [0.5 ** i for i in range(1, 12)] + [0.5 ** 11]


def hetero(seed, workdir):
    rng = random.Random(seed)
    commands = []
    for n, kind, zeros in HETERO_PROFILES:
        path = _write_profile(workdir, f"hetero-{n}-{kind}.json", _hetero_rows(rng, n, zeros))
        eps = (1e-9, 1.0)[rng.randrange(2)]
        commands.append(Command(["payoff", "--profile", path, "--format", "json"], "payoff", {"n": n}))
        commands.append(Command(["verify", "--profile", path, "--eps", repr(eps), "--format", "json"],
                                "verify", {"n": n, "eps": eps}))

    def jitter(shape):
        return _normalized([p * (0.9 + 0.2 * rng.random()) for p in shape])

    sim4 = _write_profile(workdir, "sim-4-hetero.json", [jitter(shape) for shape in SIM4_SHAPES])
    sim12 = _write_profile(workdir, "sim-12-symmetric.json", [jitter(SIM12_SHAPE)] * 12)
    references = [Command(["payoff", "--profile", path, "--format", "json"], "reference", {"path": path})
                  for path in (sim4, sim12)]
    # seven commands a pass; the fourth, the median, falls in the middle of
    # the two n = 12 simulations and the n = 11 payoff, which take about the
    # same time
    for path, n, rounds in [(sim4, 4, 10 ** 6)] + [(sim12, 12, 5 * 10 ** 4)] * 2:
        commands.append(Command(["simulate", "--profile", path, "--rounds", str(rounds),
                                 "--seed", str(rng.randrange(2 ** 32)), "--format", "json"],
                                "simulate", {"n": n, "rounds": rounds, "path": path}))
    return Workload("hetero", commands, check_hetero, 15.0, references, simulate_references, min_passes=2)


def check_hetero(command, rc, out, context):
    if command.kind == "simulate":
        return check_simulate(command, rc, out, context)
    return check_verify_hetero(command, rc, out, context)


def check_simulate(command, rc, out, context):
    """``context["exact"]`` maps each profile to its exact payoffs, from the references."""
    info = command.info
    if rc != EXIT_OK:
        return WRONG, f"simulate exited {rc}"
    wins = json.loads(out)["wins"]
    first = context.setdefault("wins", {}).setdefault(tuple(command.argv), wins)
    if first != wins:
        return WRONG, "the same seed gave different win counts"
    rounds = info["rounds"]
    exact = context["exact"][info["path"]]
    bad = [i + 1 for i, (w, p) in enumerate(zip(wins, exact))
           if abs(w / rounds - p) > 4.0 * math.sqrt(p * (1.0 - p) / rounds)]
    if len(wins) != info["n"] or bad:
        return WRONG, f"win frequencies of players {bad} lie beyond 4 standard errors"
    return OK, ""


def simulate_references(references):
    """Exact payoffs per profile from the untimed ``payoff`` reference commands."""
    exact = {}
    for command, rc, out in references:
        if rc != EXIT_OK:
            raise RuntimeError(f"reference command {command.argv} exited {rc}")
        exact[command.info["path"]] = [float(v) for v in json.loads(out)["payoffs"]]
    return {"exact": exact}


WORKLOADS = {
    "solve-sweep": solve_sweep,
    "hetero": hetero,
}
