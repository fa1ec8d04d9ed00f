"""The repository's committed documents: the README's examples run as
written, its numeric claims about the engine hold, it describes every
command, option and exit code, the names, tests and paths it points to
exist, and every committed bench record holds the shared keys."""

import importlib
import json
import random
import re
import shlex
from pathlib import Path

import pytest

import lupi._kernels_py as kernels
from _oracle import random_profile
from lupi import (
    MAX_SOLVER_N, StrategyProfile, exact_profile_payoffs, pure_choice_values, solve_symmetric, verify_profile,
)
from lupi import cli
from lupi.model import MAX_GEOMETRIC_N
from lupi.solve import _TOLERANCES
from lupi.cli import EXIT_NOT_NASH, EXIT_OK, main
from test_solve import EXACT_NS, MAP_NS, PAPER_NS, SIGN_NS, SIGN_POINTS

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
PROSE = " ".join(README.split())


def _block(heading, language):
    """The first ``language`` code block after the line ``heading``."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def _usage_steps():
    """(argv, expected output lines) for each ``lupi`` line of the usage block;
    a ``# name: value`` comment is an output line of the command above it."""
    steps = []
    for line in _block("## Command-line usage", "bash").splitlines():
        if line.startswith("lupi "):
            steps.append((shlex.split(line)[1:], []))
        elif re.fullmatch(r"# [\w-]+: \S.*", line):
            steps[-1][1].append(line[2:])
    return steps


def test_readme_stays_within_250_lines():
    # a design detail lives in the module or test that owns it, and the README
    # points there in one line
    assert len(README.splitlines()) <= 250


def test_readme_examples_run_as_written(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "profile.json").write_text(_block("### Profile documents", "json"))
    steps = _usage_steps()
    assert len(steps) == 8
    assert sum(len(expected) for _, expected in steps) == 3
    for argv, expected in steps:
        code = main(argv)
        out = capsys.readouterr().out.splitlines()
        # the example profile is not an equilibrium: verify reports it with exit 2
        assert code == (EXIT_NOT_NASH if argv[0] == "verify" else EXIT_OK), argv
        for line in expected:
            assert line in out, (argv, line)
    assert (tmp_path / "geo.json").exists()
    exec(compile(_block("## Library usage", "python"), "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2 and printed[1] == "True"


def _claim(pattern):
    """The integers that ``pattern``'s groups match in the README prose, line breaks read as spaces."""
    match = re.search(pattern, PROSE)
    assert match, pattern
    return [int(group) for group in match.groups()]


class _Estimated(Exception):
    pass


def _estimate(monkeypatch, call):
    """The multiply-adds that ``call``'s kernel estimates, read at its budget check before any work."""
    seen = []

    def check(route, estimate):
        seen.append(estimate)
        raise _Estimated

    monkeypatch.setattr(kernels, "_check_work", check)
    with pytest.raises(_Estimated):
        call()
    return seen[0]


def test_readme_work_budget_and_its_limits(monkeypatch):
    # "above 2·10^7", and the largest n within it on each route: a symmetric
    # profile (identical opponents), a dense heterogeneous profile (the subset
    # program), distinct opponents in best-response, and a symmetric profile
    # with one deviator (the subset program on two groups)
    mantissa, exponent = _claim(r"above (\d+)·10\^(\d+)")
    assert kernels._WORK_BUDGET == mantissa * 10**exponent
    (common,) = _claim(r"n·\(n − 1\)²/2 multiply-adds for n players, so it runs up to n = (\d+)\.")
    profile, distinct = _claim(r"a heterogeneous profile goes up to n = (\d+), and distinct opponents in "
                               r"`best-response` up to n = (\d+)\.")
    (one_off,) = _claim(r"A symmetric profile with one deviator takes 2·n·n·n, so it runs up to n = (\d+)\.")
    rng = random.Random(8)

    def symmetric(n):
        return exact_profile_payoffs(StrategyProfile.symmetric([1.0 / n] * n))

    def dense(n):
        return exact_profile_payoffs(random_profile(rng, n))

    def opponents(n):
        return pure_choice_values(random_profile(rng, n).strategies[1:])

    def deviator(n):
        return exact_profile_payoffs(StrategyProfile(([1.0 / n] * n,) * (n - 1) + ([1.0] + [0.0] * (n - 1),)))

    assert _estimate(monkeypatch, lambda: deviator(one_off)) == 2 * one_off**3
    for route, n in ((symmetric, common), (dense, profile), (opponents, distinct), (deviator, one_off)):
        assert _estimate(monkeypatch, lambda: route(n)) <= kernels._WORK_BUDGET < _estimate(
            monkeypatch, lambda: route(n + 1)), route.__name__


def test_readme_geometric_limit():
    (top,) = _claim(r"`approx` and `table` take n up to (\d+), the largest n whose geometric payoff is a normal double")
    assert top == MAX_GEOMETRIC_N


def test_readme_paper_limit():
    (top,) = _claim(r"`solve --model paper` takes n up to (\d+), the largest n whose root's last weight is a normal double")
    assert top == MAX_SOLVER_N["paper"]


def test_readme_exact_limit():
    (top,) = _claim(r"`solve --model exact` takes n up to (\d+), every n of which was measured to converge")
    assert top == MAX_SOLVER_N["exact"]


def test_readme_rounds_limit():
    (exponent,) = _claim(r"`--rounds` sets its work, up to 2\^(\d+) − 1, the most its int64 win tally holds")
    with pytest.raises(ValueError, match=f"at most 2\\*\\*{exponent} - 1 = {2**exponent - 1},"):
        kernels.simulate_rounds([[1.0]], 2**exponent, 0)


def test_readme_solver_claims(exact_root):
    # "at most 26 steps for every n up to 100" is the largest step count of the
    # exact roots, and "changes sign once on 65 evenly spaced points" is the
    # count that test_solve.py::test_exact_map_changes_sign_once samples, with
    # the n it runs at; the two checks the README names next run at MAP_NS.
    # The exact maxima are read over test_solve.py's sample of the range; over
    # every n up to 100 they measured 26 steps (n = 58) and a residual of
    # 1.61e-14 (n = 70), both in the sample
    steps, top = _claim(r"closes its bracket in at most (\d+) steps for every n up to (\d+),")
    assert top == EXACT_NS[-1]
    assert steps == max(exact_root(n).iterations for n in EXACT_NS)
    points, top, above = _claim(r"changes sign once on (\d+) evenly spaced points for every n up to (\d+) and at "
                                r"n = (\d+) \(`tests/test_solve\.py::test_exact_map_changes_sign_once`\)\.")
    assert (points, [*range(3, top + 1), above]) == (SIGN_POINTS, SIGN_NS)
    assert _claim(r"Two checks at n = (\d+), (\d+), (\d+) and (\d+), not a proof") == MAP_NS
    # each model's fixed tolerance is over 10**4 (paper) or 10**3 (exact)
    # times its largest residual, so only an exact search stopped at its step
    # cap reports no convergence. The paper margin is read over test_solve.py's
    # sample of its range; over every n up to 1023 the largest residual
    # measured 3.5e-17. The smallest exact margin is 6.2e3, at n = 70
    paper_top, exact_top = _claim(r"Every `paper` root up to n = (\d+) is within it by more than four orders of "
                                  r"magnitude, and every `exact` root up to n = (\d+) by more than three,")
    assert (exact_top, paper_top) == (EXACT_NS[-1], PAPER_NS[-1])
    for model, roots, margin in (("exact", map(exact_root, EXACT_NS), 1e3),
                                 ("paper", (solve_symmetric(n) for n in PAPER_NS), 1e4)):
        assert max(root.residual_norm for root in roots) * margin < _TOLERANCES[model], model


def test_readme_rounding_limit_of_verify(exact_root):
    # the stated bound is the first power of ten above the exact roots' largest
    # gain, read over test_solve.py's sample of the range; over every n up to
    # 100 it measured 1.60e-14, at n = 70, which the sample holds. A smaller
    # --eps judges rounding
    exponent, top = _claim(r"the exact roots' gains are below 1e-(\d+) for every n up to (\d+), so an `--eps` "
                           r"below that judges rounding, not the strategy")
    assert top == EXACT_NS[-1]
    reports = {n: verify_profile(StrategyProfile.symmetric(exact_root(n).strategy)) for n in EXACT_NS}
    assert 10.0 ** -(exponent + 1) <= max(max(r.deviation_gains) for r in reports.values()) < 10.0 ** -exponent
    exponent, n = _claim(r"`verify --eps 1e-(\d+)` calls the n = (\d+) root not an equilibrium")
    assert reports[n].is_nash and not verify_profile(reports[n].profile, 10.0 ** -exponent).is_nash


def test_readme_describes_every_command_option_and_exit_code():
    (count,) = re.findall(r"One binary, (\w+) subcommands", PROSE)
    assert "zero one two three four five six seven eight nine ten".split().index(count) == len(cli._COMMANDS)
    for command, (_, _, options) in cli._COMMANDS.items():
        assert f"lupi {command} " in README, command
        for option in options:
            assert re.search(rf"(?<![\w-]){option.flag}(?![\w-])", README), (command, option.flag)
    (sentence,) = re.findall(r"Exit codes: ([^.]*)\.", PROSE)
    codes = sorted(value for name, value in vars(cli).items() if name.startswith("EXIT_"))
    assert codes == list(range(cli.EXIT_OK, cli.EXIT_NO_CONVERGENCE + 1))
    assert [int(code) for code in re.findall(r"`(\d+)`", sentence)] == codes


def test_readme_names_only_tests_that_exist():
    named = re.findall(r"tests/(test_\w+\.py)::(\w+)", README)
    assert len(named) >= 5
    for module, test in named:
        assert re.search(rf"^def {test}\(", (ROOT / "tests" / module).read_text(), re.M), (module, test)


def test_readme_pointers_resolve():
    # a backticked ``lupi.…`` name is the longest importable module prefix,
    # then attributes; a repo path is a file or directory of the checkout
    names = set(re.findall(r"`(lupi(?:\.\w+)+)(?:\(\))?`", PROSE))
    assert len(names) >= 5
    for name in sorted(names):
        parts = name.split(".")
        cut = len(parts)
        while True:
            try:
                target = importlib.import_module(".".join(parts[:cut]))
                break
            except ModuleNotFoundError:
                cut -= 1
        for attribute in parts[cut:]:
            assert hasattr(target, attribute), name
            target = getattr(target, attribute)
    paths = set(re.findall(r"(?<![\w/.])((?:src|tests|tools|perfbench)/[\w./]*\w)", README))
    assert len(paths) >= 5
    for path in sorted(paths):
        assert (ROOT / path).exists(), path


# ---------------------------------------------------------------------------
# bench records
#
# A committed ``BENCH_<revision>.json`` is a JSON object with
#   command   the perfbench command line that produced the runs;
#   parent    {"revision": full hash, "records": [run record, ...]};
#   change    {"revision": full hash, "records": [run record, ...]};
#   pairs     (optional) {"<workload>.<metric>": {
#                 "parent_median": float, "parent_q1_q3": [q1, q3],
#                 "change_median": float, "change_q1_q3": [q1, q3],
#                 "change_better_pairs": int}, ...}
# The records are the JSON lines ``perfbench/run.py`` prints; ``pairs``
# summarises alternating parent/change runs, one entry per metric.

PAIR_KEYS = {"parent_median", "parent_q1_q3", "change_median", "change_q1_q3", "change_better_pairs"}
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_bench_records_are_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_bench_record_holds_the_shared_keys(path):
    doc = json.loads(path.read_text())
    assert isinstance(doc["command"], str) and doc["command"].startswith("python3 perfbench/run.py")
    for side in ("parent", "change"):
        assert re.fullmatch(r"[0-9a-f]{40}", doc[side]["revision"]), side
    assert doc["change"]["revision"].startswith(path.stem.split("_", 1)[1])
    for metric, entry in doc.get("pairs", {}).items():
        assert PAIR_KEYS <= set(entry), metric
        for key in ("parent_q1_q3", "change_q1_q3"):
            q1, q3 = entry[key]
            assert q1 <= q3, (metric, key)
        assert 0 <= entry["change_better_pairs"], metric
