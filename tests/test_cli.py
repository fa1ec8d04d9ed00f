"""Command-line surface: formats, exit codes, file handling, round trips."""

import contextlib
import csv
import gc
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from _oracle import random_profile, random_strategy
import lupi
from lupi import MAX_SOLVER_N, StrategyProfile, solve_symmetric
from lupi import cli
from lupi.cli import EXIT_INPUT, EXIT_NO_CONVERGENCE, EXIT_NOT_NASH, EXIT_OK, format_sig3, main
from lupi.profiles import save_profile

SQRT3 = math.sqrt(3.0)

ASYM3 = {"n": 3, "strategies": [[0, 0, 1], [0.5, 0.5, 0], [0.5, 0.5, 0]],
         "labels": ["Alice", "Bob", "Charles"]}
ASYM4 = {"n": 4, "strategies": [[0, 0, 1, 0], [0.5, 0.5, 0, 0], [0.5, 0.5, 0, 0], [0.5, 0.5, 0, 0]]}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_profile(tmp_path, doc, name="profile.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


# ---------------------------------------------------------------------------
# solve


def test_solve_paper_n3_text(capsys):
    code, out, _ = run_cli(capsys, "solve", "--n", "3", "--model", "paper")
    assert code == EXIT_OK
    assert "converged: yes" in out
    payoff = float(out.split("payoff: ")[1].splitlines()[0])
    assert abs(payoff - (28 - 16 * SQRT3)) < 1e-9
    strategy = [float(tok) for tok in out.split("strategy: ")[1].split()]
    assert abs(strategy[0] - (2 * SQRT3 - 3)) < 1e-9


def test_solve_json_round_trips_full_precision(capsys):
    code, out, _ = run_cli(capsys, "solve", "--n", "4", "--model", "paper", "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["model"] == "paper"
    assert data["converged"] is True
    assert [round(p, 3) for p in data["strategy"]] == [0.488, 0.250, 0.131, 0.131]


def test_solve_exact_model(capsys):
    code, out, _ = run_cli(capsys, "solve", "--n", "4", "--model", "exact", "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert abs(data["strategy"][3] - 0.00173583345732) < 1e-6
    assert data["full_support"] is True


def test_solve_below_range_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "solve", "--n", "2", "--model", "paper")
    assert code == EXIT_INPUT
    assert "error" in err


def test_solve_unknown_model_exits_1(capsys):
    with pytest.raises(SystemExit) as info:
        main(["solve", "--n", "3", "--model", "bogus"])
    assert info.value.code == EXIT_INPUT


def test_solve_nonconvergence_exit_code(capsys, monkeypatch):
    # only a search cut at its step cap ends unconverged
    monkeypatch.setattr("lupi.solve._MAX_STEPS", 1)
    code, out, _ = run_cli(capsys, "solve", "--n", "6", "--model", "exact")
    assert code == EXIT_NO_CONVERGENCE
    assert "converged: no" in out
    assert "iterations: 1" in out


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == EXIT_INPUT


# ---------------------------------------------------------------------------
# table


def test_table_csv_reproduces_reported_values(capsys):
    code, out, _ = run_cli(capsys, "table", "--max-n", "8", "--format", "csv")
    assert code == EXIT_OK
    rows = parse_csv(out)
    assert rows[0] == ["row", "3", "4", "5", "6", "7", "8"]
    assert rows[1] == ["approx", "0.281", "0.133", "0.0645", "0.0317", "0.0157", "0.00784"]
    assert rows[2] == ["reference", "0.25", "0.125", "0.0625", "0.0313", "0.0156", "0.00781"]
    assert rows[3] == ["exact", "0.287", "0.134", "", "", "", ""]


def test_table_text_aligns_same_cells(capsys):
    code, out, _ = run_cli(capsys, "table", "--max-n", "4")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[1].split() == ["approx", "0.281", "0.133"]
    assert lines[3].split() == ["exact", "0.287", "0.134"]


def test_table_json_keeps_full_precision(capsys):
    code, out, _ = run_cli(capsys, "table", "--max-n", "5", "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["n"] == [3, 4, 5]
    assert data["approx"][0] == 0.28125
    assert data["exact"][2] is None


def test_table_range_validation(capsys):
    code, _, err = run_cli(capsys, "table", "--max-n", "41")
    assert code == EXIT_INPUT
    assert "max-n" in err


def test_sig3_rounds_half_up():
    assert format_sig3(0.03125) == "0.0313"
    assert format_sig3(0.0078125) == "0.00781"
    assert format_sig3(0.25) == "0.25"
    assert format_sig3(0.28125) == "0.281"
    assert format_sig3(0.0) == "0"


# ---------------------------------------------------------------------------
# verify / payoff


def test_verify_weak_nash_profile(capsys, tmp_path):
    path = write_profile(tmp_path, ASYM4)
    code, out, _ = run_cli(capsys, "verify", "--profile", path)
    assert code == EXIT_OK
    assert "nash_equilibrium: yes" in out
    assert "indifferent deviations exist" in out
    assert "payoff_sum_maximal: yes" in out


def test_verify_non_nash_exits_2(capsys, tmp_path):
    path = write_profile(tmp_path, ASYM3)
    code, out, _ = run_cli(capsys, "verify", "--profile", path)
    assert code == EXIT_NOT_NASH
    assert "nash_equilibrium: no" in out
    assert "Bob" in out


def test_verify_json_fields(capsys, tmp_path):
    path = write_profile(tmp_path, ASYM3)
    code, out, _ = run_cli(capsys, "verify", "--profile", path, "--format", "json")
    assert code == EXIT_NOT_NASH
    data = json.loads(out)
    assert data["is_nash"] is False
    assert data["payoffs"] == pytest.approx([0.5, 0.25, 0.25], abs=1e-12)
    assert data["best_response_values"][1] == pytest.approx(0.5, abs=1e-12)
    assert data["labels"] == ["Alice", "Bob", "Charles"]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_rejects_an_infinite_epsilon(capsys, tmp_path, fmt):
    path = write_profile(tmp_path, ASYM3)
    code, out, err = run_cli(capsys, "verify", "--profile", path, "--eps", "inf", "--format", fmt)
    assert code == EXIT_INPUT
    assert out == ""
    assert err == "lupi: error: epsilon must be positive and finite\n"


def test_verify_bad_row_reports_index(capsys, tmp_path):
    doc = {"n": 3, "strategies": [[0.5, 0.5, 0], [0.7, 0.7, 0], [0.5, 0.5, 0]]}
    path = write_profile(tmp_path, doc)
    code, _, err = run_cli(capsys, "verify", "--profile", path)
    assert code == EXIT_INPUT
    assert "row 1" in err


def test_verify_bad_cell_reports_row_and_column(capsys, tmp_path):
    doc = {"n": 2, "strategies": [[0.5, "x"], [0.5, 0.5]]}
    path = write_profile(tmp_path, doc)
    code, _, err = run_cli(capsys, "verify", "--profile", path)
    assert code == EXIT_INPUT
    assert "row 0" in err and "column 1" in err


def test_verify_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "verify", "--profile", str(tmp_path / "nope.json"))
    assert code == EXIT_INPUT
    assert "error" in err


def test_verify_invalid_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 3, "strategies": [')
    code, out, err = run_cli(capsys, "verify", "--profile", str(path))
    assert (code, out) == (EXIT_INPUT, "")
    assert err.startswith(f"lupi: error: profile file {path} is not valid JSON: ")


@pytest.mark.parametrize("command", [["approx", "--n", "3"], ["solve", "--n", "3"]])
@pytest.mark.parametrize("target", ["missing/profile.json", ".", ""])
def test_unwritable_save_profile_is_an_input_error(capsys, tmp_path, command, target):
    # a path under a missing directory, a path that is a directory, and an empty path
    path = str(tmp_path / target) if target else target
    code, out, err = run_cli(capsys, *command, "--save-profile", path)
    assert (code, out) == (EXIT_INPUT, "")
    assert err.count("\n") == 1 and err.startswith("lupi: error: cannot write profile file ")


def _dense_profile(n):
    rng = random.Random(1300 + n)
    return {"n": n, "strategies": [list(random_strategy(rng, n)) for _ in range(n)]}


def test_profile_size_is_bounded_by_the_work_budget(capsys, tmp_path):
    # the solver's cap does not bound profiles: above it, a symmetric profile
    # takes the identical-opponent program, whose work budget admits n = 342
    n = MAX_SOLVER_N + 1
    path = write_profile(tmp_path, {"n": n, "strategies": [[1.0 / n] * n] * n})
    for argv, status in ((["verify"], EXIT_NOT_NASH), (["payoff"], EXIT_OK), (["simulate", "--rounds", "10"], EXIT_OK)):
        code, out, err = run_cli(capsys, *argv, "--profile", path)
        assert (code, err) == (status, "")
        assert "player 41:" in out
    # above the budget the exact commands refuse before any work, and
    # simulate, whose work --rounds sets, still plays
    n = 343
    path = write_profile(tmp_path, {"n": n, "strategies": [[1.0 / n] * n] * n})
    for argv in (["verify"], ["payoff"]):
        code, out, err = run_cli(capsys, *argv, "--profile", path)
        assert (code, out) == (EXIT_INPUT, "")
        assert err == (
            "lupi: error: the identical-opponent program needs about 2.01e+07 multiply-adds,"
            " over the budget of 2e+07\n"
        )
    code, out, _ = run_cli(capsys, "simulate", "--rounds", "10", "--profile", path)
    assert code == EXIT_OK
    assert out.startswith("rounds: 10\n")


def test_heterogeneous_profile_above_the_subset_limit_is_rejected(capsys, tmp_path):
    path = write_profile(tmp_path, _dense_profile(17))
    code, out, err = run_cli(capsys, "verify", "--profile", path)
    assert (code, out) == (EXIT_INPUT, "")
    assert "the subset program needs about 3.79e+07 multiply-adds, over the budget of 2e+07" in err


def test_exact_root_with_one_deviator_at_n40(capsys, tmp_path, exact_root):
    # the paper's claim is about one player leaving the common strategy: the
    # n = 40 root with one player on 1 is scored whole, and that player's best
    # response is the one the symmetric root offers
    n = 40
    root = list(exact_root(n).strategy.probs)
    symmetric = write_profile(tmp_path, {"n": n, "strategies": [root] * n}, "root.json")
    deviator = write_profile(tmp_path, {"n": n, "strategies": [root] * (n - 1) + [[1.0] + [0.0] * (n - 1)]},
                             "deviator.json")
    code, out, _ = run_cli(capsys, "payoff", "--profile", deviator, "--format", "json")
    assert code == EXIT_OK
    payoffs = json.loads(out)["payoffs"]
    assert len(payoffs) == n and all(math.isfinite(v) for v in payoffs)
    assert sum(payoffs) <= 1.0
    code, out, _ = run_cli(capsys, "verify", "--profile", deviator, "--format", "json")
    assert code == EXIT_NOT_NASH
    report = json.loads(out)
    assert report["payoffs"] == payoffs
    code, out, _ = run_cli(capsys, "verify", "--profile", symmetric, "--format", "json")
    assert code == EXIT_OK
    assert report["best_response_values"][-1] == pytest.approx(
        json.loads(out)["best_response_values"][0], rel=0.0, abs=1e-15)
    # best-response scores one player of the same document, a root player
    # and the deviator, as verify does
    for player in (1, n):
        code, out, _ = run_cli(capsys, "best-response", "--profile", deviator, "--player", str(player),
                               "--format", "json")
        assert code == EXIT_OK
        scored = json.loads(out)
        assert (scored["n"], scored["player"], scored["label"]) == (n, player, None)
        assert max(scored["values"]) == report["best_response_values"][player - 1]
        assert scored["best_picks"] == report["best_response_picks"][player - 1]


def test_heterogeneous_profile_above_twelve_is_accepted(capsys, tmp_path):
    path = write_profile(tmp_path, _dense_profile(13))
    code, out, _ = run_cli(capsys, "verify", "--profile", path)
    assert code == EXIT_NOT_NASH
    assert "nash_equilibrium: no" in out


def test_two_players_are_accepted(capsys, tmp_path):
    path = write_profile(tmp_path, {"n": 2, "strategies": [[1.0, 0.0], [0.0, 1.0]]})
    assert run_cli(capsys, "verify", "--profile", path)[0] == EXIT_OK
    assert run_cli(capsys, "payoff", "--profile", path)[0] == EXIT_OK
    assert run_cli(capsys, "best-response", "--profile", path, "--player", "2")[0] == EXIT_OK


def test_payoff_csv(capsys, tmp_path):
    path = write_profile(tmp_path, ASYM3)
    code, out, _ = run_cli(capsys, "payoff", "--profile", path, "--format", "csv")
    assert code == EXIT_OK
    rows = parse_csv(out)
    assert rows[0] == ["player", "label", "payoff"]
    assert [float(r[2]) for r in rows[1:]] == pytest.approx([0.5, 0.25, 0.25], abs=1e-12)


# ---------------------------------------------------------------------------
# best-response / approx


def test_best_response_matches_reported_values(capsys, tmp_path):
    path = write_profile(tmp_path, ASYM3)
    code, out, _ = run_cli(capsys, "best-response", "--profile", path, "--player", "1")
    assert code == EXIT_OK
    assert out.startswith("player: 1 (Alice)\n")
    assert "choice 3: 0.5" in out
    assert out.strip().splitlines()[-1] == "best: 3"
    code, out, _ = run_cli(capsys, "best-response", "--profile", path, "--player", "2", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out) == {"n": 3, "player": 2, "label": "Bob", "values": [0.5, 0.0, 0.0], "best_picks": [1]}


def test_best_response_player_out_of_range(capsys, tmp_path):
    path = write_profile(tmp_path, ASYM4)
    for player in ("0", "5"):
        code, out, err = run_cli(capsys, "best-response", "--profile", path, "--player", player)
        assert (code, out) == (EXIT_INPUT, "")
        assert err == f"lupi: error: --player must be between 1 and 4, got {player}\n"


def test_approx_reports_strategy_and_payoff(capsys):
    code, out, _ = run_cli(capsys, "approx", "--n", "3")
    assert code == EXIT_OK
    assert "strategy: 0.5 0.25 0.25" in out
    assert "payoff: 0.28125" in out


def test_approx_range(capsys):
    code, _, _ = run_cli(capsys, "approx", "--n", "2")
    assert code == EXIT_INPUT


# ---------------------------------------------------------------------------
# parser

# argv -> (handler, every destination with its value); the values and their
# types are those an argparse parser with the same options gave
PARSED = [
    (["solve", "--n", "5"], "_cmd_solve",
     {"n": 5, "model": "paper", "save_profile": None, "format": "text"}),
    (["solve", "--n=7", "--model=exact", "--save-profile", "a.json", "--format", "json"],
     "_cmd_solve", {"n": 7, "model": "exact", "save_profile": "a.json", "format": "json"}),
    (["solve", "--n", "3", "--n", "-4", "--model", "exact", "--model", "paper"], "_cmd_solve",
     {"n": -4, "model": "paper", "save_profile": None, "format": "text"}),
    (["table"], "_cmd_table", {"max_n": 8, "format": "text"}),
    (["table", "--max-n", "12", "--format=csv"], "_cmd_table", {"max_n": 12, "format": "csv"}),
    (["verify", "--profile", "p.json"], "_cmd_verify", {"profile": "p.json", "eps": 1e-9, "format": "text"}),
    (["verify", "--profile=-", "--eps", "-1", "--format", "csv"], "_cmd_verify",
     {"profile": "-", "eps": -1.0, "format": "csv"}),
    (["payoff", "--profile", "a b.json"], "_cmd_payoff", {"profile": "a b.json", "format": "text"}),
    (["payoff", "--format", "json", "--profile", "p.json", "--profile", "q.json"], "_cmd_payoff",
     {"profile": "q.json", "format": "json"}),
    (["best-response", "--profile", "p.json", "--player", "1"], "_cmd_best_response",
     {"profile": "p.json", "player": 1, "format": "text"}),
    (["best-response", "--player=2", "--profile=p.json", "--format", "json"], "_cmd_best_response",
     {"profile": "p.json", "player": 2, "format": "json"}),
    (["best-response", "--profile", "p.json", "--player", "3", "--player", "-1"], "_cmd_best_response",
     {"profile": "p.json", "player": -1, "format": "text"}),
    (["best-response", "--format=csv", "--player", "+4", "--profile", "-"], "_cmd_best_response",
     {"profile": "-", "player": 4, "format": "csv"}),
    (["approx", "--n", "6"], "_cmd_approx", {"n": 6, "save_profile": None, "format": "text"}),
    (["approx", "--n", "+6", "--save-profile", "g.json", "--format", "csv"], "_cmd_approx",
     {"n": 6, "save_profile": "g.json", "format": "csv"}),
    (["simulate", "--profile", "p.json", "--rounds", "100"], "_cmd_simulate",
     {"profile": "p.json", "rounds": 100, "seed": 0, "format": "text"}),
    (["simulate", "--rounds=1_000", "--seed", "-7", "--profile", "p.json", "--format", "json"], "_cmd_simulate",
     {"profile": "p.json", "rounds": 1000, "seed": -7, "format": "json"}),
]


@pytest.mark.parametrize("argv, handler, expected", PARSED, ids=[" ".join(argv) for argv, _, _ in PARSED])
def test_parser_reads_every_option(argv, handler, expected):
    parsed_handler, parsed = cli._parse(argv)
    assert parsed_handler.__name__ == handler
    assert vars(parsed) == expected
    assert {name: type(value) for name, value in vars(parsed).items()} == {
        name: type(value) for name, value in expected.items()}


def test_parser_cases_cover_every_command():
    assert {argv[0] for argv, _, _ in PARSED} == set(cli._COMMANDS)


USAGE_ERRORS = [
    ([], "the first argument must be a command"),
    (["bogus"], "the first argument must be a command"),
    (["--format", "json"], "the first argument must be a command"),
    (["solve"], "the following arguments are required: --n"),
    (["best-response"], "the following arguments are required: --profile, --player"),
    (["solve", "--n", "3", "--foo", "1"], "unrecognized argument: --foo"),
    (["table", "--max", "5"], "unrecognized argument: --max"),
    (["solve", "--n", "3", "extra"], "unrecognized argument: extra"),
    (["solve", "--n", "4", "--model", "exact", "--tol", "1e-17"], "unrecognized argument: --tol"),
    (["solve", "--n"], "argument --n: expected one argument"),
    (["solve", "--n", "--model", "paper"], "argument --n: expected one argument"),
    (["best-response", "--others", "0.5,0.5"], "unrecognized argument: --others"),
    (["best-response", "--n", "3", "--others"], "unrecognized argument: --n"),
    (["best-response", "--profile", "p.json", "--player", "x"], "argument --player: invalid int value: 'x'"),
    (["solve", "--n", "x"], "argument --n: invalid int value: 'x'"),
    (["solve", "--n="], "argument --n: invalid int value: ''"),
    (["table", "--max-n", "1.5"], "argument --max-n: invalid int value: '1.5'"),
    (["verify", "--profile", "p.json", "--eps", "tiny"], "argument --eps: invalid float value: 'tiny'"),
    (["simulate", "--profile", "p.json", "--rounds", "1e3"], "argument --rounds: invalid int value: '1e3'"),
    (["solve", "--n", "3", "--model", "bogus"], "argument --model {paper,exact}: invalid choice: 'bogus'"),
    (["payoff", "--profile", "p.json", "--format=xml"],
     "argument --format {text,csv,json}: invalid choice: 'xml'"),
]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS, ids=[" ".join(argv) or "(none)" for argv, _ in USAGE_ERRORS])
def test_usage_errors_exit_1_with_usage_on_stderr(capsys, argv, message):
    with pytest.raises(SystemExit) as info:
        main(argv)
    out, err = capsys.readouterr()
    assert info.value.code == EXIT_INPUT
    assert out == ""
    usage, error = err.splitlines()
    assert usage.startswith("usage: lupi ")
    assert error == f"lupi: error: {message}"


HELP = [["--help"], ["-h"], *([name, "--help"] for name in cli._COMMANDS), ["solve", "--n", "3", "-h"]]


@pytest.mark.parametrize("argv", HELP, ids=" ".join)
def test_help_lists_every_option_and_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    out, err = capsys.readouterr()
    assert (info.value.code, err) == (EXIT_OK, "")
    assert out.startswith("usage: lupi ")
    if len(argv) == 1:
        shown = [text for name, (_, summary, _) in cli._COMMANDS.items() for text in (name, summary)]
    else:
        shown = [text for option in cli._COMMANDS[argv[0]][2] for text in (option.form, option.help)]
    assert all(text in out for text in shown), out


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("command", ["verify", "help"])
def test_closed_stdout_ends_the_command_quietly(tmp_path, command, unbuffered):
    # the reader's end of the pipe is closed before the command writes: with stdout
    # unbuffered the first print fails, buffered the flush after main() does
    path = str(tmp_path / "dense9.json")
    save_profile(path, random_profile(random.Random(9), 9))
    argv = ["verify", "--profile", path] if command == "verify" else ["--help"]
    src = str(Path(lupi.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               PYTHONUNBUFFERED=unbuffered)
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "lupi.cli", *argv], stdout=write,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (EXIT_INPUT, "")


def test_module_entry_point_runs_in_a_fresh_interpreter(capsys, golden_profiles):
    """One golden case per (command, exit status) pair, ``--help`` and a usage
    error, each through ``python -m lupi.cli``: the same stdout, exit status
    and stderr as ``main()`` in-process, and the golden bytes where recorded."""
    src = str(Path(lupi.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    firsts = {}
    for case in GOLDEN:
        firsts.setdefault((case["argv"][0], case["exit"]), case)
    assert len(firsts) == 8
    runs = [([arg.format(**golden_profiles) for arg in case["argv"]], case["exit"], case["stdout"])
            for case in firsts.values()]
    runs += [(["--help"], EXIT_OK, None), (["solve", "--n", "3", "--model"], EXIT_INPUT, "")]
    for argv, status, stdout in runs:
        proc = subprocess.run([sys.executable, "-m", "lupi.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        try:
            main(argv)
        except SystemExit:
            pass
        out, err = capsys.readouterr()
        expected = (status, out if stdout is None else stdout, err)
        assert (proc.returncode, proc.stdout, proc.stderr) == expected, argv
        assert ("lupi: error:" in err) == (status == EXIT_INPUT), argv


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_found_it(capsys, tmp_path, enabled):
    # only the process entry, run(), switches the cyclic collector off and freezes
    path = write_profile(tmp_path, ASYM3)
    was, frozen = gc.isenabled(), gc.get_freeze_count()
    (gc.enable if enabled else gc.disable)()
    try:
        for argv, status in ((["payoff", "--profile", path], EXIT_OK),
                             (["payoff", "--profile", str(tmp_path / "missing.json")], EXIT_INPUT),
                             (["verify", "--profile", path], EXIT_NOT_NASH)):
            assert run_cli(capsys, *argv)[0] == status
            assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen), argv
    finally:
        (gc.enable if was else gc.disable)()


_COLLECTOR_IN_RUN = """
import contextlib, gc, io, json
from lupi import cli
handler, summary, options = cli._COMMANDS["payoff"]
seen = []
def payoff(args):
    seen.append(gc.isenabled())
    return handler(args)
cli._COMMANDS["payoff"] = (payoff, summary, options)
with contextlib.redirect_stdout(io.StringIO()):
    try:
        cli.run()
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, seen, gc.isenabled(), gc.get_freeze_count()]))
"""


@pytest.mark.parametrize("missing, status", [(False, EXIT_OK), (True, EXIT_INPUT)])
def test_a_command_process_runs_without_the_collector_and_exits_frozen(tmp_path, missing, status):
    path = str(tmp_path / "missing.json") if missing else write_profile(tmp_path, ASYM3)
    src = str(Path(lupi.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _COLLECTOR_IN_RUN, "payoff", "--profile", path],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, seen, enabled, frozen = json.loads(proc.stdout)
    assert (code, seen, enabled) == (status, [False], False)
    assert frozen > 0


def test_commands_leave_no_cyclic_garbage_that_grows_with_their_work(tmp_path):
    # the premise of run()'s disabled collector: with it off, a command's cyclic
    # garbage is the same for a small and a large input on every route, so
    # reference counting frees all that grows with the work
    rng = random.Random(30)
    dense = {}
    for n in (5, 12):
        dense[n] = str(tmp_path / f"dense{n}.json")
        save_profile(dense[n], random_profile(rng, n))
    routes = {
        "identical opponents": [["solve", "--n", str(n), "--model", "exact"] for n in (5, 40)],
        "subset program": [["verify", "--profile", dense[n]] for n in (5, 12)],
        "sampler": [["simulate", "--profile", dense[5], "--rounds", str(r)] for r in (100, 100_000)],
        "closed form": [["solve", "--n", str(n), "--model", "paper"] for n in (3, 40)],
    }

    def quiet(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            main(argv)

    was = gc.isenabled()
    gc.disable()
    try:
        for route, (small, large) in routes.items():
            quiet(small)  # loads the route's modules, whose import may leave cycles
            gc.collect()
            counts = []
            for argv in (small, large):
                quiet(argv)
                counts.append(gc.collect())
            assert counts[0] == counts[1], (route, counts)
    finally:
        if was:
            gc.enable()


# ---------------------------------------------------------------------------
# import footprint

_PROFILE_COMMANDS_THEN_SIMULATE = """
import contextlib, io, sys
from lupi.cli import main

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0, (argv, code)
    return out.getvalue()

saved, hetero = sys.argv[1:]
run("solve", "--n", "4", "--model", "paper")
run("solve", "--n", "5", "--model", "exact", "--save-profile", saved)
run("approx", "--n", "6")
run("table", "--max-n", "6")
run("verify", "--profile", saved)
run("best-response", "--profile", saved, "--player", "1")
heavy = {"dataclasses", "inspect", "numpy"} & set(sys.modules)
assert not heavy, f"a symmetric command loaded {sorted(heavy)}"
payoffs = run("payoff", "--profile", hetero, "--format", "json")
run("verify", "--profile", hetero)
run("best-response", "--profile", hetero, "--player", "2")
heavy = {"dataclasses", "inspect", "numpy"} & set(sys.modules)
assert not heavy, f"a heterogeneous payoff command loaded {sorted(heavy)}"
run("simulate", "--profile", hetero, "--rounds", "100")
assert "numpy" in sys.modules
sys.stdout.write(payoffs)
"""


def test_symmetric_commands_leave_numpy_unloaded(capsys, tmp_path):
    saved = tmp_path / "symmetric.json"
    hetero = write_profile(tmp_path, ASYM4)
    src = str(Path(lupi.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", _PROFILE_COMMANDS_THEN_SIMULATE, str(saved), hetero],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, out, _ = run_cli(capsys, "payoff", "--profile", hetero, "--format", "json")
    assert code == EXIT_OK
    assert proc.stdout == out


_MODULES_AFTER = """
import contextlib, io, json, sys
argv = sys.argv[1:]
if argv:
    from lupi.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
else:
    import lupi
print(json.dumps(sorted(sys.modules)))
"""


def _modules_after(*argv):
    """Modules loaded by a fresh interpreter that runs one command, or only
    ``import lupi`` when no command is given."""
    src = str(Path(lupi.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", _MODULES_AFTER, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def test_each_command_loads_only_its_layers(tmp_path):
    saved = str(tmp_path / "symmetric.json")
    solve = _modules_after("solve", "--n", "5", "--model", "exact", "--save-profile", saved)
    assert {"lupi.game", "lupi.solve", "lupi.profiles"} <= solve
    assert not {"lupi.analysis", "lupi.simulate", "numpy", "dataclasses", "inspect"} & solve
    # the closed-form commands never call a kernel, so they never load one
    closed_forms = [_modules_after(*argv) for argv in (("solve", "--n", "3", "--model", "paper"),
                                                       ("approx", "--n", "5"), ("table", "--max-n", "6"))]
    for closed_form in closed_forms:
        assert "lupi.model" in closed_form
        assert not {"lupi._backend", "lupi._kernels_py", "numpy"} & closed_form
    verify = _modules_after("verify", "--profile", saved)
    assert {"lupi.game", "lupi.analysis", "lupi.profiles"} <= verify
    assert not {"lupi.solve", "lupi.simulate", "numpy", "dataclasses", "inspect"} & verify
    bare = _modules_after()
    assert {name for name in bare if name.startswith("lupi")} == {"lupi"}
    assert not {"dataclasses", "inspect", "numpy"} & bare
    hetero = write_profile(tmp_path, ASYM4)
    payoff = _modules_after("payoff", "--profile", hetero)
    best = _modules_after("best-response", "--profile", hetero, "--player", "2")
    assert "lupi.profiles" in best
    simulate = _modules_after("simulate", "--profile", hetero, "--rounds", "100")
    # the closed form is loaded by the `paper` routes only
    for exact in (solve, verify, payoff, best):
        assert "lupi.model" not in exact
    # the layers import the kernel module itself; lupi._backend is left to the benchmark
    for kernel in (solve, verify, payoff, best, simulate):
        assert "lupi._kernels_py" in kernel and "lupi._backend" not in kernel
    # the parser is lupi's own: no command loads argparse, nor the gettext and
    # locale modules that argparse's messages pull in
    for modules in (solve, *closed_forms, verify, payoff, best, simulate):
        assert not {"argparse", "gettext", "locale"} & modules


# imports only io and sys, which every interpreter holds at start-up, before it reads sys.modules
_MODULES_WITHOUT_SITE = """
import io, sys
from lupi.cli import main
shown, sys.stdout = sys.stdout, io.StringIO()
status = main(sys.argv[1:])
sys.stdout = shown
print(status, *sorted(sys.modules))
"""


def test_commands_import_no_module_for_annotations_alone(tmp_path):
    """Each numpy-free command in a fresh interpreter without ``site`` (``-S``),
    whose ``.pth`` files may load much of the standard library: no command
    loads ``typing``, whose names lupi uses in annotations only, and text-format
    ``solve`` and ``approx`` load neither ``re`` nor ``enum``."""
    src = str(Path(lupi.__file__).resolve().parent.parent)
    path = write_profile(tmp_path, ASYM3)
    text = [["solve", "--n", "8", "--model", "exact"], ["solve", "--n", "8", "--model", "paper"],
            ["approx", "--n", "8"]]
    other = [["table", "--max-n", "8"], ["verify", "--profile", path], ["payoff", "--profile", path],
             ["best-response", "--profile", path, "--player", "1"],
             ["payoff", "--profile", path, "--format", "json"], ["solve", "--n", "5", "--format", "csv"]]
    for argv in text + other:
        proc = subprocess.run([sys.executable, "-S", "-c", _MODULES_WITHOUT_SITE, *argv],
                              capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        status, *modules = proc.stdout.split()
        assert int(status) == (EXIT_NOT_NASH if argv[0] == "verify" else EXIT_OK), argv
        assert "lupi.cli" in modules and "typing" not in modules, argv
        if argv in text:
            assert not {"re", "enum"} & set(modules), argv



_BLAS_AFTER = """
import contextlib, io, os
from lupi.cli import run
with contextlib.redirect_stdout(io.StringIO()):
    try:
        run()
    except SystemExit as exc:
        assert exc.code == 0, exc.code
with open("/proc/self/status") as status:
    threads = next(line.split()[1] for line in status if line.startswith("Threads:"))
print(os.environ.get("OPENBLAS_NUM_THREADS"), threads)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads the thread count from /proc")
@pytest.mark.parametrize("preset, expected", [(None, "1"), ("", "1"), ("3", "3")])
def test_simulate_process_starts_no_blas_threads(tmp_path, preset, expected):
    path = write_profile(tmp_path, ASYM4)
    src = str(Path(lupi.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run(
        [sys.executable, "-c", _BLAS_AFTER, "simulate", "--profile", path, "--rounds", "100"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    value, threads = proc.stdout.split()
    assert value == expected
    if expected == "1":
        assert threads == "1"


# ---------------------------------------------------------------------------
# simulate


def test_simulate_is_deterministic(capsys, tmp_path):
    path = write_profile(tmp_path, ASYM3)
    code, first, _ = run_cli(
        capsys, "simulate", "--profile", path, "--rounds", "20000", "--seed", "42",
        "--format", "json",
    )
    assert code == EXIT_OK
    code, second, _ = run_cli(
        capsys, "simulate", "--profile", path, "--rounds", "20000", "--seed", "42",
        "--format", "json",
    )
    assert first == second
    data = json.loads(first)
    assert sum(data["wins"]) + data["no_winner_rounds"] == 20000
    assert data["payoffs"] == pytest.approx([0.5, 0.25, 0.25], abs=0.02)


def test_simulate_seed_defaults_to_zero(capsys, tmp_path):
    path = write_profile(tmp_path, ASYM3)
    _, explicit, _ = run_cli(
        capsys, "simulate", "--profile", path, "--rounds", "1000", "--seed", "0",
        "--format", "json",
    )
    _, default, _ = run_cli(
        capsys, "simulate", "--profile", path, "--rounds", "1000", "--format", "json"
    )
    assert explicit == default


def test_simulate_rejects_zero_rounds(capsys, tmp_path):
    path = write_profile(tmp_path, ASYM3)
    code, _, err = run_cli(capsys, "simulate", "--profile", path, "--rounds", "0")
    assert code == EXIT_INPUT
    assert "rounds" in err


# ---------------------------------------------------------------------------
# round trips and formats


# every profile writer with the exit status of ``verify`` on what it wrote:
# the exact root is an equilibrium at every n, the paper root only at n = 3
SAVED = [
    *((["solve", "--n", str(n), "--model", "paper"], EXIT_OK if n == 3 else EXIT_NOT_NASH)
      for n in (3, 13, 40)),
    *((["solve", "--n", str(n), "--model", "exact"], EXIT_OK) for n in (3, 13, 40)),
    (["approx", "--n", "20"], EXIT_NOT_NASH),
]


@pytest.mark.parametrize("argv, verified", SAVED, ids=[" ".join(argv) for argv, _ in SAVED])
def test_saved_profiles_are_accepted_by_every_reader(capsys, tmp_path, argv, verified):
    saved = str(tmp_path / "saved.json")
    assert run_cli(capsys, *argv, "--save-profile", saved)[0] == EXIT_OK
    assert run_cli(capsys, "verify", "--profile", saved)[0] == verified
    assert run_cli(capsys, "payoff", "--profile", saved)[0] == EXIT_OK
    assert run_cli(capsys, "simulate", "--profile", saved, "--rounds", "100")[0] == EXIT_OK


def test_csv_numbers_are_locale_independent(capsys, tmp_path):
    path = write_profile(tmp_path, ASYM4)
    for argv in (
        ["solve", "--n", "3", "--format", "csv"],
        ["payoff", "--profile", path, "--format", "csv"],
        ["simulate", "--profile", path, "--rounds", "500", "--format", "csv"],
        ["best-response", "--profile", path, "--player", "2", "--format", "csv"],
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        rows = parse_csv(out)
        for row in rows[1:]:
            for cell in row:
                if cell and cell[0].isdigit() and "." in cell:
                    float(cell)  # parses with a '.' separator, no grouping


# ---------------------------------------------------------------------------
# golden output

GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


@pytest.fixture(scope="module")
def golden_profiles(tmp_path_factory):
    """The profile files that the placeholders in ``cli_golden.json`` stand for."""
    root = tmp_path_factory.mktemp("golden")
    paths = {"ASYM3": write_profile(root, ASYM3, "asym3.json"),
             "ASYM4": write_profile(root, ASYM4, "asym4.json")}
    for model in ("paper", "exact"):
        paths[f"{model.upper()}40"] = path = str(root / f"{model}40.json")
        save_profile(path, StrategyProfile.symmetric(solve_symmetric(40, model=model).strategy))
    return paths


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["argv"]) for c in GOLDEN])
def test_output_matches_golden_bytes(capsys, golden_profiles, case):
    """Every command in every format prints exactly the recorded bytes.

    ``cli_golden.json`` holds one case per command line: argv, exit status
    and stdout. In argv, ``{ASYM3}`` and ``{ASYM4}`` stand for the profiles
    of the same names above, and ``{PAPER40}`` and ``{EXACT40}`` for the
    symmetric profiles of the n = 40 ``paper`` and ``exact`` roots.
    """
    code, out, _ = run_cli(capsys, *(arg.format(**golden_profiles) for arg in case["argv"]))
    assert (code, out) == (case["exit"], case["stdout"])
    if case["argv"][-1] == "json":
        json.loads(out, parse_constant=_reject_constant)
