"""Command-line surface: formats, exit codes, file handling, round trips."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lupi
from lupi.cli import EXIT_INPUT, EXIT_NO_CONVERGENCE, EXIT_NOT_NASH, EXIT_OK, format_sig3, main

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


def test_solve_nonconvergence_exit_code(capsys):
    code, out, _ = run_cli(capsys, "solve", "--n", "4", "--max-iter", "1")
    assert code == EXIT_NO_CONVERGENCE
    assert "converged: no" in out


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
    code, _, err = run_cli(capsys, "table", "--max-n", "13")
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


def test_verify_rejects_oversized_n(capsys, tmp_path):
    n = 13
    row = [1.0 / n] * n
    path = write_profile(tmp_path, {"n": n, "strategies": [row] * n})
    code, _, err = run_cli(capsys, "verify", "--profile", path)
    assert code == EXIT_INPUT
    assert "12" in err


def test_payoff_csv(capsys, tmp_path):
    path = write_profile(tmp_path, ASYM3)
    code, out, _ = run_cli(capsys, "payoff", "--profile", path, "--format", "csv")
    assert code == EXIT_OK
    rows = parse_csv(out)
    assert rows[0] == ["player", "label", "payoff"]
    assert [float(r[2]) for r in rows[1:]] == pytest.approx([0.5, 0.25, 0.25], abs=1e-12)


# ---------------------------------------------------------------------------
# best-response / approx


def test_best_response_matches_reported_values(capsys):
    code, out, _ = run_cli(
        capsys, "best-response", "--n", "3", "--others", "0.5,0.5,0", "0.5,0.5,0"
    )
    assert code == EXIT_OK
    assert "choice 3: 0.5" in out
    assert out.strip().splitlines()[-1] == "best: 3"


def test_best_response_wrong_count(capsys):
    code, _, err = run_cli(capsys, "best-response", "--n", "3", "--others", "0.5,0.5,0")
    assert code == EXIT_INPUT
    assert "2" in err


def test_best_response_bad_vector(capsys):
    code, _, err = run_cli(capsys, "best-response", "--n", "3", "--others", "a,b,c", "0.5,0.5,0")
    assert code == EXIT_INPUT


def test_approx_reports_strategy_and_payoff(capsys):
    code, out, _ = run_cli(capsys, "approx", "--n", "3")
    assert code == EXIT_OK
    assert "strategy: 0.5 0.25 0.25" in out
    assert "payoff: 0.28125" in out


def test_approx_range(capsys):
    code, _, _ = run_cli(capsys, "approx", "--n", "2")
    assert code == EXIT_INPUT


# ---------------------------------------------------------------------------
# import footprint

_SYMMETRIC_THEN_PAYOFF = """
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
run("best-response", "--n", "3", "--others", "0.5,0.3,0.2", "0.5,0.3,0.2")
assert "numpy" not in sys.modules, "a symmetric command loaded numpy"
payoffs = run("payoff", "--profile", hetero, "--format", "json")
assert "numpy" in sys.modules
sys.stdout.write(payoffs)
"""


def test_symmetric_commands_leave_numpy_unloaded(capsys, tmp_path):
    saved = tmp_path / "symmetric.json"
    hetero = write_profile(tmp_path, ASYM4)
    src = str(Path(lupi.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", _SYMMETRIC_THEN_PAYOFF, str(saved), hetero],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, out, _ = run_cli(capsys, "payoff", "--profile", hetero, "--format", "json")
    assert code == EXIT_OK
    assert proc.stdout == out


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


def test_saved_profiles_are_accepted_by_every_reader(capsys, tmp_path):
    saved = str(tmp_path / "solved.json")
    code, _, _ = run_cli(capsys, "solve", "--n", "3", "--save-profile", saved)
    assert code == EXIT_OK
    code, _, _ = run_cli(capsys, "verify", "--profile", saved)
    assert code == EXIT_OK  # the solved strategy verifies as an equilibrium
    code, _, _ = run_cli(capsys, "payoff", "--profile", saved)
    assert code == EXIT_OK
    code, _, _ = run_cli(capsys, "simulate", "--profile", saved, "--rounds", "100")
    assert code == EXIT_OK

    saved = str(tmp_path / "approx.json")
    code, _, _ = run_cli(capsys, "approx", "--n", "4", "--save-profile", saved)
    assert code == EXIT_OK
    code, _, _ = run_cli(capsys, "payoff", "--profile", saved)
    assert code == EXIT_OK


def test_csv_numbers_are_locale_independent(capsys, tmp_path):
    path = write_profile(tmp_path, ASYM4)
    for argv in (
        ["solve", "--n", "3", "--format", "csv"],
        ["payoff", "--profile", path, "--format", "csv"],
        ["simulate", "--profile", path, "--rounds", "500", "--format", "csv"],
        ["best-response", "--n", "3", "--others", "0.5,0.5,0", "0.5,0.5,0", "--format", "csv"],
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        rows = parse_csv(out)
        for row in rows[1:]:
            for cell in row:
                if cell and cell[0].isdigit() and "." in cell:
                    float(cell)  # parses with a '.' separator, no grouping
