"""Command-line interface.

Subcommands: solve, table, verify, payoff, best-response, approx, simulate.
Every command supports ``--format text|csv|json``. Exit status mapping is
fixed: 0 success or verified, 1 input or usage error, 2 verified-false,
3 solver non-convergence.

Each command builds its result once, as an ordered record plus, where
needed, csv rows and text lines, and ``_show`` prints it under three rules:

- json prints the record itself, at full precision;
- csv prints the command's rows (one per player or choice), or else one
  wide row: the record's scalars in order, then its one list as p1..pn;
  floats use repr, lists are joined by ";", bools print as True/False;
- text prints the command's lines, or else one ``name: value`` line per
  field; floats use repr, lists are joined by spaces, bools print as yes/no.

Values are carried at full precision everywhere; the only place rounding
happens is the rendering of the ``table`` command, which rounds half up to
three significant figures.

Each command imports the layers it runs when it runs; the parser's
constants come from ``lupi.game``, which every command needs.
"""

from __future__ import annotations

import gc
import os
import sys
from types import SimpleNamespace

from .game import (
    DEFAULT_EPSILON,
    MAX_SOLVER_N,
    MIN_SOLVER_N,
    MODEL_PAPER,
    MODELS,
    StrategyProfile,
    _total,
    exact_profile_payoffs,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_NASH = 2
EXIT_NO_CONVERGENCE = 3


def format_sig3(value: float) -> str:
    """Render a number rounded half-up to three significant figures.

    Half-up, not banker's rounding: 0.03125 renders as 0.0313. Trailing
    zeros are dropped (0.250 renders as 0.25).
    """
    from decimal import ROUND_HALF_UP, Decimal

    if value == 0:
        return "0"
    d = Decimal(value)
    adjust = d.adjusted()
    q = d.scaleb(2 - adjust).quantize(Decimal(1), rounding=ROUND_HALF_UP).scaleb(adjust - 2)
    return format(q.normalize(), "f")


# ---------------------------------------------------------------------------
# rendering


def _num(value: float) -> str:
    return repr(float(value))


def _text_value(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return _num(value)
    if isinstance(value, list):
        return " ".join(map(_text_value, value))
    return str(value)


def _csv_cell(value) -> str:
    if isinstance(value, list):
        return ";".join(map(_csv_cell, value))
    if isinstance(value, float):
        return _num(value)
    return str(value)


def _fields(record) -> list:
    """One ``name: value`` text line per field of ``record``."""
    return [f"{name}: {_text_value(value)}" for name, value in record.items()]


def _show(fmt: str, record: dict, rows=None, text=None) -> None:
    """Print one command's result in ``fmt`` by the rules of the module docstring."""
    if fmt == "json":
        import json

        print(json.dumps(record, indent=2))
    elif fmt == "csv":
        import csv
        import io

        if rows is None:
            names = [name for name, value in record.items() if not isinstance(value, list)]
            (values,) = [value for value in record.values() if isinstance(value, list)]
            header = names + [f"p{i + 1}" for i in range(len(values))]
            rows = [header, [record[name] for name in names] + values]
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerows([_csv_cell(value) for value in row] for row in rows)
        print(buffer.getvalue().rstrip("\n"))
    else:
        print("\n".join(_fields(record) if text is None else text))


def _player_names(n, labels):
    return [f"{i + 1} ({labels[i]})" if labels else str(i + 1) for i in range(n)]


def _player_rows(labels, *columns) -> list:
    """csv rows of player number, label (blank without labels), then one cell per column."""
    return [[i + 1, labels[i] if labels else "", *cells] for i, cells in enumerate(zip(*columns))]


# ---------------------------------------------------------------------------
# commands: each returns (exit status, record, csv rows or None, text lines or None)


def _check_n(n: int, name: str) -> None:
    """Reject n outside the solver's range; the exact kernels bound their own work."""
    if not MIN_SOLVER_N <= n <= MAX_SOLVER_N:
        raise ValueError(f"{name} must be between {MIN_SOLVER_N} and {MAX_SOLVER_N}, got {n}")


def _save_symmetric(path, strategy) -> None:
    """Write the symmetric profile of ``strategy`` to ``path``, if one was given."""
    if path is not None:
        from .profiles import save_profile

        save_profile(path, StrategyProfile.symmetric(strategy))


def _cmd_solve(args):
    from .solve import solve_symmetric

    result = solve_symmetric(args.n, model=args.model)
    _save_symmetric(args.save_profile, result.strategy)
    record = {
        "model": result.model,
        "n": result.n,
        "converged": result.converged,
        "iterations": result.iterations,
        "residual_norm": result.residual_norm,
        "payoff": result.payoff,
        "full_support": result.full_support,
        "strategy": list(result.strategy.probs),
    }
    text = _fields({name: value for name, value in record.items() if name != "full_support"})
    if not result.full_support:
        text.append("warning: strategy sits on the simplex boundary")
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE, record, None, text


def _cmd_table(args):
    from .model import geometric_payoff, two_choice_baseline
    from .solve import solve_symmetric

    _check_n(args.max_n, "--max-n")
    ns = list(range(3, args.max_n + 1))
    record = {
        "n": ns,
        "approx": [geometric_payoff(n) for n in ns],
        "reference": [two_choice_baseline(n) for n in ns],
        "exact": [solve_symmetric(n, model=MODEL_PAPER).payoff if n <= 4 else None for n in ns],
    }
    rows = [["row"] + [str(n) for n in ns]]
    for name in ("approx", "reference", "exact"):
        rows.append([name] + [format_sig3(v) if v is not None else "" for v in record[name]])
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    text = ["  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip() for row in rows]
    return EXIT_OK, record, rows, text


def _cmd_verify(args):
    from .analysis import verify_profile
    from .profiles import load_profile

    profile, labels = load_profile(args.profile)
    report = verify_profile(profile, epsilon=args.eps)
    record = {
        "n": profile.n,
        "model": report.model,
        "epsilon": report.epsilon,
        "is_nash": report.is_nash,
        "payoff_sum": report.payoff_sum,
        "is_payoff_sum_maximal": report.is_payoff_sum_maximal,
        "payoffs": list(report.payoffs),
        "best_response_values": list(report.best_response_values),
        "deviation_gains": list(report.deviation_gains),
        "best_response_picks": [list(p) for p in report.best_response_picks],
        "indifferent_deviations": list(report.indifferent_deviations),
        "labels": labels,
    }
    columns = [record[name] for name in ("payoffs", "best_response_values", "deviation_gains",
                                         "best_response_picks", "indifferent_deviations")]
    rows = [["player", "label", "payoff", "best_response_value", "deviation_gain",
             "best_picks", "indifferent_deviations"]]
    rows += _player_rows(labels, *columns)
    names = _player_names(profile.n, labels)
    text = _fields({"n": profile.n, "epsilon": report.epsilon})
    for name, payoff, best, gain, picks, indifferent in zip(names, *columns):
        line = (
            f"player {name}: payoff {_num(payoff)}"
            f" | best response {_num(best)} (picks {','.join(map(str, picks))})"
            f" | gain {_num(gain)}"
        )
        text.append(line + " | indifferent deviations exist" if indifferent else line)
    text += _fields({
        "payoff_sum": report.payoff_sum,
        "payoff_sum_maximal": report.is_payoff_sum_maximal,
        "nash_equilibrium": report.is_nash,
    })
    return EXIT_OK if report.is_nash else EXIT_NOT_NASH, record, rows, text


def _cmd_payoff(args):
    from .profiles import load_profile

    profile, labels = load_profile(args.profile)
    payoffs = list(exact_profile_payoffs(profile))
    record = {"n": profile.n, "payoffs": payoffs, "payoff_sum": _total(payoffs), "labels": labels}
    rows = [["player", "label", "payoff"]] + _player_rows(labels, payoffs)
    names = _player_names(profile.n, labels)
    text = [f"player {name}: {_num(value)}" for name, value in zip(names, payoffs)]
    text += _fields({"payoff_sum": record["payoff_sum"]})
    return EXIT_OK, record, rows, text


def _cmd_best_response(args):
    from .analysis import best_response
    from .profiles import load_profile

    profile, labels = load_profile(args.profile)
    n, i = profile.n, args.player - 1
    if not 0 <= i < n:
        raise ValueError(f"--player must be between 1 and {n}, got {args.player}")
    values, picks = best_response(profile.strategies[:i] + profile.strategies[i + 1:])
    record = {"n": n, "player": args.player, "label": labels[i] if labels else None,
              "values": list(values), "best_picks": list(picks)}
    rows = [["choice", "value", "is_best"]]
    rows += [[c + 1, value, c + 1 in picks] for c, value in enumerate(values)]
    text = [f"player: {_player_names(n, labels)[i]}"]
    text += [f"choice {c + 1}: {_num(value)}" for c, value in enumerate(values)]
    text.append("best: " + ",".join(map(str, picks)))
    return EXIT_OK, record, rows, text


def _cmd_approx(args):
    from .model import geometric_payoff, geometric_strategy

    _check_n(args.n, "--n")
    strategy = geometric_strategy(args.n)
    _save_symmetric(args.save_profile, strategy)
    record = {"n": args.n, "strategy": list(strategy.probs), "payoff": geometric_payoff(args.n)}
    return EXIT_OK, record, None, None


def _cmd_simulate(args):
    from .profiles import load_profile
    from .simulate import simulate

    profile, labels = load_profile(args.profile)
    stats = simulate(profile, args.rounds, args.seed)
    record = {
        "n": profile.n,
        "rounds": stats.rounds,
        "seed": stats.seed,
        "no_winner_rounds": stats.no_winner_rounds,
        "wins": list(stats.wins),
        "payoffs": list(stats.payoffs),
        "standard_errors": list(stats.standard_errors),
        "labels": labels,
    }
    columns = (record["wins"], record["payoffs"], record["standard_errors"])
    rows = [["player", "label", "wins", "payoff", "standard_error"]]
    rows += _player_rows(labels, *columns)
    names = _player_names(profile.n, labels)
    text = _fields({name: record[name] for name in ("rounds", "seed", "no_winner_rounds")})
    for name, wins, payoff, error in zip(names, *columns):
        text.append(f"player {name}: wins {wins} | payoff {_num(payoff)} | stderr {_num(error)}")
    return EXIT_OK, record, rows, text


# ---------------------------------------------------------------------------
# parser


class _Option:
    """A command's option, which takes one value; ``dest`` is the flag's name."""

    def __init__(self, flag, help, type=str, default=None, required=False, choices=None):
        self.flag, self.dest, self.help, self.type = flag, flag[2:].replace("-", "_"), help, type
        self.default, self.required, self.choices = default, required, choices
        self.form = f"{flag} " + ("{" + ",".join(choices) + "}" if choices else self.dest.upper())

    def read(self, command, text):
        if self.choices and text not in self.choices:
            _exit(command, f"argument {self.form}: invalid choice: {text!r}")
        try:
            return self.type(text)
        except ValueError:
            _exit(command, f"argument {self.flag}: invalid {self.type.__name__} value: {text!r}")


_N = _Option("--n", f"number of players ({MIN_SOLVER_N}..{MAX_SOLVER_N})", int, required=True)
_PROFILE = _Option("--profile", "profile document (JSON)", required=True)
_SAVE = _Option("--save-profile", "write the symmetric profile as JSON")
_FORMAT = _Option("--format", "output format (default: text)", default="text", choices=("text", "csv", "json"))
# command -> (handler, summary, options)
_COMMANDS = {
    "solve": (_cmd_solve, "find the symmetric equilibrium strategy", [
        _N, _Option("--model", "payoff model: 'paper' (closed form) or 'exact' (exact win probabilities)",
                    default=MODEL_PAPER, choices=MODELS), _SAVE, _FORMAT]),
    "table": (_cmd_table, "payoff comparison table across player counts", [
        _Option("--max-n", f"largest player count ({MIN_SOLVER_N}..{MAX_SOLVER_N})", int, default=8),
        _FORMAT]),
    "verify": (_cmd_verify, "check whether a profile is a Nash equilibrium", [
        _PROFILE, _Option("--eps", "gain tolerance", float, default=DEFAULT_EPSILON), _FORMAT]),
    "payoff": (_cmd_payoff, "exact expected payoffs of a profile", [_PROFILE, _FORMAT]),
    "best-response": (_cmd_best_response, "one player's pure-choice values against the others", [
        _PROFILE, _Option("--player", "player to score (1..n)", int, required=True), _FORMAT]),
    "approx": (_cmd_approx, "geometric strategy and its payoff", [_N, _SAVE, _FORMAT]),
    "simulate": (_cmd_simulate, "seeded Monte Carlo estimate of profile payoffs", [
        _PROFILE, _Option("--rounds", "number of rounds to play", int, required=True),
        _Option("--seed", "random seed (default: 0)", int, default=0), _FORMAT]),
}


def _exit(command, error=None):
    """Exit 1 with the usage of ``command`` and ``error`` on stderr, or 0 with its help on stdout."""
    table = _COMMANDS[command][2] if command else []
    usage = ["usage: lupi", command or "{" + ",".join(_COMMANDS) + "}"]
    usage = " ".join(usage + [o.form for o in table if o.required] + ["[options]"])
    rows = [(o.form, o.help) for o in table] if command else [(c, e[1]) for c, e in _COMMANDS.items()]
    rows.append(("-h, --help", "show this help message and exit"))
    width = max(len(left) for left, _ in rows)
    lines = [f"lupi: error: {error}"] if error else [""] + [f"  {left.ljust(width)}  {text}" for left, text in rows]
    print("\n".join([usage] + lines), file=sys.stderr if error else sys.stdout, flush=True)
    raise SystemExit(EXIT_INPUT if error else EXIT_OK)


def _parse(argv):
    """(handler, options) of a command line; a flag starts with "--" or is -h, any other token is a value."""
    if not argv or argv[0] not in _COMMANDS:
        _exit(None, None if argv[:1] in (["-h"], ["--help"]) else "the first argument must be a command")
    (handler, _, table), command, rest, values = _COMMANDS[argv[0]], argv[0], argv[1:], {}
    options = {option.flag: option for option in table}
    while rest:
        token = rest.pop(0)
        flag, inline, text = token.partition("=")
        if flag not in options:
            _exit(command, None if token in ("-h", "--help") else f"unrecognized argument: {token}")
        if not inline:
            if not rest or rest[0][:2] == "--" or rest[0] == "-h":
                _exit(command, f"argument {flag}: expected one argument")
            text = rest.pop(0)
        values[options[flag].dest] = options[flag].read(command, text)
    if missing := [option.flag for option in table if option.required and option.dest not in values]:
        _exit(command, "the following arguments are required: " + ", ".join(missing))
    return handler, SimpleNamespace(**{o.dest: values.get(o.dest, o.default) for o in table})


def main(argv=None) -> int:
    handler, args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        status, *shown = handler(args)
        _show(args.format, *shown)
    except ValueError as exc:
        print(f"lupi: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return status


def run() -> None:
    # lupi makes no BLAS call, and numpy's OpenBLAS otherwise (also when the variable is
    # empty) starts a worker thread per extra core at import, which spins and takes CPU
    if not os.environ.get("OPENBLAS_NUM_THREADS"):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    # a command leaves no cyclic garbage that grows with its work, so the process skips
    # the collector's passes: none while it runs, and none over the frozen objects at exit
    gc.disable()
    try:
        status = main()
        sys.stdout.flush()  # a reader that closed stdout shows here, not at exit
    except BrokenPipeError:
        # as Python's signal docs advise: stdout to devnull, so that the flush at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = EXIT_INPUT
    finally:
        gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()
