"""Command-line interface.

Subcommands: solve, table, verify, payoff, best-response, approx, simulate.
Every command supports ``--format text|csv|json``. Exit status mapping is
fixed: 0 success or verified, 1 input or usage error, 2 verified-false,
3 solver non-convergence.

Values are carried at full precision everywhere; the only place rounding
happens is the rendering of the ``table`` command, which rounds half up to
three significant figures.

Each command imports the layers it runs when it runs; the parser's
constants come from ``lupi.game``, which every command needs.
"""

from __future__ import annotations

import argparse
import sys

from .game import (
    DEFAULT_EPSILON,
    MAX_SOLVER_N,
    MIN_SOLVER_N,
    MODEL_PAPER,
    MODELS,
    GameSpec,
    StrategyProfile,
    exact_profile_payoffs,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_NASH = 2
EXIT_NO_CONVERGENCE = 3

# largest n for the profile commands (verify, payoff, simulate,
# best-response); solve, approx and table go up to MAX_SOLVER_N
MAX_CLI_N = 12


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors exit with status 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


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


def _num(value: float) -> str:
    return repr(float(value))


def _csv_text(rows) -> str:
    import csv
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerows(rows)
    return buffer.getvalue().rstrip("\n")


def _print_json(payload) -> None:
    import json

    print(json.dumps(payload, indent=2))


def _player_names(n, labels):
    if labels:
        return [f"{i + 1} ({labels[i]})" for i in range(n)]
    return [str(i + 1) for i in range(n)]


def _check_cli_n(n: int, low: int = 2) -> None:
    if n < low or n > MAX_CLI_N:
        raise ValueError(f"n={n} is outside the supported range {low}..{MAX_CLI_N}")


def _check_solver_n(n: int, flag: str) -> None:
    if not MIN_SOLVER_N <= n <= MAX_SOLVER_N:
        raise ValueError(f"{flag} must be between {MIN_SOLVER_N} and {MAX_SOLVER_N}, got {n}")


# ---------------------------------------------------------------------------
# solve


def _cmd_solve(args) -> int:
    from .solve import solve_symmetric

    _check_solver_n(args.n, "--n")
    spec = GameSpec(args.n)
    result = solve_symmetric(
        spec, model=args.model, tol=args.tol, max_iterations=args.max_iter
    )
    if args.save_profile:
        from .profiles import save_profile

        save_profile(args.save_profile, StrategyProfile.symmetric(result.strategy))
    if args.format == "json":
        _print_json(
            {
                "model": result.model,
                "n": result.n,
                "converged": result.converged,
                "iterations": result.iterations,
                "residual_norm": result.residual_norm,
                "payoff": result.payoff,
                "full_support": result.full_support,
                "strategy": list(result.strategy.probs),
            }
        )
    elif args.format == "csv":
        header = ["model", "n", "converged", "iterations", "residual_norm", "payoff", "full_support"]
        header += [f"p{i + 1}" for i in range(result.n)]
        row = [
            result.model,
            result.n,
            result.converged,
            result.iterations,
            _num(result.residual_norm),
            _num(result.payoff),
            result.full_support,
        ]
        row += [_num(p) for p in result.strategy.probs]
        print(_csv_text([header, row]))
    else:
        print(f"model: {result.model}")
        print(f"n: {result.n}")
        print(f"converged: {'yes' if result.converged else 'no'}")
        print(f"iterations: {result.iterations}")
        print(f"residual_norm: {_num(result.residual_norm)}")
        print(f"payoff: {_num(result.payoff)}")
        print("strategy: " + " ".join(_num(p) for p in result.strategy.probs))
        if not result.full_support:
            print("warning: strategy sits on the simplex boundary")
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


# ---------------------------------------------------------------------------
# table


def _table_data(max_n: int):
    from .model import geometric_payoff, two_choice_baseline
    from .solve import solve_symmetric

    ns = list(range(3, max_n + 1))
    approx = [geometric_payoff(GameSpec(n)) for n in ns]
    reference = [two_choice_baseline(GameSpec(n)) for n in ns]
    exact = []
    for n in ns:
        if n <= 4:
            exact.append(solve_symmetric(GameSpec(n), model=MODEL_PAPER).payoff)
        else:
            exact.append(None)
    return ns, approx, reference, exact


def _cmd_table(args) -> int:
    _check_solver_n(args.max_n, "--max-n")
    ns, approx, reference, exact = _table_data(args.max_n)
    if args.format == "json":
        _print_json(
            {
                "n": ns,
                "approx": approx,
                "reference": reference,
                "exact": exact,
            }
        )
        return EXIT_OK
    cells = [
        ["row"] + [str(n) for n in ns],
        ["approx"] + [format_sig3(v) for v in approx],
        ["reference"] + [format_sig3(v) for v in reference],
        ["exact"] + [format_sig3(v) if v is not None else "" for v in exact],
    ]
    if args.format == "csv":
        print(_csv_text(cells))
    else:
        widths = [max(len(row[c]) for row in cells) for c in range(len(cells[0]))]
        for row in cells:
            print("  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip())
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args) -> int:
    from .analysis import verify_profile
    from .profiles import load_profile

    profile, labels = load_profile(args.profile)
    _check_cli_n(profile.n)
    report = verify_profile(profile, epsilon=args.eps)
    names = _player_names(profile.n, labels)
    if args.format == "json":
        _print_json(
            {
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
        )
    elif args.format == "csv":
        rows = [
            [
                "player",
                "label",
                "payoff",
                "best_response_value",
                "deviation_gain",
                "best_picks",
                "indifferent_deviations",
            ]
        ]
        for i in range(profile.n):
            rows.append(
                [
                    i + 1,
                    labels[i] if labels else "",
                    _num(report.payoffs[i]),
                    _num(report.best_response_values[i]),
                    _num(report.deviation_gains[i]),
                    ";".join(str(p) for p in report.best_response_picks[i]),
                    report.indifferent_deviations[i],
                ]
            )
        print(_csv_text(rows))
    else:
        print(f"n: {profile.n}")
        print(f"epsilon: {_num(report.epsilon)}")
        for i in range(profile.n):
            line = (
                f"player {names[i]}: payoff {_num(report.payoffs[i])}"
                f" | best response {_num(report.best_response_values[i])}"
                f" (picks {','.join(str(p) for p in report.best_response_picks[i])})"
                f" | gain {_num(report.deviation_gains[i])}"
            )
            if report.indifferent_deviations[i]:
                line += " | indifferent deviations exist"
            print(line)
        print(f"payoff_sum: {_num(report.payoff_sum)}")
        print(f"payoff_sum_maximal: {'yes' if report.is_payoff_sum_maximal else 'no'}")
        print(f"nash_equilibrium: {'yes' if report.is_nash else 'no'}")
    return EXIT_OK if report.is_nash else EXIT_NOT_NASH


# ---------------------------------------------------------------------------
# payoff


def _cmd_payoff(args) -> int:
    from .profiles import load_profile

    profile, labels = load_profile(args.profile)
    _check_cli_n(profile.n)
    payoffs = exact_profile_payoffs(profile)
    names = _player_names(profile.n, labels)
    total = sum(payoffs)
    if args.format == "json":
        _print_json(
            {
                "n": profile.n,
                "payoffs": list(payoffs),
                "payoff_sum": total,
                "labels": labels,
            }
        )
    elif args.format == "csv":
        rows = [["player", "label", "payoff"]]
        for i, value in enumerate(payoffs):
            rows.append([i + 1, labels[i] if labels else "", _num(value)])
        print(_csv_text(rows))
    else:
        for i, value in enumerate(payoffs):
            print(f"player {names[i]}: {_num(value)}")
        print(f"payoff_sum: {_num(total)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# best-response


def _parse_vector(text: str):
    try:
        return tuple(float(token) for token in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse probability vector {text!r}") from None


def _cmd_best_response(args) -> int:
    from .analysis import best_response

    _check_cli_n(args.n)
    spec = GameSpec(args.n)
    others = [_parse_vector(text) for text in args.others]
    values, picks = best_response(spec, others)
    if args.format == "json":
        _print_json({"n": args.n, "values": list(values), "best_picks": list(picks)})
    elif args.format == "csv":
        rows = [["choice", "value", "is_best"]]
        for i, value in enumerate(values):
            rows.append([i + 1, _num(value), i + 1 in picks])
        print(_csv_text(rows))
    else:
        for i, value in enumerate(values):
            print(f"choice {i + 1}: {_num(value)}")
        print("best: " + ",".join(str(p) for p in picks))
    return EXIT_OK


# ---------------------------------------------------------------------------
# approx


def _cmd_approx(args) -> int:
    from .model import geometric_payoff, geometric_strategy

    _check_solver_n(args.n, "--n")
    spec = GameSpec(args.n)
    strategy = geometric_strategy(spec)
    payoff = geometric_payoff(spec)
    if args.save_profile:
        from .profiles import save_profile

        save_profile(args.save_profile, StrategyProfile.symmetric(strategy))
    if args.format == "json":
        _print_json({"n": args.n, "strategy": list(strategy.probs), "payoff": payoff})
    elif args.format == "csv":
        header = ["n", "payoff"] + [f"p{i + 1}" for i in range(args.n)]
        row = [args.n, _num(payoff)] + [_num(p) for p in strategy.probs]
        print(_csv_text([header, row]))
    else:
        print(f"n: {args.n}")
        print("strategy: " + " ".join(_num(p) for p in strategy.probs))
        print(f"payoff: {_num(payoff)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate


def _cmd_simulate(args) -> int:
    from .profiles import load_profile
    from .simulate import simulate

    profile, labels = load_profile(args.profile)
    _check_cli_n(profile.n)
    stats = simulate(profile, args.rounds, args.seed)
    names = _player_names(profile.n, labels)
    if args.format == "json":
        _print_json(
            {
                "n": profile.n,
                "rounds": stats.rounds,
                "seed": stats.seed,
                "no_winner_rounds": stats.no_winner_rounds,
                "wins": list(stats.wins),
                "payoffs": list(stats.payoffs),
                "standard_errors": list(stats.standard_errors),
                "labels": labels,
            }
        )
    elif args.format == "csv":
        rows = [["player", "label", "wins", "payoff", "standard_error"]]
        for i in range(profile.n):
            rows.append(
                [
                    i + 1,
                    labels[i] if labels else "",
                    stats.wins[i],
                    _num(stats.payoffs[i]),
                    _num(stats.standard_errors[i]),
                ]
            )
        print(_csv_text(rows))
    else:
        print(f"rounds: {stats.rounds}")
        print(f"seed: {stats.seed}")
        print(f"no_winner_rounds: {stats.no_winner_rounds}")
        for i in range(profile.n):
            print(
                f"player {names[i]}: wins {stats.wins[i]}"
                f" | payoff {_num(stats.payoffs[i])}"
                f" | stderr {_num(stats.standard_errors[i])}"
            )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_format(parser) -> None:
    parser.add_argument(
        "--format",
        choices=("text", "csv", "json"),
        default="text",
        help="output format (default: text)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lupi",
        description="Analyze the lowest-unique-positive-integer game.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    solver_range = f"({MIN_SOLVER_N}..{MAX_SOLVER_N})"

    p = sub.add_parser("solve", help="find the symmetric equilibrium strategy")
    p.add_argument("--n", type=int, required=True, help=f"number of players {solver_range}")
    p.add_argument(
        "--model",
        choices=MODELS,
        default=MODEL_PAPER,
        help="payoff model: 'paper' (closed form) or 'exact' (exact win probabilities)",
    )
    p.add_argument("--tol", type=float, default=None, help="convergence threshold (default per model)")
    p.add_argument("--max-iter", type=int, default=100, help="cap on the steps of the scalar search")
    p.add_argument("--save-profile", metavar="PATH", help="write the symmetric profile as JSON")
    _add_format(p)
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("table", help="payoff comparison table across player counts")
    p.add_argument("--max-n", type=int, default=8, help=f"largest player count {solver_range}")
    _add_format(p)
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("verify", help="check whether a profile is a Nash equilibrium")
    p.add_argument("--profile", required=True, help="profile document (JSON)")
    p.add_argument("--eps", type=float, default=DEFAULT_EPSILON, help="gain tolerance")
    _add_format(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("payoff", help="exact expected payoffs of a profile")
    p.add_argument("--profile", required=True, help="profile document (JSON)")
    _add_format(p)
    p.set_defaults(handler=_cmd_payoff)

    p = sub.add_parser("best-response", help="pure-choice values against given opponents")
    p.add_argument("--n", type=int, required=True, help=f"number of players (2..{MAX_CLI_N})")
    p.add_argument(
        "--others",
        nargs="+",
        required=True,
        metavar="PROBS",
        help="n-1 opponent strategies, each as comma-separated probabilities",
    )
    _add_format(p)
    p.set_defaults(handler=_cmd_best_response)

    p = sub.add_parser("approx", help="geometric strategy and its payoff")
    p.add_argument("--n", type=int, required=True, help=f"number of players {solver_range}")
    p.add_argument("--save-profile", metavar="PATH", help="write the symmetric profile as JSON")
    _add_format(p)
    p.set_defaults(handler=_cmd_approx)

    p = sub.add_parser("simulate", help="seeded Monte Carlo estimate of profile payoffs")
    p.add_argument("--profile", required=True, help="profile document (JSON)")
    p.add_argument("--rounds", type=int, required=True, help="number of rounds to play")
    p.add_argument("--seed", type=int, default=0, help="random seed (default: 0)")
    _add_format(p)
    p.set_defaults(handler=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"lupi: error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
