"""Analysis toolkit for the lowest-unique-positive-integer game.

n players each pick an integer from 1..n; the smallest integer picked by
exactly one player wins that player a utility of one. The package computes
exact expected payoffs by dynamic programming, evaluates the closed-form
payoff model and the geometric approximate strategy, finds symmetric
equilibria for both models by one-dimensional shooting, verifies
equilibrium claims against the exact oracle, and runs seeded Monte Carlo
simulations.

``import lupi`` loads none of the package's modules: a module
``__getattr__`` (PEP 562) imports each public name from its module on first
access, so a program, the command line included, loads only what it uses.
"""

import sys
import types
from importlib import import_module

__version__ = "0.1.0"

# module that defines each public name
_HOMES = {
    name: module
    for module, names in [
        ("_backend", "backend_name"),
        ("analysis", "VerificationReport best_response indifference_spread pure_choice_values"
                     " verify_profile"),
        ("game", "DEFAULT_EPSILON GameSpec MAX_SOLVER_N MIN_SOLVER_N MixedStrategy MODEL_EXACT"
                 " MODEL_PAPER MODELS StrategyProfile as_strategy exact_profile_payoffs"
                 " win_probabilities"),
        ("model", "closed_form_gradient closed_form_payoff geometric_payoff geometric_strategy"
                  " two_choice_baseline"),
        ("profiles", "load_profile parse_profile_document save_profile"),
        ("simulate", "SimulationStats simulate"),
        ("solve", "SolveResult solve_symmetric"),
    ]
    for name in names.split()
}
__all__ = sorted(_HOMES)


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOMES))


class _Package(types.ModuleType):
    """Module type whose submodules, once imported, hide no public name (``simulate``)."""

    def __setattr__(self, name, value):
        if not (name in _HOMES and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
