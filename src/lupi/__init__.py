"""Analysis toolkit for the lowest-unique-positive-integer game.

n players each pick an integer from 1..n; the smallest integer picked by
exactly one player wins that player a utility of one. The package computes
exact expected payoffs by dynamic programming, evaluates the closed-form
payoff model and the geometric approximate strategy, finds symmetric
equilibria for both models by one-dimensional shooting, verifies
equilibrium claims against the exact oracle, and runs seeded Monte Carlo
simulations.
"""

from ._backend import backend_name
from .analysis import (
    DEFAULT_EPSILON,
    VerificationReport,
    best_response,
    indifference_spread,
    pure_choice_values,
    verify_profile,
)
from .game import (
    GameSpec,
    MixedStrategy,
    StrategyProfile,
    adjudicate,
    as_strategy,
    exact_profile_payoffs,
    exact_pure_vs_mixed,
    win_probabilities,
)
from .model import (
    MODEL_EXACT,
    MODEL_PAPER,
    MODELS,
    closed_form_gradient,
    closed_form_payoff,
    geometric_payoff,
    geometric_strategy,
    two_choice_baseline,
)
from .profiles import load_profile, parse_profile_document, save_profile
from .simulate import SimulationStats, simulate
from .solve import (
    MAX_SOLVER_N,
    MIN_SOLVER_N,
    SolveResult,
    multistart_roots,
    solve_symmetric,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_EPSILON",
    "GameSpec",
    "MixedStrategy",
    "MODEL_EXACT",
    "MODEL_PAPER",
    "MODELS",
    "MAX_SOLVER_N",
    "MIN_SOLVER_N",
    "SimulationStats",
    "SolveResult",
    "StrategyProfile",
    "VerificationReport",
    "adjudicate",
    "as_strategy",
    "backend_name",
    "best_response",
    "closed_form_gradient",
    "closed_form_payoff",
    "exact_profile_payoffs",
    "exact_pure_vs_mixed",
    "geometric_payoff",
    "geometric_strategy",
    "indifference_spread",
    "load_profile",
    "multistart_roots",
    "parse_profile_document",
    "pure_choice_values",
    "save_profile",
    "simulate",
    "solve_symmetric",
    "two_choice_baseline",
    "verify_profile",
    "win_probabilities",
]
