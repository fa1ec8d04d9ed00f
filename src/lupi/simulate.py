"""Seeded Monte Carlo simulation of repeated rounds.

Randomness comes from SplitMix64, chosen because it is small and its output
is exactly reproducible in integer arithmetic. Player i draws from a
dedicated substream whose initial state is
``mix64(seed + (i + 1) * 0x9E3779B97F4A7C15)`` (mod 2**64); every draw
advances the state by the same golden-ratio constant and keeps the top 53
output bits as a uniform in [0, 1). The generator is counter-based: the
state before round r is a closed form in r, so the numpy kernel draws a
block of rounds one player at a time, as one uint64 array. Choices are
made by inverse CDF over the strategy's cumulative probabilities with
half-open intervals; a draw landing exactly on a boundary selects the
higher index. The kernel makes that choice on the raw 64-bit output,
against each cumulative probability scaled by 2**53, rounded up and
shifted left by the 11 bits the uniform drops, which is exact, and finds
each round's lowest unique integer in uint64 bitmasks, so it returns the
counts of a round-by-round scan.

Identical (profile, rounds, seed) inputs therefore reproduce identical
statistics on every platform.
"""

from __future__ import annotations

import math

from ._backend import kernels
from .game import StrategyProfile, _Record


class SimulationStats(_Record):
    """Outcome counts and frequency estimates of one simulation run."""

    rounds: int
    seed: int
    wins: tuple
    payoffs: tuple
    standard_errors: tuple
    no_winner_rounds: int


def simulate(profile: StrategyProfile, rounds: int, seed: int = 0) -> SimulationStats:
    """Play ``rounds`` independent rounds and tally wins per player.

    Each player samples independently from their own strategy; the winner
    of a round holds the smallest integer chosen exactly once. Empirical
    payoffs are win frequencies, with the usual binomial standard error
    sqrt(f (1 - f) / rounds) attached.
    """
    if not isinstance(rounds, int) or isinstance(rounds, bool) or rounds < 1:
        raise ValueError(f"rounds must be a positive integer, got {rounds!r}")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    wins, no_winner = kernels.simulate_rounds(profile.rows(), rounds, seed)
    freqs = tuple(w / rounds for w in wins)
    errors = tuple(math.sqrt(f * (1.0 - f) / rounds) for f in freqs)
    return SimulationStats(
        rounds=rounds,
        seed=seed,
        wins=tuple(wins),
        payoffs=freqs,
        standard_errors=errors,
        no_winner_rounds=no_winner,
    )
