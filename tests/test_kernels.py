"""The numpy kernels against the scalar loops they replaced, bit for bit.

Both kernels add and multiply the same floats in the same order as the
pre-vectorisation loops in ``_oracle``, so results must be equal, not close.
These tests need no compiled extension.
"""

import random

import pytest

from _oracle import random_strategy, scalar_simulate_rounds, scalar_win_probs_distinct
from lupi import _kernels_py as kernels

SEEDS = (0, 2**64 - 1)


@pytest.mark.parametrize("n", range(2, 13))
def test_sampler_matches_scalar_loop(n):
    rng = random.Random(800 + n)
    rows = [list(random_strategy(rng, n, zeros=True)) for _ in range(n)]
    # two whole blocks of rounds and a partial third
    rounds = 2 * (kernels._BLOCK_CELLS // n) + 7
    for seed in SEEDS:
        assert kernels.simulate_rounds(rows, rounds, seed) == scalar_simulate_rounds(rows, rounds, seed)


@pytest.mark.parametrize(
    "rows",
    [
        # cumulative sum ends at 0.9999999999999999
        [[0.1] * 10] * 10,
        # trailing zeros
        [[0.5, 0.5, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.25, 0.25, 0.5, 0.0], [0.2, 0.3, 0.5, 0.0]],
        # cumulative sums ending well below 1: draws above them fall back to
        # the top index with positive mass
        [[0.3, 0.3, 0.0], [0.0, 0.5, 0.0], [0.2, 0.2, 0.2]],
    ],
)
def test_sampler_matches_scalar_loop_on_edge_rows(rows):
    for seed in SEEDS + (12345,):
        assert kernels.simulate_rounds(rows, 3001, seed) == scalar_simulate_rounds(rows, 3001, seed)


def test_sampler_single_round():
    rows = [[0.5, 0.5]] * 2
    for seed in range(20):
        assert kernels.simulate_rounds(rows, 1, seed) == scalar_simulate_rounds(rows, 1, seed)


@pytest.mark.parametrize("n", range(2, 9))
def test_fold_matches_scalar_loop(n):
    rng = random.Random(900 + n)
    for _ in range(10 if n < 7 else 3):
        rows = [list(random_strategy(rng, n, zeros=True)) for _ in range(n - 1)]
        assert kernels.win_probs_distinct(rows) == scalar_win_probs_distinct(rows)
    one = [list(random_strategy(rng, n, zeros=True))]
    assert kernels.win_probs_distinct(one) == scalar_win_probs_distinct(one)


def test_fold_matches_scalar_loop_on_sparse_rows():
    rows = [[0.0, 1.0, 0.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0, 0.5], [0.0, 0.0, 0.3, 0.7, 0.0], [0.0, 1.0, 0.0, 0.0, 0.0]]
    assert kernels.win_probs_distinct(rows) == scalar_win_probs_distinct(rows)


def test_fold_size_guard():
    with pytest.raises(ValueError):
        kernels.win_probs_distinct([[1.0 / 17] * 17] * 2)
