"""Parity between the compiled kernels and the pure-Python reference.

The identical-opponent kernel has no parity test: the compiled module
re-exports the pure-Python one. Backend selection is tested in
``test_backend_selection.py``, which needs no compiled extension.
"""

import random

import pytest

from lupi import _kernels_py as py

c = pytest.importorskip("lupi._kernels", reason="compiled kernels not built")

from _oracle import random_strategy


def test_compiled_backend_name():
    assert c.BACKEND == "c"
    assert c.win_probs_common is py.win_probs_common


def test_win_probs_distinct_bitwise_identical():
    rng = random.Random(702)
    for _ in range(100):
        n = rng.randint(2, 6)
        rows = [list(random_strategy(rng, n, zeros=True)) for _ in range(n - 1)]
        assert py.win_probs_distinct(rows) == c.win_probs_distinct(rows)


def test_enum_profile_payoffs_bitwise_identical():
    rng = random.Random(703)
    for _ in range(60):
        n = rng.randint(2, 5)
        rows = [list(random_strategy(rng, n, zeros=True)) for _ in range(n)]
        assert py.enum_profile_payoffs(rows) == c.enum_profile_payoffs(rows)


def test_simulate_rounds_bitwise_identical():
    rng = random.Random(704)
    for _ in range(15):
        n = rng.randint(2, 5)
        rows = [list(random_strategy(rng, n)) for _ in range(n)]
        seed = rng.getrandbits(64)
        wins_py, none_py = py.simulate_rounds(rows, 3000, seed)
        wins_c, none_c = c.simulate_rounds(rows, 3000, seed)
        assert list(wins_py) == list(wins_c)
        assert none_py == none_c


def test_stream_and_chooser_helpers_identical():
    rng = random.Random(705)
    for _ in range(100):
        seed = rng.getrandbits(64)
        player = rng.randint(0, 11)
        assert py.stream_state(seed, player) == c.stream_state(seed, player)
    for _ in range(200):
        cums = sorted(rng.random() for _ in range(4)) + [1.0]
        u = rng.random()
        assert py.choose_index(cums, u) == c.choose_index(cums, u)
    assert py.choose_index([0.5, 1.0], 0.5) == c.choose_index([0.5, 1.0], 0.5) == 1


def test_dp_size_guard_matches():
    rows = [[1.0 / 17] * 17] * 2
    with pytest.raises(ValueError):
        py.win_probs_distinct(rows)
    with pytest.raises(ValueError):
        c.win_probs_distinct(rows)
