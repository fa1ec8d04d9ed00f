"""Value semantics of the five record types: construction, equality, hashing,
repr, immutability, and the validation done on construction."""

import copy
import pickle

import pytest

from lupi import (
    MixedStrategy,
    SimulationStats,
    SolveResult,
    StrategyProfile,
    VerificationReport,
    simulate,
    solve_symmetric,
    verify_profile,
)

HALF = MixedStrategy((0.5, 0.5))
PAIR = StrategyProfile((HALF, HALF))

# (type, field names in order, one value per field)
RECORDS = [
    (MixedStrategy, ("probs",), ((0.5, 0.25, 0.25),)),
    (StrategyProfile, ("strategies",), ((HALF, HALF),)),
    (
        SolveResult,
        ("model", "n", "strategy", "payoff", "residual_norm", "iterations", "converged",
         "full_support"),
        ("paper", 2, HALF, 0.25, 0.0, 3, True, True),
    ),
    (
        VerificationReport,
        ("profile", "model", "epsilon", "payoffs", "best_response_values",
         "best_response_picks", "deviation_gains", "indifferent_deviations", "is_nash",
         "payoff_sum", "is_payoff_sum_maximal"),
        (PAIR, "exact", 1e-09, (0.25, 0.25), (0.5, 0.5), ((1,), (1,)), (0.25, 0.25),
         (False, False), False, 0.5, False),
    ),
    (
        SimulationStats,
        ("rounds", "seed", "wins", "payoffs", "standard_errors", "no_winner_rounds"),
        (4, 1, (0, 1), (0.0, 0.25), (0.0, 0.21650635094610965), 3),
    ),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]
FIELDS = {cls: names for cls, names, _ in RECORDS}


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, names, values):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    assert by_position == by_keyword
    assert tuple(getattr(by_position, name) for name in names) == values


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_equality_and_hash_follow_the_fields(cls, names, values):
    first, second = cls(*values), cls(*values)
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1
    assert first != values and first != tuple(values)
    assert (first == object()) is False


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, names, values):
    record = cls(*values)
    for name in names:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, values[0])
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in names) == values


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_wrong_arguments_raise_type_error(cls, names, values):
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, unknown=1)
    with pytest.raises(TypeError):
        cls(values[0], **{names[0]: values[0]})


def test_records_with_different_fields_differ():
    assert MixedStrategy((0.5, 0.5)) != MixedStrategy((0.25, 0.75))
    assert {MixedStrategy((0.5, 0.5)): "a"}[HALF] == "a"


def test_repr_text():
    assert repr(MixedStrategy((0.5, 0.25, 0.25))) == "MixedStrategy(probs=(0.5, 0.25, 0.25))"
    assert repr(PAIR) == (
        "StrategyProfile(strategies=(MixedStrategy(probs=(0.5, 0.5)),"
        " MixedStrategy(probs=(0.5, 0.5))))"
    )
    assert repr(SolveResult("paper", 2, HALF, 0.25, 0.0, 3, True, True)) == (
        "SolveResult(model='paper', n=2, strategy=MixedStrategy(probs=(0.5, 0.5)),"
        " payoff=0.25, residual_norm=0.0, iterations=3, converged=True, full_support=True)"
    )
    assert repr(simulate(PAIR, 4, 1)) == (
        "SimulationStats(rounds=4, seed=1, wins=(0, 1), payoffs=(0.0, 0.25),"
        " standard_errors=(0.0, 0.21650635094610965), no_winner_rounds=3)"
    )
    assert repr(verify_profile(PAIR)) == (
        "VerificationReport(profile=StrategyProfile(strategies=(MixedStrategy(probs=(0.5, 0.5)),"
        " MixedStrategy(probs=(0.5, 0.5)))), model='exact', epsilon=1e-09, payoffs=(0.25, 0.25),"
        " best_response_values=(0.5, 0.5), best_response_picks=((1,), (1,)),"
        " deviation_gains=(0.25, 0.25), indifferent_deviations=(False, False), is_nash=False,"
        " payoff_sum=0.5, is_payoff_sum_maximal=False)"
    )


def test_library_results_equal_rebuilt_records():
    result = solve_symmetric(3)
    assert SolveResult(**{name: getattr(result, name) for name in FIELDS[SolveResult]}) == result
    report = verify_profile(PAIR)
    assert VerificationReport(*(getattr(report, name) for name in FIELDS[VerificationReport])) == report


def test_mixed_strategy_validation_messages():
    cases = [
        (("a", "b"), "entry 'a' at index 0 is not a number"),
        (("0.5", "0.5"), "entry '0.5' at index 0 is not a number"),
        ((True, False), "entry True at index 0 is not a number"),
        ((0.5, None), "entry None at index 1 is not a number"),
        (None, "strategy entries must be numbers, got None"),
        ((1.0,), "a strategy needs at least two choices"),
        ((1.5, -0.5), "probability 1.5 at index 0 is outside [0, 1]"),
        ((-0.1, 1.1), "probability -0.1 at index 0 is outside [0, 1]"),
        ((0.5, float("nan")), "probability nan at index 1 is outside [0, 1]"),
        ((0.5, 0.4), "probabilities sum to 0.9, not 1 within 1e-09"),
        ((0.3, 0.3, 0.4 + 1e-8), "probabilities sum to 1.00000001, not 1 within 1e-09"),
    ]
    for probs, message in cases:
        with pytest.raises(ValueError) as info:
            MixedStrategy(probs)
        assert str(info.value) == message


def test_mixed_strategy_converts_ints_and_keeps_floats():
    strategy = MixedStrategy([1, 0])
    assert strategy.probs == (1.0, 0.0)
    assert all(type(p) is float for p in strategy.probs)
    assert strategy.n == len(strategy) == 2
    off = 0.5 + 4e-10
    assert MixedStrategy((off, 0.5)).probs == (off, 0.5)
    assert MixedStrategy((0.25, 0.75)).probs == (0.25, 0.75)


def test_strategy_profile_validation_messages():
    # every row fault names its row, in the profile document reader's wording
    cases = [
        ((HALF,), "a profile needs at least two players"),
        ((HALF, (0.5, 0.25, 0.25)), "strategies row 1: has 3 entries, expected 2"),
        ((HALF, (0.5, 0.6)), "strategies row 1: probabilities sum to 1.1, not 1 within 1e-09"),
        (((0.5, "x"), HALF), "strategies row 0: entry 'x' at index 1 is not a number"),
        ((HALF, (1.5, -0.5)), "strategies row 1: probability 1.5 at index 0 is outside [0, 1]"),
        ((HALF, (1.0,)), "strategies row 1: a strategy needs at least two choices"),
        ((5, 5), "strategies row 0: strategy entries must be numbers, got 5"),
        ((HALF, None), "strategies row 1: strategy entries must be numbers, got None"),
    ]
    for strategies, message in cases:
        with pytest.raises(ValueError) as info:
            StrategyProfile(strategies)
        assert str(info.value) == message
    coerced = StrategyProfile(([0.5, 0.5], (0.5, 0.5)))
    assert coerced == PAIR
    assert all(isinstance(s, MixedStrategy) for s in coerced.strategies)
    assert StrategyProfile.symmetric((0.5, 0.5)) == PAIR
    assert coerced.n == 2


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
def test_copies_and_pickles_are_equal_records(cls, names, values):
    record = cls(*values)
    for twin in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and twin == record and hash(twin) == hash(record)
