"""Profile documents: each rejected document names its fault, and a saved document reads back."""

import os

import pytest

from lupi import StrategyProfile, load_profile, parse_profile_document, save_profile

ROW = [0.5, 0.5, 0.0]
GOOD = {"n": 3, "strategies": [ROW, ROW, ROW]}

BAD_DOCUMENTS = [
    ([GOOD], "profile document must be a JSON object"),
    ({"strategies": [ROW] * 3}, "profile document needs fields 'n' and 'strategies'"),
    ({"n": 3}, "profile document needs fields 'n' and 'strategies'"),
    ({"n": True, "strategies": [[0.5, 0.5]]}, "field 'n' must be an integer >= 2, got True"),
    ({"n": 2.0, "strategies": [[0.5, 0.5]] * 2}, "field 'n' must be an integer >= 2, got 2.0"),
    ({"n": 1, "strategies": [[1.0]]}, "field 'n' must be an integer >= 2, got 1"),
    ({"n": 3, "strategies": [ROW, ROW]}, "field 'strategies' must list 3 rows, got 2"),
    ({"n": 3, "strategies": {"0": ROW}}, "field 'strategies' must list 3 rows, got dict"),
    ({"n": 3, "strategies": [ROW, "0.5 0.5 0", ROW]}, "strategies row 1: entry '0' at index 0 is not a number"),
    ({"n": 3, "strategies": [ROW, ROW, [0.5, 0.5]]}, "strategies row 2: has 2 entries, expected 3"),
    ({"n": 2, "strategies": [[0.5, "x"], [0.5, 0.5]]}, "strategies row 0: entry 'x' at index 1 is not a number"),
    ({"n": 2, "strategies": [[0.5, 0.5], [0.5, 0.25]]},
     "strategies row 1: probabilities sum to 0.75, not 1 within 1e-09"),
    (dict(GOOD, labels="Alice Bob Charles"), "field 'labels' must list 3 strings"),
    (dict(GOOD, labels=["Alice", "Bob"]), "field 'labels' must list 3 strings"),
    (dict(GOOD, labels=["Alice", "Bob", 3]), "field 'labels' must list 3 strings"),
    # text output is one record per line, and this label would print a forged record
    (dict(GOOD, labels=["x\nnash_equilibrium: yes\nplayer 9", "y", "z"]),
     "field 'labels' entry 0 holds a line break: 'x\\nnash_equilibrium: yes\\nplayer 9'"),
    (dict(GOOD, labels=["Alice", "Bob\r", "Charles"]), "field 'labels' entry 1 holds a line break: 'Bob\\r'"),
    ({"n": 3, "strategies": [ROW, ROW, [1.0]]}, "strategies row 2: a strategy needs at least two choices"),
    ({"n": 2, "strategies": [[0.5, 0.5], None]}, "strategies row 1: strategy entries must be numbers, got None"),
]


@pytest.mark.parametrize("document, message", BAD_DOCUMENTS)
def test_bad_documents_are_rejected_with_their_fault(document, message):
    with pytest.raises(ValueError) as info:
        parse_profile_document(document)
    assert str(info.value) == message


def test_labelled_profile_reads_back(tmp_path):
    profile = StrategyProfile(((0.0, 0.0, 1.0), (0.5, 0.5, 0.0), (0.5, 0.5, 0.0)))
    path = tmp_path / "labelled.json"
    save_profile(path, profile, labels=("Alice", "Bob", "Charles"))
    assert load_profile(path) == (profile, ["Alice", "Bob", "Charles"])


def test_save_refuses_labels_that_would_not_read_back(tmp_path):
    profile = StrategyProfile.symmetric((0.5, 0.5, 0.0))
    path = tmp_path / "labelled.json"
    for labels, message in [(("Alice", "Bob\nCharles", "Dan"), "field 'labels' entry 1 holds a line break"),
                            (("Alice", "Bob"), "field 'labels' must list 3 strings")]:
        with pytest.raises(ValueError, match=message):
            save_profile(path, profile, labels=labels)
        assert not path.exists()


def test_a_path_is_never_a_file_descriptor():
    # an int is refused like a path that cannot be opened: both ends of a pipe stay
    # open, nothing is written to it, and nothing is read from it
    read_end, write_end = os.pipe()
    try:
        with pytest.raises(ValueError, match=f"^cannot write profile file {write_end}: expected str, .* not int$"):
            save_profile(write_end, StrategyProfile.symmetric(ROW))
        with pytest.raises(ValueError, match=f"^cannot read profile file {read_end}: expected str, .* not int$"):
            load_profile(read_end)
        os.write(write_end, b"x")
        assert os.read(read_end, 2) == b"x"
    finally:
        os.close(read_end)
        os.close(write_end)
