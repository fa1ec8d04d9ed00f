"""On-disk JSON representation of strategy profiles.

A profile document is a JSON object with fields ``n`` (player count),
``strategies`` (n rows of n probabilities, players in order) and optional
``labels`` (one name per player, without a line break). The reader checks
the document's own fields; ``StrategyProfile`` checks the rows, and names
the offending row and index. Rows are kept as given, so a profile that
``save_profile`` wrote reads back with the same bits, and ``save_profile``
refuses the labels that reading would refuse.
"""

from __future__ import annotations

import json

from .game import StrategyProfile


def parse_profile_document(data) -> tuple:
    """Validate a decoded document; returns (StrategyProfile, labels or None)."""
    if not isinstance(data, dict):
        raise ValueError("profile document must be a JSON object")
    if "n" not in data or "strategies" not in data:
        raise ValueError("profile document needs fields 'n' and 'strategies'")
    n = data["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 2:
        raise ValueError(f"field 'n' must be an integer >= 2, got {n!r}")
    rows = data["strategies"]
    if not isinstance(rows, list) or len(rows) != n:
        count = len(rows) if isinstance(rows, list) else type(rows).__name__
        raise ValueError(f"field 'strategies' must list {n} rows, got {count}")
    labels = data.get("labels")
    return StrategyProfile(rows), None if labels is None else _checked_labels(labels, n)


def _checked_labels(labels, n: int) -> list:
    """``labels`` as a list, or ValueError unless it holds n strings without a line break.

    Text output prints one record per line, so a label that breaks a line
    could forge a record.
    """
    if not isinstance(labels, (list, tuple)) or len(labels) != n or any(not isinstance(x, str) for x in labels):
        raise ValueError(f"field 'labels' must list {n} strings")
    for i, label in enumerate(labels):
        if "".join(label.splitlines()) != label:
            raise ValueError(f"field 'labels' entry {i} holds a line break: {label!r}")
    return list(labels)


def load_profile(path) -> tuple:
    """Read a profile document; returns (StrategyProfile, labels or None)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read profile file {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"profile file {path!r} is not valid JSON: {exc}") from None
    return parse_profile_document(data)


def save_profile(path, profile: StrategyProfile, labels: Optional[Sequence[str]] = None) -> None:
    """Write a profile document that every reading command accepts unchanged."""
    document = {
        "n": profile.n,
        "strategies": [list(s.probs) for s in profile.strategies],
    }
    if labels is not None:
        document["labels"] = _checked_labels(labels, profile.n)
    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
    except OSError as exc:
        raise ValueError(f"cannot write profile file {path!r}: {exc}") from None
