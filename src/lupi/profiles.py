"""On-disk JSON representation of strategy profiles.

A profile document is a JSON object with fields ``n`` (player count),
``strategies`` (n rows of n probabilities, players in order) and optional
``labels`` (one name per player). Rows must satisfy the usual strategy
invariants; violations are reported with the offending row and column.
"""

from __future__ import annotations

import json
from typing import Optional, Sequence

from .game import MixedStrategy, StrategyProfile


def _parse_row(row, index: int, n: int) -> MixedStrategy:
    if not isinstance(row, (list, tuple)):
        raise ValueError(f"strategies row {index}: expected a list of numbers")
    if len(row) != n:
        raise ValueError(f"strategies row {index}: has {len(row)} entries, expected {n}")
    values = []
    for col, item in enumerate(row):
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ValueError(f"strategies row {index}, column {col}: not a number: {item!r}")
        values.append(float(item))
    try:
        return MixedStrategy(tuple(values))
    except ValueError as exc:
        raise ValueError(f"strategies row {index}: {exc}") from None


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
    strategies = tuple(_parse_row(row, i, n) for i, row in enumerate(rows))
    labels = data.get("labels")
    if labels is not None:
        if (
            not isinstance(labels, list)
            or len(labels) != n
            or any(not isinstance(x, str) for x in labels)
        ):
            raise ValueError(f"field 'labels' must list {n} strings")
        labels = list(labels)
    return StrategyProfile(strategies), labels


def load_profile(path) -> tuple:
    """Read a profile document; returns (StrategyProfile, labels or None)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read profile file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"profile file {path} is not valid JSON: {exc}") from None
    return parse_profile_document(data)


def save_profile(path, profile: StrategyProfile, labels: Optional[Sequence[str]] = None) -> None:
    """Write a profile document that every reading command accepts unchanged."""
    document = {
        "n": profile.n,
        "strategies": [list(s.probs) for s in profile.strategies],
    }
    if labels is not None:
        document["labels"] = list(labels)
    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
    except OSError as exc:
        raise ValueError(f"cannot write profile file {path}: {exc}") from None
