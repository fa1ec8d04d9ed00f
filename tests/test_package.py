"""The package namespace: every public name resolves lazily to its module's object."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lupi


def test_public_api_is_pinned():
    # adding or removing a public name has to edit this list
    assert lupi.__all__ == [
        "DEFAULT_EPSILON",
        "GameSpec",
        "MAX_SOLVER_N",
        "MIN_SOLVER_N",
        "MODELS",
        "MODEL_EXACT",
        "MODEL_PAPER",
        "MixedStrategy",
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
        "geometric_payoff",
        "geometric_strategy",
        "indifference_spread",
        "load_profile",
        "parse_profile_document",
        "pure_choice_values",
        "save_profile",
        "simulate",
        "solve_symmetric",
        "two_choice_baseline",
        "verify_profile",
        "win_probabilities",
    ]


def test_public_names_resolve_to_their_modules_objects():
    assert len(set(lupi.__all__)) == len(lupi.__all__)
    for name in lupi.__all__:
        home = importlib.import_module(f"lupi.{lupi._HOMES[name]}")
        assert getattr(lupi, name) is getattr(home, name), name


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from lupi import *", namespace)
    for name in lupi.__all__:
        assert namespace[name] is getattr(lupi, name)
    assert set(lupi.__all__) <= set(dir(lupi))
    assert "__version__" in dir(lupi)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        lupi.no_such_name
    assert not hasattr(lupi, "_kernels")
    with pytest.raises(ImportError):
        exec("from lupi import no_such_name", {})


def test_loading_a_submodule_keeps_the_public_name_of_the_same_name():
    # importing lupi.simulate binds the submodule on the package; the public
    # name must stay the function, whichever is touched first
    code = (
        "import sys, lupi, lupi.simulate, lupi.cli\n"
        "assert lupi.simulate is sys.modules['lupi.simulate'].simulate\n"
        "from lupi import simulate\n"
        "assert simulate is lupi.simulate and callable(simulate)\n"
    )
    src = str(Path(lupi.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_package_modules_use_every_name_they_import():
    # a module-level import that its module never reads is dead code (or a
    # re-export that callers should take from the defining module)
    unused = []
    for path in sorted(Path(lupi.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []
