"""The package namespace: every public name resolves lazily to its module's object."""

import ast
import importlib
import importlib.util
import os
import re
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


def _owned_nodes(tree):
    """(innermost enclosing function name or "<module>", node) for every node in ``tree``."""
    stack = [("<module>", tree)]
    while stack:
        owner, node = stack.pop()
        for child in ast.iter_child_nodes(node):
            yield owner, child
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
            stack.append((inner, child))


def test_one_scorer_checks_the_model_and_loads_the_closed_form():
    # which model a score comes from is decided in game._profile_choice_values:
    # "unknown model" is raised there and in solve_symmetric's argument check
    # only, lupi.model is imported there only (cli's approx and table load it
    # for their own output), and the verifier names no model but the default
    package = Path(lupi.__file__).resolve().parent
    raisers, importers, analysis_names = set(), set(), set()
    for path in sorted(package.glob("*.py")):
        if path.name in ("cli.py", "model.py"):
            continue
        for owner, node in _owned_nodes(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and "unknown model" in ast.unparse(node):
                raisers.add(f"{path.stem}.{owner}")
            if isinstance(node, (ast.Import, ast.ImportFrom)) and re.search(r"\bmodel\b", ast.unparse(node)):
                importers.add(f"{path.stem}.{owner}")
            if path.name == "analysis.py" and isinstance(node, ast.Name):
                analysis_names.add(node.id)
    assert raisers == {"game._profile_choice_values", "solve.solve_symmetric"}
    assert importers == {"game._profile_choice_values"}
    assert not analysis_names & {"MODELS", "MODEL_PAPER"}


def test_the_benchmark_trace_reaches_every_layer_and_kernel_route():
    # perfbench's trace wraps the functions of each lupi.<layer> named in its
    # LAYERS and the kernel routes in KERNEL_ROUTES on lupi._backend.kernels;
    # a route it cannot reach drops that route's per-layer metrics from a
    # traced run, and the run's metadata reads lupi.backend_name()
    path = Path(__file__).resolve().parent.parent / "perfbench" / "trace_shim.py"
    spec = importlib.util.spec_from_file_location("_perfbench_trace_shim", path)
    shim = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(shim)
    assert shim.LAYERS and shim.KERNEL_ROUTES
    for layer in shim.LAYERS:
        importlib.import_module(f"lupi.{layer}")
    kernels = importlib.import_module("lupi._backend").kernels
    assert kernels is importlib.import_module("lupi._kernels_py")
    for route, attr in shim.KERNEL_ROUTES.items():
        assert callable(getattr(kernels, attr, None)), route
    assert kernels.BACKEND == lupi.backend_name() == "python"
