"""Kernel backend selection; runs with or without the compiled extension."""

import os
import subprocess
import sys

import lupi
from lupi import _kernels_py as py


def test_backend_names():
    assert py.BACKEND == "python"
    assert lupi.backend_name() in ("c", "python")


def test_env_var_forces_pure_python():
    env = dict(os.environ, LUPI_PURE_PYTHON="1")
    out = subprocess.run(
        [sys.executable, "-c", "import lupi; print(lupi.backend_name())"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert out.stdout.strip() == "python"
