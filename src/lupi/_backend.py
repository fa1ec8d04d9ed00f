"""The kernel module and its name, for the benchmark only.

No layer of the package imports this module: they import ``_kernels_py``
directly. It stays because ``perfbench/run.py`` calls ``backend_name()``
(through ``lupi.backend_name``) and ``perfbench/trace_shim.py`` wraps the
kernel routes on ``kernels``. It is deleted together with the benchmark
change that stops reading it.
"""

from . import _kernels_py as kernels


def backend_name() -> str:
    """Name of the kernel backend; always "python"."""
    return kernels.BACKEND
