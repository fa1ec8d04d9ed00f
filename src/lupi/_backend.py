"""The kernel module used by the computation layers.

The kernels of ``_kernels_py`` (plain Python, numpy in the round sampler
only) are the only implementation; every layer reaches them through
``kernels`` here.
"""

from . import _kernels_py as kernels


def backend_name() -> str:
    """Name of the kernel backend; always "python"."""
    return kernels.BACKEND
