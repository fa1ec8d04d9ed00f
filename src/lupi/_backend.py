"""Kernel backend selection.

The compiled extension is preferred when it imported cleanly; the Python
and numpy kernels of ``_kernels_py`` are the fallback. Set
LUPI_PURE_PYTHON=1 to force the fallback (useful for benchmarking and
debugging).
"""

import os

if os.environ.get("LUPI_PURE_PYTHON"):
    from . import _kernels_py as kernels
else:
    try:
        from . import _kernels as kernels  # type: ignore[no-redef]
    except ImportError:
        from . import _kernels_py as kernels


def backend_name() -> str:
    """Name of the active kernel backend: "c" or "python"."""
    return kernels.BACKEND
