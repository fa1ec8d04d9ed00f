"""The kernel module that the computation layers and the benchmark trace reach.

One kernel module is left, so ``lupi._backend`` and ``backend_name()`` no
longer choose anything. They stay because the benchmark reads them: the
metadata probe in ``perfbench/run.py`` calls ``lupi.backend_name()``, and
``perfbench/trace_shim.py`` wraps the kernel routes on
``lupi._backend.kernels``.
"""

import lupi
from lupi import _backend
from lupi import _kernels_py as py


def test_backend_names():
    assert py.BACKEND == "python"
    assert lupi.backend_name() == "python"
    assert _backend.kernels is py
    # the kernel routes that the per-layer trace wraps on lupi._backend.kernels
    for attr in ("win_probs_common", "win_probs_distinct", "simulate_rounds"):
        assert callable(getattr(_backend.kernels, attr))
