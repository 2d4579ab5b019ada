"""Integration kernel selection: compiled extension with pure-Python fallback.

The compiled kernel is used whenever it is importable; otherwise the NumPy
reference kernel runs.  :func:`kernels` lists every importable kernel.
"""

from __future__ import annotations

from . import _stepper_py

try:
    from . import _stepper_cy as _impl  # type: ignore[attr-defined]
except ImportError:
    _impl = _stepper_py

integrate_core = _impl.integrate_core

STATUS_REACHED_END = _stepper_py.STATUS_REACHED_END
STATUS_CONVERGED = _stepper_py.STATUS_CONVERGED
STATUS_UNDERFLOW = _stepper_py.STATUS_UNDERFLOW
STATUS_MAX_STEPS = _stepper_py.STATUS_MAX_STEPS
STATUS_NONFINITE = _stepper_py.STATUS_NONFINITE
STATUS_NEGATIVE = _stepper_py.STATUS_NEGATIVE


def active_kernel() -> str:
    """Name of the kernel in use: ``"cython"`` or ``"python"``."""
    return _impl.KERNEL_NAME


def kernels():
    """All importable kernels, for parity tests and benchmarks."""
    out = {"python": _stepper_py}
    try:
        from . import _stepper_cy

        out["cython"] = _stepper_cy
    except ImportError:
        pass
    return out
