"""Integration kernel selection: compiled C kernel with pure-Python fallback,
and the compiled float formatter of the artifact writers.

The first import compiles ``_stepper.c`` with the C compiler Python was built
with (``$CC`` overrides it) into ``$XDG_CACHE_HOME/waningsim/`` (default
``~/.cache/waningsim/``), under a name keyed by source, compiler and
platform, and loads it with :mod:`ctypes`.  If that fails, the NumPy
reference kernel runs.  :func:`kernels` lists every usable kernel.  Only a
build imports :mod:`subprocess`, so an import that finds the library cached
never loads it.

The same library formats floats: :func:`format_floats` writes a run of
doubles byte for byte as ``float.__repr__`` writes each.  It is ``None``
when the library is not loaded, and the writers then format in Python.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import sysconfig
import types
from pathlib import Path

import numpy as np

from . import _stepper_py

STATUS_REACHED_END = _stepper_py.STATUS_REACHED_END
STATUS_CONVERGED = _stepper_py.STATUS_CONVERGED
STATUS_UNDERFLOW = _stepper_py.STATUS_UNDERFLOW
STATUS_MAX_STEPS = _stepper_py.STATUS_MAX_STEPS
STATUS_NONFINITE = _stepper_py.STATUS_NONFINITE
STATUS_NEGATIVE = _stepper_py.STATUS_NEGATIVE
_NO_MEMORY = -5  # the C kernel's allocation failure
_REPR_MAX = 24  # bytes of the longest repr of a double, "-2.2250738585072014e-308"

_SOURCE = Path(__file__).with_name("_stepper.c")


class _Record(ctypes.Structure):
    """``ws_record`` of ``_stepper.c``: one row ``(t, *state)`` per accepted step."""

    _fields_ = [
        ("rows", ctypes.POINTER(ctypes.c_double)),
        ("n_rows", ctypes.c_int64),
        ("n_accepted", ctypes.c_int64),
        ("n_rejected", ctypes.c_int64),
        ("n_implicit", ctypes.c_int64),
        ("t_reached", ctypes.c_double),
    ]


def _library_path(compiler) -> Path:
    cache = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    digest = hashlib.sha256(_SOURCE.read_bytes())
    digest.update("\0".join([*compiler, sysconfig.get_platform()]).encode())
    return Path(cache) / "waningsim" / f"_stepper-{digest.hexdigest()[:16]}.so"


def _build(compiler, path: Path) -> None:
    """Compile into a private directory, then move the library into place in
    one step, so a concurrent import never loads a partial file.

    Raises:
        OSError: if the compiler cannot run, fails or times out.
    """
    import subprocess
    import tempfile

    path.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=path.parent) as tmp:
        built = os.path.join(tmp, path.name)
        command = [*compiler, "-O3", "-shared", "-fPIC", "-o", built, str(_SOURCE), "-lm"]
        try:
            subprocess.run(command, check=True, capture_output=True, timeout=300)
        except subprocess.SubprocessError as exc:
            raise OSError(f"building {path.name} failed: {exc}") from exc
        os.replace(built, path)


def _load_library():
    """The compiled kernel library, built on first use; ``None`` if unusable."""
    try:
        compiler = shlex.split(os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc")
        path = _library_path(compiler)
        if not path.exists():
            _build(compiler, path)
        lib = ctypes.CDLL(str(path))
        # a raw address: the caller makes each array C-contiguous float64 and
        # checks its length first, which ndpointer would check again per call
        address = ctypes.c_void_p
        lib.ws_integrate.restype = ctypes.c_int
        lib.ws_integrate.argtypes = [
            ctypes.c_int64, address, address, address, ctypes.c_double, ctypes.c_double, address,
            ctypes.c_double, ctypes.c_double, address, ctypes.c_int64, ctypes.c_int64,
            ctypes.c_int, ctypes.POINTER(_Record),
        ]
        lib.ws_free.restype = None
        lib.ws_free.argtypes = [ctypes.POINTER(_Record)]
        lib.ws_format.restype = ctypes.c_int64
        lib.ws_format.argtypes = [address, ctypes.c_int64, ctypes.c_int64, ctypes.c_char_p, ctypes.c_char_p, address]
        return lib
    except (OSError, ValueError, AttributeError):
        return None


_lib = _load_library()


def _c_integrate_core(beta, omega_i, delta_i, mu, r, y0, rtol, atol, targets, max_steps, stop_at_equilibrium):
    """See ``_stepper_py.integrate_core``; identical contract."""
    # arrays of any dtype and layout are converted below; anything else is
    # converted here, a scalar to a vector of one
    beta, omega_i, delta_i, y, targets = (
        a if isinstance(a, np.ndarray) and a.ndim else np.ascontiguousarray(a, dtype=np.float64)
        for a in (beta, omega_i, delta_i, y0, targets))
    m = y.size
    if y.ndim != 1 or m < 2 or not beta.shape == omega_i.shape == delta_i.shape == (m - 1,):
        raise ValueError(f"rate arrays must have length {m - 1}, one less than the state's")
    if targets.ndim != 1 or targets.size == 0:
        raise ValueError("targets must be a non-empty 1-d array ending at the horizon")
    # one contiguous float64 copy holds the five inputs in this order: one
    # conversion and one address lookup for all of them
    inputs = np.concatenate((beta, omega_i, delta_i, y, targets), dtype=np.float64, casting="unsafe")
    at, rate_bytes = inputs.ctypes.data, 8 * (m - 1)
    rec = _Record()
    status = _lib.ws_integrate(
        m, at, at + rate_bytes, at + 2 * rate_bytes, float(mu), float(r), at + 3 * rate_bytes, float(rtol),
        float(atol), at + 3 * rate_bytes + 8 * m, targets.size, int(max_steps), bool(stop_at_equilibrium),
        ctypes.byref(rec),
    )
    try:
        if status == _NO_MEMORY:
            raise MemoryError("the C kernel could not allocate its step record")
        # the one copy of the record; times and states are views into it
        rows = np.empty((rec.n_rows, m + 1))
        ctypes.memmove(rows.ctypes.data, rec.rows, rows.nbytes)
    finally:
        _lib.ws_free(ctypes.byref(rec))
    return rows[:, 0], rows[:, 1:], status, rec.n_accepted, rec.n_rejected, rec.n_implicit, rec.t_reached


def _c_format_floats(values: np.ndarray, cols: int, sep: str, row_sep: str) -> str | None:
    """The doubles of ``values``, a C-contiguous float64 ndarray read in
    memory order whatever its shape, each as ``float.__repr__`` writes it,
    with ``sep`` between two in a row of ``cols`` and ``row_sep`` between two
    rows; ``None`` if a value is not finite."""
    if not isinstance(values, np.ndarray):
        raise TypeError(f"values must be a C-contiguous float64 ndarray, not {type(values).__name__}")
    if values.dtype != np.float64 or not values.flags.c_contiguous:
        raise TypeError(f"values must be a C-contiguous float64 ndarray, got dtype {values.dtype}, "
                        f"C-contiguous {values.flags.c_contiguous}")
    if cols < 1:
        raise ValueError(f"cols must be >= 1, got {cols}")
    n = values.size
    if n == 0:
        return ""
    rows = -(-n // cols)
    sep, row_sep = sep.encode("ascii"), row_sep.encode("ascii")
    # uninitialised: the formatter writes every byte that is read back
    out = np.empty(n * _REPR_MAX + (n - rows) * len(sep) + (rows - 1) * len(row_sep), np.uint8)
    length = _lib.ws_format(values.ctypes.data, n, cols, sep, row_sep, out.ctypes.data)
    # str() decodes straight from the buffer, the one copy of the text
    return None if length < 0 else str(memoryview(out)[:length], "ascii")


format_floats = None if _lib is None else _c_format_floats

_KERNELS = {"python": _stepper_py}
if _lib is not None:
    _KERNELS["c"] = types.SimpleNamespace(KERNEL_NAME="c", integrate_core=_c_integrate_core)
_impl = _KERNELS.get("c", _stepper_py)

integrate_core = _impl.integrate_core


def active_kernel() -> str:
    """Name of the kernel in use: ``"c"`` or ``"python"``."""
    return _impl.KERNEL_NAME


def kernels():
    """All usable kernels, for parity tests and benchmarks."""
    return dict(_KERNELS)
