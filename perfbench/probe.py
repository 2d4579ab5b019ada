"""Reference probe for speed correction, and the guard that protects it.

The probe is fixed work of the same flavour as the program's: interpreted
float arithmetic, then NumPy calls on 16-element arrays with ``out=``
buffers as in the stepper, about half the time each.  It imports
nothing from ``waningsim``, so a change to the program cannot change it.  It
runs between tasks and, from a wall-clock timer signal, every ``TICK_S``
during them; the time of the in-task runs is taken out of the task's time.
A task that took ``t`` while the probe runs around and inside it took
``p_1 .. p_k`` seconds is reported as ``t * NOMINAL_S * mean(1 / p_i)``: the
time the work would have taken on a host that runs the probe in
``NOMINAL_S``.  (The timer samples uniformly in time, so the mean of
``1 / p`` weighs each stretch of the task by the work done in it.)

Between tasks the probe only runs while the process has the threads it
started with and no live child process.  Background work left running by the
program would slow the probe and so make the program look faster than it is.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import median

import numpy as np

# median probe time on the reference host (2 vCPU, Python 3.11.7, NumPy 2.4.6)
NOMINAL_S = 7.0e-5

_REPEATS = 3
TICK_S = 0.02
_VECTOR = np.linspace(0.5, 1.5, 16)
_TASKS = Path("/proc/self/task")


class BackgroundWorkError(RuntimeError):
    """Threads or child processes outlived the work that started them."""


def _once() -> float:
    start = time.perf_counter()
    x = 0.0
    for k in range(300):
        x = (x * 0.999 + k * 1e-3) % 7.0
    v = _VECTOR.copy()
    work = np.empty_like(v)
    for _ in range(12):
        np.multiply(v, 0.7, out=work)
        work += 0.25
        v = np.sqrt(work)
        x = (x * 0.999 + float(v @ v)) % 7.0
    return time.perf_counter() - start


def _threads() -> int:
    return len(os.listdir(_TASKS)) if _TASKS.is_dir() else threading.active_count()


def _children() -> bool:
    if not _TASKS.is_dir():
        return False
    for tid in os.listdir(_TASKS):
        try:
            if (_TASKS / tid / "children").read_text().strip():
                return True
        except OSError:
            continue
    return False


class Probe:
    """Probe timer bound to the thread count at construction."""

    def __init__(self):
        self.threads = _threads()
        self.samples = []  # between tasks
        self.ticks = []  # inside tasks
        self.tick_seconds = 0.0

    def _quiet(self) -> bool:
        return _threads() <= self.threads and not _children()

    def measure(self) -> float:
        """Median of a few probe runs between tasks, in seconds."""
        deadline = time.monotonic() + 2.0
        while not self._quiet():
            if time.monotonic() > deadline:
                raise BackgroundWorkError(
                    f"{_threads()} threads (started with {self.threads}) or a live child process; "
                    "the speed probe would be slowed by background work"
                )
            time.sleep(0.01)
        value = median(_once() for _ in range(_REPEATS))
        self.samples.append(value)
        return value

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.ticks.append(_once())
        self.tick_seconds += time.perf_counter() - start

    @contextmanager
    def sampling(self):
        """Run the probe every ``TICK_S`` of wall time inside the block."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)


def correction(samples) -> float:
    """Factor that maps a time measured while the probe took ``samples``
    seconds to nominal speed."""
    return NOMINAL_S * sum(1.0 / p for p in samples) / len(samples)
