"""End-to-end benchmark of the waningsim command line.

    python3 perfbench/run.py --workload equilibria --seed 1 --seconds 15 --trace 0

One closed-loop client runs each task of the workload (one CLI command,
``waningsim.cli.main(argv)`` in this process, files in a temporary directory)
one at a time, in whole passes over the task list until ``--seconds`` have
elapsed.  The first pass is warm-up and is not timed; its outputs are checked
against ``reference`` and every later pass must reproduce their data sections
byte for byte.  Times are speed-corrected by ``probe``.  ``--trace 1`` records
spans around the program's layers (``tracing``) on every other pass and
reports per-layer figures instead of the end-to-end ones.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os
import sys

# one BLAS/OpenMP thread: with the default pool, analyze at n=128 ranged
# 56-346 ms; pinned, 62-66 ms.  Must be set before NumPy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import platform
import re
import resource
import subprocess
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import numpy
import scipy

from probe import NOMINAL_S, BackgroundWorkError, Probe, correction
from reference import CheckError
from tracing import Tracer, layer_metrics
from workloads import build, data_section, perturbations

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_STARTS = 7
MAX_RUN_S = 150.0  # stop starting passes here, so a run ends within 180 s

EXIT_NO_PROGRAM = 2
EXIT_BACKGROUND = 3


@dataclass
class Outcome:
    task: object
    rc: object
    seconds: float
    factor: float
    text: str | None  # kept for the first pass only
    stderr: str
    changed: bool = False  # exit code or data section differs from the first pass

    @property
    def failed(self) -> bool:
        return self.rc != 0

    @property
    def corrected(self) -> float:
        return self.seconds * self.factor


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("equilibria", "trajectories", "calibration"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(probe):
    """Fresh interpreters importing waningsim.cli: corrected and raw seconds.

    The child runs on this process's CPU and the probe ticks there while it
    imports.  A tick then also waits for the child's time slice, so corrected
    set-up times read below raw ones; they stay proportional to the child's
    time and are far steadier than with the child on another CPU."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    corrected, raw = [], []
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    if cpus:
        os.sched_setaffinity(0, {min(cpus)})  # inherited by the child
    try:
        before = probe.measure()
        for _ in range(SETUP_STARTS):
            ticks = len(probe.ticks)
            with probe.sampling():
                start = time.perf_counter()
                proc = subprocess.run([sys.executable, "-c", "import waningsim.cli"], env=env, cwd=ROOT,
                                      capture_output=True, text=True, timeout=120)
                elapsed = time.perf_counter() - start
            if proc.returncode != 0:
                raise ImportError(f"importing waningsim.cli failed:\n{proc.stderr}")
            after = probe.measure()
            raw.append(elapsed)
            corrected.append(elapsed * correction([before, *probe.ticks[ticks:], after]))
            before = after
    finally:
        if cpus:
            os.sched_setaffinity(0, cpus)
    return corrected, raw


def run_pass(cli, tasks, probe, pass_id: int, tracer=None, first=None) -> list:
    """One pass over the tasks.  With ``first`` (name -> exit code and data
    section of the first pass) outputs are compared and dropped, so memory
    does not grow with the number of passes."""
    outcomes = []
    before = probe.measure()
    for task in tasks:
        task.out.unlink(missing_ok=True)
        err = io.StringIO()
        ticks, tick_seconds = len(probe.ticks), probe.tick_seconds
        with contextlib.redirect_stderr(err), probe.sampling():
            start = time.perf_counter()
            try:
                if tracer is None:
                    rc = cli.main(task.argv)
                else:
                    rc = tracer.run_task(f"{pass_id}:{task.name}", lambda: cli.main(task.argv))
            except Exception as exc:  # an uncaught error is a failed command
                rc = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        elapsed -= probe.tick_seconds - tick_seconds
        after = probe.measure()
        factor = correction([before, *probe.ticks[ticks:], after])
        text = task.out.read_text(encoding="utf-8") if task.out.exists() else None
        changed = False
        if first is not None:
            changed = first[task.name] != (rc, data_section(text))
            text = None
        outcomes.append(Outcome(task, rc, elapsed, factor, text, err.getvalue(), changed))
        before = after
    return outcomes


def verify(tasks, warm, timed) -> list:
    """Problems found in the outputs; empty when all is well."""
    problems = sorted({f"{o.task.name}: a later pass differs from the first (exit {o.rc})"
                       for passes in timed for o in passes if o.changed})
    good = {}
    for o in warm:
        if o.failed:
            if not o.task.known_fault:
                problems.append(f"{o.task.name}: exit {o.rc}: {o.stderr.strip()}")
            continue
        try:
            o.task.check(o.text)
            good[o.task.name] = o.text
        except Exception as exc:  # a malformed output fails its check too
            problems.append(f"{o.task.name}: {type(exc).__name__}: {exc}")
    for task, text, label in perturbations(tasks, good):
        try:
            task.check(text)
        except CheckError:
            continue
        problems.append(f"{task.name}: the check accepted a corrupted output ({label})")
    return problems


def throughput(outcomes) -> float:
    return sum(1 for o in outcomes if not o.failed) / sum(o.corrected for o in outcomes)


def blas_threads():
    """Threads of the BLAS library NumPy loaded, read from the library."""
    maps = Path("/proc/self/maps")
    libs = sorted(set(re.findall(r"(/\S*blas\S*\.so\S*)", maps.read_text()))) if maps.exists() else []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_sha():
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "waningsim").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts and path.suffix != ".so":
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "waningsim" / "cli.py").is_file():
        print(f"no program source at {SRC.relative_to(ROOT)}/waningsim", file=sys.stderr)
        return EXIT_NO_PROGRAM

    probe = Probe()  # thread count before the program is imported
    try:
        setup, setup_raw = measure_setup(probe)
    except (ImportError, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        return EXIT_NO_PROGRAM

    sys.path.insert(0, str(SRC))
    import waningsim
    from waningsim import cli, stepper

    if Path(waningsim.__file__).resolve().parent != SRC / "waningsim":
        print(f"imported waningsim from {waningsim.__file__}, not from {SRC}", file=sys.stderr)
        return EXIT_NO_PROGRAM

    OUT.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    run_start = time.monotonic()
    try:
        with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as workdir:
            tasks = build(args.workload, args.seed, Path(workdir))
            warm = run_pass(cli, tasks, probe, 0)
            first = {o.task.name: (o.rc, data_section(o.text)) for o in warm}
            timed, traced_flags = [], []
            start = time.monotonic()
            while True:
                traced = bool(args.trace) and len(timed) % 2 == 0
                if traced:
                    tracer.install()
                try:
                    timed.append(run_pass(cli, tasks, probe, len(timed) + 1, tracer if traced else None, first))
                finally:
                    if traced:
                        tracer.uninstall()
                traced_flags.append(traced)
                now = time.monotonic()
                whole = not args.trace or len(timed) % 2 == 0
                if whole and (now - start >= args.seconds or now - run_start >= MAX_RUN_S):
                    break
            problems = verify(tasks, warm, timed)
    except BackgroundWorkError as exc:
        print(exc, file=sys.stderr)
        return EXIT_BACKGROUND

    untraced = [o for passes, t in zip(timed, traced_flags) if not t for o in passes]
    attempted = [o for passes in timed for o in passes]
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "kernel": stepper.active_kernel(),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "probe_nominal_s": NOMINAL_S,
        "probe_median_s": median(probe.samples),
        "probe_min_s": min(probe.samples),
        "probe_max_s": max(probe.samples),
        "probe_in_task_median_s": median(probe.ticks) if probe.ticks else None,
    }
    raw = {
        "passes": len(timed),
        "tasks_per_pass": len(tasks),
        "setup_s": median(setup_raw),
        "tasks_per_s": sum(1 for o in untraced if not o.failed) / sum(o.seconds for o in untraced),
        "task_ms_p50": median(o.seconds for o in untraced) * 1e3,
    }
    known = sorted({f"{o.task.name}: exit {o.rc}" for o in attempted if o.failed and o.task.known_fault})
    if args.trace:
        metrics = layer_metrics(tracer.spans)
        traced = [o for passes, t in zip(timed, traced_flags) if t for o in passes]
        metrics["trace.tasks_per_s"] = throughput(traced)
        metrics["trace.untraced_tasks_per_s"] = throughput(untraced)
        metrics["trace.overhead_pct"] = (throughput(untraced) / throughput(traced) - 1.0) * 100.0
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = {
            "setup_s": median(setup),
            "tasks_per_s": throughput(untraced),
            "task_ms_p50": median(o.corrected for o in untraced) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer")
             for m in json.loads((ROOT / "BENCHMARK.json").read_text())[key]}
    result = {
        "correct": not problems,
        "attempted": len(attempted),
        "failed": sum(1 for o in attempted if o.failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    passes = [{"raw_s": sum(o.seconds for o in p), "corrected_s": sum(o.corrected for o in p), "traced": t}
              for p, t in zip(timed, traced_flags)]
    record = dict(result, env=env, raw=raw, passes=passes, problems=problems, known_faults=known)
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print("# env " + json.dumps(env))
    print("# raw " + json.dumps(raw))
    for line in known:
        print("# known fault " + line)
    for line in problems:
        print("# problem " + line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
