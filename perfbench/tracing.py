"""Spans around the program's layers, recorded from outside the program.

``Tracer.install`` replaces each traced public function with a timing wrapper
in every ``waningsim`` module namespace that bound it: ``scanfit`` and
``reports`` each hold their own ``refine_endemic``, while ``dynamics`` looks
``stepper.integrate_core`` up as an attribute at call time.  Spans record
their parent span and the task; they stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

TRACED = (
    ("reports", "analyze_config"),
    ("dfe", "basic_reproduction_number"),
    ("endemic", "refine_endemic"),
    ("endemic", "solve_susceptible_block"),
    ("stability", "dfe_spectrum"),
    ("stability", "endemic_spectrum"),
    ("model", "build_general"),
    ("scanfit", "sweep"),
    ("scanfit", "fit"),
    ("scanfit", "simulate_annual_prevalence"),
    ("dynamics", "integrate"),
    ("stepper", "integrate_core"),
)

TASK_SPAN = "cli.main"

PATHS = {"certified-contraction": "contraction", "numeric-uncertified": "bisection"}


def _summary(label: str, result):
    """What a span keeps of its function's result."""
    if label == "stepper.integrate_core":
        return [int(result[3]), int(result[4])]
    if label == "endemic.refine_endemic":
        return PATHS.get(result.certification, result.certification)
    if label == "scanfit.fit":
        return int(result.evaluations)
    if label == "scanfit.sweep":
        return len(result.points)
    return None


class Tracer:
    def __init__(self):
        # (id, parent id or -1, task, label, start_ns, end_ns, summary)
        self.spans = []
        self.task = None
        self._stack = []
        self._patches = []

    def _wrap(self, label: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                spans[sid] = (sid, parent, self.task, label, start, time.perf_counter_ns(), "raised " + type(exc).__name__)
                raise
            finally:
                stack.pop()
            spans[sid] = (sid, parent, self.task, label, start, time.perf_counter_ns(), _summary(label, result))
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name == "waningsim" or name.startswith("waningsim.")]
        for module_name, attr in TRACED:
            original = getattr(importlib.import_module(f"waningsim.{module_name}"), attr)
            wrapper = self._wrap(f"{module_name}.{attr}", original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        self._patches.append((module, name, original))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    def run_task(self, task_id: str, fn):
        """Run ``fn`` as the task span ``cli.main``."""
        self.task = task_id
        return self._wrap(TASK_SPAN, fn)()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, task, label, start, end, summary in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "task": task, "name": label,
                                     "start_ns": start, "end_ns": end, "result": summary}) + "\n")


def layer_metrics(spans) -> dict:
    """Per-layer figures from the spans (units as in BENCHMARK.json)."""
    calls = defaultdict(int)
    total = defaultdict(int)
    child = defaultdict(int)  # time of direct children, for self time
    core_under_integrate = 0
    by_id = {}
    for span in spans:
        sid, parent, _task, label, start, end, _summary = span
        by_id[sid] = span
        calls[label] += 1
        total[label] += end - start
    for sid, parent, _task, label, start, end, _summary in spans:
        if parent >= 0:
            parent_label = by_id[parent][3]
            child[parent_label] += end - start
            if label == "stepper.integrate_core" and parent_label == "dynamics.integrate":
                core_under_integrate += end - start

    def per(label, unit_ns=1):
        return total[label] / calls[label] / unit_ns if calls[label] else 0.0

    def self_per(label, unit_ns):
        return (total[label] - child[label]) / calls[label] / unit_ns if calls[label] else 0.0

    def results(label):
        return [s[6] for s in spans if s[3] == label]

    tasks = calls[TASK_SPAN]
    paths = defaultdict(int)
    for path in results("endemic.refine_endemic"):
        paths[{"raised RefinementError": "failed", "raised NoEndemicEquilibriumError": "none"}.get(path, path)] += 1
    steps = [s for s in results("stepper.integrate_core") if isinstance(s, list)]
    accepted = sum(s[0] for s in steps)
    rejected = sum(s[1] for s in steps)
    fits = [e for e in results("scanfit.fit") if isinstance(e, int)]
    points = sum(p for p in results("scanfit.sweep") if isinstance(p, int))
    refines = calls["endemic.refine_endemic"]
    failed_evals = sum(1 for r in results("scanfit.simulate_annual_prevalence") if isinstance(r, str))
    return {
        "cli.main.self_ms": self_per(TASK_SPAN, 1e6),
        "reports.analyze_config.ms": per("reports.analyze_config", 1e6),
        "reports.analyze_config.self_ms": self_per("reports.analyze_config", 1e6),
        "dfe.basic_reproduction_number.calls": calls["dfe.basic_reproduction_number"] / tasks,
        "dfe.basic_reproduction_number.us": per("dfe.basic_reproduction_number", 1e3),
        "endemic.refine_endemic.ms": per("endemic.refine_endemic", 1e6),
        "endemic.path.contraction": paths["contraction"] / tasks,
        "endemic.path.bisection": paths["bisection"] / tasks,
        "endemic.path.failed": paths["failed"] / tasks,
        "endemic.path.none": paths["none"] / tasks,
        "endemic.solve_susceptible_block.calls": calls["endemic.solve_susceptible_block"] / refines if refines else 0.0,
        "endemic.solve_susceptible_block.us": per("endemic.solve_susceptible_block", 1e3),
        "stability.dfe_spectrum.ms": per("stability.dfe_spectrum", 1e6),
        "stability.endemic_spectrum.ms": per("stability.endemic_spectrum", 1e6),
        "model.build_general.calls": calls["model.build_general"] / tasks,
        "model.build_general.us": per("model.build_general", 1e3),
        "scanfit.sweep.point_ms": total["scanfit.sweep"] / points / 1e6 if points else 0.0,
        "dynamics.integrate.calls": calls["dynamics.integrate"] / tasks,
        "dynamics.integrate.overhead_us": (
            (total["dynamics.integrate"] - core_under_integrate) / calls["dynamics.integrate"] / 1e3
            if calls["dynamics.integrate"] else 0.0
        ),
        "stepper.integrate_core.ms": per("stepper.integrate_core", 1e6),
        "stepper.us_per_step": total["stepper.integrate_core"] / (accepted + rejected) / 1e3 if steps else 0.0,
        "stepper.steps_accepted": accepted / tasks,
        "stepper.steps_rejected": rejected / tasks,
        "scanfit.fit.evaluations": sum(fits) / len(fits) if fits else 0.0,
        "scanfit.fit.eval_ms": per("scanfit.simulate_annual_prevalence", 1e6),
        "scanfit.fit.failed_evaluations": failed_evals / len(fits) if fits else 0.0,
    }
