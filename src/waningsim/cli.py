"""File-based command-line interface.

Subcommands: ``simulate``, ``analyze``, ``sweep``, ``fit``, ``dfe``, ``r0``.
All input and output goes through files (or stdout); there is no network
access.  Exit codes: 0 success, 2 configuration or input error (a
non-finite reproduction-number threshold and an input too large for memory
included), 3 integration failure, 4 regime-consistency violation (a bug
signal; should never fire in the small-waning regime).  Each ``cmd_*``
returns the configuration, the manifest options it adds and its result, or
raises; :func:`main` alone writes the artifact and maps every outcome to its
exit code.

Every artifact embeds a run manifest, whose options are the parsed
arguments other than ``--config``, ``--spec`` and ``--out`` (a sweep adds
its spec's ``parameter``, ``observable``, ``grid_size`` and ``t_end``).
JSON artifacts hold it under ``"manifest"`` beside the ``"data"`` section;
CSV artifacts carry it in one leading ``#`` comment line.  Data sections
are byte-identical across reruns with identical inputs on the same kernel
(the compiled and NumPy kernels' trajectories agree only to rounding).

A command imports only the modules it runs: this module loads what every
command needs, and ``sweep`` and ``fit`` import :mod:`.scanfit` when they
run.  Each command does its work once: :func:`main` gives a known
command's arguments straight to that command's parser (the full parser
answers ``--help``, no command, an unknown command and an unknown option,
with argparse's own messages), and ``analyze`` forms the steady profile at
prevalence 0 once for R0, the existence test and the root search.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .dfe import NonFiniteThresholdError, basic_reproduction_number, solve_dfe_closed_form
from .dynamics import DEFAULT_ATOL, DEFAULT_MAX_STEPS, DEFAULT_RTOL, IntegrationError, integrate
from .model import ConfigError, epidemic_start, load_config
from .reports import analyze_config, build_manifest, json_document

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INTEGRATION = 3
EXIT_INCONSISTENT = 4

# parsed arguments that are not options of the run: the command itself and
# the files it reads and writes
_NOT_OPTIONS = ("command", "func", "config", "spec", "out")


class InconsistentReportError(Exception):
    """The analysis report contradicts the threshold theory (exit 4)."""


def _free_parameters(text: str) -> list:
    return [name.strip() for name in text.split(",") if name.strip()]


def cmd_simulate(args):
    # integrate's check, made before the sample grid is built from t_end
    if not (math.isfinite(args.t_end) and args.t_end > 0):
        raise ConfigError(f"t_end must be finite and positive, got {args.t_end}")
    if args.samples < 0:
        raise ConfigError(f"--samples must be >= 0, got {args.samples}")
    if args.samples > args.max_steps:
        raise ConfigError(f"--samples {args.samples} exceeds --max-steps {args.max_steps}: "
                          "each sample time costs at least one step")
    config = load_config(args.config)
    grid = np.linspace(0.0, args.t_end, args.samples + 1) if args.samples else None
    if grid is not None and not (np.diff(grid) > 0).all():
        raise ConfigError(f"--t-end {args.t_end} is too short for --samples {args.samples}: "
                          "the sample grid repeats a time")
    trajectory = integrate(
        config,
        epidemic_start(config, args.i0),
        args.t_end,
        rtol=args.rtol,
        atol=args.atol,
        t_eval=None if grid is None else grid[1:],
        max_steps=args.max_steps,
    )
    if grid is not None:
        trajectory = trajectory.at_times(grid)
    return config, {}, trajectory


def cmd_analyze(args):
    config = load_config(args.config)
    report = analyze_config(config)
    consistency = report["consistency"]
    if consistency["checked"] and not consistency["consistent"]:
        raise InconsistentReportError(consistency["note"])
    return config, {}, report


def cmd_dfe(args):
    config = load_config(args.config)
    return config, {}, solve_dfe_closed_form(config).to_dict()


def cmd_r0(args):
    config = load_config(args.config)
    return config, {}, basic_reproduction_number(config).to_dict()


def cmd_sweep(args):
    from .scanfit import load_sweep_spec, sweep

    if args.jobs != 1:
        raise ConfigError(f"--jobs must be 1, got {args.jobs}: sweeps run in one process")
    spec = load_sweep_spec(args.spec)
    result = sweep(spec)
    extra = {"parameter": spec.parameter, "observable": spec.observable, "grid_size": int(spec.grid.size),
             "t_end": spec.t_end}
    return spec.base_config, extra, result


def cmd_fit(args):
    from .scanfit import FitOptions, fit, ingest_timeseries

    config = load_config(args.config)
    with open(args.data, "r", encoding="utf-8") as fh:
        data = ingest_timeseries(fh)
    options = FitOptions(
        start_year=args.start_year,
        initial_prevalence=args.i0,
        log_sse=args.log_sse,
        max_iterations=args.max_iterations,
        restarts=args.restarts,
    )
    return config, {}, fit(config, args.free, data, options)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on first use.

    Sharing it is safe: ``parse_args`` returns a fresh namespace each call
    and every default is an immutable scalar.
    """
    parser = argparse.ArgumentParser(
        prog="waningsim",
        description="Waning-immunity compartment models: simulation, equilibria, sweeps, fitting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output path (default: stdout)")

    p = sub.add_parser("simulate", parents=[common], help="integrate the model and export the trajectory")
    p.add_argument("--config", required=True)
    p.add_argument("--t-end", dest="t_end", type=float, required=True, help="horizon in years")
    p.add_argument("--samples", type=int, default=200, help="evenly spaced sample times (0 keeps every accepted step)")
    p.add_argument("--i0", type=float, default=1e-6, help="initial infectious proportion")
    p.add_argument("--rtol", type=float, default=DEFAULT_RTOL)
    p.add_argument("--atol", type=float, default=DEFAULT_ATOL)
    p.add_argument("--max-steps", dest="max_steps", type=int, default=DEFAULT_MAX_STEPS)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", parents=[common], help="equilibria, R0, and stability report")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("dfe", parents=[common], help="disease-free equilibrium (closed form)")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_dfe)

    p = sub.add_parser("r0", parents=[common], help="basic reproduction number report")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_r0)

    p = sub.add_parser("sweep", parents=[common], help="one-parameter sweep from a spec file")
    p.add_argument("--spec", required=True, help="sweep spec JSON (config, parameter, grid, observable)")
    p.add_argument("--jobs", type=int, default=1,
                   help="must be 1: sweeps run in one process (kept for scripts that pass it; "
                        "the manifest records it)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("fit", parents=[common], help="least-squares fit to annual prevalence data")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True, help="CSV: year,prevalence or year,cases,population")
    p.add_argument("--free", type=_free_parameters, default="beta_scale,omega,delta",
                   help="comma-separated free parameters")
    p.add_argument("--start-year", dest="start_year", type=int, default=None)
    p.add_argument("--i0", type=float, default=1e-6)
    p.add_argument("--log-sse", dest="log_sse", action="store_true")
    p.add_argument("--max-iterations", dest="max_iterations", type=int, default=2000,
                   help="residual evaluations per least-squares run, finite-difference Jacobian ones not counted")
    p.add_argument("--restarts", type=int, default=2, help="re-runs from the best point while the SSE falls")
    p.set_defaults(func=cmd_fit)
    # each command's own parser, by name, for main's one parse
    parser.commands = sub.choices
    return parser


def _parse(argv):
    """The parsed arguments, parsed once: a known command's by its own
    parser, which the full parser would call with the same arguments and
    whose errors and help are the same either way.  Anything else goes to
    the full parser, so that an option no parser knows is reported as the
    full parser reports it."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, unknown = command.parse_known_args(argv[1:])
        if not unknown:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    """Run one command, ``argv`` without the program name (default
    ``sys.argv[1:]``), write its artifact and return its exit code."""
    args = _parse(argv)
    try:
        config, extra, result = args.func(args)
        options = {key: value for key, value in vars(args).items() if key not in _NOT_OPTIONS}
        manifest = build_manifest(args.command, config, options | extra)
        if getattr(args, "format", "json") == "csv":
            text = "# manifest: " + json.dumps(manifest, sort_keys=True) + "\n" + result.to_csv()
        else:
            text = json_document(manifest, result if isinstance(result, dict) else result.to_json_dict())
        if args.out is None or args.out == "-":
            sys.stdout.write(text)
        else:
            with open(args.out, "wb") as fh:
                fh.write(text.encode())
    except IntegrationError as exc:
        print(f"integration failed: {exc}", file=sys.stderr)
        return EXIT_INTEGRATION
    except (NonFiniteThresholdError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InconsistentReportError as exc:
        print(f"regime consistency violated: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
