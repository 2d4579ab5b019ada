"""Tools for multi-tier waning-immunity epidemic models.

Subpackages cover configuration and the ODE right-hand side (:mod:`.model`),
disease-free equilibria and reproduction numbers (:mod:`.dfe`), perturbative
endemic-equilibrium localization and refinement (:mod:`.endemic`), Jacobian
spectra and stability verdicts (:mod:`.stability`), time integration
(:mod:`.dynamics`), parameter sweeps / data ingestion / fitting
(:mod:`.scanfit`), and a file-based CLI (:mod:`.cli`).

The time integrator runs on the C kernel ``_stepper.c``, compiled on first
import when a C compiler is available, and on a pure-NumPy kernel otherwise;
see :func:`waningsim.stepper.active_kernel`.
"""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    ConfigError,
    ModelConfig,
    StateVector,
    build_all_but_last,
    build_general,
    build_last_only,
    config_from_json,
    config_to_json,
    diagonal_coefficients,
    epidemic_start,
    load_config,
    vector_field,
)


def __getattr__(name):
    # keep `import waningsim` light; submodules load on first attribute access
    if name in ("dfe", "endemic", "stability", "dynamics", "scanfit", "reports", "data"):
        import importlib

        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
