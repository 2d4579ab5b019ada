"""Analysis report bundles and reproducibility manifests.

The analysis report gathers everything the library can say about one
configuration: reproduction number, disease-free profile and spectrum,
endemic localization/refinement, and stability verdicts, plus a consistency
field asserting that the threshold theory and the computed equilibria agree
wherever the theory applies.  A consistency violation is the "should never
happen" signal surfaced by the CLI as exit code 4.

Every CLI artifact embeds a run manifest.  The run key hashes the command
name together with the canonical configuration, so identical inputs always
map to the identical key; timestamps live next to it without affecting it.
"""

from __future__ import annotations

import hashlib
import math
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__, stepper
from .dfe import basic_reproduction_number
from .model import ModelConfig, config_digest, config_to_dict

__all__ = ["build_manifest", "run_key", "analyze_config", "json_document"]


def run_key(command: str, config_hash: str) -> str:
    return hashlib.sha256(f"{command}:{config_hash}".encode()).hexdigest()


def build_manifest(command: str, config: ModelConfig | None, options: dict) -> dict:
    config_hash = config_digest(config) if config is not None else None
    return {
        "command": command,
        "config_hash": config_hash,
        "run_key": run_key(command, config_hash or ""),
        "options": {k: options[k] for k in sorted(options)},
        "kernel": stepper.active_kernel(),
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _consistency(report: dict) -> dict:
    """Cross-check the threshold classification against the equilibria found.

    Existence and uniqueness of the endemic equilibrium follow from R0 at
    every waning rate (:mod:`waningsim.endemic`), but its stability is proven
    only in the small-waning regime, so the check is strict only where the
    contraction certificate holds, R0 is clearly on one side of 1 and no
    spectrum sits inside the marginal band.
    """
    loc = report["localization"]
    r0 = report["r0"]
    if not loc["validity"]:
        return {"checked": False, "consistent": True, "note": "contraction certificate failed; theory silent"}
    if r0["regime"] == "critical":
        return {"checked": False, "consistent": True, "note": "near-critical configuration"}
    # a birth rate below the band width puts an eigenvalue near -mu inside it
    spectra = (report["dfe_stability"], report["endemic_stability"])
    if any(verdict is not None and verdict["classification"] == "marginal" for verdict in spectra):
        return {"checked": False, "consistent": True, "note": "spectrum inside the marginal band"}
    supercritical = r0["regime"] == "unstable"
    endemic = report["endemic"]
    endemic_stab = report["endemic_stability"]
    if supercritical:
        ok = (
            endemic is not None
            and endemic["i_star"] > 0
            and endemic_stab is not None
            and endemic_stab["classification"] == "asymptotically_stable"
            and report["dfe_stability"]["classification"] == "unstable"
        )
        note = "unstable DFE with a unique stable endemic equilibrium" if ok else "endemic equilibrium missing or unstable despite supercritical thresholds"
    else:
        ok = endemic is None and report["dfe_stability"]["classification"] == "asymptotically_stable"
        note = "stable DFE and no endemic equilibrium" if ok else "found an endemic equilibrium despite subcritical thresholds"
    return {"checked": True, "consistent": bool(ok), "note": note}


def analyze_config(config: ModelConfig) -> dict:
    """Full equilibrium and stability report for one configuration.

    The endemic and stability layers are imported by the call, not with
    this module, so that the commands that never analyze (``r0``, ``dfe``,
    ``simulate``) never load them.
    """
    from .endemic import NoEndemicEquilibriumError, RefinementError, localize_endemic, refine_endemic
    from .stability import dfe_spectrum, endemic_spectrum

    r0 = basic_reproduction_number(config)
    dfe = r0.dfe
    loc = localize_endemic(config)

    endemic = None
    endemic_verdict = None
    endemic_error = None
    try:
        solution = refine_endemic(config)
        endemic = solution.to_dict()
        endemic_verdict = endemic_spectrum(config, solution).to_dict()
    except NoEndemicEquilibriumError:
        pass
    except RefinementError as exc:
        endemic_error = str(exc)

    report = {
        "config": config_to_dict(config),
        "r0": r0.to_dict(),
        "dfe": dfe.to_dict(),
        "dfe_stability": dfe_spectrum(config, dfe).to_dict(),
        "localization": loc.to_dict(),
        "endemic": endemic,
        "endemic_stability": endemic_verdict,
        "endemic_error": endemic_error,
    }
    report["consistency"] = _consistency(report)
    return report


# below this many elements a list is written by Python's own join, which
# beats the fixed cost of one call into the compiled formatter (a 3-float
# list: 1.2 us against 3.8 us)
SHORT_RUN = 5


def _float_array(a: np.ndarray, level: str) -> str | None:
    """``a.tolist()`` as :func:`_encode` writes it, by one call of the
    compiled formatter, if ``a`` is a 1-D or 2-D float64 array of at least
    ``SHORT_RUN`` finite elements; otherwise ``None``."""
    if stepper.format_floats is None or a.dtype != np.float64 or a.ndim not in (1, 2) or a.size < SHORT_RUN:
        return None
    inner = level + "  "
    if a.ndim == 1:
        head, sep, row_sep, tail = "[\n" + inner, ",\n" + inner, "", "\n" + level + "]"
    else:
        cell = inner + "  "
        head, sep, tail = "[\n" + inner + "[\n" + cell, ",\n" + cell, "\n" + inner + "]\n" + level + "]"
        row_sep = "\n" + inner + "],\n" + inner + "[\n" + cell
    # a flat view of a C-contiguous array, a copy of any other
    body = stepper.format_floats(a.ravel(), a.shape[-1], sep, row_sep)
    return None if body is None else head + body + tail


def _encode(value, level: str) -> str:
    """``value`` as ``json.dumps(value, indent=2)`` writes it at nesting
    ``level`` (the indent of its own line), non-finite floats as ``null``."""
    if isinstance(value, float):
        return float.__repr__(value) if math.isfinite(value) else "null"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = level + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(f"{encode_basestring_ascii(key)}: {_encode(item, inner)}")
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + level + "}"
    if isinstance(value, np.ndarray):
        text = _float_array(value, level)
        return _encode(value.tolist(), level) if text is None else text
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if stepper.format_floats is not None and len(value) >= SHORT_RUN and set(map(type, value)) == {float}:
            text = _float_array(np.array(value), level)
            if text is not None:
                return text
        sep = ",\n" + inner
        try:  # fast path: a list of floats
            body = sep.join(map(float.__repr__, value))
        except TypeError:  # an element is not a float
            body = None
        if body is None or "n" in body:  # the "n" of nan or inf: each element on its own
            body = sep.join([_encode(item, inner) for item in value])
        return "[\n" + inner + body + "\n" + level + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def json_document(manifest: dict, data) -> str:
    """Standard CLI artifact layout: manifest beside a deterministic data
    section (re-running identical inputs reproduces the data bytes).

    The text is byte for byte ``json.dumps({"manifest": manifest, "data":
    data}, indent=2) + "\\n"``, except that non-finite floats are written as
    ``null``, so the artifact is valid RFC 8259 JSON, and that a NumPy array
    is written exactly as its ``tolist()`` would be.  Dict keys must be
    ``str``; other keys, and values ``json.dumps`` rejects, raise
    ``TypeError``.  One pass writes it, because ``json.dumps`` with an
    indent runs its pure-Python encoder.  When the kernel's C library is
    loaded, each 1-D or 2-D float64 array of ``SHORT_RUN`` or more finite
    elements (a trajectory's ``times`` and ``states``, eigenvalue pairs) is
    formatted from its buffer by one call of the compiled formatter
    (:func:`stepper.format_floats`), and so is each list of ``SHORT_RUN`` or
    more finite floats, by way of ``np.array``.
    """
    return _encode({"manifest": manifest, "data": data}, "") + "\n"
