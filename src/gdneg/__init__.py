"""Geometric discord and negativity for bipartite quantum states.

Measures (negativity, geometric discord and its correlation-tensor lower
bound, pure-state formulas), Bloch decomposition over SU(d) generator bases,
partial-transpose spectra, built-in families of 2 (x) 3 states where the
squared negativity exceeds the geometric discord, and a CLI for analysis,
sweeps, sampling and bound verification.

The names below are resolved on first use (PEP 562): `import gdneg` loads
no layer and no numpy, and `gdneg.bounds_check` is `gdneg.measures.bounds_check`,
looked up in its module on every access.
"""

import importlib

__version__ = "0.1.0"

# defining module: the names the package exports from it
_EXPORTS = {
    "bloch": ("BlochForm", "decompose", "g_matrix", "reconstruct"),
    "errors": (
        "BoundViolation",
        "CapViolation",
        "DimensionMismatch",
        "InvalidDimension",
        "InvalidRange",
        "InvalidState",
        "NotAState",
        "NotSquare",
        "ParseError",
        "UnknownFamily",
        "FAMILY_NAMES",
    ),
    "families": ("FamilySpec", "build", "rho1_closed_forms", "violates"),
    "matrixcore": (
        "hermiticity_defect",
        "hs_norm_sq",
        "partial_transpose",
    ),
    "measures": (
        "MeasureReport",
        "bounds_check",
        "gd_bruteforce_stack",
        "maximal_state",
        "project_a",
        "pure_gd",
        "pure_negativity",
        "schmidt",
    ),
    "states": ("DensityMatrix", "PureState"),
    "su_generators": ("basis_for",),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
