"""Geometric discord and negativity for bipartite quantum states.

Measures (negativity, geometric discord and its correlation-tensor lower
bound, pure-state formulas), Bloch decomposition over SU(d) generator bases,
partial-transpose spectra, built-in families of 2 (x) 3 states where the
squared negativity exceeds the geometric discord, and a CLI for analysis,
sweeps, sampling and bound verification.
"""

from .bloch import BlochForm, decompose, g_matrix, reconstruct
from .errors import (
    BoundViolation,
    CapViolation,
    DimensionMismatch,
    InvalidDimension,
    InvalidRange,
    InvalidState,
    NotAState,
    NotHermitian,
    NotSquare,
    ParseError,
    UnknownFamily,
    WrongDimension,
)
from .families import FAMILY_NAMES, FamilySpec, build, in_range, rho1_closed_forms, violates
from .matrixcore import (
    hermitian_eigenvalues,
    hermiticity_defect,
    hs_norm_sq,
    kron,
    partial_trace_b,
    partial_transpose,
    trace_norm,
)
from .measures import (
    DensityMatrix,
    MeasureReport,
    PureState,
    bounds_check,
    gd_bruteforce_2xn,
    gd_bruteforce_stack,
    gd_lower_bound,
    geometric_discord,
    maximal_state,
    measurement_identity_check,
    negativity,
    project_a,
    pt_negative_count,
    pure_gd,
    pure_negativity,
    schmidt,
)
from .su_generators import basis_for

__version__ = "0.1.0"
