"""Every numeric tolerance of the package, each with the reason for its value.

The other modules import these names. A residual that may be NaN is tested
as `not (residual <= tol)`, so a NaN residual fails its check.
"""

# Validation of states (states, matrixcore).
HERMITIAN_ATOL = 1e-10  # max |A - A^dag| entry: float noise of a Hermitian product
TRACE_ATOL = 1e-10  # |Tr rho - 1|: rounding of a normalised trace
PSD_MIN_EIGENVALUE = -1e-9  # admits states produced by noisy numeric pipelines
NORM_ATOL = 1e-12  # | ||v|| - 1 |: rounding of a normalised vector

# Theorem checks of the measures (measures).
NEGATIVE_EIGENVALUE_CUTOFF = -1e-10  # PT eigenvalues above this are solver noise, not negative
DUAL_NEGATIVITY_ATOL = 1e-9  # the two negativity expressions differ only by rounding
BOUND_ATOL = 1e-9  # slack on the proven intervals of N, D and N^2 - D
DISCORD_CLAMP_FLOOR = -1e-12  # discord down to this is solver noise, clamped to 0; below, a fault
IDENTITY_ATOL = 1e-10  # the two sides of each measurement identity differ only by rounding
# N and D of a pure draw from Schmidt data against the kernel on its projector:
# rounding only (at most 1.5e-15 on 20,900 random pure states at 2x2 to 4x4).
PURE_ROUTE_ATOL = 1e-12
SCHMIDT_CUTOFF = 1e-12  # Schmidt coefficients at or below this are rounding noise of a zero

# Verdicts (families, io_cli).
CLOSED_FORM_ATOL = 1e-12  # a family member's measured gap against its closed forms: rounding only
VIOLATION_EPS = 1e-12  # a gap N^2 - D counts as a violation only when it clears float noise
# Oracle against formula in `verify`: the oracle's climb ends within 1e-18 of
# its maximum, so the two differ by rounding of their sums (at most 1.55e-15
# on 160,000 states: 20,000 Hilbert-Schmidt and 20,000 pure at each of 2x2 to
# 2x5), while a wrong formula misses by far more.
VERIFY_ORACLE_ATOL = 1e-10
