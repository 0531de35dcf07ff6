"""Numerical tolerances shared across the decision pipeline.

The thresholds that flags, environment variables, problem options or tests
override live in one frozen dataclass, so that a single object can be
threaded through analysis, certificate generation and verification.  Fixed
thresholds are module constants beside their one reader:
``series.POLE_MARGIN``, ``series.QUAD_MAX_N``, ``series.GAUSS_NODES`` (nodes
per panel of the arc rule), ``model.ROOT_TOL`` (the outer check and the
circle roots), ``model.CLUSTER_TOL`` (multiple roots) and the
``certificates.WITNESS_*`` checks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Tolerances:
    # quadrature: refinement stops once successive means agree within quad;
    # the trapezoid grid starts at quad_start_n (the arc rule at one panel)
    quad: float = 1e-10
    quad_start_n: int = 1024
    # relative singular-value cutoff for the rank decision
    rank: float = 1e-8
    # relative hole-coefficient threshold for space membership
    membership: float = 1e-9
    # relative threshold for the single-hole determinant sign test
    delta: float = 1e-8
    # random-member generator
    sample_retries: int = 500

    def override(self, **kwargs) -> "Tolerances":
        """Copy with the given fields replaced (None values are ignored)."""
        updates = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **updates) if updates else self


DEFAULT = Tolerances()
