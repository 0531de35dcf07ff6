"""Numerical tolerances shared across the decision pipeline.

The thresholds that a problem document's ``options`` may set live in one
frozen dataclass, so that a single object can be threaded through analysis,
certificate generation and verification; ``options`` is the only way to
change them.  Fixed thresholds are module constants beside their one reader:
``series.POLE_MARGIN``, ``series.QUAD_MAX_N``, ``series.GAUSS_NODES`` (nodes
per panel of the arc rule), ``model.ROOT_TOL`` (the outer check and the
circle roots), ``model.CLUSTER_TOL`` (multiple roots),
``model.SAMPLE_RETRIES`` (draws of the member generator), the
``certificates.WITNESS_*`` checks and ``certificates.POSITIVITY_MAX_NODES``
(the witness positivity grid cap).  Certificates run no quadrature: of these
they read ``membership`` alone.  ``series.STACK_ELEMENTS`` bounds the arrays
of a sweep's stacked rows.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # quadrature: refinement stops once successive means agree within quad; the trapezoid
    # grid starts at quad_start_n only for integrands with no known singularity (l1_norm
    # starts from the outer factor's roots and poles; the arc rule at one panel)
    quad: float = 1e-10
    quad_start_n: int = 1024  # no option sets it; perfbench/tracing.py reads it per mean
    # relative singular-value cutoff for the rank decision
    rank: float = 1e-8
    # relative hole-coefficient threshold for space membership
    membership: float = 1e-9
    # relative threshold for the single-hole determinant sign test
    delta: float = 1e-8


DEFAULT = Tolerances()
