"""Extreme and exposed points of the unit ball in punctured Hardy spaces.

Decides, for an explicitly factored unit-norm function (finite Blaschke
inner factor times rational outer factor) with prescribed spectral holes,
whether it is an extreme point of the unit ball — and certifies the answer:
non-extreme verdicts come with a perturbation witness that re-verifies from
first principles, extreme verdicts with a kernel-uniqueness check and a
sufficient exposedness gate.
"""

from .certificates import (
    DegenerateKernelError,
    ExposednessResult,
    PerturbationWitness,
    WitnessReport,
    check_exposed,
    make_witness,
    verify_witness,
    witness_h_values,
)
from .extremality import (
    BORDERLINE,
    EXTREME,
    NON_EXTREME,
    DeltaResult,
    ExtremalityVerdict,
    SymmetricPolynomial,
    canonical_kernel_vector,
    decide_extreme,
    kernel_alignment,
    single_hole_delta,
)
from .model import (
    BlaschkeProduct,
    FactoredFunction,
    MaxRetriesExceededError,
    MembershipReport,
    NotInSpaceError,
    NotOuterError,
    OuterRational,
    PuncturedSpace,
    check_membership,
    l1_norm,
    normalize,
    sample_member,
)
from .series import (
    PoleMarginError,
    QuadratureConvergenceError,
    Rational,
    circle_nodes,
    converged_circle_mean,
)
from .tolerances import DEFAULT, Tolerances

__version__ = "0.1.0"
