"""Machine-checkable evidence for verdicts.

A non-extreme verdict is certified by a perturbation witness: a symmetric
polynomial p of order n = min(m, M + 1) (plus, when m > M + 1, the spare
inner zeros beyond the first n) inducing a real nonconstant h on the circle
with f*h still in the space.  With c the weighted mean of h and epsilon small
enough to keep 1 +- epsilon*(h-c) positive, the functions
f*(1 +- epsilon*(h-c)) are two distinct unit-ball members whose midpoint is
f — the literal negation of extremality.  Verification recomputes everything
from the witness data and quadrature/expansion primitives alone; it never
consults the criterion matrix, so certification is independent of the
decision pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .extremality import (
    EXTREME,
    ExtremalityVerdict,
    SymmetricPolynomial,
    build_criterion_matrix,
    canonical_kernel_vector,
    numeric_rank,
)
from .model import FactoredFunction, MembershipReport, PuncturedSpace, check_membership
from .series import QuadratureConvergenceError, Rational, circle_nodes, converged_circle_mean
from .tolerances import DEFAULT, Tolerances

KERNEL_PATH = "kernel_path"
DEGREE_OVERFLOW_PATH = "degree_overflow_path"

# 1 +- epsilon*(h-c) must stay at least this positive on the grid; the
# construction guarantees 1/2, so anything below flags a tampered epsilon
POSITIVITY_FLOOR = 0.25
# largest accepted imaginary part of h, smallest accepted variation of h,
# relative hole coefficient of F*G and endpoint norm defect
WITNESS_REALNESS = 1e-10
WITNESS_VARIATION = 1e-6
WITNESS_HOLE = 1e-9
WITNESS_NORM = 1e-7
# uniform circle nodes of the sup of |h - c| that fixes epsilon, and of the
# realness, variation and positivity samples that verification takes
WITNESS_SUP_NODES = 16384
WITNESS_SAMPLE_NODES = 8192


class DegenerateKernelError(RuntimeError):
    """Every kernel vector is parallel to the canonical one.

    Contradicts a rank-deficient verdict; signals a tolerance
    misclassification that should be escalated to borderline.
    """


@dataclass(frozen=True)
class PerturbationWitness:
    """Data exhibiting f as a midpoint of two distinct ball members."""

    polynomial: SymmetricPolynomial
    phi2_zeros: tuple[complex, ...]  # spare inner zeros beyond the first N (overflow path)
    epsilon: float
    recenter: float
    provenance: str  # kernel_path | degree_overflow_path

    def __post_init__(self):
        object.__setattr__(self, "phi2_zeros", tuple(complex(a) for a in self.phi2_zeros))


@dataclass(frozen=True)
class ExposednessResult:
    status: str  # exposed | not_extreme | unknown
    circle_roots: tuple[complex, ...]


@dataclass(frozen=True)
class WitnessReport:
    """Unconditional recomputation of every witness property, with residuals."""

    h_realness_residual: float
    h_variation: float
    positivity_margin: float
    hole_residuals: tuple[tuple[int, float], ...]
    norm_f: float
    norm_plus: float
    norm_minus: float
    membership_plus: MembershipReport | None
    membership_minus: MembershipReport | None
    failures: tuple[str, ...]

    @property
    def verifies(self) -> bool:
        return not self.failures

    @property
    def norm_plus_residual(self) -> float:
        return abs(self.norm_plus - self.norm_f)

    @property
    def norm_minus_residual(self) -> float:
        return abs(self.norm_minus - self.norm_f)


def _witness_factor(f: FactoredFunction, witness: PerturbationWitness) -> Rational:
    """G = p * Phi_N * phi2, the rational function with f * h = F * G on the circle.

    Phi_N = prod_{j<=N} (1 - conj(a_j) z)^-2 runs over the first N inner
    zeros of f (N = order of p); phi2 is the Blaschke product of the
    witness's spare zeros.
    """
    first = f.inner.zeros[:witness.polynomial.order]
    return Rational(witness.polynomial.coefficients(), first * 2 + witness.phi2_zeros,
                    witness.phi2_zeros)


def witness_h_values(f: FactoredFunction, witness: PerturbationWitness, z: np.ndarray):
    """h = G / I on given circle nodes; for valid witnesses h is real on the circle."""
    return _witness_factor(f, witness)(z) / f.inner(z)


def _modulus_and_h(f: FactoredFunction, g: Rational, z: np.ndarray):
    """|f| and h = G / I on circle nodes, evaluating the inner factor once."""
    inner = f.inner(z)
    return np.abs(inner * f.outer(z)), g(z) / inner


def _perturbation_product(
    f: FactoredFunction, witness: PerturbationWitness, up_to: int
) -> np.ndarray:
    """Taylor coefficients 0..up_to of F * G (equals f * h on the circle)."""
    g = _witness_factor(f, witness)
    return Rational(np.convolve(f.outer.numerator, g.numerator), f.outer.poles + g.poles,
                    g.zeros).taylor(up_to)


def _package_witness(
    f: FactoredFunction,
    polynomial: SymmetricPolynomial,
    phi2_zeros: tuple[complex, ...],
    provenance: str,
    tol: Tolerances,
) -> PerturbationWitness:
    """Fix the recentering constant and step size for a chosen polynomial.

    c is the quadrature mean of |f| h over the circle divided by the mean of
    |f| (the two coincide for unit-norm f), which kills the first-order norm
    change; epsilon = 1/(2 sup|h - c|) keeps both perturbation factors >= 1/2.
    """
    g = _witness_factor(f, PerturbationWitness(polynomial, phi2_zeros, 1.0, 0.0, provenance))

    def weighted_h(z):
        modulus, h = _modulus_and_h(f, g, z)
        return modulus * np.real(h), modulus

    (mean_fh, norm), _ = converged_circle_mean(weighted_h, tol, roots=f.outer.circle_roots)
    c = mean_fh / norm
    nodes = circle_nodes(WITNESS_SUP_NODES)
    sup = float(np.abs(np.real(g(nodes) / f.inner(nodes)) - c).max())
    if sup == 0.0:
        raise DegenerateKernelError("perturbation h is constant on the circle")
    return PerturbationWitness(polynomial, phi2_zeros, 1.0 / (2.0 * sup), c, provenance)


def make_witness(
    f: FactoredFunction,
    space: PuncturedSpace,
    verdict: ExtremalityVerdict,
    tol: Tolerances = DEFAULT,
) -> PerturbationWitness:
    """Witness for a non-extreme verdict from the hole-constraint operator of order n.

    With n = min(m, M + 1), any symmetric polynomial p of order n whose product
    with f / P_n has vanishing hole coefficients, and which is not proportional
    to P_n itself, gives a real nonconstant h = p / P_n on the circle.  For
    n = m the operator is the criterion matrix, whose kernel the verdict
    carries; for n = M + 1 < m it has 2M rows and 2n + 1 columns, so its
    kernel has dimension at least 3.  The canonical direction is stripped out
    and the witness direction read off the projection onto what remains, so it
    does not depend on the kernel basis; a kernel with nothing beyond the
    canonical vector contradicts the verdict and raises
    :class:`DegenerateKernelError`.
    """
    if verdict.status == EXTREME:
        raise ValueError("an extreme verdict has no perturbation witness")
    zeros = f.inner.zeros
    n = min(len(zeros), space.size + 1)
    if n == len(zeros):
        kernel = verdict.kernel_basis
    else:
        kernel = numeric_rank(build_criterion_matrix(f, space, first=n).assembled, tol.rank).kernel
    canonical = np.array(canonical_kernel_vector(zeros[:n]).vector)
    canonical = canonical / np.linalg.norm(canonical)
    remainders = kernel - np.outer(kernel @ canonical, canonical)
    if not np.linalg.norm(remainders) > 1e-10:
        raise DegenerateKernelError("all kernel vectors are parallel to the canonical vector")
    # the Gram matrix of the remainders is the same for every orthonormal kernel
    # basis; its column at the first (near-)largest diagonal entry fixes the
    # direction, and that entry, positive, fixes the sign
    gram = remainders.T @ remainders
    diagonal = np.diag(gram)
    column = gram[:, int(np.argmax(diagonal >= (1 - 1e-9) * diagonal.max()))]
    polynomial = SymmetricPolynomial(n, tuple(column / np.linalg.norm(column)))
    provenance = KERNEL_PATH if verdict.condition_a.holds else DEGREE_OVERFLOW_PATH
    return _package_witness(f, polynomial, zeros[n:], provenance, tol)


def verify_witness(
    f: FactoredFunction,
    space: PuncturedSpace,
    witness: PerturbationWitness,
    tol: Tolerances = DEFAULT,
) -> WitnessReport:
    """Recheck a witness from first principles; failures are reported, not raised.

    Checks: h real and nonconstant on the circle; 1 +- epsilon*(h - c) keeps a
    positive margin; f*h stays in the space (exact expansion of F*G); both
    perturbation endpoints pass membership and have the same circle average
    as f.  The circle averages run only when every other check passed; a
    witness that failed one reports its norms as NaN.  The one error raised is
    :class:`~hardyball.series.QuadratureConvergenceError`: norms that never
    stabilise say nothing about the witness data.
    """
    failures: list[str] = []
    try:
        g = _witness_factor(f, witness)
        nodes = circle_nodes(WITNESS_SAMPLE_NODES)
        h = g(nodes) / f.inner(nodes)
        realness = float(np.abs(h.imag).max())
        h_re = h.real
        variation = float(h_re.max() - h_re.min())
        margin = 1.0 - witness.epsilon * float(np.abs(h_re - witness.recenter).max())

        eps, c = witness.epsilon, witness.recenter
        product_coeffs = _perturbation_product(f, witness, space.k_max)
        product = check_membership(product_coeffs, space, tol)
        hole_residuals = tuple(zip(product.holes, product.residuals))
        f_coeffs = f.taylor(space.k_max)
        membership_plus = check_membership(
            f_coeffs + eps * (product_coeffs - c * f_coeffs), space, tol)
        membership_minus = check_membership(
            f_coeffs - eps * (product_coeffs - c * f_coeffs), space, tol)

        if space.holes and product.max_coefficient == 0.0:
            failures.append("perturbation product is identically zero to expansion order")
        if realness > WITNESS_REALNESS:
            failures.append(f"h not real on the circle (residual {realness:.3e})")
        if variation <= WITNESS_VARIATION:
            failures.append(f"h is constant to tolerance (variation {variation:.3e})")
        if margin < POSITIVITY_FLOOR:
            failures.append(
                f"positivity margin {margin:.3e} below {POSITIVITY_FLOOR} (epsilon too large)"
            )
        for k, residual in hole_residuals:
            if residual > WITNESS_HOLE:
                failures.append(f"perturbation leaves the space at hole {k} (residual {residual:.3e})")
        if not membership_plus.passed:
            failures.append("plus endpoint fails membership")
        if not membership_minus.passed:
            failures.append("minus endpoint fails membership")

        # the norm ladder is the expensive check: a witness that already failed skips it
        norm_f = norm_plus = norm_minus = float("nan")
        if not failures:
            def endpoint_moduli(z):
                modulus, h = _modulus_and_h(f, g, z)
                shift = eps * (np.real(h) - c)
                return modulus, modulus * np.abs(1.0 + shift), modulus * np.abs(1.0 - shift)

            # one ladder: f and h are evaluated once per node for all three norms
            (norm_f, norm_plus, norm_minus), _ = converged_circle_mean(
                endpoint_moduli, tol, roots=f.outer.circle_roots)
            if abs(norm_plus - norm_f) > WITNESS_NORM:
                failures.append(f"plus endpoint norm off by {abs(norm_plus - norm_f):.3e}")
            if abs(norm_minus - norm_f) > WITNESS_NORM:
                failures.append(f"minus endpoint norm off by {abs(norm_minus - norm_f):.3e}")

        return WitnessReport(
            realness, variation, margin, hole_residuals,
            norm_f, norm_plus, norm_minus,
            membership_plus, membership_minus, tuple(failures),
        )
    except QuadratureConvergenceError:
        raise  # the norms could not be computed: a numerics failure, not a verdict on the data
    except Exception as exc:  # invalid witness data: report, never raise
        failures.append(f"witness data rejected: {exc}")
        return WitnessReport(
            float("nan"), float("nan"), float("nan"), (),
            float("nan"), float("nan"), float("nan"),
            None, None, tuple(failures),
        )


def check_exposed(f: FactoredFunction, verdict: ExtremalityVerdict) -> ExposednessResult:
    """Sufficient exposedness gate: extreme plus 1/f integrable on the circle.

    For rational f with a finite Blaschke inner factor, 1/f is integrable iff
    the outer numerator has no roots on the unit circle (|I| = 1 there, and a
    boundary zero of any order makes 1/|f| non-integrable).  The circle roots
    are those the outer factor found when it was built (see
    :class:`~hardyball.model.OuterRational`).  The condition is sufficient
    only, so circle roots yield "unknown", never a guess.
    """
    if verdict.status != EXTREME:
        return ExposednessResult("not_extreme", ())
    circle_roots = f.outer.circle_roots
    if circle_roots:
        return ExposednessResult("unknown", circle_roots)
    return ExposednessResult("exposed", ())
