"""Machine-checkable evidence for verdicts.

A non-extreme verdict is certified by a perturbation witness: a symmetric
polynomial p of order n <= m (plus, when m > M + 1, the spare inner zeros
beyond the first n) with f*h in the space, where h = p / P_n equals
z^-n p / D on the circle, D = prod_{j<=n} |z - a_j|^2.  With u = h - c and
epsilon*sup|u| < 1, g+- = f*(1 +- epsilon*u) lie in the space with
|g+-| = |f|*(1 +- epsilon*u), so ||g+|| + ||g-|| = 2||f|| exactly and f is a
proper convex combination of g+/||g+|| and g-/||g-||, distinct unless u is
constant (de Leeuw & Rudin, Pacific J. Math. 8, 1958).  No norm is needed
and c is free.  Verification recomputes each property from the witness data
alone, without quadrature or the criterion matrix: h is real by structure
(order <= m, the spare zeros are f's), nonconstant when p is not
proportional to P_n, epsilon*sup|u| < 1 is positivity of the real
trigonometric polynomials T+- = D*(1 -+ epsilon*c) +- epsilon*z^-n p of
degree n (:func:`_margin`), and f*h is in the space by the hole residuals
of F*G; the endpoint memberships are linear in f's and f*h's.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .extremality import (
    EXTREME,
    ExtremalityVerdict,
    SymmetricPolynomial,
    _decide_rows,
    canonical_kernel_vector,
)
from .model import FactoredFunction, MembershipReport, PuncturedSpace, check_membership
from .series import Rational, _polyval, circle_nodes
from .tolerances import DEFAULT, Tolerances

KERNEL_PATH = "kernel_path"
DEGREE_OVERFLOW_PATH = "degree_overflow_path"

# smallest accepted sine of the angle between p and P_n (h nonconstant), and
# largest accepted relative hole coefficient of F*G
WITNESS_VARIATION = 1e-6
WITNESS_HOLE = 1e-9
# the positivity grids double from 16 nodes up to this many; a bound still
# unproven there is a failed certificate
POSITIVITY_MAX_NODES = 2 ** 14


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
    """Recomputation of every witness property, with residuals.

    ``positivity_margin``: the proven lower bound of T+- on the circle relative
    to the bound of their largest value (> 0 iff proven), from the grid of
    ``positivity_nodes`` nodes; ``h_variation``: max h - min h there.  NaN when
    the structure that makes h real fails.
    """

    h_variation: float
    positivity_margin: float
    positivity_nodes: int
    hole_residuals: tuple[tuple[int, float], ...]
    failures: tuple[str, ...]

    @property
    def verifies(self) -> bool:
        return not self.failures


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


def _perturbation_product(f: FactoredFunction, witness: PerturbationWitness) -> Rational:
    """F * G (equals f * h on the circle) as one rational function."""
    g = _witness_factor(f, witness)
    return Rational(np.convolve(f.outer.numerator, g.numerator), f.outer.poles + g.poles,
                    g.zeros)


def _ladder(zeros, polynomial: SymmetricPolynomial):
    """Per grid of N = 16, 32, ... up to POSITIVITY_MAX_NODES nodes: N, h on the nodes, and
    :func:`_margin` there as a function of (epsilon, c).  D and z^-n p are read as
    t_0 + 2 Re sum_{k>=1} t_k z^k from the upper halves of P_n and p, and summed with
    their theta-derivatives by Horner."""
    n = polynomial.order
    first = zeros[:n]
    t = np.array([canonical_kernel_vector(first).upper, polynomial.upper])
    # bounds of sum |t_k| over k = -n..n, the first one of P_n's rounding too
    sums = (math.prod((1 + abs(a)) ** 2 for a in first),
            float(np.abs(polynomial.coefficients()).sum()))
    columns = list(np.concatenate([t, 1j * np.arange(n + 1) * t]).T[:, :, None])
    nodes = 16
    while nodes <= POSITIVITY_MAX_NODES:
        grid = 2 * _polyval(columns, circle_nodes(nodes)).real
        grid[:2] -= t[:, :1].real
        values, slopes = grid.reshape(2, 2, nodes)  # each: D, then z^-n p
        yield nodes, values[1] / values[0], functools.partial(_margin, values, slopes, sums, n)
        nodes *= 2


def _margin(values, slopes, sums, order: int, epsilon: float, recenter: float) -> float:
    """The proven lower bound of T+- = D*(1 -+ epsilon*c) +- epsilon*z^-n p on the circle
    relative to the bound of their largest value: the smaller one, > 0 iff both are proven.

    Each theta lies within delta = pi/N of a node, so by Taylor and Bernstein's inequality
    T(theta) >= T(theta_j) - |T'(theta_j)| delta - n^2 ||T|| delta^2 / 2, and
    ||T|| <= max_j |T(theta_j)| / (1 - pi n / N) for N > pi n.  An allowance of
    32 (n + 1) eps sum |t_k| covers the rounding of coefficients, nodes and sums.
    """
    nodes = values.shape[-1]
    if math.pi * order >= nodes:
        return -math.inf
    delta = math.pi / nodes
    scale = (1 + abs(epsilon * recenter)) * sums[0] + abs(epsilon) * sums[1]
    allowance = 32 * (order + 1) * np.finfo(float).eps * scale
    margins = []
    for sign in (1.0, -1.0):
        a, b = 1.0 - sign * epsilon * recenter, sign * epsilon
        value, slope = a * values[0] + b * values[1], a * slopes[0] + b * slopes[1]
        sup = (np.abs(value).max() + allowance) / (1 - math.pi * order / nodes)
        low = (value - np.abs(slope) * delta).min() - (order * delta) ** 2 * sup / 2 - allowance
        margins.append(low / sup)
    return float(np.min(margins))  # NaN if a value is not finite


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
    kernel, by the verdict's rank rule on f's order-n weights, has dimension at
    least 3.  The canonical direction is stripped out
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
    else:  # the verdict's rule, on f in range as the verdict read it
        f = FactoredFunction(f.inner, f.outer.binary_scaled()[0])
        weights = f.taylor(space.holes, 2 * n, first=n)
        kernel = _decide_rows(weights, space, n, tol).first().kernel_basis
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
    # c is the midrange of h on the nodes and epsilon = 1/(2 max|h - c|), from the first
    # grid where _margin proves them; past POSITIVITY_MAX_NODES the last grid's values
    # stand, and verification reports the unproven bound
    witness = None
    for _, h, margin in _ladder(zeros, polynomial):
        top, bottom = h.max(), h.min()
        if top > bottom:
            witness = PerturbationWitness(polynomial, zeros[n:], float(1 / (top - bottom)),
                                          float((top + bottom) / 2), provenance)
            if margin(witness.epsilon, witness.recenter) > 0:
                break
    if witness is None:
        raise DegenerateKernelError("perturbation h is constant on the circle")
    return witness


def verify_witness(
    f: FactoredFunction,
    space: PuncturedSpace,
    witness: PerturbationWitness,
    tol: Tolerances = DEFAULT,
    membership: MembershipReport | None = None,
) -> WitnessReport:
    """Recheck a witness from first principles; failures are reported, not raised.

    f's membership comes from ``membership`` when the caller holds its report
    (of f or of any nonzero multiple), else from one expansion; the positivity
    grid is chosen here, never read from the witness.  Every residual is
    relative, and F's numerator is first scaled by the power of two that brings
    its largest part into [1/2, 1) (:meth:`~hardyball.model.OuterRational.binary_scaled`,
    the rule every decision applies): exact, so no residual changes, and F*G neither
    overflows nor underflows, so f's scale does not matter.
    """
    failures: list[str] = []
    variation = margin = float("nan")
    nodes = 0
    try:
        f = FactoredFunction(f.inner, f.outer.binary_scaled()[0])
        product = check_membership(_perturbation_product(f, witness).taylor(space.holes),
                                   space, tol)
        hole_residuals = tuple(zip(product.holes, product.residuals))
        if membership is None:
            membership = check_membership(f.taylor(space.holes), space, tol)

        if not membership.passed:
            failures.append("f leaves the space at hole {} (residual {:.3e})".format(
                *membership.worst()))
        if space.holes and product.max_coefficient == 0.0:
            failures.append("perturbation product is identically zero to expansion order")
        for k, residual in hole_residuals:
            if not residual <= WITNESS_HOLE:  # NaN (an overflow) fails too
                failures.append(f"perturbation leaves the space at hole {k} (residual {residual:.3e})")
        zeros, n = f.inner.zeros, witness.polynomial.order
        if n > len(zeros) or Counter(witness.phi2_zeros) != Counter(zeros[n:]):
            failures.append(f"h not real on the circle: order {n} and phi2_zeros are not "
                            f"f's inner zeros split after the first {n}")
            return WitnessReport(variation, margin, nodes, hole_residuals, tuple(failures))

        canonical = np.array(canonical_kernel_vector(zeros[:n]).vector)
        vector = np.array(witness.polynomial.vector)
        size = np.linalg.norm(vector)
        rest = vector - (vector @ canonical) / (canonical @ canonical) * canonical
        sine = float(np.linalg.norm(rest) / size) if size else 0.0
        if not sine > WITNESS_VARIATION:
            failures.append(f"h is constant to tolerance (p is P_n times a constant up to "
                            f"a sine of {sine:.3e})")

        for nodes, h, bound in _ladder(zeros, witness.polynomial):
            margin = bound(witness.epsilon, witness.recenter)
            if margin > 0:
                break
        variation = float(h.max() - h.min())
        if not margin > 0:
            failures.append(f"positivity of 1 +- epsilon*(h - c) not proven on {nodes} nodes "
                            f"(margin {margin:.3e})")
        return WitnessReport(variation, margin, nodes, hole_residuals, tuple(failures))
    except Exception as exc:  # invalid witness data: report, never raise
        failures.append(f"witness data rejected: {exc}")
        return WitnessReport(variation, margin, nodes, (), tuple(failures))


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
