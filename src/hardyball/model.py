"""Factored functions on the disk and punctured-space membership.

A function is carried as an explicit canonical pair: a finite Blaschke
product (the inner factor) and a rational outer factor with poles outside the
closed disk.  Factorization of raw boundary data is out of scope; inputs
arrive already factored.  :meth:`FactoredFunction.taylor` is the one producer
of a function's Taylor coefficients: those of f / P_n, where n = 0 gives f
itself and n = m the weights of the criterion matrix.
"""

from __future__ import annotations

import cmath
import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .series import POLE_MARGIN, Rational, converged_circle_mean
from .tolerances import DEFAULT, Tolerances


class NotOuterError(ValueError):
    """Numerator has a root strictly inside the unit disk."""

    def __init__(self, roots_inside):
        self.roots_inside = tuple(complex(r) for r in roots_inside)
        super().__init__(f"numerator roots inside the open disk: {self.roots_inside}")


class NotInSpaceError(ValueError):
    """A hole coefficient is nonzero beyond tolerance (``measure`` names the residual)."""

    def __init__(self, hole: int, residual: float, measure: str = "relative residual"):
        self.hole = hole
        self.residual = residual
        super().__init__(f"coefficient at hole {hole} has {measure} {residual:.3e}")


class MaxRetriesExceededError(RuntimeError):
    """The random-member generator exhausted its retry budget."""


class RootFindingError(RuntimeError):
    """The polynomial root finder did not converge."""


class NormalizationError(RuntimeError):
    """The unit-norm rescaling of a function is not finite (a subnormal norm)."""


@dataclass(frozen=True)
class PuncturedSpace:
    """Hole set {k_1 < ... < k_M} of forbidden Taylor indices (empty = classical case)."""

    holes: tuple[int, ...]

    def __post_init__(self):
        holes = tuple(int(k) for k in self.holes)
        object.__setattr__(self, "holes", holes)
        if any(k < 1 for k in holes):
            raise ValueError(f"holes must be >= 1, got {holes}")
        if any(a >= b for a, b in zip(holes, holes[1:])):
            raise ValueError(f"holes must be strictly increasing, got {holes}")

    @property
    def size(self) -> int:
        return len(self.holes)

    @property
    def k_max(self) -> int:
        return self.holes[-1] if self.holes else 0


@dataclass(frozen=True)
class BlaschkeProduct:
    """prod_j (z - a_j)/(1 - conj(a_j) z) with zeros a_j in the open disk.

    A unimodular constant is not part of the inner factor: problem documents
    fold it into the outer numerator when they are parsed.
    """

    zeros: tuple[complex, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "zeros", tuple(complex(a) for a in self.zeros))
        for a in self.zeros:
            if abs(a) >= 1.0 - POLE_MARGIN:
                raise ValueError(f"Blaschke zero {a} not inside the unit disk (margin)")
        # built once: circle means evaluate the product on every grid
        object.__setattr__(self, "_rational", Rational((1,), self.zeros, self.zeros))

    @property
    def degree(self) -> int:
        return len(self.zeros)

    def __call__(self, z):
        return self._rational(z)


# numerator roots with modulus below 1 - ROOT_TOL lie inside the disk (not
# outer), and those within ROOT_TOL of modulus one lie on the circle
ROOT_TOL = 1e-8
# m roots within CLUSTER_TOL ** (2 / m) * max(1, |root|) of one of them are one
# m-fold root: np.roots splits it by about (K eps)^(1/m), K its condition, but
# leaves the centroid accurate to O(eps) (Zeng, Math. Comp. 74, 2005)
CLUSTER_TOL = 1e-6


@dataclass(frozen=True)
class OuterRational(Rational):
    """Rational outer factor: a :class:`~hardyball.series.Rational` without
    zeros whose numerator has no roots in the open disk.

    The numerator roots are found once, at construction, and kept in
    ``roots`` for every later reader, each cluster of nearby roots replaced by
    its centroid (one copy per root, so repeats encode multiplicity).  The
    centroids decide the outer check and the circle roots.  Roots on the unit
    circle are allowed; the exposedness gate reads them, and circle means of
    |F| split the circle at them.
    """

    zeros: tuple[complex, ...] = field(default=(), init=False)
    roots: tuple[complex, ...] = field(default=(), init=False, compare=False, repr=False)

    def __post_init__(self):
        # the outer checks run before the pole-margin check, so their errors win
        if not any(c != 0 for c in self.numerator):
            raise ValueError("outer numerator must not be identically zero")
        roots = _cluster([complex(r) for r in numerator_roots(self.numerator)])
        inside = [r for r in roots if abs(r) < 1.0 - ROOT_TOL]
        if inside:
            raise NotOuterError(inside)
        super().__post_init__()
        object.__setattr__(self, "roots", roots)

    @property
    def circle_roots(self) -> tuple[complex, ...]:
        return tuple(r for r in self.roots if abs(abs(r) - 1.0) <= ROOT_TOL)

    def scale(self, s: complex) -> "OuterRational":
        """The factor times a nonzero constant, with the same roots: a constant moves none."""
        scaled = copy.copy(self)
        object.__setattr__(scaled, "numerator", tuple(complex(s * c) for c in self.numerator))
        return scaled


def _cluster(roots: list[complex]) -> tuple[complex, ...]:
    """Each root replaced by the centroid of its cluster: in index order, a free
    root claims the m - 1 free roots nearest it, for the largest m that puts
    them all within CLUSTER_TOL ** (2 / m) * max(1, |root|) of it."""
    out = list(roots)
    free = list(range(len(roots)))
    while free:
        i = free.pop(0)
        near = sorted(free, key=lambda j: abs(roots[j] - roots[i]))
        reach = max(1.0, abs(roots[i]))
        m = next((k for k in range(len(near) + 1, 1, -1)
                  if abs(roots[near[k - 2]] - roots[i]) <= CLUSTER_TOL ** (2 / k) * reach), 1)
        if m > 1:
            members = sorted([i] + near[:m - 1])
            centroid = sum(roots[j] for j in members) / m
            out = [centroid if j in members else r for j, r in enumerate(out)]
            free = [j for j in free if j not in members]
    return tuple(out)


def numerator_roots(coefficients) -> np.ndarray:
    """All roots of a polynomial given by ascending coefficients."""
    coeffs = np.array(tuple(coefficients), dtype=complex)
    if not coeffs.any():
        raise ValueError("root finding needs a nonzero polynomial")
    # np.roots wants descending order without leading zeros
    descending = coeffs[::-1]
    lead = int(np.argmax(descending != 0))
    try:
        return np.roots(descending[lead:])
    except np.linalg.LinAlgError as exc:
        raise RootFindingError(str(exc)) from exc


@dataclass(frozen=True)
class FactoredFunction:
    """f = inner * outer, with any unimodular constant carried by the outer factor."""

    inner: BlaschkeProduct
    outer: OuterRational

    def __call__(self, z):
        return self.inner(z) * self.outer(z)

    def taylor(self, up_to: int, ring=complex, first: int = 0) -> np.ndarray:
        """Taylor coefficients 0..up_to of f / P_n, the hole-constraint weights of order n.

        P_n = prod_{j<=n} (z - a_j)(1 - conj(a_j) z) runs over the first
        n = ``first`` inner zeros, so f / P_n is
        F * prod_{j>n} (z - a_j) / (prod_{j<=n} (1 - conj(a_j) z)^2 prod_{j>n} (1 - conj(a_j) z)).
        n = 0 gives f itself, n = m the criterion matrix and n = M + 1 the
        degree-overflow operator.  Every product is formed in the scalar ring
        ``ring`` lifts into (see :meth:`hardyball.series.Rational.taylor`).
        """
        zeros = self.inner.zeros
        poles = self.outer.poles + zeros[:first] * 2 + zeros[first:]
        return Rational(self.outer.numerator, poles, zeros[first:]).taylor(up_to, ring)


def canonical_product(zeros, ring=complex) -> np.ndarray:
    """Coefficients of P = prod_j (z - a_j)(1 - conj(a_j) z), every product formed in ``ring``."""
    coeffs = [ring(1)]
    for a in map(ring, zeros):
        coeffs = np.convolve(np.convolve(coeffs, [-a, ring(1)]), [ring(1), -a.conjugate()])
    return np.asarray(coeffs)


@dataclass(frozen=True)
class MembershipReport:
    """Per-hole residuals of the Taylor coefficients, relative to the largest one."""

    holes: tuple[int, ...]
    residuals: tuple[float, ...]
    max_coefficient: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(r <= self.tolerance for r in self.residuals)

    def worst(self) -> tuple[int, float]:
        idx = int(np.argmax(self.residuals))
        return self.holes[idx], self.residuals[idx]

    def require(self) -> "MembershipReport":
        if not self.passed:
            hole, residual = self.worst()
            raise NotInSpaceError(hole, residual)
        return self


def check_membership(
    coeffs: np.ndarray, space: PuncturedSpace, tol: Tolerances = DEFAULT
) -> MembershipReport:
    """Check that every hole coefficient vanishes, relative to the largest one.

    ``coeffs`` is the dense Taylor coefficient vector 0..k_M of the function,
    e.g. ``f.taylor(space.k_max)``.
    """
    if not space.holes:
        return MembershipReport((), (), 0.0, tol.membership)
    scale = float(np.abs(coeffs).max())
    if scale == 0.0:
        return MembershipReport(space.holes, (0.0,) * space.size, 0.0, tol.membership)
    residuals = tuple(float(abs(coeffs[k])) / scale for k in space.holes)
    return MembershipReport(space.holes, residuals, scale, tol.membership)


def l1_norm(f: FactoredFunction, tol: Tolerances = DEFAULT) -> float:
    """Certified circle average of |f|, split at the outer factor's circle roots, else on a
    trapezoid ladder started from the roots r and poles b of F (|B| = 1 on the circle)."""
    alpha = min([math.log(abs(r)) for r in f.outer.roots]
                + [-math.log(abs(b)) for b in f.outer.poles if b], default=math.inf)
    value, _ = converged_circle_mean(lambda z: np.abs(f(z)), tol, f.outer.circle_roots, alpha)
    return value


def normalize(f: FactoredFunction, tol: Tolerances = DEFAULT) -> tuple[FactoredFunction, float]:
    """Rescale the outer numerator so the product has unit circle average.

    Returns (normalized function, applied scale).  Only the outer factor is
    touched, preserving the factorization shape.
    """
    norm = l1_norm(f, tol)
    if norm == 0.0:
        raise ValueError("cannot normalize the zero function")
    scale = 1.0 / norm
    outer = f.outer.scale(scale)
    if not all(map(cmath.isfinite, (scale,) + outer.numerator)):
        raise NormalizationError(f"normalized scale 1/{norm:.17g} = {scale:g} "
                                 "leaves the outer numerator non-finite")
    return FactoredFunction(f.inner, outer), scale


# the generator redraws when numerator roots come this close to the circle:
# such members are legal inputs but need enormous quadrature grids
_SAMPLE_CIRCLE_MARGIN = 1e-3
# draws of the outer numerator before the generator gives up
SAMPLE_RETRIES = 500


def sample_member(
    space: PuncturedSpace,
    zeros,
    denominator_parameters,
    numerator_degree: int,
    seed: int,
    tol: Tolerances = DEFAULT,
) -> FactoredFunction:
    """Draw a random unit-norm member of the punctured space with the given factor shape.

    The hole constraints are linear in the outer numerator coefficients, so a
    random draw is projected onto their null space and kept if the projected
    numerator is outer.  Deterministic for a fixed seed.  Raises
    :class:`MaxRetriesExceededError` when no draw passes the outer check
    (e.g. when the constraints force a root at the origin).
    """
    rng = np.random.default_rng(seed)
    inner = BlaschkeProduct(tuple(zeros))
    den = tuple(complex(b) for b in denominator_parameters)
    d = int(numerator_degree)
    if d < 0:
        raise ValueError("numerator degree must be >= 0")

    # weight function I / prod(1 - conj(b) z): coefficient t of the numerator
    # contributes w_{k-t} to the k-th Taylor coefficient of f
    weight = Rational((1,), inner.zeros + den, inner.zeros).taylor(space.k_max)
    constraints = np.array(
        [[weight[k - t] if t <= k else 0j for t in range(d + 1)] for k in space.holes],
        dtype=complex,
    )
    if constraints.size:
        _, s, vh = np.linalg.svd(constraints)
        cutoff = max(constraints.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
        rank = int((s > cutoff).sum())
        null_basis = vh[rank:].conj().T  # (d+1) x nullity, orthonormal columns
    else:
        null_basis = np.eye(d + 1, dtype=complex)
    if null_basis.shape[1] == 0:
        raise MaxRetriesExceededError("hole constraints leave no free numerator coefficients")

    decay = 0.5 ** np.arange(d + 1)
    for _ in range(SAMPLE_RETRIES):
        raw = (rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)) * decay
        candidate = null_basis @ (null_basis.conj().T @ raw)
        if np.abs(candidate).max() < 1e-12:
            continue
        try:
            outer = OuterRational(tuple(candidate), den)
        except NotOuterError:
            continue
        if any(abs(r) < 1.0 + _SAMPLE_CIRCLE_MARGIN for r in outer.roots):
            continue  # too close to the circle to quadrature well
        member, _ = normalize(FactoredFunction(inner, outer), tol)
        check_membership(member.taylor(space.k_max), space, tol).require()
        return member
    raise MaxRetriesExceededError(
        f"no outer numerator found in {SAMPLE_RETRIES} draws (degree {d}, holes {space.holes})"
    )
