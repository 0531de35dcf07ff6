"""Factored functions on the disk and punctured-space membership.

A function is carried as an explicit canonical pair: a finite Blaschke
product (the inner factor) and a rational outer factor with poles outside the
closed disk.  Factorization of raw boundary data is out of scope; inputs
arrive already factored.  :meth:`FactoredFunction.taylor` is the one producer
of a function's Taylor coefficients: those of f / P_n, where n = 0 gives f
itself and n = m the weights of the criterion matrix, read at the holes
(:class:`~hardyball.series.Expansion`).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .series import (Expansion, PoleMarginError, Rational, _outside, _taylor_rows,
                     converged_circle_mean)
from .tolerances import DEFAULT, Tolerances


class NotOuterError(ValueError):
    """Numerator has a root strictly inside the unit disk."""

    def __init__(self, roots_inside):
        self.roots_inside = roots = tuple(complex(r) for r in roots_inside)
        if len(roots) > 8:  # the message gives the count and the first 8
            roots = f"{len(roots)} roots, the first 8 {roots[:8]}"
        super().__init__(f"numerator roots inside the open disk: {roots}")


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
        zeros = np.array(self.zeros, dtype=complex)
        for a in zeros[_outside(zeros)][:1].tolist():
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
    |F| split the circle at them.  The check is :func:`_outer_rows` on one
    row, the rule a sweep applies to its stacked rows.
    """

    zeros: tuple[complex, ...] = field(default=(), init=False)
    roots: tuple[complex, ...] = field(default=(), init=False, compare=False, repr=False)

    def __post_init__(self):
        (failure,), (roots,) = _outer_rows(np.array([self.numerator], dtype=complex))
        if failure is not None:  # the outer check runs before Rational's pole check, and wins
            raise failure
        super().__post_init__()
        object.__setattr__(self, "roots", tuple(roots.tolist()))

    @property
    def circle_roots(self) -> tuple[complex, ...]:
        return tuple(r for r in self.roots if abs(abs(r) - 1.0) <= ROOT_TOL)

    def scale(self, s: complex) -> "OuterRational":
        """The factor times a nonzero constant, with the same roots: a constant moves none."""
        return self._with_numerator(tuple(complex(s * c) for c in self.numerator))

    def binary_scaled(self) -> "OuterRational":
        """The factor times the power of two :func:`_binary_scale` picks, with the same roots."""
        numerator, = _binary_scale(np.array([self.numerator], dtype=complex))
        return self._with_numerator(tuple(numerator.tolist()))

    def _with_numerator(self, numerator: tuple[complex, ...]) -> "OuterRational":
        scaled = copy.copy(self)
        object.__setattr__(scaled, "numerator", numerator)
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


def _roots_rows(coeffs: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The roots of rows of ascending coefficients (shape (r, L)), as ``np.roots`` finds them:
    the eigenvalues of the companion matrix of the row cut to its nonzero ends, then one zero
    root per trailing zero.  Rows cut to the same shape share one ``eigvals`` call, which gives
    each matrix the bits it gets alone (its LinAlgError, which may come from any of them,
    propagates).  One (row indices, roots) pair per shape, the roots complex, one row of them
    per index; an all-zero row is in none."""
    nonzero = coeffs[:, ::-1] != 0  # descending, as np.roots reads them
    found = np.flatnonzero(nonzero.any(axis=1))
    lead, trail = nonzero[found].argmax(axis=1), nonzero[found, ::-1].argmax(axis=1)
    out = []
    for lo, hi in set(zip(lead.tolist(), trail.tolist())):
        rows = found[(lead == lo) & (trail == hi)]
        p = coeffs[rows, ::-1][:, lo:coeffs.shape[1] - hi]
        size = p.shape[1] - 1
        roots = np.zeros((len(rows), 0), dtype=complex)  # a constant has none
        if size:
            companion = np.zeros((len(rows), size, size), dtype=complex)
            companion[:, 1:, :-1] = np.eye(size - 1)
            companion[:, 0, :] = -p[:, 1:] / p[:, :1]
            roots = np.linalg.eigvals(companion)
        out.append((rows, np.hstack([roots, np.zeros((len(rows), hi), dtype=complex)])))
    return out


@dataclass(frozen=True)
class FactoredFunction:
    """f = inner * outer, with any unimodular constant carried by the outer factor."""

    inner: BlaschkeProduct
    outer: OuterRational

    def __call__(self, z):
        return self.inner(z) * self.outer(z)

    def taylor(self, holes: Sequence[int], width: int = 0, ring=complex,
               first: int = 0) -> Expansion:
        """The Taylor windows c_{k-width..k} at the holes, and the scale, of f / P_n, the
        hole-constraint weights of order n.

        P_n = prod_{j<=n} (z - a_j)(1 - conj(a_j) z) runs over the first
        n = ``first`` inner zeros, so f / P_n is
        F * prod_{j>n} (z - a_j) / (prod_{j<=n} (1 - conj(a_j) z)^2 prod_{j>n} (1 - conj(a_j) z)).
        n = 0 gives f itself, n = m the criterion matrix and n = M + 1 the
        degree-overflow operator.  Every product is formed in the scalar ring
        ``ring`` lifts into (see :meth:`hardyball.series.Rational.taylor`).
        """
        return self._weights(first).taylor(holes, width, ring)

    def _weights(self, first: int) -> Rational:
        """f / P_n for n = ``first`` as one :class:`~hardyball.series.Rational`."""
        zeros = self.inner.zeros
        poles = self.outer.poles + zeros[:first] * 2 + zeros[first:]
        return Rational(self.outer.numerator, poles, zeros[first:])


def _outer_rows(numerator: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The check of ``OuterRational(p)`` on rows of numerators p (shape (r, L)), as two object
    arrays: per row its first error, else None, of a zero p, a failed root find
    (RootFindingError, caused by numpy's LinAlgError; when the stacked call fails, each distinct
    numerator runs alone) and a root inside the disk; and the roots of each row that passes, as
    ``np.roots`` finds them (:func:`_roots_rows`), clusters replaced by centroids
    (:func:`_cluster`), else None.  The check runs once per distinct row (told apart by its
    bytes, so -0.0 is not 0.0).  A row of d roots each farther than
    CLUSTER_TOL ** (2 / d) * max(1, |root|) from its nearest one forms no cluster, as
    CLUSTER_TOL ** (2 / m) grows with m: it skips _cluster's loop."""
    distinct, inverse = numerator, slice(None)
    if len(numerator) > 1:  # one row needs no key
        keys = numerator.view(np.dtype((np.void, numerator.itemsize * numerator.shape[1])))[:, 0]
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        distinct = numerator[first]
    failures, roots = np.full((2, len(distinct)), None)
    failures[:] = [ValueError("outer numerator must not be identically zero")]
    try:
        found = _roots_rows(distinct)
    except np.linalg.LinAlgError as exc:
        found = []
        if len(distinct) > 1:  # the failure stays in its own numerator
            for u in range(len(distinct)):
                (failures[u],), (roots[u],) = _outer_rows(distinct[u:u + 1])
        else:
            failures[0] = RootFindingError(str(exc))
            failures[0].__cause__ = exc
    for rows, r in found:
        d = r.shape[1]
        gaps = r[:, :, None] - r[:, None]
        gaps = np.hypot(gaps.real, gaps.imag) + np.diag(np.full(d, np.inf))
        reach = CLUSTER_TOL ** (2 / max(d, 1)) * np.maximum(1.0, np.hypot(r.real, r.imag))
        for j in np.flatnonzero(~(gaps.min(axis=2, initial=np.inf) > reach).all(axis=1)):
            r[j] = _cluster(r[j].tolist())
        inside = np.hypot(r.real, r.imag) < 1.0 - ROOT_TOL
        failures[rows] = None
        for u, row in zip(rows.tolist(), r):
            roots[u] = row
        for j in np.flatnonzero(inside.any(axis=1)).tolist():
            failures[rows[j]], roots[rows[j]] = NotOuterError(r[j, inside[j]].tolist()), None
    return failures[inverse], roots[inverse]


def _weights_rows(zeros: np.ndarray, numerator: np.ndarray, poles: np.ndarray,
                  holes: Sequence[int], width: int = 0, first: int = 0) -> Expansion:
    """``f.taylor(holes, width, first=first)`` of rows of functions from stacked parts (zeros,
    numerator, poles; shapes (r, .)), f / P_n formed as :meth:`FactoredFunction._weights` does."""
    inner, rest = zeros[:, :first], zeros[:, first:]
    return _taylor_rows(numerator, rest, np.hstack([poles, inner, inner, rest]), holes, width)


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
        return bool(_within(np.array(self.residuals), self.tolerance))

    def worst(self) -> tuple[int, float]:
        idx = int(np.argmax(self.residuals))
        return self.holes[idx], self.residuals[idx]

    def require(self) -> "MembershipReport":
        if not self.passed:
            hole, residual = self.worst()
            raise NotInSpaceError(hole, residual)
        return self


def check_membership(
    coeffs: Expansion, space: PuncturedSpace, tol: Tolerances = DEFAULT
) -> MembershipReport:
    """Check that every hole coefficient vanishes, relative to the largest one up to k_M.

    ``coeffs`` is the function's expansion at the space's holes, e.g.
    ``f.taylor(space.holes)``.
    """
    if not space.holes:
        return MembershipReport((), (), 0.0, tol.membership)
    scale, residuals = _residuals(coeffs)
    return MembershipReport(space.holes, tuple(map(float, residuals)), float(scale),
                            tol.membership)


def _residuals(coeffs: Expansion) -> tuple[np.ndarray, np.ndarray]:
    """(max_j |c_j|, |c_k| / max_j |c_j| at each hole k) of an expansion (or of rows), the
    residuals 0 where every coefficient is."""
    scale = coeffs.scale
    at_holes = coeffs.windows[..., -1]
    residuals = np.zeros(at_holes.shape)
    with np.errstate(invalid="ignore"):  # inf / inf: nan, which fails the check
        # hypot, the scalar abs: numpy's complex abs on arrays may differ in the last bit
        np.divide(np.hypot(at_holes.real, at_holes.imag), scale[..., None], out=residuals,
                  where=scale[..., None] != 0)
    return scale, residuals


def _within(residuals: np.ndarray, tolerance: float) -> np.ndarray:
    """Whether every hole residual (along the last axis) is within the tolerance."""
    return (residuals <= tolerance).all(axis=-1)


def l1_norm(f: FactoredFunction, tol: Tolerances = DEFAULT) -> float:
    """Certified circle average of |f|, split at the outer factor's circle roots, else on a
    trapezoid ladder started from the roots r and poles b of F (|B| = 1 on the circle)."""
    return converged_circle_mean(lambda z: np.abs(f(z)), tol, f.outer.circle_roots,
                                 _alpha(f.outer.roots, f.outer.poles))[0]


def _alpha(roots: Sequence[complex], poles: Sequence[complex]) -> float:
    """|F| is analytic in e^{-alpha} < |z| < e^{alpha} for F with these roots and poles (inf:
    F has none)."""
    return min([math.log(abs(r)) for r in roots] + [-math.log(abs(b)) for b in poles if b],
               default=math.inf)


def normalize(f: FactoredFunction, tol: Tolerances = DEFAULT) -> tuple[FactoredFunction, float]:
    """Rescale the outer numerator so the product has unit circle average.

    Returns (normalized function, applied scale).  Only the outer factor is
    touched, preserving the factorization shape.
    """
    norm = l1_norm(f, tol)
    if norm == 0:
        raise ValueError("cannot normalize the zero function")
    scale = 1.0 / norm
    outer = f.outer.scale(scale)
    if not (math.isfinite(scale) and np.isfinite(outer.numerator).all()):
        raise NormalizationError(
            f"normalized scale 1/{norm:.17g} = {scale:g} leaves the outer numerator non-finite")
    return FactoredFunction(f.inner, outer), scale


def _binary_scale(numerator: np.ndarray) -> np.ndarray:
    """Rows of outer numerators (shape (r, L)), each times the power of two that brings its
    largest real or imaginary part into [1/2, 1).  That is exact short of subnormals, so every
    relative test (membership, the rank rule, the determinant) reads the same bits at any
    scale of f, and no expansion overflows or underflows for the scale alone.  The power is
    applied by ``np.ldexp``: as a factor, 2^e overflows from e = 1024 on."""
    top = np.maximum(abs(numerator.real), abs(numerator.imag)).max(axis=-1, initial=0.0)
    exponent = -np.frexp(top)[1][:, None]
    scaled = np.empty(numerator.shape, dtype=complex)
    scaled.real = np.ldexp(numerator.real, exponent)
    scaled.imag = np.ldexp(numerator.imag, exponent)
    return scaled


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
    # contributes w_{k-t} to the k-th Taylor coefficient of f.  w_0..w_{k_max} is read as one
    # window, which the full scan gives: a seed's member does not move with the rounding of
    # the jump to far holes
    weight = Rational((1,), inner.zeros + den, inner.zeros).taylor(
        (space.k_max,), space.k_max).windows[0]
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
        check_membership(member.taylor(space.holes), space, tol).require()
        return member
    raise MaxRetriesExceededError(
        f"no outer numerator found in {SAMPLE_RETRIES} draws (degree {d}, holes {space.holes})"
    )
