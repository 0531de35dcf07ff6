"""The rank criterion: criterion matrix assembly, the one rank rule, verdicts.

A unit-norm member f = I*F of the punctured space (holes k_1 < ... < k_M,
inner degree m) is extreme for the unit ball iff

  (a) m <= M, and
  (b) the real 2M x (2m+1) block criterion matrix built from the Taylor
      coefficients of F / prod_j (1 - conj(a_j) z)^2 has rank exactly 2m.

The matrix encodes, per hole, the real and imaginary parts of the linear map
sending a symmetric polynomial's coefficient vector to the hole coefficient
of (polynomial * weighted outer factor); its kernel always contains the
canonical vector induced by the inner factor itself, so extremality is
exactly kernel-dimension one.

One stacked rank rule, :func:`_decide_rows`, makes every float decision: the
verdicts of ``analyze`` and ``sweep`` and the degree-overflow witness's kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exactrank import exact_membership_defects, fraction_kernel, lift
from .model import (FactoredFunction, MembershipReport, NotInSpaceError, PuncturedSpace,
                    canonical_product, check_membership)
from .series import Expansion
from .tolerances import DEFAULT, Tolerances

EXTREME = "extreme"
NON_EXTREME = "non_extreme"
BORDERLINE = "borderline"


@dataclass(frozen=True)
class SymmetricPolynomial:
    """Polynomial p of degree <= 2N whose coefficients satisfy
    p^(N-k) = conj(p^(N+k)); equivalently z^(-N) p(z) is real on the circle.

    Identified with the real vector (a_0, a_1..a_N, b_1..b_N) of length 2N+1
    via gamma_0 = 2 a_0, gamma_l = a_l + i b_l, where gamma_l = p^(N+l).
    """

    order: int
    vector: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "vector", tuple(float(v) for v in self.vector))
        if len(self.vector) != 2 * self.order + 1:
            raise ValueError(
                f"vector length {len(self.vector)} != 2*{self.order}+1"
            )

    @property
    def upper(self) -> np.ndarray:
        """gamma_0..gamma_N (the coefficients at and above the centre degree)."""
        n = self.order
        alphas = np.array(self.vector[: n + 1])
        betas = np.concatenate([[0.0], np.array(self.vector[n + 1 :])])
        gammas = alphas + 1j * betas
        gammas[0] = 2.0 * alphas[0]
        return gammas

    def coefficients(self) -> np.ndarray:
        """Dense complex coefficients p_0..p_{2N} (ascending)."""
        n = self.order
        gammas = self.upper
        coeffs = np.zeros(2 * n + 1, dtype=complex)
        coeffs[n:] = gammas
        coeffs[:n] = np.conj(gammas[1:][::-1])
        return coeffs


def canonical_kernel_vector(zeros) -> SymmetricPolynomial:
    """The symmetric polynomial prod_j (z - a_j)(1 - conj(a_j) z).

    Its coefficient vector always lies in the kernel of the criterion matrix
    (the product times the weighted outer factor reproduces f itself, whose
    hole coefficients vanish); extremality means it spans that kernel.  The
    product is conjugate-symmetric exactly but not in floating point, so the
    vector is read from its upper half gamma_l = P_{n+l} alone.
    """
    coeffs = canonical_product(zeros)
    n = len(zeros)
    upper = coeffs[n:]
    return SymmetricPolynomial(n, (upper[0].real / 2.0, *upper[1:].real, *upper[1:].imag))


def _assemble(windows: np.ndarray, m: int) -> np.ndarray:
    """The criterion matrix [[re_sum, im_diff], [im_sum, -re_diff]], 2M rows and 2m + 1
    columns, of the windows c_{k_j-2m..k_j} at the M holes (``Expansion.windows`` of width
    2m, c_r = 0 for r < 0); window rows (shape (r, M, 2m + 1)) give one matrix per row.
    re_sum[j, l] = Re c_{k_j+l-m} + Re c_{k_j-l-m} (l = 0..m) and re_diff[j, l] =
    Re c_{k_j+l-m} - Re c_{k_j-l-m} (l = 1..m), and the Im blocks alike.  The 2M(m+1)
    coefficients are split into ``.real`` and ``.imag`` with exact + and -, so complex
    coefficients give float64 and exact ones an object array of exact rationals."""
    count = np.shape(windows)[-2]
    # c_{k+l-m} (first M rows) and c_{k-l-m} (last M rows) sit at window slots m + l, m - l
    offsets = np.arange(m + 1)
    values = np.concatenate([windows[..., m + offsets], windows[..., m - offsets]], axis=-2)
    if values.dtype == object:  # exact scalars: their Fraction parts, one by one
        re, im = (np.array([getattr(c, part) for c in values.flat]).reshape(values.shape)
                  for part in ("real", "imag"))
    else:
        re, im = values.real, values.imag
    re_sum = re[..., :count, :] + re[..., count:, :]
    im_sum = im[..., :count, :] + im[..., count:, :]
    re_diff = re[..., :count, 1:] - re[..., count:, 1:]
    im_diff = im[..., :count, 1:] - im[..., count:, 1:]
    return np.concatenate([np.concatenate([re_sum, im_diff], axis=-1),
                           np.concatenate([im_sum, -re_diff], axis=-1)], axis=-2)


def _rank_rule(s: np.ndarray, tol_rank: float, scale_floor) -> tuple[np.ndarray, ...]:
    """(rank, borderline, cutoff) of descending singular values along the last axis, each row
    with its own scale floor: cutoff = tol_rank * max(sigma_max, floor), rank = #{sigma >
    cutoff}, borderline when a sigma lies within one decade of the cutoff (never where
    sigma_max and the floor are 0).  The floor, the scale of the matrix's coefficients, makes
    a matrix at rounding level against them (as degree-zero inner factors give) the zero
    matrix it represents."""
    smax = s[..., 0]
    top = np.where(scale_floor > smax, scale_floor, smax)  # max(smax, floor), as Python's max
    cutoff = (tol_rank * top)[..., None]
    rank = (s > cutoff).sum(axis=-1)
    borderline = ((s >= 0.1 * cutoff) & (s <= 10.0 * cutoff)).any(axis=-1) & (top != 0)
    return rank, borderline, cutoff[..., 0]


@dataclass(frozen=True)
class ConditionA:
    """Inner-degree bound: deg I = m must not exceed the number of holes."""

    m: int
    M: int

    @property
    def holds(self) -> bool:
        return self.m <= self.M


@dataclass(frozen=True)
class ExtremalityVerdict:
    status: str  # extreme | non_extreme | borderline
    rank: int
    kernel_basis: np.ndarray
    condition_a: ConditionA
    singular_values: np.ndarray
    backend: str = "svd"
    delta: DeltaResult | None = None  # svd, one hole and m = 1: read from the same weights
    # svd: sigma_2m / the rank rule's cutoff (the last sigma where there are fewer than 2m),
    # above 1 at rank 2m; nan for m = 0, no hole or the exact backend
    rank_margin: float = float("nan")

    @property
    def target_rank(self) -> int:
        return 2 * self.condition_a.m

    @property
    def kernel_dimension(self) -> int:
        return self.kernel_basis.shape[0]


def decide_extreme(
    f: FactoredFunction,
    space: PuncturedSpace,
    tol: Tolerances = DEFAULT,
    backend: str = "svd",
    membership: MembershipReport | None = None,
) -> ExtremalityVerdict:
    """Decide extremality of f (assumed unit norm; the verdict is scale invariant).

    Refuses to classify functions outside the space (raises
    :class:`~hardyball.model.NotInSpaceError`).  The svd backend checks
    ``membership``, the caller's report for f or any nonzero multiple of it
    (the check is relative), and expands f itself only when none is given;
    the exact backend checks f itself, exactly, on the criterion weights: it
    expands them to the first hole k_1, where a float member that is not an
    exact rational one is typically nonzero already, and then to k_max (one
    expansion for at most one hole).  The price: a non-member that is exactly
    zero at k_1 and nonzero at a middle hole k_j expands to k_max, not to k_j.
    The inner-degree condition is checked first; when it fails the function
    is non-extreme regardless of the matrix, whose rank is still reported for
    diagnostics.  ``backend`` is either "svd" (default) or "exact"
    (Gauss-Jordan elimination on the exact criterion entries of the Gaussian
    dyadic lift of the inputs; no tolerance, no borderline band).
    """
    m = f.inner.degree
    if backend == "svd":
        if membership is None:
            membership = check_membership(f.taylor(space.holes), space, tol)
        membership.require()
        return _decide_rows(f.taylor(space.holes, 2 * m, first=m), space, m, tol).first()
    if backend != "exact":
        raise ValueError(f"unknown rank backend {backend!r}")
    # the exact rank of a function that is not an exact rational member
    # answers a question about a function outside the space; the first
    # hole alone, then all of them (once when the two are the same)
    for holes in dict.fromkeys((space.holes[:1], space.holes)):
        head = PuncturedSpace(holes)
        weights = f.taylor(head.holes, 2 * m, lift, m).windows
        for hole, defect in exact_membership_defects(f, head, weights):
            if defect != 0:
                raise NotInSpaceError(hole, float(defect), "exact defect |Re| + |Im| =")
    basis = fraction_kernel(_assemble(weights, m).tolist(), 2 * m + 1)
    kernel = np.linalg.qr(np.array(basis, dtype=float).reshape(-1, 2 * m + 1).T)[0].T
    rank, cond = 2 * m + 1 - len(basis), ConditionA(m, space.size)
    return ExtremalityVerdict(str(_status(cond, rank, False)), rank, kernel, cond, np.zeros(0),
                              backend)


def _status(cond: ConditionA, rank, borderline) -> np.ndarray:
    """The status of each rank (an array of them, or one) with its borderline flag."""
    if not cond.holds:
        # rank <= 2M < 2m is structural: the matrix only has 2M rows
        assert (np.asarray(rank) < 2 * cond.m).all()
        return np.full(np.shape(rank), NON_EXTREME)
    return np.where(borderline, BORDERLINE, np.where(rank == 2 * cond.m, EXTREME, NON_EXTREME))


class RankRows(NamedTuple):
    """The svd verdicts of rows of criterion weights (:func:`_decide_rows`), one entry per row;
    where ``finite`` is False the row's matrix is not finite, and its other entries mean nothing."""

    finite: np.ndarray
    status: np.ndarray
    rank: np.ndarray
    rank_margin: np.ndarray
    delta: DeltaResult | None  # of arrays: one hole and m = 1
    singular_values: np.ndarray
    vh: np.ndarray
    condition_a: ConditionA

    def first(self) -> ExtremalityVerdict:
        """Row 0 as a verdict; the ValueError of a matrix that is not finite."""
        if not self.finite[0]:
            raise ValueError("matrix must be finite")
        rank = int(self.rank[0])
        return ExtremalityVerdict(str(self.status[0]), rank, self.vh[0, rank:], self.condition_a,
                                  self.singular_values[0], delta=self.delta and self.delta.row(0),
                                  rank_margin=float(self.rank_margin[0]))


def _decide_rows(weights: Expansion, space: PuncturedSpace, m: int,
                 tol: Tolerances = DEFAULT) -> RankRows:
    """The one float rank decision: the svd verdicts of members of inner degree m, from their
    criterion weights f / P_m at the holes (``f.taylor(space.holes, 2 * m, first=m)``, or
    rows of them), as columns; ``first()`` is one member's verdict.  The matrices are
    assembled and their SVDs taken as one stack, each with the bits it gets alone (one that is
    not finite as the zero matrix); :func:`_rank_rule` reads the singular values with the
    row's largest weight as its scale floor, and the kernel is the trailing right singular
    vectors (every vector when there is no hole).  Each row carries sigma_2m / cutoff, and with
    one hole and m = 1 the determinant test :func:`_delta` of its weights."""
    cond = ConditionA(m, space.size)
    scales = np.reshape(weights.scale, -1)  # one row per scale
    windows = weights.windows.reshape(scales.shape + weights.windows.shape[-2:])
    count, nan = len(windows), np.full(len(windows), np.nan)
    if not space.holes:  # the empty matrix has rank 0
        rank = np.zeros(count, dtype=int)
        return RankRows(rank == 0, _status(cond, rank, False), rank, nan, None,
                        np.zeros((count, 0)), np.tile(np.eye(2 * m + 1), (count, 1, 1)), cond)
    matrices = _assemble(windows, m)
    finite = np.isfinite(matrices).all(axis=(1, 2))
    matrices[~finite] = 0
    _, sigmas, vhs = np.linalg.svd(matrices)
    ranks, borderline, cutoffs = _rank_rule(sigmas, tol.rank, scales)
    margins = sigmas[:, min(2 * m, sigmas.shape[1]) - 1] / cutoffs if m else nan
    delta = _delta(windows, tol) if space.size == 1 and m == 1 else None
    return RankRows(finite, _status(cond, ranks, borderline), ranks, margins, delta, sigmas, vhs,
                    cond)


@dataclass(frozen=True)
class DeltaResult:
    """Single-hole fast path: delta = |c_{k-2}|^2 - |c_k|^2 decides rank 2.  ``ratio`` is
    delta / (|c_{k-2}|^2 + |c_k|^2), in [-1, 1] and free of f's scale; the test compares its
    modulus with tol.delta (nan where both squares vanish or overflow).  :func:`_delta` gives
    arrays, one entry per row, and ``row`` reads one."""

    delta: float
    status: str
    ratio: float

    def row(self, i: int) -> "DeltaResult":
        return DeltaResult(float(self.delta[i]), str(self.status[i]), float(self.ratio[i]))


def single_hole_delta(
    f: FactoredFunction, k: int, tol: Tolerances = DEFAULT
) -> DeltaResult:
    """Determinant shortcut for one hole and inner degree <= 1.

    For m = 1 the criterion matrix has rank 2 iff delta != 0; the relative
    sign test uses |delta| > tol.delta * (|c_{k-2}|^2 + |c_k|^2).  For m = 0
    the function is outer, always extreme: delta and its ratio are the +inf sentinel.
    """
    m = f.inner.degree
    if m not in (0, 1):
        raise ValueError(f"single-hole shortcut needs inner degree 0 or 1, got {m}")
    if m == 0:
        return DeltaResult(float("inf"), EXTREME, float("inf"))
    return _delta(f.taylor((k,), 2, first=1).windows[None], tol).row(0)


def _delta(windows: np.ndarray, tol: Tolerances = DEFAULT) -> DeltaResult:
    """The m = 1 determinant test on rows of the window c_{k-2..k} of f / P_1 at the one hole
    k (shape (r, 1, 3); c_{k-2} = 0 for k < 2).  |c|^2 has the bits of the scalar abs(c) ** 2:
    ``np.float_power`` calls libm's pow on each hypot, where an array ``** 2``, np.square
    and numpy's array abs round differently."""
    lo, hi = (np.float_power(np.hypot(c.real, c.imag), 2.0) for c in windows[:, 0, ::2].T)
    delta, total = lo - hi, lo + hi
    status = np.where(abs(delta) > tol.delta * total, EXTREME, NON_EXTREME)
    ratio = np.divide(delta, total, out=np.full(delta.shape, np.nan), where=total != 0)
    return DeltaResult(delta, status, ratio)


def kernel_alignment(verdict: ExtremalityVerdict, zeros) -> float:
    """|cos angle| between the computed kernel and the canonical vector.

    For an extreme verdict the kernel is one-dimensional and must be the
    canonical vector up to scale; values below 1 - 1e-8 indicate a
    misclassification.
    """
    canonical = np.array(canonical_kernel_vector(zeros).vector)
    canonical /= np.linalg.norm(canonical)
    kernel = verdict.kernel_basis
    if kernel.shape[0] == 0:
        return 0.0
    # projection of the canonical vector onto the kernel subspace
    return float(np.linalg.norm(kernel @ canonical))
