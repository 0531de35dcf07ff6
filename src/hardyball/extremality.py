"""The rank criterion: criterion matrix assembly, numeric rank, verdicts.

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exactrank import exact_membership_defects, fraction_kernel, lift
from .model import (FactoredFunction, MembershipReport, NotInSpaceError, PuncturedSpace,
                    canonical_product, check_membership)
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


@dataclass(frozen=True)
class CriterionMatrix:
    """Block matrix [[re_sum, im_diff], [im_sum, -re_diff]] with 2M rows, 2m+1 columns.

    With c_r the coefficients (zero for r < 0) and row hole k_j:
    re_sum[j, l]  = Re c_{k_j+l-m} + Re c_{k_j-l-m}   (l = 0..m)
    im_sum[j, l]  = Im c_{k_j+l-m} + Im c_{k_j-l-m}   (l = 0..m)
    re_diff[j, l] = Re c_{k_j+l-m} - Re c_{k_j-l-m}   (l = 1..m)
    im_diff[j, l] = Im c_{k_j+l-m} - Im c_{k_j-l-m}   (l = 1..m)

    ``assembled`` is float64 for complex coefficients and an object array of
    exact rationals for exact ones.
    """

    holes: tuple[int, ...]
    m: int
    assembled: np.ndarray
    coefficients: np.ndarray


def assemble_criterion_matrix(coeffs, holes, m: int) -> CriterionMatrix:
    """Assemble the criterion blocks from coefficients c_0, c_1, ... (pure tabulation).

    Only the 2M(m+1) coefficients in the windows c_{k_j-2m..k_j} are read, and
    split into ``.real`` and ``.imag`` parts with exact ``+ -``, so the same
    tabulation serves float and exact coefficients.
    """
    holes = tuple(int(k) for k in holes)
    return CriterionMatrix(holes, m, _assemble(coeffs, holes, m), coeffs)


def _assemble(coeffs, holes: tuple[int, ...], m: int) -> np.ndarray:
    """The assembled blocks; coefficient rows (shape (r, n)) give one matrix per row."""
    count = len(holes)
    base = np.array(holes, dtype=int).reshape(-1, 1) - m
    offsets = np.arange(m + 1)
    # positions of c_{k+l-m} (first M rows) and c_{k-l-m} (last M rows); outside 0..n-1, zero
    index = np.concatenate([base + offsets, base - offsets])
    coeffs = np.asarray(coeffs)
    inside = (index >= 0) & (index < coeffs.shape[-1])
    values = np.where(inside, coeffs[..., np.where(inside, index, 0)], 0)
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


def build_criterion_matrix(
    f: FactoredFunction, space: PuncturedSpace, first: int | None = None
) -> CriterionMatrix:
    """Float criterion matrix of order n = ``first`` (default: the inner degree) for the hole set."""
    n = f.inner.degree if first is None else first
    return assemble_criterion_matrix(f.taylor(space.k_max, first=n), space.holes, n)


@dataclass(frozen=True)
class RankResult:
    rank: int
    kernel: np.ndarray  # rows form an orthonormal kernel basis
    singular_values: np.ndarray
    borderline: bool


def numeric_rank(
    matrix: np.ndarray, tol_rank: float = DEFAULT.rank, scale_floor: float = 0.0
) -> RankResult:
    """SVD rank with relative cutoff and an explicit borderline band.

    rank = #{sigma > tol_rank * max(sigma_max, scale_floor)}; the kernel basis
    is the trailing right singular vectors.  Any singular value within one
    decade of the cutoff flags the result borderline rather than silently
    classifying it.

    ``scale_floor`` anchors the cutoff to the problem's own coefficient scale:
    a matrix whose largest singular value sits at rounding level relative to
    the coefficients it was built from is the zero matrix it represents (the
    degree-zero inner case produces exactly such matrices), which a purely
    sigma_max-relative cutoff would misread as rank one.
    """
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    if not np.isfinite(matrix).all():
        raise ValueError("matrix must be finite")
    if matrix.shape[0] == 0:
        return RankResult(0, np.eye(matrix.shape[1]), np.zeros(0), False)
    _, s, vh = np.linalg.svd(matrix)
    smax = float(s[0]) if s.size else 0.0
    if max(smax, scale_floor) == 0.0:
        return RankResult(0, np.eye(matrix.shape[1]), s, False)
    rank, borderline = _rank_rule(s, tol_rank, scale_floor)
    return RankResult(int(rank), vh[rank:], s, bool(borderline))


def _rank_rule(s: np.ndarray, tol_rank: float, scale_floor) -> tuple[np.ndarray, np.ndarray]:
    """(rank, borderline) of descending singular values along the last axis (each row with
    its own scale floor); rank 0 and not borderline where sigma_max and the floor are 0."""
    smax = s[..., 0]
    top = np.where(scale_floor > smax, scale_floor, smax)  # max(smax, floor), as Python's max
    cutoff = (tol_rank * top)[..., None]
    rank = (s > cutoff).sum(axis=-1)
    borderline = ((s >= 0.1 * cutoff) & (s <= 10.0 * cutoff)).any(axis=-1) & (top != 0)
    return rank, borderline


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
    cond = ConditionA(m, space.size)

    if backend == "exact":
        # the exact rank of a function that is not an exact rational member
        # answers a question about a function outside the space; the first
        # hole alone, then all of them (once when the two are the same)
        for holes in dict.fromkeys((space.holes[:1], space.holes)):
            head = PuncturedSpace(holes)
            weights = f.taylor(head.k_max, lift, m)
            for hole, defect in exact_membership_defects(f, head, weights):
                if defect != 0:
                    raise NotInSpaceError(hole, float(defect), "exact defect |Re| + |Im| =")
        matrix = assemble_criterion_matrix(weights, space.holes, m).assembled
        basis = fraction_kernel(matrix.tolist(), 2 * m + 1)
        kernel = np.linalg.qr(np.array(basis, dtype=float).reshape(-1, 2 * m + 1).T)[0].T
        result = RankResult(2 * m + 1 - len(basis), kernel, np.zeros(0), False)
    elif backend == "svd":
        if membership is None:
            membership = check_membership(f.taylor(space.k_max), space, tol)
        membership.require()
        matrix = build_criterion_matrix(f, space)
        scale = float(np.abs(matrix.coefficients).max()) if space.holes else 0.0
        result = numeric_rank(matrix.assembled, tol.rank, scale_floor=scale)
    else:
        raise ValueError(f"unknown rank backend {backend!r}")

    return ExtremalityVerdict(_status(cond, result.rank, result.borderline), result.rank,
                              result.kernel, cond, result.singular_values, backend)


def _status(cond: ConditionA, rank: int, borderline: bool) -> str:
    if not cond.holds:
        # rank <= 2M < 2m is structural: the matrix only has 2M rows
        assert rank < 2 * cond.m
        return NON_EXTREME
    if borderline:
        return BORDERLINE
    return EXTREME if rank == 2 * cond.m else NON_EXTREME


def _decide_rows(weights: np.ndarray, space: PuncturedSpace, m: int,
                 tol: Tolerances = DEFAULT) -> list:
    """The svd verdict of :func:`decide_extreme` for members of inner degree m, from rows of
    their criterion weights f / P_m (shape (r, k_max + 1)): per row (status, rank, singular
    values), or the ValueError of a matrix that is not finite.  The matrices are assembled
    and their SVDs taken as one stack, each with the bits numeric_rank gives it alone."""
    cond = ConditionA(m, space.size)
    if not space.holes:  # the empty matrix has rank 0
        return [(_status(cond, 0, False), 0, np.zeros(0))] * len(weights)
    matrices = _assemble(weights, space.holes, m)
    finite = np.isfinite(matrices).all(axis=(1, 2))
    sigmas = np.linalg.svd(matrices[finite])[1]
    ranks, borderline = _rank_rule(sigmas, tol.rank, np.abs(weights[finite]).max(axis=-1))
    verdicts = iter(zip(sigmas, ranks.tolist(), borderline.tolist()))
    out = []
    for ok in finite:
        if ok:
            s, rank, flag = next(verdicts)
            out.append((_status(cond, rank, flag), rank, s))
        else:
            out.append(ValueError("matrix must be finite"))
    return out


@dataclass(frozen=True)
class DeltaResult:
    """Single-hole fast path: delta = |c_{k-2}|^2 - |c_k|^2 decides rank 2."""

    delta: float
    status: str


def single_hole_delta(
    f: FactoredFunction, k: int, tol: Tolerances = DEFAULT
) -> DeltaResult:
    """Determinant shortcut for one hole and inner degree <= 1.

    For m = 1 the criterion matrix has rank 2 iff delta != 0; the relative
    sign test uses |delta| > tol.delta * (|c_{k-2}|^2 + |c_k|^2).  For m = 0
    the function is outer, always extreme: delta is the +inf sentinel.
    """
    m = f.inner.degree
    if m not in (0, 1):
        raise ValueError(f"single-hole shortcut needs inner degree 0 or 1, got {m}")
    if m == 0:
        return DeltaResult(float("inf"), EXTREME)
    return _delta(f.taylor(k, first=1), k, tol)


def _delta(coeffs: np.ndarray, k: int, tol: Tolerances = DEFAULT) -> DeltaResult:
    """The m = 1 determinant test on the weights c_0..c_k of f / P_1."""
    lo = abs(coeffs[k - 2]) ** 2 if k >= 2 else 0.0
    hi = abs(coeffs[k]) ** 2
    delta = lo - hi
    status = EXTREME if abs(delta) > tol.delta * (lo + hi) else NON_EXTREME
    return DeltaResult(delta, status)


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
