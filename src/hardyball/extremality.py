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
                    check_membership)
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
    coeffs = np.array([1.0 + 0j])
    for a in zeros:
        a = complex(a)
        coeffs = np.convolve(coeffs, np.array([-a, 1.0]))
        coeffs = np.convolve(coeffs, np.array([1.0, -a.conjugate()]))
    n = len(zeros)
    upper = coeffs[n:]
    return SymmetricPolynomial(n, (upper[0].real / 2.0, *upper[1:].real, *upper[1:].imag))


def hole_constraint_value(p: SymmetricPolynomial, coeffs, k: int) -> complex:
    """Taylor coefficient at index k of (p * series with the given coefficients).

    Evaluates sum_{l=1..N} c_{k+l-N} conj(gamma_l) + sum_{l=0..N} c_{k-l-N} gamma_l
    exactly, reading c_r = 0 outside the given c_0, c_1, ...; the real/imaginary
    parts of this bilinear form are what the rows of the criterion matrix
    tabulate, so this is its independent audit oracle.
    """
    def c(r):
        return coeffs[r] if 0 <= r < len(coeffs) else 0j

    n = p.order
    gammas = p.upper
    acc = 0j
    for l in range(1, n + 1):
        acc += c(k + l - n) * gammas[l].conjugate()
    for l in range(0, n + 1):
        acc += c(k - l - n) * gammas[l]
    return acc


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

    Works on any scalars with ``.real``, ``.imag`` and exact ``+ -`` on those
    parts, so the same tabulation serves float and exact coefficients.
    """
    holes = tuple(int(k) for k in holes)
    values = np.asarray(coeffs).tolist()
    n = len(values)
    base = np.array(holes, dtype=int).reshape(-1, 1) - m
    offsets = np.arange(m + 1)
    # positions of c_{k+l-m} and c_{k-l-m}; reads outside 0..n-1 hit the trailing zero
    hi, lo = (np.where((i >= 0) & (i < n), i, n) for i in (base + offsets, base - offsets))
    re = np.array([c.real for c in values] + [0])
    im = np.array([c.imag for c in values] + [0])
    re_sum, im_sum = re[hi] + re[lo], im[hi] + im[lo]
    re_diff = re[hi[:, 1:]] - re[lo[:, 1:]]
    im_diff = im[hi[:, 1:]] - im[lo[:, 1:]]
    assembled = np.block([[re_sum, im_diff], [im_sum, -re_diff]])
    return CriterionMatrix(holes, m, assembled, coeffs)


def build_criterion_matrix(
    f: FactoredFunction, space: PuncturedSpace, ring=complex, first: int | None = None
) -> CriterionMatrix:
    """Criterion matrix of order n = ``first`` (default: the inner degree) for the hole set."""
    n = f.inner.degree if first is None else first
    return assemble_criterion_matrix(f.taylor(space.k_max, ring, n), space.holes, n)


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
    cutoff = tol_rank * max(smax, scale_floor)
    rank = int((s > cutoff).sum())
    borderline = bool(((s >= 0.1 * cutoff) & (s <= 10.0 * cutoff)).any())
    return RankResult(rank, vh[rank:], s, borderline)


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
    the exact backend always expands f exactly.  The inner-degree condition is
    checked first; when it fails the function is non-extreme regardless of the
    matrix, whose rank is still reported for diagnostics.  ``backend`` is
    either "svd" (default) or "exact" (Gauss-Jordan elimination over the
    binary-exact Gaussian-rational lift of the inputs; no tolerance, no
    borderline band).
    """
    m = f.inner.degree
    cond = ConditionA(m, space.size)

    if backend == "exact":
        # the exact rank of a function that is not an exact rational member
        # answers a question about a function outside the space
        for hole, defect in exact_membership_defects(f, space):
            if defect != 0:
                raise NotInSpaceError(hole, float(defect))
        matrix = build_criterion_matrix(f, space, lift).assembled
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

    if not cond.holds:
        # rank <= 2M < 2m is structural: the matrix only has 2M rows
        assert result.rank < 2 * m
        status = NON_EXTREME
    elif result.borderline:
        status = BORDERLINE
    elif result.rank == 2 * m:
        status = EXTREME
    else:
        status = NON_EXTREME
    return ExtremalityVerdict(
        status, result.rank, result.kernel, cond, result.singular_values, backend
    )


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
    coeffs = f.taylor(k, first=1)
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
