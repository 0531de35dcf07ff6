"""The Taylor expansion of rational disk functions, and circle quadrature.

Everything the rank criterion consumes is a finite batch of Taylor
coefficients, and :func:`expand` is the one recurrence that produces them (no
truncation error): the numerator divided by one first-order section
1 / (1 - conj(b) z) per pole, in turn, as a doubling scan in numpy on complex
floats (rounding is its only error) and as a plain loop on the exact Gaussian
dyadic rationals of :mod:`hardyball.exactrank` (int parts over a power of two,
no gcd; Fractions only where the criterion reads parts).  It returns what its
consumers read (:class:`Expansion`): the window c_{k-w..k} at each hole k and
the scale max_j |c_j| up to the last hole K.  On complex floats it scans only a
head of the series where it can prove that the tail stays below the head's
largest coefficient, and reaches each window beyond the head by powers of the
sections' step matrix, so the cost of a float expansion grows like log K, not
K; otherwise, and for exact scalars, it runs the recurrence to K.
:class:`Rational` is the one rational-function type on the disk; it evaluates
itself on circle nodes and feeds :func:`expand` for its Taylor coefficients.
Every function the criterion reads is one: f / P_n
(:meth:`hardyball.model.FactoredFunction.taylor`), the generator's weight
function, and the witness factor.
Circle means have two rules, both refined until two successive values agree.
A smooth periodic integrand gets the uniform-node average (trapezoid), which
converges exponentially, on a doubling grid of nested nodes that starts where
the integrand's known singularities say the rate meets the tolerance.  An integrand |F| * (smooth)
with F vanishing on the circle has a kink at each root, where the trapezoid
rule converges only like 1/n^2; the circle is split at the roots' arguments
and each arc, on which the integrand is analytic up to its ends, gets
composite Gauss-Legendre with doubling panels (Trefethen & Weideman, SIAM
Review 56, 2014).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .tolerances import DEFAULT, Tolerances

# poles (and Blaschke zeros) must satisfy |b| < 1 - POLE_MARGIN
POLE_MARGIN = 1e-9
# circle means give up (QuadratureConvergenceError) beyond this many nodes
QUAD_MAX_N = 2 ** 20
# nodes per panel of the composite Gauss-Legendre rule on circle arcs
GAUSS_NODES = 16
# arrays of stacked rows (a sweep's rows times Taylor terms) hold at most
# this many elements, so a sweep's memory grows with neither its row count nor k_max
STACK_ELEMENTS = 2 ** 14
# a float expansion of n terms scans heads of L = HEAD_START, 2 HEAD_START, ... terms while
# HEAD_SHARE * L <= n, and the full n terms otherwise (see :func:`expand`)
HEAD_START = 64
HEAD_SHARE = 16
_EPS = float(np.finfo(float).eps)
_SUBNORMAL = float(np.finfo(float).smallest_subnormal)


class PoleMarginError(ValueError):
    """A denominator parameter sits too close to (or outside) the unit circle."""


class EvaluationError(RuntimeError):
    """An integrand produced a non-finite value at a grid node."""

    def __init__(self, node: complex, index: int):
        super().__init__(f"non-finite evaluation at node {index} ({node})")
        self.node = node
        self.index = index


class QuadratureConvergenceError(RuntimeError):
    """Grid doubling hit the size cap before successive means agreed."""


class ExpansionOverflowError(ArithmeticError):
    """The Taylor coefficients of a function are not finite: they overflow a double."""


class Expansion(NamedTuple):
    """What the consumers of a Taylor expansion c_0..c_K (K the last hole) read of it.

    ``windows[..., j, t]`` is c_{k_j - width + t} for hole k_j, 0 at a negative index: the
    coefficient at the hole itself for membership and the witness product (width 0), and
    the criterion's window c_{k-2m..k} (width 2m).  ``scale`` is max_{j <= K} |c_j|, None
    for an exact ring.  Rows of numerators give a leading row axis on both.
    """

    windows: np.ndarray
    scale: np.ndarray | float | None


def check_pole_margin(parameters: Sequence[complex]) -> None:
    """Raise :class:`PoleMarginError` unless every parameter b has |b| < 1 - POLE_MARGIN."""
    values = np.array(parameters, dtype=complex).reshape(-1)
    for b in values[_outside(values)][:1].tolist():
        raise PoleMarginError(
            f"denominator parameter {b} has modulus {abs(b):.17g} >= 1 - {POLE_MARGIN:g}")


def _outside(values: np.ndarray) -> np.ndarray:
    """Where complex parameters b (an array of any shape, rows of a sweep's poles or Blaschke
    zeros among them) miss the margin, |b| >= 1 - POLE_MARGIN, |b| as Python's abs takes it."""
    return np.hypot(values.real, values.imag) >= 1.0 - POLE_MARGIN


def expand(numerator: Sequence, parameters: Sequence, holes: Sequence[int], width: int = 0,
           ring: Callable = complex) -> Expansion:
    """What is read of the Taylor coefficients c_0..c_K of p(z) / prod_i (1 - conj(b_i) z),
    K the last of the ascending ``holes`` (0 without one): the window c_{k-width..k} at each
    hole k and the scale max_{j <= K} |c_j| (see :class:`Expansion`).

    p (cut to K + 1 terms, its coefficients already in the ring) passes through one
    first-order section y_k = x_k + a y_{k-1}, a = conj(b_i), per pole in turn; the
    denominator, whose coefficients cancel when poles cluster near the circle, is never
    multiplied out.  A zero pole is skipped, so with no other pole p comes back bit for bit.
    On complex floats a section is a doubling scan (:func:`_scan`), and the numerator may
    be rows (shape (r, len)) with each pole an array of r values: every row gets its own
    recurrence, bit for bit, and a pole that is zero in every row is skipped, so rows whose
    poles are zero in different places go apart.  An exact ring (``ring`` lifts a number into
    it, e.g. :func:`hardyball.exactrank.lift`; its scalars need only ``+``, ``*`` and
    ``conjugate()``) runs the sections as a plain loop, term by term, to K.

    On complex floats, with L the power of two from :data:`HEAD_START` up that holds the
    numerator and one window, all n = K + 1 terms are scanned while n < HEAD_SHARE * L,
    where that costs about what a head, its bound and a jump do.  Else each row first
    scans a head c_0..c_{L-1}, whose bits are the full scan's (:func:`_scan`).
    Past the numerator the section values s_k = (y^1_k, .., y^P_k) evolve by
    s_k = T s_{k-1} with T[i, l] = a_l for l <= i, so the sum of |c_k| over k >= L is
    bounded from s_{L-1} (:func:`_tail_bound`, which allows for the rounding of the full
    scan).  Where that bound is at most the head's largest |c_k|, that is the scale of the
    full scan, bit for bit, and a window coefficient c_k beyond the head is the last entry
    of T^{k-L+1} s_{L-1}, by repeated squaring (:func:`_jump`): it differs from the full
    scan's by rounding only.  L doubles while the bound is finite and unproven; past
    n / HEAD_SHARE, for a bound or a jump that is not finite, the row gets the full scan.
    For one numerator a scale that is not finite raises :class:`ExpansionOverflowError`;
    rows carry theirs in ``scale``.
    """
    holes = np.asarray(holes, dtype=int).reshape(-1)
    n = int(holes[-1]) + 1 if holes.size else 1
    index = holes[:, None] + np.arange(-width, 1)  # the coefficient each window slot reads
    poles = [b for b in parameters if (b.any() if isinstance(b, np.ndarray) else b != 0)]
    if ring is not complex:
        # term by term: of each section's growing exact values only the last is live
        factors = [ring(b).conjugate() for b in poles]
        zero = ring(0)
        last, coeffs = [zero] * len(factors), []
        for k in range(n):
            y = numerator[k] if k < len(numerator) else zero
            for i, a in enumerate(factors):
                y = last[i] = y + a * last[i]
            coeffs.append(y)
        windows = np.empty(index.shape, dtype=object)
        windows.flat = [coeffs[i] if i >= 0 else zero for i in index.flat]
        return Expansion(windows, None)
    x = np.asarray(numerator, dtype=complex)[..., :n]
    head = HEAD_START
    while head < max(x.shape[-1], width + 1):
        head *= 2
    if HEAD_SHARE * head > n:  # a short expansion
        return _full(x, poles, index, n)
    rows = len(x) if x.ndim == 2 else 1
    factors = np.conj(np.array(poles, dtype=complex).reshape(len(poles), rows)).T  # (rows, P)
    if x.ndim == 1:
        read = _windowed(x, factors[0], index, head)
        return _full(x, poles, index, n) if read is None else Expansion(*read)
    windows = np.empty((len(x),) + index.shape, dtype=complex)
    scale = np.empty(len(x))
    full = []  # the rows that need the full scan
    for i, (row, a) in enumerate(zip(x, factors)):
        read = _windowed(row, a, index, head)
        if read is None:
            full.append(i)
        else:
            windows[i], scale[i] = read
    if full:
        windows[full], scale[full] = _full(x[full], [b[full] for b in poles], index, n)
    return Expansion(windows, scale)


def _full(x: np.ndarray, poles: list, index: np.ndarray, n: int) -> Expansion:
    """The expansion of a numerator x (or rows of them) from the full scan of n terms: for one
    numerator each section's factor is a Python complex, for rows a column."""
    coeffs, _ = _scan(x, [complex(b).conjugate() if x.ndim == 1 else np.conj(b)[:, None]
                          for b in poles], n)
    scale = np.abs(coeffs).max(axis=-1)
    if x.ndim == 1 and not math.isfinite(scale):
        raise ExpansionOverflowError(f"Taylor coefficients overflow: max |c_j| for j <= {n - 1} "
                                     f"is {scale}")
    return Expansion(_gather(coeffs, index), scale)


def _windowed(x: np.ndarray, factors: np.ndarray, index: np.ndarray,
              head: int) -> tuple[np.ndarray, float] | None:
    """(windows, scale) of one numerator x from the first head, of ``head`` terms and
    doubling, whose tail bound it proves; ``factors`` holds the conj(b).  None where no head
    up to n / HEAD_SHARE does, or the bound or a window is not finite (see :func:`expand`)."""
    n = int(index[-1, -1]) + 1
    sections = factors.tolist()
    while HEAD_SHARE * head <= n:
        coeffs, last = _scan(x, sections, head)
        top = np.abs(coeffs).max()
        bound = _tail_bound(sections, last.tolist(), x.tolist(), n)
        if not (math.isfinite(bound) and math.isfinite(top)):
            return None
        if bound <= top:
            far = index >= head
            windows = _gather(coeffs, np.where(far, 0, index))
            if sections:  # with no pole the numerator ends inside the head
                windows[far] = _jump(factors, last, index[far] - head + 1)
            else:
                windows[far] = 0
            return (windows, top) if np.isfinite(windows).all() else None
        head *= 2
    return None


def _scan(x: np.ndarray, factors: list, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(c_0..c_{n-1}, the section values y^i_{n-1}) of a numerator x (or rows of them) divided
    by 1 - a z for each a in ``factors`` in turn, a Python complex or a column of the rows'.

    A section is a doubling scan: after the step with shift s, y_k sums a^j x_{k-j} over
    j < 2s, and a^{2s} is formed as Python forms a complex product (:func:`_product`, once
    per doubling for the columns of every section).  No step with shift s >= L touches c_k
    for k < L, so a scan's first L terms are bit for bit those of every longer one."""
    coeffs = np.zeros(x.shape[:-1] + (n,), dtype=complex)
    coeffs[..., :min(n, x.shape[-1])] = x[..., :n]
    scratch = np.empty_like(coeffs)
    last = np.empty(x.shape[:-1] + (len(factors),), dtype=complex)
    shifts = [2 ** t for t in range((n - 1).bit_length())]
    powers = [factors if x.ndim == 1 else np.array(factors)]  # a^s of every section
    for _ in shifts[1:]:
        a = powers[-1]
        powers.append([b * b for b in a] if x.ndim == 1 else _product(a, a))
    for i in range(len(factors)):
        for s, a in zip(shifts, powers):
            np.multiply(coeffs[..., :n - s], a[i], out=scratch[..., s:])
            coeffs[..., s:] += scratch[..., s:]
        last[..., i] = coeffs[..., -1]
    return coeffs, last


def _tail_bound(factors: list, last: list, x: list, n: int) -> float:
    """A bound on |c_k| for L <= k < n as the full scan of n terms computes it, from the
    section values y^i_{L-1} (``last``) of a head scan of x; inf unless every |a| < 1.

    With g_i = 1 / (1 - |a_i|), S_i = (S_{i-1} + |a_i| |y^i_{L-1}|) g_i bounds
    sum_{k >= L} |y^i_k|, so S_P = sum_i |a_i| |y^i_{L-1}| g_i ... g_P.  A scan rounds each
    coefficient by at most gamma = 4 P (n + 16) eps times its value in the scan of |x| by
    |a| (a term a^j x_{k-j} passes log2 n products, whose powers of a carry a relative error
    below 2 j sqrt(5) u, and log2 n sums), and every such value is at most
    C = ||x||_1 g_1 ... g_P.  The head's y^i_{L-1} and the full scan's c_k both round, so
    the full scan's |c_k| is at most S_P + 2 gamma C; a factor 1 + gamma and P n subnormals
    cover the rounding and underflow of the bound itself and of |c_k|."""
    tail, suffix = 0.0, 1.0  # suffix: g_i ... g_P
    for a, y in zip(reversed(factors), reversed(last)):
        if not abs(a) < 1:
            return math.inf
        suffix /= 1 - abs(a)
        tail += abs(a) * abs(y) * suffix
    gamma = 4 * len(factors) * (n + 16) * _EPS
    total = sum(map(abs, x)) * suffix
    return (tail + 2 * gamma * total) * (1 + gamma) + len(factors) * n * _SUBNORMAL


def _jump(factors: np.ndarray, last: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """For each step count e, the last entry of T^e s, T[i, l] = a_l for l <= i (the step of
    the section values past the numerator) and s = ``last``.  T^{2^t} comes by repeated
    squaring, in the same product that applies it to the states; a state keeps its old
    value where its e lacks bit t (windows are narrow, so only the low bits differ)."""
    count = len(factors)
    power = np.tril(np.broadcast_to(factors, (count, count)))
    both = np.concatenate([power, np.repeat(last[:, None], len(steps), axis=1)], axis=1)
    steps = steps.tolist()
    for t in range(max(steps).bit_length()):
        product = both[:, :count] @ both  # [T^{2^{t+1}} | T^{2^t} states]
        on = [e >> t & 1 == 1 for e in steps]
        if not all(on):
            np.copyto(product[:, count:], both[:, count:], where=~np.array(on))
        both = product
    return both[-1, count:]


def _gather(coeffs: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The coefficients at ``index`` (each below their count), 0 at a negative index."""
    if not index.size or index[0, 0] >= 0:  # holes ascend, so [0, 0] is the least
        return coeffs[..., index]
    return np.where(index >= 0, coeffs[..., np.maximum(index, 0)], 0)


def _product(x, y):
    """x * y elementwise, with x or y an array, formed as Python forms a complex product:
    each part from the parts of x and y with one rounding per operation (numpy's own complex
    multiply may fuse them)."""
    out = np.empty(np.broadcast(x, y).shape, dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def _polyval(coeffs: Sequence, z):
    """Evaluate sum_k coeffs[k] z^k (Horner, ascending coefficient order); a coefficient may
    be a column of rows (shape (r, 1)), giving one row of values per row."""
    last = coeffs[-1]
    if isinstance(last, np.ndarray):
        acc = np.full(np.broadcast(z, last).shape, last, dtype=complex)
    else:
        acc = np.full_like(z, last, dtype=complex) if isinstance(z, np.ndarray) else last
    for c in coeffs[-2::-1]:
        acc = acc * z + c
    return acc


def _rational_values(numerator: Sequence, zeros: Sequence, poles: Sequence, z):
    """numerator(z) * prod_i (z - a_i) / prod_i (1 - conj(b_i) z).  Zero i is applied together
    with pole i, so on the circle the partial products stay near modulus one; unpaired poles
    divide once at the end."""
    acc = _polyval(numerator, z)
    paired = min(len(zeros), len(poles))
    for a, b in zip(zeros, poles):
        acc = acc * (z - a) / (1 - b.conjugate() * z)
    for a in zeros[paired:]:
        acc = acc * (z - a)
    if len(poles) > paired:
        den = 1 + 0j
        for b in poles[paired:]:
            den = den * (1 - b.conjugate() * z)
        acc = acc / den
    return acc


@dataclass(frozen=True)
class Rational:
    """numerator(z) * prod_i (z - a_i) / prod_i (1 - conj(b_i) z), analytic near the closed disk.

    The one rational-function type on the disk: an outer factor has no zeros,
    a Blaschke product is ``Rational((1,), zeros, zeros)``, and the
    hole-constraint weights f / P_n and the witness factor are built from
    their data the same way.  Zeros a_i and poles b_i are kept as parameter
    lists (repeats encode multiplicity) rather than multiplied out, so the
    poles-outside-the-disk invariant is checkable by construction.
    """

    numerator: tuple[complex, ...]
    poles: tuple[complex, ...] = ()
    zeros: tuple[complex, ...] = ()

    def __post_init__(self):
        for name in ("numerator", "poles", "zeros"):
            object.__setattr__(self, name, tuple(map(complex, getattr(self, name))))
        check_pole_margin(self.poles)

    def __call__(self, z):
        """Value at z (see :func:`_rational_values`)."""
        return _rational_values(self.numerator, self.zeros, self.poles, z)

    def taylor(self, holes: Sequence[int], width: int = 0, ring: Callable = complex) -> Expansion:
        """The Taylor windows c_{k-width..k} at the holes and the scale, every product formed
        in ``ring``.

        The zeros are multiplied into the numerator by convolution (on object
        arrays for an exact ring), and :func:`expand` divides the product by
        one first-order section per pole.
        """
        return expand(self._with_zeros(ring), self.poles, holes, width, ring)

    def _with_zeros(self, ring: Callable) -> list | np.ndarray:
        """The numerator times prod_i (z - a_i), formed in ``ring``."""
        numerator = [ring(c) for c in self.numerator]
        for a in self.zeros:
            numerator = np.convolve(numerator, [-ring(a), ring(1)])
        return numerator


def _taylor_rows(numerator: np.ndarray, zeros: np.ndarray, poles: np.ndarray,
                 holes: Sequence[int], width: int = 0) -> Expansion:
    """Complex :meth:`Rational.taylor` of rows of stacked parts (numerator, zeros, poles; shapes
    (r, .)), each row's windows and scale (one not finite stays in its row) bit for bit its own:
    the zeros multiplied in as by ``np.convolve`` (:func:`_with_zero_rows`), and one
    :func:`expand` per group of rows whose poles are zero in the same places."""
    for a in zeros.T:
        numerator = _with_zero_rows(numerator, a)
    windows = np.empty((len(numerator), len(holes), width + 1), dtype=complex)
    scale = np.empty(len(numerator))
    nonzero, left = poles != 0, np.ones(len(poles), dtype=bool)
    while left.any():  # the rows left whose poles are zero where the first one's are
        rows = np.flatnonzero(left & (nonzero == nonzero[left.argmax()]).all(axis=1))
        left[rows] = False
        windows[rows], scale[rows] = expand(numerator[rows], poles[rows].T, holes, width)
    return Expansion(windows, scale)


def _with_zero_rows(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Rows x (shape (r, L)) times z - a_i, each bit for bit ``np.convolve(x_i, [-a_i, 1])``:
    every term is the dot product (x_{k-1}, x_k) . (1, -a_i), 0 outside the row, which matmul
    of vector pairs takes from the same BLAS routine, from the same zero start, as np.convolve."""
    pad = np.zeros((len(x), x.shape[1] + 2), dtype=complex)
    pad[:, 1:-1] = x
    pairs = np.stack([pad[:, :-1], pad[:, 1:]], axis=-1)[:, :, None]  # (r, L + 1, 1, 2)
    factors = np.stack([np.ones(len(a), dtype=complex), -a], axis=-1)[:, None, :, None]
    return (pairs @ factors)[..., 0, 0]


# integrands see at most this many nodes per call, so that their temporaries on
# large grids stay small; odd halves up to this size are computed once and kept
_CHUNK = 2 ** 12
# full grids up to this size are computed once and kept: the witness grids of
# :mod:`hardyball.certificates` among them (384 KB for the two above _CHUNK)
_KEPT = 2 ** 14


def circle_nodes(n: int, odd: bool = False) -> np.ndarray:
    """The n-th roots of unity e^{2 pi i j / n}, j = 0..n-1 (n a power of two >= 16), or
    with ``odd`` only those of odd j, which a doubling adds to the grid of n / 2: node j of
    that grid is bit for bit node 2j of this one.  Read-only; kept for n <= _KEPT (odd
    halves: n <= _CHUNK)."""
    if n < 16 or (n & (n - 1)) != 0:
        raise ValueError(f"grid size must be a power of two >= 16, got {n}")
    kept = n <= (_CHUNK if odd else _KEPT)
    return (_roots_of_unity if kept else _roots_of_unity.__wrapped__)(n, odd)


@functools.cache
def _roots_of_unity(n: int, odd: bool) -> np.ndarray:
    nodes = np.exp(2j * np.pi * np.arange(int(odd), n, 1 + odd) / n)
    nodes.flags.writeable = False
    return nodes


def _finite_values(integrand, nodes: np.ndarray, first: int = 0, step: int = 1) -> np.ndarray:
    """The integrand on the given nodes, _CHUNK at a time; a non-finite value raises
    :class:`EvaluationError` naming the first such node by its index first + step * i in the
    grid the nodes come from."""
    vals = np.concatenate([integrand(nodes[i:i + _CHUNK]) for i in range(0, nodes.size, _CHUNK)])
    bad = ~np.isfinite(vals)
    if bad.any():
        i = int(np.argmax(bad))
        raise EvaluationError(complex(nodes[i]), first + step * i)
    return vals


def _trapezoid_means(integrand, start_n: int):
    """(mean, n) on uniform grids of n = start_n, 2 start_n, ... up to QUAD_MAX_N nodes; each
    doubling evaluates only the new (odd) nodes, so each mean is bit for bit its full grid's.
    Only where the plain sum overflows is the mean taken of the values times 2^-e >= 1/(2n)
    and scaled back by 2^e, which is exact short of subnormals."""
    n, vals = start_n, _finite_values(integrand, circle_nodes(start_n))
    while True:
        with np.errstate(over="ignore"):  # a sum of finite values that overflows is redone
            mean = float(np.real(vals).mean())
        if math.isinf(mean):
            e = n.bit_length()
            mean = float(np.ldexp(np.ldexp(np.real(vals), -e).mean(), e))
        yield mean, n
        n *= 2
        if n > QUAD_MAX_N:
            return
        odd = _finite_values(integrand, circle_nodes(n, odd=True), 1, 2)
        vals = np.stack([vals, odd], axis=-1).reshape(n)  # interleaved


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    # imported on first use, so root-free runs never load numpy.polynomial
    from numpy.polynomial.legendre import leggauss

    return leggauss(GAUSS_NODES)


def _arc_means(integrand, roots: Sequence[complex]):
    """(mean, n) of composite Gauss-Legendre rules on the arcs between the roots'
    arguments, with 1, 2, 4, ... equal panels per arc and n nodes in all, up to
    QUAD_MAX_N nodes."""
    cuts = np.unique(np.mod(np.angle(np.asarray(roots, dtype=complex)), 2 * np.pi))
    lengths = np.diff(np.append(cuts, cuts[0] + 2 * np.pi))
    x, w = _gauss_legendre()
    panels = 1
    while cuts.size * panels * GAUSS_NODES <= QUAD_MAX_N:
        half = lengths / (2 * panels)  # half the panel length on each arc
        mids = cuts[:, None] + half[:, None] * (2 * np.arange(panels) + 1)
        theta = (mids[:, :, None] + half[:, None, None] * x).ravel()
        weights = np.outer(np.repeat(half, panels), w).ravel() / (2 * np.pi)
        yield float(np.real(_finite_values(integrand, np.exp(1j * theta))) @ weights), theta.size
        panels *= 2


def converged_circle_mean(
    integrand: Callable[[np.ndarray], np.ndarray],
    tol: Tolerances = DEFAULT,
    roots: Sequence[complex] = (),
    alpha: float | None = None,
) -> tuple[float, int]:
    """Circle average of a real-valued integrand, refining the rule until stable.

    Without ``roots`` the rule is the uniform-node average (trapezoid) on a
    doubling grid.  Its error decays like e^{-alpha n} for an integrand analytic
    in e^{-alpha} < |z| < e^{alpha} (Trefethen & Weideman, section 3), so given
    ``alpha`` (inf: no singularity) the grid starts at :func:`_trapezoid_start`,
    and else at ``tol.quad_start_n``.  With ``roots`` (points on the circle where
    the integrand may have a kink, e.g. the circle roots of an outer factor F in
    |F|) the circle is split at their arguments and each arc gets composite
    :data:`GAUSS_NODES`-point Gauss-Legendre, the panels per arc doubling from
    one; the integrand must be smooth on each closed arc.  Stops once successive
    values agree within ``tol.quad`` scaled by max(1, |value|); raises
    :class:`QuadratureConvergenceError` if the next rule would exceed
    :data:`QUAD_MAX_N` nodes while still moving.  Returns (value, node count of
    the final rule).
    """
    if len(roots):
        rule = _arc_means(integrand, roots)
    else:
        start = tol.quad_start_n if alpha is None else _trapezoid_start(alpha, tol)
        rule = _trapezoid_means(integrand, start)
    prev = None
    for cur, n in rule:
        # successive values agree within tol.quad scaled by max(1, |value|)
        if prev is not None and abs(cur - prev) <= tol.quad * max(1.0, abs(cur)):
            return cur, n
        prev = cur
    raise QuadratureConvergenceError(
        f"circle mean did not stabilise to {tol.quad:g} by n = {QUAD_MAX_N}")


def _trapezoid_start(alpha: float, tol: Tolerances = DEFAULT) -> int:
    """The first trapezoid grid for an integrand analytic in e^{-alpha} < |z| < e^{alpha}
    (inf: no singularity): the power of two at or above max(16, log(1 / tol.quad) / alpha + 1),
    at most QUAD_MAX_N / 2 so one doubling fits."""
    need = max(16.0, math.log(1.0 / tol.quad) / alpha + 1)
    return min(QUAD_MAX_N // 2, 2 ** math.ceil(math.log2(need)))
