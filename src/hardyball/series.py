"""The Taylor expansion of rational disk functions, and circle quadrature.

Everything the rank criterion consumes is a finite batch of Taylor
coefficients, and :func:`expand` is the one recurrence that produces them (no
truncation error): the numerator divided by one first-order section
1 / (1 - conj(b) z) per pole, in turn, as a doubling scan in numpy on complex
floats (rounding is its only error) and as a plain loop on the exact Gaussian
dyadic rationals of :mod:`hardyball.exactrank` (int parts over a power of two,
no gcd; Fractions only where the criterion reads parts).  It returns a plain
array: complex for floats, object for exact scalars.  :class:`Rational` is the
one rational-function type on the disk; it evaluates itself on circle nodes and
feeds :func:`expand` for its Taylor coefficients.  Every function the
criterion reads is one: f / P_n (:meth:`hardyball.model.FactoredFunction.taylor`),
the generator's weight function, and the witness factor.
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
from typing import Callable, Sequence

import numpy as np

from .tolerances import DEFAULT, Tolerances

# poles (and Blaschke zeros) must satisfy |b| < 1 - POLE_MARGIN
POLE_MARGIN = 1e-9
# circle means give up (QuadratureConvergenceError) beyond this many nodes
QUAD_MAX_N = 2 ** 20
# nodes per panel of the composite Gauss-Legendre rule on circle arcs
GAUSS_NODES = 16
# arrays of stacked rows (a sweep's rows times Taylor terms or circle nodes) hold at most
# this many elements, so a sweep's memory grows with neither its row count nor k_max
STACK_ELEMENTS = 2 ** 14


class PoleMarginError(ValueError):
    """A denominator parameter sits too close to (or outside) the unit circle."""


class EvaluationError(RuntimeError):
    """An integrand produced a non-finite value at a grid node (``rows``: for an integrand of
    rows, which of them have one)."""

    def __init__(self, node: complex, index: int, rows: np.ndarray | None = None):
        super().__init__(f"non-finite evaluation at node {index} ({node})")
        self.node = node
        self.index = index
        self.rows = rows


class QuadratureConvergenceError(RuntimeError):
    """Grid doubling hit the size cap before successive means agreed."""


def check_pole_margin(parameters: Sequence[complex]) -> None:
    """Raise :class:`PoleMarginError` unless every parameter b has |b| < 1 - POLE_MARGIN."""
    for b in parameters:
        if abs(b) >= 1.0 - POLE_MARGIN:
            raise PoleMarginError(
                f"denominator parameter {b} has modulus {abs(b):.17g} >= 1 - {POLE_MARGIN:g}"
            )


def expand(numerator: Sequence, parameters: Sequence, up_to: int,
           ring: Callable = complex) -> np.ndarray:
    """Taylor coefficients c_0..c_{up_to} of p(z) / prod_i (1 - conj(b_i) z).

    p (cut or padded to up_to + 1 terms, its coefficients already in the ring)
    passes through one first-order section y_k = x_k + a y_{k-1},
    a = conj(b_i), per pole in turn; the denominator, whose coefficients cancel
    when poles cluster near the circle, is never multiplied out.  A zero pole
    is skipped, so with no other pole p comes back bit for bit.  On complex
    floats a section is a doubling scan: after the step with shift s, y_k sums
    a^j x_{k-j} over j < 2s, and a^{2s} is formed as Python forms a complex
    product (:func:`_product`).  On complex floats the numerator may also be
    rows (shape (r, L)) with each pole an array of r values: every row gets its
    own recurrence, bit for bit, and a pole that is zero in every row is
    skipped, so rows whose poles are zero in different places go apart.  An
    exact ring (``ring`` lifts a number into it, e.g.
    :func:`hardyball.exactrank.lift`; its scalars need only ``+``, ``*`` and
    ``conjugate()``) runs the sections as a plain loop, term by term.  Returns
    a complex array (rows: shape (r, up_to + 1)) for ``ring=complex``, else an
    object array.
    """
    if up_to < 0:
        raise ValueError("up_to must be >= 0")
    n = up_to + 1
    poles = [b for b in parameters if (b.any() if isinstance(b, np.ndarray) else b != 0)]
    if ring is complex:
        head = np.asarray(numerator, dtype=complex)[..., :n]
        coeffs = np.zeros(head.shape[:-1] + (n,), dtype=complex)
        coeffs[..., :head.shape[-1]] = head
        scratch = np.empty_like(coeffs)
        for b in poles:
            # a column of the rows' values, or one Python complex
            a = np.conj(b)[:, None] if isinstance(b, np.ndarray) else complex(b).conjugate()
            s = 1
            while s < n:
                np.multiply(coeffs[..., :n - s], a, out=scratch[..., s:])
                coeffs[..., s:] += scratch[..., s:]
                a = a * a if type(a) is complex else _product(a, a)
                s *= 2
        return coeffs
    # term by term: of each section's growing exact values only the last is live
    factors = [ring(b).conjugate() for b in poles]
    zero = ring(0)
    last, coeffs = [zero] * len(factors), []
    for k in range(n):
        y = numerator[k] if k < len(numerator) else zero
        for i, a in enumerate(factors):
            y = last[i] = y + a * last[i]
        coeffs.append(y)
    return np.array(coeffs, dtype=object)


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
    divide once at the end.  Each coefficient and parameter may be a column of rows (shape
    (r, 1)): the values are then rows, each bit for bit its own rational's."""
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

    def taylor(self, up_to: int, ring: Callable = complex) -> np.ndarray:
        """Taylor coefficients c_0..c_{up_to}, every product formed in ``ring``.

        The zeros are multiplied into the numerator by convolution (on object
        arrays for an exact ring), and :func:`expand` divides the product by
        one first-order section per pole.
        """
        return expand(self._with_zeros(ring), self.poles, up_to, ring)

    def _with_zeros(self, ring: Callable) -> list | np.ndarray:
        """The numerator times prod_i (z - a_i), formed in ``ring``."""
        numerator = [ring(c) for c in self.numerator]
        for a in self.zeros:
            numerator = np.convolve(numerator, [-ring(a), ring(1)])
        return numerator


def _taylor_rows(rationals: Sequence[Rational], up_to: int) -> np.ndarray:
    """Complex :meth:`Rational.taylor` of rationals with equal numerator and pole counts, as
    rows (shape (r, up_to + 1)): rows whose poles are zero in the same places share one
    :func:`expand`, and each row's coefficients are bit for bit its own expansion's."""
    count = len(rationals)
    numerators = np.array([r._with_zeros(complex) for r in rationals], dtype=complex)
    poles = np.array([r.poles for r in rationals], dtype=complex).reshape(count, -1)
    out = np.empty((count, up_to + 1), dtype=complex)
    patterns = (poles != 0).tolist()
    for pattern in set(map(tuple, patterns)):
        rows = [i for i, p in enumerate(patterns) if tuple(p) == pattern]
        out[rows] = expand(numerators[rows], poles[rows].T, up_to)
    return out


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
    :class:`EvaluationError` naming the first node where any row has one, by its
    index first + step * i in the grid the nodes come from."""
    vals = np.concatenate([np.asarray(integrand(nodes[i:i + _CHUNK]))
                           for i in range(0, nodes.size, _CHUNK)], axis=-1)
    bad = ~np.isfinite(vals)
    if bad.any():
        i = int(np.argmax(bad.reshape(-1, nodes.size).any(axis=0)))
        raise EvaluationError(complex(nodes[i]), first + step * i, bad.any(axis=-1))
    return vals


def _trapezoid_means(integrand, start_n: int):
    """(mean, n) on uniform grids of n = start_n, 2 start_n, ... up to QUAD_MAX_N nodes; each
    doubling evaluates only the new (odd) nodes, so each mean is bit for bit its full grid's.
    A caller of an integrand of rows may send a mask of the rows to go on with (a per-row
    stop); the integrand must then return just those rows."""
    n, vals = start_n, _finite_values(integrand, circle_nodes(start_n))
    while True:
        keep = yield np.real(vals).mean(axis=-1), n
        n *= 2
        if n > QUAD_MAX_N:
            return
        if keep is not None:
            vals = vals[keep]
        odd = _finite_values(integrand, circle_nodes(n, odd=True), 1, 2)
        vals = np.stack([vals, odd], axis=-1).reshape(vals.shape[:-1] + (n,))  # interleaved


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
        yield np.real(_finite_values(integrand, np.exp(1j * theta))) @ weights, theta.size
        panels *= 2


def converged_circle_mean(
    integrand: Callable[[np.ndarray], np.ndarray],
    tol: Tolerances = DEFAULT,
    roots: Sequence[complex] = (),
    alpha: float | None = None,
) -> tuple[float | np.ndarray, int]:
    """Circle average of a real-valued integrand, refining the rule until stable.

    Without ``roots`` the rule is the uniform-node average (trapezoid) on a
    doubling grid.  Its error decays like e^{-alpha n} for an integrand analytic
    in e^{-alpha} < |z| < e^{alpha} (Trefethen & Weideman, section 3), so given
    ``alpha`` (inf: no singularity) the grid starts at the power of two at or
    above max(16, log(1 / tol.quad) / alpha + 1), at most QUAD_MAX_N / 2 so one
    doubling fits, and else at ``tol.quad_start_n``.  With ``roots`` (points on
    the circle where the integrand may have a kink, e.g. the circle roots of
    an outer factor F in |F|) the circle is split at their arguments and each
    arc gets composite :data:`GAUSS_NODES`-point Gauss-Legendre, the panels
    per arc doubling from one; the integrand must be smooth on each closed arc.
    Stops once successive values agree within ``tol.quad`` scaled by
    max(1, |value|); raises
    :class:`QuadratureConvergenceError` if the next rule would exceed
    :data:`QUAD_MAX_N` nodes while still moving.  Returns (value, node count of
    the final rule).  An integrand that returns rows (shape (r, n) on n nodes)
    integrates them on one ladder: it stops when every row passes the test and
    the value is the array of row means, so each row ends on a rule at least
    as fine as its own ladder's.
    """
    if len(roots):
        rule = _arc_means(integrand, roots)
    else:
        start = tol.quad_start_n if alpha is None else _trapezoid_start(alpha, tol)
        rule = _trapezoid_means(integrand, start)
    prev = None
    for cur, n in rule:
        if prev is not None and _settled(cur, prev, tol).all():
            return (float(cur) if cur.ndim == 0 else cur), n
        prev = cur
    raise _unsettled(tol)


def _trapezoid_start(alpha: float, tol: Tolerances = DEFAULT) -> int:
    """The first trapezoid grid for an integrand analytic in e^{-alpha} < |z| < e^{alpha}
    (inf: no singularity): the power of two at or above max(16, log(1 / tol.quad) / alpha + 1),
    at most QUAD_MAX_N / 2 so one doubling fits."""
    need = max(16.0, math.log(1.0 / tol.quad) / alpha + 1)
    return min(QUAD_MAX_N // 2, 2 ** math.ceil(math.log2(need)))


def _settled(cur, prev, tol: Tolerances):
    """Where successive circle means agree within tol.quad scaled by max(1, |value|)."""
    return np.abs(cur - prev) <= tol.quad * np.maximum(1.0, np.abs(cur))


def _unsettled(tol: Tolerances) -> QuadratureConvergenceError:
    return QuadratureConvergenceError(
        f"circle mean did not stabilise to {tol.quad:g} by n = {QUAD_MAX_N}"
    )


def _row_means(integrand, count: int, start_n: int, tol: Tolerances = DEFAULT) -> list:
    """Trapezoid circle means of ``count`` rows on one ladder from ``start_n`` nodes, each row
    stopping on its own test, so that its value and node count are bit for bit those
    :func:`converged_circle_mean` gives it alone.  ``integrand(z, rows)`` evaluates the rows
    of the index array ``rows``.  Per row: (value, n); the error its own ladder raises; or
    None for a row put off the ladder so that rows x nodes stay within STACK_ELEMENTS (the
    caller integrates it alone).  A row with a non-finite value leaves with its
    :class:`EvaluationError`, and the other rows start their ladder again, to the same bits.
    """
    out: list = [None] * count
    active = np.arange(count)
    while active.size:
        ladder = _trapezoid_means(lambda z: integrand(z, active), start_n)
        try:
            cur, n = next(ladder)
            prev = None
            while True:
                keep = np.ones(active.size, bool) if prev is None else ~_settled(cur, prev, tol)
                for i, value in zip(active[~keep], cur[~keep]):
                    out[i] = (float(value), n)
                keep[np.cumsum(keep) > max(1, STACK_ELEMENTS // (2 * n))] = False
                active, prev = active[keep], cur[keep]
                if not active.size:
                    return out
                cur, n = ladder.send(keep)
        except StopIteration:
            out_of_nodes = _unsettled(tol)
            for i in active:
                out[i] = out_of_nodes
            break
        except EvaluationError as exc:
            for i in active[exc.rows]:
                out[i] = exc
            active = active[~exc.rows]
    return out
