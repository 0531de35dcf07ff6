"""The Taylor expansion of rational disk functions, and circle quadrature.

Everything the rank criterion consumes is a finite batch of Taylor
coefficients, and :func:`expand` is the one recurrence that produces them (no
truncation error): the numerator divided by one first-order section
1 / (1 - conj(b) z) per pole, in turn, as a doubling scan in numpy on complex
floats (rounding is its only error) and as a plain loop on the exact Gaussian
rationals of :mod:`hardyball.exactrank`.  It returns a plain array: complex
for floats, object for exact scalars.  :class:`Rational` is the one
rational-function type on the disk; it evaluates itself on circle nodes and
feeds :func:`expand` for its Taylor coefficients.  Every function the
criterion reads is one: f / P_n (:meth:`hardyball.model.FactoredFunction.taylor`),
the generator's weight function, and the witness factor.
Circle means have two rules, both refined until two successive values agree.
A smooth periodic integrand gets the uniform-node average (trapezoid), which
converges exponentially, on a doubling grid.  An integrand |F| * (smooth)
with F vanishing on the circle has a kink at each root, where the trapezoid
rule converges only like 1/n^2; the circle is split at the roots' arguments
and each arc, on which the integrand is analytic up to its ends, gets
composite Gauss-Legendre with doubling panels (Trefethen & Weideman, SIAM
Review 56, 2014).
"""

from __future__ import annotations

import functools
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
    a^j x_{k-j} over j < 2s.  An exact ring (``ring`` lifts a number into it,
    e.g. :func:`hardyball.exactrank.lift`; its scalars need only ``+``, ``*``
    and ``conjugate()``) runs the sections as a plain loop, term by term.
    Returns a complex array for ``ring=complex``, else an object array.
    """
    if up_to < 0:
        raise ValueError("up_to must be >= 0")
    n = up_to + 1
    poles = [b for b in parameters if b != 0]
    if ring is complex:
        head = np.asarray(numerator, dtype=complex)[:n]
        coeffs = np.concatenate([head, np.zeros(n - head.size, dtype=complex)])
        scratch = np.empty(n, dtype=complex)
        for b in poles:
            a, s = complex(b).conjugate(), 1
            while s < n:
                np.multiply(coeffs[:n - s], a, out=scratch[s:])
                coeffs[s:] += scratch[s:]
                a *= a
                s *= 2
        return coeffs
    # term by term: of each section's growing exact values only the last is live
    factors = [ring(b).conjugate() for b in poles]
    last, coeffs = [ring(0)] * len(factors), []
    for k in range(n):
        y = numerator[k] if k < len(numerator) else ring(0)
        for i, a in enumerate(factors):
            y = last[i] = y + a * last[i]
        coeffs.append(y)
    return np.array(coeffs, dtype=object)


def _polyval(coeffs: Sequence[complex], z):
    """Evaluate sum_k coeffs[k] z^k (Horner, ascending coefficient order)."""
    acc = np.full_like(z, coeffs[-1], dtype=complex) if isinstance(z, np.ndarray) else coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * z + c
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
        """Value at z.  Zero i is applied together with pole i, so on the circle the
        partial products stay near modulus one; unpaired poles divide once at the end."""
        acc = _polyval(self.numerator, z)
        paired = min(len(self.zeros), len(self.poles))
        for a, b in zip(self.zeros, self.poles):
            acc = acc * (z - a) / (1 - b.conjugate() * z)
        for a in self.zeros[paired:]:
            acc = acc * (z - a)
        if len(self.poles) > paired:
            den = 1 + 0j
            for b in self.poles[paired:]:
                den = den * (1 - b.conjugate() * z)
            acc = acc / den
        return acc

    def taylor(self, up_to: int, ring: Callable = complex) -> np.ndarray:
        """Taylor coefficients c_0..c_{up_to}, every product formed in ``ring``.

        The zeros are multiplied into the numerator by convolution (on object
        arrays for an exact ring), and :func:`expand` divides the product by
        one first-order section per pole.
        """
        numerator = [ring(c) for c in self.numerator]
        for a in self.zeros:
            numerator = np.convolve(numerator, [-ring(a), ring(1)])
        return expand(numerator, self.poles, up_to, ring)


@dataclass(frozen=True)
class CircleGrid:
    """Uniform grid of n-th roots of unity with weights 1/n (n a power of two, >= 16)."""

    n: int

    def __post_init__(self):
        if self.n < 16 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"grid size must be a power of two >= 16, got {self.n}")

    @property
    def nodes(self) -> np.ndarray:
        return np.exp(2j * np.pi * np.arange(self.n) / self.n)


def _finite_values(integrand: Callable[[np.ndarray], np.ndarray], nodes: np.ndarray) -> np.ndarray:
    """The integrand on the given circle nodes; a non-finite value raises
    :class:`EvaluationError` naming the first node where any row has one."""
    vals = np.asarray(integrand(nodes))
    bad = ~np.isfinite(vals)
    if bad.any():
        idx = int(np.argmax(bad.reshape(-1, nodes.size).any(axis=0)))
        raise EvaluationError(complex(nodes[idx]), idx)
    return vals


def _trapezoid_means(integrand, start_n: int):
    """(mean, n) on uniform grids of n = start_n, 2 start_n, ... up to QUAD_MAX_N nodes."""
    n = start_n
    while n <= QUAD_MAX_N:
        yield np.real(_finite_values(integrand, CircleGrid(n).nodes)).mean(axis=-1), n
        n *= 2


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
) -> tuple[float | np.ndarray, int]:
    """Circle average of a real-valued integrand, refining the rule until stable.

    Without ``roots`` the rule is the uniform-node average (trapezoid), with
    the grid doubling from ``tol.quad_start_n``.  With ``roots`` (points on
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
        rule = _trapezoid_means(integrand, tol.quad_start_n)
    goal, prev = tol.quad, None
    for cur, n in rule:
        if prev is not None and (np.abs(cur - prev) <= goal * np.maximum(1.0, np.abs(cur))).all():
            return (float(cur) if cur.ndim == 0 else cur), n
        prev = cur
    raise QuadratureConvergenceError(
        f"circle mean did not stabilise to {goal:g} by n = {QUAD_MAX_N}"
    )
