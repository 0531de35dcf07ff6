"""Exact rank backend: Gaussian rationals lifted bit-exactly from the inputs.

Every float is a dyadic rational, so problem data lift exactly to Gaussian
rationals.  The Taylor recurrence (:func:`hardyball.series.expand`, one
first-order section y_k = x_k + conj(b) y_{k-1} per pole) and the criterion
assembly need only ring operations, so run on :class:`Gaussian` scalars they
give the criterion matrix as exact rationals.  Its kernel, and with it the
rank, then comes from exact Gauss-Jordan elimination with no tolerance at all.  Floating point stays the
default backend; this one removes rank ambiguity for borderline inputs.
"""

from __future__ import annotations

from fractions import Fraction

from .model import FactoredFunction, PuncturedSpace


class Gaussian:
    """Exact complex number real + i*imag with Fraction parts.

    A plain slotted class: the recurrence constructs one per ring operation.
    """

    __slots__ = ("real", "imag")

    def __init__(self, real: Fraction, imag: Fraction):
        self.real = real
        self.imag = imag

    def __add__(self, other: "Gaussian") -> "Gaussian":
        return Gaussian(self.real + other.real, self.imag + other.imag)

    def __mul__(self, other: "Gaussian") -> "Gaussian":
        return Gaussian(
            self.real * other.real - self.imag * other.imag,
            self.real * other.imag + self.imag * other.real,
        )

    def __neg__(self) -> "Gaussian":
        return Gaussian(-self.real, -self.imag)

    def conjugate(self) -> "Gaussian":
        return Gaussian(self.real, -self.imag)


def lift(z: complex) -> Gaussian:
    """Exact rational image of a complex float."""
    z = complex(z)
    return Gaussian(Fraction(z.real), Fraction(z.imag))


def fraction_kernel(rows: list[list[Fraction]], n_cols: int) -> list[list[Fraction]]:
    """Exact kernel basis via reduced row echelon form (free-column parametrization).

    The basis has one vector per free column, so the rank is
    ``n_cols - len(basis)``.
    """
    a = [list(row) for row in rows]
    pivots: list[tuple[int, int]] = []  # (row, column)
    row = 0
    for col in range(n_cols):
        pivot_row = next((r for r in range(row, len(a)) if a[r][col] != 0), None)
        if pivot_row is None:
            continue
        a[row], a[pivot_row] = a[pivot_row], a[row]
        inv = a[row][col]
        a[row] = [x / inv for x in a[row]]
        for r in range(len(a)):
            if r != row and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[row])]
        pivots.append((row, col))
        row += 1
    pivot_cols = {c for _, c in pivots}
    basis = []
    for free in range(n_cols):
        if free in pivot_cols:
            continue
        vec = [Fraction(0)] * n_cols
        vec[free] = Fraction(1)
        for r, c in pivots:
            vec[c] = -a[r][free]
        basis.append(vec)
    return basis


def exact_membership_defects(
    f: FactoredFunction, space: PuncturedSpace
) -> list[tuple[int, Fraction]]:
    """Exact |Re| + |Im| of each hole coefficient of the rational lift of f.

    Only the data of the canonical pair are lifted (inner zeros, outer
    numerator and poles); the coefficients are those of f / P_0 = f, every
    product formed exactly (see :meth:`hardyball.model.FactoredFunction.taylor`).
    """
    coeffs = f.taylor(space.k_max, lift)
    return [(k, abs(coeffs[k].real) + abs(coeffs[k].imag)) for k in space.holes]
