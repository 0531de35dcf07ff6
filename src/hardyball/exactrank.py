"""Exact rank backend: Gaussian dyadic rationals lifted bit-exactly from the inputs.

Every float is dyadic, so problem data lift exactly to :class:`Gaussian`
scalars (re + i im) / 2^e with int parts.  The Taylor recurrence
(:func:`hardyball.series.expand`, one first-order section
y_k = x_k + conj(b) y_{k-1} per pole) needs only ring operations, and on these
scalars a sum is an int shift and add and a product an int multiply, with no
gcd.  Fractions appear only where parts are read: the criterion entries in the
hole windows, the membership defects and the Gauss-Jordan elimination that
gives the kernel, and with it the rank, with no tolerance at all.  Floating
point stays the default backend; this one removes rank ambiguity for
borderline inputs.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .model import FactoredFunction, PuncturedSpace, canonical_product


class Gaussian:
    """Exact complex number (re + i*im) / 2^e with int re, im and e >= 0.

    A plain slotted class: the recurrence constructs one per ring operation.
    A sum shifts the operand with the smaller exponent, a product adds the
    exponents, and nothing is reduced.  ``real`` and ``imag`` are Fractions.
    """

    __slots__ = ("re", "im", "e")

    def __init__(self, re: int, im: int, e: int):
        self.re = re
        self.im = im
        self.e = e

    def __add__(self, other: "Gaussian") -> "Gaussian":
        shift = self.e - other.e
        if shift >= 0:
            return Gaussian(self.re + (other.re << shift), self.im + (other.im << shift), self.e)
        return Gaussian((self.re << -shift) + other.re, (self.im << -shift) + other.im, other.e)

    def __mul__(self, other: "Gaussian") -> "Gaussian":
        return Gaussian(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
            self.e + other.e,
        )

    def __neg__(self) -> "Gaussian":
        return Gaussian(-self.re, -self.im, self.e)

    def conjugate(self) -> "Gaussian":
        return Gaussian(self.re, -self.im, self.e)

    @property
    def real(self) -> Fraction:
        return Fraction(self.re, 1 << self.e)

    @property
    def imag(self) -> Fraction:
        return Fraction(self.im, 1 << self.e)


def lift(z: complex) -> Gaussian:
    """Exact dyadic image of a complex float."""
    z = complex(z)
    (re, p), (im, q) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    e = max(p, q).bit_length() - 1  # p and q are powers of two
    return Gaussian(re * (2**e // p), im * (2**e // q), e)


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
    f: FactoredFunction, space: PuncturedSpace, weights
) -> list[tuple[int, Fraction]]:
    """Exact |Re| + |Im| of each hole coefficient of f, read from the criterion weights.

    ``weights`` are the exact windows c_{k-2m..k} of f / P_m at the holes
    (``f.taylor(space.holes, 2 * m, lift, m).windows``, m the inner degree), so
    f = P_m * c gives each hole coefficient f_k = sum_{j <= 2m} P_m[j] c_{k-j}
    with no second expansion of f.  Only the data of the canonical pair are
    lifted, so the defects are those of the input itself.
    """
    product = canonical_product(f.inner.zeros, lift)
    defects = []
    for k, window in zip(space.holes, weights):
        c = np.dot(product, window[::-1])
        defects.append((k, abs(c.real) + abs(c.imag)))
    return defects
