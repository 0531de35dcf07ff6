"""Deterministic random-instance builders shared across test modules.

Builders take explicit seeds and redraw infeasible configurations (hole sets
that no outer numerator can satisfy exist; the generator reports them), so
every test run sees the same instances.  :func:`dense` and :func:`taylor` read
every coefficient c_0..c_K of an expansion (its window of width K at the hole
K), :func:`windows_of` cuts such a list into hole windows and
:func:`expansion_of` makes it an expansion;
:func:`criterion_matrix` and
:func:`rule_verdict` give a function's criterion matrix and the rank rule's
verdict on it, :func:`hole_constraint_value` is the
independent audit oracle of its entries,
:class:`FractionGaussian` the reference exact ring and :func:`direct_defects`
the oracle of the exact membership defects, and :func:`endpoint_norms` the
oracle of the midpoint identity behind a witness.  :data:`EVERY_BRANCH_TEMPLATE` is
a sweep template whose rows take every branch of the sweep.
"""

from __future__ import annotations

from fractions import Fraction
from unittest import mock

import numpy as np

from hardyball import (
    DEFAULT,
    BlaschkeProduct,
    FactoredFunction,
    MaxRetriesExceededError,
    OuterRational,
    PuncturedSpace,
    SymmetricPolynomial,
    converged_circle_mean,
    model,
    normalize,
    sample_member,
    witness_h_values,
)
from hardyball.exactrank import lift
from hardyball.extremality import _assemble, _decide_rows
from hardyball.series import Expansion, expand


def dense(numerator, parameters, up_to: int, ring=complex) -> np.ndarray:
    """c_0..c_{up_to} of :func:`hardyball.series.expand` (rows: one per numerator row), its
    window of width up_to at the hole up_to, which the full scan gives."""
    return expand(numerator, parameters, (up_to,), up_to, ring).windows[..., 0, :]


def windows_of(coeffs, holes, width: int, zero=0j) -> np.ndarray:
    """The windows c_{k-width..k} at the holes of a full coefficient list, ``zero`` below
    index 0, as :class:`hardyball.series.Expansion` holds them."""
    return np.array([[coeffs[i] if i >= 0 else zero for i in range(k - width, k + 1)]
                     for k in holes], dtype=np.asarray(coeffs).dtype).reshape(-1, width + 1)


def expansion_of(coeffs, holes) -> Expansion:
    """The width-0 :class:`hardyball.series.Expansion` of a full coefficient list."""
    return Expansion(windows_of(coeffs, holes, 0), np.abs(coeffs).max())


def taylor(f, up_to: int, ring=complex, first: int = 0) -> np.ndarray:
    """c_0..c_{up_to} of ``f.taylor`` for a Rational, or of f / P_first for a FactoredFunction."""
    extra = (first,) if isinstance(f, FactoredFunction) else ()
    return f.taylor((up_to,), up_to, ring, *extra).windows[0]

# hole {3}, inner zero 1/2, a pole at 2 and a non-unit inner constant; the outer numerator
# 1.25 - z + t z^2 + t z^3 keeps f_3 = 0 for every t (the weights w_0 + w_1 of z^2 and z^3
# cancel), has the circle root 1 at t = -1/8, drops to degree 1 at t = 0 and meets the
# locus |c_1| = |c_3| near t = 0.325; rows below -1/8 are not outer
EVERY_BRANCH_TEMPLATE = {
    "format_version": 1, "type": "problem", "holes": [3], "inner_zeros": [[0.5, 0.0]],
    "inner_constant": [0.6, -0.8], "outer_denominator": [[0.5, 0.0]],
    "outer_numerator": [[1.25, 0.0], [-1.0, 0.0], ["t", 0.0], ["t", 0.0]],
}


def quick_sample_member(*args):
    """``sample_member`` giving up after 120 draws: the builders redraw the configuration."""
    with mock.patch.object(model, "SAMPLE_RETRIES", 120):
        return sample_member(*args)


def _seed_tuple(seed) -> tuple[int, ...]:
    return tuple(seed) if isinstance(seed, tuple) else (int(seed),)


def random_outer(rng: np.random.Generator, max_degree: int = 6,
                 allow_denominator: bool = True) -> OuterRational:
    """Random rational outer factor, built from roots strictly outside the disk."""
    degree = int(rng.integers(0, max_degree + 1))
    moduli = 1.15 + 1.8 * rng.random(degree)
    angles = 2 * np.pi * rng.random(degree)
    coeffs = np.array([1.0 + 0j])
    for r in moduli * np.exp(1j * angles):
        coeffs = np.convolve(coeffs, np.array([1.0, -1.0 / r]))
    lead = (rng.standard_normal() + 1j * rng.standard_normal()) or 1.0
    coeffs = coeffs * lead
    den = ()
    if allow_denominator and rng.random() < 0.4:
        n_poles = int(rng.integers(1, 3))
        den = tuple(
            0.6 * rng.random(n_poles) * np.exp(2j * np.pi * rng.random(n_poles))
        )
    return OuterRational(tuple(coeffs), den)


def random_zeros(rng: np.random.Generator, m: int, max_modulus: float = 0.8):
    return tuple(
        max_modulus * np.sqrt(rng.random(m)) * np.exp(2j * np.pi * rng.random(m))
    )


def random_space(rng: np.random.Generator, max_holes: int = 4, k_max: int = 30,
                 min_hole: int = 1) -> PuncturedSpace:
    count = int(rng.integers(1, max_holes + 1))
    lo = min(min_hole, k_max)
    holes = sorted(rng.choice(np.arange(lo, k_max + 1), size=count, replace=False))
    return PuncturedSpace(tuple(int(k) for k in holes))


def random_member(seed: int, m_range=(0, 4), max_holes: int = 4, k_max: int = 30):
    """(member, space) with inner degree m <= number of holes; redraws infeasible configs."""
    for attempt in range(40):
        rng = np.random.default_rng((*_seed_tuple(seed), attempt))
        m = int(rng.integers(m_range[0], m_range[1] + 1))
        space = random_space(rng, max_holes=max_holes, k_max=k_max,
                             min_hole=max(1, m + 1))
        if space.size < m:
            continue
        zeros = random_zeros(rng, m)
        den = random_zeros(rng, int(rng.integers(0, 2)), max_modulus=0.5)
        degree = int(rng.integers(space.size + 1, space.size + 5))
        try:
            member = quick_sample_member(space, zeros, den, degree, int(rng.integers(2**31)))
        except MaxRetriesExceededError:
            continue
        return member, space
    raise RuntimeError(f"no feasible configuration found for seed {seed}")


def overflow_member(seed: int, max_holes: int = 3, excess: int = 1):
    """(member, space) with inner degree exactly ``excess`` more than the hole count."""
    for attempt in range(40):
        rng = np.random.default_rng((*_seed_tuple(seed), attempt, 77))
        M = int(rng.integers(0, max_holes + 1))
        m = M + excess
        zeros = random_zeros(rng, m)
        if M == 0:
            member, _ = normalize(
                FactoredFunction(BlaschkeProduct(zeros), random_outer(rng, 4))
            )
            return member, PuncturedSpace(())
        holes = sorted(rng.choice(np.arange(m + 1, 21), size=M, replace=False))
        space = PuncturedSpace(tuple(int(k) for k in holes))
        degree = int(rng.integers(space.size + 2, space.size + 6))
        try:
            member = quick_sample_member(space, zeros, (), degree, int(rng.integers(2**31)))
        except MaxRetriesExceededError:
            continue
        return member, space
    raise RuntimeError(f"no feasible overflow configuration for seed {seed}")


def single_hole_member(seed: int, k_max: int = 20):
    """(member, space) with one hole and inner degree 1 (generic position).

    Instances whose weighted coefficients around the hole sit at the absolute
    rounding floor (holes far beyond the numerator support with a tiny inner
    zero) are redrawn: there the determinant test compares pure noise.
    """
    for attempt in range(60):
        rng = np.random.default_rng((*_seed_tuple(seed), attempt, 11))
        a = complex(0.8 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random()))
        k = int(rng.integers(2, k_max + 1))
        space = PuncturedSpace((k,))
        degree = int(rng.integers(2, 7))
        den = random_zeros(rng, int(rng.integers(0, 2)), max_modulus=0.5)
        try:
            member = quick_sample_member(space, (a,), den, degree, int(rng.integers(2**31)))
        except MaxRetriesExceededError:
            continue
        coeffs = taylor(member, k, first=1)
        if max(abs(coeffs[k - 2]), abs(coeffs[k])) < 1e-6 * np.abs(coeffs).max():
            continue
        return member, space
    raise RuntimeError(f"no feasible single-hole configuration for seed {seed}")


def single_hole_locus_member(seed: int, k_max: int = 12):
    """Single-hole member sitting exactly on the non-extreme locus |c_{k-2}| = |c_k|.

    The weighted outer coefficients are prescribed directly: F is the
    polynomial (1 + t z^{k-2} + s z^{k-1} + t e^{i phi} z^k) (1 - conj(a) z)^2
    with s chosen so the hole coefficient vanishes identically, and t small
    enough that the first factor cannot vanish on the closed disk.
    """
    rng = np.random.default_rng((*_seed_tuple(seed), 13))
    a = complex(0.75 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random()))
    k = int(rng.integers(3, k_max + 1))
    t = 0.08
    phi = 2 * np.pi * rng.random()
    c_lo = t + 0j
    c_hi = t * np.exp(1j * phi)
    c_mid = (a * c_hi + a.conjugate() * c_lo) / (1 + abs(a) ** 2)
    profile = np.zeros(k + 1, dtype=complex)
    profile[0] = 1.0
    profile[k - 2] += c_lo
    profile[k - 1] += c_mid
    profile[k] += c_hi
    square = np.convolve(
        np.array([1.0, -a.conjugate()]), np.array([1.0, -a.conjugate()])
    )
    numerator = np.convolve(profile, square)
    f = FactoredFunction(BlaschkeProduct((a,)), OuterRational(tuple(numerator)))
    member, _ = normalize(f)
    return member, PuncturedSpace((k,))


def criterion_matrix(f: FactoredFunction, space: PuncturedSpace, first: int | None = None):
    """The float hole-constraint matrix of order n = ``first`` (default: the inner degree), as
    the rank rule assembles it from f's weights f / P_n."""
    n = f.inner.degree if first is None else first
    return _assemble(f.taylor(space.holes, 2 * n, first=n).windows, n)


def rule_verdict(f: FactoredFunction, space: PuncturedSpace, first: int | None = None):
    """The rank rule's verdict on f's weights of order ``first`` (default: the inner degree)."""
    n = f.inner.degree if first is None else first
    return _decide_rows(f.taylor(space.holes, 2 * n, first=n), space, n).first()


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


class FractionGaussian:
    """Exact complex number with Fraction parts: the reference for the exact ring.

    Every operation reduces its parts to lowest terms, which the dyadic ring of
    :mod:`hardyball.exactrank` never does; both must give the same values.
    """

    __slots__ = ("real", "imag")

    def __init__(self, real: Fraction, imag: Fraction):
        self.real = real
        self.imag = imag

    def __add__(self, other):
        return FractionGaussian(self.real + other.real, self.imag + other.imag)

    def __mul__(self, other):
        return FractionGaussian(self.real * other.real - self.imag * other.imag,
                                self.real * other.imag + self.imag * other.real)

    def __neg__(self):
        return FractionGaussian(-self.real, -self.imag)

    def conjugate(self):
        return FractionGaussian(self.real, -self.imag)


def fraction_lift(z: complex) -> FractionGaussian:
    z = complex(z)
    return FractionGaussian(Fraction(z.real), Fraction(z.imag))


def direct_defects(f: FactoredFunction, space: PuncturedSpace) -> list[tuple[int, Fraction]]:
    """Exact |Re| + |Im| of each hole coefficient of f, from f itself expanded to k_max.

    :func:`hardyball.exactrank.exact_membership_defects` reads the same values
    back from the criterion weights f / P_m.
    """
    coeffs = taylor(f, space.k_max, lift)
    return [(k, abs(coeffs[k].real) + abs(coeffs[k].imag)) for k in space.holes]


def endpoint_norms(f: FactoredFunction, witness, tol=DEFAULT) -> tuple[float, float, float]:
    """(||f||, ||g+||, ||g-||) for the endpoints g+- = f (1 +- epsilon (h - c)) of a witness,
    by circle quadrature split at F's circle roots: the oracle of the midpoint identity
    ||g+|| + ||g-|| = 2 ||f||, which a certificate proves without computing a norm."""
    def modulus(sign):
        def integrand(z):
            shift = witness.epsilon * (witness_h_values(f, witness, z).real - witness.recenter)
            return np.abs(f(z)) * np.abs(1 + sign * shift)
        return integrand

    return tuple(converged_circle_mean(modulus(sign), tol, roots=f.outer.circle_roots)[0]
                 for sign in (0, 1, -1))
