import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardyball import (
    BORDERLINE,
    DEFAULT,
    EXTREME,
    NON_EXTREME,
    BlaschkeProduct,
    FactoredFunction,
    NotInSpaceError,
    OuterRational,
    PuncturedSpace,
    Rational,
    SymmetricPolynomial,
    canonical_kernel_vector,
    circle_nodes,
    decide_extreme,
    kernel_alignment,
    single_hole_delta,
)
from hardyball import sample_member
from hardyball.exactrank import exact_membership_defects, fraction_kernel, lift
from hardyball.extremality import _assemble, _delta, _rank_rule
from hardyball.series import expand

from _instances import (criterion_matrix, dense, direct_defects, fraction_lift,
                        hole_constraint_value, random_member, random_zeros, rule_verdict,
                        single_hole_member, taylor, windows_of)


def factored(zeros, numerator, den=()):
    return FactoredFunction(BlaschkeProduct(zeros), OuterRational(numerator, den))


class TestCriterionCoefficients:
    """FactoredFunction.taylor(first=n): the Taylor coefficients of f / P_n."""

    def test_zero_at_origin_is_transparent(self):
        f = factored([0.0], [1.0, 0.0, 0.5])
        assert taylor(f, 2, first=1) == pytest.approx([1, 0, 0.5])

    def test_squared_factor_gives_derivative_weights(self):
        f = factored([0.5], [1.0])
        got = taylor(f, 6, first=1)
        assert got == pytest.approx([(n + 1) * 0.5**n for n in range(7)])

    def test_no_inner_zeros(self):
        f = factored([], [1.0])
        assert taylor(f, 4) == pytest.approx([1, 0, 0, 0, 0])

    def test_order_n_weights_times_canonical_polynomial_give_f(self):
        # taylor(first=n) expands f / P_n, so multiplying back by
        # P_n = prod_{j<=n} (z - a_j)(1 - conj(a_j) z) must reproduce f itself
        rng = np.random.default_rng(5)
        up_to = 20
        for m in range(4):
            zeros = random_zeros(rng, m)
            f = factored(zeros, [1.0, 0.3 - 0.2j, 0.1j], random_zeros(rng, 1, 0.5))
            direct = taylor(f, up_to)
            for n in range(m + 1):
                weights = taylor(f, up_to, first=n)
                canonical = canonical_kernel_vector(zeros[:n]).coefficients()
                back = np.convolve(weights, canonical)[: up_to + 1]
                assert np.abs(back - direct).max() <= 1e-13 * np.abs(direct).max()


class TestBuildMatrix:
    def test_worked_instance(self):
        f = factored([0.0], [1.0, 0.0, 0.5])
        mat = criterion_matrix(f, PuncturedSpace((2,)))
        assert mat == pytest.approx(np.array([[0, 1.5, 0], [0, 0, 0.5]]))
        assert mat.shape == (2, 3)

    def test_worked_instance_rank_deficient(self):
        f = factored([0.0], [1.0, 0.0, 1.0])
        mat = criterion_matrix(f, PuncturedSpace((2,)))
        assert mat == pytest.approx(np.array([[0, 2, 0], [0, 0, 0]]))

    def test_outer_member_gives_zero_matrix(self):
        # m = 0: both blocks collapse to the zero column of hole coefficients
        f = factored([], [1.0, 0.0, 0.0, 0.5])  # holes at 1 and 2 vanish
        mat = criterion_matrix(f, PuncturedSpace((1, 2)))
        assert mat.shape == (4, 1)
        assert np.abs(mat).max() < 1e-15

    def test_empty_hole_set(self):
        f = factored([0.3], [1.0])
        mat = criterion_matrix(f, PuncturedSpace(()))
        assert mat.shape == (0, 3)


class TestNumericRank:
    """The one rank rule: _rank_rule on singular values, _decide_rows on weights."""

    def test_zero_matrix(self):
        # a member's weights start with F(0) != 0, so the scale floor of _decide_rows is never
        # 0; the rule alone reads zero singular values as rank 0, not borderline
        rank, borderline, cutoff = _rank_rule(np.zeros(1), DEFAULT.rank, 0.0)
        assert rank == 0 and not borderline and cutoff == 0

    def test_fixture_full_rank(self):
        # the matrix [[0, 1.5, 0], [0, 0, 0.5]]
        res = rule_verdict(factored([0.0], [1.0, 0.0, 0.5]), PuncturedSpace((2,)))
        assert res.rank == 2
        assert res.kernel_basis.shape == (1, 3)
        assert np.abs(res.kernel_basis[0]) == pytest.approx([1, 0, 0])
        assert res.singular_values == pytest.approx([1.5, 0.5])

    def test_fixture_rank_deficient(self):
        # the matrix [[0, 2, 0], [0, 0, 0]]
        res = rule_verdict(factored([0.0], [1.0, 0.0, 1.0]), PuncturedSpace((2,)))
        assert res.rank == 1
        assert res.kernel_basis.shape == (2, 3)
        span = np.abs(res.kernel_basis.T @ res.kernel_basis)
        expected = np.diag([1.0, 0.0, 1.0])
        assert span == pytest.approx(expected, abs=1e-12)

    def test_borderline_band_flagged(self):
        _, borderline, cutoff = _rank_rule(np.array([1.0, 5e-8]), 1e-8, 0.0)
        assert borderline and cutoff == 1e-8

    def test_clearly_separated_not_borderline(self):
        rank, borderline, cutoff = _rank_rule(np.array([1.0, 1e-3]), 1e-8, 2.0)
        assert not borderline and rank == 2 and cutoff == 2e-8  # the floor above sigma_1


class TestDecideExtreme:
    def test_example_two_extreme(self):
        f = factored([0.0], [1.0, 0.0, 0.5])
        v = decide_extreme(f, PuncturedSpace((2,)))
        assert v.status == EXTREME and v.rank == 2 == v.target_rank

    def test_example_two_non_extreme(self):
        f = factored([0.0], [1.0, 0.0, 1.0])
        v = decide_extreme(f, PuncturedSpace((2,)))
        assert v.status == NON_EXTREME and v.rank == 1
        assert v.kernel_dimension == 2

    def test_outer_always_extreme(self):
        f = factored([], [1.0, 0.0, 0.0, 0.7])
        v = decide_extreme(f, PuncturedSpace((1, 2)))
        assert v.status == EXTREME and v.rank == 0 == v.target_rank

    def test_degree_overflow_fails_condition_a(self):
        member, space = single_hole_member(3)
        f = FactoredFunction(
            BlaschkeProduct(member.inner.zeros + (0.4, -0.3j)), member.outer
        )
        # membership unchanged only if the hole coefficient stays zero; recheck first
        space_big = PuncturedSpace(())
        v = decide_extreme(f, space_big)
        assert not v.condition_a.holds
        assert v.status == NON_EXTREME

    def test_refuses_non_members(self):
        f = factored([0.5], [1.0])
        with pytest.raises(NotInSpaceError):
            decide_extreme(f, PuncturedSpace((3,)))

    def test_scale_invariance(self):
        member, space = single_hole_member(17)
        scaled = FactoredFunction(member.inner, member.outer.scale(3.7))
        a = decide_extreme(member, space)
        b = decide_extreme(scaled, space)
        assert a.status == b.status and a.rank == b.rank

    def test_rotation_invariance(self):
        member, space = single_hole_member(23)
        rotated = FactoredFunction(member.inner, member.outer.scale(np.exp(1.3j)))
        a = decide_extreme(member, space)
        b = decide_extreme(rotated, space)
        assert a.status == b.status and a.rank == b.rank

    def test_near_locus_is_borderline(self):
        # delta = 1 - beta^2 ~ -6e-9 puts the second singular value inside the
        # one-decade band around the rank cutoff
        f = factored([0.0], [1.0, 0.0, 1.0 + 3e-9])
        v = decide_extreme(f, PuncturedSpace((2,)))
        assert v.status == BORDERLINE


class TestSingleHoleDelta:
    def test_extreme_fixture(self):
        res = single_hole_delta(factored([0.0], [1.0, 0.0, 0.5]), 2)
        assert res.delta == pytest.approx(0.75)
        assert res.status == EXTREME

    def test_non_extreme_fixture(self):
        res = single_hole_delta(factored([0.0], [1.0, 0.0, 1.0]), 2)
        assert res.delta == pytest.approx(0.0, abs=1e-15)
        assert res.status == NON_EXTREME

    def test_outer_sentinel(self):
        res = single_hole_delta(factored([], [1.0, 0.0, 1.0]), 2)
        assert res.delta == float("inf")
        assert res.status == EXTREME

    def test_degree_two_rejected(self):
        with pytest.raises(ValueError):
            single_hole_delta(factored([0.1, 0.2], [1.0]), 4)

    def test_fast_path_agrees_with_rank_decision(self):
        for seed in range(25):
            member, space = single_hole_member(seed)
            verdict = decide_extreme(member, space)
            shortcut = single_hole_delta(member, space.holes[0])
            if verdict.status != BORDERLINE:
                assert verdict.status == shortcut.status


    def test_stacked_delta_has_the_bits_of_the_scalar_formula(self):
        # _delta squares each |c| as the scalar abs(c) ** 2 does, libm's hypot then its pow,
        # on windows of every magnitude: zero, subnormal and with squares that overflow
        rng = np.random.default_rng(24)
        size = (2, 20000, 3)
        parts = rng.standard_normal(size) * 10.0 ** rng.integers(-320, 300, size)
        windows = (parts[0] + 1j * parts[1])[:, None, :]
        windows[:100, 0, 0] = 0
        windows[100:200, 0, 2] = 0
        windows[200:300, 0, :] = 0
        windows[300:400, 0, 0] = 5e-324 * (1 + rng.integers(0, 2 ** 20, 100))
        windows[400:500, 0, ::2] = 1e200 * (1 + rng.random((100, 2)))  # both squares overflow
        with np.errstate(all="ignore"):
            stacked = _delta(windows)
            expected = []
            for w in windows:  # the scalar formula, one window at a time
                lo, hi = abs(w[0, 0]) ** 2, abs(w[0, 2]) ** 2
                total = float(lo + hi)
                expected.append((lo - hi, EXTREME if abs(lo - hi) > DEFAULT.delta * (lo + hi)
                                 else NON_EXTREME, float(lo - hi) / total if total else np.nan))
            # the data reach the trap: np.square of the same hypot rounds differently somewhere
            moduli = np.hypot(windows.real, windows.imag)
            assert (np.square(moduli) != np.float_power(moduli, 2.0)).any()
        delta, status, ratio = (np.array(column) for column in zip(*expected))
        assert {"inf", "nan", "0", "subnormal"} <= {
            "inf" if np.isinf(d) else "nan" if np.isnan(d) else "0" if d == 0 else
            "subnormal" if abs(d) < np.finfo(float).tiny else "normal" for d in delta}
        assert stacked.delta.view(np.uint64).tolist() == delta.view(np.uint64).tolist()
        assert stacked.ratio.view(np.uint64).tolist() == ratio.view(np.uint64).tolist()
        assert stacked.status.tolist() == status.tolist()
        assert single_hole_delta(factored([0.0], [1.0, 0.0, 0.5]), 2) == \
            _delta(factored([0.0], [1.0, 0.0, 0.5]).taylor((2,), 2, first=1).windows[None]).row(0)


class TestSymmetricPolynomial:
    def test_centre_vector_gives_z(self):
        p = SymmetricPolynomial(1, (0.5, 0.0, 0.0))
        assert p.coefficients() == pytest.approx([0, 1, 0])

    def test_imaginary_coefficient_layout(self):
        p = SymmetricPolynomial(1, (0.0, 0.0, 1.0))
        assert p.coefficients() == pytest.approx([-1j, 0, 1j])

    def test_order_zero_constant(self):
        p = SymmetricPolynomial(0, (1.0,))
        assert p.coefficients() == pytest.approx([2.0])

    def test_real_on_circle_after_recentring(self):
        rng = np.random.default_rng(3)
        nodes = circle_nodes(256)
        for n in range(4):
            p = SymmetricPolynomial(n, tuple(rng.standard_normal(2 * n + 1)))
            values = Rational(p.coefficients())(nodes) * nodes ** (-n)
            assert np.abs(values.imag).max() < 1e-12


class TestCanonicalVector:
    def test_single_zero_at_origin(self):
        p = canonical_kernel_vector([0.0])
        assert p.vector == pytest.approx((0.5, 0.0, 0.0))

    def test_empty_product(self):
        p = canonical_kernel_vector([])
        assert p.vector == pytest.approx((0.5,))

    def test_zero_at_half(self):
        p = canonical_kernel_vector([0.5])
        assert p.vector == pytest.approx((0.625, -0.5, 0.0))
        assert p.coefficients() == pytest.approx([-0.5, 1.25, -0.5])

    def test_always_in_kernel(self):
        # m >= 1: for m = 0 the matrix itself is numerically zero and the
        # relative bound degenerates (covered by the zero-matrix test above)
        for seed in range(30):
            member, space = random_member(seed, m_range=(1, 4))
            mat = criterion_matrix(member, space)
            vec = np.array(canonical_kernel_vector(member.inner.zeros).vector)
            residual = np.linalg.norm(mat @ vec)
            bound = 1e-9 * np.linalg.norm(mat, 2) * np.linalg.norm(vec)
            assert residual <= bound


class TestConstraintValue:
    def test_canonical_vector_annihilates_member(self):
        p = canonical_kernel_vector([0.0])
        value = hole_constraint_value(p, [1, 0, 0.5], 2)
        assert value == pytest.approx(0.0, abs=1e-15)

    def test_constant_polynomial_picks_out_coefficient(self):
        p = SymmetricPolynomial(0, (1.0,))
        c = [1.0, -2.0j, 0.25]
        for k in range(3):
            assert hole_constraint_value(p, c, k) == pytest.approx(2.0 * c[k])

    def test_imaginary_direction(self):
        p = SymmetricPolynomial(1, (0.0, 0.0, 1.0))
        assert hole_constraint_value(p, [1, 0, 1], 2) == pytest.approx(0.0, abs=1e-15)

    def test_agrees_with_plain_cauchy_product(self):
        # third pipeline: the bilinear form must equal the direct convolution
        # sum_l p_l c_{k-l} of the polynomial coefficients with the series
        rng = np.random.default_rng(19)
        for _ in range(30):
            n = int(rng.integers(0, 4))
            p = SymmetricPolynomial(n, tuple(rng.standard_normal(2 * n + 1)))
            length = int(rng.integers(1, 12))
            c = rng.standard_normal(length) + 1j * rng.standard_normal(length)
            k = int(rng.integers(0, 14))
            direct = sum(
                coeff * c[k - l] for l, coeff in enumerate(p.coefficients())
                if 0 <= k - l < length
            )
            value = hole_constraint_value(p, c, k)
            assert value == pytest.approx(direct, abs=1e-13 * (1 + abs(direct)))

    def test_matrix_columns_match_bilinear_form(self):
        # full element-wise audit of the assembled blocks against the
        # coefficient-space bilinear form, on random data
        rng = np.random.default_rng(7)
        for _ in range(40):
            m = int(rng.integers(0, 4))
            count = int(rng.integers(1, 4))
            holes = tuple(sorted(rng.choice(np.arange(1, 20), count, replace=False)))
            length = holes[-1] + 1
            coeffs = rng.standard_normal(length) + 1j * rng.standard_normal(length)
            mat = _assemble(windows_of(coeffs, holes, 2 * m), m)
            for col in range(2 * m + 1):
                basis = np.zeros(2 * m + 1)
                basis[col] = 1.0
                p = SymmetricPolynomial(m, tuple(basis))
                column = mat[:, col]
                for j, k in enumerate(holes):
                    value = hole_constraint_value(p, coeffs, int(k))
                    assert column[j] == pytest.approx(value.real, abs=1e-12)
                    assert column[len(holes) + j] == pytest.approx(value.imag, abs=1e-12)


class TestKernelAlignment:
    def test_extreme_kernel_is_canonical(self):
        for seed in range(20):
            member, space = random_member(seed, m_range=(0, 3))
            verdict = decide_extreme(member, space)
            if verdict.status == EXTREME:
                assert kernel_alignment(verdict, member.inner.zeros) > 1 - 1e-8


def dyadic_locus_with_offset_zero():
    # a = 1/2; weighted coefficients built so the hole vanishes exactly in
    # rational arithmetic and |c_lo| = |c_hi| exactly (3-4-5 scaling)
    a = 0.5
    s = 1 + a * a  # 1.25, dyadic
    k = 4
    c_lo = 5 * s / 128
    c_hi = (3 + 4j) * s / 128
    c_mid = (a * c_hi + a * c_lo) / s  # conj(a) = a here; quotient is dyadic
    profile = np.zeros(k + 1, dtype=complex)
    profile[0] = 1.0
    profile[k - 2] = c_lo
    profile[k - 1] = c_mid
    profile[k] = c_hi
    square = np.convolve([1.0, -a], [1.0, -a])
    return factored([a], tuple(np.convolve(profile, square))), PuncturedSpace((k,))


# the exact members the tests decide with backend="exact", as (f, space) builders
EXACT_FIXTURES = {
    "readme_member": lambda: (factored([0.0], [1.0, 0.0, 0.5]), PuncturedSpace((2,))),
    "readme_locus": lambda: (factored([0.0], [1.0, 0.0, 1.0]), PuncturedSpace((2,))),
    "offset_zero_locus": dyadic_locus_with_offset_zero,
    # f = (z - a)(1 + g z) and (z - a1)(z - a2)(1 + g z), as in the benchmark
    "polynomial_two_holes": lambda: (
        factored([0.25], np.convolve([1, -0.25], [1, 0.125 + 0.25j])), PuncturedSpace((3, 40))),
    "overflow": lambda: (
        factored([0.5, -0.25], np.convolve(np.convolve([1, -0.5], [1, 0.25]), [1, 0.375j])),
        PuncturedSpace((30,))),
}
# functions whose hole coefficients do not all vanish
NON_MEMBERS = {
    # a^3 for a = 1/2 + 2^-20 has more bits than a double holds
    "triple_zero": lambda: (factored([0.5 + 2.0**-20] * 3, [1.0, 0.25]), PuncturedSpace((2, 5))),
    "generated_float_member": lambda: random_member(3, m_range=(1, 3), k_max=40),
}


class TestExactBackend:
    def test_fraction_rank_small_cases(self):
        from fractions import Fraction as F

        def rank(rows, n_cols):
            return n_cols - len(fraction_kernel(rows, n_cols))

        assert rank([], 2) == 0
        assert rank([[F(0), F(0)]], 2) == 0
        assert rank([[F(1), F(2)], [F(2), F(4)]], 2) == 1
        assert rank([[F(1), F(2)], [F(2), F(5)]], 2) == 2

    def test_fraction_kernel_matches(self):
        from fractions import Fraction as F

        basis = fraction_kernel([[F(1), F(2), F(0)]], 3)
        for vec in basis:
            assert vec[0] + 2 * vec[1] == 0

    def test_fixture_ranks(self):
        f = factored([0.0], [1.0, 0.0, 0.5])
        v = decide_extreme(f, PuncturedSpace((2,)), backend="exact")
        assert v.rank == 2 and v.kernel_basis.shape == (1, 3)
        f2 = factored([0.0], [1.0, 0.0, 1.0])
        v2 = decide_extreme(f2, PuncturedSpace((2,)), backend="exact")
        assert v2.rank == 1 and v2.kernel_basis.shape == (2, 3)
        # the exact kernel is orthonormal and annihilated by the float matrix
        kernel = v2.kernel_basis
        assert kernel @ kernel.T == pytest.approx(np.eye(2), abs=1e-15)
        matrix = criterion_matrix(f2, PuncturedSpace((2,)))
        assert np.abs(matrix @ kernel.T).max() == 0.0

    def test_exact_assembly_is_the_float_assembly_over_fractions(self):
        # dyadic coefficients: every float entry is exact, so both rings must agree
        from fractions import Fraction

        rng = np.random.default_rng(41)
        for _ in range(10):
            m = int(rng.integers(0, 4))
            holes = tuple(sorted(int(k) for k in rng.choice(np.arange(1, 12), 2, replace=False)))
            values = (rng.integers(-64, 64, holes[-1] + 1)
                      + 1j * rng.integers(-64, 64, holes[-1] + 1)) / 32
            floats = _assemble(windows_of(values, holes, 2 * m), m)
            exact = _assemble(windows_of([lift(v) for v in values], holes, 2 * m, lift(0)), m)
            assert exact.dtype == object
            assert floats.dtype == np.float64
            assert all(isinstance(x, (Fraction, int)) for x in exact.flat)
            assert exact.tolist() == floats.tolist()

    def test_exact_assembly_reads_only_the_hole_windows(self):
        class Unread:
            @property
            def real(self):
                raise AssertionError("a coefficient outside the hole windows was read")

            imag = real

        rng = np.random.default_rng(43)
        values = (rng.integers(-64, 64, 41) + 1j * rng.integers(-64, 64, 41)) / 32
        for holes, m in [((1, 6, 40), 2), ((3, 17), 1), ((9,), 0), ((2, 30), 3)]:
            windows = {k - j for k in holes for j in range(2 * m + 1)}
            for ring in (complex, lift):
                full = np.array([ring(v) for v in values], dtype=object)
                guarded = full.copy()
                guarded[[i for i in range(values.size) if i not in windows]] = Unread()
                got = _assemble(windows_of(guarded, holes, 2 * m, ring(0)), m)
                want = _assemble(windows_of(full, holes, 2 * m, ring(0)), m)
                assert got.tolist() == want.tolist()
            # the exact producer hands over those windows of its full expansion
            numerator = [lift(v) for v in values[:3]]
            got = expand(numerator, (0.5, -0.25j), holes, 2 * m, lift).windows
            want = windows_of(dense(numerator, (0.5, -0.25j), holes[-1], lift), holes, 2 * m,
                              lift(0))
            assert [(c.real, c.imag) for c in got.flat] == [(c.real, c.imag) for c in want.flat]

    @pytest.mark.parametrize("data", ["dyadic", "float", "special"])
    def test_dyadic_ring_matches_the_fraction_ring(self, data):
        # special: negative zeros, a subnormal part and a part >= 2^60
        f = {
            "dyadic": lambda: factored([0.5 + 0.25j, -0.125j], [1.0, -0.5 + 0.25j, 0.0625],
                                       (0.25,)),
            "float": lambda: random_member(7, k_max=60)[0],
            "special": lambda: factored([complex(-0.0, 0.3), complex(5e-324, -0.2)],
                                        [2.0 ** 61, complex(-0.0, 1.0)], (complex(0.1, -0.0),)),
        }[data]()
        m = f.inner.degree
        assert m > 0
        # the subnormal zero adds 1074 bits per term, which the oracle's gcds make slow
        for up_to in (0, 1, 17, 24 if data == "special" else 60):
            for first in (0, m):
                got = taylor(f, up_to, lift, first)
                want = taylor(f, up_to, fraction_lift, first)
                assert [(c.real, c.imag) for c in got] == [(c.real, c.imag) for c in want]

    def test_exact_membership_checks_the_input_itself(self):
        # f = ((z - a) / (1 - a z))^3 (1 + z/4) with a = 1/2 + 2^-20: a^3 has more
        # bits than a double holds, so expanding the inner numerator in floats
        # would report the defects of a rounded function
        from fractions import Fraction
        from math import comb

        a = Fraction(1, 2) + Fraction(1, 2**20)
        space = PuncturedSpace((2, 5))
        f = factored([float(a)] * 3, [1.0, 0.25])
        numerator = [Fraction(1)]
        for factor in ([-a, 1], [-a, 1], [-a, 1], [1, Fraction(1, 4)]):
            numerator = [
                sum(numerator[i] * factor[n - i] for i in range(len(numerator))
                    if 0 <= n - i < len(factor))
                for n in range(len(numerator) + len(factor) - 1)
            ]
        # 1 / (1 - a z)^3 = sum_n C(n + 2, 2) a^n z^n
        weights = [comb(n + 2, 2) * a**n for n in range(space.k_max + 1)]
        expected = [
            (k, abs(sum(numerator[t] * weights[k - t] for t in range(min(k, 4) + 1))))
            for k in space.holes
        ]
        assert direct_defects(f, space) == expected
        assert exact_membership_defects(f, space, f.taylor(space.holes, 6, lift, 3).windows) == expected

    def test_agrees_with_svd_on_exact_members(self):
        # numerator support {0, k-2, k} with the inner zero at the origin keeps
        # the hole coefficient identically zero, so any float data is an exact
        # rational member
        rng = np.random.default_rng(31)
        for k in range(3, 10):
            coeffs = np.zeros(k + 1, dtype=complex)
            coeffs[0] = 1.0
            # keep |c| small so the numerator cannot vanish on the closed disk
            coeffs[k - 2] = 0.4 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
            coeffs[k] = 0.4 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
            f = factored([0.0], tuple(coeffs))
            space = PuncturedSpace((k,))
            svd_verdict = decide_extreme(f, space)
            exact_verdict = decide_extreme(f, space, backend="exact")
            assert exact_verdict.rank == svd_verdict.rank
            assert exact_verdict.status == svd_verdict.status
            assert exact_verdict.backend == "exact"

    def test_rejects_inexact_members(self):
        member, space = random_member(1, m_range=(1, 2))
        with pytest.raises(NotInSpaceError):
            decide_extreme(member, space, backend="exact")

    def test_rejection_reports_the_exact_defect(self):
        f, space = NON_MEMBERS["triple_zero"]()
        defects = dict(direct_defects(f, space))
        with pytest.raises(NotInSpaceError) as error:
            decide_extreme(f, space, backend="exact")
        # the absolute |Re| + |Im| of the exact coefficient, not scaled by any other
        assert error.value.residual == float(defects[error.value.hole]) > 0
        assert "exact defect |Re| + |Im|" in str(error.value)
        assert "relative" not in str(error.value)

    def test_exact_decides_borderline_locus(self):
        # a float-exact rank-deficient instance: delta = 0 exactly
        f = factored([0.0], [1.0, 0.0, 1.0])
        v = decide_extreme(f, PuncturedSpace((2,)), backend="exact")
        assert v.status == NON_EXTREME and v.rank == 1

    def test_exact_dyadic_locus_with_offset_zero(self):
        f, space = dyadic_locus_with_offset_zero()
        v = decide_extreme(f, space, backend="exact")
        assert v.status == NON_EXTREME and v.rank == 1
        # the same data under SVD agrees (sigma_2 is at rounding level)
        assert decide_extreme(f, space).status == NON_EXTREME

    def test_rejection_expands_only_to_the_first_failing_hole(self, lift_expansions):
        f = sample_member(PuncturedSpace((3, 400)), (0.5 + 0.2j, -0.3 + 0.4j), (0.3,), 4, 7)
        with pytest.raises(NotInSpaceError) as error:
            decide_extreme(f, PuncturedSpace((3, 400)), backend="exact")
        assert error.value.hole == 3
        assert lift_expansions == [3]

    @pytest.mark.parametrize("name, expansions", [
        ("polynomial_two_holes", [3, 40]), ("overflow", [30])])
    def test_exact_member_expands_to_the_first_hole_then_to_the_last(self, name, expansions,
                                                                     lift_expansions):
        f, space = EXACT_FIXTURES[name]()
        decide_extreme(f, space, backend="exact")
        assert lift_expansions == expansions

    def test_non_member_zero_at_the_first_hole_expands_to_the_last(self, lift_expansions):
        # f = 1 + z^3 / 8: the coefficient at hole 2 is exactly zero, the one at 3 is not
        with pytest.raises(NotInSpaceError) as error:
            decide_extreme(factored([], [1.0, 0.0, 0.0, 0.125]), PuncturedSpace((2, 3, 40)),
                           backend="exact")
        assert (error.value.hole, error.value.residual) == (3, 0.125)
        assert lift_expansions == [2, 40]

    @pytest.mark.parametrize("name", sorted(EXACT_FIXTURES) + sorted(NON_MEMBERS))
    def test_defects_from_weights_equal_the_direct_defects(self, name):
        f, space = {**EXACT_FIXTURES, **NON_MEMBERS}[name]()
        weights = f.taylor(space.holes, 2 * f.inner.degree, lift, f.inner.degree).windows
        defects = direct_defects(f, space)
        assert exact_membership_defects(f, space, weights) == defects
        assert any(d != 0 for _, d in defects) == (name in NON_MEMBERS)

    @pytest.mark.parametrize("name", sorted(EXACT_FIXTURES))
    def test_exact_fixtures_pass_the_modular_filter(self, name):
        # every exact fixture is a member the exact backend decides, with no tolerance
        f, space = EXACT_FIXTURES[name]()
        verdict = decide_extreme(f, space, backend="exact")
        assert verdict.backend == "exact" and verdict.status in (EXTREME, NON_EXTREME)
        assert verdict.rank + verdict.kernel_dimension == 2 * f.inner.degree + 1


# dyadic parts in [-1/2, 1/2]: zeros, poles and the roots -1/g of 1 + g z all
# stay clear of the circle
DYADIC = st.builds(complex, st.integers(-8, 8), st.integers(-8, 8)).map(lambda z: z / 16)


@st.composite
def dyadic_members(draw):
    """f = I * G * prod_{cancelled a} (1 - conj(a) z) / prod (1 - conj(b) z) on dyadic data.

    Cancelling every zero with no pole left makes f a polynomial, so holes
    beyond its degree vanish exactly; other draws leave them nonzero.
    """
    zeros = draw(st.lists(DYADIC, max_size=2))
    numerator = np.array([1.0 + 0j])
    for a in zeros:
        if draw(st.booleans()):
            numerator = np.convolve(numerator, [1.0, -a.conjugate()])
    for g in draw(st.lists(DYADIC, max_size=3)):
        numerator = np.convolve(numerator, [1.0, g])
    poles = draw(st.lists(DYADIC.filter(bool), max_size=1))
    holes = draw(st.lists(st.integers(1, 40), min_size=1, max_size=3, unique=True))
    return factored(zeros, tuple(numerator), tuple(poles)), PuncturedSpace(tuple(sorted(holes)))


@settings(max_examples=60, deadline=None)
@given(st.one_of(dyadic_members(),
                 st.integers(0, 10**6).map(lambda seed: random_member(seed, k_max=40))))
def test_modular_filter_flags_exactly_the_nonzero_holes(instance):
    # the exact backend raises exactly when a hole coefficient is nonzero, at the first such hole
    f, space = instance
    nonzero = [(k, float(defect)) for k, defect in direct_defects(f, space) if defect != 0]
    if nonzero:
        with pytest.raises(NotInSpaceError) as error:
            decide_extreme(f, space, backend="exact")
        assert (error.value.hole, error.value.residual) == nonzero[0]
    else:
        assert decide_extreme(f, space, backend="exact").backend == "exact"
