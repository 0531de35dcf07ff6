from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardyball import (
    DEFAULT,
    BlaschkeProduct,
    FactoredFunction,
    OuterRational,
    PoleMarginError,
    Rational,
    circle_nodes,
    converged_circle_mean,
    l1_norm,
)
from hardyball import series
from hardyball.certificates import WITNESS_SAMPLE_NODES, WITNESS_SUP_NODES
from hardyball.exactrank import lift
from hardyball.series import (
    QUAD_MAX_N,
    EvaluationError,
    QuadratureConvergenceError,
    _finite_values,
    _row_means,
    _taylor_rows,
    _trapezoid_means,
    expand,
)

from _instances import random_zeros


class TestExpandRational:
    def test_geometric_series(self):
        f = Rational((1.0,), (0.5,))
        assert f.taylor(3) == pytest.approx([1, 0.5, 0.25, 0.125])

    def test_double_pole_matches_derivative_series(self):
        # 1/(1 - a z)^2 = sum (n+1) a^n z^n
        f = Rational((1.0,), (0.5, 0.5))
        got = f.taylor(6)
        expected = [(n + 1) * 0.5**n for n in range(7)]
        assert got == pytest.approx(expected, abs=1e-15)

    def test_polynomial_passthrough(self):
        f = Rational((1.0, 0.0, 1.0))
        assert f.taylor(4) == pytest.approx([1, 0, 1, 0, 0])

    def test_pole_margin_rejected(self):
        with pytest.raises(PoleMarginError):
            Rational((1.0,), (1.0,))
        with pytest.raises(PoleMarginError):
            Rational((1.0,), (1.0 - 1e-12,))

    def test_complex_parameter_uses_conjugate(self):
        b = 0.3 + 0.4j
        f = Rational((1.0,), (b,))
        got = f.taylor(5)
        expected = [b.conjugate() ** n for n in range(6)]
        assert got == pytest.approx(expected)

    def test_agrees_with_pointwise_evaluation(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            num = tuple(rng.standard_normal(3) + 1j * rng.standard_normal(3))
            den = tuple(0.6 * rng.random(2) * np.exp(2j * np.pi * rng.random(2)))
            # 0..3 zeros: paired with poles, and unpaired on either side
            k = int(rng.integers(0, 4))
            zeros = tuple(0.9 * rng.random(k) * np.exp(2j * np.pi * rng.random(k)))
            f = Rational(num, den, zeros)
            up_to = 60
            coeffs = f.taylor(up_to)
            z = 0.5 * np.exp(2j * np.pi * rng.random())
            partial = sum(c * z**k for k, c in enumerate(coeffs))
            # tail of the dominating geometric series at |z| = 1/2
            bound = np.abs(coeffs).max() * abs(z) ** (up_to + 1) / (1 - abs(z))
            assert abs(partial - f(z)) <= bound + 1e-12


class TestConvolve:
    """Products of expansions against np.convolve, the independent reference."""

    def test_square_of_one_plus_z(self):
        # (1 + z)^2 / (1 + z) = 1 + z
        square = np.convolve([1.0, 1.0], [1.0, 1.0])
        assert expand(square.tolist(), (-1.0,), 3) == pytest.approx([1, 1, 0, 0])

    def test_identity_element(self):
        # multiplying by (1 - z/2) and expanding over it gives the sequence back
        s = [2.0, -1.0, 3.5]
        product = np.convolve(s, [1.0, -0.5]).tolist()
        assert expand(product, (0.5,), 4) == pytest.approx([2, -1, 3.5, 0, 0])

    def test_matches_expand_of_squared_factor(self):
        geom = Rational((1.0,), (0.5,)).taylor(8)
        squared = Rational((1.0,), (0.5, 0.5)).taylor(8)
        product = np.convolve(geom, geom)[:9]
        assert product == pytest.approx(squared, rel=1e-14)

    def test_product_pipeline_equivalence(self):
        # expand(f*g) == expand(f) * expand(g) for random rational f, g
        rng = np.random.default_rng(11)
        for _ in range(20):
            fs = []
            for _f in range(2):
                num = tuple(rng.standard_normal(3) + 1j * rng.standard_normal(3))
                den = tuple(0.7 * rng.random(2) * np.exp(2j * np.pi * rng.random(2)))
                fs.append(Rational(num, den))
            numerator = np.convolve(fs[0].numerator, fs[1].numerator).tolist()
            parameters = fs[0].poles + fs[1].poles
            direct = expand(numerator, parameters, 12)
            convolved = np.convolve(fs[0].taylor(12), fs[1].taylor(12))[:13]
            scale = np.abs(direct).max()
            assert np.abs(direct - convolved).max() <= 1e-12 * scale


class TestCoefficientSequence:
    """expand returns the plain coefficient array c_0..c_up_to."""

    def test_reads_outside_window_are_zero(self):
        # coefficients past the numerator's support are exact zeros
        coeffs = expand([1.0 + 0j, 2.0 + 0j], (), 4)
        assert coeffs.dtype == complex and coeffs.shape == (5,)
        assert coeffs.tolist() == [1, 2, 0, 0, 0]

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=6))
    def test_convolving_with_one_is_identity(self, values):
        values = [complex(v) for v in values]
        out = expand(values, (), len(values) - 1)
        assert out.tolist() == values == np.convolve(values, [1.0]).tolist()

    def test_up_to_zero_is_the_constant_term(self):
        assert expand([3 + 1j, 2.0], (0.5, 0.25j), 0).tolist() == [3 + 1j]
        exact = expand([lift(3 + 1j), lift(2.0)], (0.5, 0.25j), 0, lift)
        assert exact.shape == (1,) and complex(exact[0].real, exact[0].imag) == 3 + 1j

    def test_numerator_longer_than_the_window_is_cut(self):
        numerator = [1.0, -2.0 + 1j, 0.5, 4.0, 3j]
        cut = expand(numerator, (0.5, -0.3j), 2)
        assert cut.shape == (3,)
        # c_k reads only p_0..p_k, and every scan step past the window is skipped
        assert cut.tobytes() == expand(numerator[:3], (0.5, -0.3j), 2).tobytes()
        assert cut.tobytes() == expand(numerator, (0.5, -0.3j), 4)[:3].tobytes()

    def test_zero_pole_is_skipped(self):
        numerator = [1.0, -2.0 + 1j, 0.5]
        with_zero = expand(numerator, (0.5, 0.0, -0.3j, 0j), 20)
        assert with_zero.tobytes() == expand(numerator, (0.5, -0.3j), 20).tobytes()
        exact = expand([lift(c) for c in numerator], (0.5, 0.0), 20, lift)
        once = expand([lift(c) for c in numerator], (0.5,), 20, lift)
        assert [(c.real, c.imag) for c in exact] == [(c.real, c.imag) for c in once]

    def test_zero_poles_return_the_numerator_bit_for_bit(self):
        # 0.1 has no short binary expansion and -0.0 keeps its sign bit
        numerator = [0.1 + 0.7j, complex(-0.0, 0.3), -1 / 3]
        out = expand(numerator, (0.0, 0j, 0.0), 5)
        padded = np.array(numerator + [0j] * 3, dtype=complex)
        assert out.tobytes() == padded.tobytes()


def test_rows_expand_bit_for_bit_as_each_row_alone():
    # random complex numerators, zeros and poles, some poles zero: rows grouped by where
    # their poles are zero get one recurrence, whose squares of conj(b) must be Python's
    rng = np.random.default_rng(5)

    def draw(count, scale):
        return (rng.uniform(-1, 1, count) + 1j * rng.uniform(-1, 1, count)) * scale

    rationals = [Rational(draw(4, 1.0), [b if rng.random() < 0.7 else 0j for b in draw(3, 0.6)],
                          draw(1, 0.6)) for _ in range(40)]
    rows = _taylor_rows(rationals, 300)
    for row, r in zip(rows, rationals):
        assert row.tobytes() == r.taylor(300).tobytes()


class TestRowMeans:
    """Rows on one trapezoid ladder each stop where their own ladder would."""

    # |1 + b z| settles later as b nears 1; the marked row is NaN at a node that only the
    # grid of 128 nodes has, which its ladder reaches
    B = np.array([0.0, 0.3, 0.6, 0.8, 0.9, 0.95, 0.9, 0.5])
    MARKED = np.array([False] * 6 + [True, False])
    TARGET = circle_nodes(128)[65]

    def integrand(self, z, rows):
        values = np.abs(1 + self.B[rows, None] * z)
        values[self.MARKED[rows, None] & (z == self.TARGET)] = np.nan
        return values

    def alone(self, i):
        try:
            return converged_circle_mean(lambda z: self.integrand(z, np.array([i]))[0],
                                         alpha=np.inf)
        except EvaluationError as exc:
            return exc

    def test_each_row_gets_its_own_value_and_grid(self):
        means = _row_means(self.integrand, len(self.B), 16)
        alone = [self.alone(i) for i in range(len(self.B))]
        assert isinstance(alone[6], EvaluationError) and isinstance(means[6], EvaluationError)
        assert means[:6] + means[7:] == alone[:6] + alone[7:]  # (value, n), bit for bit
        assert len({n for _, n in alone[:6]}) > 2

    def test_rows_past_the_budget_are_put_off_the_ladder(self, monkeypatch):
        monkeypatch.setattr(series, "STACK_ELEMENTS", 256)
        means = _row_means(self.integrand, len(self.B), 16)
        kept = [(m, self.alone(i)) for i, m in enumerate(means) if m is not None and i != 6]
        assert 0 < len(kept) < len(self.B) - 1
        assert all(m == a for m, a in kept)


def _as_complex(exact) -> np.ndarray:
    """Exact coefficients rounded to complex floats."""
    return np.array([complex(float(c.real), float(c.imag)) for c in exact])


def _dyadic(bits: int, bound: float):
    """Dyadic rationals j / 2^bits in [-bound, bound]."""
    top = int(bound * 2**bits)
    return st.integers(-top, top).map(lambda j: j / 2**bits)


@st.composite
def _poles(draw):
    """Up to four dyadic poles with |b| <= 0.999, some repeated, some zero."""
    pole = st.builds(complex, _dyadic(10, 0.999), _dyadic(10, 0.999)).filter(
        lambda b: abs(b) <= 0.999)
    distinct = draw(st.lists(st.one_of(st.just(0j), pole), max_size=3))
    repeats = draw(st.lists(st.sampled_from(distinct), max_size=2)) if distinct else []
    return tuple(distinct + repeats)


class TestFloatMatchesExact:
    """The complex expansion against the exact expansion of the same (dyadic) data."""

    def test_clustered_poles_near_the_circle(self):
        # the poles of f / P_3 for three inner zeros of modulus 0.99 within 0.02
        # rad, each doubled: the coefficients grow to ~3e8, and a multiplied-out
        # denominator lost 2.7e-6 of them to cancellation
        zeros = [0.99 * complex(np.cos(t), np.sin(t)) for t in (0.3, 0.31, 0.32)]
        numerator = [1.0 + 0j, -0.5 + 0.25j]
        exact = _as_complex(expand([lift(c) for c in numerator], zeros * 2, 300, lift))
        approx = expand(numerator, zeros * 2, 300)
        assert (np.abs(approx - exact) <= 1e-12 * np.abs(exact)).all()

    @settings(max_examples=60, deadline=None)
    @given(
        numerator=st.lists(st.builds(complex, _dyadic(6, 4.0), _dyadic(6, 4.0)),
                           min_size=1, max_size=4),
        poles=_poles(),
        up_to=st.integers(0, 40),
    )
    def test_dyadic_data(self, numerator, poles, up_to):
        approx = expand(numerator, poles, up_to)
        exact = _as_complex(expand([lift(c) for c in numerator], poles, up_to, lift))
        # relative per coefficient, to the same expansion of |p_k| over |b|: it
        # bounds every partial sum, so cancelling coefficients are judged fairly
        majorant = expand(np.abs(numerator), np.abs(poles), up_to).real
        assert (np.abs(approx - exact) <= 1e-12 * majorant).all()


def grid_mean_modulus(f, nodes):
    """Average of |f| over one fixed grid."""
    return float(np.abs(_finite_values(f, nodes)).mean())


class TestCircleQuadrature:
    def test_constant_function(self):
        value, _ = converged_circle_mean(lambda z: np.abs(np.ones_like(z)), DEFAULT)
        assert value == pytest.approx(1.0)
        one = FactoredFunction(BlaschkeProduct(()), OuterRational((1.0,)))
        assert l1_norm(one) == pytest.approx(1.0)

    def test_one_plus_z_squared_converges_to_4_over_pi(self):
        value, n = converged_circle_mean(lambda z: np.abs(1 + z**2), DEFAULT)
        assert abs(value - 4 / np.pi) < 1e-10
        assert n <= QUAD_MAX_N

    def test_modulus_one_factor_does_not_change_norm(self):
        outer = OuterRational((1.0, 0.3), (0.2,))
        bare = l1_norm(FactoredFunction(BlaschkeProduct(()), outer))
        for zeros in ((0.0,), (0.5, -0.3j)):
            inner = BlaschkeProduct(zeros)
            assert l1_norm(FactoredFunction(inner, outer)) == pytest.approx(bare, abs=1e-12)

    def test_grid_rotation_invariance(self):
        grid = circle_nodes(512)
        g = Rational((1.0, 0.5j, -0.2), (0.4,))
        # exact for rotations by a grid node
        rot = np.exp(2j * np.pi * 3 / 512)
        assert grid_mean_modulus(lambda z: g(rot * z), grid) == pytest.approx(
            grid_mean_modulus(g, grid), abs=1e-14
        )
        # within quadrature tolerance for arbitrary rotations
        rot = np.exp(1.234j)
        a, _ = converged_circle_mean(lambda z: np.abs(g(rot * z)), DEFAULT)
        b, _ = converged_circle_mean(lambda z: np.abs(g(z)), DEFAULT)
        assert abs(a - b) < 1e-10

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            circle_nodes(8)
        with pytest.raises(ValueError):
            circle_nodes(100)

    def test_rows_share_one_ladder(self):
        # each row ends on a grid at least as fine as its own ladder, and agrees
        rows = (lambda z: np.abs(1 + z**2), lambda z: np.abs(1 + 0.3 * z))
        alone = [converged_circle_mean(row, DEFAULT) for row in rows]
        values, n = converged_circle_mean(lambda z: [row(z) for row in rows], DEFAULT)
        assert n >= max(m for _, m in alone)
        for value, (single, _) in zip(values, alone):
            assert abs(value - single) < 1e-10

    def test_non_finite_evaluation_reports_node(self):
        def bad(z):
            out = np.ones_like(z)
            out[3] = np.nan
            return out

        with pytest.raises(EvaluationError) as err:
            converged_circle_mean(bad, DEFAULT)
        assert err.value.index == 3
        with pytest.raises(EvaluationError) as err:  # in the second of two rows
            converged_circle_mean(lambda z: [np.ones_like(z), bad(z)], DEFAULT)
        assert err.value.index == 3


class TestNestedLadder:
    """Each doubling evaluates the integrand on the new (odd-indexed) nodes only."""

    @pytest.mark.parametrize("rows", [False, True], ids=["scalar", "rows"])
    def test_every_rung_is_the_mean_over_its_full_grid(self, rows):
        g = Rational((1.0, 0.5j, -0.2), (0.4,))
        if rows:
            def integrand(z):
                return [np.abs(g(z)), np.abs(1 + 0.3 * z), np.real(g(z))]
        else:
            def integrand(z):
                return np.abs(g(z))
        sizes = []
        ladder = _trapezoid_means(lambda z: sizes.append(z.size) or integrand(z), 16)
        for n in 16 * 2 ** np.arange(9):
            mean, rung = next(ladder)
            assert rung == n
            fresh = np.real(np.asarray(integrand(circle_nodes(n)))).mean(axis=-1)
            assert np.array_equal(mean, fresh)  # bit for bit
        assert sizes == [16] + [int(n) for n in 16 * 2 ** np.arange(8)]

    def test_converged_mean_is_the_mean_over_its_final_grid(self):
        g = Rational((1.0, 0.5j, -0.2), (0.7,))
        value, n = converged_circle_mean(lambda z: np.abs(g(z)), replace(DEFAULT, quad_start_n=16))
        assert n > 32
        assert value == np.abs(g(circle_nodes(n))).mean()

    @pytest.mark.parametrize("rows", [False, True], ids=["scalar", "rows"])
    def test_non_finite_value_on_a_new_node_names_its_full_grid_index(self, rows):
        target = circle_nodes(64)[37]  # odd: first evaluated on the rung of 64

        def bad(z):
            out = np.abs(1 + 0.5 * z)
            out[z == target] = np.nan
            return [np.ones(z.shape), out] if rows else out

        with pytest.raises(EvaluationError) as err:
            converged_circle_mean(bad, replace(DEFAULT, quad=1e-30, quad_start_n=16))
        assert err.value.index == 37 and err.value.node == complex(target)

    def test_nodes_are_read_only_and_shared(self):
        nodes = circle_nodes(64)
        assert circle_nodes(64) is nodes and not nodes.flags.writeable
        assert np.array_equal(circle_nodes(128)[::2], nodes)  # nested bit for bit
        assert np.array_equal(circle_nodes(128, odd=True), circle_nodes(128)[1::2])
        # the witness grids are computed once per process, and the sample grid is
        # bit for bit the even nodes of the sup grid
        sup, sample = WITNESS_SUP_NODES, WITNESS_SAMPLE_NODES
        assert all(circle_nodes(n) is circle_nodes(n) for n in (sup, sample))
        assert circle_nodes(sup)[::sup // sample].tobytes() == circle_nodes(sample).tobytes()


def _root_free_family(count=40, seed=12):
    """Seeded root-free functions: outer roots at 1.001 <= |r| <= 20 (some with none
    at all) and poles at |b| <= 0.9, times a Blaschke product.  The first has both
    bounds: a root at 1.001 and a pole at 0.9."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        degree, npoles = int(rng.integers(0, 4)), int(rng.integers(0, 3))
        roots = np.exp(rng.uniform(np.log(1.001), np.log(20.0), degree)
                       + 2j * np.pi * rng.random(degree))
        poles = rng.uniform(0.0, 0.9, npoles) * np.exp(2j * np.pi * rng.random(npoles))
        if i == 0:
            roots, poles = np.array([1.001j]), np.array([-0.9])
        numerator = tuple(np.poly(roots)[::-1]) if degree else (1.5 - 0.5j,)
        inner = BlaschkeProduct(tuple(random_zeros(rng, int(rng.integers(0, 3)))))
        yield FactoredFunction(inner, OuterRational(numerator, tuple(poles)))


class TestSingularityStart:
    """l1_norm starts its trapezoid ladder from the outer factor's singularities."""

    def test_norms_match_a_fine_trapezoid_reference(self):
        for f in _root_free_family():
            value = l1_norm(f)
            reference = np.abs(f(circle_nodes(2 ** 18))).mean()
            assert abs(value - reference) <= 1e-10 * max(1.0, abs(value))

    @staticmethod
    def node_counts(monkeypatch, start_from_alpha=True):
        """Sizes of the node arrays that each circle mean of l1_norm evaluates."""
        from hardyball import model

        original, means = series.converged_circle_mean, []

        def counting(integrand, tol, roots=(), alpha=None):
            sizes = []
            means.append(sizes)
            return original(lambda z: sizes.append(z.size) or integrand(z), tol, roots,
                            alpha if start_from_alpha else None)

        monkeypatch.setattr(model, "converged_circle_mean", counting)
        return means

    def test_fewer_nodes_than_a_start_of_1024(self, monkeypatch):
        assert DEFAULT.quad_start_n == 1024
        totals = []
        for start_from_alpha in (True, False):
            means = self.node_counts(monkeypatch, start_from_alpha)
            for f in _root_free_family():
                l1_norm(f)
            totals.append(sum(map(sum, means)))
        assert totals[0] < totals[1]

    def test_root_next_to_the_circle_starts_at_most_half_the_cap(self, monkeypatch):
        f = FactoredFunction(BlaschkeProduct(()), OuterRational((1.0, -1.0 / (1 + 1e-6))))
        assert f.outer.circle_roots == ()
        means = self.node_counts(monkeypatch)
        value = l1_norm(f)
        assert means[0][0] <= QUAD_MAX_N // 2
        assert abs(value - 4 / np.pi) < 1e-5

def _roots_of_one_plus(c, n):
    """The n roots of 1 + c z^n, all on the circle for unit c."""
    return np.exp(1j * (np.pi - np.angle(c) + 2 * np.pi * np.arange(n)) / n)


class TestArcQuadrature:
    """Composite Gauss-Legendre on the arcs between given circle roots."""

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_mean_of_one_plus_c_z_n_is_4_over_pi(self, n):
        for j in range(16):
            c = np.exp(2j * np.pi * j / 16)
            value, nodes = converged_circle_mean(lambda z: np.abs(1 + c * z**n), DEFAULT,
                                                 roots=_roots_of_one_plus(c, n))
            assert abs(value - 4 / np.pi) <= 1e-15 * (4 / np.pi)
            assert nodes <= 1024

    def test_double_root_gives_two(self):
        value, _ = converged_circle_mean(lambda z: np.abs((1 + z) ** 2), DEFAULT, roots=(-1, -1))
        assert value == pytest.approx(2.0, rel=4 * np.finfo(float).eps)

    def test_rows_share_one_ladder(self):
        roots = (1j, -1j)
        rows = (lambda z: np.abs(1 + z**2), lambda z: np.abs(1 + 0.3 * z))
        alone = [converged_circle_mean(row, DEFAULT, roots=roots) for row in rows]
        values, n = converged_circle_mean(lambda z: [row(z) for row in rows], DEFAULT, roots=roots)
        assert values.shape == (2,) and n >= max(m for _, m in alone)
        assert abs(values[0] - 4 / np.pi) < 1e-15
        for value, (single, _) in zip(values, alone):
            assert abs(value - single) < 1e-14

    def test_non_finite_evaluation_reports_a_circle_node(self):
        def bad(z):
            out = np.abs(1 + z**2)
            out[5] = np.inf
            return out

        with pytest.raises(EvaluationError) as err:
            converged_circle_mean(bad, DEFAULT, roots=(1j, -1j))
        assert err.value.index == 5 and abs(abs(err.value.node) - 1.0) < 1e-15
        with pytest.raises(EvaluationError) as err:  # in the second of two rows
            converged_circle_mean(lambda z: [np.ones(z.shape), bad(z)], DEFAULT, roots=(1j,))
        assert err.value.index == 5

    def test_grid_cap_still_applies(self):
        # a kink away from every given root keeps the rule moving until the cap
        with pytest.raises(QuadratureConvergenceError):
            converged_circle_mean(lambda z: np.abs(z.real - 0.3), replace(DEFAULT, quad=1e-30),
                                  roots=(1,))


class TestLogMeanModulus:
    """Circle means of log|f|: Jensen's formula gives log|f(0)| for outer f."""

    def test_constant(self):
        value, _ = converged_circle_mean(lambda z: np.log(2.0 * np.abs(np.ones_like(z))))
        assert value == pytest.approx(np.log(2.0))

    def test_outer_function_matches_value_at_zero(self):
        f = Rational((1.0, -0.5))
        value, _ = converged_circle_mean(lambda z: np.log(np.abs(f(z))))
        assert abs(value - 0.0) < 1e-8  # log|f(0)| = log 1 = 0

    def test_inner_factor_z_flags_mismatch(self):
        value, _ = converged_circle_mean(lambda z: np.log(np.abs(z)))
        # the circle mean is 0 but log|f(0)| = -inf: the identity must fail
        assert value == pytest.approx(0.0, abs=1e-15)
        assert value != float("-inf")


@settings(max_examples=30, deadline=None)
@given(
    coeffs=st.lists(
        st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
        min_size=1, max_size=4,
    ),
    pole=st.complex_numbers(max_magnitude=0.7, allow_nan=False, allow_infinity=False),
)
def test_expansion_reproduces_function_inside_disk(coeffs, pole):
    f = Rational(tuple(coeffs), (pole,))
    series = f.taylor(80)
    z = 0.4 + 0.2j
    partial = np.polyval(series[::-1], z)
    tail = np.abs(series).max() * abs(z) ** 81 / (1 - abs(z))
    assert abs(partial - f(z)) <= tail + 1e-9
