import numpy as np
import pytest

from hardyball import (
    DEFAULT,
    BlaschkeProduct,
    FactoredFunction,
    MaxRetriesExceededError,
    NotInSpaceError,
    NotOuterError,
    OuterRational,
    PuncturedSpace,
    check_exposed,
    check_membership,
    circle_nodes,
    decide_extreme,
    l1_norm,
    model,
    normalize,
    sample_member,
)
from hardyball.documents import DocumentError, parse_problem

from _instances import dense, random_zeros, taylor


def numerator_roots(coefficients):
    """The roots of one polynomial of ascending coefficients, as np.roots finds them."""
    (_, (roots,)), = model._roots_rows(np.array([coefficients], dtype=complex))
    return roots


def factored(zeros, numerator, den=()):
    return FactoredFunction(BlaschkeProduct(zeros), OuterRational(numerator, den))


def parsed(zeros, numerator, constant):
    """The function of a problem document carrying an inner constant."""
    return parse_problem({
        "holes": [],
        "inner_zeros": [[z.real, z.imag] for z in map(complex, zeros)],
        "inner_constant": [constant.real, constant.imag],
        "outer_numerator": [[c.real, c.imag] for c in map(complex, numerator)],
    }).function


def membership(f, space, tol=DEFAULT):
    return check_membership(f.taylor(space.holes), space, tol)


class TestBlaschkeProduct:
    def test_unimodular_on_circle(self):
        rng = np.random.default_rng(2)
        nodes = circle_nodes(4096)
        for _ in range(12):
            zeros = random_zeros(rng, int(rng.integers(0, 5)))
            values = BlaschkeProduct(zeros)(nodes)
            assert np.abs(np.abs(values) - 1.0).max() <= 1e-12

    def test_pairs_each_zero_with_its_pole(self):
        # bit for bit the factor-by-factor product
        rng = np.random.default_rng(4)
        nodes = circle_nodes(256)
        zeros = random_zeros(rng, 5)
        expected = np.ones_like(nodes)
        for a in zeros:
            expected = expected * (nodes - a) / (1 - a.conjugate() * nodes)
        assert np.array_equal(BlaschkeProduct(zeros)(nodes), expected)

    def test_zero_outside_disk_rejected(self):
        with pytest.raises(ValueError):
            BlaschkeProduct((1.2,))

    def test_constant_must_be_unimodular(self):
        with pytest.raises(DocumentError, match="constant must be unimodular"):
            parsed([0.1], [1.0], 2.0)

    def test_degree_zero_is_constant(self):
        # the constant is folded into the outer factor, which is all that remains
        f = parsed([], [1.0], 1j)
        assert f.inner.degree == 0
        assert f(0.37 + 0.1j) == 1j


class TestTaylorOfProduct:
    def test_inner_z(self):
        f = factored([0.0], [1.0])
        assert taylor(f, 2) == pytest.approx([0, 1, 0])

    def test_single_zero_half(self):
        f = factored([0.5], [1.0])
        assert taylor(f, 2) == pytest.approx([-0.5, 0.75, 0.375])

    def test_trivial_inner(self):
        f = factored([], [1.0, 0.0, 1.0])
        assert taylor(f, 2) == pytest.approx([1, 0, 1])

    def test_matches_factor_convolution(self):
        # product expansion == np.convolve of the factor expansions
        rng = np.random.default_rng(9)
        for _ in range(15):
            zeros = random_zeros(rng, int(rng.integers(0, 4)))
            num = tuple(rng.standard_normal(4) + 1j * rng.standard_normal(4))
            den = random_zeros(rng, int(rng.integers(0, 3)), max_modulus=0.5)
            try:
                f = factored(zeros, num, den)
            except NotOuterError:
                continue
            up_to = 25
            direct = taylor(f, up_to)
            inner_numerator = np.atleast_1d(np.poly(f.inner.zeros))[::-1].tolist()
            piecewise = np.convolve(
                dense(inner_numerator, f.inner.zeros, up_to),
                dense(f.outer.numerator, f.outer.poles, up_to),
            )[: up_to + 1]
            assert np.abs(direct - piecewise).max() <= 1e-12 * np.abs(direct).max()

    def test_canonical_fold_preserves_values(self):
        c = np.exp(0.7j)
        f = parsed([0.3 + 0.2j], [1.0, 0.5], c)
        assert f.outer.numerator == (c, c * 0.5)
        z = np.exp(1j * np.linspace(0, 2 * np.pi, 7))
        a = 0.3 + 0.2j
        assert f(z) == pytest.approx(c * (z - a) / (1 - a.conjugate() * z) * (1 + 0.5 * z))


class TestMembership:
    def test_accepts_member(self):
        f = factored([0.0], [1.0, 0.0, 0.5])  # z + 0.5 z^3
        assert membership(f, PuncturedSpace((2,))).passed

    def test_rejects_with_residual(self):
        f = factored([0.5], [1.0])
        report = membership(f, PuncturedSpace((3,)))
        assert not report.passed
        # |f^(3)| = 3/16 (largest coefficient is 3/4)
        hole, residual = report.worst()
        assert hole == 3
        assert residual * report.max_coefficient == pytest.approx(3 / 16)
        with pytest.raises(NotInSpaceError):
            report.require()

    def test_empty_hole_set_accepts_everything(self):
        f = factored([0.5], [1.0])
        assert membership(f, PuncturedSpace(())).passed


class TestCheckOuter:
    def test_circle_roots_allowed(self):
        f, _ = normalize(factored([0.0], [1.0, 0.0, 0.0, 0.0, 1.0]))  # F = 1 + z^4
        space = PuncturedSpace((2,))
        verdict = decide_extreme(f, space)
        result = check_exposed(f, verdict)
        assert result.status == "unknown"
        assert len(result.circle_roots) == 4

    def test_root_inside_rejected_at_construction(self):
        with pytest.raises(NotOuterError) as err:
            OuterRational((0.0, 1.0))  # F = z
        assert str(err.value) == "numerator roots inside the open disk: (0j,)"

    def test_not_outer_message_lists_at_most_eight_roots(self):
        # 1 + 2 z^100 has its 100 roots at modulus 2^(-1/100): the error keeps them all, and
        # its message gives their count and the first eight
        with pytest.raises(NotOuterError) as err:
            OuterRational((1.0,) + (0.0,) * 99 + (2.0,))
        roots = err.value.roots_inside
        assert len(roots) == 100
        listed = f"100 roots, the first 8 {roots[:8]}"
        assert str(err.value) == f"numerator roots inside the open disk: {listed}"
        assert len(str(err.value)) < 500

    def test_double_root_listed_once_per_multiplicity(self):
        # np.roots puts the two roots of (1 + z)^2 about 3e-8 apart
        split = numerator_roots((1.0, 2.0, 1.0))
        assert 1e-9 < abs(split[0] - split[1]) < 1e-6
        outer = OuterRational((1.0, 2.0, 1.0))
        assert outer.roots == outer.circle_roots == (outer.roots[0],) * 2
        assert abs(outer.roots[0] + 1.0) < 1e-15

    def test_distinct_roots_stay_apart(self):
        outer = OuterRational(tuple(np.poly([1.0 + 1e-5, 1.0 - 1e-5j, -2.0])[::-1]))
        assert len(set(outer.roots)) == 3

    def test_triple_root_listed_three_times(self):
        # np.roots splits the triple root of (1 + z)^3 by about 1e-5, so a pair
        # radius alone would leave one root of the three inside the disk
        split = numerator_roots((1.0, 3.0, 3.0, 1.0))
        assert min(abs(split[i] - split[j]) for i, j in ((0, 1), (0, 2), (1, 2))) > 1e-6
        outer = OuterRational((1.0, 3.0, 3.0, 1.0))
        assert outer.roots == outer.circle_roots == (outer.roots[0],) * 3
        assert abs(abs(outer.roots[0]) - 1.0) < 1e-12 and abs(outer.roots[0] + 1.0) < 1e-12

    def test_every_triple_circle_root_constructs(self):
        # (z - zeta)^3 (z - w) with |zeta| = 1 and |w| = 2: the triple root is
        # one cluster, judged by its centroid, and w stays apart
        rng = np.random.default_rng(1)
        for _ in range(200):
            zeta, w = np.exp(2j * np.pi * rng.random(2)) * (1.0, 2.0)
            numerator = np.convolve(np.poly([zeta] * 3)[::-1], [-w, 1])
            outer = OuterRational(tuple(numerator))
            centroid = outer.circle_roots[0]
            assert outer.circle_roots == (centroid,) * 3
            assert abs(abs(centroid) - 1.0) < 1e-12 and abs(centroid - zeta) < 1e-10
            assert len(set(outer.roots)) == 2

    def test_stacked_roots_match_each_factor_alone(self):
        # quadratics whose np.roots pair lies (1 -+ 1e-3) times the pair reach
        # CLUSTER_TOL * max(1, |r|) apart, stacked with (1 + z)^2: the rows that skip the
        # loop of _cluster and those that run it get the roots OuterRational keeps alone
        rng = np.random.default_rng(6)
        rows, merged = [], set()
        for factor in (1 - 1e-3, 1 + 1e-3) * 20:
            root = 1.5 * np.exp(2j * np.pi * rng.random())
            gap = factor * model.CLUSTER_TOL * abs(root) * np.exp(2j * np.pi * rng.random())
            rows.append(np.poly([root, root + gap])[::-1])
        rows.append(np.array([1.0, 2.0, 1.0]))
        _, stacked = model._outer_rows(np.array(rows, dtype=complex))
        for row, roots in zip(rows, stacked):
            outer = OuterRational(tuple(row))
            assert tuple(roots.tolist()) == outer.roots
            assert outer.roots == model._cluster(list(numerator_roots(row)))
            merged.add(len(set(outer.roots)))
        assert merged == {1, 2}

    def test_cluster_pretest_is_exact_at_its_reach(self, monkeypatch):
        # roots put in place of np.roots': inside the disk the reach CLUSTER_TOL * max(1, |r|)
        # is CLUSTER_TOL for both roots of a pair, and a pair exactly that far apart is one
        # double root, as _cluster merges it, so the pretest must not let it skip the loop;
        # pairs 1e-3 inside and outside the reach, and rows of three roots, too
        reach = model.CLUSTER_TOL
        found = [np.array(r, dtype=complex) for r in (
            [0.5, 0.5 + 1j * reach],
            [0.5, 0.5 + 1j * reach * (1 - 1e-3)],
            [0.5, 0.5 + 1j * reach * (1 + 1e-3)],
            [2.0, 2.0 + 2e-6j, 2.0 - 2e-6j],
            [-3.0, 3.0, 3.0 + 1e-5],
        )]
        # distinct numerators, each a root find of its own: k times ones finds found[k - 1]
        numerators = np.arange(1.0, len(found) + 1)[:, None] * np.ones(4)

        def roots_rows(coeffs):
            return [(np.array([u]), np.array([found[int(row[0].real) - 1]]))
                    for u, row in enumerate(coeffs)]

        monkeypatch.setattr(model, "_roots_rows", roots_rows)
        failures, stacked = model._outer_rows(numerators)
        got = [e.roots_inside if isinstance(e, NotOuterError) else tuple(r.tolist())
               for e, r in zip(failures, stacked)]
        assert got == [model._cluster(r.tolist()) for r in found]
        assert [len(set(roots)) for roots in got] == [1, 1, 2, 1, 3]

    @pytest.mark.xfail(strict=True, reason="known false accept: the cluster step merges the m "
                       "roots into their centroid 1, on the circle")
    @pytest.mark.parametrize("m, rho", [(3, 3e-5), (4, 3e-4), (6, 4e-3)])
    def test_a_tight_ring_of_roots_around_one_is_not_outer(self, m, rho):
        # roots 1 + rho e^{i pi (2j + 1) / m}: the nearest to the origin has modulus about
        # 1 - rho cos(pi / m), far inside 1 - ROOT_TOL, and np.roots finds it there
        roots = 1 + rho * np.exp(1j * np.pi * (2 * np.arange(m) + 1) / m)
        assert np.abs(numerator_roots(np.poly(roots)[::-1])).min() < 1 - 1e-5
        with pytest.raises(NotOuterError):
            OuterRational(tuple(np.poly(roots)[::-1]))

    @pytest.mark.parametrize("d", [200, pytest.param(256, marks=pytest.mark.xfail(
        strict=True, reason="known false reject: the cluster step merges arcs of simple "
        "roots, whose centroids fall inside the disk"))])
    def test_one_plus_half_z_to_the_d_is_outer(self, d):
        # every root of 1 + z^d / 2 has modulus 2^(1/d) > 1
        outer = OuterRational((1.0,) + (0.0,) * (d - 1) + (0.5,))
        assert len(outer.roots) == d and min(map(abs, outer.roots)) > 1


class TestNormalize:
    def test_one_plus_z_squared(self):
        f = factored([], [1.0, 0.0, 1.0])
        g, scale = normalize(f)
        # the arcs between the circle roots +-i carry the kinks of |F| at their ends
        assert abs(scale - np.pi / 4) <= 2 * np.spacing(np.pi / 4)
        assert g.outer.numerator[0] == pytest.approx(np.pi / 4, abs=1e-9)
        assert l1_norm(g) == pytest.approx(1.0, abs=1e-9)

    def test_constant_one_unchanged(self):
        f = factored([], [1.0])
        g, scale = normalize(f)
        assert scale == pytest.approx(1.0, abs=1e-12)

    def test_idempotent(self):
        f = factored([0.2], [0.7, 0.1j])
        g, _ = normalize(f)
        h, scale = normalize(g)
        assert scale == pytest.approx(1.0, abs=1e-10)
        assert np.abs(np.array(h.outer.numerator) - np.array(g.outer.numerator)).max() < 1e-12


    def test_keeps_the_roots_of_every_factor_that_constructed(self):
        # (z - zeta)^2 (z - w) with |zeta| = 1 and |w| = 2: np.roots splits the
        # double root by about sqrt(eps), which put one root of the pair inside
        # the disk for most of these; judged by its centroid, every factor is
        # outer, and normalize keeps the roots, since a nonzero constant moves none
        rng = np.random.default_rng(0)
        for _ in range(200):
            zeta, w = np.exp(2j * np.pi * rng.random(2)) * (1.0, 2.0)
            numerator = np.convolve(np.convolve([-zeta, 1], [-zeta, 1]), [-w, 1])
            outer = OuterRational(tuple(numerator))
            centroid, again = outer.circle_roots
            assert centroid == again and abs(abs(centroid) - 1.0) < 1e-14
            assert abs(centroid - zeta) < 1e-7
            g, _ = normalize(FactoredFunction(BlaschkeProduct(()), outer))
            assert g.outer.roots == outer.roots

    def test_double_circle_root_has_norm_two(self):
        # mean of |1 + z|^2 = 1 + |z|^2 over the circle: exactly 2
        f = factored([], [1.0, 2.0, 1.0])
        assert f.outer.circle_roots == (f.outer.circle_roots[0],) * 2
        assert l1_norm(f) == pytest.approx(2.0, rel=4 * np.finfo(float).eps)

    def test_scaled_factor_keeps_its_roots(self, monkeypatch):
        f = factored([0.2], [1.0, 0.0, 1.0])  # circle roots +-i
        monkeypatch.setattr(model, "_roots_rows", None)  # no second root find
        g, scale = normalize(f)
        assert g.outer.roots == f.outer.roots
        assert g.outer.circle_roots == f.outer.circle_roots and len(g.outer.circle_roots) == 2
        assert g.outer.numerator == tuple(scale * c for c in f.outer.numerator)


class TestSampleMember:
    def test_projects_out_constrained_coefficient(self):
        # inner factor z with hole {2} forces the degree-1 outer coefficient to zero
        member = sample_member(PuncturedSpace((2,)), [0.0], [], 2, seed=4)
        assert abs(member.outer.numerator[1]) < 1e-14

    def test_output_contract(self):
        rng = np.random.default_rng(21)
        for seed in range(6):
            space = PuncturedSpace((int(rng.integers(2, 8)),))
            member = sample_member(space, [0.1 * seed], [], 4, seed=seed)
            assert membership(member, space).passed
            assert np.abs(numerator_roots(member.outer.numerator)).min() > 1.0
            assert l1_norm(member) == pytest.approx(1.0, abs=1e-9)

    def test_deterministic_per_seed(self):
        a = sample_member(PuncturedSpace((3,)), [0.2], [], 3, seed=9)
        b = sample_member(PuncturedSpace((3,)), [0.2], [], 3, seed=9)
        assert a.outer.numerator == b.outer.numerator

    def test_infeasible_exhausts_retries(self, monkeypatch):
        # hole {1} with inner factor z forces F(0) = 0: never outer
        monkeypatch.setattr(model, "SAMPLE_RETRIES", 40)
        with pytest.raises(MaxRetriesExceededError, match="in 40 draws"):
            sample_member(PuncturedSpace((1,)), [0.0], [], 2, seed=1)

    def test_unconstrained_space(self):
        member = sample_member(PuncturedSpace(()), [], [], 2, seed=5)
        assert l1_norm(member) == pytest.approx(1.0, abs=1e-9)


class TestPuncturedSpace:
    def test_validation(self):
        with pytest.raises(ValueError):
            PuncturedSpace((0,))
        with pytest.raises(ValueError):
            PuncturedSpace((3, 3))
        with pytest.raises(ValueError):
            PuncturedSpace((5, 2))

    def test_empty_allowed(self):
        assert PuncturedSpace(()).size == 0
