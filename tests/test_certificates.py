from dataclasses import replace

import numpy as np
import pytest

from hardyball import (
    DEFAULT,
    EXTREME,
    NON_EXTREME,
    BlaschkeProduct,
    FactoredFunction,
    OuterRational,
    PerturbationWitness,
    PuncturedSpace,
    SymmetricPolynomial,
    check_exposed,
    canonical_kernel_vector,
    circle_nodes,
    decide_extreme,
    make_witness,
    normalize,
    verify_witness,
    witness_h_values,
)
from hardyball.certificates import DEGREE_OVERFLOW_PATH, KERNEL_PATH, POSITIVITY_MAX_NODES

from _instances import endpoint_norms, overflow_member, single_hole_locus_member, taylor


def factored(zeros, numerator, den=()):
    return FactoredFunction(BlaschkeProduct(zeros), OuterRational(numerator, den))


@pytest.fixture(scope="module")
def rank_deficient_fixture():
    """f = (pi/4) z (1 + z^2) in the one-hole space at 2: the classic kernel-path case."""
    f, _ = normalize(factored([0.0], [1.0, 0.0, 1.0]))
    space = PuncturedSpace((2,))
    verdict = decide_extreme(f, space)
    return f, space, verdict


class TestKernelWitness:
    def test_fixture_witness_is_the_sine_perturbation(self, rank_deficient_fixture):
        f, space, verdict = rank_deficient_fixture
        w = make_witness(f, space, verdict)
        assert w.provenance == KERNEL_PATH
        assert w.polynomial.order == 1
        assert w.phi2_zeros == ()
        assert w.epsilon == pytest.approx(0.25, abs=1e-12)
        assert w.recenter == pytest.approx(0.0, abs=1e-12)
        # h = -2 sin(theta) up to the sign of the kernel vector
        nodes = circle_nodes(1024)
        h = witness_h_values(f, w, nodes)
        theta = np.angle(nodes)
        assert np.abs(h.imag).max() < 1e-13
        sign = np.sign(h.real[1] / -np.sin(theta[1]))
        assert h.real == pytest.approx(sign * -2 * np.sin(theta), abs=1e-12)

    def test_fixture_witness_verifies_tightly(self, rank_deficient_fixture):
        f, space, verdict = rank_deficient_fixture
        w = make_witness(f, space, verdict)
        report = verify_witness(f, space, w)
        assert report.verifies
        # h = -2 sin(theta) with epsilon = 1/4: 1 +- epsilon h stays in [1/2, 3/2], which the
        # bound proves on the first grid
        assert report.positivity_nodes == 16 and report.positivity_margin > 0.1
        assert report.h_variation == pytest.approx(4.0, abs=1e-12)
        assert all(r < 1e-12 for _, r in report.hole_residuals)
        # realness is structural; the test's own sample and norms agree to rounding
        assert np.abs(witness_h_values(f, w, circle_nodes(8192)).imag).max() < 1e-12
        norm_f, plus, minus = endpoint_norms(f, w)
        assert abs(plus - norm_f) < 1e-9 and abs(minus - norm_f) < 1e-9

    def test_guard_on_extreme_verdict(self):
        f, _ = normalize(factored([0.0], [1.0, 0.0, 0.5]))
        space = PuncturedSpace((2,))
        verdict = decide_extreme(f, space)
        with pytest.raises(ValueError):
            make_witness(f, space, verdict)

    def test_locus_members_get_verified_witnesses(self):
        for seed in range(8):
            member, space = single_hole_locus_member(seed)
            verdict = decide_extreme(member, space)
            assert verdict.status == NON_EXTREME
            w = make_witness(member, space, verdict)
            assert w.provenance == KERNEL_PATH
            report = verify_witness(member, space, w)
            assert report.verifies, report.failures


class TestDegreeOverflowWitness:
    def test_plain_inner_function_in_classical_space(self):
        # f = z: the classical fact that non-outer functions are not extreme
        f, _ = normalize(factored([0.0], [1.0]))
        space = PuncturedSpace(())
        w = make_witness(f, space, decide_extreme(f, space))
        assert w.provenance == DEGREE_OVERFLOW_PATH
        assert w.polynomial.order == 1
        report = verify_witness(f, space, w)
        assert report.verifies
        assert report.h_variation > 1.0  # h = 2 cos(theta) has variation 4

    @pytest.mark.parametrize("excess", [1, 2, 3])
    def test_random_overflow_members_verify(self, excess):
        # inner degree m = M + excess: for excess >= 2 the witness carries
        # spare zeros and comes from the order-(M+1) operator, not the verdict
        for seed in range(6):
            member, space = overflow_member(seed, excess=excess)
            assert member.inner.degree == space.size + excess
            verdict = decide_extreme(member, space)
            assert not verdict.condition_a.holds
            w = make_witness(member, space, verdict)
            n = space.size + 1
            assert w.provenance == DEGREE_OVERFLOW_PATH
            assert w.polynomial.order == n
            assert len(w.phi2_zeros) == excess - 1
            canonical = np.array(canonical_kernel_vector(member.inner.zeros[:n]).vector)
            alignment = np.dot(w.polynomial.vector, canonical) / np.linalg.norm(canonical)
            assert abs(alignment) < 1e-10
            report = verify_witness(member, space, w)
            assert report.verifies, report.failures

    def test_witness_does_not_depend_on_the_kernel_basis(self):
        # m = M + 1 takes the kernel from the verdict; it has dimension 5 - 2 = 3
        for seed in range(4):
            member, space = overflow_member((seed, 5), max_holes=1, excess=1)
            verdict = decide_extreme(member, space)
            assert verdict.kernel_dimension >= 3
            vector = make_witness(member, space, verdict).polynomial.vector
            rng = np.random.default_rng(seed)
            for _ in range(5):
                rotation, _ = np.linalg.qr(rng.standard_normal((verdict.kernel_dimension,) * 2))
                rotated = replace(verdict, kernel_basis=rotation @ verdict.kernel_basis)
                again = make_witness(member, space, rotated).polynomial.vector
                np.testing.assert_allclose(again, vector, rtol=0, atol=1e-12)


class TestVerifyWitness:
    def test_doubled_epsilon_fails(self, rank_deficient_fixture):
        f, space, verdict = rank_deficient_fixture
        w = make_witness(f, space, verdict)
        tampered = PerturbationWitness(
            w.polynomial, w.phi2_zeros, 2.0 * w.epsilon, w.recenter, w.provenance
        )
        report = verify_witness(f, space, tampered)
        assert not report.verifies
        # 1 - 2 epsilon |h| touches 0, so no grid proves it positive: the failure is the bound's
        assert report.failures == (report.failures[0],) and "positivity" in report.failures[0]
        assert report.positivity_margin <= 0 and report.positivity_nodes == POSITIVITY_MAX_NODES

    def test_dip_between_first_grid_nodes_fails(self):
        # f = z in the classical space, h = -2 sin(theta - pi/16): its extremes fall midway
        # between the 16 first-grid nodes, where |h| reaches only 2 cos(pi/16); epsilon = 1/1.98
        # keeps 1 +- epsilon h positive there but dips it to 1 - 2/1.98 < 0 between them
        f, _ = normalize(factored([0.0], [1.0]))
        phi = np.pi / 16
        polynomial = SymmetricPolynomial(1, (0.0, np.sin(phi), np.cos(phi)))
        w = PerturbationWitness(polynomial, (), 1 / 1.98, 0.0, DEGREE_OVERFLOW_PATH)
        nodes = circle_nodes(16)
        h = witness_h_values(f, w, nodes).real
        assert h == pytest.approx(-2 * np.sin(np.angle(nodes) - phi), abs=1e-12)
        assert (1 - w.epsilon * np.abs(h)).min() > 0.009
        report = verify_witness(f, PuncturedSpace(()), w)
        assert len(report.failures) == 1 and "positivity" in report.failures[0]
        # a slightly smaller epsilon is proven
        w = PerturbationWitness(polynomial, (), 1 / 2.02, 0.0, DEGREE_OVERFLOW_PATH)
        assert verify_witness(f, PuncturedSpace(()), w).verifies
        # a dip of 1e-10 midway between the nodes of the finest grid: every node of every
        # grid sees 1 +- epsilon h > 0, so only the bound between the nodes can reject it
        phi = np.pi / POSITIVITY_MAX_NODES
        polynomial = SymmetricPolynomial(1, (0.0, np.sin(phi), np.cos(phi)))
        w = PerturbationWitness(polynomial, (), (1 + 1e-10) / 2, 0.0, DEGREE_OVERFLOW_PATH)
        h = witness_h_values(f, w, circle_nodes(POSITIVITY_MAX_NODES)).real
        assert (1 - w.epsilon * np.abs(h)).min() > 1e-9
        report = verify_witness(f, PuncturedSpace(()), w)
        assert len(report.failures) == 1 and "positivity" in report.failures[0]

    @pytest.mark.parametrize("zeros, order, phi2", [
        pytest.param([0.0], 2, (), id="order-above-inner-degree"),
        pytest.param([0.0], 1, (0.5,), id="phi2-not-the-spare-zeros"),
        pytest.param([0.0, 0.0], 1, (), id="phi2-missing-a-spare-zero"),
    ])
    def test_structure_that_makes_h_real_is_checked(self, zeros, order, phi2):
        # f = B (1 + z^2 / 2) in the classical space: h = G / B is real only when G carries
        # the first `order` zeros of B doubled and phi2 the rest
        f, _ = normalize(factored(zeros, [1.0, 0.0, 0.5]))
        polynomial = SymmetricPolynomial(order, (0.0,) * (order + 1) + (1.0,) * order)
        w = PerturbationWitness(polynomial, phi2, 0.1, 0.0, DEGREE_OVERFLOW_PATH)
        report = verify_witness(f, PuncturedSpace(()), w)
        assert not report.verifies
        assert any("not real" in failure for failure in report.failures)
        assert report.positivity_nodes == 0 and np.isnan(report.positivity_margin)

    def test_failed_cheap_check_skips_the_norm_ladder(self, rank_deficient_fixture, circle_means):
        # no check needs a norm: neither a failing nor a passing witness runs a circle mean
        f, space, verdict = rank_deficient_fixture
        w = make_witness(f, space, verdict)
        tampered = PerturbationWitness(
            w.polynomial, w.phi2_zeros, 40.0 * w.epsilon, w.recenter, w.provenance
        )
        report = verify_witness(f, space, tampered)
        assert any("positivity" in failure for failure in report.failures)
        assert verify_witness(f, space, w).verifies and circle_means == []

    def test_wrong_space_fails_hole_check(self, rank_deficient_fixture):
        f, space, verdict = rank_deficient_fixture
        w = make_witness(f, space, verdict)
        report = verify_witness(f, PuncturedSpace((4,)), w)
        assert not report.verifies
        assert any("hole" in failure for failure in report.failures)

    def test_wrong_function_fails(self, rank_deficient_fixture):
        f, space, verdict = rank_deficient_fixture
        w = make_witness(f, space, verdict)
        other, _ = normalize(factored([0.3], [1.0, 0.0, 0.25, 0.1]))
        report = verify_witness(other, space, w)
        assert not report.verifies

    def test_constant_polynomial_fails_variation(self, rank_deficient_fixture):
        f, space, _ = rank_deficient_fixture
        # the canonical direction itself: h is constant
        w = PerturbationWitness(
            SymmetricPolynomial(1, (0.5, 0.0, 0.0)), (), 0.25, 0.0, KERNEL_PATH
        )
        report = verify_witness(f, space, w)
        assert not report.verifies
        assert any("constant" in failure for failure in report.failures)

    def test_invalid_witness_data_reported_not_raised(self, rank_deficient_fixture):
        f, space, _ = rank_deficient_fixture
        bad = PerturbationWitness(
            SymmetricPolynomial(1, (0.0, 0.0, 1.0)), (1.5,), 0.25, 0.0,
            DEGREE_OVERFLOW_PATH,
        )
        report = verify_witness(f, space, bad)
        assert not report.verifies
        assert any("rejected" in failure for failure in report.failures)

    def test_unconverged_norms_raise_not_report(self, rank_deficient_fixture):
        # verification computes no norm, so a quadrature tolerance no circle mean can meet
        # neither raises nor changes the report
        f, space, verdict = rank_deficient_fixture
        w = make_witness(f, space, verdict)
        report = verify_witness(f, space, w, replace(DEFAULT, quad=1e-30))
        assert report.verifies and report == verify_witness(f, space, w)

    def test_midpoint_of_endpoints_is_f(self, rank_deficient_fixture):
        f, space, verdict = rank_deficient_fixture
        w = make_witness(f, space, verdict)
        from hardyball.certificates import _perturbation_product

        k = space.k_max
        f_coeffs = taylor(f, k)
        g_coeffs = taylor(_perturbation_product(f, w), k)
        plus = f_coeffs + w.epsilon * (g_coeffs - w.recenter * f_coeffs)
        minus = f_coeffs - w.epsilon * (g_coeffs - w.recenter * f_coeffs)
        midpoint = (plus + minus) / 2.0
        assert np.abs(midpoint - f_coeffs).max() <= 1e-12 * np.abs(f_coeffs).max()

    def test_endpoints_have_unit_norm(self, rank_deficient_fixture):
        f, space, verdict = rank_deficient_fixture
        w = make_witness(f, space, verdict)
        norm_f, plus, minus = endpoint_norms(f, w)
        # the midpoint identity the certificate rests on, by the test's own quadrature
        assert plus + minus == pytest.approx(2 * norm_f, abs=1e-9)
        # f / ||f|| = lambda g+ / ||g+|| + (1 - lambda) g- / ||g-||, lambda = ||g+|| / (2 ||f||)
        nodes = circle_nodes(1024)
        shift = w.epsilon * (witness_h_values(f, w, nodes).real - w.recenter)
        g_plus, g_minus = f(nodes) * (1 + shift), f(nodes) * (1 - shift)
        lam = plus / (2 * norm_f)
        combination = lam * g_plus / plus + (1 - lam) * g_minus / minus
        assert np.abs(combination - f(nodes) / norm_f).max() < 1e-9
        # h = -2 sin(theta) integrates to 0 against |f|: here both endpoints keep unit norm
        assert norm_f == pytest.approx(1.0, abs=1e-9)
        assert plus == pytest.approx(1.0, abs=1e-9) and minus == pytest.approx(1.0, abs=1e-9)


class TestCheckExposed:
    def test_extreme_with_roots_off_circle(self):
        f, _ = normalize(factored([0.0], [1.0, 0.0, 0.5]))
        space = PuncturedSpace((2,))
        verdict = decide_extreme(f, space)
        result = check_exposed(f, verdict)
        assert result.status == "exposed"
        assert result.circle_roots == ()

    def test_extreme_with_circle_roots_is_unknown(self):
        f, _ = normalize(factored([], [1.0, 0.0, 1.0]))
        space = PuncturedSpace((1,))
        verdict = decide_extreme(f, space)
        assert verdict.status == EXTREME
        result = check_exposed(f, verdict)
        assert result.status == "unknown"
        assert len(result.circle_roots) == 2

    def test_non_extreme_guard(self, rank_deficient_fixture):
        f, space, verdict = rank_deficient_fixture
        result = check_exposed(f, verdict)
        assert result.status == "not_extreme"
