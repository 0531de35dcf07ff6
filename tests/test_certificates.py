from dataclasses import replace

import numpy as np
import pytest

from hardyball import (
    DEFAULT,
    EXTREME,
    NON_EXTREME,
    BlaschkeProduct,
    CircleGrid,
    FactoredFunction,
    OuterRational,
    PerturbationWitness,
    PuncturedSpace,
    QuadratureConvergenceError,
    SymmetricPolynomial,
    check_exposed,
    canonical_kernel_vector,
    decide_extreme,
    make_witness,
    normalize,
    verify_witness,
    witness_h_values,
)
from hardyball.certificates import DEGREE_OVERFLOW_PATH, KERNEL_PATH

from _instances import overflow_member, single_hole_locus_member


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
        nodes = CircleGrid(1024).nodes
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
        assert report.h_realness_residual < 1e-12
        assert report.norm_plus_residual < 1e-9
        assert report.norm_minus_residual < 1e-9
        assert all(r < 1e-12 for _, r in report.hole_residuals)

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
        assert any("positivity" in failure for failure in report.failures)

    def test_failed_cheap_check_skips_the_norm_ladder(self, rank_deficient_fixture, monkeypatch):
        from hardyball import certificates

        f, space, verdict = rank_deficient_fixture
        w = make_witness(f, space, verdict)
        tampered = PerturbationWitness(
            w.polynomial, w.phi2_zeros, 40.0 * w.epsilon, w.recenter, w.provenance
        )
        ladders = []
        original = certificates.converged_circle_mean
        monkeypatch.setattr(certificates, "converged_circle_mean",
                            lambda *args, **kwargs: ladders.append(1) or original(*args, **kwargs))
        report = verify_witness(f, space, tampered)
        assert ladders == []
        assert any("positivity" in failure for failure in report.failures)
        assert np.isnan([report.norm_f, report.norm_plus, report.norm_minus]).all()
        assert verify_witness(f, space, w).verifies and len(ladders) == 1

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
        # a norm ladder that never stabilises is a numerics failure, not a verdict on the data
        f, space, verdict = rank_deficient_fixture
        w = make_witness(f, space, verdict)
        with pytest.raises(QuadratureConvergenceError):
            verify_witness(f, space, w, replace(DEFAULT, quad=1e-30))

    def test_midpoint_of_endpoints_is_f(self, rank_deficient_fixture):
        f, space, verdict = rank_deficient_fixture
        w = make_witness(f, space, verdict)
        from hardyball.certificates import _perturbation_product

        k = space.k_max
        f_coeffs = f.taylor(k)
        g_coeffs = _perturbation_product(f, w, k)
        plus = f_coeffs + w.epsilon * (g_coeffs - w.recenter * f_coeffs)
        minus = f_coeffs - w.epsilon * (g_coeffs - w.recenter * f_coeffs)
        midpoint = (plus + minus) / 2.0
        assert np.abs(midpoint - f_coeffs).max() <= 1e-12 * np.abs(f_coeffs).max()

    def test_endpoints_have_unit_norm(self, rank_deficient_fixture):
        f, space, verdict = rank_deficient_fixture
        w = make_witness(f, space, verdict)
        report = verify_witness(f, space, w)
        assert report.norm_f == pytest.approx(1.0, abs=1e-9)
        assert report.norm_plus == pytest.approx(1.0, abs=1e-7)
        assert report.norm_minus == pytest.approx(1.0, abs=1e-7)


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
