"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
pass.  Instance pools are deterministic and shared across criteria.
"""

import numpy as np
import pytest

from hardyball import (
    BORDERLINE,
    DEFAULT,
    EXTREME,
    NON_EXTREME,
    BlaschkeProduct,
    FactoredFunction,
    OuterRational,
    PuncturedSpace,
    SymmetricPolynomial,
    canonical_kernel_vector,
    check_exposed,
    check_membership,
    circle_nodes,
    decide_extreme,
    kernel_alignment,
    make_witness,
    normalize,
    single_hole_delta,
    verify_witness,
    witness_h_values,
)
from hardyball.certificates import _perturbation_product
from hardyball.extremality import _assemble, _decide_rows

from _instances import (
    criterion_matrix,
    endpoint_norms,
    expansion_of,
    hole_constraint_value,
    overflow_member,
    quick_sample_member,
    random_member,
    random_outer,
    random_zeros,
    rule_verdict,
    single_hole_locus_member,
    single_hole_member,
    taylor,
    windows_of,
)


def report_line(number, name, ok, detail):
    print(f"[ACCEPTANCE {number:2d}] {'PASS' if ok else 'FAIL'} — {name}: {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


@pytest.fixture(scope="module")
def baseline_pool():
    """200 unit-norm outer functions and their non-outer Blaschke multiples."""
    pool = []
    for i in range(200):
        rng = np.random.default_rng((1000, i))
        outer = random_outer(rng, max_degree=6)
        member, _ = normalize(FactoredFunction(BlaschkeProduct(()), outer), DEFAULT)
        zeros = random_zeros(rng, int(rng.integers(1, 4)))
        non_outer = FactoredFunction(BlaschkeProduct(zeros), member.outer)
        pool.append((member, non_outer))
    return pool


@pytest.fixture(scope="module")
def single_hole_pool():
    """500 one-hole, inner-degree-one members; 80 of them on the rank-drop locus."""
    instances = []
    for i in range(420):
        instances.append(single_hole_member(i))
    for i in range(80):
        instances.append(single_hole_locus_member(i))
    return instances


def test_criterion_01_de_leeuw_rudin_baseline(baseline_pool):
    space = PuncturedSpace(())
    worst_norm = 0.0
    for member, non_outer in baseline_pool:
        verdict = decide_extreme(member, space, DEFAULT)
        assert verdict.status == EXTREME and verdict.rank == 0

        verdict2 = decide_extreme(non_outer, space, DEFAULT)
        assert verdict2.status == NON_EXTREME
        assert not verdict2.condition_a.holds
        witness = make_witness(non_outer, space, verdict2, DEFAULT)
        rep = verify_witness(non_outer, space, witness, DEFAULT)
        assert rep.verifies, rep.failures
        # the midpoint identity ||g+|| + ||g-|| = 2 ||f||, by the test's own quadrature
        norm_f, plus, minus = endpoint_norms(non_outer, witness)
        worst_norm = max(worst_norm, abs(plus + minus - 2 * norm_f))
    ok = worst_norm < 1e-9
    report_line(1, "de Leeuw-Rudin baseline", ok,
                f"200 outer extreme (rank 0); 200 products non-extreme via the degree "
                f"condition, witnesses verified, worst |norm+ + norm- - 2| = {worst_norm:.2e}")


def test_criterion_02_outer_members_zero_matrix():
    worst = 0.0
    for i in range(100):
        rng = np.random.default_rng((2000, i))
        space = PuncturedSpace(tuple(
            int(k) for k in sorted(rng.choice(np.arange(1, 31), int(rng.integers(1, 5)),
                                              replace=False))
        ))
        member = None
        for attempt in range(10):
            degree = int(rng.integers(space.size + 1, space.size + 7))
            den = random_zeros(rng, int(rng.integers(0, 3)), max_modulus=0.5)
            try:
                member = quick_sample_member(space, (), den, degree, int(rng.integers(2**31)))
                break
            except Exception:
                continue
        assert member is not None
        matrix = criterion_matrix(member, space)
        worst = max(worst, float(np.abs(matrix).max()))
        verdict = decide_extreme(member, space, DEFAULT)
        assert verdict.status == EXTREME and verdict.rank == 0
    ok = worst <= 1e-12
    report_line(2, "outer members have the zero matrix", ok,
                f"100 degree-zero members across random hole sets; "
                f"largest matrix entry {worst:.2e}")


def test_criterion_03_single_hole_equivalence(single_hole_pool):
    agreements = 0
    decided = 0
    worst_identity = 0.0
    for member, space in single_hole_pool:
        k = space.holes[0]
        a = member.inner.zeros[0]
        coeffs = taylor(member, k, first=1)
        # membership rewritten on the weighted coefficients:
        # a c_k - (1+|a|^2) c_{k-1} + conj(a) c_{k-2} = 0  (k >= 2)
        residual = abs(
            a * coeffs[k]
            - (1 + abs(a) ** 2) * coeffs[k - 1]
            + a.conjugate() * coeffs[k - 2]
        )
        scale = np.abs(coeffs).max()
        worst_identity = max(worst_identity, residual / scale)

        verdict = decide_extreme(member, space, DEFAULT)
        shortcut = single_hole_delta(member, k, DEFAULT)
        if verdict.status != BORDERLINE:
            decided += 1
            if verdict.status == shortcut.status:
                agreements += 1
    ok = agreements == decided and worst_identity <= 1e-10
    report_line(3, "single-hole determinant equivalence", ok,
                f"{agreements}/{decided} non-borderline agreements out of "
                f"{len(single_hole_pool)} instances; worst identity residual "
                f"{worst_identity:.2e}")


def test_criterion_04_canonical_kernel_invariant():
    worst_ratio = 0.0
    count = 0
    for i in range(1000):
        # inner degree >= 1: the degree-zero case is covered by criterion 2,
        # where the matrix itself is zero and the relative bound degenerates.
        # Instances whose matrix is itself at rounding level against the
        # coefficient scale (holes far beyond the numerator support) make the
        # relative bound noise-over-noise and are redrawn.
        for attempt in range(20):
            member, space = random_member((4000, i, attempt), m_range=(1, 4))
            m = member.inner.degree
            weights = member.taylor(space.holes, 2 * m, first=m)
            matrix = _assemble(weights.windows, m)
            if np.linalg.norm(matrix, 2) > 1e-6 * weights.scale:
                break
        vec = np.array(canonical_kernel_vector(member.inner.zeros).vector)
        residual = np.linalg.norm(matrix @ vec)
        bound = np.linalg.norm(matrix, 2) * np.linalg.norm(vec)
        worst_ratio = max(worst_ratio, residual / bound)
        assert _decide_rows(weights, space, m, DEFAULT).first().rank <= 2 * m
        count += 1
    ok = worst_ratio <= 1e-9
    report_line(4, "canonical vector spans into the kernel", ok,
                f"{count} members; worst |M v|/(|M||v|) = {worst_ratio:.2e}; "
                f"rank <= 2m everywhere")


def test_criterion_05_matrix_entry_audit():
    worst = 0.0
    for i in range(200):
        rng = np.random.default_rng((5000, i))
        m = int(rng.integers(0, 5))
        count = int(rng.integers(1, 5))
        holes = tuple(int(k) for k in sorted(
            rng.choice(np.arange(1, 25), count, replace=False)
        ))
        length = holes[-1] + 1
        coeffs = rng.standard_normal(length) + 1j * rng.standard_normal(length)
        matrix = _assemble(windows_of(coeffs, holes, 2 * m), m)
        for col in range(2 * m + 1):
            basis = np.zeros(2 * m + 1)
            basis[col] = 1.0
            p = SymmetricPolynomial(m, tuple(basis))
            for j, k in enumerate(holes):
                value = hole_constraint_value(p, coeffs, k)
                worst = max(worst,
                            abs(matrix[j, col] - value.real),
                            abs(matrix[len(holes) + j, col] - value.imag))
    ok = worst <= 1e-12
    report_line(5, "matrix entries audit against the bilinear form", ok,
                f"200 instances, every column against the coefficient-space oracle; "
                f"worst entry deviation {worst:.2e}")


def test_criterion_06_certificate_round_trip(baseline_pool, single_hole_pool):
    checked = 0
    worst = {"real": 0.0, "var": np.inf, "hole": 0.0, "norm": 0.0}

    def certify(f, space):
        nonlocal checked
        verdict = decide_extreme(f, space, DEFAULT)
        if verdict.status != NON_EXTREME:
            return
        witness = make_witness(f, space, verdict, DEFAULT)
        rep = verify_witness(f, space, witness, DEFAULT)
        assert rep.verifies, rep.failures
        # what the certificate proves without sampling or norms, rechecked by the test: the
        # endpoints' membership, h real, and the midpoint identity of the norms
        f_coeffs = taylor(f, space.k_max)
        shift = witness.epsilon * (taylor(_perturbation_product(f, witness), space.k_max)
                                   - witness.recenter * f_coeffs)
        for endpoint in (f_coeffs + shift, f_coeffs - shift):
            assert check_membership(expansion_of(endpoint, space.holes), space, DEFAULT).passed
        h = witness_h_values(f, witness, circle_nodes(8192))
        norm_f, plus, minus = endpoint_norms(f, witness)
        worst["real"] = max(worst["real"], float(np.abs(h.imag).max()))
        worst["var"] = min(worst["var"], rep.h_variation)
        worst["hole"] = max(worst["hole"], *(r for _, r in rep.hole_residuals)) \
            if rep.hole_residuals else worst["hole"]
        worst["norm"] = max(worst["norm"], abs(plus + minus - 2 * norm_f))
        checked += 1

    for _, non_outer in baseline_pool[:120]:
        certify(non_outer, PuncturedSpace(()))
    for member, space in single_hole_pool:
        if single_hole_delta(member, space.holes[0], DEFAULT).status == NON_EXTREME:
            certify(member, space)

    ok = (checked >= 120
          and worst["real"] < 1e-10 and worst["var"] > 1e-6
          and worst["hole"] < 1e-9 and worst["norm"] < 1e-9)
    report_line(6, "certificate round trip", ok,
                f"{checked} non-extreme verdicts certified; realness <= {worst['real']:.1e}, "
                f"variation >= {worst['var']:.1e}, holes <= {worst['hole']:.1e}, "
                f"norm residual <= {worst['norm']:.1e}")


def test_criterion_07_worked_instance():
    space = PuncturedSpace((2,))
    f_extreme = FactoredFunction(
        BlaschkeProduct((0.0,)), OuterRational((1.0, 0.0, 0.5))
    )
    matrix = criterion_matrix(f_extreme, space)
    matrix_ok = np.allclose(matrix, [[0, 1.5, 0], [0, 0, 0.5]], atol=1e-15)
    verdict = decide_extreme(f_extreme, space, DEFAULT)
    extreme_ok = verdict.status == EXTREME and verdict.rank == 2

    f_flat = FactoredFunction(
        BlaschkeProduct((0.0,)), OuterRational((1.0, 0.0, 1.0))
    )
    normalized, _ = normalize(f_flat, DEFAULT)
    verdict2 = decide_extreme(normalized, space, DEFAULT)
    rank_ok = verdict2.status == NON_EXTREME and verdict2.rank == 1
    witness = make_witness(normalized, space, verdict2, DEFAULT)
    nodes = circle_nodes(4096)
    h = witness_h_values(normalized, witness, nodes)
    target = -2.0 * np.sin(np.angle(nodes))
    sign_fit = min(
        float(np.abs(h.real - target).max()), float(np.abs(h.real + target).max())
    )
    rep = verify_witness(normalized, space, witness, DEFAULT)
    norm_f, plus, minus = endpoint_norms(normalized, witness)
    witness_ok = (
        sign_fit < 1e-12
        and abs(witness.recenter) < 1e-12
        and witness.epsilon == pytest.approx(0.25, abs=1e-12)
        and rep.verifies
        and abs(plus - norm_f) < 1e-9
        and abs(minus - norm_f) < 1e-9
    )
    ok = matrix_ok and extreme_ok and rank_ok and witness_ok
    report_line(7, "worked one-hole instance", ok,
                f"matrix match {matrix_ok}, extreme rank-2 {extreme_ok}, "
                f"rank-1 drop {rank_ok}, sine witness (eps=1/4, c=0) verified to 1e-9 "
                f"{witness_ok}")


def test_criterion_08_degree_overflow():
    verified = 0
    min_kernel = np.inf
    for i in range(50):
        member, space = overflow_member((8000, i))
        if space.size:
            # the order-(M + 1) operator's kernel, by the rank rule make_witness uses
            kernel = rule_verdict(member, space, first=space.size + 1).kernel_basis
            min_kernel = min(min_kernel, kernel.shape[0])
            assert kernel.shape[0] >= 3
        verdict = decide_extreme(member, space, DEFAULT)
        assert verdict.status == NON_EXTREME and not verdict.condition_a.holds
        witness = make_witness(member, space, verdict, DEFAULT)
        rep = verify_witness(member, space, witness, DEFAULT)
        assert rep.verifies, rep.failures
        verified += 1
    ok = verified == 50
    report_line(8, "degree overflow construction", ok,
                f"50 members with inner degree = holes + 1; overflow kernel dimension "
                f">= 3 throughout (min {min_kernel}); all witnesses verified")


def test_criterion_09_exposedness_gate(single_hole_pool):
    from hardyball.model import _roots_rows

    f, _ = normalize(FactoredFunction(BlaschkeProduct((0.0,)),
                                      OuterRational((1.0, 0.0, 0.5))), DEFAULT)
    space = PuncturedSpace((2,))
    gate1 = check_exposed(f, decide_extreme(f, space, DEFAULT))

    g, _ = normalize(FactoredFunction(BlaschkeProduct(()),
                                      OuterRational((1.0, 0.0, 1.0))), DEFAULT)
    space1 = PuncturedSpace((1,))
    gate2 = check_exposed(g, decide_extreme(g, space1, DEFAULT))

    sound = True
    for member, space_i in single_hole_pool[:150]:
        verdict = decide_extreme(member, space_i, DEFAULT)
        result = check_exposed(member, verdict)
        if result.status == "exposed":
            (_, (roots,)), = _roots_rows(np.array([member.outer.numerator]))
            sound &= verdict.status == EXTREME
            sound &= all(abs(abs(r) - 1.0) > 1e-8 for r in roots)
        if verdict.status != EXTREME:
            sound &= result.status == "not_extreme"
    ok = gate1.status == "exposed" and gate2.status == "unknown" and sound
    report_line(9, "exposedness gate", ok,
                f"off-circle fixture exposed: {gate1.status == 'exposed'}; circle-root "
                f"fixture unknown: {gate2.status == 'unknown'}; gate sound on 150 "
                f"instances: {sound}")


def test_criterion_10_circle_grid_identity():
    nodes = circle_nodes(4096)
    worst = 0.0
    for i in range(100):
        rng = np.random.default_rng((10_000, i))
        zeros = random_zeros(rng, int(rng.integers(0, 6)), max_modulus=0.95)
        blaschke = BlaschkeProduct(zeros)(nodes)
        inv_phi = np.ones_like(nodes)
        squared_distance = np.ones_like(nodes, dtype=float)
        for a in zeros:
            inv_phi = inv_phi * (1 - complex(a).conjugate() * nodes) ** 2
            squared_distance = squared_distance * np.abs(nodes - a) ** 2
        lhs = blaschke * inv_phi  # B / Phi
        rhs = nodes ** len(zeros) * squared_distance
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    ok = worst <= 1e-10
    report_line(10, "circle identity for the Blaschke/weight quotient", ok,
                f"100 random zero sets (degree <= 5), 4096 nodes; "
                f"max residual {worst:.2e}")
