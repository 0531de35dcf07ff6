import json
from dataclasses import replace

import numpy as np
import pytest

from hardyball import DEFAULT, PerturbationWitness, SymmetricPolynomial
from hardyball.documents import (
    MAX_HOLE,
    DocumentError,
    canonical_json,
    check_problem,
    format_float,
    load_json,
    parse_problem,
    parse_witness,
    problem_to_dict,
    witness_to_dict,
)


def valid_problem():
    return {
        "format_version": 1,
        "type": "problem",
        "holes": [2],
        "inner_zeros": [[0.0, 0.0]],
        "outer_numerator": [[1.0, 0.0], [0.0, 0.0], [0.5, 0.0]],
        "outer_denominator": [],
    }


class TestCanonicalJson:
    def test_float_format_round_trips(self):
        rng = np.random.default_rng(0)
        for x in rng.standard_normal(200) * 10.0 ** rng.integers(-12, 12, 200):
            assert float(format_float(float(x))) == float(x)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            format_float(float("inf"))
        with pytest.raises(ValueError):
            format_float(float("nan"))

    def test_deterministic_and_parseable(self):
        doc = {"b": [1.0, 2.5], "a": {"x": [0.1, -0.2]}, "s": "text", "n": None, "t": True}
        text = canonical_json(doc)
        assert text == canonical_json(doc)
        assert json.loads(text) == doc

    def test_insertion_order_preserved(self):
        assert canonical_json({"z": 1, "a": 2}).index('"z"') < canonical_json(
            {"z": 1, "a": 2}
        ).index('"a"')


class TestProblemParsing:
    def test_round_trip(self):
        doc = parse_problem(valid_problem())
        back = problem_to_dict(doc.space, doc.function)
        again = parse_problem(back)
        assert again.space.holes == doc.space.holes
        assert again.function.outer.numerator == doc.function.outer.numerator

    def test_missing_field_located(self):
        bad = valid_problem()
        del bad["outer_numerator"]
        with pytest.raises(DocumentError, match="outer_numerator"):
            parse_problem(bad, source="p.json")

    def test_bad_pair_located(self):
        bad = valid_problem()
        bad["inner_zeros"] = [[0.0]]
        with pytest.raises(DocumentError, match=r"inner_zeros\[0\]"):
            parse_problem(bad)

    def test_unknown_option_rejected(self):
        bad = valid_problem()
        bad["options"] = {"tol_bogus": 1e-3}
        with pytest.raises(DocumentError, match="tol_bogus"):
            parse_problem(bad)

    def test_hole_index_is_bounded(self):
        # the expansion runs to the largest hole, so an unbounded one would exhaust memory
        space = check_problem(dict(valid_problem(), holes=[2, MAX_HOLE]))[0]
        assert space.k_max == MAX_HOLE == 10 ** 6
        with pytest.raises(DocumentError, match=r"holes\[1\]: expected a hole index <= 1000000"):
            check_problem(dict(valid_problem(), holes=[2, MAX_HOLE + 1]), source="p.json")

    def test_tol_root_is_not_an_option(self):
        # the outer check and the exposedness gate share the fixed model.ROOT_TOL
        bad = valid_problem()
        bad["options"] = {"tol_root": 1e-8}
        with pytest.raises(DocumentError, match=r"options\.tol_root: unknown option"):
            parse_problem(bad)

    def test_options_mapped(self):
        doc = valid_problem()
        doc["options"] = {"tol_rank": 1e-6}
        assert parse_problem(doc).tolerances == replace(DEFAULT, rank=1e-6)

    def test_domain_violation_located(self):
        bad = valid_problem()
        bad["inner_zeros"] = [[2.0, 0.0]]
        with pytest.raises(DocumentError):
            parse_problem(bad)

    def test_format_version_checked(self):
        for version in (99, True, 1.0):  # True == 1.0 == 1, but only the integer 1 is version 1
            with pytest.raises(DocumentError, match="format_version"):
                load_json(json.dumps({"format_version": version}))

    def test_invalid_json_located(self):
        with pytest.raises(DocumentError, match="not valid JSON"):
            load_json("{", source="x.json")


class TestWitnessDocuments:
    def test_round_trip(self):
        w = PerturbationWitness(
            SymmetricPolynomial(2, (0.1, 0.2, 0.3, -0.4, 0.5)),
            (0.25 + 0.1j,),
            0.125,
            -0.01,
            "degree_overflow_path",
        )
        data = json.loads(canonical_json(witness_to_dict(w)))
        back = parse_witness(data)
        assert back.polynomial.order == 2
        assert back.polynomial.vector == w.polynomial.vector
        assert back.phi2_zeros == w.phi2_zeros
        assert back.epsilon == w.epsilon
        assert back.recenter == w.recenter

    def test_bad_provenance(self):
        w = witness_to_dict(
            PerturbationWitness(SymmetricPolynomial(0, (1.0,)), (), 0.5, 0.0, "kernel_path")
        )
        w["provenance"] = "bogus"
        with pytest.raises(DocumentError, match="provenance"):
            parse_witness(w)

    def test_vector_length_must_match_order(self):
        w = witness_to_dict(
            PerturbationWitness(SymmetricPolynomial(0, (1.0,)), (), 0.5, 0.0, "kernel_path")
        )
        w["symmetric_order"] = 3
        with pytest.raises(DocumentError, match="coefficient_vector"):
            parse_witness(w)

    def test_epsilon_positive(self):
        w = witness_to_dict(
            PerturbationWitness(SymmetricPolynomial(0, (1.0,)), (), 0.5, 0.0, "kernel_path")
        )
        w["epsilon"] = -1.0
        with pytest.raises(DocumentError, match="epsilon"):
            parse_witness(w)
