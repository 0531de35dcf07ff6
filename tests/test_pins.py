"""Byte pins of command outputs that must stay identical across refactors.

Each case runs one command in-process and pins the sha256 of its stdout and
of any witness file it writes.  A change that alters one of these outputs on
purpose says so in CHANGES.md and updates the pin.  The floats come from
numpy and LAPACK (root finding, SVD, quadrature sums), so a numpy or LAPACK
upgrade may change their last bits and require new pins; record such a
re-pin in CHANGES.md too, with the versions involved.
"""

import contextlib
import hashlib
import io
import json

import pytest

from hardyball.cli import main

from _instances import EVERY_BRANCH_TEMPLATE

# hole {2}, inner zero 0, outer 1 + z^2 (circle roots +-i): non-extreme, kernel path
README_FIXTURE = {
    "format_version": 1, "type": "problem", "holes": [2], "inner_zeros": [[0.0, 0.0]],
    "outer_numerator": [[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]], "outer_denominator": [],
}
# the problem document of the README: 1 + z^2 / 2, a dyadic member
README_PROBLEM = dict(README_FIXTURE, inner_constant=[1.0, 0.0],
                      outer_numerator=[[1.0, 0.0], [0.0, 0.0], [0.5, 0.0]],
                      options={"tol_rank": 1e-8})
README_TEMPLATE = dict(README_FIXTURE, outer_numerator=[[1.0, 0.0], [0.0, 0.0], ["beta", 0.0]])
GEN_SPEC = {"format_version": 1, "type": "gen_spec", "holes": [3, 7],
            "inner_zeros": [[0.2, 0.1]], "outer_denominator": [[0.3, 0.0]],
            "numerator_degree": 4}
# a generated float member with holes {4, 150}: never an exact rational member
FLOAT_MEMBER_SPEC = dict(GEN_SPEC, holes=[4, 150], inner_zeros=[[0.5, 0.2], [-0.3, 0.4]])
# a dyadic member on the non-extreme locus |c_5| = |c_7| (hole {7}, inner zero 1/4): the
# weighted coefficients 1, 5 s / 128, (1 + 3i) / 512, (-4 + 3i) s / 128 at 0, 5, 6, 7 with
# s = 17/16, times (1 - z/4)^2; the exact kernel has dimension 2 and gives the witness
EXACT_LOCUS_MEMBER = dict(
    README_PROBLEM, holes=[7], inner_zeros=[[0.25, 0.0]], options={},
    outer_numerator=[[1.0, 0.0], [-0.5, 0.0], [0.0625, 0.0], [0.0, 0.0], [0.0, 0.0],
                     [0.04150390625, 0.0], [-0.018798828125, 0.005859375],
                     [-0.031585693359375, 0.02197265625], [0.0167236328125, -0.0120849609375],
                     [-0.0020751953125, 0.001556396484375]])
# f = z - a with a 53-bit zero a: an exact member whose far hole k = 800 needs long dyadics
A_53 = [0.3123456789012345, 0.4198765432109876]
EXACT_FAR_MEMBER = dict(README_PROBLEM, holes=[2, 800], inner_zeros=[A_53], options={},
                        outer_numerator=[[1.0, 0.0], [-A_53[0], A_53[1]]])
# z + 2^-60 z^3 with holes {2, 3, 40}: a float member, exactly zero at hole 2 but not at 3
ZERO_AT_FIRST_HOLE = dict(README_PROBLEM, holes=[2, 3, 40],
                          outer_numerator=[[1.0, 0.0], [0.0, 0.0], [2.0 ** -60, 0.0]])

PINS = {
    "analyze_exact_float_member_rejected": {
        "stdout": "a7037d3cb43be55bc3c8ac561196b896e32ffc78c87765667ffe4eff601460f0",
    },
    "analyze_exact_zero_at_first_hole_rejected": {
        "stdout": "d23309c4ae5a18077dfa7324280f23ac5e61302b59eb3abf124b0a67e434a633",
    },
    "analyze_exact_far_member": {
        "stdout": "36836ed7d3026423bd01983851f896ea21ba55cb18b3f3c03d916277f27328fe",
    },
    "analyze_exact_locus_member": {
        "stdout": "c81d5a249455610f1a931199e6fea9052f8bcef84e03eb53902bb6b90f653949",
        "witness": "e569d88384914845daa5b9493278daac8f0b9db6d51c3faefd7b455e29d2829a",
    },
    "analyze_exact_dyadic_member": {
        "stdout": "113d486515159e3a8aa46d430c1788bccbc8a64abd7798b076394b61dfaeaa57",
    },
    "analyze_readme_fixture": {
        "stdout": "5986936c3bdd6b996114d7842c104c63fdafeea2c1e6dffc4d77a89cace2cce7",
        "witness": "a52e3faf8bd20a558c37d4f668b0a7f4f8c49da0d21d2430222130fc0264d45d",
    },
    "certify_readme_fixture": {
        "stdout": "36eef3b12f1ea3cbaa69dde0195b27c5fb35fb91968485f6ab682aebd97d6447",
    },
    "gen_fixed_seed": {
        "stdout": "7cd64b54bf8e7dec7df67755a088dcb9358e20c965495bc693cd05b5a99b8c7f",
    },
    "sweep_every_branch": {
        "stdout": "94bb0f34d412827461cbe50ba003a43d0af2419d3be462b0652b5825edbd871b",
    },
    "sweep_readme_template": {
        "stdout": "fe49b3ec7830197d301ebba75cc2bbe43b88c09b1a024a0e934703cba3f1cee5",
    },
}


def _run(argv) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue().encode()


def outputs(case: str, directory) -> dict[str, bytes]:
    """Run one pinned case in ``directory``; its outputs by name."""
    def write(name, doc):
        path = directory / name
        path.write_text(json.dumps(doc))
        return str(path)

    problem = write("fixture.json", README_FIXTURE)
    witness = directory / "witness.json"
    if case == "analyze_readme_fixture":
        code, stdout = _run(["analyze", problem, "--witness-out", str(witness)])
        assert code == 10
        return {"stdout": stdout, "witness": witness.read_bytes()}
    if case == "analyze_exact_locus_member":
        code, stdout = _run(["analyze", write("p.json", EXACT_LOCUS_MEMBER), "--exact",
                             "--witness-out", str(witness)])
        assert code == 10
        return {"stdout": stdout, "witness": witness.read_bytes()}
    if case == "certify_readme_fixture":
        assert _run(["analyze", problem, "--witness-out", str(witness)])[0] == 10
        code, stdout = _run(["certify", problem, str(witness)])
        assert code == 0
        return {"stdout": stdout}
    if case == "analyze_exact_float_member_rejected":
        code, member = _run(["gen", write("s.json", FLOAT_MEMBER_SPEC), "--seed", "5"])
        assert code == 0
        code, stdout = _run(["analyze", write("p.json", json.loads(member)), "--exact"])
        assert code == 2 and json.loads(stdout)["error"] == "input"
        return {"stdout": stdout}
    argv, expected = {
        "analyze_exact_dyadic_member": (["analyze", write("p.json", README_PROBLEM), "--exact"], 0),
        "analyze_exact_far_member": (["analyze", write("f.json", EXACT_FAR_MEMBER), "--exact"], 0),
        "analyze_exact_zero_at_first_hole_rejected":
            (["analyze", write("z.json", ZERO_AT_FIRST_HOLE), "--exact"], 2),
        "sweep_readme_template": (["sweep", write("t.json", README_TEMPLATE), "--param", "beta",
                                   "--range=-1:1:0.5"], 0),
        "sweep_every_branch": (["sweep", write("e.json", EVERY_BRANCH_TEMPLATE), "--param", "t",
                                "--range=-0.25:0.5:0.0125"], 0),
        "gen_fixed_seed": (["gen", write("s.json", GEN_SPEC), "--seed", "11"], 0),
    }[case]
    code, stdout = _run(argv)
    assert code == expected
    return {"stdout": stdout}


@pytest.mark.parametrize("case", sorted(PINS))
def test_output_bytes_are_pinned(case, tmp_path):
    digests = {name: hashlib.sha256(data).hexdigest()
               for name, data in outputs(case, tmp_path).items()}
    assert digests == PINS[case]
