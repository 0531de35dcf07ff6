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

PINS = {
    "analyze_exact_dyadic_member": {
        "stdout": "113d486515159e3a8aa46d430c1788bccbc8a64abd7798b076394b61dfaeaa57",
    },
    "analyze_readme_fixture": {
        "stdout": "bc6c9f3f627fa40a6f0d9d1641a791e25dc0cfcdd8ccd450cff69998c25238ba",
        "witness": "e850614304a5b801cc1aee5103a2310a22b889d03855b3f2672a52715e31e654",
    },
    "certify_readme_fixture": {
        "stdout": "213e01da3bacc50ad4e22df553d15884e6b675f281ced044da74a9845773664e",
    },
    "gen_fixed_seed": {
        "stdout": "0b5451e2886191a6962e92685a1f5f33dbd2a40991391655c4f65908d2a8c0c0",
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
    if case == "certify_readme_fixture":
        assert _run(["analyze", problem, "--witness-out", str(witness)])[0] == 10
        code, stdout = _run(["certify", problem, str(witness)])
        assert code == 0
        return {"stdout": stdout}
    argv, expected = {
        "analyze_exact_dyadic_member": (["analyze", write("p.json", README_PROBLEM), "--exact"], 0),
        "sweep_readme_template": (["sweep", write("t.json", README_TEMPLATE), "--param", "beta",
                                   "--range=-1:1:0.5"], 0),
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
