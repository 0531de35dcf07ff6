import concurrent.futures
import contextlib
import csv
import io
import itertools
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardyball import cli, documents, extremality, model
from hardyball.cli import main

from _instances import EVERY_BRANCH_TEMPLATE, random_zeros


def write(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def problem_doc(numerator, holes=(2,), zeros=((0.0, 0.0),), **extra):
    doc = {
        "format_version": 1,
        "type": "problem",
        "holes": list(holes),
        "inner_zeros": [list(z) for z in zeros],
        "outer_numerator": [list(c) for c in numerator],
        "outer_denominator": [],
    }
    doc.update(extra)
    return doc


EXTREME_NUM = [[1.0, 0.0], [0.0, 0.0], [0.5, 0.0]]
NON_EXTREME_NUM = [[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]


class TestAnalyze:
    def test_extreme_exit_code_and_report(self, tmp_path, capsys):
        path = write(tmp_path / "p.json", problem_doc(EXTREME_NUM))
        assert main(["analyze", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"]["status"] == "extreme"
        assert report["verdict"]["rank"] == 2 == report["verdict"]["target_rank"]
        assert report["delta"]["status"] == "extreme"
        assert report["exposedness"]["status"] == "exposed"
        assert report["witness"] is None

    def test_non_extreme_attaches_witness(self, tmp_path, capsys):
        path = write(tmp_path / "p.json", problem_doc(NON_EXTREME_NUM))
        assert main(["analyze", path]) == 10
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"]["status"] == "non_extreme"
        assert report["witness"]["provenance"] == "kernel_path"
        assert report["witness_report"]["verifies"] is True

    def test_not_in_space_exit_2(self, tmp_path, capsys):
        doc = problem_doc([[1.0, 0.0]], holes=(3,), zeros=((0.5, 0.0),))
        path = write(tmp_path / "p.json", doc)
        assert main(["analyze", path]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["error"] == "not_in_space"
        table = report["membership"]["holes"]
        assert table[0]["k"] == 3
        # absolute residual 3/16 relative to max coefficient 3/4
        assert table[0]["residual"] * report["membership"]["max_coefficient"] == pytest.approx(3 / 16)

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["analyze", str(bad)]) == 2

    def test_deterministic_output(self, tmp_path, capsys):
        path = write(tmp_path / "p.json", problem_doc(EXTREME_NUM))
        main(["analyze", path])
        first = capsys.readouterr().out
        main(["analyze", path])
        assert capsys.readouterr().out == first

    def test_exact_backend_flag(self, tmp_path, capsys):
        path = write(tmp_path / "p.json", problem_doc(NON_EXTREME_NUM))
        assert main(["analyze", path, "--exact"]) == 10
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"]["backend"] == "exact"

    def test_exact_backend_handles_unnormalized_rational_member(self, tmp_path, capsys):
        # dyadic construction on the rank-drop locus: exactly a member as
        # rationals, but its *normalized* coefficients would not be; the exact
        # path must classify the raw data
        a, s, k = 0.5, 1.25, 4
        c_lo = 5 * s / 128
        c_hi_re, c_hi_im = 3 * s / 128, 4 * s / 128
        c_mid_re = (a * c_hi_re + a * c_lo) / s
        c_mid_im = a * c_hi_im / s
        profile = [[1.0, 0.0], [0.0, 0.0], [c_lo, 0.0],
                   [c_mid_re, c_mid_im], [c_hi_re, c_hi_im]]
        import numpy as np

        square = np.convolve([1.0, -a], [1.0, -a])
        num = np.convolve([complex(re, im) for re, im in profile], square)
        doc = problem_doc([[c.real, c.imag] for c in num], holes=(k,), zeros=((a, 0.0),))
        path = write(tmp_path / "p.json", doc)
        assert main(["analyze", path, "--exact"]) == 10
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"]["backend"] == "exact"
        assert report["verdict"]["rank"] == 1
        assert report["witness_report"]["verifies"] is True

    def test_borderline_exit_code(self, tmp_path, capsys):
        near_locus = [[1.0, 0.0], [0.0, 0.0], [1.0 + 3e-9, 0.0]]
        path = write(tmp_path / "p.json", problem_doc(near_locus))
        assert main(["analyze", path]) == 11
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"]["status"] == "borderline"

    def test_tol_rank_option_sets_the_cutoff(self, tmp_path, capsys, monkeypatch):
        # rank collapses under an absurd cutoff; the environment no longer sets one
        monkeypatch.setenv("HARDY_TOL_RANK", "0.99")
        assert main(["analyze", write(tmp_path / "p.json", problem_doc(EXTREME_NUM))]) == 0
        path = write(tmp_path / "q.json", problem_doc(EXTREME_NUM, options={"tol_rank": 0.99}))
        assert main(["analyze", path]) != 0

    def test_quad_option(self, tmp_path, capsys):
        path = write(tmp_path / "p.json", problem_doc(EXTREME_NUM, options={"tol_quad": 1e-8}))
        assert main(["analyze", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"]["status"] == "extreme"


class TestCertify:
    def test_round_trip(self, tmp_path, capsys):
        prob = write(tmp_path / "p.json", problem_doc(NON_EXTREME_NUM))
        wit = str(tmp_path / "w.json")
        assert main(["analyze", prob, "--witness-out", wit]) == 10
        capsys.readouterr()
        assert main(["certify", prob, wit]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verifies"] is True

    def test_tampered_epsilon_fails(self, tmp_path, capsys):
        prob = write(tmp_path / "p.json", problem_doc(NON_EXTREME_NUM))
        wit = tmp_path / "w.json"
        main(["analyze", prob, "--witness-out", str(wit)])
        capsys.readouterr()
        data = json.loads(wit.read_text())
        data["epsilon"] *= 2.0
        wit.write_text(json.dumps(data))
        assert main(["certify", prob, str(wit)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert not report["verifies"]
        assert any("positivity" in f for f in report["failures"])

    def test_certify_accepts_full_report_as_witness(self, tmp_path, capsys):
        prob = write(tmp_path / "p.json", problem_doc(NON_EXTREME_NUM))
        report_path = tmp_path / "report.json"
        main(["analyze", prob])
        report_path.write_text(capsys.readouterr().out)
        assert main(["certify", prob, str(report_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["type"] == "witness_report" and report["verifies"] is True

    def test_witness_against_wrong_problem_fails(self, tmp_path, capsys):
        prob = write(tmp_path / "p.json", problem_doc(NON_EXTREME_NUM))
        wit = str(tmp_path / "w.json")
        main(["analyze", prob, "--witness-out", wit])
        other = write(tmp_path / "q.json", problem_doc(NON_EXTREME_NUM, holes=(4,)))
        capsys.readouterr()
        assert main(["certify", other, wit]) == 1

    def test_parse_error_exit_2(self, tmp_path, capsys):
        prob = write(tmp_path / "p.json", problem_doc(NON_EXTREME_NUM))
        missing = str(tmp_path / "nope.json")
        assert main(["certify", prob, missing]) == 2


class TestSweep:
    def test_beta_sweep_finds_the_locus(self, tmp_path, capsys):
        template = problem_doc([[1.0, 0.0], [0.0, 0.0], ["beta", 0.0]])
        tpath = write(tmp_path / "t.json", template)
        out = tmp_path / "rows.csv"
        assert main(["sweep", tpath, "--param", "beta", "--range", "0:2:0.25",
                     "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9
        by_beta = {row["beta"]: row for row in rows}
        assert by_beta["1"]["status"] == "non_extreme"
        for beta in ("0", "0.25", "0.5", "0.75"):
            assert by_beta[beta]["status"] == "extreme"
        for beta in ("1.25", "1.5", "1.75", "2"):
            # declared outer factor is no longer outer: invalid factored input
            assert by_beta[beta]["status"].startswith("error:NotOuter")
        # delta column tracks 1 - beta^2 up to the (positive) normalization scale
        deltas = [float(by_beta[b]["delta"]) for b in ("0", "0.25", "0.5", "0.75", "1")]
        assert all(d > 0 for d in deltas[:-1])
        assert deltas == sorted(deltas, reverse=True)
        assert abs(deltas[-1]) < 1e-12

    def test_single_point_matches_analyze(self, tmp_path, capsys):
        template = problem_doc([[1.0, 0.0], [0.0, 0.0], ["beta", 0.0]])
        tpath = write(tmp_path / "t.json", template)
        assert main(["sweep", tpath, "--param", "beta", "--range", "0.5:0.5:1"]) == 0
        sweep_out = capsys.readouterr().out
        row = list(csv.DictReader(sweep_out.splitlines()))[0]

        ppath = write(tmp_path / "p.json", problem_doc(EXTREME_NUM))
        main(["analyze", ppath])
        report = json.loads(capsys.readouterr().out)
        assert row["status"] == report["verdict"]["status"]
        assert int(row["rank"]) == report["verdict"]["rank"]
        assert float(row["delta"]) == pytest.approx(report["delta"]["value"], rel=1e-9)

    def test_non_member_rows_skipped(self, tmp_path, capsys):
        template = problem_doc([[1.0, 0.0], ["c", 0.0]], holes=(3,), zeros=((0.5, 0.0),))
        tpath = write(tmp_path / "t.json", template)
        assert main(["sweep", tpath, "--param", "c", "--range", "0:0.4:0.2"]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert all(row["status"] == "skip" for row in rows)

    def test_parameter_mismatch_rejected(self, tmp_path, capsys):
        template = problem_doc([[1.0, 0.0], ["c", 0.0]])
        tpath = write(tmp_path / "t.json", template)
        assert main(["sweep", tpath, "--param", "zeta", "--range", "0:1:0.5"]) == 2

    def test_disk_grid_over_inner_zero(self, tmp_path, capsys):
        # sweeping the inner zero moves most grid points out of the space
        # (the hole coefficient depends on the zero); the origin stays a
        # member and sits exactly on the rank-drop locus for F = 1 + z^2
        template = problem_doc(NON_EXTREME_NUM, zeros=([["a_re", "a_im"]]))
        template["inner_zeros"] = [["a_re", "a_im"]]
        tpath = write(tmp_path / "t.json", template)
        assert main(["sweep", tpath,
                     "--param", "a_re", "--range=-0.2:0.2:0.2",
                     "--param", "a_im", "--range=-0.2:0.2:0.2"]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert len(rows) == 9
        by_point = {(row["a_re"], row["a_im"]): row for row in rows}
        assert by_point[("0", "0")]["status"] == "non_extreme"
        skips = sum(1 for row in rows if row["status"] == "skip")
        assert skips == 8

    def test_borderline_rows_flagged(self, tmp_path, capsys):
        template = problem_doc([[1.0, 0.0], [0.0, 0.0], ["beta", 0.0]])
        tpath = write(tmp_path / "t.json", template)
        lo = 1.0 + 3e-9
        assert main(["sweep", tpath, "--param", "beta",
                     "--range", f"{lo}:{lo}:1"]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert rows[0]["status"] == "borderline"

    def test_parallel_jobs_preserve_order(self, tmp_path):
        template = problem_doc([[1.0, 0.0], [0.0, 0.0], ["beta", 0.0]])
        tpath = write(tmp_path / "t.json", template)
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        assert main(["sweep", tpath, "--param", "beta", "--range", "0:1:0.25",
                     "--out", str(serial)]) == 0
        assert main(["sweep", tpath, "--param", "beta", "--range", "0:1:0.25",
                     "--jobs", "2", "--out", str(parallel)]) == 0
        assert serial.read_text() == parallel.read_text()

    def test_first_point_does_not_decide_the_sweep(self, tmp_path, capsys):
        # beta = 0 puts a double root at the origin: not outer, wherever it falls in the grid
        template = problem_doc([["beta", 0.0], [0.0, 0.0], [1.0, 0.0]], holes=(3,))
        tpath = write(tmp_path / "t.json", template)
        rows = {}
        for spec in ("0:2:0.5", "-2:0:0.5"):
            assert main(["sweep", tpath, "--param", "beta", f"--range={spec}"]) == 0
            out, err = capsys.readouterr()
            assert err == ""
            lines = out.splitlines()
            assert len(lines) == 6
            rows[spec] = next(line for line in lines if line.startswith("0,"))
        assert rows["0:2:0.5"] == rows["-2:0:0.5"] == "0,error:NotOuterError,,,"

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_is_a_parse_error(self, jobs, tmp_path, capsys):
        tpath = write(tmp_path / "t.json", problem_doc([[1.0, 0.0], [0.0, 0.0], ["beta", 0.0]]))
        assert main(["sweep", tpath, "--param", "beta", "--range", "0:1:0.5",
                     f"--jobs={jobs}"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        report = json.loads(err)
        assert report["error"] == "parse" and "--jobs" in report["message"]

    @pytest.mark.parametrize("jobs, cpus, workers", [
        pytest.param("64", 8, [3], id="no-more-workers-than-rows"),
        pytest.param("64", 2, [2], id="no-more-workers-than-processors"),
        pytest.param("2", 8, [2], id="fewer-jobs-than-rows-and-processors"),
        pytest.param("4", 1, [], id="one-processor-runs-in-process"),
        pytest.param("1", 8, [], id="one-job-runs-in-process"),
    ])
    def test_pool_is_sized_to_the_rows_and_the_machine(self, jobs, cpus, workers, tmp_path,
                                                       capsys, monkeypatch):
        started = []

        class RecordingExecutor:
            """Runs the rows in this process; never forks."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        tpath = write(tmp_path / "t.json", problem_doc([[1.0, 0.0], [0.0, 0.0], ["beta", 0.0]]))
        assert main(["sweep", tpath, "--param", "beta", "--range", "0:0.5:0.25",
                     "--jobs", jobs]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4
        assert started == workers


def test_sweep_memory_grows_with_neither_rows_nor_the_hole(tmp_path):
    # f = 1 + t z with the hole 4000: every row is an extreme member; 1000 rows of 4001
    # Taylor terms are 4 * 10^6 complex values, 244 times the stacked-row budget
    import tracemalloc

    template = write(tmp_path / "t.json",
                     problem_doc([[1.0, 0.0], ["t", 0.0]], holes=(4000,), zeros=()))

    def peak(spec):
        argv = ["sweep", template, "--param", "t", f"--range={spec}",
                "--out", str(tmp_path / "rows.csv")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # 100 and 1000 rows over the same t, whose circle means all take the same small grids
    few, many = peak("0:0.099:0.001"), peak("0:0.0999:0.0001")
    rows = list(csv.DictReader((tmp_path / "rows.csv").read_text().splitlines()))
    assert len(rows) == 1000 and {row["status"] for row in rows} == {"extreme"}
    # the CSV rows themselves are kept until written: well under 1 KB each
    assert many < few + 2 ** 20
    assert many < 4 * 2 ** 20


def per_row_sweep_csv(template, names, specs):
    """The sweep CSV as it was made when every row parsed its own problem document."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(list(names) + ["status", "rank", "delta", "min_singular_value"])
    ranges = [[a + i * step for i in range(int(count))]
              for a, step, count in map(cli._parse_range, specs)]
    for values in itertools.product(*ranges):
        row = [documents.format_float(v) for v in values]
        try:
            with np.errstate(all="ignore"):
                problem = documents.parse_problem(
                    cli._substitute(template, dict(zip(names, values))), source="<sweep>")
                f, space, tol = problem.function, problem.space, problem.tolerances
                membership = model.check_membership(f.taylor(space.k_max), space, tol)
                if not membership.passed:
                    writer.writerow(row + ["skip", "", "", ""])
                    continue
                f, _ = model.normalize(f, tol)
                verdict = extremality.decide_extreme(f, space, tol, membership=membership)
                delta = ""
                if space.size == 1 and verdict.condition_a.m == 1:
                    delta = documents.format_float(
                        extremality.single_hole_delta(f, space.holes[0], tol).delta)
                sigmas = verdict.singular_values
                min_sigma = documents.format_float(float(sigmas.min())) if sigmas.size else ""
                writer.writerow(row + [verdict.status, str(verdict.rank), delta, min_sigma])
        except Exception as exc:
            cause = exc.__cause__ or exc
            writer.writerow(row + [f"error:{type(cause).__name__}", "", "", ""])
    return out.getvalue()


# template, swept names, their ranges, and statuses that some rows must have
PARSED_ONCE = {
    # an outer pole, a nonzero inner zero, a non-unit constant; roots near and on the
    # circle, a degree drop at t = 0, extreme rows and one non-extreme row
    "every_branch": (EVERY_BRANCH_TEMPLATE, ("t",), ("-0.25:0.5:0.0125",),
                     ["error:NotOuterError", "non_extreme"]),
    "inner_constant": (
        problem_doc([[1.0, 0.0], [0.0, 0.0], ["beta", "gamma"]], inner_constant=[0.6, -0.8]),
        ("beta", "gamma"), ("-0.5:1.5:0.25", "0:0.5:0.25"), ["error:NotOuterError"]),
    "inner_zero": (
        problem_doc(NON_EXTREME_NUM, zeros=(["a_re", "a_im"],), inner_constant=[0.0, 1.0]),
        ("a_re", "a_im"), ("-0.5:1:0.25", "-0.25:0.25:0.25"), ["error:ValueError"]),
    # f = z (1 + z^2 / 4) / ((1 - conj(b) z)(1 - conj(c) z)) has f_2 = 0 where c = -b
    "denominator": (
        problem_doc([[1.0, 0.0], [0.0, 0.0], [0.25, 0.0]],
                    outer_denominator=[["b", 0.1], ["c", -0.1]]),
        ("b", "c"), ("-1.25:1.25:0.3125",) * 2, ["error:PoleMarginError", "skip"]),
    # -t / 1e-200 overflows for |t| >= 2e108: that row's root find fails, and so does the
    # stacked eigvals of every row cut to the same shape, which then find their own
    "root_finder_failure": (
        problem_doc([["t", 0.0], [0.0, 0.0], [1e-200, 0.0]], holes=(3,)),
        ("t",), ("-4e108:4e108:1e108",), ["error:LinAlgError"]),
    "not_outer": (
        problem_doc([["c", 0.5], [1.0, 0.0], [0.0, 0.0]], holes=(3,), zeros=()),
        ("c",), ("-2:2:0.25",), ["error:NotOuterError"]),
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("name", sorted(PARSED_ONCE))
def test_parsed_template_rows_match_per_row_parsing(name, jobs, tmp_path):
    template, names, specs, errors = PARSED_ONCE[name]
    out = tmp_path / "rows.csv"
    argv = ["sweep", write(tmp_path / "t.json", template), "--jobs", jobs, "--out", str(out)]
    for param, spec in zip(names, specs):
        argv += ["--param", param, f"--range={spec}"]
    assert main(argv) == 0
    expected = per_row_sweep_csv(template, names, specs)
    assert out.read_bytes() == expected.encode()
    statuses = {row["status"] for row in csv.DictReader(expected.splitlines())}
    assert set(errors) <= statuses and statuses - set(errors)


GEN_SPEC = {
    "format_version": 1,
    "type": "gen_spec",
    "holes": [2],
    "inner_zeros": [[0.0, 0.0]],
    "outer_denominator": [],
    "numerator_degree": 3,
}


@pytest.mark.parametrize("command, flags, message", [
    # tolerances come only from the problem's options
    pytest.param("analyze", ["--tol-rank", "1e-8"], "unrecognized arguments: --tol-rank 1e-8",
                 id="analyze-tol-rank"),
    pytest.param("analyze", ["--grid", "4096"], "unrecognized arguments: --grid 4096",
                 id="analyze-grid"),
    pytest.param("analyze", ["--bogus", "1"], "unrecognized arguments: --bogus 1",
                 id="analyze-unknown-flag"),
    pytest.param("certify", [], "the following arguments are required: witness",
                 id="certify-missing-witness"),
    pytest.param("sweep", ["--jobs", "x"], "argument --jobs: invalid int value: 'x'",
                 id="sweep-jobs-not-an-integer"),
    pytest.param("gen", ["--seed", "1.5"], "argument --seed: invalid int value: '1.5'",
                 id="gen-seed-not-an-integer"),
])
def test_usage_error_is_a_parse_document(command, flags, message, tmp_path, capsys):
    doc = problem_doc(NON_EXTREME_NUM) if command != "gen" else GEN_SPEC
    path = write(tmp_path / "doc.json", doc)
    assert main([command, path, *flags]) == 2
    out, err = capsys.readouterr()
    # analyze and certify report on stdout, sweep and gen (whose stdout is data) on stderr
    stream, other = (out, err) if command in ("analyze", "certify") else (err, out)
    assert other == ""
    report = json.loads(stream)
    assert report["type"] == "error" and report["error"] == "parse"
    assert report["message"].endswith(message)


def test_help_is_unchanged(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["analyze", "--help"])
    assert exit_.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: hardyball analyze")
    assert "--exact" in out and "--tol-rank" not in out and "--grid" not in out


def test_command_is_looked_up_per_call(tmp_path, capsys, monkeypatch):
    # the parser is built once per process, so it must not hold the command functions:
    # a command replaced on the module after the first call is the one the next call runs
    path = write(tmp_path / "p.json", problem_doc(EXTREME_NUM))
    assert main(["analyze", path]) == 0
    calls = []
    monkeypatch.setattr(cli, "cmd_analyze", lambda args: calls.append(args.problem) or 7)
    assert main(["analyze", path]) == 7
    assert calls == [path]


def test_usage_error_leaves_no_parser_state(tmp_path, capsys):
    path = write(tmp_path / "p.json", problem_doc(NON_EXTREME_NUM))
    witness = tmp_path / "w.json"
    assert main(["analyze", path]) == 10
    first = capsys.readouterr().out
    # the error comes after --exact and a witness path were parsed
    assert main(["analyze", path, "--exact", "--witness-out", str(witness), "--bogus"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "parse"
    assert main(["analyze", path]) == 10
    assert capsys.readouterr().out == first
    assert json.loads(first)["verdict"]["backend"] == "svd" and not witness.exists()


@pytest.mark.parametrize("command", ["analyze", "certify"])
def test_quadrature_non_convergence_is_a_numerics_error(command, tmp_path, capsys):
    # no circle mean of 1 + z^2 (roots on the circle) stabilises to 1e-30
    prob = write(tmp_path / "p.json", problem_doc(NON_EXTREME_NUM, options={"tol_quad": 1e-30}))
    wit = write(tmp_path / "w.json", {
        "format_version": 1, "type": "witness", "provenance": "kernel_path",
        "symmetric_order": 1, "coefficient_vector": [0.0, 0.0, 1.0], "phi2_zeros": [],
        "epsilon": 0.25, "recenter_c": 0.0,
    })
    argv = ["analyze", prob] if command == "analyze" else ["certify", prob, wit]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err == ""
    report = json.loads(out)
    assert report["type"] == "error" and report["error"] == "numerics"
    assert "did not stabilise" in report["message"]


def test_subnormal_norm_is_a_numerics_error(tmp_path, capsys):
    # 1 / 5e-324 overflows: the normalized factor cannot be represented
    prob = write(tmp_path / "p.json", problem_doc([[5e-324, 0.0]], holes=(), zeros=()))
    assert main(["analyze", prob]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["type"] == "error" and report["error"] == "numerics"
    assert "scale" in report["message"]


def test_double_circle_root_is_outer(tmp_path, capsys):
    # (1 + z)^2 (1 - z/2) in the space without z^2: np.roots splits the root -1
    prob = write(tmp_path / "p.json", problem_doc([[1.0, 0.0], [1.5, 0.0], [0.0, 0.0],
                                                   [-0.5, 0.0]], zeros=()))
    assert main(["analyze", prob]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"]["status"] == "extreme"
    exposedness = report["exposedness"]
    assert exposedness["status"] == "unknown"
    assert len(exposedness["circle_roots"]) == 2
    assert exposedness["circle_roots"][0] == exposedness["circle_roots"][1]
    assert exposedness["circle_roots"][0] == pytest.approx([-1.0, 0.0], abs=1e-15)


# the argvN ids are those the cases had when the environment was a third channel
@pytest.mark.parametrize("argv, options", [
    # the removed flags are usage errors whatever value they carry
    pytest.param(["--tol-rank", "nan"], None, id="argv0-None-None-None"),
    pytest.param(["--tol-rank", "inf"], None, id="argv1-None-None-None"),
    pytest.param(["--tol-rank", "0"], None, id="argv2-None-None-None"),
    pytest.param(["--tol-rank=-1e-8"], None, id="argv3-None-None-None"),
    pytest.param([], {"tol_rank": 0}, id="argv8-None-None-options8"),
    pytest.param([], {"tol_quad": -1e-10}, id="argv9-None-None-options9"),
    pytest.param([], {"tol_membership": -1.0}, id="argv10-None-None-options10"),
    pytest.param(["--grid", "8"], None, id="argv11-None-None-None"),
    pytest.param(["--grid", "1000"], None, id="argv12-None-None-None"),
    pytest.param(["--grid", str(2 ** 20)], None, id="argv13-None-None-None"),
    pytest.param(["--grid", str(2 ** 21)], None, id="argv14-None-None-None"),
    pytest.param(["--grid=-16"], None, id="argv15-None-None-None"),
    *(pytest.param([], options, id="{}={}".format(*next(iter(options.items()))))
      for options in ({"tol_rank": float("nan")}, {"tol_rank": float("inf")},
                      {"tol_rank": -1e-8}, {"tol_quad": -1}, {"tol_quad": float("inf")},
                      {"tol_delta": 0.0})),
])
def test_tolerance_values_must_be_finite_and_positive(argv, options, tmp_path, capsys):
    # the extreme fixture: a tolerance of nan, inf, 0 or below would turn it
    # non-extreme or send the quadrature to its grid cap
    extra = {"options": options} if options else {}
    prob = write(tmp_path / "p.json", problem_doc(EXTREME_NUM, **extra))
    assert main(["analyze", prob, *argv]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["type"] == "error" and report["error"] == "parse"
    if options:
        assert "options." + next(iter(options)) in report["message"]
    else:
        assert report["message"].endswith("unrecognized arguments: " + " ".join(argv))


@pytest.fixture
def expansions(monkeypatch):
    """(up_to, parameter count) of every Taylor recurrence run while a test runs, one entry
    per row of a stacked recurrence."""
    import sys

    from hardyball import series

    original, calls = series.expand, []

    def counting(numerator, parameters, up_to, ring=complex):
        rows = len(numerator) if np.ndim(numerator) == 2 else 1
        calls.extend([(up_to, len(parameters))] * rows)
        return original(numerator, parameters, up_to, ring)

    for name, module in list(sys.modules.items()):
        if name.startswith("hardyball") and getattr(module, "expand", None) is original:
            monkeypatch.setattr(module, "expand", counting)
    return calls


def test_analyze_runs_one_recurrence_per_operator(tmp_path, capsys, expansions):
    # z + 0.5 z^3 in the space with holes {2, 4}: extreme, so no witness is built
    prob = write(tmp_path / "p.json", problem_doc(EXTREME_NUM, holes=(2, 4)))
    assert main(["analyze", prob]) == 0
    # f / P_0 = f (one pole: the zero) for the report, f / P_1 (a double pole) for the matrix
    assert expansions == [(4, 1), (4, 2)]


def test_one_hole_sweep_row_runs_two_recurrences(tmp_path, capsys, expansions):
    template = write(tmp_path / "t.json", problem_doc([[1.0, 0.0], [0.0, 0.0], ["beta", 0.0]]))
    assert main(["sweep", template, "--param", "beta", "--range", "0:0.5:0.25"]) == 0
    assert [row.split(",")[1:3] for row in capsys.readouterr().out.splitlines()[1:]] == \
        [["extreme", "2"]] * 3
    # per row: membership (f) and the criterion weights (f / P_1), which the single-hole
    # determinant reads too
    assert expansions == [(2, 1)] * 3 + [(2, 2)] * 3


@pytest.fixture
def root_finds(monkeypatch):
    """Degree of every numerator root find made while a test runs, one entry per row of a
    stacked root find (every root find, numerator_roots' included, is one)."""
    from hardyball import model

    original, calls = model._roots_rows, []

    def counting(coefficients):
        roots = original(coefficients)
        calls.extend(len(r) for r in roots)
        return roots

    monkeypatch.setattr(model, "_roots_rows", counting)
    return calls


@pytest.mark.parametrize("command, finds", [("analyze", 1), ("certify", 1), ("sweep", 3)])
def test_one_root_find_per_outer_factor(command, finds, tmp_path, capsys, root_finds):
    # the outer factor finds its roots when it is built, and normalizing,
    # the exposedness gate and the witness checks reuse them
    if command == "analyze":
        # 1 + z^2 with hole {1}: extreme, with circle roots +-i
        prob = write(tmp_path / "p.json", problem_doc([[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
                                                      holes=(1,), zeros=()))
        assert main(["analyze", prob]) == 0
        assert len(json.loads(capsys.readouterr().out)["exposedness"]["circle_roots"]) == 2
    elif command == "certify":
        prob = write(tmp_path / "p.json", problem_doc(NON_EXTREME_NUM))
        wit = str(tmp_path / "w.json")
        assert main(["analyze", prob, "--witness-out", wit]) == 10
        del root_finds[:]
        assert main(["certify", prob, wit]) == 0
    else:
        # three rows that all pass membership, one root find each; the template's schema
        # is checked on the first point without building its function
        template = write(tmp_path / "t.json", problem_doc([[1.0, 0.0], [0.0, 0.0], ["beta", 0.0]]))
        assert main(["sweep", template, "--param", "beta", "--range", "0:0.5:0.25"]) == 0
        assert [row.split(",")[1] for row in capsys.readouterr().out.splitlines()[1:]] == \
            ["extreme"] * 3
    assert len(root_finds) == finds


def test_clustered_zeros_near_the_circle_get_a_verdict(tmp_path, capsys):
    # three inner zeros of modulus 0.99 within 0.02 rad: the coefficients of
    # f / P_3 reach ~1e7 while f's stay below 1, so f read back as
    # P_3 * (f / P_3) would carry rounding far above the membership tolerance
    zeros = [[0.99 * np.cos(t), 0.99 * np.sin(t)] for t in (0.3, 0.31, 0.32)]
    spec = write(tmp_path / "s.json", dict(GEN_SPEC, holes=[500], inner_zeros=zeros))
    assert main(["gen", spec, "--seed", "3"]) == 0
    member = tmp_path / "member.json"
    member.write_text(capsys.readouterr().out)
    assert main(["analyze", str(member)]) in (0, 10, 11)
    report = json.loads(capsys.readouterr().out)
    assert report["type"] == "analysis_report" and report["membership"]["passed"]


def test_zeros_near_the_circle_reach_a_verdict(tmp_path, capsys):
    # the two halves of P_n for these 40 zeros (modulus <= 0.999) differ by
    # more than 1e-12 relative, so the canonical vector must not demand symmetry
    zeros = random_zeros(np.random.default_rng(6), 40, max_modulus=0.999)
    path = write(tmp_path / "p.json",
                 problem_doc([[1.0, 0.0]], holes=(), zeros=[(a.real, a.imag) for a in zeros]))
    assert main(["analyze", path]) == 10
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"]["canonical_alignment"] == pytest.approx(1.0)
    assert report["witness_report"]["verifies"]


# non-extreme by degree overflow (one inner zero, no holes), no circle roots
OVERFLOW_PROBLEM = problem_doc([[1.0, 0.0]], holes=(), zeros=((0.5, 0.0),))


@pytest.mark.parametrize("case, kind", [
    ("gen_negative_degree", "parse"),
    ("gen_zero_outside_disk", "parse"),
    ("gen_pole_inside_disk", "parse"),
    ("gen_hole_too_large", "parse"),
    ("analyze_hole_too_large", "parse"),
    ("analyze_witness_out_unwritable", "io"),
    ("sweep_out_unwritable", "io"),
    ("sweep_range_not_a_number", "parse"),
    ("sweep_range_nan", "parse"),
    ("sweep_range_inf", "parse"),
    ("sweep_range_count_overflows", "parse"),
    ("sweep_range_too_many_points", "parse"),
    ("sweep_product_too_many_rows", "parse"),
    ("sweep_template_field_not_a_list", "parse"),
    ("analyze_int_too_large_for_a_float", "parse"),
    ("analyze_infinite_coefficient", "parse"),
    ("analyze_evaluation_overflow", "numerics"),
    ("analyze_root_finding_failure", "numerics"),
])
def test_no_traceback(case, kind, tmp_path, capsys):
    missing = tmp_path / "missing"  # a directory that does not exist
    doc = write(tmp_path / "doc.json", {
        "gen_negative_degree": dict(GEN_SPEC, numerator_degree=-1),
        "gen_zero_outside_disk": dict(GEN_SPEC, inner_zeros=[[1.5, 0.0]]),
        "gen_pole_inside_disk": dict(GEN_SPEC, outer_denominator=[[2.0, 0.0]]),
        # the Taylor expansion to 10^12 would not fit in memory: refused as it is parsed
        "gen_hole_too_large": dict(GEN_SPEC, holes=[3, 10 ** 12]),
        "analyze_hole_too_large": problem_doc([[1.0, 0.0]], holes=(2, 10 ** 12)),
        "analyze_int_too_large_for_a_float": problem_doc([[10 ** 400, 0]], holes=()),
        "analyze_infinite_coefficient": problem_doc([[float("inf"), 0]], holes=()),
        # |F| overflows on the circle; np.roots fails on the companion matrix
        "analyze_evaluation_overflow": problem_doc([[1e308, 0], [1e308, 0]], zeros=()),
        "analyze_root_finding_failure": problem_doc([[1e308, 0], [0, 0], [1e-308, 0]], zeros=()),
        "analyze_witness_out_unwritable": OVERFLOW_PROBLEM,
        "sweep_product_too_many_rows": problem_doc([[1.0, 0.0], [0.0, 0.0], ["beta", "gamma"]]),
        "sweep_template_field_not_a_list": dict(
            problem_doc([[1.0, 0.0], [0.0, 0.0], ["beta", 0.0]]), inner_zeros=1e300),
    }.get(case, problem_doc([[1.0, 0.0], [0.0, 0.0], ["beta", 0.0]])))
    sweep = ["sweep", doc, "--param", "beta", "--range"]
    argv = {
        "analyze_witness_out_unwritable":
            ["analyze", doc, "--witness-out", str(missing / "w.json")],
        "sweep_out_unwritable": sweep + ["0:1:0.5", "--out", str(missing / "x.csv")],
        "sweep_range_not_a_number": sweep + ["0:x:0.25"],
        "sweep_range_nan": sweep + ["0:nan:0.25"],
        "sweep_range_inf": sweep + ["0:inf:0.25"],
        "sweep_template_field_not_a_list": sweep + ["0:1:0.5"],
        # more points than a float can count, and 10^12 points: refused before any row
        "sweep_range_count_overflows": sweep + ["0:1e308:1e-300"],
        "sweep_range_too_many_points": sweep + ["0:1:1e-12"],
        # 1001 x 1001 rows: each range is small, their product is not
        "sweep_product_too_many_rows": sweep + ["0:1000:1", "--param", "gamma", "--range",
                                                "0:1000:1"],
    }.get(case, [case.split("_")[0], doc])
    assert main(argv) == 2
    out, err = capsys.readouterr()
    stream, other = (out, err) if argv[0] in ("analyze", "certify") else (err, out)
    assert other == ""
    report = json.loads(stream)  # exactly one document: a report before it would not parse
    assert report["type"] == "error" and report["error"] == kind


# small well-formed documents with at most one field replaced by junk.  The
# numbers come from short lists: no outer numerator has a root on the circle,
# and no witness epsilon is large enough to make 1 +- epsilon*(h - c) change
# sign; such inputs are handled, but their circle means need large grids.
_JUNK = st.sampled_from([None, "x", True, [], {}, [0], [3, 2], [[1.0, 0.0]], 1e300, -1, 0,
                         float("inf"), float("nan"), 10 ** 400])
_NUMBER = st.sampled_from([0.0, 0.5, -0.5, 1.0, 2.0])
_PAIRS = st.lists(st.tuples(_NUMBER, _NUMBER).map(list), max_size=2)
_HOLES = st.lists(st.integers(1, 4), max_size=2, unique=True).map(sorted)


def _numerators(*bases):
    """The base numerators with each numeric coefficient scaled by 1, 1e300 or 1e-300.

    No base has a root on the circle, and scaling coefficients by different
    powers of 1e300 moves every root by such powers, so none lands on it.
    """
    def scale(drawn):
        base, factors = drawn
        return [[c * s if isinstance(c, float) else c for c in pair]
                for pair, s in zip(base, factors)]

    factors = st.lists(st.sampled_from([1.0, 1e300, 1e-300]), min_size=3, max_size=3)
    return st.tuples(st.sampled_from(bases), factors).map(scale)


def _document(kind, **fields):
    def corrupt(drawn):
        doc, junk = drawn
        return {"format_version": 1, "type": kind, **doc, **junk}

    junk = st.dictionaries(st.sampled_from(["type", *fields]), _JUNK, max_size=1)
    return st.tuples(st.fixed_dictionaries(fields), junk).map(corrupt)


_PROBLEMS = _document(
    "problem", holes=_HOLES, inner_zeros=_PAIRS,
    inner_constant=st.sampled_from([[1.0, 0.0], [0.0, 1.0]]),
    outer_numerator=_numerators([[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0], [0.5, 0.0]],
                                [[2.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]),
    outer_denominator=st.lists(st.tuples(_NUMBER, st.just(0.0)).map(list), max_size=1),
    options=st.dictionaries(st.just("tol_rank"), _NUMBER, max_size=1),
)
_WITNESSES = _document(
    "witness", provenance=st.sampled_from(["kernel_path", "degree_overflow_path"]),
    symmetric_order=st.just(1), coefficient_vector=st.lists(_NUMBER, min_size=3, max_size=3),
    phi2_zeros=_PAIRS, epsilon=st.sampled_from([0.0, 0.05, 0.1]), recenter_c=_NUMBER,
)
_GEN_SPECS = _document(
    "gen_spec", holes=_HOLES, inner_zeros=_PAIRS, outer_denominator=_PAIRS,
    numerator_degree=st.integers(0, 3),
)
# parameter values stay within [-0.5, 0.5], so no swept numerator has a circle root
_TEMPLATES = _document(
    "problem", holes=_HOLES, inner_zeros=_PAIRS,
    outer_numerator=_numerators([[1.0, 0.0], [0.0, 0.0], ["beta", 0.0]],
                                [[1.0, 0.0], ["beta", "gamma"]],
                                [["beta", 0.0], [1.0, 0.0]], [[1.0, 0.0]]),
    outer_denominator=st.lists(st.tuples(_NUMBER, st.just(0.0)).map(list), max_size=1),
    options=st.dictionaries(st.just("tol_rank"), _NUMBER, max_size=1),
)
_SWEEP_FLAGS = st.lists(st.tuples(
    st.sampled_from(["beta", "gamma", "delta"]),
    st.sampled_from(["0:0.5:0.25", "-0.5:0:0.5", "0.5:0.5:1", "0:0.5", "0:x:1", "1:0:1",
                     "0:1:0", "nan:0:1", "0:1e308:1e-300", "0:1:1e-12"]),
).map(lambda pair: ["--param", pair[0], f"--range={pair[1]}"]), max_size=2).map(
    lambda groups: sum(groups, []))


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    _PROBLEMS.map(lambda doc: ("analyze", doc, [])),
    _WITNESSES.map(lambda doc: ("certify", doc, [])),
    _GEN_SPECS.map(lambda doc: ("gen", doc, [])),
    st.tuples(st.just("sweep"), _TEMPLATES, _SWEEP_FLAGS),
))
def test_no_exception_escapes_main(tmp_path_factory, case):
    command, doc, flags = case
    directory = tmp_path_factory.mktemp("fuzz")
    path = write(directory / "doc.json", doc)
    argv = {
        "analyze": ["analyze", path],
        "certify": ["certify", write(directory / "p.json", OVERFLOW_PROBLEM), path],
        "gen": ["gen", path],
        "sweep": ["sweep", path, *flags],
    }[command]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3, 10, 11)
    if code in (2, 3):
        stream = out if command in ("analyze", "certify") else err
        assert json.loads(stream.getvalue())["type"] == "error"


class TestGen:
    def test_generated_document_analyzes_clean(self, tmp_path, capsys):
        spec = {
            "format_version": 1,
            "type": "gen_spec",
            "holes": [2],
            "inner_zeros": [[0.0, 0.0]],
            "outer_denominator": [],
            "numerator_degree": 3,
        }
        spath = write(tmp_path / "s.json", spec)
        assert main(["gen", spath, "--seed", "7"]) == 0
        doc = capsys.readouterr().out
        gen_path = tmp_path / "gen.json"
        gen_path.write_text(doc)
        code = main(["analyze", str(gen_path)])
        assert code in (0, 10, 11)

    def test_deterministic_per_seed(self, tmp_path, capsys):
        spec = {
            "format_version": 1,
            "type": "gen_spec",
            "holes": [3],
            "inner_zeros": [[0.2, 0.1]],
            "outer_denominator": [],
            "numerator_degree": 4,
        }
        spath = write(tmp_path / "s.json", spec)
        main(["gen", spath, "--seed", "42"])
        first = capsys.readouterr().out
        main(["gen", spath, "--seed", "42"])
        assert capsys.readouterr().out == first
        main(["gen", spath, "--seed", "43"])
        assert capsys.readouterr().out != first

    def test_infeasible_spec_exit_3(self, tmp_path, capsys):
        spec = {
            "format_version": 1,
            "type": "gen_spec",
            "holes": [1],
            "inner_zeros": [[0.0, 0.0]],
            "outer_denominator": [],
            "numerator_degree": 1,
        }
        spath = write(tmp_path / "s.json", spec)
        assert main(["gen", spath, "--seed", "7"]) == 3
