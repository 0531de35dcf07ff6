import collections
import concurrent.futures
import contextlib
import csv
import io
import itertools
import json
import math
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

    def test_all_zero_numerator_is_a_parse_error(self, tmp_path, capsys):
        path = write(tmp_path / "p.json", problem_doc([[0.0, 0.0], [0.0, 0.0]]))
        assert main(["analyze", path]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["error"] == "parse"
        assert report["message"] == f"{path}: outer numerator must not be identically zero"

    def test_degenerate_kernel_escalates_to_borderline(self, tmp_path, capsys, monkeypatch):
        # a witness whose kernel collapses onto the canonical vector: the verdict is reported
        # borderline, with the constructor's message and no witness file
        from hardyball import certificates

        def degenerate(*args):
            raise certificates.DegenerateKernelError("every kernel vector is canonical")

        monkeypatch.setattr(certificates, "make_witness", degenerate)
        out = tmp_path / "w.json"
        path = write(tmp_path / "p.json", problem_doc(NON_EXTREME_NUM))
        assert main(["analyze", path, "--witness-out", str(out)]) == 11
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"]["status"] == "borderline"
        assert report["witness"] is None and report["witness_report"] is None
        assert report["witness_error"] == "every kernel vector is canonical"
        assert not out.exists()

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

    def test_overflowing_h_is_a_failed_certificate(self, tmp_path, capsys):
        # h = p / P_1 of this witness overflows: its non-finite numbers are reported as null
        prob = write(tmp_path / "p.json", problem_doc(EXTREME_NUM))
        wit = write(tmp_path / "w.json", {
            "format_version": 1, "type": "witness", "symmetric_order": 1,
            "coefficient_vector": [0, 1e308, 1e308], "epsilon": 1e-300, "recenter_c": 0,
            "phi2_zeros": [], "provenance": "kernel_path"})
        assert main(["certify", prob, wit]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["verifies"] is False and report["h_variation"] is None

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
        # delta_ratio is (1 - beta^2) / (1 + beta^2): scale free, in [-1, 1], falling to 0
        deltas = [float(by_beta[b]["delta_ratio"]) for b in ("0", "0.25", "0.5", "0.75", "1")]
        assert all(0 < d <= 1 for d in deltas[:-1])
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
        # the point's weights f / P_1 at the hole 2: c_0..c_2
        f = documents.parse_problem(problem_doc(EXTREME_NUM), source="p").function
        lo, _, hi = abs(f.taylor((2,), 2, first=1).windows[0]) ** 2
        assert float(row["delta_ratio"]) == pytest.approx((lo - hi) / (lo + hi), rel=1e-12)

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
    # each block's rows are written before the next block is drawn
    assert many < few + 2 ** 20
    assert many < 4 * 2 ** 20


def test_sweep_memory_does_not_grow_with_the_numerator_degree(tmp_path):
    # f = z (1 + t z^30) with the hole 2: every row is an extreme member, whose root find and
    # cluster pretest hold 31 x 31 arrays; 400 rows of them are 6 MB of complex values each,
    # so blocks are sized by the numerator's terms squared as well as by k_max
    import tracemalloc

    template = write(tmp_path / "t.json",
                     problem_doc([[1.0, 0.0]] + [[0.0, 0.0]] * 29 + [["t", 0.0]]))

    def peak(spec):
        argv = ["sweep", template, "--param", "t", f"--range={spec}",
                "--out", str(tmp_path / "rows.csv")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    few, many = peak("0:0.475:0.025"), peak("0:0.49875:0.00125")
    rows = list(csv.DictReader((tmp_path / "rows.csv").read_text().splitlines()))
    assert len(rows) == 400 and {row["status"] for row in rows} == {"extreme"}
    assert many < few + 2 ** 20


def test_sweep_memory_does_not_grow_with_the_row_count(tmp_path):
    # f = z (1 + beta z^2) / (1 - p z) with the hole 2: p from 1e-300 leaves every row an extreme
    # member; 200 betas by 10 and by 40 poles are 2000 and 8000 rows, several blocks of 1820, while
    # the value and text lists of the two ranges stay short
    import tracemalloc

    template = write(tmp_path / "t.json", problem_doc([[1.0, 0.0], [0.0, 0.0], ["beta", 0.0]],
                                                      outer_denominator=[["p", 0.0]]))

    def peak(poles):
        argv = ["sweep", template, "--param", "beta", "--range", "0:0.995:0.005",
                "--param", "p", f"--range=1e-300:{poles}e-300:1e-300",
                "--out", str(tmp_path / "rows.csv")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    few, many = peak(10), peak(40)
    rows = list(csv.DictReader((tmp_path / "rows.csv").read_text().splitlines()))
    assert len(rows) == 8000 and {row["status"] for row in rows} == {"extreme"}
    assert many < few + 2 ** 20


def test_one_parameter_sweep_memory_does_not_grow_with_the_row_count(tmp_path):
    # the beta line f = z (1 + beta z^2) with the hole 2, 2000 and 20000 rows, blocks of 1820:
    # the values of the one swept parameter are drawn a block's count at a time, not all held
    import tracemalloc

    template = write(tmp_path / "t.json", problem_doc([[1.0, 0.0], [0.0, 0.0], ["beta", 0.0]]))

    def peak(spec):
        argv = ["sweep", template, "--param", "beta", f"--range={spec}",
                "--out", str(tmp_path / "rows.csv")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    few, many = peak("0:0.9995:0.0005"), peak("0:0.99995:0.00005")
    rows = list(csv.DictReader((tmp_path / "rows.csv").read_text().splitlines()))
    assert len(rows) == 20000 and {row["status"] for row in rows} == {"extreme"}
    assert many < few + 2 ** 20


def test_a_closed_stdout_stops_the_sweep_at_its_first_block(tmp_path, monkeypatch):
    # 50 rows with the hole 4000 are 13 blocks of 4; the reader leaves after the header, so the
    # first block's rows fail to write and no further block is decided
    blocks, decide = [], cli._decide_block

    def counting(parsed, points):
        blocks.append(len(points))
        return decide(parsed, points)

    class ClosedAfterHeader(io.StringIO):
        def write(self, text):
            if self.getvalue():
                raise BrokenPipeError
            return super().write(text)

    monkeypatch.setattr(cli, "_decide_block", counting)
    template = write(tmp_path / "t.json",
                     problem_doc([[1.0, 0.0], ["t", 0.0]], holes=(4000,), zeros=()))
    stdout = ClosedAfterHeader()
    with contextlib.redirect_stdout(stdout):
        code = main(["sweep", template, "--param", "t", "--range", "0:0.049:0.001"])
    assert code == cli.EXIT_BROKEN_PIPE
    assert stdout.getvalue() == "t,status,rank,delta_ratio,rank_margin\r\n"
    assert blocks == [4]


def test_a_multi_block_sweep_writes_the_same_bytes_at_any_jobs(tmp_path):
    # the hole 4000 gives blocks of 4 points, so 50 rows are 13 blocks at --jobs 1 and, capped
    # at 25 points per worker, the same 13 at --jobs 2
    template = write(tmp_path / "t.json",
                     problem_doc([[1.0, 0.0], ["t", 0.0]], holes=(4000,), zeros=()))
    outs = {}
    for jobs in ("1", "2"):
        outs[jobs] = tmp_path / f"rows{jobs}.csv"
        assert main(["sweep", template, "--param", "t", "--range", "0:0.049:0.001",
                     "--jobs", jobs, "--out", str(outs[jobs])]) == 0
    text = outs["1"].read_text()
    assert len(text.splitlines()) == 51
    assert outs["2"].read_text() == text


def per_row_sweep_csv(template, names, specs):
    """The sweep CSV as it is made when every row parses its own problem document, checks
    its membership, scales its numerator by the power of two of verify_witness and decides."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(list(names) + ["status", "rank", "delta_ratio", "rank_margin"])
    ranges = [[a + i * step for i in range(int(count))]
              for a, step, count in map(cli._parse_range, specs)]
    for values in itertools.product(*ranges):
        row = [documents.format_float(v) for v in values]
        try:
            with np.errstate(all="ignore"):
                problem = documents.parse_problem(
                    cli._substitute(template, dict(zip(names, values))), source="<sweep>")
                f, space, tol = problem.function, problem.space, problem.tolerances
                membership = model.check_membership(f.taylor(space.holes), space, tol)
                if not membership.passed:
                    writer.writerow(row + ["skip", "", "", ""])
                    continue
                f = model.FactoredFunction(f.inner, f.outer.binary_scaled())
                verdict = extremality.decide_extreme(f, space, tol, membership=membership)
                m, sigmas = verdict.condition_a.m, verdict.singular_values
                ratio = margin = ""
                if space.size == 1 and m == 1:
                    ratio = extremality.single_hole_delta(f, space.holes[0], tol).ratio
                    ratio = documents.format_float(ratio) if np.isfinite(ratio) else ""
                if m and sigmas.size:
                    top = max(sigmas[0], f.taylor(space.holes, 2 * m, first=m).scale)
                    margin = sigmas[min(2 * m, sigmas.size) - 1] / (tol.rank * top)
                    margin = documents.format_float(margin) if np.isfinite(margin) else ""
                writer.writerow(row + [verdict.status, str(verdict.rank), ratio, margin])
        except Exception as exc:
            cause = exc.__cause__ or exc
            writer.writerow(row + [f"error:{type(cause).__name__}", "", "", ""])
    return out.getvalue()


def overflowing_member(scale):
    """The problem of a generated non-extreme member with holes {400}, its numerator times
    ``scale``: its Taylor coefficients overflow at 1.7e308."""
    space = model.PuncturedSpace((400,))
    doc = documents.problem_to_dict(space, model.sample_member(space, (0.99, 0.99j), (), 2, 1))
    doc["outer_numerator"] = [[part * scale for part in c] for c in doc["outer_numerator"]]
    return doc


OVERFLOWING_TEMPLATE = overflowing_member(1.7e308)
OVERFLOWING_TEMPLATE["inner_zeros"][0] = ["re", 0.0]
# a modulus below 1 that misses the margin 1 - POLE_MARGIN of zeros and poles
AT_MARGIN = 1 - 5e-10

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
    # f = c z: the numerator is identically zero at c = 0 only
    "zero_numerator": (
        problem_doc([["c", 0.0], [0.0, 0.0]]), ("c",), ("-1:1:0.5",), ["error:ValueError"]),
    # rows that fail two checks report the first the constructors run: a Blaschke zero
    # t = +-(1 - 5e-10) misses the margin 1e-9 before the root -s lies inside the disk, and
    # that root before the pole b misses the margin
    "zero_margin_then_not_outer": (
        problem_doc([["s", 0.0], [1.0, 0.0]], zeros=(["t", 0.0],)),
        ("t", "s"), (f"{-AT_MARGIN}:{AT_MARGIN}:{AT_MARGIN}", "-1.5:1.5:0.75"),
        ["error:ValueError", "error:NotOuterError"]),
    "not_outer_then_pole_margin": (
        problem_doc([["s", 0.0], [1.0, 0.0]], holes=(3,), zeros=(),
                    outer_denominator=[["b", 0.0]]),
        ("b", "s"), (f"{-AT_MARGIN}:{AT_MARGIN}:{AT_MARGIN}", "-1.5:1.5:0.75"),
        ["error:NotOuterError", "error:PoleMarginError"]),
    # f = c z / (1 - b z): the numerator c = 0 is identically zero, checked before the pole
    "zero_numerator_then_pole_margin": (
        problem_doc([["c", 0.0]], outer_denominator=[["b", 0.0]]),
        ("b", "c"), (f"{-AT_MARGIN}:{AT_MARGIN}:{AT_MARGIN}", "-1:1:0.5"),
        ["error:ValueError", "error:PoleMarginError"]),
    # the numerator of root_finder_failure under a Blaschke zero a: a zero that misses the
    # margin is checked before the numerator's root find fails
    "zero_margin_then_root_finder_failure": (
        problem_doc([["t", 0.0], [0.0, 0.0], [1e-200, 0.0]], holes=(3,), zeros=(["a", 0.0],)),
        ("a", "t"), (f"{-AT_MARGIN}:{AT_MARGIN}:{AT_MARGIN}", "-4e108:4e108:1e108"),
        ["error:ValueError", "error:LinAlgError"]),
    # the member of test_overflowing_coefficients_are_a_numerics_error with its first inner
    # zero swept: at 0.99 its expansion overflows, as analyze reports; at 1.99 the zero
    # misses the margin, which is checked first
    "expansion_overflow": (OVERFLOWING_TEMPLATE, ("re",), ("0.99:1.99:1",),
                           ["error:ExpansionOverflowError"]),
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


def test_sweep_rows_do_not_depend_on_the_scale_of_f(tmp_path, capsys):
    # the numerator and the swept range times 2^j: each row's numerator is the same up to an
    # exact power of two, which the sweep scales away, so every decided column is the same
    columns = []
    for j in (-600, 0, 600):
        template = json.loads(json.dumps(EVERY_BRANCH_TEMPLATE))
        template["outer_numerator"] = [[x * 2.0 ** j if isinstance(x, float) else x for x in c]
                                       for c in template["outer_numerator"]]
        lo, hi, step = (x * 2.0 ** j for x in (-0.25, 0.5, 0.0125))
        assert main(["sweep", write(tmp_path / "t.json", template), "--param", "t",
                     f"--range={lo!r}:{hi!r}:{step!r}"]) == 0
        columns.append([line.split(",")[1:] for line in capsys.readouterr().out.splitlines()])
    assert columns[0] == columns[1] == columns[2]
    assert {row[0] for row in columns[1][1:]} >= {"extreme", "non_extreme", "error:NotOuterError"}


def test_rank_margin_reads_the_rank_rule(tmp_path, capsys):
    # f = z (1 + beta z^3) with holes {2, 3}: 2M = 4 > 2m = 2, so the canonical kernel vector
    # makes the last singular value ~0, and the margin reads sigma_2, which is sigma_1
    template = problem_doc([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], ["beta", 0.0]], holes=(2, 3))
    argv = ["--param", "beta", "--range=-1:1:0.25"]
    assert main(["sweep", write(tmp_path / "t.json", template)] + argv) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert {row["status"] for row in rows} == {"extreme"}
    assert all(float(row["rank_margin"]) > 1 for row in rows)
    # a cutoff of a quarter of sigma_1 puts sigma_2 in the borderline decade
    template["options"] = {"tol_rank": 0.25}
    assert main(["sweep", write(tmp_path / "b.json", template)] + argv) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert {row["status"] for row in rows} == {"borderline"}
    assert all(0.1 <= float(row["rank_margin"]) <= 10 for row in rows)


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
    # analyze normalizes f, and no circle mean of |f| for f = z (z - 1.0000001), whose root
    # lies 1e-7 outside the circle, stabilises to 1e-30: a numerics error.  certify runs no
    # circle mean, so the same tolerance leaves the sine witness of z (1 + z^2) verified
    options = {"tol_quad": 1e-30}
    near_root = write(tmp_path / "n.json", problem_doc([[-1.0000001, 0.0], [1.0, 0.0]],
                                                       holes=(3,), options=options))
    prob = write(tmp_path / "p.json", problem_doc(NON_EXTREME_NUM, options=options))
    wit = write(tmp_path / "w.json", {
        "format_version": 1, "type": "witness", "provenance": "kernel_path",
        "symmetric_order": 1, "coefficient_vector": [0.0, 0.0, 1.0], "phi2_zeros": [],
        "epsilon": 0.25, "recenter_c": 0.0,
    })
    if command == "certify":
        assert main(["certify", prob, wit]) == 0
        assert json.loads(capsys.readouterr().out)["verifies"] is True
        return
    assert main(["analyze", near_root]) == 2
    out, err = capsys.readouterr()
    assert err == ""
    report = json.loads(out)
    assert report["type"] == "error" and report["error"] == "numerics"
    assert "did not stabilise" in report["message"]


@pytest.mark.parametrize("exponent", [1023, -1000])
def test_certify_does_not_depend_on_the_scale_of_f(exponent, tmp_path, capsys):
    # inner zeros 0.99 and 0.99i with the hole 400: F * G's coefficients run from 9e-14 to
    # 21 times F's largest part, so at F ~ 2^1023 they overflow and at 2^-1000 the small ones
    # round as subnormals, unless certify brings F to unit size first.  Scaling F by a power
    # of two is exact, so the unit-scale witness holds and certify reports the same bytes
    space = model.PuncturedSpace((400,))
    doc = documents.problem_to_dict(space, model.sample_member(space, (0.99, 0.99j), (), 2, 1))
    prob, wit = write(tmp_path / "p.json", doc), str(tmp_path / "w.json")
    assert main(["analyze", prob, "--witness-out", wit]) == 10
    assert json.loads(capsys.readouterr().out)["witness_report"]["verifies"] is True
    assert main(["certify", prob, wit]) == 0
    unit = capsys.readouterr().out
    doc["outer_numerator"] = [[np.ldexp(part, exponent) for part in c]
                              for c in doc["outer_numerator"]]
    assert main(["certify", write(tmp_path / "scaled.json", doc), wit]) == 0
    assert capsys.readouterr().out == unit


def test_member_near_the_float_limit_gets_a_verdict(tmp_path, capsys):
    # the member of the test above times 1e306: |f| stays finite on the circle, but the sum
    # behind a circle mean of |f| overflowed and no ladder settled; scaled by a power of two,
    # analyze and a sweep row of the same function reach the verdict of f at unit scale
    space = model.PuncturedSpace((400,))
    doc = documents.problem_to_dict(space, model.sample_member(space, (0.99, 0.99j), (), 2, 1))
    doc["outer_numerator"] = [[part * 1e306 for part in c] for c in doc["outer_numerator"]]
    assert main(["analyze", write(tmp_path / "p.json", doc)]) == 10
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"]["rank"] == 2 and report["witness_report"]["verifies"] is True
    doc["inner_zeros"][0] = ["re", 0.0]
    template = write(tmp_path / "t.json", doc)
    assert main(["sweep", template, "--param", "re", "--range", "0.99:0.99:1"]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [(row["status"], row["rank"]) for row in rows] == [("non_extreme", "2")]


def test_overflowing_coefficients_are_a_numerics_error(tmp_path, capsys):
    # the member above times 1.7e308: its coefficients are finite, but its expansion overflows
    space = model.PuncturedSpace((400,))
    doc = documents.problem_to_dict(space, model.sample_member(space, (0.99, 0.99j), (), 2, 1))
    doc["outer_numerator"] = [[part * 1.7e308 for part in c] for c in doc["outer_numerator"]]
    assert main(["analyze", write(tmp_path / "p.json", doc)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["type"] == "error" and report["error"] == "numerics"
    assert "Taylor coefficients overflow" in report["message"]


@pytest.mark.parametrize("command", ["analyze", "sweep", "analyze-error", "certify-error"])
def test_a_closed_stdout_ends_quietly(command, tmp_path):
    # the reader closes the pipe before anything is written, as `| head -c 300` may; an error
    # document (of an all-zero numerator) goes the way of a report
    import subprocess
    import sys
    from pathlib import Path

    import hardyball

    command, _, error = command.partition("-")
    numerator = ([[0.0, 0.0]] if error else [[1.0, 0.0], [0.0, 0.0], ["beta", 0.0]]
                 if command == "sweep" else NON_EXTREME_NUM)
    doc = write(tmp_path / "p.json", problem_doc(numerator))
    argv = [doc] + (["--param", "beta", "--range", "0:0.5:0.25"] if command == "sweep" else
                    [str(tmp_path / "w.json")] if command == "certify" else [])
    src = str(Path(hardyball.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen([sys.executable, "-m", "hardyball.cli", command, *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == cli.EXIT_BROKEN_PIPE
    assert b"Traceback" not in err and err == b""


def test_float_analyze_at_the_largest_hole_scans_only_heads(tmp_path, capsys, scans):
    # a generated member with holes {4, 10^6} and two inner zeros: non-extreme, so membership,
    # the criterion weights and the witness product F * G are all read at 10^6, and each
    # reads its tail bound off a head: no scan comes near the hole
    space = model.PuncturedSpace((4, documents.MAX_HOLE))
    member = model.sample_member(space, (0.6 + 0.2j, -0.5j), (0.4,), 3, 2)
    prob = write(tmp_path / "p.json", documents.problem_to_dict(space, member))
    del scans[:]
    assert main(["analyze", prob]) == 10
    report = json.loads(capsys.readouterr().out)
    assert report["witness_report"]["verifies"] is True
    assert report["membership"]["holes"][1] == {"k": documents.MAX_HOLE, "residual": 0}
    assert len(scans) >= 3 and max(n for _, n in scans) <= 1024
    assert sum(n for _, n in scans) < 10 ** 4


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


def test_single_hole_delta_reads_the_verdict_weights(tmp_path, capsys, expansions):
    # the README fixture z (1 + z^2) with hole {2}: f for membership, f / P_1 for the matrix
    # and the determinant, F * G for the witness; --exact expands f / P_1 in floats for delta
    prob = write(tmp_path / "p.json", problem_doc(NON_EXTREME_NUM))
    assert main(["analyze", prob]) == 10
    report = json.loads(capsys.readouterr().out)
    assert report["delta"] == {"status": "non_extreme", "value": 0}
    assert [k for k, _ in expansions] == [2, 2, 2]
    assert expansions[:2] == [(2, 1), (2, 2)]
    del expansions[:]
    assert main(["analyze", prob, "--exact"]) == 10
    assert json.loads(capsys.readouterr().out)["delta"] == report["delta"]
    assert expansions[-1] == (2, 2) and len(expansions) == 3


def test_analyze_delta_has_the_bits_of_the_scalar_formula(tmp_path, capsys):
    # one-hole members of inner degree 1: the verdict's stacked determinant test reports the
    # delta of abs(c) ** 2 on the windows of the normalized function, bit for bit
    from _instances import single_hole_member

    for seed in range(12):
        member, space = single_hole_member(seed)
        doc = documents.problem_to_dict(space, member)
        assert main(["analyze", write(tmp_path / "p.json", doc)]) in (0, 10, 11)
        report = json.loads(capsys.readouterr().out)
        problem = documents.parse_problem(doc, source="p.json")
        f, _ = model.normalize(problem.function, problem.tolerances)
        window = f.taylor(space.holes, 2, first=1).windows
        delta = abs(window[0, 0]) ** 2 - abs(window[0, 2]) ** 2
        assert report["delta"]["value"] == float(delta) != 0


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


@pytest.mark.parametrize("command, recurrences, means", [("analyze", 3, 1), ("certify", 2, 0)])
def test_certificate_runs_no_circle_mean(command, recurrences, means, tmp_path, capsys,
                                         expansions, circle_means):
    # z^2 (1 + z^2) with hole {3}: non-extreme by degree overflow (m = M + 1), so the witness
    # comes from the verdict's kernel.  analyze expands f (membership), f / P_2 (the matrix)
    # and F * G (the witness) and integrates |f| once, to normalize; certify expands f and
    # F * G and integrates nothing
    prob = write(tmp_path / "p.json", problem_doc(NON_EXTREME_NUM, holes=(3,),
                                                  zeros=((0.0, 0.0),) * 2))
    wit = str(tmp_path / "w.json")
    assert main(["analyze", prob, "--witness-out", wit]) == 10
    if command == "certify":
        capsys.readouterr()
        del expansions[:], circle_means[:]
        assert main(["certify", prob, wit]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report if command == "certify" else report["witness_report"])["verifies"] is True
    assert len(expansions) == recurrences and len(circle_means) == means


@pytest.fixture
def root_finds(monkeypatch):
    """Degree of every numerator root find made while a test runs, one entry per row of a
    stacked root find (every root find is one)."""
    from hardyball import model

    original, calls = model._roots_rows, []

    def counting(coefficients):
        found = original(coefficients)
        calls.extend(len(r) for _, roots in found for r in roots)
        return found

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


def sweep_rows(template, params, tmp_path, capsys):
    """The CSV rows of one sweep of a template over (name, spec) pairs."""
    argv = ["sweep", write(tmp_path / "t.json", template)]
    for name, spec in params:
        argv += ["--param", name, f"--range={spec}"]
    assert main(argv) == 0
    return capsys.readouterr().out.splitlines()[1:]


def assert_rows_are_the_points_swept_alone(template, names, rows, tmp_path, capsys):
    for row in rows:
        values = row.split(",")[:len(names)]
        assert sweep_rows(template, [(n, f"{v}:{v}:1") for n, v in zip(names, values)],
                          tmp_path, capsys) == [row]


def test_a_numerator_shared_by_every_row_is_one_root_find(tmp_path, capsys, root_finds):
    # the inner-zero grid of the benchmark: 441 rows of one numerator 1 + z^2 / 2 in one block
    template = problem_doc([[1.0, 0.0], [0.0, 0.0], [0.5, 0.0]], zeros=(["a_re", "a_im"],))
    spec = "-0.3125:0.3125:0.03125"
    rows = sweep_rows(template, [("a_re", spec), ("a_im", spec)], tmp_path, capsys)
    assert len(rows) == 441 and {row.split(",")[2] for row in rows} == {"skip", "extreme"}
    assert root_finds == [2]


def test_a_signed_zero_numerator_slot_is_its_own_root_find(tmp_path, capsys, root_finds):
    # the inner constant -1 times the slot (0, y) has the real part -0.0 - 0 y: 0.0 for y < 0
    # and -0.0 for y >= 0, so the block's numerators differ in a signed zero
    template = problem_doc([[1.0, 0.0], [0.0, 0.0], [0.0, "y"]], inner_constant=[-1.0, 0.0])
    rows = sweep_rows(template, [("y", "-1:1:0.25")], tmp_path, capsys)
    assert {math.copysign(1, -1.0 * 0.0 - 0.0 * float(row.split(",")[0])) for row in rows} \
        == {-1.0, 1.0}
    assert_rows_are_the_points_swept_alone(template, ["y"], rows, tmp_path, capsys)
    # rows that differ in the sign of a zero alone are two root finds, each row's roots its own
    del root_finds[:]
    numerators = np.array([[1.0, -0.0, 0.5], [1.0, 0.0, 0.5]], dtype=complex)
    _, stacked = model._outer_rows(numerators)
    assert root_finds == [2, 2]
    for roots, numerator in zip(stacked, numerators):
        assert roots.tobytes() == np.array(model.OuterRational(tuple(numerator)).roots).tobytes()


def test_a_block_of_every_tail_has_the_rows_of_its_points_alone(tmp_path, capsys):
    # f = B_a (s + b z^2) / (1 - p z) with hole {2}, 216 rows in one block: a = 1 misses the
    # zero margin, b > s = 1 puts roots inside the disk, p = 1.5 misses the pole margin, and
    # s = 1.7e308 overflows the expansion of f at a = -0.5, p = 0.75 (f_1 = 1.125 s; s / b
    # stays finite, so no root find fails and the block's numerator checks stay stacked).
    # f is a member at a = p = 0 (else a skip), where the matrix [[0, s + b, 0], [0, 0, s - b]]
    # at s = 1 is extreme, borderline at b = 0.99 ((1 - b) / (1 + b) within a decade of
    # tol_rank 0.001) and non-extreme at b = 1
    template = problem_doc([["s", 0.0], [0.0, 0.0], ["b", 0.0]], zeros=(["a", 0.0],),
                           outer_denominator=[["p", 0.0]], options={"tol_rank": 0.001})
    params = [("a", "-0.5:1:0.5"), ("s", "1:1.7e308:1.7e308"), ("b", "0.96:1.04:0.01"),
              ("p", "0:1.5:0.75")]
    rows = sweep_rows(template, params, tmp_path, capsys)
    assert len(rows) == 216
    assert {row.split(",")[4] for row in rows} == {
        "error:ValueError", "error:NotOuterError", "error:PoleMarginError",
        "error:ExpansionOverflowError", "skip", "extreme", "borderline", "non_extreme"}
    assert_rows_are_the_points_swept_alone(template, [n for n, _ in params], rows, tmp_path,
                                           capsys)


def test_sweep_builds_no_object_per_row(tmp_path, capsys, monkeypatch):
    # rows without circle roots, of inner zero a and an inner constant, members only at
    # a = 0: every stage runs on stacked arrays, so no row builds a factored function, a
    # factor or a rational, while analyze builds them
    from hardyball import series

    built = collections.Counter()
    for cls in (model.FactoredFunction, model.OuterRational, model.BlaschkeProduct,
                series.Rational):
        def counting(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
            built[_cls.__name__] += type(self) is _cls
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    template = write(tmp_path / "t.json", problem_doc(
        [[1.0, 0.0], [0.0, 0.0], ["beta", 0.0]], zeros=(["a", 0.0],),
        inner_constant=[0.6, 0.8]))
    assert main(["sweep", template, "--param", "beta", "--range", "0:0.9:0.1",
                 "--param", "a", "--range=-0.5:0.5:0.25"]) == 0
    statuses = [row.split(",")[2] for row in capsys.readouterr().out.splitlines()[1:]]
    assert len(statuses) == 50 and {"skip", "extreme"} <= set(statuses)
    assert sum(built.values()) == 0
    assert main(["analyze", write(tmp_path / "p.json", problem_doc(EXTREME_NUM))]) == 0
    assert built["FactoredFunction"] and built["OuterRational"] and built["Rational"]


def test_cli_import_leaves_the_heavy_modules_unloaded():
    # set-up time is an import of hardyball.cli: the process pool, the Gauss-Legendre nodes
    # and anything of scipy load on first use
    import subprocess
    import sys
    from pathlib import Path

    import hardyball

    src = str(Path(hardyball.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    heavy = ("concurrent.futures", "multiprocessing", "numpy.polynomial", "scipy")
    code = f"import sys, hardyball.cli; print([m for m in {heavy!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=60, check=True).stdout
    assert out.strip() == "[]"


@pytest.fixture
def rank_decisions(monkeypatch):
    """Row count of every call of the one float rank rule, extremality._decide_rows."""
    import sys

    original, calls = extremality._decide_rows, []

    def counting(weights, *args, **kwargs):
        calls.append(np.size(weights.scale))
        return original(weights, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("hardyball") and getattr(module, "_decide_rows", None) is original:
            monkeypatch.setattr(module, "_decide_rows", counting)
    return calls


@pytest.mark.parametrize("case, decisions", [("kernel", [1]), ("overflow", [1, 1]),
                                             ("sweep", [3])])
def test_every_float_verdict_comes_from_the_one_rank_rule(case, decisions, tmp_path, capsys,
                                                          rank_decisions):
    if case == "sweep":  # three rows in one stacked block
        template = write(tmp_path / "t.json", problem_doc([[1.0, 0.0], [0.0, 0.0], ["beta", 0.0]]))
        assert main(["sweep", template, "--param", "beta", "--range", "0:0.5:0.25"]) == 0
    else:
        # z (1 + z^2) with hole {2}: the witness reads the verdict's kernel.  z^3 (1 + z^2) with
        # hole {4} has m = 3 = M + 2, so its witness needs the order-2 operator's kernel too
        m, hole = (1, 2) if case == "kernel" else (3, 4)
        prob = write(tmp_path / "p.json", problem_doc(NON_EXTREME_NUM, holes=(hole,),
                                                      zeros=((0.0, 0.0),) * m))
        assert main(["analyze", prob]) == 10
        report = json.loads(capsys.readouterr().out)
        assert report["witness"]["provenance"] == ("kernel_path" if m == 1
                                                   else "degree_overflow_path")
        assert report["witness_report"]["verifies"] is True
    assert rank_decisions == decisions


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


@pytest.mark.parametrize("ranges, rows", [
    (["0:1000000:1"], "1000001"),
    (["0:1000:1", "0:1000:1"], "1002001"),
    (["-1e308:1e308:1e-300"], "inf"),  # more points than a float can count
])
def test_the_row_cap_names_the_whole_row_count(ranges, rows, tmp_path, capsys):
    template = problem_doc([[1.0, 0.0], [0.0, 0.0], ["beta", "gamma"]])
    argv = ["sweep", write(tmp_path / "t.json", template)]
    for name, spec in zip(("beta", "gamma"), ranges):
        argv += ["--param", name, f"--range={spec}"]
    assert main(argv) == 2
    message = json.loads(capsys.readouterr().err)["message"]
    assert message == f"--range: the sweep has {rows} rows, more than 1000000"


@pytest.mark.parametrize("case, message", [
    ("analyze_nested_too_deep", "not valid JSON"),
    ("sweep_nested_too_deep", "not valid JSON"),
    ("analyze_not_utf8", "cannot read file"),
    ("analyze_format_version_true", "unsupported format_version True"),
    ("gen_negative_seed", "--seed: expected an integer >= 0, got -5"),
])
def test_malformed_input_is_a_parse_error(case, message, tmp_path, capsys):
    path = tmp_path / "doc.json"
    if case.endswith("nested_too_deep"):
        path.write_text("[" * 10 ** 5 + "]" * 10 ** 5)
    elif case.endswith("not_utf8"):
        path.write_bytes(b"\xff\xfe")
    else:
        write(path, GEN_SPEC if case.startswith("gen") else
              dict(problem_doc(EXTREME_NUM), format_version=True))
    command = case.split("_")[0]
    argv = [command, str(path)] + {"sweep": ["--param", "beta", "--range", "0:1:0.5"],
                                   "gen": ["--seed", "-5"]}.get(command, [])
    assert main(argv) == 2
    out, err = capsys.readouterr()
    stream, other = (out, err) if command == "analyze" else (err, out)
    assert other == ""
    report = json.loads(stream)
    assert report["type"] == "error" and report["error"] == "parse"
    assert message in report["message"]
    assert command == "gen" or report["message"].startswith(str(path))


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
