"""Command-line surface: analyze, certify, sweep, gen.

Exit codes: 0 extreme / verified, 10 non-extreme, 11 borderline, 1 failed
certificate.  Commands raise; :func:`main` alone maps an exception to one JSON
``error`` document on the command's error stream (stdout for analyze and
certify, stderr for sweep and gen, whose stdout is data):

    kind          exit  cause
    parse         2     malformed document or command line (DocumentError)
    input         2     well-formed input the pipeline rejects (ValueError)
    not_in_space  2     analyze: a hole coefficient is nonzero (with a residual table)
    numerics      2     circle quadrature hit its grid cap (QuadratureConvergenceError),
                        a function is not finite on a grid node (EvaluationError),
                        the root finder failed (RootFindingError), or the
                        normalized scale is not finite (NormalizationError)
    io            2     an output path cannot be written (OSError)
    generator     3     gen exhausted its retries (MaxRetriesExceededError)

A problem document's ``options`` are the only way to set a tolerance, so a
report depends on its documents and flags alone; ``gen`` uses the defaults.
Every tolerance must be a finite number > 0, a sweep has at most
:data:`MAX_SWEEP_ROWS` rows and ``--jobs`` must be >= 1.

A sweep builds and checks each row's function on its own and decides its rows
in blocks of stacked arrays (at most ``series.STACK_ELEMENTS`` Taylor
coefficients a block): every stage, from root finding to the SVD, runs once
per group of rows of one shape and gives each row the bytes it gets alone.
With ``--jobs N`` each worker decides one contiguous share of the rows.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import itertools
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import certificates, documents, extremality, model, series
from .documents import DocumentError, canonical_json
from .extremality import BORDERLINE, EXTREME, NON_EXTREME
from .series import EvaluationError, QuadratureConvergenceError

EXIT_EXTREME = 0
EXIT_CERTIFIED = 0
EXIT_FAILED_CERTIFICATE = 1
EXIT_INPUT_ERROR = 2
EXIT_GENERATOR_GAVE_UP = 3
EXIT_NON_EXTREME = 10
EXIT_BORDERLINE = 11

_STATUS_EXIT = {EXTREME: EXIT_EXTREME, NON_EXTREME: EXIT_NON_EXTREME, BORDERLINE: EXIT_BORDERLINE}

MAX_SWEEP_ROWS = 10 ** 6


def _read_document(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DocumentError(path, f"cannot read file ({exc})") from exc
    return documents.load_json(text, source=path)


def _membership_dict(report: model.MembershipReport) -> dict:
    return {
        "passed": report.passed,
        "max_coefficient": float(report.max_coefficient),
        "holes": [
            {"k": k, "residual": float(r)} for k, r in zip(report.holes, report.residuals)
        ],
    }


def _witness_report_dict(report: certificates.WitnessReport) -> dict:
    def _f(x):
        return float(x) if x == x else None  # NaN -> null

    return {
        "verifies": report.verifies,
        "h_realness_residual": _f(report.h_realness_residual),
        "h_variation": _f(report.h_variation),
        "positivity_margin": _f(report.positivity_margin),
        "hole_residuals": [{"k": k, "residual": float(r)} for k, r in report.hole_residuals],
        "norm_f": _f(report.norm_f),
        "norm_plus": _f(report.norm_plus),
        "norm_minus": _f(report.norm_minus),
        "norm_plus_residual": _f(report.norm_plus_residual),
        "norm_minus_residual": _f(report.norm_minus_residual),
        "membership_plus": _membership_dict(report.membership_plus)
        if report.membership_plus else None,
        "membership_minus": _membership_dict(report.membership_minus)
        if report.membership_minus else None,
        "failures": list(report.failures),
    }


def _delta_dict(result: extremality.DeltaResult) -> dict:
    finite = result.delta == result.delta and abs(result.delta) != float("inf")
    return {
        "value": float(result.delta) if finite else "inf",
        "status": result.status,
    }


def _error_report(kind: str, message: str, extra: dict | None = None) -> dict:
    doc = {
        "format_version": documents.FORMAT_VERSION,
        "type": "error",
        "error": kind,
        "message": message,
    }
    if extra:
        doc.update(extra)
    return doc


def cmd_analyze(args) -> int:
    problem = documents.parse_problem(_read_document(args.problem), source=args.problem)
    f, space, tol = problem.function, problem.space, problem.tolerances
    membership = model.check_membership(f.taylor(space.k_max), space, tol)
    if not membership.passed:
        hole, residual = membership.worst()
        print(canonical_json(_error_report(
            "not_in_space",
            f"coefficient at hole {hole} has relative residual {residual:.3e}",
            {"membership": _membership_dict(membership)},
        )))
        return EXIT_INPUT_ERROR

    normalized, scale = model.normalize(f, tol)
    # the verdict is scale invariant; the exact backend must see the raw
    # coefficients (normalization rounds them off the rational member set)
    verdict = extremality.decide_extreme(
        f if args.exact else normalized, space, tol,
        backend="exact" if args.exact else "svd", membership=membership,
    )

    status = verdict.status
    witness = None
    witness_report = None
    witness_error = None
    if status == NON_EXTREME:
        try:
            witness = certificates.make_witness(normalized, space, verdict, tol)
            witness_report = certificates.verify_witness(normalized, space, witness, tol)
        except certificates.DegenerateKernelError as exc:
            # kernel collapsed onto the canonical vector: rank call was too close
            status = BORDERLINE
            witness_error = str(exc)

    delta = None
    if space.size == 1 and verdict.condition_a.m <= 1:
        delta = extremality.single_hole_delta(normalized, space.holes[0], tol)
    exposedness = certificates.check_exposed(normalized, verdict)

    report = {
        "format_version": documents.FORMAT_VERSION,
        "type": "analysis_report",
        "normalized_scale": float(scale),
        "membership": _membership_dict(membership),
        "verdict": {
            "status": status,
            "rank": verdict.rank,
            "target_rank": verdict.target_rank,
            "condition_a": {
                "holds": verdict.condition_a.holds,
                "inner_degree": verdict.condition_a.m,
                "hole_count": verdict.condition_a.M,
            },
            "singular_values": [float(s) for s in verdict.singular_values],
            "kernel_dimension": verdict.kernel_dimension,
            "canonical_alignment": extremality.kernel_alignment(verdict, f.inner.zeros),
            "backend": verdict.backend,
        },
        "delta": _delta_dict(delta) if delta is not None else None,
        "exposedness": {
            "status": exposedness.status,
            "circle_roots": [[float(r.real), float(r.imag)] for r in exposedness.circle_roots],
        },
        "witness": documents.witness_to_dict(witness) if witness else None,
        "witness_report": _witness_report_dict(witness_report) if witness_report else None,
    }
    if witness_error:
        report["witness_error"] = witness_error
    # written first, so an unwritable path leaves the error as the only output
    if args.witness_out and witness is not None:
        Path(args.witness_out).write_text(canonical_json(documents.witness_to_dict(witness)) + "\n")
    print(canonical_json(report))
    return _STATUS_EXIT[status]


def cmd_certify(args) -> int:
    problem = documents.parse_problem(_read_document(args.problem), source=args.problem)
    witness = documents.parse_witness(_read_document(args.witness), source=args.witness)
    tol = problem.tolerances
    normalized, _ = model.normalize(problem.function, tol)
    report = certificates.verify_witness(normalized, problem.space, witness, tol)
    doc = {"format_version": documents.FORMAT_VERSION, "type": "witness_report"}
    doc.update(_witness_report_dict(report))
    print(canonical_json(doc))
    return EXIT_CERTIFIED if report.verifies else EXIT_FAILED_CERTIFICATE


# the fields whose [re, im] slots a sweep template may fill with parameter names
_SWEPT_FIELDS = ("inner_zeros", "outer_numerator", "outer_denominator")


def _template_slots(data: dict) -> list[tuple[int, int, int, str]]:
    """(field, entry, part, name) of each [re, im] slot that holds a parameter name."""
    return [(f, i, part, slot) for f, field in enumerate(_SWEPT_FIELDS)
            if isinstance(data.get(field), list)
            for i, entry in enumerate(data[field]) if isinstance(entry, list)
            for part, slot in enumerate(entry) if isinstance(slot, str)]


def _substitute(data: dict, assignment: dict[str, float]) -> dict:
    """The template with its named slots filled; malformed fields are left for parsing to reject."""
    out = dict(data)
    for field in _SWEPT_FIELDS:
        if isinstance(out.get(field), list):
            out[field] = [[assignment.get(s, s) if isinstance(s, str) else s for s in entry]
                          if isinstance(entry, list) else entry for entry in out[field]]
    return out


# pool workers do not inherit the error state main sets
@np.errstate(all="ignore")
def _sweep_rows(parsed: tuple, combos: list[tuple[float, ...]]) -> list[list[str]]:
    """The CSV rows of consecutive points, decided in blocks of at most
    series.STACK_ELEMENTS Taylor coefficients, so memory grows with neither the point count
    nor k_max."""
    size = max(1, series.STACK_ELEMENTS // (parsed[0].k_max + 1))
    return [row for i in range(0, len(combos), size)
            for row in _decide_block(parsed, combos[i:i + size])]


def _decide_block(parsed: tuple, combos: list[tuple[float, ...]]) -> list[list[str]]:
    """Each point's values put into the parsed template's slots, then decided.

    Every row is built, and so checked, on its own.  The numerics run on stacked rows, one
    stage at a time, and give each row the bits it gets alone: root finding, the membership
    expansion, the L1 norm, the criterion weights and their SVD; with one hole and inner
    degree 1, the determinant reads the same weights.  A row leaves at its skip or error.
    """
    space, tol, constant, fields, slots = parsed
    m = len(fields[0])
    values = np.array(combos, dtype=float)  # (rows, parameters)
    zeros, numerator, denominator = parts = [
        np.tile(np.array(field, dtype=complex), (len(combos), 1)) for field in fields]
    for field, entry, part, j in slots:
        column = parts[field][:, entry]
        if part == 0:
            column.real = values[:, j]
        else:
            column.imag = values[:, j]
    if constant != 1:  # formed as build_function forms it
        numerator = series._product(constant, numerator)
    tails: list = [None] * len(combos)
    fs = {}
    for i, roots in enumerate(model._roots_rows(numerator)):
        try:
            fs[i] = documents.build_function(
                zeros[i].tolist(), 1, numerator[i].tolist(), denominator[i].tolist(), "<sweep>",
                None if isinstance(roots, Exception) else roots)  # a failed group: its own
        except Exception as exc:
            tails[i] = _error_tail(exc)
    if fs:
        _, residuals = model._residuals(model._weights_rows(list(fs.values()), space.k_max),
                                        space.holes)
        for i, passed in zip(list(fs), model._within(residuals, tol.membership)):
            if not passed:
                tails[i] = ["skip", "", "", ""]
                del fs[i]
    for i, f in zip(list(fs), model._normalize_rows(list(fs.values()), tol)):
        if isinstance(f, Exception):
            tails[i] = _error_tail(f)
            del fs[i]
        else:
            fs[i] = f
    if fs:
        weights = model._weights_rows(list(fs.values()), space.k_max, m)
        verdicts = extremality._decide_rows(weights, space, m, tol)
        for i, w, verdict in zip(fs, weights, verdicts):
            if isinstance(verdict, Exception):
                tails[i] = _error_tail(verdict)
                continue
            status, rank, sigmas = verdict
            try:
                delta = ""
                if space.size == 1 and m == 1:
                    delta = documents.format_float(
                        extremality._delta(w, space.holes[0], tol).delta)
                min_sigma = documents.format_float(float(sigmas.min())) if sigmas.size else ""
            except ValueError as exc:  # a delta whose squares overflow is not finite
                tails[i] = _error_tail(exc)
                continue
            tails[i] = [status, str(rank), delta, min_sigma]
    return [[documents.format_float(v) for v in point] + tail
            for point, tail in zip(combos, tails)]


def _error_tail(exc: Exception) -> list[str]:
    cause = exc.__cause__ or exc
    return [f"error:{type(cause).__name__}", "", "", ""]


def _parse_range(spec: str) -> tuple[float, float, float]:
    """(first point, step, point count) of an a:b:step spec; the count may be inf."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise DocumentError("--range", f"expected a:b:step, got {spec!r}")
    try:
        a, b, step = (float(p) for p in parts)
    except ValueError:
        raise DocumentError("--range", f"expected numbers a:b:step, got {spec!r}") from None
    if not np.isfinite([a, b, step]).all():
        raise DocumentError("--range", f"expected finite a, b and step in {spec!r}")
    if step <= 0 or b < a:
        raise DocumentError("--range", f"need a <= b and step > 0 in {spec!r}")
    return a, step, float(np.floor((b - a) / step + 1e-9)) + 1


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise DocumentError("--jobs", f"expected an integer >= 1, got {args.jobs}")
    template = _read_document(args.template)
    names = tuple(args.param or [])
    specs = [_parse_range(r) for r in (args.range or [])]
    rows = math.prod(count for _, _, count in specs)
    if not rows <= MAX_SWEEP_ROWS:  # an infinite point count fails too
        raise DocumentError("--range", f"the sweep has {rows:g} rows, more than {MAX_SWEEP_ROWS}")
    ranges = [[a + i * step for i in range(int(count))] for a, step, count in specs]
    if len(names) != len(ranges):
        raise DocumentError("--param/--range", "need one --range per --param")
    slots = _template_slots(template)
    placeholders = {name for *_, name in slots}
    if set(names) != placeholders:
        raise DocumentError(
            args.template,
            f"template sweeps {sorted(placeholders)} but parameters are {sorted(names)}",
        )
    # the schema is the same at every point, so it is checked once, on the first; a
    # point's values, the first included, can still give an invalid function: an error row
    space, zeros, constant, numerator, denominator, tol = documents.check_problem(
        _substitute(template, {n: vals[0] for n, vals in zip(names, ranges)}), args.template)
    index = {name: j for j, name in enumerate(names)}  # a repeated name takes its last range
    parsed = (space, tol, constant, (zeros, numerator, denominator),
              tuple((f, i, part, index[name]) for f, i, part, name in slots))

    combos = list(itertools.product(*ranges))
    # the pool forks every worker up front, so it is sized to the work and the machine
    workers = min(args.jobs, len(combos), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        # one contiguous share of the rows per worker
        shares = [combos[len(combos) * w // workers:len(combos) * (w + 1) // workers]
                  for w in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = [row for share in pool.map(_sweep_rows, itertools.repeat(parsed), shares)
                    for row in share]
    else:
        rows = _sweep_rows(parsed, combos)

    header = list(names) + ["status", "rank", "delta", "min_singular_value"]
    with open(args.out, "w", newline="") if args.out else contextlib.nullcontext(sys.stdout) as out:
        writer = csv.writer(out)
        writer.writerow(header)
        writer.writerows(rows)
    return 0


def cmd_gen(args) -> int:
    spec = documents.parse_gen_spec(_read_document(args.spec), source=args.spec)
    member = model.sample_member(spec.space, spec.inner_zeros, spec.denominator_parameters,
                                 spec.numerator_degree, args.seed)
    print(canonical_json(documents.problem_to_dict(spec.space, member)))
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise, so main reports them as one document."""

    def error(self, message):
        raise DocumentError(self.prog, message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; it binds no command function."""
    parser = _Parser(
        prog="hardyball",
        description="Decide extremality of punctured-space functions, with checkable certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="classify a problem file and emit a full report")
    p.add_argument("problem")
    p.add_argument("--exact", action="store_true", help="use the exact-arithmetic rank backend")
    p.add_argument("--witness-out", default=None, help="write the witness document here")

    p = sub.add_parser("certify", help="re-verify a witness against a problem, trusting neither")
    p.add_argument("problem")
    p.add_argument("witness")

    p = sub.add_parser("sweep", help="evaluate a parametrized template over a grid, emit CSV")
    p.add_argument("template")
    p.add_argument("--param", action="append", help="swept parameter name (repeatable)")
    p.add_argument("--range", action="append", help="a:b:step for the matching --param")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default=None, help="CSV output path (default: stdout)")

    p = sub.add_parser("gen", help="generate a random member problem document")
    p.add_argument("spec")
    p.add_argument("--seed", type=int, default=0)
    return parser


# exception -> (error kind, exit code); the first matching class wins, so
# DocumentError comes before its base class ValueError
_ERRORS = (
    (DocumentError, "parse", EXIT_INPUT_ERROR),
    (QuadratureConvergenceError, "numerics", EXIT_INPUT_ERROR),
    (EvaluationError, "numerics", EXIT_INPUT_ERROR),
    (model.RootFindingError, "numerics", EXIT_INPUT_ERROR),
    (model.NormalizationError, "numerics", EXIT_INPUT_ERROR),
    (model.MaxRetriesExceededError, "generator", EXIT_GENERATOR_GAVE_UP),
    (OSError, "io", EXIT_INPUT_ERROR),
    (ValueError, "input", EXIT_INPUT_ERROR),
)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
        # looked up per call, so a command replaced on this module (a wrapper, a stub) runs
        command = globals()[f"cmd_{args.command}"]
        # overflow turns into a non-finite value, which the checks report as a
        # numerics error; numpy's own warnings would only add noise on stderr
        with np.errstate(all="ignore"):
            return command(args)
    except tuple(cls for cls, _, _ in _ERRORS) as exc:
        kind, code = next((kind, code) for cls, kind, code in _ERRORS if isinstance(exc, cls))
        # the command word comes first, so a usage error knows its stream too
        stream = sys.stdout if argv[:1] in (["analyze"], ["certify"]) else sys.stderr
        print(canonical_json(_error_report(kind, str(exc))), file=stream)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
