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
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import certificates, documents, extremality, model
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


def _template_placeholders(data: dict) -> set[str]:
    return {slot for field in _SWEPT_FIELDS if isinstance(data.get(field), list)
            for entry in data[field] if isinstance(entry, list)
            for slot in entry if isinstance(slot, str)}


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
def _sweep_point(template: dict, names: tuple[str, ...], values: tuple[float, ...]) -> list[str]:
    row = [documents.format_float(v) for v in values]
    try:
        problem = documents.parse_problem(
            _substitute(template, dict(zip(names, values))), source="<sweep>"
        )
        f, space, tol = problem.function, problem.space, problem.tolerances
        membership = model.check_membership(f.taylor(space.k_max), space, tol)
        if not membership.passed:
            return row + ["skip", "", "", ""]
        f, _ = model.normalize(f, tol)
        verdict = extremality.decide_extreme(f, space, tol, membership=membership)
        delta = ""
        if space.size == 1 and verdict.condition_a.m == 1:
            delta = documents.format_float(
                extremality.single_hole_delta(f, space.holes[0], tol).delta
            )
        sigmas = verdict.singular_values
        min_sigma = documents.format_float(float(sigmas.min())) if sigmas.size else ""
        return row + [verdict.status, str(verdict.rank), delta, min_sigma]
    except Exception as exc:
        cause = exc.__cause__ or exc
        return row + [f"error:{type(cause).__name__}", "", "", ""]


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
    placeholders = _template_placeholders(template)
    if set(names) != placeholders:
        raise DocumentError(
            args.template,
            f"template sweeps {sorted(placeholders)} but parameters are {sorted(names)}",
        )
    # the schema is the same at every point; the values of a point, the first
    # included, can still give an invalid function, which is an error row
    documents.check_problem(
        _substitute(template, {n: vals[0] for n, vals in zip(names, ranges)}),
        source=args.template,
    )

    combos = list(itertools.product(*ranges))
    # the pool forks every worker up front, so it is sized to the work and the machine
    workers = min(args.jobs, len(combos), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(
                _sweep_point, itertools.repeat(template), itertools.repeat(names), combos,
            ))
    else:
        rows = [_sweep_point(template, names, combo) for combo in combos]

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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hardyball",
        description="Decide extremality of punctured-space functions, with checkable certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="classify a problem file and emit a full report")
    p.add_argument("problem")
    p.add_argument("--exact", action="store_true", help="use the exact-arithmetic rank backend")
    p.add_argument("--witness-out", default=None, help="write the witness document here")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("certify", help="re-verify a witness against a problem, trusting neither")
    p.add_argument("problem")
    p.add_argument("witness")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("sweep", help="evaluate a parametrized template over a grid, emit CSV")
    p.add_argument("template")
    p.add_argument("--param", action="append", help="swept parameter name (repeatable)")
    p.add_argument("--range", action="append", help="a:b:step for the matching --param")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gen", help="generate a random member problem document")
    p.add_argument("spec")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen)
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
        # overflow turns into a non-finite value, which the checks report as a
        # numerics error; numpy's own warnings would only add noise on stderr
        with np.errstate(all="ignore"):
            return args.func(args)
    except tuple(cls for cls, _, _ in _ERRORS) as exc:
        kind, code = next((kind, code) for cls, kind, code in _ERRORS if isinstance(exc, cls))
        # the command word comes first, so a usage error knows its stream too
        stream = sys.stdout if argv[:1] in (["analyze"], ["certify"]) else sys.stderr
        print(canonical_json(_error_report(kind, str(exc))), file=stream)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
