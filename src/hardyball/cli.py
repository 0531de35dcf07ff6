"""Command-line surface: analyze, certify, sweep, gen.

Exit codes: 0 extreme / verified, 10 non-extreme, 11 borderline, 1 failed
certificate.  Commands raise; :func:`main` alone maps an exception to one JSON
``error`` document on the command's error stream (stdout for analyze and
certify, stderr for sweep and gen, whose stdout is data):

    kind          exit  cause
    parse         2     malformed document or command line (DocumentError)
    input         2     well-formed input the pipeline rejects (ValueError)
    not_in_space  2     analyze: a hole coefficient is nonzero (with a residual table)
    numerics      2     circle quadrature hit its grid cap (QuadratureConvergenceError;
                        certify runs none),
                        a function is not finite on a grid node (EvaluationError),
                        the root finder failed (RootFindingError), the
                        normalized scale is not finite (NormalizationError), or
                        the Taylor coefficients overflow (ExpansionOverflowError)
    io            2     an output path cannot be written (OSError)
    generator     3     gen exhausted its retries (MaxRetriesExceededError)
    (none)        141   stdout was closed by its reader, as ``| head`` does
                        (BrokenPipeError): nothing more is written, as by a
                        writer that SIGPIPE ends (128 + 13)

A problem document's ``options`` are the only way to set a tolerance, so a
report depends on its documents and flags alone; ``gen`` uses the defaults.
Every tolerance must be a finite number > 0, a sweep has at most
:data:`MAX_SWEEP_ROWS` rows and ``--jobs`` must be >= 1.

A sweep builds no function, factor or rational per row, only its verdict.  It
puts each block of points (at most ``series.STACK_ELEMENTS`` Taylor coefficients)
into stacked arrays of the parsed template's zeros, numerator and poles, and
every stage, from the constructors' checks (two margin masks and the outer
numerator's rows, ``model._outer_rows``) to the SVD, runs once per group of rows
of one shape and gives each row the bytes it gets alone.  A row decides f
as given, its numerator scaled by a power of two, with no circle quadrature:
every decision is scale invariant, and so are the two numbers a row prints,
delta / (|c_{k-2}|^2 + |c_k|^2) and the verdict's ``rank_margin``, sigma_2m over
the rank rule's cutoff.  The points are drawn lazily and decided block by block,
each block's rows written before the next is drawn: at ``--jobs 1`` memory grows
with the value counts of the second and later parameters, which are held, not
with the rows.  ``--jobs N`` decides the blocks in a process pool, rows in order.
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
from .series import EvaluationError, ExpansionOverflowError, QuadratureConvergenceError

EXIT_EXTREME = 0
EXIT_CERTIFIED = 0
EXIT_FAILED_CERTIFICATE = 1
EXIT_INPUT_ERROR = 2
EXIT_GENERATOR_GAVE_UP = 3
EXIT_NON_EXTREME = 10
EXIT_BORDERLINE = 11
EXIT_BROKEN_PIPE = 141

_STATUS_EXIT = {EXTREME: EXIT_EXTREME, NON_EXTREME: EXIT_NON_EXTREME, BORDERLINE: EXIT_BORDERLINE}

MAX_SWEEP_ROWS = 10 ** 6


def _read_document(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
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
        return float(x) if math.isfinite(x) else None  # NaN and inf -> null

    return {
        "verifies": report.verifies,
        "h_variation": _f(report.h_variation),
        "positivity_margin": _f(report.positivity_margin),
        "positivity_nodes": report.positivity_nodes,
        "hole_residuals": [{"k": k, "residual": _f(r)} for k, r in report.hole_residuals],
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
    membership = model.check_membership(f.taylor(space.holes), space, tol)
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
            witness_report = certificates.verify_witness(normalized, space, witness, tol,
                                                         membership)
        except certificates.DegenerateKernelError as exc:
            # kernel collapsed onto the canonical vector: rank call was too close
            status = BORDERLINE
            witness_error = str(exc)

    delta = verdict.delta  # the svd verdict's, from its weights
    if delta is None and space.size == 1 and verdict.condition_a.m <= 1:
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
    report = certificates.verify_witness(problem.function, problem.space, witness,
                                         problem.tolerances)
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


# pool workers call it directly and do not inherit the error state main sets
@np.errstate(all="ignore")
def _decide_block(parsed: tuple, points: list[tuple[tuple, tuple]]) -> str:
    """The CSV text of one block of consecutive points (values and their CSV text), as cmd_sweep
    draws it.  The points' values fill the parsed template's slots, and the block stays stacked
    arrays, one row per point, through the checks of building its function, the membership
    expansion, the criterion weights of f as given (its numerator scaled by a power of two,
    exactly: every decision is scale invariant), their SVD (with one hole and inner degree 1, the
    determinant of the same weights) and the four tail columns.  Every stage gives each row the
    bits it gets alone; a row leaves at its skip or error, an expansion that overflows too."""
    space, tol, constant, fields, slots = parsed
    m = len(fields[0])
    zeros, numerator, poles = parts = [
        np.tile(np.array(field, dtype=complex), (len(points), 1)) for field in fields]
    for field, entry, part, j in slots:
        setattr(parts[field][:, entry], ("real", "imag")[part], [p[0][j] for p in points])
    if constant != 1:  # formed as parse_problem forms it
        numerator = series._product(constant, numerator)
    status, rank, ratio, margin = tails = np.full((4, len(points)), "", dtype=object)
    # the constructors' checks (zero margin, numerator, pole margin) are written last to first,
    # so a row keeps the name of the first that fails, the error its constructors raise
    failures = model._outer_rows(numerator)[0]
    failed = np.flatnonzero(np.not_equal(failures, None))
    status[series._outside(poles).any(axis=1)] = f"error:{series.PoleMarginError.__name__}"
    status[failed] = [f"error:{type(e.__cause__ or e).__name__}" for e in failures[failed]]
    status[series._outside(zeros).any(axis=1)] = "error:ValueError"
    live, overflow = np.flatnonzero(status == ""), f"error:{ExpansionOverflowError.__name__}"
    expansion = model._weights_rows(zeros[live], numerator[live], poles[live], space.holes)
    member = model._within(model._residuals(expansion)[1], tol.membership)
    finite = np.isfinite(expansion.scale)
    status[live[~member]] = "skip"
    status[live[~finite]] = overflow
    live = live[member & finite]
    weights = model._weights_rows(zeros[live], model._binary_scale(numerator[live]), poles[live],
                                  space.holes, 2 * m, m)
    verdicts = extremality._decide_rows(weights, space, m, tol)
    finite = np.isfinite(weights.scale)
    status[live[finite & ~verdicts.finite]] = "error:ValueError"  # a matrix that is not finite
    status[live[~finite]] = overflow
    decided = finite & verdicts.finite
    rows = live[decided]
    status[rows] = verdicts.status[decided]
    rank[rows] = verdicts.rank[decided].astype(str)
    ratio[rows] = _csv_floats(verdicts.delta.ratio[decided]) if verdicts.delta else ""
    margin[rows] = _csv_floats(verdicts.rank_margin[decided])
    # as csv.writer writes them: no field holds a comma, a quote or a line break
    return "".join([",".join(label + tail) + "\r\n"
                    for (_, label), tail in zip(points, zip(*tails.tolist()))])


def _csv_floats(values: np.ndarray) -> list[str]:
    """Each float as a sweep row prints it: as documents.format_float, empty if not finite."""
    return [format(x, ".17g") if math.isfinite(x) else "" for x in values.tolist()]


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
        raise DocumentError("--range", f"the sweep has {rows:.0f} rows, more than {MAX_SWEEP_ROWS}")
    if len(names) != len(specs):
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
        _substitute(template, {n: a for n, (a, _, _) in zip(names, specs)}), args.template)
    index = {name: j for j, name in enumerate(names)}  # a repeated name takes its last range
    parsed = (space, tol, constant, (zeros, numerator, denominator),
              tuple((f, i, part, index[name]) for f, i, part, name in slots))

    # the pool forks every worker up front, so it is sized to the work and the machine
    workers = min(args.jobs, int(rows), os.cpu_count() or 1)
    # a block holds at most STACK_ELEMENTS Taylor coefficients, or entries of the (rows, L, L)
    # root-finding arrays of an L-term numerator, and a small sweep gives every worker a block
    size = max(1, min(series.STACK_ELEMENTS // max(space.k_max + 1, len(numerator) ** 2),
                      math.ceil(rows / workers)))
    # each value is formatted once, and its text shared by the rows that hold it; the first
    # parameter's values are drawn a block's count at a time, and the others are held
    held = [[a + i * step for i in range(int(count))] for a, step, count in specs[1:]]
    texts = [[documents.format_float(v) for v in r] for r in held]
    first = (a + i * step for a, step, count in specs[:1] for i in range(int(count)))
    chunks = iter(lambda: list(itertools.islice(first, size)), [])
    points = itertools.chain.from_iterable(
        zip(itertools.product(c, *held), itertools.product(map(documents.format_float, c), *texts))
        for c in chunks) if specs else iter([((), ())])  # no parameter: one point
    blocks = iter(lambda: list(itertools.islice(points, size)), [])
    with contextlib.ExitStack() as stack:
        decide = map
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            # Executor.map takes every block up front: the parent holds the points, not the rows
            decide = stack.enter_context(ProcessPoolExecutor(max_workers=workers)).map
        out = stack.enter_context(open(args.out, "w", newline="")) if args.out else sys.stdout
        csv.writer(out).writerow(list(names) + ["status", "rank", "delta_ratio", "rank_margin"])
        for block in decide(functools.partial(_decide_block, parsed), blocks):
            out.write(block)
    return 0


def cmd_gen(args) -> int:
    if args.seed < 0:
        raise DocumentError("--seed", f"expected an integer >= 0, got {args.seed}")
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
    (ExpansionOverflowError, "numerics", EXIT_INPUT_ERROR),
    (model.MaxRetriesExceededError, "generator", EXIT_GENERATOR_GAVE_UP),
    (OSError, "io", EXIT_INPUT_ERROR),
    (ValueError, "input", EXIT_INPUT_ERROR),
)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        try:
            args = build_parser().parse_args(argv)
            # looked up per call, so a command replaced on this module (a wrapper, a stub) runs
            command = globals()[f"cmd_{args.command}"]
            # overflow turns into a non-finite value, which the checks report as a
            # numerics error; numpy's own warnings would only add noise on stderr
            with np.errstate(all="ignore"):
                code = command(args)
        except BrokenPipeError:  # an OSError, but no io error: the reader left
            raise
        except tuple(cls for cls, _, _ in _ERRORS) as exc:
            kind, code = next((kind, code) for cls, kind, code in _ERRORS if isinstance(exc, cls))
            # the command word comes first, so a usage error knows its stream too
            stream = sys.stdout if argv[:1] in (["analyze"], ["certify"]) else sys.stderr
            print(canonical_json(_error_report(kind, str(exc))), file=stream)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull, so the final flush writes nothing
        with contextlib.suppress(OSError, ValueError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    raise SystemExit(main())
