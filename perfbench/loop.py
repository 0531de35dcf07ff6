"""Closed-loop runner: one client sends one request at a time, in process.

Each request is ``hardyball.cli.main(argv)`` with stdout captured, under a
per-request time budget enforced with SIGALRM.  The first pass over the
workload's requests is a warm-up; its outputs are the references that every
later run of the same request must reproduce byte for byte.  The timed phase
then repeats whole passes (cycles) until ``seconds`` have elapsed.  With
tracing, untraced and traced cycles alternate, so the tracing overhead is
measured on the same inputs in the same run.

Usage (run.py starts it in a fresh interpreter):

    python3 perfbench/loop.py MANIFEST.json RESULT.json
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import hashlib
import io
import json
import os
import platform
import re
import resource
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BUDGET_S = 10.0  # per request; an overrun counts as a failure
WARMUP_CAP_S = 30.0  # the warm-up pass stops issuing requests after this long
OVERTIME_S = 20.0  # the timed phase stops issuing requests this long after ``seconds``
# Fixed, so the percentile does not move with throughput; at the benchmark's
# run length every workload has well over ten samples beyond it.
TAIL_PERCENTILE = 90.0


class Overrun(BaseException):
    """Raised by the alarm; a BaseException so the program's handlers let it through."""


def _alarm(signum, frame):
    raise Overrun()


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolation percentile of a non-empty list."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


@dataclass
class Phase:
    """Requests of one kind of cycle (warm-up, untraced or traced)."""

    cycles: int = 0
    attempted: int = 0
    failed: int = 0
    verdicts: int = 0
    busy_s: float = 0.0
    latencies_ms: list[float] = field(default_factory=list)
    by_key: dict[str, list[float]] = field(default_factory=dict)

    @property
    def verdicts_per_s(self) -> float:
        return self.verdicts / self.busy_s if self.busy_s else 0.0


def _semantic_failure(request: dict, stdout: str) -> str | None:
    """Compare one output with the outcome its input was built to have."""
    expect = request["expect"]
    command = request["argv"][0]
    if command == "sweep":
        rows = list(csv.DictReader(io.StringIO(stdout)))
        statuses = [row["status"] for row in rows]
        if statuses != expect["rows"]:
            bad = sum(a != b for a, b in zip(statuses, expect["rows"]))
            return f"{len(rows)} rows with {bad} unexpected statuses (expected {len(expect['rows'])})"
        if "rank" in expect and any(row["rank"] != expect["rank"] for row in rows):
            return f"a row has rank other than {expect['rank']}"
        return None
    report = json.loads(stdout)
    if command == "certify":
        return None if report.get("verifies") is True else f"witness fails: {report.get('failures')}"
    if "error" in expect:
        got = report.get("error")
        return None if got == expect["error"] else f"error {got!r}, expected {expect['error']!r}"
    verdict = report.get("verdict") or {}
    checks = [
        ("status", verdict.get("status")),
        ("provenance", (report.get("witness") or {}).get("provenance")),
        ("exposedness", (report.get("exposedness") or {}).get("status")),
    ]
    for key, got in checks:
        if key in expect and got != expect[key]:
            return f"{key} {got!r}, expected {expect[key]!r}"
    return None


class Loop:
    def __init__(self, tracer, budget_s: float = BUDGET_S):
        from hardyball import cli

        self.cli = cli  # looked up per call, so a tracer's wrapper of main is seen
        self.budget_s = budget_s
        self.tracer = tracer
        self.max_grid: dict[str, float] = {}  # largest quadrature grid per request, traced
        self.class_self_ns: dict[str, dict[str, int]] = {}  # input class -> span -> self ns
        self.reference: dict[str, tuple[str, str | None]] = {}  # key -> (digest, failure)
        self.failures: list[str] = []

    def _call(self, argv: list[str]) -> tuple[int | None, str, float, str | None]:
        buf = io.StringIO()
        code, error = None, None
        start = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, self.budget_s)
            try:
                with contextlib.redirect_stdout(buf):
                    code = self.cli.main(argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except Overrun:
            error = f"overran the {self.budget_s:g} s budget"
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            error = "traceback: " + traceback.format_exc().strip().splitlines()[-1]
        return code, buf.getvalue(), time.perf_counter() - start, error

    def execute(self, request: dict, phase: Phase) -> None:
        witness = request.get("witness")
        if witness:
            Path(witness).unlink(missing_ok=True)
        traced = self.tracer.installed
        before = dict(self.tracer.self_ns) if traced else None
        code, stdout, seconds, error = self._call(request["argv"])
        if traced:
            grid = self.tracer.counters.pop("request.max_grid", 0.0)
            self.max_grid[request["key"]] = max(self.max_grid.get(request["key"], 0.0), grid)
            spent = self.class_self_ns.setdefault(request["key"].split(".", 1)[0], {})
            for name, ns in self.tracer.self_ns.items():
                spent[name] = spent.get(name, 0) + ns - before.get(name, 0)
        failure = error
        if failure is None and code != request["expect"]["exit"]:
            failure = f"exit {code}, expected {request['expect']['exit']}"
        if failure is None:
            payload = stdout.encode()
            if witness:
                payload += Path(witness).read_bytes() if Path(witness).exists() else b"<none>"
            digest = hashlib.sha256(payload).hexdigest()
            known = self.reference.get(request["key"])
            if known is None:
                try:
                    semantic = _semantic_failure(request, stdout)
                except (ValueError, KeyError, TypeError, AttributeError) as exc:
                    semantic = f"unreadable output ({exc})"
                self.reference[request["key"]] = known = (digest, semantic)
            failure = known[1] if digest == known[0] else "stdout differs from an earlier run"
        phase.attempted += 1
        phase.busy_s += seconds
        phase.latencies_ms.append(seconds * 1e3)
        phase.by_key.setdefault(request["key"], []).append(seconds * 1e3)
        if failure is None:
            phase.verdicts += request["verdicts"]
        else:
            phase.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{request['key']}: {failure}")


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if it exports the query."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for lib in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            query = getattr(handle, name, None)
            if query is not None:
                query.restype = ctypes.c_int
                return int(query())
    return None


def run(requests: list[dict], seconds: float, trace: bool,
        budget_s: float = BUDGET_S) -> dict:
    """Warm up, then run whole cycles for ``seconds``; return the measured figures."""
    from tracing import Tracer, leftover_wrappers

    tracer = Tracer()
    loop = Loop(tracer, budget_s)
    previous = signal.signal(signal.SIGALRM, _alarm)
    warmup, untraced, traced = Phase(), Phase(), Phase()
    try:
        start = time.perf_counter()
        for request in requests:
            if time.perf_counter() - start > WARMUP_CAP_S:
                break
            loop.execute(request, warmup)

        hard_stop = seconds + OVERTIME_S
        start = time.perf_counter()
        cycle = 0
        while True:
            traced_cycle = trace and cycle % 2 == 1
            phase = traced if traced_cycle else untraced
            if traced_cycle:
                tracer.install()
            try:
                for request in requests:
                    if time.perf_counter() - start > hard_stop:
                        break
                    loop.execute(request, phase)
            finally:
                tracer.restore()
            phase.cycles += 1
            cycle += 1
            elapsed = time.perf_counter() - start
            if elapsed > hard_stop:
                break
            if elapsed >= seconds and (not trace or traced.cycles):
                break
    finally:
        signal.signal(signal.SIGALRM, previous)

    import numpy

    timed = [untraced, traced] if trace else [untraced]
    lat = untraced.latencies_ms
    result = {
        "attempted": sum(p.attempted for p in [warmup, *timed]),
        "failed": sum(p.failed for p in [warmup, *timed]),
        "failures": loop.failures,
        "cycles": {"untraced": untraced.cycles, "traced": traced.cycles},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas_threads": blas_threads(),
            "blas_env": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        },
        "verdicts_per_s": untraced.verdicts_per_s,
        "request_ms.p50": percentile(lat, 50.0),
        "request_ms.tail": percentile(lat, TAIL_PERCENTILE),
        "tail_percentile": TAIL_PERCENTILE,
        "samples": len(lat),
        "request_ms_by_key": {k: statistics.median(v) for k, v in untraced.by_key.items()},
    }
    if trace:
        leftovers = leftover_wrappers()
        if leftovers:
            raise RuntimeError(f"wrappers left installed: {leftovers}")
        result["layers"] = layer_metrics(tracer, max(traced.cycles, 1))
        result["layers"]["trace.verdicts_per_s.traced"] = traced.verdicts_per_s
        result["layers"]["trace.verdicts_per_s.untraced"] = untraced.verdicts_per_s
        result["max_grid_by_request"] = loop.max_grid
        result["self_s_by_class"] = {
            part: {name: ns / 1e9 for name, ns in sorted(spent.items(), key=lambda kv: -kv[1])}
            for part, spent in loop.class_self_ns.items()
        }
    return result


SPAN_STATS = {
    "series.converged_circle_mean": ("calls", "self_s"),
    "series.expand_rational": ("calls", "self_s"),
    "model.check_membership": ("calls", "self_s"),
    "extremality.criterion_coefficients": ("self_s",),
    "extremality.assemble_criterion_matrix": ("calls", "self_s"),
    "exactrank.exact_membership_defects": ("calls", "self_s"),
    "exactrank.exact_expand": ("calls", "self_s"),
    "exactrank.fraction_rank": ("calls", "self_s"),
    "exactrank.fraction_kernel": ("calls", "self_s"),
    "exactrank.exact_rank_of_criterion": ("calls", "self_s"),
    "model.numerator_roots": ("calls", "self_s"),
    "model.normalize": ("calls", "self_s"),
    "documents.parse_problem": ("calls", "self_s"),
    "documents.canonical_json": ("self_s",),
    "extremality.decide_extreme": ("calls", "self_s"),
    "extremality.numeric_rank": ("calls", "self_s"),
    "extremality.single_hole_delta": ("calls", "self_s"),
    "certificates.make_witness": ("calls", "self_s"),
    "certificates.verify_witness": ("calls", "self_s"),
    "certificates.check_exposed": ("calls", "self_s"),
}

# counters summed over the traced cycles and reported per cycle
PER_CYCLE_COUNTERS = (
    "series.converged_circle_mean.nodes",
    "series.expand_rational.terms",
    "extremality.assemble_criterion_matrix.entries",
    "exactrank.exact_expand.terms",
    "model.numerator_roots.degree_sum",
    "documents.canonical_json.bytes",
    "extremality.numeric_rank.borderline",
    "certificates.verify_witness.failures",
    "certificates.path.kernel",
    "certificates.path.degree_overflow",
    "cli.exit.0", "cli.exit.1", "cli.exit.2", "cli.exit.10", "cli.exit.11",
)


def layer_metrics(tracer, cycles: int) -> dict[str, float]:
    """Per-layer figures, per traced cycle so that they do not scale with throughput."""
    out: dict[str, float] = {}
    for name, stats in SPAN_STATS.items():
        if "calls" in stats:
            out[f"{name}.calls"] = tracer.calls.get(name, 0) / cycles
        if "self_s" in stats:
            out[f"{name}.self_s"] = tracer.self_s(name) / cycles
    for name in PER_CYCLE_COUNTERS:
        out[name] = tracer.counters.get(name, 0.0) / cycles
    out["series.converged_circle_mean.max_grid"] = tracer.counters.get(
        "series.converged_circle_mean.max_grid", 0.0)
    out["extremality.numeric_rank.margin_decades"] = tracer.counters.get(
        "extremality.numeric_rank.margin_decades", 0.0)
    for command in ("analyze", "certify", "sweep"):
        out[f"cli.{command}.ms.p50"] = tracer.median_ms(f"cli.cmd_{command}")
    for layer, seconds in tracer.layer_self_s().items():
        out[f"{layer}.self_s"] = seconds / cycles
    return out


def main(argv: list[str]) -> int:
    manifest = json.loads(Path(argv[0]).read_text())
    sys.path.insert(0, manifest["src"])
    result = run(manifest["requests"], manifest["seconds"], manifest["trace"])
    Path(argv[1]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
