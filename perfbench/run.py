"""hardyball benchmark: workloads driven through the CLI, end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload analyze_certify --seed 1 --seconds 50 --trace 0

The run writes the workload's input documents (made from the seed) under
``.perfbench/``, measures set-up time as the median wall time of fresh
interpreters importing ``hardyball.cli``, and then runs the workload as a
closed loop in a fresh child interpreter with BLAS fixed to one thread
(perfbench/loop.py).  Every output is checked against the outcome its input
was built to have (perfbench/inputs.py).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
reports the per-layer metrics, recorded by wrapping the package's public
functions from outside (perfbench/tracing.py).  The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The lines
before it give each metric with its unit, the failed share, the tail
percentile with its sample count, and the provenance of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)  # before numpy loads, here and in every child

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 160.0


def _child_env() -> dict:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup() -> list[float]:
    """Wall time of fresh interpreters that import hardyball.cli, one per sample.

    The wait blocks without a timeout (a timed wait polls in steps of up to
    50 ms, which would quantize the figure); a timer kills a hung import.
    """
    times = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", "import hardyball.cli"],
                                env=_child_env(), cwd=ROOT)
        watchdog = threading.Timer(60.0, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"importing hardyball.cli exited with {code}")
    return times


def machine() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {"nproc": os.cpu_count(), "affinity": affinity, "cpu_model": model or platform.processor(),
            "platform": platform.platform()}


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv):
    from inputs import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_child(manifest: dict, workdir: Path) -> dict:
    manifest_path = workdir / "manifest.json"
    result_path = workdir / "result.json"
    manifest_path.write_text(json.dumps(manifest))
    proc = subprocess.run(
        [sys.executable, str(HERE / "loop.py"), str(manifest_path), str(result_path)],
        env=_child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(result_path.read_text())


def print_trace_summary(workload: str, child: dict) -> None:
    """Tracing overhead, self time per input class, and quadrature grids per request."""
    layers = child["layers"]
    untraced = layers["trace.verdicts_per_s.untraced"]
    ratio = layers["trace.verdicts_per_s.traced"] / untraced if untraced else 0.0
    print(f"{workload} tracing keeps {ratio:.3f} of the untraced verdicts_per_s")
    for part, spent in child["self_s_by_class"].items():
        by_layer = {}
        for name, seconds in spent.items():
            layer = name.split(".", 1)[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + seconds
        ranked = sorted(by_layer.items(), key=lambda kv: -kv[1])
        top = ", ".join(f"{name} {seconds:.4g}" for name, seconds in list(spent.items())[:4])
        print(f"{workload} {part} self seconds by layer: "
              + ", ".join(f"{k} {v:.4g}" for k, v in ranked) + f"; top spans: {top}")
    grids = ", ".join(f"{k} {v:.0f}" for k, v in child["max_grid_by_request"].items() if v)
    print(f"{workload} largest quadrature grid by request: {grids or 'none'}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hardyball" / "cli.py").is_file():
        print(f"perfbench: no hardyball sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hardyball

    if Path(hardyball.__file__).resolve().parent != SRC / "hardyball":
        print(f"perfbench: imported hardyball from {hardyball.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from inputs import build

    contract = load_contract()
    os.chdir(ROOT)
    workdir = Path(".perfbench") / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        inputs = build(args.workload, args.seed, workdir / "inputs")
        setup = measure_setup()
        manifest = {
            "src": str(SRC),
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "requests": [vars(r) for r in inputs.requests],
        }
        child = run_child(manifest, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = child["attempted"], child["failed"]
    if args.trace:
        names = [m["name"] for m in contract["per_layer"]]
        units = {m["name"]: m["unit"] for m in contract["per_layer"]}
        values = child["layers"]
    else:
        names = [m["name"] for m in contract["end_to_end"]]
        units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
        values = dict(child, setup_s=statistics.median(setup))
    metrics = {name: {"value": float(values[name]), "unit": units[name]} for name in names}

    provenance = dict(inputs.provenance(), machine=machine(), **child["environment"],
                      setup_s_samples=setup, cycles=child["cycles"])
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for message in child["failures"]:
        print(f"failure {message}")
    print(f"{args.workload} failed_share {failed / attempted:.6g} ({failed} of {attempted} requests)")
    if not args.trace:
        beyond = child["samples"] * (1 - child["tail_percentile"] / 100)
        print(f"{args.workload} request_ms.tail is p{child['tail_percentile']:g} "
              f"of {child['samples']} timed requests ({beyond:.0f} beyond it)")
        by_key = ", ".join(f"{k} {v:.4g}" for k, v in child["request_ms_by_key"].items())
        print(f"{args.workload} median ms by request: {by_key}")
    else:
        print_trace_summary(args.workload, child)
    for name in names:
        print(f"{args.workload} {name} {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
