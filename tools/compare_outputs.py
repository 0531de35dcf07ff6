"""Byte A/B of two hardyball source trees on the benchmark's requests.

    python3 tools/compare_outputs.py OLD_TREE NEW_TREE [--seeds 1,2,3,4,5,61]

A tree is a checkout (its ``src`` directory is used) or a directory that holds the
``hardyball`` package.  The documents are written once, by ``perfbench/inputs.build`` of
this checkout with the old tree's hardyball (which draws the generated members), for both
workloads at each seed, together with a fixed set of seeded random sweep templates
(:func:`_random_sweeps`) and two fixed sweeps whose rows reach the root finder's failure and
the expansion's overflow (:func:`_fixed_sweeps`), and every sweep request runs a second time
with ``--jobs 2``.
One child interpreter per tree, with BLAS on one thread, runs every request in order and
in process through ``hardyball.cli.main``; it records for each the sha256 of its exit
code, stdout, stderr and the witness file it writes, which the next request certifies.
The tool prints one digest per tree over all outputs and the key of each request whose
output differs, and exits 0 when none does, 1 when some do.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _package_dir(tree: str) -> Path:
    """The directory that holds the ``hardyball`` package of a tree."""
    path = Path(tree).resolve()
    return path / "src" if (path / "src" / "hardyball").is_dir() else path


def _random_sweeps(directory: Path, count: int = 40, seed: int = 24) -> list[dict]:
    """``count`` sweep requests over seeded random templates (the same on every run): holes
    among 1..7, up to two inner zeros, a numerator of one to four terms and up to two poles,
    whose parts are 0, a fixed value or one of up to three swept slots.  Every swept range
    runs through 0, so rows with zero parts are members and get a verdict where the holes lie
    past the numerator; the others are skips, and ranges beyond the unit disk (zeros and poles
    at the margin) or wide ones (roots inside the disk) give error rows."""
    rng = random.Random(seed)
    out = []
    for t in range(count):
        params = []

        def swept(kind: str) -> str:
            half = rng.choice({"numerator": (0.25, 0.5, 2.0)}.get(kind, (0.25, 0.5, 1.5)))
            params.append((f"x{len(params)}", f"{-half}:{half}:{half / rng.choice((2, 4))}"))
            return params[-1][0]

        def part(kind: str):
            if len(params) < 3 and rng.random() < 0.3:
                return swept(kind)
            zero = 0.5 if kind == "numerator" else 0.8
            return 0.0 if rng.random() < zero else round(rng.uniform(-0.6, 0.6), 3)

        template = {
            "format_version": 1, "type": "problem",
            "holes": sorted(rng.sample(range(1, 8), rng.randint(1, 2))),
            "inner_zeros": [[part("zero"), part("zero")] for _ in range(rng.randint(0, 2))],
            "outer_numerator": [[1.0, 0.0]] + [[part("numerator"), part("numerator")]
                                               for _ in range(rng.randint(0, 3))],
            "outer_denominator": [[part("pole"), part("pole")] for _ in range(rng.randint(0, 2))],
        }
        if not params:
            template["outer_numerator"][0][0] = swept("numerator")
        path = directory / f"random_sweep{t}.json"
        path.write_text(json.dumps(template))
        argv = ["sweep", str(path)]
        for name, spec in params:
            argv += ["--param", name, f"--range={spec}"]
        out.append({"key": f"random_sweep.{t}", "argv": argv, "witness": None})
    return out


def _fixed_sweeps(directory: Path) -> list[dict]:
    """Two sweeps whose blocks mix error rows with rows that pass the constructors' checks.
    ``linalg``: f = z (t + 1e-200 z^2) with the hole 3; -t / 1e-200 overflows for
    |t| >= 2e108, so the stacked ``eigvals`` of the block fails and each numerator is root-found
    alone (error:LinAlgError), beside verdicts and the not-outer t = 0.  ``overflow``:
    f = B_a (s + z^2) / (1 - p z) with the hole 2; at a = -0.5 and s = 1.7e308 the Taylor
    coefficients overflow for p > 0 (error:ExpansionOverflowError), beside skips and verdicts."""
    sweeps = {
        "linalg": ({"holes": [3], "inner_zeros": [[0.0, 0.0]],
                    "outer_numerator": [["t", 0.0], [0.0, 0.0], [1e-200, 0.0]]},
                   [("t", "-4e108:4e108:5e107")]),
        "overflow": ({"holes": [2], "inner_zeros": [["a", 0.0]],
                      "outer_numerator": [["s", 0.0], [0.0, 0.0], [1.0, 0.0]],
                      "outer_denominator": [["p", 0.0]]},
                     [("a", "-0.5:0:0.5"), ("s", "1:1.7e308:1.7e308"), ("p", "-0.75:0.75:0.25")]),
    }
    out = []
    for name, (fields, params) in sweeps.items():
        path = directory / f"fixed_sweep_{name}.json"
        path.write_text(json.dumps({"format_version": 1, "type": "problem",
                                    "outer_denominator": [], **fields}))
        argv = ["sweep", str(path)]
        for param, spec in params:
            argv += ["--param", param, f"--range={spec}"]
        out.append({"key": f"fixed_sweep.{name}", "argv": argv, "witness": None})
    return out


def _requests(seeds: list[int], directory: Path, package_dir: Path) -> list[dict]:
    """Every request of both workloads at each seed and the random sweeps, each sweep also at
    ``--jobs 2``, built with the hardyball of ``package_dir``."""
    sys.path[:0] = [str(ROOT / "perfbench"), str(package_dir)]
    from inputs import WORKLOADS, build

    out = []
    for workload in WORKLOADS:
        for seed in seeds:
            for r in build(workload, seed, directory / f"{workload}-{seed}").requests:
                out.append({"key": f"{workload}.{seed}.{r.key}", "argv": r.argv,
                            "witness": r.witness})
    out += _random_sweeps(directory) + _fixed_sweeps(directory)
    for request in list(out):
        if request["argv"][0] == "sweep":  # the last --jobs wins
            out.append(dict(request, key=request["key"] + ".jobs2",
                            argv=request["argv"] + ["--jobs", "2"]))
    return out


def _child(manifest: str, package_dir: str) -> int:
    """Run the manifest's requests on the hardyball of ``package_dir``; print their digests."""
    import hardyball
    from hardyball import cli

    if Path(hardyball.__file__).resolve().parent != Path(package_dir) / "hardyball":
        print(f"imported hardyball from {hardyball.__file__}, not {package_dir}", file=sys.stderr)
        return 2
    digests = {}
    for request in json.loads(Path(manifest).read_text()):
        witness = Path(request["witness"]) if request["witness"] else None
        if witness:
            witness.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(request["argv"])
            except Exception as exc:  # a traceback is an output too
                code = f"raised {type(exc).__name__}: {exc}"
        payload = f"{code}\n{out.getvalue()}\n{err.getvalue()}\n".encode()
        if witness and witness.exists():
            payload += witness.read_bytes()
        digests[request["key"]] = hashlib.sha256(payload).hexdigest()
    print(json.dumps(digests))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--seeds", default="1,2,3,4,5,61", help="comma-separated seeds")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    results = {}
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        manifest = Path(tmp) / "requests.json"
        manifest.write_text(json.dumps(_requests(seeds, Path(tmp), _package_dir(args.old))))
        for name, tree in (("old", args.old), ("new", args.new)):
            package_dir = _package_dir(tree)
            env = dict(os.environ, PYTHONPATH=str(package_dir), **BLAS_ENV)
            proc = subprocess.run([sys.executable, __file__, "--child", str(manifest),
                                   str(package_dir)], env=env, cwd=tmp, capture_output=True,
                                  text=True)
            if proc.returncode != 0:
                print(f"{name} ({package_dir}) failed:\n{proc.stderr}", file=sys.stderr)
                return 2
            results[name] = json.loads(proc.stdout)
    for name, digests in results.items():
        total = hashlib.sha256("".join(f"{k} {v}\n" for k, v in sorted(digests.items()))
                               .encode()).hexdigest()
        print(f"{name} {total} over {len(digests)} outputs ({_package_dir(getattr(args, name))})")
    differ = [key for key, digest in results["old"].items() if results["new"].get(key) != digest]
    for key in differ:
        print(f"differs {key}")
    print(f"{len(differ)} of {len(results['old'])} outputs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        raise SystemExit(_child(*sys.argv[2:]))
    raise SystemExit(main())
