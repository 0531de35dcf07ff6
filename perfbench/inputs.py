"""Seeded input documents for the benchmark workloads.

Each workload is one fixed cycle of requests, built from one or more input
classes.  The seed changes the values inside the documents (rotations, zero
positions, hole positions, sweep offsets) but never the shape of the cycle,
so every seed costs about the same and the figures of different seeds can be
compared.

Every request carries the outcome known from how its input was built: the
exit code, the verdict, and for sweeps the status of every row.  The
derivations are in the docstrings of the builders below.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


EXIT = {"extreme": 0, "non_extreme": 10}
KERNEL_PATH = "kernel_path"
OVERFLOW_PATH = "degree_overflow_path"


@dataclass
class Request:
    """One CLI call and the outcome its input was built to have."""

    key: str
    argv: list[str]
    expect: dict
    verdicts: int = 1
    witness: str | None = None  # analyze writes its witness here; the next request certifies it


@dataclass
class Shape:
    """Sizes of one problem document, for the provenance record."""

    holes: int
    k_max: int
    inner_degree: int
    numerator_degree: int


@dataclass
class Inputs:
    workload: str
    seed: int
    requests: list[Request] = field(default_factory=list)
    documents: dict[str, str] = field(default_factory=dict)  # path -> sha256
    shapes: list[Shape] = field(default_factory=list)
    rows: int = 0  # sweep rows per cycle

    def provenance(self) -> dict:
        def span(values):
            return [min(values), max(values)] if values else []

        shapes = self.shapes
        return {
            "workload": self.workload,
            "seed": self.seed,
            "requests_per_cycle": len(self.requests),
            "verdicts_per_cycle": sum(r.verdicts for r in self.requests),
            "problems": len(shapes),
            "sweep_rows_per_cycle": self.rows,
            "holes": span([s.holes for s in shapes]),
            "k_max": span([s.k_max for s in shapes]),
            "inner_degree": span([s.inner_degree for s in shapes]),
            "numerator_degree": span([s.numerator_degree for s in shapes]),
            "sha256": dict(sorted(self.documents.items())),
        }


def _pairs(values) -> list[list]:
    out = []
    for v in values:
        if isinstance(v, str):
            out.append([v, 0.0])
        else:
            v = complex(v)
            out.append([float(v.real), float(v.imag)])
    return out


def problem_doc(holes, zeros, numerator, denominator=()) -> dict:
    return {
        "format_version": 1,
        "type": "problem",
        "holes": [int(k) for k in holes],
        "inner_zeros": _pairs(zeros),
        "inner_constant": [1.0, 0.0],
        "outer_numerator": _pairs(numerator),
        "outer_denominator": _pairs(denominator),
    }


def poly(*factors) -> np.ndarray:
    """Product of polynomials given by ascending coefficient lists."""
    out = np.array([1.0 + 0j])
    for f in factors:
        out = np.convolve(out, np.array(f, dtype=complex))
    return out


class _Builder:
    def __init__(self, workload: str, seed: int, directory: Path):
        self.inputs = Inputs(workload, seed)
        self.directory = directory
        self.part = ""  # name of the input class being built; prefixes every key
        directory.mkdir(parents=True, exist_ok=True)

    def key(self, name: str) -> str:
        return f"{self.part}.{name}"

    def write(self, name: str, doc: dict) -> str:
        path = self.directory / f"{self.key(name)}.json"
        text = json.dumps(doc) + "\n"
        path.write_text(text)
        self.inputs.documents[path.name] = hashlib.sha256(text.encode()).hexdigest()
        if doc.get("type") == "problem":
            numerator = doc["outer_numerator"]
            self.inputs.shapes.append(Shape(
                len(doc["holes"]), max(doc["holes"], default=0),
                len(doc["inner_zeros"]), len(numerator) - 1,
            ))
        return str(path)

    def analyze(self, name: str, doc: dict, status: str, path: str | None = None,
                exact: bool = False, **expect) -> None:
        """Analyze a problem; a non-extreme verdict is followed by certify of its witness."""
        problem = self.write(name, doc)
        argv = ["analyze", problem] + (["--exact"] if exact else [])
        witness = None
        if status == "non_extreme":
            witness = str(self.directory / f"{self.key(name)}.witness.json")
            argv += ["--witness-out", witness]
            expect["provenance"] = path
        self.inputs.requests.append(Request(
            self.key(name), argv, dict(expect, exit=EXIT[status], status=status), witness=witness,
        ))
        if witness:
            self.inputs.requests.append(Request(
                self.key(name + ".certify"), ["certify", problem, witness],
                {"exit": 0, "verifies": True}, verdicts=0,
            ))

    def reject(self, name: str, doc: dict, error: str) -> None:
        problem = self.write(name, doc)
        self.inputs.requests.append(Request(
            self.key(name), ["analyze", problem, "--exact"], {"exit": 2, "error": error},
        ))


def circle_roots(b: _Builder, rng: np.random.Generator) -> None:
    """Hand-authored problems whose outer numerator 1 + c z^n has roots on the circle.

    c = exp(2 pi i j / 16) with j from the seed, so the roots sit on nodes of
    every quadrature grid and each shape reaches the same grid for every seed.
    With inner zeros at the origin the weighted coefficients are those of F
    itself, and the verdicts follow from the criterion by hand:

    - hole {2}, zero 0, F = 1 + c z^2: delta = |c_0|^2 - |c_2|^2 = 0, non-extreme
      (the README fixture is j = 0 and is always included);
    - hole {3}, zeros {0, 0}, F = 1 + c z^2: inner degree 2 > 1 hole, non-extreme
      by degree overflow;
    - hole {3}, zero 0, F = 1 + c z^3: delta = 0 - 1, extreme;
    - hole {2}, zero 0, F = 1 + c z^4: delta = 1 - 0, extreme;
    - holes {3, 6}, zeros {0, 0}, F = 1 + c z^6: the 4 x 5 matrix has rank 4
      because its c-block [[Re c, Im c], [Im c, -Re c]] has determinant -1, extreme.

    Extreme verdicts with circle roots must report exposedness "unknown".
    """
    def unit(j):
        return cmath.exp(2j * math.pi * j / 16)

    j = [int(x) for x in rng.integers(0, 16, size=5)]
    b.analyze("readme_fixture", problem_doc([2], [0], [1, 0, 1]), "non_extreme", KERNEL_PATH)
    b.analyze("rotated_locus", problem_doc([2], [0], [1, 0, unit(1 + j[0] % 15)]),
              "non_extreme", KERNEL_PATH)
    b.analyze("overflow", problem_doc([3], [0, 0], [1, 0, unit(j[1])]),
              "non_extreme", OVERFLOW_PATH)
    for name, holes, zeros, n, jj in (("cubic", [3], [0], 3, j[2]),
                                      ("quartic", [2], [0], 4, j[3]),
                                      ("sextic", [3, 6], [0, 0], 6, j[4])):
        numerator = [1] + [0] * (n - 1) + [unit(jj)]
        b.analyze(name, problem_doc(holes, zeros, numerator), "extreme",
                  exposedness="unknown")


# (inner degree, small holes, far holes, verdict, witness path)
LARGE_CLASSES = (
    (1, 1, (10000,), "extreme", None),
    (2, 2, (8000,), "extreme", None),
    (2, 1, (3000,), "non_extreme", KERNEL_PATH),
    (3, 1, (10000,), "non_extreme", OVERFLOW_PATH),
    (4, 2, (5000,), "non_extreme", OVERFLOW_PATH),
    (3, 3, (2000, 8000), "extreme", None),
)


def _member(rng, holes, zeros, denominator, degree):
    """A generated member, drawn the way `hardyball gen` draws it."""
    from hardyball import documents, model

    space = model.PuncturedSpace(tuple(sorted(holes)))
    f = model.sample_member(space, zeros, denominator, degree, int(rng.integers(2**31)))
    return documents.problem_to_dict(space, f)


def _zeros(rng, count, low=0.3, high=0.8):
    radius = rng.uniform(low, high, size=count)
    return tuple(radius * np.exp(2j * np.pi * rng.random(count)))


def large_holes(b: _Builder, rng: np.random.Generator) -> None:
    """Generated members with a few small holes and far holes up to k = 10^4.

    Inner zeros have modulus at most 0.8 and poles at most 0.5, so the weighted
    coefficients at the far holes are below 0.8^1900 and their rows of the
    criterion matrix vanish in floating point.  The small holes decide:

    - inner degree m <= small holes: the rank is 2m for a generic draw, extreme;
    - small holes < m <= all holes: the rank is at most 2 x small holes < 2m,
      non-extreme with a kernel witness;
    - m = M + 1: non-extreme by degree overflow.
    """
    for index, (m, small, far, status, path) in enumerate(LARGE_CLASSES):
        ks = set(int(k) for k in rng.choice(np.arange(m + 1, m + 13), size=small, replace=False))
        ks |= {int(round(k * rng.uniform(0.95, 1.05))) for k in far}
        doc = _member(rng, ks, _zeros(rng, m), _zeros(rng, 1, 0.1, 0.5), small + 2)
        b.analyze(f"member{index}", doc, status, path)


def _dyadic_zero(rng) -> float:
    return float(rng.choice([-1.0, 1.0]) * 2.0 ** -int(rng.integers(1, 4)))


def exact_backend(b: _Builder, rng: np.random.Generator) -> None:
    """Dyadic exact members, and float members the exact backend must reject.

    With a = +-2^-e and G = 1 + g z (g dyadic, |g| <= 0.53), the outer factor
    F = (1 - a z) G gives f = (z - a) G, a polynomial of degree 2: every hole
    above 2 vanishes exactly as a rational.  The weighted coefficients are
    c_j = a^(j-1) (a + g), so delta = |a + g|^2 a^(2k-6) (1 - a^4) != 0 and
    the verdict is extreme for one hole and therefore for more.

    The locus member prescribes the weighted coefficients (as the test suite
    does): |c_(k-2)| = |c_k| exactly by a 3-4-5 triangle, non-extreme.  Two
    dyadic zeros with one hole overflow the hole count, non-extreme.

    Generated float members at k = 150..400 are never exact rational members;
    the documented outcome is exit 2 with an `input` error.
    """
    def g():
        return complex(*rng.integers(-3, 4, size=2)) / 8

    def extreme_numerator(a):
        gg = g()
        while a + gg == 0:
            gg = g()
        return poly([1, -a], [1, gg])

    a = _dyadic_zero(rng)
    k = int(rng.integers(80, 101))
    b.analyze("one_hole", problem_doc([k], [a], extreme_numerator(a)), "extreme", exact=True)
    a = _dyadic_zero(rng)
    holes = [int(rng.integers(3, 41)), int(rng.integers(80, 101))]
    b.analyze("two_holes", problem_doc(holes, [a], extreme_numerator(a)), "extreme", exact=True)

    for copy in range(2):
        a = _dyadic_zero(rng)
        s = 1 + a * a
        k = int(rng.integers(4, 13))
        c_lo = 5 * s / 128
        c_hi = (3 + 4j) * 1j ** int(rng.integers(0, 4)) * s / 128
        profile = np.zeros(k + 1, dtype=complex)
        profile[0] = 1.0
        profile[k - 2] = c_lo
        profile[k - 1] = a * (c_hi + c_lo) / s
        profile[k] = c_hi
        b.analyze(f"locus{copy}", problem_doc([k], [a], poly(profile, [1, -a], [1, -a])),
                  "non_extreme", KERNEL_PATH, exact=True)

        a1 = _dyadic_zero(rng)
        a2 = -a1 / 2
        k = int(rng.integers(60, 101))
        b.analyze(f"overflow{copy}",
                  problem_doc([k], [a1, a2], poly([1, -a1], [1, -a2], [1, g()])),
                  "non_extreme", OVERFLOW_PATH, exact=True)

    for k in (150, 250, 400):
        far = int(round(k * rng.uniform(0.99, 1.01)))
        doc = _member(rng, {int(rng.integers(3, 9)), far}, _zeros(rng, 2, 0.4, 0.7),
                      _zeros(rng, 1, 0.2, 0.5), 4)
        b.reject(f"float_k{k}", doc, "input")


def _range_count(a: float, b: float, step: float) -> int:
    """Points of the inclusive range a:b:step, as documented for `sweep --range`."""
    return int(math.floor((b - a) / step + 1e-9)) + 1


def sweep_grid(b: _Builder, rng: np.random.Generator) -> None:
    """`sweep --jobs 1` over root-free templates.

    beta line: the README template with F = 1 + beta z^2, beta in [0, 0.995].
    delta = 1 - beta^2 >= 0.0099, so every row is extreme with rank 2.

    inner-zero grid: F = 1 + beta0 z^2 with zero a = x + iy on a dyadic 21 x 21
    grid of half-width 0.3125.  The hole coefficient is
    f_2 = x (1 - |a|^2 - beta0) - i y (1 - |a|^2 + beta0), which vanishes on the
    grid only at the origin (|a|^2 = 1 - beta0 needs |a| >= 0.5), so every row
    is skip except the origin, which is extreme.
    """
    line = problem_doc([2], [0], [1, 0, "beta"])
    line_path = b.write("beta_line", line)
    step = 0.995 / 249
    for copy in range(2):
        start = float(rng.uniform(0, step))
        count = _range_count(start, 0.995, step)
        b.inputs.requests.append(Request(
            b.key(f"beta_line{copy}"),
            ["sweep", line_path, "--jobs", "1", "--param", "beta",
             f"--range={start!r}:0.995:{step!r}"],
            {"exit": 0, "rows": ["extreme"] * count, "rank": "2"}, verdicts=count,
        ))

    beta0 = int(rng.integers(4, 13)) / 16
    grid = problem_doc([2], [], [1, 0, beta0])
    grid["inner_zeros"] = [["a_re", "a_im"]]
    grid_path = b.write("zero_grid", grid)
    spec = "--range=-0.3125:0.3125:0.03125"
    count = _range_count(-0.3125, 0.3125, 0.03125)
    rows = ["skip"] * (count * count)
    rows[(count * count) // 2] = "extreme"
    b.inputs.requests.append(Request(
        b.key("zero_grid"),
        ["sweep", grid_path, "--jobs", "1", "--param", "a_re", spec, "--param", "a_im", spec],
        {"exit": 0, "rows": rows}, verdicts=count * count,
    ))
    b.inputs.rows = sum(r.verdicts for r in b.inputs.requests)


# input classes, in the order that numbers their random streams
CLASSES = {
    "circle_roots": circle_roots,
    "large_holes": large_holes,
    "exact_backend": exact_backend,
    "sweep_grid": sweep_grid,
}

# The analyze/certify classes share one workload, so that each run can be long
# enough to average out drift in machine speed while repeated runs of every
# workload stay affordable.  Each class keeps its own keys in the per-request
# output and its own self-time line in the traced output.
WORKLOADS = {
    "analyze_certify": ("circle_roots", "large_holes", "exact_backend"),
    "sweep_grid": ("sweep_grid",),
}


def build(workload: str, seed: int, directory: Path) -> Inputs:
    """Write the workload's documents for ``seed`` under ``directory``."""
    builder = _Builder(workload, seed, directory)
    for part in WORKLOADS[workload]:
        builder.part = part
        CLASSES[part](builder, np.random.default_rng([seed, list(CLASSES).index(part)]))
    return builder.inputs
