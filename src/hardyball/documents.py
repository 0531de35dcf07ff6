"""Problem, witness and report documents.

One self-describing JSON schema, versioned by ``format_version``.  Complex
numbers are [re, im] pairs.  Serialization is canonical: stable field order
(insertion order of the dicts built here) and floats rendered with 17
significant digits, so documents round-trip binary doubles bit-faithfully
and identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, replace
from typing import Any

from .certificates import DEGREE_OVERFLOW_PATH, KERNEL_PATH, PerturbationWitness
from .extremality import SymmetricPolynomial
from .model import BlaschkeProduct, FactoredFunction, OuterRational, PuncturedSpace
from .series import check_pole_margin
from .tolerances import DEFAULT, Tolerances

FORMAT_VERSION = 1

# the largest hole index a document may name: the Taylor expansion runs to it
MAX_HOLE = 10 ** 6

# problem "options" keys -> Tolerances field names
_OPTION_FIELDS = {
    "tol_rank": "rank",
    "tol_quad": "quad",
    "tol_membership": "membership",
    "tol_delta": "delta",
}


class DocumentError(ValueError):
    """Schema violation with the JSON path where it happened."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def format_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite float {x} cannot be serialized")
    return format(float(x), ".17g")


def canonical_json(obj: Any, indent: int = 0) -> str:
    """Deterministic JSON text: insertion-ordered keys, 17-digit floats."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [canonical_json(v, indent + 1) for v in obj]
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj):
            return "[" + ", ".join(items) + "]"
        return "[\n" + ",\n".join(inner + it for it in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = []
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"document keys must be strings, got {key!r}")
            parts.append(f"{inner}{json.dumps(key)}: {canonical_json(value, indent + 1)}")
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__} canonically")


def _require(data: dict, key: str, path: str) -> Any:
    if key not in data:
        raise DocumentError(path, f"missing required field {key!r}")
    return data[key]


def _as_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DocumentError(path, f"expected an integer, got {value!r}")
    return value


def _as_number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DocumentError(path, f"expected a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, infinity, or an int too large for a float
        raise DocumentError(path, f"expected a finite number, got {value!r}")
    return float(value)


def _as_tolerance(value: Any, path: str) -> float:
    """A tolerance value: a finite number > 0."""
    value = _as_number(value, path)
    if not value > 0:
        raise DocumentError(path, f"expected a number > 0, got {value!r}")
    return value


def _as_complex_pair(value: Any, path: str) -> complex:
    if not isinstance(value, list) or len(value) != 2:
        raise DocumentError(path, f"expected [re, im] pair, got {value!r}")
    return complex(_as_number(value[0], path + "[0]"), _as_number(value[1], path + "[1]"))


def _as_complex_list(value: Any, path: str) -> tuple[complex, ...]:
    if not isinstance(value, list):
        raise DocumentError(path, f"expected a list of [re, im] pairs, got {value!r}")
    return tuple(_as_complex_pair(v, f"{path}[{i}]") for i, v in enumerate(value))


def _as_hole(value: Any, path: str) -> int:
    k = _as_int(value, path)
    if k > MAX_HOLE:
        raise DocumentError(path, f"expected a hole index <= {MAX_HOLE}, got {k}")
    return k


def _as_holes(value: Any, path: str) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise DocumentError(path, "expected a list of integers")
    return tuple(_as_hole(k, f"{path}[{i}]") for i, k in enumerate(value))


def load_json(text: str, source: str = "<input>") -> dict:
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer literal too long to convert
        raise DocumentError(source, f"not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise DocumentError(source, "top level must be an object")
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise DocumentError(source, f"unsupported format_version {version!r}")
    return data


@dataclass(frozen=True)
class ProblemDocument:
    """Parsed problem: hole set, factored function, tolerances."""

    space: PuncturedSpace
    function: FactoredFunction
    tolerances: Tolerances


def check_problem(data: dict, source: str = "<problem>") -> tuple:
    """Schema-check a problem document without building its function.

    Returns (space, inner zeros, inner constant, outer numerator, outer
    denominator, tolerances), the fields :func:`build_function` takes.  The
    tolerances are the defaults with the document's ``options`` applied.
    """
    if data.get("type") not in (None, "problem"):
        raise DocumentError(source, f"expected a problem document, got type {data.get('type')!r}")
    holes = _as_holes(_require(data, "holes", source), source + ".holes")
    zeros = _as_complex_list(data.get("inner_zeros", []), source + ".inner_zeros")
    constant = _as_complex_pair(
        data.get("inner_constant", [1.0, 0.0]), source + ".inner_constant"
    )
    numerator = _as_complex_list(_require(data, "outer_numerator", source),
                                 source + ".outer_numerator")
    if not numerator:
        raise DocumentError(source + ".outer_numerator", "must not be empty")
    denominator = _as_complex_list(data.get("outer_denominator", []),
                                   source + ".outer_denominator")
    options_raw = data.get("options", {})
    if not isinstance(options_raw, dict):
        raise DocumentError(source + ".options", "expected an object")
    options = {}
    for key, value in options_raw.items():
        if key not in _OPTION_FIELDS:
            raise DocumentError(f"{source}.options.{key}", "unknown option")
        options[_OPTION_FIELDS[key]] = _as_tolerance(value, f"{source}.options.{key}")
    try:
        space = PuncturedSpace(holes)
        # the constant of the canonical pair lives in the outer factor
        if abs(abs(constant) - 1.0) > 1e-12:
            raise ValueError(f"constant must be unimodular, got |c| = {abs(constant):.17g}")
    except ValueError as exc:
        raise DocumentError(source, str(exc)) from exc
    return space, zeros, constant, numerator, denominator, replace(DEFAULT, **options)


def build_function(zeros, constant, numerator, denominator, source="<problem>",
                   roots=None) -> FactoredFunction:
    """The function of checked problem fields; the inner constant goes into the outer numerator.

    ``roots``, when given, are the roots of that product, already found (see
    :class:`~hardyball.model.OuterRational`).
    """
    numerator = tuple(constant * c for c in numerator) if constant != 1 else numerator
    try:
        return FactoredFunction(BlaschkeProduct(zeros),
                                OuterRational(numerator, denominator, roots))
    except ValueError as exc:
        raise DocumentError(source, str(exc)) from exc


def parse_problem(data: dict, source: str = "<problem>") -> ProblemDocument:
    space, *fields, tolerances = check_problem(data, source)
    return ProblemDocument(space, build_function(*fields, source), tolerances)


@dataclass(frozen=True)
class GenSpec:
    """Parsed gen_spec: the shape of the random member to draw."""

    space: PuncturedSpace
    inner_zeros: tuple[complex, ...]
    denominator_parameters: tuple[complex, ...]
    numerator_degree: int


def parse_gen_spec(data: dict, source: str = "<gen_spec>") -> GenSpec:
    if data.get("type") not in (None, "gen_spec"):
        raise DocumentError(source, f"expected a gen_spec document, got type {data.get('type')!r}")
    holes = _as_holes(data.get("holes", []), source + ".holes")
    zeros = _as_complex_list(data.get("inner_zeros", []), source + ".inner_zeros")
    denominator = _as_complex_list(data.get("outer_denominator", []),
                                   source + ".outer_denominator")
    degree = _as_int(_require(data, "numerator_degree", source), source + ".numerator_degree")
    if degree < 0:
        raise DocumentError(source + ".numerator_degree", f"must be >= 0, got {degree}")
    try:
        space = PuncturedSpace(holes)
        BlaschkeProduct(zeros)
        check_pole_margin(denominator)
    except ValueError as exc:
        raise DocumentError(source, str(exc)) from exc
    return GenSpec(space, zeros, denominator, degree)


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def problem_to_dict(space: PuncturedSpace, f: FactoredFunction) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "type": "problem",
        "holes": list(space.holes),
        "inner_zeros": [_pair(a) for a in f.inner.zeros],
        "inner_constant": [1.0, 0.0],
        "outer_numerator": [_pair(c) for c in f.outer.numerator],
        "outer_denominator": [_pair(b) for b in f.outer.poles],
    }


def witness_to_dict(w: PerturbationWitness) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "type": "witness",
        "provenance": w.provenance,
        "symmetric_order": w.polynomial.order,
        "coefficient_vector": [float(v) for v in w.polynomial.vector],
        "phi2_zeros": [_pair(a) for a in w.phi2_zeros],
        "epsilon": float(w.epsilon),
        "recenter_c": float(w.recenter),
    }


def parse_witness(data: dict, source: str = "<witness>") -> PerturbationWitness:
    if data.get("type") == "analysis_report":
        embedded = data.get("witness")
        if not isinstance(embedded, dict):
            raise DocumentError(source, "report carries no witness")
        data = dict(embedded, format_version=data["format_version"])
    if data.get("type") != "witness":
        raise DocumentError(source, f"expected a witness document, got type {data.get('type')!r}")
    order = _as_int(_require(data, "symmetric_order", source), source + ".symmetric_order")
    vector_raw = _require(data, "coefficient_vector", source)
    if not isinstance(vector_raw, list):
        raise DocumentError(source + ".coefficient_vector", "expected a list of numbers")
    vector = tuple(
        _as_number(v, f"{source}.coefficient_vector[{i}]") for i, v in enumerate(vector_raw)
    )
    phi2 = _as_complex_list(data.get("phi2_zeros", []), source + ".phi2_zeros")
    epsilon = _as_number(_require(data, "epsilon", source), source + ".epsilon")
    recenter = _as_number(_require(data, "recenter_c", source), source + ".recenter_c")
    provenance = _require(data, "provenance", source)
    if provenance not in (KERNEL_PATH, DEGREE_OVERFLOW_PATH):
        raise DocumentError(source + ".provenance", f"unknown provenance {provenance!r}")
    try:
        polynomial = SymmetricPolynomial(order, vector)
    except ValueError as exc:
        raise DocumentError(source + ".coefficient_vector", str(exc)) from exc
    if epsilon <= 0:
        raise DocumentError(source + ".epsilon", "must be positive")
    return PerturbationWitness(polynomial, phi2, epsilon, recenter, provenance)
