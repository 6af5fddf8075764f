"""File formats: JSON readers for spaces, graphs, triangles, and families."""

from __future__ import annotations

import json
import os
from fractions import Fraction
from math import isfinite
from typing import TYPE_CHECKING, Sequence, Union

from .errors import InputFormatError, InternalCheckError
from .scalars import DEFAULT_TOL, Number, format_number, parse_number
from .spaces import FiniteMetricSpace, validate_space

if TYPE_CHECKING:  # the loaders below import these modules on first use
    from .families import SpaceFamily
    from .graphs import WeightedGraph
    from .rays import Triangle


def read_json(path: str) -> object:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path} is not valid JSON: {exc}") from exc


def _check_float_range(values: Sequence[Number], n: int) -> None:
    """The range rule for float input of n points (vertices; 3 for a
    triangle): the largest entry times max(3, n - 1) must be a finite float.

    A verb adds at most that many entries: the edges of a shortest path
    (n - 1), the three sides of a triple (`mb`), or two distances (the
    triangle inequality, a line realization).
    """
    terms = max(3, n - 1)
    top = max(map(abs, values), default=0)
    try:
        fits = isfinite(float(top) * terms)
    except OverflowError:  # an exact entry beyond the float range
        fits = False
    if not fits:
        raise InputFormatError(
            f"float input too large: {terms} times its largest entry overflows"
        )


def load_space(obj: object, tol: float = DEFAULT_TOL) -> FiniteMetricSpace:
    """Build a validated space from {"labels": optional, "matrix": required}."""
    if not isinstance(obj, dict) or "matrix" not in obj:
        raise InputFormatError('expected an object with a "matrix" field')
    matrix = obj["matrix"]
    if not isinstance(matrix, list) or not all(isinstance(r, list) for r in matrix):
        raise InputFormatError('"matrix" must be a list of rows')
    rows = [[parse_number(v) for v in row] for row in matrix]
    flat = [v for row in rows for v in row]
    if any(isinstance(v, float) for v in flat):
        _check_float_range(flat, len(rows))
    labels = obj.get("labels")
    if labels is not None and (
        not isinstance(labels, list) or not all(isinstance(x, str) for x in labels)
    ):
        raise InputFormatError('"labels" must be a list of strings')
    return validate_space(rows, labels, tol=tol)


def space_payload(space: FiniteMetricSpace) -> dict:
    return {
        "labels": list(space.labels),
        "matrix": [list(row) for row in space.matrix],
    }


def load_graph(obj: object, tol: float = DEFAULT_TOL) -> WeightedGraph:
    """Build a graph from {"vertices": [...], "edges": [[u, v, w] ...]}."""
    from .graphs import build_graph

    if not isinstance(obj, dict) or "vertices" not in obj or "edges" not in obj:
        raise InputFormatError('expected an object with "vertices" and "edges"')
    vertices = obj["vertices"]
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise InputFormatError('"vertices" must be a list of strings')
    edges = obj["edges"]
    if not isinstance(edges, list):
        raise InputFormatError('"edges" must be a list')
    triples = []
    for e in edges:
        if not isinstance(e, list) or len(e) != 3:
            raise InputFormatError(f"edge {e!r} must be [u, v, weight]")
        triples.append((e[0], e[1], parse_number(e[2])))
    weights = [w for _, _, w in triples]
    if any(isinstance(w, float) for w in weights):
        _check_float_range(weights, len(vertices))
    return build_graph(vertices, triples, tol=tol)


def load_triangle(obj: object, tol: float = DEFAULT_TOL) -> Union[Triangle, FiniteMetricSpace]:
    """Accept {"sides": [a,b,c]} or a 3-point metric-space object."""
    if isinstance(obj, dict) and "sides" in obj:
        from .rays import Triangle

        sides = obj["sides"]
        if not isinstance(sides, list) or len(sides) != 3:
            raise InputFormatError('"sides" must be a list of three numbers')
        values = [parse_number(v) for v in sides]
        _check_float_range(values, 3)
        return Triangle(*map(float, values))
    return load_space(obj, tol=tol)


def load_family(paths: list[str], tol: float = DEFAULT_TOL) -> SpaceFamily:
    """Family from a directory, a JSON-array file, or several space files."""
    from .families import SpaceFamily

    if len(paths) == 1 and os.path.isdir(paths[0]):
        names = sorted(
            os.path.join(paths[0], f)
            for f in os.listdir(paths[0])
            if f.endswith(".json")
        )
        if not names:
            raise InputFormatError(f"no .json files in {paths[0]}")
        return SpaceFamily(tuple(load_space(read_json(p), tol) for p in names))
    if len(paths) == 1:
        obj = read_json(paths[0])
        if isinstance(obj, list):
            return SpaceFamily(tuple(load_space(item, tol) for item in obj))
        return SpaceFamily((load_space(obj, tol),))
    return SpaceFamily(tuple(load_space(read_json(p), tol) for p in paths))


def to_jsonable(value: object) -> object:
    """Recursively rewrite payload values into JSON-safe types.

    Exact rationals become "p/q" strings so they round-trip losslessly.
    """
    if isinstance(value, Fraction):
        return format_number(value)
    if isinstance(value, dict):
        return {k: to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    return value


def dump_report(payload: object, pretty: bool = False) -> str:
    """The report as JSON; a NaN or an infinity in it raises
    InternalCheckError, since every number of a report is finite."""
    data = to_jsonable(payload)
    try:
        if pretty:
            return json.dumps(data, sort_keys=True, indent=2, allow_nan=False)
        return json.dumps(
            data, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
    except ValueError as exc:
        raise InternalCheckError(f"report holds a non-finite number: {exc}") from exc
