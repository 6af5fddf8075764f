"""Weighted graphs, shortest-path pseudometrics, and metrizability checks."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    DisconnectedGraphError,
    InputFormatError,
    InternalCheckError,
)
from .scalars import (
    DEFAULT_TOL,
    Number,
    close,
    coerce_entries,
    integer_rows,
    positive,
)
from .spaces import FiniteMetricSpace, metric_space


@dataclass(frozen=True)
class WeightedGraph:
    """Simple undirected graph with nonnegative edge weights.

    Edges are stored as (i, j, weight) with i < j, sorted.  Weights are
    all exact or all float, mirroring the metric-space scalar modes.
    """

    labels: tuple[str, ...]
    edges: tuple[tuple[int, int, Number], ...]
    exact: bool
    tol: float

    @property
    def n(self) -> int:
        return len(self.labels)

    def adjacency(self) -> list[list[tuple[int, Number]]]:
        adj: list[list[tuple[int, Number]]] = [[] for _ in range(self.n)]
        for i, j, w in self.edges:
            adj[i].append((j, w))
            adj[j].append((i, w))
        for row in adj:
            row.sort(key=lambda e: e[0])
        return adj


@dataclass(frozen=True)
class MetrizationReport:
    """Outcome of the metrizability decision procedure.

    violating_cycle is an open vertex-index sequence; consecutive entries
    and the wrap-around pair are edges.  It is present exactly when the
    graph is not pseudometrizable.  metric is present exactly when the
    graph is metrizable.  pseudometric is the shortest-path matrix the
    decision was made on; it is not part of payload().
    """

    pseudometrizable: bool
    metrizable: bool
    violating_cycle: Optional[tuple[int, ...]]
    metric: Optional[FiniteMetricSpace]
    pseudometric: list[list[Number]] = field(repr=False, compare=False)

    def payload(self) -> dict:
        out: dict = {
            "pseudometrizable": self.pseudometrizable,
            "metrizable": self.metrizable,
            "violating_cycle": (
                list(self.violating_cycle) if self.violating_cycle else None
            ),
        }
        if self.metric is not None:
            out["metric"] = {
                "labels": list(self.metric.labels),
                "matrix": [list(row) for row in self.metric.matrix],
            }
        else:
            out["metric"] = None
        return out


def build_graph(
    vertices: Sequence[str],
    edges: Sequence[tuple],
    tol: float = DEFAULT_TOL,
) -> WeightedGraph:
    """Validate and normalize a vertex/edge description.

    Edge endpoints may be vertex labels or integer indices.  Loops,
    parallel edges, and negative weights are rejected.
    """
    labels = tuple(str(v) for v in vertices)
    if len(set(labels)) != len(labels):
        raise InputFormatError("vertex labels must be distinct")
    lookup = {lab: i for i, lab in enumerate(labels)}

    def endpoint(e: object) -> int:
        if isinstance(e, bool):
            raise InputFormatError(f"bad edge endpoint {e!r}")
        if isinstance(e, int):
            if not 0 <= e < len(labels):
                raise InputFormatError(f"vertex index {e} out of range")
            return e
        if isinstance(e, str) and e in lookup:
            return lookup[e]
        raise InputFormatError(f"unknown vertex {e!r}")

    pairs: list[tuple[int, int]] = []
    raw_weights: list[Number] = []
    for entry in edges:
        if len(entry) != 3:
            raise InputFormatError(f"edge {entry!r} must be [u, v, weight]")
        u, v = endpoint(entry[0]), endpoint(entry[1])
        if u == v:
            raise InputFormatError(f"loop at vertex {labels[u]!r}")
        if u > v:
            u, v = v, u
        if (u, v) in pairs:
            raise InputFormatError(
                f"parallel edge between {labels[u]!r} and {labels[v]!r}"
            )
        pairs.append((u, v))
        raw_weights.append(entry[2])

    weights, exact = coerce_entries(raw_weights)
    for w in weights:
        if w < 0:
            raise InputFormatError(f"negative edge weight {w}")
    triples = sorted(
        (u, v, w) for (u, v), w in zip(pairs, weights)
    )
    return WeightedGraph(labels, tuple(triples), exact, tol)


def _single_source(
    n: int, adj: list[list[tuple[int, Number]]], s: int
) -> tuple[list[Optional[Number]], list[int]]:
    # Dense Dijkstra; exact scalars pass through untouched.
    dist: list[Optional[Number]] = [None] * n
    pred = [-1] * n
    dist[s] = 0
    done = [False] * n
    for _ in range(n):
        u = -1
        for v in range(n):
            if done[v] or dist[v] is None:
                continue
            if u == -1 or dist[v] < dist[u]:
                u = v
        if u == -1:
            break
        done[u] = True
        base = dist[u]
        for v, w in adj[u]:
            if done[v]:
                continue
            cand = base + w
            if dist[v] is None or cand < dist[v]:
                dist[v] = cand
                pred[v] = u
    return dist, pred


def _all_pairs(
    graph: WeightedGraph,
) -> tuple[list[list[Number]], list[list[int]], list[Number], Optional[int]]:
    """Shortest-path rows, the predecessor row of each source, the edge
    weights in the scale of the rows, and that scale.

    A graph whose weights are all Fractions runs on them scaled to ints
    over one scale (integer_rows): the same comparisons in the same order
    give the same paths, and _divided takes each entry back to the
    Fraction its path sums to.  Other graphs run on their weights as they
    are, with scale None: int, float, or mixed int and Fraction weights,
    where an entry is an int only when its path takes int weights alone.
    """
    n = graph.n
    adj = graph.adjacency()
    weights = [w for _, _, w in graph.edges]
    scale = None
    if all(type(w) is Fraction for w in weights):
        scale, (ints,) = integer_rows([weights])
        to_int = dict(zip(weights, ints))
        adj = [[(v, to_int[w]) for v, w in row] for row in adj]
        weights = list(ints)
    rows: list[list[Number]] = []
    preds: list[list[int]] = []
    for s in range(n):
        dist, pred = _single_source(n, adj, s)
        for v in range(n):
            if dist[v] is None:
                raise DisconnectedGraphError(s, v, graph.labels)
        rows.append(dist)  # type: ignore[arg-type]
        preds.append(pred)
    # Float summation order differs per source; pin the i<j value.
    for i in range(n):
        for j in range(i + 1, n):
            if not close(rows[i][j], rows[j][i], graph.tol):
                raise InternalCheckError("asymmetric shortest-path matrix")
            rows[j][i] = rows[i][j]
    return rows, preds, weights, scale


def _divided(rows: list[list[Number]], scale: Optional[int]) -> list[list[Number]]:
    """The rows of _all_pairs in the graph's own numbers: each int-scaled
    entry off the diagonal back to its Fraction, the diagonal the int 0."""
    if scale is None:
        return rows
    n = len(rows)
    out: list[list[Number]] = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            out[i][j] = out[j][i] = Fraction(rows[i][j], scale)
    return out


def shortest_path_pseudometric(graph: WeightedGraph) -> list[list[Number]]:
    """All-pairs minimum path weight; raises on disconnected input."""
    rows, _, _, scale = _all_pairs(graph)
    return _divided(rows, scale)


def _walk_back(pred: list[int], source: int, target: int) -> tuple[int, ...]:
    path = [target]
    while path[-1] != source:
        path.append(pred[path[-1]])
    path.reverse()
    return tuple(path)


def check_metrizability(graph: WeightedGraph) -> MetrizationReport:
    """Decide pseudometrizability and metrizability of the weights.

    The weight function is pseudometrizable exactly when every edge is
    realized by the shortest-path distance between its ends.  On failure
    the report carries the cycle (shortest path plus the failing edge)
    whose heaviest edge exceeds half the cycle weight.  Metrizability
    additionally needs positive distances between distinct vertices.

    An all-Fraction graph takes both tests on the int-scaled rows and
    weights of _all_pairs, since a positive scale keeps every equality and
    sign; only the matrices the report holds are divided back.
    """
    if graph.n == 0:
        raise InputFormatError("graph has no vertices")
    rows, preds, weights, scale = _all_pairs(graph)

    for (i, j, _), w in zip(graph.edges, weights):
        if not close(rows[i][j], w, graph.tol):
            cycle = _walk_back(preds[i], i, j)
            d = _divided(rows, scale)
            return MetrizationReport(False, False, cycle, None, d)

    for i in range(graph.n):
        for j in range(i + 1, graph.n):
            if not positive(rows[i][j], graph.tol):
                d = _divided(rows, scale)
                return MetrizationReport(True, False, None, None, d)

    # Shortest paths on a connected graph with positive distances form a
    # metric (a detour through k is a path, so d(i,j) <= d(i,k) + d(k,j)),
    # and the pin in _all_pairs made the matrix symmetric.
    d = _divided(rows, scale)
    metric = metric_space(d, graph.labels, graph.tol)
    return MetrizationReport(True, True, None, metric, d)
