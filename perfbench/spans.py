"""Spans around msu's public functions, recorded from outside the package.

Each public function of each msu module is wrapped under every name that
an msu module (or the msu package) binds it to, so calls between modules
pass through a wrapper.  A wrapper records a span (name, start, end,
parent) and the work counts of its layer.  Calls into msu.scalars come by
the hundred thousand per pass; they are timed and counted per layer but
kept out of the span list, and calls inside msu.scalars stay direct.
Nothing is wrapped until install() and everything is restored by
uninstall(), so untraced runs execute msu unchanged.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import os
import time
from collections import defaultdict

import checks as ck

LAYERS = ("scalars", "spaces", "between", "graphs", "embed", "unions", "families", "rays", "io", "cli")
SCALAR_COMPARES = frozenset(("close", "leq", "positive"))


class Tracer:
    def __init__(self, msu):
        self.msu = msu
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int, int]] = []  # id, name, parent, start, end
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(int)
        self.placements: list[tuple] = []  # (function, args, kwargs, result)
        # A frame is [child ns, span id, layer]; the bottom one stands for the benchmark.
        self.stack = [[0, -1, "bench"]]
        self.next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    # ---- installing ----

    def install(self) -> None:
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"msu.{layer}")
            except ImportError:  # a layer a refactor removed is skipped
                continue
        holders = [self.msu] + list(modules.values())
        for layer, mod in modules.items():
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if layer == "scalars":
                    wrapper = self._leaf(layer, name, fn)
                else:
                    wrapper = self._span(layer, name, fn)
                for holder in holders:
                    if holder is mod and layer == "scalars":
                        continue
                    if vars(holder).get(name) is fn:
                        setattr(holder, name, wrapper)
                        self._undo.append((holder, name, fn))

    def uninstall(self) -> None:
        for holder, name, fn in reversed(self._undo):
            setattr(holder, name, fn)
        self._undo.clear()

    # ---- wrappers ----

    def _leaf(self, layer, name, fn):
        clock, stack, calls, self_ns, counts = time.perf_counter_ns, self.stack, self.calls, self.self_ns, self.counts
        compare = name in SCALAR_COMPARES

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack[-1][0] += dur
                self_ns[layer] += dur
                calls[layer] += 1
                if compare:
                    counts["scalars.compares"] += 1

        return wrapper

    def _span(self, layer, name, fn):
        clock, stack = time.perf_counter_ns, self.stack
        name_id = len(self.names)
        self.names.append(f"{layer}.{name}")
        hook = HOOKS.get(f"{layer}.{name}")

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            sid = self.next_id
            self.next_id += 1
            frame = [0, sid, layer]
            stack.append(frame)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent[0] += dur
                self.self_ns[layer] += dur - frame[0]
                self.calls[layer] += 1
                self.spans.append((sid, name_id, parent[1], t0, t1))
                if hook is not None:
                    hook(self, args, kwargs, result, dur, parent[2])

        return wrapper

    # ---- results ----

    def metrics(self, passes: int) -> dict:
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (self.calls[layer] / passes, "count")
            out[f"{layer}.self_s"] = (self.self_ns[layer] / 1e9 / passes, "s")
        c = self.counts
        for key in ("scalars.compares", "spaces.triples", "spaces.violations", "graphs.vertices", "graphs.edges",
                    "embed.maps_found", "unions.points_built", "families.embeds_issued", "rays.solver_calls",
                    "rays.placements", "io.bytes_read"):
            out[key] = (c[key] / passes, "bytes" if key == "io.bytes_read" else "count")
        out["embed.decide_hit_ratio"] = (c["embed.embeds_hits"] / max(1, c["embed.embeds_calls"]), "ratio")
        out["rays.solver_s"] = (c["rays.solver_ns"] / 1e9 / passes, "s")
        valid = sum(1 for p in self.placements if placement_ok(*p))
        out["rays.placements_valid_ratio"] = (valid / max(1, len(self.placements)), "ratio")
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "fields": ["id", "name", "parent", "start_ns", "end_ns"],
                       "spans": self.spans}, fh, separators=(",", ":"))


# ---- work counts, taken where the work crosses a layer boundary ----


def _violations(tr, args, kwargs, result, dur, parent):
    n = len(args[0] if args else kwargs["matrix"])
    tr.counts["spaces.triples"] += n * (n - 1) * (n - 2) // 6
    if result is not None:
        tr.counts["spaces.violations"] += len(result)


def _graph(tr, args, kwargs, result, dur, parent):
    g = args[0] if args else kwargs["graph"]
    tr.counts["graphs.vertices"] += g.n
    tr.counts["graphs.edges"] += len(g.edges)


def _maps(tr, args, kwargs, result, dur, parent):
    if result is not None:
        tr.counts["embed.maps_found"] += len(result)


def _embeds(tr, args, kwargs, result, dur, parent):
    tr.counts["embed.embeds_calls"] += 1
    tr.counts["embed.embeds_hits"] += bool(result)
    if parent == "families":
        tr.counts["families.embeds_issued"] += 1


def _union(tr, args, kwargs, result, dur, parent):
    if result is not None:
        tr.counts["unions.points_built"] += result.space.n


def _solver(tr, args, kwargs, result, dur, parent):
    tr.counts["rays.solver_calls"] += 1
    tr.counts["rays.solver_ns"] += dur
    if result is not None:
        tr.counts["rays.placements"] += len(result)
        tr.placements += [("solve", args, kwargs, sol) for sol in result]


def _triple(kind):
    def hook(tr, args, kwargs, result, dur, parent):
        if result is not None:
            tr.counts["rays.placements"] += 1
            tr.placements.append((kind, args, kwargs, result))

    return hook


def _bytes(tr, args, kwargs, result, dur, parent):
    path = args[0] if args else kwargs["path"]
    if os.path.exists(path):
        tr.counts["io.bytes_read"] += os.path.getsize(path)


HOOKS = {
    "spaces.metric_violations": _violations,
    "graphs.check_metrizability": _graph,
    "graphs.shortest_path_pseudometric": _graph,
    "embed.find_embeddings": _maps,
    "embed.embeds": _embeds,
    "rays.solve_constrained_embedding": _solver,
    "rays.embed_triple_tripod": _triple("tripod"),
    "rays.embed_triple_two_rays": _triple("two_rays"),
    "io.read_json": _bytes,
}
for _name in ("glue_ultrametric_pair", "glue_constant", "union_epsilon_connected",
              "union_ultrametric_family", "union_pl_quadruples"):
    HOOKS[f"unions.{_name}"] = _union


def _sides(tri) -> tuple[float, float, float]:
    if hasattr(tri, "sides"):  # Triangle(a, b, c): a = d12, b = d02, c = d01
        a, b, c = tri.sides()
        return (c, b, a)
    return (float(tri.dist(0, 1)), float(tri.dist(0, 2)), float(tri.dist(1, 2)))


def placement_ok(kind, args, kwargs, pts) -> bool:
    """The benchmark's planar check of one placement a rays call returned."""
    sides = _sides(args[0] if args else kwargs["tri"])
    s = sorted(sides)
    flat = math.isclose(s[2], s[0] + s[1], rel_tol=1e-12, abs_tol=1e-12)
    if kind == "tripod":
        return ck.placement_problem(pts, sides, ck.tripod_angles(), True, flat=flat) is None
    if kind == "two_rays":
        alpha = args[1] if len(args) > 1 else kwargs["alpha"]
        return ck.placement_problem(pts, sides, ck.two_ray_angles(alpha), False, flat=flat) is None
    rays = args[1] if len(args) > 1 else kwargs["rays"]
    forbidden = args[2] if len(args) > 2 else kwargs.get("forbidden", ())
    holes = [(f.ray, f.t) for f in forbidden]
    return ck.placement_problem(pts, sides, rays.angles, rays.include_origin, holes, flat) is None
