"""Command-line interface: every library operation behind one table of verbs.

Exit codes: 0 success or affirmative result, 1 negative result (no
embedding, not metrizable, not universal, ...), 2 input or usage error,
3 internal error (a float result drifted beyond tolerance from the value
the theory fixes; the README lists each site).
Reports go to stdout as JSON (sorted keys; exact values as "p/q" strings),
diagnostics to stderr.

`_VERBS` maps each verb path, such as ("union", "glue"), to its help
text, its argument specs and its run function, which returns (exit code,
payload); `_GROUPS` holds the help text of each group of verbs.  Every
call of main() builds one parser from the whole table.  The run functions
reach the library through the `msu` package, which imports a module on
first use, so a verb loads only what it calls.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Optional

import msu


def _arg(*flags, check=None, **kwargs):
    """One argument spec: argparse flags and keywords, and an optional
    check(flag, value) that validates or converts a given value after parsing."""
    return flags, kwargs, check


def _positive(flag: str, value: float) -> float:
    if not (math.isfinite(value) and value > 0):
        raise msu.InputFormatError(f"{flag} must be finite and positive, got {value!r}")
    return value


def _tolerance(flag: str, value: float) -> float:
    # close(v, 0, tol) holds for every v once tol >= 1 (|v| <= tol * |v|),
    # so every distance would read as nonpositive.
    if _positive(flag, value) >= 1:
        raise msu.InputFormatError(f"{flag} must be below 1, got {value!r}")
    return value


def _finite(flag: str, value: float) -> float:
    if not math.isfinite(value):
        raise msu.InputFormatError(f"{flag} must be finite, got {value!r}")
    return value


def _forbidden(flag: str, raws: list[str]) -> list:
    out = []
    for raw in raws:
        ray, _, t = raw.partition(":")
        try:
            ray, t = int(ray), float(t)
        except ValueError as exc:
            raise msu.InputFormatError(f"bad point {raw!r}; use <ray>:<t>") from exc
        out.append(msu.RayPoint(ray, _finite(flag, t)))
    return out


# ---- argument specs used by more than one verb ----

_COMMON = [
    _arg("--pretty", action="store_true", help="indent the JSON report"),
    _arg("--tol", type=float, default=None, check=_tolerance,
         help="float comparison and geometric verification tolerance"),
]
_SPACE = _arg("space")
_FAMILY = _arg("family", nargs="+")
_TRIANGLE = _arg("triangle")
_TARGET = _arg("--target", default=None)
_ALPHA = _arg("--alpha", type=float, required=True, check=_finite)
_RAY = _arg("--ray", type=int, default=0)
_T_FLOAT = _arg("--t", type=float, required=True, check=_finite)
_T_NUMBER = _arg("--t", required=True)
_FORBID = _arg("--forbid", action="append", help="<ray>:<t>, repeatable", check=_forbidden)
_SOLVER_TOL = _arg("--solver-tol", type=float, default=None, check=_positive)
_VERIFY = _arg("--verify", action="store_true", help="run the minimal-union verifier")
_R0 = _arg("--r0", required=True)
_BRIDGE = [
    _arg("--quads", nargs="+", required=True),
    _arg("--bridge-p", required=True),
    _arg("--bridge-part", type=int, default=0),
    _arg("--bridge-point", type=int, default=0),
    _arg("--bridge-r", required=True),
    _arg("--point", action="append", help="r:<num> or q:<part>.<point>"),
]


# ---- helpers of the run functions ----


def _answer(ok: bool, payload: dict):
    return (0 if ok else 1), payload


def _space_tol(args: argparse.Namespace) -> float:
    return args.tol if args.tol is not None else msu.DEFAULT_TOL


def _eps_geo(args: argparse.Namespace) -> float:
    return args.tol if args.tol is not None else msu.EPS_GEO


def _space(path: str, args: argparse.Namespace):
    return msu.load_space(msu.read_json(path), tol=_space_tol(args))


def _triangle(args: argparse.Namespace):
    return msu.load_triangle(msu.read_json(args.triangle), tol=_space_tol(args))


def _family(args: argparse.Namespace):
    return msu.load_family(args.family, tol=_space_tol(args))


def _part_param(raw: str, parts):
    """A numeric parameter in the mode of the parts it joins: float if any is."""
    value = msu.parse_number(raw)
    if all(p.exact for p in parts):
        return value
    try:
        return float(value)
    except OverflowError:
        raise msu.InputFormatError(f"{raw!r} is too large for a float") from None


def _int_list(raw: str) -> list[int]:
    try:
        return [int(s) for s in raw.split(",") if s != ""]
    except ValueError as exc:
        raise msu.InputFormatError(f"bad integer list {raw!r}") from exc


def _number_list(raw: str) -> list:
    return [msu.parse_number(s) for s in raw.split(",") if s != ""]


def _verified(union, args):
    payload = union.payload()
    if not args.verify:
        return 0, payload
    report = msu.verify_minimal_union(union)
    payload["verify"] = report.payload()
    return _answer(report.passed, payload)


def _m_point(raw: str, quads):
    kind, _, rest = raw.partition(":")
    if kind == "r" and rest:
        return msu.RealPoint(_part_param(rest, quads))
    if kind == "q" and rest:
        part, _, point = rest.partition(".")
        try:
            return msu.QuadPoint(msu.TaggedPoint(int(part), int(point)))
        except ValueError:
            pass
    raise msu.InputFormatError(f"bad point {raw!r}; use r:<number> or q:<part>.<point>")


def _bridged(args):
    """The quadruple union, the bridge and the --point list of an mspace
    verb; numbers take the mode of the quadruple files."""
    quads = [_space(p, args) for p in args.quads]
    union = msu.union_pl_quadruples(quads)
    bridge = msu.BridgeParams(
        _part_param(args.bridge_p, quads),
        msu.TaggedPoint(args.bridge_part, args.bridge_point),
        _part_param(args.bridge_r, quads),
    )
    return union, bridge, [_m_point(p, quads) for p in args.point or []]


def _witness_point(args, ray_count: int):
    if not 0 <= args.ray < ray_count:
        raise msu.IndexRangeError(
            f"--ray {args.ray} is not a ray of the space (0..{ray_count - 1})"
        )
    return msu.RayPoint(args.ray, args.t)


def _ray_points(rays, pts) -> list:
    return [p.payload(rays) for p in pts]


def _solve(args, rays):
    sols = msu.solve_constrained_embedding(
        _triangle(args),
        rays,
        forbidden=args.forbid or [],
        tol=msu.SOLVER_TOL if args.solver_tol is None else args.solver_tol,
        eps_geo=_eps_geo(args),
    )
    payload = {"count": len(sols), "embeddings": [_ray_points(rays, pts) for pts in sols]}
    return _answer(bool(sols), payload)


def _target(args):
    if args.target is None:
        raise msu.InputFormatError("--target is required")
    return _space(args.target, args)


# ---- the table: verb path -> (help, argument specs, run function) ----

_GROUPS = {
    "union": "disjoint-union builders",
    "mspace": "line bridged to a quadruple union",
    "tripod": "three rays at 120 degrees",
    "xalpha": "two rays at a chosen angle",
    "f2": "the (-1,0) union naturals space",
    "interval": "open unit interval",
    "classes": "embeddability order over a family",
    "check": "universality of a target space",
}
_VERBS: dict = {}


def _verb(path: str, help_text: str, *specs):
    """Enter the decorated run function, args -> (exit code, payload), under
    the space-separated verb path."""

    def enter(run):
        _VERBS[tuple(path.split())] = (help_text, list(specs), run)
        return run

    return enter


@_verb("validate", "check the metric axioms", _SPACE)
def _validate(args):
    try:
        space = _space(args.space, args)
    except msu.InvalidMetricError as exc:
        return 1, {"valid": False, "violations": [v.payload() for v in exc.violations]}
    return 0, {"valid": True, "n": space.n, "exact": space.exact}


@_verb("classify", "structural flags of a space", _SPACE)
def _classify(args):
    return 0, msu.classify_space(_space(args.space, args)).payload()


@_verb("embed", "find isometric embeddings", _arg("domain"), _arg("codomain"),
       _arg("--limit", type=int, default=None))
def _embed(args):
    dom, cod = _space(args.domain, args), _space(args.codomain, args)
    maps = msu.find_embeddings(dom, cod, limit=args.limit)
    payload = {"count": len(maps), "embeddings": [pm.payload() for pm in maps]}
    return _answer(bool(maps), payload)


@_verb("compare", "mutual embeddability", _arg("left"), _arg("right"))
def _compare(args):
    out = msu.compare(_space(args.left, args), _space(args.right, args))
    return (1 if out is msu.Comparability.INCOMPARABLE else 0), {"comparability": out.value}


@_verb("selfmaps", "self-embeddings and surjectivity", _SPACE)
def _selfmaps(args):
    rep = msu.is_not_shifted(_space(args.space, args))
    payload = {
        "not_shifted": rep.not_shifted,
        "count": len(rep.isometries),
        "isometries": [pm.payload() for pm in rep.isometries],
    }
    return _answer(rep.not_shifted, payload)


@_verb("between", "does j lie between i and k",
       _SPACE, _arg("i", type=int), _arg("j", type=int), _arg("k", type=int))
def _between(args):
    out = msu.lies_between(_space(args.space, args), args.i, args.j, args.k)
    return _answer(out, {"between": out})


@_verb("mb", "collinearity of a triple or a whole space",
       _arg("inputs", nargs="+", help="one space file, or three distances"))
def _mb(args):
    if len(args.inputs) == 3:
        sides = [msu.parse_number(v) for v in args.inputs]
        tol = _space_tol(args)
        flat = msu.is_mb_triple(*sides, tol=tol)
        return _answer(flat, {"is_mb": flat, "determinant": msu.cayley_menger(*sides, tol=tol)})
    if len(args.inputs) == 1:
        status = msu.is_mb_space(_space(args.inputs[0], args))
        return _answer(status.is_mb, status.payload())
    raise msu.InputFormatError("mb takes one space file or three distances")


@_verb("pl", "pseudo-linear quadruple test", _SPACE)
def _pl(args):
    space = _space(args.space, args)
    flag = msu.is_pseudolinear(space)
    lab = msu.pl_labeling(space)
    payload = {"pseudolinear": flag, "labeling": lab.payload()["perm"] if lab else None}
    return _answer(flag, payload)


@_verb("line", "coordinates on the real line", _SPACE)
def _line(args):
    out = msu.line_realization(_space(args.space, args))
    return _answer(out, {"coords": list(out.coords) if out else None})


@_verb("metrize", "shortest-path metrizability", _arg("graph"))
def _metrize(args):
    graph = msu.load_graph(msu.read_json(args.graph), tol=_space_tol(args))
    report = msu.check_metrizability(graph)
    payload = report.payload()
    payload["pseudometric"] = [list(r) for r in report.pseudometric]
    return _answer(report.metrizable, payload)


@_verb("union glue", "join two ultrametric spaces", _VERIFY, _arg("x"), _arg("y"),
       _arg("--x0", type=int, default=0), _arg("--y0", type=int, default=0), _R0)
def _union_glue(args):
    x, y = _space(args.x, args), _space(args.y, args)
    union = msu.glue_ultrametric_pair(x, y, args.x0, args.y0, _part_param(args.r0, (x, y)))
    return _verified(union, args)


@_verb("union constant", "constant cross distance", _VERIFY, _arg("x"), _arg("y"), _R0)
def _union_constant(args):
    x, y = _space(args.x, args), _space(args.y, args)
    return _verified(msu.glue_constant(x, y, _part_param(args.r0, (x, y))), args)


@_verb("union graph", "anchor-graph union", _VERIFY, _arg("parts", nargs="+"),
       _arg("--anchors", default=None, help="comma list, one per part"),
       _arg("--eps1", default=None),
       _arg("--eps-check", default=None,
            help="report connectivity of one part at this radius instead of building"))
def _union_graph(args):
    parts = [_space(p, args) for p in args.parts]
    if args.eps_check is not None:
        if len(parts) != 1:
            raise msu.InputFormatError("--eps-check inspects exactly one part")
        eps = _part_param(args.eps_check, parts)
        connected = msu.is_epsilon_connected(parts[0], eps)
        payload = {
            "eps": eps,
            "connected": connected,
            "threshold": msu.connectivity_threshold(parts[0]),
        }
        return _answer(connected, payload)
    if args.eps1 is None:
        raise msu.InputFormatError("--eps1 is required to build the union")
    anchors = _int_list(args.anchors) if args.anchors else [0] * len(parts)
    union = msu.union_epsilon_connected(parts, anchors, _part_param(args.eps1, parts))
    return _verified(union, args)


@_verb("union ultra", "two-point ultrametric family", _VERIFY,
       _arg("--distances", required=True, help="comma list"),
       _arg("--separators", required=True, help="comma list starting at 0"))
def _union_ultra(args):
    union = msu.union_ultrametric_family(
        _number_list(args.distances), _number_list(args.separators), tol=_space_tol(args)
    )
    return _verified(union, args)


@_verb("union pl", "pseudo-linear quadruple union", _VERIFY, _arg("quads", nargs="+"))
def _union_pl(args):
    return _verified(msu.union_pl_quadruples([_space(p, args) for p in args.quads]), args)


@_verb("mspace sample", "sampled finite submetric", *_BRIDGE)
def _mspace_sample(args):
    union, bridge, pts = _bridged(args)
    if len(pts) < 1:
        raise msu.InputFormatError("need at least one --point")
    return 0, msu.space_payload(msu.sample_m_space(pts, union, bridge))


@_verb("mspace dist", "distance between two points", *_BRIDGE)
def _mspace_dist(args):
    union, bridge, pts = _bridged(args)
    if len(pts) != 2:
        raise msu.InputFormatError("need exactly two --point arguments")
    return 0, {"distance": msu.m_distance(pts[0], pts[1], union, bridge)}


@_verb("tripod embed", "constructive embedding", _TRIANGLE)
def _tripod_embed(args):
    tri = _triangle(args)
    pts = msu.embed_triple_tripod(tri, eps_geo=_eps_geo(args))
    payload = {"points": _ray_points(msu.RaySpace.tripod(), pts)}
    try:
        payload["ft"] = msu.fermat_torricelli(tri).payload()
    except msu.MsuError:
        payload["ft"] = None
    return 0, payload


@_verb("tripod witness", "minimality witness triangle", _RAY, _T_FLOAT)
def _tripod_witness(args):
    return 0, msu.witness_triangle_tripod(_witness_point(args, 3)).payload()


@_verb("tripod check", "solver search", _TRIANGLE, _FORBID, _SOLVER_TOL)
def _tripod_check(args):
    return _solve(args, msu.RaySpace.tripod())


@_verb("xalpha embed", "constructive embedding", _TRIANGLE, _ALPHA)
def _xalpha_embed(args):
    tri = _triangle(args)
    rays = msu.RaySpace.two_rays(args.alpha)
    pts = msu.embed_triple_two_rays(tri, args.alpha, eps_geo=_eps_geo(args))
    if pts is None:
        return 1, {"points": None}
    return 0, {"points": _ray_points(rays, pts)}


@_verb("xalpha witness", "minimality witness triangle", _ALPHA, _RAY, _T_FLOAT)
def _xalpha_witness(args):
    return 0, msu.witness_triangle_two_rays(_witness_point(args, 2), args.alpha).payload()


@_verb("xalpha check", "solver search", _TRIANGLE, _ALPHA, _FORBID, _SOLVER_TOL)
def _xalpha_check(args):
    return _solve(args, msu.RaySpace.two_rays(args.alpha))


@_verb("f2 embed", "pair at a requested distance", _T_NUMBER)
def _f2_embed(args):
    t = msu.parse_number(args.t)
    a, b = msu.f2_embed_distance(t)
    return 0, {"pair": [a.payload(), b.payload()], "distance": t}


@_verb("f2 witness", "distance lost by removing a point",
       _arg("--nat", type=int, default=None), _arg("--neg", default=None))
def _f2_witness(args):
    if (args.nat is None) == (args.neg is None):
        raise msu.InputFormatError("give exactly one of --nat or --neg")
    if args.nat is not None:
        point = msu.F2Nat(args.nat)
    else:
        point = msu.F2Neg(msu.parse_number(args.neg))
    return 0, {"witness": msu.f2_removal_witness(point)}


@_verb("interval embed", "place a segment, avoid a point", _T_NUMBER,
       _arg("--puncture", default=None))
def _interval_embed(args):
    p = msu.parse_number(args.puncture) if args.puncture is not None else None
    out = msu.interval_embed(msu.parse_number(args.t), p)
    return _answer(out, {"interval": list(out) if out else None})


@_verb("classes order", "pairwise embeddability matrix", _FAMILY)
def _classes_order(args):
    return 0, msu.embed_quasiorder(_family(args)).payload()


@_verb("classes poset", "quotient partial order", _FAMILY)
def _classes_poset(args):
    poset = msu.quotient_poset(msu.embed_quasiorder(_family(args)))
    payload = poset.payload()
    payload["representatives"] = [poset.classes[c][0] for c in poset.maximal]
    return 0, payload


@_verb("classes minimal", "minimal universal subclass", _FAMILY)
def _classes_minimal(args):
    fam = _family(args)
    reps = msu.maximal_representatives(fam)
    return 0, {
        "representatives": reps,
        "members": [msu.space_payload(fam.members[i]) for i in reps],
    }


@_verb("check universal", "every member embeds", _FAMILY, _TARGET,
       _arg("--condition-i", action="store_true",
            help="look for two non-isometric universal members instead"))
def _check_universal(args):
    fam = _family(args)
    if args.condition_i:
        holds, witness = msu.nonexistence_condition_i(fam)
        return (1 if holds else 0), {
            "condition_i": holds,
            "witness": list(witness) if witness else None,
        }
    ok = msu.is_universal_space(fam, _target(args))
    return _answer(ok, {"universal": ok})


@_verb("check minimal-universal", "universal with no removable point", _FAMILY, _TARGET)
def _check_minimal_universal(args):
    report = msu.is_minimal_universal_space(_family(args), _target(args))
    return _answer(report.minimal, report.payload())


def build_parser() -> argparse.ArgumentParser:
    """One parser for the whole table; each leaf records its path as `leaf`."""
    common = argparse.ArgumentParser(add_help=False)
    for flags, kwargs, _check in _COMMON:
        common.add_argument(*flags, **kwargs)
    top = argparse.ArgumentParser(
        prog="msu", description="finite metric spaces: embeddings, unions, rays"
    )
    groups = {(): top.add_subparsers(dest="verb", required=True)}
    for path, (help_text, specs, _run) in _VERBS.items():
        if path[:-1] not in groups:
            group = groups[()].add_parser(path[0], help=_GROUPS[path[0]])
            groups[path[:-1]] = group.add_subparsers(dest="kind", required=True)
        p = groups[path[:-1]].add_parser(path[-1], parents=[common], help=help_text)
        for flags, kwargs, _check in specs:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(leaf=path)
    return top


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    _help, specs, run = _VERBS[args.leaf]
    try:
        for flags, _kwargs, check in _COMMON + specs:
            dest = flags[0].lstrip("-").replace("-", "_")
            value = getattr(args, dest)
            if check is not None and value is not None:
                setattr(args, dest, check(flags[0], value))
        code, payload = run(args)
        if payload is not None:
            try:
                print(msu.dump_report(payload, pretty=args.pretty))
                sys.stdout.flush()
            except BrokenPipeError:
                # The reader left early (`msu ... | head`).  Send what is still
                # buffered to devnull so the flush at exit cannot raise again.
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
    except msu.MsuError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except msu.InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
