"""Command-line interface: every library operation behind a stable verb set.

Exit codes: 0 success or affirmative result, 1 negative result (no
embedding, not metrizable, not universal, ...), 2 input or usage error,
3 internal error (a float result drifted beyond tolerance from the value
the theory fixes; the README lists each site).
Reports go to stdout as JSON (sorted keys; exact values as "p/q" strings),
diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Optional

from .between import (
    cayley_menger,
    is_mb_space,
    is_mb_triple,
    is_pseudolinear,
    lies_between,
    line_realization,
    pl_labeling,
)
from .embed import Comparability, classify_space, compare, find_embeddings, is_not_shifted
from .errors import InputFormatError, InternalCheckError, InvalidMetricError, MsuError
from .families import (
    embed_quasiorder,
    is_minimal_universal_space,
    is_universal_space,
    maximal_representatives,
    nonexistence_condition_i,
    quotient_poset,
)
from .graphs import check_metrizability
from .io import (
    dump_report,
    load_family,
    load_graph,
    load_space,
    load_triangle,
    read_json,
    space_payload,
)
from .rays import (
    EPS_GEO,
    SOLVER_TOL,
    RayPoint,
    RaySpace,
    Triangle,
    embed_triple_tripod,
    embed_triple_two_rays,
    fermat_torricelli,
    solve_constrained_embedding,
    witness_triangle_tripod,
    witness_triangle_two_rays,
)
from .realsets import (
    F2Nat,
    F2Neg,
    f2_embed_distance,
    f2_removal_witness,
    interval_embed,
)
from .scalars import DEFAULT_TOL, Number, parse_number
from .unions import (
    BridgeParams,
    QuadPoint,
    RealPoint,
    TaggedPoint,
    connectivity_threshold,
    glue_constant,
    glue_ultrametric_pair,
    is_epsilon_connected,
    m_distance,
    sample_m_space,
    union_epsilon_connected,
    union_pl_quadruples,
    union_ultrametric_family,
    verify_minimal_union,
)


def _check_tol(name: str, value: float) -> float:
    if not (math.isfinite(value) and value > 0):
        raise InputFormatError(f"{name} must be finite and positive, got {value!r}")
    return value


def _space_tol(args: argparse.Namespace) -> float:
    return args.tol if args.tol is not None else DEFAULT_TOL


def _eps_geo(args: argparse.Namespace) -> float:
    if args.tol is not None:
        return args.tol
    env = os.environ.get("MSU_TOL")
    if env:
        try:
            value = float(env)
        except ValueError as exc:
            raise InputFormatError(f"MSU_TOL={env!r} is not a number") from exc
        return _check_tol("MSU_TOL", value)
    return EPS_GEO


def _load_space_arg(path: str, args: argparse.Namespace):
    return load_space(read_json(path), tol=_space_tol(args))


# ---- simple space verbs ----


def _cmd_validate(args):
    try:
        space = _load_space_arg(args.space, args)
    except InvalidMetricError as exc:
        return 1, {
            "valid": False,
            "violations": [v.payload() for v in exc.violations],
        }
    return 0, {"valid": True, "n": space.n, "exact": space.exact}


def _cmd_classify(args):
    space = _load_space_arg(args.space, args)
    return 0, classify_space(space).payload()


def _cmd_embed(args):
    dom = _load_space_arg(args.domain, args)
    cod = _load_space_arg(args.codomain, args)
    maps = find_embeddings(dom, cod, limit=args.limit)
    payload = {"count": len(maps), "embeddings": [pm.payload() for pm in maps]}
    return (0 if maps else 1), payload


def _cmd_compare(args):
    left = _load_space_arg(args.left, args)
    right = _load_space_arg(args.right, args)
    out = compare(left, right)
    return (1 if out is Comparability.INCOMPARABLE else 0), {
        "comparability": out.value
    }


def _cmd_selfmaps(args):
    space = _load_space_arg(args.space, args)
    rep = is_not_shifted(space)
    payload = {
        "not_shifted": rep.not_shifted,
        "count": len(rep.isometries),
        "isometries": [pm.payload() for pm in rep.isometries],
    }
    return (0 if rep.not_shifted else 1), payload


def _cmd_between(args):
    space = _load_space_arg(args.space, args)
    out = lies_between(space, args.i, args.j, args.k)
    return (0 if out else 1), {"between": out}


def _cmd_mb(args):
    if len(args.inputs) == 3:
        sides = [parse_number(v) for v in args.inputs]
        tol = _space_tol(args)
        flat = is_mb_triple(*sides, tol=tol)
        det = cayley_menger(*sides, tol=tol)
        return (0 if flat else 1), {"is_mb": flat, "determinant": det}
    if len(args.inputs) == 1:
        space = _load_space_arg(args.inputs[0], args)
        status = is_mb_space(space)
        return (0 if status.is_mb else 1), status.payload()
    raise InputFormatError("mb takes one space file or three distances")


def _cmd_pl(args):
    space = _load_space_arg(args.space, args)
    flag = is_pseudolinear(space)
    lab = pl_labeling(space)
    payload = {"pseudolinear": flag, "labeling": lab.payload()["perm"] if lab else None}
    return (0 if flag else 1), payload


def _cmd_line(args):
    space = _load_space_arg(args.space, args)
    out = line_realization(space)
    return (0 if out else 1), {"coords": list(out.coords) if out else None}


def _cmd_metrize(args):
    graph = load_graph(read_json(args.graph), tol=_space_tol(args))
    report = check_metrizability(graph)
    payload = report.payload()
    payload["pseudometric"] = [list(r) for r in report.pseudometric]
    return (0 if report.metrizable else 1), payload


# ---- union verbs ----


def _verify_suffix(union, args, payload):
    if not args.verify:
        return 0, payload
    report = verify_minimal_union(union)
    payload["verify"] = report.payload()
    return (0 if report.passed else 1), payload


def _parse_part_param(raw: str, parts) -> Number:
    """A numeric parameter in the mode of the parts it joins: float if any is."""
    value = parse_number(raw)
    return value if all(p.exact for p in parts) else float(value)


def _cmd_union_glue(args):
    x = _load_space_arg(args.x, args)
    y = _load_space_arg(args.y, args)
    union = glue_ultrametric_pair(
        x, y, args.x0, args.y0, _parse_part_param(args.r0, (x, y))
    )
    return _verify_suffix(union, args, union.payload())


def _cmd_union_constant(args):
    x = _load_space_arg(args.x, args)
    y = _load_space_arg(args.y, args)
    union = glue_constant(x, y, _parse_part_param(args.r0, (x, y)))
    return _verify_suffix(union, args, union.payload())


def _parse_int_list(raw: str) -> list[int]:
    try:
        return [int(s) for s in raw.split(",") if s != ""]
    except ValueError as exc:
        raise InputFormatError(f"bad integer list {raw!r}") from exc


def _cmd_union_graph(args):
    parts = [_load_space_arg(p, args) for p in args.parts]
    if args.eps_check is not None:
        if len(parts) != 1:
            raise InputFormatError("--eps-check inspects exactly one part")
        eps = _parse_part_param(args.eps_check, parts)
        connected = is_epsilon_connected(parts[0], eps)
        payload = {
            "eps": eps,
            "connected": connected,
            "threshold": connectivity_threshold(parts[0]),
        }
        return (0 if connected else 1), payload
    if args.eps1 is None:
        raise InputFormatError("--eps1 is required to build the union")
    anchors = _parse_int_list(args.anchors) if args.anchors else [0] * len(parts)
    union = union_epsilon_connected(parts, anchors, _parse_part_param(args.eps1, parts))
    return _verify_suffix(union, args, union.payload())


def _parse_number_list(raw: str) -> list:
    return [parse_number(s) for s in raw.split(",") if s != ""]


def _cmd_union_ultra(args):
    union = union_ultrametric_family(
        _parse_number_list(args.distances),
        _parse_number_list(args.separators),
        tol=_space_tol(args),
    )
    return _verify_suffix(union, args, union.payload())


def _cmd_union_pl(args):
    quads = [_load_space_arg(p, args) for p in args.quads]
    union = union_pl_quadruples(quads)
    return _verify_suffix(union, args, union.payload())


# ---- bridged space verbs ----


def _parse_m_point(raw: str):
    kind, _, rest = raw.partition(":")
    if kind == "r" and rest:
        return RealPoint(parse_number(rest))
    if kind == "q" and rest:
        part, _, point = rest.partition(".")
        try:
            return QuadPoint(TaggedPoint(int(part), int(point)))
        except ValueError:
            pass
    raise InputFormatError(
        f"bad point {raw!r}; use r:<number> or q:<part>.<point>"
    )


def _bridge_from(args) -> BridgeParams:
    return BridgeParams(
        parse_number(args.bridge_p),
        TaggedPoint(args.bridge_part, args.bridge_point),
        parse_number(args.bridge_r),
    )


def _cmd_mspace_sample(args):
    quads = [_load_space_arg(p, args) for p in args.quads]
    union = union_pl_quadruples(quads)
    pts = [_parse_m_point(p) for p in args.point or []]
    if len(pts) < 1:
        raise InputFormatError("need at least one --point")
    space = sample_m_space(pts, union, _bridge_from(args))
    return 0, space_payload(space)


def _cmd_mspace_dist(args):
    quads = [_load_space_arg(p, args) for p in args.quads]
    union = union_pl_quadruples(quads)
    pts = [_parse_m_point(p) for p in args.point or []]
    if len(pts) != 2:
        raise InputFormatError("need exactly two --point arguments")
    value = m_distance(pts[0], pts[1], union, _bridge_from(args))
    return 0, {"distance": value}


# ---- ray verbs ----


def _ray_points_payload(rays: RaySpace, pts) -> list:
    return [p.payload(rays) for p in pts]


def _parse_forbidden(raw_list) -> list[RayPoint]:
    out = []
    for raw in raw_list or []:
        ray, _, t = raw.partition(":")
        try:
            out.append(RayPoint(int(ray), float(t)))
        except ValueError as exc:
            raise InputFormatError(f"bad point {raw!r}; use <ray>:<t>") from exc
    return out


def _cmd_tripod_embed(args):
    tri = load_triangle(read_json(args.triangle), tol=_space_tol(args))
    rays = RaySpace.tripod()
    pts = embed_triple_tripod(tri, eps_geo=_eps_geo(args))
    payload = {"points": _ray_points_payload(rays, pts)}
    try:
        payload["ft"] = fermat_torricelli(tri, eps_geo=_eps_geo(args)).payload()
    except MsuError:
        payload["ft"] = None
    return 0, payload


def _cmd_tripod_witness(args):
    tri = witness_triangle_tripod(RayPoint(args.ray, args.t))
    return 0, tri.payload()


def _solver_run(args, rays: RaySpace):
    tri = load_triangle(read_json(args.triangle), tol=_space_tol(args))
    sols = solve_constrained_embedding(
        tri,
        rays,
        forbidden=_parse_forbidden(args.forbid),
        tol=args.solver_tol,
        eps_geo=_eps_geo(args),
    )
    payload = {
        "count": len(sols),
        "embeddings": [_ray_points_payload(rays, pts) for pts in sols],
    }
    return (0 if sols else 1), payload


def _cmd_tripod_check(args):
    return _solver_run(args, RaySpace.tripod())


def _cmd_xalpha_embed(args):
    tri = load_triangle(read_json(args.triangle), tol=_space_tol(args))
    rays = RaySpace.two_rays(args.alpha)
    pts = embed_triple_two_rays(tri, args.alpha, eps_geo=_eps_geo(args))
    if pts is None:
        return 1, {"points": None}
    return 0, {"points": _ray_points_payload(rays, pts)}


def _cmd_xalpha_witness(args):
    tri = witness_triangle_two_rays(RayPoint(args.ray, args.t), args.alpha)
    return 0, tri.payload()


def _cmd_xalpha_check(args):
    return _solver_run(args, RaySpace.two_rays(args.alpha))


# ---- real-set verbs ----


def _cmd_f2_embed(args):
    t = parse_number(args.t)
    a, b = f2_embed_distance(t)
    return 0, {"pair": [a.payload(), b.payload()], "distance": t}


def _cmd_f2_witness(args):
    if (args.nat is None) == (args.neg is None):
        raise InputFormatError("give exactly one of --nat or --neg")
    if args.nat is not None:
        point = F2Nat(args.nat)
    else:
        point = F2Neg(parse_number(args.neg))
    return 0, {"witness": f2_removal_witness(point)}


def _cmd_interval_embed(args):
    t = parse_number(args.t)
    p = parse_number(args.puncture) if args.puncture is not None else None
    out = interval_embed(t, p)
    return (0 if out else 1), {"interval": list(out) if out else None}


# ---- family verbs ----


def _family_arg(args):
    return load_family(args.family, tol=_space_tol(args))


def _cmd_classes_order(args):
    return 0, embed_quasiorder(_family_arg(args)).payload()


def _cmd_classes_poset(args):
    fam = _family_arg(args)
    poset = quotient_poset(embed_quasiorder(fam))
    payload = poset.payload()
    payload["representatives"] = [poset.classes[c][0] for c in poset.maximal]
    return 0, payload


def _cmd_classes_minimal(args):
    fam = _family_arg(args)
    reps = maximal_representatives(fam)
    return 0, {
        "representatives": reps,
        "members": [space_payload(fam.members[i]) for i in reps],
    }


def _cmd_check_universal(args):
    fam = _family_arg(args)
    if args.condition_i:
        holds, witness = nonexistence_condition_i(fam)
        return (1 if holds else 0), {
            "condition_i": holds,
            "witness": list(witness) if witness else None,
        }
    if args.target is None:
        raise InputFormatError("--target is required")
    target = _load_space_arg(args.target, args)
    ok = is_universal_space(fam, target)
    return (0 if ok else 1), {"universal": ok}


def _cmd_check_minimal_universal(args):
    fam = _family_arg(args)
    if args.target is None:
        raise InputFormatError("--target is required")
    target = _load_space_arg(args.target, args)
    report = is_minimal_universal_space(fam, target)
    return (0 if report.minimal else 1), report.payload()


# ---- parser ----


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true", help="indent the JSON report")
    common.add_argument(
        "--tol",
        type=float,
        default=None,
        help="float comparison and geometric verification tolerance",
    )

    top = argparse.ArgumentParser(
        prog="msu", description="finite metric spaces: embeddings, unions, rays"
    )
    sub = top.add_subparsers(dest="verb", required=True)

    def leaf(parent, name, handler, **kwargs):
        p = parent.add_parser(name, parents=[common], **kwargs)
        p.set_defaults(handler=handler)
        return p

    p = leaf(sub, "validate", _cmd_validate, help="check the metric axioms")
    p.add_argument("space")

    p = leaf(sub, "classify", _cmd_classify, help="structural flags of a space")
    p.add_argument("space")

    p = leaf(sub, "embed", _cmd_embed, help="find isometric embeddings")
    p.add_argument("domain")
    p.add_argument("codomain")
    p.add_argument("--limit", type=int, default=None)

    p = leaf(sub, "compare", _cmd_compare, help="mutual embeddability")
    p.add_argument("left")
    p.add_argument("right")

    p = leaf(sub, "selfmaps", _cmd_selfmaps, help="self-embeddings and surjectivity")
    p.add_argument("space")

    p = leaf(sub, "between", _cmd_between, help="does j lie between i and k")
    p.add_argument("space")
    p.add_argument("i", type=int)
    p.add_argument("j", type=int)
    p.add_argument("k", type=int)

    p = leaf(sub, "mb", _cmd_mb, help="collinearity of a triple or a whole space")
    p.add_argument("inputs", nargs="+", help="one space file, or three distances")

    p = leaf(sub, "pl", _cmd_pl, help="pseudo-linear quadruple test")
    p.add_argument("space")

    p = leaf(sub, "line", _cmd_line, help="coordinates on the real line")
    p.add_argument("space")

    p = leaf(sub, "metrize", _cmd_metrize, help="shortest-path metrizability")
    p.add_argument("graph")

    punion = sub.add_parser("union", help="disjoint-union builders")
    usub = punion.add_subparsers(dest="kind", required=True)

    def union_leaf(name, handler, **kwargs):
        p = leaf(usub, name, handler, **kwargs)
        p.add_argument(
            "--verify", action="store_true", help="run the minimal-union verifier"
        )
        return p

    p = union_leaf("glue", _cmd_union_glue, help="join two ultrametric spaces")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--x0", type=int, default=0)
    p.add_argument("--y0", type=int, default=0)
    p.add_argument("--r0", required=True)

    p = union_leaf("constant", _cmd_union_constant, help="constant cross distance")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--r0", required=True)

    p = union_leaf("graph", _cmd_union_graph, help="anchor-graph union")
    p.add_argument("parts", nargs="+")
    p.add_argument("--anchors", default=None, help="comma list, one per part")
    p.add_argument("--eps1", default=None)
    p.add_argument(
        "--eps-check",
        default=None,
        help="report connectivity of one part at this radius instead of building",
    )

    p = union_leaf("ultra", _cmd_union_ultra, help="two-point ultrametric family")
    p.add_argument("--distances", required=True, help="comma list")
    p.add_argument("--separators", required=True, help="comma list starting at 0")

    p = union_leaf("pl", _cmd_union_pl, help="pseudo-linear quadruple union")
    p.add_argument("quads", nargs="+")

    pmspace = sub.add_parser("mspace", help="line bridged to a quadruple union")
    msub = pmspace.add_subparsers(dest="kind", required=True)

    def mspace_leaf(name, handler, **kwargs):
        p = leaf(msub, name, handler, **kwargs)
        p.add_argument("--quads", nargs="+", required=True)
        p.add_argument("--bridge-p", required=True)
        p.add_argument("--bridge-part", type=int, default=0)
        p.add_argument("--bridge-point", type=int, default=0)
        p.add_argument("--bridge-r", required=True)
        p.add_argument("--point", action="append", help="r:<num> or q:<part>.<point>")
        return p

    mspace_leaf("sample", _cmd_mspace_sample, help="sampled finite submetric")
    mspace_leaf("dist", _cmd_mspace_dist, help="distance between two points")

    ptripod = sub.add_parser("tripod", help="three rays at 120 degrees")
    tsub = ptripod.add_subparsers(dest="kind", required=True)

    p = leaf(tsub, "embed", _cmd_tripod_embed, help="constructive embedding")
    p.add_argument("triangle")

    p = leaf(tsub, "witness", _cmd_tripod_witness, help="minimality witness triangle")
    p.add_argument("--ray", type=int, default=0)
    p.add_argument("--t", type=float, required=True)

    p = leaf(tsub, "check", _cmd_tripod_check, help="solver search")
    p.add_argument("triangle")
    p.add_argument("--forbid", action="append", help="<ray>:<t>, repeatable")
    p.add_argument("--solver-tol", type=float, default=SOLVER_TOL)

    pxalpha = sub.add_parser("xalpha", help="two rays at a chosen angle")
    xsub = pxalpha.add_subparsers(dest="kind", required=True)

    p = leaf(xsub, "embed", _cmd_xalpha_embed, help="constructive embedding")
    p.add_argument("triangle")
    p.add_argument("--alpha", type=float, required=True)

    p = leaf(xsub, "witness", _cmd_xalpha_witness, help="minimality witness triangle")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--ray", type=int, default=0)
    p.add_argument("--t", type=float, required=True)

    p = leaf(xsub, "check", _cmd_xalpha_check, help="solver search")
    p.add_argument("triangle")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--forbid", action="append", help="<ray>:<t>, repeatable")
    p.add_argument("--solver-tol", type=float, default=SOLVER_TOL)

    pf2 = sub.add_parser("f2", help="the (-1,0) union naturals space")
    fsub = pf2.add_subparsers(dest="kind", required=True)

    p = leaf(fsub, "embed", _cmd_f2_embed, help="pair at a requested distance")
    p.add_argument("--t", required=True)

    p = leaf(fsub, "witness", _cmd_f2_witness, help="distance lost by removing a point")
    p.add_argument("--nat", type=int, default=None)
    p.add_argument("--neg", default=None)

    pint = sub.add_parser("interval", help="open unit interval")
    isub = pint.add_subparsers(dest="kind", required=True)

    p = leaf(isub, "embed", _cmd_interval_embed, help="place a segment, avoid a point")
    p.add_argument("--t", required=True)
    p.add_argument("--puncture", default=None)

    pclasses = sub.add_parser("classes", help="embeddability order over a family")
    csub = pclasses.add_subparsers(dest="kind", required=True)

    p = leaf(csub, "order", _cmd_classes_order, help="pairwise embeddability matrix")
    p.add_argument("family", nargs="+")

    p = leaf(csub, "poset", _cmd_classes_poset, help="quotient partial order")
    p.add_argument("family", nargs="+")

    p = leaf(csub, "minimal", _cmd_classes_minimal, help="minimal universal subclass")
    p.add_argument("family", nargs="+")

    pcheck = sub.add_parser("check", help="universality of a target space")
    ksub = pcheck.add_subparsers(dest="kind", required=True)

    p = leaf(ksub, "universal", _cmd_check_universal, help="every member embeds")
    p.add_argument("family", nargs="+")
    p.add_argument("--target", default=None)
    p.add_argument(
        "--condition-i",
        action="store_true",
        help="look for two non-isometric universal members instead",
    )

    p = leaf(
        ksub,
        "minimal-universal",
        _cmd_check_minimal_universal,
        help="universal with no removable point",
    )
    p.add_argument("family", nargs="+")
    p.add_argument("--target", default=None)

    return top


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for flag in ("tol", "solver_tol"):
            value = getattr(args, flag, None)
            if value is not None:
                _check_tol("--" + flag.replace("_", "-"), value)
        code, payload = args.handler(args)
    except MsuError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    if payload is not None:
        try:
            print(dump_report(payload, pretty=args.pretty))
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader left early (`msu ... | head`).  Send what is still
            # buffered to devnull so the flush at exit cannot raise again.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
