"""Shows that every check of the benchmark can fail.

    python3 perfbench/selftest.py

Each case feeds one check a right answer, which it must accept, and a
deliberately wrong one, which it must reject.  Exits 1 if any check
accepts a wrong answer or rejects a right one.
"""

import copy
import dataclasses
import math
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import msu  # noqa: E402

import checks as ck  # noqa: E402
import workloads as wl  # noqa: E402

CASES = []


def case(fn):
    CASES.append(fn)
    return fn


def rejects(check, answer) -> bool:
    try:
        check(answer)
    except ck.CheckFailed:
        return True
    return False


def swap(obj, **changes):
    return dataclasses.replace(obj, **changes)


@case
def embedding_with_two_images_swapped():
    cod = wl.bounded_metric(wl.random.Random(1), 12, 3, 1)
    planted = [3, 7, 9, 11]
    dom = wl.restrict(cod, planted)
    maps = msu.find_embeddings(msu.validate_space(dom), msu.validate_space(cod))
    oracle = ck.networkx_images(dom, cod)

    def check(ans):
        ck.check_maps(ans, dom, cod, planted, oracle=oracle)

    img = list(maps[0].image)
    img[0], img[1] = img[1], img[0]
    wrong = [msu.PointMap(tuple(img))] + maps[1:]
    return check, maps, wrong


@case
def embedding_list_missing_one_map():
    dom = [[0, 1], [1, 0]]
    cod = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    maps = msu.find_embeddings(msu.validate_space(dom), msu.validate_space(cod))
    return (lambda ans: ck.check_maps(ans, dom, cod, oracle=ck.networkx_images(dom, cod))), maps, maps[:-1]


@case
def shortest_path_entry_changed_by_one():
    n, edges = 4, [(0, 1, 2), (1, 2, 3), (2, 3, 1), (0, 3, 4)]
    g = msu.build_graph([f"v{i}" for i in range(n)], edges)
    report = msu.check_metrizability(g)
    rows = [list(r) for r in report.metric.matrix]
    rows[0][2] += 1
    rows[2][0] += 1
    wrong = swap(report, metric=swap(report.metric, matrix=tuple(tuple(r) for r in rows)))
    return (lambda ans: ck.check_metrization(ans, n, edges)), report, wrong


@case
def violating_cycle_that_is_not_a_cycle():
    n, edges = 3, [(0, 1, 1), (1, 2, 1), (0, 2, 3)]
    report = msu.check_metrizability(msu.build_graph(["a", "b", "c"], edges))
    return (lambda ans: ck.check_metrization(ans, n, edges)), report, swap(report, violating_cycle=(0, 1))


@case
def injected_violation_not_reported():
    rows, fault = wl.inject(wl.random.Random(3), wl.closure_metric(wl.random.Random(2), 8, 1), "triangle")
    try:
        msu.validate_space(rows)
    except msu.InvalidMetricError as exc:
        right = exc
    wrong = msu.InvalidMetricError([v for v in right.violations if v.kind != "triangle"])
    return (lambda ans: ck.check_validate(ans, rows, fault)), right, wrong


@case
def valid_matrix_rejected():
    rows = wl.closure_metric(wl.random.Random(4), 8, 3)
    wrong = msu.InvalidMetricError([msu.Violation("triangle", (0, 1, 2))])
    return (lambda ans: ck.check_validate(ans, rows, None)), msu.validate_space(rows), wrong


@case
def line_coordinate_moved():
    m = wl.line_matrix([0, 3, 4, 9], 2)
    right = msu.line_realization(msu.validate_space(m))
    wrong = msu.LineRealization(right.coords[:-1] + (right.coords[-1] + 1,))
    return (lambda ans: ck.check_line(ans, m)), right, wrong


@case
def line_realization_missed():
    m = wl.line_matrix([0, 3, 4, 9], 1)
    return (lambda ans: ck.check_line(ans, m)), msu.line_realization(msu.validate_space(m)), None


@case
def mb_witness_wrong():
    m = wl.line_matrix([0, 3, 4, 9], 1)
    m[0][1] = m[1][0] = Fraction(4)
    right = msu.is_mb_space(msu.validate_space(m))
    return (lambda ans: ck.check_mb(ans, m)), right, msu.MBStatus(False, (1, 2, 3))


@case
def determinant_off_by_one():
    a, b, c = Fraction(3, 2), Fraction(5, 2), Fraction(2)
    right = msu.cayley_menger(a, b, c)
    return (lambda ans: ck.check_cayley_menger(ans, a, b, c)), right, right + 1


@case
def homogeneous_flag_flipped():
    m = [[0 if i == j else 1 for j in range(5)] for i in range(5)]
    right = msu.classify_space(msu.validate_space(m))
    return (lambda ans: ck.check_traits(ans, m)), right, swap(right, homogeneous=False)


@case
def union_entry_changed():
    parts = [[[0, 2], [2, 0]], [[0, 3, 4], [3, 0, 5], [4, 5, 0]]]
    anchors, eps1 = [0, 1], 6
    right = msu.union_epsilon_connected([msu.validate_space(p) for p in parts], anchors, eps1)
    rows = [list(r) for r in right.space.matrix]
    rows[0][3] = rows[3][0] = rows[0][3] + 1
    wrong = swap(right, space=swap(right.space, matrix=tuple(tuple(r) for r in rows)))
    return (lambda ans: ck.check_union(ans, parts, anchors, eps1)), right, wrong


@case
def subclass_missing_a_class():
    fam = wl.subclass_family(wl.random.Random(5))
    right = msu.minimal_universal_subclass(msu.SpaceFamily(tuple(msu.validate_space(m) for m in fam)))
    wrong = msu.SpaceFamily(right.members[1:])
    return (lambda ans: wl.check_subclass(ans, fam)), right, wrong


@case
def placement_moved_off_its_ray():
    sides = (3.0, 4.0, 5.0)
    right = msu.embed_triple_tripod(msu.Triangle(5.0, 4.0, 3.0))
    wrong = list(right)
    wrong[2] = msu.RayPoint((wrong[2].ray + 1) % 3, wrong[2].t)
    return (lambda ans: ck.check_placement(ans, sides, ck.tripod_angles(), True)), right, wrong


@case
def placement_stretched_along_its_ray():
    sides = (3.0, 4.0, 5.0)
    right = msu.embed_triple_tripod(msu.Triangle(5.0, 4.0, 3.0))
    wrong = [msu.RayPoint(p.ray, p.t * (1 + 1e-6)) for p in right]
    return (lambda ans: ck.check_placement(ans, sides, ck.tripod_angles(), True)), right, wrong


@case
def flat_triple_straddling_two_rays():
    # Today's solver answer for Triangle(1, 1, 2) on two rays at 0.5 is wrong
    # this way; the right answer puts all three points on one ray.
    sides = (2.0, 1.0, 1.0)
    right = [[msu.RayPoint(0, 3.0), msu.RayPoint(0, 1.0), msu.RayPoint(0, 2.0)]]
    wrong = msu.solve_constrained_embedding(msu.Triangle(1, 1, 2), msu.RaySpace.two_rays(0.5))
    return (lambda ans: wl.check_flat(ans, sides, 0.5)), right, wrong


@case
def open_tripod_witness_missing_a_placement():
    hole = msu.RayPoint(1, 1.25)
    right = msu.solve_constrained_embedding(msu.witness_triangle_tripod(hole), msu.RaySpace.tripod())
    return (lambda ans: wl.check_tripod_witness(ans, 1, 1.25, False)), right, right[:-1]


@case
def blocked_tripod_witness_placed():
    hole = msu.RayPoint(1, 1.25)
    placed = msu.solve_constrained_embedding(msu.witness_triangle_tripod(hole), msu.RaySpace.tripod())
    return (lambda ans: wl.check_tripod_witness(ans, 1, 1.25, True)), [], placed[:1]


@case
def two_ray_witness_through_the_puncture():
    alpha, hole = math.pi / 6, msu.RayPoint(0, 1.5)
    right = msu.solve_constrained_embedding(
        msu.witness_triangle_two_rays(hole, alpha), msu.RaySpace.two_rays(alpha), [hole])
    open_ = msu.solve_constrained_embedding(msu.witness_triangle_two_rays(hole, alpha), msu.RaySpace.two_rays(alpha))
    through = [sol for sol in open_ if any(p.ray == 0 and abs(p.t - 1.5) < 1e-6 for p in sol)]
    assert through, "the open search should place the witness through the hole"
    return (lambda ans: wl.check_two_ray_witness(ans, 0, 1.5, alpha, False)), right, through


@case
def fermat_cost_not_minimal():
    sides = (3.0, 4.0, 5.0)
    right = msu.fermat_torricelli(msu.Triangle(5.0, 4.0, 3.0))
    return (lambda ans: ck.check_fermat(ans, sides)), right, swap(right, total_cost=right.total_cost * 1.001)


@case
def cli_pseudometric_entry_changed():
    n, edges = 4, [(0, 1, Fraction(2)), (1, 2, Fraction(3)), (2, 3, Fraction(1)), (0, 3, Fraction(4))]
    path = os.path.join(HERE, "out", "selftest-graph.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        wl.json.dump(wl.graph_obj(n, edges), fh)
    right = wl.run_cli(msu, ["metrize", path])
    os.remove(path)
    out = wl.json.loads(right[1])
    out["pseudometric"][1][3] = "5"
    return (lambda ans: wl.check_cli_metrize(ans, n, edges)), right, (right[0], wl.json.dumps(out))


@case
def cli_exit_code_wrong():
    out = '{"exact":true,"n":3,"valid":true}'
    check = (lambda ans: ck.expect(wl.cli_json(ans) == {"exact": True, "n": 3, "valid": True}, "cli"))
    return check, (0, out), (1, out)


def main() -> int:
    import msu.cli  # noqa: F401  (the CLI cases call msu.cli.main)

    bad = 0
    for fn in CASES:
        check, right, wrong = fn()
        ok_right = not rejects(check, copy.deepcopy(right))
        ok_wrong = rejects(check, wrong)
        status = "ok" if ok_right and ok_wrong else "FAIL"
        bad += status == "FAIL"
        detail = "" if ok_right else " (rejects the right answer)"
        detail += "" if ok_wrong else " (accepts the wrong answer)"
        print(f"{status:4s} {fn.__name__}{detail}")
    print(f"{len(CASES) - bad} of {len(CASES)} checks reject their wrong answer")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
