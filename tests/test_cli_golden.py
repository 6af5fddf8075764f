"""Golden CLI transcripts: stdout, stderr and exit code, byte for byte.

Every leaf verb runs on exact and float input files, every group and leaf
prints its --help, and the usage errors print their argparse messages.
The inputs live in tests/data/golden and are named by paths relative to
tests/data, so messages that quote a path do not depend on the checkout.
After a deliberate change of output, rewrite the transcripts with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import sys

import pytest

from msu import cli

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
TRANSCRIPTS = os.path.join(DATA, "cli_golden.json")


def g(name):
    return "golden/" + name


GROUPS = ["union", "mspace", "tripod", "xalpha", "f2", "interval", "classes", "check"]
LEAVES = [
    ["validate"], ["classify"], ["embed"], ["compare"], ["selfmaps"], ["between"],
    ["mb"], ["pl"], ["line"], ["metrize"],
    ["union", "glue"], ["union", "constant"], ["union", "graph"], ["union", "ultra"], ["union", "pl"],
    ["mspace", "sample"], ["mspace", "dist"],
    ["tripod", "embed"], ["tripod", "witness"], ["tripod", "check"],
    ["xalpha", "embed"], ["xalpha", "witness"], ["xalpha", "check"],
    ["f2", "embed"], ["f2", "witness"], ["interval", "embed"],
    ["classes", "order"], ["classes", "poset"], ["classes", "minimal"],
    ["check", "universal"], ["check", "minimal-universal"],
]
BRIDGE = ["--bridge-p", "7/2", "--bridge-part", "0", "--bridge-point", "1", "--bridge-r", "1/2"]
BRIDGE_F = ["--bridge-p", "2.5", "--bridge-part", "1", "--bridge-point", "2", "--bridge-r", "0.75"]

RUNS = [
    ["validate", g("z.json")],
    ["validate", g("zf.json")],
    ["validate", g("bad.json")],
    ["validate", g("badf.json")],
    ["validate", g("z.json"), "--pretty"],
    ["validate", g("absent.json")],
    ["validate", g("broken.json")],
    ["classify", g("z.json")],
    ["classify", g("quad12.json")],
    ["classify", g("eq3f.json")],
    ["embed", g("pair1.json"), g("z.json")],
    ["embed", g("pair2.json"), g("pair1.json")],
    ["embed", g("pair1f.json"), g("zf.json")],
    ["embed", g("pair1.json"), g("quad12.json"), "--limit", "3"],
    ["embed", g("pair1.json"), g("zf.json")],
    ["compare", g("pair1.json"), g("pair2.json")],
    ["compare", g("pair1.json"), g("z.json")],
    ["compare", g("pair1f.json"), g("zf.json")],
    ["selfmaps", g("z.json")],
    ["selfmaps", g("quad12.json")],
    ["selfmaps", g("eq3f.json")],
    ["between", g("line4.json"), "0", "1", "2"],
    ["between", g("line4.json"), "0", "2", "1"],
    ["between", g("line4f.json"), "0", "1", "3"],
    ["between", g("z.json"), "0", "1", "5"],
    ["mb", "1", "2", "3"],
    ["mb", "1", "1", "1"],
    ["mb", "3/2", "5/2", "4"],
    ["mb", g("line4.json")],
    ["mb", g("z.json")],
    ["mb", g("line4f.json")],
    ["mb", "1", "2"],
    ["pl", g("quad12.json")],
    ["pl", g("quad12f.json")],
    ["pl", g("z.json")],
    ["line", g("line4.json")],
    ["line", g("line4f.json")],
    ["line", g("z.json")],
    ["metrize", g("tri113.json")],
    ["metrize", g("graphf.json")],
    ["metrize", g("graphdis.json")],
    ["union", "glue", g("pair1.json"), g("pair2.json"), "--r0", "3/2"],
    ["union", "glue", g("pair1.json"), g("pair2.json"), "--r0", "3/2", "--verify"],
    ["union", "glue", g("ult3.json"), g("pair2.json"), "--x0", "2", "--y0", "1", "--r0", "3"],
    ["union", "glue", g("pair1f.json"), g("pair2f.json"), "--r0", "3.5"],
    ["union", "glue", g("pair1.json"), g("pair2.json"), "--r0", "0"],
    ["union", "constant", g("pair1.json"), g("pair2.json"), "--r0", "3", "--verify"],
    ["union", "constant", g("pair1f.json"), g("pair2f.json"), "--r0", "3.5"],
    ["union", "graph", g("pair1.json"), g("pair2.json"), "--eps1", "3", "--verify"],
    ["union", "graph", g("pair1.json"), g("ult3.json"), "--anchors", "1,2", "--eps1", "5/2"],
    ["union", "graph", g("pair1f.json"), g("pair2f.json"), "--anchors", "0,0", "--eps1", "30.5"],
    ["union", "graph", g("pair1.json"), "--eps-check", "1"],
    ["union", "graph", g("pair2f.json"), "--eps-check", "1.5"],
    ["union", "graph", g("pair1.json"), g("pair2.json")],
    ["union", "ultra", "--distances", "1/2,7/10", "--separators", "0,1"],
    ["union", "ultra", "--distances", "1/2,7/10", "--separators", "0,1", "--verify"],
    ["union", "ultra", "--distances", "1", "--separators", "0,1"],
    ["union", "pl", g("quad12.json"), g("quad13.json")],
    ["union", "pl", g("quad12.json"), g("quad13.json"), "--verify"],
    ["union", "pl", g("quad12f.json"), g("quad13f.json")],
    ["mspace", "sample", "--quads", g("quad12.json"), g("quad13.json"), *BRIDGE,
     "--point", "r:0", "--point", "r:7/2", "--point", "q:0.1", "--point", "q:1.3"],
    ["mspace", "sample", "--quads", g("quad12f.json"), g("quad13f.json"), *BRIDGE_F,
     "--point", "r:0.5", "--point", "q:1.2"],
    ["mspace", "sample", "--quads", g("quad12.json"), *BRIDGE],
    ["mspace", "dist", "--quads", g("quad12.json"), g("quad13.json"), *BRIDGE,
     "--point", "r:9/2", "--point", "q:0.2"],
    ["mspace", "dist", "--quads", g("quad12f.json"), g("quad13f.json"), *BRIDGE_F,
     "--point", "r:-1", "--point", "q:0.0"],
    ["mspace", "dist", "--quads", g("quad12.json"), *BRIDGE, "--point", "x:1", "--point", "r:0"],
    ["tripod", "embed", g("eqtri.json")],
    ["tripod", "embed", g("tri345.json")],
    ["tripod", "embed", g("z.json")],
    ["tripod", "embed", g("flat.json")],
    ["tripod", "witness", "--t", "1"],
    ["tripod", "witness", "--ray", "2", "--t", "2.5"],
    ["tripod", "witness", "--t", "0"],
    ["tripod", "check", g("wt.json"), "--forbid", "0:1"],
    ["tripod", "check", g("wt.json")],
    ["tripod", "check", g("eqtri.json"), "--solver-tol", "1e-5", "--forbid", "1:0.5"],
    ["tripod", "check", g("eqtri.json"), "--solver-tol", "0"],
    ["tripod", "check", g("flat.json")],
    ["xalpha", "embed", g("eqtri.json"), "--alpha", "0.7853981633974483"],
    ["xalpha", "embed", g("eqtri.json"), "--alpha", "1.0471975511965976"],
    ["xalpha", "embed", g("tri345.json"), "--alpha", "1"],
    ["xalpha", "embed", g("eqtri.json"), "--alpha", "4"],
    ["xalpha", "embed", g("flat.json"), "--alpha", "1"],
    ["xalpha", "witness", "--alpha", "0.7", "--t", "1"],
    ["xalpha", "witness", "--alpha", "0.7", "--ray", "1", "--t", "2"],
    ["xalpha", "check", g("eqtri.json"), "--alpha", "0.5"],
    ["xalpha", "check", g("tri345.json"), "--alpha", "1.2", "--forbid", "0:1", "--tol", "1e-8"],
    ["xalpha", "check", g("flat.json"), "--alpha", "0.5"],
    ["f2", "embed", "--t", "5/2"],
    ["f2", "embed", "--t", "7"],
    ["f2", "embed", "--t", "1/2"],
    ["f2", "witness", "--nat", "2"],
    ["f2", "witness", "--neg", "1/2"],
    ["f2", "witness"],
    ["interval", "embed", "--t", "3/10", "--puncture", "1/2"],
    ["interval", "embed", "--t", "9/10", "--puncture", "1/2"],
    ["interval", "embed", "--t", "1/2"],
    ["classes", "order", g("pair1.json"), g("pair2.json"), g("z.json")],
    ["classes", "order", g("fam.json")],
    ["classes", "order", g("pair1f.json"), g("zf.json")],
    ["classes", "poset", g("fam")],
    ["classes", "poset", g("pair1.json"), g("pair2.json")],
    ["classes", "poset", g("pair1f.json"), g("pair2f.json"), g("zf.json")],
    ["classes", "minimal", g("pair1.json"), g("pair2.json"), g("z.json")],
    ["classes", "minimal", g("pair1f.json"), g("zf.json")],
    ["check", "universal", g("pair1.json"), g("pair2.json"), "--target", g("z.json")],
    ["check", "universal", g("pair1.json"), g("pair2.json"), "--target", g("pair1.json")],
    ["check", "universal", g("pair1.json"), g("pair2.json"), "--condition-i"],
    ["check", "universal", g("fam")],
    ["check", "universal", g("pair1f.json"), g("pair2f.json"), "--target", g("targetf.json")],
    ["check", "minimal-universal", g("pair1.json"), g("pair2.json"), "--target", g("z.json")],
    ["check", "minimal-universal", g("fam"), "--target", g("target.json")],
    ["check", "minimal-universal", g("pair1f.json"), g("pair2f.json"), "--target", g("targetf.json")],
    ["check", "minimal-universal", g("fam")],
]
HELPS = [["--help"]] + [[group, "--help"] for group in GROUPS] + [leaf + ["--help"] for leaf in LEAVES]
USAGE_ERRORS = [
    [],
    ["no-such-verb"],
    ["union"],
    ["union", "glue", g("pair1.json"), g("pair2.json")],
    ["xalpha", "embed", g("eqtri.json")],
    ["tripod", "witness"],
    ["embed", g("pair1.json")],
]
CASES = RUNS + HELPS + USAGE_ERRORS


def transcript(argv):
    """(exit code, stdout, stderr) of one in-process run; SystemExit counts."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@contextlib.contextmanager
def golden_env():
    """Run from tests/data at a fixed help width."""
    saved_cwd, saved_env = os.getcwd(), dict(os.environ)
    os.chdir(DATA)
    os.environ["COLUMNS"] = "80"
    try:
        yield
    finally:
        os.chdir(saved_cwd)
        os.environ.clear()
        os.environ.update(saved_env)


def load_transcripts():
    with open(TRANSCRIPTS, encoding="utf-8") as fh:
        return json.load(fh)


def test_every_leaf_verb_runs_and_has_help():
    for leaf in LEAVES:
        assert any(argv[: len(leaf)] == leaf for argv in RUNS), leaf
    assert len(LEAVES) == 31 and len(GROUPS) == 8


def test_transcripts_cover_exactly_the_cases():
    assert [case["argv"] for case in load_transcripts()] == CASES


# An absent file leaves no cases here; the coverage test above then fails.
@pytest.mark.parametrize("case", load_transcripts() if os.path.exists(TRANSCRIPTS) else [], ids=lambda c: " ".join(c["argv"]) or "<none>")
def test_golden_transcript(case):
    with golden_env():
        code, out, err = transcript(case["argv"])
    assert (code, out, err) == (case["code"], case["stdout"], case["stderr"])


def record():
    with golden_env():
        cases = [dict(zip(("argv", "code", "stdout", "stderr"), (argv, *transcript(argv)))) for argv in CASES]
    with open(TRANSCRIPTS, "w", encoding="utf-8") as fh:
        json.dump(cases, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(cases)} transcripts to {TRANSCRIPTS}", file=sys.stderr)


if __name__ == "__main__":
    record()
