"""Fuzz of cli.main with argv drawn from the CLI's table of verbs.

Every argument of a verb's specs gets a value that works for it, except
one drawn argument, which gets a hostile one: a valid, invalid,
non-finite, extreme finite (entries near the top of the float range, or
triangle sides near the bottom) or malformed JSON file, a missing path or
a directory for a file argument, and one of 0, -1, nan, inf, 1e400 and
9:1 otherwise.
Whatever the input, main answers with an exit code in {0, 1, 2, 3} (argparse's
SystemExit(2) counts as 2), lets no other exception escape, prints no
traceback, prints numbers as reports do, never as a Fraction repr, and
prints on stdout only strict JSON, with no NaN or Infinity.
The runs are derandomized, so a failure reproduces.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from msu import cli

FILES = {
    "z.json": '{"matrix": [["0", "1", "3/2"], ["1", "0", "2"], ["3/2", "2", "0"]]}',
    "zf.json": '{"matrix": [[0.0, 1.0, 1.5], [1.0, 0.0, 2.0], [1.5, 2.0, 0.0]]}',
    "pair.json": '{"matrix": [[0, 1], [1, 0]]}',
    "quad.json": '{"matrix": [[0, 1, 3, 2], [1, 0, 2, 3], [3, 2, 0, 1], [2, 3, 1, 0]]}',
    "bad.json": '{"matrix": [[0, 1, 3], [1, 0, 1], [3, 1, 0]]}',
    "nan.json": '{"matrix": [[0, NaN], [NaN, 0]]}',
    "inf.json": '{"matrix": [[0, Infinity], [Infinity, 0]]}',
    "huge.json": '{"matrix": [[0, 1e400], [1e400, 0]]}',
    "top.json": '{"matrix": [[0, 1e308, 1e308], [1e308, 0, 1e308], [1e308, 1e308, 0]]}',
    "near_top.json": '{"matrix": [[0, 5e307, 5e307], [5e307, 0, 5e307], [5e307, 5e307, 0]]}',
    "big_int.json": '{"matrix": [[0, 1.5], [1%s, 0]]}' % ("0" * 400),
    "tri.json": '{"sides": [3, 4, 5]}',
    "flat.json": '{"sides": [1, 2, 3]}',
    "tri_inf.json": '{"sides": [1, 1, Infinity]}',
    "tri_big.json": '{"sides": [1e300, 1e300, 1e300]}',
    "tri_top.json": '{"sides": [6e307, 6e307, 6e307]}',
    "tri_tiny.json": '{"sides": [1e-300, 1e-300, 1e-300]}',
    "tri_subnormal.json": '{"sides": [1e-320, 2e-320, 3e-320]}',
    "graph.json": '{"vertices": ["a", "b", "c"], "edges": [["a", "b", 1], ["b", "c", 2]]}',
    "graph_nan.json": '{"vertices": ["a", "b"], "edges": [["a", "b", NaN]]}',
    "graph_top.json": (
        '{"vertices": ["a", "b", "c"], "edges": [["a", "b", 1e308], ["b", "c", 1e308]]}'
    ),
    "family.json": '[{"matrix": [[0, 1], [1, 0]]}, {"matrix": [[0, 2], [2, 0]]}]',
    "broken.json": '{"matrix": [[0, 1], [1',
    "list.json": "[1, 2, 3]",
}
HOSTILE = ["0", "-1", "nan", "inf", "1e400", "9:1"]
# A value that works, per argument; file names refer to FILES.
WORKS = {
    "space": "z.json", "domain": "pair.json", "codomain": "z.json", "left": "pair.json",
    "right": "zf.json", "inputs": "z.json", "graph": "graph.json", "x": "pair.json",
    "y": "pair.json", "parts": "pair.json", "quads": "quad.json", "--quads": "quad.json",
    "triangle": "tri.json", "family": "family.json", "--target": "z.json",
    "i": "0", "j": "1", "k": "2", "--limit": "2", "--tol": "1e-9", "--solver-tol": "1e-6",
    "--x0": "0", "--y0": "0", "--r0": "3", "--anchors": "0,0", "--eps1": "3",
    "--eps-check": "1", "--distances": "1/2,7/10", "--separators": "0,1",
    "--bridge-p": "1", "--bridge-part": "0", "--bridge-point": "1", "--bridge-r": "1/2",
    "--point": "r:0", "--ray": "1", "--t": "1", "--alpha": "0.5", "--forbid": "0:1",
    "--nat": "2", "--neg": "1/2", "--puncture": "1/2",
}


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    for name, text in FILES.items():
        (path / name).write_text(text)
    return path


def argvs(path, root):
    """argv for one verb: its specs from the table, each optional one present
    or not, every value a working one except that of one drawn argument,
    which is hostile (a file of `files` for a file argument)."""
    files = [str(root / name) for name in FILES] + [str(root / "absent.json"), str(root)]
    specs = cli._COMMON + cli._VERBS[path][1]
    valued = [at for at, (_flags, kwargs, _check) in enumerate(specs)
              if kwargs.get("action") != "store_true"]

    @st.composite
    def draw_argv(draw):
        hostile_at = draw(st.sampled_from(valued))
        argv = list(path)
        for at, (flags, kwargs, _check) in enumerate(specs):
            name, hostile = flags[0], at == hostile_at
            if kwargs.get("action") == "store_true":
                argv += [name] if draw(st.booleans()) else []
                continue
            works, pool = WORKS[name], HOSTILE
            if works in FILES:
                works, pool = str(root / works), files

            def values(count):
                return [draw(st.sampled_from(pool)) if hostile else works for _ in range(count)]

            count = draw(st.integers(1, 2)) if kwargs.get("nargs") == "+" else 1
            if kwargs.get("action") == "append":
                for value in values(1 if hostile else draw(st.integers(0, 2))):
                    argv += [name, value]
            elif not name.startswith("-"):
                argv += values(count)
            elif hostile or kwargs.get("required") or draw(st.booleans()):
                argv += [name] + values(count)
        return argv

    return draw_argv()


def reject(name):
    raise AssertionError(f"{name} on stdout")


@pytest.mark.parametrize("path", sorted(cli._VERBS), ids=" ".join)
def test_fuzzed_argv_gets_an_exit_code_and_no_traceback(path, root):
    @settings(
        max_examples=30,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(argvs(path, root))
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2, 3), (argv, code)
        if out.getvalue():
            json.loads(out.getvalue(), parse_constant=reject)
        assert "Traceback" not in err.getvalue(), argv
        assert "Fraction(" not in err.getvalue(), argv

    check()
