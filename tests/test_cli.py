import json
import os
import subprocess
import sys

import pytest

import msu
from msu import cli

Z_DOC = {
    "labels": ["z1", "z2", "z3"],
    "matrix": [["0", "1", "3/2"], ["1", "0", "2"], ["3/2", "2", "0"]],
}
PAIR1 = {"matrix": [["0", "1"], ["1", "0"]]}
PAIR2 = {"matrix": [["0", "2"], ["2", "0"]]}
BAD = {"matrix": [[0, 1, 3], [1, 0, 1], [3, 1, 0]]}
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden")
TRI113 = {
    "vertices": ["a", "b", "c"],
    "edges": [["a", "b", 1], ["b", "c", 1], ["a", "c", 3]],
}


@pytest.fixture
def files(tmp_path):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return {
        "z": write("z.json", Z_DOC),
        "pair1": write("pair1.json", PAIR1),
        "pair2": write("pair2.json", PAIR2),
        "bad": write("bad.json", BAD),
        "tri113": write("tri113.json", TRI113),
        "eqtri": write("eqtri.json", {"sides": [1.0, 1.0, 1.0]}),
        "dir": str(tmp_path),
    }


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_valid_exit_zero(files, capsys):
    code, out, _ = run(capsys, ["validate", files["z"]])
    assert code == 0
    assert json.loads(out) == {"exact": True, "n": 3, "valid": True}


def test_validate_invalid_exit_one(files, capsys):
    code, out, _ = run(capsys, ["validate", files["bad"]])
    assert code == 1
    doc = json.loads(out)
    assert doc["valid"] is False
    assert doc["violations"] == [{"indices": [0, 1, 2], "kind": "triangle"}]


def test_missing_file_exit_two(files, capsys):
    code, _, err = run(capsys, ["validate", files["dir"] + "/absent.json"])
    assert code == 2 and "error:" in err


def test_embed_none_exit_one(files, capsys):
    code, out, _ = run(capsys, ["embed", files["pair2"], files["pair1"]])
    assert code == 1
    assert json.loads(out) == {"count": 0, "embeddings": []}


def test_embed_found(files, capsys):
    code, out, _ = run(capsys, ["embed", files["pair1"], files["z"]])
    assert code == 0
    assert json.loads(out) == {"count": 2, "embeddings": [[0, 1], [1, 0]]}


def test_compare_incomparable_exit_one(files, capsys):
    code, out, _ = run(capsys, ["compare", files["pair1"], files["pair2"]])
    assert code == 1
    assert json.loads(out) == {"comparability": "incomparable"}


def test_metrize_violating_cycle(files, capsys):
    code, out, _ = run(capsys, ["metrize", files["tri113"]])
    assert code == 1
    doc = json.loads(out)
    assert doc["metrizable"] is False and doc["violating_cycle"] == [0, 1, 2]
    assert doc["pseudometric"][0][2] == 2


def test_mb_triple_args(capsys):
    code, out, _ = run(capsys, ["mb", "1", "2", "3"])
    assert code == 0
    assert json.loads(out) == {"determinant": "0", "is_mb": True}
    code, out, _ = run(capsys, ["mb", "1", "1", "1"])
    assert code == 1


def test_mb_space_file(files, capsys):
    code, out, _ = run(capsys, ["mb", files["z"]])
    assert code == 1
    assert json.loads(out)["witness"] == [0, 1, 2]


def test_mb_wrong_arg_count(capsys):
    code, _, err = run(capsys, ["mb", "1", "2"])
    assert code == 2 and "error:" in err


def test_classify_and_selfmaps(files, capsys):
    code, out, _ = run(capsys, ["classify", files["z"]])
    assert code == 0 and json.loads(out)["strongly_rigid"] is True
    code, out, _ = run(capsys, ["selfmaps", files["z"]])
    assert code == 0 and json.loads(out)["count"] == 1


def test_union_glue_cross_values(files, capsys):
    code, out, _ = run(
        capsys, ["union", "glue", files["pair1"], files["pair2"], "--r0", "3/2"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["matrix"][0][2] == "3/2" and doc["matrix"][0][3] == "2"


def test_union_graph_with_verify(files, capsys):
    code, out, _ = run(
        capsys,
        ["union", "graph", files["pair1"], files["pair2"], "--eps1", "3", "--verify"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verify"]["passed"] is True
    # a failing verification flips the exit code
    code, out, _ = run(
        capsys,
        ["union", "glue", files["pair1"], files["pair2"], "--r0", "3/2", "--verify"],
    )
    assert code == 1
    assert json.loads(out)["verify"]["passed"] is False


@pytest.mark.parametrize(
    "verb",
    [
        ["graph", "{f0}", "{f1}", "--anchors", "0,0", "--eps1", "30.5"],
        ["constant", "{f0}", "{f1}", "--r0", "3.5"],
        ["glue", "{f0}", "{f1}", "--x0", "0", "--y0", "0", "--r0", "3.5"],
    ],
)
def test_union_decimal_parameter_with_float_parts(tmp_path, capsys, verb):
    paths = {}
    for name, d in (("f0", 1.5), ("f1", 2.5), ("e0", "3/2"), ("e1", "5/2")):
        path = tmp_path / f"{name}.json"
        zero = 0.0 if isinstance(d, float) else 0
        path.write_text(json.dumps({"matrix": [[zero, d], [d, zero]]}))
        paths[name] = str(path)
    argv = ["union"] + [a.format(**paths) for a in verb]
    code, out, err = run(capsys, argv)
    assert code == 0, err
    doc = json.loads(out)
    assert isinstance(doc["matrix"][0][2], float)
    assert doc["provenance"].get("eps1", doc["provenance"].get("r0")) in (30.5, 3.5)
    exact = [a.replace("{f", "{e").format(**paths) for a in verb]
    code, out, _ = run(capsys, ["union"] + exact)
    assert code == 0
    assert ('"eps1":"61/2"' if "--eps1" in verb else '"r0":"7/2"') in out


def test_union_eps_check_reads_eps_in_the_part_mode(tmp_path, capsys):
    path = tmp_path / "f0.json"
    path.write_text(json.dumps({"matrix": [[0.0, 1.5], [1.5, 0.0]]}))
    code, out, _ = run(capsys, ["union", "graph", str(path), "--eps-check", "1.5"])
    assert code == 0
    assert out == '{"connected":true,"eps":1.5,"threshold":1.5}\n'


def test_union_parameter_beyond_float_range_exits_two(tmp_path, capsys):
    path = tmp_path / "f0.json"
    path.write_text(json.dumps({"matrix": [[0.0, 1.5], [1.5, 0.0]]}))
    code, out, err = run(capsys, ["union", "constant", str(path), str(path), "--r0", "1e400"])
    assert (code, out) == (2, "") and "too large for a float" in err


def test_mspace_reads_numbers_in_the_mode_of_the_quadruples(capsys):
    quads = [os.path.join(GOLDEN, name) for name in ("quad12f.json", "quad13f.json")]
    bridge = ["--bridge-part", "1", "--bridge-point", "2", "--bridge-r", "0.75"]
    points = ["--point", "r:0.5", "--point", "r:1.25", "--point", "q:1.2"]
    argv = ["mspace", "sample", "--quads", *quads, "--bridge-p", "2.5", *bridge, *points]
    code, out, err = run(capsys, argv)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["labels"] == ["r:0.5", "r:1.25", "q:1.2"]
    assert all(isinstance(v, float) for row in doc["matrix"] for v in row)
    assert doc["matrix"][0][1] == 0.75
    code, out, err = run(capsys, [v if v != "2.5" else "1e400" for v in argv])
    assert (code, out) == (2, "") and "too large for a float" in err


def test_union_glue_bad_radius_exit_two(files, capsys):
    code, _, err = run(capsys, ["union", "glue", files["pair1"], files["pair2"], "--r0", "0"])
    assert code == 2 and "error:" in err


def test_union_graph_eps_check(files, capsys):
    code, out, _ = run(capsys, ["union", "graph", files["pair1"], "--eps-check", "1"])
    assert code == 0
    assert json.loads(out) == {"connected": True, "eps": "1", "threshold": "1"}
    code, out, _ = run(capsys, ["union", "graph", files["pair2"], "--eps-check", "1"])
    assert code == 1
    assert json.loads(out)["connected"] is False


def test_union_ultra(capsys):
    code, out, _ = run(
        capsys,
        ["union", "ultra", "--distances", "1/2,7/10", "--separators", "0,1"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["matrix"][0][2] == "1"


def test_union_ultra_bad_separators(capsys):
    code, _, err = run(
        capsys, ["union", "ultra", "--distances", "1", "--separators", "0,1"]
    )
    assert code == 2 and "error:" in err


def test_tripod_embed_includes_ft(files, capsys):
    code, out, _ = run(capsys, ["tripod", "embed", files["eqtri"]])
    assert code == 0
    doc = json.loads(out)
    assert doc["ft"]["location"] == "interior"
    assert len(doc["points"]) == 3 and all("xy" in p for p in doc["points"])


def test_tripod_witness_and_check(files, capsys, tmp_path):
    code, out, _ = run(capsys, ["tripod", "witness", "--t", "1"])
    assert code == 0
    wt = tmp_path / "wt.json"
    wt.write_text(out)
    code, out, _ = run(capsys, ["tripod", "check", str(wt), "--forbid", "0:1"])
    assert code == 1
    assert json.loads(out) == {"count": 0, "embeddings": []}
    code, out, _ = run(capsys, ["tripod", "check", str(wt)])
    assert code == 0 and json.loads(out)["count"] > 0


def test_xalpha_embed_and_none(files, capsys):
    code, out, _ = run(capsys, ["xalpha", "embed", files["eqtri"], "--alpha", "0.7853981633974483"])
    assert code == 0 and json.loads(out)["points"] is not None
    code, out, _ = run(capsys, ["xalpha", "embed", files["eqtri"], "--alpha", "1.0471975511965976"])
    assert code == 1 and json.loads(out)["points"] is None


def test_internal_error_exit_three(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"sides": [3.1, 4.7, 5.3]}))
    code, out, err = run(capsys, ["tripod", "embed", str(path), "--tol", "1e-300"])
    assert code == 3 and out == ""
    assert err.startswith("internal error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "verb, text",
    [(["tripod", "embed"], '{"sides": [1e300, 1e300, 1e300]}')],
    ids=["tripod-sides-1e300"],
)
def test_non_finite_report_exits_three(tmp_path, capsys, verb, text):
    # Finite inputs whose report overflows to NaN or Infinity.  Such reports
    # once went to stdout as invalid JSON, with exit code 0 and 1.
    code, out, err = run(capsys, verb + [write_raw(tmp_path, "f.json", text)])
    assert code == 3 and out == ""
    assert err.startswith("internal error: report holds a non-finite number")
    assert "Traceback" not in err


EQUILATERAL_1E308 = '{"matrix": [[0, 1e308, 1e308], [1e308, 0, 1e308], [1e308, 1e308, 0]]}'
BIG = "1" + "0" * 400


@pytest.mark.parametrize(
    "verb, text",
    [
        (["mb"], EQUILATERAL_1E308),
        (["line"], EQUILATERAL_1E308),
        (
            ["metrize"],
            '{"vertices": ["a", "b", "c"], "edges": [["a", "b", 1e308], ["b", "c", 1e308]]}',
        ),
        (["validate"], '{"matrix": [[0, 1.5], [%s, 0]]}' % BIG),
        (["metrize"], '{"vertices": ["a", "b"], "edges": [["a", "b", 1e308]]}'),
        (["tripod", "embed"], '{"sides": ["%s", 1, 1]}' % BIG),
        (["tripod", "check"], '{"sides": [6e307, 1, 1]}'),
    ],
    ids=[
        "mb-equilateral-1e308",
        "line-equilateral-1e308",
        "metrize-path-1e308",
        "validate-int-beyond-float-range",
        "metrize-edge-1e308",
        "tripod-exact-side-beyond-float-range",
        "tripod-three-sides-overflow",
    ],
)
def test_float_input_beyond_the_range_rule_exits_two(tmp_path, capsys, verb, text):
    # The largest entry times max(3, n - 1) overflows.  mb said a false
    # "yes", line printed points 2e308 apart, metrize exited 3, and an
    # overflowing int or side leaked an OverflowError traceback.
    code, out, err = run(capsys, verb + [write_raw(tmp_path, "f.json", text)])
    assert code == 2 and out == ""
    assert err.startswith("error: float input too large")


@pytest.mark.parametrize(
    "verb, text, want",
    [
        (["mb"], EQUILATERAL_1E308.replace("1e308", "5e307"), 1),
        (
            ["metrize"],
            '{"vertices": ["a", "b", "c", "d", "e"], "edges": '
            '[["a", "b", 4e307], ["b", "c", 4e307], ["c", "d", 4e307], ["d", "e", 4e307]]}',
            0,
        ),
    ],
    ids=["mb-equilateral-5e307", "metrize-path-4e307"],
)
def test_float_input_within_the_range_rule_is_answered(tmp_path, capsys, verb, text, want):
    code, out, _ = run(capsys, verb + [write_raw(tmp_path, "f.json", text)])
    assert code == want
    json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} on stdout"))


def test_float_non_transitive_family_exit_two(tmp_path, capsys):
    paths = []
    for name, d in (("a", 1.0), ("b", 1.0000000009), ("c", 1.0000000018)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"matrix": [[0.0, d], [d, 0.0]]}))
        paths.append(str(path))
    for verb in ("order", "poset"):
        code, out, err = run(capsys, ["classes", verb, *paths])
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--tol" in err and "Traceback" not in err


def test_closed_pipe_exits_with_the_verb_code(tmp_path):
    # The report (20,160 maps) outgrows the pipe buffer, so the writer
    # meets the closed pipe mid-print.
    for n in (6, 8):
        doc = {"matrix": [[0 if i == j else 1 for j in range(n)] for i in range(n)]}
        (tmp_path / f"e{n}.json").write_text(json.dumps(doc))
    src = os.path.dirname(os.path.dirname(msu.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "msu.cli", "embed", str(tmp_path / "e6.json"), str(tmp_path / "e8.json")],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.read(20) == b'{"count":20160,"embe'
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert b"Traceback" not in err


def test_python_m_msu_runs_the_cli(files):
    src = os.path.dirname(os.path.dirname(msu.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    broken = os.path.join(files["dir"], "broken.json")
    with open(broken, "w", encoding="utf-8") as fh:
        fh.write("{")
    for path, code, out in ((files["z"], 0, '{"exact":true,"n":3,"valid":true}\n'), (broken, 2, "")):
        proc = subprocess.run(
            [sys.executable, "-m", "msu", "validate", path],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (code, out)
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
def test_bad_tolerance_exit_two(files, capsys, value):
    for argv in (
        ["xalpha", "check", files["eqtri"], "--alpha", "0.5", "--tol", value],
        ["tripod", "check", files["eqtri"], "--solver-tol", value],
    ):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "" and "must be finite and positive" in err


@pytest.mark.parametrize("value", ["1", "5"])
def test_tolerance_of_one_or_more_exit_two(tmp_path, capsys, value):
    # At tol >= 1 every distance is close to 0, so a valid space would list
    # every pair as nonpositive.
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"matrix": [[0, 1.5, 1.0], [1.5, 0, 2.5], [1.0, 2.5, 0]]}))
    assert run(capsys, ["validate", str(path)])[0] == 0
    code, out, err = run(capsys, ["validate", str(path), "--tol", value])
    assert code == 2 and out == "" and "--tol must be below 1" in err


def test_msu_tol_changes_neither_output_nor_exit_code(files, capsys, monkeypatch):
    # --tol is the one way to set the geometric tolerance.
    argv = ["tripod", "embed", files["eqtri"]]
    plain = run(capsys, argv)
    assert plain[0] == 0
    for value in ("-1", "x", "0.5"):
        monkeypatch.setenv("MSU_TOL", value)
        assert run(capsys, argv) == plain


def test_f2_verbs(capsys):
    code, out, _ = run(capsys, ["f2", "embed", "--t", "5/2"])
    assert code == 0
    assert json.loads(out) == {"distance": "5/2", "pair": [{"neg": "1/2"}, {"nat": 2}]}
    code, out, _ = run(capsys, ["f2", "witness", "--nat", "2"])
    assert code == 0 and json.loads(out) == {"witness": "5/2"}
    code, _, err = run(capsys, ["f2", "witness"])
    assert code == 2


def test_interval_verb(capsys):
    code, out, _ = run(capsys, ["interval", "embed", "--t", "3/10", "--puncture", "1/2"])
    assert code == 0 and json.loads(out) == {"interval": ["3/5", "9/10"]}
    code, out, _ = run(capsys, ["interval", "embed", "--t", "9/10", "--puncture", "1/2"])
    assert code == 1 and json.loads(out) == {"interval": None}


def test_classes_verbs(files, capsys):
    argv = ["classes", "order", files["pair1"], files["pair2"]]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert json.loads(out) == {"relation": [[True, False], [False, True]]}
    code, out, _ = run(capsys, ["classes", "poset", files["pair1"], files["pair2"]])
    doc = json.loads(out)
    assert doc["maximal"] == [0, 1] and doc["representatives"] == [0, 1]
    code, out, _ = run(capsys, ["classes", "minimal", files["pair1"], files["pair2"]])
    assert json.loads(out)["representatives"] == [0, 1]


def test_check_verbs(files, capsys):
    base = ["check", "universal", files["pair1"], files["pair2"]]
    code, out, _ = run(capsys, base + ["--target", files["z"]])
    assert code == 0 and json.loads(out) == {"universal": True}
    code, out, _ = run(capsys, base + ["--target", files["pair1"]])
    assert code == 1 and json.loads(out) == {"universal": False}
    code, out, _ = run(capsys, base + ["--condition-i"])
    assert code == 0 and json.loads(out) == {"condition_i": False, "witness": None}
    code, out, _ = run(
        capsys,
        ["check", "minimal-universal", files["pair1"], files["pair2"], "--target", files["z"]],
    )
    assert code == 0 and json.loads(out)["minimal"] is True


def test_family_from_directory(files, tmp_path, capsys):
    fam_dir = tmp_path / "fam"
    fam_dir.mkdir()
    (fam_dir / "a.json").write_text(json.dumps(PAIR1))
    (fam_dir / "b.json").write_text(json.dumps(PAIR2))
    code, out, _ = run(capsys, ["classes", "order", str(fam_dir)])
    assert code == 0
    assert json.loads(out)["relation"] == [[True, False], [False, True]]


def test_family_from_array_file(tmp_path, capsys):
    doc = [PAIR1, PAIR2]
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, ["classes", "order", str(path)])
    assert code == 0
    assert json.loads(out)["relation"] == [[True, False], [False, True]]


def test_byte_identical_exact_output(files, capsys):
    outs = set()
    for _ in range(3):
        _, out, _ = run(capsys, ["union", "glue", files["pair1"], files["pair2"], "--r0", "3/2"])
        outs.add(out)
    assert len(outs) == 1


def test_golden_validate_line(files, capsys):
    _, out, _ = run(capsys, ["validate", files["z"]])
    assert out == '{"exact":true,"n":3,"valid":true}\n'


def test_golden_pretty_mode(files, capsys):
    _, out, _ = run(capsys, ["validate", files["z"], "--pretty"])
    assert out == '{\n  "exact": true,\n  "n": 3,\n  "valid": true\n}\n'


def test_usage_error_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-verb"])
    assert exc.value.code == 2


def write_raw(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize(
    "verb, text",
    [
        (["tripod", "embed"], '{"sides": [1, 1, Infinity]}'),
        (["tripod", "embed"], '{"sides": [1, 1, NaN]}'),
        (["metrize"], '{"vertices": ["a", "b"], "edges": [["a", "b", NaN]]}'),
        (["validate"], '{"matrix": [[0, NaN], [NaN, 0]]}'),
        (["validate"], '{"matrix": [[0, Infinity], [Infinity, 0]]}'),
        (["validate"], '{"matrix": [[0, 1e400], [1e400, 0]]}'),
    ],
    ids=["sides-inf", "sides-nan", "weight-nan", "entry-nan", "entry-inf", "entry-1e400"],
)
def test_non_finite_file_entries_exit_two(tmp_path, capsys, verb, text):
    code, out, err = run(capsys, verb + [write_raw(tmp_path, "f.json", text)])
    assert code == 2 and out == "" and err.startswith("error: non-finite number")


@pytest.mark.parametrize(
    "argv",
    [
        ["tripod", "witness", "--t", "inf"],
        ["tripod", "witness", "--t", "nan"],
        ["xalpha", "witness", "--alpha", "0.7", "--t", "1e400"],
        ["xalpha", "witness", "--alpha", "nan", "--t", "1"],
        ["xalpha", "embed", "{eqtri}", "--alpha", "inf"],
        ["tripod", "check", "{eqtri}", "--forbid", "0:inf"],
        ["xalpha", "check", "{eqtri}", "--alpha", "0.5", "--forbid", "1:nan"],
    ],
)
def test_non_finite_float_options_exit_two(files, capsys, argv):
    code, out, err = run(capsys, [a.format(**files) for a in argv])
    assert code == 2 and out == "" and "must be finite" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["tripod", "check", "{eqtri}", "--forbid", "9:1"],
        ["tripod", "check", "{eqtri}", "--forbid=-1:1"],
        ["xalpha", "check", "{eqtri}", "--alpha", "0.5", "--forbid", "2:1"],
        ["tripod", "witness", "--ray", "5", "--t", "1"],
        ["tripod", "witness", "--ray", "-1", "--t", "1"],
        ["xalpha", "witness", "--alpha", "0.7", "--ray", "3", "--t", "1"],
        ["xalpha", "witness", "--alpha", "0.7", "--ray", "2", "--t", "1"],
    ],
)
def test_ray_outside_the_space_exits_two(files, capsys, argv):
    code, out, err = run(capsys, [a.format(**files) for a in argv])
    assert code == 2 and out == "" and err.startswith("error:") and "ray" in err


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_embed_limit_below_one_exits_two(files, capsys, limit):
    code, out, err = run(capsys, ["embed", files["z"], files["z"], "--limit", limit])
    assert code == 2 and out == "" and "limit must be at least 1" in err
