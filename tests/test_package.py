"""The package's lazy export map and the CLI's table of verbs."""

import os
import re
import subprocess
import sys

import pytest

import msu
from msu import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(msu.__file__))


def run_python(code):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60, cwd=ROOT
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_every_export_resolves_and_is_listed():
    names = dir(msu)
    for name in msu.__all__:
        assert getattr(msu, name) is not None
        assert name in names
    star = {}
    exec("from msu import *", star)
    assert set(msu.__all__) <= set(star)


def test_exports_come_from_their_modules():
    assert msu.find_embeddings is msu.embed.find_embeddings
    assert msu.InputFormatError is msu.errors.InputFormatError
    assert msu.SOLVER_TOL == msu.rays.SOLVER_TOL


def test_unknown_name_raises_attribute_error():
    try:
        msu.no_such_name
    except AttributeError as exc:
        assert "no_such_name" in str(exc)
    else:
        raise AssertionError("msu.no_such_name resolved")


def test_a_bare_import_loads_no_submodule_and_resolves_one_on_use():
    out = run_python(
        "import sys, msu\n"
        "print(sorted(m for m in sys.modules if m.startswith('msu.')))\n"
        "print(msu.embed.__name__)\n"
    )
    assert out == "[]\nmsu.embed\n"


def test_validate_loads_only_what_it_uses():
    out = run_python(
        "import sys\n"
        "from msu.cli import main\n"
        "code = main(['validate', 'tests/data/golden/z.json'])\n"
        "print(code, sorted(m for m in sys.modules if m.startswith('msu')))\n"
    )
    last = out.splitlines()[-1]
    assert last == "0 ['msu', 'msu.cli', 'msu.errors', 'msu.io', 'msu.scalars', 'msu.spaces']"
    for name in ("rays", "unions", "embed", "between", "families", "graphs", "realsets"):
        assert f"msu.{name}'" not in last


def test_union_graph_builds_without_the_shortest_path_engine():
    out = run_python(
        "import sys\n"
        "from msu.cli import main\n"
        "code = main(['union', 'graph', 'tests/data/golden/pair1.json',"
        " 'tests/data/golden/pair2.json', '--eps1', '3', '--verify'])\n"
        "print(code, sorted(m for m in sys.modules if m.startswith('msu')))\n"
    )
    last = out.splitlines()[-1]
    assert last.startswith("0 [") and "'msu.unions'" in last
    assert "'msu.graphs'" not in last


@pytest.mark.parametrize("verb", ["embed", "check"])
def test_tripod_verbs_load_rays_without_between(verb):
    out = run_python(
        "import sys\n"
        "from msu.cli import main\n"
        f"code = main(['tripod', '{verb}', 'tests/data/golden/tri345.json'])\n"
        "print(code, sorted(m for m in sys.modules if m.startswith('msu')))\n"
    )
    last = out.splitlines()[-1]
    assert last.startswith("0 [") and "'msu.rays'" in last
    assert "'msu.between'" not in last


def test_building_the_parser_loads_no_library_module():
    out = run_python(
        "import sys\n"
        "from msu import cli\n"
        "cli.build_parser()\n"
        "print(sorted(m for m in sys.modules if m.startswith('msu')))\n"
    )
    assert out == "['msu', 'msu.cli']\n"


def readme_verb_paths():
    """Verb paths of the README's command-line table, from each row's first code span."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    table = text.split("| Verb | Does |", 1)[1].split("\n\n", 1)[0]
    paths = set()
    for row in table.splitlines()[2:]:
        words = re.match(r"\| `([^`]*)`", row).group(1).split()
        if len(words) > 1 and re.fullmatch(r"[a-z-]+(\\\|[a-z-]+)*", words[1]):
            paths |= {(words[0], leaf) for leaf in words[1].split("\\|")}
        else:
            paths.add((words[0],))
    return paths


def test_readme_table_names_exactly_the_verbs():
    assert readme_verb_paths() == set(cli._VERBS)
