"""What the package imports: unused names, the lazy surface, and what each
CLI command loads.

No linter runs on the package, so an import left behind by a refactor would
go unnoticed.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pinvperturb
from pinvperturb import GenSpec, random_operator, s_alpha, write_matrix

FILES = sorted(Path(pinvperturb.__file__).parent.glob("*.py"))
SUBMODULES = [p.stem for p in FILES if p.stem != "__init__"]


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.stem)
def test_no_unused_import(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_an_unused_import_is_found():
    tree = ast.parse("import os\nfrom math import inf, pi as tau\nprint(tau)\n")
    assert _unused_imports(tree) == ["inf", "os"]


@pytest.mark.parametrize("name", pinvperturb.__all__)
def test_public_name_resolves_to_its_home_module(name):
    obj = getattr(pinvperturb, name)
    home = importlib.import_module(obj.__module__)
    assert home.__name__.startswith("pinvperturb.")
    assert getattr(home, name) is obj


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_name_resolves_to_the_submodule(name):
    assert getattr(pinvperturb, name) is importlib.import_module(f"pinvperturb.{name}")


def test_all_is_the_table_once():
    names = pinvperturb.__all__
    assert len(names) == len(set(names)) == 61
    assert names == sorted(names)
    assert set(names) <= set(dir(pinvperturb))
    assert set(SUBMODULES) <= set(dir(pinvperturb))
    namespace = {}
    exec("from pinvperturb import *", namespace)
    assert set(names) <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(pinvperturb, "no_such_name")


def test_name_reads_its_home_binding_on_every_access(monkeypatch):
    # a rebinding in the home module, as a tracer makes, shows through the
    # package; the package keeps no copy of its own
    from pinvperturb import pinv

    original = pinv.pseudoinverse
    assert pinvperturb.pseudoinverse is original
    monkeypatch.setattr(pinv, "pseudoinverse", lambda *a: None)
    assert pinvperturb.pseudoinverse is pinv.pseudoinverse
    monkeypatch.undo()
    assert pinvperturb.pseudoinverse is original
    assert "pseudoinverse" not in vars(pinvperturb)


# runs one command in a fresh process and prints the package modules loaded
AUDIT = """
import contextlib, io, json, sys
from pinvperturb.cli import cli_dispatch
with contextlib.redirect_stdout(io.StringIO()):
    code = cli_dispatch(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.startswith("pinvperturb") or m == "numpy.random")]))
"""
BASE = {"pinvperturb", "pinvperturb.cli", "pinvperturb.errors", "pinvperturb.linalg",
        "pinvperturb.mmio", "pinvperturb.pinv", "pinvperturb.report"}
COMMANDS = {
    "pinv": (["pinv", "t.mtx"], set()),
    "check": (["check", "t.mtx", "s.mtx"], {"hypotheses"}),
    "update": (["update", "t.mtx", "s.mtx", "--method", "stewart"],
               {"hypotheses", "perturb"}),
    "bounds": (["bounds", "t.mtx", "s.mtx"], {"hypotheses", "perturb"}),
    "rol": (["rol", "f.mtx", "g.mtx"], {"reverse_order"}),
    "gen operator": (["gen", "operator", "--rows", "3", "--cols", "2", "-o", "x.mtx"],
                     {"generators", "numpy.random"}),
    "gen salpha": (["gen", "salpha", "-t", "t.mtx", "-o", "y.mtx"],
                   {"generators", "hypotheses", "numpy.random"}),
    "verify": (["verify", "--trials", "2", "--max-dim", "4"],
               {"generators", "hypotheses", "perturb", "reverse_order", "verify",
                "numpy.random"}),
}


@pytest.fixture(scope="module")
def mtx_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("audit")
    t = random_operator(GenSpec(4, 3, 2, 0.5, 1.5, 5))
    write_matrix(t, str(d / "t.mtx"))
    write_matrix(s_alpha(t, 0.3), str(d / "s.mtx"))
    write_matrix(random_operator(GenSpec(4, 3, 3, 0.5, 1.5, 6)), str(d / "f.mtx"))
    write_matrix(random_operator(GenSpec(3, 5, 3, 0.5, 1.5, 7)), str(d / "g.mtx"))
    return d


def _fresh(code, *argv, cwd=None):
    src = str(Path(pinvperturb.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-400:]
    return json.loads(proc.stdout)


def test_importing_the_package_loads_no_submodule():
    loaded = _fresh("import json, sys, pinvperturb\n"
                    "print(json.dumps([m for m in sys.modules if m.startswith('pinvperturb')]))")
    assert loaded == ["pinvperturb"]


@pytest.mark.parametrize("command", COMMANDS)
def test_command_loads_only_its_modules(mtx_dir, command):
    argv, extra = COMMANDS[command]
    code, loaded = _fresh(AUDIT, "--json", *argv, cwd=mtx_dir)
    assert code == 0
    expected = BASE | {m if m == "numpy.random" else f"pinvperturb.{m}" for m in extra}
    assert set(loaded) == expected
