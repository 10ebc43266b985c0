"""Every name a module of the package imports is used in that module,
every private function and class is used somewhere in the package, and
only a census loads numpy."""

import ast
import os
import pathlib
import subprocess
import sys

import orbitforge

PACKAGE = pathlib.Path(orbitforge.__file__).parent


def _unused_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return ["%s:%d %s" % (path.name, line, name)
            for name, line in sorted(imported.items()) if name not in used]


def test_no_unused_imports():
    paths = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(paths) >= 10
    unused = [u for p in paths for u in _unused_imports(p)]
    assert unused == []


def _names(node):
    """Each name read in node, as a variable or as an attribute."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def test_no_unused_private_definitions():
    # a private function or class that only its own body refers to is dead
    # code, such as a kernel left behind when another replaced it
    trees = {p.name: ast.parse(p.read_text(), str(p))
             for p in sorted(PACKAGE.glob("*.py"))}
    used = {}
    for tree in trees.values():
        for name in _names(tree):
            used[name] = used.get(name, 0) + 1
    defs = [(path, node) for path, tree in trees.items()
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.endswith("__")]
    assert len(defs) >= 50
    unused = ["%s:%d %s" % (path, node.lineno, node.name)
              for path, node in defs
              if used.get(node.name, 0) == list(_names(node)).count(node.name)]
    assert unused == []


def test_cli_leaves_numpy_out_until_a_census():
    # a fresh interpreter: this process may have imported numpy already;
    # the local and real counts are closed formulas, not censuses
    code = "\n".join([
        "import sys",
        "from orbitforge import cli",
        "assert 'numpy' not in sys.modules, 'import orbitforge.cli'",
        "assert cli.run(['classify', '--vector', '1,0,1']) == 0",
        "assert 'numpy' not in sys.modules, 'orbit classify'",
        "assert cli.run(['local-count', '--rep', 'sym2', '--poly',"
        " 'x^3 - x', '--p', '5']) == 0",
        "assert 'numpy' not in sys.modules, 'orbit local-count'",
        "assert cli.run(['real-count', '--rep', 'sym2', '--poly',"
        " 'x^3 - x']) == 0",
        "assert 'numpy' not in sys.modules, 'orbit real-count'",
        "assert cli.run(['census', '--p', '3', '--rep', 'standard']) == 0",
        "assert 'numpy' in sys.modules, 'orbit census'",
    ])
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("label: 1\ncount: 10\n"
                                  "factors_mod_p: 3\ncount: 3\n")
