"""Every name a module of the package imports is used in that module, and
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


def test_cli_leaves_numpy_out_until_a_census():
    # a fresh interpreter: this process may have imported numpy already
    code = "\n".join([
        "import sys",
        "from orbitforge import cli",
        "assert 'numpy' not in sys.modules, 'import orbitforge.cli'",
        "assert cli.run(['classify', '--vector', '1,0,1']) == 0",
        "assert 'numpy' not in sys.modules, 'orbit classify'",
    ])
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "label: 1\n"
