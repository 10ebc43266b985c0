"""Every name a module of the package imports is used in that module."""

import ast
import pathlib

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
