"""Every public name of the library has a caller.

A module-level function or class of src/ringmat whose name has no leading
underscore must be referenced somewhere other than its own definition: in
another place in src/ringmat, in scripts/, in the benchmark's op runners, or
in the README.  The package's __init__ re-exports names and so counts as
neither a definition nor a caller; nor do the tests, so a name only the tests
call fails here.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ringmat"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
CALLERS = MODULES + sorted((ROOT / "scripts").glob("*.py")) + [
    ROOT / "perfbench" / name for name in ("workloads.py", "worker.py", "run.py")]


def _public_defs(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}


def _referenced(path):
    """The names a file reads, as a bare name, an attribute or an import; definitions are not reads."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_public_name_has_a_caller():
    public = set().union(*map(_public_defs, MODULES))
    assert {"Mat", "snf", "mrd_code", "load_family"} <= public  # the scan sees the library
    referenced = set().union(*map(_referenced, CALLERS))
    readme = set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    assert sorted(public - referenced - readme) == []
