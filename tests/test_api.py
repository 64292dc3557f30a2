"""Every public name of the library has a caller.

A module-level function or class of src/ringmat whose name has no leading
underscore, and a method of such a class whose name has no leading
underscore (dunders aside), must be referenced somewhere other than its own
definition: in another place in src/ringmat, in scripts/, in the benchmark's
op runners, or in code of the README (inline or fenced; prose words do not
count).  A method counts as called only where it is read as an attribute,
x.name (in README code too), or where the benchmark's tracer wraps it by
name: a bare variable of the same name is no call.
The package's __init__ re-exports names and so counts as neither a
definition nor a caller; nor do the tests, so a name only the tests call
fails here.
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


def _public_methods(path):
    """(class, method) for every method, property and classmethod of a public class without a leading underscore."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {(cls.name, node.name) for cls in tree.body if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
            for node in cls.body if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}


def _referenced(path):
    """(the names a file reads, as a bare name, an attribute or an import; the attribute reads alone).

    Definitions are not reads."""
    names, attrs = set(), set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names | attrs, attrs


def _readme_code():
    """(the words inside backticks of the README, inline code and fenced blocks; those read as .name)."""
    code = " ".join(re.findall(r"`[^`]*`", (ROOT / "README.md").read_text(encoding="utf-8")))
    return set(re.findall(r"\w+", code)), set(re.findall(r"\.(\w+)", code))


def _traced_methods():
    """The method names in perfbench/spans.py's METHODS rows (layer, class, method, span)."""
    for node in ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["METHODS"]:
            return {method for _, _, method, _ in ast.literal_eval(node.value)}
    raise AssertionError("perfbench/spans.py has no METHODS")


def _callers():
    """(every name read anywhere a caller may be; the names read as attributes)."""
    refs = [_referenced(path) for path in CALLERS] + [_readme_code()]
    return set().union(*(names for names, _ in refs)), set().union(*(attrs for _, attrs in refs))


def test_every_public_name_has_a_caller():
    public = set().union(*map(_public_defs, MODULES))
    assert {"Mat", "snf", "mrd_code", "load_family"} <= public  # the scan sees the library
    assert sorted(public - _callers()[0]) == []


def test_every_public_method_has_a_caller():
    methods = set().union(*map(_public_methods, MODULES))
    assert {("Mat", "is_invertible"), ("RingSpec", "crt"), ("GraphSpec", "vertex_id")} <= methods
    assert {"is_invertible", "crt"} <= _traced_methods()
    called = _callers()[1] | _traced_methods()
    assert sorted((cls, name) for cls, name in methods if name not in called) == []
