"""Source hygiene: every import in the package, its tests and its tools is
used, every private module-level helper of the package is read by the
package, and every exported name resolves and is read by the package or
named in the README."""

import ast
import re
from pathlib import Path

import pytest

import sharmonic

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src").rglob("*.py"))
FILES = SOURCES + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))


def read_names(tree: ast.AST) -> set[str]:
    """Names a module reads, bare or as an attribute."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements and never read, except re-exports
    listed in __all__."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= {elt.value for elt in node.value.elts}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used and name not in exported]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_sees_unused_and_exempts_reexports():
    source = "import os\nfrom json import dumps, loads\n__all__ = ['loads']\nos.sep\n"
    assert unused_imports(source) == ["dumps (line 2)"]


def unread_private_names(sources: list[str]) -> list[str]:
    """Module-level private functions and constants (one leading underscore)
    that no source reads, by name or as a module attribute; tests do not
    count as readers."""
    defined, read = {}, set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined.setdefault(name, node.lineno)
        read |= read_names(tree)
    return [f"{name} (line {line})" for name, line in sorted(defined.items())
            if name not in read]


def test_no_unread_private_helpers():
    assert unread_private_names([path.read_text() for path in SOURCES]) == []


def test_helper_scan_sees_unread_names_across_modules():
    first = ("_USED = 1\n_DEAD = 2\ndef _helper():\n    return _USED\n"
             "def _orphan():\n    pass\ndef _remote():\n    pass\ndef public():\n"
             "    return _helper()\n")
    second = "import first\nfirst._remote()\n"
    assert unread_private_names([first, second]) == ["_DEAD (line 2)", "_orphan (line 5)"]


def test_exports_resolve_once():
    # a name left in __all__ after its definition is deleted still imports
    # cleanly; only a star import would fail on it
    assert len(sharmonic.__all__) == len(set(sharmonic.__all__))
    assert [name for name in sharmonic.__all__ if not hasattr(sharmonic, name)] == []


def unused_exports(exports: list[str], sources: list[str], readme: str) -> list[str]:
    """Exported names, __version__ aside, that no package module other than
    __init__ reads and that the README does not name."""
    read = set().union(*(read_names(ast.parse(source)) for source in sources))
    named = set(re.findall(r"\w+", readme))
    return [name for name in exports
            if name != "__version__" and name not in read and name not in named]


def test_every_export_is_read_or_documented():
    sources = [path.read_text() for path in SOURCES if path.name != "__init__.py"]
    readme = (ROOT / "README.md").read_text()
    assert unused_exports(sharmonic.__all__, sources, readme) == []


def test_export_scan_sees_unread_names():
    source = "def used():\n    pass\ndef orphan():\n    pass\nused()\n"
    exports = ["used", "orphan", "documented", "__version__"]
    assert unused_exports(exports, [source], "Call `documented` first.") == ["orphan"]
