"""No production code that only the tests call: every top-level
function, class and constant of the package is read somewhere in
``src/``, or is exported through its module's ``__all__`` and then read
in ``src/`` or ``bench/``, re-exported by ``risfso`` or named in the
README."""
from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "risfso"


def _defined(tree: ast.Module) -> tuple[list[str], set[str]]:
    """The names a module defines at top level, and its ``__all__``."""
    names, exported = [], set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for name in (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                if name == "__all__":
                    exported |= set(ast.literal_eval(node.value))
                else:
                    names.append(name)
    return names, exported


def _loaded(trees) -> set[str]:
    """The names read anywhere in ``trees``, bare or as an attribute;
    text in docstrings and comments is no use."""
    loaded = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    return loaded


def _parsed(directory: Path) -> dict[Path, ast.Module]:
    return {p: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(directory.rglob("*.py"))}


def test_every_top_level_name_is_read_outside_the_tests():
    trees = _parsed(PACKAGE)
    loaded = _loaded(trees.values())
    # an exported name is also used when the benchmark reads it, the
    # package re-exports it or the README names it; the tests are no use
    readme = set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    public = (loaded | _loaded(_parsed(ROOT / "bench").values())
              | _defined(trees[PACKAGE / "__init__.py"])[1] | readme)
    unused = []
    for path, tree in trees.items():
        names, exported = _defined(tree)
        unused += [f"{path.relative_to(PACKAGE)}:{name}" for name in names
                   if name not in (public if name in exported else loaded)
                   and not (name.startswith("__") and name.endswith("__"))]
    assert not unused, unused


def test_every_imported_name_is_read_or_exported():
    # an import that nothing reads is left over from deleted code; a
    # package __init__ re-exports its imports through __all__
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [a.asname or a.name.partition(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [a.asname or a.name for a in node.names]
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        exported = _defined(tree)[1]
        unused += [f"{path.relative_to(PACKAGE)}:{name}" for name in imported
                   if name not in read and name not in exported]
    assert not unused, unused


def test_every_slot_is_read():
    # a __slots__ entry that no code reads is left over from deleted code,
    # like a top-level name; an augmented assignment reads its target
    trees = _parsed(PACKAGE).values()
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
                read.add(node.target.attr)
    unread = []
    for tree in trees:
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for node in cls.body:
                if (isinstance(node, ast.Assign)
                        and any(isinstance(t, ast.Name) and t.id == "__slots__"
                                for t in node.targets)):
                    unread += [f"{cls.name}.{name}" for name in ast.literal_eval(node.value)
                               if name not in read]
    assert not unread, unread
