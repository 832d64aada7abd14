"""Every public name is reached from somewhere that runs.

A name in a submodule's ``__all__`` must be re-exported by the package, or be
referenced (a loaded ``Name`` or ``Attribute``, outside the name's own
definition; an import alone does not count) in the library's modules or in
the benchmark harness ``perfbench/*.py``, whose files are only parsed here.
The command line, the acceptance suite and the pipeline all live in the
library, so a name that only tests reach fails.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tightcycles"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _public(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _reexported(tree: ast.Module) -> set[tuple[str, str]]:
    """(module, name) for every ``from .module import name`` in ``__init__``."""
    return {
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def _loads(tree: ast.AST, skip: str | None = None) -> set[str]:
    """Names loaded anywhere in ``tree``, leaving out the body of a top-level
    function or class called ``skip``."""
    out: set[str] = set()
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and top.name == skip:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                out.add(node.attr)
    return out


def test_every_public_name_is_reached_outside_tests():
    modules = {p.stem: _parse(p) for p in sorted(PACKAGE.glob("*.py"))}
    reexported = _reexported(modules.pop("__init__"))
    harness = set().union(*(_loads(_parse(p)) for p in (ROOT / "perfbench").glob("*.py")))
    loads = {mod: _loads(tree) for mod, tree in modules.items()}
    unreached = []
    for mod, tree in modules.items():
        elsewhere = harness.union(*(s for other, s in loads.items() if other != mod))
        for name in _public(tree):
            if (mod, name) in reexported or name in elsewhere:
                continue
            if name not in _loads(tree, skip=name):
                unreached.append(f"{mod}.{name}")
    assert unreached == []
