"""Every public name is reached from somewhere that runs.

A name in a submodule's ``__all__`` must be re-exported by the package, or be
referenced (a load outside the name's own definition; an import alone does
not count) in the library's modules or in the benchmark harness
``perfbench/*.py``, whose files are only parsed here.  A reference counts only
when it resolves to the name's own module: a bare name in that module, a name
imported from it (``from .m import name``, ``from tightcycles.m import
name``), or an attribute of a name bound to it (``from . import m as x``,
``from tightcycles import m``).  So ``rng.random(...)`` does not reach
``constructions.random``.  The command line, the acceptance suite and the
pipeline all live in the library, so a name that only tests reach fails.
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


def _bindings(tree: ast.AST) -> tuple[dict[str, str], dict[str, tuple[str, str]]]:
    """The names an import anywhere in ``tree`` binds to a library module, and
    those it binds to a name in one: ``({alias: module}, {alias: (module,
    name)})``."""
    modules: dict[str, str] = {}
    names: dict[str, tuple[str, str]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1:
            source = node.module
        elif node.level == 0 and (node.module or "").startswith("tightcycles"):
            source = node.module.partition(".")[2] or None
        else:
            continue
        for alias in node.names:
            bound = alias.asname or alias.name
            if source is None:
                modules[bound] = alias.name
            else:
                names[bound] = (source, alias.name)
    return modules, names


def _reached(tree: ast.Module, own: str | None = None, skip: str | None = None) -> set[tuple[str, str]]:
    """(module, name) for every load in ``tree`` that resolves into a library
    module, ``own`` being the module ``tree`` is, if any; the body of a
    top-level function or class called ``skip`` is left out."""
    modules, names = _bindings(tree)
    out: set[tuple[str, str]] = set()
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and top.name == skip:
            continue
        for node in ast.walk(top):
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            if isinstance(node, ast.Name):
                if node.id in names:
                    out.add(names[node.id])
                elif own is not None:
                    out.add((own, node.id))
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            ):
                out.add((modules[node.value.id], node.attr))
    return out


def test_every_public_name_is_reached_outside_tests():
    modules = {p.stem: _parse(p) for p in sorted(PACKAGE.glob("*.py"))}
    reexported = _reexported(modules.pop("__init__"))
    harness = set().union(*(_reached(_parse(p)) for p in (ROOT / "perfbench").glob("*.py")))
    reached = {mod: _reached(tree, own=mod) for mod, tree in modules.items()}
    unreached = []
    for mod, tree in modules.items():
        elsewhere = harness.union(*(s for other, s in reached.items() if other != mod))
        for name in _public(tree):
            key = (mod, name)
            if key in reexported or key in elsewhere:
                continue
            if key not in _reached(tree, own=mod, skip=name):
                unreached.append(f"{mod}.{name}")
    assert unreached == []


def test_a_same_spelled_attribute_does_not_reach_a_public_name():
    tree = ast.parse(
        "import numpy as np\n"
        "from . import density\n"
        "rng = np.random.default_rng(0)\n"
        "x = rng.random(3)\n"
        "density.ev_deviation\n"
    )
    reached = _reached(tree, own="hamilton")
    assert ("constructions", "random") not in reached
    assert ("density", "ev_deviation") in reached


def test_each_import_form_resolves_to_its_module():
    tree = ast.parse(
        "from . import constructions as cons\n"
        "from .hypercore import bits\n"
        "from tightcycles import motifs\n"
        "from tightcycles.oracle import has_tight_hamilton as dp\n"
        "cons.example1, bits, motifs.find_k333, dp\n"
    )
    assert _reached(tree) == {
        ("constructions", "example1"),
        ("hypercore", "bits"),
        ("motifs", "find_k333"),
        ("oracle", "has_tight_hamilton"),
    }
