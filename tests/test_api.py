"""The package's public surface: every exported name exists, is re-exported by
the package once, and is used by the package itself; every dataclass field is
read by it.

A name that only tests call is either dead or a test oracle; it belongs in
``tests/oracles.py`` or nowhere, not in the library.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

import splinespectra

PACKAGE = Path(splinespectra.__file__).parent
# the command-line front end: it exports nothing through the package
FRONT_END = {"__init__", "__main__", "cli"}
LIBRARY = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem not in FRONT_END)
# exported ahead of its caller: the CLI's optimal-blending option will call it
NOT_YET_CALLED = {"find_optimal_tau"}


def module(name):
    return importlib.import_module(f"splinespectra.{name}")


def exports() -> dict[str, str]:
    """Every ``__all__`` name of the library modules, with its module."""
    owners = {}
    for name in LIBRARY:
        for export in module(name).__all__:
            assert export not in owners, f"{export} exported by {owners[export]} and {name}"
            owners[export] = name
    return owners


def referenced_names(path: Path) -> set[str]:
    """Identifiers a module reads, as bare names or as attributes."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


@pytest.mark.parametrize("name", LIBRARY)
def test_all_names_exist(name):
    mod = module(name)
    assert [export for export in mod.__all__ if not hasattr(mod, export)] == []


def test_package_reexports_exactly_the_library_exports():
    public = {attr for attr, value in vars(splinespectra).items()
              if not attr.startswith("_") and not isinstance(value, types.ModuleType)}
    owners = exports()
    assert public == set(owners)
    for export, owner in owners.items():
        assert getattr(splinespectra, export) is getattr(module(owner), export)


def test_every_export_is_used_by_the_package():
    used = set().union(*(referenced_names(path) for path in PACKAGE.glob("*.py")
                         if path.stem != "__init__"))
    owners = exports()
    assert NOT_YET_CALLED <= set(owners)
    assert sorted(set(owners) - used) == sorted(NOT_YET_CALLED)


def dataclass_fields(path: Path) -> list[tuple[str, str]]:
    """``(class, field)`` for every annotated field of a ``@dataclass`` class."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if not any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
            continue
        out += [(node.name, stmt.target.id) for stmt in node.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    return out


def attributes_read(path: Path) -> set[str]:
    """Attribute names a module loads, as in ``obj.name``."""
    return {node.attr for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_dataclass_field_is_read():
    """A dataclass field that nothing reads is stored work with no consumer.

    The check goes by name only: a field counts as read when any ``src/``
    module loads an attribute of that name, on any object.  So it misses an
    unread field that shares its name with a read one.  An unread
    ``DiscreteOperator.quadrature`` would pass, because the CLI reads
    ``self.quadrature`` under the same name.
    """
    paths = sorted(PACKAGE.glob("*.py"))
    read = set().union(*(attributes_read(path) for path in paths))
    fields = [f for path in paths for f in dataclass_fields(path)]
    assert len(fields) > 50
    assert [f"{cls}.{name}" for cls, name in fields if name not in read] == []
