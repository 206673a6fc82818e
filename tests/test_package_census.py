"""Every package and every module earns its keep: something outside it
imports it.

A package under ``src/repro/`` must be imported by the library outside
itself, by the end-to-end benchmark (``bench/``), by a paper-table
reproduction (``benchmarks/``) or by an example.  Its own tests do not
count -- code only tests call is code nobody calls.  A change that adds
a package therefore has to say where it is used; a change that leaves a
package with no caller has to remove it.

The same rule holds for each module of a package: something in those
places other than the module itself and its own package ``__init__``
imports it, or imports a name that ``__init__`` re-exports from it.
Being re-exported is not being called.
"""

from __future__ import annotations

import ast
import functools
import os
from typing import Dict, Iterator, Optional, Set, Tuple

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE_DIR = os.path.join(ROOT, "src", "repro")
CALLER_DIRS = ("src", "bench", "benchmarks", "examples")

PACKAGES = sorted(
    name
    for name in os.listdir(PACKAGE_DIR)
    if os.path.isfile(os.path.join(PACKAGE_DIR, name, "__init__.py"))
)


def python_files(top: str) -> Iterator[str]:
    for folder, _, files in os.walk(top):
        for name in files:
            if name.endswith(".py"):
                yield os.path.join(folder, name)


def module_name(path: str) -> str:
    """``src/repro/a/b.py`` -> ``repro.a.b``; a package ``__init__``
    names the package."""
    parts = os.path.relpath(path, os.path.join(ROOT, "src"))[:-3].split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _source(node: ast.ImportFrom, package: Optional[str]) -> Optional[str]:
    """The module a ``from`` import reads, relative ones resolved
    against ``package`` (``None``: a relative import we cannot place)."""
    if not node.level:
        return node.module or ""
    if package is None:
        return None
    anchor = package.split(".")
    anchor = anchor[:len(anchor) - node.level + 1]
    return ".".join(anchor + ([node.module] if node.module else []))


def _package_of(path: str) -> Optional[str]:
    """The package relative imports in ``path`` start from."""
    if not path.startswith(os.path.join(ROOT, "src") + os.sep):
        return None
    name = module_name(path)
    return name if path.endswith("__init__.py") else name.rpartition(".")[0]


@functools.lru_cache(maxsize=None)
def imports_of(path: str) -> Set[Tuple[str, Optional[str]]]:
    """``(module, name)`` for everything ``path`` imports: ``name`` is
    what a ``from`` import takes out of ``module``, ``None`` for a plain
    import."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    package = _package_of(path)
    found: Set[Tuple[str, Optional[str]]] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            source = _source(node, package)
            if source is not None:
                found.update((source, alias.name) for alias in node.names)
    return found


def packages_imported(path: str) -> Set[str]:
    """The ``repro`` subpackages ``path`` imports, at any depth."""
    found: Set[str] = set()
    for module, name in imports_of(path):
        # ``from repro import pages`` names the package in ``name``.
        dotted = module if name is None else f"{module}.{name}"
        parts = dotted.split(".")
        if len(parts) > 1 and parts[0] == "repro":
            found.add(parts[1])
    return found


def callers_of(package: str) -> Set[str]:
    own = os.path.join(PACKAGE_DIR, package) + os.sep
    callers = set()
    for top in CALLER_DIRS:
        for path in python_files(os.path.join(ROOT, top)):
            if path.startswith(own):
                continue
            if package in packages_imported(path):
                callers.add(os.path.relpath(path, ROOT))
    return callers


@pytest.mark.parametrize("package", PACKAGES)
def test_package_has_a_caller_outside_itself_and_its_tests(package):
    assert callers_of(package), (
        f"repro.{package} is imported by nothing in "
        f"{', '.join(CALLER_DIRS)} outside itself: remove it, or say "
        "what calls it"
    )


MODULES = sorted(
    module_name(path)
    for path in python_files(PACKAGE_DIR)
    if os.path.dirname(path) != PACKAGE_DIR
    and os.path.basename(path) != "__init__.py"
)


@functools.lru_cache(maxsize=None)
def reexports(package: str) -> Dict[str, str]:
    """Name -> the module ``package``'s ``__init__`` imports it from."""
    path = os.path.join(ROOT, "src", *package.split("."), "__init__.py")
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    exported: Dict[str, str] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            source = _source(node, package)
            for alias in node.names:
                exported[alias.asname or alias.name] = source
    return exported


def module_callers(module: str) -> Set[str]:
    package = module.rpartition(".")[0]
    own = {
        os.path.join(ROOT, "src", *module.split(".")) + ".py",
        os.path.join(ROOT, "src", *package.split("."), "__init__.py"),
    }
    exported = {
        name for name, source in reexports(package).items() if source == module
    }
    callers = set()
    for top in CALLER_DIRS:
        for path in python_files(os.path.join(ROOT, top)):
            if path in own:
                continue
            for imported, name in imports_of(path):
                if (
                    imported == module
                    or imported.startswith(module + ".")
                    or (name is not None and f"{imported}.{name}" == module)
                    or (imported == package and name in exported)
                ):
                    callers.add(os.path.relpath(path, ROOT))
                    break
    return callers


@pytest.mark.parametrize("module", MODULES)
def test_module_has_a_caller_outside_itself_and_its_tests(module):
    assert module_callers(module), (
        f"{module} is imported by nothing in "
        f"{', '.join(CALLER_DIRS)} outside itself: remove it, or say "
        "what calls it"
    )
