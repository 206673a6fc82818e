"""Every package earns its keep: something outside it imports it.

A package under ``src/repro/`` must be imported by the library outside
itself, by the end-to-end benchmark (``bench/``), by a paper-table
reproduction (``benchmarks/``) or by an example.  Its own tests do not
count -- code only tests call is code nobody calls.  A change that adds
a package therefore has to say where it is used; a change that leaves a
package with no caller has to remove it.
"""

from __future__ import annotations

import ast
import functools
import os
from typing import Iterator, Set

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


@functools.lru_cache(maxsize=None)
def packages_imported(path: str) -> Set[str]:
    """The ``repro`` subpackages ``path`` imports, at any depth."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    found: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            base = node.module or ""
            modules = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for module in modules:
            parts = module.split(".")
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
