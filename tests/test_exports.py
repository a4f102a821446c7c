"""Every exported name resolves, and the names the benchmark calls exist.

``perfbench/bench_trace.py`` reads every ``__all__`` entry of the layer
modules with ``getattr`` to install its spans, so a name left in
``__all__`` after its definition is deleted breaks every traced run.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import censored_evi
from censored_evi import kaplan_meier, moments, montecarlo

MODULES = sorted(info.name for info in pkgutil.iter_modules(censored_evi.__path__))
SOURCES = sorted([*Path(censored_evi.__file__).parent.glob("*.py"),
                  *Path(__file__).parent.glob("*.py")])


@pytest.mark.parametrize("name", ["censored_evi", *(f"censored_evi.{m}" for m in MODULES)])
def test_every_all_entry_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
    assert len(set(module.__all__)) == len(module.__all__)


def test_names_the_benchmark_calls():
    assert inspect.isfunction(montecarlo.run_replicate)
    assert isinstance(inspect.getattr_static(montecarlo.StudyResult, "cells"), property)
    assert "fit" in kaplan_meier.__all__
    # the tracer books moments' calls to fit to kaplan_meier.fit through
    # this binding
    assert moments.fit is kaplan_meier.fit


def unused_imports(path):
    """The names a module's top-level imports bind that it never reads;
    names listed in its ``__all__`` count as read."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            read |= set(ast.literal_eval(node.value))
    return sorted(f"line {lineno}: {name}" for name, lineno in bound.items()
                  if name not in read)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_unused_imports(path):
    assert unused_imports(path) == []
