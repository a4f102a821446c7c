"""Every exported name resolves, and what the benchmark calls exists.

``perfbench/bench_trace.py`` reads every ``__all__`` entry of the layer
modules with ``getattr`` to install its spans, so a name left in
``__all__`` after its definition is deleted breaks every traced run.
``perfbench/run.py`` and ``perfbench/setup_probe.py`` call the program
through the names, arguments and record fields pinned below.
"""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import censored_evi
from censored_evi import (GPD, BetaDist, Family, Method, ReverseBurr, cli, config, estimators,
                          kaplan_meier, moments, montecarlo)
from censored_evi.censoring import make_censored
from censored_evi.distributions import _FAMILIES

MODULES = sorted(info.name for info in pkgutil.iter_modules(censored_evi.__path__))
PACKAGE = sorted(Path(censored_evi.__file__).parent.glob("*.py"))
SOURCES = sorted([*PACKAGE, *Path(__file__).parent.glob("*.py")])
BENCHMARK = sorted((Path(__file__).parents[1] / "perfbench").glob("*.py"))


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


def test_estimate_calls_each_combiner_through_its_binding(monkeypatch):
    # the tracer times the combiners by rebinding their names in estimators
    calls = []

    def counted(name, combine):
        return lambda *args: (calls.append(name), combine(*args))[1]

    for name in ("combine_moment", "combine_type1", "combine_type2"):
        monkeypatch.setattr(estimators, name, counted(name, getattr(estimators, name)))
    s = make_censored(GPD(-0.25, 1.0).sample(np.random.default_rng(0), 30),
                      GPD(-0.2, 0.8).sample(np.random.default_rng(1), 30))
    estimators.estimate(s, [5, 10], estimators.build_specs(Family, Method, (2.0,)))
    assert sorted(calls) == sorted(3 * ["combine_moment", "combine_type1", "combine_type2"])


BENCH_CONFIG = """\
dist_x = revburr(1,1,1,10)
dist_c = revburr(10,0.6666666666666666,1,10)
n = 40
reps = 3
seed = 5
k_min = 5
k_max = 15
k_step = 5
"""


def test_calls_the_benchmark_makes(tmp_path):
    # parse_config(text).to_design() and dataclasses.replace(design, reps=...)
    design = dataclasses.replace(config.parse_config(BENCH_CONFIG).to_design(), reps=2)
    assert design.reps == 2
    # each law's sample(rng, n), and make_censored(x, c, require_positive=False)
    rng = np.random.default_rng(0)
    laws = {GPD: GPD(-0.25, 1.0), BetaDist: BetaDist(2.0, 4.0), ReverseBurr: design.dist_x}
    assert set(laws) == set(_FAMILIES.values())
    for law in laws.values():
        assert law.sample(rng, 7).shape == (7,)
    s = make_censored(design.dist_x.sample(rng, 40), design.dist_c.sample(rng, 40),
                      require_positive=False)
    assert s.n == 40
    # the record fields that the output checks read
    records = montecarlo.run_replicate(design, 0)
    assert [(rec.k, rec.spec) for rec in records] == [
        (k, spec) for k in design.k_grid for spec in design.specs]
    assert all(isinstance(rec.value, float) and isinstance(rec.p_hat, float) for rec in records)
    cells = montecarlo.run_study(design, workers=1).cells
    assert sorted((cell.k, cell.spec.label) for cell in cells) == sorted(
        (rec.k, rec.spec.label) for rec in records)
    for cell in cells:
        assert all(isinstance(getattr(cell, name), float)
                   for name in ("median_bias", "mse", "mean", "variance"))
        assert 0 <= cell.degenerate_count <= design.reps
    # cli.main(argv) on both commands, returning the exit status
    cfg, data = tmp_path / "small.cfg", tmp_path / "data.csv"
    cfg.write_text(BENCH_CONFIG)
    x, c = laws[GPD].sample(rng, 40), GPD(-0.2, 0.8).sample(rng, 40)
    data.write_text("z,delta\n" + "".join(f"{min(a, b)!r},{int(a <= b)}\n"
                                           for a, b in zip(x.tolist(), c.tolist())))
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == 0
    assert cli.main(["estimate", "--input", str(data), "--out", str(tmp_path / "e.csv"),
                     "--k-min", "1", "--k-step", "5", "--alpha", "2"]) == 0
    assert (tmp_path / "r.csv").is_file() and (tmp_path / "e.csv").is_file()


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


def private_definitions(tree):
    """The private names a module binds at its top level with a def, a
    class or an assignment, each with its line."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node.lineno
    return {name: lineno for name, lineno in defined.items()
            if name.startswith("_") and not name.startswith("__")}


def read_names(tree):
    """Every name and attribute a module reads.  A name it imports counts
    once the module reads it, as ``test_no_unused_imports`` requires."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)})


def test_no_unread_private_definitions():
    # A private function, class or constant of the package that neither
    # the package, its tests nor the benchmark reads is dead code, such as
    # a helper left behind when its callers moved to a table.
    read = set().union(*(read_names(ast.parse(path.read_text(encoding="utf-8")))
                         for path in [*SOURCES, *BENCHMARK]))
    unread = [f"{path.name}:{lineno}: {name}" for path in PACKAGE
              for name, lineno in private_definitions(
                  ast.parse(path.read_text(encoding="utf-8"))).items()
              if name not in read]
    assert unread == []


def numpy_logs(tree):
    """Each ``np.log`` and ``np.log1p`` a module reads, called or not, as
    ``(enclosing top-level function or None, line, name)``."""
    found = []
    for top in tree.body:
        owner = top.name if isinstance(top, ast.FunctionDef) else None
        found += [(owner, node.lineno, f"np.{node.attr}") for node in ast.walk(top)
                  if isinstance(node, ast.Attribute) and node.attr in ("log", "log1p")
                  and isinstance(node.value, ast.Name) and node.value.id == "np"]
    return found


def test_moments_forms_every_log_excess_in_one_routine():
    # The moment pass takes every log-excess, log(a/b), in
    # moments._log_excess, so the form of that log can change in one place.
    logs = numpy_logs(ast.parse(Path(moments.__file__).read_text(encoding="utf-8")))
    assert [(line, name) for owner, line, name in logs if owner != "_log_excess"] == []
    assert [name for owner, line, name in logs] == ["np.log"]
