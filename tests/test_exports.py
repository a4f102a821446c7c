"""Every exported name resolves, and the names the benchmark calls exist.

``perfbench/bench_trace.py`` reads every ``__all__`` entry of the layer
modules with ``getattr`` to install its spans, so a name left in
``__all__`` after its definition is deleted breaks every traced run.
"""

import importlib
import inspect
import pkgutil

import pytest

import censored_evi
from censored_evi import kaplan_meier, moments, montecarlo

MODULES = sorted(info.name for info in pkgutil.iter_modules(censored_evi.__path__))


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
