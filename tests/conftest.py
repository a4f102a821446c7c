"""Shared fixtures and sample builders for the test suite."""

import concurrent.futures

import numpy as np
import pytest

from censored_evi import GPD, ReverseBurr, from_observations, make_censored

# Censoring pairs with matching endpoints covering weak and strong
# censoring, pure Reverse Burr, pure GPD and mixed designs.
DESIGNS = (
    (ReverseBurr(1, 1, 1, 10), ReverseBurr(10, 2.0 / 3.0, 1, 10)),
    (ReverseBurr(1, 8, 0.5, 10), ReverseBurr(10, 4, 0.5, 10)),
    (ReverseBurr(10, 8, 0.5, 10), ReverseBurr(10, 5, 1, 10)),
    (GPD(-0.5, 1), GPD(-0.25, 0.5)),
    (GPD(-1.0, 3.0), ReverseBurr(1, 1, 1, 3)),
)

FIGURE1_X = ReverseBurr(1, 1, 1, 10)
FIGURE1_C = ReverseBurr(10, 2.0 / 3.0, 1, 10)

# A ``montecarlo._POOL_COST_S`` under which a pool always pays, whatever
# its start method.
FREE_POOL = {"fork": 0.0, "forkserver": 0.0, "spawn": 0.0}


def sample_from(z, delta):
    """Strictly validated sample from explicit (z, delta) lists."""
    return from_observations(z, delta)


def draw_sample(rng, n, design=None):
    """One censored sample from a known pair (lenient construction: the
    Reverse Burr families put some mass below zero)."""
    fx, gc = design if design is not None else DESIGNS[int(rng.integers(len(DESIGNS)))]
    x = fx.sample(rng, n)
    c = gc.sample(rng, n)
    return make_censored(x, c, require_positive=False)


def draw_sample_with_k(rng, n, design=None, k_hi=None):
    """Sample plus a k for which the threshold order statistic is positive."""
    while True:
        s = draw_sample(rng, n, design)
        hi = min(k_hi or n - 1, n - 1)
        k = int(rng.integers(1, hi + 1))
        if s.z[s.n - k - 1] > 0:
            return s, k


@pytest.fixture
def rng():
    return np.random.default_rng(20140331)


@pytest.fixture
def started_pools(monkeypatch):
    """The worker counts of the process pools ``run_study`` starts during
    the test, in order; the pools are real."""
    sizes = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    # run_study imports the pool class from here when it starts a pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    return sizes
