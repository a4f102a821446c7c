"""Benchmark of the censored-evi library, Monte Carlo engine and CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (see README.md in this directory for why each exists):

* ``fig1-serial``      -- the figure-1 study design, ``run_study(workers=1)``.
* ``fig3-all9-pool``   -- the figure-3 design with all nine estimators,
  ``run_study(workers=nproc)``.
* ``estimate-large-n`` -- ``censored-evi estimate`` on one generated
  ``z,delta`` CSV of n = 20000, k stride 50 up to n-1, all nine estimators.

The program is imported from ``src/`` of the checkout and receives only
generated inputs (config text or a CSV).  Every run checks the outputs
against a brute-force reference, counts failed operations, and prints as
its last stdout line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics from a traced run with ``--trace 1``.  The line before
it is a JSON report with machine facts, the degenerate and failure
fractions and every raw sample.  Exit status is 0 only when every
operation succeeded and every check passed.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.metadata
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import bench_oracle as oracle
from bench_trace import Tracer, write_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

NPROC = len(os.sched_getaffinity(0))
SETUP_PROBES = 9
MIN_OPS = 3
# Replicates of the run_study call checked cell by cell against the reference.
ORACLE_REPS = 3

# The scripts/figure1.cfg and figure3.cfg designs, kept here so the
# benchmark's inputs do not move when those files change.  reps is cut
# from 2000 so that one run_study takes about a second and a run holds a
# dozen of them.
FIG1_CONFIG = """\
dist_x = revburr(1,1,1,10)
dist_c = revburr(10,0.6666666666666666,1,10)
n      = 500
reps   = {reps}
seed   = {seed}
k_min  = 10
k_max  = 400
k_step = 10
alpha  = 2
families = type1
methods  = km,l,efg
"""
FIG3_ALL9_CONFIG = """\
dist_x = revburr(10,8,0.5,10)
dist_c = revburr(10,5,1,10)
n      = 500
reps   = {reps}
seed   = {seed}
k_min  = 10
k_max  = 400
k_step = 10
alpha  = 2
families = mom,type1,type2
methods  = km,l,efg
"""
# Reverse Burr parameters (beta, tau, lam, xstar) of the designs above,
# for the reference sampler.
FIG1_LAWS = ((1.0, 1.0, 1.0, 10.0), (10.0, 0.6666666666666666, 1.0, 10.0))
FIG3_LAWS = ((10.0, 8.0, 0.5, 10.0), (10.0, 5.0, 1.0, 10.0))

# estimate-large-n: X ~ GPD(-0.25, 1), C ~ GPD(-0.2, 0.8), common endpoint 4.
LARGE_N = 20000
LARGE_K_STEP = 50
LARGE_LAWS = ((-0.25, 1.0), (-0.2, 0.8))
# At most this many k values with degenerate rows are checked on estimate-large-n.
MAX_NAN_K = 8
ALL9 = [(f, m) for f in ("mom", "type1", "type2") for m in ("km", "l", "efg")]

END_TO_END = {"wall_rel": "ratio", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "moments.self_ms": "ms", "moments.calls": "count", "moments.elements": "count",
    "moments.computed_bytes": "bytes",
    "estimators.self_ms": "ms", "estimators.combine_ms": "ms", "estimators.calls": "count",
    "censoring.tail_proportion_ms": "ms", "censoring.tail_proportion_calls": "count",
    "distributions.sample_ms": "ms", "censoring.make_censored_ms": "ms",
    "kaplan_meier.fit_ms": "ms",
    "montecarlo.replicate_ms_p50": "ms", "montecarlo.replicate_ms_p90": "ms",
    "montecarlo.aggregate_ms": "ms", "montecarlo.pool_overhead_s": "s",
    "montecarlo.parallel_eff": "ratio", "montecarlo.ipc_bytes_per_rep": "bytes",
    "config.parse_ms": "ms",
    "censoring.from_observations_ms": "ms", "cli.self_ms": "ms",
    "cli.input_bytes": "bytes", "cli.output_bytes": "bytes",
    "trace.overhead_frac": "ratio", "failed_frac": "ratio", "degenerate_frac": "ratio",
}


class Mismatch(Exception):
    """An output that disagrees with the reference."""


def _cell_key(k, spec):
    return (k, spec.family.value, spec.method.value, spec.alpha)


class Ledger:
    """Operations attempted and failed, with the reason of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.notes = {}

    def run(self, what, fn, *args):
        """Run one operation; an exception or a returned string is a failure."""
        self.attempted += 1
        try:
            problem = fn(*args)
        except Mismatch as exc:
            problem = str(exc)
        except Exception:
            problem = traceback.format_exc(limit=4)
        if isinstance(problem, str):
            self.failures.append(f"{what}: {problem}")
            print(f"FAILED {what}: {problem}", file=sys.stderr)
            return False
        return True


# The reference kernel: a fixed mix of small numpy calls and Python scalar
# arithmetic, like the program's, on inputs that never change.  The VM this
# benchmark was written on switches between a fast and a slow state (about
# 1.6x apart) every few seconds, in proportions that drift over minutes, so
# raw wall times of the same code spread by up to 25% between runs.  Timed
# right before and after each operation, the kernel sees the same state,
# and the ratio of the two times cancels it.
_REF_RNG = np.random.default_rng(20150601)
REF_Z = np.sort(1.0 + _REF_RNG.random(2000))
REF_W = (_REF_RNG.random(2000) < 0.6).astype(float)
REF_ROUNDS = 40


def reference_kernel():
    """Seconds taken by one pass of the reference kernel."""
    z, w = REF_Z, REF_W
    acc = 0.0
    start = perf_counter()
    for _ in range(REF_ROUNDS):
        for k in range(10, 2000, 40):
            x = np.log(z[-k:]) - math.log(z[-k - 1])
            m1 = float(x.mean())
            m2 = float(np.dot(x, x)) / k
            s = float(np.dot(w[-k:], x)) / k
            acc += m1 + s / (1.0 + m2 - m1 * m1)
    elapsed = perf_counter() - start
    if not math.isfinite(acc):
        raise RuntimeError("reference kernel produced a non-finite sum")
    return elapsed


def timed_loop(ledger, what, op, budget, between=None):
    """Repeat op for budget seconds (at least MIN_OPS attempts), with the
    reference kernel timed right before and right after each attempt.
    Return, for each successful attempt, its wall time, its wall time over
    the mean of the two reference times around it, and its result.
    ``between`` is called with the elapsed seconds before each attempt
    after the first, outside the timing."""
    walls, rels, results = [], [], []
    start = perf_counter()
    attempts = 0
    while attempts < MIN_OPS or perf_counter() - start < budget:
        if between is not None and attempts:
            between(perf_counter() - start)
        attempts += 1
        box = {}

        def one():
            box["ref"] = reference_kernel()
            t0 = perf_counter()
            box["result"] = op()
            box["wall"] = perf_counter() - t0
            box["ref"] = (box["ref"] + reference_kernel()) / 2

        if ledger.run(f"{what} #{attempts}", one):
            walls.append(box["wall"])
            rels.append(box["wall"] / box["ref"])
            results.append(box["result"])
    return walls, rels, results


def _median(values):
    return statistics.median(values) if values else float("nan")


def _midmean(values):
    """Mean of the middle half of the values: as robust to a stray
    operation as the median, and steadier when the values spread."""
    values = sorted(values)
    quarter = len(values) // 4
    return statistics.fmean(values[quarter:len(values) - quarter]) if values else float("nan")


class Simulate:
    """A run_study workload on one of the figure designs."""

    def __init__(self, name, template, laws, reps, seed, workers, byte_check):
        self.name = name
        self.laws = laws
        self.seed = seed
        self.reps = reps
        self.workers = workers
        self.byte_check = byte_check
        self.template = template
        self.config_text = template.format(reps=reps, seed=seed)
        self._references = {}

    def prepare(self, workdir):
        from censored_evi import config
        self.workdir = workdir
        self.config_path = workdir / "study.cfg"
        self.config_path.write_text(self.config_text)
        self.design = config.parse_config(self.config_text).to_design()
        self.estimates = self.reps * len(self.design.k_grid) * len(self.design.specs)
        self.units = self.reps

    def setup_probe_args(self):
        return ["simulate", str(self.config_path)]

    def op(self, workers=None):
        from censored_evi import montecarlo
        return montecarlo.run_study(self.design, workers=workers or self.workers)

    def digest(self, result):
        return hashlib.sha256(repr([
            (c.k, c.spec.family.value, c.spec.method.value, c.spec.alpha, c.median_bias,
             c.mse, c.mean, c.variance, c.degenerate_count) for c in result.cells
        ]).encode()).hexdigest()

    def degenerate(self, result):
        return sum(c.degenerate_count for c in result.cells)

    def checks(self, ledger, results):
        digests = {self.digest(r) for r in results}
        ledger.run("timed results identical across repeats",
                   lambda: None if len(digests) == 1 else f"{len(digests)} distinct results")
        ledger.run("timed results cover every (k, estimator) cell once", self._check_cells, results)
        if results:
            ledger.run(f"timed result against {self.reps} run_replicate calls",
                       self._check_against_replicates, ledger, results[0])
        ledger.run(f"run_study at {ORACLE_REPS} replicates against the reference",
                   self._check_small_study, ledger)
        picks = sorted({0, self.reps // 2, self.reps - 1})
        ledger.notes["oracle_replicates"] = picks
        for r in picks:
            ledger.run(f"replicate {r} against the reference", self._check_replicate, ledger, r)
        if self.byte_check:
            ledger.run(f"results CSV identical at 1 and {NPROC} workers", self._check_bytes)

    def _check_cells(self, results):
        """Each result has every (k, estimator) cell once, in k order, and
        NaN statistics exactly in the cells where every replicate is
        degenerate."""
        design = self.design
        expected = {_cell_key(k, s) for k in design.k_grid for s in design.specs}
        for result in results:
            keys = [_cell_key(c.k, c.spec) for c in result.cells]
            if len(keys) != len(expected) or set(keys) != expected:
                return "cells do not cover k grid x estimators exactly once"
            if [key[0] for key in keys] != sorted(key[0] for key in keys):
                return "cells are not in k order"
            for c in result.cells:
                if not 0 <= c.degenerate_count <= design.reps:
                    return f"k={c.k}: degenerate_count {c.degenerate_count} of {design.reps}"
                empty = c.degenerate_count == design.reps
                if any(math.isfinite(getattr(c, name)) == empty for name in oracle.STATISTICS):
                    return f"k={c.k}: statistics disagree with degenerate_count {c.degenerate_count}"
        return None

    def _compare_cells(self, ledger, result, design, entries, what):
        """Compare the cells of a StudyResult with cell_statistics of the
        per-replicate (estimate, tolerance) entries of each cell."""
        gamma = oracle.revburr_evi(self.laws[0])
        if abs(design.gamma_x - gamma) > 4 * oracle.U * abs(gamma):
            return f"design gamma_x {design.gamma_x!r} != reference {gamma!r}"
        if {_cell_key(c.k, c.spec) for c in result.cells} != set(entries):
            return "cells do not match the reference cells"
        notes = ledger.notes
        for c in result.cells:
            key = _cell_key(c.k, c.spec)
            if len(entries[key]) != design.reps:
                return f"{key}: {len(entries[key])} replicate estimates, expected {design.reps}"
            ref = oracle.cell_statistics(entries[key], gamma)
            if ref is None:
                notes[f"{what}_cells_unchecked"] = notes.get(f"{what}_cells_unchecked", 0) + 1
                continue
            if c.degenerate_count != ref["degenerate_count"]:
                return (f"{key}: degenerate_count {c.degenerate_count}, "
                        f"reference {ref['degenerate_count']}")
            for name in oracle.STATISTICS:
                status = oracle.compare_statistic(getattr(c, name), *ref[name])
                if status != "ok":
                    return f"{key} {name}: {status}"
            notes[f"{what}_cells_checked"] = notes.get(f"{what}_cells_checked", 0) + 1
        return None

    def _check_against_replicates(self, ledger, result):
        """The timed run_study result against statistics built here from
        run_replicate of every replicate: catches replicates dropped,
        repeated or reordered by the engine, or wrong aggregation, at the
        workload's own size.  Tolerances are the engine's rounding."""
        from censored_evi import montecarlo
        entries = {}
        for r in range(self.reps):
            for rec in montecarlo.run_replicate(self.design, r):
                entries.setdefault(_cell_key(rec.k, rec.spec), []).append((rec.value, 0.0))
        return self._compare_cells(ledger, result, self.design, entries, "aggregate")

    def _check_small_study(self, ledger):
        """run_study itself, at the workload's worker count, against cell
        statistics of the brute-force estimates of its replicates."""
        from censored_evi import montecarlo
        design = dataclasses.replace(self.design, reps=ORACLE_REPS)
        result = montecarlo.run_study(design, workers=self.workers)
        entries = {}
        for r in range(ORACLE_REPS):
            ref = self._reference(r)
            for k in design.k_grid:
                for s in design.specs:
                    expected, tol = ref.expect(k, s.family.value, s.method.value, s.alpha)
                    entries.setdefault(_cell_key(k, s), []).append((expected, tol))
        return self._compare_cells(ledger, result, design, entries, "oracle_study")

    def _reference(self, r):
        """The brute-force reference on replicate r's sample, after checking
        that sample against the program's."""
        if r in self._references:
            return self._references[r]
        from censored_evi.censoring import make_censored
        design, n = self.design, self.design.n
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(self.seed, r)))
        prog = make_censored(design.dist_x.sample(rng, n), design.dist_c.sample(rng, n),
                             require_positive=False)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(self.seed, r)))
        x = oracle.revburr_quantile(self.laws[0], oracle.uniform_open(rng, n))
        c = oracle.revburr_quantile(self.laws[1], oracle.uniform_open(rng, n))
        z, delta = oracle.censor(x.tolist(), c.tolist())
        if delta != prog.delta.tolist():
            raise Mismatch(f"replicate {r}: censoring indicators differ from the reference")
        lo = n - max(design.k_grid) - 1
        eta = max(abs(a - b) / abs(b) for a, b in zip(z[lo:], prog.z[lo:].tolist()))
        if eta > 64 * oracle.U:
            raise Mismatch(f"replicate {r}: sample differs from the reference by {eta:.3g}")
        self._references[r] = oracle.Reference(z, delta, eta)
        return self._references[r]

    def _check_replicate(self, ledger, r):
        from censored_evi import montecarlo
        design = self.design
        records = montecarlo.run_replicate(design, r)
        return _compare_records(ledger, self._reference(r), [
            (rec.k, rec.spec.family.value, rec.spec.method.value, rec.spec.alpha,
             rec.value, rec.p_hat) for rec in records
        ], [(k, s.family.value, s.method.value, s.alpha)
            for k in design.k_grid for s in design.specs])

    def _check_bytes(self):
        from censored_evi import cli
        small = self.workdir / "small.cfg"
        small.write_text(self.template.format(reps=2 * NPROC + 3, seed=self.seed))
        bodies = []
        saved = os.environ.get("CENSORED_EVI_THREADS")
        try:
            for workers in (1, NPROC):
                os.environ["CENSORED_EVI_THREADS"] = str(workers)
                out = self.workdir / f"small-{workers}.csv"
                rc = cli.main(["simulate", "--config", str(small), "--out", str(out)])
                if rc != 0:
                    return f"simulate exited {rc} at {workers} workers"
                bodies.append(out.read_bytes())
        finally:
            if saved is None:
                os.environ.pop("CENSORED_EVI_THREADS", None)
            else:
                os.environ["CENSORED_EVI_THREADS"] = saved
        return None if bodies[0] == bodies[1] else "results CSV bytes differ"

    def trace(self, ledger, budget, metrics):
        from censored_evi import config, montecarlo
        from multiprocessing.reduction import ForkingPickler
        ledger.run("serial warm-up", self.op, 1)
        serial, serial_rel, _ = timed_loop(ledger, "untraced serial run_study",
                                           lambda: self.op(1), budget / 3)
        ledger.run("pool warm-up", self.op, NPROC)
        pooled, pooled_rel, _ = timed_loop(ledger, f"untraced run_study at {NPROC} workers",
                                           lambda: self.op(NPROC), budget / 3)
        tracer = Tracer()
        ledger.notes["trace_cost_us_per_call"] = {
            where: 1e6 * seconds for where, seconds in tracer.cost.items()}
        tracer.install()
        try:
            parses = [tracer.record("config.parse_config", "config",
                                    config.parse_config, self.config_text) for _ in range(20)]
            walls, rels, summaries = timed_loop(
                ledger, "traced serial run_study",
                lambda: tracer.record("montecarlo.run_study", "montecarlo", self.op, 1),
                budget / 3)
        finally:
            tracer.uninstall()
        write_spans(tracer.last, OUT / f"{self.name}-seed{self.seed}-spans.csv.gz")
        wall1, walln = _median(serial), _median(pooled)
        metrics.update(_layer_metrics(summaries, self.units))
        metrics["montecarlo.pool_overhead_s"] = walln - wall1 / NPROC
        metrics["montecarlo.parallel_eff"] = _midmean(serial_rel) / (NPROC * _midmean(pooled_rel))
        metrics["montecarlo.ipc_bytes_per_rep"] = len(
            ForkingPickler.dumps(montecarlo.run_replicate(self.design, 0)))
        metrics["config.parse_ms"] = 1e3 * _median(
            [s["durations"]["config.parse_config"][0] for s in parses])
        metrics["trace.overhead_frac"] = _midmean(rels) / _midmean(serial_rel) - 1.0
        ledger.notes.update(serial_wall_s=serial, pool_wall_s=pooled, traced_wall_s=walls,
                            serial_wall_rel=serial_rel, pool_wall_rel=pooled_rel,
                            traced_wall_rel=rels)


class EstimateLargeN:
    """`censored-evi estimate` on one generated z,delta CSV."""

    name = "estimate-large-n"

    def __init__(self, seed):
        self.seed = seed

    def prepare(self, workdir):
        rng = np.random.default_rng(self.seed)
        x = oracle.gpd_quantile(LARGE_LAWS[0], oracle.uniform_open(rng, LARGE_N))
        c = oracle.gpd_quantile(LARGE_LAWS[1], oracle.uniform_open(rng, LARGE_N))
        self.x, self.c = x.tolist(), c.tolist()
        z = np.minimum(x, c).tolist()
        delta = (x <= c).astype(int).tolist()
        self.input_path = workdir / "data.csv"
        self.input_path.write_text(
            "z,delta\n" + "".join(f"{a!r},{d}\n" for a, d in zip(z, delta)))
        self.output_path = workdir / "estimates.csv"
        self.k_grid = list(range(1, LARGE_N, LARGE_K_STEP))
        self.estimates = len(self.k_grid) * len(ALL9)
        self.units = 1
        self.argv = ["estimate", "--input", str(self.input_path), "--out",
                     str(self.output_path), "--k-min", "1", "--k-step", str(LARGE_K_STEP),
                     "--alpha", "2"]

    def setup_probe_args(self):
        return ["estimate"]

    def _main(self):
        from censored_evi import cli
        rc = cli.main(self.argv)
        if rc != 0:
            raise RuntimeError(f"estimate exited {rc}")

    def op(self):
        self._main()
        return hashlib.sha256(self.output_path.read_bytes()).digest()

    def degenerate(self, result):
        return sum(row["degenerate"] == "1" for row in self._rows())

    def _rows(self):
        with open(self.output_path, newline="") as handle:
            lines = handle.read().splitlines()
        header = lines[0].split(",")
        return [dict(zip(header, line.split(","))) for line in lines[1:]]

    def checks(self, ledger, results):
        ledger.run("timed outputs identical across repeats",
                   lambda: None if len(set(results)) == 1 else "outputs differ between runs")
        ref = oracle.Reference(*oracle.censor(self.x, self.c))
        pick = int(np.random.default_rng(self.seed).integers(3, len(self.k_grid) - 1))
        rows = self._rows()
        # Every k with a degenerate row is checked too, so that an estimate
        # turned NaN where the reference is finite is a failure.  k = 1 is
        # singular for every combination and is never decided.
        nan_ks = sorted({int(r["k"]) for r in rows if r["degenerate"] == "1"} - {1})
        ks = sorted({self.k_grid[1], self.k_grid[2], self.k_grid[pick], self.k_grid[-1],
                     *nan_ks[:MAX_NAN_K]})
        ledger.notes["oracle_k"] = ks
        ledger.run(f"at most {MAX_NAN_K} k values above 1 with degenerate rows",
                   lambda: None if len(nan_ks) <= MAX_NAN_K else f"{len(nan_ks)} such k values")
        ledger.run("output has one row per (k, estimator)", lambda: None if sorted(
            (int(r["k"]), r["family"], r["method"]) for r in rows) == sorted(
            (k, f, m) for k in self.k_grid for f, m in ALL9) else "row set differs")
        for k in ks:
            ledger.run(f"rows at k={k} against the reference", lambda k=k: _compare_records(
                ledger, ref,
                [(int(r["k"]), r["family"], r["method"], float(r["alpha"]),
                  float(r["gamma_hat"]), float(r["p_hat"])) for r in rows if int(r["k"]) == k],
                [(k, f, m, 2.0) for f, m in ALL9]))

    def trace(self, ledger, budget, metrics):
        untraced, untraced_rel, _ = timed_loop(ledger, "untraced estimate", self.op, budget / 2)
        tracer = Tracer()
        ledger.notes["trace_cost_us_per_call"] = {
            where: 1e6 * seconds for where, seconds in tracer.cost.items()}
        tracer.install()
        try:
            walls, rels, summaries = timed_loop(
                ledger, "traced estimate",
                lambda: tracer.record("cli.main", "cli", self._main), budget / 2)
        finally:
            tracer.uninstall()
        write_spans(tracer.last, OUT / f"{self.name}-seed{self.seed}-spans.csv.gz")
        metrics.update(_layer_metrics(summaries, self.units))
        metrics["trace.overhead_frac"] = _midmean(rels) / _midmean(untraced_rel) - 1.0
        metrics["cli.input_bytes"] = self.input_path.stat().st_size
        metrics["cli.output_bytes"] = self.output_path.stat().st_size
        ledger.notes.update(untraced_wall_s=untraced, traced_wall_s=walls,
                            untraced_wall_rel=untraced_rel, traced_wall_rel=rels)


def _compare_records(ledger, ref, got, expected_keys):
    """Compare (k, family, method, alpha, value, p_hat) rows with the reference."""
    if sorted(g[:4] for g in got) != sorted(expected_keys):
        return "estimates do not cover the expected (k, estimator) cells"
    notes = ledger.notes
    for k, family, method, alpha, value, p_hat in got:
        expected, tol = ref.expect(k, family, method, alpha)
        status = oracle.compare(value, p_hat, expected, tol, ref.p_hat(k))
        if status == "unchecked":
            notes["oracle_unchecked"] = notes.get("oracle_unchecked", 0) + 1
            continue
        if status != "ok":
            return f"k={k} {family}/{method}: {status}"
        notes["oracle_checked"] = notes.get("oracle_checked", 0) + 1
        if math.isfinite(expected) and expected != 0:
            notes["oracle_max_rel_tol"] = max(notes.get("oracle_max_rel_tol", 0.0),
                                              tol / abs(expected))
    return None


def _layer_metrics(summaries, units):
    """Per-layer metrics from the span summaries of several traced
    operations: medians over operations, divided by ``units`` (replicates
    on the simulate workloads, 1 on estimate-large-n)."""

    def med(fn):
        return _median([fn(s) for s in summaries]) / units if summaries else float("nan")

    def total(s, name):
        return sum(s["durations"].get(name, ()))

    def moment_bytes(s):
        # Computed, not measured: each moment call must read the k top
        # order statistics, and a weighted one also their indicators and
        # censoring weights, all 8-byte values.
        return sum(8 * k * (1 if name.endswith("unweighted") else 3)
                   for name, k in s["elements"].items() if name.startswith("moments."))

    out = {
        "moments.self_ms": 1e3 * med(lambda s: s["self_s"].get("moments", 0.0)),
        "moments.calls": med(lambda s: s["entries"].get("moments", 0)),
        "moments.elements": med(lambda s: sum(
            k for name, k in s["elements"].items() if name.startswith("moments."))),
        "moments.computed_bytes": med(moment_bytes),
        "estimators.self_ms": 1e3 * med(lambda s: s["self_s"].get("estimators", 0.0)),
        "estimators.combine_ms": 1e3 * med(lambda s: s["self_s"].get("estimators.combine", 0.0)),
        "estimators.calls": med(lambda s: s["entries"].get("estimators", 0)),
        "censoring.tail_proportion_ms": 1e3 * med(
            lambda s: total(s, "censoring.tail_uncensored_proportion")),
        "censoring.tail_proportion_calls": med(
            lambda s: len(s["durations"].get("censoring.tail_uncensored_proportion", ()))),
        "distributions.sample_ms": 1e3 * med(lambda s: s["self_s"].get("distributions", 0.0)),
        "censoring.make_censored_ms": 1e3 * med(lambda s: total(s, "censoring.make_censored")),
        "kaplan_meier.fit_ms": 1e3 * med(lambda s: total(s, "kaplan_meier.fit")),
        "montecarlo.aggregate_ms": 1e3 * med(lambda s: total(s, "montecarlo.aggregate")),
        "censoring.from_observations_ms": 1e3 * med(
            lambda s: total(s, "censoring.from_observations")),
        "cli.self_ms": 1e3 * med(lambda s: s["self_s"].get("cli", 0.0)),
    }
    reps = [d for s in summaries for d in s["durations"].get("montecarlo.run_replicate", ())]
    if reps:
        q = statistics.quantiles(reps, n=10)
        out["montecarlo.replicate_ms_p50"] = 1e3 * statistics.median(reps)
        out["montecarlo.replicate_ms_p90"] = 1e3 * q[8]
    return out


def _finite_or_none(value):
    return value if math.isfinite(value) else None


def _rss_mib():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class SetupProbes:
    """Cold set-ups of the package, each in a fresh interpreter, spread
    over the measuring window so that they see the same machine as the
    timed operations."""

    def __init__(self, ledger, workload, seconds):
        self.ledger = ledger
        self.argv = [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
                     *workload.setup_probe_args()]
        self.due = [(i + 0.5) * seconds / SETUP_PROBES for i in range(SETUP_PROBES)]
        self.times = []

    def __call__(self, elapsed):
        while self.due and elapsed >= self.due[0]:
            self.due.pop(0)
            self.ledger.run(f"set-up probe {len(self.times)}", self._probe)

    def finish(self):
        self(float("inf"))
        return self.times

    def _probe(self):
        proc = subprocess.run(self.argv, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            return f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
        self.times.append(float(proc.stdout.strip().splitlines()[-1]))
        return None


def _machine_facts():
    facts = {"nproc": NPROC, "cpu_model": None, "llc_bytes": None,
             "python": sys.version.split()[0]}
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    best = (-1, None)
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}.get(size[-1:], 1)
        value = int(size.rstrip("KMG")) * scale
        if level > best[0]:
            best = (level, value)
    facts["llc_bytes"] = best[1]
    for package in ("numpy", "scipy"):
        try:
            facts[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            facts[package] = None
    facts["git_commit"] = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        facts["git_commit"] = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "censored_evi").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    facts["src_sha256"] = digest.hexdigest()
    # Computed, not measured: z and delta, both product-limit curves
    # (8 bytes per value each), plus one k_max-long log-excess vector.
    k_max = list(range(1, LARGE_N, LARGE_K_STEP))[-1]
    facts["estimate_large_n_working_set_bytes_computed"] = 32 * LARGE_N + 8 * k_max
    return facts


def make_workload(name, seed):
    if name == "fig1-serial":
        return Simulate(name, FIG1_CONFIG, FIG1_LAWS, reps=120,
                        seed=101 if seed is None else seed, workers=1, byte_check=False)
    if name == "fig3-all9-pool":
        return Simulate(name, FIG3_ALL9_CONFIG, FIG3_LAWS, reps=80,
                        seed=103 if seed is None else seed, workers=NPROC, byte_check=True)
    return EstimateLargeN(2015 if seed is None else seed)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["fig1-serial", "fig3-all9-pool", "estimate-large-n"])
    parser.add_argument("--seed", type=int, default=None,
                        help="overrides the workload's default seed (101, 103, 2015)")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "censored_evi" / "__init__.py").is_file():
        print(f"error: no censored_evi package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import censored_evi
    if Path(censored_evi.__file__).resolve().parent != (SRC / "censored_evi").resolve():
        print(f"error: censored_evi imported from {censored_evi.__file__}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir):
    ledger = Ledger()
    workload = make_workload(args.workload, args.seed)
    workload.prepare(workdir)
    metrics, raw = {}, {}
    if args.trace:
        workload.trace(ledger, args.seconds, metrics)
        results = []
    else:
        ledger.run("warm-up", workload.op)
        probes = SetupProbes(ledger, workload, args.seconds)
        walls, rels, results = timed_loop(ledger, "timed run", workload.op, args.seconds, probes)
        # The probes are children too, but import no more than this process.
        peak_rss = _rss_mib()
        setup = probes.finish()
        ledger.notes.update(wall_s_samples=walls, wall_rel_samples=rels,
                            setup_s_samples=setup)
    # The checks start pool workers of their own, so they run after the
    # peak RSS of the timed operations has been read.
    if not results:
        ledger.run("untimed run for the checks", lambda: results.append(workload.op()))
    start = perf_counter()
    workload.checks(ledger, results)
    ledger.notes["checks_s"] = perf_counter() - start
    degenerate_frac = (workload.degenerate(results[0]) / workload.estimates
                       if results else float("nan"))
    failed = len(ledger.failures)
    failed_frac = failed / ledger.attempted
    if args.trace:
        metrics.update(degenerate_frac=degenerate_frac, failed_frac=failed_frac)
    else:
        metrics.update(wall_rel=_midmean(rels), setup_s=_median(setup), peak_rss_mb=peak_rss)
        # Raw wall times, as a user sees them; they carry the machine's
        # drift, which wall_rel cancels, so they are reported, not bounded.
        wall = _median(walls)
        raw = {"wall_s": {"value": wall, "unit": "s"},
               "estimates_per_s": {"value": workload.estimates / wall, "unit": "1/s"}}
    units = PER_LAYER if args.trace else END_TO_END
    report = {
        "workload": args.workload, "seed": workload.seed, "trace": args.trace,
        "seconds": args.seconds, "estimates_per_op": workload.estimates,
        "failed_frac": {"value": failed_frac, "unit": "ratio"},
        "degenerate_frac": {"value": degenerate_frac, "unit": "ratio"}, **raw,
        "failures": ledger.failures, "facts": _machine_facts(), **ledger.notes,
    }
    (OUT / f"{args.workload}-seed{workload.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {name: {"value": _finite_or_none(metrics.get(name, 0.0)), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
