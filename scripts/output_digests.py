#!/usr/bin/env python3
"""SHA-256 digests of the outputs of the tree this script lives in.

Usage: python3 scripts/output_digests.py OUTDIR

Writes OUTDIR/digests.sha256, one line ``<digest>  <name>`` per output:

* the figure CSVs and SVGs that ``scripts/reproduce_figures.sh`` writes at
  CENSORED_EVI_THREADS 1 and 2;
* ``estimate`` on a GPD n = 20 000 ``z,delta`` file drawn from a fixed
  seed through the library's own quantiles, at ``--k-step 50``,
  ``--k-step 1``, ``--k-step 50 --alpha 2.5`` and ``--k-step 7 --alpha 17``;
* the two-alpha study of CI's criterion-7 step, and its ``plot``;
* figure 1 at the seed 2**130 + 3, five 32-bit words, and 2 000
  replicates, at CENSORED_EVI_THREADS 1 and 2, and a one-cell study of
  5 000 replicates at n = 60, which runs in ten batches;
* every array that ``tail_moments`` and ``estimate`` return over a fixed
  catalogue of samples, k-grids, orders and alphas.  An array's digest
  covers its dtype, its shape and its bytes.

The files behind the first four groups are kept in OUTDIR.  The package
is imported from this tree's ``src``, whatever is installed, so a copy of
another commit with this script in its ``scripts`` gives that commit's
digests.  A change keeps every output bit for bit when

    diff parent/digests.sha256 change/digests.sha256

is empty; a change that moves bits on purpose lists the lines that differ.
"""

import hashlib
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from censored_evi import (GPD, Family, Method, ReverseBurr, build_specs, cli,  # noqa: E402
                          estimate, make_censored, tail_moments)

# The pairs (X, C) the catalogue draws from: figure 1's, and the GPD pair
# of the estimate file.
LAWS = {
    "revburr": (ReverseBurr(1, 1, 1, 10), ReverseBurr(10, 2 / 3, 1, 10)),
    "gpd": (GPD(-0.25, 1.0), GPD(-0.2, 0.8)),
}
# (n, rows): one row is a one-dimensional sample, more a batch.  They cover
# tails without a full block (k <= 64), with blocks, and with superblocks
# (k > 4096).
SIZES = [(2, 1), (3, 3), (10, 32), (64, 1), (65, 3), (130, 1), (500, 32), (500, 1), (4162, 1),
         (5000, 3), (20_000, 1)]
ORDERS = [(1.0, 2.0, 3.0, 4.0), (2.0, 2.5, 3.0, 4.0), (17.0, 3.0), (1.5, 70.0, 3.5), (66.0,),
          (1.0, 2.0, 3.0, 4.0, 5.0, 16.0)]
ALPHAS = (1.0, 2.0, 2.5, 14.0)
# From this n on, orders that read whole tails (non-integer or above 16)
# take the stride-50 grid only: a dense grid costs O(n**2) terms there.
DENSE_WHOLE_TAIL_LIMIT = 5000

ESTIMATE_N = 20_000
ESTIMATE_RUNS = {
    "k-step-50": ["--k-step", "50"],
    "k-step-1": ["--k-step", "1"],
    "k-step-50-alpha-2.5": ["--k-step", "50", "--alpha", "2.5"],
    "k-step-7-alpha-17": ["--k-step", "7", "--alpha", "17"],
}

TWO_ALPHA_CONFIG = """\
dist_x = revburr(1,1,1,10)
dist_c = revburr(10,0.6666666666666666,1,10)
n = 500
reps = 2000
seed = 101
k_min = 10
k_max = 400
k_step = 10
alpha = 2.5,1
families = type2,mom
methods = efg,km
"""

# Figure 1 at a seed of five 32-bit words: with the replicate index,
# SeedSequence mixes in more entropy words than its pool of four holds.
LONG_SEED_RUN = ["--config", ROOT / "scripts" / "figure1.cfg", "--seed", 2**130 + 3,
                 "--reps", 2000]

TEN_BATCH_CONFIG = """\
dist_x = revburr(1,1,1,10)
dist_c = revburr(10,0.6666666666666666,1,10)
n = 60
reps = 5000
seed = 101
k_min = 10
k_max = 10
k_step = 1
alpha = 2
families = mom
methods = km
"""


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def array_digest(a) -> str:
    a = np.ascontiguousarray(a)
    digest = hashlib.sha256(f"{a.dtype.str} {a.shape}\n".encode())
    digest.update(a.tobytes())
    return digest.hexdigest()


def run_cli(argv):
    status = cli.main([str(arg) for arg in argv])
    if status:
        raise SystemExit(f"censored-evi {' '.join(map(str, argv))} exited {status}")


def figures(outdir: Path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    for threads in (1, 2):
        target = outdir / f"figures-threads-{threads}"
        env["CENSORED_EVI_THREADS"] = str(threads)
        subprocess.run([str(ROOT / "scripts" / "reproduce_figures.sh"), str(target)],
                       env=env, check=True, stdout=subprocess.DEVNULL)
        for path in sorted(target.iterdir()):
            yield f"{target.name}/{path.name}", file_digest(path)


def estimates(outdir: Path):
    target = outdir / "estimate"
    target.mkdir(exist_ok=True)
    fx, gc = LAWS["gpd"]
    rng = np.random.default_rng(2015)
    x, c = fx.quantile(rng.random(ESTIMATE_N)), gc.quantile(rng.random(ESTIMATE_N))
    data = target / "data.csv"
    data.write_text("z,delta\n" + "".join(
        f"{z!r},{d}\n" for z, d in zip(np.minimum(x, c).tolist(), (x <= c).astype(int).tolist())))
    yield f"{target.name}/{data.name}", file_digest(data)
    for name, flags in ESTIMATE_RUNS.items():
        out = target / f"{name}.csv"
        run_cli(["estimate", "--input", data, "--out", out, *flags])
        yield f"{target.name}/{out.name}", file_digest(out)


def two_alpha_study(outdir: Path):
    target = outdir / "two-alpha"
    target.mkdir(exist_ok=True)
    config, results, chart = target / "study.cfg", target / "results.csv", target / "mse.svg"
    config.write_text(TWO_ALPHA_CONFIG)
    run_cli(["simulate", "--config", config, "--out", results])
    run_cli(["plot", "--input", results, "--metric", "mse", "--out", chart])
    for path in (results, chart):
        yield f"{target.name}/{path.name}", file_digest(path)


def seeding_studies(outdir: Path):
    target = outdir / "seeding"
    target.mkdir(exist_ok=True)
    for threads in (1, 2):
        out = target / f"figure1-long-seed-threads-{threads}.csv"
        with mock.patch.dict(os.environ, CENSORED_EVI_THREADS=str(threads)):
            run_cli(["simulate", *LONG_SEED_RUN, "--out", out])
        yield f"{target.name}/{out.name}", file_digest(out)
    config, results = target / "ten-batches.cfg", target / "ten-batches.csv"
    config.write_text(TEN_BATCH_CONFIG)
    run_cli(["simulate", "--config", config, "--out", results])
    yield f"{target.name}/{results.name}", file_digest(results)


def reads_whole_tails(orders) -> bool:
    return any(p % 1 or p > 16 for p in orders)


def sample_arrays(name, s, n):
    """(name, digest) of every array the two passes return on ``s``."""
    grids = {"dense": np.arange(1, n), "stride-50": np.arange(1, n, 50)}
    for grid, ks in grids.items():
        dense_limit = grid == "dense" and n >= DENSE_WHOLE_TAIL_LIMIT
        for orders in ORDERS:
            if dense_limit and reads_whole_tails(orders):
                continue
            at = f"{name} {grid} orders={','.join(map(repr, orders))}"
            for kind, moments in zip(("unweighted", "km", "l"), tail_moments(s, ks, orders)):
                for p, m in moments.items():
                    yield f"tail_moments {at} {kind} p={p!r}", array_digest(m)
        for alpha in ALPHAS:
            if dense_limit and reads_whole_tails((alpha, alpha + 2)):
                continue
            specs = build_specs(Family, Method, (alpha,))
            p_hat, values = estimate(s, ks, specs)
            at = f"{name} {grid} alpha={alpha!r}"
            yield f"estimate {at} p_hat", array_digest(p_hat)
            yield f"estimate {at} values", array_digest(values)


def catalogue():
    for i, (law, (fx, gc)) in enumerate(LAWS.items()):
        for n, rows in SIZES:
            shape = (n,) if rows == 1 else (rows, n)
            rng = np.random.default_rng([2015, i, n, rows])
            s = make_censored(fx.quantile(rng.random(shape)), gc.quantile(rng.random(shape)),
                              require_positive=False)
            yield from sample_arrays(f"{law} n={n} rows={rows}", s, n)
    # A batch whose rows hold non-positive values (thresholds among them)
    # and infinite observations.
    fx, gc = LAWS["revburr"]
    rng = np.random.default_rng(1592)
    x, c = fx.quantile(rng.random((3, 300))), gc.quantile(rng.random((3, 300)))
    x[0, :40] = -np.abs(x[0, :40])
    x[1, [5, 17, 250]] = c[1, [5, 17, 250]] = np.inf
    c[2, :290] = 0.0
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "tied observation values")
        s = make_censored(x, c, require_positive=False)
    yield from sample_arrays("special n=300 rows=3", s, 300)


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    outdir = Path(sys.argv[1])
    outdir.mkdir(parents=True, exist_ok=True)
    lines = []
    for group in (figures(outdir), estimates(outdir), two_alpha_study(outdir),
                  seeding_studies(outdir), catalogue()):
        lines.extend(f"{digest}  {name}\n" for name, digest in group)
    (outdir / "digests.sha256").write_text("".join(lines))
    print(f"wrote {len(lines)} digests to {outdir / 'digests.sha256'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
