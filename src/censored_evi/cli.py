"""Command-line interface: estimate on data, simulate studies, plot curves.

Subcommands:

* ``estimate`` -- read a ``z,delta`` CSV, estimate over a k range in one
  pass, and emit one row per (k, family, method).
* ``simulate`` -- run the Monte Carlo engine from a config file and emit
  per-cell aggregate rows.
* ``plot`` -- render a results CSV as an SVG chart of one metric vs k.

All numbers are serialized in shortest round-trip decimal form, files
use LF endings, and output files are written atomically (temp file then
rename) so failures never leave partial artifacts.  Exit status is 0 on
success, 1 on data/config errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile

from .censoring import from_observations
from .config import _names, _parse_list, parse_config
from .distributions import _fmt
from .estimators import Family, Method, estimate
from .montecarlo import StudyResult, build_specs, run_study
from .svg import Series, render_chart

__all__ = ["main"]

ESTIMATES_HEADER = "k,family,method,alpha,gamma_hat,p_hat,degenerate"
RESULTS_HEADER = (
    "k,family,method,alpha,median_bias,mse,mean,variance,"
    "degenerate_count,reps,n,gamma_x,gamma_c"
)


def _write_atomic(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=directory)
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        # mkstemp creates the file 0600; give it the mode open(path, "w")
        # would, which the umask decides.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _decimal(text: str, kind=float):
    """``kind(text)`` for ASCII text without '_': ``float`` and ``int``
    also read digit separators (``1_5``) and non-ASCII digits (``２``),
    which are not plain decimals."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not a plain decimal: {text!r}")
    return kind(text)


def _read_data_csv(path: str):
    with open(path, "r", newline="") as handle:
        lines = handle.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file (expected header 'z,delta')")
    if lines[0].strip() != "z,delta":
        raise ValueError(f"{path}: line 1: expected header 'z,delta', got {lines[0]!r}")
    z, delta = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            raise ValueError(f"{path}: line {lineno}: expected 2 fields, got {len(parts)}")
        try:
            zv = _decimal(parts[0])
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: z must be a number, got {parts[0]!r}") from None
        if not 0 < zv < math.inf:
            raise ValueError(
                f"{path}: line {lineno}: z must be a finite positive number, got {parts[0]!r}")
        if parts[1] not in ("0", "1"):
            raise ValueError(f"{path}: line {lineno}: delta must be 0 or 1, got {parts[1]!r}")
        z.append(zv)
        delta.append(int(parts[1]))
    if len(z) < 2:
        raise ValueError(f"{path}: need at least 2 data rows")
    return z, delta


def cmd_estimate(args: argparse.Namespace) -> int:
    z, delta = _read_data_csv(args.input)
    s = from_observations(z, delta)
    k_min = args.k_min if args.k_min is not None else 1
    k_max = args.k_max if args.k_max is not None else s.n - 1
    if not (1 <= k_min <= k_max < s.n):
        raise ValueError(f"k range [{k_min}, {k_max}] invalid for n={s.n}")
    if args.k_step < 1:
        raise ValueError(f"--k-step must be >= 1, got {args.k_step}")
    families = _parse_list("--families", args.families, Family)
    methods = _parse_list("--methods", args.methods, Method)
    try:  # EstimatorSpec holds the rule for alpha
        specs = build_specs(families, methods, (args.alpha,))
    except ValueError as exc:
        raise ValueError(f"--alpha: {exc}") from None
    ks = range(k_min, k_max + 1, args.k_step)
    p_hat, values = estimate(s, ks, specs)
    _write_atomic(args.out, estimates_csv_text(ks, specs, p_hat, values))
    return 0


def estimates_csv_text(ks, specs, p_hat, values) -> str:
    """The estimate CSV: one line per (k, spec), k-major, from ``estimate``'s
    ``(len(ks),)`` p_hat and ``(len(ks), len(specs))`` values.

    The lines are assembled column by column, one ``repr`` per number,
    which is what ``_fmt`` writes for each value row by row.
    """
    names = [f"{spec.family.value},{spec.method.value},{_fmt(spec.alpha)}," for spec in specs]
    prefixes = [f"{k},{name}" for k in ks for name in names]
    p_text = [text for text in (f",{p!r}," for p in p_hat.tolist()) for _ in names]
    flat = values.ravel().tolist()
    flags = ["0" if math.isfinite(value) else "1" for value in flat]
    lines = map("".join, zip(prefixes, map(repr, flat), p_text, flags))
    return "\n".join([ESTIMATES_HEADER, *lines]) + "\n"


def results_csv_text(result: StudyResult) -> str:
    design = result.design
    lines = [RESULTS_HEADER]
    for cell in result.cells:
        lines.append(
            f"{cell.k},{cell.spec.family.value},{cell.spec.method.value},"
            f"{_fmt(cell.spec.alpha)},{_fmt(cell.median_bias)},{_fmt(cell.mse)},"
            f"{_fmt(cell.mean)},{_fmt(cell.variance)},{cell.degenerate_count},"
            f"{design.reps},{design.n},{_fmt(design.gamma_x)},{_fmt(design.gamma_c)}"
        )
    return "\n".join(lines) + "\n"


def cmd_simulate(args: argparse.Namespace) -> int:
    with open(args.config, "r") as handle:
        cfg = parse_config(handle.read())
    cfg = cfg.with_overrides(seed=args.seed, reps=args.reps, n=args.n)
    result = run_study(cfg.to_design())
    out = args.out if args.out is not None else cfg.out
    _write_atomic(out, results_csv_text(result))
    return 0


def _read_results_csv(path: str):
    with open(path, "r", newline="") as handle:
        lines = handle.read().splitlines()
    if not lines or lines[0].strip() != RESULTS_HEADER:
        raise ValueError(f"{path}: expected results header {RESULTS_HEADER!r}")
    rows = []
    ncols = len(RESULTS_HEADER.split(","))
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != ncols:
            raise ValueError(f"{path}: line {lineno}: expected {ncols} fields, got {len(parts)}")
        try:
            rows.append({
                "k": _decimal(parts[0], int),
                "family": parts[1],
                "method": parts[2],
                "alpha": _decimal(parts[3]),
                "median_bias": _decimal(parts[4]),
                "mse": _decimal(parts[5]),
            })
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: malformed numeric field") from None
        if parts[1] not in _names(Family) or parts[2] not in _names(Method):
            raise ValueError(
                f"{path}: line {lineno}: unknown estimator {parts[1]!r}/{parts[2]!r}"
            )
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return rows


def cmd_plot(args: argparse.Namespace) -> int:
    rows = _read_results_csv(args.input)
    metric = args.metric
    family_names, method_names = _names(Family), _names(Method)
    groups: dict[tuple[int, int, float], list[tuple[float, float]]] = {}
    for row in rows:
        key = (
            family_names.index(row["family"]),
            method_names.index(row["method"]),
            row["alpha"],
        )
        groups.setdefault(key, []).append((float(row["k"]), row[metric]))
    multi_alpha = len({key[2] for key in groups}) > 1
    series = []
    for key in sorted(groups):
        fam, meth, alpha = family_names[key[0]], method_names[key[1]], key[2]
        label = f"{fam}/{meth}" + (f" a={alpha:g}" if multi_alpha else "")
        pts = tuple(
            (x, y) for x, y in sorted(groups[key]) if math.isfinite(y)
        )
        series.append(Series(label=label, points=pts))
    text = render_chart(series, x_label="k", y_label=metric)
    _write_atomic(args.out, text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="censored-evi",
        description="Tail index estimation for randomly right-censored data "
                    "(negative extreme value index).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="estimate the tail index from a z,delta CSV")
    p_est.add_argument("--input", required=True, help="input CSV with header z,delta")
    p_est.add_argument("--out", default=None, help="output CSV path (default: stdout)")
    p_est.add_argument("--k-min", type=int, default=None, help="smallest k (default 1)")
    p_est.add_argument("--k-max", type=int, default=None, help="largest k (default n-1)")
    p_est.add_argument("--k-step", type=int, default=1, help="k stride (default 1)")
    p_est.add_argument("--alpha", type=float, default=2.0, help="moment order (default 2)")
    p_est.add_argument("--families", default=",".join(_names(Family)),
                       help="comma list of mom,type1,type2")
    p_est.add_argument("--methods", default=",".join(_names(Method)),
                       help="comma list of km,l,efg")
    p_est.set_defaults(func=cmd_estimate)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo study from a config file")
    p_sim.add_argument("--config", required=True, help="key-value config file")
    p_sim.add_argument("--out", default=None, help="output CSV (default: config 'out' or stdout)")
    p_sim.add_argument("--seed", type=int, default=None, help="override config seed")
    p_sim.add_argument("--reps", type=int, default=None, help="override config reps")
    p_sim.add_argument("--n", type=int, default=None, help="override config n")
    p_sim.set_defaults(func=cmd_simulate)

    p_plot = sub.add_parser("plot", help="render a results CSV as an SVG chart")
    p_plot.add_argument("--input", required=True, help="results CSV from simulate")
    p_plot.add_argument("--metric", required=True, choices=["median_bias", "mse"],
                        help="which column to plot against k")
    p_plot.add_argument("--out", default=None, help="output SVG path (default: stdout)")
    p_plot.set_defaults(func=cmd_plot)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
