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
import contextlib
import dataclasses
import functools
import math
import operator
import os
import sys
from itertools import count, repeat

import numpy as np

from .censoring import from_observations
from .config import _k_range, _names, _parse_list, parse_config
from .distributions import _decimal, _fmt
from .estimators import EstimatorSpec, Family, Method, _rank, _reads_alpha, build_specs, estimate
from .montecarlo import StudyResult, _listing, run_study
from .svg import Series, render_chart

__all__ = ["main"]

ESTIMATES_HEADER = "k,family,method,alpha,gamma_hat,p_hat,degenerate"
RESULTS_HEADER = (
    "k,family,method,alpha,median_bias,mse,mean,variance,"
    "degenerate_count,reps,n,gamma_x,gamma_c"
)


def _read_text(path: str) -> str:
    """The file at ``path`` as UTF-8 text, whatever the locale, with its
    line breaks as they are."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text "
                         f"(byte {exc.object[exc.start]:#04x} at offset {exc.start})") from None


def _write_atomic(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    # A new file beside the target, created 0o666 so that the kernel applies
    # the umask as open(path, "w") would; reading the umask means setting it,
    # which no thread can do safely.
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# The flags' types, named in argparse's "invalid integer value".
def integer(text: str) -> int:
    return _decimal(text, int)


def number(text: str) -> float:
    return _decimal(text)


def output(text: str) -> str:
    if not text:
        raise ValueError("empty output path")
    return text


def _row_error(z: str, delta: str) -> str | None:
    """The message of the first rule that a row's stripped fields break,
    z's before delta's, or None."""
    try:
        value = _decimal(z)
    except ValueError:
        return f"z must be a number, got {z!r}"
    if not 0 < value < math.inf:
        return f"z must be a finite positive number, got {z!r}"
    if delta not in ("0", "1"):
        return f"delta must be 0 or 1, got {delta!r}"
    return None


def _explain(path: str, numbers, rows) -> None:
    """Raise the error of the first row (a sequence of fields) that breaks a
    rule, if one does, at its line number in ``numbers`` (None for lines
    2, 3, ...)."""
    for line, fields in zip(numbers or count(2), rows):
        if len(fields) != 2:
            message = f"expected 2 fields, got {len(fields)}"
        else:
            message = _row_error(*map(str.strip, fields))
        if message is not None:
            raise ValueError(f"{path}: line {line}: {message}")


def _read_data_csv(path: str):
    """The ``z,delta`` data file as a float64 array of z and a bool array
    of delta, in file order.

    The grammar (README, "Command line"): the first line is ``z,delta``
    after ``str.strip``; the lines are those of ``str.splitlines``, and
    the blank ones (empty or whitespace) are skipped; every other line
    holds exactly 2 comma-separated fields, each stripped; z is a plain
    decimal (``_decimal``) with 0 < z < inf, and delta is ``0`` or ``1``.

    The file is accepted on whole columns, at the cost of a few passes in
    C and one ``float`` per z.  Only when a column breaks a rule are the
    rows walked from the top, by ``_explain``, to name the first failing
    line and the first rule it breaks.
    """
    text = _read_text(path)
    # In ASCII text without '_' or '\x1f', float() reads a field as _decimal
    # reads it stripped: of the spaces that str.strip() drops, float() keeps
    # only '\x1c'-'\x1f', and all of those but '\x1f' break lines.
    plain = text.isascii() and "_" not in text and "\x1f" not in text
    lines = text.splitlines()
    del text
    if not lines:
        raise ValueError(f"{path}: empty file (expected header 'z,delta')")
    if lines[0].strip() != "z,delta":
        raise ValueError(f"{path}: line 1: expected header 'z,delta', got {lines[0]!r}")
    del lines[0]
    # The rows are the lines that are not blank; a line with a comma is not.
    numbers = None
    commas = all(map(operator.contains, lines, repeat(",")))
    if not commas:
        numbers = [i for i, line in enumerate(lines, start=2) if line.strip()]
        lines = [lines[i - 2] for i in numbers]
        commas = all(map(operator.contains, lines, repeat(",")))
    joined = ",".join(lines)
    if not commas or joined.count(",") != 2 * len(lines) - 1:
        _explain(path, numbers, map(str.split, lines, repeat(",")))
    del lines
    fields = joined.split(",") if joined else []
    del joined
    z, delta = fields[0::2], fields[1::2]
    del fields

    if not plain:
        z = list(map(str.strip, z))
    values = None
    with contextlib.suppress(ValueError):
        values = np.fromiter(map(float if plain else _decimal, z), float, len(z))
    binary = set(delta) <= {"0", "1"}
    if not binary:
        delta = list(map(str.strip, delta))
        binary = set(delta) <= {"0", "1"}
    if not binary or values is None or not ((values > 0) & (values < math.inf)).all():
        # the column tests are exact, so some row breaks a rule and this raises
        _explain(path, numbers, zip(z, delta))
    return values, np.frombuffer("".join(delta).encode(), np.uint8) == ord("1")


def cmd_estimate(args: argparse.Namespace) -> int:
    z, delta = _read_data_csv(args.input)
    try:  # the reader has checked each row; here the row count is checked
        s = from_observations(z, delta)
    except ValueError as exc:
        raise ValueError(f"{args.input}: {exc}") from None
    ks = _k_range(args.k_min, s.n - 1 if args.k_max is None else args.k_max, args.k_step)
    families = _parse_list("--families", args.families, Family)
    methods = _parse_list("--methods", args.methods, Method)
    try:  # EstimatorSpec holds the rule for alpha
        specs = build_specs(families, methods, (args.alpha,))
    except ValueError as exc:
        raise ValueError(f"--alpha: {exc}") from None
    p_hat, values = estimate(s, ks, specs)
    _write_atomic(args.out, estimates_csv_text(ks, specs, p_hat, values))
    return 0


def _texts(column) -> np.ndarray:
    """A column's fields as an object array of its shape: text as it is,
    numbers by ``repr`` (``_fmt``'s shortest round trip for a float)."""
    column = np.asarray(column)
    texts = column.ravel().tolist()
    if column.dtype.kind != "U":
        texts = list(map(repr, texts))
    return np.array(texts, object).reshape(column.shape)


def _table_text(header: str, ks, specs, *columns) -> str:
    """A result table: one line per (k, spec), k-major, the
    ``k,family,method,alpha`` prefix and then one field per column.

    Each column broadcasts to ``(len(ks), len(specs))`` and is formatted
    before it is broadcast, so each of its numbers is formatted once: a
    scalar once per table, a ``(len(ks), 1)`` column once per k.
    """
    names = np.array([f"{s.family.value},{s.method.value},{_fmt(s.alpha)}" for s in specs], object)
    fields = [np.array([f"{k}," for k in ks], object)[:, None] + names, *map(_texts, columns)]
    lines = zip(*(np.broadcast_to(f, (len(ks), len(specs))).ravel().tolist() for f in fields))
    return "\n".join([header, *map(",".join, lines)]) + "\n"


def estimates_csv_text(ks, specs, p_hat, values) -> str:
    """The estimate CSV, from ``estimate``'s ``(len(ks),)`` p_hat and
    ``(len(ks), len(specs))`` values, the specs in the order given."""
    return _table_text(ESTIMATES_HEADER, ks, specs, values, p_hat[:, None],
                       np.where(np.isfinite(values), "0", "1"))


def results_csv_text(result: StudyResult) -> str:
    """The results CSV of a study, in ``montecarlo._listing`` order."""
    design = result.design
    # float(): a law built in code may hold an int index, written as a float
    return _table_text(RESULTS_HEADER, *_listing(result), design.reps, design.n,
                       float(design.gamma_x), float(design.gamma_c))


def cmd_simulate(args: argparse.Namespace) -> int:
    text = _read_text(args.config)
    try:
        cfg = parse_config(text)
    except ValueError as exc:
        raise ValueError(f"{args.config}: {exc}") from None
    # Overridden before the design, which checks each value, is built.
    overrides = {key: getattr(args, key) for key in ("seed", "reps", "n")
                 if getattr(args, key) is not None}
    result = run_study(dataclasses.replace(cfg, **overrides).to_design())
    out = args.out if args.out is not None else cfg.out
    _write_atomic(out, results_csv_text(result))
    return 0


def _read_results_csv(path: str, metric: str) -> dict[EstimatorSpec, list[tuple[float, float]]]:
    """Each estimator's ``(k, metric)`` points, in file order, from a results
    CSV whose every row is checked whole."""
    lines = _read_text(path).splitlines()
    if not lines or lines[0].strip() != RESULTS_HEADER:
        raise ValueError(f"{path}: expected results header {RESULTS_HEADER!r}")
    groups: dict[EstimatorSpec, list[tuple[float, float]]] = {}
    ncols = len(RESULTS_HEADER.split(","))
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != ncols:
            raise ValueError(f"{path}: line {lineno}: expected {ncols} fields, got {len(parts)}")
        try:
            k, alpha, median_bias, mse = (float(_decimal(parts[0], int)),
                                          *map(_decimal, parts[3:6]))
        except OverflowError:
            raise ValueError(f"{path}: line {lineno}: k is too large to chart") from None
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: malformed numeric field") from None
        try:
            family, method = Family(parts[1]), Method(parts[2])
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: unknown estimator "
                             f"{parts[1]!r}/{parts[2]!r}") from None
        try:
            spec = EstimatorSpec(family, method, alpha)
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
        groups.setdefault(spec, []).append((k, {"median_bias": median_bias, "mse": mse}[metric]))
    if not groups:
        raise ValueError(f"{path}: no data rows")
    return groups


def cmd_plot(args: argparse.Namespace) -> int:
    groups = _read_results_csv(args.input, args.metric)
    # A family that ignores alpha names it only to tell its own series apart.
    multi_alpha = len({spec.alpha for spec in groups if _reads_alpha(spec.family)}) > 1
    labels = [spec.label for spec in groups]
    series = []
    for spec in sorted(groups, key=_rank):
        # :g keeps 6 digits, so two alphas may share them; _fmt tells them apart
        short = f"{spec.alpha:g}"
        alpha = short if float(short) == spec.alpha else _fmt(spec.alpha)
        named = (multi_alpha and _reads_alpha(spec.family)) or labels.count(spec.label) > 1
        label = spec.label + (f" a={alpha}" if named else "")
        pts = tuple((x, y) for x, y in sorted(groups[spec]) if math.isfinite(y))
        series.append(Series(label=label, points=pts))
    try:
        text = render_chart(series, x_label="k", y_label=args.metric)
    except ValueError as exc:
        raise ValueError(f"{args.input}: {exc}") from None
    _write_atomic(args.out, text)
    return 0


# Built on the first main() call, not at import, and reused: parse_args
# leaves the parser as it was and returns a new Namespace.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="censored-evi",
        description="Tail index estimation for randomly right-censored data "
                    "(negative extreme value index).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="estimate the tail index from a z,delta CSV")
    p_est.add_argument("--input", required=True, help="input CSV with header z,delta")
    p_est.add_argument("--out", type=output, default=None, help="output CSV path (default: stdout)")
    p_est.add_argument("--k-min", type=integer, default=1, help="smallest k (default 1)")
    p_est.add_argument("--k-max", type=integer, default=None, help="largest k (default n-1)")
    p_est.add_argument("--k-step", type=integer, default=1, help="k stride (default 1)")
    p_est.add_argument("--alpha", type=number, default=2.0, help="moment order (default 2)")
    p_est.add_argument("--families", default=",".join(_names(Family)),
                       help="comma list of mom,type1,type2")
    p_est.add_argument("--methods", default=",".join(_names(Method)),
                       help="comma list of km,l,efg")
    p_est.set_defaults(func=cmd_estimate)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo study from a config file")
    p_sim.add_argument("--config", required=True, help="key-value config file")
    p_sim.add_argument("--out", type=output, default=None,
                       help="output CSV (default: config 'out' or stdout)")
    p_sim.add_argument("--seed", type=integer, default=None, help="override config seed")
    p_sim.add_argument("--reps", type=integer, default=None, help="override config reps")
    p_sim.add_argument("--n", type=integer, default=None, help="override config n")
    p_sim.set_defaults(func=cmd_simulate)

    p_plot = sub.add_parser("plot", help="render a results CSV as an SVG chart")
    p_plot.add_argument("--input", required=True, help="results CSV from simulate")
    p_plot.add_argument("--metric", required=True, choices=["median_bias", "mse"],
                        help="which column to plot against k")
    p_plot.add_argument("--out", type=output, default=None,
                        help="output SVG path (default: stdout)")
    p_plot.set_defaults(func=cmd_plot)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command (``argv``, default ``sys.argv[1:]``) and return its exit
    status; a usage error raises ``SystemExit(2)``.  Calls may repeat in one
    process."""
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
