#!/usr/bin/env bash
# Run the three benchmark studies and render median-bias and MSE curves.
# Usage: scripts/reproduce_figures.sh [output-dir]
# Honors CENSORED_EVI_THREADS for the worker count (default: all cores).
#
# The nine steps run in one python3 process, which imports numpy and the
# package once; the first step that fails ends the script with its exit
# status. The package is found as python3 finds it: installed, or on
# PYTHONPATH (PYTHONPATH=src from a checkout). The code is passed with -c,
# so the main module has no file, and spawn or forkserver pool workers do
# not run it again.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
outdir="${1:-$here/../out}"
mkdir -p "$outdir"

python3 -c '
import sys
from censored_evi.cli import main

here, outdir = sys.argv[1:]
for fig in ("figure1", "figure2", "figure3"):
    print(f"== {fig} ==", flush=True)
    csv = f"{outdir}/{fig}.csv"
    steps = [["simulate", "--config", f"{here}/{fig}.cfg", "--out", csv]]
    steps += [["plot", "--input", csv, "--metric", metric, "--out", f"{outdir}/{fig}_{name}.svg"]
              for metric, name in (("median_bias", "bias"), ("mse", "mse"))]
    for argv in steps:
        status = main(argv)
        if status:
            sys.exit(status)
print(f"wrote CSV tables and SVG charts to {outdir}")
' "$here" "$outdir"
