import csv
import dataclasses
import importlib
import importlib.metadata
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import censored_evi
from censored_evi import (GPD, EstimatorSpec, Family, Method, StudyResult, aggregate, estimate,
                          from_observations, run_study)
from censored_evi.cli import (ESTIMATES_HEADER, RESULTS_HEADER, _fmt, _read_data_csv,
                              estimates_csv_text, main, results_csv_text)
from censored_evi.config import parse_config
from reference import read_data_csv_reference, results_csv_reference

PACKAGE_ROOT = str(Path(censored_evi.__file__).resolve().parent.parent)
DATA_DIR = Path(__file__).parent / "data"
PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"
SVG = "http://www.w3.org/2000/svg"

DEMO = "z,delta\n1.0,1\n2.0,0\n3.0,1\n"
# int() and float() read these as 25, 1 and 101; the program does not
NOT_DECIMAL = ["2_5", "\uff11", "\u0661\u0660\u0661"]
UNCENSORED = "z,delta\n" + "".join(f"{v}.0,1\n" for v in range(1, 9))

CONFIG_SMALL = """\
dist_x = revburr(1,1,1,10)
dist_c = revburr(10,0.6666666666666666,1,10)
n = 60
reps = 4
seed = 3
k_min = 10
k_max = 20
k_step = 10
alpha = 2
families = mom
methods = km,l
"""


def run_python(*args, cwd=None, timeout=None, env=None):
    """Run a child interpreter that imports the same censored_evi package
    as this process, installed or not; ``env`` sets more variables."""
    env = {**os.environ, **(env or {})}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, cwd=cwd,
                          env=env, timeout=timeout)


def run_cli(*argv, cwd=None, env=None):
    """Run the CLI module in a child interpreter (``run_python``)."""
    return run_python("-m", "censored_evi.cli", *argv, cwd=cwd, env=env)


def declared_scripts():
    """The [project.scripts] table of pyproject.toml."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as handle:
        return tomllib.load(handle)["project"]["scripts"]


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


class TestEstimateCommand:
    def test_writes_expected_rows(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text(DEMO)
        out = tmp_path / "est.csv"
        assert main(["estimate", "--input", str(data), "--out", str(out)]) == 0
        text = out.read_text()
        assert text.splitlines()[0] == ESTIMATES_HEADER
        rows = read_rows(out)
        # k in {1, 2} x 3 families x 3 methods
        assert len(rows) == 18
        first = [r for r in rows if r["k"] == "1" and r["family"] == "mom" and r["method"] == "km"]
        (row,) = first
        assert row["gamma_hat"] == "nan"
        assert row["p_hat"] == "1.0"
        assert row["degenerate"] == "1"
        assert row["alpha"] == "2.0"

    def test_k_range_flags(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text(UNCENSORED)
        out = tmp_path / "est.csv"
        assert main([
            "estimate", "--input", str(data), "--out", str(out),
            "--k-min", "2", "--k-max", "6", "--k-step", "2",
            "--families", "type2", "--methods", "efg",
        ]) == 0
        rows = read_rows(out)
        assert [r["k"] for r in rows] == ["2", "4", "6"]
        assert {r["family"] for r in rows} == {"type2"}
        assert {r["method"] for r in rows} == {"efg"}

    def test_values_round_trip_to_library_bitwise(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text(UNCENSORED)
        out = tmp_path / "est.csv"
        assert main([
            "estimate", "--input", str(data), "--out", str(out),
            "--k-min", "3", "--k-max", "5", "--alpha", "2.0",
        ]) == 0
        s = from_observations([float(v) for v in range(1, 9)], [1] * 8)
        for row in read_rows(out):
            spec = EstimatorSpec(Family(row["family"]), Method(row["method"]), 2.0)
            (p_hat,), ((value,),) = estimate(s, [int(row["k"])], [spec])
            got = float(row["gamma_hat"])
            if math.isnan(value):
                assert math.isnan(got)
            else:
                assert got == value
            assert float(row["p_hat"]) == p_hat
            assert row["degenerate"] == str(int(not math.isfinite(value)))

    def test_column_writer_matches_row_by_row_formatting(self):
        # the writer builds its lines column by column; its bytes are those
        # of formatting each (k, spec) row with _fmt, non-finite rows too
        specs = [EstimatorSpec(f, m, 2.5) for f in Family for m in Method]
        ks = [1, 7, 50, 51]
        special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 0.1, -2.0]
        rng = np.random.default_rng(3)
        values = np.array([special, special[::-1],
                           rng.normal(size=9).tolist(), rng.uniform(-1e-3, 1e3, 9).tolist()])
        p_hat = np.array([1.0, 0.0, 1.0 / 3.0, 0.98])
        lines = [ESTIMATES_HEADER]
        for k, p, row in zip(ks, p_hat.tolist(), values.tolist()):
            for spec, value in zip(specs, row):
                lines.append(f"{k},{spec.family.value},{spec.method.value},{_fmt(spec.alpha)},"
                             f"{_fmt(value)},{_fmt(p)},{int(not math.isfinite(value))}")
        want = "\n".join(lines) + "\n"
        assert estimates_csv_text(ks, specs, p_hat, values).encode() == want.encode()

    def test_stdout_by_default(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text(DEMO)
        proc = run_cli("estimate", "--input", str(data))
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == ESTIMATES_HEADER

    def test_bad_delta_names_the_line(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("z,delta\n1.0,1\n2.0,2\n")
        proc = run_cli("estimate", "--input", str(data))
        assert proc.returncode == 1
        assert "line 3: delta must be 0 or 1" in proc.stderr

    @pytest.mark.parametrize("raw", ["inf", "-inf", "nan", "0", "-1.5"])
    def test_non_finite_or_non_positive_z_names_the_line(self, tmp_path, raw):
        # before, an inf row exited 0 with every row degenerate and leaked
        # a RuntimeWarning from the moment pass
        data = tmp_path / "data.csv"
        data.write_text(f"z,delta\n1.0,1\n2.0,0\n{raw},1\n")
        proc = run_cli("estimate", "--input", str(data))
        assert proc.returncode == 1
        assert f"line 4: z must be a finite positive number, got '{raw}'" in proc.stderr
        assert "Warning" not in proc.stderr

    @pytest.mark.parametrize("raw", ["1_5", "\uff11", "\u0663", "1e1_0"])
    def test_non_decimal_z_names_the_line(self, tmp_path, capsys, raw):
        # float() reads digit separators and non-ASCII digits
        data = tmp_path / "data.csv"
        data.write_text(f"z,delta\n1.0,1\n2.0,0\n{raw},1\n", encoding="utf-8")
        assert main(["estimate", "--input", str(data)]) == 1
        assert f"line 4: z must be a number, got {raw!r}" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        proc = run_cli("estimate", "--input", str(tmp_path / "nope.csv"))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")

    @pytest.mark.parametrize(
        "extra",
        [
            ["--k-min", "5", "--k-max", "2"],
            ["--k-step", "0"],
            ["--alpha", "0.5"],
            ["--families", "hill"],
            ["--methods", "bootstrap"],
        ],
    )
    def test_bad_flags_exit_one(self, tmp_path, extra):
        data = tmp_path / "data.csv"
        data.write_text(DEMO)
        assert main(["estimate", "--input", str(data), *extra]) == 1

    @pytest.mark.parametrize("flag,raw,entry", [
        ("--families", "mom,type1,mom", "mom"),
        ("--methods", "km,l,km", "km"),
    ])
    def test_repeated_entry_is_named(self, tmp_path, capsys, flag, raw, entry):
        # a repeated estimator would print each of its rows twice
        data = tmp_path / "data.csv"
        data.write_text(DEMO)
        assert main(["estimate", "--input", str(data), flag, raw]) == 1
        assert f"error: {flag} repeats entry {entry!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("k", [51, 400, 4097, 8193])
    def test_single_k_row_matches_full_sweep(self, tmp_path, k):
        # n = 600: the full sweep's tails span several chunks, while k alone
        # is a chunk of its own; the rows must not depend on that.  n = 8200
        # for k above 4096, whose tails hold superblocks (one at 4097, two
        # at 8193), shifted with and without the other k's of the sweep
        n = 600 if k < 600 else 8200
        rng = np.random.default_rng(n)
        x, c = GPD(-0.5, 1).sample(rng, n), GPD(-0.25, 0.5).sample(rng, n)
        data = tmp_path / "data.csv"
        data.write_text("z,delta\n" + "".join(
            f"{a!r},{int(b)}\n" for a, b in zip(np.minimum(x, c).tolist(), x <= c)))
        full, single = tmp_path / "full.csv", tmp_path / "single.csv"
        assert main(["estimate", "--input", str(data), "--out", str(full)]) == 0
        assert main(["estimate", "--input", str(data), "--out", str(single),
                     "--k-min", str(k), "--k-max", str(k)]) == 0
        want = [line for line in full.read_text().splitlines() if line.startswith(f"{k},")]
        assert len(want) == 9
        assert single.read_text().splitlines()[1:] == want

    @pytest.mark.parametrize("extra,code,message", [
        # the grid is [1]: points, not the bound, are checked against n = 3
        (["--k-max", "3", "--k-step", "5"], 0, ""),
        (["--k-max", "3"], 1, "error: every k must satisfy 1 <= k < n, got k=3, n=3\n"),
        (["--k-min", "0"], 1, "error: every k must satisfy 1 <= k < n, got k=0, n=3\n"),
        # checked at the grid's ends before it becomes an array
        (["--k-max", str(10**15)], 1,
         f"error: every k must satisfy 1 <= k < n, got k={10**15}, n=3\n"),
    ])
    def test_grid_points_are_checked_against_n(self, tmp_path, capsys, extra, code, message):
        data = tmp_path / "data.csv"
        data.write_text(DEMO)
        assert main(["estimate", "--input", str(data), "--out", str(tmp_path / "o.csv"),
                     *extra]) == code
        assert capsys.readouterr().err == message

    def test_too_few_rows(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("z,delta\n1.0,1\n")
        proc = run_cli("estimate", "--input", str(data))
        assert proc.returncode == 1
        assert "at least 2" in proc.stderr

    def test_wrong_header(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("time,event\n1.0,1\n2.0,0\n")
        proc = run_cli("estimate", "--input", str(data))
        assert proc.returncode == 1
        assert "expected header 'z,delta'" in proc.stderr


def _read_outcome(reader, path):
    """(z bits, delta) of a reader's columns, or its error message."""
    try:
        z, delta = reader(path)
    except ValueError as exc:
        return str(exc)
    return [float(v).hex() for v in z], [bool(d) for d in delta]


# Pieces of a z,delta file: number texts (signs, exponents, inf/nan, '_',
# fullwidth and Arabic-Indic digits, empty), spaces around a field, and
# every kind of line break that str.splitlines() counts.  Most lines keep
# every rule, so that about a quarter of the files are read to the end; the
# others break one of the rules.
GOOD_Z = st.one_of(
    st.floats(min_value=0, exclude_min=True, allow_infinity=False).map(repr),
    st.integers(1, 10**20).map(str),
    st.sampled_from(["+1.5e0", ".5", "5.", "1E-300"]),
)
BAD_Z = {
    "range": st.one_of(st.floats(max_value=0).map(repr), st.sampled_from(
        ["-0.0", "0", "0.000", "1e-400", "1e400", "inf", "-inf", "nan", "Infinity"])),
    "number": st.sampled_from(["1_5", "1e1_0", "\uff11", "\u0663", "\u0661\u0660", "", "1 5",
                               "abc", "0x10", "1.5e"]),
}
GOOD_D = st.sampled_from(["0", "1"])
BAD_D = st.sampled_from(["01", "2", "", "00", "1.0", "\uff11", "true"])
SPACES = st.sampled_from(["", "", "", "", " ", "\t", "  ", "\xa0", "\u3000", "\x1f", " \t"])
BREAKS = st.sampled_from(["\n", "\n", "\n", "\n", "\r\n", "\r", "\x85", "\u2028", "\u2029",
                          "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])


@st.composite
def data_lines(draw):
    pad = lambda text: draw(SPACES) + text + draw(SPACES)
    fault = draw(st.sampled_from([None] * 12 + ["blank", "range", "number", "delta", "one",
                                                 "three"]))
    if fault == "blank":
        return draw(SPACES)
    z = pad(draw(BAD_Z[fault] if fault in BAD_Z else GOOD_Z))
    d = pad(draw(BAD_D if fault == "delta" else GOOD_D))
    return {"one": z, "three": f"{z},{d},{d}"}.get(fault, f"{z},{d}")


@st.composite
def data_files(draw):
    header = draw(st.sampled_from(["z,delta"] * 20 + [" z,delta\t", "\ufeffz,delta",
                                                       "z, delta", "time,event", ""]))
    lines = [header, *draw(st.lists(data_lines(), max_size=12))]
    text = "".join(line + draw(BREAKS) for line in lines)
    return text if draw(st.booleans()) else text[:-1] if len(lines) > 1 else header


class TestDataReader:
    """The columnar ``z,delta`` reader against the line-by-line reference."""

    def read(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        return path, _read_outcome(_read_data_csv, str(path))

    @pytest.mark.parametrize("text,z,delta", [
        ("z,delta\r\n1.5,1\r\n2.5,0\r\n", [1.5, 2.5], [True, False]),
        ("z,delta\r1.5,1\r2.5,0", [1.5, 2.5], [True, False]),
        ("z,delta\n\n1.5,1\n \t\n\n2.5,0\n\n", [1.5, 2.5], [True, False]),
        ("z,delta\n 1.5 ,\t1 \n", [1.5], [True]),
        ("z,delta\n 1.5\u3000,1\n", [1.5], [True]),
        ("z,delta\n1.5, 1\n", [1.5], [True]),
        ("z,delta\n+1.5e0,1\n.5,0\n", [1.5, 0.5], [True, False]),
        ("z,delta\n", [], []),
    ])
    def test_accepted(self, tmp_path, text, z, delta):
        path, outcome = self.read(tmp_path, text)
        assert outcome == ([v.hex() for v in z], delta)
        got_z, got_delta = _read_data_csv(str(path))
        assert got_z.dtype == np.float64 and got_delta.dtype == bool

    @pytest.mark.parametrize("text,message", [
        ("\ufeffz,delta\n1.5,1\n", "line 1: expected header 'z,delta', got "
         + repr("\ufeffz,delta")),
        ("z,delta\n1.5,1,\n", "line 2: expected 2 fields, got 3"),
        ("z,delta\n1.5\n", "line 2: expected 2 fields, got 1"),
        ("z,delta\n1.5,01\n", "line 2: delta must be 0 or 1, got '01'"),
        # the first failing line, with the first rule it breaks
        ("z,delta\n1.5,1\n\n0,2\n1.5,1,1\n", "line 4: z must be a finite positive number, got '0'"),
        ("z,delta\n1.5,2\n1_5,1\n", "line 2: delta must be 0 or 1, got '2'"),
        ("z,delta\n1.5,1\n\uff11,1\n", "line 3: z must be a number, got '\uff11'"),
        # column totals that a one-field and a three-field line, or an empty
        # and a two-digit delta, keep
        ("z,delta\n1.5\n2.5,1,1\n", "line 2: expected 2 fields, got 1"),
        ("z,delta\n\n1.5\n2.5,1,1\n", "line 3: expected 2 fields, got 1"),
        ("z,delta\n1.5,\n2.5,01\n", "line 2: delta must be 0 or 1, got ''"),
    ])
    def test_rejected(self, tmp_path, text, message):
        path, outcome = self.read(tmp_path, text)
        assert outcome == f"{path}: {message}"

    @given(data_files())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_line_by_line_reference(self, text):
        # equal z bits and delta, or the same message, on every file
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.csv"
            path.write_bytes(text.encode("utf-8"))
            assert (_read_outcome(_read_data_csv, str(path))
                    == _read_outcome(read_data_csv_reference, str(path)))


# Log-excesses from about 0 to 5: order 1e300 takes their powers to 0 and
# past the float range.
WIDE_SAMPLE = """
import numpy as np
from censored_evi import EstimatorSpec, Family, Method, estimate, make_censored, tail_moments
rng = np.random.default_rng(5)
s = make_censored(np.exp(rng.uniform(0, 5, 400)), np.exp(rng.uniform(0, 5, 400)))
"""


class TestUtf8Text:
    # Under the C locale, and without UTF-8 mode, Python's default text
    # encoding is ASCII; the program reads and writes UTF-8 whatever it is.
    C_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0"}

    def test_data_file_read_as_utf8_under_the_c_locale(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_bytes("z,delta\n1.5\u3000,1\n2.5,0\n3.5,1\n".encode("utf-8"))
        out = tmp_path / "est.csv"
        assert main(["estimate", "--input", str(data), "--out", str(out)]) == 0
        proc = run_cli("estimate", "--input", str(data), env=self.C_LOCALE)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == out.read_text()

    def test_config_comment_read_as_utf8_under_the_c_locale(self, tmp_path):
        config = tmp_path / "study.cfg"
        config.write_bytes(("# \u00e9tude, \u03b3_x = \u22121\n" + CONFIG_SMALL).encode("utf-8"))
        plain = tmp_path / "plain.cfg"
        plain.write_text(CONFIG_SMALL)
        expected, out = tmp_path / "expected.csv", tmp_path / "res.csv"
        assert main(["simulate", "--config", str(plain), "--out", str(expected)]) == 0
        proc = run_cli("simulate", "--config", str(config), "--out", str(out),
                       env=self.C_LOCALE)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert out.read_bytes() == expected.read_bytes()

    def test_undecodable_byte_names_the_path_under_the_c_locale(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_bytes(b"z,delta\n1.5,1\n2.5,\xff\n")
        proc = run_cli("estimate", "--input", str(data), env=self.C_LOCALE)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == f"error: {data}: not UTF-8 text (byte 0xff at offset 18)\n"

    @pytest.mark.parametrize("command, flag", [
        ("estimate", "--input"), ("simulate", "--config"), ("plot", "--input")])
    def test_every_reader_names_the_path_and_offset(self, tmp_path, capsys, command, flag):
        path = tmp_path / "input.txt"
        path.write_bytes("z,delta\n\u00e9".encode("utf-8") + b"\xe9,1\n")
        argv = [command, flag, str(path)] + (["--metric", "mse"] if command == "plot" else [])
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: not UTF-8 text (byte 0xe9 at offset 10)\n")


class TestHugeAlpha:
    # An order costs at most 64 multiplications however large it is, and
    # powers that overflow make the estimates degenerate without a warning.
    def test_library_finishes_silently(self):
        proc = run_python("-W", "error::RuntimeWarning", "-c", WIDE_SAMPLE + """
tail_moments(s, [10], (1e300,))
_, values = estimate(s, range(1, 400), [EstimatorSpec(Family.TYPE1, Method.KM, 1e300)])
print(int(np.isnan(values).sum()), values.size)
""", timeout=30)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "399 399\n", "")

    def test_cli_finishes_silently(self, tmp_path):
        data = tmp_path / "data.csv"
        proc = run_python("-c", WIDE_SAMPLE + f"""
open({str(data)!r}, "w").write("z,delta\\n" + "".join(
    f"{{z!r}},{{d}}\\n" for z, d in zip(s.z.tolist(), s.delta.tolist())))
""")
        assert proc.returncode == 0, proc.stderr
        proc = run_python("-W", "error::RuntimeWarning", "-m", "censored_evi.cli", "estimate",
                          "--input", str(data), "--alpha", "1e300", timeout=30)
        assert (proc.returncode, proc.stderr) == (0, "")
        rows = list(csv.DictReader(proc.stdout.splitlines()))
        assert len(rows) == 9 * 399  # mom ignores alpha; the other families use it
        assert {row["degenerate"] for row in rows if row["family"] != "mom"} == {"1"}


class TestSimulateCommand:
    @pytest.fixture
    def config(self, tmp_path):
        path = tmp_path / "study.cfg"
        path.write_text(CONFIG_SMALL)
        return path

    def test_output_table(self, config, tmp_path):
        out = tmp_path / "res.csv"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == RESULTS_HEADER
        rows = read_rows(out)
        assert len(rows) == 4  # 2 k x mom x {km, l}
        assert {r["k"] for r in rows} == {"10", "20"}
        assert {r["method"] for r in rows} == {"km", "l"}
        assert all(r["family"] == "mom" for r in rows)
        assert all(r["reps"] == "4" and r["n"] == "60" for r in rows)
        assert all(r["gamma_x"] == "-1.0" and r["gamma_c"] == "-1.5" for r in rows)

    def test_reruns_are_byte_identical(self, config, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", str(config), "--out", str(a)]) == 0
        assert main(["simulate", "--config", str(config), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_worker_count_does_not_change_bytes(self, config, tmp_path, monkeypatch):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv("CENSORED_EVI_THREADS", "1")
        assert main(["simulate", "--config", str(config), "--out", str(a)]) == 0
        monkeypatch.setenv("CENSORED_EVI_THREADS", "3")
        assert main(["simulate", "--config", str(config), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_overrides(self, config, tmp_path):
        base, other = tmp_path / "base.csv", tmp_path / "other.csv"
        assert main(["simulate", "--config", str(config), "--out", str(base)]) == 0
        assert main(["simulate", "--config", str(config), "--out", str(other), "--seed", "4"]) == 0
        assert base.read_bytes() != other.read_bytes()
        small = tmp_path / "small.csv"
        assert main(["simulate", "--config", str(config), "--out", str(small), "--reps", "2"]) == 0
        assert all(r["reps"] == "2" for r in read_rows(small))

    def test_out_from_config_file(self, tmp_path, monkeypatch):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(CONFIG_SMALL + "out = fromcfg.csv\n")
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert (tmp_path / "fromcfg.csv").read_text().splitlines()[0] == RESULTS_HEADER

    def test_failure_leaves_existing_output_untouched(self, config, tmp_path):
        out = tmp_path / "res.csv"
        out.write_text("sentinel\n")
        # n override makes k = 20 invalid, so the run dies before writing
        assert main(["simulate", "--config", str(config), "--out", str(out), "--n", "15"]) == 1
        assert out.read_text() == "sentinel\n"

    def test_override_applies_before_the_design_is_checked(self, config, tmp_path):
        # k = 20 needs n > 20; the config alone is not a valid design
        config.write_text(CONFIG_SMALL.replace("n = 60", "n = 15"))
        out = tmp_path / "res.csv"
        assert main(["simulate", "--config", str(config), "--out", str(out), "--n", "60"]) == 0
        assert all(r["n"] == "60" for r in read_rows(out))

    @pytest.mark.parametrize("raw", NOT_DECIMAL)
    @pytest.mark.parametrize("key", ["n", "seed", "k_min", "alpha", "dist_x"])
    def test_non_decimal_config_value_names_line_and_key(self, config, tmp_path, capsys,
                                                         key, raw):
        lines = CONFIG_SMALL.splitlines()
        lineno = next(i for i, line in enumerate(lines, 1) if line.startswith(f"{key} ="))
        lines[lineno - 1] = f"{key} = " + (f"revburr({raw},1,1,10)" if key == "dist_x" else raw)
        config.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "r.csv"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {config}: line {lineno}: key {key!r}")
        assert not out.exists()

    def test_empty_out_in_the_config_names_its_line(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(CONFIG_SMALL + "out =\n")
        monkeypatch.setattr("censored_evi.cli.run_study", None)  # no replicate runs
        assert main(["simulate", "--config", str(cfg)]) == 1
        lineno = len(CONFIG_SMALL.splitlines()) + 1
        assert capsys.readouterr().err == (
            f"error: {cfg}: line {lineno}: key 'out' must not be empty\n")

    def test_stdout_when_no_out(self, config):
        proc = run_cli("simulate", "--config", str(config))
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == RESULTS_HEADER

    def test_bad_config_names_line(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(CONFIG_SMALL.replace("n = 60", "n = sixty"))
        proc = run_cli("simulate", "--config", str(cfg))
        assert proc.returncode == 1
        assert "key 'n' expects an integer" in proc.stderr

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_negative_seed_names_the_seed(self, config, tmp_path, capsys, where):
        # SeedSequence would reject it later without naming the key
        if where == "config":
            config.write_text(CONFIG_SMALL.replace("seed = 3", "seed = -5"))
        extra = ["--seed", "-5"] if where == "flag" else []
        out = tmp_path / "r.csv"
        assert main(["simulate", "--config", str(config), "--out", str(out), *extra]) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -5\n"
        assert not out.exists()

    def test_reps_beyond_one_entropy_word_are_rejected(self, config, tmp_path, capsys):
        # a replicate index is one 32-bit SeedSequence entropy word
        out = tmp_path / "r.csv"
        assert main(["simulate", "--config", str(config), "--out", str(out),
                     "--reps", str(2**32 + 1)]) == 1
        assert capsys.readouterr().err == "error: reps must be <= 2**32, got 4294967297\n"
        assert not out.exists()

    def test_bad_thread_count_names_the_variable(self, config, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CENSORED_EVI_THREADS", "abc")
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "r.csv")]) == 1
        assert capsys.readouterr().err == (
            "error: CENSORED_EVI_THREADS must be a positive integer, got 'abc'\n"
        )

    def test_non_positive_thresholds_do_not_abort(self, tmp_path):
        # at n = 50, k = 45 the threshold Z_(5) is <= 0 in 12 of these 20
        # samples; those replicates count as degenerate in every cell
        cfg = tmp_path / "study.cfg"
        cfg.write_text(
            CONFIG_SMALL.replace("n = 60", "n = 50").replace("reps = 4", "reps = 20")
            .replace("seed = 3", "seed = 101").replace("k_min = 10", "k_min = 45")
            .replace("k_max = 20", "k_max = 45").replace("families = mom\n", "")
            .replace("methods = km,l\n", "")
        )
        out = tmp_path / "res.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_rows(out)
        assert len(rows) == 9
        assert all(r["k"] == "45" and int(r["degenerate_count"]) >= 12 for r in rows)

    # estimator lists out of their canonical order, one alpha and several
    @pytest.mark.parametrize("lines", [
        "alpha = 2.5\nfamilies = type2,mom\nmethods = efg,km\n",
        "alpha = 2.5,1\nfamilies = type1,type2,mom\nmethods = l,efg,km\n",
        "alpha = 3,1.5,2\nfamilies = mom,type2\nmethods = km,l,efg\n",
    ])
    def test_writer_matches_cell_by_cell_formatting(self, lines):
        text = CONFIG_SMALL.replace("alpha = 2\nfamilies = mom\nmethods = km,l\n", lines)
        result = run_study(parse_config(text).to_design(), workers=1)
        out = results_csv_text(result)
        assert out.encode() == results_csv_reference(result).encode()
        # k ascending, then family, method and alpha, each in declaration order
        keys = [(int(k), ["mom", "type1", "type2"].index(f), ["km", "l", "efg"].index(m), float(a))
                for k, f, m, a, *_ in (line.split(",") for line in out.splitlines()[1:])]
        assert keys == sorted(keys)

    def test_writer_matches_cell_by_cell_formatting_on_special_values(self):
        design = parse_config(CONFIG_SMALL.replace("families = mom", "families = type1,mom")
                              .replace("methods = km,l", "methods = efg,km")).to_design()
        design = dataclasses.replace(design, k_grid=design.k_grid[::-1])
        values = np.full((design.reps, 2, 4), -0.0)
        values[:, 0, 1] = np.nan  # a cell with no usable replicate
        values[1:3, 1, 2] = [np.inf, -np.inf]
        values[0, 1, 3] = 0.1
        result = aggregate(values, design)
        text = results_csv_text(result)
        assert ",nan,nan,nan,nan,4," in text
        assert text.encode() == results_csv_reference(result).encode()
        # aggregate writes no infinity or -0.0; a result can hold them, and a
        # law built in code an int index
        special = np.array([[np.nan, np.inf, -np.inf, -0.0], [0.0, 5e-324, 1e16, -2.0]])
        for design in (design, dataclasses.replace(design, dist_x=GPD(-1, 10),
                                                   dist_c=GPD(-2, 20))):
            result = StudyResult(design, special, special[::-1], -special, special[:, ::-1],
                                 np.array([[0, 1, 2, 3], [4, 0, 4, 1]]))
            assert results_csv_text(result).encode() == results_csv_reference(result).encode()

    def test_mom_rows_once_with_several_alphas(self, tmp_path):
        # mom ignores alpha, so it has one row per (k, method) at the first alpha
        cfg, out = tmp_path / "study.cfg", tmp_path / "res.csv"
        cfg.write_text(CONFIG_SMALL.replace("alpha = 2", "alpha = 2.5,1,2")
                       .replace("families = mom", "families = type1,mom"))
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        keys = [(r["k"], r["family"], r["method"], r["alpha"]) for r in read_rows(out)]
        assert len(set(keys)) == len(keys) == 2 * (2 + 2 * 3)
        assert [key for key in keys if key[1] == "mom"] == [
            (k, "mom", m, "2.5") for k in ("10", "20") for m in ("km", "l")]


class TestPlotCommand:
    def test_golden_chart_bytes(self, tmp_path):
        out = tmp_path / "chart.svg"
        assert main([
            "plot", "--input", str(DATA_DIR / "results_small.csv"),
            "--metric", "median_bias", "--out", str(out),
        ]) == 0
        assert out.read_bytes() == (DATA_DIR / "golden_chart.svg").read_bytes()

    def test_mse_metric(self, tmp_path):
        out = tmp_path / "chart.svg"
        assert main([
            "plot", "--input", str(DATA_DIR / "results_small.csv"),
            "--metric", "mse", "--out", str(out),
        ]) == 0
        assert ">mse</text>" in out.read_text()

    def test_nan_rows_are_dropped_from_series(self, tmp_path):
        out = tmp_path / "chart.svg"
        assert main([
            "plot", "--input", str(DATA_DIR / "results_small.csv"),
            "--metric", "median_bias", "--out", str(out),
        ]) == 0
        text = out.read_text()
        # 3 finite mom/km points + 2 finite type1/l points
        assert text.count("<circle") == 5
        assert text.count("<polyline") == 2

    def test_single_row_input(self, tmp_path):
        src = tmp_path / "one.csv"
        src.write_text(
            RESULTS_HEADER + "\n10,mom,km,2.0,-0.05,0.01,-1.05,0.0075,0,100,400,-1.0,-1.5\n"
        )
        out = tmp_path / "chart.svg"
        assert main(["plot", "--input", str(src), "--metric", "mse", "--out", str(out)]) == 0
        text = out.read_text()
        assert text.count("<circle") == 1
        assert "<polyline" not in text

    def test_all_nan_metric_fails(self, tmp_path):
        src = tmp_path / "nan.csv"
        src.write_text(
            RESULTS_HEADER + "\n10,mom,km,2.0,nan,nan,nan,nan,100,100,400,-1.0,-1.5\n"
        )
        proc = run_cli("plot", "--input", str(src), "--metric", "mse")
        assert proc.returncode == 1
        assert "no drawable" in proc.stderr

    def test_alpha_suffix_when_multiple_alphas(self, tmp_path):
        src = tmp_path / "two_alpha.csv"
        src.write_text(
            RESULTS_HEADER
            + "\n10,mom,km,1.0,-0.05,0.01,-1.05,0.0075,0,100,400,-1.0,-1.5"
            + "\n10,mom,km,2.0,-0.04,0.01,-1.04,0.0075,0,100,400,-1.0,-1.5\n"
        )
        out = tmp_path / "chart.svg"
        assert main(["plot", "--input", str(src), "--metric", "mse", "--out", str(out)]) == 0
        text = out.read_text()
        assert "mom/km a=1" in text
        assert "mom/km a=2" in text

    def test_alpha_suffix_only_for_families_that_read_alpha(self, tmp_path):
        # the rows of a two-alpha study: mom, which ignores alpha, at the
        # first alpha only
        src, out = tmp_path / "two_alpha.csv", tmp_path / "chart.svg"
        src.write_text(RESULTS_HEADER + "".join(
            f"\n10,{family},km,{alpha},-0.05,0.01,-1.05,0.0075,0,100,400,-1.0,-1.5"
            for family, alpha in (("type2", "2.5"), ("type2", "1.0"), ("mom", "2.5"))) + "\n")
        assert main(["plot", "--input", str(src), "--metric", "mse", "--out", str(out)]) == 0
        labels = [node.text for node in ElementTree.parse(out).iter(f"{{{SVG}}}text")
                  if "/km" in node.text]
        assert labels == ["mom/km", "type2/km a=1", "type2/km a=2.5"]

    def test_near_alphas_get_distinct_labels(self, tmp_path):
        # :g writes both 2.5 and 2.5000001 as 2.5
        src, out = tmp_path / "near.csv", tmp_path / "chart.svg"
        src.write_text(RESULTS_HEADER + "".join(
            f"\n10,type1,km,{alpha},-0.05,0.01,-1.05,0.0075,0,100,400,-1.0,-1.5"
            for alpha in ("2.5", "2.5000001", "3.0")) + "\n")
        assert main(["plot", "--input", str(src), "--metric", "mse", "--out", str(out)]) == 0
        labels = [node.text for node in ElementTree.parse(out).iter(f"{{{SVG}}}text")
                  if node.text.startswith("type1/km")]
        assert labels == ["type1/km a=2.5", "type1/km a=2.5000001", "type1/km a=3"]

    def test_metric_choices_enforced_by_usage(self):
        proc = run_cli("plot", "--input", "x.csv", "--metric", "variance")
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "body,message",
        [
            ("k,other\n1,2\n", "expected results header"),
            (RESULTS_HEADER + "\n10,mom,km,2.0,-0.05\n", "line 2: expected 13 fields"),
            (
                RESULTS_HEADER + "\n10,hill,km,2.0,-0.05,0.01,-1.05,0.0075,0,100,400,-1.0,-1.5\n",
                "unknown estimator",
            ),
            (
                RESULTS_HEADER + "\nten,mom,km,2.0,-0.05,0.01,-1.05,0.0075,0,100,400,-1.0,-1.5\n",
                "malformed numeric field",
            ),
            # int() and float() read digit separators and non-ASCII digits
            (
                RESULTS_HEADER + "\n1_0,mom,km,2.0,-0.05,0.01,-1.05,0.0075,0,100,400,-1.0,-1.5\n",
                "line 2: malformed numeric field",
            ),
            (
                RESULTS_HEADER + "\n10,mom,km,\uff12,-0.05,0.01,-1.05,0.0075,0,100,400,-1.0,-1.5\n",
                "line 2: malformed numeric field",
            ),
            (
                RESULTS_HEADER + "\n10,mom,km,2.0,-0.0\u0665,0.01,-1.05,0.0075,0,100,400,-1.0,-1.5\n",
                "line 2: malformed numeric field",
            ),
            (
                RESULTS_HEADER + "\n10,mom,km,2.0,-0.05,1e1_0,-1.05,0.0075,0,100,400,-1.0,-1.5\n",
                "line 2: malformed numeric field",
            ),
            # EstimatorSpec's rule for alpha
            (
                RESULTS_HEADER + "\n10,mom,km,0.5,-0.05,0.01,-1.05,0.0075,0,100,400,-1.0,-1.5\n",
                "line 2: alpha must be >= 1 and finite, got 0.5",
            ),
        ],
    )
    def test_malformed_results_csv(self, tmp_path, body, message):
        src = tmp_path / "bad.csv"
        src.write_text(body, encoding="utf-8")
        proc = run_cli("plot", "--input", str(src), "--metric", "mse")
        assert proc.returncode == 1
        assert message in proc.stderr

    def test_ticks_on_a_small_axis_keep_their_values(self, tmp_path):
        src, out = tmp_path / "small.csv", tmp_path / "chart.svg"
        src.write_text(RESULTS_HEADER + "\n" + "".join(
            f"{k},mom,km,2.0,{bias},0.01,-1.05,0.0075,0,100,400,-1.0,-1.5\n"
            for k, bias in ((10, "1e-14"), (20, "3e-14"))))
        assert main(["plot", "--input", str(src), "--metric", "median_bias",
                     "--out", str(out)]) == 0
        labels = [float(node.text) for node in ElementTree.parse(out).iter(f"{{{SVG}}}text")
                  if node.get("text-anchor") == "end"]
        assert len(labels) >= 2 and labels == sorted(set(labels))

    # values whose padded axis span overflows, or underflows below the
    # float range, and a k that float() cannot hold
    @pytest.mark.parametrize("ks,biases,message", [
        (("10", "20"), ("-1e308", "1e308"), "cannot chart median_bias values"),
        (("10", "20"), ("0", "1.7e308"), "cannot chart median_bias values"),
        (("10", "20"), ("1.7e308", "1.7e308"), "cannot chart median_bias values"),
        (("10", "20"), ("0", "3e-323"), "cannot chart median_bias values"),
        (("1", "17" + "0" * 307), ("0.1", "0.2"), "cannot chart k values"),
        (("10", "1" + "0" * 400), ("0.1", "0.2"), "line 3: k is too large to chart"),
    ])
    def test_values_the_chart_cannot_place(self, tmp_path, capsys, ks, biases, message):
        src, out = tmp_path / "huge.csv", tmp_path / "chart.svg"
        src.write_text(RESULTS_HEADER + "\n" + "".join(
            f"{k},mom,km,2.0,{bias},0.01,-1.05,0.0075,0,100,400,-1.0,-1.5\n"
            for k, bias in zip(ks, biases)))
        assert main(["plot", "--input", str(src), "--metric", "median_bias",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {src}: ") and message in err
        assert err.count("\n") == 1
        assert not out.exists()


def _umask_untouchable(mask=None):
    raise AssertionError("os.umask called while writing an output file")


class TestFileModes:
    # Output files get the mode open(path, "w") would give them.  The umask
    # is never read: reading it means setting it, for every thread at once.
    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask-022", "umask-077"])
    @pytest.mark.parametrize("command", ["estimate", "plot"])
    def test_out_follows_the_umask(self, tmp_path, monkeypatch, command, umask, mode):
        data = tmp_path / "data.csv"
        data.write_text(DEMO)
        argv = {
            "estimate": ["estimate", "--input", str(data)],
            "plot": ["plot", "--input", str(DATA_DIR / "results_small.csv"),
                     "--metric", "mse"],
        }[command]
        out, plain = tmp_path / "out", tmp_path / "plain"
        saved = os.umask(umask)
        try:
            with open(plain, "w"):
                pass
            with monkeypatch.context() as patch:
                patch.setattr(os, "umask", _umask_untouchable)
                assert main([*argv, "--out", str(out)]) == 0
        finally:
            os.umask(saved)
        assert out.stat().st_mode & 0o777 == plain.stat().st_mode & 0o777 == mode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "out", "plain"]


# Runs each argv of argv[1] (JSON) through one main() in this one process,
# and prints the [exit status, stdout, stderr] of each call as JSON.
CALLS_IN_ONE_PROCESS = """
import contextlib, io, json, sys
from censored_evi import cli
outcomes = []
for argv in json.loads(sys.argv[1]):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    outcomes.append([code, stdout.getvalue(), stderr.getvalue()])
print(json.dumps(outcomes))
"""


class TestRepeatedCalls:
    # main() builds its argument parser on its first call and reuses it.

    def test_import_builds_no_parser(self):
        proc = run_python("-c", """
import argparse
built = []
init = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    built.append(None)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
from censored_evi import cli
counts = [len(built)]
for _ in range(3):
    assert cli.main(["estimate", "--input", "missing.csv"]) == 1
    counts.append(len(built))
print(*counts)
""")
        assert proc.returncode == 0, proc.stderr
        imported, *calls = map(int, proc.stdout.split())
        assert imported == 0
        assert calls[0] > 0 and calls == [calls[0]] * 3

    def test_calls_in_one_process_match_fresh_processes(self, tmp_path):
        calls = [
            ["estimate", "--input", "data.csv", "--k-max", "x"],
            ["estimate", "--input", "bad.csv", "--out", "bad-out.csv"],
            ["estimate", "--input", "data.csv", "--out", "all.csv"],
            ["estimate", "--input", "data.csv", "--families", "type2,mom", "--k-step", "3"],
            ["plot", "--input", "results.csv", "--metric", "mse", "--out", "chart.svg"],
        ]
        one, fresh = tmp_path / "one", tmp_path / "fresh"
        for where in (one, fresh):
            where.mkdir()
            (where / "data.csv").write_text(UNCENSORED)
            (where / "bad.csv").write_text("z,delta\n1.0,1\n2.0,2\n")
            shutil.copy(DATA_DIR / "results_small.csv", where / "results.csv")
        proc = run_python("-c", CALLS_IN_ONE_PROCESS, json.dumps(calls), cwd=one)
        assert proc.returncode == 0, proc.stderr
        in_one = json.loads(proc.stdout)
        in_fresh = [[p.returncode, p.stdout, p.stderr]
                    for p in (run_cli(*argv, cwd=fresh) for argv in calls)]
        assert [code for code, _, _ in in_one] == [2, 1, 0, 0, 0]
        assert in_one == in_fresh
        assert "invalid integer value: 'x'" in in_one[0][2]
        assert "bad.csv: line 3: delta must be 0 or 1" in in_one[1][2]
        assert in_one[3][1].startswith(ESTIMATES_HEADER + "\n")
        written = ["all.csv", "chart.svg"]
        for where in (one, fresh):
            assert sorted(p.name for p in where.iterdir()) == sorted(
                ["data.csv", "bad.csv", "results.csv", *written])
        for name in written:
            assert (one / name).read_bytes() == (fresh / name).read_bytes()

    def test_threads_get_the_serial_bytes(self, tmp_path):
        # More threads than cores, switching often, each with its own k range,
        # families and output: every file equals its argv's serial output and
        # has the mode open(path, "w") gives.
        rng = np.random.default_rng(11)
        data = tmp_path / "data.csv"
        data.write_text("z,delta\n" + "".join(
            f"{z!r},{d}\n" for z, d in zip(rng.uniform(0.5, 4.0, 300).tolist(), rng.integers(0, 2, 300).tolist())))
        families = ["mom", "type1,type2", "type2,mom", "mom,type1,type2"]
        nthreads, rounds = 2 * (os.cpu_count() or 1) + 3, 8

        def argv(i, out):
            return ["estimate", "--input", str(data), "--out", str(out), "--k-min", str(1 + i),
                    "--k-step", str(1 + i % 5), "--families", families[i % len(families)]]

        saved = os.umask(0o022)
        try:
            serial = []
            for i in range(nthreads):
                assert main(argv(i, tmp_path / "serial.csv")) == 0
                serial.append((tmp_path / "serial.csv").read_bytes())
            codes = [[] for _ in range(nthreads)]
            start = threading.Barrier(nthreads)

            def work(i):
                start.wait(timeout=60)
                for _ in range(rounds):
                    codes[i].append(main(argv(i, tmp_path / f"out-{i}.csv")))

            threads = [threading.Thread(target=work, args=(i,)) for i in range(nthreads)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
        finally:
            os.umask(saved)
        assert not any(thread.is_alive() for thread in threads)
        assert codes == [[0] * rounds] * nthreads
        for i in range(nthreads):
            out = tmp_path / f"out-{i}.csv"
            assert out.read_bytes() == serial[i]
            assert out.stat().st_mode & 0o777 == 0o666 & ~0o022
        assert len(list(tmp_path.glob(".tmp-*"))) == 0


class TestEntryPoints:
    def test_usage_error_exit_code(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 2

    @pytest.mark.parametrize("command", ["estimate", "simulate", "plot"])
    def test_empty_out_is_a_usage_error(self, tmp_path, capsys, monkeypatch, command):
        data, config = tmp_path / "data.csv", tmp_path / "study.cfg"
        data.write_text(UNCENSORED)
        config.write_text(CONFIG_SMALL)
        source = {"estimate": ["--input", str(data)], "simulate": ["--config", str(config)],
                  "plot": ["--input", str(DATA_DIR / "results_small.csv"), "--metric", "mse"]}
        for name in ("run_study", "estimate", "render_chart"):  # no work is done
            monkeypatch.setattr(f"censored_evi.cli.{name}", None)
        with pytest.raises(SystemExit) as exc:
            main([command, *source[command], "--out", ""])
        assert exc.value.code == 2
        assert "argument --out: invalid output value: ''" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", NOT_DECIMAL)
    @pytest.mark.parametrize("command,flag", [
        ("estimate", "--alpha"), ("estimate", "--k-max"), ("simulate", "--seed"),
        ("simulate", "--n"),
    ])
    def test_non_decimal_flag_is_a_usage_error(self, tmp_path, capsys, command, flag, raw):
        data, config = tmp_path / "data.csv", tmp_path / "study.cfg"
        data.write_text(UNCENSORED)
        config.write_text(CONFIG_SMALL)
        source = ["--input", str(data)] if command == "estimate" else ["--config", str(config)]
        with pytest.raises(SystemExit) as exc:
            main([command, *source, "--out", str(tmp_path / "o.csv"), flag, raw])
        assert exc.value.code == 2
        kind = "number" if flag == "--alpha" else "integer"
        assert f"argument {flag}: invalid {kind} value: {raw!r}" in capsys.readouterr().err

    def test_module_help(self):
        proc = run_cli("--help")
        assert proc.returncode == 0
        for word in ("estimate", "simulate", "plot"):
            assert word in proc.stdout

    def test_console_script_installed(self, monkeypatch, capsys):
        # The console-script contract without an install: pyproject
        # declares the script, its target is the CLI's main, and run as the
        # generated wrapper runs it, sys.exit(main()), --help exits 0.
        module_name, attr = declared_scripts()["censored-evi"].split(":")
        target = getattr(importlib.import_module(module_name), attr)
        assert target is main
        monkeypatch.setattr(sys, "argv", ["censored-evi", "--help"])
        with pytest.raises(SystemExit) as exc:
            sys.exit(target())
        assert exc.value.code == 0
        assert "censored-evi" in capsys.readouterr().out

    @pytest.mark.skipif(
        shutil.which("censored-evi") is None,
        reason="censored-evi executable not on PATH (package not installed)",
    )
    def test_installed_executable_matches_pyproject(self):
        exe = shutil.which("censored-evi")
        proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "censored-evi" in proc.stdout
        installed = {
            ep.name: ep.value
            for ep in importlib.metadata.distribution("censored-evi").entry_points
            if ep.group == "console_scripts"
        }
        assert installed == declared_scripts()


# The estimator selection as the config keys and the estimate flags take it:
# (config key, flag, list text, what the error names or None if accepted).
# The flag takes one alpha, so alpha cases are single values.
SELECTIONS = [
    ("families", "--families", "mom,type1,type2", None),
    ("families", "--families", "type2,mom", None),
    ("families", "--families", " type1 ,  mom ", None),
    ("families", "--families", "mom,hill", "unknown entry 'hill'"),
    ("families", "--families", "Mom", "unknown entry 'Mom'"),
    ("families", "--families", "mom,,type1", "unknown entry ''"),
    ("families", "--families", "mom,type1,mom", "repeats entry 'mom'"),
    ("families", "--families", "type1, type1", "repeats entry 'type1'"),
    ("methods", "--methods", "efg,km", None),
    ("methods", "--methods", "km , l", None),
    ("methods", "--methods", "km,bootstrap", "unknown entry 'bootstrap'"),
    ("methods", "--methods", "km, l ,km", "repeats entry 'km'"),
    ("alpha", "--alpha", "2.5", None),
    ("alpha", "--alpha", " 1 ", None),
    ("alpha", "--alpha", "1e1", None),
    ("alpha", "--alpha", "0.5", "got 0.5"),
    ("alpha", "--alpha", "nan", "got nan"),
    ("alpha", "--alpha", "inf", "got inf"),
    ("alpha", "--alpha", "-inf", "got -inf"),
]


def _config_outcome(key, raw):
    """("specs", spec tuple) or ("error", message after 'line N: key K')."""
    text = CONFIG_SMALL.replace("alpha = 2\nfamilies = mom\nmethods = km,l\n", "")
    lineno = len(text.splitlines()) + 1
    try:
        return "specs", parse_config(text + f"{key} = {raw}\n").to_design().specs
    except ValueError as exc:
        prefix = f"line {lineno}: key {key!r}"
        assert str(exc).startswith(prefix), str(exc)
        return "error", str(exc)[len(prefix):]


def _cli_outcome(flag, raw, tmp_path, capsys):
    """("specs", spec tuple) or ("error", message after 'error: FLAG')."""
    data, out = tmp_path / "data.csv", tmp_path / "out.csv"
    data.write_text(DEMO)
    code = main(["estimate", "--input", str(data), "--out", str(out),
                 "--k-min", "1", "--k-max", "1", f"{flag}={raw}"])
    err = capsys.readouterr().err
    if code == 0:
        return "specs", tuple(
            EstimatorSpec(Family(row["family"]), Method(row["method"]), float(row["alpha"]))
            for row in read_rows(out))
    assert code == 1 and err.startswith(f"error: {flag}") and err.endswith("\n"), err
    return "error", err[len(f"error: {flag}"):-1]


class TestOneGrammar:
    @pytest.mark.parametrize("key,flag,raw,named", SELECTIONS)
    def test_config_and_flags_agree(self, key, flag, raw, named, tmp_path, capsys):
        # one list grammar: the same specs in the same order, or the same
        # message naming the same entry
        outcome, detail = _config_outcome(key, raw)
        assert (outcome, detail) == _cli_outcome(flag, raw, tmp_path, capsys)
        if named is None:
            assert outcome == "specs"
        else:
            assert outcome == "error" and named in detail
