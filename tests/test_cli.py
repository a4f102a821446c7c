import csv
import importlib
import importlib.metadata
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import censored_evi
from censored_evi import GPD, EstimatorSpec, Family, Method, estimate, from_observations
from censored_evi.cli import ESTIMATES_HEADER, RESULTS_HEADER, _fmt, estimates_csv_text, main
from censored_evi.config import parse_config

PACKAGE_ROOT = str(Path(censored_evi.__file__).resolve().parent.parent)
DATA_DIR = Path(__file__).parent / "data"
PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"

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


def run_cli(*argv, cwd=None):
    """Run the CLI module in a child interpreter that imports the same
    censored_evi package as this process, installed or not."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "censored_evi.cli", *argv],
        capture_output=True, text=True, cwd=cwd, env=env,
    )


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

    @pytest.mark.parametrize("k", [51, 400])
    def test_single_k_row_matches_full_sweep(self, tmp_path, k):
        # n = 600: the full sweep's tails span several chunks, while k alone
        # is a chunk of its own; the rows must not depend on that
        rng = np.random.default_rng(600)
        x, c = GPD(-0.5, 1).sample(rng, 600), GPD(-0.25, 0.5).sample(rng, 600)
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
        assert capsys.readouterr().err.startswith(f"error: line {lineno}: key {key!r}")
        assert not out.exists()

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


class TestFileModes:
    # Output files get the mode open(path, "w") would give them, whatever
    # the temporary file they are renamed from was created with.
    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask-022", "umask-077"])
    @pytest.mark.parametrize("command", ["estimate", "plot"])
    def test_out_follows_the_umask(self, tmp_path, command, umask, mode):
        data = tmp_path / "data.csv"
        data.write_text(DEMO)
        argv = {
            "estimate": ["estimate", "--input", str(data)],
            "plot": ["plot", "--input", str(DATA_DIR / "results_small.csv"),
                     "--metric", "mse"],
        }[command]
        out = tmp_path / "out"
        saved = os.umask(umask)
        try:
            assert main([*argv, "--out", str(out)]) == 0
        finally:
            os.umask(saved)
        assert out.stat().st_mode & 0o777 == mode


class TestEntryPoints:
    def test_usage_error_exit_code(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 2

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
