"""``scripts/ab_pairs.py`` on two fake trees whose benchmark command prints
canned summaries, one run after another."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ab_pairs.py"
_spec = importlib.util.spec_from_file_location("ab_pairs", SCRIPT)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

# Prints the stdout of the tree's next canned run, writes its stderr and
# exits with its status.
FAKE_BENCH = """\
import json, sys
from pathlib import Path
runs = json.loads(Path("runs.json").read_text())
stdout, stderr, status = runs.pop(0)
Path("runs.json").write_text(json.dumps(runs))
print("warming up")
print(stdout)
sys.stderr.write(stderr)
sys.exit(status)
"""

METRICS = [{"name": "wall_rel", "unit": "ratio", "better": "lower", "bound": 0.21},
           {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.05}]


def summary(wall_rel, failed=0):
    return json.dumps({"correct": failed == 0, "attempted": 10, "failed": failed,
                       "metrics": {"wall_rel": {"value": wall_rel},
                                   "peak_rss_mb": {"value": 50.0}}})


def fake_tree(root, runs):
    """A tree whose benchmark prints ``runs`` in turn, each a (stdout's
    last line, stderr, exit status)."""
    root.mkdir()
    (root / "BENCHMARK.json").write_text(json.dumps(
        {"command": [sys.executable, "fake_bench.py"], "end_to_end": METRICS}))
    (root / "fake_bench.py").write_text(FAKE_BENCH)
    (root / "runs.json").write_text(json.dumps(runs))
    return root


def run_pairs(tmp_path, parent_runs, change_runs):
    parent = fake_tree(tmp_path / "parent", parent_runs)
    change = fake_tree(tmp_path / "change", change_runs)
    return ab_pairs.main([str(parent), str(change), "--workload", "w",
                          "--pairs", str(len(parent_runs)), "--seconds", "1"])


def test_counts_the_pairs_the_change_wins(tmp_path, capsys):
    status = run_pairs(tmp_path, [(summary(1.0), "", 0)] * 3,
                       [(summary(wall), "", 0) for wall in (0.9, 1.1, 0.8)])
    out = capsys.readouterr().out
    assert status == 0
    assert out.count("correct=True failed=0/10 wall_rel=") == 6
    wall_rel = out[out.index("wall_rel (ratio"):out.index("peak_rss_mb (MiB")]
    assert "change wins 2 of 3" in wall_rel
    assert "change wins 0 of 3" in out[out.index("peak_rss_mb (MiB"):]
    assert "every run correct: True" in out


def test_an_incorrect_run_exits_1(tmp_path, capsys):
    status = run_pairs(tmp_path, [(summary(1.0), "", 0)] * 2,
                       [(summary(0.9), "", 0), (summary(0.9, failed=3), "", 1)])
    out = capsys.readouterr().out
    assert status == 1
    assert "correct=False failed=3/10" in out
    assert "every run correct: False" in out


@pytest.mark.parametrize("last_line,status,problem", [
    ('{"correct": true, "attempted": 10, "failed": 0}', 0, "lacks one of"),
    ("Traceback (most recent call last):", 1, "is not a JSON summary"),
    ("[1, 2]", 1, "lacks one of"),
    (summary(1.0), 1, "exit status disagrees with correct=True"),
])
def test_a_run_without_a_summary_is_an_error(tmp_path, last_line, status, problem):
    stderr = "".join(f"line {i}\n" for i in range(30)) + "ValueError: boom\n"
    with pytest.raises(RuntimeError) as caught:
        run_pairs(tmp_path, [(summary(1.0), "", 0)], [(last_line, stderr, status)])
    message = str(caught.value)
    assert f"in {(tmp_path / 'change').resolve()} exited {status} and" in message
    assert problem in message
    assert message.endswith("line 29\nValueError: boom")
    assert "line 10\n" not in message  # only the end of stderr
