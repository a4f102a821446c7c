"""The README's Python examples run as written, so the documented API
cannot drift from the code."""

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                      flags=re.MULTILINE | re.DOTALL)


def test_library_then_monte_carlo_examples_run(capsys):
    blocks = python_blocks()
    assert len(blocks) == 2  # Library, then Monte Carlo engine
    namespace = {}
    for block in blocks:  # the second uses the first one's imports
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["values"].shape == (19, 3)
    assert namespace["result"].mse.shape == (9, 3)
    assert capsys.readouterr().out
