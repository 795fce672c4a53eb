import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("argv", [
    ["tools/square_pairs.py", "--n", "16", "--count", "1"],
    ["tools/circle_rows.py", "--n", "10", "--count", "1"],
    ["tools/corridor_ops.py", "--n", "600", "--count", "1"],
    ["tools/loc.py"],
    ["tools/answers.py", "--count", "4"],
])
def test_tool_runs_and_prints_a_total(argv):
    # the counting tools wrap private solver functions, so a changed
    # signature fails here rather than in the tool
    got = subprocess.run([sys.executable] + argv, cwd=ROOT, capture_output=True,
                         text=True, timeout=120)
    assert got.returncode == 0, got.stderr
    assert any("total" in line.split() for line in got.stdout.splitlines()), got.stdout
