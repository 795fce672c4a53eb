import importlib.util
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("argv", [
    ["tools/counts.py", "square", "--n", "16", "--count", "1"],
    ["tools/counts.py", "circle", "--n", "10", "--count", "1"],
    ["tools/counts.py", "circle", "--n", "12", "--line", "x-y=0", "--count", "1"],
    ["tools/counts.py", "corridor", "--n", "600", "--count", "1"],
    ["tools/counts.py", "rect", "--n", "30", "--count", "1"],
    ["tools/loc.py"],
    ["tools/answers.py", "--count", "4"],
])
def test_tool_runs_and_prints_a_total(argv, tmp_path):
    # the counting tools wrap private solver functions, so a changed
    # signature fails here rather than in the tool; each tool finds the
    # repository's files from its own path, so it runs from any directory
    got = subprocess.run([sys.executable, os.path.join(ROOT, argv[0])] + argv[1:],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert got.returncode == 0, got.stderr
    assert any("total" in line.split() for line in got.stdout.splitlines()), got.stdout


def test_square_counts_narrow_from_pairs_to_scans():
    # on every row of tools/counts.py square, the pair table holds at most
    # the pinned pairs and the search scans at most the table's rows
    got = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "counts.py"), "square",
                          "--n", "40", "--count", "3"],
                         capture_output=True, text=True, timeout=120)
    assert got.returncode == 0, got.stderr
    rows = [line.split()[-4:] for line in got.stdout.splitlines()[1:]]
    assert len(rows) == 7, got.stdout
    for pairs, table, _, scanned in (map(int, row) for row in rows):
        assert scanned <= table <= pairs, got.stdout


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(ROOT, "tools", name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pair_summary_on_canned_runs():
    # quartiles of each side, the median's relative move, and the pairs
    # the change read better in the metric's own direction, ties for
    # neither side; one pair gives each side's value as all three quartiles
    end_to_end = [{"name": "solves_per_s", "better": "higher", "bound": 0.25},
                  {"name": "solve_s_p50", "better": "lower", "bound": 0.25}]
    parent = [(30.0, 0.04), (32.0, 0.03), (31.0, 0.05), (29.0, 0.04)]
    change = [(33.0, 0.04), (31.0, 0.02), (31.0, 0.06), (35.0, 0.03)]
    runs = {side: [{"solves_per_s": a, "solve_s_p50": b} for a, b in rows]
            for side, rows in (("parent", parent), ("change", change))}
    summary = _load_tool("pair").summary
    rate, p50 = summary(runs, end_to_end)
    assert rate[0] == "solves_per_s"
    assert rate[1] == (29.75, 30.5, 31.25) and rate[2] == (31.0, 32.0, 33.5)
    assert rate[3] == pytest.approx(32.0 / 30.5 - 1.0) and rate[4:] == (0.25, 2, 4)
    assert p50[1] == pytest.approx((0.0375, 0.04, 0.0425))
    assert p50[2] == pytest.approx((0.0275, 0.035, 0.045))
    assert p50[3] == pytest.approx(-0.125) and p50[4:] == (0.25, 2, 4)
    runs = {side: rows[:1] for side, rows in runs.items()}
    assert summary(runs, end_to_end)[0][1:3] == ((30.0,) * 3, (33.0,) * 3)


def test_answers_match_the_recorded_table():
    # every solver's answers on tools/answers.py's corpus at --count 150,
    # hashed as the tool prints them; tests/answers_count150.txt is that
    # output, recorded when the answers last changed on purpose
    with open(os.path.join(ROOT, "tests", "answers_count150.txt")) as f:
        lines = f.read().splitlines()
    recorded_versions = lines[0].lstrip("# ").split(" count")[0]
    recorded = {}
    for line in lines[1:]:
        name, n, digest = line.rsplit(None, 2)
        recorded[name] = (int(n), digest)
    tool = _load_tool("answers")
    got = tool.digests(150, 0)
    moved = [name for name in recorded if got.get(name) != recorded[name]]
    assert not moved, (
        "answers moved for %s\n"
        "recorded with %s, running %s\n"
        "to find the first changed answer, run on this checkout and on the "
        "last one that passed:\n"
        "  python3 tools/answers.py --count 150 --dump answers.txt\n"
        "then: diff old/answers.txt new/answers.txt | head"
        % (", ".join(moved), recorded_versions, tool.versions()))
