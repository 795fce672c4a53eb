"""Run perfbench on two revisions in alternating pairs and compare them.

Usage: python3 tools/pair.py PARENT CHANGE --workload W [--pairs 10]
                             [--seed 1000] [--seconds 20]

PARENT and CHANGE are git revisions of this repository.  Each is written
with `git archive` into a fresh temporary directory, and every run is that
copy's own `perfbench/run.py --workload W --seed S --seconds T --trace 0`,
unchanged, started from the copy's root.  The first pair runs the parent
first, the second the change first, and so on, so that neither side always
runs on the warmer machine.

For every run the script prints the pair, the side, whether it ran first
or second, its outputs sha256 and its end-to-end metrics.  Then, per
end-to-end metric of BENCHMARK.json, it prints each side's first quartile,
median and third quartile over the runs, the change's median relative to
the parent's, the metric's bound, and in how many pairs the change read
better, in the direction `better` gives; ties count for neither side.

The exit code is nonzero when a run exits nonzero or prints no outputs
digest, or when the runs' outputs sha256 are not all equal.  Standard
library only.
"""

import argparse
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          capture_output=True).stdout


def checkout(rev, into):
    """Write revision rev of this repository into the directory into."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev))) as tar:
        tar.extractall(into, filter="data")


def run(copy, args):
    """One perfbench run in copy: (outputs sha256, {metric: value}).  A
    failed run ends the script."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    got = subprocess.run(cmd, cwd=copy, capture_output=True, text=True)
    lines = got.stdout.splitlines()
    digest = next((line.split()[2] for line in lines
                   if line.startswith("outputs sha256:")), None)
    if got.returncode != 0 or digest is None:
        sys.stdout.write(got.stdout + got.stderr)
        sys.exit("pair: the run in %s exited %d" % (copy, got.returncode))
    metrics = json.loads(lines[-1])["metrics"]
    return digest, {name: m["value"] for name, m in metrics.items()}


def quartiles(values):
    """(first quartile, median, third quartile) of values."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summary(runs, end_to_end):
    """One row per end-to-end metric: (name, parent quartiles, change
    quartiles, change median / parent median - 1, bound, pairs in which
    the change read better, pairs).  runs maps each side to its runs'
    metric dicts, in pair order."""
    rows = []
    for metric in end_to_end:
        name = metric["name"]
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        sign = 1.0 if metric["better"] == "higher" else -1.0
        better = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
        qp, qc = quartiles(parent), quartiles(change)
        moved = qc[1] / qp[1] - 1.0 if qp[1] else math.nan
        rows.append((name, qp, qc, moved, metric["bound"], better, len(parent)))
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1000)
    ap.add_argument("--seconds", type=float, default=20.0)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        end_to_end = json.load(fh)["end_to_end"]
    runs = {side: [] for side in SIDES}
    digests = set()
    with tempfile.TemporaryDirectory(prefix="rbannulus-pair-") as tmp:
        for side, rev in zip(SIDES, (args.parent, args.change)):
            checkout(rev, os.path.join(tmp, side))
            print("%s: %s (%s)" % (side, rev, git("rev-parse", rev).decode().strip()))
        print("workload %s, seed %d, %g s per run, %d pairs"
              % (args.workload, args.seed, args.seconds, args.pairs))
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for place, side in enumerate(order):
                digest, metrics = run(os.path.join(tmp, side), args)
                runs[side].append(metrics)
                digests.add(digest)
                print("pair %2d %-6s %-6s outputs %s  %s" % (
                    i + 1, side, ("first", "second")[place], digest,
                    "  ".join("%s %.5g" % (m["name"], metrics[m["name"]])
                              for m in end_to_end)), flush=True)
    print("%-12s %-32s %-32s %8s %6s %s" % ("metric", "parent q1 / median / q3",
                                            "change q1 / median / q3", "median",
                                            "bound", "change better"))
    for name, qp, qc, moved, bound, better, pairs in summary(runs, end_to_end):
        print("%-12s %-32s %-32s %+7.1f%% %5.0f%% %d of %d" % (
            name, " / ".join("%.4g" % v for v in qp),
            " / ".join("%.4g" % v for v in qc), 100.0 * moved, 100.0 * bound,
            better, pairs))
    if len(digests) > 1:
        print("outputs sha256 differ: " + " ".join(sorted(digests)))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
