"""Count the candidate centres the circle search screens and scores, per
instance.

Usage: python3 tools/circle_rows.py [--n 30] [--k 3] [--dist rings]
                                    [--line "x-y=0"] [--seed 1000]
                                    [--count 22]

Instance i is `rbannulus gen --seed 100*seed+i`, loaded through
format_instance and parse_instance as the CLI loads it, so the defaults
give perfbench's circle-rings pool, and `--n 160 --line "x-y=0" --count 16`
its circle-line pool.  Each instance is solved once with max_rbca, or with
max_rbca_on_line when --line is given.  Per instance the script prints

  centres   candidate centres the search takes (_pick_best)
  screened  rows _screen scores, over all its calls
  pruned    cells skipped whole: those whose _cell_bounds bound is below
            t_lo - _FINALIST_SLACK, t_lo being the best lower bound
            w - e > eps of the rows screened before them
  exact     rows _batch_widths scores

It counts by wrapping the solver's private functions in this process; the
solver itself keeps no counter.  Standard library and numpy only.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "src"))

from rbannulus import circles  # noqa: E402
from rbannulus.cli import parse_line_spec  # noqa: E402
from rbannulus.instances import (format_instance, generate_instance,  # noqa: E402
                                 parse_instance)

FIELDS = ("centres", "screened", "pruned", "exact")


def install_counters(counts):
    """Wrap the private functions of circles; counts[-1] is the search
    being run, and its "t_lo" the best lower bound screened so far."""
    pick, screen, batch = circles._pick_best, circles._screen, circles._batch_widths
    cell_bounds = circles._cell_bounds

    def picked(ps, xs, ys, eps):
        counts.append(dict.fromkeys(FIELDS, 0))
        counts[-1]["centres"] = len(xs)
        counts[-1]["t_lo"] = -float("inf")
        return pick(ps, xs, ys, eps)

    def screened(ps, xs, ys, eps, *rest):
        w, e = screen(ps, xs, ys, eps, *rest)
        lower = w - e
        lower = lower[lower > eps]
        counts[-1]["screened"] += len(xs)
        if lower.size:
            counts[-1]["t_lo"] = max(counts[-1]["t_lo"], float(lower.max()))
        return w, e

    def bounded(*args):
        bound = cell_bounds(*args)
        t_lo = counts[-1]["t_lo"]
        counts[-1]["pruned"] += int((bound < t_lo - circles._FINALIST_SLACK).sum())
        return bound

    def exact(ps, xs, ys, eps):
        counts[-1]["exact"] += len(xs)
        return batch(ps, xs, ys, eps)

    circles._pick_best, circles._screen = picked, screened
    circles._batch_widths, circles._cell_bounds = exact, bounded


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n", type=int, default=30)
    ap.add_argument("--k", type=int, default=3)
    ap.add_argument("--dist", default="rings")
    ap.add_argument("--line", default=None,
                    help='constrain centres to "ax+by=c" (max_rbca_on_line)')
    ap.add_argument("--seed", type=int, default=1000)
    ap.add_argument("--count", type=int, default=22)
    args = ap.parse_args(argv)
    line = None if args.line is None else parse_line_spec(args.line)
    counts = []
    install_counters(counts)
    totals = dict.fromkeys(FIELDS, 0)
    print("%-8s %9s %9s %8s %8s" % (("seed",) + FIELDS))
    for i in range(args.count):
        seed = 100 * args.seed + i
        ps = parse_instance(format_instance(
            generate_instance(args.n, args.k, args.dist, seed)))
        del counts[:]
        if line is None:
            circles.max_rbca(ps)
        else:
            circles.max_rbca_on_line(ps, line)
        c = counts[0]
        print("%-8d %9d %9d %8d %8d" % ((seed,) + tuple(c[f] for f in FIELDS)))
        for f in FIELDS:
            totals[f] += c[f]
    print("%-8s %9d %9d %8d %8d" % (("total",) + tuple(totals[f] for f in FIELDS)))
    if totals["centres"]:
        print("screened %.1f%% of centres, scored %.4f%% exactly"
              % (100.0 * totals["screened"] / totals["centres"],
                 100.0 * totals["exact"] / totals["centres"]))


if __name__ == "__main__":
    main()
