"""Count the pinned pairs the bounded square search handles, per instance
and per pair family.

Usage: python3 tools/square_pairs.py [--n 120] [--k 3] [--dist uniform]
                                     [--seed 1000] [--count 13]

Instance i is `rbannulus gen --seed 100*seed+i`, loaded through
format_instance and parse_instance as the CLI loads it, so the defaults
give perfbench's square-uniform pool.  Each instance is solved once with
max_rbsa.  For each pair family of the bounded search (h: the input frame,
v: x and y swapped) the script prints

  bounded  pairs of the pair table (_pairs) whose width bound
           (_pair_bounds) exceeds eps: r minus the largest |y - y0| of
           the strip points that are inside the outer square at every
           center, with no color test
  floor    of those, the pairs whose bound reaches the family's floor
  kept     pairs the color-free decision keeps (_reaching), summed over
           its rounds
  scanned  pairs _scan_segment runs on

It counts by wrapping the solver's private functions in this process; the
solver itself keeps no counter.  Standard library and numpy only.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "src"))

from rbannulus import squares  # noqa: E402
from rbannulus.instances import (format_instance, generate_instance,  # noqa: E402
                                 parse_instance)

FIELDS = ("bounded", "floor", "kept", "scanned")


def install_counters(counts):
    """Wrap the private functions of squares; counts[-1] is the family
    being searched."""
    pair_bounds, c3_family = squares._pair_bounds, squares._c3_family
    scan, reaching = squares._scan_segment, squares._reaching

    def family(pointset, swap, eps, floor):
        counts.append(dict.fromkeys(FIELDS, 0))
        counts[-1]["limits"] = eps, floor
        return c3_family(pointset, swap, eps, floor)

    def bounds(xs, ys, pairs):
        out = pair_bounds(xs, ys, pairs)
        eps, floor = counts[-1]["limits"]
        counts[-1]["bounded"] += int((out > eps).sum())
        counts[-1]["floor"] += int(((out > eps) & (out >= floor)).sum())
        return out

    def decide(*args):
        keep = reaching(*args)
        counts[-1]["kept"] += int(keep.sum())
        return keep

    def scanned(*args):
        counts[-1]["scanned"] += 1
        return scan(*args)

    squares._c3_family, squares._pair_bounds = family, bounds
    squares._scan_segment, squares._reaching = scanned, decide


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n", type=int, default=120)
    ap.add_argument("--k", type=int, default=3)
    ap.add_argument("--dist", default="uniform")
    ap.add_argument("--seed", type=int, default=1000)
    ap.add_argument("--count", type=int, default=13)
    args = ap.parse_args(argv)
    counts = []
    install_counters(counts)
    totals = dict.fromkeys(FIELDS, 0)
    print("%-8s %-3s %8s %8s %8s %8s" % (("seed", "fam") + FIELDS))
    for i in range(args.count):
        seed = 100 * args.seed + i
        ps = parse_instance(format_instance(
            generate_instance(args.n, args.k, args.dist, seed)))
        del counts[:]
        squares.max_rbsa(ps)
        for fam, c in zip("hv", counts):
            print("%-8d %-3s %8d %8d %8d %8d" % ((seed, fam) + tuple(c[f] for f in FIELDS)))
            for f in FIELDS:
                totals[f] += c[f]
    print("%-8s %-3s %8d %8d %8d %8d" % (("total", "") + tuple(totals[f] for f in FIELDS)))


if __name__ == "__main__":
    main()
