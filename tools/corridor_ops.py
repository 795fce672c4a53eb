"""Count the GapTree operations the L-corridor sweep makes, per instance.

Usage: python3 tools/corridor_ops.py [--n 16000] [--k 3] [--dist uniform]
                                     [--seed 1000] [--count 3]

Instance i is `rbannulus gen --seed 100*seed+i`, loaded through
format_instance and parse_instance as the CLI loads it, so the defaults
give perfbench's corridor-large pool.  Each instance is solved once with
max_rblc_all (four orientations, two sweeps each).  Per instance the
script prints

  calls      GapTree.insert calls.  A pass calls it for every point of
             its first lcorridor._CHUNK levels, and after them only for
             the values its chunk filter could not show insert would
             skip.
  activated  of those, the calls that activated a value in the tree; the
             rest were skipped under the floor or repeated a value
  queries    GapTree.query calls
  folded     of those, the queries the tree fold answered (GapTree._range);
             the rest had no universe value inside the interval

It counts by wrapping GapTree's methods in this process; the solver itself
keeps no counter.  Standard library only.
"""

import argparse
import os
import sys
from bisect import bisect_left

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "src"))

from rbannulus import INF  # noqa: E402
from rbannulus.instances import (format_instance, generate_instance,  # noqa: E402
                                 parse_instance)
from rbannulus.lcorridor import GapTree, max_rblc_all  # noqa: E402

FIELDS = ("calls", "activated", "queries", "folded")


def install_counters(counts):
    """Wrap GapTree.insert, GapTree.query and GapTree._range."""
    insert, query, fold = GapTree.insert, GapTree.query, GapTree._range

    def counted_insert(self, x, *floor):
        leaf = bisect_left(self._xs, x) + self._size
        was = self._mn[leaf]
        insert(self, x, *floor)
        counts["calls"] += 1
        counts["activated"] += was == INF and self._mn[leaf] != INF

    def counted_query(self, *args):
        counts["queries"] += 1
        return query(self, *args)

    def counted_fold(self, *args):
        counts["folded"] += 1
        return fold(self, *args)

    GapTree.insert, GapTree.query = counted_insert, counted_query
    GapTree._range = counted_fold


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n", type=int, default=16000)
    ap.add_argument("--k", type=int, default=3)
    ap.add_argument("--dist", default="uniform")
    ap.add_argument("--seed", type=int, default=1000)
    ap.add_argument("--count", type=int, default=3)
    args = ap.parse_args(argv)
    counts = dict.fromkeys(FIELDS, 0)
    install_counters(counts)
    totals = dict.fromkeys(FIELDS, 0)
    print("%-8s %10s %10s %10s %10s" % (("seed",) + FIELDS))
    for i in range(args.count):
        seed = 100 * args.seed + i
        ps = parse_instance(format_instance(
            generate_instance(args.n, args.k, args.dist, seed)))
        counts.update(dict.fromkeys(FIELDS, 0))
        max_rblc_all(ps)
        print("%-8d %10d %10d %10d %10d" % ((seed,) + tuple(counts[f] for f in FIELDS)))
        for f in FIELDS:
            totals[f] += counts[f]
    print("%-8s %10d %10d %10d %10d" % (("total",) + tuple(totals[f] for f in FIELDS)))


if __name__ == "__main__":
    main()
