"""Count what a solver does on perfbench's pools, per instance.

Usage: python3 tools/counts.py square   [--n 120] [--k 3] [--dist uniform]
                                        [--seed 1000] [--count 13]
       python3 tools/counts.py circle   [--n 30] [--k 3] [--dist rings]
                                        [--line "x-y=0"] [--seed 1000]
                                        [--count 22]
       python3 tools/counts.py corridor [--n 16000] [--k 3] [--dist uniform]
                                        [--seed 1000] [--count 3]

Instance i is `rbannulus gen --seed 100*seed+i`, loaded through
format_instance and parse_instance as the CLI loads it, so each
subcommand's defaults give a perfbench pool: square-uniform, circle-rings
and corridor-large, and `circle --n 160 --line "x-y=0" --count 16` gives
circle-line.  Each instance is solved once, and the script prints one row
of counts per instance and a `total` row.

square: max_rbsa, one row per pair family of the bounded search (h: the
input frame, v: x and y swapped)

  pairs    pinned pairs (_pinned), before the band filter
  table    rows of the pair table (_pairs): the pinned pairs the band
           filter (_may_reach) keeps at the family's floor, which the
           search takes in decreasing r.  At a floor of -inf nothing is
           filtered.
  kept     pairs the color-free decision keeps (_reaching), summed over
           its rounds
  scanned  pairs _scan_segment runs on

circle: max_rbca, or max_rbca_on_line when --line is given; a last line
gives the shares of the centres screened and scored exactly

  centres   candidate centres the search takes (_pick_best)
  screened  rows _screen scores, over all its calls
  pruned    cells skipped whole: those whose _cell_bounds bound is below
            t_lo - _FINALIST_SLACK, t_lo being the best lower bound
            w - e > eps of the rows screened before them
  exact     rows _batch_widths scores

corridor: max_rblc_all (four orientations, two sweeps each)

  levels     levels of every pass, a chunk at a time, as the pass's
             splitter sees them: lcorridor._LevelFilter on a pass of more
             than lcorridor._CHUNK levels, else lcorridor._EveryLevel
  kept       of those, the levels the splitter hands the per-level loop
             (all of them on a short pass)
  calls      GapTree.insert calls: every point of a short pass, and on a
             long one only the values its chunk filter could not show
             insert would skip
  activated  of those, the calls that activated a value in the tree; the
             rest were skipped under the floor or repeated a value
  queries    GapTree.query calls
  folded     of those, the queries the tree fold answered (GapTree._range);
             the rest had no universe value inside the interval

It counts by wrapping the solvers' private functions in this process; the
solvers themselves keep no counter.  Standard library and numpy only.
"""

import argparse
import os
import sys
from bisect import bisect_left
from collections import Counter

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "src"))

from rbannulus import INF, circles, squares  # noqa: E402
from rbannulus.cli import parse_line_spec  # noqa: E402
from rbannulus.instances import (format_instance, generate_instance,  # noqa: E402
                                 parse_instance)
from rbannulus.lcorridor import (GapTree, _EveryLevel, _LevelFilter,  # noqa: E402
                                 max_rblc_all)


def square(counts, args):
    """Wrap the private functions of squares; counts[-1] is the family
    being searched."""
    pairs, c3_family = squares._pairs, squares._c3_family
    scan, reaching, pinned = squares._scan_segment, squares._reaching, squares._pinned

    def family(*args):
        counts.append(Counter())
        return c3_family(*args)

    def pinned_block(*args):
        block = pinned(*args)
        counts[-1]["pairs"] += len(block[0])
        return block

    def table(*args):
        out = pairs(*args)
        counts[-1]["table"] += len(out[0])
        return out

    def decide(*args):
        keep = reaching(*args)
        counts[-1]["kept"] += int(keep.sum())
        return keep

    def scanned(*args):
        counts[-1]["scanned"] += 1
        return scan(*args)

    squares._c3_family, squares._pairs = family, table
    squares._scan_segment, squares._reaching = scanned, decide
    squares._pinned = pinned_block
    return squares.max_rbsa


def circle(counts, args):
    """Wrap the private functions of circles; counts[-1] is the search
    being run, and its "t_lo" the best lower bound screened so far."""
    pick, screen, batch = circles._pick_best, circles._screen, circles._batch_widths
    cell_bounds = circles._cell_bounds

    def picked(ps, xs, ys, eps):
        counts.append(Counter(centres=len(xs), t_lo=-INF))
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
    if args.line is None:
        return circles.max_rbca
    line = parse_line_spec(args.line)
    return lambda ps: circles.max_rbca_on_line(ps, line)


def corridor(counts, args):
    """Wrap both splitters' split, GapTree.insert, GapTree.query and
    GapTree._range; counts[-1] is the instance being solved."""
    insert, query, fold = GapTree.insert, GapTree.query, GapTree._range

    def counted(split):
        def counted_split(self, a, b, *args):
            got = split(self, a, b, *args)
            counts[-1]["levels"] += b - a
            counts[-1]["kept"] += len(got[0])
            return got
        return counted_split

    def counted_insert(self, x, *floor):
        leaf = bisect_left(self._xs, x) + self._size
        was = self._mn[leaf]
        insert(self, x, *floor)
        counts[-1]["calls"] += 1
        counts[-1]["activated"] += was == INF and self._mn[leaf] != INF

    def counted_query(self, *args):
        counts[-1]["queries"] += 1
        return query(self, *args)

    def counted_fold(self, *args):
        counts[-1]["folded"] += 1
        return fold(self, *args)

    def solve(ps):
        counts.append(Counter())
        max_rblc_all(ps)

    for splitter in (_LevelFilter, _EveryLevel):
        splitter.split = counted(splitter.split)
    GapTree.insert, GapTree.query = counted_insert, counted_query
    GapTree._range = counted_fold
    return solve


# subcommand: wrappers; default n, dist and count; the header, whose
# columns before the fields label each row; the labels of the rows one
# solve prints, one per entry of counts; the row format
SHAPES = {
    "square": (square, 120, "uniform", 13,
               ("seed", "fam", "pairs", "table", "kept", "scanned"),
               (("h",), ("v",)), "%-8s %-3s" + " %8s" * 4),
    "circle": (circle, 30, "rings", 22,
               ("seed", "centres", "screened", "pruned", "exact"),
               ((),), "%-8s %9s %9s %8s %8s"),
    "corridor": (corridor, 16000, "uniform", 3,
                 ("seed", "levels", "kept", "calls", "activated", "queries",
                  "folded"),
                 ((),), "%-8s" + " %10s" * 6),
}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="shape", required=True)
    for name, (_, n, dist, count, *_) in SHAPES.items():
        p = sub.add_parser(name)
        p.add_argument("--n", type=int, default=n)
        p.add_argument("--k", type=int, default=3)
        p.add_argument("--dist", default=dist)
        if name == "circle":
            p.add_argument("--line", default=None,
                           help='constrain centres to "ax+by=c" (max_rbca_on_line)')
        p.add_argument("--seed", type=int, default=1000)
        p.add_argument("--count", type=int, default=count)
    args = ap.parse_args(argv)
    install, _, _, _, head, labels, row = SHAPES[args.shape]
    fields = head[1 + len(labels[0]):]
    counts = []
    solve = install(counts, args)
    totals = Counter()
    print(row % head)
    for i in range(args.count):
        seed = 100 * args.seed + i
        ps = parse_instance(format_instance(
            generate_instance(args.n, args.k, args.dist, seed)))
        del counts[:]
        solve(ps)
        for label, c in zip(labels, counts):
            print(row % ((seed,) + label + tuple(c[f] for f in fields)))
            totals.update({f: c[f] for f in fields})
    print(row % (("total",) + ("",) * len(labels[0]) + tuple(totals[f] for f in fields)))
    if args.shape == "circle" and totals["centres"]:
        print("screened %.1f%% of centres, scored %.4f%% exactly"
              % (100.0 * totals["screened"] / totals["centres"],
                 100.0 * totals["exact"] / totals["centres"]))


if __name__ == "__main__":
    main()
