"""Hash every solver's answers on a fixed tie-heavy corpus.

Usage: python3 tools/answers.py [--count 300] [--seed 0] [--dump PATH]

The corpus has --count base instances, k in 1..3 and n in 2k..24, of
four kinds in turn: integer grid points in [0, 8]^2, coordinates picked
from {-0.0, 0.0, 1.0, 2.0, -3.0}, one-decimal reals in [-1, 1] and
two-decimal reals in [-1, 1].  About a third repeat some of their points,
and every base instance comes with a copy scaled by 1e6 and moved by
(3e6, -1e6).  Base instance i with i % 75 == 74 also brings a long
instance, `generate_instance(n, 3, dist, i)` with n 300 or 1,500 in turn
and dist uniform for two long instances, then clusters for two, each
followed by a copy snapped to a 1/50 grid and one with about a tenth of
its coordinates set to -0.0 or 0.0: L-corridor passes longer than one
chunk of levels, and square decisions over many chunks of pairs.  Each
instance is solved at eps 1e-9 and at eps 0 by

  max_rbes        vertical and horizontal
  max_rblc_all
  max_rblc        each of the four orientations, so that a change in
                  one pass shows even where the best of four hides it
  max_rbsa        only where n <= 300
  max_rbra        only on base instances (n <= 48)
  max_rbca        only where n <= 16
  max_rbca_on_line  on the line of slope -0.3 through the first point,
                  only where n <= 16

The script prints a `#` line with the Python and numpy versions and the
arguments, then, per solver, the number of answers and the sha256 of
their repr strings, one per line, then the same over every answer on a
`total` line.  Two checkouts whose total lines match gave the same
widths, witnesses and signs of zero on the whole corpus.  --dump PATH
also writes one line per answer to PATH: instance index, solver, eps and
repr, tab-separated, so that the dumps of two checkouts diff line by
line.  tests/answers_count150.txt is this script's output at --count 150,
and a Tier-1 test compares the running code with it.  Standard library
and numpy only.
"""

import argparse
import hashlib
import os
import platform
import random
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "src"))

from rbannulus import (L_ORIENTATIONS, Line, PointSet, generate_instance,  # noqa: E402
                       max_rbca, max_rbca_on_line, max_rbes, max_rblc,
                       max_rblc_all, max_rbra, max_rbsa)

SOLVERS = {
    "max_rbes vertical": lambda ps, eps: max_rbes(ps, "vertical", eps),
    "max_rbes horizontal": lambda ps, eps: max_rbes(ps, "horizontal", eps),
    "max_rblc_all": max_rblc_all,
    **{"max_rblc " + o: lambda ps, eps, o=o: max_rblc(ps, o, eps)
       for o in L_ORIENTATIONS},
    "max_rbsa": max_rbsa,
    "max_rbra": max_rbra,
    "max_rbca": max_rbca,
    "max_rbca_on_line": lambda ps, eps: max_rbca_on_line(
        ps, Line(0.3, 1.0, 0.3 * ps.points[0].x + ps.points[0].y), eps),
}
# the largest n a solver runs at; the others run on every instance
MAX_N = {"max_rbsa": 300, "max_rbra": 48, "max_rbca": 16, "max_rbca_on_line": 16}
PICKS = (-0.0, 0.0, 1.0, 2.0, -3.0)
LONG = 75  # one long instance per this many base instances


def long_instances(i):
    """The long instance of base instance i and its two copies."""
    j = i // LONG
    ps = generate_instance((300, 1500)[j % 2], 3, ("uniform", "clusters")[j // 2 % 2], i)
    rows = [(p.x, p.y, p.color) for p in ps.points]
    rng = random.Random(i)

    def pick(v):
        return rng.choice((-0.0, 0.0)) if rng.random() < 0.1 else v

    yield ps
    yield PointSet.build([(round(x * 50) / 50, round(y * 50) / 50, c) for x, y, c in rows], 3)
    yield PointSet.build([(pick(x), pick(y), c) for x, y, c in rows], 3)


def corpus(count, seed):
    """The base instances, each followed by its moved copy and, every
    LONG instances, by a long instance and its copies."""
    rng = random.Random(seed)
    for i in range(count):
        k = rng.randint(1, 3)
        n = rng.randint(2 * k, 24)
        colors = [1 + j % k for j in range(n)]
        rng.shuffle(colors)
        kind = i % 4
        if kind == 0:
            coords = [(rng.randint(0, 8), rng.randint(0, 8)) for _ in colors]
        elif kind == 1:
            coords = [(rng.choice(PICKS), rng.choice(PICKS)) for _ in colors]
        else:
            coords = [(round(rng.uniform(-1, 1), kind - 1),
                       round(rng.uniform(-1, 1), kind - 1)) for _ in colors]
        rows = [(float(x), float(y), c) for (x, y), c in zip(coords, colors)]
        if rng.random() < 0.3:
            rows += rows[:rng.randint(1, n)]
        yield PointSet.build(rows, k)
        yield PointSet.build([(x * 1e6 + 3e6, y * 1e6 - 1e6, c)
                              for x, y, c in rows], k)
        if i % LONG == LONG - 1:
            yield from long_instances(i)


def digests(count, seed, dump=None):
    """{solver: (answers, sha256 hex)}, and the same over every answer
    under "total".  Each answer hashes as its repr and a newline; dump, an
    open text file or None, takes one line per answer."""
    hashes = {name: hashlib.sha256() for name in SOLVERS}
    counts = dict.fromkeys(SOLVERS, 0)
    total = hashlib.sha256()
    for index, ps in enumerate(corpus(count, seed)):
        for eps in (1e-9, 0.0):
            for name, solve in SOLVERS.items():
                if ps.n > MAX_N.get(name, ps.n):
                    continue
                answer = repr(solve(ps, eps))
                line = (answer + "\n").encode()
                hashes[name].update(line)
                total.update(line)
                counts[name] += 1
                if dump is not None:
                    dump.write("%d\t%s\t%r\t%s\n" % (index, name, eps, answer))
    out = {name: (counts[name], hashes[name].hexdigest()) for name in SOLVERS}
    out["total"] = (sum(counts.values()), total.hexdigest())
    return out


def versions():
    return "python %s numpy %s" % (platform.python_version(), np.__version__)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--count", type=int, default=300)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--dump", help="write one line per answer to this file")
    args = ap.parse_args(argv)
    if args.dump is None:
        got = digests(args.count, args.seed)
    else:
        with open(args.dump, "w") as dump:
            got = digests(args.count, args.seed, dump)
    print("# %s count %d seed %d" % (versions(), args.count, args.seed))
    for name, (n, digest) in got.items():
        print("%-20s %7d  %s" % (name, n, digest))


if __name__ == "__main__":
    main()
