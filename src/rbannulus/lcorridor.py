"""Widest rainbow-bisecting empty L-corridor.

An L-corridor is the set difference of two nested axis-parallel quadrants
whose corners sit on a shared 45-degree diagonal, so both the vertical and
the horizontal part have the same width.  The solver works in a canonical
"down-right" frame (inside quadrant opens to the lower right) and reduces
the other three orientations to it by flipping coordinate signs.

Within one frame, every maximal corridor is pinned in one of two ways:
either its width equals the vertical gap between a point on the inner top
side and a point on the outer top side, or the mirrored statement holds for
the vertical sides.  The first family is found by an upward sweep that
keeps, for each candidate inner-top height, the widest placement of the
vertical part; the second family is the first one after reflecting the
plane across the antidiagonal (x, y) -> (-y, -x), which maps down-right
corridors to down-right corridors with the two roles exchanged.

The sweep visits the distinct heights bottom-up as the inner top side y_i,
activating each level's x-values in a GapTree.  Each canonical pass hands
``_sweep`` one table, which ``_arrays_setup`` builds with numpy, read by
level index: the level heights and each
level's first row, each level's two staircase bounds, the band tree, the
gap tree and the pass's splitter.  The loop leans on four primitives:

* the lower staircase (``_lower_breaks``, the heap walk, over the records
  numpy picks out in ``_lower_breaks_arrays``), read closed (corner height
  y <= y_i): the rightmost inner-corner x at height y_i that keeps the
  inside quadrant rainbow, -inf before the staircase starts;
* the upper staircase (``_upper_breaks_arrays``), read strict (corner
  height y < y_j): the leftmost outer-corner x at outer-top height y_j that
  keeps the outside region (left arm union everything above) rainbow.
  ``_staircase_bounds`` reads both once per level, for the loop and the
  chunk filter alike;
* ``MaxCoordTree.max_in_open_band``: the rightmost point strictly between
  the two heights, that is, in the rows of the levels between them, which
  the left side of the vertical part must clear;
* ``GapTree.query``: the widest x-gap among already-swept points inside
  the clamped interval, which decides whether the vertical part fits.

The sweep only asks whether a gap wider than its best width so far
exists, so it hands that width to the GapTree's inserts as a floor.  Once
every gap between active values is no wider than the floor, an insert
strictly inside their hull returns at once; a query still folds the tree,
and any answer it gives wider than the floor is exact.

Every pass is swept in chunks of ``_CHUNK`` levels, each handed to the
loop by the pass's splitter.  A pass of at most ``_CHUNK`` levels gets
``_EveryLevel``, which keeps every level with all its inserts: on so
short a pass the filter's numpy calls cost more than the levels they
reject save.  A longer pass gets ``_LevelFilter``, which looks at every
chunk, the first included.  For each chunk it evaluates, in one numpy
pass at the best width w at the chunk's start, two tests, each of which
shows that the per-level loop stops at a level's first candidate y_j
(the lowest level with y_j - y_i > w, stepped as the loop steps;
delta = y_j - y_i):

* the break test: hi - lo < delta, with the band maximum taken from a
  sparse table over the chunk's level maxima;
* the floor test: once no gap between the x-values inserted through the
  level is wider than w, only the two hull-end gaps can beat w, so the gap
  query fails when the hull meets (lo, hi) and both end gaps are shorter
  than delta.  The widest gap is bounded by the GapTree's own root, read
  with ``GapTree.root`` before the chunk, widened by the hull's growth
  inside it.  Before the first chunk the tree is empty, its hull grows
  without bound, and only the break test applies.

Only the levels where neither test holds go to the per-level loop, in
order, with the inserts before them.  The inserts the floor would skip
(strictly inside the hull of the earlier values, with no gap wider than
w) are dropped in numpy.

Both tests are monotone in w: a larger w moves the first candidate up,
which grows delta and lo and leaves hi as it is, and a hull stops meeting
(lo, hi) only once hi - lo has fallen below delta.  So a chunk filtered at
its starting width stays filtered while the best width rises inside it,
and nothing is recomputed on a raise.  The filter only compares values and
hands none to the loop, so the sign of a zero cannot matter there.  Where
a numpy value does reach an answer, the upper staircase's min x, a zero
min takes the sign of its color's first zero, as the row staircase in
``rbannulus.reference`` does; ``np.minimum.at`` would keep the last one.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right

import numpy as np

from .core import (
    DEFAULT_EPS,
    INF,
    L_ORIENTATIONS,
    LCorridor,
    PointSet,
    QUADRANT_SIGNS,
    _sorted_distinct,
    check_eps,
)

__all__ = [
    "MaxCoordTree",
    "GapTree",
    "max_rblc",
    "max_rblc_all",
]


def _upper_chain(max_y, min_x):
    # g's breakpoints from each color's max y and min x, colors in order
    pairs = sorted(zip(max_y, min_x))
    ts, vs = [], []
    run = -INF
    for t, v in pairs:
        if v > run:
            run = v
            if ts and ts[-1] == t:
                vs[-1] = run
            else:
                ts.append(t)
                vs.append(run)
    return ts, vs


def _lower_breaks(by_y, k):
    # Breakpoints of h(t) = min over colors of (max x among that color's
    # points with y <= t); -inf until every color has appeared.  Built in
    # one ascending pass over y-sorted (x, y, color) rows with a
    # lazy-deletion heap keyed by per-color max.
    maxx = [-INF] * (k + 1)
    seen = 0
    heap = []
    ts, vs = [], []
    i, n = 0, len(by_y)
    while i < n:
        y = by_y[i][1]
        while i < n and by_y[i][1] == y:
            x, _, c = by_y[i]
            if maxx[c] == -INF:
                seen += 1
            if x > maxx[c]:
                maxx[c] = x
                heapq.heappush(heap, (x, c))
            i += 1
        if seen == k:
            while heap[0][0] != maxx[heap[0][1]]:
                heapq.heappop(heap)
            v = heap[0][0]
            if not vs or v > vs[-1]:
                ts.append(y)
                vs.append(v)
    return ts, vs


def _lower_breaks_arrays(xs, ys, cs, rank, k):
    # _lower_breaks from the rows in (y, x) order as arrays, with rank the
    # dense rank of each x.  The walk changes nothing at a row unless it is
    # a "record": a row whose x beats every earlier x of its color.  numpy
    # finds the records (a running max of color * (n + 1) + rank over the
    # rows grouped by color), and the walk takes only them, in row order.
    # Each carries the height of its level's first row, the height the walk
    # over every row reports, down to the sign of a zero.
    n = len(xs)
    grp = np.argsort(cs, kind="stable")
    key = cs[grp].astype(np.int64) * (n + 1) + rank[grp]
    rec = np.empty(n, dtype=bool)
    rec[0] = True
    np.greater(key[1:], np.maximum.accumulate(key)[:-1], out=rec[1:])
    rows = np.sort(grp[rec])
    level_y = ys[np.searchsorted(ys, ys[rows])]
    return _lower_breaks(list(zip(xs[rows].tolist(), level_y.tolist(),
                                  cs[rows].tolist())), k)


def _upper_breaks_arrays(xs, ys, cs, k):
    # Breakpoints of g(T) = max{min-x of color c : max-y of color c < T}.
    # A color whose points all lie below the outer top side must reach the
    # left arm, so it forces the outer corner at least this far right.
    # Takes the points as arrays, in any order.  A max y is only ever
    # compared.  A min x other than zero is one float whichever row it
    # comes from; a zero takes the sign of the first of its color's rows,
    # in the order given, at zero.
    max_y = np.full(k + 1, -INF)
    np.maximum.at(max_y, cs, ys)
    min_x = np.full(k + 1, INF)
    np.minimum.at(min_x, cs, xs)
    zero = np.flatnonzero((xs == 0.0) & (min_x[cs] == 0.0))
    if len(zero):
        _, first = np.unique(cs[zero], return_index=True)
        min_x[cs[zero[first]]] = xs[zero[first]]
    return _upper_chain(max_y[1:].tolist(), min_x[1:].tolist())


class MaxCoordTree:
    """Static segment tree over rows, answering max-x on a run of them.
    Takes the rows' x as a sequence (a list or a numpy array) in row order.
    With the rows in increasing y, the rows strictly between two heights
    are a run, from the first row above the lower height to the first row
    at the upper one.  numpy builds the tree one level at a time."""

    __slots__ = ("_size", "_mx")

    def __init__(self, xs):
        n = len(xs)
        size = 1
        while size < max(n, 1):
            size *= 2
        self._size = size
        mx = np.full(2 * size, -INF)  # node v has children 2v and 2v + 1
        mx[size:size + n] = xs
        while size > 1:
            left, right = mx[size:2 * size:2], mx[size + 1:2 * size:2]
            # the left child on a tie, as max() does: a zero keeps its sign
            mx[size // 2:size] = np.where(right > left, right, left)
            size //= 2
        self._mx = mx.tolist()

    def max_in_open_band(self, lo: int, hi: int) -> float:
        """Max x over rows lo..hi-1, or -inf when there is none."""
        mx = self._mx
        best = -INF
        l = lo + self._size
        r = hi + self._size
        while l < r:
            if l & 1:
                if mx[l] > best:
                    best = mx[l]
                l += 1
            if r & 1:
                r -= 1
                if mx[r] > best:
                    best = mx[r]
            l >>= 1
            r >>= 1
        return best


class GapTree:
    """Activation tree over a fixed sorted universe of x-values.

    Values start inactive; ``insert`` activates one.  ``query(lo, hi)``
    returns the widest open interval free of active values inside
    [lo, hi], counting the two clamped boundary gaps, as
    ``(length, left, right)``.  Ties prefer the leftmost gap.  Active
    values sitting exactly at lo or hi never block (the corridor boundary
    is closed there).

    ``insert`` takes an optional ``floor``, for a caller that only needs
    gaps wider than it.  The floors a tree is given, over all its inserts
    in order, must never decrease.  Then a query answer longer than the
    last floor is exactly the answer without floors (same tuple, same
    leftmost tie), and any other answer has a length <= that floor.  The
    default floor, -inf, keeps every answer exact.

    ``root()`` reads the root node as ``(mn, mx, widest)``: the hull of
    the active values and the length of their widest inner gap, -inf
    while there is none.  The hull is exact whatever the floors, since an
    insert outside it is never skipped; ``widest`` is exact whenever it
    or the exact widest gap is longer than every floor given so far.
    """

    __slots__ = ("_xs", "_size", "_mn", "_mx", "_gl", "_gr")

    def __init__(self, xs):
        self._xs = list(xs)
        m = len(self._xs)
        size = 1
        while size < max(m, 1):
            size *= 2
        self._size = size
        self._mn = [INF] * (2 * size)
        self._mx = [-INF] * (2 * size)
        # a node's widest gap is gr - gl, -inf while it has none
        self._gl = [0.0] * (2 * size)
        self._gr = [-INF] * (2 * size)

    # Why the floor is safe.  Call a value "skipped" when insert returned
    # early for it.  It lay strictly inside the hull [mn, mx] of the active
    # values, in a gap (a, b) between two of them with b - a <= the root's
    # widest gap <= the floor of that call.  Inserts outside the hull are
    # never skipped, so the hull stays that of all inserted values, and a
    # and b stay active: whatever gap of the tree holds a skipped value
    # lies inside [a, b].  Rounding is monotone, so a sub-interval, or a
    # piece of it clamped to [lo, hi], is never wider than b - a, hence
    # never wider than any later floor.  The gaps wider than the floor are
    # therefore the same intervals, with the same stored endpoints, with
    # and without the skips; a skipped zero whose other sign arrives later
    # only ever bounds gaps inside its [a, b].  The fold computes a length
    # as the same difference of the same two values either way, so an
    # answer wider than the last floor is the exact one, and the leftmost
    # of the widest is the same gap.

    def insert(self, x: float, floor: float = -INF) -> None:
        mn, mx, gls, grs = self._mn, self._mx, self._gl, self._gr
        if mn[1] < x < mx[1] and grs[1] - gls[1] <= floor:
            return  # splits a gap no wider than the floor
        v = bisect_left(self._xs, x) + self._size
        if mn[v] == x:
            return  # already active: keep the first sign of a zero
        mn[v] = mx[v] = x
        v >>= 1
        while v:
            l = 2 * v
            r = l + 1
            lmx = mx[l]
            rmn = mn[r]
            mn[v] = mn[l] if mn[l] <= rmn else rmn
            mx[v] = lmx if lmx >= mx[r] else mx[r]
            gl, gr = gls[l], grs[l]
            g = gr - gl
            if lmx > -INF and rmn < INF:
                cross = rmn - lmx
                if cross > g:
                    g, gl, gr = cross, lmx, rmn
            if grs[r] - gls[r] > g:
                gl, gr = gls[r], grs[r]
            gls[v], grs[v] = gl, gr
            v >>= 1

    def root(self):
        return self._mn[1], self._mx[1], self._gr[1] - self._gl[1]

    def _range(self, li, ri):
        # fold tree nodes covering [li, ri] in left-to-right span order so
        # leftmost-gap ties resolve the same way a linear scan would
        l = li + self._size
        r = ri + 1 + self._size
        lefts = []
        rights = []
        while l < r:
            if l & 1:
                lefts.append(l)
                l += 1
            if r & 1:
                r -= 1
                rights.append(r)
            l >>= 1
            r >>= 1
        rights.reverse()
        mns, mxs, gls, grs = self._mn, self._mx, self._gl, self._gr
        mn, mx = INF, -INF
        g, gl, gr = -INF, 0.0, 0.0
        for v in lefts + rights:
            vmn = mns[v]
            if mx > -INF and vmn < INF:
                cross = vmn - mx
                if cross > g:
                    g, gl, gr = cross, mx, vmn
            vg = grs[v] - gls[v]
            if vg > g:
                g, gl, gr = vg, gls[v], grs[v]
            if vmn < mn:
                mn = vmn
            vmx = mxs[v]
            if vmx > mx:
                mx = vmx
        return mn, mx, g, gl, gr

    def query(self, lo: float, hi: float):
        li = bisect_right(self._xs, lo)
        ri = bisect_left(self._xs, hi) - 1
        if li > ri:
            return hi - lo, lo, hi
        mn, mx, g, gl, gr = self._range(li, ri)
        if mn == INF:
            return hi - lo, lo, hi
        best, bl, br = mn - lo, lo, mn
        if g > best:
            best, bl, br = g, gl, gr
        if hi - mx > best:
            best, bl, br = hi - mx, mx, hi
        return best, bl, br


# Levels per chunk of a pass.
_CHUNK = 256


def _staircase_bounds(level_ys, lower, upper):
    # Each level's two staircase bounds: the lower staircase at the level,
    # read closed (-inf before it starts), and the upper staircase strictly
    # below it (-inf up to its first corner).  Both the loop and the chunk
    # filter read them from here: each comes as a float array for the
    # filter and a list for the loop, which an object array fills with the
    # staircase's own floats, so a long pass makes no float per level.
    out = []
    for (ts, vs), side in ((lower, "right"), (upper, "left")):
        at = np.searchsorted(ts, level_ys, side)
        vs = [-INF] + vs
        out.append((np.array(vs)[at], np.array(vs, dtype=object)[at].tolist()))
    return out


class _LevelFilter:
    """Batched rejection of a sweep's levels, one chunk of levels at a time.

    ``split(a, b, w, gaps)`` looks at levels a..b-1 at width w and returns
    ``(kept, pending, rest)``.  ``gaps`` is the sweep's GapTree, handed
    every row before level a (an insert it skipped counts as handed) and
    none after, under floors no greater than w.  ``kept`` lists the levels
    where the per-level loop, run at any best width >= w, might get past
    its first candidate.  ``pending[i]`` holds the x-values to insert
    before level ``kept[i]`` is swept, ``rest`` those after the last kept
    level: the values, in row order, whose ``GapTree.insert`` call might
    activate one.  Every other level stops at its first candidate, and
    every other insert would be skipped under the floor.  The filter keeps
    no state between calls, so chunks may come in any order.
    """

    def __init__(self, xs, bounds, level_ys, his, los):
        # bounds: each level's first row, then the number of rows; his and
        # los: each level's staircase bounds, from _staircase_bounds
        self._xs = xs
        self._starts = bounds
        self._ly = level_ys
        self._hi, self._lo = his, los
        self._lmx = np.maximum.reduceat(xs, bounds[:-1])  # each level's max x

    def _band_max(self, l, r):
        # max of the level maxima over levels l..r-1, -inf where r <= l,
        # from a sparse table over the chunk's span of levels: row j holds
        # the max over 2**j levels from each start
        length = r - l
        out = np.full(len(l), -INF)
        top = int(length.max())
        if top <= 0:
            return out
        s0 = int(l[0])
        table = np.full((top.bit_length(), int(r.max()) - s0), -INF)
        table[0] = self._lmx[s0:s0 + table.shape[1]]
        for j in range(1, len(table)):
            h = 1 << (j - 1)
            np.maximum(table[j - 1, :-h], table[j - 1, h:], out=table[j, :-h])
        on = length > 0
        j = np.frexp(length[on])[1] - 1  # floor(log2(length))
        out[on] = np.maximum(table[j, l[on] - s0], table[j, r[on] - s0 - (1 << j)])
        return out

    # near the top of the float range a difference may overflow to inf,
    # the value the per-level loop's float arithmetic compares there
    @np.errstate(over="ignore", invalid="ignore")
    def split(self, a, b, w, gaps):
        ly = self._ly
        m = len(ly)
        p0, p1 = int(self._starts[a]), int(self._starts[b])
        xc = self._xs[p0:p1]
        # hull and widest inner gap of the rows before the chunk, then the
        # hull of the rows through each row of the chunk
        mn, mx, widest = gaps.root()
        cmn = np.minimum(np.minimum.accumulate(xc), mn)
        cmx = np.maximum(np.maximum.accumulate(xc), mx)

        # Test 1, the break test at the first candidate level lj
        yi = ly[a:b]
        lj = np.searchsorted(ly, yi + w, "right")
        while True:
            # step as the loop does while rounding leaves delta <= w
            step = lj < m
            step[step] = ly[lj[step]] - yi[step] <= w
            if not step.any():
                break
            lj += step
        hi = self._hi[a:b]
        keep = (lj < m) & (hi > -INF)
        lj = np.minimum(lj, m - 1)
        delta = ly[lj] - yi
        lo = np.maximum(self._lo[lj], self._band_max(np.arange(a + 1, b + 1), lj))
        keep &= hi - lo >= delta

        # Test 2, the floor test: once no inner gap beats w, only a
        # hull-end gap can beat it, so the query answers short of delta
        # when the hull meets (lo, hi) and both end gaps do.  Every
        # inner gap of the rows through the chunk's end is a piece of a gap
        # of the tree, or lies within [mx, cmx[-1]] or [cmn[-1], mn];
        # rounding is monotone, so none is longer than the max below.
        #
        # Why the tree's root is enough.  When split(a, ...) is called the
        # tree has been handed every row before chunk a, and the filter
        # drops only inserts that GapTree.insert would skip, never a value
        # outside the hull; so the tree is the one every insert would give,
        # and mn, mx is the exact hull.  By the tree's floor proof a gap
        # longer than a past floor, all of which are <= w, is an exact gap,
        # so widest <= w holds exactly when the true widest gap is <= w: the
        # test decides as it would on the sorted values themselves.
        ends = self._starts[a + 1:b + 1] - p0  # each level's end in xc
        if max(widest, cmx[-1] - mx, mn - cmn[-1]) <= w:
            lmn, lmx = cmn[ends - 1], cmx[ends - 1]
            left = np.where(lo < lmn, lmn - lo, -INF)
            right = np.where(lmx < hi, hi - lmx, -INF)
            keep &= ~((lmn < hi) & (lmx > lo) & (left < delta) & (right < delta))
            # insert's own skip: strictly inside the hull of earlier rows
            inside = (xc > np.concatenate(([mn], cmn[:-1]))) & (
                xc < np.concatenate(([mx], cmx[:-1])))
            rows = np.flatnonzero(~inside)
        else:
            rows = np.arange(p1 - p0)
        kept = np.flatnonzero(keep)
        ins = xc[rows].tolist()
        pending = []
        r = 0
        for end in np.searchsorted(rows, ends[kept]).tolist():
            pending.append(ins[r:end])
            r = end
        return (a + kept).tolist(), pending, ins[r:]


class _EveryLevel:
    """The splitter of a short pass: ``split(a, b, w, gaps)``, as
    ``_LevelFilter.split`` has it, keeping every level a..b-1 with all of
    its rows' x and leaving nothing for after the last."""

    __slots__ = ("_xs", "_bounds")

    def __init__(self, xs, bounds):
        # the rows' x, and each level's first row, then the number of rows
        self._xs, self._bounds = xs, bounds

    def split(self, a, b, w, gaps):
        xs, bounds = self._xs, self._bounds
        return range(a, b), [xs[bounds[l]:bounds[l + 1]] for l in range(a, b)], []


def _arrays_setup(pts, k):
    # The table of one canonical pass (see _sweep), from the points as x, y
    # and color arrays.  numpy sorts, groups and builds; the splitter is a
    # _LevelFilter on a pass of more than _CHUNK levels, else _EveryLevel.
    xs, ys, cs = pts
    upper = _upper_breaks_arrays(xs, ys, cs, k)
    order = np.lexsort((xs, ys))
    xs, ys, cs = xs[order], ys[order], cs[order]
    universe = _sorted_distinct(xs)
    lower = _lower_breaks_arrays(xs, ys, cs, np.searchsorted(universe, xs), k)
    fresh = np.empty(len(ys), dtype=bool)
    fresh[0] = True
    np.not_equal(ys[1:], ys[:-1], out=fresh[1:])
    starts = np.flatnonzero(fresh)
    bounds = np.append(starts, len(xs))
    level_ys = ys[starts]
    (hi_arr, his), (lo_arr, los) = _staircase_bounds(level_ys, lower, upper)
    bound_list = bounds.tolist()
    filt = (_LevelFilter(xs, bounds, level_ys, hi_arr, lo_arr)
            if len(starts) > _CHUNK else _EveryLevel(xs.tolist(), bound_list))
    return (level_ys.tolist(), bound_list, his, los, MaxCoordTree(xs),
            GapTree(universe.tolist()), filt)


def _sweep(table, eps):
    # One canonical pass: finds the widest down-right corridor whose width
    # is pinned by the y-gap between an inner-top point and an outer-top
    # point.  Returns (width, outer_x, outer_y) or None.  The table holds,
    # with the rows in (y, x) order: the level heights, each level's first
    # row and then the number of rows, each level's two staircase bounds
    # (the lists of _staircase_bounds), the MaxCoordTree over the rows' x,
    # the GapTree over their distinct x, and the splitter, whose
    # split(a, b, w, gaps) (see _LevelFilter) hands the loop each chunk's
    # levels and the values to insert.
    level_ys, bounds, his, los, band, gaps, filt = table
    m = len(level_ys)
    best = None
    w_best = eps
    for a in range(0, m, _CHUNK):
        kept, pending, rest = filt.split(a, min(a + _CHUNK, m), w_best, gaps)
        for li, xs_in in zip(kept, pending):
            # w_best is the GapTree floor: only gaps wider than it can
            # win, and it never decreases, as the floor must not
            for x in xs_in:
                gaps.insert(x, w_best)
            hi = his[li]
            if hi == -INF:
                continue  # no inside quadrant at this height is rainbow
            y_i = level_ys[li]
            lj = li
            while (lj := bisect_right(level_ys, y_i + w_best, lj + 1)) < m:
                y_j = level_ys[lj]
                delta = y_j - y_i
                if delta == INF:
                    break  # overflowed, as at every higher level: no witness
                if delta <= w_best:
                    # float rounding can land y_i + w_best short of the
                    # level just used: the search from the next level
                    # steps to it, until the width strictly improves
                    continue
                lo = los[lj]
                mid = band.max_in_open_band(bounds[li + 1], bounds[lj])
                if mid > lo:
                    lo = mid
                if hi - lo < delta:
                    break
                length, gl, gr = gaps.query(lo, hi)
                if length < delta:
                    # Raising y_j only grows delta and pushes lo rightward
                    # while hi stays put, so later candidates fail too.
                    break
                outer_x = gl if gl > -INF else gr - delta
                best = (delta, outer_x, y_j)
                w_best = delta
        for x in rest:
            gaps.insert(x, w_best)
    return best


def max_rblc(pointset: PointSet, orientation: str, eps: float = DEFAULT_EPS):
    """Widest rainbow-bisecting empty L-corridor with a fixed orientation.

    Runs the canonical sweep twice, once on the sign-normalized points and
    once after reflecting them across the antidiagonal, which exchanges the
    two ways a maximal corridor can be pinned.  Returns None if no corridor
    wider than eps exists.  Raises ValueError unless eps >= 0, or for an
    orientation outside L_ORIENTATIONS.
    """
    check_eps(eps)
    if orientation not in L_ORIENTATIONS:
        raise ValueError("bad orientation %r" % orientation)
    sx, sy = QUADRANT_SIGNS[orientation]
    xs, ys, cs = sx * pointset.xs, sy * pointset.ys, pointset.cs
    best = None

    hit = _sweep(_arrays_setup((xs, ys, cs), pointset.k), eps)
    if hit is not None:
        delta, ox, oy = hit
        best = LCorridor(orientation, sx * ox, sy * oy, delta)

    # the second pass reflects the first across the antidiagonal,
    # (x, y) -> (-y, -x)
    hit = _sweep(_arrays_setup((-ys, -xs, cs), pointset.k), eps)
    if hit is not None and (best is None or hit[0] > best.width):
        delta, ox, oy = hit
        # undo the antidiagonal reflection, then the sign flips
        best = LCorridor(orientation, sx * -oy, sy * -ox, delta)
    return best


def max_rblc_all(pointset: PointSet, eps: float = DEFAULT_EPS):
    """Widest rainbow-bisecting empty L-corridor over all four orientations."""
    best = None
    for orientation in L_ORIENTATIONS:
        cand = max_rblc(pointset, orientation, eps)
        if cand is not None and (best is None or cand.width > best.width):
            best = cand
    return best
