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
activating each level's x-values in a GapTree, and leans on four
primitives:

* ``_lower_breaks``: breakpoints of the lower staircase, read closed
  (``bisect_right``, corner height y <= y_i): the rightmost inner-corner x
  at height y_i that keeps the inside quadrant rainbow;
* ``_upper_breaks``: breakpoints of the upper staircase, read strict
  (``bisect_left``, corner height y < y_j): the leftmost outer-corner x at
  outer-top height y_j that keeps the outside region (left arm union
  everything above) rainbow;
* ``MaxCoordTree.max_in_open_band``: the rightmost point strictly between
  the two heights, which the left side of the vertical part must clear;
* ``GapTree.query``: the widest x-gap among already-swept points inside
  the clamped interval, which decides whether the vertical part fits.

The sweep only asks whether a gap wider than its best width so far
exists, so it hands that width to the GapTree as a floor.  Once every gap
between active values is no wider than the floor, an insert strictly
inside their hull returns at once and a query is answered in O(1) from the
two hull ends; otherwise an insert or a gap query costs O(log n), as does
every band lookup.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right

from .core import (
    DEFAULT_EPS,
    INF,
    L_ORIENTATIONS,
    LCorridor,
    PointSet,
    QUADRANT_SIGNS,
    check_eps,
)

__all__ = [
    "MaxCoordTree",
    "GapTree",
    "max_rblc",
    "max_rblc_all",
]


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


def _upper_breaks(tp, k):
    # Breakpoints of g(T) = max{min-x of color c : max-y of color c < T}.
    # A color whose points all lie below the outer top side must reach the
    # left arm, so it forces the outer corner at least this far right.
    max_y = [-INF] * (k + 1)
    min_x = [INF] * (k + 1)
    for x, y, c in tp:
        if y > max_y[c]:
            max_y[c] = y
        if x < min_x[c]:
            min_x[c] = x
    pairs = sorted((max_y[c], min_x[c]) for c in range(1, k + 1))
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


class MaxCoordTree:
    """Static segment tree over points ordered by y, answering max-x on an
    open y-band.  Takes rows that start (x, y), already in increasing (y, x)
    order; it does not sort them and ignores further fields."""

    __slots__ = ("_ys", "_size", "_mx")

    def __init__(self, items):
        rows = list(items)
        self._ys = [r[1] for r in rows]
        n = len(rows)
        size = 1
        while size < max(n, 1):
            size *= 2
        self._size = size
        mx = self._mx = [-INF] * (2 * size)
        for leaf, row in enumerate(rows):
            mx[size + leaf] = row[0]
        for v in range(size - 1, 0, -1):
            mx[v] = max(mx[2 * v], mx[2 * v + 1])

    def max_in_open_band(self, y_lo: float, y_hi: float) -> float:
        """Max x over points with y_lo < y < y_hi, or -inf."""
        lo = bisect_right(self._ys, y_lo)
        hi = bisect_left(self._ys, y_hi)
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

    Both methods take an optional ``floor``, for a caller that only needs
    gaps wider than it.  The floors a tree is given, over all its insert
    and query calls in order, must never decrease.  Then a query answer
    longer than its floor is exactly the answer without floors (same
    tuple, same leftmost tie), and any other answer has a length <= the
    floor.  The default floor, -inf, keeps every answer exact.
    """

    __slots__ = ("_xs", "_size", "_mn", "_mx", "_gl", "_gr", "_index")

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
        self._index = {x: i for i, x in enumerate(self._xs)}

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
    # only ever bounds gaps inside its [a, b].  The fold and the hull ends
    # compute a length as the same difference of the same two values, so
    # an answer wider than the floor is the exact one, and the leftmost of
    # the widest is the same gap.

    def insert(self, x: float, floor: float = -INF) -> None:
        mn, mx, gls, grs = self._mn, self._mx, self._gl, self._gr
        if mn[1] < x < mx[1] and grs[1] - gls[1] <= floor:
            return  # splits a gap no wider than the floor
        v = self._index[x] + self._size
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

    def query(self, lo: float, hi: float, floor: float = -INF):
        if self._gr[1] - self._gl[1] <= floor:
            # Every gap between active values is no wider than the floor,
            # so only the two clamped end gaps can beat it.  When the hull
            # meets (lo, hi), mn is the first wall after lo if lo < mn,
            # and mx the last before hi if mx < hi; any other gap inside
            # [lo, hi] is a piece of an inner gap.  -inf stands for "no
            # end gap".  With the default floor this runs only while at
            # most one value is active, where it is exact.
            mn, mx = self._mn[1], self._mx[1]
            if mn < hi and mx > lo:
                best, bl, br = -INF, lo, hi
                if lo < mn:
                    best, bl, br = mn - lo, lo, mn
                if mx < hi and hi - mx > best:
                    best, bl, br = hi - mx, mx, hi
                return best, bl, br
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


def _sweep(tp, k, eps):
    # One canonical pass: finds the widest down-right corridor whose width
    # is pinned by the y-gap between an inner-top point and an outer-top
    # point.  Returns (width, outer_x, outer_y) or None.
    by_y = sorted(tp, key=lambda p: (p[1], p[0]))
    sb_t, sb_v = _lower_breaks(by_y, k)
    if not sb_t:
        return None
    st_t, st_v = _upper_breaks(tp, k)
    band = MaxCoordTree(by_y)
    gaps = GapTree(sorted({p[0] for p in tp}))

    level_ys = []
    level_xs = []
    for x, y, _ in by_y:
        if level_ys and level_ys[-1] == y:
            level_xs[-1].append(x)
        else:
            level_ys.append(y)
            level_xs.append([x])
    m = len(level_ys)

    best = None
    w_best = eps
    for li in range(m):
        y_i = level_ys[li]
        # w_best is the GapTree floor: only gaps wider than it can win,
        # and it never decreases, as the floor must not
        for x in level_xs[li]:
            gaps.insert(x, w_best)
        cut = bisect_right(sb_t, y_i)
        if cut == 0:
            continue
        hi = sb_v[cut - 1]
        lj = bisect_right(level_ys, y_i + w_best)
        while lj < m:
            y_j = level_ys[lj]
            delta = y_j - y_i
            if delta <= w_best:
                # float rounding can land y_i + w_best short of the level
                # just used; step until the width strictly improves
                lj += 1
                continue
            gcut = bisect_left(st_t, y_j)
            lo = st_v[gcut - 1] if gcut > 0 else -INF
            mid = band.max_in_open_band(y_i, y_j)
            if mid > lo:
                lo = mid
            if hi - lo < delta:
                break
            length, gl, gr = gaps.query(lo, hi, w_best)
            if length < delta:
                # Raising y_j only grows delta and pushes lo rightward
                # while hi stays put, so later candidates fail too.
                break
            outer_x = gl if gl > -INF else gr - delta
            best = (delta, outer_x, y_j)
            w_best = delta
            lj = bisect_right(level_ys, y_i + w_best, lj + 1)
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
    pts = [(sx * p.x, sy * p.y, p.color) for p in pointset.points]
    best = None

    hit = _sweep(pts, pointset.k, eps)
    if hit is not None:
        delta, ox, oy = hit
        best = LCorridor(orientation, sx * ox, sy * oy, delta)

    anti = [(-y, -x, c) for x, y, c in pts]
    hit = _sweep(anti, pointset.k, eps)
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
