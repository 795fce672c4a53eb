"""Widest rainbow-bisecting empty square annulus.

A maximal square annulus falls into one of three shapes: unbounded on all
but one side (a strip in disguise), unbounded on two adjacent sides (an
L-corridor in disguise), or genuinely bounded with points pinning two
opposite outer sides.  The first two reduce to the strip and corridor
solvers; the bounded case is searched directly here.

For a pinned pair p_i (bottom outer side) and p_j (top outer side) the
outer radius is forced to half their y-gap and the center is confined to a
horizontal segment (c3_center_segment).  Sliding the center along that
segment, the inner radius is the largest L-inf distance to a point
strictly inside the outer square, a piecewise-linear function whose pieces
change only where a point enters or leaves through the vertical sides.
best_annulus_on_segment scans the segment in one pass over the x-ordered
points strictly between the two pinning y values: in increasing center
position it visits every such breakpoint and, between two of them, the
midpoint of the extreme inside x-coordinates.  The bounded solver bounds
the width of every pinned pair from above, with one numpy pass per bottom
point, and runs the same per-pair search on the pairs in decreasing bound
until no remaining bound can reach the best width found.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from operator import itemgetter

import numpy as np

from .core import (DEFAULT_EPS, INF, QUADRANT_SIGNS, PointSet, SquareAnnulus,
                   check_eps)
from .lcorridor import max_rblc_all
from .strips import max_rbes

__all__ = [
    "c3_center_segment",
    "best_annulus_on_segment",
    "max_rbsa_c3",
    "max_rbsa",
]


def _xy(p):
    if hasattr(p, "x"):
        return float(p.x), float(p.y)
    return float(p[0]), float(p[1])


def c3_center_segment(p_i, p_j):
    """Where the center of an outer square pinned by p_i (bottom side) and
    p_j (top side) may sit.

    Returns (a, b, r): the segment endpoints a, b on the horizontal
    midline and the outer radius r, or None when the x-gap between the two
    points exceeds the side length so no square touches both.
    """
    xi, yi = _xy(p_i)
    xj, yj = _xy(p_j)
    if not yi < yj:
        raise ValueError("bottom point must be strictly below top point")
    r = (yj - yi) / 2.0
    y0 = (yi + yj) / 2.0
    ax = max(xi, xj) - r
    bx = min(xi, xj) + r
    if ax > bx:
        return None
    return (ax, y0), (bx, y0), r


def _strip(by_y, y_lo, y_hi):
    # the (x, y, color) rows lying strictly between the two pinning y
    # values, in increasing x, as three parallel lists.  by_y is in
    # increasing y and, among equal y, in the order of the x sort (by_x),
    # so the rows are a contiguous run of it, and a stable sort by x puts
    # them in by_x order, ties and the sign of each zero included.
    y = itemgetter(1)
    lo = bisect_right(by_y, y_lo, key=y)
    hi = bisect_left(by_y, y_hi, lo, key=y)
    rows = sorted(by_y[lo:hi], key=itemgetter(0))
    return [p[0] for p in rows], [p[1] for p in rows], [p[2] for p in rows]


def _scan_segment(xs, ys, cols, totals, k, y0, r, ax, bx, eps):
    # xs/ys/cols: the strip in increasing x.  Slides the center (t, y0)
    # over [ax, bx] and returns the best (width, t), or None.  One pass
    # visits, in increasing t, each breakpoint (ax, bx and every x - r or
    # x + r between them, where a point enters or leaves the outer square)
    # and, inside each interval between two breakpoints, the t that
    # centers the interval's window of inside points.  As t only grows,
    # the first maximum met has the smallest t.  The state is the window
    # [wl, wr] of the points with t - r < x < t + r: both ends only move
    # right, by comparison, so the color counters and the monotone deque
    # of |y - y0| update in O(1) amortized per point.  The probe that
    # finds an interval's centering t reads ahead on copies of wl and wr,
    # so every visited t is scored on its own window.
    npts = len(xs)
    bps = {ax, bx}
    for x in xs:
        for t in (x - r, x + r):
            if ax < t < bx:
                bps.add(t)
    in_cnt = [0] * (k + 1)
    inside_present = 0
    outside_present = k
    wl, wr = 0, -1
    dq = deque()  # (|y - y0|, index) of window points, first entries decreasing
    best = None
    a = None
    for b in sorted(bps):
        ts = (b,)
        if a is not None:
            probe = (a + b) / 2.0
            lo, hi = wl, wr
            while hi + 1 < npts and xs[hi + 1] < probe + r:
                hi += 1
            while lo < npts and xs[lo] <= probe - r:
                lo += 1
            if lo <= hi:
                mid = (xs[lo] + xs[hi]) / 2.0
                if a < mid < b:
                    ts = (mid, b)
        a = b
        for t in ts:
            while wr + 1 < npts and xs[wr + 1] < t + r:
                wr += 1
                c = cols[wr]
                in_cnt[c] += 1
                if in_cnt[c] == 1:
                    inside_present += 1
                if in_cnt[c] == totals[c]:
                    outside_present -= 1
                d = abs(ys[wr] - y0)
                while dq and dq[-1][0] <= d:
                    dq.pop()
                dq.append((d, wr))
            while wl < npts and xs[wl] <= t - r:
                c = cols[wl]
                if in_cnt[c] == totals[c]:
                    outside_present += 1
                in_cnt[c] -= 1
                if in_cnt[c] == 0:
                    inside_present -= 1
                wl += 1
            while dq and dq[0][1] < wl:
                dq.popleft()
            if wl > wr:
                continue
            if inside_present < k or outside_present < k:
                continue
            r_in = dq[0][0]
            if t - xs[wl] > r_in:
                r_in = t - xs[wl]
            if xs[wr] - t > r_in:
                r_in = xs[wr] - t
            w = r - r_in
            if w > eps and (best is None or w > best[0]):
                best = (w, t)
    return best


def _square(w, cx, cy, r):
    return SquareAnnulus(cx - r, cx + r, cy - r, cy + r, w)


def best_annulus_on_segment(pointset: PointSet, p_i, p_j, eps: float = DEFAULT_EPS):
    """Best square annulus whose outer square touches p_i with its bottom
    side and p_j with its top side, or None.  Raises ValueError unless
    eps >= 0."""
    check_eps(eps)
    seg = c3_center_segment(p_i, p_j)
    if seg is None:
        return None
    (ax, y0), (bx, _), r = seg
    pts = pointset.points
    # pointset.by_y sorts by (y, x), which among equal y is the by_x order
    by_y = [(pts[i].x, pts[i].y, pts[i].color) for i in pointset.by_y]
    strip = _strip(by_y, _xy(p_i)[1], _xy(p_j)[1])
    totals = (0,) + pointset.color_count
    hit = _scan_segment(*strip, totals, pointset.k, y0, r, ax, bx, eps)
    return None if hit is None else _square(hit[0], hit[1], y0, r)


def _pair_bounds(by_y, k, eps):
    # by_y: (x, y, color) rows in (y, x, color) order.  Returns numpy
    # arrays (bound, bottom, top) over the pinned pairs by_y[bottom] (outer
    # bottom side), by_y[top] (outer top side) whose bound exceeds eps, in
    # increasing (bottom, top); _scan_segment returns None on every other
    # pair, and at most the bound on these.  For each bottom row i the
    # pairs are the rows j with y_j > y_i and a non-empty segment; r, y0,
    # ax and bx come from the float operations of c3_center_segment, and
    # the columns, the points that may be strictly inside, are the same
    # rows.
    #   core: the largest |y - y0| over strip points with
    #     bx - r < x < ax + r;
    #   color: over the colors, the largest per-color minimum of
    #     max(|y - y0|, x-distance to [ax, bx]) over that color's strip
    #     points (infinite, so the pair is dropped, when a color is
    #     missing from the strip);
    #   bound = r - max(core, color).
    # Why w <= bound holds bit for bit: every t the scan visits lies in
    # [ax, bx], and float rounding is monotone.  So fl(t + r) >= fl(ax + r)
    # and fl(t - r) <= fl(bx - r): a core point passes both window tests at
    # every t, and the scan's r_in is at least its |y - y0|, the same
    # subtraction.  The window holds a point of every color, and r_in is at
    # least fl(t - xs[wl]) and fl(xs[wr] - t) over the window's extreme x,
    # so at least fl(|x - t|) for each window point; for x < ax that is at
    # least fl(ax - x), for x > bx at least fl(x - bx).  So r_in >=
    # max(core, color), and w = fl(r - r_in) <= fl(r - max(core, color)).
    n = len(by_y)
    xs = np.array([p[0] for p in by_y], dtype=float)
    ys = np.array([p[1] for p in by_y], dtype=float)
    cols = np.array([p[2] for p in by_y])
    bounds, bottoms, tops = [np.empty(0)], [np.empty(0, dtype=int)], [np.empty(0, dtype=int)]
    for i in range(n - 1):
        xi, yi = xs[i], ys[i]
        above = int(np.searchsorted(ys, yi, side="right"))  # first y > yi
        xm, ym = xs[above:], ys[above:]
        r = (ym - yi) / 2.0
        ax = np.maximum(xi, xm) - r
        bx = np.minimum(xi, xm) + r
        seg = np.flatnonzero(ax <= bx)
        if not len(seg):
            continue
        r, ax, bx = r[seg], ax[seg], bx[seg]
        y0 = (yi + ym[seg]) / 2.0
        inside = ym < ym[seg][:, None]
        dy = np.abs(ym - y0[:, None])
        core_pts = inside & (xm > (bx - r)[:, None]) & (xm < (ax + r)[:, None])
        core = np.max(dy, axis=1, where=core_pts, initial=0.0)
        # max(|y - y0|, ax - x, x - bx) is max(|y - y0|, x-distance)
        d = np.maximum(dy, ax[:, None] - xm, out=dy)
        np.maximum(d, xm - bx[:, None], out=d)
        np.putmask(d, ~inside, INF)
        groups = [cols[above:] == c for c in range(1, k + 1)]
        color = np.max([d[:, g].min(axis=1, initial=INF) for g in groups], axis=0)
        bound = r - np.maximum(core, color)
        keep = bound > eps
        bounds.append(bound[keep])
        bottoms.append(np.full(np.count_nonzero(keep), i))
        tops.append(above + seg[keep])
    return np.concatenate(bounds), np.concatenate(bottoms), np.concatenate(tops)


def _c3_family(rows, k, totals, eps, floor):
    # rows: (x, y, color) tuples; best bounded annulus with the outer
    # bottom and top sides pinned by two of them.  Returns
    # (width, center_x, center_y, r) in this frame, or None, whenever the
    # best width is at least floor; below floor the result may be None or
    # a narrower annulus.  Every pair is bounded (_pair_bounds) and pairs
    # are scanned in decreasing bound, stopping at the first bound strictly
    # below the best width so far (or floor): a pair whose bound equals it
    # may still win the tie.  Pairs tied on (-width, t, y0) can differ in
    # r, so the key ends with the pair's position in (y, x, color) order:
    # the winner is the first best pair in that order, as when every pair
    # is scanned in it, whatever the order of visits.
    by_y = sorted(sorted(rows), key=lambda p: p[1])  # (y, x, color) order
    bound, bottom, top = _pair_bounds(by_y, k, eps)
    best = key = None
    limit = floor
    for q in np.argsort(-bound, kind="stable"):
        if bound[q] < limit:
            break
        (xi, y_i, _), (xj, y_j, _) = by_y[bottom[q]], by_y[top[q]]
        (ax, y0), (bx, _), r = c3_center_segment((xi, y_i), (xj, y_j))
        hit = _scan_segment(*_strip(by_y, y_i, y_j), totals, k, y0, r, ax, bx, eps)
        if hit is None:
            continue
        w, t = hit
        if key is None or (-w, t, y0, q) < key:
            best, key = (w, t, y0, r), (-w, t, y0, q)
            limit = max(limit, w)
    return best


def _bounded(pointset, eps, floor):
    # max_rbsa_c3's answer whenever its width is at least floor; below
    # floor, None or a narrower annulus.
    rows = [(p.x, p.y, p.color) for p in pointset.points]
    totals = (0,) + pointset.color_count
    best = _c3_family(rows, pointset.k, totals, eps, floor)  # (width, cx, cy, r)
    swapped = [(y, x, c) for x, y, c in rows]
    # the swapped family wins only with a width at least best's
    floor = floor if best is None else max(floor, best[0])
    hit = _c3_family(swapped, pointset.k, totals, eps, floor)
    if hit is not None:
        w, cx, cy, r = hit
        cand = (w, cy, cx, r)  # undo the coordinate swap
        if best is None or (-cand[0], cand[1], cand[2]) < (-best[0], best[1], best[2]):
            best = cand
    return None if best is None else _square(*best)


def max_rbsa_c3(pointset: PointSet, eps: float = DEFAULT_EPS):
    """Widest bounded square annulus: two opposite outer sides pinned by
    points, trying both the horizontal and the vertical pair families.
    Raises ValueError unless eps >= 0."""
    check_eps(eps)
    return _bounded(pointset, eps, -INF)


def _strip_as_square(strip):
    if strip is None:
        return None
    if strip.orientation == "vertical":
        return SquareAnnulus(-INF, strip.hi, -INF, INF, strip.width)
    return SquareAnnulus(-INF, INF, -INF, strip.hi, strip.width)


def _corridor_as_square(cor):
    if cor is None:
        return None
    sx, sy = QUADRANT_SIGNS[cor.orientation]
    cx, cy = cor.corner_x, cor.corner_y
    left, right = (cx, INF) if sx > 0 else (-INF, cx)
    bottom, top = (-INF, cy) if sy > 0 else (cy, INF)
    return SquareAnnulus(left, right, bottom, top, cor.width)


def max_rbsa(pointset: PointSet, eps: float = DEFAULT_EPS):
    """Widest rainbow-bisecting empty square annulus.

    The degenerate families come from the strip and corridor solvers (a
    strip is a square annulus with three sides at infinity, an L-corridor
    one with two); the bounded family is searched directly.  Ties keep the
    earlier, more degenerate candidate.
    """
    check_eps(eps)
    candidates = [
        _strip_as_square(max_rbes(pointset, "vertical", eps)),
        _strip_as_square(max_rbes(pointset, "horizontal", eps)),
        _corridor_as_square(max_rblc_all(pointset, eps)),
    ]
    best = None
    for cand in candidates:
        if cand is not None and (best is None or cand.width > best.width):
            best = cand
    # the bounded family is taken only when strictly wider, so its search
    # may stop below the best degenerate width
    cand = _bounded(pointset, eps, -INF if best is None else best.width)
    if cand is not None and (best is None or cand.width > best.width):
        best = cand
    return best
