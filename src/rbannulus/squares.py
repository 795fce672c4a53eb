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
midpoint of the extreme inside x-coordinates.

The bounded solver works in two frames, the input and the input with x
and y swapped, each read from the PointSet's own orders: its rows in y
order (by_y, or by_x when swapped), tied rows in index order.  One numpy
table of a frame's pinned pairs (_pairs) holds each pair's r, y0, segment
and run of strip rows; the decision and the scan read it.  It runs the
segment search on few pairs.  A pair's width is at most its outer radius
r, so the solver takes the pairs in decreasing r until no r can reach the
best width so far, and decides each chunk of them at that width first: a
color-free test (_reaching), in numpy, of whether any center on the
segment can reach it.  Only the pairs the decision keeps are scanned, and
the scan checks the colors exactly.

Below a floor f, the best strip or L-corridor width, a bounded annulus
cannot win; with no floor (max_rbsa_c3) f is eps, as every width the
scan returns exceeds eps.  A point of the band (y_top - f, y_top) or
(y_bottom, y_bottom + f) keeps the width below f at every center whose
window holds it.  So the table is built a block of bottom rows at a time,
and each block keeps, in one numpy pass with no sort, only the pairs with
r >= f whose band points leave room for a center (_room): of the nearest
points left and right of the top pin in the first band and of the bottom
pin in the second (_band_neighbours), gl is the largest x on the left and
gr the smallest on the right, and a center t can reach f only when
gl + r <= t <= gr - r, up to a float margin.  The test is O(1) per pair
and keeps every pair whose scanned width reaches f.  Memory then follows
the pairs kept, not n**2.
"""

from __future__ import annotations

from collections import deque
from heapq import merge

import numpy as np

from .core import (DEFAULT_EPS, INF, PointSet, SquareAnnulus, _widest, _xy,
                   check_eps)
from .lcorridor import max_rblc_all
from .strips import max_rbes

# strip cells (pairs times points) per chunk of pairs the search decides
# at once
_CELLS = 2 ** 13
# (bottom, top) cells per block of the pair table, and band cells per
# chunk of rows whose band neighbours are found at once
_BLOCK = 2 ** 16

__all__ = [
    "c3_center_segment",
    "best_annulus_on_segment",
    "max_rbsa_c3",
    "max_rbsa",
]


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


def _frame(pointset, swap):
    # one pinned-pair family's frame, from the PointSet's own orders: the x
    # and y columns in the frame's y order, and its (x, y, color) columns in
    # its x order, as _strip takes them.  With swap, x and y trade places,
    # and so do by_x and by_y; tied rows stay in index order in both.
    xs, ys, by_x, by_y = pointset.xs, pointset.ys, pointset.by_x, pointset.by_y
    if swap:
        xs, ys, by_x, by_y = ys, xs, by_y, by_x
    return xs[by_y], ys[by_y], (xs[by_x], ys[by_x], pointset.cs[by_x])


def _strip(cols, y_lo, y_hi):
    # the (x, y, color) rows of a frame's x-ordered columns lying strictly
    # between the two pinning y values, in that order, as three lists
    inside = (y_lo < cols[1]) & (cols[1] < y_hi)
    return tuple(col[inside].tolist() for col in cols)


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
    # the breakpoints in increasing order without repeats: x - r and x + r
    # each come sorted, as xs is
    bps = [ax]
    for t in merge([x - r for x in xs], [x + r for x in xs]):
        if bps[-1] < t < bx:
            bps.append(t)
    if bps[-1] < bx:
        bps.append(bx)
    in_cnt = [0] * (k + 1)
    inside_present = 0
    outside_present = k
    wl, wr = 0, -1
    dq = deque()  # (|y - y0|, index) of window points, first entries decreasing
    best = None
    a = None
    for b in bps:
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
    eps >= 0 and p_i lies strictly below p_j."""
    check_eps(eps)
    seg = c3_center_segment(p_i, p_j)
    if seg is None:
        return None
    (ax, y0), (bx, _), r = seg
    strip = _strip(_frame(pointset, False)[2], _xy(p_i)[1], _xy(p_j)[1])
    totals = (0,) + pointset.color_count
    hit = _scan_segment(*strip, totals, pointset.k, y0, r, ax, bx, eps)
    return None if hit is None else _square(hit[0], hit[1], y0, r)


@np.errstate(over="ignore", invalid="ignore")
def _pinned(xs, ys, start, stop):
    # xs, ys: a frame's x and y columns in its y order.  As rows of the
    # pair table (_pairs), in increasing (bottom, top), every pinned pair
    # whose bottom row is in start:stop: row bottom on the outer bottom side
    # and row top on the top side, with y_top > y_bottom (compare the ys,
    # not r > 0: r underflows to 0 on subnormal gaps) and a non-empty
    # segment.  r, y0, ax and bx are c3_center_segment's float operations,
    # and rows lo:hi, the strip, are those strictly between the two pinning
    # y values.  Near the top of the float range r, y0, ax and bx may
    # overflow; the warning is silenced and the values kept.
    bottom, top = np.nonzero(np.arange(start, stop)[:, None] < np.arange(len(xs)))
    bottom += start
    yi, yj = ys[bottom], ys[top]
    r = (yj - yi) / 2.0
    ax = np.maximum(xs[bottom], xs[top]) - r
    bx = np.minimum(xs[bottom], xs[top]) + r
    pinned = (yj > yi) & (ax <= bx)
    bottom, top, yi, yj, r, ax, bx = (v[pinned] for v in (bottom, top, yi, yj, r, ax, bx))
    lo = np.searchsorted(ys, yi, side="right")
    hi = np.searchsorted(ys, yj, side="left")
    return bottom, top, r, (yi + yj) / 2.0, ax, bx, lo, hi


@np.errstate(over="ignore", invalid="ignore")
def _band_neighbours(xs, ys, f):
    # xs, ys: a frame's x and y columns in its y order; f: a floor.
    # For each row, the nearest row strictly left and strictly right of
    # it in x among the rows of its upper band, ys in (fl(y - f), y), and
    # then of its lower band, ys in (y, fl(y + f)).  Returns the array
    # [band][side][row] of their row indices, band 0 upper and 1 lower,
    # side 0 left and 1 right, -1 where a side has no row.  The rows are
    # taken a chunk at a time, so the padded band runs hold at most
    # _BLOCK cells.
    near = np.full((2, 2, len(xs)), -1)
    bands = ((np.searchsorted(ys, ys - f, side="right"), np.searchsorted(ys, ys, side="left")),
             (np.searchsorted(ys, ys, side="right"), np.searchsorted(ys, ys + f, side="left")))
    for band, (lo, hi) in zip(near, bands):
        step = max(1, _BLOCK // max(1, int((hi - lo).max(initial=0))))
        for start in range(0, len(xs), step):
            rows = slice(start, start + step)
            strip, pad = _pair_strips(lo[rows], hi[rows])
            if not strip.shape[1]:
                continue
            x, own = xs[strip], xs[rows, None]
            for side, cand, fill, nearest in ((band[0], x < own, -INF, np.argmax),
                                              (band[1], x > own, INF, np.argmin)):
                cand &= ~pad
                pick = nearest(np.where(cand, x, fill), axis=1)[:, None]
                some = np.take_along_axis(cand, pick, axis=1)[:, 0]
                side[rows] = np.where(some, np.take_along_axis(strip, pick, axis=1)[:, 0], -1)
    return near


def _pairs(xs, ys, floor):
    # xs, ys: a frame's x and y columns in its y order; floor: a finite
    # width.  The pair table, (bottom, top, r, y0, ax, bx, lo, hi), in
    # increasing (bottom, top): the pinned pairs (_pinned) with r >= floor
    # whose band neighbours leave room for a center that reaches floor
    # (_room).  It holds every pair whose scanned width is at least floor.
    # It is built a block of bottom rows at a time, each block of at most
    # _BLOCK (bottom, top) cells and tested in one pass, so the memory
    # follows the pairs kept, not n**2.
    n = len(xs)
    near = _band_neighbours(xs, ys, floor)
    step = max(1, _BLOCK // n)
    blocks = []
    for start in range(0, n, step):
        block = _pinned(xs, ys, start, min(n, start + step))
        block = tuple(v[block[2] >= floor] for v in block)
        keep = _room(xs, ys, block, floor, near)
        blocks.append(tuple(v[keep] for v in block))
    return tuple(np.concatenate(col) for col in zip(*blocks))


@np.errstate(over="ignore", invalid="ignore")
def _room(xs, ys, pairs, limit, near):
    # xs, ys: a frame's x and y columns in its y order; pairs: rows of a
    # pair table (_pinned's columns); limit: a finite width; near:
    # _band_neighbours(xs, ys, limit).  Returns a boolean mask over the
    # pairs, True on every pair whose _scan_segment returns a width >=
    # limit, in O(1) per pair from four rows: the top's nearest rows left
    # and right of it in its upper band, and the bottom's in its lower
    # band.  A row is used only when it lies in the pair's strip lo:hi and
    # is tall, fl(r - fl(|y - y0|)) < limit.  gl is the largest x of the
    # used left rows with x < fl(ax + r), gr the smallest x of the used
    # right rows with x > fl(bx - r), -INF and INF where there is none,
    # and the pair is kept when
    #   max(ax, fl(fl(gl + r) - delta)) <= min(bx, fl(fl(gr - r) + delta)),
    # with delta as in _reaching, or when delta overflows.
    # Why no pair whose scan reaches limit is dropped: let t in [ax, bx]
    # be a center the scan visits with width >= limit.  As in _reaching,
    # the window at t holds a strip point p exactly when fl(t - r) < x_p <
    # fl(t + r), and then the width is at most fl(r - fl(|y_p - y0|)), so
    # no tall point is in it.  As t >= ax, gl < fl(ax + r) <= fl(t + r),
    # so gl <= fl(t - r) <= t (r >= 0).  Then gl + r <= |t| + r, and
    # fl(gl + r) overflows only when delta does.  If gl + r <= t,
    # fl(gl + r) <= t by monotone rounding.  Otherwise, with M =
    # max(|ax|, |bx|) + r >= |t -+ r| and u = 2^-53, gl + r <= t + uM +
    # 2^-1075, so |gl + r| <= (1 + u)M + 2^-1075 and fl(gl + r) <=
    # t + (2u + u^2)M + 2^-1073, which is less than t + delta: the
    # computed delta is at least 31uM + 2^-1061.  Either way the real
    # fl(gl + r) - delta is at most the float t, and so is its rounding.
    # By the mirror argument (gr > fl(bx - r) >= fl(t - r), so gr >=
    # fl(t + r) >= t), fl(fl(gr - r) + delta) >= t; as ax <= t <= bx, the
    # pair is kept.  Fewer rows give a smaller gl and a larger gr, so a
    # row that is not used only keeps more pairs.
    bottom, top, r, y0, ax, bx, lo, hi = pairs
    delta = (np.maximum(np.abs(ax), np.abs(bx)) + r) * 2.0 ** -48 + 2.0 ** -1060

    def neighbour(band, side, pins):
        # per pair, the x of its pin's nearest row on side in band, and
        # whether that row is used
        row = near[band][side][pins]
        return xs[row], (lo <= row) & (row < hi) & (r - np.abs(ys[row] - y0) < limit)

    left_end, right_end = ax + r, bx - r
    gl, gr = -INF, INF
    for band, pins in ((0, top), (1, bottom)):
        x, used = neighbour(band, 0, pins)
        gl = np.maximum(gl, np.where(used & (x < left_end), x, -INF))
        x, used = neighbour(band, 1, pins)
        gr = np.minimum(gr, np.where(used & (x > right_end), x, INF))
    room = np.maximum(ax, gl + r - delta) <= np.minimum(bx, gr - r + delta)
    return room | ~np.isfinite(delta)


def _pair_strips(lo, hi):
    # the strip runs lo:hi of some pairs as row indices, padded to the
    # longest with row 0, and pad, the mask of the padding
    strip = lo[:, None] + np.arange((hi - lo).max(initial=0))
    pad = strip >= hi[:, None]
    strip[pad] = 0
    return strip, pad


@np.errstate(over="ignore", invalid="ignore")
def _reaching(xs, ys, pairs, limit, strip, pad):
    # xs, ys: a frame's x and y columns in its y order; pairs: rows of a
    # pair table (_pinned's columns); limit: a finite width; strip, pad:
    # per pair, the row indices it tests, each a row of its strip lo:hi
    # or padding where pad is True, as _pair_strips(lo, hi) gives them
    # for the whole strips.  Returns a boolean mask over the pairs, True
    # on every pair whose _scan_segment returns a width >= limit.  The
    # test drops the colors: a center t can reach limit only when every
    # strip point p in its window has
    #   fl(r - |y_p - y0|) >= limit, or p is tall and rules out every t in
    #     (x_p - r, x_p + r);
    #   |x_p - t| <= r - limit, which rules out (x_p - r, x_p - r + limit)
    #     and (x_p + r - limit, x_p + r).
    # A pair is kept when some t in [ax, bx] lies in no ruled-out open
    # interval.  The smallest such t is ax or an interval's right end: with
    # the intervals sorted by left end and H_q the largest of ax and the
    # first q right ends, it is some H_q <= bx that no later left end
    # undercuts.
    # Why no pair whose scan reaches limit is dropped: let t be a center
    # the scan visits with width >= limit, M = max(|ax|, |bx|) + r (so
    # |t -+ r| <= M) and u = 2^-53.  The window holds p exactly when
    # fl(t - r) < x_p < fl(t + r), so whenever x_p - r + uM < t <
    # x_p + r - uM.  For each window point the scan's r_in is at least
    # fl(|y_p - y0|), the same subtraction as here (so no tall point is in
    # the window), and fl(|t - x_p|), as it is at least fl(t - xs[wl]) and
    # fl(xs[wr] - t) over the window's extreme x; so |t - x_p| <=
    # r - limit + 2uM.  A point with ax - r < x_p < bx + r has |x_p| <= M:
    # its interval ends take at most three roundings of values below 3M
    # and are moved inwards by delta = 2^-48 M, more than their error, so
    # each interval lies inside the real one it stands for, and t is in
    # none.  Any other point's intervals end at or before ax, or start at
    # or after bx, by monotone rounding (short points have limit <= r).
    # The 2^-1060 term covers the absolute error of subnormal results, and
    # a pair whose delta overflows is kept.  The argument holds point by
    # point, and fewer points rule out fewer centers, so on any subset of
    # a pair's strip rows the mask keeps a superset of the pairs.
    r, y0, ax, bx = pairs[2:6]
    delta = (np.maximum(np.abs(ax), np.abs(bx)) + r) * 2.0 ** -48 + 2.0 ** -1060
    keep = ~np.isfinite(delta)
    r, y0, delta = r[:, None], y0[:, None], delta[:, None]
    x = xs[strip]
    x[pad] = INF
    tall = r - np.abs(ys[strip] - y0) < limit
    left, right = x - r, x + r
    # two open intervals (a, b) per point; one whose a is INF (a tall
    # point's second, and those of the padding) is empty and sorts last
    a = np.hstack([left + delta, right - limit + delta])
    a[:, x.shape[1]:][tall] = INF
    b = np.hstack([np.where(tall, right, left + limit) - delta, right - delta])
    order = np.argsort(a, axis=1)
    a = np.take_along_axis(a, order, axis=1)
    b = np.take_along_axis(b, order, axis=1)
    h = np.maximum.accumulate(np.hstack([ax[:, None], b]), axis=1)  # H_0 .. H_m
    after = np.hstack([a, np.full((len(a), 1), INF)])  # the next left end
    free = (h <= bx[:, None]) & (after >= h)
    return free.any(axis=1) | keep


def _c3_family(pointset, swap, eps, floor):
    # The best bounded annulus with the outer bottom and top sides pinned
    # by two rows of the frame _frame(pointset, swap).  Returns
    # (width, center_x, center_y, r) in this frame, or None, whenever the
    # best width is at least floor; below floor the result may be None or
    # a narrower annulus.  The table holds the pairs that may reach the
    # larger of floor and eps (_pairs): every pair it leaves out scans to
    # a width below it.
    # The scan returns w = fl(r - r_in) with r_in >= 0, so r bounds every
    # width a pair can reach, and only pairs with r > eps reach one.  Pairs
    # are taken in decreasing r, a chunk at a time, decided at the current
    # limit, the best width so far (at first the table's), and only the
    # pairs the decision keeps (_reaching) are scanned.  The search stops
    # at the first r strictly below the limit: a pair whose r or width
    # equals it may still win the tie.  When a scan raises the limit, the
    # chunk's unscanned pairs are decided again at the new one.  Pairs
    # tied on (-width, t, y0) can differ in r, so the key ends with the
    # pair's position in the table, whose (bottom, top) order follows the
    # frame's y order, tied rows in index order: the winner is the first
    # best pair in that order, as when every pair is scanned in it,
    # whatever the order of visits.
    xs, ys, cols = _frame(pointset, swap)
    k, totals = pointset.k, (0,) + pointset.color_count
    limit = max(floor, eps)
    pairs = _pairs(xs, ys, limit)
    bottom, top, r, y0, ax, bx, lo, hi = pairs
    step = max(1, _CELLS // (2 * len(xs)))  # two intervals per strip point
    best = key = None
    todo = np.flatnonzero(r > eps)
    todo = todo[np.argsort(-r[todo], kind="stable")]
    while len(todo) and r[todo[0]] >= limit:
        head = todo[:step]
        head = head[r[head] >= limit]
        todo = todo[len(head):]
        kept = head[_reaching(xs, ys, [v[head] for v in pairs], limit,
                              *_pair_strips(lo[head], hi[head]))]
        for pos, q in enumerate(kept):
            rq, y0q, axq, bxq = (float(v[q]) for v in (r, y0, ax, bx))
            strip = _strip(cols, ys[bottom[q]], ys[top[q]])
            hit = _scan_segment(*strip, totals, k, y0q, rq, axq, bxq, eps)
            if hit is None:
                continue
            w, t = hit
            if key is None or (-w, t, y0q, q) < key:
                best, key = (w, t, y0q, rq), (-w, t, y0q, q)
                if w > limit:
                    limit = w
                    todo = np.concatenate([kept[pos + 1:], todo])
                    break
    return best


def _bounded(pointset, eps, floor):
    # max_rbsa_c3's answer whenever its width is at least floor; below
    # floor, None or a narrower annulus.
    best = _c3_family(pointset, False, eps, floor)  # (width, cx, cy, r)
    # the swapped family wins only with a width at least best's
    floor = floor if best is None else max(floor, best[0])
    hit = _c3_family(pointset, True, eps, floor)
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


def _as_square(ann):
    """A strip or L-corridor as the square annulus with its outer sides."""
    return None if ann is None else SquareAnnulus(*ann.outer_sides, ann.width)


def max_rbsa(pointset: PointSet, eps: float = DEFAULT_EPS):
    """Widest rainbow-bisecting empty square annulus.

    The degenerate families come from the strip and corridor solvers (a
    strip is a square annulus with three sides at infinity, an L-corridor
    one with two); the bounded family is searched directly.  Ties keep the
    earlier, more degenerate candidate.  Raises ValueError unless eps >= 0.
    """
    check_eps(eps)
    best = _widest([
        _as_square(max_rbes(pointset, "vertical", eps)),
        _as_square(max_rbes(pointset, "horizontal", eps)),
        _as_square(max_rblc_all(pointset, eps)),
    ])
    # the bounded family is taken only when strictly wider, so its search
    # may stop below the best degenerate width
    floor = -INF if best is None else best.width
    return _widest([best, _bounded(pointset, eps, floor)])
