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

The bounded solver runs that search on few pairs.  It bounds the width of
every pinned pair from above, in numpy over chunks of pairs, by r minus
the largest |y - y0| of the points inside the outer square at every center
on the segment; the bound ignores the colors.  It then takes the pairs in
decreasing bound until no bound can reach the best width so far, and
decides each chunk of them at that width first: a color-free test, in
numpy, of whether any center on the segment can reach it.  Only the pairs
the decision keeps are scanned, best first, and the scan checks the
colors exactly.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from heapq import merge
from operator import itemgetter

import numpy as np

from .core import DEFAULT_EPS, INF, PointSet, SquareAnnulus, check_eps
from .lcorridor import max_rblc_all
from .strips import max_rbes

# strip cells (pairs times points) per chunk of pairs bounded or decided
# at once
_CELLS = 2 ** 13

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


def _pair_strips(xs, ys, bottom, top):
    # xs, ys: the x and y columns of by_y.  For the pinned pairs
    # by_y[bottom] (outer bottom side), by_y[top] (outer top side): r, y0,
    # ax and bx by the float operations of c3_center_segment, and each
    # pair's strip, the rows strictly between the two pinning y values (a
    # run of by_y, as _strip takes it), as row indices padded to the
    # longest with row 0, and pad, the mask of the padding.  Near the top
    # of the float range r, y0, ax and bx may overflow; both callers run
    # this under np.errstate, which silences the warning and keeps the
    # values.
    yi, yj = ys[bottom], ys[top]
    r = (yj - yi) / 2.0
    y0 = (yi + yj) / 2.0
    ax = np.maximum(xs[bottom], xs[top]) - r
    bx = np.minimum(xs[bottom], xs[top]) + r
    lo = np.searchsorted(ys, yi, side="right")
    hi = np.searchsorted(ys, yj, side="left")
    strip = lo[:, None] + np.arange((hi - lo).max(initial=0))
    pad = strip >= hi[:, None]
    strip[pad] = 0
    return r, y0, ax, bx, strip, pad


@np.errstate(over="ignore", invalid="ignore")
def _pair_bounds(xs, ys, eps):
    # xs, ys: the x and y columns of by_y.  Returns numpy arrays (bound,
    # bottom, top) over the pinned pairs by_y[bottom] (outer bottom side),
    # by_y[top] (outer top side) whose bound exceeds eps, in increasing
    # (bottom, top); _scan_segment returns None on every other pair, and at
    # most the bound on these.  The pairs are those with y_top > y_bottom
    # and a non-empty segment; they are bounded in chunks, over their
    # strips (_pair_strips), by r - core, where core is the largest
    # |y - y0| over strip points with bx - r < x < ax + r.  The bound
    # leaves the colors to _reaching and _scan_segment.
    # Why w <= bound holds bit for bit: every t the scan visits lies in
    # [ax, bx], and float rounding is monotone.  So fl(t + r) >= fl(ax + r)
    # and fl(t - r) <= fl(bx - r): a core point passes both window tests at
    # every t, and the scan's r_in is at least its |y - y0|, the same
    # subtraction.  So r_in >= core, and w = fl(r - r_in) <= fl(r - core).
    bottom, top = np.triu_indices(len(xs), 1)
    r = (ys[top] - ys[bottom]) / 2.0
    # compare the ys, not r > 0: r underflows to 0 on subnormal gaps
    pinned = (ys[top] > ys[bottom]) & (np.maximum(xs[bottom], xs[top]) - r
                                       <= np.minimum(xs[bottom], xs[top]) + r)
    bottom, top = bottom[pinned], top[pinned]
    bound = np.empty(len(bottom))
    # pairs in increasing strip length, in chunks of at most _CELLS cells
    sizes = np.searchsorted(ys, ys[top], side="left") - np.searchsorted(ys, ys[bottom], side="right")
    by_size = np.argsort(sizes, kind="stable")
    sizes = np.maximum(sizes[by_size], 1)
    lo = 0
    while lo < len(by_size):
        ahead = sizes[lo:lo + _CELLS // sizes[lo]]  # no more pairs fit
        cells = np.arange(1, len(ahead) + 1) * ahead
        hi = lo + max(1, int(np.searchsorted(cells, _CELLS, side="right")))
        chunk = by_size[lo:hi]
        lo = hi
        r, y0, ax, bx, strip, pad = _pair_strips(xs, ys, bottom[chunk], top[chunk])
        r, ax, bx = r[:, None], ax[:, None], bx[:, None]
        x = xs[strip]
        core = np.where(~pad & (x > bx - r) & (x < ax + r),
                        np.abs(ys[strip] - y0[:, None]), 0.0).max(axis=1, initial=0.0)
        bound[chunk] = r[:, 0] - core
    keep = bound > eps
    return bound[keep], bottom[keep], top[keep]


@np.errstate(over="ignore", invalid="ignore")
def _reaching(xs, ys, bottom, top, limit):
    # xs, ys: the x and y columns of by_y; limit: a finite width.  Returns
    # a boolean mask over the pinned pairs by_y[bottom], by_y[top], True on
    # every pair whose _scan_segment returns a width >= limit.  The test
    # drops the colors: a center t can reach limit only when every strip
    # point p in its window has
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
    # a pair whose delta overflows is kept.
    r, y0, ax, bx, strip, pad = _pair_strips(xs, ys, bottom, top)
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


def _c3_family(rows, k, totals, eps, floor):
    # rows: (x, y, color) tuples; best bounded annulus with the outer
    # bottom and top sides pinned by two of them.  Returns
    # (width, center_x, center_y, r) in this frame, or None, whenever the
    # best width is at least floor; below floor the result may be None or
    # a narrower annulus.  Every pair is bounded (_pair_bounds); pairs are
    # then taken in decreasing bound, a chunk at a time, decided at the
    # current limit, the best width so far (or floor, or eps), and only the
    # pairs the decision keeps (_reaching) are scanned.  The search stops
    # at the first bound strictly below the limit: a pair whose bound or
    # width equals it may still win the tie.  When a scan raises the limit,
    # the chunk's unscanned pairs are decided again at the new one.  Pairs
    # tied on (-width, t, y0) can differ in r, so the key ends with the
    # pair's position in (y, x, color) order: the winner is the first best
    # pair in that order, as when every pair is scanned in it, whatever the
    # order of visits.
    by_y = sorted(sorted(rows), key=lambda p: p[1])  # (y, x, color) order
    xs = np.array([p[0] for p in by_y], dtype=float)
    ys = np.array([p[1] for p in by_y], dtype=float)
    bound, bottom, top = _pair_bounds(xs, ys, eps)
    step = max(1, _CELLS // (2 * len(by_y)))  # two intervals per strip point
    best = key = None
    limit = floor
    todo = np.argsort(-bound, kind="stable")
    while len(todo) and bound[todo[0]] >= limit:
        head = todo[:step]
        head = head[bound[head] >= limit]
        todo = todo[len(head):]
        kept = head[_reaching(xs, ys, bottom[head], top[head], max(limit, eps))]
        for pos, q in enumerate(kept):
            (xi, y_i, _), (xj, y_j, _) = by_y[bottom[q]], by_y[top[q]]
            (ax, y0), (bx, _), r = c3_center_segment((xi, y_i), (xj, y_j))
            hit = _scan_segment(*_strip(by_y, y_i, y_j), totals, k, y0, r, ax, bx, eps)
            if hit is None:
                continue
            w, t = hit
            if key is None or (-w, t, y0, q) < key:
                best, key = (w, t, y0, r), (-w, t, y0, q)
                if w > limit:
                    limit = w
                    todo = np.concatenate([kept[pos + 1:], todo])
                    break
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
    candidates = [
        _as_square(max_rbes(pointset, "vertical", eps)),
        _as_square(max_rbes(pointset, "horizontal", eps)),
        _as_square(max_rblc_all(pointset, eps)),
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
