"""Widest rainbow-bisecting empty circular annuli.

The width of the best ring at a fixed center is a gap in the sorted
point distances whose near side and far side are each rainbow.  As the
center moves, that width is piecewise smooth; its attained maxima pin
the center to an intersection of two perpendicular bisectors, to a line
through two input points, or to an input point itself (inner radius
zero), while unattained suprema run off toward infinity where ring
widths approach empty-strip widths.  The solver therefore generates
every such center as numpy arrays, from one line-crossing kernel, adds far
sentinels that dominate any bounded sampling of the plane, scores them in
batches and keeps the best valid ring.

Scoring has three passes.  A screen scores every center from cheap
sqrt(dx*dx + dy*dy) distances, with a rigorous bound on how far each score
can be from the exact one.  The exact np.hypot scores are then computed
only for the centers whose bound can still reach the shortlist, which is
the same as when every center is scored exactly.  The shortlist's centers
are re-scored one by one with math.hypot, which picks the witness.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .core import (
    DEFAULT_EPS,
    CircularAnnulus,
    Line,
    PointSet,
)
from .strips import rainbow_gaps, widest_rainbow_gap

# multiples of the point-cloud span used for the far sentinel centers
FAR_FIELD_SCALES = (16.0, 256.0, 4096.0)

# The shortlist: centers whose exact batch score is within this of the best
# one.  Each is re-scored by best_annulus_at_center (math.hypot, which can
# differ from np.hypot in the last bit), so the witness does not depend on
# the batch arithmetic.
_FINALIST_SLACK = 1e-9

# distances per chunk of rows scored at once
_CHUNK = 125_000

# Crossings multiply three coordinates, which overflows from about 2^340;
# cir22 and cir21 centers of larger inputs come from scaled coordinates.
_BIG = 2.0 ** 300


# ---------------------------------------------------------------------------
# candidate centers
#
# Each family returns its centers as two float64 arrays (xs, ys).  Lines are
# coefficient arrays (a, b, c) of a*x + b*y = c, and every expression below
# keeps the operand order of the scalar formula it implements, so centers
# are bit-for-bit the values a per-candidate loop would compute
# (tests/test_circles.py keeps that loop as the reference).


def _cross(a1, b1, c1, a2, b2, c2):
    """Crossings of the lines a1*x + b1*y = c1 and a2*x + b2*y = c2, taken
    elementwise with broadcasting.  Parallel lines (det == 0), which include
    every degenerate line 0x + 0y = c, and non-finite crossings are dropped."""
    with np.errstate(all="ignore"):
        det = a1 * b2 - a2 * b1
        x = (c1 * b2 - c2 * b1) / det
        y = (a1 * c2 - a2 * c1) / det
    keep = (det != 0.0) & np.isfinite(x) & np.isfinite(y)
    return x[keep], y[keep]


def _coords(pointset: PointSet):
    pts = pointset.points
    return (np.array([p.x for p in pts], dtype=float),
            np.array([p.y for p in pts], dtype=float))


def _frame(pointset: PointSet):
    """(X, Y, e): the points' coordinates times 2^-e.  e is 0 while every
    magnitude is below _BIG, and otherwise brings the largest into
    [0.5, 1).  Scaling by a power of two is exact, and so is every center
    computed from the scaled coordinates, scaled back by _unscale."""
    X, Y = _coords(pointset)
    top = max(float(np.abs(X).max()), float(np.abs(Y).max()))
    if top < _BIG:
        return X, Y, 0
    e = math.frexp(top)[1]
    return np.ldexp(X, -e), np.ldexp(Y, -e), e


def _unscale(centers, e):
    """Centers computed in _frame's scaled coordinates, back in the
    input's, without those that leave the float range."""
    if e == 0:
        return centers
    with np.errstate(over="ignore"):
        xs, ys = np.ldexp(centers[0], e), np.ldexp(centers[1], e)
    keep = np.isfinite(xs) & np.isfinite(ys)
    return xs[keep], ys[keep]


def _bisectors(X, Y):
    """Perpendicular bisectors of every pair i < j, in np.triu_indices order:
    the centers equidistant from points i and j."""
    i, j = np.triu_indices(X.size, 1)
    a = 2.0 * (X[j] - X[i])
    b = 2.0 * (Y[j] - Y[i])
    c = (X[j] * X[j] + Y[j] * Y[j]) - (X[i] * X[i] + Y[i] * Y[i])
    return i, j, a, b, c


def _concat(parts):
    xs = [x for x, _ in parts]
    ys = [y for _, y in parts]
    return (np.concatenate(xs) if xs else np.empty(0),
            np.concatenate(ys) if ys else np.empty(0))


def cir22_candidates(pointset: PointSet):
    """Centers equidistant from one point pair and from another: the
    intersection of the two perpendicular bisectors, for every two pairs.
    Pairs may share a point (three points on one boundary circle land
    here).  Parallel bisectors yield no center.  Each bisector is crossed
    with all later ones at a time, so a step holds O(n^2) values."""
    X, Y, e = _frame(pointset)
    _, _, a, b, c = _bisectors(X, Y)
    return _unscale(_concat([_cross(a[u], b[u], c[u], a[u + 1:], b[u + 1:], c[u + 1:])
                             for u in range(a.size - 1)]), e)


def cir21_candidates(pointset: PointSet):
    """Centers equidistant from a pair with a third point collinear with
    the center and one pair member: bisector(p, q) crossed with the line
    through p (or q) and every third point."""
    X, Y, e = _frame(pointset)
    i, j, a, b, c = _bisectors(X, Y)
    # line through point s and point r: ta[s, r]*x + tb[s, r]*y = tc[s, r]
    ta = Y[None, :] - Y[:, None]
    tb = X[:, None] - X[None, :]
    tc = ta * X[:, None] + tb * Y[:, None]
    pair, third = np.nonzero((np.arange(X.size) != i[:, None])
                             & (np.arange(X.size) != j[:, None]))
    return _unscale(_concat([_cross(a[pair], b[pair], c[pair],
                                    ta[end, third], tb[end, third], tc[end, third])
                             for end in (i[pair], j[pair])]), e)


def point_center_candidates(pointset: PointSet):
    """The input points themselves.  A ring whose inner radius degenerates
    to zero has its center on a point, and small instances have no other
    pinned centers at all."""
    return _coords(pointset)


def far_field_candidates(pointset: PointSet):
    """Sentinel centers far outside the cloud.  Ring widths grow toward
    empty-strip widths as the center recedes, so any bounded sampling of
    the plane is dominated by centers far along the candidate strip
    normals: the direction of a point pair and its perpendicular, at each
    of FAR_FIELD_SCALES times the cloud span from the pair's first point."""
    X, Y = _coords(pointset)
    span = max(float(X.max() - X.min()), float(Y.max() - Y.min()), 1.0)
    i, j = np.nonzero(~np.eye(X.size, dtype=bool))
    dx = X[j] - X[i]
    dy = Y[j] - Y[i]
    # math.hypot, not np.hypot: the two differ in the last bit
    d = np.array([math.hypot(u, v) for u, v in zip(dx.tolist(), dy.tolist())])
    keep = d != 0.0
    i, ux, uy = i[keep], dx[keep] / d[keep], dy[keep] / d[keep]
    parts = []
    for s in FAR_FIELD_SCALES:
        back = s * span
        parts.append((X[i] - back * ux, Y[i] - back * uy))
        parts.append((X[i] + back * uy, Y[i] - back * ux))
    return _concat(parts)


# ---------------------------------------------------------------------------
# evaluation


def best_annulus_at_center(pointset: PointSet, center,
                           eps: float = DEFAULT_EPS) -> Optional[CircularAnnulus]:
    """Widest valid ring centered at the given point, or None.

    Takes the widest rainbow gap between consecutive sorted distances:
    the near side already shows every color and the far side still does.
    Ties keep the smallest inner radius.
    """
    cx = float(center[0])
    cy = float(center[1])
    if not (math.isfinite(cx) and math.isfinite(cy)):
        return None
    pts = pointset.points
    ds = [math.hypot(p.x - cx, p.y - cy) for p in pts]
    t = widest_rainbow_gap(ds, [p.color for p in pts], pointset.k, eps)
    if t is None:
        return None
    ds.sort()
    return CircularAnnulus(cx, cy, ds[t], ds[t + 1])


def _hypot_rows(X, Y, cx, cy):
    return np.hypot(X - cx, Y - cy)


def _sqrt_rows(X, Y, cx, cy):
    D = X - cx
    D *= D
    T = Y - cy
    T *= T
    D += T
    return np.sqrt(D, out=D)


def _row_widths(pointset: PointSet, cxs, cys, eps: float, distances):
    # the rainbow-gap scan over each center's row of distances, in chunks
    # of rows; -inf where a row has no usable gap.  The columns are grouped
    # by color once, for every chunk.
    X, Y = _coords(pointset)
    C = np.array([p.color for p in pointset.points])
    order = np.argsort(C, kind="stable")
    X, Y, C = X[order], Y[order], C[order]
    out = np.full(len(cxs), -np.inf)
    if X.size < 2:
        return out
    step = max(1, _CHUNK // X.size)
    for lo in range(0, len(cxs), step):
        cx = np.asarray(cxs[lo:lo + step], dtype=float)[:, None]
        cy = np.asarray(cys[lo:lo + step], dtype=float)[:, None]
        D = distances(X, Y, cx, cy)
        out[lo:lo + step] = rainbow_gaps(D, C, pointset.k, eps).max(axis=1)
    return out


def _batch_widths(pointset: PointSet, cxs, cys, eps: float):
    """Best ring width at each center, -inf where none, from np.hypot
    distances: the exact scores the shortlist is taken from.  Finalists
    are re-scored by best_annulus_at_center."""
    return _row_widths(pointset, cxs, cys, eps, _hypot_rows)


def _screen(pointset: PointSet, cxs, cys, eps: float):
    """(w, e) per center: w the best ring width from sqrt(dx*dx + dy*dy)
    distances (-inf where none) and e a bound on how far it can be from the
    exact score w_x of _batch_widths.  Where both are finite, |w - w_x| <= e;
    where either is -inf, the same holds with eps in its place, so
    max(w, eps) + e bounds w_x from above, and w_x >= w - e once w - e > eps.
    Centers whose rows would leave the safe exponent range are not screened:
    w = -inf and e = inf there."""
    # Why: B, the L1 distance to the far corner of the bounding box, is at
    # least |dx| + |dy| for every point of the row, with dx and dy the same
    # float subtractions both passes make (rounding is monotone), so B(1+u)
    # bounds every distance d of the row, u = 2^-53.  Both distance
    # formulas are within a few ulps of sqrt(dx^2 + dy^2) (np.hypot within
    # two ulps, 4u*d; the sqrt form within about 2.5u*d), so every entry of
    # the row moves by at most delta <= 7u*B from one pass to the other.
    # That moves the widest usable gap by at most 2*delta.  Take the best
    # gap (a, b) of one pass: no value lies strictly between a and b, and
    # every color has a value <= a and one >= b.  In the other pass every
    # value is <= a + delta or >= b - delta (rin and rout move by at most
    # delta), so the largest value <= a + delta and the smallest >= b - delta
    # are neighbours with every color on each side: a usable gap at least
    # b - a - 2*delta wide (gaps are >= 0, so b - a <= 2*delta needs
    # nothing).  Each pass rounds its gap's subtraction (u*B each), and the
    # caller's sums and differences of w, e and eps round by u*(B + e) each,
    # eps counting only where it is below the gap (a gap is at most B).
    # That totals at most 20u*B; e = 2^-47 * B = 64u*B.  With B <= 2^510 no
    # square overflows, and with B >= 2^-450 the absolute error of a square
    # that underflows (sqrt(2^-1074) ~ 2^-537 in d) is far below e.
    pts = pointset.points
    x0, x1 = pts[pointset.by_x[0]].x, pts[pointset.by_x[-1]].x
    y0, y1 = pts[pointset.by_y[0]].y, pts[pointset.by_y[-1]].y
    with np.errstate(over="ignore", invalid="ignore"):
        B = (np.maximum(np.abs(cxs - x0), np.abs(cxs - x1))
             + np.maximum(np.abs(cys - y0), np.abs(cys - y1)))
    safe = (B >= 2.0 ** -450) & (B <= 2.0 ** 510)
    e = np.full(len(cxs), np.inf)
    e[safe] = B[safe] * 2.0 ** -47
    w = np.full(len(cxs), -np.inf)
    w[safe] = _row_widths(pointset, cxs[safe], cys[safe], eps, _sqrt_rows)
    return w, e


def _pick_best(pointset: PointSet, cxs, cys, eps: float):
    # The shortlist is every center whose exact score is within
    # _FINALIST_SLACK of the best exact score.  The screen's lower bounds
    # give t_lo <= that best, so a center whose upper bound is below
    # t_lo - _FINALIST_SLACK is on no shortlist and is not scored exactly.
    # Every other center is, with _batch_widths as before, so the shortlist
    # and its order are the same as when every center is scored exactly.
    w, e = _screen(pointset, cxs, cys, eps)
    lower = w - e
    lower = lower[lower > eps]
    if lower.size:
        rows = np.flatnonzero(np.maximum(w, eps) + e
                              >= lower.max() - _FINALIST_SLACK)
    else:
        rows = np.arange(len(cxs))
    w = _batch_widths(pointset, cxs[rows], cys[rows], eps)
    top = w.max()
    if not np.isfinite(top):
        return None
    best = None
    key = None
    for idx in rows[w >= top - _FINALIST_SLACK]:
        ann = best_annulus_at_center(pointset, (cxs[idx], cys[idx]), eps)
        if ann is None:
            continue
        cand = (-ann.width, ann.center_x, ann.center_y)
        if key is None or cand < key:
            key = cand
            best = ann
    return best


def max_rbca(pointset: PointSet,
             eps: float = DEFAULT_EPS) -> Optional[CircularAnnulus]:
    """Widest valid ring over every candidate center, or None.  Ties prefer
    the lexicographically smaller center."""
    xs, ys = _concat([point_center_candidates(pointset),
                      cir22_candidates(pointset),
                      cir21_candidates(pointset),
                      far_field_candidates(pointset)])
    return _pick_best(pointset, xs, ys, eps)


# ---------------------------------------------------------------------------
# centers constrained to a line


def max_rbca_on_line(pointset: PointSet, line: Line,
                     eps: float = DEFAULT_EPS) -> Optional[CircularAnnulus]:
    """Widest valid ring whose center lies on the given line, or None.

    Candidate centers on the line: crossings with every perpendicular
    bisector (the distance order changes only there), crossings with every
    point-pair line (collinear configurations), crossings with lines from a
    reflected point (where a distance difference is stationary along the
    line), and far sentinels along the line for optima approached at
    infinity.
    """
    X, Y = _coords(pointset)
    la, lb, lc = line.a, line.b, line.c
    i, j, a, b, c = _bisectors(X, Y)
    parts = [_cross(la, lb, lc, a, b, c)]
    # line through points i and j
    a = Y[j] - Y[i]
    b = X[i] - X[j]
    parts.append(_cross(la, lb, lc, a, b, a * X[i] + b * Y[i]))
    # line through the mirror image (mx, my) of point i and point j != i
    n2 = la * la + lb * lb
    d = (la * X + lb * Y - lc) / n2
    mx = X - 2.0 * d * la
    my = Y - 2.0 * d * lb
    i, j = np.nonzero(~np.eye(X.size, dtype=bool))
    a = Y[j] - my[i]
    b = mx[i] - X[j]
    parts.append(_cross(la, lb, lc, a, b, a * mx[i] + b * my[i]))
    ox, oy = line.origin
    dx, dy = line.direction
    ts = (X - ox) * dx + (Y - oy) * dy
    lo, hi = float(ts.min()), float(ts.max())
    span = max(hi - lo, 1.0)
    t = np.array([v for s in FAR_FIELD_SCALES
                  for v in (lo - s * span, hi + s * span)])
    parts.append((ox + t * dx, oy + t * dy))
    xs, ys = _concat(parts)
    return _pick_best(pointset, xs, ys, eps)
