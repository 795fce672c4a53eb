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
batches and keeps the best valid ring.  Every family returns finite centers
only: near the top of the float range it drops those that overflow.

Scoring has four passes.  Every center is placed in a cell: the centers
are ordered, those near the points in Z order of their coordinates and the
others in Z order of their angle and log distance (in input order when the
points' box is too small or too large for that grid), and cut into cells,
coarse to fine; a cell is skipped whole when one screened center and the
cell's radius prove that no member can reach the shortlist.  A ring's
width moves by at most twice the distance its center moves, and far from
the points by much less, since there every distance moves by nearly the
same amount.  A screen scores the centers of every surviving finest cell
from cheap sqrt(dx*dx + dy*dy) distances, with a rigorous bound on how
far each score can be from the exact one.  The exact np.hypot scores are then computed
only for the centers whose bound can still reach the shortlist, which is
the same as when every center is scored exactly.  The shortlist's centers
are re-scored one by one with math.hypot, which picks the witness.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

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

# values per chunk: the distances of the rows scored at once, and the
# crossings of one block of cir22 bisector rows
_CHUNK = 125_000

# centers per cell of the pruning pass (_shortlist_rows), coarse to fine,
# the side of the grid the cells are ordered on (_cell_order), and how many
# doublings of distance that grid spans beyond the near region
_CELLS = (512, 64, 8)
_GRID = 65535.0
_DOUBLINGS = 16.0

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


def _finite(xs, ys):
    """The centers (xs, ys) without those that left the float range."""
    keep = np.isfinite(xs) & np.isfinite(ys)
    return xs[keep], ys[keep]


def _cross(a1, b1, c1, a2, b2, c2):
    """Crossings of the lines a1*x + b1*y = c1 and a2*x + b2*y = c2, taken
    elementwise with broadcasting.  Parallel lines (det == 0), which include
    every degenerate line 0x + 0y = c, divide by zero, and they and every
    other non-finite crossing are dropped."""
    with np.errstate(all="ignore"):
        det = a1 * b2 - a2 * b1
        return _finite((c1 * b2 - c2 * b1) / det, (a1 * c2 - a2 * c1) / det)


def _frame(pointset: PointSet):
    """(X, Y, e): the points' coordinates times 2^-e.  e is 0 while every
    magnitude is below _BIG, and otherwise brings the largest into
    [0.5, 1).  Scaling by a power of two is exact, and so is every center
    computed from the scaled coordinates, scaled back by _unscale."""
    X, Y = pointset.xs, pointset.ys
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
        return _finite(np.ldexp(centers[0], e), np.ldexp(centers[1], e))


def _bisectors(X, Y):
    """Perpendicular bisectors of every pair i < j, in np.triu_indices order:
    the centers equidistant from points i and j."""
    i, j = np.triu_indices(X.size, 1)
    a = 2.0 * (X[j] - X[i])
    b = 2.0 * (Y[j] - Y[i])
    c = (X[j] * X[j] + Y[j] * Y[j]) - (X[i] * X[i] + Y[i] * Y[i])
    return i, j, a, b, c


def _line(x1, y1, x2, y2):
    """(a, b, c) of the line a*x + b*y = c through (x1, y1) and (x2, y2),
    elementwise with broadcasting."""
    a = y2 - y1
    b = x1 - x2
    return a, b, a * x1 + b * y1


def _concat(parts):
    xs = [x for x, _ in parts]
    ys = [y for _, y in parts]
    return (np.concatenate(xs) if xs else np.empty(0),
            np.concatenate(ys) if ys else np.empty(0))


def cir22_candidates(pointset: PointSet):
    """Centers equidistant from one point pair and from another: the
    intersection of the two perpendicular bisectors, for every two pairs.
    Pairs may share a point (three points on one boundary circle land
    here).  Parallel bisectors yield no center.  Bisector u is crossed with
    every later one, v > u, in row-major (u, v) order, a block of rows at
    a time: as many rows as keep the block's crossings near _CHUNK."""
    X, Y, e = _frame(pointset)
    _, _, a, b, c = _bisectors(X, Y)
    m = a.size
    parts = []
    u = 0
    while u < m - 1:
        stop = min(m - 1, u + max(1, _CHUNK // (m - 1 - u)))
        r, v = np.nonzero(np.arange(u + 1, m) > np.arange(u, stop)[:, None])
        r, v = r + u, v + (u + 1)
        parts.append(_cross(a[r], b[r], c[r], a[v], b[v], c[v]))
        u = stop
    return _unscale(_concat(parts), e)


def cir21_candidates(pointset: PointSet):
    """Centers equidistant from a pair with a third point collinear with
    the center and one pair member: bisector(p, q) crossed with the line
    through p (or q) and every third point."""
    X, Y, e = _frame(pointset)
    i, j, a, b, c = _bisectors(X, Y)
    # line through point s and point r: ta[s, r]*x + tb[s, r]*y = tc[s, r]
    ta, tb, tc = _line(X[:, None], Y[:, None], X[None, :], Y[None, :])
    pair, third = np.nonzero((np.arange(X.size) != i[:, None])
                             & (np.arange(X.size) != j[:, None]))
    return _unscale(_concat([_cross(a[pair], b[pair], c[pair],
                                    ta[end, third], tb[end, third], tc[end, third])
                             for end in (i[pair], j[pair])]), e)


def point_center_candidates(pointset: PointSet):
    """The input points themselves.  A ring whose inner radius degenerates
    to zero has its center on a point, and small instances have no other
    pinned centers at all."""
    return pointset.xs, pointset.ys


@np.errstate(over="ignore", invalid="ignore")
def far_field_candidates(pointset: PointSet):
    """Sentinel centers far outside the cloud.  Ring widths grow toward
    empty-strip widths as the center recedes, so any bounded sampling of
    the plane is dominated by centers far along the candidate strip
    normals: the direction of a point pair and its perpendicular, at each
    of FAR_FIELD_SCALES times the cloud span from the pair's first point.
    Near the top of the float range a span, a pair's distance or a
    sentinel may overflow; the sentinels that do are dropped, so every
    center returned is finite."""
    X, Y = pointset.xs, pointset.ys
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
    return _finite(*_concat(parts))


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
    ds = [math.hypot(x - cx, y - cy)
          for x, y in zip(pointset.xs.tolist(), pointset.ys.tolist())]
    t = widest_rainbow_gap(ds, pointset.cs, pointset.k, eps)
    if t is None:
        return None
    ds.sort()
    return CircularAnnulus(cx, cy, ds[t], ds[t + 1])


class _Columns(NamedTuple):
    """The points as columns grouped by color, with what every scoring
    pass of one search shares: k and the bounding box."""
    X: np.ndarray
    Y: np.ndarray
    C: np.ndarray
    k: int
    box: tuple  # (x0, x1, y0, y1)


def _columns(pointset: PointSet) -> _Columns:
    X, Y, C = pointset.xs, pointset.ys, pointset.cs
    order = np.argsort(C, kind="stable")
    box = tuple(X[pointset.by_x[[0, -1]]].tolist() + Y[pointset.by_y[[0, -1]]].tolist())
    return _Columns(X[order], Y[order], C[order], pointset.k, box)


def _hypot_rows(X, Y, cx, cy, D, T):
    # a distance that overflows is inf, and rainbow_gaps never uses it
    with np.errstate(over="ignore"):
        np.subtract(X, cx, out=D)
        np.subtract(Y, cy, out=T)
        return np.hypot(D, T, out=D)


def _sqrt_rows(X, Y, cx, cy, D, T):
    np.subtract(X, cx, out=D)
    D *= D
    np.subtract(Y, cy, out=T)
    T *= T
    D += T
    return np.sqrt(D, out=D)


def _row_widths(cols: _Columns, cxs, cys, eps: float, distances):
    # the rainbow-gap scan over each center's row of distances, in chunks
    # of rows that share two distance buffers; -inf where a row has no
    # usable gap
    out = np.full(len(cxs), -np.inf)
    n = cols.X.size
    step = max(1, _CHUNK // n)
    D = np.empty((min(step, len(cxs)), n))
    T = np.empty_like(D)
    for lo in range(0, len(cxs), step):
        cx = np.asarray(cxs[lo:lo + step], dtype=float)[:, None]
        cy = np.asarray(cys[lo:lo + step], dtype=float)[:, None]
        m = len(cx)
        V = distances(cols.X, cols.Y, cx, cy, D[:m], T[:m])
        out[lo:lo + m] = rainbow_gaps(V, cols.C, cols.k, eps).max(axis=1)
    return out


def _batch_widths(cols: _Columns, cxs, cys, eps: float):
    """Best ring width at each center, -inf where none, from np.hypot
    distances: the exact scores the shortlist is taken from.  Finalists
    are re-scored by best_annulus_at_center."""
    return _row_widths(cols, cxs, cys, eps, _hypot_rows)


def _screen(cols: _Columns, cxs, cys, eps: float):
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
    x0, x1, y0, y1 = cols.box
    with np.errstate(over="ignore", invalid="ignore"):
        B = (np.maximum(np.abs(cxs - x0), np.abs(cxs - x1))
             + np.maximum(np.abs(cys - y0), np.abs(cys - y1)))
    safe = (B >= 2.0 ** -450) & (B <= 2.0 ** 510)
    e = np.full(len(cxs), np.inf)
    e[safe] = B[safe] * 2.0 ** -47
    w = np.full(len(cxs), -np.inf)
    w[safe] = _row_widths(cols, cxs[safe], cys[safe], eps, _sqrt_rows)
    return w, e


def _spread(q):
    # q, floats in [0, 2^16), as uint32 with bit i of each moved to bit 2i
    q = q.astype(np.uint32)
    q = (q | (q << 8)) & 0x00FF00FF
    q = (q | (q << 4)) & 0x0F0F0F0F
    q = (q | (q << 2)) & 0x33333333
    return (q | (q << 1)) & 0x55555555


def _cell_order(cxs, cys, box):
    """A permutation of the indices of the centers, every one finite, in
    the order that cuts them into the pruning cells; input order when the
    bounding box cannot be gridded (a side of the grid's region below
    rounds to zero, as for a point, or overflows).  With pad the box's
    larger side, the centers near the points, inside the box grown by pad
    on every side, come first, sorted by the interleaved bits of their
    coordinates on a 2^16 by 2^16 grid over that region (Z order).  The
    others follow in Z order of their angle and of log2 of their distance
    over pad, both about the box middle, on the same grid, the log clipped
    to [0, _DOUBLINGS].
    _cell_bounds prunes a far cell by its radius over its distance, which
    cells of equal size in angle and log distance share.  Consecutive runs
    of the order are the cells of _shortlist_rows; any order is correct
    there, and a spatial one lets cells be pruned."""
    x0, x1, y0, y1 = box
    pad = max(x1 - x0, y1 - y0)
    lo_x, hi_x, lo_y, hi_y = x0 - pad, x1 + pad, y0 - pad, y1 + pad
    # a side of the region that rounds to zero, or whose scale leaves the
    # float range, has no grid
    with np.errstate(divide="ignore", over="ignore"):
        sx, sy = _GRID / np.array([hi_x - lo_x, hi_y - lo_y])
    if not (0.0 < sx < math.inf and 0.0 < sy < math.inf):
        return np.arange(len(cxs))
    # one key per center: the near Z order below 2^32, the far one above it
    near = (cxs >= lo_x) & (cxs <= hi_x) & (cys >= lo_y) & (cys <= hi_y)
    key = np.empty(len(cxs), dtype=np.uint64)
    key[near] = (_spread((cxs[near] - lo_x) * sx)
                 | (_spread((cys[near] - lo_y) * sy) << 1))
    far = ~near
    with np.errstate(over="ignore"):
        dx = cxs[far] - (x0 + 0.5 * (x1 - x0))
        dy = cys[far] - (y0 + 0.5 * (y1 - y0))
        angle = (np.arctan2(dy, dx) + math.pi) * (_GRID / (2.0 * math.pi))
        depth = (np.log2(np.hypot(dx, dy)) - math.log2(pad)) * (_GRID / _DOUBLINGS)
    key[far] = _spread(angle) | (_spread(np.clip(depth, 0.0, _GRID)) << 1)
    key[far] += 2 ** 32
    return np.argsort(key)


@np.errstate(over="ignore", invalid="ignore")
def _lipschitz(rx, ry, rho, box):
    """Per cell, K in [0, 2] such that moving the center from the cell's
    representative (rx, ry) to any c with |c - (rx, ry)| <= rho shifts
    every entry of an exact distance row by one common amount plus at most
    K*rho/2 either way.  K is min(2, D/(g - rho)) rounded up, with D the
    diagonal of the points' bounding box and g the distance from the
    representative to it, and 2 where g <= rho."""
    # Why: each distance is 1-Lipschitz in the center, so every entry moves
    # by at most rho either way: K = 2.  Where g > rho, every center c' on
    # the segment from c0 = (rx, ry) to c is at least g - rho from the box,
    # so from every point.  The gradient of d_p - d_q at c' is u_p - u_q,
    # the unit vectors from p and from q to c', and by the Dunkl-Williams
    # inequality |u_p - u_q| <= 2|p - q| / (|c' - p| + |c' - q|), which is
    # at most D/(g - rho).  So d_p - d_q changes by at most rho*D/(g - rho)
    # from c0 to c, and every shift d_p(c) - d_p(c0) lies in one interval
    # that wide.
    # Rounding, with u = 2^-53: D, from two rounded differences and
    # math.hypot (under one ulp), is within 3u of the diagonal, and times
    # 1 + 2^-50, rounded, above it.  g, from rounded differences and
    # np.hypot (two ulps), is within 5u of its value, and times 1 - 2^-50,
    # rounded, below it.  The subtraction and the division round by u each,
    # and times 1 + 2^-50, rounded, K is again above D/(g - rho), unless K
    # is subnormal, where it can fall short by 2^-1074.  fmin keeps 2 where
    # D and g - rho are both inf.
    x0, x1, y0, y1 = box
    D = math.hypot(x1 - x0, y1 - y0) * (1.0 + 2.0 ** -50)
    gx = np.maximum(np.maximum(x0 - rx, rx - x1), 0.0)
    gy = np.maximum(np.maximum(y0 - ry, ry - y1), 0.0)
    slack = np.hypot(gx, gy) * (1.0 - 2.0 ** -50) - rho
    K = np.full(len(rho), 2.0)
    fits = slack > 0.0
    K[fits] = np.fmin(2.0, (D / slack[fits]) * (1.0 + 2.0 ** -50))
    return K


def _cell_bounds(cxs, cys, members, rep, w0, e0, eps: float, box):
    """Per cell, an upper bound on max(w_x(c), eps) over its members c,
    w_x being the exact score of _batch_widths: members[i] are the indices
    of cell i's centers and rep[i] its representative, which _screen scored
    as (w0[i], e0[i]); box is the points' bounding box.  The bound is inf
    where e0 is."""
    # Why: moving the center from c0 to c shifts every entry of an exact row
    # by one common amount plus at most K*rho/2 either way (_lipschitz), and
    # the np.hypot error at c and at c0 (the subtraction and the hypot, 4u*B
    # at each, with B and u as in _screen) adds to that.  A common shift
    # moves no gap, so by _screen's gap argument the exact score moves by at
    # most twice the rest, with -inf read as eps, plus each gap's rounding
    # (u*B at each):
    #   max(w_x(c), eps) <= max(w_x(c0), eps) + K*rho + 9u*(B(c) + B(c0)),
    # and B(c) <= B(c0) + sqrt(2)*|c - c0|.  rho, the largest
    # sqrt(dx*dx + dy*dy) over the coordinate differences from c0 to a
    # member, is within 3u of |c - c0|; times 1 + 2^-50 (rounded, still
    # above 1 + 6u) it is at least |c - c0|.  With _screen's bound at c0,
    #   max(w_x(c), eps) <= max(w0, eps) + e0 + K*rho + 18u*B0 + 13u*rho,
    # and the four roundings of the sum below add at most
    # u*(3*B0 + 8*rho), eps counting only where it is below the gap (a gap
    # at c is at most B(c)).  The sum adds e0 = 64u*B0 once more, for the
    # B0 terms, and rho*2^-46 = 128u*rho, for the rho terms (and a
    # subnormal K's 2^-1074*rho), which K, as small as it may be, cannot
    # carry.  e0 is finite only where B0 >= 2^-450, so the absolute errors
    # of results that underflow (about 2^-537 for rho, 2^-1074 for a
    # distance) are far below it.  Where a square overflows, rho is inf, K
    # is 2, and so the bound is inf.
    with np.errstate(over="ignore", invalid="ignore"):
        dx = cxs[members] - cxs[rep][:, None]
        dy = cys[members] - cys[rep][:, None]
        dx *= dx
        dy *= dy
        dx += dy
        rho = np.sqrt(dx.max(axis=1)) * (1.0 + 2.0 ** -50)
        K = _lipschitz(cxs[rep], cys[rep], rho, box)
        return ((np.maximum(w0, eps) + 2.0 * e0)
                + (K * rho + rho * 2.0 ** -46))


def _shortlist_rows(cols: _Columns, cxs, cys, eps: float):
    """Indices, ascending, of every center whose exact score can reach the
    shortlist, which then needs no other center scored exactly.

    Every center, all of them finite, is placed in a cell (_cell_order);
    the cells are pruned coarse to fine from one screened representative
    each, and those that survive the finest level are screened whole.  Of
    the screened centers, those whose upper bound can reach
    t_lo - _FINALIST_SLACK are returned, t_lo being the best lower bound
    the screen found."""
    # A center whose exact score is below fl(t_lo - _FINALIST_SLACK), which
    # is at most fl(top - _FINALIST_SLACK), is on no shortlist; a skipped
    # cell's members all are, by _cell_bounds.
    w = np.full(len(cxs), -np.inf)
    e = np.full(len(cxs), np.inf)
    seen = np.zeros(len(cxs), dtype=bool)
    t_lo = -np.inf

    def screen(rows):
        nonlocal t_lo
        rows = rows[~seen[rows]]
        if not rows.size:
            return
        seen[rows] = True
        w[rows], e[rows] = _screen(cols, cxs[rows], cys[rows], eps)
        lower = w[rows] - e[rows]
        lower = lower[lower > eps]
        if lower.size:
            t_lo = max(t_lo, lower.max())

    order = _cell_order(cxs, cys, cols.box)
    # cells are runs of positions in order, and ox, oy their coordinates
    m = order.size
    ox, oy = cxs[order], cys[order]
    cells = np.arange(-(-m // _CELLS[0]))
    for size, finer in zip(_CELLS, _CELLS[1:] + (1,)):
        first = cells * size
        last = np.minimum(first + size, m) - 1
        mid = (first + last) // 2
        rep = order[mid]
        screen(rep)
        if t_lo > -np.inf:
            members = np.minimum(first[:, None] + np.arange(size), last[:, None])
            bound = _cell_bounds(ox, oy, members, mid, w[rep], e[rep], eps, cols.box)
            cells = cells[~(bound < t_lo - _FINALIST_SLACK)]
        # the next level's cells; after the last, the surviving positions
        per = size // finer
        cells = (cells[:, None] * per + np.arange(per)).ravel()
        cells = cells[cells * finer < m]
    screen(order[cells])
    return np.flatnonzero(seen & (np.maximum(w, eps) + e
                                  >= t_lo - _FINALIST_SLACK))


def _pick_best(pointset: PointSet, cxs, cys, eps: float):
    # Every center whose exact score is within _FINALIST_SLACK of the best
    # is among _shortlist_rows, so scoring those exactly with _batch_widths
    # gives the same shortlist, in the same order, as scoring every center.
    cols = _columns(pointset)
    rows = _shortlist_rows(cols, cxs, cys, eps)
    w = _batch_widths(cols, cxs[rows], cys[rows], eps)
    top = w.max(initial=-np.inf)
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
    # the crossings come from _frame's scaled coordinates, with c scaled
    # alike; the far sentinels, whose max(span, 1.0) is not scale-exact,
    # from the input's
    X, Y, e = _frame(pointset)
    la, lb, lc = line.a, line.b, math.ldexp(line.c, -e)
    i, j, a, b, c = _bisectors(X, Y)
    parts = [_cross(la, lb, lc, a, b, c)]
    # line through points i and j
    parts.append(_cross(la, lb, lc, *_line(X[i], Y[i], X[j], Y[j])))
    # line through the mirror image (mx, my) of point i and point j != i
    n2 = la * la + lb * lb
    d = (la * X + lb * Y - lc) / n2
    mx = X - 2.0 * d * la
    my = Y - 2.0 * d * lb
    i, j = np.nonzero(~np.eye(X.size, dtype=bool))
    parts.append(_cross(la, lb, lc, *_line(mx[i], my[i], X[j], Y[j])))
    parts = [_unscale(_concat(parts), e)]
    X, Y = pointset.xs, pointset.ys
    ox, oy = line.origin
    dx, dy = line.direction
    # near the top of the float range these may overflow, and the
    # sentinels that do are dropped
    with np.errstate(over="ignore", invalid="ignore"):
        ts = (X - ox) * dx + (Y - oy) * dy
        lo, hi = float(ts.min()), float(ts.max())
        span = max(hi - lo, 1.0)
        t = np.array([v for s in FAR_FIELD_SCALES
                      for v in (lo - s * span, hi + s * span)])
        parts.append(_finite(ox + t * dx, oy + t * dy))
    xs, ys = _concat(parts)
    return _pick_best(pointset, xs, ys, eps)
