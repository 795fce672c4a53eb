"""Widest rainbow-bisecting empty circular annuli.

The width of the best ring at a fixed center is a gap in the sorted
point distances whose near side and far side are each rainbow.  As the
center moves, that width is piecewise smooth; its attained maxima pin
the center to an intersection of two perpendicular bisectors, to a line
through two input points, or to an input point itself (inner radius
zero), while unattained suprema run off toward infinity where ring
widths approach empty-strip widths.  The solver therefore evaluates a
finite stream of such centers, including far sentinels that dominate
any bounded sampling of the plane, and keeps the best valid ring.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, NamedTuple, Optional

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

_FINALIST_SLACK = 1e-9


class LiftedPoint(NamedTuple):
    x: float
    y: float
    z: float


class CenterCandidate(NamedTuple):
    """A center worth evaluating, tagged with how it was produced."""

    x: float
    y: float
    provenance: tuple


def lift(point) -> LiftedPoint:
    """Vertical projection onto the paraboloid z = x^2 + y^2."""
    if hasattr(point, "x"):
        x, y = float(point.x), float(point.y)
    else:
        x, y = float(point[0]), float(point[1])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError("non-finite point")
    return LiftedPoint(x, y, x * x + y * y)


def circle_plane(center, radius: float) -> tuple[float, float, float]:
    """Coefficients (a, b, c) of the plane z = a*x + b*y + c that cuts the
    lift paraboloid exactly over the circle |p - center| = radius.  A point
    is inside the circle iff its lift lies strictly below this plane, and
    concentric circles share (a, b)."""
    cx, cy = float(center[0]), float(center[1])
    r = float(radius)
    return (2.0 * cx, 2.0 * cy, r * r - cx * cx - cy * cy)


# ---------------------------------------------------------------------------
# candidate centers


def _bisector(p, q):
    # locus of centers equidistant from p and q; None for coincident points
    a = 2.0 * (q.x - p.x)
    b = 2.0 * (q.y - p.y)
    if a == 0.0 and b == 0.0:
        return None
    c = (q.x * q.x + q.y * q.y) - (p.x * p.x + p.y * p.y)
    return (a, b, c)


def _through(p, q):
    # line through two points as (a, b, c) with a*x + b*y = c
    a = q.y - p.y
    b = p.x - q.x
    if a == 0.0 and b == 0.0:
        return None
    return (a, b, a * p.x + b * p.y)


def _cross(l1, l2):
    a1, b1, c1 = l1
    a2, b2, c2 = l2
    det = a1 * b2 - a2 * b1
    if det == 0.0:
        return None
    x = (c1 * b2 - c2 * b1) / det
    y = (a1 * c2 - a2 * c1) / det
    if not (math.isfinite(x) and math.isfinite(y)):
        return None
    return (x, y)


def cir22_candidates(pointset: PointSet) -> Iterator[CenterCandidate]:
    """Centers equidistant from one point pair and from another: the
    intersection of the two perpendicular bisectors.  Pairs may share a
    point (three points on one boundary circle land here).  Parallel
    bisectors yield no candidate."""
    pts = pointset.points
    pairs = list(itertools.combinations(range(len(pts)), 2))
    bis = [_bisector(pts[i], pts[j]) for i, j in pairs]
    for u, v in itertools.combinations(range(len(pairs)), 2):
        if bis[u] is None or bis[v] is None:
            continue
        got = _cross(bis[u], bis[v])
        if got is not None:
            yield CenterCandidate(got[0], got[1],
                                  ("two_pairs", pairs[u], pairs[v]))


def cir21_candidates(pointset: PointSet) -> Iterator[CenterCandidate]:
    """Centers equidistant from a pair with a third point collinear with
    the center and one pair member: bisector(p, q) crossed with the line
    through p (or q) and the third point."""
    pts = pointset.points
    n = len(pts)
    for i, j in itertools.combinations(range(n), 2):
        bis = _bisector(pts[i], pts[j])
        if bis is None:
            continue
        for r in range(n):
            if r == i or r == j:
                continue
            for a in (i, j):
                ray = _through(pts[a], pts[r])
                if ray is None:
                    continue
                got = _cross(bis, ray)
                if got is not None:
                    yield CenterCandidate(got[0], got[1],
                                          ("pair_and_ray", (i, j), (a, r)))


def point_center_candidates(pointset: PointSet) -> Iterator[CenterCandidate]:
    """The input points themselves.  A ring whose inner radius degenerates
    to zero has its center on a point, and small instances have no other
    pinned centers at all."""
    for i, p in enumerate(pointset.points):
        yield CenterCandidate(p.x, p.y, ("input_point", i))


def _cloud_span(pts) -> float:
    xs = [p.x for p in pts]
    ys = [p.y for p in pts]
    return max(max(xs) - min(xs), max(ys) - min(ys), 1.0)


def far_field_candidates(pointset: PointSet) -> Iterator[CenterCandidate]:
    """Sentinel centers far outside the cloud.  Ring widths grow toward
    empty-strip widths as the center recedes, so any bounded sampling of
    the plane is dominated by centers far along the candidate strip
    normals: the direction of a point pair and its perpendicular."""
    pts = pointset.points
    n = len(pts)
    span = _cloud_span(pts)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            dx = pts[j].x - pts[i].x
            dy = pts[j].y - pts[i].y
            d = math.hypot(dx, dy)
            if d == 0.0:
                continue
            ux, uy = dx / d, dy / d
            for s in FAR_FIELD_SCALES:
                back = s * span
                yield CenterCandidate(pts[i].x - back * ux,
                                      pts[i].y - back * uy,
                                      ("far_along", i, j, s))
                yield CenterCandidate(pts[i].x + back * uy,
                                      pts[i].y - back * ux,
                                      ("far_perp", i, j, s))


# ---------------------------------------------------------------------------
# evaluation


def best_annulus_at_center(pointset: PointSet, center,
                           eps: float = DEFAULT_EPS) -> Optional[CircularAnnulus]:
    """Widest valid ring centered at the given point, or None.

    Sorts the points by distance and takes the widest rainbow gap between
    consecutive distances: the near side already shows every color and the
    far side still does.  Ties keep the smallest inner radius.
    """
    cx = float(center[0])
    cy = float(center[1])
    if not (math.isfinite(cx) and math.isfinite(cy)):
        return None
    order = sorted((math.hypot(p.x - cx, p.y - cy), p.color)
                   for p in pointset.points)
    t = widest_rainbow_gap([d for d, _ in order], [c for _, c in order],
                           pointset.k, eps)
    if t is None:
        return None
    return CircularAnnulus(cx, cy, order[t][0], order[t + 1][0])


def _batch_widths(pointset: PointSet, cxs, cys, eps: float):
    """Best ring width at each center, -inf where none: the rainbow-gap
    scan over each center's sorted distance row, in chunks of rows.  Used
    to shortlist candidates; finalists are re-scored exactly."""
    X = np.array([p.x for p in pointset.points])
    Y = np.array([p.y for p in pointset.points])
    C = np.array([p.color for p in pointset.points])
    k = pointset.k
    n = X.size
    out = np.full(len(cxs), -np.inf)
    if n < 2:
        return out
    step = max(1, 1_000_000 // max(n, 1))
    for lo in range(0, len(cxs), step):
        cx = np.asarray(cxs[lo:lo + step], dtype=float)[:, None]
        cy = np.asarray(cys[lo:lo + step], dtype=float)[:, None]
        D = np.hypot(X[None, :] - cx, Y[None, :] - cy)
        ordidx = np.argsort(D, axis=1, kind="stable")
        Ds = np.take_along_axis(D, ordidx, axis=1)
        out[lo:lo + step] = rainbow_gaps(Ds, C[ordidx], k, eps).max(axis=1)
    return out


def _widths_chunk(args):
    ps, cxs, cys, eps = args
    return _batch_widths(ps, cxs, cys, eps)


def _pick_best(pointset: PointSet, centers, eps: float, workers: int = 1):
    if not centers:
        return None
    cxs = [c[0] for c in centers]
    cys = [c[1] for c in centers]
    # below ~20k centers the pool spawn costs more than the evaluation
    nw = min(int(workers), len(centers) // 20_000)
    if nw > 1:
        # chunk boundaries cannot change the result: widths are computed
        # identically and the reduction below is global
        import concurrent.futures

        bounds = [len(centers) * t // nw for t in range(nw + 1)]
        jobs = [(pointset, cxs[a:b], cys[a:b], eps)
                for a, b in zip(bounds, bounds[1:]) if b > a]
        with concurrent.futures.ProcessPoolExecutor(max_workers=nw) as pool:
            w = np.concatenate(list(pool.map(_widths_chunk, jobs)))
    else:
        w = _batch_widths(pointset, cxs, cys, eps)
    top = w.max()
    if not np.isfinite(top):
        return None
    best = None
    key = None
    for idx in np.flatnonzero(w >= top - _FINALIST_SLACK):
        ann = best_annulus_at_center(pointset, centers[idx], eps)
        if ann is None:
            continue
        cand = (-ann.width, ann.center_x, ann.center_y)
        if key is None or cand < key:
            key = cand
            best = ann
    return best


def max_rbca(pointset: PointSet, eps: float = DEFAULT_EPS,
             workers: int = 1) -> Optional[CircularAnnulus]:
    """Widest valid ring over every candidate center, or None.  Ties prefer
    the lexicographically smaller center.  workers caps parallel candidate
    scoring; the result is identical at any setting."""
    centers = [(c.x, c.y) for c in itertools.chain(
        point_center_candidates(pointset),
        cir22_candidates(pointset),
        cir21_candidates(pointset),
        far_field_candidates(pointset),
    )]
    return _pick_best(pointset, centers, eps, workers)


# ---------------------------------------------------------------------------
# centers constrained to a line


def _reflect(p, line: Line):
    a, b, c = line.a, line.b, line.c
    n2 = a * a + b * b
    d = (a * p.x + b * p.y - c) / n2
    return (p.x - 2.0 * d * a, p.y - 2.0 * d * b)


def max_rbca_on_line(pointset: PointSet, line: Line, eps: float = DEFAULT_EPS,
                     workers: int = 1) -> Optional[CircularAnnulus]:
    """Widest valid ring whose center lies on the given line, or None.

    Candidate centers on the line: crossings with every perpendicular
    bisector (the distance order changes only there), crossings with every
    point-pair line (collinear configurations), crossings with lines from a
    reflected point (where a distance difference is stationary along the
    line), and far sentinels along the line for optima approached at
    infinity.
    """
    pts = pointset.points
    n = len(pts)
    lref = (line.a, line.b, line.c)
    centers = []
    for i, j in itertools.combinations(range(n), 2):
        bis = _bisector(pts[i], pts[j])
        if bis is not None:
            got = _cross(lref, bis)
            if got is not None:
                centers.append(got)
        ray = _through(pts[i], pts[j])
        if ray is not None:
            got = _cross(lref, ray)
            if got is not None:
                centers.append(got)
    for i in range(n):
        mx, my = _reflect(pts[i], line)
        for j in range(n):
            if j == i:
                continue
            a = pts[j].y - my
            b = mx - pts[j].x
            if a == 0.0 and b == 0.0:
                continue
            got = _cross(lref, (a, b, a * mx + b * my))
            if got is not None:
                centers.append(got)
    ox, oy = line.origin
    dx, dy = line.direction
    ts = [(p.x - ox) * dx + (p.y - oy) * dy for p in pts]
    span = max(max(ts) - min(ts), 1.0)
    for s in FAR_FIELD_SCALES:
        for t in (min(ts) - s * span, max(ts) + s * span):
            centers.append((ox + t * dx, oy + t * dy))
    return _pick_best(pointset, centers, eps, workers)
