"""Brute-force reference solvers.

Everything here is written for clarity and trustworthiness, not speed,
and shares no code with the optimized solver modules: each function
re-derives the answer from the problem definition alone.  The strip,
corridor, square and rectangle oracles are exact on their candidate
theory; the circular ones are sampled lower bounds (no exact
independent formulation exists that does not re-derive the candidate
enumeration the solver itself uses).
"""

from __future__ import annotations

import numpy as np

from .core import (
    DEFAULT_EPS,
    INF,
    L_ORIENTATIONS,
    LCorridor,
    Line,
    PointSet,
    QUADRANT_SIGNS,
    RectAnnulus,
    SquareAnnulus,
    Strip,
    offset_square,
)


def oracle_rbes(pointset: PointSet, orientation: str, eps: float = DEFAULT_EPS):
    """Widest empty strip with both closed sides rainbow, by exhaustive scan.

    Recounts both sides from scratch for every consecutive coordinate
    gap; O(n^2).  Ties go to the smallest lo.
    """
    if orientation == "vertical":
        coord = [p.x for p in pointset.points]
    elif orientation == "horizontal":
        coord = [p.y for p in pointset.points]
    else:
        raise ValueError("bad orientation %r" % orientation)
    colors = [p.color for p in pointset.points]
    vals = sorted(set(coord))
    best = None
    for a, b in zip(vals, vals[1:]):
        lo_counts = [0] * pointset.k
        hi_counts = [0] * pointset.k
        for v, c in zip(coord, colors):
            if v <= a:
                lo_counts[c - 1] += 1
            elif v >= b:
                hi_counts[c - 1] += 1
        if min(lo_counts) >= 1 and min(hi_counts) >= 1 and b - a > eps:
            if best is None or b - a > best.width:
                best = Strip(orientation, a, b)
    return best


def oracle_rblc(pointset: PointSet, eps: float = DEFAULT_EPS,
                orientations=L_ORIENTATIONS):
    """Widest empty L-corridor over all four orientations, via grid corners.

    In the canonical down-right frame, some maximum-width corridor has its
    inner corner (a, b) with a the x-coordinate of one input point and b
    the y-coordinate of another: sliding a corridor right and then down at
    fixed width keeps it valid until the inner corner hits the inside
    region's extreme point coordinates.  At a fixed corner the maximal
    width is min over non-inside points p of max(a - x(p), y(p) - b),
    feasible iff both regions span all colors.  O(n^3) per orientation.
    ``orientations`` restricts the search, mainly for targeted tests.
    """
    best = None
    for orientation in orientations:
        sx, sy = QUADRANT_SIGNS[orientation]
        tp = [(sx * p.x, sy * p.y, p.color) for p in pointset.points]
        xs = sorted({x for x, _, _ in tp})
        ys = sorted({y for _, y, _ in tp})
        for a in xs:
            for b in ys:
                inside_colors = set()
                outside_colors = set()
                delta = INF
                for x, y, c in tp:
                    if x >= a and y <= b:
                        inside_colors.add(c)
                    else:
                        f = max(a - x, y - b)
                        if f < delta:
                            delta = f
                        outside_colors.add(c)
                if (len(inside_colors) == pointset.k
                        and len(outside_colors) == pointset.k
                        and eps < delta < INF):
                    if best is None or delta > best.width:
                        best = LCorridor(orientation,
                                         sx * (a - delta), sy * (b + delta), delta)
    return best


def _rbsa_from_strip(strip: Strip):
    if strip is None:
        return None
    if strip.orientation == "vertical":
        return SquareAnnulus(-INF, strip.hi, -INF, INF, strip.width)
    return SquareAnnulus(-INF, INF, -INF, strip.hi, strip.width)


def _rbsa_from_corridor(cor: LCorridor):
    if cor is None:
        return None
    sx, sy = QUADRANT_SIGNS[cor.orientation]
    left, right = (cor.corner_x, INF) if sx > 0 else (-INF, cor.corner_x)
    bottom, top = (-INF, cor.corner_y) if sy > 0 else (cor.corner_y, INF)
    return SquareAnnulus(left, right, bottom, top, cor.width)


def _rbsa_bounded_family(xs, ys, colors, k, eps):
    """Best bounded square annulus whose outer top and bottom sides each
    hold an input point.  Exhaustive center-abscissa candidates per pair."""
    n = len(xs)
    X = np.asarray(xs, dtype=float)
    Y = np.asarray(ys, dtype=float)
    C = np.asarray(colors)
    best = None  # (width, t, y0, r)
    order = sorted(range(n), key=lambda i: (ys[i], xs[i]))
    for ii in range(n):
        for jj in range(ii + 1, n):
            i, j = order[ii], order[jj]
            if ys[j] - ys[i] <= eps:
                continue
            r = (ys[j] - ys[i]) / 2.0
            y0 = (ys[j] + ys[i]) / 2.0
            ax = max(xs[i], xs[j]) - r
            bx = min(xs[i], xs[j]) + r
            if ax > bx:
                continue
            dy = np.abs(Y - y0)
            cand = np.concatenate([
                X, X[:, None] + dy[None, :], X[:, None] - dy[None, :],
                (X[:, None] + X[None, :]) / 2.0, X + r, X - r,
            ], axis=None)
            cand = np.unique(np.clip(cand, ax, bx))
            D = np.maximum(np.abs(X[:, None] - cand[None, :]), dy[:, None])
            strictly_in = D < r - eps
            rin = np.where(strictly_in, D, -INF).max(axis=0)
            width = r - rin
            feasible = rin > -INF
            out_mask = D >= r - eps
            for c in range(1, k + 1):
                cm = C == c
                feasible &= strictly_in[cm].any(axis=0)
                feasible &= out_mask[cm].any(axis=0)
            feasible &= width > eps
            if feasible.any():
                w = np.where(feasible, width, -INF)
                at = int(np.argmax(w))
                if best is None or w[at] > best[0]:
                    best = (float(w[at]), float(cand[at]), y0, r)
    if best is None:
        return None
    w, t, y0, r = best
    return SquareAnnulus(t - r, t + r, y0 - r, y0 + r, w)


def oracle_rbsa(pointset: PointSet, eps: float = DEFAULT_EPS):
    """Widest empty square annulus: strips, corridors, and bounded squares.

    Ties between the families go in that order (strip first).
    """
    xs = [p.x for p in pointset.points]
    ys = [p.y for p in pointset.points]
    colors = [p.color for p in pointset.points]
    swapped = _rbsa_bounded_family(ys, xs, colors, pointset.k, eps)
    if swapped is not None:
        swapped = SquareAnnulus(swapped.bottom, swapped.top,
                                swapped.left, swapped.right, swapped.delta)
    candidates = [
        _rbsa_from_strip(oracle_rbes(pointset, "vertical", eps)),
        _rbsa_from_strip(oracle_rbes(pointset, "horizontal", eps)),
        _rbsa_from_corridor(oracle_rblc(pointset, eps)),
        _rbsa_bounded_family(xs, ys, colors, pointset.k, eps),
        swapped,
    ]
    best = None
    for cand in candidates:
        if cand is not None and (best is None or cand.width > best.width):
            best = cand
    return best


def oracle_rbra(pointset: PointSet, eps: float = DEFAULT_EPS):
    """Widest uniform empty rectangular annulus by exhaustive outer sides.

    Outer sides range over point coordinates plus infinity sentinels; for
    a fixed outer rectangle the inner box is forced to the bounding box of
    the strictly enclosed points, making the best uniform width the
    smallest of the four clearances.  The witness keeps the outer sides
    and re-inflates the inner box to uniform width.  O(n^5)-ish.
    """
    pts = pointset.points
    k = pointset.k
    xcand = [-INF] + sorted({p.x for p in pts}) + [INF]
    ycand = [-INF] + sorted({p.y for p in pts}) + [INF]
    best = None
    best_key = None
    for li in range(len(xcand)):
        for ri in range(li + 1, len(xcand)):
            L, R = xcand[li], xcand[ri]
            in_x = [p for p in pts if L < p.x < R]
            for bi in range(len(ycand)):
                for ti in range(bi + 1, len(ycand)):
                    B, T = ycand[bi], ycand[ti]
                    inner_pts = [p for p in in_x if B < p.y < T]
                    if not inner_pts or len(inner_pts) == len(pts):
                        continue
                    if len({p.color for p in inner_pts}) != k:
                        continue
                    ids = {id(p) for p in inner_pts}
                    out_colors = {p.color for p in pts if id(p) not in ids}
                    if len(out_colors) != k:
                        continue
                    il = min(p.x for p in inner_pts)
                    ir = max(p.x for p in inner_pts)
                    ib = min(p.y for p in inner_pts)
                    it = max(p.y for p in inner_pts)
                    w = min(il - L, R - ir, ib - B, T - it)
                    if not (eps < w < INF):
                        continue
                    key = (-w, L, B)
                    if best_key is None or key < best_key:
                        best_key = key
                        inner = offset_square((L, R, B, T), w)
                        best = RectAnnulus(L, R, B, T, *inner, w)
    return best


def _best_widths_at_centers(pointset: PointSet, cx, cy, eps):
    """Vectorized best annulus width per candidate center; -inf if none."""
    X = np.array([p.x for p in pointset.points])
    Y = np.array([p.y for p in pointset.points])
    C = np.array([p.color for p in pointset.points])
    n = len(X)
    D = np.hypot(cx[:, None] - X[None, :], cy[:, None] - Y[None, :])
    order = np.argsort(D, axis=1, kind="stable")
    Ds = np.take_along_axis(D, order, axis=1)
    Cs = C[order]
    # prefix through index i is rainbow iff i >= latest first-occurrence;
    # suffix from i+1 is rainbow iff i+1 <= earliest last-occurrence
    first_needed = np.zeros(len(cx), dtype=int)
    last_allowed = np.full(len(cx), n - 1, dtype=int)
    for c in range(1, pointset.k + 1):
        mask = Cs == c
        first = mask.argmax(axis=1)
        last = n - 1 - mask[:, ::-1].argmax(axis=1)
        first_needed = np.maximum(first_needed, first)
        last_allowed = np.minimum(last_allowed, last)
    gaps = Ds[:, 1:] - Ds[:, :-1]
    idx = np.arange(n - 1)
    ok = (idx[None, :] >= first_needed[:, None]) \
        & (idx[None, :] + 1 <= last_allowed[:, None]) \
        & (gaps > eps)
    return np.where(ok, gaps, -INF).max(axis=1, initial=-INF)


def oracle_rbca(pointset: PointSet, grid: int = 200, eps: float = DEFAULT_EPS) -> float:
    """Sampled lower bound on the widest empty circular annulus.

    Evaluates every center of a grid x grid lattice over the slightly
    expanded bounding box; each sampled width is achievable, so the
    optimized answer must be at least the returned value.
    """
    xs = [p.x for p in pointset.points]
    ys = [p.y for p in pointset.points]
    spanx = (max(xs) - min(xs)) or 1.0
    spany = (max(ys) - min(ys)) or 1.0
    gx = np.linspace(min(xs) - 0.25 * spanx, max(xs) + 0.25 * spanx, grid)
    gy = np.linspace(min(ys) - 0.25 * spany, max(ys) + 0.25 * spany, grid)
    CX, CY = np.meshgrid(gx, gy)
    w = _best_widths_at_centers(pointset, CX.ravel(), CY.ravel(), eps)
    top = float(w.max(initial=-INF))
    return max(top, 0.0)


def oracle_rbca_on_line(pointset: PointSet, line: Line, samples: int = 10000,
                        eps: float = DEFAULT_EPS) -> float:
    """Sampled lower bound for centers constrained to a line."""
    ox, oy = line.origin
    dx, dy = line.direction
    ts = [(p.x - ox) * dx + (p.y - oy) * dy for p in pointset.points]
    span = (max(ts) - min(ts)) or 1.0
    t = np.linspace(min(ts) - 0.5 * span, max(ts) + 0.5 * span, samples)
    w = _best_widths_at_centers(pointset, ox + t * dx, oy + t * dy, eps)
    top = float(w.max(initial=-INF))
    return max(top, 0.0)
