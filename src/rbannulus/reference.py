"""Reference constructions the tests compare against; no solver runs them.

- The plain rect walk: ``max_rbra_reference`` runs the staircase of
  ``rect.max_rbra`` without its vectorized bottom pruning, and every
  decision (``dp_decision_reference``) gathers the whole slab before the
  arm scan.  It reuses rect's band split and arm scan, so unlike
  ``rbannulus.oracle`` it is not independent of the solver; it pins the
  pruning, which must return the same witnesses.
- The per-level L-corridor sweep: ``_sweep`` runs one canonical pass of
  ``lcorridor.max_rblc`` through the solver's own per-level loop,
  ``lcorridor._sweep``, on the same pass table built in plain Python from
  (x, y, color) rows, with the splitter of a short pass,
  ``lcorridor._EveryLevel``, on every pass, so the loop runs every level
  with all of its inserts.  It runs the solver's staircase walk,
  ``lcorridor._lower_breaks``, over every row where the solver walks only
  the records, owns the row upper staircase ``_upper_breaks``, and shares
  the per-level staircase bounds (``lcorridor._staircase_bounds``) and the
  trees of ``rbannulus.lcorridor``.  It pins the numpy set-up, the record
  search, the array upper staircase and the chunk filter, which must
  return the same answers; ``rbannulus.oracle`` checks the loop and the
  walk.
- The paper's rectangle constructions: minimal rainbow intervals of a slab
  and the relevant w-gaps beside them.
- The paper's circle construction: the lift onto the paraboloid
  z = x^2 + y^2, under which circles become planes.
"""

from __future__ import annotations

import bisect
import math
from operator import itemgetter
from typing import NamedTuple

from .core import DEFAULT_EPS, INF, PointSet, _xy
from .lcorridor import (GapTree, MaxCoordTree, _EveryLevel, _lower_breaks,
                        _staircase_bounds, _sweep as _sweep_levels,
                        _upper_chain)
from .rect import (DecisionOutcome, _band_split, _decision, _first_below,
                   _Frame, _frame_identity, _scan_branches, _search,
                   _start_wp_list, _validate_anchors)

# ---------------------------------------------------------------------------
# the plain rect walk


def _decide_slow(fr: _Frame, x_i, T, B, x_j, w):
    """Exact width-w decision for outer top T (anchor column x_i on it) and
    outer bottom B holding column x_j; the open bottom is B = -INF with
    x_j = x_i.  Returns the leftmost witness (L, R) or None."""
    if T - B < 2.0 * w:
        return None
    Tw = T - w
    Bw = B + w
    m, M = (x_i, x_j) if x_i <= x_j else (x_j, x_i)
    Xl, Yl, Cl, k = fr.Xl, fr.Yl, fr.Cl, fr.k
    slabxs, bxs, bcs = [], [], []
    mcol = [None] + [[] for _ in range(k)]
    for t in fr.xorder_l:
        y = Yl[t]
        if y >= T or y <= B:
            continue
        x = Xl[t]
        slabxs.append(x)
        if y > Tw or y < Bw:
            bxs.append(x)
            bcs.append(Cl[t])
        else:
            mcol[Cl[t]].append(x)
    if not any(mcol[1:]):
        return None
    bands = _band_split(bxs, bcs, m, M, w, k)
    if bands is None:
        return None
    bsat, branches = bands
    return _scan_branches(fr, slabxs, mcol, bsat, branches, T, B, m, M, w)


def _walk_slow(fr: _Frame, i, eps, bar_fn, emit):
    T = fr.Yl[i]
    x_i = fr.Xl[i]
    levels = fr.levels.tolist()
    lo = bisect.bisect_left(levels, T)
    if lo == 0:
        return
    ws = [T - levels[t] for t in range(lo - 1, -1, -1)]
    wp = _start_wp_list(ws, bar_fn(), eps)
    nws = len(ws)
    if wp >= nws:
        return
    # bottom anchors top-down, the open bottom (row n) last
    Yl, Xl = fr.Yl + [-INF], fr.Xl + [x_i]
    pos = _first_below(fr, T)
    n = fr.n
    while wp < nws and pos <= n:
        w = ws[wp]
        # everything shallower than 2w from the top fails outright
        t2 = bisect.bisect_left(fr.negYl, -(T - 2.0 * w))
        if t2 > pos:
            pos = t2
        B = Yl[pos]
        got = _decide_slow(fr, x_i, T, B, Xl[pos], w)
        if got is None:
            pos += 1
        else:
            emit(got[0], got[1], B, T, w)
            wp = bisect.bisect_right(ws, w)


def max_rbra_reference(pointset: PointSet, eps: float = DEFAULT_EPS):
    """max_rbra by the plain walk: the same annulus, or None.  Raises
    ValueError unless eps >= 0."""
    return _search(pointset, eps, _walk_slow)


def dp_decision_reference(pointset: PointSet, i, j, w) -> DecisionOutcome:
    """rect.dp_decision with the whole slab gathered for the arm scan; the
    same verdict and the same witness."""
    return _decision(pointset, i, j, w, _decide_slow)


# ---------------------------------------------------------------------------
# the per-level L-corridor sweep


def _upper_breaks(tp, k):
    # Breakpoints of g(T) = max{min-x of color c : max-y of color c < T}
    # from (x, y, color) rows; a zero min x keeps its first row's sign.
    max_y = [-INF] * (k + 1)
    min_x = [INF] * (k + 1)
    for x, y, c in tp:
        if y > max_y[c]:
            max_y[c] = y
        if x < min_x[c]:
            min_x[c] = x
    return _upper_chain(max_y[1:], min_x[1:])


def _sweep(tp, k, eps):
    # One canonical pass of lcorridor._sweep from (x, y, color) rows: the
    # pass table built in plain Python, with the solver's staircase bounds
    # and a splitter that keeps every level, then the solver's per-level
    # loop.  Returns (width, outer_x, outer_y) or None.
    by_y = sorted(tp, key=itemgetter(1, 0))
    level_ys, bounds = [], []
    for row, (_, y, _) in enumerate(by_y):
        if not level_ys or level_ys[-1] != y:
            level_ys.append(y)
            bounds.append(row)
    bounds.append(len(by_y))
    xs = [p[0] for p in by_y]
    (_, his), (_, los) = _staircase_bounds(level_ys, _lower_breaks(by_y, k),
                                           _upper_breaks(tp, k))
    return _sweep_levels((level_ys, bounds, his, los, MaxCoordTree(xs),
                          GapTree(sorted({p[0] for p in tp})),
                          _EveryLevel(xs, bounds)), eps)


# ---------------------------------------------------------------------------
# minimal rainbow intervals and relevant gaps


class WGap(NamedTuple):
    """Maximal point-free x interval of a slab projection, at least w wide."""

    left_x: float
    right_x: float


class MinimalRainbowInterval(NamedTuple):
    """Inclusion-minimal [a, b] whose slab points cover every color, with a
    drawn from the left candidate pool and b from the right one."""

    a: float
    b: float
    color_counter: dict


def minimal_rainbow_intervals(pointset: PointSet, i, j, left_pool, right_pool):
    """Inclusion-minimal rainbow intervals of the slab between anchors i and
    j (descending-y order, see rect.anchor_ordering), with endpoints
    restricted to the given x pools.  Ordered left to right; empty when some
    color is missing from the slab or a pool is empty.
    """
    fr = _frame_identity(pointset)
    i, j = _validate_anchors(fr.n, i, j)
    T = fr.Yl[i]
    B = -INF if j is None else fr.Yl[j]
    k = fr.k
    colxs = [None] + [[] for _ in range(k)]
    for t in fr.xorder_l:
        y = fr.Yl[t]
        if B < y < T:
            colxs[fr.Cl[t]].append(fr.Xl[t])
    lp = sorted({float(v) for v in left_pool})
    rp = sorted({float(v) for v in right_pool})
    if not lp or not rp or not all(colxs[1:]):
        return []

    def nright(c, x):
        arr = colxs[c]
        p = bisect.bisect_left(arr, x)
        return arr[p] if p < len(arr) else None

    def nleft(c, x):
        arr = colxs[c]
        p = bisect.bisect_right(arr, x)
        return arr[p - 1] if p else None

    def up(x):
        p = bisect.bisect_left(rp, x)
        return rp[p] if p < len(rp) else None

    def down(x):
        p = bisect.bisect_right(lp, x)
        return lp[p - 1] if p else None

    def req_right(a):
        breq = -INF
        for c in range(1, k + 1):
            v = nright(c, a)
            if v is None:
                return None
            if v > breq:
                breq = v
        return breq

    def req_left(b):
        areq = INF
        for c in range(1, k + 1):
            u = nleft(c, b)
            if u is None:
                return None
            if u < areq:
                areq = u
        return areq

    # a is the left end of a minimal interval exactly when the shortest
    # rainbow interval from a, b = up(req_right(a)), leads back to it.
    # req_left(b) >= a as every color meets [a, b], and both steps are
    # monotone, so once either runs off its pool it stays off.
    out = []
    for a in lp:
        breq = req_right(a)
        b = None if breq is None else up(breq)
        if b is None:
            break
        if down(req_left(b)) != a:
            continue
        counter = {}
        for c in range(1, k + 1):
            arr = colxs[c]
            counter[c] = (bisect.bisect_right(arr, b)
                          - bisect.bisect_left(arr, a))
        out.append(MinimalRainbowInterval(a, b, counter))
    return out


def relevant_w_gaps(intervals, left_gaps, right_gaps):
    """For each minimal interval, the rightmost left WGap ending at or before
    its a and the leftmost right WGap starting at or after its b.
    Deduplicated and in interval order; at most two gaps survive per
    interval."""
    lgs = sorted(left_gaps, key=lambda g: g.right_x)
    rgs = sorted(right_gaps, key=lambda g: g.left_x)
    lre = [g.right_x for g in lgs]
    rle = [g.left_x for g in rgs]
    out = []
    seen = set()
    for iv in intervals:
        a, b = iv[0], iv[1]
        p = bisect.bisect_right(lre, a) - 1
        if p >= 0 and lgs[p] not in seen:
            seen.add(lgs[p])
            out.append(lgs[p])
        q = bisect.bisect_left(rle, b)
        if q < len(rgs) and rgs[q] not in seen:
            seen.add(rgs[q])
            out.append(rgs[q])
    return out


# ---------------------------------------------------------------------------
# the paraboloid lift


class LiftedPoint(NamedTuple):
    x: float
    y: float
    z: float


def lift(point) -> LiftedPoint:
    """Vertical projection onto the paraboloid z = x^2 + y^2."""
    x, y = _xy(point)
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
