"""Axis-parallel rectangular annuli: the widest empty rectangular ring whose
inside and outside are each rainbow.

Outer sides may sit at infinity, so strips, L-shaped corridors and halfplane
splits all arise as degenerate rectangles and need no separate handling here.
A finite-width optimum can always be normalized so that some point touches the
outer top side and the ring has uniform width; the search therefore anchors
one point on the outer top, walks candidate bottoms and widths in a staircase
(width never decreases, the bottom anchor only moves down), and repeats in the
four axis directions by reflecting the input.  The open bottom is the walk's
last bottom anchor: B = -INF in the top anchor's own column.

The width-w feasibility question for a fixed anchor pair is answered by one
arm scan, ``_scan_arms_list``, which visits the slab's gaps in x order and
returns the first feasible placement.  ``dp_decision``, the decision
``max_rbra`` runs, first rejects from the boundary bands alone the decisions
that cannot succeed, and gathers the slab for the scan only for the rest.
The plain walk, which gathers the slab for every decision, is the tests'
reference and lives in ``rbannulus.reference``.
"""

from __future__ import annotations

import bisect
import math
from typing import NamedTuple, Optional

import numpy as np

from .core import (DEFAULT_EPS, INF, PointSet, RectAnnulus, check_eps,
                   offset_square)


class DecisionOutcome(NamedTuple):
    feasible: bool
    witness: Optional[RectAnnulus]


# ---------------------------------------------------------------------------
# internal frame: one orientation of the input, sorted top-down


class _Frame:
    __slots__ = ("n", "k", "X", "Y", "Yb", "C", "xorder", "levels",
                 "col_ymin", "col_ymax", "Xl", "Yl", "Cl", "negYl",
                 "xorder_l", "xsorted_l")


def _make_frame(xs, ys, cs, k: int) -> _Frame:
    X0 = np.asarray(xs, dtype=float)
    Y0 = np.asarray(ys, dtype=float)
    C0 = np.asarray(cs, dtype=np.int64)
    order = np.lexsort((C0, X0, -Y0))  # top-down, ties left-right then color
    fr = _Frame()
    fr.n = int(X0.size)
    fr.k = k
    fr.X = X0[order]
    fr.Y = Y0[order]
    fr.Yb = np.append(fr.Y, -INF)  # bottom-anchor heights, open bottom last
    fr.C = C0[order]
    fr.xorder = np.lexsort((np.arange(fr.n), fr.X))
    fr.levels = np.unique(fr.Y)
    ymin = np.full(k + 1, INF)
    ymax = np.full(k + 1, -INF)
    for c in range(1, k + 1):
        sel = fr.Y[fr.C == c]
        if sel.size:
            ymin[c] = float(sel.min())
            ymax[c] = float(sel.max())
    fr.col_ymin = ymin
    fr.col_ymax = ymax
    fr.Xl = fr.X.tolist()
    fr.Yl = fr.Y.tolist()
    fr.Cl = fr.C.tolist()
    fr.negYl = (-fr.Y).tolist()
    fr.xorder_l = fr.xorder.tolist()
    fr.xsorted_l = fr.X[fr.xorder].tolist()
    return fr


def _frame_identity(pointset: PointSet) -> _Frame:
    pts = pointset.points
    return _make_frame([p.x for p in pts], [p.y for p in pts],
                       [p.color for p in pts], pointset.k)


def _first_below(fr: _Frame, v: float) -> int:
    """First index (top-down order) with y strictly below v."""
    return bisect.bisect_right(fr.negYl, -v)


def _first_at_most(fr: _Frame, v: float) -> int:
    return bisect.bisect_left(fr.negYl, -v)


def anchor_ordering(pointset: PointSet):
    """The point order the anchored ops index into: descending y, ties by
    ascending x then color."""
    return sorted(pointset.points, key=lambda p: (-p.y, p.x, p.color))


# ---------------------------------------------------------------------------
# width-w decision


def _band_split(bxs, bcs, m, M, k):
    """Partition boundary-band points against the anchor columns m <= M.

    Returns None when a band point lies strictly between the columns (no
    uniform ring can dodge it), else (colors seen, list of (lReq, rReq)
    branch constraints).  Two branches appear only when a band point sits
    exactly on m == M and may be fenced out on either side.
    """
    lReq = -INF
    rReq = INF
    bsat = [False] * (k + 1)
    if m < M:
        for x, c in zip(bxs, bcs):
            bsat[c] = True
            if x <= m:
                if x > lReq:
                    lReq = x
            elif x >= M:
                if x < rReq:
                    rReq = x
            else:
                return None
        return bsat, [(lReq, rReq)]
    amb = False
    for x, c in zip(bxs, bcs):
        bsat[c] = True
        if x < m:
            if x > lReq:
                lReq = x
        elif x > m:
            if x < rReq:
                rReq = x
        else:
            amb = True
    if amb:
        return bsat, [(m, rReq), (lReq, min(rReq, M))]
    return bsat, [(lReq, rReq)]


def _first_R_list(slabxs, Rlo, Rhi, w):
    """Smallest R in [Rlo, Rhi] whose right arm (R - w, R) avoids slabxs."""
    pos = bisect.bisect_right(slabxs, Rlo - w)
    npts = len(slabxs)
    while True:
        gl = slabxs[pos - 1] if pos else -INF
        gr = slabxs[pos] if pos < npts else INF
        R = Rlo if gl + w < Rlo else gl + w
        if R > Rhi:
            return None
        if R <= gr:
            return R
        pos += 1


def _scan_arms_list(slabxs, mcol, satbase, m, M, w, lReq, rReq, k):
    if lReq > m or rReq < M or rReq - lReq < 2.0 * w:
        return None
    npts = len(slabxs)
    for g in range(npts + 1):
        gl = slabxs[g - 1] if g else -INF
        gr = slabxs[g] if g < npts else INF
        L = gl if gl > lReq else lReq
        lim = gr - w
        if m < lim:
            lim = m
        if L > lim:
            continue
        IL = L + w
        IRmin = -INF
        dead = False
        for c in range(1, k + 1):
            arr = mcol[c]
            p = bisect.bisect_left(arr, IL)
            if p == len(arr):
                dead = True
                break
            if arr[p] > IRmin:
                IRmin = arr[p]
        if dead:
            # inner frontier only moves right in later gaps
            return None
        caps = INF
        for c in range(1, k + 1):
            if satbase[c]:
                continue
            arr = mcol[c]
            if arr and arr[0] <= L:
                continue
            if not arr:
                return None
            if arr[-1] < caps:
                caps = arr[-1]
        Rlo = M
        if IRmin + w > Rlo:
            Rlo = IRmin + w
        if L + 2.0 * w > Rlo:
            Rlo = L + 2.0 * w
        Rhi = rReq if rReq < caps else caps
        if Rlo > Rhi:
            continue
        R = _first_R_list(slabxs, Rlo, Rhi, w)
        if R is not None:
            return (L, R)
    return None


def _scan_branches(fr: _Frame, slabxs, mcol, bsat, branches, T, B, m, M, w):
    """Smallest (L, R) that _scan_arms_list finds over the band split's
    branches, or None.  A color is satisfied outside before any arm is
    placed when a band point has it or a point lies on or beyond the outer
    top or bottom."""
    k = fr.k
    satbase = [False] * (k + 1)
    for c in range(1, k + 1):
        satbase[c] = bool(bsat[c] or fr.col_ymax[c] >= T or fr.col_ymin[c] <= B)
    best = None
    for lReq, rReq in branches:
        got = _scan_arms_list(slabxs, mcol, satbase, m, M, w, lReq, rReq, k)
        if got is not None and (best is None or got < best):
            best = got
    return best


def _left_arm_fits(fr: _Frame, iT, iB, lReq, m, w):
    """Does any gap take a left arm, as _scan_arms_list tests it before it
    looks at the colors?  Walks the slab points (frame rows iT..iB-1) right
    of lReq in x order on the frame's lists; when this fails the scan tries
    nothing and the branch is infeasible."""
    if lReq == -INF:
        return True
    xs, order = fr.xsorted_l, fr.xorder_l
    L = lReq
    for q in range(bisect.bisect_right(xs, lReq), len(xs)):
        if not iT <= order[q] < iB:
            continue
        gr = xs[q]
        lim = gr - w
        if m < lim:
            lim = m
        if L <= lim:
            return True
        if gr > m:
            return False
        L = gr
    return True


def _decide_fast_impl(fr: _Frame, x_i, T, B, x_j, w):
    """Exact width-w decision for outer top T (anchor column x_i on it) and
    outer bottom B holding column x_j; the open bottom is B = -INF with
    x_j = x_i.  Returns the leftmost witness (L, R) or None.  The band
    split, the span test and the left-arm test of each branch come first,
    on the frame's lists; only a branch that survives them gathers the
    slab and runs the arm scan."""
    if T - B < 2.0 * w:
        return None
    Tw = T - w
    Bw = B + w
    m, M = (x_i, x_j) if x_i <= x_j else (x_j, x_i)
    k = fr.k
    iT = _first_below(fr, T)
    iB = _first_at_most(fr, B)
    iTw = _first_at_most(fr, Tw)
    jBw = _first_below(fr, Bw)
    if iTw >= jBw:
        return None
    Xl, Cl = fr.Xl, fr.Cl
    bands = _band_split(Xl[iT:iTw] + Xl[jBw:iB], Cl[iT:iTw] + Cl[jBw:iB],
                        m, M, k)
    if bands is None:
        return None
    bsat, branches = bands
    branches = [(lReq, rReq) for lReq, rReq in branches
                if not (lReq > m or rReq < M or rReq - lReq < 2.0 * w)
                and _left_arm_fits(fr, iT, iB, lReq, m, w)]
    if not branches:
        return None
    xo = fr.xorder
    sel = xo[(xo >= iT) & (xo < iB)]
    mid = sel[(sel >= iTw) & (sel < jBw)]
    mx = fr.X[mid]
    mc = fr.C[mid]
    mcol = [None] + [mx[mc == c].tolist() for c in range(1, k + 1)]
    return _scan_branches(fr, fr.X[sel].tolist(), mcol, bsat, branches,
                          T, B, m, M, w)


# ---------------------------------------------------------------------------
# public decision ops


def _validate_anchors(n, i, j):
    if not isinstance(i, (int, np.integer)) or isinstance(i, bool):
        raise ValueError("top anchor index must be an integer")
    if i < 0 or i >= n:
        raise ValueError("top anchor index out of range")
    if j is None or (isinstance(j, float) and math.isinf(j) and j > 0):
        return int(i), None
    if not isinstance(j, (int, np.integer)) or isinstance(j, bool):
        raise ValueError("bottom anchor must be an index, None, or +inf")
    if j <= i + 1 or j >= n:
        raise ValueError("bottom anchor needs i + 1 < j < n")
    return int(i), int(j)


def _check_width(w):
    try:
        bad = not (w > 0.0) or math.isinf(w)
    except TypeError:
        bad = True
    if bad:
        raise ValueError("width must be a positive finite number")
    return float(w)


def _witness_annulus(L, R, B, T, w) -> RectAnnulus:
    outer = (L, R, B, T)
    return RectAnnulus(*outer, *offset_square(outer, w), w)


def _decision(pointset: PointSet, i, j, w, decide) -> DecisionOutcome:
    w = _check_width(w)
    fr = _frame_identity(pointset)
    i, j = _validate_anchors(fr.n, i, j)
    T = fr.Yl[i]
    x_i = fr.Xl[i]
    if j is None:
        B, x_j = -INF, x_i
    else:
        B, x_j = fr.Yl[j], fr.Xl[j]
    got = decide(fr, x_i, T, B, x_j, w)
    if got is None:
        return DecisionOutcome(False, None)
    return DecisionOutcome(True, _witness_annulus(got[0], got[1], B, T, w))


def dp_decision(pointset: PointSet, i, j, w) -> DecisionOutcome:
    """Does a uniform width-w rainbow ring exist with point i (descending-y
    order, see anchor_ordering) on the outer top side and point j on the
    outer bottom side?  j = None or +inf drops the bottom side to infinity.
    """
    return _decision(pointset, i, j, w, _decide_fast_impl)


# ---------------------------------------------------------------------------
# anchored staircase walk


def _start_wp_list(ws, barw, eps):
    wp = bisect.bisect_right(ws, eps)
    if barw is not None:
        wp2 = bisect.bisect_left(ws, barw)  # ties revisited to refine placement
        if wp2 > wp:
            wp = wp2
    return wp


def _walk_fast(fr: _Frame, i, eps, bar_fn, emit):
    T = float(fr.Y[i])
    x_i = float(fr.X[i])
    lo = int(np.searchsorted(fr.levels, T, side="left"))
    if lo == 0:
        return
    ws = (T - fr.levels[:lo])[::-1]  # ascending candidate widths
    nws = int(ws.size)
    wp = _start_wp_list(ws, bar_fn(), eps)
    if wp >= nws:
        return
    iT = _first_below(fr, T)
    # the bottom anchors below the top, then the open bottom, tried last
    xj = np.concatenate((fr.X[iT:], (x_i,)))
    yj = fr.Yb[iT:]
    mj = np.minimum(xj, x_i)
    Mj = np.maximum(xj, x_i)
    alive = np.ones(xj.size, dtype=bool)
    while wp < nws and alive.any():
        w = float(ws[wp])
        # a bottom closer than 2w to the top can never work again
        np.logical_and(alive, yj <= T - 2.0 * w, out=alive)
        idxs = np.flatnonzero(alive)
        if idxs.size == 0:
            break
        iTw = _first_at_most(fr, T - w)
        if iTw > iT:
            # fence the top band against each live bottom anchor at once
            bandxs = np.sort(fr.X[iT:iTw])
            mm = mj[idxs]
            MM = Mj[idxs]
            pm = np.searchsorted(bandxs, mm, side="right")
            pM = np.searchsorted(bandxs, MM, side="left")
            bad = pM > pm
            lT = np.where(pm > 0, bandxs[np.maximum(pm - 1, 0)], -INF)
            rT = np.where(pM < bandxs.size, bandxs[np.minimum(pM, bandxs.size - 1)], INF)
            # a band point on coinciding anchor columns may be fenced to
            # either side, so the two-arm span estimate does not apply
            amb = (mm == MM) & (pm > pM)
            bad |= ((rT - lT) < 2.0 * w) & ~amb
            if bad.any():
                alive[idxs[bad]] = False
                idxs = idxs[~bad]
        success = False
        for s in idxs:
            si = int(s)
            got = _decide_fast_impl(fr, x_i, T, float(yj[si]), float(xj[si]), w)
            if got is None:
                alive[si] = False
                continue
            emit(got[0], got[1], float(yj[si]), T, w)
            success = True
            break
        if success:
            wp = int(np.searchsorted(ws, w, side="right"))


class _Best:
    """The widest witness emitted so far; ties keep the smaller (left,
    bottom)."""

    annulus = None
    key = None

    def width(self):
        return None if self.annulus is None else self.annulus.width

    def emit(self, L, R, B, T, w):
        key = (-w, L, B)
        if self.key is None or key < self.key:
            self.annulus, self.key = _witness_annulus(L, R, B, T, w), key


def max_anchored_rbra_for_top_point(pointset: PointSet, i,
                                    eps: float = DEFAULT_EPS):
    """Widest uniform rainbow ring with point i (descending-y order) on the
    outer top side, over candidate widths drawn from the level differences
    below the anchor; None when none is feasible.  Ties prefer the smaller
    (left, bottom).  Runs the walk max_rbra runs per anchor.  A
    width pinned by horizontal clearances alone is picked up by the rotated
    frames of the full search, not here.  Raises ValueError unless
    eps >= 0."""
    check_eps(eps)
    fr = _frame_identity(pointset)
    i, _ = _validate_anchors(fr.n, i, None)
    best = _Best()
    with np.errstate(over="ignore"):  # as in _search
        _walk_fast(fr, i, eps, best.width, best.emit)
    return best.annulus


def _orient_arrays(xs, ys, which):
    if which == 0:
        return xs, ys
    if which == 1:
        return xs, -ys
    if which == 2:
        return ys, -xs
    return -ys, xs


def _orient_inverse(which, L, R, B, T):
    if which == 0:
        return (L, R, B, T)
    if which == 1:
        return (L, R, -T, -B)
    if which == 2:
        return (-T, -B, L, R)
    return (B, T, -R, -L)


def _search(pointset: PointSet, eps, walk):
    """Runs walk from every anchor in each of the four orientations and
    keeps the best witness, mapped back to the input frame."""
    check_eps(eps)
    pts = pointset.points
    if len(pts) < 2:
        return None
    xs0 = np.array([p.x for p in pts], dtype=float)
    ys0 = np.array([p.y for p in pts], dtype=float)
    cs0 = [p.color for p in pts]
    best = _Best()
    # near the top of the float range a candidate width or a fence span
    # may overflow to inf, which the walk compares as such
    with np.errstate(over="ignore"):
        for which in range(4):
            tx, ty = _orient_arrays(xs0, ys0, which)
            fr = _make_frame(tx, ty, cs0, pointset.k)

            def emit(L, R, B, T, w, _o=which):
                best.emit(*_orient_inverse(_o, L, R, B, T), w)

            for i in range(fr.n):
                walk(fr, i, eps, best.width, emit)
    return best.annulus


def max_rbra(pointset: PointSet, eps: float = DEFAULT_EPS):
    """Maximum-width empty rectangular annulus splitting the colors into two
    rainbow groups, or None when no ring wider than eps exists.

    The staircase prunes bottom anchors vectorized and pre-rejects each
    decision from its boundary bands.  Raises ValueError unless eps >= 0.
    """
    return _search(pointset, eps, _walk_fast)
