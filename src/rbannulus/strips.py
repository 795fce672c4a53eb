"""Widest rainbow-bisecting empty strip, and the rainbow-gap scan it shares
with the circular solver.

A strip is the fully degenerate annulus and a ring at a fixed center is a
one-dimensional question, so both reduce to the same scan: in the sorted
values of a row (coordinates, or distances from the center), find the
widest gap between neighbours whose near side and far side each show
every color.  With rin the largest of the per-color minima and rout the
smallest of the per-color maxima, the gap (S[t], S[t+1]) qualifies when
S[t] >= rin and S[t+1] <= rout: a tie split across rin or rout leaves a
zero gap, which eps >= 0 rejects, so colors never ride through the sort.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .core import DEFAULT_EPS, PointSet, Strip, check_eps


def rainbow_gaps(V, colors, k: int, eps: float):
    """Usable gaps of each row of V once sorted, -inf where unusable.

    V is an (m, n) array in any column order and colors the colors (1..k)
    of its n columns.  Entry [r, t] is S[t+1] - S[t], for S row r sorted,
    when that gap is finite and wider than eps, S[t] >= rin and
    S[t+1] <= rout (see the module docstring).  A gap that overflows to
    inf is unusable: no witness has that width.  V is left as it is.
    Raises ValueError unless eps >= 0.
    """
    check_eps(eps)
    colors = np.asarray(colors)
    if np.any(colors[1:] < colors[:-1]):
        # group the columns by color, once
        order = np.argsort(colors, kind="stable")
        V, colors = V[:, order], colors[order]
    S = np.sort(V, axis=1)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan are unusable
        gaps = S[:, 1:] - S[:, :-1]
    want = np.arange(1, k + 1)
    starts = np.searchsorted(colors, want)
    if np.any(np.searchsorted(colors, want, side="right") == starts):
        # a color without a column makes rin inf, so no gap is usable
        gaps.fill(-np.inf)
        return gaps
    rin = np.minimum.reduceat(V, starts, axis=1).max(axis=1)
    rout = np.maximum.reduceat(V, starts, axis=1).min(axis=1)
    ok = S[:, :-1] >= rin[:, None]
    ok &= S[:, 1:] <= rout[:, None]
    ok &= gaps > eps
    ok &= gaps < np.inf
    np.putmask(gaps, ~ok, -np.inf)
    return gaps


def widest_rainbow_gap(values, colors, k: int, eps: float) -> Optional[int]:
    """Index t of the widest usable gap (S[t], S[t+1]) of the values S
    sorted ascending, the first one on ties; None when no gap is usable.
    values need not be sorted; colors gives each value's color."""
    if len(values) < 2:
        return None
    gaps = rainbow_gaps(np.array([values], dtype=float), colors, k, eps)[0]
    t = int(gaps.argmax())
    return t if gaps[t] > -np.inf else None


def max_rbes(pointset: PointSet, orientation: str, eps: float = DEFAULT_EPS):
    """Maximum-width empty strip whose closed sides are each rainbow.

    One rainbow-gap scan over the coordinate order already stored on the
    PointSet.  Ties go to the smallest lo.  Returns None when no gap
    separates two rainbows.
    """
    pts = pointset.points
    if orientation == "vertical":
        order = pointset.by_x
        coords = [pts[i].x for i in order]
    elif orientation == "horizontal":
        order = pointset.by_y
        coords = [pts[i].y for i in order]
    else:
        raise ValueError("bad orientation %r" % orientation)
    t = widest_rainbow_gap(coords, [pts[i].color for i in order],
                           pointset.k, eps)
    if t is None:
        return None
    # coords already ascend, so they are the sorted row itself, each with
    # its own sign of zero (a sort may reorder -0.0 and 0.0)
    return Strip(orientation, coords[t], coords[t + 1])
