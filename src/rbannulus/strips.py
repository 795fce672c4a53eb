"""Widest rainbow-bisecting empty strip, and the rainbow-gap scan it shares
with the circular solver.

A strip is the fully degenerate annulus and a ring at a fixed center is a
one-dimensional question, so both reduce to the same scan: in a sorted
sequence of values (coordinates, or distances from the center), find the
widest gap between neighbours whose near side and far side each show
every color.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .core import DEFAULT_EPS, PointSet, Strip


def rainbow_gaps(V, C, k: int, eps: float):
    """Usable gaps of each row of sorted values, -inf where unusable.

    V is an (m, n) array whose rows ascend and C the (m, n) colors (1..k)
    riding along.  Entry [r, t] is V[r, t+1] - V[r, t] when that gap is
    wider than eps, every color occurs in C[r, :t+1] and every color occurs
    in C[r, t+1:]; otherwise -inf.  Equal neighbours leave a zero gap,
    which a nonnegative eps never admits.
    """
    n = V.shape[1]
    cols = np.arange(n)
    # first index where every color has appeared, last where it still will
    first = np.zeros(V.shape[0], dtype=int)
    last = np.full(V.shape[0], n - 1, dtype=int)
    for c in range(1, k + 1):
        hit = C == c
        first = np.maximum(first, np.where(hit, cols, n).min(axis=1))
        last = np.minimum(last, np.where(hit, cols, -1).max(axis=1))
    gaps = V[:, 1:] - V[:, :-1]
    t = cols[:-1]
    ok = (t[None, :] >= first[:, None]) & (t[None, :] < last[:, None])
    ok &= gaps > eps
    return np.where(ok, gaps, -np.inf)


def widest_rainbow_gap(values, colors, k: int, eps: float) -> Optional[int]:
    """Index t of the widest usable gap (values[t], values[t+1]) of one
    sorted sequence, the first one on ties; None when no gap is usable."""
    if len(values) < 2:
        return None
    gaps = rainbow_gaps(np.array([values], dtype=float), np.array([colors]),
                        k, eps)[0]
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
    return Strip(orientation, coords[t], coords[t + 1])
