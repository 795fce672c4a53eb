"""Domain types shared by every annulus solver.

Boundary semantics, used consistently everywhere: a point on the inner
boundary counts toward the inside region, a point on the outer boundary
counts toward the outside region, and a point strictly between the two
boundaries violates emptiness.  Comparisons use an absolute tolerance
(DEFAULT_EPS); inputs are desk-scale doubles, exact predicates are out
of scope.

The axis-parallel types (Strip, LCorridor, SquareAnnulus, RectAnnulus)
each give an outer and an inner box, (left, right, bottom, top) with an
unbounded side at -INF or INF; a CircularAnnulus gives its two radii.
``_masks`` is the one place that applies these semantics, for every
annulus type: to one point (``classify``) or to a PointSet's columns
(``validate_solution``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

DEFAULT_EPS = 1e-9
INF = float("inf")


class Region(Enum):
    """Where a point sits relative to an annulus."""

    INSIDE = "inside"        # within or on the inner boundary
    INTERIOR = "interior"    # strictly between the boundaries
    OUTSIDE = "outside"      # outside or on the outer boundary


@dataclass(frozen=True)
class ColoredPoint:
    x: float
    y: float
    color: int


def _as_point(p) -> ColoredPoint:
    if isinstance(p, ColoredPoint):
        return p
    x, y, c = p
    return ColoredPoint(float(x), float(y), int(c))


@dataclass(frozen=True)
class PointSet:
    """Immutable colored input with its columns and sorted orders.

    ``color_count[c-1]`` is the multiplicity of color c.  ``build`` also
    makes the columns every solver reads, as read-only numpy arrays:

    * ``xs``, ``ys``: the coordinates of ``points``, float64, each zero
      with its sign;
    * ``cs``: the colors, intp;
    * ``by_x``, ``by_y``: intp index permutations sorting ``points`` by x
      (then y) and by y (then x), tied points in index order, with -0.0
      equal to 0.0.

    The columns are derived from ``points``, so ``==``, ``hash`` and
    ``repr`` leave them out.
    """

    points: tuple[ColoredPoint, ...]
    k: int
    color_count: tuple[int, ...]
    xs: np.ndarray = field(compare=False, repr=False)
    ys: np.ndarray = field(compare=False, repr=False)
    cs: np.ndarray = field(compare=False, repr=False)
    by_x: np.ndarray = field(compare=False, repr=False)
    by_y: np.ndarray = field(compare=False, repr=False)

    @classmethod
    def build(cls, points, k: int | None = None) -> PointSet:
        """Validate and index a raw point collection.

        Accepts ColoredPoint instances or (x, y, color) triples.  When k
        is omitted it is inferred as the maximum color present.
        """
        pts = tuple(_as_point(p) for p in points)
        if not pts:
            raise ValueError("empty point set")
        for p in pts:
            if not (math.isfinite(p.x) and math.isfinite(p.y)):
                raise ValueError("non-finite coordinate: %r" % (p,))
        kk = max(p.color for p in pts) if k is None else int(k)
        if kk < 1:
            raise ValueError("need at least one color")
        counts = [0] * kk
        for p in pts:
            if not 1 <= p.color <= kk:
                raise ValueError("color %d outside 1..%d" % (p.color, kk))
            counts[p.color - 1] += 1
        short = [c + 1 for c, m in enumerate(counts) if m < 2]
        if short:
            raise ValueError("every color needs at least two points, short: %r" % short)
        xs = np.array([p.x for p in pts], dtype=float)
        ys = np.array([p.y for p in pts], dtype=float)
        cs = np.array([p.color for p in pts], dtype=np.intp)
        # lexsort is stable and compares -0.0 equal to 0.0, as sorted() does
        columns = (xs, ys, cs, np.lexsort((ys, xs)), np.lexsort((xs, ys)))
        for col in columns:
            col.flags.writeable = False
        return cls(pts, kk, tuple(counts), *columns)

    @property
    def n(self) -> int:
        return len(self.points)


def _sorted_distinct(values):
    """The distinct values of a float array, ascending: np.unique's sort
    and first-of-each-run mask, with none of its set-up."""
    s = np.sort(values)
    first = np.empty(len(s), dtype=bool)
    first[:1] = True
    np.not_equal(s[1:], s[:-1], out=first[1:])
    return s[first]


def is_rainbow(counts) -> bool:
    """True iff every color class has at least one representative."""
    return all(c >= 1 for c in counts)


def check_eps(eps) -> None:
    """The solvers' width threshold: raise ValueError unless eps >= 0.  A
    negative eps would admit the zero gaps between tied values, and NaN
    fails every comparison."""
    if not eps >= 0:
        raise ValueError("eps must be >= 0, got %r" % (eps,))


@dataclass(frozen=True)
class Strip:
    """Empty strip between two parallel axis-aligned lines.

    The lo side is the inside region.  A vertical strip separates on x,
    a horizontal one on y.  Its outer and inner boxes (outer_sides,
    inner_sides) have three sides at infinity.
    """

    orientation: str
    lo: float
    hi: float

    def __post_init__(self):
        if self.orientation not in ("vertical", "horizontal"):
            raise ValueError("bad strip orientation %r" % self.orientation)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def _sides(self, v):
        if self.orientation == "vertical":
            return (-INF, v, -INF, INF)
        return (-INF, INF, -INF, v)

    @property
    def outer_sides(self) -> tuple[float, float, float, float]:
        return self._sides(self.hi)

    @property
    def inner_sides(self) -> tuple[float, float, float, float]:
        return self._sides(self.lo)


# Per corridor orientation, the sign pair (sx, sy) such that the map
# (x, y) -> (sx*x, sy*y) carries the corridor into the canonical
# down-right frame, where inside = {x >= inner_x, y <= inner_y}.
QUADRANT_SIGNS = {
    "down-right": (1.0, 1.0),
    "down-left": (-1.0, 1.0),
    "up-right": (1.0, -1.0),
    "up-left": (-1.0, -1.0),
}

L_ORIENTATIONS = tuple(QUADRANT_SIGNS)


@dataclass(frozen=True)
class LCorridor:
    """Empty L-shaped corridor with a single uniform leg width.

    (corner_x, corner_y) is the outer corner.  For the down-right
    orientation the inside region is the closed quadrant below-right of
    the inner corner and the outside region is everything left of or
    above the outer boundary.  Its outer and inner boxes (outer_sides,
    inner_sides) have two sides at infinity.
    """

    orientation: str
    corner_x: float
    corner_y: float
    width: float

    def __post_init__(self):
        if self.orientation not in QUADRANT_SIGNS:
            raise ValueError("bad corridor orientation %r" % self.orientation)

    @property
    def inner_corner(self) -> tuple[float, float]:
        sx, sy = QUADRANT_SIGNS[self.orientation]
        return (self.corner_x + sx * self.width, self.corner_y - sy * self.width)

    def _sides(self, x, y):
        sx, sy = QUADRANT_SIGNS[self.orientation]
        return (((x, INF) if sx > 0 else (-INF, x))
                + ((-INF, y) if sy > 0 else (y, INF)))

    @property
    def outer_sides(self) -> tuple[float, float, float, float]:
        return self._sides(self.corner_x, self.corner_y)

    @property
    def inner_sides(self) -> tuple[float, float, float, float]:
        return self._sides(*self.inner_corner)


def offset_square(sides, delta):
    """Slide each side of an axis-parallel rectangle inward by delta.

    sides = (left, right, bottom, top); sides at infinity stay put.
    """
    l, r, b, t = sides
    return (l + delta, r - delta, b + delta, t - delta)


@dataclass(frozen=True)
class SquareAnnulus:
    """Region between an outer axis-parallel square and its inward offset.

    Sides are the outer square's, any of which may be infinite: a strip
    embeds with three sides at infinity, an L-corridor with two.  delta
    is the annulus width.
    """

    left: float
    right: float
    bottom: float
    top: float
    delta: float

    @property
    def width(self) -> float:
        return self.delta

    @property
    def outer_sides(self) -> tuple[float, float, float, float]:
        return (self.left, self.right, self.bottom, self.top)

    @property
    def inner_sides(self) -> tuple[float, float, float, float]:
        return offset_square(self.outer_sides, self.delta)

    @property
    def infinite_sides(self) -> frozenset:
        out = set()
        if self.left == -INF:
            out.add("left")
        if self.right == INF:
            out.add("right")
        if self.bottom == -INF:
            out.add("bottom")
        if self.top == INF:
            out.add("top")
        return frozenset(out)

    @property
    def center(self) -> tuple[float, float]:
        # meaningful only when all four sides are finite
        return ((self.left + self.right) / 2.0, (self.bottom + self.top) / 2.0)

    @property
    def r_out(self) -> float:
        return (self.right - self.left) / 2.0


@dataclass(frozen=True)
class RectAnnulus:
    """Region between nested axis-parallel rectangles.

    width is the uniform annulus width, which equals every side width
    whose outer side is finite; an outer/inner pair at infinity carries
    the uniform width by convention (their arithmetic difference is
    indeterminate).
    """

    outer_left: float
    outer_right: float
    outer_bottom: float
    outer_top: float
    inner_left: float
    inner_right: float
    inner_bottom: float
    inner_top: float
    width: float

    @property
    def outer_sides(self) -> tuple[float, float, float, float]:
        return (self.outer_left, self.outer_right, self.outer_bottom, self.outer_top)

    @property
    def inner_sides(self) -> tuple[float, float, float, float]:
        return (self.inner_left, self.inner_right, self.inner_bottom, self.inner_top)

    def side_widths(self) -> tuple[float, float, float, float]:
        """(left, right, bottom, top) widths, infinite pairs reporting width."""
        def gap(v):
            return self.width if math.isnan(v) else v

        return (
            gap(self.inner_left - self.outer_left),
            gap(self.outer_right - self.inner_right),
            gap(self.inner_bottom - self.outer_bottom),
            gap(self.outer_top - self.inner_top),
        )


@dataclass(frozen=True)
class CircularAnnulus:
    center_x: float
    center_y: float
    r_in: float
    r_out: float

    @property
    def width(self) -> float:
        return self.r_out - self.r_in


@dataclass(frozen=True)
class Line:
    """Line a*x + b*y = c (finite coefficients, not both a and b zero)."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.a, self.b, self.c)):
            raise ValueError("non-finite line %rx+%ry=%r"
                             % (self.a, self.b, self.c))
        if self.a == 0 and self.b == 0:
            raise ValueError("degenerate line 0x+0y=c")

    @property
    def direction(self) -> tuple[float, float]:
        n = math.hypot(self.a, self.b)
        return (-self.b / n, self.a / n)

    @property
    def origin(self) -> tuple[float, float]:
        """Foot of the perpendicular from (0, 0)."""
        n2 = self.a * self.a + self.b * self.b
        return (self.a * self.c / n2, self.b * self.c / n2)


def _xy(p) -> tuple[float, float]:
    """The (x, y) floats of a point: anything with x and y attributes, or
    an indexable (x, y, ...)."""
    if hasattr(p, "x"):
        return float(p.x), float(p.y)
    return float(p[0]), float(p[1])


def _widest(annuli):
    """The widest of the annuli that are not None, the first one on ties;
    None when all are None."""
    best = None
    for ann in annuli:
        if ann is not None and (best is None or ann.width > best.width):
            best = ann
    return best


def _masks(annulus, xs, ys, eps):
    """(inside, outside) boolean masks of the points (xs, ys), float arrays,
    under the boundary semantics above.  A point in both counts as inside;
    a point in neither is interior.  Box sides at infinity never touch a
    finite point.  Circles take math.hypot per point: np.hypot can differ
    from it by an ulp."""
    if isinstance(annulus, CircularAnnulus):
        cx, cy = annulus.center_x, annulus.center_y
        d = np.array([math.hypot(x - cx, y - cy)
                      for x, y in zip(xs.tolist(), ys.tolist())])
        return d <= annulus.r_in + eps, d >= annulus.r_out - eps
    il, ir, ib, it = annulus.inner_sides
    ol, orr, ob, ot = annulus.outer_sides
    inside = (il - eps <= xs) & (xs <= ir + eps) & (ib - eps <= ys) & (ys <= it + eps)
    outside = (xs <= ol + eps) | (xs >= orr - eps) | (ys <= ob + eps) | (ys >= ot - eps)
    return inside, outside


def classify(point, annulus, eps: float = DEFAULT_EPS) -> Region:
    """Region of one point, a ColoredPoint or an (x, y, ...) sequence, by
    the same masks validate_solution applies."""
    x, y = _xy(point)
    inside, outside = _masks(annulus, np.array([x]), np.array([y]), eps)
    if inside[0]:
        return Region.INSIDE
    return Region.OUTSIDE if outside[0] else Region.INTERIOR


def validate_solution(annulus, pointset: PointSet, eps: float = DEFAULT_EPS) -> bool:
    """True iff the annulus has positive finite width, no point strictly
    within its ring, and rainbow inside and outside regions, by _masks on
    the PointSet's columns."""
    w = annulus.width
    if not math.isfinite(w) or w <= eps:
        return False
    inside, outside = _masks(annulus, pointset.xs, pointset.ys, eps)
    if not (inside | outside).all():
        return False
    k = pointset.k
    return (is_rainbow(np.bincount(pointset.cs[inside], minlength=k + 1)[1:])
            and is_rainbow(np.bincount(pointset.cs[~inside], minlength=k + 1)[1:]))
