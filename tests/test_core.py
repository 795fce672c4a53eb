import dataclasses
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rbannulus
from rbannulus import (
    INF,
    CircularAnnulus,
    ColoredPoint,
    LCorridor,
    Line,
    PointSet,
    RectAnnulus,
    Region,
    SquareAnnulus,
    Strip,
    classify,
    generate_instance,
    max_rbca,
    max_rbca_on_line,
    max_rbes,
    max_rblc_all,
    max_rbra,
    max_rbsa,
    validate_solution,
)
from rbannulus import circles
from rbannulus.core import is_rainbow, offset_square
from rbannulus.squares import max_rbsa_c3

# entry points, geometry types and I/O; helpers stay in their modules
PUBLIC_NAMES = [
    "DEFAULT_EPS", "INF",
    "ColoredPoint", "PointSet", "Region", "Strip", "LCorridor",
    "L_ORIENTATIONS", "SquareAnnulus", "RectAnnulus", "CircularAnnulus",
    "Line",
    "classify", "validate_solution",
    "max_rbes", "max_rblc", "max_rblc_all", "max_rbsa", "max_rbra",
    "max_rbca", "max_rbca_on_line",
    "GENERATOR_KINDS", "InstanceError", "SolutionReport", "check_report",
    "format_instance", "parse_instance", "load_instance", "save_instance",
    "generate_instance", "render_svg",
]


def test_public_surface():
    assert sorted(rbannulus.__all__) == sorted(PUBLIC_NAMES)
    for name in rbannulus.__all__:
        assert getattr(rbannulus, name) is not None, name


def test_is_rainbow():
    assert is_rainbow([1, 1])
    assert not is_rainbow([1, 0])
    assert is_rainbow([5, 2, 1])
    assert is_rainbow([])


def test_pointset_build_infers_k():
    ps = PointSet.build([(0, 0, 1), (1, 0, 2), (5, 0, 1), (6, 0, 2)])
    assert ps.k == 2
    assert ps.n == 4
    assert ps.color_count == (2, 2)
    assert [ps.points[i].x for i in ps.by_x] == [0, 1, 5, 6]


def _column_corpus():
    # small instances over few values, with -0.0 next to 0.0 and points
    # repeated under another color
    rng = random.Random(2121)
    values = (0.0, -0.0, 1.0, -1.0, 0.5)
    for _ in range(200):
        k = rng.randint(1, 3)
        n = rng.randint(2 * k, 12)
        colors = [c for c in range(1, k + 1) for _ in (0, 1)]
        colors += [rng.randint(1, k) for _ in range(n - 2 * k)]
        rng.shuffle(colors)
        pts = [(rng.choice(values), rng.choice(values), c) for c in colors]
        for x, y, c in pts[:rng.randint(0, 3)]:
            pts.insert(rng.randint(0, len(pts)), (x, y, c % k + 1))
        yield PointSet.build(pts, k)


def test_pointset_orders_are_the_python_key_sorts():
    for ps in _column_corpus():
        pts, n = ps.points, ps.n
        assert ps.by_x.dtype == ps.by_y.dtype == np.intp
        assert ps.by_x.tolist() == sorted(range(n), key=lambda i: (pts[i].x, pts[i].y))
        assert ps.by_y.tolist() == sorted(range(n), key=lambda i: (pts[i].y, pts[i].x))


def test_pointset_columns_are_the_points_bit_for_bit():
    for ps in _column_corpus():
        assert ps.xs.dtype == ps.ys.dtype == np.float64 and ps.cs.dtype == np.intp
        # repr tells -0.0 from 0.0
        assert repr(ps.xs.tolist()) == repr([p.x for p in ps.points])
        assert repr(ps.ys.tolist()) == repr([p.y for p in ps.points])
        assert ps.cs.tolist() == [p.color for p in ps.points]


def test_pointset_columns_are_read_only():
    ps = PointSet.build([(0, 0, 1), (1, 0, 2), (5, 0, 1), (6, 0, 2)])
    for name in ("xs", "ys", "cs", "by_x", "by_y"):
        with pytest.raises(ValueError):
            getattr(ps, name)[0] = 1


def test_pointset_equality_and_hash_ignore_the_columns():
    for ps in _column_corpus():
        again = PointSet.build(ps.points, ps.k)
        other = dataclasses.replace(ps, xs=ps.ys, ys=ps.xs, cs=ps.cs[::-1],
                                    by_x=ps.by_y, by_y=ps.by_x)
        assert ps == again == other
        assert hash(ps) == hash(again) == hash(other)
        assert repr(ps) == repr(other)
        assert "array" not in repr(ps)


def test_pointset_build_rejects_bad_input():
    with pytest.raises(ValueError):
        PointSet.build([])
    with pytest.raises(ValueError):
        PointSet.build([(0, 0, 1), (1, 1, 1), (2, 2, 2)])  # color 2 has one point
    with pytest.raises(ValueError):
        PointSet.build([(0, 0, 1), (1, 1, 2)], k=2)  # k > n/2: a color is short
    with pytest.raises(ValueError, match="at least one color"):
        PointSet.build([(0, 0, 1), (1, 1, 1)], 0)
    with pytest.raises(ValueError):
        PointSet.build([(math.inf, 0, 1), (1, 1, 1)])
    with pytest.raises(ValueError):
        PointSet.build([(0, 0, 3), (1, 1, 3)], k=2)  # color out of range


def test_line_rejects_bad_coefficients():
    Line(1.0, -1.0, 0.0)  # finite: accepted
    for bad in ((0.0, 0.0, 1.0), (math.inf, 1.0, 0.0), (1.0, math.nan, 0.0),
                (1.0, -1.0, math.inf), (1.0, -1.0, -math.inf),
                (1.0, -1.0, math.nan)):
        with pytest.raises(ValueError):
            Line(*bad)


def test_classify_circular():
    a = CircularAnnulus(0.0, 0.0, 1.0, 3.0)
    assert classify((1, 0), a) is Region.INSIDE
    assert classify((2, 0), a) is Region.INTERIOR
    assert classify((3, 0), a) is Region.OUTSIDE
    assert classify(ColoredPoint(0.0, 0.0, 1), a) is Region.INSIDE
    assert classify((0, 5), a) is Region.OUTSIDE


def test_strip_regions():
    s = Strip("vertical", 1.0, 5.0)
    assert s.width == 4.0
    assert classify((1, 7), s) is Region.INSIDE
    assert classify((0, -2), s) is Region.INSIDE
    assert classify((3, 0), s) is Region.INTERIOR
    assert classify((5, 0), s) is Region.OUTSIDE
    h = Strip("horizontal", 1.0, 5.0)
    assert classify((7, 1), h) is Region.INSIDE
    assert classify((7, 2), h) is Region.INTERIOR
    assert classify((7, 6), h) is Region.OUTSIDE
    with pytest.raises(ValueError):
        Strip("diagonal", 0.0, 1.0)


def test_lcorridor_down_right():
    c = LCorridor("down-right", 0.0, 10.0, 2.0)
    assert c.inner_corner == (2.0, 8.0)
    # inside quadrant of the inner corner, boundary included
    assert classify((2, 8), c) is Region.INSIDE
    assert classify((5, -100), c) is Region.INSIDE
    assert classify((2, 7.5), c) is Region.INSIDE
    # outer boundary and beyond, either arm
    assert classify((0, 0), c) is Region.OUTSIDE
    assert classify((-3, 5), c) is Region.OUTSIDE
    assert classify((100, 10), c) is Region.OUTSIDE
    assert classify((100, 11), c) is Region.OUTSIDE
    # strictly between
    assert classify((1, 0), c) is Region.INTERIOR
    assert classify((50, 9), c) is Region.INTERIOR


def test_lcorridor_orientations_mirror():
    pts = [(1.5, 0.0), (0.0, 9.5), (-1.5, 0.0), (0.0, -9.5)]
    dr = LCorridor("down-right", 0.0, 10.0, 2.0)
    dl = LCorridor("down-left", 0.0, 10.0, 2.0)
    ur = LCorridor("up-right", 0.0, -10.0, 2.0)
    ul = LCorridor("up-left", 0.0, -10.0, 2.0)
    for (x, y) in pts:
        assert classify((x, y), dr) is classify((-x, y), dl)
        assert classify((x, y), dr) is classify((x, -y), ur)
        assert classify((x, y), dr) is classify((-x, -y), ul)
    with pytest.raises(ValueError, match="bad corridor orientation"):
        LCorridor("sideways", 0.0, 10.0, 2.0)


def test_square_annulus_regions():
    a = SquareAnnulus(0.0, 10.0, 0.0, 10.0, 2.0)
    assert a.inner_sides == (2.0, 8.0, 2.0, 8.0)
    assert a.center == (5.0, 5.0)
    assert a.r_out == 5.0
    assert a.infinite_sides == frozenset()
    assert classify((5, 5), a) is Region.INSIDE
    assert classify((2, 2), a) is Region.INSIDE
    assert classify((1, 5), a) is Region.INTERIOR
    assert classify((0, 5), a) is Region.OUTSIDE
    assert classify((-4, 5), a) is Region.OUTSIDE
    assert classify((5, 9), a) is Region.INTERIOR


def test_square_annulus_strip_embedding():
    # vertical strip [1, 5], inside on the lo side
    s = Strip("vertical", 1.0, 5.0)
    a = SquareAnnulus(-INF, 5.0, -INF, INF, 4.0)
    assert a.infinite_sides == frozenset({"left", "bottom", "top"})
    for p in [(0, 3), (1, -50), (3, 2), (5, 0), (9, 9)]:
        assert classify(p, a) is classify(p, s)


def test_square_annulus_corridor_embedding():
    c = LCorridor("down-right", 0.0, 10.0, 2.0)
    a = SquareAnnulus(0.0, INF, -INF, 10.0, 2.0)
    for p in [(2, 8), (5, -100), (0, 0), (-3, 5), (100, 11), (1, 0), (50, 9)]:
        assert classify(p, a) is classify(p, c)


# the canonical-frame formulas the box test must reproduce; per corridor
# orientation, the signs that carry it into the down-right frame, where
# inside = {x >= inner x, y <= inner y}
_CORRIDOR_SIGNS = {"down-right": (1.0, 1.0), "down-left": (-1.0, 1.0),
                   "up-right": (1.0, -1.0), "up-left": (-1.0, -1.0)}


def _strip_reference(s, x, y, eps):
    c = x if s.orientation == "vertical" else y
    if c <= s.lo + eps:
        return Region.INSIDE
    if c >= s.hi - eps:
        return Region.OUTSIDE
    return Region.INTERIOR


def _corridor_reference(c, x, y, eps):
    sx, sy = _CORRIDOR_SIGNS[c.orientation]
    px, py = sx * x, sy * y
    ox, oy = sx * c.corner_x, sy * c.corner_y
    if px >= ox + c.width - eps and py <= oy - c.width + eps:
        return Region.INSIDE
    if px <= ox + eps or py >= oy - eps:
        return Region.OUTSIDE
    return Region.INTERIOR


def test_strip_and_corridor_boxes_match_canonical_frame():
    # every finite point gets the canonical-frame verdict: points on a
    # side, at +-eps from it and one ulp past that, signed zeros, and
    # magnitudes up to 2^300
    rng = random.Random(2305)
    for _ in range(150):
        scale = 2.0 ** rng.choice([-20, 0, 1, 40, 300])
        eps = rng.choice([0.0, 1e-9, 0.5])
        a = rng.choice([0.0, -0.0, rng.uniform(-4.0, 4.0) * scale])
        b = rng.choice([-0.0, rng.uniform(-4.0, 4.0) * scale])
        w = rng.choice([eps, 1.0, rng.uniform(0.0, 4.0) * scale])
        cases = [(Strip(o, min(a, b), max(a, b)), _strip_reference)
                 for o in ("vertical", "horizontal")]
        cases += [(LCorridor(o, a, b, w), _corridor_reference)
                  for o in _CORRIDOR_SIGNS]
        sides = {0.0, -0.0, rng.uniform(-8.0, 8.0) * scale}
        for ann, _ in cases:
            sides.update(v for v in ann.outer_sides + ann.inner_sides
                         if math.isfinite(v))
        near = [0.0, -0.0]
        for v in sides:
            for u in (v, v - eps, v + eps):
                near += [u, math.nextafter(u, -INF), math.nextafter(u, INF)]
        for _ in range(60):
            x, y = rng.choice(near), rng.choice(near)
            for ann, reference in cases:
                assert classify((x, y), ann, eps) is reference(ann, x, y, eps), (
                    ann, x, y, eps)


def test_offset_square_composes():
    s = (-INF, 5.0, 0.0, 10.0)
    once = offset_square(offset_square(s, 1.0), 2.0)
    assert once == offset_square(s, 3.0)
    assert once[0] == -INF


def test_rect_annulus_side_widths():
    a = RectAnnulus(0.0, 10.0, 0.0, 8.0, 2.0, 8.0, 2.0, 6.0, 2.0)
    assert a.side_widths() == (2.0, 2.0, 2.0, 2.0)
    assert classify((5, 4), a) is Region.INSIDE
    assert classify((1, 4), a) is Region.INTERIOR
    assert classify((0, 4), a) is Region.OUTSIDE
    # bottom pair at infinity reports the uniform width
    b = RectAnnulus(0.0, 10.0, -INF, 8.0, 2.0, 8.0, -INF, 6.0, 2.0)
    assert b.side_widths() == (2.0, 2.0, 2.0, 2.0)
    assert classify((5, -1000), b) is Region.INSIDE


def test_validate_solution_symmetric():
    ps = PointSet.build([(-1, 0, 1), (1, 0, 2), (0, 3, 1), (0, -3, 2)])
    assert validate_solution(CircularAnnulus(0.0, 0.0, 1.0, 3.0), ps)
    # shrinking the inner circle pushes the inner points into the interior
    assert not validate_solution(CircularAnnulus(0.0, 0.0, 0.5, 3.0), ps)


def test_validate_solution_rainbow_violation():
    ps = PointSet.build([(-1, 0, 1), (1, 0, 1), (0, 3, 1), (0, -3, 2), (4, 0, 2)])
    # inside holds only color 1
    assert not validate_solution(CircularAnnulus(0.0, 0.0, 1.0, 3.0), ps)


def test_validate_solution_rejects_zero_width():
    ps = PointSet.build([(-1, 0, 1), (1, 0, 2), (0, 3, 1), (0, -3, 2)])
    assert not validate_solution(CircularAnnulus(0.0, 0.0, 3.0, 3.0), ps)
    assert not validate_solution(Strip("vertical", 1.0, 1.0), ps)


def _region_per_point(annulus, x, y, eps):
    # the region test written out for one point, with chained comparisons
    if isinstance(annulus, CircularAnnulus):
        d = math.hypot(x - annulus.center_x, y - annulus.center_y)
        inside, outside = d <= annulus.r_in + eps, d >= annulus.r_out - eps
    else:
        il, ir, ib, it = annulus.inner_sides
        ol, orr, ob, ot = annulus.outer_sides
        inside = il - eps <= x <= ir + eps and ib - eps <= y <= it + eps
        outside = x <= ol + eps or x >= orr - eps or y <= ob + eps or y >= ot - eps
    if inside:
        return Region.INSIDE
    return Region.OUTSIDE if outside else Region.INTERIOR


def _validate_per_point(annulus, ps, eps):
    # validate_solution written out one point at a time; classify must
    # agree with the written-out test at every point
    w = annulus.width
    if not math.isfinite(w) or w <= eps:
        return False
    inside, outside = [0] * ps.k, [0] * ps.k
    for p in ps.points:
        r = _region_per_point(annulus, p.x, p.y, eps)
        assert classify(p, annulus, eps) is r, (annulus, p, eps)
        if r is Region.INTERIOR:
            return False
        (inside if r is Region.INSIDE else outside)[p.color - 1] += 1
    return is_rainbow(inside) and is_rainbow(outside)


def test_validate_solution_matches_the_per_point_check():
    # every solver's witnesses, checked against their own instance and two
    # others, on +-0.0 ties, x1e6-moved copies and near the float limit;
    # the other instances give every kind of failure
    instances = list(_huge_instances())
    for ps in _column_corpus():
        instances.append(ps)
        instances.append(PointSet.build([(p.x * 1e6 + 3e6, p.y * 1e6 - 1e6, p.color)
                                         for p in ps.points], ps.k))
    solvers = [lambda ps, eps: max_rbes(ps, "vertical", eps),
               lambda ps, eps: max_rbes(ps, "horizontal", eps),
               max_rblc_all, max_rbsa, max_rbra, max_rbca]
    rng = random.Random(37)
    verdicts = []
    for i, ps in enumerate(instances):
        for eps in (1e-9, 0.0):
            for solve in solvers[:5] if i % 4 else solvers:
                ann = solve(ps, eps)
                if ann is None:
                    continue
                for other in [ps] + rng.sample(instances, 2):
                    for check_eps in (1e-9, 0.0):
                        got = validate_solution(ann, other, check_eps)
                        assert got is _validate_per_point(ann, other, check_eps), (
                            ann, other.points, check_eps)
                        verdicts.append((type(ann).__name__, got))
    for kind in ("Strip", "LCorridor", "SquareAnnulus", "RectAnnulus",
                 "CircularAnnulus"):
        assert verdicts.count((kind, True)) > 20, kind
        assert verdicts.count((kind, False)) > 20, kind


@pytest.mark.xfail(strict=True, reason="inner sides are recomputed as outer "
                   "side -+ width, an ulp off the point that pins them")
@pytest.mark.parametrize("solve, k, points", [
    (max_rblc_all, 2,
     [(1.0, 0.3, 2), (0.6, 0.7, 2), (0.0, -0.3, 1), (0.9, 0.0, 1), (0.8, 0.7, 1),
      (-0.3, 0.9, 2), (0.8, -0.2, 1), (0.8, -0.7, 1), (-0.6, -0.5, 1),
      (-0.6, -0.7, 2), (0.0, -0.3, 2), (0.0, 0.1, 2)]),
    (max_rbsa, 2,
     [(0.6, -0.5, 2), (0.9, -1.0, 1), (0.9, 0.3, 2), (0.5, -0.4, 2), (-0.0, -0.4, 1),
      (0.1, 0.2, 2), (-0.9, -0.5, 1), (-0.2, 0.2, 1), (-0.7, 0.9, 2),
      (-0.8, 0.4, 1), (0.7, -1.0, 1), (0.6, 0.9, 2)]),
    (max_rbra, 3,
     [(0.3, -0.5, 1), (-0.4, -0.0, 2), (0.0, 0.6, 3), (0.3, -0.1, 2), (0.8, -0.3, 2),
      (0.5, 0.1, 1), (-0.1, 0.3, 3), (0.9, 0.6, 2), (0.7, 0.8, 1), (0.2, 0.5, 3),
      (-0.0, -0.4, 3), (0.6, 0.7, 1)]),
], ids=["max_rblc_all", "max_rbsa", "max_rbra"])
def test_axis_parallel_witness_passes_the_exact_check(solve, k, points):
    ps = PointSet.build(points, k)
    ann = solve(ps)
    assert validate_solution(ann, ps)
    assert validate_solution(ann, ps, 0.0)


coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64)


@settings(deadline=None, max_examples=200)
@given(coords, coords, coords, st.floats(min_value=1e-3, max_value=1e3), coords, coords)
def test_classify_partition_strip(lo_x, lo_y, lo, w, px, py):
    s = Strip("vertical", lo, lo + w)
    r = classify((px, py), s)
    # exactly one region, and it matches the obvious half-plane arithmetic
    assert r in (Region.INSIDE, Region.INTERIOR, Region.OUTSIDE)
    if px < lo - 1e-9:
        assert r is Region.INSIDE
    if lo + 1e-6 < px < lo + w - 1e-6 and w > 3e-6:
        assert r is Region.INTERIOR
    if px > lo + w + 1e-9:
        assert r is Region.OUTSIDE


@settings(deadline=None, max_examples=200)
@given(coords, coords, st.floats(min_value=0, max_value=1e3),
       st.floats(min_value=1e-3, max_value=1e3), coords, coords)
def test_classify_partition_circle(cx, cy, r_in, w, px, py):
    a = CircularAnnulus(cx, cy, r_in, r_in + w)
    d = math.hypot(px - cx, py - cy)
    r = classify((px, py), a)
    if d < r_in - 1e-6:
        assert r is Region.INSIDE
    elif r_in + 1e-6 < d < r_in + w - 1e-6:
        assert r is Region.INTERIOR
    elif d > r_in + w + 1e-6:
        assert r is Region.OUTSIDE


def _huge_instances():
    # generated instances moved near the top of the float range, which
    # PointSet.build accepts: scaled, or centred and scaled
    for seed in range(6):
        ps = generate_instance(12, 2, "uniform", seed)
        for centre, scale in ((0.0, 1e305), (0.0, 1.7e306), (50.0, 1e307 / 50)):
            yield PointSet.build([((p.x - centre) * scale, (p.y - centre) * scale,
                                   p.color) for p in ps.points], 2)
    yield PointSet.build([(-1.7e308, 0, 1), (-1.6e308, 1, 2),
                          (1.7e308, 0, 1), (1.6e308, 1, 2)], 2)


_SOLVERS = {
    "max_rbca": max_rbca,
    "max_rbca_on_line": lambda ps: max_rbca_on_line(ps, Line(1.0, -1.0, 0.0)),
    "max_rbes": lambda ps: max_rbes(ps, "vertical") or max_rbes(ps, "horizontal"),
    "max_rblc_all": max_rblc_all,
    "max_rbra": max_rbra,
    "max_rbsa": max_rbsa,
}
_GENERATORS = ("point_center_candidates", "cir22_candidates",
               "cir21_candidates", "far_field_candidates")


@pytest.mark.parametrize("name", sorted(_SOLVERS) + list(_GENERATORS))
def test_no_runtime_warning_near_the_float_limit(name):
    # an overflow inside a solver is a value it handles, not news for the
    # caller
    call = _SOLVERS.get(name) or getattr(circles, name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ps in _huge_instances():
            call(ps)


@pytest.mark.parametrize("name", ["max_rbca", "max_rbca_on_line"])
def test_every_candidate_centre_is_finite(name, monkeypatch):
    # near the float limit far sentinels and unscaled crossings overflow;
    # each family drops those, so the scoring takes only finite centres
    pick = circles._pick_best
    seen = []
    monkeypatch.setattr(circles, "_pick_best", lambda ps, xs, ys, eps:
                        seen.append((xs, ys)) or pick(ps, xs, ys, eps))
    instances = list(_huge_instances())
    instances.append(PointSet.build([(p.x * 1e300, p.y * 1e300, p.color) for p
                                     in generate_instance(12, 3, "rings", 0).points], 3))
    for ps in instances:
        _SOLVERS[name](ps)
        if name == "max_rbca":
            seen += [getattr(circles, family)(ps) for family in _GENERATORS]
    assert len(seen) == len(instances) * (1 + 4 * (name == "max_rbca"))
    for xs, ys in seen:
        assert np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))


def test_cell_order_places_every_centre():
    # a permutation of every centre, sorted into cells whenever the box's
    # larger side is positive and finite, as on the rings box and on the
    # boxes of scaled instances near the float limit, where differences
    # from the box middle overflow; in input order where that side is 0,
    # as for a single point, or overflows, as from -1.7e308 to 1.7e308
    def centres_and_box(ps):
        xs, ys = circles._concat([getattr(circles, family)(ps)
                                  for family in _GENERATORS])
        return xs, ys, circles._columns(ps).box

    rings = centres_and_box(generate_instance(12, 3, "rings", 0))
    huge = list(_huge_instances())
    for xs, ys, box in [rings] + [centres_and_box(huge[i]) for i in (1, 4, 7, 10, 13, 16)]:
        order = circles._cell_order(xs, ys, box)
        assert np.array_equal(np.sort(order), np.arange(len(xs)))
        assert not np.array_equal(order, np.arange(len(xs))), box
    xs, ys, box = centres_and_box(huge[18])
    assert box[:2] == (-1.7e308, 1.7e308)
    for xs, ys, box in [(xs, ys, box), rings[:2] + ((0.5, 0.5, -2.0, -2.0),)]:
        assert np.array_equal(circles._cell_order(xs, ys, box), np.arange(len(xs)))


@pytest.mark.parametrize("name", sorted(_SOLVERS))
def test_overflowed_corridor_width_is_no_witness(name):
    # y_j - y_i overflows to inf in the antidiagonal pass of every
    # corridor orientation; such a width is no witness
    ps = PointSet.build([(-1.7e308, 0, 1), (-1.6e308, 1, 2),
                         (1.7e308, 0, 1), (1.6e308, 1, 2)], 2)
    got = _SOLVERS[name](ps)
    assert got is None or validate_solution(got, ps), got


_WITNESS_SOLVERS = dict(_SOLVERS, **{
    "max_rbes horizontal": lambda ps: max_rbes(ps, "horizontal"),
    "max_rbsa_c3": max_rbsa_c3,
})


@pytest.mark.parametrize("name", sorted(_WITNESS_SOLVERS))
def test_witnesses_carry_python_floats(name):
    # fields read from numpy columns are converted, so a witness's repr
    # is the same whichever way its values were computed
    ps = generate_instance(12, 2, "uniform", 3)
    got = _WITNESS_SOLVERS[name](ps)
    assert got is not None
    for f in dataclasses.fields(got):
        assert not isinstance(getattr(got, f.name), np.generic), (f.name, got)
    assert "np." not in repr(got)
