import math
import random

import pytest

from conftest import random_instance, rotate90

from rbannulus import (
    DEFAULT_EPS,
    CircularAnnulus,
    Line,
    PointSet,
    max_rbca,
    max_rbca_on_line,
    validate_solution,
)
from rbannulus.circles import (
    _batch_widths,
    best_annulus_at_center,
    cir21_candidates,
    cir22_candidates,
    circle_plane,
    far_field_candidates,
    lift,
    point_center_candidates,
)
from rbannulus.oracle import oracle_rbca, oracle_rbca_on_line


def dist(a, b):
    return math.hypot(a[0] - b[0], a[1] - b[1])


# ---------------------------------------------------------------------------
# lift and plane duality


def test_lift_values():
    assert tuple(lift((1, 2))) == (1.0, 2.0, 5.0)
    assert tuple(lift((0, 0))) == (0.0, 0.0, 0.0)
    assert tuple(lift((-3, 4))) == (-3.0, 4.0, 25.0)
    with pytest.raises(ValueError):
        lift((math.inf, 0))


def test_lift_plane_duality():
    rng = random.Random(420)
    for _ in range(1000):
        cx, cy = rng.uniform(-50, 50), rng.uniform(-50, 50)
        r = rng.uniform(0.1, 40)
        px, py = rng.uniform(-60, 60), rng.uniform(-60, 60)
        a, b, c = circle_plane((cx, cy), r)
        z = lift((px, py)).z
        plane = a * px + b * py + c
        d = dist((px, py), (cx, cy))
        if d < r - 1e-9:
            assert z < plane - 1e-9 or math.isclose(z, plane, abs_tol=1e-6)
            assert plane - z > -1e-9
        elif d > r + 1e-9:
            assert z - plane > -1e-9
        # algebraic identity behind the sign test
        assert z - plane == pytest.approx(d * d - r * r, abs=1e-6)


def test_concentric_circles_parallel_planes():
    a1, b1, _ = circle_plane((3, -2), 1.0)
    a2, b2, _ = circle_plane((3, -2), 7.5)
    assert (a1, b1) == (a2, b2)


# ---------------------------------------------------------------------------
# candidate streams


def test_cir22_symmetric_center():
    ps = PointSet.build([(-1, 0, 1), (1, 0, 1), (0, 3, 2), (0, -3, 2)], 2)
    cands = list(cir22_candidates(ps))
    assert any(abs(c.x) < 1e-12 and abs(c.y) < 1e-12 for c in cands)
    for c in cands:
        (i, j), (s, t) = c.provenance[1], c.provenance[2]
        pts = ps.points
        assert dist((c.x, c.y), (pts[i].x, pts[i].y)) == pytest.approx(
            dist((c.x, c.y), (pts[j].x, pts[j].y)), abs=1e-6)
        assert dist((c.x, c.y), (pts[s].x, pts[s].y)) == pytest.approx(
            dist((c.x, c.y), (pts[t].x, pts[t].y)), abs=1e-6)


def test_cir22_parallel_bisectors_skipped():
    # both pairs are vertical with the same midline height
    ps = PointSet.build([(0, 0, 1), (0, 2, 1), (5, 0, 2), (5, 2, 2)], 2)
    pairs = {(c.provenance[1], c.provenance[2]) for c in cir22_candidates(ps)}
    assert ((0, 1), (2, 3)) not in pairs


def test_cir22_matches_linear_solve():
    import numpy as np
    rng = random.Random(421)
    pts = [(rng.uniform(0, 10), rng.uniform(0, 10), 1 + (i % 2))
           for i in range(4)]
    ps = PointSet.build(pts, 2)
    for c in cir22_candidates(ps):
        (i, j), (s, t) = c.provenance[1], c.provenance[2]
        p, q, u, v = ps.points[i], ps.points[j], ps.points[s], ps.points[t]
        A = np.array([[2 * (q.x - p.x), 2 * (q.y - p.y)],
                      [2 * (v.x - u.x), 2 * (v.y - u.y)]])
        rhs = np.array([q.x ** 2 + q.y ** 2 - p.x ** 2 - p.y ** 2,
                        v.x ** 2 + v.y ** 2 - u.x ** 2 - u.y ** 2])
        got = np.linalg.solve(A, rhs)
        assert got[0] == pytest.approx(c.x, abs=1e-8)
        assert got[1] == pytest.approx(c.y, abs=1e-8)


def test_cir21_collinear_example():
    ps = PointSet.build([(-1, 0, 1), (1, 0, 1), (0, 3, 2), (9, 9, 2)], 2)
    cands = list(cir21_candidates(ps))
    hits = [c for c in cands
            if c.provenance[1] == (0, 1) and c.provenance[2][1] == 2]
    # both rays from the pair through (0,3) cross the y-axis bisector there
    assert len(hits) == 2
    for c in hits:
        assert (c.x, c.y) == pytest.approx((0.0, 3.0), abs=1e-9)


def test_cir21_parallel_ray_skipped():
    # bisector of the vertical pair is horizontal, as is the ray to (5,0)
    ps = PointSet.build([(0, 0, 1), (0, 2, 1), (5, 0, 2), (5, 2, 2)], 2)
    provs = {c.provenance for c in cir21_candidates(ps)}
    assert ("pair_and_ray", (0, 1), (0, 2)) not in provs
    assert ("pair_and_ray", (0, 1), (1, 2)) in provs


def test_far_field_and_point_streams():
    ps = PointSet.build([(0, 0, 1), (4, 0, 1)], 1)
    pcs = list(point_center_candidates(ps))
    assert [(c.x, c.y) for c in pcs] == [(0.0, 0.0), (4.0, 0.0)]
    fars = list(far_field_candidates(ps))
    assert all(dist((c.x, c.y), (2, 0)) > 50 for c in fars)
    kinds = {c.provenance[0] for c in fars}
    assert kinds == {"far_along", "far_perp"}


# ---------------------------------------------------------------------------
# evaluation at a fixed center


def test_center_eval_spec_gap():
    ps = PointSet.build([(1, 0, 1), (0, 1.5, 2), (-4, 0, 1), (0, -5, 2)], 2)
    ann = best_annulus_at_center(ps, (0.0, 0.0))
    assert ann == CircularAnnulus(0.0, 0.0, 1.5, 4.0)
    assert ann.width == 2.5
    assert validate_solution(ann, ps)


def test_center_eval_single_color():
    ps = PointSet.build([(1, 0, 1), (3, 0, 1)], 1)
    ann = best_annulus_at_center(ps, (0.0, 0.0))
    assert (ann.r_in, ann.r_out) == (1.0, 3.0)
    assert ann.width == 2.0


def test_center_eval_no_valid_split():
    # both far points share one color: no rainbow outside any gap
    ps = PointSet.build([(1, 0, 1), (2, 0, 1), (-3, 0, 2), (4, 0, 2)], 2)
    assert best_annulus_at_center(ps, (0.0, 0.0)) is None


def test_center_eval_ties_keep_small_inner():
    ps = PointSet.build([(1, 0, 1), (-1, 0, 1), (3, 0, 1), (-5, 0, 1)], 1)
    # both colors on each of two equidistant circles, and on one circle only
    two = PointSet.build([(1, 0, 1), (0, 1, 2), (2, 0, 1), (0, 2, 2)], 2)
    one = PointSet.build([(1, 0, 1), (0, 1, 2), (-1, 0, 1), (0, -1, 2)], 2)
    for eps in (DEFAULT_EPS, 0.0):
        ann = best_annulus_at_center(ps, (0.0, 0.0), eps)
        # gaps 1->3 and 3->5 both have width 2; the nearer one wins
        assert (ann.r_in, ann.r_out) == (1.0, 3.0), eps
        # zero gaps between equidistant points never count
        ann = best_annulus_at_center(two, (0.0, 0.0), eps)
        assert ann == CircularAnnulus(0.0, 0.0, 1.0, 2.0), eps
        assert best_annulus_at_center(one, (0.0, 0.0), eps) is None, eps


def test_batch_widths_match_scalar():
    rng = random.Random(422)
    for _ in range(6):
        n = rng.randint(4, 18)
        k = rng.randint(1, 3)
        if n < 2 * k:
            n = 2 * k
        ps = random_instance(rng, n, k, lo=0, hi=50)
        cxs = [rng.uniform(-80, 130) for _ in range(60)]
        cys = [rng.uniform(-80, 130) for _ in range(60)]
        ws = _batch_widths(ps, cxs, cys, 1e-9)
        for t in range(60):
            ann = best_annulus_at_center(ps, (cxs[t], cys[t]))
            if ann is None:
                assert ws[t] == -math.inf
            else:
                assert ws[t] == pytest.approx(ann.width, abs=1e-9)


# ---------------------------------------------------------------------------
# full search


def test_max_rbca_concentric_rings():
    ps = PointSet.build([(1, 0, 1), (-1, 0, 2), (0, 5, 1), (0, -5, 2)], 2)
    ann = max_rbca(ps)
    assert ann is not None
    assert ann.width == 4.0
    assert (ann.center_x, ann.center_y) == (0.0, 0.0)
    assert validate_solution(ann, ps)


def test_max_rbca_collinear_plateau():
    ps = PointSet.build([(0, 0, 1), (1, 0, 2), (4, 0, 1), (5, 0, 2)], 2)
    ann = max_rbca(ps)
    assert ann is not None and validate_solution(ann, ps)
    assert ann.width == pytest.approx(3.0, abs=1e-6)


def test_max_rbca_far_field_clusters():
    # optimum approached at infinity; the sentinels must beat the grid bound
    ps = PointSet.build([(0, 0, 1), (0, 1, 2), (100, 0, 1), (100, 1, 2)], 2)
    ann = max_rbca(ps)
    assert ann is not None and validate_solution(ann, ps)
    assert ann.width > 99.99
    assert ann.width >= oracle_rbca(ps) - 1e-6


def test_max_rbca_dominates_grid_oracle():
    rng = random.Random(423)
    for _ in range(12):
        n = rng.randint(4, 20)
        k = rng.randint(1, 3)
        if n < 2 * k:
            n = 2 * k
        ps = random_instance(rng, n, k, lo=0, hi=100)
        ann = max_rbca(ps)
        bound = oracle_rbca(ps)
        width = 0.0 if ann is None else ann.width
        assert width >= bound - 1e-6, (ps.points, width, bound)
        if ann is not None:
            assert validate_solution(ann, ps)


def test_max_rbca_dominates_random_centers():
    rng = random.Random(424)
    ps = random_instance(rng, 14, 3, lo=0, hi=60)
    best = max_rbca(ps).width
    for _ in range(300):
        c = (rng.uniform(0, 60), rng.uniform(0, 60))
        ann = best_annulus_at_center(ps, c)
        if ann is not None:
            assert best >= ann.width - 1e-9


def test_max_rbca_rigid_motion():
    rng = random.Random(425)
    for _ in range(10):
        n = rng.randint(4, 12)
        k = rng.randint(1, 2)
        if n < 2 * k:
            n = 2 * k
        ps = random_instance(rng, n, k, lo=0, hi=30)
        a = max_rbca(ps)
        b = max_rbca(rotate90(ps))
        shifted = PointSet.build(
            [(p.x + 13.0, p.y - 7.0, p.color) for p in ps.points], ps.k)
        c = max_rbca(shifted)
        if a is None:
            assert b is None and c is None
        else:
            assert b is not None and b.width == pytest.approx(a.width, abs=1e-9)
            assert c is not None and c.width == pytest.approx(a.width, abs=1e-9)


def test_max_rbca_degenerate():
    ps = PointSet.build([(2, 2, 1), (2, 2, 1)], 1)
    assert max_rbca(ps) is None


# ---------------------------------------------------------------------------
# centers constrained to a line


def test_on_line_through_optimum():
    ps = PointSet.build([(1, 0, 1), (-1, 0, 2), (0, 5, 1), (0, -5, 2)], 2)
    ann = max_rbca_on_line(ps, Line(0.0, 1.0, 0.0))  # the x-axis
    assert ann is not None
    assert ann.width == 4.0
    assert abs(ann.center_y) < 1e-12
    assert ann.width == max_rbca(ps).width


def test_on_line_far_from_points():
    rng = random.Random(426)
    for _ in range(6):
        n = rng.randint(4, 14)
        k = rng.randint(1, 3)
        if n < 2 * k:
            n = 2 * k
        ps = random_instance(rng, n, k, lo=0, hi=40)
        line = Line(0.0, 1.0, -50.0)  # y = -50, far below the cloud
        ann = max_rbca_on_line(ps, line)
        bound = oracle_rbca_on_line(ps, line)
        width = 0.0 if ann is None else ann.width
        assert width >= bound - 1e-6, (ps.points, width, bound)
        if ann is not None:
            assert validate_solution(ann, ps)
            assert abs(ann.center_y + 50.0) < 1e-9


def test_on_line_infeasible():
    # every center on the x-axis sees both colors at equal distance, with
    # color 1 always strictly nearer: no gap has a rainbow far side
    ps = PointSet.build([(0, 1, 1), (0, -1, 1), (0, 5, 2), (0, -5, 2)], 2)
    ann = max_rbca_on_line(ps, Line(0.0, 1.0, 0.0))
    assert ann is None
    assert oracle_rbca_on_line(ps, Line(0.0, 1.0, 0.0), samples=500) == 0.0


def test_on_line_random_dominance():
    rng = random.Random(427)
    for _ in range(8):
        n = rng.randint(4, 16)
        k = rng.randint(1, 3)
        if n < 2 * k:
            n = 2 * k
        ps = random_instance(rng, n, k, lo=0, hi=50)
        a, b, c = rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-30, 80)
        if abs(a) < 0.1 and abs(b) < 0.1:
            a = 1.0
        line = Line(a, b, c)
        ann = max_rbca_on_line(ps, line)
        bound = oracle_rbca_on_line(ps, line, samples=4000)
        width = 0.0 if ann is None else ann.width
        assert width >= bound - 1e-6, (ps.points, (a, b, c), width, bound)
        if ann is not None:
            assert validate_solution(ann, ps)
            assert abs(a * ann.center_x + b * ann.center_y - c) \
                <= 1e-6 * max(1.0, abs(c))
