import random

import pytest

from conftest import random_instance, random_real_instance, rotate90

from rbannulus import PointSet, validate_solution
from rbannulus.oracle import oracle_rbsa
from rbannulus.squares import (
    best_annulus_on_segment,
    c3_center_segment,
    max_rbsa,
    max_rbsa_c3,
)


def test_center_segment_symmetric_pair():
    a, b, r = c3_center_segment((0, -1), (0, 1))
    assert (a, b, r) == ((-1.0, 0.0), (1.0, 0.0), 1.0)


def test_center_segment_gap_too_wide():
    assert c3_center_segment((10, 0), (0, 2)) is None


def test_center_segment_skewed_pair():
    a, b, r = c3_center_segment((0, 0), (2, 4))
    assert (a, b, r) == ((0.0, 2.0), (2.0, 2.0), 2.0)


def test_center_segment_requires_increasing_y():
    with pytest.raises(ValueError):
        c3_center_segment((0, 1), (0, 0))


def test_segment_solver_inner_cluster():
    ps = PointSet.build([(0, -1, 1), (0, 1, 2), (0, 0, 1), (0.1, 0, 2)], 2)
    got = best_annulus_on_segment(ps, (0, -1), (0, 1))
    assert got is not None
    assert got.width == pytest.approx(0.95)
    assert got.center[0] == pytest.approx(0.05)
    assert validate_solution(got, ps)


def test_segment_solver_empty_inside_is_infeasible():
    ps = PointSet.build([(0, -1, 1), (0, 1, 1)], 1)
    assert best_annulus_on_segment(ps, (0, -1), (0, 1)) is None


def test_segment_solver_degenerate_segment():
    ps = PointSet.build([(-1, 0, 1), (1, 2, 1), (0, 1, 1)], 1)
    got = best_annulus_on_segment(ps, (-1, 0), (1, 2))
    assert got is not None
    assert got.width == pytest.approx(1.0)
    assert got.center == (0.0, 1.0)
    assert validate_solution(got, ps)


def test_segment_solver_strip_excludes_pins():
    # y0 - r rounds to 0.09999999999999998 here, below the bottom pin: a
    # strip bounded by y0 -+ r would count that pin as inside
    ps = PointSet.build(
        [(0, 0.1, 1), (0, 0.7, 2), (0, 0.4, 1), (0.03, 0.4, 2), (50, 50, 1), (50, 51, 2)],
        2,
    )
    got = best_annulus_on_segment(ps, (0, 0.1), (0, 0.7))
    assert got is not None
    assert got.width == pytest.approx(0.285)
    assert validate_solution(got, ps)


def _best_over_pinned_pairs(ps):
    best = None
    for a in ps.points:
        for b in ps.points:
            if a.y < b.y:
                got = best_annulus_on_segment(ps, a, b)
                if got is not None:
                    assert validate_solution(got, ps)
                    if best is None or got.width > best:
                        best = got.width
    return best


def test_solver_agrees_with_per_pair_search():
    # the bounded solver's width is the best per-pair search over every
    # pinned pair, horizontal pairs in the input frame and vertical pairs
    # with x and y swapped; every fourth instance is integer and tie-heavy,
    # with many points per level
    rng = random.Random(2718)
    seen = 0
    for it in range(80):
        k = rng.randint(1, 3)
        n = rng.randint(2 * k, 10)
        if it % 4 == 3:
            ps = random_instance(rng, n, k, 0, 4)
        else:
            ps = random_real_instance(rng, n, k, digits=None if it % 3 == 0 else 1 + it % 2)
        swapped = PointSet.build([(p.y, p.x, p.color) for p in ps.points], k)
        widths = [w for w in (_best_over_pinned_pairs(ps), _best_over_pinned_pairs(swapped))
                  if w is not None]
        got = max_rbsa_c3(ps)
        if not widths:
            assert got is None, ps.points
            continue
        seen += 1
        assert got is not None, ps.points
        assert got.width == max(widths), ps.points
    assert seen >= 20


def test_c3_infeasible_on_coincident_points():
    ps = PointSet.build([(0, 0, 1), (0, 0, 1)], 1)
    assert max_rbsa_c3(ps) is None
    assert max_rbsa(ps) is None


def strip_dominant():
    return PointSet.build([(0, 0, 1), (0, 1, 2), (10, 0, 1), (10, 1, 2)], 2)


def corridor_dominant():
    return PointSet.build(
        [(11, 6, 1), (7, 2, 1), (1, 1, 2), (0, 6, 2), (8, 4, 2), (12, 12, 1)], 2
    )


def bounded_dominant():
    # two-color core, four axis blockers at distance 1, and dense square
    # walls of radius 5 with gap 2: any strip or corridor must thread a
    # wall gap, while the bounded annulus between the walls and the
    # blockers reaches width 4
    pts = []
    xs = [-5, -3, -1, 1, 3, 5]
    for i, x in enumerate(xs):
        pts.append((x, -5, 1 + i % 2))
        pts.append((x, 5, 1 + (i + 1) % 2))
    for i, y in enumerate([-3, -1, 1, 3]):
        pts.append((-5, y, 1 + i % 2))
        pts.append((5, y, 1 + (i + 1) % 2))
    pts += [(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1), (0, 0, 1), (0, 0, 2)]
    return PointSet.build(pts, 2)


def test_strip_dominant_instance():
    ps = strip_dominant()
    got = max_rbsa(ps)
    assert got.width == pytest.approx(oracle_rbsa(ps).width)
    assert len(got.infinite_sides) == 3
    assert validate_solution(got, ps)


def test_corridor_dominant_instance():
    ps = corridor_dominant()
    got = max_rbsa(ps)
    ref = oracle_rbsa(ps)
    assert got.width == pytest.approx(ref.width) == pytest.approx(6.0)
    assert len(got.infinite_sides) == 2
    assert validate_solution(got, ps)


def test_bounded_dominant_instance():
    ps = bounded_dominant()
    got = max_rbsa(ps)
    assert got.width == pytest.approx(4.0)
    assert got.infinite_sides == frozenset()
    assert got.outer_sides == (-5.0, 5.0, -5.0, 5.0)
    assert validate_solution(got, ps)
    assert oracle_rbsa(ps).width == pytest.approx(4.0)


def test_bounded_solutions_are_pinned():
    # every bounded answer keeps points on both pinned outer sides and a
    # point on the inner boundary
    rng = random.Random(17)
    seen = 0
    for _ in range(80):
        k = rng.randint(1, 3)
        n = rng.randint(2 * k, 10)
        ps = random_instance(rng, n, k, 0, 8)
        got = max_rbsa_c3(ps)
        if got is None:
            continue
        seen += 1
        cx, cy = got.center
        r = got.r_out
        r_in = r - got.width
        eps = 1e-9
        on_bottom = any(
            abs(p.y - got.bottom) <= eps and got.left - eps <= p.x <= got.right + eps
            for p in ps.points
        )
        on_top = any(
            abs(p.y - got.top) <= eps and got.left - eps <= p.x <= got.right + eps
            for p in ps.points
        )
        on_left = any(
            abs(p.x - got.left) <= eps and got.bottom - eps <= p.y <= got.top + eps
            for p in ps.points
        )
        on_right = any(
            abs(p.x - got.right) <= eps and got.bottom - eps <= p.y <= got.top + eps
            for p in ps.points
        )
        assert (on_bottom and on_top) or (on_left and on_right)
        inner_hit = any(
            abs(max(abs(p.x - cx), abs(p.y - cy)) - r_in) <= eps
            for p in ps.points
        )
        assert inner_hit
        assert validate_solution(got, ps)
    assert seen >= 10


def test_envelope_never_beats_reported_width():
    ps = bounded_dominant()
    seg = c3_center_segment((0, -5), (0, 5))
    assert seg is not None
    (ax, y0), (bx, _), r = seg
    got = best_annulus_on_segment(ps, (0, -5), (0, 5))
    assert got is not None
    rng = random.Random(3)
    from rbannulus import SquareAnnulus

    for _ in range(100):
        t = rng.uniform(ax, bx)
        inside = [
            p
            for p in ps.points
            if abs(p.x - t) < r and abs(p.y - y0) < r
        ]
        if not inside:
            continue
        r_in = max(max(abs(p.x - t), abs(p.y - y0)) for p in inside)
        cand = SquareAnnulus(t - r, t + r, y0 - r, y0 + r, r - r_in)
        if validate_solution(cand, ps):
            assert r - r_in <= got.width + 1e-9


def test_matches_oracle_on_random_instances():
    rng = random.Random(424242)
    for _ in range(80):
        k = rng.randint(1, 3)
        n = rng.randint(2 * k, 12)
        ps = random_instance(rng, n, k, 0, 10)
        got = max_rbsa(ps)
        ref = oracle_rbsa(ps)
        if ref is None:
            assert got is None, ps.points
        else:
            assert got is not None, ps.points
            assert got.width == pytest.approx(ref.width, abs=1e-9), ps.points
            assert validate_solution(got, ps)


def test_width_invariant_under_rotation():
    rng = random.Random(5150)
    for _ in range(30):
        k = rng.randint(1, 3)
        n = rng.randint(2 * k, 10)
        ps = random_instance(rng, n, k, 0, 9)
        a = max_rbsa(ps)
        b = max_rbsa(rotate90(ps))
        if a is None:
            assert b is None
        else:
            assert b is not None
            assert b.width == pytest.approx(a.width, abs=1e-9)
