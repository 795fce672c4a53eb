import itertools
import math
import random
import re

import numpy as np
import pytest

from conftest import random_instance, random_real_instance, reflect_x, rotate90

from rbannulus import DEFAULT_EPS, PointSet, SquareAnnulus, max_rbra, validate_solution
from rbannulus.core import INF
from rbannulus.lcorridor import max_rblc_all
from rbannulus.oracle import oracle_rbsa
from rbannulus.squares import (
    _as_square,
    _band_neighbours,
    _frame,
    _pair_strips,
    _pairs,
    _pinned,
    _reaching,
    _room,
    _scan_segment,
    _strip,
    best_annulus_on_segment,
    c3_center_segment,
    max_rbsa,
    max_rbsa_c3,
)
from rbannulus.strips import max_rbes


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
    # max_rbsa widths are exactly invariant under a 90 degree rotation, a
    # reflection in either axis, scaling by 2**20 or 2**-20 (eps scaled
    # alike) and relabelling the colors; integer and real instances
    rng = random.Random(5150)
    for it in range(60):
        k = rng.randint(1, 3)
        n = rng.randint(2 * k, 10)
        if it % 2 == 0:
            ps = random_instance(rng, n, k, 0, 9)
        else:
            ps = random_real_instance(rng, n, k, digits=(1, 2, None)[it % 3])
        relabel = rng.sample(range(1, k + 1), k)
        images = [(rotate90(ps), 1.0), (reflect_x(ps), 1.0)]
        images += [(PointSet.build([(p.x, -p.y, p.color) for p in ps.points], k), 1.0),
                   (PointSet.build([(p.x, p.y, relabel[p.color - 1]) for p in ps.points], k), 1.0)]
        images += [(PointSet.build([(p.x * s, p.y * s, p.color) for p in ps.points], k), s)
                   for s in (2.0 ** 20, 2.0 ** -20)]
        a = max_rbsa(ps)
        for image, s in images:
            b = max_rbsa(image, DEFAULT_EPS * s)
            assert (a is None) == (b is None), (ps.points, s)
            if a is not None:
                assert b.width == a.width * s, (ps.points, s)


def _frames(ps):
    # (x, y, color) rows in the input frame and with x and y swapped, each
    # as (by_x, by_y) the way the bounded search orders them: sorted by
    # (x, y) and by (y, x), tied rows in index order
    rows = [(p.x, p.y, p.color) for p in ps.points]
    for frame in (rows, [(y, x, c) for x, y, c in rows]):
        yield (sorted(frame, key=lambda p: (p[0], p[1])),
               sorted(frame, key=lambda p: (p[1], p[0])))


def _columns(rows):
    # the x, y and color columns of rows: those of by_y hold the frame's
    # x and y columns as _c3_family passes them, those of by_x the
    # x-ordered columns _strip takes
    return tuple(np.array(col) for col in zip(*rows))


def _pinned_pairs(by_y):
    # (bottom, top) positions in by_y of every pair _c3_family may pin,
    # in by_y order, with the pair's c3_center_segment
    for i, (xi, y_i, _) in enumerate(by_y):
        for j in range(i + 1, len(by_y)):
            xj, y_j, _ = by_y[j]
            if y_j != y_i:
                seg = c3_center_segment((xi, y_i), (xj, y_j))
                if seg is not None:
                    yield i, j, seg


def _ulp_edge():
    # pins (0.01, 0.28) and (0.2, 1.25): r = 0.485 and bx = 0.495, but
    # fl(bx - r) = 0.010000000000000009, so at t = bx the point one ulp
    # right of the bottom pin has left the window, while (0.105, 0.765)
    # stays inside it at every t on the segment
    return PointSet.build([(0.01, 0.28, 1), (0.2, 1.25, 1),
                           (math.nextafter(0.01, 1), 1.249, 1), (0.105, 0.765, 1)], 1)


def _table_instances(rng):
    # integer, one-decimal and signed-zero instances, each also scaled by
    # 10**6 and moved by (10**7, -10**7); then a y-gap of one subnormal,
    # where r underflows to 0, and coordinates of +-1e308, where r, y0, ax
    # and bx overflow
    for it in range(36):
        k = rng.randint(1, 3)
        n = rng.randint(2 * k, 10)
        if it % 3 == 0:
            ps = random_instance(rng, n, k, 0, 4)
        else:
            ps = random_real_instance(rng, n, k, digits=1)
        if it % 3 == 2:
            ps = PointSet.build([(rng.choice((0.0, -0.0, p.x)), rng.choice((0.0, -0.0, p.y)),
                                  p.color) for p in ps.points], k)
        yield ps
        yield PointSet.build([(p.x * 1e6 + 1e7, p.y * 1e6 - 1e7, p.color)
                              for p in ps.points], k)
    yield PointSet.build([(0.0, 0.0, 1), (-0.0, 5e-324, 1), (1.0, 5e-324, 1),
                          (0.0, 1.0, 1), (0.5, 0.5, 1)], 1)
    yield PointSet.build([(-1e308, -1e308, 1), (1e308, 1e308, 1), (0.0, 1e308, 1),
                          (1e308, -1e308, 1), (0.5, 0.0, 1), (-1e308, 0.5, 1)], 1)


def test_pair_table_matches_c3_center_segment():
    # the pair table holds every pinned pair of by_y, in increasing
    # (bottom, top), and rows lo:hi of by_y are exactly those strictly
    # between its two pins.  On every pair with r > 0, and so on every
    # pair the solver scans at any eps >= 0, r, y0, ax and bx are
    # repr-equal to c3_center_segment's.  Where r = 0 the sign of a zero
    # ax or bx may differ: np.maximum and np.minimum return the second
    # operand on a tie of -0.0 and 0.0, max and min the first.  The table
    # is _pinned's over all bottom rows at once.  Both frames.
    checked = 0
    for ps in _table_instances(random.Random(6060)):
        for _, by_y in _frames(ps):
            xs, ys, _ = _columns(by_y)
            pairs = _pinned(xs, ys, 0, len(xs))
            bottom, top, r, y0, ax, bx, lo, hi = (v.tolist() for v in pairs)
            assert list(zip(bottom, top)) == [(i, j) for i, j, _ in _pinned_pairs(by_y)]
            for q, (i, j) in enumerate(zip(bottom, top)):
                between = [p for p in by_y if by_y[i][1] < p[1] < by_y[j][1]]
                assert repr(by_y[lo[q]:hi[q]]) == repr(between), (ps.points, i, j)
                if r[q] > 0.0:
                    (a, y_0), (b, _), r_out = c3_center_segment(by_y[i], by_y[j])
                    assert repr((r[q], y0[q], ax[q], bx[q])) == repr((r_out, y_0, a, b)), \
                        (ps.points, i, j)
                    checked += 1
    assert checked >= 1000


def _decision_instances(rng):
    # the _ulp_edge instance, then integer tie-heavy, real and signed-zero
    # instances, each also scaled by 10**6 and moved by (10**7, -10**7)
    yield _ulp_edge()
    for it in range(36):
        k = rng.randint(1, 3)
        n = rng.randint(2 * k, 10)
        if it % 3 == 0:
            ps = random_instance(rng, n, k, 0, 4)
        else:
            ps = random_real_instance(rng, n, k, digits=(1, 2, None)[it % 3])
        if it % 4 == 1:
            ps = PointSet.build([(rng.choice((0.0, -0.0, p.x)), rng.choice((0.0, -0.0, p.y)),
                                  p.color) for p in ps.points], k)
        yield ps
        yield PointSet.build([(p.x * 1e6 + 1e7, p.y * 1e6 - 1e7, p.color)
                              for p in ps.points], k)


def test_decision_keeps_every_pair_that_reaches_the_limit():
    # at a limit set to each pair's own scanned width, and to the next
    # float above and below it, _reaching keeps every pinned pair whose
    # _scan_segment width is at least the limit, in both frames and at
    # eps 0 and the default eps; it drops enough pairs to matter
    reached = dropped = 0
    for ps in _decision_instances(random.Random(9090)):
        totals = (0,) + ps.color_count
        for eps in (0.0, DEFAULT_EPS):
            for by_x, by_y in _frames(ps):
                xs, ys, _ = _columns(by_y)
                cols = _columns(by_x)
                pairs, widths = _pinned(xs, ys, 0, len(xs)), []
                for q, (i, j, ((ax, y0), (bx, _), r)) in enumerate(_pinned_pairs(by_y)):
                    assert (pairs[0][q], pairs[1][q]) == (i, j), (ps.points, i, j)
                    strip = _strip(cols, by_y[i][1], by_y[j][1])
                    hit = _scan_segment(*strip, totals, ps.k, y0, r, ax, bx, eps)
                    widths.append(-INF if hit is None else hit[0])
                if not widths:
                    continue
                widths = np.array(widths)
                for w in widths[widths > -INF]:
                    for limit in (math.nextafter(w, -INF), w, math.nextafter(w, INF)):
                        keep = _reaching(xs, ys, pairs, limit, *_pair_strips(*pairs[6:]))
                        reach = widths >= limit
                        assert keep[reach].all(), (ps.points, eps, limit)
                        reached += int(reach.sum())
                        dropped += int((~keep).sum())
    assert reached >= 2000 and dropped >= 2000


def _copies(ps):
    # ps itself, moved (scaled by 10**6 and moved by (10**7, -10**7)),
    # scaled by 2**20, 2**-20 and 2**-1000 (where 2**-48 times a pair's
    # coordinates is subnormal), and scaled by the power of two that takes
    # its largest |coordinate| into [2**1023, 2**1024) (where a wide
    # pair's margin in _reaching and _room overflows)
    yield ps
    yield PointSet.build([(p.x * 1e6 + 1e7, p.y * 1e6 - 1e7, p.color) for p in ps.points], ps.k)
    for s in (2.0 ** 20, 2.0 ** -20, 2.0 ** -1000):
        yield PointSet.build([(p.x * s, p.y * s, p.color) for p in ps.points], ps.k)
    big = max(abs(v) for p in ps.points for v in (p.x, p.y))
    if big:
        e = 1024 - math.frexp(big)[1]
        yield PointSet.build([(math.ldexp(p.x, e), math.ldexp(p.y, e), p.color)
                              for p in ps.points], ps.k)


def _room_edges():
    # two pairs whose room is one float wide, each with a tall point in the
    # top's upper band, left of the top pin, and a point at y0 that every
    # window at the free end holds.  Pins (-6.19, 0) and (-5, 4.38): r =
    # 2.19 and bx = -4, and the tall point at fl(bx - r) =
    # -6.1899999999999995 leaves the window only at t = bx, yet fl(x + r)
    # = -3.9999999999999996 > bx, so a room test without its margin drops
    # the pair.  Pins (0.014, 0.28) and (0.204, 1.25): r = 0.485 and ax =
    # -0.281, and the tall point at fl(ax + r) = 0.20399999999999996 lies
    # outside the window at t = ax and inside it just after, so a room
    # test that took it as the left gap drops the pair
    for pts in ([(-6.19, 0.0, 1), (-5.0, 4.38, 1), (-6.1899999999999995, 4.37, 1),
                 (-5.5, 2.19, 1)],
                [(0.014, 0.28, 1), (0.204, 1.25, 1), (0.20399999999999996, 1.249, 1),
                 (0.109, 0.765, 1)]):
        yield PointSet.build(pts, 1)


def _filter_instances(rng):
    # first the _ulp_edge instance and its _copies: the point one ulp right
    # of the bottom pin lies in the top's upper band, strictly between the
    # pins' x values, yet leaves the window at t = bx, so a filter that
    # tested "strictly between the pins" would drop a pair that reaches the
    # floor; and (0.105, 0.765) lies at the height y0 = 0.765 inside every
    # window.  Then the _room_edges instances and their _copies, and
    # integer tie-heavy, one-decimal and signed-zero instances, each with
    # its _copies.
    yield from _copies(_ulp_edge())
    for ps in _room_edges():
        yield from _copies(ps)
    for it in range(72):
        k = rng.randint(1, 3)
        n = rng.randint(2 * k, 10)
        if it % 3 == 0:
            ps = random_instance(rng, n, k, 0, 4)
        else:
            ps = random_real_instance(rng, n, k, digits=1)
        if it % 3 == 2:
            ps = PointSet.build([(rng.choice((0.0, -0.0, p.x)), rng.choice((0.0, -0.0, p.y)),
                                  p.color) for p in ps.points], k)
        yield from _copies(ps)


def test_band_filter_keeps_every_pair_that_can_reach_the_floor():
    # at a floor set to each pair's _scan_segment width, and to the next
    # float above and below it, at eps 0 and the default eps, the pair
    # table built at that floor holds every pinned pair whose width is at
    # least the floor, each row repr-equal to _pinned's over all bottom
    # rows and in its order; both frames.  It drops enough pairs to
    # matter.
    needed = dropped = 0
    for ps in _filter_instances(random.Random(7070)):
        totals = (0,) + ps.color_count
        for by_x, by_y in _frames(ps):
            xs, ys, _ = _columns(by_y)
            cols = _columns(by_x)
            full = _pinned(xs, ys, 0, len(xs))
            rows = {pair: q for q, pair in enumerate(zip(full[0].tolist(), full[1].tolist()))}
            for eps in (0.0, DEFAULT_EPS):
                widths = []
                for i, j, ((ax, y0), (bx, _), r) in _pinned_pairs(by_y):
                    strip = _strip(cols, by_y[i][1], by_y[j][1])
                    hit = _scan_segment(*strip, totals, ps.k, y0, r, ax, bx, eps)
                    widths.append(-INF if hit is None else hit[0])
                widths = np.array(widths)
                for w in np.unique(widths[widths > -INF]):
                    for floor in (math.nextafter(w, -INF), w, math.nextafter(w, INF)):
                        table = _pairs(xs, ys, floor)
                        q = [rows[pair] for pair in zip(table[0].tolist(), table[1].tolist())]
                        assert q == sorted(q), (ps.points, floor)
                        assert repr([v.tolist() for v in table]) == \
                            repr([v[q].tolist() for v in full]), (ps.points, floor)
                        need = np.flatnonzero(widths >= floor)
                        assert set(need.tolist()) <= set(q), (ps.points, eps, floor)
                        needed += len(need)
                        dropped += len(full[0]) - len(q)
    assert needed >= 8000 and dropped >= 15000


def test_table_drops_a_pair_whose_band_neighbours_leave_no_room():
    # pins (0, 0) and (1, 4): r = 2 and the segment is [-1, 2].  At the
    # floor r / 2, (-1.5, 3.5) and (2.2, 3.5) lie in the top's upper band,
    # outside the pins' x values, and each holds the width below the
    # floor wherever a window holds it.  They are 3.7 apart, less than
    # 2r, so every window holds one, the scan stays below the floor and
    # the table drops the pair; on the pair's _copies too
    base = PointSet.build([(0, 0, 1), (1, 4, 1), (-1.5, 3.5, 1), (2.2, 3.5, 1)], 1)
    for ps in _copies(base):
        bottom, top = ps.points[0], ps.points[1]
        xs, ys, _ = _frame(ps, False)
        full = _pinned(xs, ys, 0, len(xs))
        q = list(zip(full[0].tolist(), full[1].tolist())).index((0, 3))
        floor = full[2][q] / 2
        hit = best_annulus_on_segment(ps, bottom, top, 0.0)
        assert hit is None or hit.width < floor, ps.points
        table = _pairs(xs, ys, floor)
        assert (0, 3) not in zip(table[0].tolist(), table[1].tolist()), ps.points


def test_table_keeps_a_pair_whose_room_is_one_float_wide():
    # each _room_edges pair reaches its width at one end of its segment,
    # bx and then ax, where its tall point lies on the window's edge, and
    # the table built at that width keeps the pair
    for ps, end in zip(_room_edges(), (5, 4)):
        xs, ys, cols = _frame(ps, False)
        full = _pinned(xs, ys, 0, len(xs))
        q = list(zip(full[0].tolist(), full[1].tolist())).index((0, 3))
        r, y0, ax, bx = (float(v[q]) for v in full[2:6])
        totals = (0,) + ps.color_count
        w, t = _scan_segment(*_strip(cols, ys[0], ys[3]), totals, ps.k, y0, r, ax, bx, 0.0)
        assert t == float(full[end][q]), ps.points
        table = _pairs(xs, ys, w)
        assert (0, 3) in zip(table[0].tolist(), table[1].tolist()), ps.points


def test_decision_on_fewer_strip_rows_keeps_a_superset():
    # at limits of a quarter, a half and three quarters of the pairs' r,
    # _reaching on a random subset of each pair's strip rows, and the
    # table's room test on each pin's nearest band rows at the limit
    # (_room), keep every pair _reaching keeps on the whole strip; both
    # frames.  The room test drops enough pairs to matter.
    gen = np.random.default_rng(5050)
    dropped = 0
    for ps in _decision_instances(random.Random(8080)):
        for _, by_y in _frames(ps):
            xs, ys, _ = _columns(by_y)
            pairs = _pinned(xs, ys, 0, len(xs))
            r = pairs[2]
            if not len(r):
                continue
            strip, pad = _pair_strips(*pairs[6:])
            for limit in (gen.choice(r, 2)[:, None] * [0.25, 0.5, 0.75]).ravel().tolist():
                full = _reaching(xs, ys, pairs, limit, strip, pad)
                some = pad | (gen.random(pad.shape) < 0.5)
                assert _reaching(xs, ys, pairs, limit, strip, some)[full].all(), \
                    (ps.points, limit)
                band = _room(xs, ys, pairs, limit, _band_neighbours(xs, ys, limit))
                assert band[full].all(), (ps.points, limit)
                dropped += int((~band).sum())
    assert dropped >= 500


def _strip_by_filter(by_x, y_lo, y_hi):
    # the rows of by_x strictly between the two y values, by one pass
    rows = [p for p in by_x if y_lo < p[1] < y_hi]
    return [p[0] for p in rows], [p[1] for p in rows], [p[2] for p in rows]


def _c3_family_all_pairs(by_x, by_y, k, totals, eps):
    # the bounded family as a search with no order, filter or decision
    # runs it: every pinned pair, scanned in by_y order, with the
    # first pair that is best by (-width, t, y0) kept, each strip filtered
    # from by_x
    best = None
    for i, j, ((ax, y0), (bx, _), r) in _pinned_pairs(by_y):
        strip = _strip_by_filter(by_x, by_y[i][1], by_y[j][1])
        hit = _scan_segment(*strip, totals, k, y0, r, ax, bx, eps)
        if hit is None:
            continue
        w, t = hit
        if best is None or (-w, t, y0) < (-best[0], best[1], best[2]):
            best = (w, t, y0, r)
    return best


def _rbsa_c3_all_pairs(ps, eps=DEFAULT_EPS):
    totals = (0,) + ps.color_count
    best, hit = (_c3_family_all_pairs(by_x, by_y, ps.k, totals, eps)
                 for by_x, by_y in _frames(ps))
    if hit is not None:
        w, cx, cy, r = hit
        cand = (w, cy, cx, r)
        if best is None or (-cand[0], cand[1], cand[2]) < (-best[0], best[1], best[2]):
            best = cand
    if best is None:
        return None
    w, cx, cy, r = best
    return SquareAnnulus(cx - r, cx + r, cy - r, cy + r, w)


def _rbsa_all_pairs(ps, eps=DEFAULT_EPS):
    best = None
    for cand in (_as_square(max_rbes(ps, "vertical", eps)),
                 _as_square(max_rbes(ps, "horizontal", eps)),
                 _as_square(max_rblc_all(ps, eps)),
                 _rbsa_c3_all_pairs(ps, eps)):
        if cand is not None and (best is None or cand.width > best.width):
            best = cand
    return best


def test_best_first_search_keeps_every_witness():
    # the search in decreasing r returns, bit for bit, what scanning
    # every pair in order returns; tie-heavy integers, real coordinates
    # and instances with signed zeros.  max_rbsa, whose pair table is
    # built at the degenerate families' floor, is also checked on a
    # signed-zero copy of each instance and on its _copies.
    rng = random.Random(31337)
    bounded = 0
    for it in range(320):
        k = rng.randint(1, 3)
        n = rng.randint(2 * k, 11)
        if it % 2 == 0:
            ps = random_instance(rng, n, k, 0, rng.randint(3, 6))
        else:
            ps = random_real_instance(rng, n, k, digits=(1, 2, None)[it % 3])
        if it % 8 == 5:
            ps = PointSet.build([(rng.choice((0.0, -0.0, p.x)), rng.choice((0.0, -0.0, p.y)),
                                  p.color) for p in ps.points], k)
        ref = _rbsa_c3_all_pairs(ps)
        bounded += ref is not None
        assert repr(max_rbsa_c3(ps)) == repr(ref), ps.points
        zeros = PointSet.build([(rng.choice((0.0, -0.0, p.x)), rng.choice((0.0, -0.0, p.y)),
                                 p.color) for p in ps.points], k)
        for copy in (zeros, *_copies(ps)):
            assert repr(max_rbsa(copy)) == repr(_rbsa_all_pairs(copy)), copy.points
    assert bounded >= 200


def test_strip_is_the_by_x_filter():
    # the numpy pass over a frame's x-ordered columns holds the rows of the
    # one-pass filter over by_x in the same order, each zero with its sign;
    # over the columns of by_x and over the solver's frames (_frame), which
    # best_annulus_on_segment shares
    rng = random.Random(4242)
    for it in range(60):
        k = rng.randint(1, 3)
        n = rng.randint(2 * k, 14)
        ps = random_instance(rng, n, k, -2, 2)
        ps = PointSet.build([(rng.choice((-0.0, p.x)), rng.choice((-0.0, p.y)), p.color)
                             for p in ps.points], k)
        for swap, (by_x, by_y) in zip((False, True), _frames(ps)):
            ys = sorted({p[1] for p in by_y})
            for cols in (_columns(by_x), _frame(ps, swap)[2]):
                for lo, hi in itertools.combinations(ys, 2):
                    assert repr(_strip(cols, lo, hi)) == repr(_strip_by_filter(by_x, lo, hi))


def test_pair_with_bound_equal_to_best_still_wins_on_t():
    # by_y is (0, -1), (-2, 0), (-3, 1), (-3, 2), (1, 3).  The search takes
    # pairs in decreasing r, which bounds their widths: (0, -1)-(1, 3),
    # r = 2, reaches width 1.0 at t = -1 and (0, -1)-(-3, 2), r = 1.5, at
    # t = -1.5.  Pair (-2, 0)-(-3, 2) has r = 1.0, equal to that width, and
    # reaches it at t = -3 with (-3, 1) at its center, so it wins the tie:
    # the search stops only at an r strictly below the best width
    ps = PointSet.build([(1, 3, 1), (-3, 2, 1), (-2, 0, 1), (-3, 1, 1), (0, -1, 1)], 1)
    (by_x, by_y), _ = _frames(ps)
    hits = {}
    for i, j, ((ax, y0), (bx, _), r) in _pinned_pairs(by_y):
        strip = _strip(_columns(by_x), by_y[i][1], by_y[j][1])
        hits[i, j] = r, _scan_segment(*strip, (0, 5), 1, y0, r, ax, bx, DEFAULT_EPS)
    assert hits[0, 4] == (2.0, (1.0, -1.0)) and hits[0, 3] == (1.5, (1.0, -1.5))
    assert hits[1, 3] == (1.0, (1.0, -3.0))
    assert max_rbsa_c3(ps) == SquareAnnulus(-4.0, -2.0, 0.0, 2.0, 1.0)


def test_pairs_tied_on_width_center_keep_the_first_in_order():
    # (5, -5)-(-5, 5) and (0, -3)-(1, 3) both reach width 2 at the center
    # (0, 0), with r = 5 and r = 3.  Pairs tied on the center share y0, so
    # the one with the larger r has the lower bottom pin and comes first in
    # by_y order, where scanning every pair keeps it, as well as in the
    # search's decreasing r
    ps = PointSet.build([(-1, 0, 1), (0, -1, 1), (5, -5, 1), (-5, 5, 1),
                         (2, 3, 1), (1, 3, 1), (0, -3, 1), (-3, 1, 1)], 1)
    assert max_rbsa_c3(ps) == SquareAnnulus(-5.0, 5.0, -5.0, 5.0, 2.0)


def _without_zero_signs(ann):
    # the repr of an answer with every -0.0 read as 0.0
    return re.sub(r"-0\.0(?![0-9e])", "0.0", repr(ann))


def test_answers_do_not_depend_on_input_order():
    # shuffling the input rows of tie-heavy instances, whose picks include
    # -0.0 and 0.0 and whose repeated points may take another color, keeps
    # max_rbsa_c3's answer bit for bit: tied rows trade places in its
    # frames, and they pin and scan alike.  The other solvers keep theirs
    # up to the sign of a zero, which follows the first row.
    rng = random.Random(1)
    picks = (-0.0, 0.0, 1.0, 2.0, -1.0)
    others = [max_rbsa, max_rblc_all, max_rbra, lambda ps: max_rbes(ps, "vertical"),
              lambda ps: max_rbes(ps, "horizontal")]
    signed = 0
    for _ in range(200):
        k = rng.randint(1, 3)
        n = rng.randint(2 * k, 10)
        rows = [(rng.choice(picks), rng.choice(picks), 1 + j % k) for j in range(n)]
        rows += [(x, y, 1 + c % k) for x, y, c in rng.sample(rows, rng.randint(1, n))]
        shuffled = rng.sample(rows, len(rows))
        ps, qs = PointSet.build(rows, k), PointSet.build(shuffled, k)
        assert repr(max_rbsa_c3(ps)) == repr(max_rbsa_c3(qs)), rows
        for solve in others:
            a, b = solve(ps), solve(qs)
            assert _without_zero_signs(a) == _without_zero_signs(b), rows
            signed += repr(a) != repr(b)
    assert signed >= 20
