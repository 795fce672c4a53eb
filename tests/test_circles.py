import itertools
import math
import random
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

from conftest import random_instance, random_real_instance, rotate90

from rbannulus import (
    DEFAULT_EPS,
    CircularAnnulus,
    Line,
    PointSet,
    max_rbca,
    max_rbca_on_line,
    validate_solution,
)
from rbannulus import circles
from rbannulus.circles import (
    FAR_FIELD_SCALES,
    _FINALIST_SLACK,
    _batch_widths,
    _columns,
    _screen,
    best_annulus_at_center,
    cir21_candidates,
    cir22_candidates,
    far_field_candidates,
    point_center_candidates,
)
from rbannulus.instances import generate_instance
from rbannulus.oracle import oracle_rbca, oracle_rbca_on_line
from rbannulus.reference import circle_plane, lift


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


def _centres(got):
    xs, ys = got
    assert xs.dtype == ys.dtype == np.float64 and xs.shape == ys.shape
    return list(zip(xs.tolist(), ys.tolist()))


def _one_to_one(centres, expected, fits):
    # every centre fits a distinct expected item, and no item is left over
    left = list(expected)
    for c in centres:
        hit = next((t for t, e in enumerate(left) if fits(c, e)), None)
        assert hit is not None, c
        del left[hit]
    assert left == [], left


def _near(c, e, tol=1e-8):
    return abs(c[0] - e[0]) <= tol and abs(c[1] - e[1]) <= tol


def _bisector_pairs(ps):
    # pairs of point pairs whose perpendicular bisectors are not parallel
    pts = ps.points
    pairs = itertools.combinations(range(len(pts)), 2)
    return [((i, j), (s, t))
            for (i, j), (s, t) in itertools.combinations(pairs, 2)
            if (pts[j].x - pts[i].x) * (pts[t].y - pts[s].y)
            != (pts[j].y - pts[i].y) * (pts[t].x - pts[s].x)]


def _equidistant(ps):
    xy = [(p.x, p.y) for p in ps.points]

    def fits(c, pair_of_pairs):
        (i, j), (s, t) = pair_of_pairs
        return (abs(dist(c, xy[i]) - dist(c, xy[j])) <= 1e-6
                and abs(dist(c, xy[s]) - dist(c, xy[t])) <= 1e-6)
    return fits


def _expected_cir21(ps):
    # ((i, j), (a, r), centre) for every bisector(i, j) crossing the line
    # through pair member a and third point r, by a 2x2 linear solve
    pts = ps.points
    out = []
    for i, j in itertools.combinations(range(len(pts)), 2):
        p, q = pts[i], pts[j]
        for r in range(len(pts)):
            if r in (i, j):
                continue
            for a in (i, j):
                u, v = pts[a], pts[r]
                # the ray is parallel to the bisector iff it is normal to pq
                if (q.x - p.x) * (v.x - u.x) + (q.y - p.y) * (v.y - u.y) == 0:
                    continue
                A = np.array([[2 * (q.x - p.x), 2 * (q.y - p.y)],
                              [v.y - u.y, u.x - v.x]])
                rhs = np.array([q.x ** 2 + q.y ** 2 - p.x ** 2 - p.y ** 2,
                                (v.y - u.y) * u.x + (u.x - v.x) * u.y])
                out.append(((i, j), (a, r), tuple(np.linalg.solve(A, rhs))))
    return out


def test_cir22_symmetric_center():
    ps = PointSet.build([(-1, 0, 1), (1, 0, 1), (0, 3, 2), (0, -3, 2)], 2)
    cands = _centres(cir22_candidates(ps))
    assert any(abs(x) < 1e-12 and abs(y) < 1e-12 for x, y in cands)
    # each centre lies on the bisectors of its own two pairs
    _one_to_one(cands, _bisector_pairs(ps), _equidistant(ps))


def test_cir22_parallel_bisectors_skipped():
    # both pairs are vertical with the same midline height
    ps = PointSet.build([(0, 0, 1), (0, 2, 1), (5, 0, 2), (5, 2, 2)], 2)
    crossing = _bisector_pairs(ps)
    assert ((0, 1), (2, 3)) not in crossing
    # 15 pairs of pairs, of which (0,1)/(2,3) and (0,2)/(1,3) are parallel
    assert len(crossing) == 13
    cands = _centres(cir22_candidates(ps))
    assert all(math.isfinite(x) and math.isfinite(y) for x, y in cands)
    _one_to_one(cands, crossing, _equidistant(ps))


def test_cir22_matches_linear_solve():
    rng = random.Random(421)
    pts = [(rng.uniform(0, 10), rng.uniform(0, 10), 1 + (i % 2))
           for i in range(4)]
    ps = PointSet.build(pts, 2)
    expected = []
    for (i, j), (s, t) in _bisector_pairs(ps):
        p, q, u, v = ps.points[i], ps.points[j], ps.points[s], ps.points[t]
        A = np.array([[2 * (q.x - p.x), 2 * (q.y - p.y)],
                      [2 * (v.x - u.x), 2 * (v.y - u.y)]])
        rhs = np.array([q.x ** 2 + q.y ** 2 - p.x ** 2 - p.y ** 2,
                        v.x ** 2 + v.y ** 2 - u.x ** 2 - u.y ** 2])
        expected.append(tuple(np.linalg.solve(A, rhs)))
    cands = _centres(cir22_candidates(ps))
    assert len(cands) == len(expected) == 15
    _one_to_one(cands, expected, _near)
    _one_to_one(expected, cands, _near)


def test_cir21_collinear_example():
    ps = PointSet.build([(-1, 0, 1), (1, 0, 1), (0, 3, 2), (9, 9, 2)], 2)
    cands = _centres(cir21_candidates(ps))
    # both rays from the pair (0, 1) through (0, 3) cross the y-axis
    # bisector there, and nothing else in the stream lands on it
    hits = [c for c in cands if c == pytest.approx((0.0, 3.0), abs=1e-9)]
    assert len(hits) == 2
    expected = _expected_cir21(ps)
    assert [key for *key, c in expected if _near(c, (0.0, 3.0))] \
        == [[(0, 1), (0, 2)], [(0, 1), (1, 2)]]
    _one_to_one(cands, [c for *_, c in expected], _near)


def test_cir21_parallel_ray_skipped():
    # bisector of the vertical pair is horizontal, as is the ray to (5,0)
    ps = PointSet.build([(0, 0, 1), (0, 2, 1), (5, 0, 2), (5, 2, 2)], 2)
    expected = _expected_cir21(ps)
    keys = [key for *key, _ in expected]
    assert [(0, 1), (0, 2)] not in keys
    assert [(0, 1), (1, 2)] in keys
    # 6 pairs x 2 third points x 2 ends, of which 8 rays are parallel
    assert len(expected) == 16
    cands = _centres(cir21_candidates(ps))
    assert (2.5, 1.0) in cands
    _one_to_one(cands, [c for *_, c in expected], _near)


def test_far_field_and_point_streams():
    ps = PointSet.build([(0, 0, 1), (4, 0, 1)], 1)
    assert _centres(point_center_candidates(ps)) == [(0.0, 0.0), (4.0, 0.0)]
    fars = _centres(far_field_candidates(ps))
    assert all(dist(c, (2, 0)) > 50 for c in fars)
    # along the pair (on the x-axis) and perpendicular to it through a
    # pair member, for 2 ordered pairs x 3 scales each, and nothing else
    along = [c for c in fars if c[1] == 0.0]
    perp = [c for c in fars if c[0] in (0.0, 4.0) and c[1] != 0.0]
    assert len(along) == len(perp) == 6
    assert len(fars) == 12


def test_family_sizes_general_position():
    # a family that is dropped or truncated shows up in its closed form
    rng = random.Random(429)
    n = 6
    ps = PointSet.build([(rng.uniform(0, 10), rng.uniform(0, 10), 1 + i % 2)
                         for i in range(n)], 2)
    pairs = math.comb(n, 2)
    sizes = {fam.__name__: len(_centres(fam(ps)))
             for fam in (point_center_candidates, cir22_candidates,
                         cir21_candidates, far_field_candidates)}
    assert sizes == {
        "point_center_candidates": n,
        "cir22_candidates": math.comb(pairs, 2),
        "cir21_candidates": pairs * (n - 2) * 2,
        "far_field_candidates": 6 * n * (n - 1),
    }


def test_pinned_centres_scale_exactly_at_large_magnitudes():
    # the crossings multiply three coordinates, which overflowed from about
    # 2^340 and left both families empty; scaled by a power of two, every
    # centre is the desk-scale centre times the scale, with no warning
    ps = generate_instance(9, 3, "uniform", 5)
    base = [cir22_candidates(ps), cir21_candidates(ps)]
    assert [len(xs) for xs, _ in base] == [630, 504]
    for scale in (2.0 ** 400, 2.0 ** 530, 2.0 ** 600):
        big = PointSet.build([(p.x * scale, p.y * scale, p.color) for p in ps.points], 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [cir22_candidates(big), cir21_candidates(big)]
        for (xs, ys), (bxs, bys) in zip(got, base):
            assert len(xs) == len(bxs)
            assert np.array_equal(xs, bxs * scale) and np.array_equal(ys, bys * scale)


def _scalar_cross(l1, l2):
    a1, b1, c1 = l1
    a2, b2, c2 = l2
    det = a1 * b2 - a2 * b1
    if det == 0.0:
        return []
    x = (c1 * b2 - c2 * b1) / det
    y = (a1 * c2 - a2 * c1) / det
    return [(x, y)] if math.isfinite(x) and math.isfinite(y) else []


def _scalar_bisectors(pts):
    pairs = list(itertools.combinations(range(len(pts)), 2))
    return pairs, [(2.0 * (q.x - p.x), 2.0 * (q.y - p.y),
                    (q.x * q.x + q.y * q.y) - (p.x * p.x + p.y * p.y))
                   for p, q in ((pts[i], pts[j]) for i, j in pairs)]


def _scalar_through(px, py, q):
    a = q.y - py
    b = px - q.x
    return (a, b, a * px + b * py)


# The per-candidate loops the array families replaced, kept as the
# reference: the same operands in the same order give the same bits.

def _scalar_cir22(ps):
    _, bis = _scalar_bisectors(ps.points)
    out = []
    for u, v in itertools.combinations(range(len(bis)), 2):
        out += _scalar_cross(bis[u], bis[v])
    return out


def _scalar_centres(ps):
    pts = ps.points
    pairs, bis = _scalar_bisectors(pts)
    out = [(p.x, p.y) for p in pts] + _scalar_cir22(ps)
    for (i, j), bij in zip(pairs, bis):
        for r in range(len(pts)):
            if r not in (i, j):
                for a in (i, j):
                    out += _scalar_cross(
                        bij, _scalar_through(pts[a].x, pts[a].y, pts[r]))
    return sorted(out + _scalar_far(ps))


def _scalar_on_line(ps, line):
    pts = ps.points
    pairs, bis = _scalar_bisectors(pts)
    lref = (line.a, line.b, line.c)
    out = []
    for (i, j), bij in zip(pairs, bis):
        out += _scalar_cross(lref, bij)
        out += _scalar_cross(lref, _scalar_through(pts[i].x, pts[i].y, pts[j]))
    n2 = line.a * line.a + line.b * line.b
    for i, p in enumerate(pts):
        d = (line.a * p.x + line.b * p.y - line.c) / n2
        mx, my = p.x - 2.0 * d * line.a, p.y - 2.0 * d * line.b
        for j, q in enumerate(pts):
            if j != i:
                out += _scalar_cross(lref, _scalar_through(mx, my, q))
    (ox, oy), (dx, dy) = line.origin, line.direction
    ts = [(p.x - ox) * dx + (p.y - oy) * dy for p in pts]
    span = max(max(ts) - min(ts), 1.0)
    for s in FAR_FIELD_SCALES:
        for t in (min(ts) - s * span, max(ts) + s * span):
            out.append((ox + t * dx, oy + t * dy))
    return sorted(out)


def _scalar_far(ps):
    pts = ps.points
    span = max(max(p.x for p in pts) - min(p.x for p in pts),
               max(p.y for p in pts) - min(p.y for p in pts), 1.0)
    out = []
    for i, j in itertools.permutations(range(len(pts)), 2):
        dx, dy = pts[j].x - pts[i].x, pts[j].y - pts[i].y
        d = math.hypot(dx, dy)
        if d == 0.0:
            continue
        ux, uy = dx / d, dy / d
        for s in FAR_FIELD_SCALES:
            back = s * span
            out.append((pts[i].x - back * ux, pts[i].y - back * uy))
            out.append((pts[i].x + back * uy, pts[i].y - back * ux))
    return sorted(out)


def test_centres_match_scalar_reference(monkeypatch):
    rng = random.Random(430)
    scored = []
    monkeypatch.setattr(circles, "_pick_best",
                        lambda ps, xs, ys, eps: scored.append(
                            sorted(zip(xs.tolist(), ys.tolist()))))
    for trial in range(6):
        n = rng.randint(4, 9)
        ps = random_instance(rng, n, 2, lo=-40, hi=60)
        if trial % 2:
            # real coordinates, where the operand order shows in the bits
            ps = PointSet.build([(rng.uniform(-40, 60), rng.uniform(-40, 60),
                                  p.color) for p in ps.points], 2)
        families = (point_center_candidates, cir22_candidates,
                    cir21_candidates, far_field_candidates)
        got = sorted(c for fam in families for c in _centres(fam(ps)))
        assert got == _scalar_centres(ps)
        max_rbca(ps)
        assert scored.pop() == got
        line = Line(rng.uniform(-1, 1), rng.uniform(0.2, 1),
                    rng.uniform(-30, 30))
        max_rbca_on_line(ps, line)
        assert scored.pop() == _scalar_on_line(ps, line)
    # enough pairs that a last-bit difference in the pair lengths shows
    ps = PointSet.build([(rng.uniform(-40, 60), rng.uniform(-40, 60), 1)
                         for _ in range(60)], 1)
    assert sorted(_centres(far_field_candidates(ps))) == _scalar_far(ps)


def test_cir22_blocks_keep_every_bit_and_the_order(monkeypatch):
    # cir22_candidates crosses a block of bisector rows per _cross call,
    # sized by its crossings; unsorted, its centres are the scalar loop's,
    # byte for byte and in order, with one block or many and a last block
    # cut short by the last row
    cross = circles._cross
    calls = []
    monkeypatch.setattr(circles, "_cross",
                        lambda *lines: calls.append(np.broadcast(*lines).size)
                        or cross(*lines))
    rng = random.Random(436)
    blocks = []
    for n, chunk in ((9, 100), (12, 700), (14, 50), (9, 10 ** 6)):
        monkeypatch.setattr(circles, "_CHUNK", chunk)
        ps = random_real_instance(rng, n, 2, digits=None)
        ps = PointSet.build([(rng.choice((p.x, 0.0, -0.0)), p.y, p.color)
                             for p in ps.points], 2)
        del calls[:]
        xs, ys = cir22_candidates(ps)
        ref = np.array(_scalar_cir22(ps)).reshape(-1, 2)
        assert xs.tobytes() == ref[:, 0].tobytes()
        assert ys.tobytes() == ref[:, 1].tobytes()
        m = n * (n - 1) // 2
        assert sum(calls) == m * (m - 1) // 2
        blocks.append(list(calls))
    assert [len(b) for b in blocks] == [8, 5, 74, 1]
    # 36 bisectors in blocks of about 100 crossings: the last block's first
    # row has 9 later bisectors and asks for 11 rows, but 9 are left
    assert blocks[0] == [69, 96, 87, 78, 90, 90, 75, 45]


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


def test_center_eval_non_finite_center():
    ps = PointSet.build([(1, 0, 1), (3, 0, 1)], 1)
    assert best_annulus_at_center(ps, (0.0, 0.0)) is not None
    for center in ((math.inf, 0.0), (0.0, -math.inf), (math.nan, 0.0),
                   (0.0, math.nan)):
        assert best_annulus_at_center(ps, center) is None, center


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
        ws = _batch_widths(_columns(ps), cxs, cys, 1e-9)
        for t in range(60):
            ann = best_annulus_at_center(ps, (cxs[t], cys[t]))
            if ann is None:
                assert ws[t] == -math.inf
            else:
                assert ws[t] == pytest.approx(ann.width, abs=1e-9)


# A desk-scale instance with far cir22 centres near 2e15, where np.hypot
# and sqrt(dx*dx + dy*dy) give widths more than _FINALIST_SLACK apart.
# Scoring every centre by the sqrt form alone puts such a centre on top of
# the shortlist and answers None, where the exact answer is the ring
# centred near (0.133, -0.833).
FAR_CIR22 = PointSet.build([(0.4, -0.3, 1), (0.0, -0.7, 2), (0.5, -0.9, 2),
                            (1.0, 0.6, 1), (0.3, -0.5, 1), (0.8, 0.9, 1),
                            (-0.7, 0.6, 2), (0.7, 0.3, 1)], 2)
# The other way round: here the exact answer is a far cir22 centre near
# (5.2e15, 6.5e15), whose width 1.0 only rounding makes, and the sqrt form
# finds no usable gap there, so only the eps in max(w, eps) + e keeps that
# centre among those scored exactly.
FAR_TOP = PointSet.build([(0.1, -0.7, 2), (-0.9, 0.1, 1), (-0.9, 1.0, 1),
                          (0.1, 0.2, 2), (-0.0, -0.2, 1), (0.2, -0.8, 1)], 2)


def _screen_instances(rng, count):
    # tie-heavy integer and real instances, some scaled by 1e200 or
    # 2**-1000 (where rows that would overflow or underflow skip the
    # screen) or with coordinates replaced by +-0.0
    yield FAR_CIR22
    yield FAR_TOP
    for it in range(count):
        k = rng.randint(1, 3)
        n = rng.randint(2 * k, 10)
        if it % 3 == 0:
            ps = random_instance(rng, n, k, 0, rng.randint(3, 10))
        else:
            ps = random_real_instance(rng, n, k, digits=(1, 2, None)[it % 3])
        yield ps
        if it % 4 == 0:
            scale = (1e200, 2.0 ** -1000)[it // 4 % 2]
            yield PointSet.build([(p.x * scale, p.y * scale, p.color)
                                  for p in ps.points], k)
        if it % 8 == 1:
            yield PointSet.build([(rng.choice((0.0, -0.0, p.x)),
                                   rng.choice((0.0, -0.0, p.y)), p.color)
                                  for p in ps.points], k)


def _all_centres(ps):
    return circles._concat([point_center_candidates(ps), cir22_candidates(ps),
                            cir21_candidates(ps), far_field_candidates(ps)])


def test_screen_bounds_the_exact_score():
    # every candidate centre, far-field and far cir22 ones included: where
    # the screen runs, its width is within e of the exact one, with eps for
    # -inf; where it does not, e is inf
    rng = random.Random(431)
    far = both_inf = one_inf = unscreened = 0
    for ps in _screen_instances(rng, 60):
        xs, ys = _all_centres(ps)
        for eps in (DEFAULT_EPS, 0.0):
            w, e = _screen(_columns(ps), xs, ys, eps)
            exact = _batch_widths(_columns(ps), xs, ys, eps)
            screened = np.isfinite(e)
            unscreened += np.count_nonzero(~screened)
            assert np.all(w[~screened] == -np.inf)
            w, e, exact = w[screened], e[screened], exact[screened]
            up, up_x = np.maximum(w, eps), np.maximum(exact, eps)
            assert np.all(up_x <= up + e) and np.all(up <= up_x + e), ps.points
            lower = w - e > eps
            assert np.all(exact[lower] >= w[lower] - e[lower])
            finite = np.isfinite(w) & np.isfinite(exact)
            assert np.all(np.abs(w[finite] - exact[finite]) <= e[finite])
            far += np.count_nonzero(np.abs(up - up_x) > _FINALIST_SLACK)
            both_inf += np.count_nonzero(~np.isfinite(w) & ~np.isfinite(exact))
            one_inf += np.count_nonzero(np.isfinite(w) != np.isfinite(exact))
    # rows where the two formulas differ by more than the slack, rows
    # where one pass has no usable gap, and rows out of range all occur
    assert far > 0 and both_inf > 0 and one_inf > 0 and unscreened > 0


def test_screen_raises_no_warning_at_any_scale():
    rng = random.Random(432)
    for scale in (1e200, 1e100, 2.0 ** -1000, 2.0 ** -400, 1.0):
        ps = random_real_instance(rng, 9, 2, digits=None)
        ps = PointSet.build([(p.x * scale, p.y * scale, p.color)
                             for p in ps.points], 2)
        xs, ys = _all_centres(ps)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w, e = _screen(_columns(ps), xs, ys, DEFAULT_EPS)
        # rows that would overflow, or whose distances would underflow
        # (the centres on the points come first), are not screened
        if scale == 1e200:
            assert np.all(e == np.inf)
        elif scale == 2.0 ** -1000:
            assert np.all(e[:9] == np.inf)
        else:
            assert np.all(np.isfinite(e))


def _pick_best_every_row(ps, cxs, cys, eps):
    # _pick_best as it was before the screen: every centre scored exactly
    w = _batch_widths(_columns(ps), cxs, cys, eps)
    top = w.max()
    if not np.isfinite(top):
        return None
    best = key = None
    for idx in np.flatnonzero(w >= top - _FINALIST_SLACK):
        ann = best_annulus_at_center(ps, (cxs[idx], cys[idx]), eps)
        if ann is None:
            continue
        cand = (-ann.width, ann.center_x, ann.center_y)
        if key is None or cand < key:
            key, best = cand, ann
    return best


def test_screened_pick_matches_every_row_reference(monkeypatch):
    pick = circles._pick_best
    centres = []

    def both(ps, xs, ys, eps):
        got = pick(ps, xs, ys, eps)
        assert repr(got) == repr(_pick_best_every_row(ps, xs, ys, eps)), ps.points
        centres.append(len(xs))
        return got

    monkeypatch.setattr(circles, "_pick_best", both)
    rows = []
    monkeypatch.setattr(circles, "_batch_widths",
                        lambda cols, xs, ys, eps: rows.append(len(xs))
                        or _batch_widths(cols, xs, ys, eps))
    assert max_rbca(FAR_CIR22).center_x < 1.0
    assert max_rbca(FAR_TOP).center_x > 1e15
    rng = random.Random(433)
    for ps in _screen_instances(rng, 100):
        max_rbca(ps)
        mx = sum(p.x for p in ps.points) / len(ps.points)
        my = sum(p.y for p in ps.points) / len(ps.points)
        a, b = rng.uniform(-1, 1), rng.uniform(0.2, 1)
        max_rbca_on_line(ps, Line(a, b, a * mx + b * my))
    # the screened pick scores only its candidates exactly
    assert len(rows) == len(centres) == 2 * 140 + 2
    assert sum(rows) < sum(centres) / 4


def test_scores_do_not_depend_on_the_chunking(monkeypatch):
    # chunks share their distance buffers; a short last chunk reuses a
    # prefix of them, and no row keeps another chunk's distances
    rng = random.Random(435)
    ps = random_real_instance(rng, 9, 2, digits=None)
    xs, ys = _all_centres(ps)
    cols = _columns(ps)
    whole = [_batch_widths(cols, xs, ys, DEFAULT_EPS), _screen(cols, xs, ys, DEFAULT_EPS)]
    monkeypatch.setattr(circles, "_CHUNK", 9 * 8)
    chunked = [_batch_widths(cols, xs, ys, DEFAULT_EPS), _screen(cols, xs, ys, DEFAULT_EPS)]
    assert len(xs) % 8 and np.isfinite(whole[0]).sum() > 100
    assert np.array_equal(whole[0], chunked[0])
    assert all(np.array_equal(a, b) for a, b in zip(whole[1], chunked[1]))


def _cell_instances(rng, count):
    # the screen's instances, with every third desk-scale one also scaled
    # by 1e6 and moved by (1e7, -1e7)
    for it, ps in enumerate(_screen_instances(rng, count)):
        yield ps
        if it % 3 == 0 and max(max(abs(p.x), abs(p.y)) for p in ps.points) <= 10:
            yield PointSet.build([(p.x * 1e6 + 1e7, p.y * 1e6 - 1e7, p.color)
                                  for p in ps.points], ps.k)


def _cells_of(order, size):
    # the solver's cells of one level: runs of `size` positions of order,
    # the last one padded with its last member, and their middle centres
    first = np.arange(0, order.size, size)
    last = np.minimum(first + size, order.size) - 1
    members = order[np.minimum(first[:, None] + np.arange(size), last[:, None])]
    return members, order[(first + last) // 2]


def _below_the_constant(rx, ry, rho, k, box):
    # where k * (g - rho) < D in 60-digit decimals: D the diagonal of box,
    # g the distance from (rx, ry) to it, both exact to those digits
    x0, x1, y0, y1 = (Decimal(v) for v in box)
    out = []
    with localcontext() as ctx:
        ctx.prec = 60
        diag = ((x1 - x0) ** 2 + (y1 - y0) ** 2).sqrt()
        for x, y, r, kk in zip(rx.tolist(), ry.tolist(), rho.tolist(), k.tolist()):
            x, y = Decimal(x), Decimal(y)
            gx = max(x0 - x, x - x1, Decimal(0))
            gy = max(y0 - y, y - y1, Decimal(0))
            out.append(Decimal(kk) * ((gx * gx + gy * gy).sqrt() - Decimal(r)) < diag)
    return np.array(out, dtype=bool)


def test_cell_bound_covers_every_exact_score(monkeypatch):
    # _cell_bounds, from the screen at one centre, is above the exact score
    # of every member: on the solver's cells of every level, on random
    # groups that mix far and near centres, and on runs of the centres in
    # x, y order, where equal centres computed apart are an ulp or so away
    # and rounding, not distance, tells their scores apart.  It holds for
    # the screen's (w, e) and for the worst screen e allows, w = w_x - e.
    # Where a bound's constant K is below 2, K * (g - rho) is at least the
    # box diagonal in exact arithmetic.
    k_of = circles._lipschitz
    constants = []

    def spy(rx, ry, rho, box):
        constants.append((rx, ry, rho, k_of(rx, ry, rho, box)))
        return constants[-1][3]

    monkeypatch.setattr(circles, "_lipschitz", spy)
    rng = random.Random(434)
    cells = lipschitz = rounding = worst = below_two = 0
    for ps in _cell_instances(rng, 60):
        xs, ys = _all_centres(ps)
        cols = _columns(ps)
        box = cols.box
        order = circles._cell_order(xs, ys, box)
        groups = [_cells_of(order, size) for size in circles._CELLS]
        shuffled = np.array(rng.sample(range(len(xs)), len(xs)))
        members, _ = _cells_of(shuffled, 8)
        groups.append((members, members[:, 0]))
        by_xy = np.lexsort((ys, xs))
        groups += [_cells_of(by_xy, 2), _cells_of(by_xy, 8)]
        for eps in (DEFAULT_EPS, 0.0):
            exact = _batch_widths(cols, xs, ys, eps)
            w, e = _screen(cols, xs, ys, eps)
            worst_w = np.where(np.isfinite(exact) & np.isfinite(e), exact - e, w)
            exact = np.maximum(exact, eps)
            for members, rep in groups:
                top = exact[members].max(axis=1)
                for w0 in (w[rep], worst_w[rep]):
                    bound = circles._cell_bounds(xs, ys, members, rep, w0, e[rep],
                                                 eps, box)
                    assert np.all(top <= bound), ps.points
                cells += len(rep)
                # cells whose bound needs the distance term, cells whose
                # bound needs the screen's error term, cells where the
                # worst screen needs more than e and the distance term, and
                # cells whose bound used K < 2
                up = np.maximum(w[rep], eps)
                lipschitz += np.count_nonzero(top > up + 2.0 * e[rep])
                rounding += np.count_nonzero(top > up)
                # the distance term alone: the bound at w0 = e0 = eps = 0
                zero = np.zeros(len(rep))
                moved = circles._cell_bounds(xs, ys, members, rep, zero, zero, 0.0, box)
                up = np.maximum(worst_w[rep], eps) + e[rep]
                worst += np.count_nonzero(top > up + moved)
                below_two += np.count_nonzero(constants[-1][3] < 2.0)
        rows = np.unique(np.column_stack([np.concatenate(v) for v in zip(*constants)]),
                         axis=0)
        rows = rows[rows[:, 3] < 2.0]
        assert not np.any(_below_the_constant(*rows.T, box)), ps.points
        del constants[:]
    assert cells > 10_000 and lipschitz > 1_000 and rounding > 100 and worst > 10
    assert below_two > 10_000


def test_box_too_thin_for_the_grid():
    # at x = 1e12 the points' box, grown by its larger side (4e-5), still
    # rounds to zero width, so no grid fits it: the centres stay in input
    # order, where the grid's scale once divided by zero
    ps = PointSet.build([(1e12, 0.0, 1), (1e12, 1e-5, 2), (1e12, 3e-5, 1),
                         (1e12, 4e-5, 2)], 2)
    for ann, width in ((max_rbca(ps), 2e-5),
                       (max_rbca_on_line(ps, Line(1.0, 0.0, 1e12)), 2e-5),
                       (max_rbca_on_line(ps, Line(0.0, 1.0, 2e-5)), 1e-5)):
        assert ann.width == pytest.approx(width, rel=1e-6), ann
        assert validate_solution(ann, ps), ann


def test_pruned_pick_matches_every_row_reference(monkeypatch):
    # on instances large enough that whole cells are skipped, the pick is
    # the every-row pick, for both searches and three distributions
    pick, screen = circles._pick_best, circles._screen
    seen = {"rbca": [0, 0], "line": [0, 0]}
    rows = []

    def both(ps, xs, ys, eps):
        del rows[:]
        got = pick(ps, xs, ys, eps)
        assert repr(got) == repr(_pick_best_every_row(ps, xs, ys, eps)), ps.points
        seen[search][0] += len(xs)
        seen[search][1] += sum(rows)
        return got

    monkeypatch.setattr(circles, "_pick_best", both)
    monkeypatch.setattr(circles, "_screen",
                        lambda cols, xs, ys, eps: rows.append(len(xs))
                        or screen(cols, xs, ys, eps))
    for dist in ("rings", "uniform", "clusters"):
        for seed, n in enumerate((20, 26)):
            search = "rbca"
            assert max_rbca(generate_instance(n, 3, dist, seed)) is not None
        for seed, n in enumerate((40, 60)):
            search = "line"
            ps = generate_instance(n, 3, dist, seed)
            max_rbca_on_line(ps, Line(1.0, -1.0, 0.0))
            max_rbca_on_line(ps, Line(0.3, 1.0, 0.3 * ps.points[0].x + ps.points[0].y))
    # each search screens under half of its centres: the rest were skipped
    for centres, screened in seen.values():
        assert 0 < screened < centres / 2


def test_line_search_prunes_the_far_centres(monkeypatch):
    # on circle-line's instances (rings, n=160, centres on x - y = 0) most
    # centres lie outside the near box, and cells prune them too: under 2%
    # of the centres are screened, where screening every far centre took
    # about 5%
    pick, screen = circles._pick_best, circles._screen
    rows = {"centres": 0, "screened": 0}

    def picked(ps, xs, ys, eps):
        rows["centres"] += len(xs)
        return pick(ps, xs, ys, eps)

    def screened(cols, xs, ys, eps):
        rows["screened"] += len(xs)
        return screen(cols, xs, ys, eps)

    monkeypatch.setattr(circles, "_pick_best", picked)
    monkeypatch.setattr(circles, "_screen", screened)
    for seed in (100000, 100001):
        ps = generate_instance(160, 3, "rings", seed)
        assert max_rbca_on_line(ps, Line(1.0, -1.0, 0.0)) is not None
    assert rows["centres"] == 2 * 50886
    assert rows["screened"] < 0.02 * rows["centres"]


def test_on_line_centres_scale_exactly_at_large_magnitudes(monkeypatch):
    # the crossings on the line multiply three coordinates, which overflowed
    # from about 2^340; scaled by a power of two, every centre and the answer
    # are the desk-scale ones times the scale, with no warning
    pick = circles._pick_best
    centres = []
    monkeypatch.setattr(circles, "_pick_best",
                        lambda ps, xs, ys, eps: centres.append((xs, ys))
                        or pick(ps, xs, ys, eps))
    ps = generate_instance(9, 3, "uniform", 5)
    line = Line(1.0, -1.0, 0.0)
    base = max_rbca_on_line(ps, line)
    (bxs, bys), = centres
    assert base.width == pytest.approx(18.0899, abs=1e-4)
    for scale in (2.0 ** 400, 2.0 ** 530, 2.0 ** 600):
        del centres[:]
        big = PointSet.build([(p.x * scale, p.y * scale, p.color) for p in ps.points], 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ann = max_rbca_on_line(big, line)
        (xs, ys), = centres
        assert np.array_equal(xs, bxs * scale) and np.array_equal(ys, bys * scale)
        assert ann == CircularAnnulus(base.center_x * scale, base.center_y * scale,
                                      base.r_in * scale, base.r_out * scale)


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


def test_max_rbca_beats_local_ascent():
    # pattern search from random starts climbs to local maxima of the
    # width at a fixed center, which no candidate center may fall short of
    rng = random.Random(426)

    def width(c):
        ann = best_annulus_at_center(ps, c)
        return -math.inf if ann is None else ann.width

    for _ in range(40):
        k = rng.randint(1, 3)
        n = rng.randint(2 * k, 12)
        ps = random_instance(rng, n, k, lo=0, hi=30)
        ann = max_rbca(ps)
        best = -math.inf if ann is None else ann.width
        for _ in range(3):
            c = (rng.uniform(-10, 40), rng.uniform(-10, 40))
            w = width(c)
            step = 8.0
            for _ in range(500):
                if step < 1e-3:
                    break
                moves = [(c[0] + dx * step, c[1] + dy * step)
                         for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))]
                w_up, c_up = max((width(m), m) for m in moves)
                if w_up > w:
                    c, w = c_up, w_up
                else:
                    step /= 2
            assert w <= best + 1e-9, (ps.points, c, w, best)


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


def test_max_rbca_skips_overflowed_widths():
    # near the top of the float range some exact ring widths overflow to
    # inf; those rings are unusable, and the centres whose rings stay
    # finite still give a valid answer
    ps = generate_instance(14, 2, "uniform", 3)
    for scale in (1e305, 1e306):
        big = PointSet.build([(p.x * scale, p.y * scale, p.color)
                              for p in ps.points], 2)
        got = max_rbca(big)
        assert got is not None and math.isfinite(got.width), scale
        assert validate_solution(got, big), scale


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
