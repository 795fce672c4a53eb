import math
import random

import pytest

from conftest import random_instance, random_real_instance, rotate90

from rbannulus import (
    INF,
    PointSet,
    RectAnnulus,
    max_rbra,
    validate_solution,
)
from rbannulus.core import offset_square
from rbannulus.rect import (
    _band_split,
    anchor_ordering,
    dp_decision,
    max_anchored_rbra_for_top_point,
)
from rbannulus.oracle import oracle_rbra
from rbannulus.reference import (
    MinimalRainbowInterval,
    WGap,
    dp_decision_reference,
    max_rbra_reference,
    minimal_rainbow_intervals,
    relevant_w_gaps,
)


def brute_decision(ps, i, j, w):
    """Exhaustive width-w check over snapped outer sides.  Any uniform ring
    has an equivalent witness with L on the coordinate grid (or -inf) and R
    on the grid, grid + w, grid + 2w, or L + 2w (or +inf)."""
    pts = anchor_ordering(ps)
    T, x_i = pts[i].y, pts[i].x
    if j is None:
        B, x_j = -INF, None
    else:
        B, x_j = pts[j].y, pts[j].x
    xs = sorted({p.x for p in ps.points})
    Ls = [-INF] + xs
    lo_anchor = x_i if x_j is None else min(x_i, x_j)
    hi_anchor = x_i if x_j is None else max(x_i, x_j)
    for L in Ls:
        if L > lo_anchor:
            continue
        Rs = {INF, L + 2 * w}
        Rs.update(xs)
        Rs.update(x + w for x in xs)
        Rs.update(x + 2 * w for x in xs)
        for R in Rs:
            if R < hi_anchor or R - L < 2 * w:
                continue
            outer = (L, R, B, T)
            ann = RectAnnulus(*outer, *offset_square(outer, w), w)
            if validate_solution(ann, ps):
                return True
    return False


def brute_top_anchored_width(ps, i, eps=1e-9):
    """Best uniform width over snapped outers whose top passes through point
    i of the descending-y order."""
    pts = anchor_ordering(ps)
    T, x_i = pts[i].y, pts[i].x
    allp = ps.points
    k = ps.k
    xc = [-INF] + sorted({p.x for p in allp}) + [INF]
    yc = [-INF] + sorted({p.y for p in allp if p.y < T})
    best = None
    for L in xc:
        if L > x_i:
            continue
        for R in xc:
            if R <= L or R < x_i:
                continue
            for B in yc:
                inner = [p for p in allp if L < p.x < R and B < p.y < T]
                if not inner or len(inner) == len(allp):
                    continue
                if len({p.color for p in inner}) != k:
                    continue
                picked = set(map(id, inner))
                if len({p.color for p in allp if id(p) not in picked}) != k:
                    continue
                il = min(p.x for p in inner)
                ir = max(p.x for p in inner)
                ib = min(p.y for p in inner)
                it = max(p.y for p in inner)
                w = min(il - L, R - ir, ib - B, T - it)
                if w > eps and (best is None or w > best):
                    best = w
    return best


def sample_widths(ps, i, j, rng):
    pts = anchor_ordering(ps)
    T = pts[i].y
    below = sorted({T - p.y for p in ps.points if p.y < T})
    if not below:
        return []
    out = set()
    for _ in range(3):
        w = rng.choice(below)
        out.add(w)
        out.add(w / 2)
        out.add(w + 0.5)
    return [w for w in out if w > 0]


def anchor_pairs(ps, rng, rounds):
    pts = anchor_ordering(ps)
    n = len(pts)
    out = []
    for _ in range(rounds):
        i = rng.randrange(n)
        js = [None] + [j for j in range(i + 2, n)]
        out.append((i, rng.choice(js)))
    return out


# ---------------------------------------------------------------------------
# decision op


def test_dp_rejects_shallow_outer():
    ps = PointSet.build([(0, 10, 1), (5, 5, 1), (0, 0, 1)], 1)
    out = dp_decision(ps, 0, 2, 6.0)
    assert out.feasible is False and out.witness is None


def test_dp_accepts_exact_double_width():
    # outer height exactly 2w, the middle point rides both inner sides
    ps = PointSet.build([(0, 10, 1), (5, 5, 1), (0, 0, 1)], 1)
    out = dp_decision(ps, 0, 2, 5.0)
    assert out.feasible
    ann = out.witness
    assert ann.width == 5.0
    assert ann.outer_top == 10.0 and ann.outer_bottom == 0.0
    assert validate_solution(ann, ps)


def test_dp_feasible_witness_shape():
    ps = PointSet.build(
        [(0, 5, 1), (0, 0, 1), (1, 0, 2), (0, -5, 2)], 2)
    out = dp_decision(ps, 0, 3, 2.0)
    assert out.feasible
    ann = out.witness
    assert ann.width == 2.0
    assert ann.outer_top == 5.0 and ann.outer_bottom == -5.0
    assert ann.outer_left <= 0.0 <= ann.outer_right
    assert validate_solution(ann, ps)
    # uniform ring: inner box is the outer box pulled in by w
    assert ann.inner_sides == offset_square(ann.outer_sides, ann.width)


def test_dp_open_bottom():
    ps = PointSet.build(
        [(0, 5, 1), (0, 0, 1), (1, 0, 2), (8, 20, 2)], 2)
    out = dp_decision(ps, 1, None, 2.0)
    # anchor index 1 is the point at y = 5 after ordering
    assert anchor_ordering(ps)[1].y == 5.0
    assert out.feasible
    assert out.witness.outer_bottom == -INF
    assert validate_solution(out.witness, ps)
    also = dp_decision(ps, 1, math.inf, 2.0)
    assert also == out


def test_dp_argument_validation():
    ps = PointSet.build([(0, 3, 1), (1, 2, 1), (2, 1, 1), (3, 0, 1)], 1)
    with pytest.raises(ValueError):
        dp_decision(ps, -1, None, 1.0)
    with pytest.raises(ValueError):
        dp_decision(ps, 4, None, 1.0)
    with pytest.raises(ValueError):
        dp_decision(ps, 0, 1, 1.0)  # needs i + 1 < j
    with pytest.raises(ValueError):
        dp_decision(ps, 0, 4, 1.0)
    with pytest.raises(ValueError):
        dp_decision(ps, 0, 3, 0.0)
    with pytest.raises(ValueError):
        dp_decision(ps, 0, 3, math.inf)
    for i in (0.0, True):
        with pytest.raises(ValueError, match="top anchor index must be an integer"):
            dp_decision(ps, i, None, 1.0)
    with pytest.raises(ValueError, match="bottom anchor must be an index"):
        dp_decision(ps, 0, "3", 1.0)
    with pytest.raises(ValueError, match="positive finite"):
        dp_decision(ps, 0, 3, "1.0")


def test_dp_matches_brute_random():
    rng = random.Random(401)
    for _ in range(60):
        n = rng.randint(4, 9)
        k = rng.randint(1, min(3, n // 2))
        ps = random_instance(rng, n, k, lo=0, hi=12)
        for i, j in anchor_pairs(ps, rng, 2):
            for w in sample_widths(ps, i, j, rng):
                out = dp_decision(ps, i, j, w)
                assert out.feasible == brute_decision(ps, i, j, w), (
                    ps.points, i, j, w)
                if out.feasible:
                    ann = out.witness
                    assert ann.width == w
                    assert validate_solution(ann, ps)
                    pts = anchor_ordering(ps)
                    assert ann.outer_top == pts[i].y
                    assert ann.outer_left <= pts[i].x <= ann.outer_right
                    if j is not None:
                        assert ann.outer_bottom == pts[j].y
                        assert ann.outer_left <= pts[j].x <= ann.outer_right


@pytest.mark.parametrize("kcap", [3, 10])
def test_dp_fast_equals_dp_random(kcap):
    rng = random.Random(402)
    for _ in range(70):
        n = rng.randint(4, 11)
        k = rng.randint(1, min(kcap, n // 2))
        ps = random_instance(rng, n, k, lo=0, hi=10)  # many ties
        for i, j in anchor_pairs(ps, rng, 2):
            for w in sample_widths(ps, i, j, rng):
                ref = dp_decision_reference(ps, i, j, w)
                fast = dp_decision(ps, i, j, w)
                assert ref == fast, (ps.points, i, j, w)


def test_fast_decision_keeps_a_rounded_gap():
    # the gap (-0.36, -0.2) holds an arm of width 0.16 when the test is
    # gl <= gr - w, although gr - gl rounds to 0.15999999999999998
    ps = PointSet.build([(-0.19384609, -0.48, 1), (-0.36, -0.5, 1),
                         (0.851602061, -0.1, 2), (0.27, -0.91, 2),
                         (0.51, 0.32271988, 2), (-0.2, -0.45, 1),
                         (0.43, 0.06, 2), (0.7, -0.5, 2)], 2)
    assert repr(max_rbra(ps)) == repr(max_rbra_reference(ps))
    xy = [(p.x, p.y) for p in anchor_ordering(ps)]
    i, j = xy.index((0.43, 0.06)), xy.index((0.27, -0.91))
    for bottom in (j, None):
        ref = dp_decision_reference(ps, i, bottom, 0.16)
        assert ref.feasible
        assert dp_decision(ps, i, bottom, 0.16) == ref


def _band_split_by_rule(bxs, bcs, m, M, w, k):
    # _band_split's rule over the whole band at once; an extreme is the
    # first value met that equals it, so its sign of zero comes from there
    def first(xs, pick, default):
        return next((x for x in xs if x == pick(xs, default=default)), default)

    if any(m < x < M for x in bxs):
        return None
    seen = [False] * (k + 1)
    for c in bcs:
        seen[c] = True
    if m == M and m in bxs:
        branches = [(m, first([x for x in bxs if x > M], min, INF)),
                    (first([x for x in bxs if x < m], max, -INF), M)]
    else:
        branches = [(first([x for x in bxs if x <= m], max, -INF),
                     first([x for x in bxs if x >= M], min, INF))]
    # lo <= m and hi >= M hold for every branch formed above; the rule
    # keeps them so that agreement shows they never drop one
    return seen, [(lo, hi) for lo, hi in branches
                  if lo <= m and hi >= M and hi - lo >= 2.0 * w]


def test_band_split_follows_its_rule():
    # the plain walk shares _band_split with the solver, so their agreement
    # cannot catch a fault in it: check it against the rule itself on bands
    # with repeated values, signed zeros and points on m, on M and on m == M
    rng = random.Random(414)
    pool = (-0.0, 0.0, 1.0, -1.0, 2.0, 0.5, -2.5, 3.0)
    seen = {"none": 0, "two": 0, "dropped": 0}
    for _ in range(3000):
        a = rng.choice(pool)
        b = a if rng.random() < 0.4 else rng.choice(pool)
        m, M = (a, b) if a <= b else (b, a)
        k = rng.randint(1, 4)
        bxs = [rng.choice(pool + (m, M, m, M)) for _ in range(rng.randint(0, 8))]
        bcs = [rng.randint(1, k) for _ in bxs]
        w = rng.choice((0.25, 0.5, 1.0, 1.5, 2.5))
        want = _band_split_by_rule(bxs, bcs, m, M, w, k)
        got = _band_split(bxs, bcs, m, M, w, k)
        assert repr(got) == repr(want), (bxs, bcs, m, M, w)
        if want is None:
            seen["none"] += 1
        elif m == M and m in bxs and len(want[1]) == 2:
            seen["two"] += 1
        elif not want[1]:
            seen["dropped"] += 1
    assert min(seen.values()) > 100, seen


def test_dp_monotone_in_width():
    rng = random.Random(403)
    for _ in range(40):
        n = rng.randint(4, 9)
        k = rng.randint(1, min(3, n // 2))
        ps = random_instance(rng, n, k, lo=0, hi=12)
        for i, j in anchor_pairs(ps, rng, 2):
            ws = sorted(sample_widths(ps, i, j, rng))
            feas = [dp_decision(ps, i, j, w).feasible for w in ws]
            # once infeasible, larger widths stay infeasible
            for a in range(len(ws) - 1):
                if not feas[a]:
                    assert not any(feas[a + 1:]), (ps.points, i, j, ws)
                    break


# ---------------------------------------------------------------------------
# minimal rainbow intervals


def make_slab(slab, k):
    """slab: list of (x, color) placed on y = 0 between anchors at y = +-10.
    Sentinels on the anchor levels keep every color populated without
    entering the slab.  Returns (pointset, i, j) for the spanning pair."""
    pts = [(0.0, 10.0, 1)]
    pts += [(1000.0 + c, 10.0, c) for c in range(1, k + 1)]
    pts += [(x, 0.0, c) for x, c in slab]
    pts += [(0.0, -10.0, 1)]
    pts += [(1000.0 + c, -10.0, c) for c in range(1, k + 1)]
    ps = PointSet.build(pts, k)
    return ps, 0, k + 1 + len(slab)


def brute_fixpoints(slab, k, lp, rp):
    colxs = {c: sorted(x for x, cc in slab if cc == c) for c in range(1, k + 1)}
    if any(not v for v in colxs.values()) or not lp or not rp:
        return []
    lp = sorted(set(lp))
    rp = sorted(set(rp))

    def r(a):
        need = []
        for c in range(1, k + 1):
            nxt = [x for x in colxs[c] if x >= a]
            if not nxt:
                return None
            need.append(nxt[0])
        cand = [b for b in rp if b >= max(need)]
        return cand[0] if cand else None

    def l(b):
        need = []
        for c in range(1, k + 1):
            prv = [x for x in colxs[c] if x <= b]
            if not prv:
                return None
            need.append(prv[-1])
        cand = [a for a in lp if a <= min(need)]
        return cand[-1] if cand else None

    out = []
    for a in lp:
        b = r(a)
        if b is not None and l(b) == a:
            out.append((a, b))
    return sorted(set(out))


def test_intervals_single_left_candidate():
    ps, i, j = make_slab([(2, 1), (5, 1), (9, 1)], 1)
    got = minimal_rainbow_intervals(ps, i, j, [2], [5, 9])
    assert [(iv.a, iv.b) for iv in got] == [(2.0, 5.0)]
    assert got[0].color_counter == {1: 2}


def test_intervals_left_end_tightens():
    ps, i, j = make_slab([(2, 1), (3, 1), (5, 1), (9, 1)], 1)
    got = minimal_rainbow_intervals(ps, i, j, [2, 3], [5, 9])
    assert [(iv.a, iv.b) for iv in got] == [(3.0, 5.0)]


def test_intervals_three_colors_chain():
    slab = [(1, 1), (2, 2), (3, 1), (4, 3), (5, 2), (6, 1), (7, 3)]
    ps, i, j = make_slab(slab, 3)
    got = minimal_rainbow_intervals(ps, i, j, [1, 2, 3], [4, 5, 6, 7])
    assert [(iv.a, iv.b) for iv in got] == [(2.0, 4.0), (3.0, 5.0)]
    assert got[0].color_counter == {1: 1, 2: 1, 3: 1}


def test_intervals_missing_color_empty():
    # color 2 lives only on the anchors, never inside the slab
    slab = [(1, 1), (3, 1), (5, 1)]
    ps2 = PointSet.build(
        [(0.0, 10.0, 2)] + [(x, 0.0, c) for x, c in slab] + [(0.0, -10.0, 2)], 2)
    assert minimal_rainbow_intervals(ps2, 0, len(slab) + 1, [1, 3], [3, 5]) == []


def test_intervals_match_brute_fixpoints():
    rng = random.Random(407)
    for _ in range(120):
        k = rng.randint(1, 4)
        s = rng.randint(k, 10)
        slab = [(rng.randint(0, 15), rng.randint(1, k)) for _ in range(s)]
        for c in range(1, k + 1):  # keep every color present most of the time
            if rng.random() < 0.9:
                slab.append((rng.randint(0, 15), c))
        xs = sorted({x for x, _ in slab})
        lp = sorted(rng.sample(xs, rng.randint(1, len(xs))))
        rp = sorted(rng.sample(xs, rng.randint(1, len(xs))))
        ps, i, j = make_slab(slab, k)
        got = minimal_rainbow_intervals(ps, i, j, lp, rp)
        want = brute_fixpoints(slab, k, lp, rp)
        assert [(iv.a, iv.b) for iv in got] == want, (slab, lp, rp)
        for iv in got:
            for c in range(1, k + 1):
                assert iv.color_counter[c] == sum(
                    1 for x, cc in slab if cc == c and iv.a <= x <= iv.b)


def test_intervals_zoned_pool_properties():
    rng = random.Random(408)
    for _ in range(80):
        k = rng.randint(1, 4)
        s = rng.randint(3 * k, 26)
        xs = sorted(rng.uniform(0, 100) for _ in range(s))
        colors = [rng.randint(1, k) for _ in xs]
        for c in range(1, k + 1):
            colors[rng.randrange(s)] = c
        slab = list(zip(xs, colors))
        q_lo = xs[int(0.35 * s)]
        q_hi = xs[int(0.65 * s)]
        lp = [x for x in xs if x <= q_lo]
        rp = [x for x in xs if x >= q_hi]
        if not lp or not rp:
            continue
        ps, i, j = make_slab(slab, k)
        got = minimal_rainbow_intervals(ps, i, j, lp, rp)
        assert len(got) <= k
        color_at = dict(slab)
        seen_a = set()
        seen_b = set()
        for t in range(len(got)):
            assert got[t].a <= q_lo <= q_hi <= got[t].b
            seen_a.add(color_at[got[t].a])
            seen_b.add(color_at[got[t].b])
            if t:
                # strictly ordered, never nested
                assert got[t - 1].a < got[t].a and got[t - 1].b < got[t].b
                # and overlapping (they all straddle the pool zones)
                assert got[t].a < got[t - 1].b
        assert len(seen_a) == len(got)
        assert len(seen_b) == len(got)


def test_relevant_w_gaps_selection():
    intervals = [
        MinimalRainbowInterval(2.0, 4.0, {1: 1}),
        MinimalRainbowInterval(3.0, 5.0, {1: 1}),
    ]
    lgaps = [WGap(-INF, 1.5), WGap(1.8, 2.0), WGap(2.5, 2.9)]
    rgaps = [WGap(4.0, 6.0), WGap(5.5, 7.0), WGap(9.0, INF)]
    got = relevant_w_gaps(intervals, lgaps, rgaps)
    assert got == [WGap(1.8, 2.0), WGap(4.0, 6.0), WGap(2.5, 2.9), WGap(5.5, 7.0)]
    assert len(got) <= 2 * len(intervals)


def test_relevant_w_gaps_no_candidates():
    intervals = [MinimalRainbowInterval(2.0, 4.0, {1: 1})]
    assert relevant_w_gaps(intervals, [WGap(2.5, 3.0)], [WGap(1.0, 2.0)]) == []


# ---------------------------------------------------------------------------
# anchored maxima


def test_top_anchored_simple_ring():
    ps = PointSet.build(
        [(0, 5, 1), (0, 0, 1), (1, 0, 2), (0, -5, 2)], 2)
    ann = max_anchored_rbra_for_top_point(ps, 0)
    assert ann is not None
    assert ann.outer_top == 5.0
    assert validate_solution(ann, ps)
    assert ann.width == brute_top_anchored_width(ps, 0)


def test_top_anchored_bottom_point_none():
    ps = PointSet.build([(0, 5, 1), (1, 3, 1), (2, 0, 1)], 1)
    n = len(ps.points)
    assert max_anchored_rbra_for_top_point(ps, n - 1) is None


def test_top_anchored_matches_brute():
    # the walk tries widths from the descending level differences under the
    # anchor, so it reports the largest such width not above the true
    # anchored optimum (the optimum itself may be pinned horizontally and
    # only becomes a level difference in a rotated frame)
    rng = random.Random(409)
    for _ in range(40):
        n = rng.randint(4, 9)
        k = rng.randint(1, min(3, n // 2))
        ps = random_instance(rng, n, k, lo=0, hi=12)
        i = rng.randrange(n)
        ann = max_anchored_rbra_for_top_point(ps, i)
        want = brute_top_anchored_width(ps, i)
        pts = anchor_ordering(ps)
        grid = {pts[i].y - p.y for p in ps.points if p.y < pts[i].y}
        best = max((w for w in grid if want is not None and w <= want),
                   default=None)
        if best is None:
            assert ann is None, (ps.points, i)
        else:
            assert ann is not None and ann.width == best, (ps.points, i)
            assert ann.outer_top == pts[i].y
            assert validate_solution(ann, ps)


def test_max_rbra_matches_oracle():
    rng = random.Random(410)
    for _ in range(60):
        n = rng.randint(4, 10)
        k = rng.randint(1, min(3, n // 2))
        ps = random_instance(rng, n, k, lo=0, hi=14)
        want = oracle_rbra(ps)
        got = max_rbra(ps)
        if want is None:
            assert got is None, ps.points
        else:
            assert got is not None, ps.points
            assert got.width == want.width, (ps.points, got, want)
            assert validate_solution(got, ps)
            assert got.inner_sides == offset_square(got.outer_sides, got.width)


@pytest.mark.xfail(strict=True, reason="the decision recomputes the inner top "
                   "as T - w, which lands below the level that gave w")
def test_max_rbra_matches_oracle_on_decimal_coordinates():
    # the oracle's vertical strip (-0.8, 0.4) has width 1.2000000000000002;
    # in the frame where 0.4 is the outer top, T - w = -0.8000000000000002
    # puts the point at -0.8 strictly inside the ring
    ps = PointSet.build([(0.9, -0.1, 2), (-0.8, -0.6, 1), (-0.9, 0.0, 2),
                         (0.4, -0.5, 1)], 2)
    want = oracle_rbra(ps).width
    assert max_rbra(ps).width == want
    assert max_rbra_reference(ps).width == want


@pytest.mark.parametrize("kcap", [3, 10])
def test_max_rbra_fast_equals_slow(kcap):
    rng = random.Random(411)
    for _ in range(54):
        n = rng.randint(4, 22)
        k = rng.randint(1, min(kcap, n // 2))
        kind = rng.randrange(3)
        if kind == 0:
            ps = random_instance(rng, n, k, lo=0, hi=15)
        elif kind == 1:
            # one-decimal coordinates: gap ends and widths round
            ps = random_real_instance(rng, n, k, digits=1)
        else:
            colors = [c for c in range(1, k + 1) for _ in (0, 1)]
            colors += [rng.randint(1, k) for _ in range(n - len(colors))]
            pts = [(rng.uniform(0, 50), rng.uniform(0, 50), c) for c in colors]
            ps = PointSet.build(pts, k)
        slow = max_rbra_reference(ps)
        fast = max_rbra(ps)
        if slow is None:
            assert fast is None, ps.points
        else:
            assert fast == slow, (ps.points, slow, fast)
            assert validate_solution(fast, ps)


def test_max_rbra_collinear_halfplane():
    ps = PointSet.build([(0, 0, 1), (1, 0, 2), (4, 0, 1), (5, 0, 2)], 2)
    ann = max_rbra(ps)
    assert ann is not None and ann.width == 3.0
    assert validate_solution(ann, ps)
    assert INF in (abs(s) for s in ann.outer_sides)
    assert max_rbra_reference(ps) == ann
    want = oracle_rbra(ps)
    assert want.width == 3.0


def test_max_rbra_rotation_invariant_width():
    rng = random.Random(412)
    for _ in range(25):
        n = rng.randint(4, 9)
        k = rng.randint(1, min(3, n // 2))
        ps = random_instance(rng, n, k, lo=0, hi=12)
        a = max_rbra(ps)
        b = max_rbra(rotate90(ps))
        if a is None:
            assert b is None
        else:
            assert b is not None and b.width == a.width


def test_max_rbra_width_invariant_under_color_relabelling():
    # k up to 8 reaches the frame's color-grouped lists; tied witnesses may
    # differ under a relabelling, since the frame breaks ties by color, so
    # only the widths must be equal
    rng = random.Random(413)
    for it in range(60):
        n = rng.randint(4, 18)
        k = rng.randint(1, min(8, n // 2))
        kind = it % 3
        if kind == 0:
            ps = random_instance(rng, n, k, lo=0, hi=12)
        elif kind == 1:
            ps = random_real_instance(rng, n, k, digits=1)
        else:
            picks = (-0.0, 0.0, 1.0, 2.0, -3.0)
            ps = PointSet.build([(rng.choice(picks), rng.choice(picks), p.color)
                                 for p in random_instance(rng, n, k).points], k)
        relabel = rng.sample(range(1, k + 1), k)
        image = PointSet.build([(p.x, p.y, relabel[p.color - 1]) for p in ps.points], k)
        a, b = max_rbra(ps), max_rbra(image)
        assert (a is None) == (b is None), (ps.points, relabel)
        if a is not None:
            assert b.width == a.width, (ps.points, relabel)
            assert validate_solution(a, ps) and validate_solution(b, image)


def test_max_rbra_degenerate():
    # coincident points: any separating ring has zero width
    ps = PointSet.build([(0, 0, 1), (0, 0, 1)], 1)
    assert max_rbra(ps) is None
    assert max_rbra_reference(ps) is None
    ps2 = PointSet.build([(0, 0, 1), (3, 4, 1)], 1)
    ann = max_rbra(ps2)
    assert ann is not None and validate_solution(ann, ps2)
    assert ann.width == 4.0  # horizontal or vertical strip between them
    assert max_rbra_reference(ps2) == ann
