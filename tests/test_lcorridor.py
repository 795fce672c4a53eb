import math
import random
from bisect import bisect_left, bisect_right

import numpy as np
import pytest

from conftest import random_instance, random_real_instance, reflect_x, rotate90

from rbannulus import (DEFAULT_EPS, INF, L_ORIENTATIONS, PointSet, lcorridor,
                       validate_solution)
from rbannulus.core import QUADRANT_SIGNS
from rbannulus.lcorridor import (GapTree, MaxCoordTree, _lower_breaks, max_rblc,
                                 max_rblc_all)
from rbannulus.oracle import oracle_rblc
from rbannulus.reference import _upper_breaks, _sweep as reference_sweep


def diag_instance():
    return PointSet.build([(1, 1, 1), (2, 2, 2), (3, 3, 1), (4, 4, 2)], 2)


def staircases(ps):
    """(lower, upper) breakpoint lists, built as the down-right sweep does."""
    tp = [(p.x, p.y, p.color) for p in ps.points]
    by_y = sorted(tp, key=lambda p: (p[1], p[0]))
    return _lower_breaks(by_y, ps.k), _upper_breaks(tp, ps.k)


def inner_x(lower, t):
    """Rightmost inner-corner x at height t; the sweep reads the lower
    chain closed (corner heights <= t)."""
    ts, vs = lower
    cut = bisect_right(ts, t)
    return vs[cut - 1] if cut else -INF


def outer_x(upper, t):
    """Leftmost outer-corner x at outer-top height t; the sweep reads the
    upper chain strict (corner heights < t)."""
    ts, vs = upper
    cut = bisect_left(ts, t)
    return vs[cut - 1] if cut else -INF


def test_lower_staircase_on_diagonal_instance():
    lower, _ = staircases(diag_instance())
    assert lower == ([2.0, 3.0, 4.0], [1.0, 2.0, 3.0])


def test_upper_staircase_on_diagonal_instance():
    _, upper = staircases(diag_instance())
    # color 1 tops out at y=3 reaching left to x=1, color 2 at y=4, x=2
    assert upper == ([3.0, 4.0], [1.0, 2.0])


def test_single_color_staircase():
    ps = PointSet.build([(1, 1, 1), (2, 2, 1)], 1)
    lower, upper = staircases(ps)
    assert lower == ([1.0, 2.0], [1.0, 2.0])
    assert upper == ([2.0], [1.0])


def test_rainbow_range_query_values():
    lower, upper = staircases(diag_instance())
    assert outer_x(upper, 4.0) == 1.0  # the corner at y=4 itself is not hit
    assert inner_x(lower, 4.0) == 3.0
    assert outer_x(upper, 2.5) == -INF  # below every upper corner: no constraint
    assert inner_x(lower, 1.5) == -INF  # inside quadrant cannot be rainbow this low


def test_staircase_corners_are_tight():
    rng = random.Random(41)
    for _ in range(60):
        k = rng.randint(1, 3)
        n = rng.randint(2 * k, 12)
        ps = random_instance(rng, n, k, 0, 10)
        lower, upper = staircases(ps)

        def quad_rainbow(cx, cy):
            colors = {p.color for p in ps.points if p.x >= cx and p.y <= cy}
            return len(colors) == ps.k

        for cy, cx in zip(*lower):
            assert quad_rainbow(cx, cy)
            assert not quad_rainbow(cx + 0.5, cy)
            assert not quad_rainbow(cx, cy - 0.5)

        def covered(lx, ty):
            # every color reaches the left arm or the top half-plane
            return all(
                any(p.color == c and (p.x <= lx or p.y >= ty) for p in ps.points)
                for c in range(1, ps.k + 1)
            )

        for cy, cx in zip(*upper):
            t = cy + 0.5
            assert outer_x(upper, t) >= cx
            assert covered(outer_x(upper, t), t)
            assert not covered(cx - 0.5, t)
            # exactly at the corner height the color still reaches the top
            assert covered(outer_x(upper, cy), cy)


def naive_gap(active_sorted, lo, hi):
    walls = [lo] + [x for x in active_sorted if lo < x < hi] + [hi]
    best = (walls[1] - walls[0], walls[0], walls[1])
    for a, b in zip(walls, walls[1:]):
        if b - a > best[0]:
            best = (b - a, a, b)
    return best


def test_gap_tree_matches_naive_reference():
    rng = random.Random(7)
    checked = 0
    for _ in range(28):
        universe = sorted({rng.randint(0, 60) for _ in range(rng.randint(1, 40))})
        tree = GapTree(universe)
        active = []
        order = universe[:]
        rng.shuffle(order)
        for x in order:
            tree.insert(x)
            tree.insert(x)  # re-activation must be a no-op
            active.append(x)
            active.sort()
            for _ in range(25):
                lo = -INF if rng.random() < 0.15 else rng.uniform(-5, 65)
                hi = INF if rng.random() < 0.15 else rng.uniform(-5, 65)
                if hi < lo:
                    lo, hi = hi, lo
                assert tree.query(lo, hi) == naive_gap(active, lo, hi)
                checked += 1
    assert checked >= 10_000


def test_gap_tree_floor_contract():
    # Under nondecreasing insert floors a query answer longer than the
    # last floor is the exact one, and any other answer is no longer than
    # that floor; the floor may rise between inserts, and the claim then
    # holds for the raised one too.  The queries reach past the hull on
    # both sides.
    rng = random.Random(15)
    checked = skipped = 0
    for trial in range(60):
        if trial % 2:
            universe = sorted({rng.randint(0, 60) for _ in range(rng.randint(1, 40))})
        else:
            universe = sorted({round(rng.uniform(-1, 1), rng.choice((1, 2, 17)))
                               for _ in range(rng.randint(1, 40))})
        tree = GapTree(universe)
        active = {}  # value -> the sign of zero inserted first
        order = universe[:]
        rng.shuffle(order)
        span = universe[-1] - universe[0]
        floor = -INF
        for x in order:
            if x == 0 and rng.random() < 0.5:
                x = -x
            if rng.random() < 0.4:
                floor = max(floor, rng.uniform(0, span / 3))
            tree.insert(x, floor)
            active.setdefault(x, x)
            leaf = tree._mn[bisect_left(tree._xs, x) + tree._size]
            skipped += leaf == INF
            walls = sorted(active.values())
            # root() gives the exact hull, and the exact widest inner gap
            # whenever either one is longer than the floor
            mn, mx, widest = tree.root()
            assert (mn, mx) == (walls[0], walls[-1]), (universe, x)
            exact = max((b - a for a, b in zip(walls, walls[1:])), default=-INF)
            if widest > floor or exact > floor:
                assert widest == exact, (universe, x, floor)
            for _ in range(12):
                lo, hi = (universe[0] + rng.uniform(-0.2, 1.2) * span for _ in "lh")
                lo = -INF if rng.random() < 0.1 else lo
                hi = INF if rng.random() < 0.1 else hi
                if hi < lo:
                    lo, hi = hi, lo
                if rng.random() < 0.2:
                    floor = max(floor, rng.uniform(0, span / 3))
                got = tree.query(lo, hi)
                want = naive_gap(walls, lo, hi)
                if got[0] > floor or want[0] > floor:
                    assert repr(got) == repr(want), (universe, lo, hi, floor)
                else:
                    assert got[0] <= floor
                checked += 1
    assert checked >= 10_000
    assert skipped >= 100  # the floor did skip inserts


def test_sweep_floor_changes_no_answer(monkeypatch):
    # Tie-heavy, repeated and signed-zero instances give the same answer,
    # down to the sign of a zero, when the GapTree ignores the floor.
    rng = random.Random(151)
    instances = [PointSet.build([(0.0, 0.0, 1), (-0.0, 2.0, 1), (3.0, 1.0, 1)], 1)]
    for i in range(150):
        k = rng.randint(1, 3)
        n = rng.randint(2 * k, 60 if i % 5 == 0 else 14)
        if i % 3 == 0:
            ps = random_instance(rng, n, k, 0, 6)
        elif i % 3 == 1:
            pick = (-0.0, 0.0, 1.0, 2.0, -3.0)
            ps = random_instance(rng, n, k)
            ps = PointSet.build([(rng.choice(pick), rng.choice(pick), p.color)
                                 for p in ps.points], k)
        else:
            ps = random_real_instance(rng, n, k, digits=1)
        if rng.random() < 0.3:
            ps = PointSet.build(ps.points + ps.points[: rng.randint(1, n)], k)
        instances.append(ps)

    insert = GapTree.insert
    skipped = [0]

    def counting_insert(self, x, floor=-INF):
        insert(self, x, floor)
        skipped[0] += self._mn[bisect_left(self._xs, x) + self._size] == INF

    monkeypatch.setattr(GapTree, "insert", counting_insert)
    with_floor = [repr(max_rblc_all(ps, eps))
                  for ps in instances for eps in (1e-9, 0.0)]
    assert skipped[0] > 0
    monkeypatch.setattr(GapTree, "insert", lambda self, x, floor=-INF: insert(self, x))
    assert with_floor == [repr(max_rblc_all(ps, eps))
                          for ps in instances for eps in (1e-9, 0.0)]
    assert with_floor[0] == (
        "LCorridor(orientation='down-right', corner_x=-0.0, corner_y=4.0, width=3.0)")


def test_bad_orientation_is_rejected():
    with pytest.raises(ValueError, match="bad orientation"):
        max_rblc(diag_instance(), "sideways")


def test_gap_tree_reinsert_keeps_first_zero():
    # 0.0 and -0.0 are one universe value; the sign activated first stays,
    # so a corridor side read from the tree keeps its input's sign
    tree = GapTree([-1.0, 0.0, 1.0])
    tree.insert(0.0)
    tree.insert(-0.0)
    assert math.copysign(1.0, tree.query(-0.5, 0.5)[2]) == 1.0


def test_max_xgap_examples():
    tree = GapTree([0, 2, 7, 9])
    for x in (0, 2, 7, 9):
        tree.insert(x)
    assert tree.query(0, 9) == (5, 2, 7)
    assert tree.query(0, 5) == (3, 2, 5)
    assert tree.query(3, 6) == (3, 3, 6)


def test_gap_tree_empty_and_boundary_cases():
    tree = GapTree([1, 4])
    assert tree.query(0, 10) == (10, 0, 10)
    tree.insert(4)
    # leftmost tie: [0,4] before [4,10]? lengths 4 vs 6, no tie; check values
    assert tree.query(0, 10) == (6, 4, 10)
    tree.insert(1)
    assert tree.query(1, 4) == (3, 1, 4)  # boundary points never block
    assert tree.query(-INF, 4)[0] == INF


def test_max_coord_tree_open_band():
    # rows at y = 1, 2, 3: the band (0, 3) is rows 0..1, (1, 2) holds no
    # row and (2, 10) is row 2
    tree = MaxCoordTree([5, 9, 3])
    assert tree.max_in_open_band(0, 2) == 9
    assert tree.max_in_open_band(1, 1) == -INF
    assert tree.max_in_open_band(2, 3) == 3


def test_collinear_instance_recovers_strip():
    ps = PointSet.build([(0, 0, 1), (1, 0, 2), (5, 0, 1), (6, 0, 2)], 2)
    got = max_rblc(ps, "down-right")
    assert got is not None
    assert got.width == pytest.approx(4.0)
    assert (got.corner_x, got.corner_y) == (1.0, 4.0)
    assert validate_solution(got, ps)
    best = max_rblc_all(ps)
    assert best.width == pytest.approx(4.0)


def test_union_outside_coverage_instance():
    # color 2 is represented outside only by the half-plane above the
    # corridor, never by its left arm
    ps = PointSet.build(
        [(10, 0, 1), (11, 0, 2), (-10, 5, 1), (0, 20, 2)], 2
    )
    got = max_rblc(ps, "down-right")
    ref = oracle_rblc(ps, orientations=("down-right",))
    assert got is not None and ref is not None
    assert got.width == pytest.approx(ref.width)
    assert got.width >= 5.0
    assert validate_solution(got, ps)


def test_coincident_points_are_infeasible():
    ps = PointSet.build([(0, 0, 1), (0, 0, 1)], 1)
    for orientation in L_ORIENTATIONS:
        assert max_rblc(ps, orientation) is None
        assert oracle_rblc(ps, orientations=(orientation,)) is None
    assert max_rblc_all(ps) is None


def test_matches_oracle_on_random_instances():
    rng = random.Random(20260819)
    for _ in range(120):
        k = rng.randint(1, 4)
        n = rng.randint(2 * k, 16)
        ps = random_instance(rng, n, k, 0, 12)
        widths = {}
        for orientation in L_ORIENTATIONS:
            got = max_rblc(ps, orientation)
            ref = oracle_rblc(ps, orientations=(orientation,))
            if ref is None:
                assert got is None, (ps.points, orientation)
            else:
                assert got is not None, (ps.points, orientation)
                assert got.width == pytest.approx(ref.width, abs=1e-9), (
                    ps.points,
                    orientation,
                )
                assert validate_solution(got, ps)
                widths[orientation] = ref.width
        best = max_rblc_all(ps)
        if widths:
            assert best.width == pytest.approx(max(widths.values()), abs=1e-9)
        else:
            assert best is None


def test_width_invariant_under_symmetries():
    # max_rblc_all widths are exactly invariant under a 90 degree rotation,
    # a reflection in either axis, swapping x and y, scaling by 2**20 or
    # 2**-20 (eps scaled alike) and relabelling the colors; integer,
    # one-decimal, +-0.0 and full-real instances
    rng = random.Random(99)
    for it in range(80):
        k = rng.randint(1, 3)
        n = rng.randint(2 * k, 12)
        if it % 4 == 0:
            ps = random_instance(rng, n, k, 0, 15)
        elif it % 4 == 1:
            ps = random_real_instance(rng, n, k, digits=1)
        elif it % 4 == 2:
            pick = (-0.0, 0.0, 1.0, -1.0, 2.0, 0.5)
            ps = PointSet.build([(rng.choice(pick), rng.choice(pick), p.color)
                                 for p in random_instance(rng, n, k).points], k)
        else:
            ps = random_real_instance(rng, n, k, digits=None)
        rows = [(p.x, p.y, p.color) for p in ps.points]
        relabel = rng.sample(range(1, k + 1), k)
        images = [(rotate90(ps), 1.0), (reflect_x(ps), 1.0)]
        images += [(PointSet.build(image, k), 1.0) for image in (
            [(x, -y, c) for x, y, c in rows],
            [(y, x, c) for x, y, c in rows],
            [(x, y, relabel[c - 1]) for x, y, c in rows])]
        images += [(PointSet.build([(x * s, y * s, c) for x, y, c in rows], k), s)
                   for s in (2.0 ** 20, 2.0 ** -20)]
        a = max_rblc_all(ps)
        for image, s in images:
            b = max_rblc_all(image, DEFAULT_EPS * s)
            assert (a is None) == (b is None), (rows, s)
            if a is not None:
                assert b.width == a.width * s, (rows, s)


@pytest.mark.xfail(strict=True, reason="the first candidate level is found "
                   "by bisecting y_i + w_best, which can round up past it")
def test_first_candidate_is_exact():
    # the oracle's width 0.30000000000000004 is a difference of two input
    # coordinates; the sweep skips the level that gives it and answers 0.3
    ps = PointSet.build(
        [(-0.0, 0.2, 1), (0.8, 0.2, 1), (-0.1, -0.7, 2), (-0.6, -0.2, 2),
         (-0.1, -0.4, 3), (-0.7, -0.7, 1), (-0.7, 0.6, 1), (0.5, 0.1, 3),
         (-0.5, 0.4, 3), (-0.1, 0.0, 1), (-0.4, 0.0, 3), (0.0, -0.4, 2),
         (0.7, -0.6, 2), (0.3, 0.4, 2)], 3)
    want = oracle_rblc(ps, orientations=("down-right",)).width
    assert max_rblc(ps, "down-right").width == want


def test_band_max_keeps_the_tree_tie_order():
    # 0.0 and -0.0 tie for the maximum of a band, and the corner's x is
    # read from it: the band tree's fold gives -0.0 here, where a sparse
    # table over the level maxima that keeps the leftmost of equal values
    # gives 0.0
    ps = PointSet.build([(-0.0, 0.5, 1), (1.0, 1.0, 1), (0.0, 0.0, 1),
                         (-0.0, -1.0, 1), (0.0, -0.0, 1), (2.0, -1.0, 1),
                         (2.0, 2.0, 1)], 1)
    assert repr(max_rblc(ps, "down-right")) == (
        "LCorridor(orientation='down-right', corner_x=-0.0, corner_y=1.0, width=2.0)")


# ---------------------------------------------------------------------------
# the numpy set-up and the chunk filter against the per-level sweep

# A colour's min x is a zero that comes first as -0.0: np.minimum.at keeps
# the later 0.0, and a pass whose corner sits there reads the sign.
SIGNED_ZERO_MIN = PointSet.build(
    [(2.0, -0.0, 1), (0.0, 0.0, 1), (2.0, 0.0, 2), (2.0, -3.0, 2),
     (-3.0, -0.0, 2), (-0.0, -3.0, 1), (1.0, -0.0, 2)], 2)


def corridor_corpus(seed, count):
    """Tie-heavy instances: integer grids, +-0.0 picks, one-digit reals and
    copies scaled by 1e6 and moved, some with repeated points."""
    rng = random.Random(seed)
    out = [SIGNED_ZERO_MIN]
    for i in range(count):
        k = rng.randint(1, 3)
        n = rng.randint(2 * k, 90 if i % 4 == 0 else 40)
        kind = i % 4
        if kind == 0:
            ps = random_instance(rng, n, k, 0, 8)
        elif kind == 1:
            pick = (-0.0, 0.0, 1.0, 2.0, -3.0)
            ps = random_instance(rng, n, k)
            ps = PointSet.build([(rng.choice(pick), rng.choice(pick), p.color)
                                 for p in ps.points], k)
        elif kind == 2:
            ps = random_real_instance(rng, n, k, digits=1)
        else:
            ps = random_real_instance(rng, n, k, digits=2)
            ps = PointSet.build([(p.x * 1e6 + 3e6, p.y * 1e6 - 1e6, p.color)
                                 for p in ps.points], k)
        if rng.random() < 0.3:
            ps = PointSet.build(ps.points + ps.points[: rng.randint(1, n)], k)
        out.append(ps)
    return out


def canonical_passes(ps):
    """Both canonical passes of every orientation, as (x, y, color) rows
    and as the x, y and color arrays a pass is set up from."""
    for sx, sy in QUADRANT_SIGNS.values():
        tp = [(sx * p.x, sy * p.y, p.color) for p in ps.points]
        for rows in (tp, [(-y, -x, c) for x, y, c in tp]):
            yield rows, tuple(np.array(col) for col in zip(*rows))


@pytest.mark.parametrize("chunk", [1, 3, 16])
def test_chunked_sweep_matches_per_level_sweep(monkeypatch, chunk):
    # Every pass of every orientation gives the per-level sweep's answer,
    # down to the sign of a zero, with passes spanning several chunks.
    monkeypatch.setattr(lcorridor, "_CHUNK", chunk)
    split = lcorridor._LevelFilter.split
    seen = {"levels": 0, "kept": 0}

    def counting_split(self, a, b, w, gaps):
        # the tree holds the rows before the chunk: its hull is theirs
        rows_before = self._xs[:self._starts[a]]
        assert gaps.root()[:2] == (rows_before.min(), rows_before.max())
        got = split(self, a, b, w, gaps)
        seen["levels"] += b - a
        seen["kept"] += len(got[0])
        return got

    monkeypatch.setattr(lcorridor._LevelFilter, "split", counting_split)
    checked = 0
    for ps in corridor_corpus(chunk, 60):
        for eps in (1e-9, 0.0):
            for rows, arrays in canonical_passes(ps):
                want = repr(reference_sweep(rows, ps.k, eps))
                got = lcorridor._sweep(lcorridor._arrays_setup(arrays, ps.k), eps)
                assert repr(got) == want, (rows, eps)
                checked += 1
    assert checked == 8 * 2 * 61
    assert 0 < seen["kept"] < 0.9 * seen["levels"]  # the filter did reject


def test_first_chunk_runs_unfiltered(monkeypatch):
    # No pass asks the filter about its first chunk, and a pass of at most
    # _CHUNK levels builds none.  Passes on either side of a chunk
    # boundary give the per-level sweep's answer.
    chunk = 8
    monkeypatch.setattr(lcorridor, "_CHUNK", chunk)
    init, split = lcorridor._LevelFilter.__init__, lcorridor._LevelFilter.split
    built, asked = [], []

    def counting_init(self, *args):
        built.append(1)
        init(self, *args)

    def recording_split(self, a, b, w, gaps):
        asked.append(a)
        return split(self, a, b, w, gaps)

    monkeypatch.setattr(lcorridor._LevelFilter, "__init__", counting_init)
    monkeypatch.setattr(lcorridor._LevelFilter, "split", recording_split)
    rng = random.Random(19)
    filtered = 0
    for m in (chunk, chunk + 1, 2 * chunk + 1):
        for trial in range(30):
            # m points with distinct x and distinct y: every pass has m levels
            k = rng.randint(1, min(3, m // 2))
            colors = [1 + i % k for i in range(m)]
            rng.shuffle(colors)
            if trial % 2:
                xs, ys = rng.sample(range(m), m), rng.sample(range(m), m)
            else:
                xs = [rng.uniform(-1, 1) for _ in range(m)]
                ys = [rng.uniform(-1, 1) for _ in range(m)]
            ps = PointSet.build(list(zip(xs, ys, colors)), k)
            for eps in (1e-9, 0.0):
                for rows, arrays in canonical_passes(ps):
                    del built[:], asked[:]
                    setup = lcorridor._arrays_setup(arrays, k)
                    got = lcorridor._sweep(setup, eps)
                    assert repr(got) == repr(reference_sweep(rows, k, eps)), rows
                    if setup is None:
                        assert not built and not asked
                        continue
                    assert len(setup[0]) == m
                    assert len(built) == (m > chunk)
                    assert asked == list(range(chunk, m, chunk))
                    filtered += bool(asked)
    assert filtered > 100


def test_reference_sweep_stops_at_an_overflowed_delta():
    # Near the float limit a pass's deltas overflow to inf, which is no
    # witness: the reference stops there as the solver's loop does.
    ps = PointSet.build([(-1.7e308, 0, 1), (-1.6e308, 1, 2),
                         (1.7e308, 0, 1), (1.6e308, 1, 2)], 2)
    for eps in (1e-9, 0.0):
        for rows, arrays in canonical_passes(ps):
            want = repr(reference_sweep(rows, ps.k, eps))
            got = lcorridor._sweep(lcorridor._arrays_setup(arrays, ps.k), eps)
            assert repr(got) == want, (rows, eps)


def test_array_staircases_match_row_staircases():
    for ps in corridor_corpus(5, 80):
        for rows, (xs, ys, cs) in canonical_passes(ps):
            by_y = sorted(rows, key=lambda p: (p[1], p[0]))
            order = np.lexsort((xs, ys))
            sx, sy, sc = xs[order], ys[order], cs[order]
            rank = np.searchsorted(np.unique(sx), sx)
            got = lcorridor._lower_breaks_arrays(sx, sy, sc, rank, ps.k)
            assert repr(got) == repr(_lower_breaks(by_y, ps.k)), rows
            got_t, got_v = lcorridor._upper_breaks_arrays(xs, ys, cs, ps.k)
            want_t, want_v = _upper_breaks(rows, ps.k)
            assert repr(got_v) == repr(want_v), rows  # min x keeps its zero's sign
            assert got_t == want_t, rows  # max y is only compared


def test_records_carry_their_level_height():
    # -0.0 and 0.0 are one level, led by the row at -0.0; the record at
    # 0.0 carries the level's height, as the walk over every row reports
    ps = PointSet.build([(10, -1, 1), (3, -0.0, 1), (7, 0.0, 2), (1, 5, 2)], 2)
    sx, sy = QUADRANT_SIGNS["down-right"]
    xs, ys, cs = sx * ps.xs, sy * ps.ys, ps.cs
    order = np.lexsort((xs, ys))
    xs, ys, cs = xs[order], ys[order], cs[order]
    rank = np.searchsorted(np.unique(xs), xs)
    got = lcorridor._lower_breaks_arrays(xs, ys, cs, rank, ps.k)
    by_y = sorted(zip(xs.tolist(), ys.tolist(), cs.tolist()),
                  key=lambda p: (p[1], p[0]))
    assert repr(got) == repr(_lower_breaks(by_y, ps.k)) == "([-0.0], [7.0])"


def loop_rejects(rows, li, w):
    """True when the per-level loop, at best width w, stops at level li's
    first candidate because the break test fails or because, with no inner
    gap wider than w, neither hull-end gap reaches delta; written out from
    the rows."""
    by_y = sorted(rows, key=lambda p: (p[1], p[0]))
    level_ys = sorted({y for _, y, _ in rows})
    y_i = level_ys[li]
    lj = bisect_right(level_ys, y_i + w)
    while lj < len(level_ys) and level_ys[lj] - y_i <= w:
        lj += 1
    sb_t, sb_v = _lower_breaks(by_y, max(c for _, _, c in rows))
    cut = bisect_right(sb_t, y_i)
    if lj == len(level_ys) or cut == 0:
        return True
    y_j = level_ys[lj]
    delta = y_j - y_i
    hi = sb_v[cut - 1]
    st_t, st_v = _upper_breaks(rows, max(c for _, _, c in rows))
    gcut = bisect_left(st_t, y_j)
    lo = max([st_v[gcut - 1] if gcut else -INF]
             + [x for x, y, _ in rows if y_i < y < y_j])
    if hi - lo < delta:
        return True
    active = sorted({x for x, y, _ in rows if y <= y_i})
    if max((b - a for a, b in zip(active, active[1:])), default=-INF) > w:
        return False  # an inner gap may reach delta: no claim
    mn, mx = active[0], active[-1]
    ends = [mn - lo] if lo < mn else []
    ends += [hi - mx] if mx < hi else []
    return mn < hi and mx > lo and all(g < delta for g in ends)


def test_chunk_filter_rejects_only_what_the_loop_would(monkeypatch):
    monkeypatch.setattr(lcorridor, "_CHUNK", 4)
    rejected = skipped = 0
    for ps in corridor_corpus(17, 24):
        k = ps.k
        for rows, arrays in canonical_passes(ps):
            setup = lcorridor._arrays_setup(arrays, k)
            if setup is None:
                continue
            level_ys, gaps, filt = setup[0], setup[-2], setup[-1]
            if filt is None:
                continue  # a pass of at most _CHUNK levels builds none
            hit = reference_sweep(rows, k, 1e-9)
            top = hit[0] if hit else 1.0
            floors = (1e-9, top / 4, top / 2, top, 2 * top)
            by_y = sorted(rows, key=lambda p: (p[1], p[0]))
            row_ys = [p[1] for p in by_y]
            m = len(level_ys)
            handed = 0  # rows inserted into gaps so far
            for a in range(0, m, 4):
                b = min(a + 4, m)
                first = bisect_left(row_ys, level_ys[a])
                for x, _, _ in by_y[handed:first]:
                    gaps.insert(x)
                handed = first
                chunk = by_y[first:bisect_right(row_ys, level_ys[b - 1])]
                kept_before = set(range(a, b))
                for w in floors:
                    kept, pending, rest = filt.split(a, b, w, gaps)
                    # a level rejected at w stays rejected at any larger w
                    assert set(kept) <= kept_before, (rows, a, w)
                    kept_before = set(kept)
                    for li in set(range(a, b)) - set(kept):
                        assert loop_rejects(rows, li, w), (rows, li, w)
                        rejected += 1
                    # the values left out are ones insert would skip:
                    # strictly inside the hull of the earlier rows, whose
                    # gaps are no wider than w
                    inserted = [x for xs in pending for x in xs] + rest
                    i = 0
                    for j, (x, _, _) in enumerate(chunk):
                        if i < len(inserted) and repr(inserted[i]) == repr(x):
                            i += 1
                            continue
                        earlier = sorted({p[0] for p in by_y[:first + j]})
                        assert earlier[0] < x < earlier[-1], (rows, x)
                        assert max(b2 - a2 for a2, b2 in zip(earlier, earlier[1:])) <= w
                        skipped += 1
                    assert i == len(inserted)
    assert rejected > 100 and skipped > 100
