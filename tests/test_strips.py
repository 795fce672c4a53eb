import math
import random

import numpy as np
import pytest
from conftest import random_instance, random_real_instance, reflect_x, rotate90

from rbannulus import (
    DEFAULT_EPS,
    PointSet,
    Strip,
    generate_instance,
    max_rbca,
    max_rblc,
    max_rbra,
    max_rbsa,
    validate_solution,
)
from rbannulus.circles import best_annulus_at_center
from rbannulus.oracle import oracle_rbes
from rbannulus.rect import max_anchored_rbra_for_top_point
from rbannulus.squares import best_annulus_on_segment, max_rbsa_c3
from rbannulus.strips import max_rbes, rainbow_gaps, widest_rainbow_gap


def test_basic_vertical():
    ps = PointSet.build([(0, 0, 1), (1, 0, 2), (5, 0, 1), (6, 0, 2)])
    s = max_rbes(ps, "vertical")
    assert s == Strip("vertical", 1.0, 5.0)
    assert s.width == 4.0
    assert validate_solution(s, ps)


def test_infeasible():
    ps = PointSet.build([(0, 0, 1), (1, 0, 1), (2, 0, 2), (3, 0, 2)])
    assert max_rbes(ps, "vertical") is None


def test_basic_horizontal():
    ps = PointSet.build([(0, 0, 1), (0, 1, 2), (0, 5, 1), (0, 6, 2)])
    assert max_rbes(ps, "horizontal") == Strip("horizontal", 1.0, 5.0)


# eps = 0 is accepted by the CLI (RBA_EPSILON=0); equal coordinates must
# still act as one group there, through the strict gap > eps test alone
EPS_VALUES = (DEFAULT_EPS, 0.0)


def test_tie_takes_smallest_lo():
    ps = PointSet.build([(0, 0, 1), (0, 1, 2), (4, 0, 1), (4, 1, 2), (8, 0, 1), (8, 1, 2)])
    for eps in EPS_VALUES:
        s = max_rbes(ps, "vertical", eps)
        assert (s.lo, s.hi) == (0.0, 4.0), eps


def test_duplicate_coordinates_never_candidates():
    # width-0 gaps between coincident coordinates must not surface
    ps = PointSet.build([(2, 0, 1), (2, 1, 2), (2, 5, 1), (3, 0, 2), (3, 1, 1)])
    single = PointSet.build([(2, 0, 1), (2, 1, 2), (2, 5, 1), (2, 6, 2)])
    for eps in EPS_VALUES:
        assert max_rbes(ps, "vertical", eps) == Strip("vertical", 2.0, 3.0), eps
        assert max_rbes(single, "vertical", eps) is None, eps


def test_bad_orientation_rejected():
    ps = PointSet.build([(0, 0, 1), (1, 0, 2), (5, 0, 1), (6, 0, 2)])
    with pytest.raises(ValueError, match="bad orientation"):
        max_rbes(ps, "diagonal")


def test_negative_eps_rejected():
    # a negative eps would admit the zero gaps between tied values
    ps = PointSet.build([(2, 0, 1), (2, 1, 2), (2, 5, 1), (3, 0, 2), (3, 1, 1)])
    for eps in (-1e-9, math.nan):
        with pytest.raises(ValueError):
            max_rbes(ps, "vertical", eps)
        with pytest.raises(ValueError):
            best_annulus_at_center(ps, (0.0, 0.0), eps)
        with pytest.raises(ValueError):
            max_rbca(ps, eps)
        with pytest.raises(ValueError):
            max_rbsa(ps, eps)
        with pytest.raises(ValueError):
            max_rbsa_c3(ps, eps)
        with pytest.raises(ValueError):
            best_annulus_on_segment(ps, ps.points[0], ps.points[2], eps)
        with pytest.raises(ValueError):
            max_rblc(ps, "down-right", eps)
        with pytest.raises(ValueError):
            max_rbra(ps, eps)
        with pytest.raises(ValueError):
            max_anchored_rbra_for_top_point(ps, 0, eps)
    # eps is the second argument of every solver: no ring is wider than 1e9
    wide = generate_instance(16, 3, "uniform", 7)
    assert max_rbsa(wide, 1e9) is None
    assert max_rbra(wide, 1e9) is None


def test_signed_zero_sides_keep_their_sign():
    # np.sort puts -0.0 last among the tied zeros; by_x order puts 0.0 there
    pts = [(0.0 if i % 2 else -0.0, float(i), 1 + i % 2) for i in range(40)]
    ps = PointSet.build(pts + [(5, 0, 1), (5, 1, 2)])
    s = max_rbes(ps, "vertical")
    assert repr(s) == "Strip(orientation='vertical', lo=0.0, hi=5.0)"
    assert math.copysign(1.0, s.lo) == 1.0


def test_overflowed_gap_is_not_usable():
    # both sides are finite but their difference overflows to inf: no
    # strip has that width, so the gap is unusable and none is returned
    ps = PointSet.build([(-1.7e308, 0, 1), (-1.6e308, 1, 2),
                         (1.7e308, 0, 1), (1.6e308, 1, 2)], 2)
    with np.errstate(over="ignore"):
        assert max_rbes(ps, "vertical") is None
        row = np.array([[p.x for p in ps.points]])
        gaps = rainbow_gaps(row, [p.color for p in ps.points], 2, DEFAULT_EPS)
    assert np.all(gaps == -np.inf)


def _brute_gaps(row, colors, k, eps):
    """Usable gaps by definition: sort, then test each side's color set."""
    pairs = sorted(zip(row.tolist(), colors.tolist()))
    full = set(range(1, k + 1))
    out = []
    for t in range(len(pairs) - 1):
        gap = pairs[t + 1][0] - pairs[t][0]
        ok = (gap > eps and full <= {c for _, c in pairs[:t + 1]}
              and full <= {c for _, c in pairs[t + 1:]})
        out.append(gap if ok else -math.inf)
    return out


def test_widest_rainbow_gap_needs_two_values():
    for eps in (DEFAULT_EPS, 0.0):
        assert widest_rainbow_gap([0.0, 4.0], [1, 1], 1, eps) == 0
        assert widest_rainbow_gap([4.0], [1], 1, eps) is None
        assert widest_rainbow_gap([], [], 1, eps) is None


def test_rainbow_gaps_match_definition_in_any_column_order():
    rng = np.random.default_rng(5)
    for _ in range(300):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(2, 11))
        # tie-heavy values; some colors may be missing from a row's columns
        V = rng.integers(0, 5, size=(4, n)).astype(float)
        colors = rng.integers(1, k + 1, size=n)
        perm = rng.permutation(n)
        for eps in (0.0, 1e-9):
            got = rainbow_gaps(V, colors, k, eps)
            want = [_brute_gaps(row, colors, k, eps) for row in V]
            assert np.array_equal(got, np.array(want))
            assert np.array_equal(
                rainbow_gaps(V[:, perm], colors[perm], k, eps), got)


def test_rainbow_gaps_leave_their_input_alone():
    rng = np.random.default_rng(6)
    V = rng.integers(-3, 4, size=(5, 9)).astype(float)
    V[V == 0] = -0.0
    before = V.tobytes()
    for colors in (np.array([1, 1, 1, 2, 2, 2, 3, 3, 3]),
                   np.array([2, 1, 3, 1, 2, 3, 3, 2, 1])):
        rainbow_gaps(V, colors, 3, 0.0)
        assert V.tobytes() == before


def test_rainbow_gaps_with_a_missing_color_in_any_column_order():
    # every gap is unusable whether the columns come grouped by color or not
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        V = rng.integers(0, 5, size=(3, n)).astype(float)
        grouped = np.sort(rng.choice([1, 3], size=n))  # color 2 missing
        perm = rng.permutation(n)
        for eps in (0.0, 1e-9):
            got = rainbow_gaps(V, grouped, 3, eps)
            assert got.shape == (3, n - 1) and np.all(got == -np.inf)
            assert np.array_equal(
                rainbow_gaps(V[:, perm], grouped[perm], 3, eps), got)
            assert np.array_equal(
                got, np.array([_brute_gaps(row, grouped, 3, eps) for row in V]))


def test_oracle_equivalence_random():
    rng = random.Random(7)
    for _ in range(200):
        k = rng.randint(1, 5)
        n = rng.randint(2 * k, 30)
        ps = random_instance(rng, n, k)
        for orientation in ("vertical", "horizontal"):
            got = max_rbes(ps, orientation)
            ref = oracle_rbes(ps, orientation)
            if ref is None:
                assert got is None
            else:
                assert got is not None
                assert got.width == ref.width
                assert (got.lo, got.hi) == (ref.lo, ref.hi)
                assert validate_solution(got, ps)


def test_rotation_equivariance():
    # each orientation's widest strip, and so the best over both, keeps its
    # width exactly under a 90 degree rotation, a reflection in either axis,
    # swapping x and y (both of which exchange the orientations), scaling
    # by 2**20 or 2**-20 (eps scaled alike) and relabelling the colors, on
    # integer, one-decimal and +-0.0 instances; every witness validates
    rng = random.Random(11)
    found = 0
    for it in range(90):
        k = rng.randint(1, 4)
        n = rng.randint(2 * k, 20)
        if it % 3 == 0:
            ps = random_instance(rng, n, k)
        elif it % 3 == 1:
            ps = random_real_instance(rng, n, k, digits=1)
        else:
            pick = (-0.0, 0.0, 1.0, -1.0, 2.0, 0.5)
            ps = PointSet.build([(rng.choice(pick), rng.choice(pick), p.color)
                                 for p in random_instance(rng, n, k).points], k)
        rows = [(p.x, p.y, p.color) for p in ps.points]
        relabel = rng.sample(range(1, k + 1), k)
        # (image, scale, whether the image exchanges the orientations)
        images = [(ps, 1.0, False), (rotate90(ps), 1.0, True), (reflect_x(ps), 1.0, False)]
        images += [(PointSet.build(image, k), 1.0, swap) for image, swap in (
            ([(x, -y, c) for x, y, c in rows], False),
            ([(y, x, c) for x, y, c in rows], True),
            ([(x, y, relabel[c - 1]) for x, y, c in rows], False))]
        images += [(PointSet.build([(x * s, y * s, c) for x, y, c in rows], k), s, False)
                   for s in (2.0 ** 20, 2.0 ** -20)]
        for orientation, other in (("vertical", "horizontal"), ("horizontal", "vertical")):
            a = max_rbes(ps, orientation)
            found += a is not None
            for image, s, swap in images:
                b = max_rbes(image, other if swap else orientation, DEFAULT_EPS * s)
                assert (a is None) == (b is None), (rows, orientation, s)
                if b is not None:
                    assert b.width == a.width * s, (rows, orientation, s)
                    assert validate_solution(b, image, DEFAULT_EPS * s), (rows, s)
    assert found > 100
