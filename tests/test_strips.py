import random

from conftest import random_instance, rotate90

from rbannulus import DEFAULT_EPS, PointSet, Strip, validate_solution
from rbannulus.oracle import oracle_rbes
from rbannulus.strips import max_rbes


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
    rng = random.Random(11)
    for _ in range(60):
        k = rng.randint(1, 4)
        n = rng.randint(2 * k, 20)
        ps = random_instance(rng, n, k)
        rot = rotate90(ps)
        a = max_rbes(ps, "vertical")
        b = max_rbes(rot, "horizontal")
        assert (a is None) == (b is None)
        if a is not None:
            assert a.width == b.width
