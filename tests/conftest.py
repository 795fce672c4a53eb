import random

from rbannulus import PointSet


def random_instance(rng: random.Random, n: int, k: int, lo: int = 0, hi: int = 100):
    """Random integer-coordinate instance; first 2k colors dealt in pairs so
    every color has multiplicity >= 2."""
    pts = [(rng.randint(lo, hi), rng.randint(lo, hi), c) for c in _deal_colors(rng, n, k)]
    return PointSet.build(pts, k)


def random_real_instance(rng: random.Random, n: int, k: int, digits=2):
    """Random instance with coordinates in [-1, 1] rounded to `digits`
    decimals (None keeps every bit), colors dealt as in random_instance.
    Decimal coordinates are rarely exact in binary, so sums such as the
    midpoint of two y values round, which integer instances never do."""
    def coord():
        v = rng.uniform(-1.0, 1.0)
        return v if digits is None else round(v, digits)

    return PointSet.build([(coord(), coord(), c) for c in _deal_colors(rng, n, k)], k)


def _deal_colors(rng, n, k):
    assert n >= 2 * k
    colors = [c for c in range(1, k + 1) for _ in (0, 1)]
    colors += [rng.randint(1, k) for _ in range(n - len(colors))]
    rng.shuffle(colors)
    return colors


def rotate90(pointset: PointSet) -> PointSet:
    """(x, y) -> (-y, x)."""
    return PointSet.build([(-p.y, p.x, p.color) for p in pointset.points], pointset.k)


def reflect_x(pointset: PointSet) -> PointSet:
    return PointSet.build([(-p.x, p.y, p.color) for p in pointset.points], pointset.k)
