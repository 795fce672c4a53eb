"""End-to-end acceptance: one test per shipping criterion.

Each test prints a single pass/fail line; the suite doubles as the release
checklist.  Random schedules are fully seeded so reruns are byte-stable.
"""

import itertools
import math
import random
import time

import numpy as np

from conftest import random_instance

from rbannulus import (
    INF,
    PointSet,
    generate_instance,
    max_rbca,
    max_rbes,
    max_rblc_all,
    max_rbra,
    max_rbsa,
    validate_solution,
)
from rbannulus.circles import (
    best_annulus_at_center,
    cir21_candidates,
    cir22_candidates,
    far_field_candidates,
    point_center_candidates,
)
from rbannulus.oracle import (
    oracle_rbca,
    oracle_rbes,
    oracle_rblc,
    oracle_rbra,
    oracle_rbsa,
)
from rbannulus.cli import main as cli_main
from rbannulus.rect import anchor_ordering, dp_decision
from rbannulus.reference import (
    WGap,
    circle_plane,
    lift,
    max_rbra_reference,
    minimal_rainbow_intervals,
    relevant_w_gaps,
)


def _width(sol):
    return 0.0 if sol is None else sol.width


def _report(label, ok, detail):
    print("%s: %s (%s)" % (label, "PASS" if ok else "FAIL", detail))
    assert ok, "%s: %s" % (label, detail)


def test_criterion_01_strip_oracle_equivalence():
    rng = random.Random(101)
    t0 = time.perf_counter()
    for _ in range(500):
        k = rng.randint(1, 5)
        n = rng.randint(2 * k, 30)
        ps = random_instance(rng, n, k)
        for orientation in ("vertical", "horizontal"):
            got = _width(max_rbes(ps, orientation))
            ref = _width(oracle_rbes(ps, orientation))
            assert got == ref, (ps.points, orientation, got, ref)
    dt = time.perf_counter() - t0
    _report("criterion 1 (strip oracle equivalence)", dt < 5.0,
            "500 instances, both orientations, exact widths, %.1fs" % dt)


def test_criterion_02_lcorridor_oracle_equivalence():
    rng = random.Random(102)
    t0 = time.perf_counter()
    for _ in range(200):
        k = rng.randint(1, 4)
        n = rng.randint(2 * k, 20)
        ps = random_instance(rng, n, k)
        got = _width(max_rblc_all(ps))
        ref = _width(oracle_rblc(ps))
        assert got == ref, (ps.points, got, ref)
    dt = time.perf_counter() - t0
    _report("criterion 2 (L-corridor oracle equivalence)", dt < 60.0,
            "200 instances, exact widths, %.1fs" % dt)


def test_criterion_03_square_oracle_equivalence():
    rng = random.Random(103)
    t0 = time.perf_counter()
    for _ in range(100):
        k = rng.randint(1, 3)
        n = rng.randint(max(4, 2 * k), 14)
        ps = random_instance(rng, n, k)
        got = max_rbsa(ps)
        ref = oracle_rbsa(ps)
        assert _width(got) == _width(ref), (ps.points, got, ref)
        if got is not None:
            assert validate_solution(got, ps)
    dt = time.perf_counter() - t0
    _report("criterion 3 (square oracle equivalence)", dt < 120.0,
            "100 instances, exact widths, %.1fs" % dt)


def test_criterion_04_rect_oracle_and_fast_slow():
    rng = random.Random(104)
    t0 = time.perf_counter()
    for _ in range(100):
        k = rng.randint(1, 3)
        n = rng.randint(max(4, 2 * k), 12)
        ps = random_instance(rng, n, k)
        slow = max_rbra_reference(ps)
        fast = max_rbra(ps)
        ref = oracle_rbra(ps)
        assert _width(slow) == _width(ref), (ps.points, slow, ref)
        assert _width(fast) == _width(ref), (ps.points, fast, ref)
        assert fast == slow, (ps.points, fast, slow)
        if slow is not None:
            assert validate_solution(slow, ps)
    for _ in range(200):
        k = rng.randint(1, 3)
        n = rng.randint(max(4, 2 * k), 40)
        ps = random_instance(rng, n, k)
        assert max_rbra(ps) == max_rbra_reference(ps), ps.points
    dt = time.perf_counter() - t0
    _report("criterion 4 (rect oracle equivalence, solver == reference)",
            dt < 120.0, "100 oracle + 200 solver/reference instances, %.1fs"
            % dt)


def _exhaustive_circle(ps, eps=1e-9):
    # scalar sweep of the full candidate families, no batch shortlist
    centers = itertools.chain.from_iterable(zip(xs, ys) for xs, ys in (
        point_center_candidates(ps), cir22_candidates(ps),
        cir21_candidates(ps), far_field_candidates(ps)))
    best = None
    key = None
    for c in centers:
        ann = best_annulus_at_center(ps, c, eps)
        if ann is None:
            continue
        kk = (-ann.width, ann.center_x, ann.center_y)
        if key is None or kk < key:
            key, best = kk, ann
    return best


def test_criterion_05_circle_dominance_and_small_n_exact():
    rng = random.Random(105)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        k = rng.randint(1, 3)
        n = rng.randint(max(4, 2 * k), 25)
        ps = random_instance(rng, n, k)
        got = max_rbca(ps)
        bound = oracle_rbca(ps)
        worst = max(worst, bound - _width(got))
        assert _width(got) >= bound - 1e-6, (ps.points, _width(got), bound)
        if got is not None:
            assert validate_solution(got, ps)
    small = 0
    for n in (4, 5, 6):
        for _ in range(12):
            k = rng.randint(1, n // 2)
            ps = random_instance(rng, n, k, lo=0, hi=30)
            assert max_rbca(ps) == _exhaustive_circle(ps), ps.points
            small += 1
    dt = time.perf_counter() - t0
    _report("criterion 5 (circle grid dominance, small-n exactness)",
            dt < 300.0,
            "100 instances worst shortfall %.2e, %d small instances exact, %.1fs"
            % (worst, small, dt))


def test_criterion_06_decision_monotonicity():
    rng = random.Random(106)
    t0 = time.perf_counter()
    tuples = 0
    violations = 0
    while tuples < 10_000:
        k = rng.randint(1, 3)
        n = rng.randint(max(4, 2 * k), 12)
        ps = random_instance(rng, n, k)
        pts = anchor_ordering(ps)
        for _ in range(25):
            if tuples >= 10_000:
                break
            i = rng.randrange(len(pts))
            js = [None] + list(range(i + 2, len(pts)))
            j = rng.choice(js)
            w = rng.uniform(0.3, 40.0)
            w2 = w * rng.uniform(0.15, 0.95)
            if dp_decision(ps, i, j, w).feasible \
                    and not dp_decision(ps, i, j, w2).feasible:
                violations += 1
            tuples += 1
    dt = time.perf_counter() - t0
    _report("criterion 6 (decision monotonicity)", violations == 0,
            "%d tuples, %d violations, %.1fs" % (tuples, violations, dt))


def _make_slab_instance(slab, k):
    pts = [(0.0, 10.0, 1)]
    pts += [(1000.0 + c, 10.0, c) for c in range(1, k + 1)]
    pts += [(x, 0.0, c) for x, c in slab]
    pts += [(0.0, -10.0, 1)]
    pts += [(1000.0 + c, -10.0, c) for c in range(1, k + 1)]
    return PointSet.build(pts, k), 0, k + 1 + len(slab)


def _maximal_gaps(xs, lo_sentinel, hi_sentinel):
    out = []
    if xs:
        if lo_sentinel:
            out.append(WGap(-INF, xs[0]))
        for a, b in zip(xs, xs[1:]):
            if b > a:
                out.append(WGap(a, b))
        if hi_sentinel:
            out.append(WGap(xs[-1], INF))
    return out


def test_criterion_07_interval_properties():
    rng = random.Random(107)
    t0 = time.perf_counter()
    done = 0
    while done < 1000:
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
        ps, i, j = _make_slab_instance(slab, k)
        ivs = minimal_rainbow_intervals(ps, i, j, lp, rp)
        assert len(ivs) <= k, (slab, lp, rp)
        color_at = dict(slab)
        for t in range(len(ivs)):
            if t:
                # strictly ordered in both ends: no nesting
                assert ivs[t - 1].a < ivs[t].a and ivs[t - 1].b < ivs[t].b
                # pairwise overlap: all straddle the central zone
                assert ivs[t].a < ivs[t - 1].b
        assert len({color_at[iv.a] for iv in ivs}) == len(ivs)
        assert len({color_at[iv.b] for iv in ivs}) == len(ivs)
        lgaps = _maximal_gaps(lp, True, False)
        rgaps = _maximal_gaps(rp, False, True)
        chosen = relevant_w_gaps(ivs, lgaps, rgaps)
        assert len(chosen) <= 2 * k, (slab, lp, rp)
        done += 1
    dt = time.perf_counter() - t0
    _report("criterion 7 (minimal rainbow interval properties)", True,
            "%d slabs, all five properties held, %.1fs" % (done, dt))


def test_criterion_08_lift_duality():
    rng = random.Random(108)
    t0 = time.perf_counter()
    for _ in range(1000):
        cx, cy = rng.uniform(-50, 50), rng.uniform(-50, 50)
        rho = rng.uniform(0.05, 40)
        px, py = rng.uniform(-60, 60), rng.uniform(-60, 60)
        a, b, c = circle_plane((cx, cy), rho)
        z = lift((px, py)).z
        plane = a * px + b * py + c
        d = math.hypot(px - cx, py - cy)
        scale = d + rho + 1.0
        if d < rho - 1e-9:
            assert z - plane < 1e-9 * scale
        elif d > rho + 1e-9:
            assert z - plane > -1e-9 * scale
        else:
            assert abs(z - plane) <= 1e-9 * scale * (d + rho + 1)
    dt = time.perf_counter() - t0
    _report("criterion 8 (lift/plane duality)", True,
            "1000 circle/point pairs classified consistently, %.1fs" % dt)


def test_criterion_09_scaling_probes():
    t0 = time.perf_counter()

    def slope(shape_fn, sizes, seed0):
        logs = []
        for n in sizes:
            times = []
            for trial in range(3):
                ps = generate_instance(n, 3, "uniform", seed0 + 97 * n + trial)
                s0 = time.perf_counter()
                shape_fn(ps)
                times.append(time.perf_counter() - s0)
            logs.append((math.log(n), math.log(sum(times) / 3)))
        return float(np.polyfit([t[0] for t in logs],
                                [t[1] for t in logs], 1)[0])

    s_corr = slope(max_rblc_all, (1000, 2000, 4000, 8000, 16000), 900)
    s_rect = slope(max_rbra, (100, 200, 400, 800, 1600), 901)
    dt = time.perf_counter() - t0
    _report("criterion 9 (scaling probes)",
            s_corr <= 1.3 and s_rect <= 2.5 and dt < 600.0,
            "corridor slope %.2f (<= 1.3), rect slope %.2f (<= 2.5), %.0fs"
            % (s_corr, s_rect, dt))


def test_criterion_10_cli_round_trip(tmp_path, capsys):
    t0 = time.perf_counter()
    plans = [("strip", "clusters"), ("lcorridor", "clusters"),
             ("square", "clusters"), ("rect", "clusters"),
             ("circle", "rings")]
    total = 0
    for shape, dist in plans:
        for seed in range(50):
            code = cli_main(["gen", "--n", "14", "--k", "3",
                             "--dist", dist, "--seed", str(seed)])
            out = capsys.readouterr().out
            assert code == 0, (shape, seed)
            inst = tmp_path / ("%s_%d.csv" % (shape, seed))
            inst.write_text(out)
            code = cli_main(["solve", "--shape", shape, "--input", str(inst),
                             "--json"])
            out = capsys.readouterr().out
            assert code == 0, (shape, seed)
            sol = tmp_path / ("%s_%d.json" % (shape, seed))
            sol.write_text(out)
            code = cli_main(["check", "--input", str(inst),
                             "--solution", str(sol)])
            capsys.readouterr()
            assert code == 0, (shape, seed)
            total += 1
    dt = time.perf_counter() - t0
    _report("criterion 10 (gen/solve/check round trip)", total == 250,
            "%d round trips across 5 shapes all exited 0, %.1fs" % (total, dt))
