"""Fixed-seed benchmark of the rbannulus solvers.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload circle-rings --seed 1000 --seconds 20 --trace 0

Each run builds a pool of instances from the seed, loads them the way the
CLI does (generate_instance, format_instance, parse_instance), and solves
them through rbannulus.cli.solve_instance with library defaults, one solve
at a time in one process: a closed loop with one client.  workers=1 is
deliberate; a process pool on a small shared machine would measure the
scheduler, not the solvers.  Every answer is checked.

--trace 0 solves the pool round robin for --seconds and reports the
end-to-end metrics, with solve times scaled to a nominal machine speed by
a kernel of speedprobe.py.  --trace 1 solves the first half of the pool
once untraced and once with the per-layer wrappers of tracing.py
installed, and reports the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object; the lines before it
are the report.  The exit code is nonzero when any output is wrong.  See
README.md.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import NamedTuple, Optional

from speedprobe import SpeedProbe
from tracing import Tracer, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RECORDS = os.path.join(HERE, "records.json")
DEFAULT_SEED = 1000
SETUP_REPEATS = 3
PROBE_EVERY_S = 1.5
# Seconds each speedprobe.py kernel takes on the 2-core shared VM (Intel
# Xeon, 2.1 GHz) the benchmark was set on, at its usual speed.  A run's
# solve times are scaled by its workload kernel's nominal over the kernel's
# time in the run (SpeedProbe.seconds), so they read as if the machine ran
# at that usual speed.
NOMINAL_S = {"python": 0.04, "numpy": 0.045}


class Workload(NamedTuple):
    shape: str
    dist: str
    n: int
    pool: int  # instances in a run; a pass solves each once
    line: Optional[str] = None  # circle centres constrained to "ax+by=c"
    k: int = 3
    # the speedprobe.py kernel that does the kind of work the solver does
    kernel: str = "python"


# A run solves its pool round robin for --seconds, so a pool's size sets
# how many instances a run averages over, not how long it takes.  The
# corridor pool is small because set-up builds it four times per run.
WORKLOADS = {
    "circle-rings": Workload("circle", "rings", 30, 22, kernel="numpy"),
    "circle-line": Workload("circle", "rings", 160, 16, line="x-y=0",
                            kernel="numpy"),
    "rect-uniform": Workload("rect", "uniform", 200, 10),
    "square-uniform": Workload("square", "uniform", 120, 13),
    "corridor-large": Workload("lcorridor", "uniform", 16000, 3),
}


def instance_seeds(wl, seed):
    """Instance i of run seed s is `rbannulus gen --seed 100*s+i`."""
    return [100 * seed + i for i in range(wl.pool)]


def load_library():
    """Import rbannulus from this checkout's src/, or exit nonzero."""
    sys.path.insert(0, SRC)
    try:
        import rbannulus
        import rbannulus.cli  # noqa: F401  (binds rbannulus.cli)
    except ImportError as exc:
        sys.exit("perfbench: cannot import rbannulus from %s: %s" % (SRC, exc))
    got = os.path.dirname(os.path.abspath(rbannulus.__file__))
    if got != os.path.join(SRC, "rbannulus"):
        sys.exit("perfbench: imported rbannulus from %s, not from %s"
                 % (got, SRC))
    return rbannulus


def make_pool(lib, wl, seed):
    """(point sets, sha256 of their CSV bytes) via the CLI's load path."""
    texts = [lib.instances.format_instance(
                 lib.instances.generate_instance(wl.n, wl.k, wl.dist, s))
             for s in instance_seeds(wl, seed)]
    pool = [lib.instances.parse_instance(text) for text in texts]
    return pool, hashlib.sha256("".join(texts).encode()).hexdigest()


def check(lib, wl, ps, ann, provenance, seconds, recorded_width):
    """None when a solve's output passes every check, else the reason."""
    if ann is None:
        return "solver returned None on a feasible instance"
    eps = lib.core.DEFAULT_EPS
    if not lib.core.validate_solution(ann, ps, eps):
        return "validate_solution rejects %r" % (ann,)
    report = lib.instances.SolutionReport.for_annulus(
        wl.shape, ann, provenance, seconds * 1000.0)
    back = lib.instances.SolutionReport.from_json(report.to_json())
    ok, msg = lib.instances.check_report(back, ps, eps)
    if not ok:
        return "check of the JSON report failed: %s" % msg
    if recorded_width is not None and repr(ann.width) != recorded_width:
        return "width %r, recorded %s" % (ann.width, recorded_width)
    return None


def solve_one(lib, wl, pool, i, line, widths, answers, failures):
    """Solve instance i once and check the answer; return the solve's
    seconds, or None when it raised.

    answers maps an instance to its first answer; a later answer with a
    different repr is a failure, as is any failed check.
    """
    dt = None
    t0 = time.perf_counter()
    try:
        ann, provenance = lib.cli.solve_instance(
            wl.shape, pool[i], lib.core.DEFAULT_EPS, line=line)
        dt = time.perf_counter() - t0
        why = check(lib, wl, pool[i], ann, provenance, dt,
                    widths[i] if widths else None)
    except Exception as exc:  # a crashing solve is a failed solve
        why = "%s: %s" % (type(exc).__name__, exc)
    if why is None:
        first = answers.setdefault(i, ann)
        if repr(first) != repr(ann):
            why = "answer %r differs from the earlier %r" % (ann, first)
    if why is not None:
        failures.append("instance %d: %s" % (i, why))
    return dt


def run_pass(lib, wl, pool, line, widths, answers, failures, order=None):
    """Solve the instances at the indices in order (default: each once);
    return the times of the solves that returned."""
    if order is None:
        order = range(len(pool))
    times = [solve_one(lib, wl, pool, i, line, widths, answers, failures)
             for i in order]
    return [dt for dt in times if dt is not None]


def run_for(lib, wl, pool, line, widths, answers, failures, seconds,
            probe):
    """Solve the pool round robin until `seconds` of wall time have passed
    and each instance has been solved, so that no instance is solved more
    than once more than another and the outputs digest covers the whole
    pool.  The speed probe is timed between solves every PROBE_EVERY_S.

    Returns (times of the solves that returned, indices solved in order).
    """
    times, order = [], []
    now = time.perf_counter()
    t_end, next_probe = now + seconds, now
    while now < t_end or len(order) < len(pool):
        if now >= next_probe:
            probe()
            next_probe = time.perf_counter() + PROBE_EVERY_S
        order.append(len(order) % len(pool))
        dt = solve_one(lib, wl, pool, order[-1], line, widths, answers,
                       failures)
        if dt is not None:
            times.append(dt)
        now = time.perf_counter()
    return times, order


def time_setups(name, seed, digest):
    """Seconds from spawning a fresh interpreter to the moment it holds
    the parsed pool, once per SETUP_REPEATS."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--setup-only"]
    out = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as child:
            try:
                said = child.stdout.readline().strip()
                dt = time.perf_counter() - t0
                child.communicate(timeout=120)
            finally:
                if child.poll() is None:
                    child.kill()
        if child.returncode != 0 or said != digest:
            raise RuntimeError("set-up child exited %s and printed %r, "
                               "expected %s" % (child.returncode, said, digest))
        out.append(dt)
    return out


def git_revision():
    try:
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    return got.stdout.strip() if got.returncode == 0 else "unknown"


def source_digest():
    """sha256 over src/rbannulus/*.py, to tell checkouts apart without git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "rbannulus")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            h.update(fname.encode() + b"\0")
            with open(os.path.join(pkg, fname), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment():
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
    }


def load_record(name):
    """{"pools": {run seed: sha256 of the pool's CSV}, "widths": {instance
    seed: repr of the width}} recorded for a workload by record.py."""
    with open(RECORDS, encoding="utf-8") as fh:
        return json.load(fh).get(name, {"pools": {}, "widths": {}})


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="wall time an untraced run spends solving")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    lib = load_library()
    if args.setup_only:
        print(make_pool(lib, wl, args.seed)[1], flush=True)
        return 0
    line = None if wl.line is None else lib.cli.parse_line_spec(wl.line)

    tracer = Tracer() if args.trace else None
    with tracer or contextlib.nullcontext():
        pool, digest = make_pool(lib, wl, args.seed)

    record = load_record(args.workload)
    recorded = record["pools"].get(str(args.seed))
    changed = recorded is not None and recorded != digest
    widths = None
    if recorded is None:
        digest_note = "no record for this seed"
    elif changed:
        digest_note = "MISMATCH, recorded %s" % recorded
    else:
        digest_note = "matches the record"
        widths = [record["widths"].get(str(g))
                  for g in instance_seeds(wl, args.seed)]

    failures = []
    answers = {}
    setups = []
    # one discarded solve first, so that first-call costs fall in no timed
    # solve; the timed solves solve that instance again and check it
    run_pass(lib, wl, pool, line, widths, {}, [], order=[0])
    if tracer is None:
        setups = time_setups(args.workload, args.seed, digest)
        probe = SpeedProbe(wl.kernel)
        times, order = run_for(lib, wl, pool, line, widths, answers,
                               failures, args.seconds, probe)
        probe()
        scale = NOMINAL_S[wl.kernel] / probe.seconds()
    else:
        # the first half of the pool, once untraced and once traced: a fixed
        # set of solves, so that every count repeats exactly, and about as
        # long as an untraced run
        order = list(range((len(pool) + 1) // 2))
        plain = run_pass(lib, wl, pool, line, widths, answers, failures,
                         order=order)
        with tracer:
            traced = run_pass(lib, wl, pool, line, widths, answers,
                              failures, order=order)
        order = order * 2
        times = plain + traced
    attempted = len(order)
    failed = len(failures)
    outputs = hashlib.sha256("\n".join(
        repr(answers.get(i)) for i in range(len(pool))).encode())

    env = environment()
    print("rbannulus benchmark: workload %s, seed %d" % (args.workload,
                                                         args.seed))
    print("environment: " + ", ".join("%s %s" % kv for kv in env.items()))
    seeds = instance_seeds(wl, args.seed)
    print("workload: shape %s, dist %s, n %d, k %d, line %s, %d instances "
          "(gen seeds %d..%d), solved round robin"
          % (wl.shape, wl.dist, wl.n, wl.k, wl.line, wl.pool, seeds[0],
             seeds[-1]))
    print("loop: closed, one client, one solve at a time, workers=1; "
          "%d solves attempted, %d failed (failed_frac %r)"
          % (attempted, failed, failed / attempted))
    print("instances sha256: %s (%s)" % (digest, digest_note))
    print("outputs sha256: %s (repr of each answer, in pool order)"
          % outputs.hexdigest())
    for why in failures:
        print("FAILED " + why)

    if tracer is None:
        metrics = {
            "solves_per_s": (len(times) / (sum(times) * scale)
                             if times else 0.0, "1/s"),
            "solve_s_p50": (statistics.median(times) * scale
                            if times else 0.0, "s"),
            "ok_frac": ((attempted - failed) / attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
        print("solve times are scaled by %.4f: the %s kernel's nominal "
              "%.3f s over its time in this run, %.4f s of %d timings; "
              "unscaled, solves_per_s %.4f, solve_s_p50 %.4f"
              % (scale, wl.kernel, NOMINAL_S[wl.kernel], probe.seconds(),
                 len(probe.samples),
                 len(times) / sum(times) if times else 0.0,
                 statistics.median(times) if times else 0.0))
        print("solve_s_p50 is the median of %d solves; setup_s is the "
              "median of %d fresh set-ups: %s" % (
                  len(times), len(setups),
                  " ".join("%.4f" % s for s in setups)))
    else:
        metrics = layer_metrics(tracer.stats, sum(traced) - sum(plain))
        print("per-layer totals over the traced set-up and one traced pass "
              "of %d solves; untraced pass %.4f s, traced pass %.4f s"
              % (len(traced), sum(plain), sum(traced)))
        for name in tracer.absent:
            print("absent: %s no longer exists; its metrics read 0" % name)
    for name, (value, unit) in metrics.items():
        print("  %-28s %r %s" % (name, value, unit))

    correct = not failures and not changed
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
