"""Command-line front end: generate, solve, check, bench.

Exit codes: 0 success, 1 bad input or failed validation, 2 infeasible
instance.  RBA_EPSILON overrides the width tolerance; all randomness is
seeded through flags, so equal invocations produce equal bytes.
"""

import argparse
import json
import math
import os
import re
import sys
import time

from .circles import max_rbca, max_rbca_on_line
from .core import DEFAULT_EPS, Line, PointSet, _widest
from .instances import (
    GENERATOR_KINDS,
    SolutionReport,
    check_report,
    format_instance,
    generate_instance,
    load_instance,
)
from .lcorridor import max_rblc_all
from .rect import max_rbra
from .squares import max_rbsa
from .strips import max_rbes
from .svg import render_svg

SHAPES = ("strip", "lcorridor", "square", "rect", "circle")

# a sign right after e or E belongs to an exponent, not to the next term
_TERM = re.compile(r"([+-]?(?:[eE][+-]|[^+-])+)")


def parse_line_spec(spec: str) -> Line:
    """Parse "a x + b y = c" shorthand such as y=0 or 2x-3y=6."""
    s = spec.replace(" ", "")
    if "=" not in s:
        raise ValueError("line must look like ax+by=c, got %r" % spec)
    lhs, rhs = s.split("=", 1)
    try:
        c = float(rhs)
    except ValueError:
        raise ValueError("bad right-hand side in %r" % spec) from None
    a = b = 0.0
    terms = _TERM.findall(lhs)
    if "".join(terms) != lhs:
        raise ValueError("bad term in %r" % spec)
    for term in terms:
        var = term[-1]
        coeff = term[:-1]
        if var not in "xy":
            raise ValueError("term %r has no x or y" % term)
        if coeff in ("", "+"):
            val = 1.0
        elif coeff == "-":
            val = -1.0
        else:
            try:
                val = float(coeff)
            except ValueError:
                raise ValueError("term %r has a bad coefficient in %r"
                                 % (term, spec)) from None
        if var == "x":
            a += val
        else:
            b += val
    if a == 0.0 and b == 0.0:
        raise ValueError("degenerate line %r" % spec)
    return Line(a, b, c)


def _epsilon() -> float:
    raw = os.environ.get("RBA_EPSILON")
    if raw is None:
        return DEFAULT_EPS
    try:
        eps = float(raw)
    except ValueError:
        raise ValueError("RBA_EPSILON=%r is not a number" % raw) from None
    if not (math.isfinite(eps) and eps >= 0):
        raise ValueError("RBA_EPSILON must be finite and >= 0")
    return eps


def solve_instance(shape: str, pointset: PointSet, eps: float,
                   line: Line = None):
    """(annulus_or_none, provenance) for one shape on one instance."""
    if shape == "strip":
        best = _widest(max_rbes(pointset, o, eps)
                       for o in ("vertical", "horizontal"))
        return best, "" if best is None else best.orientation + " strip"
    if shape == "lcorridor":
        got = max_rblc_all(pointset, eps)
        return got, "" if got is None else got.orientation + " corridor"
    if shape == "square":
        got = max_rbsa(pointset, eps)
        if got is None:
            return None, ""
        tags = {3: "strip family", 2: "corridor family"}
        return got, tags.get(len(got.infinite_sides), "bounded square")
    if shape == "rect":
        return max_rbra(pointset, eps=eps), "anchored walk"
    if shape == "circle":
        if line is not None:
            got = max_rbca_on_line(pointset, line, eps)
            return got, "center search on %gx+%gy=%g" % (line.a, line.b, line.c)
        return max_rbca(pointset, eps), "center search"
    raise ValueError("unknown shape %r" % shape)


def _cmd_gen(args) -> int:
    try:
        ps = generate_instance(args.n, args.k, args.dist, args.seed)
    except ValueError as exc:
        print("gen: %s" % exc, file=sys.stderr)
        return 1
    sys.stdout.write(format_instance(ps))
    return 0


def _cmd_solve(args) -> int:
    try:
        eps = _epsilon()
        line = None
        if args.line is not None:
            if args.shape != "circle":
                raise ValueError("--line is only valid with --shape circle")
            line = parse_line_spec(args.line)
    except ValueError as exc:
        print("solve: %s" % exc, file=sys.stderr)
        return 1
    try:
        ps = load_instance(args.input)
    except (OSError, ValueError) as exc:
        print("solve: %s: %s" % (args.input, exc), file=sys.stderr)
        return 1
    t0 = time.perf_counter()
    annulus, provenance = solve_instance(args.shape, ps, eps, line=line)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    if args.svg:
        try:
            with open(args.svg, "w", encoding="utf-8") as fh:
                fh.write(render_svg(ps, annulus))
        except OSError as exc:
            print("solve: %s" % exc, file=sys.stderr)
            return 1
    if annulus is None:
        print("infeasible: no annulus wider than %g" % eps)
        return 2
    report = SolutionReport.for_annulus(args.shape, annulus, provenance, wall_ms)
    if args.json:
        sys.stdout.write(report.to_json())
    else:
        print("shape: %s" % report.shape)
        print("width: %r" % report.width)
        geom = " ".join("%s=%r" % (k, v)
                        for k, v in sorted(report.geometry.items()))
        print("geometry: %s" % geom)
        print("provenance: %s" % provenance)
        print("wall_ms: %.3f" % wall_ms)
    return 0


def _cmd_check(args) -> int:
    try:
        eps = _epsilon()
        ps = load_instance(args.input)
        with open(args.solution, "r", encoding="utf-8") as fh:
            report = SolutionReport.from_json(fh.read())
    except (OSError, ValueError) as exc:
        print("check: %s" % exc, file=sys.stderr)
        return 1
    ok, msg = check_report(report, ps, eps)
    if not ok:
        print("check: %s" % msg, file=sys.stderr)
        return 1
    print("ok: %s annulus of width %r validates" % (report.shape, report.width))
    return 0


def _processor() -> str:
    # the CPU model: platform.processor(), or where that is empty (as it is
    # on Linux) the first "model name" line of /proc/cpuinfo, if readable
    import platform

    name = platform.processor()
    if not name:
        try:
            with open("/proc/cpuinfo", encoding="utf-8") as fh:
                name = next((line.split(":", 1)[1].strip() for line in fh
                             if line.startswith("model name")), "")
        except OSError:
            pass
    return name


def _cmd_bench(args) -> int:
    try:
        eps = _epsilon()
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
        if not sizes:
            raise ValueError("empty --sizes")
        if args.trials < 1:
            raise ValueError("--trials must be >= 1")
        # every instance up front, so bad sizes or k stop before any output
        pools = [[generate_instance(n, args.k, args.dist,
                                    args.seed + 97 * n + trial)
                  for trial in range(args.trials)] for n in sizes]
    except ValueError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 1
    print("n,k,mean_ms,width")
    logs = []
    rows = []
    for n, pool in zip(sizes, pools):
        # one untimed solve first, so that first-call costs fall in no trial
        solve_instance(args.shape, pool[0], eps)
        times = []
        widths = []
        for ps in pool:
            t0 = time.perf_counter()
            annulus, _ = solve_instance(args.shape, ps, eps)
            times.append((time.perf_counter() - t0) * 1000.0)
            widths.append(0.0 if annulus is None else annulus.width)
        mean_ms = sum(times) / len(times)
        logs.append((math.log(n), math.log(max(mean_ms, 1e-9))))
        rows.append({"n": n, "min_ms": min(times), "mean_ms": mean_ms,
                     "width": widths[0]})
        print("%d,%d,%.3f,%r" % (n, args.k, mean_ms, widths[0]))
    import platform

    import numpy as np

    slope = None
    if len(set(sizes)) >= 2:  # a line needs two distinct sizes
        slope = float(np.polyfit([t[0] for t in logs],
                                 [t[1] for t in logs], 1)[0])
        print("# slope %.3f" % slope)
    if args.json:
        report = {"shape": args.shape, "k": args.k, "dist": args.dist,
                  "seed": args.seed, "trials": args.trials, "sizes": rows,
                  "slope": slope,
                  # where the times were measured
                  "python": platform.python_version(), "numpy": np.__version__,
                  "machine": platform.machine(), "processor": _processor()}
        try:
            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=1)
                fh.write("\n")
        except OSError as exc:
            print("bench: %s" % exc, file=sys.stderr)
            return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rbannulus",
        description="Maximum-width rainbow-bisecting empty annuli over "
                    "colored planar point sets.")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="emit a random instance as CSV")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--dist", choices=GENERATOR_KINDS, default="uniform")
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(func=_cmd_gen)

    s = sub.add_parser("solve", help="solve one instance for one shape")
    s.add_argument("--shape", choices=SHAPES, required=True)
    s.add_argument("--input", required=True)
    s.add_argument("--line", help='circle only: constrain centers to "ax+by=c"')
    s.add_argument("--svg", help="also render the result to this file")
    s.add_argument("--json", action="store_true",
                   help="emit the report as JSON")
    s.set_defaults(func=_cmd_solve)

    c = sub.add_parser("check", help="re-validate a solution report")
    c.add_argument("--input", required=True)
    c.add_argument("--solution", required=True)
    c.set_defaults(func=_cmd_check)

    b = sub.add_parser("bench", help="time a solver over a size schedule")
    b.add_argument("--shape", choices=SHAPES, required=True)
    b.add_argument("--sizes", required=True,
                   help="comma-separated point counts")
    b.add_argument("--trials", type=int, default=3)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--k", type=int, default=3)
    b.add_argument("--dist", choices=GENERATOR_KINDS, default="uniform")
    b.add_argument("--json", metavar="PATH",
                   help="also write each size's min and mean ms and the "
                        "fitted slope of the mean to PATH as JSON")
    b.set_defaults(func=_cmd_bench)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
