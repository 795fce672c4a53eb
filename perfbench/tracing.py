"""Per-layer timing of rbannulus, taken from outside the library.

A Tracer replaces public functions and methods of the library's modules
with timing wrappers, aggregates count, total seconds and self seconds per
wrapped name, and puts every original object back on exit.  Nothing under
src/ records anything: the wrappers live only here, and only while a
traced run has them installed.

A function imported by name into several modules (cli, squares and the
package itself re-export solvers) is replaced in every rbannulus module
that holds it, so callers that reach it through any namespace are timed.
For a generator function the time is measured inside each next() and the
count is the number of items it yielded.  A name that no longer exists is
reported as absent and left alone.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# (span name, module under rbannulus, attribute path in that module)
TARGETS = (
    ("circles.max_rbca", "circles", "max_rbca"),
    ("circles.max_rbca_on_line", "circles", "max_rbca_on_line"),
    ("circles.cir22", "circles", "cir22_candidates"),
    ("circles.cir21", "circles", "cir21_candidates"),
    ("circles.far", "circles", "far_field_candidates"),
    ("circles.point", "circles", "point_center_candidates"),
    ("circles.finalist", "circles", "best_annulus_at_center"),
    ("rect.max_rbra", "rect", "max_rbra"),
    ("rect.gap_tree_build", "rect", "GapPointTree.__init__"),
    ("rect.color_tree_build", "rect", "ColorRangeTrees.from_sorted"),
    ("squares.max_rbsa", "squares", "max_rbsa"),
    ("squares.c3", "squares", "max_rbsa_c3"),
    ("lcorridor.max_rblc", "lcorridor", "max_rblc"),
    ("lcorridor.gap_insert", "lcorridor", "GapTree.insert"),
    ("lcorridor.gap_query", "lcorridor", "GapTree.query"),
    ("lcorridor.band_query", "lcorridor", "MaxCoordTree.max_in_open_band"),
    ("lcorridor.gap_tree_build", "lcorridor", "GapTree.__init__"),
    ("lcorridor.band_tree_build", "lcorridor", "MaxCoordTree.__init__"),
    ("strips.max_rbes", "strips", "max_rbes"),
    ("core.build", "core", "PointSet.build"),
    ("instances.generate", "instances", "generate_instance"),
    ("instances.parse", "instances", "parse_instance"),
)

_CANDIDATE_SPANS = ("circles.point", "circles.cir22", "circles.cir21",
                    "circles.far")


def _library_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None
            and (name == "rbannulus" or name.startswith("rbannulus."))]


class Tracer:
    """Install with ``with Tracer():``; read ``stats`` and ``absent`` after.

    ``stats[name]`` is ``[count, total_s, self_s]``; self time is the span
    minus the spans of wrapped callees that ran inside it.
    """

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.stats = {name: [0, 0.0, 0.0] for name, _, _ in self.targets}
        self.absent = []
        self._stack = []
        self._saved = []  # (owner, attribute, original value), install order

    # -- wrappers -----------------------------------------------------------

    def _timed(self, name, fn):
        stats, stack, clock = self.stats[name], self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - inner
                if stack:
                    stack[-1] += dt

        return wrapper

    def _timed_gen(self, name, fn):
        stats, stack, clock = self.stats[name], self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                stack.append(0.0)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dt = clock() - t0
                    inner = stack.pop()
                    stats[1] += dt
                    stats[2] += dt - inner
                    if stack:
                        stack[-1] += dt
                stats[0] += 1
                yield item

        return wrapper

    def _wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            return self._timed_gen(name, fn)
        return self._timed(name, fn)

    # -- install / restore --------------------------------------------------

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.absent = []
        modules = _library_modules()
        for name, module, path in self.targets:
            try:
                owner = importlib.import_module("rbannulus." + module)
            except ImportError:
                self.absent.append(name)
                continue
            *outer, attr = path.split(".")
            for part in outer:
                owner = vars(owner).get(part)
                if owner is None:
                    break
            raw = None if owner is None else vars(owner).get(attr)
            if raw is None:
                self.absent.append(name)
                continue
            if isinstance(owner, type):
                if isinstance(raw, (classmethod, staticmethod)):
                    value = type(raw)(self._wrap(name, raw.__func__))
                else:
                    value = self._wrap(name, raw)
                self._set(owner, attr, value)
                continue
            # a module-level function: replace it wherever it was imported
            value = self._wrap(name, raw)
            for mod in modules:
                for key, held in list(vars(mod).items()):
                    if held is raw:
                        self._set(mod, key, value)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def layer_metrics(stats, overhead_s):
    """Per-layer metrics as {name: (value, unit)} from aggregated spans."""

    def n(span):
        return stats[span][0]

    def s(span):
        return stats[span][1]

    def self_s(span):
        return stats[span][2]

    candidates = sum(n(span) for span in _CANDIDATE_SPANS)
    finalist_ratio = n("circles.finalist") / candidates if candidates else 0.0
    return {
        "circles.max_rbca_s": (s("circles.max_rbca"), "s"),
        "circles.max_rbca_on_line_s": (s("circles.max_rbca_on_line"), "s"),
        "circles.cir22_n": (n("circles.cir22"), "count"),
        "circles.cir22_s": (s("circles.cir22"), "s"),
        "circles.cir21_n": (n("circles.cir21"), "count"),
        "circles.cir21_s": (s("circles.cir21"), "s"),
        "circles.far_n": (n("circles.far"), "count"),
        "circles.far_s": (s("circles.far"), "s"),
        "circles.point_n": (n("circles.point"), "count"),
        "circles.finalist_n": (n("circles.finalist"), "count"),
        "circles.finalist_s": (s("circles.finalist"), "s"),
        "circles.finalist_ratio": (finalist_ratio, "ratio"),
        "circles.score_s": (self_s("circles.max_rbca")
                            + self_s("circles.max_rbca_on_line"), "s"),
        "rect.max_rbra_s": (s("rect.max_rbra"), "s"),
        "rect.gap_tree_build_n": (n("rect.gap_tree_build"), "count"),
        "rect.gap_tree_build_s": (s("rect.gap_tree_build"), "s"),
        "rect.color_tree_build_n": (n("rect.color_tree_build"), "count"),
        "rect.color_tree_build_s": (s("rect.color_tree_build"), "s"),
        "rect.self_s": (self_s("rect.max_rbra"), "s"),
        "squares.max_rbsa_s": (s("squares.max_rbsa"), "s"),
        "squares.c3_s": (s("squares.c3"), "s"),
        "lcorridor.max_rblc_n": (n("lcorridor.max_rblc"), "count"),
        "lcorridor.max_rblc_s": (s("lcorridor.max_rblc"), "s"),
        "lcorridor.gap_insert_n": (n("lcorridor.gap_insert"), "count"),
        "lcorridor.gap_insert_s": (s("lcorridor.gap_insert"), "s"),
        "lcorridor.gap_query_n": (n("lcorridor.gap_query"), "count"),
        "lcorridor.gap_query_s": (s("lcorridor.gap_query"), "s"),
        "lcorridor.band_query_n": (n("lcorridor.band_query"), "count"),
        "lcorridor.band_query_s": (s("lcorridor.band_query"), "s"),
        "lcorridor.tree_build_s": (s("lcorridor.gap_tree_build")
                                   + s("lcorridor.band_tree_build"), "s"),
        "lcorridor.self_s": (self_s("lcorridor.max_rblc"), "s"),
        "strips.max_rbes_n": (n("strips.max_rbes"), "count"),
        "strips.max_rbes_s": (s("strips.max_rbes"), "s"),
        "core.build_s": (s("core.build"), "s"),
        "instances.generate_s": (s("instances.generate"), "s"),
        "instances.parse_s": (s("instances.parse"), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
