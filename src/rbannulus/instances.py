"""Instance files, generators, and solution reports.

The one instance format is CSV with the exact header ``x,y,color``, one
point per line, colors as positive integers starting at 1.  k is inferred
as the largest color present.  Reports are JSON documents that carry
enough geometry to rebuild the annulus object and re-validate it.
"""

import dataclasses
import json
import math
import random

from .core import (
    DEFAULT_EPS,
    CircularAnnulus,
    LCorridor,
    PointSet,
    RectAnnulus,
    SquareAnnulus,
    Strip,
    validate_solution,
)

HEADER = "x,y,color"

GENERATOR_KINDS = ("uniform", "clusters", "rings")


class InstanceError(ValueError):
    """Malformed instance file; carries the 1-based offending line."""

    def __init__(self, line, message):
        self.line = line
        super().__init__("line %d: %s" % (line, message) if line else message)


def format_instance(pointset: PointSet) -> str:
    rows = [HEADER]
    for p in pointset.points:
        rows.append("%r,%r,%d" % (p.x, p.y, p.color))
    return "\n".join(rows) + "\n"


def parse_instance(text: str) -> PointSet:
    lines = text.splitlines()
    if not lines or lines[0].strip() != HEADER:
        raise InstanceError(1, "expected header %r" % HEADER)
    pts = []
    for no, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = [f.strip() for f in raw.split(",")]
        if len(parts) != 3:
            raise InstanceError(no, "expected 3 fields, got %d" % len(parts))
        try:
            x = float(parts[0])
            y = float(parts[1])
        except ValueError:
            raise InstanceError(no, "bad coordinate in %r" % raw) from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise InstanceError(no, "non-finite coordinate in %r" % raw)
        try:
            color = int(parts[2])
        except ValueError:
            raise InstanceError(no, "bad color in %r" % raw) from None
        if color < 1:
            raise InstanceError(no, "color must be a positive integer")
        pts.append((x, y, color))
    if not pts:
        raise InstanceError(len(lines) + 1, "no points")
    k = max(p[2] for p in pts)
    try:
        return PointSet.build(pts, k)
    except ValueError as exc:
        raise InstanceError(0, str(exc)) from None


def load_instance(path) -> PointSet:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def save_instance(pointset: PointSet, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_instance(pointset))


# ---------------------------------------------------------------------------
# generators


def _cycle_colors(rng, m, k):
    colors = [(i % k) + 1 for i in range(m)]
    rng.shuffle(colors)
    return colors


def generate_instance(n: int, k: int, dist: str = "uniform",
                      seed: int = 0) -> PointSet:
    """Deterministic random instance with every color used at least twice.

    clusters puts two well-separated groups, each containing every color,
    so the separating shapes stay feasible; rings nests two color-complete
    circles around a common center for the circular solver.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if 2 * k > n:
        raise ValueError("need k <= n/2, got k=%d n=%d" % (k, n))
    if dist not in GENERATOR_KINDS:
        raise ValueError("unknown generator %r" % dist)
    rng = random.Random(seed)
    pts = []
    if dist == "uniform":
        colors = _cycle_colors(rng, n, k)
        for c in colors:
            pts.append((rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0), c))
    elif dist == "clusters":
        half = n // 2
        for m, (cx, cy) in ((half, (20.0, 20.0)), (n - half, (80.0, 80.0))):
            colors = _cycle_colors(rng, m, k)
            for c in colors:
                pts.append((cx + rng.uniform(-8.0, 8.0),
                            cy + rng.uniform(-8.0, 8.0), c))
    else:
        half = n // 2
        for m, radius in ((half, 15.0), (n - half, 45.0)):
            colors = _cycle_colors(rng, m, k)
            for t, c in enumerate(colors):
                ang = 2.0 * math.pi * (t + rng.uniform(-0.2, 0.2)) / m
                r = radius + rng.uniform(-2.0, 2.0)
                pts.append((50.0 + r * math.cos(ang),
                            50.0 + r * math.sin(ang), c))
    return PointSet.build(pts, k)


# ---------------------------------------------------------------------------
# solution reports

_SHAPE_TYPES = {
    "strip": Strip,
    "lcorridor": LCorridor,
    "square": SquareAnnulus,
    "rect": RectAnnulus,
    "circle": CircularAnnulus,
}


def _enc(v):
    if isinstance(v, float):
        if v == math.inf:
            return "inf"
        if v == -math.inf:
            return "-inf"
    return v


def _dec(v):
    if v == "inf":
        return math.inf
    if v == "-inf":
        return -math.inf
    return v


def _number(v, what):
    v = _dec(v)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError("report %s must be a number, got %r" % (what, v))
    return v


@dataclasses.dataclass(frozen=True)
class SolutionReport:
    shape: str
    width: float
    geometry: dict
    provenance: str
    wall_ms: float

    @classmethod
    def for_annulus(cls, shape, annulus, provenance, wall_ms):
        if shape not in _SHAPE_TYPES:
            raise ValueError("unknown shape %r" % shape)
        return cls(shape, annulus.width, dataclasses.asdict(annulus),
                   provenance, wall_ms)

    def annulus(self):
        """Rebuild the geometry object this report describes."""
        typ = _SHAPE_TYPES[self.shape]
        fields = {f.name for f in dataclasses.fields(typ)}
        missing = fields - set(self.geometry)
        if missing:
            raise ValueError("report geometry missing %s" % sorted(missing))
        return typ(**{k: self.geometry[k] for k in fields})

    def to_json(self) -> str:
        doc = {
            "shape": self.shape,
            "width": _enc(self.width),
            "geometry": {k: _enc(v) for k, v in sorted(self.geometry.items())},
            "provenance": self.provenance,
            "wall_ms": self.wall_ms,
        }
        return json.dumps(doc, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "SolutionReport":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("report must be a JSON object")
        for key in ("shape", "width", "geometry"):
            if key not in doc:
                raise ValueError("report missing %r" % key)
        shape = doc["shape"]
        if not isinstance(shape, str) or shape not in _SHAPE_TYPES:
            raise ValueError("unknown shape %r" % shape)
        if not isinstance(doc["geometry"], dict):
            raise ValueError("report geometry must be a JSON object")
        return cls(
            shape,
            float(_number(doc["width"], "width")),
            {k: v if k == "orientation" else _number(v, k)
             for k, v in doc["geometry"].items()},
            doc.get("provenance", ""),
            float(_number(doc.get("wall_ms", 0.0), "wall_ms")),
        )


def check_report(report: SolutionReport, pointset: PointSet,
                 eps: float = DEFAULT_EPS):
    """(ok, message) after rebuilding and re-validating the report."""
    try:
        ann = report.annulus()
        got = ann.width
    except (TypeError, ValueError) as exc:
        return False, "cannot rebuild geometry: %s" % exc
    if not math.isclose(got, report.width, rel_tol=1e-9, abs_tol=1e-9):
        return False, "reported width %r but geometry gives %r" % (
            report.width, got)
    if not validate_solution(ann, pointset, eps):
        return False, "geometry is not a valid bisecting annulus for the instance"
    return True, "ok"
