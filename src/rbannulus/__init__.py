"""Maximum-width rainbow-bisecting empty annuli over colored planar point sets.

The package exports the solvers, the geometry types and instance I/O.
Decision ops, candidate generators and query structures live in their
modules (``rbannulus.rect``, ``rbannulus.circles``, ``rbannulus.lcorridor``,
``rbannulus.squares``, ``rbannulus.strips``).  ``rbannulus.oracle`` (brute
force) and ``rbannulus.reference`` (the plain rect walk and the paper's
interval and lift constructions) are what the tests compare against; the
package does not import them.
"""

from .core import (
    DEFAULT_EPS,
    INF,
    CircularAnnulus,
    ColoredPoint,
    LCorridor,
    L_ORIENTATIONS,
    Line,
    PointSet,
    RectAnnulus,
    Region,
    SquareAnnulus,
    Strip,
    classify,
    validate_solution,
)
from .circles import max_rbca, max_rbca_on_line
from .instances import (
    GENERATOR_KINDS,
    InstanceError,
    SolutionReport,
    check_report,
    format_instance,
    generate_instance,
    load_instance,
    parse_instance,
    save_instance,
)
from .lcorridor import max_rblc, max_rblc_all
from .rect import max_rbra
from .squares import max_rbsa
from .strips import max_rbes
from .svg import render_svg

__all__ = [
    "DEFAULT_EPS",
    "INF",
    "CircularAnnulus",
    "ColoredPoint",
    "LCorridor",
    "L_ORIENTATIONS",
    "Line",
    "PointSet",
    "RectAnnulus",
    "Region",
    "SquareAnnulus",
    "Strip",
    "classify",
    "validate_solution",
    "max_rbca",
    "max_rbca_on_line",
    "max_rbes",
    "max_rblc",
    "max_rblc_all",
    "max_rbra",
    "max_rbsa",
    "GENERATOR_KINDS",
    "InstanceError",
    "SolutionReport",
    "check_report",
    "format_instance",
    "generate_instance",
    "load_instance",
    "parse_instance",
    "render_svg",
    "save_instance",
]
