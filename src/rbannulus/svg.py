"""SVG rendering of instances and annuli.

The drawing frame is y-up: geometry coordinates are used directly and the
whole scene is flipped once. The viewBox fits the points plus any finite
annulus geometry with a 5% margin. Boundary parts that run to infinity
are clipped at the view edge and drawn dashed; fully bounded boundaries
are solid.
"""

import math

PALETTE = (
    "#d33", "#36c", "#2a2", "#d80", "#848",
    "#087", "#b22e6f", "#666",
)

_DASH = ' stroke-dasharray="4 3"'


def _finite(vals):
    return [v for v in vals if math.isfinite(v)]


def _rect_sides(l, r, b, t, view):
    """Segments for the boundary of an axis-parallel rectangle, clamping
    rays at the view edge.  A side whose perpendicular neighbours are not
    both finite got clipped, so it is dashed."""
    vl, vr, vb, vt = view
    clip_x = not (math.isfinite(b) and math.isfinite(t))
    clip_y = not (math.isfinite(l) and math.isfinite(r))
    segs = [(x, max(b, vb), x, min(t, vt), clip_x) for x in (l, r) if math.isfinite(x)]
    segs += [(max(l, vl), y, min(r, vr), y, clip_y) for y in (b, t) if math.isfinite(y)]
    return segs


def _annulus_segments(annulus, view):
    """(segments, circles) drawing the annulus boundary inside view.  Every
    annulus but the circular one is drawn from its outer and inner boxes,
    whose sides at infinity have no segment."""
    from .core import CircularAnnulus, LCorridor, RectAnnulus, SquareAnnulus, Strip

    if isinstance(annulus, CircularAnnulus):
        return [], [(annulus.center_x, annulus.center_y, annulus.r_in),
                    (annulus.center_x, annulus.center_y, annulus.r_out)]
    if not isinstance(annulus, (Strip, LCorridor, SquareAnnulus, RectAnnulus)):
        raise ValueError("cannot render %r" % type(annulus).__name__)
    return [seg for box in (annulus.outer_sides, annulus.inner_sides)
            for seg in _rect_sides(*box, view)], []


def render_svg(pointset, annulus=None, size: float = 640.0) -> str:
    """Standalone SVG of the instance and (optionally) one annulus."""
    xs = [p.x for p in pointset.points]
    ys = [p.y for p in pointset.points]
    if annulus is not None:
        segs0, circ0 = _annulus_segments(
            annulus, (min(xs), max(xs), min(ys), max(ys)))
        for x1, y1, x2, y2, _ in segs0:
            xs.extend(_finite([x1, x2]))
            ys.extend(_finite([y1, y2]))
        for cx, cy, r in circ0:
            xs.extend([cx - r, cx + r])
            ys.extend([cy - r, cy + r])
    spanx = max(max(xs) - min(xs), 1e-6)
    spany = max(max(ys) - min(ys), 1e-6)
    pad = 0.05 * max(spanx, spany)
    view = (min(xs) - pad, max(xs) + pad, min(ys) - pad, max(ys) + pad)
    vl, vr, vb, vt = view
    w, h = vr - vl, vt - vb
    scale = size / max(w, h)
    stroke = max(w, h) / 320.0
    rpt = 2.2 * stroke

    def X(x):
        return (x - vl) * scale

    def Y(y):
        return (vt - y) * scale  # y-up: flip once here

    out = []
    out.append(
        '<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" '
        'viewBox="0 0 %.3f %.3f">' % (w * scale, h * scale, w * scale, h * scale))
    out.append('<rect width="100%" height="100%" fill="white"/>')
    out.append('<g class="annulus" fill="none" stroke="#222" '
               'stroke-width="%.3f">' % (stroke * scale))
    if annulus is not None:
        segs, circles = _annulus_segments(annulus, view)
        for x1, y1, x2, y2, clipped in segs:
            out.append('<line x1="%.3f" y1="%.3f" x2="%.3f" y2="%.3f"%s/>'
                       % (X(x1), Y(y1), X(x2), Y(y2), _DASH if clipped else ""))
        for cx, cy, r in circles:
            out.append('<circle cx="%.3f" cy="%.3f" r="%.3f"/>'
                       % (X(cx), Y(cy), r * scale))
    out.append('</g>')
    for p in pointset.points:
        fill = PALETTE[(p.color - 1) % len(PALETTE)]
        out.append('<circle class="pt c%d" cx="%.3f" cy="%.3f" r="%.3f" '
                   'fill="%s"/>' % (p.color, X(p.x), Y(p.y), rpt * scale, fill))
    out.append('</svg>')
    return "\n".join(out) + "\n"
