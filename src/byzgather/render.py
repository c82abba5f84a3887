"""Standalone SVG rendering of an instance and its schedule.

Pure string construction: the same instance and schedule always produce
byte-identical SVG. Geometry is drawn in math orientation (y up), so all
y coordinates are negated for the SVG y-down convention.
"""

from .geom import minidisk
from .model import Instance, Schedule, finite_number

_PALETTE = [
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
    "#bcbd22",
    "#17becf",
]


def _fmt(v: float) -> str:
    return "%.6g" % (v + 0.0)


def render_svg(instance: Instance, schedule: Schedule) -> str:
    """SVG drawing: enclosing circle, robot trajectories, target markers."""
    mec = minidisk(instance.robots)
    cx, cy = mec.center
    r = mec.radius if mec.radius > 0.0 else 1.0
    view = 1.2 * r
    scale = r

    lines = []
    lines.append(
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'viewBox="%s %s %s %s">'
        % (_fmt(cx - view), _fmt(-cy - view), _fmt(2 * view), _fmt(2 * view))
    )
    arrow = scale * 0.03
    lines.append("<defs>")
    lines.append(
        '<marker id="arrow" viewBox="0 0 10 10" refX="9" refY="5" '
        'markerWidth="%s" markerHeight="%s" markerUnits="userSpaceOnUse" '
        'orient="auto-start-reverse">'
        '<path d="M 0 0 L 10 5 L 0 10 z" fill="#333333"/></marker>'
        % (_fmt(arrow), _fmt(arrow))
    )
    lines.append("</defs>")
    lines.append(
        '<circle cx="%s" cy="%s" r="%s" fill="none" stroke="#999999" '
        'stroke-width="%s" stroke-dasharray="%s %s"/>'
        % (
            _fmt(cx),
            _fmt(-cy),
            _fmt(mec.radius),
            _fmt(scale * 0.005),
            _fmt(scale * 0.02),
            _fmt(scale * 0.02),
        )
    )

    for i, traj in enumerate(schedule.trajectories):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join("%s,%s" % (_fmt(wp.pos.x), _fmt(-wp.pos.y)) for wp in traj)
        marker = ' marker-end="url(#arrow)"' if len(traj) > 1 else ""
        lines.append(
            '<polyline points="%s" fill="none" stroke="%s" stroke-width="%s"%s/>'
            % (pts, color, _fmt(scale * 0.008), marker)
        )

    for i, p in enumerate(instance.robots):
        color = _PALETTE[i % len(_PALETTE)]
        lines.append(
            '<circle cx="%s" cy="%s" r="%s" fill="%s"/>'
            % (_fmt(p.x), _fmt(-p.y), _fmt(scale * 0.02), color)
        )
        lines.append(
            '<text x="%s" y="%s" font-size="%s" fill="%s">R%d</text>'
            % (
                _fmt(p.x + scale * 0.03),
                _fmt(-p.y - scale * 0.03),
                _fmt(scale * 0.06),
                color,
                i,
            )
        )

    for key in ("D", "D_prime"):
        val = schedule.meta.get(key)
        if not (isinstance(val, (list, tuple)) and len(val) == 2):
            continue
        px, py = (finite_number(v, key) for v in val)
        arm = scale * 0.04
        for dx, dy in ((arm, arm), (arm, -arm)):
            lines.append(
                '<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="#111111" '
                'stroke-width="%s"/>'
                % (
                    _fmt(px - dx),
                    _fmt(-py - dy),
                    _fmt(px + dx),
                    _fmt(-py + dy),
                    _fmt(scale * 0.008),
                )
            )
        lines.append(
            '<text x="%s" y="%s" font-size="%s" fill="#111111">%s</text>'
            % (
                _fmt(px + scale * 0.05),
                _fmt(-py + scale * 0.05),
                _fmt(scale * 0.06),
                "D" if key == "D" else "D'",
            )
        )

    lines.append("</svg>")
    return "\n".join(lines) + "\n"
