"""Static SVG rendering of a run: obstacles, mover traces, trajectory, sub-goals.

The writer builds the SVG by hand so output bytes depend only on the run data.
Exactly one <polyline> element is emitted per plotted trajectory; everything
else uses <path>, <rect> and <circle>.
"""
from __future__ import annotations

from .planner import RunResult
from .world import WorldMap

_OBSTACLE = "#444444"
_TRACE = "#888888"
_TRAJECTORY = "#1f6fb4"
_SUBGOAL = "#d81b30"
_START = "#2a9d2a"
_GOAL = "#e8801a"


def _f(v: float) -> str:
    return f"{v:.3f}"


def _star(cx: float, cy: float, outer: float) -> str:
    """Five-pointed star path centered at (cx, cy)."""
    import math
    inner = 0.4 * outer
    pts = []
    for k in range(10):
        radius = outer if k % 2 == 0 else inner
        ang = math.pi / 2 + k * math.pi / 5
        pts.append(f"{_f(cx + radius * math.cos(ang))},{_f(cy + radius * math.sin(ang))}")
    return "M" + " L".join(pts) + " Z"


def render_svg(world: WorldMap, result: RunResult, goal) -> str:
    cs = world.cell_size
    width = world.width * cs
    height = world.height * cs
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_f(width)} {_f(height)}" '
        f'width="{world.width * 16}" height="{world.height * 16}">',
        # world y grows upward; flip the y axis once for the whole drawing
        f'<g transform="translate(0,{_f(height)}) scale(1,-1)">',
        f'<rect x="0" y="0" width="{_f(width)}" height="{_f(height)}" fill="#ffffff"/>',
    ]
    for i, occupied in enumerate(world.cells):  # row-major, as np.argwhere lists cells
        if not occupied:
            continue
        r, c = divmod(i, world.width)
        parts.append(f'<rect x="{_f(c * cs)}" y="{_f(r * cs)}" width="{_f(cs)}" '
                     f'height="{_f(cs)}" fill="{_OBSTACLE}"/>')
    for mover in world.movers:
        pts = " L".join(f"{_f((c + 0.5) * cs)},{_f((r + 0.5) * cs)}" for r, c in mover.waypoints)
        parts.append(f'<path d="M{pts}" fill="none" stroke="{_TRACE}" '
                     f'stroke-width="{_f(0.15 * cs)}" stroke-dasharray="{_f(0.4 * cs)}"/>')
        r0, c0 = mover.waypoints[0]
        parts.append(f'<rect x="{_f(c0 * cs + 0.2 * cs)}" y="{_f(r0 * cs + 0.2 * cs)}" '
                     f'width="{_f(0.6 * cs)}" height="{_f(0.6 * cs)}" fill="{_TRACE}"/>')
    for rec in result.records:
        if rec.subgoal is not None:
            parts.append(f'<path d="{_star(rec.subgoal[0], rec.subgoal[1], 0.45 * cs)}" '
                         f'fill="{_SUBGOAL}"/>')
    traj = " ".join(f"{_f(p.x)},{_f(p.y)}" for p in result.poses)
    parts.append(f'<polyline points="{traj}" fill="none" stroke="{_TRAJECTORY}" '
                 f'stroke-width="{_f(0.22 * cs)}" stroke-linejoin="round"/>')
    sx, sy = result.poses[0].x, result.poses[0].y
    parts.append(f'<circle cx="{_f(sx)}" cy="{_f(sy)}" r="{_f(0.35 * cs)}" fill="{_START}"/>')
    parts.append(f'<circle cx="{_f(goal[0])}" cy="{_f(goal[1])}" r="{_f(0.35 * cs)}" '
                 f'fill="none" stroke="{_GOAL}" stroke-width="{_f(0.15 * cs)}"/>')
    parts.append("</g></svg>")
    return "\n".join(parts) + "\n"


def write_svg(path, world: WorldMap, result: RunResult, goal) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(render_svg(world, result, goal))
