"""SVG rendering of covers, from the boundary and area of a `CoverBundle`.

Arcs are emitted as native elliptical-arc path commands at their exact
radii (no polyline approximation).  Math coordinates are y-up; SVG is
y-down, so the mapping flips y and the sweep flag: a counterclockwise arc
in math coordinates is sweep-flag 0 on screen.
"""

from __future__ import annotations

import math

from .geometry import ArcPath, Seg


def _bbox(path: ArcPath):
    xs, ys = [], []
    for piece in path.pieces:
        if isinstance(piece, Seg):
            xs.extend((piece.x0, piece.x1))
            ys.extend((piece.y0, piece.y1))
        else:
            k = max(8, math.ceil(abs(piece.sweep) / 0.1))
            for j in range(k + 1):
                x, y = piece.point_at(j / k)
                xs.append(x)
                ys.append(y)
    return min(xs), min(ys), max(xs), max(ys)


def path_d(path: ArcPath, mapper) -> str:
    """SVG path data for an arc path under a coordinate mapper."""
    parts = []
    sx, sy = mapper(*path.pieces[0].start)
    parts.append(f"M {sx:.4f} {sy:.4f}")
    for piece in path.pieces:
        ex, ey = mapper(*piece.end)
        if isinstance(piece, Seg):
            parts.append(f"L {ex:.4f} {ey:.4f}")
        else:
            r = piece.r * mapper.scale
            large = 1 if abs(piece.sweep) > math.pi else 0
            sweep_flag = 0 if piece.ccw else 1
            parts.append(f"A {r:.4f} {r:.4f} 0 {large} {sweep_flag} "
                         f"{ex:.4f} {ey:.4f}")
    if path.is_closed():
        parts.append("Z")
    return " ".join(parts)


class _Mapper:
    def __init__(self, bbox, size, margin):
        x0, y0, x1, y1 = bbox
        self.scale = (size - 2 * margin) / max(x1 - x0, y1 - y0, 1e-9)
        self.x0, self.y1 = x0, y1
        self.margin = margin

    def __call__(self, x, y):
        return (self.margin + (x - self.x0) * self.scale,
                self.margin + (self.y1 - y) * self.scale)


def render_svg(cover, out_path=None, size: int = 640,
               stroke: float = 2.0) -> str:
    """Render a cover to an SVG string (and optional file), with its area.

    ValueError, before anything is written, unless size is positive and
    stroke finite and non-negative: either would make an invalid SVG.
    """
    if not size > 0:
        raise ValueError(f"size must be positive, got {size!r}")
    if not 0.0 <= stroke < math.inf:
        raise ValueError(f"stroke must be finite and non-negative, got {stroke!r}")
    path = cover.boundary
    bbox = _bbox(path)
    margin = size * 0.05
    mapper = _Mapper(bbox, size, margin)
    height = margin * 2 + (bbox[3] - bbox[1]) * mapper.scale
    d = path_d(path, mapper)
    label = f"area = {cover.area:.12f}"
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{height:.0f}" viewBox="0 0 {size} {height:.0f}">\n'
        f'  <path d="{d}" fill="#dbe7f5" stroke="#1f3a5f" '
        f'stroke-width="{stroke}" stroke-linejoin="round"/>\n'
        f'  <text x="{margin}" y="{height - margin / 2:.1f}" '
        f'font-family="monospace" font-size="{size / 40:.0f}">{label}</text>\n'
        f"</svg>\n"
    )
    if out_path is not None:
        with open(out_path, "w") as fh:
            fh.write(svg)
    return svg
