"""Self-contained SVG line charts for difference trajectories.

No external assets, fonts or scripts: straight SVG 1.1 with inline
styling.  Sample trajectories are drawn as light polylines, the mean as a
bold one, so a chart holds exactly plot_paths + 1 polyline elements.
"""

from __future__ import annotations

import os

from . import _np as np
from .simulation import ExperimentResult

__all__ = ["render_svg"]

_WIDTH = 760
_HEIGHT = 480
_MARGIN_LEFT = 72
_MARGIN_RIGHT = 16
_MARGIN_TOP = 16
_MARGIN_BOTTOM = 52

_PATH_STYLE = 'fill="none" stroke="#8aa0b4" stroke-width="1" stroke-opacity="0.65"'
_MEAN_STYLE = 'fill="none" stroke="#b03722" stroke-width="2.5"'
_AXIS_STYLE = 'stroke="#333333" stroke-width="1"'
_GRID_STYLE = 'stroke="#999999" stroke-width="0.5" stroke-dasharray="4 3"'
_TEXT = 'font-family="sans-serif" font-size="12" fill="#333333"'


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def render_svg(result: ExperimentResult, path: str | os.PathLike) -> None:
    """Render sample trajectories plus the mean trajectory to an SVG file.

    The first ``config.plot_paths`` replicates are drawn individually;
    the mean is drawn last and bold.  An empty result is an error and no
    file is created.
    """
    if result.diffs.size == 0:
        raise ValueError("nothing to plot: experiment result is empty")
    shown = min(result.config.plot_paths, result.replicates)
    n = result.n_steps
    series = [result.diffs[r] for r in range(shown)] + [result.mean_diff]

    lo = min(float(s.min()) for s in series)
    hi = max(float(s.max()) for s in series)
    lo, hi = min(lo, 0.0), max(hi, 0.0)
    pad = 0.05 * (hi - lo) if hi > lo else 1.0
    lo, hi = lo - pad, hi + pad

    x0, x1 = _MARGIN_LEFT, _WIDTH - _MARGIN_RIGHT
    y0, y1 = _HEIGHT - _MARGIN_BOTTOM, _MARGIN_TOP
    x_span = max(n - 1, 1)

    def sx(step: int) -> float:
        return x0 + (x1 - x0) * (step - 1) / x_span

    def sy(value: float) -> float:
        return y0 + (y1 - y0) * (value - lo) / (hi - lo)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
    ]

    for tick in np.linspace(1, n, num=min(5, n)):
        px = sx(float(tick))
        parts.append(f'<line x1="{px:.2f}" y1="{y0}" x2="{px:.2f}" y2="{y0 + 5}" {_AXIS_STYLE}/>')
        parts.append(
            f'<text x="{px:.2f}" y="{y0 + 18}" text-anchor="middle" {_TEXT}>'
            f"{_fmt(round(float(tick)))}</text>"
        )
    for tick in np.linspace(lo, hi, num=5):
        py = sy(float(tick))
        parts.append(f'<line x1="{x0 - 5}" y1="{py:.2f}" x2="{x0}" y2="{py:.2f}" {_AXIS_STYLE}/>')
        parts.append(
            f'<text x="{x0 - 8}" y="{py + 4:.2f}" text-anchor="end" {_TEXT}>'
            f"{_fmt(float(tick))}</text>"
        )

    if lo < 0.0 < hi:
        zero_y = sy(0.0)
        parts.append(f'<line x1="{x0}" y1="{zero_y:.2f}" x2="{x1}" y2="{zero_y:.2f}" {_GRID_STYLE}/>')

    for index, values in enumerate(series):
        style = _MEAN_STYLE if index == len(series) - 1 else _PATH_STYLE
        points = " ".join(f"{sx(i + 1):.2f},{sy(float(v)):.2f}" for i, v in enumerate(values))
        parts.append(f'<polyline {style} points="{points}"/>')

    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" {_AXIS_STYLE}/>')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" {_AXIS_STYLE}/>')
    parts.append(
        f'<text x="{(x0 + x1) / 2:.2f}" y="{_HEIGHT - 14}" text-anchor="middle" {_TEXT}>n</text>'
    )
    parts.append(
        f'<text x="16" y="{(y0 + y1) / 2:.2f}" text-anchor="middle" {_TEXT} '
        f'transform="rotate(-90 16 {(y0 + y1) / 2:.2f})">cumulative score difference</text>'
    )
    parts.append("</svg>")

    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(parts) + "\n")
