"""File emission: CSV series, profile snapshots, JSON reports, SVG plots.

Every float in a data file is printed with 17 significant digits and no
file carries wall-clock timestamps, so identical runs produce byte-equal
outputs.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

TIMESERIES_HEADER = "t,g_front,h_front,mass_u,sup_u,v_dev_L"
SVG_WIDTH, SVG_HEIGHT = 840, 480


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def sanitize(obj):
    """Make a report JSON-safe: numpy scalars to python, non-finite clamped."""
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            return None
        if math.isinf(x):
            return 1e308 if x > 0 else -1e308
        return x
    return obj


def write_timeseries_csv(path: Path, series) -> None:
    lines = [TIMESERIES_HEADER]
    for i in range(series.t.size):
        lines.append(
            ",".join(
                fmt(col[i])
                for col in (
                    series.t,
                    series.g_front,
                    series.h_front,
                    series.mass_u,
                    series.sup_u,
                    series.v_dev_L,
                )
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")


def write_snapshot(path: Path, x: np.ndarray, u: np.ndarray, v: np.ndarray) -> None:
    lines = ["# x u v"]
    for xi, ui, vi in zip(x, u, v):
        lines.append(f"{fmt(xi)} {fmt(ui)} {fmt(vi)}")
    Path(path).write_text("\n".join(lines) + "\n")


def snapshot_name(t: float) -> str:
    return f"snapshot_t{t:014.6f}.txt"


def write_report_json(path: Path, report: dict) -> None:
    Path(path).write_text(json.dumps(sanitize(report), indent=2, sort_keys=True) + "\n")


def write_eigen_curve(path: Path, pairs) -> None:
    lines = [f"{fmt(l)} {fmt(lam)}" for l, lam in pairs]
    Path(path).write_text("\n".join(lines) + "\n")


def write_sweep_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, float):
                cells.append(fmt(cell))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


# -- dependency-light SVG ----------------------------------------------------

def _polyline(xs, ys, x0, x1, y0, y1, width, height, pad, color):
    sx = (width - 2 * pad) / (x1 - x0) if x1 > x0 else 1.0
    sy = (height - 2 * pad) / (y1 - y0) if y1 > y0 else 1.0
    pts = " ".join(
        f"{pad + (x - x0) * sx:.2f},{height - pad - (y - y0) * sy:.2f}"
        for x, y in zip(xs, ys)
    )
    return (
        f'<polyline fill="none" stroke="{color}" stroke-width="1.2" points="{pts}"/>'
    )


def write_profile_svg(
    path: Path,
    x: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    g_front: float,
    h_front: float,
) -> None:
    """Final-profile plot: u and v polylines with front markers and axes."""
    width, height = SVG_WIDTH, SVG_HEIGHT
    pad = 48.0
    x0, x1 = float(x[0]), float(x[-1])
    y0 = 0.0
    y1 = max(1.05, float(u.max(initial=0.0)) * 1.05, float(v.max(initial=0.0)) * 1.05)
    sx = (width - 2 * pad) / (x1 - x0) if x1 > x0 else 1.0

    def xpix(val):
        return pad + (val - x0) * sx

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{pad}" y="{pad}" width="{width - 2 * pad}" height="{height - 2 * pad}" '
        f'fill="none" stroke="black" stroke-width="1"/>',
        _polyline(x, u, x0, x1, y0, y1, width, height, pad, "#c0392b"),
        _polyline(x, v, x0, x1, y0, y1, width, height, pad, "#2980b9"),
    ]
    for front in (g_front, h_front):
        parts.append(
            f'<line x1="{xpix(front):.2f}" y1="{pad}" x2="{xpix(front):.2f}" '
            f'y2="{height - pad}" stroke="#7f8c8d" stroke-dasharray="4,3" stroke-width="1"/>'
        )
    parts.append(
        f'<text x="{pad}" y="{pad - 12}" font-family="monospace" font-size="12">'
        f"u (red), v (blue); fronts at {g_front:.4g}, {h_front:.4g}; "
        f"x in [{x0:.4g}, {x1:.4g}]</text>"
    )
    parts.append(
        f'<text x="{pad}" y="{height - pad + 24}" font-family="monospace" font-size="12">'
        f"y range [0, {y1:.4g}]</text>"
    )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
