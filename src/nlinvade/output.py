"""Every file format: tables through the one table writer `write_rows`,
JSON reports through `report_text` (which the CLI also prints), SVG plots.

Every float in a data file is printed with 17 significant digits and no
file carries wall-clock timestamps, so identical runs produce byte-equal
outputs.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import ConfigInvalid

TIMESERIES_HEADER = "t,g_front,h_front,mass_u,sup_u,v_dev_L"
SVG_WIDTH, SVG_HEIGHT = 840, 480


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def make_outdir(path) -> Path:
    """The directory ``path``, made if missing; an OSError is ConfigInvalid at output.directory."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigInvalid(f"cannot create the output directory: {exc}", path="output.directory")
    return Path(path)


def write_rows(path: Path, rows, header: str | None = None, sep: str = ",") -> None:
    """The header line (when given), then one line per row: its cells joined
    by ``sep``, floats (numpy floats included) by `fmt`, any other by ``str``."""
    lines = [] if header is None else [header]
    # fmt inlined for floats (np.float64 too): a call per cell costs a third more
    lines += [sep.join([f"{c:.17g}" if isinstance(c, float)
                        else fmt(c) if isinstance(c, np.floating) else str(c) for c in row])
              for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


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


def report_text(report: dict) -> str:
    """A report as JSON: sanitized, keys sorted, indented, newline-terminated."""
    return json.dumps(sanitize(report), indent=2, sort_keys=True) + "\n"


def write_report_json(path: Path, report: dict) -> None:
    Path(path).write_text(report_text(report))


def write_timeseries_csv(path: Path, series) -> None:
    cols = (series.t, series.g_front, series.h_front, series.mass_u, series.sup_u, series.v_dev_L)
    write_rows(path, zip(*(c.tolist() for c in cols)), TIMESERIES_HEADER)


def write_snapshot(path: Path, x: np.ndarray, u: np.ndarray, v: np.ndarray) -> None:
    write_rows(path, zip(x.tolist(), u.tolist(), v.tolist()), "# x u v", " ")


def snapshot_name(t: float) -> str:
    return f"snapshot_t{t:014.6f}.txt"


def write_eigen_curve(path: Path, pairs) -> None:
    write_rows(path, pairs, sep=" ")


def write_sweep_csv(path: Path, header: list[str], rows: list[list]) -> None:
    write_rows(path, rows, ",".join(header))


def write_ode_csv(path: Path, traj) -> None:
    write_rows(path, zip(traj.t.tolist(), traj.u.tolist(), traj.v.tolist()), "t,u,v")


# -- dependency-light SVG ----------------------------------------------------

def write_profile_svg(path: Path, x: np.ndarray, u: np.ndarray, v: np.ndarray,
                      g_front: float, h_front: float) -> None:
    """Final-profile plot: u and v polylines with front markers and axes."""
    width, height, pad = SVG_WIDTH, SVG_HEIGHT, 48.0
    x0, x1 = float(x[0]), float(x[-1])
    y1 = max(1.05, float(u.max(initial=0.0)) * 1.05, float(v.max(initial=0.0)) * 1.05)
    sx = (width - 2 * pad) / (x1 - x0) if x1 > x0 else 1.0
    sy = (height - 2 * pad) / y1  # the y axis starts at 0

    def polyline(ys, color):
        # Python floats: formatting numpy scalars one by one takes twice as long
        pts = " ".join(f"{pad + (a - x0) * sx:.2f},{height - pad - b * sy:.2f}"
                       for a, b in zip(x.tolist(), ys.tolist()))
        return f'<polyline fill="none" stroke="{color}" stroke-width="1.2" points="{pts}"/>'

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{pad}" y="{pad}" width="{width - 2 * pad}" height="{height - 2 * pad}" '
        f'fill="none" stroke="black" stroke-width="1"/>',
        polyline(u, "#c0392b"),
        polyline(v, "#2980b9"),
        *(f'<line x1="{px:.2f}" y1="{pad}" x2="{px:.2f}" y2="{height - pad}" '
          f'stroke="#7f8c8d" stroke-dasharray="4,3" stroke-width="1"/>'
          for px in (pad + (front - x0) * sx for front in (g_front, h_front))),
        f'<text x="{pad}" y="{pad - 12}" font-family="monospace" font-size="12">'
        f"u (red), v (blue); fronts at {g_front:.4g}, {h_front:.4g}; "
        f"x in [{x0:.4g}, {x1:.4g}]</text>",
        f'<text x="{pad}" y="{height - pad + 24}" font-family="monospace" font-size="12">'
        f"y range [0, {y1:.4g}]</text>",
        "</svg>",
    ]
    Path(path).write_text("\n".join(parts) + "\n")
