#!/usr/bin/env python3
"""Interval eigenvalue of the dispersal operator as a function of length.

Prints a table for the built-in kernels and writes one two-column text
file per kernel (length, lambda_p) into --out.  The values increase
strictly with length from -d1 toward 0; the script exits with code 1,
naming the kernel, when a curve is not strictly increasing or leaves
(-d1, 0).

Usage:
  python scripts/eigen_length_scan.py [--d1 1.0] [--out out/eigen_scan]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from nlinvade.eigenvalue import eigen_curve
from nlinvade.kernels import KernelSpec, validate_kernel
from nlinvade.output import write_eigen_curve

LENGTHS = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--d1", type=float, default=1.0)
    ap.add_argument("--out", default="out/eigen_scan")
    args = ap.parse_args()

    catalog = {
        "uniform": KernelSpec.uniform(1.0),
        "triangular": KernelSpec.triangular(1.0),
        "truncated_gaussian": KernelSpec.truncated_gaussian(1.0, 2.0),
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    header = "length".rjust(10) + "".join(name.rjust(22) for name in catalog)
    print(header)
    curves = {}
    for name, spec in catalog.items():
        kernel = validate_kernel(spec, 0.025)
        dx = kernel.support_radius / 40.0
        curves[name] = eigen_curve(kernel, args.d1, LENGTHS, dx)
        write_eigen_curve(out / f"eigen_curve_{name}.txt", curves[name])
    for i, length in enumerate(LENGTHS):
        row = f"{length:10.4g}" + "".join(f"{curves[n][i][1]:22.12e}" for n in catalog)
        print(row)
    print(f"curves written to {out} (17 significant digits)")
    failures = []
    for name, curve in curves.items():
        values = [lam for _, lam in curve]
        if not all(a < b for a, b in zip(values, values[1:])):
            failures.append(f"{name}: lambda_p is not strictly increasing in length")
        if not all(-args.d1 < lam < 0.0 for lam in values):
            failures.append(f"{name}: lambda_p leaves (-d1, 0) = ({-args.d1:g}, 0)")
    for line in failures:
        print(line, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
