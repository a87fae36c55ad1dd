"""Which scipy subpackages a fresh interpreter loads, per code path.

Importing scipy.signal alone costs most of a second, so the package
imports each scipy subpackage inside the branch that uses it, and never
multiprocessing: a dt-halving run and a parallel sweep fork their children
with ``os.fork`` alone.  Uniform and truncated-gaussian runs load no scipy
at all, nor does any eigensolve: dense, rank one or Krylov, all three are
numpy.  Every case runs in its own interpreter and reports which watched
modules it loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
# "scipy" stands for every scipy module: each one imports the package.
# No code path loads multiprocessing or the process pool of
# concurrent.futures.process: child processes come from a bare os.fork.
WATCHED = ("scipy", "scipy.signal", "scipy.sparse.linalg", "scipy.special",
           "multiprocessing", "concurrent.futures.process")

UNIFORM_RUN = """
import tempfile
import nlinvade.cli
from nlinvade.config import build_scenario, parse_config_text
from nlinvade.runner import run_scenario

cfg = build_scenario(parse_config_text('''
[params]
mu = 1.0
[numerics]
dx = 0.05
dt = 0.02
T = 0.5
'''))
with tempfile.TemporaryDirectory() as out:
    run_scenario(cfg, outdir=out)
"""

UNIFORM_HALVING_RUN = UNIFORM_RUN.replace("T = 0.5", "T = 0.5\n[diagnostics]\ndt_halving = true")

GAUSSIAN_KERNEL = """
from nlinvade.kernels import KernelSpec, validate_kernel

k = validate_kernel(KernelSpec.truncated_gaussian(1.0, 2.0), 0.05)
k.cdf([0.0, 1.0])
"""

GAUSSIAN_SWEEP = """
import tempfile
from pathlib import Path
from nlinvade.cli import main

with tempfile.TemporaryDirectory() as tmp:
    cfg = Path(tmp) / "sweep.cfg"
    cfg.write_text('''
[params]
mu = 1.0
[kernel_u]
form = "truncated_gaussian"
L0 = 2.0
sigma = 1.0
[kernel_v]
form = "truncated_gaussian"
L0 = 2.0
sigma = 1.0
[numerics]
dx = 0.05
dt = 0.02
T = 0.5
[sweep]
axis.params.mu = [0.01, 10.0]
''')
    argv = ["sweep", "--config", str(cfg), "--out", str(Path(tmp) / "sw"), "--jobs", "JOBS", "--quiet"]
    assert main(argv) == 0
"""

# At dx = 0.1 the uniform stencil's half-width is 10 nodes, so the 35-node
# grid is not rank one and goes to the Krylov solver.
EIGEN_16_NODES = """
from nlinvade.eigenvalue import DENSE_THRESHOLD, principal_eigenvalue
from nlinvade.kernels import KernelSpec, validate_kernel

k = validate_kernel(KernelSpec.uniform(1.0), 0.1)
assert principal_eigenvalue(k, 1.0, (0.0, 0.1 * (DENSE_THRESHOLD - 2)), 0.1).method == "dense"
assert principal_eigenvalue(k, 1.0, (0.0, 0.1 * (DENSE_THRESHOLD - 1)), 0.1).method == "krylov"
"""

# At dx = 0.001 the half-width is 1 000 nodes: the 801-node grid is rank one.
EIGEN_801_NODES = """
from nlinvade.eigenvalue import principal_eigenvalue
from nlinvade.kernels import KernelSpec, validate_kernel

k = validate_kernel(KernelSpec.uniform(1.0), 0.001)
res = principal_eigenvalue(k, 1.2, (0.0, 0.8), 0.001)
assert (res.nodes.size, res.method) == (801, "rank_one")
"""

CONVOLVE_501_TAPS = """
import sys
import numpy as np
from nlinvade.kernels import DIRECT_MAX_TAPS, KernelSpec, grid_convolve, grid_stencil, validate_kernel

k = validate_kernel(KernelSpec.triangular(1.0), 0.01)
for half in (DIRECT_MAX_TAPS // 2 - 1, DIRECT_MAX_TAPS // 2):  # 499 and 501 taps
    st = grid_stencil(k, 1.0 / (half + 0.5))
    assert st.half == half and st.box is None
    grid_convolve(np.ones(50), st)
    assert ("scipy.signal" in sys.modules) == (st.masses.size > DIRECT_MAX_TAPS)
"""


def loaded(snippet: str) -> list[str]:
    """The watched modules that a fresh interpreter holds after ``snippet``."""
    code = snippet + (
        f"\nimport json, sys\nprint(json.dumps([m for m in {WATCHED!r} if m in sys.modules]))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


# (snippet, modules it must load, modules it must not load); scipy.signal
# itself imports scipy.sparse.linalg and scipy.special, so the FFT branch
# is the one case that may load scipy.
CASES = {
    "uniform-run": (UNIFORM_RUN, [], list(WATCHED)),
    "uniform-halving-run": (UNIFORM_HALVING_RUN, [], list(WATCHED)),
    "gaussian-kernel": (GAUSSIAN_KERNEL, [], list(WATCHED)),
    "gaussian-sweep": (GAUSSIAN_SWEEP.replace("JOBS", "1"), [], list(WATCHED)),
    "parallel-sweep": (GAUSSIAN_SWEEP.replace("JOBS", "2"), [], list(WATCHED)),
    "eigen-16-nodes": (EIGEN_16_NODES, [], list(WATCHED)),
    "eigen-801-nodes": (EIGEN_801_NODES, [], list(WATCHED)),
    "convolve-501-taps": (CONVOLVE_501_TAPS, ["scipy.signal"], []),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_scipy_loaded_only_where_used(case):
    snippet, loads, skips = CASES[case]
    got = loaded(snippet)
    assert [m for m in loads if m not in got] == []
    assert [m for m in skips if m in got] == []
