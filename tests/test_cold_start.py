"""No code path of the package loads scipy or multiprocessing.

scipy is a test dependency only, an oracle for the tests.  Every
convolution, the FFT branch of `kernels.grid_convolve` included, and every
eigensolve runs on numpy alone.  A dt-halving run and a
parallel sweep fork their children with ``os.fork`` alone.  Every case
runs in its own interpreter and reports which watched modules it loaded;
one runs the FFT branch with scipy made unimportable.
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

# Short grids of 4, 16, 34 and 35 nodes: the Krylov solver serves them all.
EIGEN_16_NODES = """
from nlinvade.eigenvalue import principal_eigenvalue
from nlinvade.kernels import KernelSpec, validate_kernel

k = validate_kernel(KernelSpec.uniform(1.0), 0.1)
for nodes in (4, 16, 34, 35):
    res = principal_eigenvalue(k, 1.0, (0.0, 0.1 * (nodes - 1)), 0.1)
    assert (res.nodes.size, res.method) == (nodes, "krylov")
"""

# At dx = 0.001 the half-width is 1 000 nodes: the 801-node grid is rank one,
# which the Krylov solver ends in 2 matvecs.
EIGEN_801_NODES = """
from nlinvade.eigenvalue import principal_eigenvalue
from nlinvade.kernels import KernelSpec, validate_kernel

k = validate_kernel(KernelSpec.uniform(1.0), 0.001)
res = principal_eigenvalue(k, 1.2, (0.0, 0.8), 0.001)
assert (res.nodes.size, res.method) == (801, "krylov")
"""

CONVOLVE_501_TAPS = """
import numpy as np
from nlinvade.kernels import DIRECT_MAX_TAPS, KernelSpec, grid_convolve, grid_stencil, validate_kernel

k = validate_kernel(KernelSpec.triangular(1.0), 0.01)
for half in (DIRECT_MAX_TAPS // 2 - 1, DIRECT_MAX_TAPS // 2):  # 499 and 501 taps
    st = grid_stencil(k, 1.0 / (half + 0.5))
    assert st.half == half and st.box is None
    grid_convolve(np.ones(50), st)
"""

# Triangular kernels at dx = 0.003 have 667 taps, so each step convolves the
# u band (zero extension) and the v window (edge extension) by the FFT
# branch, with every scipy import made to fail.
FFT_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # "import scipy" now raises ImportError
import tempfile
from nlinvade.config import build_scenario, parse_config_text
from nlinvade.kernels import DIRECT_MAX_TAPS, KernelSpec, grid_stencil, validate_kernel
from nlinvade.runner import run_scenario

st = grid_stencil(validate_kernel(KernelSpec.triangular(1.0), 0.003), 0.003)
assert st.masses.size == 667 > DIRECT_MAX_TAPS and st.box is None
cfg = build_scenario(parse_config_text('''
[kernel_u]
form = "triangular"
[kernel_v]
form = "triangular"
[numerics]
dx = 0.003
dt = 0.02
T = 0.1
'''))
with tempfile.TemporaryDirectory() as out:  # T = 0.1 is too short for a verdict
    assert run_scenario(cfg, outdir=out, check_theorems=False).exit_code == 0
assert sys.modules.pop("scipy") is None
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


CASES = {
    "uniform-run": UNIFORM_RUN,
    "uniform-halving-run": UNIFORM_HALVING_RUN,
    "gaussian-kernel": GAUSSIAN_KERNEL,
    "gaussian-sweep": GAUSSIAN_SWEEP.replace("JOBS", "1"),
    "parallel-sweep": GAUSSIAN_SWEEP.replace("JOBS", "2"),
    "eigen-16-nodes": EIGEN_16_NODES,
    "eigen-801-nodes": EIGEN_801_NODES,
    "convolve-501-taps": CONVOLVE_501_TAPS,
    "fft-without-scipy": FFT_WITHOUT_SCIPY,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_scipy_loaded_only_where_used(case):
    assert loaded(CASES[case]) == []
