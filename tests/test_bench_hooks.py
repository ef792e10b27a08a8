"""The benchmark's layer timers wrap package bindings by name; a refactor
that removes one of them breaks ``bench/tracing.py`` at install time, and one
that rescales around the wrapped binding makes ``tensor.scale_calls`` miss
real rescales (the rebases of the problem's factored state)."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TRACED_SOLVE = """
import json
import numpy as np
import tracing
tracer = tracing.install()
from slicescale import scaler
from slicescale.objective import ScalingProblem
from slicescale.tensor import DenseTensor, SliceTargets
rng = np.random.default_rng(2000)
problem = ScalingProblem(DenseTensor(rng.uniform(0.1, 1.0, (12, 12))),
                         SliceTargets.uniform((12, 12)))
solution = scaler.solve(problem)
assert solution.status == "converged"
print(json.dumps(dict(tracer.totals(),
                      rebases=problem.rebases)))
"""

# A block-diagonal 7 x 7 support with equal row and column mass per block:
# one gauge direction, so the solve runs with the gauge correction.
TRACED_GAUGE_SOLVE = TRACED_SOLVE.replace("""
problem = ScalingProblem(DenseTensor(rng.uniform(0.1, 1.0, (12, 12))),
                         SliceTargets.uniform((12, 12)))
""", """
array = np.zeros((7, 7))
array[:3, :4] = np.exp(rng.uniform(-2.0, 2.0, (3, 4)))
array[3:, 4:] = np.exp(rng.uniform(-2.0, 2.0, (4, 3)))
rows = np.concatenate([np.full(3, 3.5 / 3), np.full(4, 3.5 / 4)])
cols = np.concatenate([np.full(4, 3.5 / 4), np.full(3, 3.5 / 3)])
problem = ScalingProblem(DenseTensor(array), SliceTargets([rows, cols]))
assert problem.gauge_dim == 1
""")


# The CLI's scale command on that gauge input, rate certificate included.
TRACED_GAUGE_CLI = """
import json
import os
import tempfile
import numpy as np
import tracing
tracer = tracing.install()
from slicescale import cli
from slicescale.tensor import DenseTensor, SliceTargets
rng = np.random.default_rng(2000)
array = np.zeros((7, 7))
array[:3, :4] = np.exp(rng.uniform(-2.0, 2.0, (3, 4)))
array[3:, 4:] = np.exp(rng.uniform(-2.0, 2.0, (4, 3)))
rows = np.concatenate([np.full(3, 3.5 / 3), np.full(4, 3.5 / 4)])
cols = np.concatenate([np.full(4, 3.5 / 4), np.full(3, 3.5 / 3)])
with tempfile.TemporaryDirectory() as tmp:
    path, out = os.path.join(tmp, "in.json"), os.path.join(tmp, "out.json")
    cli.save_tensor_file(path, DenseTensor(array), SliceTargets([rows, cols]))
    assert cli.main(["scale", path, "--output", out]) == 0
    with open(out) as fh:
        assert "certificate" in json.load(fh)
print(json.dumps(tracer.totals()))
"""

def run_traced(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_tracing_install_finds_every_hook():
    run_traced("import tracing; tracing.install()")


def test_traced_scale_calls_count_every_rescale():
    totals = json.loads(run_traced(TRACED_SOLVE).splitlines()[-1])
    assert totals["counts"]["blockmin.steps"] > 10
    assert totals["rebases"] >= 1
    # one rescale per rebase of the factored state, one in normalize
    assert totals["calls"]["tensor.scale"] == totals["rebases"] + 1
    # full support has no gauge: build_frame makes no null space
    assert totals["calls"]["objective.build_frame"] == 1
    assert totals["calls"].get("numerics.null_space", 0) == 0


def test_traced_scale_calls_on_a_gauge_solve():
    # the gauge correction adds no rescale per step
    totals = json.loads(run_traced(TRACED_GAUGE_SOLVE).splitlines()[-1])
    assert totals["counts"]["blockmin.steps"] > 10
    assert totals["rebases"] >= 1
    assert totals["calls"]["tensor.scale"] == totals["rebases"] + 1


def test_traced_cli_scale_on_a_gauge_input():
    # one symmetric eigendecomposition per certificate sample, and the
    # one null space (the gauge) inside build_frame
    totals = json.loads(run_traced(TRACED_GAUGE_CLI).splitlines()[-1])
    samples = totals["counts"]["blockmin.hessian_samples"]
    assert samples > 16
    assert totals["calls"]["numerics.symmetric_eigs"] == samples
    assert totals["calls"]["objective.build_frame"] == 1
    assert totals["calls"]["numerics.null_space"] == 1
    assert (totals["seconds"]["numerics.null_space"]
            <= totals["seconds"]["objective.build_frame"])
