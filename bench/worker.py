"""One measured process of the benchmark, started fresh each time.

    python3 bench/worker.py WORKDIR TAG MODE

MODE is ``solve`` (run the library corpus untraced), ``trace`` (the same
under the layer timers of tracing.py) or ``probe`` (set up only). A probe
imports numpy and slicescale (with its CLI), loads the inputs of WORKDIR and
records the monotonic clock at that point, so that the parent can compute the
set-up time from its own clock at spawn. ``solve`` and ``trace`` time each
operation of the corpus and write timings, resource usage and outputs to
WORKDIR.
"""

import json
import os
import resource
import sys
import time

import numpy as np
import slicescale  # noqa: F401  (part of the measured set-up)
from slicescale import blockmin, scaler
from slicescale.blockmin import BlockVector, QuadraticBlockProblem
from slicescale.objective import ScalingProblem
from slicescale.tensor import DenseTensor, SliceTargets

# Every library solve uses this stopping tolerance (absolute gradient norm).
TOL = 1e-10
QUADRATIC_MAX_ITERS = 100000


def load_library(workdir):
    with open(os.path.join(workdir, "manifest.json")) as fh:
        manifest = json.load(fh)
    with np.load(os.path.join(workdir, "inputs.npz")) as data:
        arrays = {key: data[key] for key in data.files}
    cases = []
    for i, entry in enumerate(manifest):
        case = dict(entry)
        if entry["kind"] == "scale":
            case["array"] = arrays[f"{i}.array"]
            case["targets"] = [arrays[f"{i}.target{k}"] for k in range(entry["modes"])]
        else:
            case["matrix"] = arrays[f"{i}.matrix"]
            case["linear"] = arrays[f"{i}.linear"]
        cases.append(case)
    return cases


def load_cli(workdir):
    with open(os.path.join(workdir, "manifest.json")) as fh:
        manifest = json.load(fh)
    inputs = []
    for entry in manifest:
        with open(os.path.join(workdir, entry["file"])) as fh:
            inputs.append(json.load(fh))
    return inputs


def solve_case(case):
    """One library operation; returns its output array or raises."""
    if case["kind"] == "scale":
        problem = ScalingProblem(DenseTensor(case["array"]),
                                 SliceTargets(case["targets"]))
        solution = scaler.solve(problem, tol=TOL)
        if solution.status != blockmin.CONVERGED:
            raise RuntimeError(f"status {solution.status}")
        return solution.scaled.array
    problem = QuadraticBlockProblem(case["matrix"], case["linear"], case["block_dims"])
    x, _, status = blockmin.run(problem, BlockVector.zeros(problem.block_dims),
                                TOL, QUADRATIC_MAX_ITERS, divergence_guard=None)
    if status != blockmin.CONVERGED:
        raise RuntimeError(f"status {status}")
    return x.concat()


def cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def peak_rss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(workdir, round_id, mode):
    if mode == "probe":
        from slicescale import cli  # noqa: F401  (the CLI's own imports)
        if os.path.exists(os.path.join(workdir, "inputs.npz")):
            load_library(workdir)
        else:
            load_cli(workdir)
        record = {"ready": time.perf_counter()}
    else:
        cases = load_library(workdir)
        tracer = None
        if mode == "trace":
            import tracing
            tracer = tracing.install()
        outputs, failures, wall, cpu = {}, {}, {}, {}
        for i, case in enumerate(cases):
            cpu0 = cpu_seconds()
            start = time.perf_counter()
            try:
                outputs[str(i)] = solve_case(case)
            except Exception as err:  # a failed operation is counted, not fatal
                failures[case["name"]] = repr(err)
            wall[case["name"]] = time.perf_counter() - start
            cpu[case["name"]] = cpu_seconds() - cpu0
        record = {"op_wall": wall, "op_cpu": cpu,
                  "peak_rss_kb": peak_rss_kb(), "failures": failures,
                  "layers": None if tracer is None else tracer.totals()}
        np.savez(os.path.join(workdir, f"outputs-{round_id}.npz"), **outputs)
    with open(os.path.join(workdir, f"round-{round_id}.json"), "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], sys.argv[3])
