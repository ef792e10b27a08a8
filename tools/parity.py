"""Bit-parity check of two source trees of slicescale on the library corpus.

    python tools/parity.py OLD_SRC NEW_SRC [--seeds 3 7 11]

OLD_SRC and NEW_SRC are directories that hold a ``slicescale`` package (the
``src`` directory of two checkouts). For each tree one subprocess, with only
that tree on its path and BLAS pinned to one thread, solves every library
case of the benchmark's ``dense-solve`` and ``steep-solve`` workloads at
each seed, with their inputs from ``bench/corpus.py`` (imported, never
written). A scaling case runs twice: from the zero start, and from
``random_reduced_point(problem, np.random.default_rng(5))``. The quadratic
case runs ``blockmin.run`` from zero, as the benchmark does.

Each run records its status, step count, every list of its trace (the
iterates included), ``x_star``, the scaled tensor, ``proportionality``,
``residuals`` and the problem's ``rebases``, or the type and message of
the exception it raised. The two trees must agree on every recorded value
byte for byte: floats are compared by their bits, so even -0.0 against 0.0
or two NaNs of different payload count as a difference. Every difference
is printed, and the exit code is 1 if there is one, else 0.
"""

import argparse
import os
import pickle
import struct
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np

# slicescale is imported only inside the functions a subprocess runs, so
# that each tree's package is the one on that subprocess's path
BENCH = Path(__file__).resolve().parent.parent / "bench"
SEEDS = (3, 7, 11)
START_SEED = 5
TOL = 1e-10  # the benchmark worker's stopping tolerance
QUADRATIC_MAX_ITERS = 100000


def _canonical(value):
    """``value`` as nested tuples of bytes and plain values, equal for two
    values exactly when they match bit for bit."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    if isinstance(value, np.generic):
        return _canonical(value.item())
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if hasattr(value, "blocks"):
        return ("blocks",) + tuple(_canonical(b) for b in value.blocks)
    if hasattr(value, "array"):
        return ("tensor", _canonical(value.array))
    if isinstance(value, (list, tuple)):
        return (type(value).__name__,) + tuple(_canonical(v) for v in value)
    raise TypeError(f"no canonical form for {type(value).__name__}")


def _trace_record(trace):
    return {f"trace.{f.name}": getattr(trace, f.name) for f in fields(trace)}


def _scaling_run(array, targets, start):
    from slicescale import scaler
    from slicescale.objective import ScalingProblem
    from slicescale.tensor import DenseTensor, SliceTargets

    problem = ScalingProblem(DenseTensor(array), SliceTargets(targets))
    x0 = (None if start == "zero" else
          scaler.random_reduced_point(problem, np.random.default_rng(START_SEED)))
    solution = scaler.solve(problem, x0=x0, tol=TOL)
    out = {"status": solution.status,
           "n_steps": solution.trace.n_steps,
           "x_star": solution.x_star,
           "scaled": solution.scaled,
           "proportionality": solution.proportionality,
           "residuals": solution.residuals,
           "rebases": problem.rebases}
    out.update(_trace_record(solution.trace))
    return out


def _quadratic_run(case):
    from slicescale import blockmin
    from slicescale.blockmin import BlockVector, QuadraticBlockProblem

    problem = QuadraticBlockProblem(case["matrix"], case["linear"],
                                    case["block_dims"])
    x, trace, status = blockmin.run(
        problem, BlockVector.zeros(problem.block_dims), TOL,
        QUADRATIC_MAX_ITERS, divergence_guard=None, record_iterates=True)
    out = {"status": status, "n_steps": trace.n_steps, "x_star": x}
    out.update(_trace_record(trace))
    return out


def _attempt(run, *args):
    try:
        return run(*args)
    except Exception as err:  # a refusal is an outcome to compare
        return {"error": f"{type(err).__name__}: {err}"}


def record(out_path, seeds):
    """Solve the corpus with the slicescale on this process's path and pickle
    the canonical records, keyed by seed, case and start, to ``out_path``."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(BENCH))
    import corpus
    import slicescale

    runs = {}
    for seed in seeds:
        cases = corpus.dense_solve(seed) + corpus.steep_solve(seed)[0]
        for case in cases:
            if case["kind"] == "scale":
                for start in ("zero", "random"):
                    runs[(seed, case["name"], start)] = _attempt(
                        _scaling_run, case["array"], case["targets"], start)
            else:
                runs[(seed, case["name"], "zero")] = _attempt(_quadratic_run, case)
    canonical = {key: {field: _canonical(value) for field, value in run.items()}
                 for key, run in runs.items()}
    with open(out_path, "wb") as fh:
        pickle.dump({"package": slicescale.__file__, "runs": canonical}, fh)


def _solve_tree(src, seeds, out_path):
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    subprocess.run([sys.executable, __file__, "--record", str(out_path),
                    *map(str, seeds)], env=env, check=True)
    with open(out_path, "rb") as fh:
        result = pickle.load(fh)
    package = Path(result["package"]).resolve()
    if Path(src).resolve() not in package.parents:
        raise RuntimeError(f"{src}: the subprocess imported {package}")
    return result["runs"]


def differences(old, new):
    """One line per run or recorded value that differs between two trees."""
    lines = []
    for key in sorted(old.keys() | new.keys()):
        if key not in old or key not in new:
            lines.append(f"{key}: run only in {'new' if key in new else 'old'}")
            continue
        a, b = old[key], new[key]
        for field in sorted(a.keys() | b.keys()):
            if a.get(field, "<missing>") != b.get(field, "<missing>"):
                lines.append(f"{key}: {field} differs")
    return lines


def main(argv):
    if argv[:1] == ["--record"]:
        record(argv[1], [int(s) for s in argv[2:]])
        return 0
    parser = argparse.ArgumentParser(
        description="Compare two slicescale source trees bit for bit on the "
                    "dense-solve and steep-solve library corpus.")
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(SEEDS))
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        old = _solve_tree(args.old_src, args.seeds, Path(tmp) / "old.pkl")
        new = _solve_tree(args.new_src, args.seeds, Path(tmp) / "new.pkl")
    lines = differences(old, new)
    for line in lines:
        print(line)
    print(f"{len(old)} runs at seeds {args.seeds}: "
          f"{len(lines)} difference{'s' if len(lines) != 1 else ''}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
