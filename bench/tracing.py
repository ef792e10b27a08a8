"""Per-layer timers and counters, installed around the package's public
functions at run time; the package itself stays unedited.

A wrapper replaces the function in every module that calls it through its
own binding (``objective.scale`` is the name ``ScalingProblem.scaled`` looks
up, ``cli.check_scalable`` the one ``cmd_scale`` looks up). Times are
inclusive: ``objective.build_frame_s`` contains ``numerics.null_space_s``.

Run as a script, it executes one CLI command under tracing:

    python3 bench/tracing.py SPANS.json scale INPUT.json

and writes the layer totals to SPANS.json before exiting with the CLI's code.
"""

import functools
import json
import sys
import time
from collections import defaultdict

MB = float(1 << 20)


def _incidence_mb(tensor):
    # build_frame's support-incidence matrix: one float64 row of length N
    # per nonzero entry.
    return int((tensor.array > 0).sum()) * sum(tensor.dims) * 8 / MB


def _tableau_mb(tensor):
    # feasibility._phase_one's tableau for the witness system: rows are the
    # nnz + 1 inequalities and d target equalities; columns are x+ and x-
    # (2N), nnz + 1 slacks, d + 1 artificials and the right-hand side.
    nnz = int((tensor.array > 0).sum())
    n, d = sum(tensor.dims), tensor.d
    return (nnz + 1 + d) * (2 * n + nnz + 1 + d + 1 + 1) * 8 / MB


class Tracer:
    """Accumulates seconds, calls and counts per layer name."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.peaks = defaultdict(float)

    def wrap(self, module, attr, name, before=None, after=None):
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(self, *args, **kwargs)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.seconds[name] += time.perf_counter() - start
                self.calls[name] += 1
            if after is not None:
                after(self, result)
            return result

        setattr(module, attr, traced)

    def totals(self):
        return {"seconds": dict(self.seconds), "calls": dict(self.calls),
                "counts": dict(self.counts), "peaks": dict(self.peaks)}

    def peak(self, name, value):
        self.peaks[name] = max(self.peaks[name], value)


def install():
    """Wrap every traced layer; returns the Tracer that collects them."""
    from slicescale import blockmin, bridge, cli, numerics, objective, scaler

    tracer = Tracer()

    def frame_size(tr, tensor, *args, **kwargs):
        tr.peak("objective.incidence_mb", _incidence_mb(tensor))

    def run_steps(tr, result):
        tr.counts["blockmin.steps"] += result[1].n_steps

    def lp_size(tr, tensor, *args, **kwargs):
        tr.peak("feasibility.tableau_mb", _tableau_mb(tensor))

    def pivots(tr, report):
        tr.counts["feasibility.pivots"] += report.lp_stats["pivots"]

    def samples(tr, problem, points):
        tr.counts["blockmin.hessian_samples"] += len(points)

    tracer.wrap(objective, "build_frame", "objective.build_frame", before=frame_size)
    tracer.wrap(numerics, "null_space", "numerics.null_space")
    tracer.wrap(scaler, "solve", "scaler.solve")
    tracer.wrap(scaler, "normalize", "scaler.normalize")
    tracer.wrap(blockmin, "run", "blockmin.run", after=run_steps)
    tracer.wrap(objective, "scale", "tensor.scale")
    for module in (cli, bridge):
        tracer.wrap(module, "check_scalable", "feasibility.check_scalable",
                    before=lp_size, after=pivots)
    tracer.wrap(cli, "bound_certificate", "cli.bound_certificate")
    tracer.wrap(blockmin, "estimate_alpha_beta", "blockmin.estimate_alpha_beta",
                before=samples)
    tracer.wrap(numerics, "symmetric_eigs", "numerics.symmetric_eigs")
    tracer.wrap(cli, "load_problem", "cli.load_problem")
    tracer.wrap(cli, "emit", "cli.emit")
    tracer.wrap(cli, "solve_bridge", "bridge.solve_bridge")
    return tracer


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    tracer = install()
    from slicescale import cli
    try:
        code = cli.main(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tracer.totals(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
