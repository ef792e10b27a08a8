"""Command-line frontend: data ingestion, solver dispatch, JSON reports.

Tensor files are JSON objects {"dims": [...], "values": [...], "targets":
[[...], ...]} with values flat in row-major order (last index fastest) and
exact zeros marking the support pattern. Matrices may instead be CSV with
targets passed as flags. Reports are JSON on stdout or --output.

Exit codes: 0 success, 1 usage, I/O or validation error or out of memory,
2 not scalable (witness in the report), 3 numerical failure (overflow,
divergence, iteration budget). A negative --seed, and a --guard that is not
positive (NaN included), exit 1 with --tol and --max-iters, before the input
is read.
An unscalable input under ``scale --force`` ends diverging or out of budget.
"""

import argparse
import json
import logging
import os
import sys
import time

import numpy as np

from . import blockmin, scaler
from .blockmin import BlockVector, NumericalOverflowError, QuadraticBlockProblem
from .bridge import BridgeProblem, solve_bridge
from .feasibility import InfeasibleScalingError, check_scalable
from .objective import ScalingProblem
from .tensor import DenseTensor, ScalingOverflowError, SliceTargets

logger = logging.getLogger("slicescale")

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INFEASIBLE = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors exiting EXIT_INVALID instead of 2, which
    is the not-scalable code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def _check_run_limits(args):
    """Refuse out-of-range run options before any input is read: the
    engine's limits (``blockmin.check_run_limits``), then the seed."""
    blockmin.check_run_limits(args.tol, args.max_iters,
                              getattr(args, "guard", None))
    if getattr(args, "seed", 0) < 0:
        raise ValueError("seed must be a non-negative integer")


def _setup_logging():
    level_name = os.environ.get("SLICESCALE_LOG", "warning").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    logger.setLevel(level)


def _parse_vector(text):
    return np.asarray([float(tok) for tok in text.replace(",", " ").split()])


def load_tensor_file(path):
    """Read a tensor JSON file; returns (DenseTensor, targets list or None)."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "dims" not in data or "values" not in data:
        raise ValueError("tensor file needs an object with 'dims' and 'values'")
    tensor = DenseTensor.from_flat(data["dims"], data["values"])
    targets = data.get("targets")
    return tensor, targets


def save_tensor_file(path, tensor, targets=None):
    data = {"dims": list(tensor.dims), "values": [float(v) for v in tensor.values]}
    if targets is not None:
        data["targets"] = [[float(v) for v in vec] for vec in targets.vectors]
    with open(path, "w") as fh:
        json.dump(data, fh)


def load_problem(args):
    """Tensor plus targets from the parsed input flags. Target flags that
    the input kind would ignore are refused before any file is read."""
    if args.csv:
        if args.targets_path is not None:
            raise ValueError("--targets applies to JSON input, not --csv")
        if not (args.row_targets and args.col_targets):
            raise ValueError("CSV input needs --row-targets and --col-targets")
        tensor = DenseTensor(np.loadtxt(args.input, delimiter=",", ndmin=2))
        targets = SliceTargets(
            [_parse_vector(args.row_targets), _parse_vector(args.col_targets)]
        )
        return tensor, targets
    if (args.row_targets, args.col_targets) != (None, None):
        raise ValueError("--row-targets and --col-targets need --csv")
    tensor, inline_targets = load_tensor_file(args.input)
    if args.targets_path:
        with open(args.targets_path) as fh:
            data = json.load(fh)
        if isinstance(data, dict) and "targets" not in data:
            raise ValueError("targets file needs a 'targets' list")
        vectors = data["targets"] if isinstance(data, dict) else data
        return tensor, SliceTargets(vectors)
    if inline_targets is None:
        raise ValueError("no targets: embed them in the tensor file or pass --targets")
    return tensor, SliceTargets(inline_targets)


def bound_certificate(problem, trace, seed):
    """Sampled rate certificate for a converged trace with recorded iterates.

    Hessian extremes are sampled at every recorded iterate (the final point
    included) and at 16 random pairwise convex combinations of them. Each
    combination draws i, then k (indices into the iterates), then lam from
    ``np.random.default_rng(seed)`` and is (1 - lam) x_i + lam x_k, formed
    on the concatenated ambient vectors. The resulting per-step bound curve
    is reported next to the observed objective gaps. Returns None without
    iterates or steps, and {"skipped": reason} when the certificate cannot
    be formed, as when a sampled reduced Hessian has no positive smallest
    eigenvalue at the resolution of ``eigvalsh``.
    """
    if not trace.iterates or trace.n_steps == 0:
        return None
    rng = np.random.default_rng(seed)
    points = list(trace.iterates)
    rows = [x.concat() for x in points]
    for _ in range(16):
        i = int(rng.integers(len(rows)))
        k = int(rng.integers(len(rows)))
        lam = float(rng.uniform())
        points.append(BlockVector.from_concat(
            problem.block_dims, (1.0 - lam) * rows[i] + lam * rows[k]))
    try:
        alpha, beta, kappa, curve = blockmin.rate_certificate(problem, trace, points)
    except ValueError as err:
        return {"skipped": str(err)}
    return {
        "sampled_alpha": alpha,
        "sampled_beta": beta,
        "sampled_kappa": kappa,
        "bound_curve": curve,
        "observed_gaps": trace.gaps()[1:],
    }


def _witness_payload(report):
    return {
        "verdict": report.verdict,
        "witness": None if report.witness is None else
        [list(map(float, b)) for b in report.witness.blocks],
        "lp_stats": report.lp_stats,
    }


def emit(report, args):
    report["timestamp"] = time.time()
    text = json.dumps(report, indent=2)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _trace_payload(trace):
    return {
        "objectives": trace.objectives,
        "full_grad_norms": trace.full_grad_norms,
        "stop_values": trace.stop_values,
        "block_choices": trace.chosen_blocks,
        "post_step_block_norms": trace.post_step_block_norms,
    }


def cmd_scale(args):
    _check_run_limits(args)
    tensor, targets = load_problem(args)
    report = {
        "command": "scale",
        "config": {"tol": args.tol, "max_iters": args.max_iters,
                   "seed": args.seed, "force": args.force},
    }
    if not args.force:
        feas = check_scalable(tensor, targets)
        report["feasibility"] = _witness_payload(feas)
        if not feas.scalable:
            report["status"] = "not_scalable"
            return report, EXIT_INFEASIBLE
    problem = ScalingProblem(tensor, targets)
    x0 = None
    if args.random_start:
        rng = np.random.default_rng(args.seed)
        x0 = scaler.random_reduced_point(problem, rng)
    solution = scaler.solve(problem, x0=x0, tol=args.tol,
                            max_iters=args.max_iters,
                            divergence_guard=args.guard,
                            record_iterates=args.record_iterates)
    report["status"] = solution.status
    report["method"] = solution.method
    report["iterations"] = solution.trace.n_steps
    report["trace"] = _trace_payload(solution.trace)
    if solution.status != blockmin.CONVERGED:
        return report, EXIT_NUMERICAL
    report["proportionality"] = solution.proportionality
    report["residuals"] = solution.residuals
    report["scaled"] = {
        "dims": list(solution.scaled.dims),
        "values": [float(v) for v in solution.scaled.values],
    }
    certificate = bound_certificate(problem, solution.trace, args.seed)
    if certificate is not None:
        report["certificate"] = certificate
    return report, EXIT_OK


def cmd_feasible(args):
    tensor, targets = load_problem(args)
    feas = check_scalable(tensor, targets)
    report = {"command": "feasible"}
    report.update(_witness_payload(feas))
    return report, EXIT_OK if feas.scalable else EXIT_INFEASIBLE


def load_bridge_file(path, stochastic):
    with open(path) as fh:
        data = json.load(fh)
    if not (isinstance(data, dict) and {"matrix", "source", "target"} <= data.keys()):
        raise ValueError("bridge file needs an object with 'matrix', "
                         "'source' and 'target'")
    if stochastic or "column_sums" not in data:
        # (n,) for an m x n matrix; BridgeProblem refuses any other shape
        c = np.ones(np.shape(data["matrix"])[1:2])
    else:
        c = data["column_sums"]
    return BridgeProblem(data["matrix"], data["source"], data["target"], c)


def cmd_bridge(args):
    _check_run_limits(args)
    problem = load_bridge_file(args.input, args.stochastic)
    report = {"command": "bridge",
              "config": {"tol": args.tol, "max_iters": args.max_iters,
                         "stochastic": args.stochastic}}
    try:
        result = solve_bridge(problem, tol=args.tol, max_iters=args.max_iters)
    except InfeasibleScalingError as err:
        report["status"] = "not_scalable"
        report["feasibility"] = _witness_payload(err.report)
        return report, EXIT_INFEASIBLE
    report["status"] = result.solution.status
    report["iterations"] = result.solution.trace.n_steps
    if result.matrix is None:
        return report, EXIT_NUMERICAL
    report["matrix"] = [[float(v) for v in row] for row in result.matrix]
    report["source_residual"] = result.source_residual
    report["column_residual"] = result.column_residual
    return report, EXIT_OK


def cmd_demo_quadratic(args):
    """Greedy coordinate minimization on a seeded random SPD quadratic."""
    _check_run_limits(args)
    if args.dim < 2:
        raise ValueError("--dim must be at least 2")
    rng = np.random.default_rng(args.seed)
    n = args.dim
    if args.diagonal:
        A = np.diag(rng.uniform(0.5, 4.0, n))
    else:
        M = rng.standard_normal((n, n))
        A = M.T @ M + 0.5 * np.eye(n)
    b = rng.standard_normal(n)
    problem = QuadraticBlockProblem(A, b)
    x0 = BlockVector([[v] for v in rng.uniform(-2.0, 2.0, n)])
    x, trace, status = blockmin.run(problem, x0, args.tol, args.max_iters,
                                    divergence_guard=None)
    alpha, beta, kappa, curve = blockmin.rate_certificate(problem, trace, [x0])
    report = {
        "command": "demo-quadratic",
        "config": {"dim": n, "seed": args.seed, "diagonal": args.diagonal,
                   "tol": args.tol},
        "status": status,
        "iterations": trace.n_steps,
        "alpha": alpha,
        "beta": beta,
        "kappa": kappa,
        "bound_curve": curve,
        "observed_gaps": trace.gaps()[1:],
        "solution": [float(v) for v in x.concat()],
        "trace": _trace_payload(trace),
    }
    return report, EXIT_OK if status == blockmin.CONVERGED else EXIT_NUMERICAL


def build_parser():
    parser = _Parser(
        prog="slicescale",
        description="Slice-sum scaling of nonnegative matrices and tensors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def problem_input(p):
        p.add_argument("input", help="input file (JSON, or CSV with --csv)")
        p.add_argument("--targets", dest="targets_path",
                       help="JSON file with the target vectors")
        p.add_argument("--csv", action="store_true",
                       help="input is a CSV matrix")
        p.add_argument("--row-targets",
                       help="comma-separated row targets (CSV input)")
        p.add_argument("--col-targets",
                       help="comma-separated column targets (CSV input)")

    def run_limits(p):
        p.add_argument("--tol", type=float, default=1e-10,
                       help="stop at this relative slice-sum mismatch (scale, "
                       "bridge) or gradient norm (demo-quadratic)")
        p.add_argument("--max-iters", type=int, default=10000)

    def output(p):
        p.add_argument("--output",
                       help="write the JSON report here instead of stdout")

    p_scale = sub.add_parser("scale", help="rescale a tensor to its targets")
    problem_input(p_scale)
    run_limits(p_scale)
    p_scale.add_argument("--seed", type=int, default=0)
    output(p_scale)
    p_scale.add_argument("--force", action="store_true",
                         help="skip the scalability check and rely on the divergence guard")
    p_scale.add_argument("--random-start", action="store_true",
                         help="start from a seeded random point instead of zero")
    p_scale.add_argument("--guard", type=float,
                         help="divergence guard on the iterate sup norm")
    p_scale.add_argument("--no-trace-iterates", dest="record_iterates",
                         action="store_false",
                         help="do not keep iterate snapshots (disables the certificate)")

    p_feas = sub.add_parser("feasible", help="test scalability without solving")
    problem_input(p_feas)
    output(p_feas)

    p_bridge = sub.add_parser("bridge", help="matrix rescaling with source/target marginals")
    p_bridge.add_argument("input", help="bridge file (JSON)")
    run_limits(p_bridge)
    output(p_bridge)
    p_bridge.add_argument("--stochastic", action="store_true",
                          help="force unit column sums (column-stochastic output)")

    p_demo = sub.add_parser("demo-quadratic",
                            help="greedy coordinate descent demo on an SPD quadratic")
    run_limits(p_demo)
    p_demo.add_argument("--seed", type=int, default=0)
    output(p_demo)
    p_demo.add_argument("--dim", type=int, default=4)
    p_demo.add_argument("--diagonal", action="store_true")
    return parser


def main(argv=None):
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    dispatch = {
        "scale": cmd_scale,
        "feasible": cmd_feasible,
        "bridge": cmd_bridge,
        "demo-quadratic": cmd_demo_quadratic,
    }
    try:
        report, code = dispatch[args.command](args)
        emit(report, args)
        return code
    except (ScalingOverflowError, NumericalOverflowError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError, KeyError, json.JSONDecodeError,
            MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
