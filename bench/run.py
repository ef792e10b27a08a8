#!/usr/bin/env python3
"""Seeded benchmark of slicescale on three workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. NAME is one of

- ``dense-solve``: library solves of positive dense inputs (frame-bound);
- ``steep-solve``: library solves that take hundreds to thousands of greedy
  steps (loop-bound);
- ``cli-scale``: ``python -m slicescale.cli`` subprocesses (LP- and
  certificate-bound).

Inputs come from ``--seed`` alone. Every round runs the whole corpus in fresh
processes, one at a time, with ``PYTHONPATH=src`` and BLAS pinned to one
thread; rounds repeat until ``--seconds`` have passed (at least three). Every
output of every round is checked against the independent oracles of
oracles.py, outside the timed regions.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics: the corpus's wall and CPU time as the sum of each
operation's median over rounds, and the medians of peak memory and set-up
time. With ``--trace 1`` untraced and traced rounds alternate, and it carries
the per-layer metrics of the traced rounds plus the tracing overhead.
Details go to bench/out/.
"""

import os

# Pinned before numpy loads; every child process inherits the setting.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import corpus  # noqa: E402
import oracles  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "slicescale" / "__init__.py"
OUT = HERE / "out"

MIN_ROUNDS = 3
# A traced run alternates untraced and traced rounds; at least this many pairs.
MIN_TRACE_PAIRS = 2
# Set-up probes per round; setup_s is the median over all probes of a run.
SETUP_PROBES = 3
# A run must end within 180 s; past this the running child is killed and the
# run exits without a result.
DEADLINE_S = 170
TOL = 1e-10  # the worker's and the CLI's default stopping tolerance

# Per-layer metrics: name -> (unit, where the value comes from).
PER_LAYER = {
    "objective.build_frame_s": ("s", "seconds", "objective.build_frame"),
    "numerics.null_space_s": ("s", "seconds", "numerics.null_space"),
    "objective.incidence_mb": ("MB", "peaks", "objective.incidence_mb"),
    "scaler.solve_s": ("s", "seconds", "scaler.solve"),
    "blockmin.steps": ("count", "counts", "blockmin.steps"),
    "blockmin.step_ms": ("ms", "step_ms", None),
    "tensor.scale_calls": ("count", "calls", "tensor.scale"),
    "tensor.scale_s": ("s", "seconds", "tensor.scale"),
    "scaler.normalize_s": ("s", "seconds", "scaler.normalize"),
    "feasibility.check_scalable_s": ("s", "seconds", "feasibility.check_scalable"),
    "feasibility.pivots": ("count", "counts", "feasibility.pivots"),
    "feasibility.tableau_mb": ("MB", "peaks", "feasibility.tableau_mb"),
    "cli.bound_certificate_s": ("s", "seconds", "cli.bound_certificate"),
    "blockmin.estimate_alpha_beta_s": ("s", "seconds", "blockmin.estimate_alpha_beta"),
    "blockmin.hessian_samples": ("count", "counts", "blockmin.hessian_samples"),
    "numerics.symmetric_eigs_s": ("s", "seconds", "numerics.symmetric_eigs"),
    "cli.load_problem_s": ("s", "seconds", "cli.load_problem"),
    "cli.emit_s": ("s", "seconds", "cli.emit"),
    "cli.report_kb": ("KB", "report_kb", None),
    "bridge.solve_bridge_s": ("s", "seconds", "bridge.solve_bridge"),
}
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
WORKLOADS = ("dense-solve", "steep-solve", "cli-scale")


class DeadlineExceeded(Exception):
    pass


class Round:
    """Measurements and check results of one pass over a corpus."""

    def __init__(self, traced):
        self.traced = traced
        self.setup_s = []
        self.op_wall = {}  # operation name -> seconds
        self.op_cpu = {}
        self.peak_rss_mb = 0.0
        self.attempted = 0
        self.failures = []
        self.problems = []
        self.layers = {"seconds": {}, "calls": {}, "counts": {}, "peaks": {}}
        self.report_kb = 0.0

    def add_layers(self, totals):
        for kind in ("seconds", "calls", "counts"):
            for name, value in totals[kind].items():
                self.layers[kind][name] = self.layers[kind].get(name, 0) + value
        for name, value in totals["peaks"].items():
            self.layers["peaks"][name] = max(self.layers["peaks"].get(name, 0.0), value)

    def layer_metrics(self):
        out = {}
        for name, (_, source, key) in PER_LAYER.items():
            if source == "step_ms":
                steps = self.layers["counts"].get("blockmin.steps", 0)
                run_s = self.layers["seconds"].get("blockmin.run", 0.0)
                value = 1000.0 * run_s / steps if steps else 0.0
            elif source == "report_kb":
                value = self.report_kb
            else:
                value = self.layers[source].get(key, 0)
            out[name] = value
        return out

    def summary(self):
        return {"traced": self.traced, "setup_s": self.setup_s, "op_wall": self.op_wall,
                "op_cpu": self.op_cpu, "peak_rss_mb": self.peak_rss_mb,
                "attempted": self.attempted, "failures": self.failures,
                "problems": self.problems,
                "layers": self.layer_metrics() if self.traced else None}


class Processes:
    """Starts measured children one at a time and waits for each."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH="src")
        self.pid = None

    def run(self, args, stdout_name):
        """Run ``python3 ARGS`` with stdout to a file in the workdir.

        Returns (start, end, exit code, resource usage) with start and end on
        the monotonic clock that the children also read.
        """
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, str(self.workdir / stdout_name), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(self.workdir / "stderr.txt"), flags, 0o644),
        ]
        start = time.perf_counter()
        self.pid = os.posix_spawn(sys.executable, [sys.executable, *args], self.env,
                                  file_actions=actions)
        _, status, usage = os.wait4(self.pid, 0)
        end = time.perf_counter()
        self.pid = None
        return start, end, os.waitstatus_to_exitcode(status), usage

    def setup_time(self, tag):
        """Seconds from spawning a fresh interpreter until it has imported
        numpy and slicescale and loaded the inputs (worker.py probe)."""
        start, _, code, _ = self.run(
            [str(HERE / "worker.py"), str(self.workdir), tag, "probe"], "stdout.txt")
        if code != 0:
            raise RuntimeError(f"set-up probe failed: {self.stderr_tail()}")
        record = json.loads((self.workdir / f"round-{tag}.json").read_text())
        return record["ready"] - start

    def stderr_tail(self):
        return (self.workdir / "stderr.txt").read_text()[-400:]

    def kill(self):
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


class LibraryWorkload:
    """dense-solve and steep-solve: one worker process per round."""

    def __init__(self, procs, cases, references):
        self.procs = procs
        self.cases = cases
        self.references = references
        corpus.write_library(cases, procs.workdir / "inputs.npz",
                             procs.workdir / "manifest.json")

    def round(self, index, traced):
        rnd = Round(traced)
        workdir = self.procs.workdir
        mode = "trace" if traced else "solve"
        _, _, code, _ = self.procs.run(
            [str(HERE / "worker.py"), str(workdir), str(index), mode], "stdout.txt")
        rnd.attempted = len(self.cases)
        if code != 0:
            rnd.failures = [f"worker exit {code}: {self.procs.stderr_tail()}"] * len(self.cases)
            return rnd
        record = json.loads((workdir / f"round-{index}.json").read_text())
        rnd.op_wall = record["op_wall"]
        rnd.op_cpu = record["op_cpu"]
        rnd.peak_rss_mb = record["peak_rss_kb"] / 1024.0
        rnd.failures = [f"{name}: {err}" for name, err in record["failures"].items()]
        if record["layers"] is not None:
            rnd.add_layers(record["layers"])
        with np.load(workdir / f"outputs-{index}.npz") as outputs:
            for i, case in enumerate(self.cases):
                if str(i) in outputs.files:
                    rnd.problems += [f"{case['name']}: {p}"
                                     for p in self.check(case, outputs[str(i)])]
        return rnd

    def check(self, case, output):
        if case["kind"] == "quadratic":
            return oracles.check_quadratic(output, case["matrix"], case["linear"], TOL)
        return oracles.check_scaled(output, case["array"], case["targets"],
                                    self.references[case["name"]])


class CliWorkload:
    """cli-scale: one CLI subprocess per case."""

    def __init__(self, procs, cases):
        self.procs = procs
        self.cases = cases
        self.scalable = {}
        self.references = {}
        manifest = []
        for case in cases:
            case["file"] = f"{case['name']}.json"
            corpus.write_cli_input(case, procs.workdir / case["file"])
            manifest.append({"name": case["name"], "file": case["file"]})
            if case["kind"] == "bridge":
                self.references[case["name"]] = oracles.bridge_reference(case)
                continue
            scalable = oracles.lp_says_scalable(case["array"], case["targets"])
            self.scalable[case["name"]] = scalable
            if scalable and case["command"] == "scale":
                self.references[case["name"]] = oracles.alternating_scaling(
                    case["array"], case["targets"])
        with open(procs.workdir / "manifest.json", "w") as fh:
            json.dump(manifest, fh)

    def round(self, index, traced):
        rnd = Round(traced)
        spans = self.procs.workdir / "spans.json"
        for case in self.cases:
            cli_args = [case["command"], str(self.procs.workdir.relative_to(ROOT) / case["file"])]
            if traced:
                args = [str(HERE / "tracing.py"), str(spans), *cli_args]
            else:
                args = ["-m", "slicescale.cli", *cli_args]
            report_name = f"report-{case['name']}.json"
            start, end, code, usage = self.procs.run(args, report_name)
            rnd.attempted += 1
            rnd.op_wall[case["name"]] = end - start
            rnd.op_cpu[case["name"]] = usage.ru_utime + usage.ru_stime
            rnd.peak_rss_mb = max(rnd.peak_rss_mb, usage.ru_maxrss / 1024.0)
            text = (self.procs.workdir / report_name).read_text()
            rnd.report_kb += len(text.encode()) / 1024.0
            if traced:
                rnd.add_layers(json.loads(spans.read_text()))
            try:
                report = json.loads(text) if code in (0, 2) else None
            except json.JSONDecodeError:
                report = None
            if report is None:
                rnd.failures.append(f"{case['name']}: exit {code}, "
                                    f"{self.procs.stderr_tail()}")
                continue
            problems = oracles.check_cli_report(case, code, report,
                                                self.scalable.get(case["name"]),
                                                self.references.get(case["name"]))
            rnd.problems += [f"{case['name']}: {p}" for p in problems]
        return rnd


def build_workload(name, seed, procs):
    if name == "dense-solve":
        cases = corpus.dense_solve(seed)
        refs = {c["name"]: oracles.alternating_scaling(c["array"], c["targets"])
                for c in cases}
        return LibraryWorkload(procs, cases, refs)
    if name == "steep-solve":
        cases, refs = corpus.steep_solve(seed)
        for c in cases:
            if c["kind"] == "scale" and c["name"] not in refs:
                refs[c["name"]] = oracles.alternating_scaling(c["array"], c["targets"])
        return LibraryWorkload(procs, cases, refs)
    return CliWorkload(procs, corpus.cli_scale(seed))


def measure(procs, workload, seconds, trace):
    """Rounds until ``seconds`` have passed; in trace mode untraced and
    traced rounds alternate and come in pairs."""
    procs.setup_time("warm")  # fills the page cache and writes .pyc files
    rounds = []
    start = time.perf_counter()
    while True:
        setup = [procs.setup_time(f"{len(rounds)}-{k}") for k in range(SETUP_PROBES)]
        rounds.append(workload.round(len(rounds), trace and len(rounds) % 2 == 1))
        rounds[-1].setup_s = setup
        needed = 2 * MIN_TRACE_PAIRS if trace else MIN_ROUNDS
        whole_pairs = not trace or len(rounds) % 2 == 0
        if (len(rounds) >= needed and whole_pairs
                and time.perf_counter() - start >= seconds):
            return rounds


def median(values):
    return float(statistics.median(values))


def corpus_seconds(rounds, attr):
    """Sum over the corpus's operations of each one's median over rounds.

    A per-operation median drops the samples that a transient slowdown of the
    machine hits, which the median of round totals cannot do.
    """
    names = {name for r in rounds for name in getattr(r, attr)}
    return sum(median([getattr(r, attr)[name] for r in rounds if name in getattr(r, attr)])
               for name in names)


def metrics_of(rounds, trace):
    if not trace:
        values = {"wall_s": corpus_seconds(rounds, "op_wall"),
                  "cpu_s": corpus_seconds(rounds, "op_cpu"),
                  "peak_rss_mb": median([r.peak_rss_mb for r in rounds]),
                  "setup_s": median([t for r in rounds for t in r.setup_s])}
        return {name: {"value": values[name], "unit": unit}
                for name, unit in END_TO_END.items()}
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    per_round = [r.layer_metrics() for r in traced]
    out = {name: {"value": median([m[name] for m in per_round]), "unit": unit}
           for name, (unit, _, _) in PER_LAYER.items()}
    ratio = corpus_seconds(traced, "op_wall") / corpus_seconds(plain, "op_wall")
    out["trace.wall_ratio"] = {"value": ratio, "unit": "ratio"}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not PACKAGE.is_file():
        print(f"error: {PACKAGE.relative_to(ROOT)} not found; run from the root "
              "of a slicescale checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    workdir = HERE / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    procs = Processes(workdir)

    def on_deadline(signum, frame):
        raise DeadlineExceeded(f"run exceeded {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, on_deadline)
    signal.alarm(DEADLINE_S)
    try:
        workload = build_workload(args.workload, args.seed, procs)
        rounds = measure(procs, workload, args.seconds, bool(args.trace))
    except DeadlineExceeded as err:
        procs.kill()
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [p for r in rounds for p in r.failures + r.problems]
    result = {
        "correct": not any(r.problems for r in rounds),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(len(r.failures) for r in rounds),
        "metrics": metrics_of(rounds, bool(args.trace)),
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "result": result, "rounds": [r.summary() for r in rounds]}
    (OUT / f"result-{stem}.json").write_text(json.dumps(details, indent=1))
    if args.trace:
        spans = [r.layers for r in rounds if r.traced]
        (OUT / f"trace-{stem}.json").write_text(json.dumps(spans, indent=1))
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
