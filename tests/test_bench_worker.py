"""The entry points the benchmark calls, run in process: the library
through ``bench/worker.py``'s ``solve_case``, and the CLI through
``cli.main`` on the ``cli-scale`` corpus. A change that breaks one of them
fails here, before any benchmark run. The benchmark's own oracles judge the
outputs."""

import importlib
import json
import os

import numpy as np
import pytest

from slicescale import cli

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench")


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's corpus, oracles and worker modules."""
    monkeypatch.syspath_prepend(BENCH)
    return [importlib.import_module(name)
            for name in ("corpus", "oracles", "worker")]


def test_solve_case_on_a_dense_solve_case(bench):
    corpus, oracles, worker = bench
    case = corpus.dense_solve(3)[0]
    scaled = worker.solve_case(case)
    reference = oracles.alternating_scaling(case["array"], case["targets"])
    assert oracles.check_scaled(scaled, case["array"], case["targets"],
                                reference) == []


def test_solve_case_on_a_quadratic_case(bench):
    _, oracles, worker = bench
    rng = np.random.default_rng(2700)
    m = rng.standard_normal((7, 7))
    case = {"name": "quadratic-3x4", "kind": "quadratic",
            "matrix": m.T @ m + 0.5 * np.eye(7),
            "linear": rng.standard_normal(7), "block_dims": [3, 4]}
    x = worker.solve_case(case)
    assert oracles.check_quadratic(x, case["matrix"], case["linear"],
                                   worker.TOL) == []


def test_cli_scale_corpus_through_main(bench, tmp_path):
    # every call of the cli-scale workload at seed 3, judged as bench/run.py
    # judges it: exit code, verdict, witness, scaled tensor and certificate
    corpus, oracles, _ = bench
    problems = []
    for case in corpus.cli_scale(3):
        path, out = tmp_path / f"{case['name']}.json", tmp_path / "report.json"
        corpus.write_cli_input(case, path)
        code = cli.main([case["command"], str(path), "--output", str(out)])
        report = json.loads(out.read_text())
        if case["kind"] == "bridge":
            scalable, reference = None, oracles.bridge_reference(case)
        else:
            scalable = oracles.lp_says_scalable(case["array"], case["targets"])
            reference = (oracles.alternating_scaling(case["array"],
                                                     case["targets"])
                         if scalable and case["command"] == "scale" else None)
        problems += [f"{case['name']}: {p}" for p in oracles.check_cli_report(
            case, code, report, scalable, reference)]
        out.unlink()
    assert problems == []
