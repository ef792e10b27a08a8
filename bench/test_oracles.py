"""Self-tests of the benchmark's oracles: each accepts a correct output and
rejects a deliberately corrupted one.

    python3 -m pytest -q bench/test_oracles.py
"""

import numpy as np
import pytest

import corpus
import oracles

TOL = 1e-10


@pytest.fixture
def matrix_case():
    rng = np.random.default_rng(7)
    array = rng.uniform(0.1, 1.0, (6, 5))
    array[0, 0] = array[3, 2] = 0.0
    targets = [np.full(6, 5.0), np.full(5, 6.0)]
    return array, targets, oracles.alternating_scaling(array, targets)


def test_alternating_scaling_meets_targets(matrix_case):
    array, targets, ref = matrix_case
    assert np.allclose(ref.sum(axis=1), targets[0], rtol=1e-12)
    assert np.allclose(ref.sum(axis=0), targets[1], rtol=1e-12)
    assert ref[0, 0] == 0.0 and ref[3, 2] == 0.0


def test_alternating_scaling_handles_tensors_and_tiny_entries():
    rng = np.random.default_rng(3)
    array = np.exp(rng.uniform(-300.0, 0.0, (4, 5, 3)))
    targets = [np.full(4, 15.0), np.full(5, 12.0), np.full(3, 20.0)]
    ref = oracles.alternating_scaling(array, targets)
    assert np.allclose(ref.sum(axis=(1, 2)), 15.0, rtol=1e-12)
    assert np.allclose(ref.sum(axis=(0, 1)), 20.0, rtol=1e-12)


def test_check_scaled_accepts_the_reference(matrix_case):
    array, targets, ref = matrix_case
    assert oracles.check_scaled(ref, array, targets, ref) == []


def test_check_scaled_rejects_a_perturbed_entry(matrix_case):
    array, targets, ref = matrix_case
    bad = ref.copy()
    bad[2, 3] *= 1.0 + 1e-4
    assert oracles.check_scaled(bad, array, targets, ref)


def test_check_scaled_rejects_a_filled_zero(matrix_case):
    array, targets, ref = matrix_case
    bad = ref.copy()
    bad[0, 0] = 1e-300
    assert any("zero entry" in p for p in oracles.check_scaled(bad, array, targets, ref))


def test_check_scaled_rejects_a_wrong_scaling_with_right_sums(matrix_case):
    # Doubly-stochastic-preserving corruption: move mass around a 2x2 cycle,
    # which keeps every slice sum but changes the tensor.
    array, targets, ref = matrix_case
    bad = ref.copy()
    delta = 1e-3 * ref.max()
    bad[1, 1] += delta
    bad[1, 3] -= delta
    bad[4, 1] -= delta
    bad[4, 3] += delta
    problems = oracles.check_scaled(bad, array, targets, ref)
    assert problems == [problems[0]] and "alternating scaling" in problems[0]


def test_lp_verdicts():
    scalable = np.ones((3, 3))
    # Block-diagonal support with row mass 2 + 1 against column mass 1 + 2.
    blocked = np.zeros((3, 3))
    blocked[:2, :2] = 1.0
    blocked[2, 2] = 1.0
    ones = [np.ones(3), np.ones(3)]
    skewed = [np.ones(3), np.array([0.5, 0.5, 2.0])]
    assert oracles.lp_says_scalable(scalable, ones)
    assert oracles.lp_says_scalable(blocked, ones)
    assert not oracles.lp_says_scalable(blocked, skewed)


def test_check_witness_accepts_a_witness_and_rejects_broken_ones():
    blocked = np.zeros((3, 3))
    blocked[:2, :2] = 1.0
    blocked[2, 2] = 1.0
    targets = [np.ones(3), np.array([0.5, 0.5, 2.0])]
    # Rows of the first block up by 1, its columns down by 1: its entries
    # keep their sums at 0, the (2, 2) entry gets -1.5, and both blocks stay
    # orthogonal to their targets.
    witness = [np.array([1.0, 1.0, -2.0]), np.array([-1.0, -1.0, 0.5])]
    assert oracles.check_witness(witness, blocked, targets) == []
    broken = [witness[0].copy(), witness[1].copy()]
    broken[0][0] += 0.5
    assert oracles.check_witness(broken, blocked, targets)
    assert oracles.check_witness(None, blocked, targets)
    assert oracles.check_witness([witness[0], -witness[1]], blocked, targets)


def test_check_quadratic():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((8, 8))
    matrix = m.T @ m + 0.5 * np.eye(8)
    linear = rng.standard_normal(8)
    exact = np.linalg.solve(matrix, -linear)
    assert oracles.check_quadratic(exact, matrix, linear, TOL) == []
    bad = exact.copy()
    bad[3] += 1e-6
    assert oracles.check_quadratic(bad, matrix, linear, TOL)


def _certificate(alpha, beta, objectives, grad0, d=2):
    kappa = beta / alpha
    steps = len(objectives) - 1
    lead = grad0 ** 2 / (2 * alpha)
    curve = [lead * (1 - 1 / (d * kappa)) * (1 - 1 / ((d - 1) * kappa)) ** k
             for k in range(steps)]
    gaps = [t - objectives[-1] for t in objectives[1:]]
    cert = {"sampled_alpha": alpha, "sampled_beta": beta, "sampled_kappa": kappa,
            "bound_curve": curve, "observed_gaps": gaps}
    return cert, {"objectives": objectives, "full_grad_norms": [grad0]}


def test_check_certificate():
    objectives = [10.0, 9.0, 8.9, 8.89, 8.889]
    cert, trace = _certificate(0.5, 2.0, objectives, grad0=3.0)
    assert oracles.check_certificate(cert, trace, 2) == []
    swapped, trace = _certificate(2.0, 0.5, objectives, grad0=3.0)
    assert oracles.check_certificate(swapped, trace, 2)
    tight, trace = _certificate(0.5, 2.0, objectives, grad0=0.1)
    assert any("above the bound" in p for p in oracles.check_certificate(tight, trace, 2))
    edited, trace = _certificate(0.5, 2.0, objectives, grad0=3.0)
    edited["bound_curve"][2] *= 2.0
    assert oracles.check_certificate(edited, trace, 2)


def test_check_bridge():
    case = corpus.cli_scale(5)[-1]
    ref = oracles.bridge_reference(case)
    assert oracles.check_bridge(ref, case, ref) == []
    bad = ref.copy()
    bad[1, 2] *= 1.001
    assert oracles.check_bridge(bad, case, ref)


def test_corpus_is_seeded():
    a, b = corpus.steep_solve(4)[0], corpus.steep_solve(4)[0]
    c = corpus.steep_solve(5)[0]
    assert all(np.array_equal(x.get("array"), y.get("array")) for x, y in zip(a, b))
    assert not np.array_equal(a[0]["array"], c[0]["array"])


def test_patterns_are_scalable():
    for case in corpus.cli_scale(9):
        if case["name"].startswith(("pattern", "feasible")):
            assert oracles.lp_says_scalable(case["array"], case["targets"])


def test_check_cli_report_rejects_wrong_verdicts_and_broken_outputs(matrix_case):
    array, targets, ref = matrix_case
    case = {"kind": "scale", "command": "scale", "array": array, "targets": targets}
    objectives = [10.0, 9.0, 8.9, 8.89, 8.889]
    cert, trace = _certificate(0.5, 2.0, objectives, grad0=3.0)
    good = {"status": "converged",
            "feasibility": {"verdict": "scalable", "witness": None},
            "scaled": {"dims": list(array.shape), "values": ref.ravel().tolist()},
            "certificate": cert, "trace": trace}
    assert oracles.check_cli_report(case, 0, good, True, ref) == []
    # exit 2 on an input scipy calls scalable, and exit 0 on one it does not
    assert oracles.check_cli_report(case, 2, good, True, ref)
    assert oracles.check_cli_report(case, 0, good, False, None)
    perturbed = dict(good, scaled={"dims": list(array.shape),
                                   "values": (ref * 1.001).ravel().tolist()})
    assert oracles.check_cli_report(case, 0, perturbed, True, ref)
    no_cert = {k: v for k, v in good.items() if k != "certificate"}
    assert oracles.check_cli_report(case, 0, no_cert, True, ref) == ["no rate certificate"]


def test_check_cli_report_checks_witnesses():
    blocked = np.zeros((3, 3))
    blocked[:2, :2] = 1.0
    blocked[2, 2] = 1.0
    targets = [np.ones(3), np.array([0.5, 0.5, 2.0])]
    case = {"kind": "scale", "command": "feasible", "array": blocked, "targets": targets}
    witness = [[1.0, 1.0, -2.0], [-1.0, -1.0, 0.5]]
    report = {"verdict": "not_scalable", "witness": witness}
    assert oracles.check_cli_report(case, 2, report, False, None) == []
    broken = {"verdict": "not_scalable", "witness": [[1.0, 1.0, -2.0], [1.0, 1.0, -0.5]]}
    assert oracles.check_cli_report(case, 2, broken, False, None)
    missing = {"verdict": "not_scalable", "witness": None}
    assert oracles.check_cli_report(case, 2, missing, False, None)


def test_metric_names_match_benchmark_json():
    import json
    from pathlib import Path

    import run

    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layers = {name: unit for name, (unit, _, _) in run.PER_LAYER.items()}
    layers["trace.wall_ratio"] = "ratio"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
