import json
import os
import subprocess
import sys

import numpy as np
import pytest

from helpers import reduced_residual
from slicescale import blockmin, cli, feasibility, scaler
from slicescale.objective import ScalingProblem
from slicescale.tensor import DenseTensor, SliceTargets


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


@pytest.fixture
def tensor_file(tmp_path):
    path = tmp_path / "tensor.json"
    write_json(path, {"dims": [2, 2], "values": [1.0, 2.0, 3.0, 4.0],
                      "targets": [[1.0, 1.0], [1.0, 1.0]]})
    return str(path)


@pytest.fixture
def infeasible_file(tmp_path):
    path = tmp_path / "bad.json"
    write_json(path, {"dims": [2, 2], "values": [1.0, 1.0, 0.0, 1.0],
                      "targets": [[1.0, 1.0], [1.0, 1.0]]})
    return str(path)


def gauge_case():
    """A 7 x 7 block-diagonal support with one gauge direction, and its
    targets."""
    rng = np.random.default_rng(2100)
    array = np.zeros((7, 7))
    array[:3, :4] = rng.uniform(0.2, 1.0, (3, 4))
    array[3:, 4:] = rng.uniform(0.2, 1.0, (4, 3))
    targets = SliceTargets([
        np.concatenate([np.full(3, 3.5 / 3), np.full(4, 3.5 / 4)]),
        np.concatenate([np.full(4, 3.5 / 4), np.full(3, 3.5 / 3)])])
    return DenseTensor(array), targets


def read_report(path):
    with open(path) as fh:
        return json.load(fh)


class TestFileRoundTrip:
    def test_bit_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        values = rng.uniform(0.1, 1.0, (3, 4))
        values[1, 2] = 0.0
        tensor = DenseTensor(values)
        targets = SliceTargets([[1, 1, 1], [0.75] * 4])
        path = str(tmp_path / "roundtrip.json")
        cli.save_tensor_file(path, tensor, targets)
        loaded, loaded_targets = cli.load_tensor_file(path)
        assert loaded.dims == tensor.dims
        assert (loaded.values == tensor.values).all()
        reloaded = SliceTargets(loaded_targets)
        for a, b in zip(reloaded.vectors, targets.vectors):
            assert (a == b).all()

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "broken.json"
        write_json(path, {"dims": [2, 2]})
        with pytest.raises(ValueError, match="values"):
            cli.load_tensor_file(str(path))

    @pytest.mark.parametrize("command, document, key", [
        ("bridge", {"source": [0.5, 0.5], "target": [0.6, 0.4]}, "matrix"),
        ("bridge", {"matrix": [[0.5, 0.25], [0.5, 0.75]],
                    "target": [0.6, 0.4]}, "source"),
        ("bridge", {"matrix": [[0.5, 0.25], [0.5, 0.75]],
                    "source": [0.5, 0.5]}, "target"),
        ("scale", {"vectors": [[1.0, 1.0], [1.0, 1.0]]}, "targets"),
    ], ids=["bridge-matrix", "bridge-source", "bridge-target", "targets"])
    def test_missing_json_key_is_named(self, command, document, key,
                                       tensor_file, tmp_path, capsys):
        path = str(tmp_path / "input.json")
        write_json(path, document)
        if command == "bridge":
            argv = ["bridge", path]
        else:
            argv = ["scale", tensor_file, "--targets", path]
        assert cli.main(argv) == cli.EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "needs" in err
        assert f"'{key}'" in err


class TestScaleCommand:
    def test_success(self, tensor_file, tmp_path):
        out = str(tmp_path / "report.json")
        rc = cli.main(["scale", tensor_file, "--tol", "1e-12", "--output", out])
        assert rc == cli.EXIT_OK
        report = read_report(out)
        assert report["status"] == "converged"
        assert max(report["residuals"]) <= 1e-8
        assert report["method"] == "greedy-standard"
        assert "certificate" in report
        cert = report["certificate"]
        assert cert["sampled_alpha"] <= cert["sampled_beta"]
        assert len(cert["bound_curve"]) == report["iterations"]
        scaled = np.array(report["scaled"]["values"]).reshape(2, 2)
        np.testing.assert_allclose(scaled.sum(axis=0), 1.0, atol=1e-8)

    def test_infeasible_exit_two(self, infeasible_file, tmp_path):
        out = str(tmp_path / "report.json")
        rc = cli.main(["scale", infeasible_file, "--output", out])
        assert rc == cli.EXIT_INFEASIBLE
        report = read_report(out)
        assert report["status"] == "not_scalable"
        assert report["feasibility"]["witness"] is not None

    def test_force_runs_into_budget(self, infeasible_file, tmp_path):
        out = str(tmp_path / "report.json")
        rc = cli.main(["scale", infeasible_file, "--force",
                       "--max-iters", "200", "--output", out])
        assert rc == cli.EXIT_NUMERICAL
        assert read_report(out)["status"] == "max_iters_reached"

    def test_validation_exit_one(self, tensor_file):
        assert cli.main(["scale", tensor_file, "--tol", "-1"]) == cli.EXIT_INVALID

    @pytest.mark.parametrize("tol", ["inf", "nan", "0"])
    def test_invalid_tol_exit_one(self, tensor_file, tol, capsys):
        rc = cli.main(["scale", tensor_file, "--tol", tol])
        assert rc == cli.EXIT_INVALID
        assert "tol must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("guard", ["nan", "-1", "0"])
    def test_invalid_guard_exit_one(self, tensor_file, guard, capsys):
        rc = cli.main(["scale", tensor_file, "--force", "--guard", guard])
        assert rc == cli.EXIT_INVALID
        assert "guard" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, name", [
        (["scale", "TENSOR", "--seed", "-1"], "seed"),
        (["scale", "TENSOR", "--seed", "-1", "--no-trace-iterates"], "seed"),
        (["scale", "TENSOR", "--guard", "0"], "guard"),
        (["scale", "TENSOR", "--guard", "nan"], "guard"),
        (["scale", "UNSCALABLE", "--guard", "0"], "guard"),
        (["scale", "UNSCALABLE", "--guard", "nan"], "guard"),
        (["demo-quadratic", "--seed", "-1"], "seed"),
    ], ids=["seed", "seed-no-iterates", "guard-zero", "guard-nan",
            "unscalable-guard-zero", "unscalable-guard-nan", "demo-seed"])
    def test_invalid_option_refused_before_the_input(
            self, argv, name, tensor_file, infeasible_file, monkeypatch, capsys):
        loaded = []
        load_problem = cli.load_problem

        def recording(args):
            loaded.append(args.input)
            return load_problem(args)

        monkeypatch.setattr(cli, "load_problem", recording)
        files = {"TENSOR": tensor_file, "UNSCALABLE": infeasible_file}
        rc = cli.main([files.get(a, a) for a in argv])
        assert rc == cli.EXIT_INVALID
        assert name in capsys.readouterr().err
        assert loaded == []

    def test_memory_error_exit_one(self, tensor_file, monkeypatch, capsys):
        def exhausted(args):
            raise MemoryError("Unable to allocate 6.71 GiB for an array")

        monkeypatch.setattr(cli, "load_problem", exhausted)
        assert cli.main(["scale", tensor_file]) == cli.EXIT_INVALID
        assert "error: Unable to allocate" in capsys.readouterr().err

    def test_missing_file_exit_one(self, tmp_path):
        assert cli.main(["scale", str(tmp_path / "nope.json")]) == cli.EXIT_INVALID

    @pytest.mark.parametrize("document", [
        {"dims": 3, "values": [1.0, 2.0, 3.0, 4.0],
         "targets": [[1.0, 1.0], [1.0, 1.0]]},
        {"dims": [2, 2], "values": [1.0, 2.0, 3.0, 4.0], "targets": 5},
        7,
        {"dims": [2.5, 2], "values": [1.0, 2.0, 3.0, 4.0],
         "targets": [[1.0, 1.0], [1.0, 1.0]]},
    ], ids=["scalar-dims", "scalar-targets", "bare-number", "fractional-dims"])
    def test_malformed_file_exit_one(self, document, tmp_path, capsys):
        path = str(tmp_path / "malformed.json")
        write_json(path, document)
        assert cli.main(["scale", path]) == cli.EXIT_INVALID
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_targets_exit_one(self, tmp_path):
        path = str(tmp_path / "no_targets.json")
        write_json(path, {"dims": [2, 2], "values": [1.0, 1.0, 1.0, 1.0]})
        assert cli.main(["scale", path]) == cli.EXIT_INVALID

    def test_csv_matrix(self, tmp_path):
        path = tmp_path / "matrix.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        out = str(tmp_path / "report.json")
        rc = cli.main(["scale", str(path), "--csv",
                       "--row-targets", "1,1", "--col-targets", "1,1",
                       "--tol", "1e-12", "--output", out])
        assert rc == cli.EXIT_OK
        assert read_report(out)["status"] == "converged"

    def test_random_start_converges_same(self, tensor_file, tmp_path):
        out1 = str(tmp_path / "r1.json")
        out2 = str(tmp_path / "r2.json")
        assert cli.main(["scale", tensor_file, "--tol", "1e-12",
                         "--output", out1]) == cli.EXIT_OK
        assert cli.main(["scale", tensor_file, "--tol", "1e-12",
                         "--random-start", "--seed", "3",
                         "--output", out2]) == cli.EXIT_OK
        a = np.array(read_report(out1)["scaled"]["values"])
        b = np.array(read_report(out2)["scaled"]["values"])
        np.testing.assert_allclose(a, b, atol=1e-7)

    def test_random_start_is_seeded(self, tmp_path):
        # a block-diagonal support with one gauge direction, where the start
        # must also be orthogonal to the gauge
        tensor, targets = gauge_case()
        path = str(tmp_path / "gauge.json")
        cli.save_tensor_file(path, tensor, targets)
        texts = {}
        for name, seed in (("a", "3"), ("b", "3"), ("c", "4")):
            out = str(tmp_path / f"{name}.json")
            assert cli.main(["scale", path, "--random-start", "--seed", seed,
                             "--output", out]) == cli.EXIT_OK
            report = read_report(out)
            report.pop("timestamp")
            texts[name] = report
        assert texts["a"] == texts["b"]
        # another seed starts elsewhere
        assert (texts["a"]["trace"]["objectives"][0]
                != texts["c"]["trace"]["objectives"][0])
        problem = ScalingProblem(tensor, targets)
        assert problem.gauge_dim == 1
        x0 = scaler.random_reduced_point(problem, np.random.default_rng(3))
        assert reduced_residual(problem, x0) <= 1e-12
        assert problem.scaled(x0).total == pytest.approx(
            texts["a"]["trace"]["objectives"][0], rel=1e-12)

    def test_dense_300_without_iterates(self, tmp_path):
        # Full support skips the feasibility LP, whose dense tableau for
        # this input would need about 66 GB, and the frame is O(N^2).
        rng = np.random.default_rng(2200)
        path = str(tmp_path / "dense.json")
        cli.save_tensor_file(path, DenseTensor(rng.uniform(0.1, 1.0, (300, 300))),
                             SliceTargets.uniform((300, 300)))
        out = str(tmp_path / "report.json")
        assert cli.main(["scale", path, "--no-trace-iterates",
                         "--output", out]) == cli.EXIT_OK
        report = read_report(out)
        assert report["status"] == "converged"
        assert report["feasibility"]["lp_stats"]["pivots"] == 0
        assert max(report["residuals"]) <= 1e-8

    def test_separate_targets_file(self, tmp_path):
        tensor_path = str(tmp_path / "t.json")
        write_json(tensor_path, {"dims": [2, 2], "values": [1.0, 1.0, 1.0, 1.0]})
        targets_path = str(tmp_path / "targets.json")
        write_json(targets_path, {"targets": [[1.0, 1.0], [1.0, 1.0]]})
        rc = cli.main(["scale", tensor_path, "--targets", targets_path])
        assert rc == cli.EXIT_OK

    def test_ones_matrix_output(self, tmp_path):
        path = str(tmp_path / "ones.json")
        write_json(path, {"dims": [2, 2], "values": [1.0] * 4,
                          "targets": [[1.0, 1.0], [1.0, 1.0]]})
        out = str(tmp_path / "report.json")
        assert cli.main(["scale", path, "--output", out]) == cli.EXIT_OK
        report = read_report(out)
        np.testing.assert_allclose(report["scaled"]["values"], 0.5, atol=1e-12)

    def test_random_cube(self, tmp_path):
        rng = np.random.default_rng(2024)
        tensor = DenseTensor(rng.uniform(0.1, 1.0, (3, 3, 3)))
        path = str(tmp_path / "cube.json")
        cli.save_tensor_file(path, tensor, SliceTargets.uniform((3, 3, 3)))
        out1 = str(tmp_path / "r1.json")
        out2 = str(tmp_path / "r2.json")
        assert cli.main(["scale", path, "--output", out1]) == cli.EXIT_OK
        assert cli.main(["scale", path, "--output", out2]) == cli.EXIT_OK
        r1, r2 = read_report(out1), read_report(out2)
        assert max(r1["residuals"]) <= 1e-8
        assert r1["trace"] == r2["trace"]

    def test_unresolvable_certificate_is_skipped(self, tmp_path):
        # A positive, so scalable, input whose smallest reduced Hessian
        # eigenvalue lies below what eigvalsh resolves: the run converges,
        # and the report says why the certificate was skipped.
        eps = 1e-16
        path = str(tmp_path / "tiny.json")
        write_json(path, {"dims": [3, 3],
                          "values": [2.0, eps, eps, eps, 1.0, eps, eps, eps, 5.0],
                          "targets": [[1.0] * 3, [1.0] * 3]})
        out = str(tmp_path / "report.json")
        assert cli.main(["scale", path, "--output", out]) == cli.EXIT_OK
        report = read_report(out)
        assert report["status"] == "converged"
        assert max(report["residuals"]) <= 1e-8
        assert report["certificate"] == {
            "skipped": "alpha below eigvalsh resolution"}


class TestBoundCertificate:
    def test_samples_iterates_and_16_reduced_combinations(self, monkeypatch):
        problem = ScalingProblem(*gauge_case())
        assert problem.gauge_dim == 1
        x0 = scaler.random_reduced_point(problem, np.random.default_rng(3))
        trace = scaler.solve(problem, x0=x0).trace
        seen = []
        real = blockmin.estimate_alpha_beta

        def recording(problem, points):
            seen.append(list(points))
            return real(problem, points)

        monkeypatch.setattr(blockmin, "estimate_alpha_beta", recording)
        certificate = cli.bound_certificate(problem, trace, 5)
        assert certificate["sampled_alpha"] > 0
        points, = seen
        n = len(trace.iterates)
        assert len(points) == n + 16
        assert all(p is x for p, x in zip(points, trace.iterates))
        assert max(reduced_residual(problem, x) for x in points) <= 1e-12
        # the combinations, in the documented draw order (i, k, lam)
        draws = np.random.default_rng(5)
        rows = [x.concat() for x in trace.iterates]
        for point in points[n:]:
            i, k = draws.integers(n), draws.integers(n)
            lam = draws.uniform()
            np.testing.assert_array_equal(
                point.concat(), (1.0 - lam) * rows[i] + lam * rows[k])


class TestDeterminism:
    def test_reports_byte_identical_modulo_timestamp(self, tensor_file, tmp_path):
        import re

        out1 = str(tmp_path / "a.json")
        out2 = str(tmp_path / "b.json")
        args = ["scale", tensor_file, "--tol", "1e-12", "--seed", "11"]
        assert cli.main(args + ["--output", out1]) == cli.EXIT_OK
        assert cli.main(args + ["--output", out2]) == cli.EXIT_OK
        pattern = re.compile(r'"timestamp": [0-9.e+-]+')
        texts = []
        for path in (out1, out2):
            with open(path) as fh:
                texts.append(pattern.sub('"timestamp": 0', fh.read()))
        assert texts[0] == texts[1]


class TestFeasibleCommand:
    def test_scalable_exit_zero(self, tensor_file, tmp_path):
        out = str(tmp_path / "report.json")
        rc = cli.main(["feasible", tensor_file, "--output", out])
        assert rc == cli.EXIT_OK
        assert read_report(out)["verdict"] == "scalable"

    def test_not_scalable_exit_two(self, infeasible_file, tmp_path):
        out = str(tmp_path / "report.json")
        rc = cli.main(["feasible", infeasible_file, "--output", out])
        assert rc == cli.EXIT_INFEASIBLE
        report = read_report(out)
        assert report["verdict"] == "not_scalable"
        assert report["lp_stats"]["pivots"] >= 1

    @pytest.mark.parametrize("command", ["feasible", "scale"])
    def test_oversized_tableau_exit_one(self, infeasible_file, command,
                                        monkeypatch, capsys):
        monkeypatch.setattr(feasibility, "MAX_TABLEAU_BYTES", 64)
        assert cli.main([command, infeasible_file]) == cli.EXIT_INVALID
        assert "tableau" in capsys.readouterr().err


class TestBridgeCommand:
    def test_stochastic_solution(self, tmp_path):
        path = str(tmp_path / "bridge.json")
        write_json(path, {"matrix": [[0.5, 0.25], [0.5, 0.75]],
                          "source": [0.5, 0.5], "target": [0.6, 0.4]})
        out = str(tmp_path / "report.json")
        rc = cli.main(["bridge", path, "--stochastic", "--tol", "1e-12",
                       "--output", out])
        assert rc == cli.EXIT_OK
        report = read_report(out)
        assert report["status"] == "converged"
        assert report["source_residual"] <= 1e-8
        B = np.array(report["matrix"])
        np.testing.assert_allclose(B.sum(axis=0), 1.0, atol=1e-8)

    @pytest.mark.parametrize("document", [
        7,
        {"matrix": {"a": 1}, "source": [0.5, 0.5], "target": [0.6, 0.4]},
        {"matrix": 5.0, "source": [0.5, 0.5], "target": [0.6, 0.4]},
    ], ids=["bare-number", "object-matrix", "scalar-matrix"])
    @pytest.mark.parametrize("stochastic", [True, False])
    def test_malformed_bridge_file_exit_one(self, document, stochastic,
                                            tmp_path, capsys):
        path = str(tmp_path / "bridge.json")
        write_json(path, document)
        args = ["bridge", path] + (["--stochastic"] if stochastic else [])
        assert cli.main(args) == cli.EXIT_INVALID
        assert capsys.readouterr().err.startswith("error: ")

    def test_infeasible_bridge_exit_two(self, tmp_path):
        path = str(tmp_path / "bridge.json")
        write_json(path, {"matrix": [[1.0, 1.0], [0.0, 1.0]],
                          "source": [0.5, 0.5], "target": [0.4, 0.6]})
        out = str(tmp_path / "report.json")
        rc = cli.main(["bridge", path, "--stochastic", "--output", out])
        assert rc == cli.EXIT_INFEASIBLE
        assert read_report(out)["feasibility"]["witness"] is not None


class TestDemoCommand:
    def test_diagonal_converges_quickly(self, tmp_path):
        out = str(tmp_path / "report.json")
        rc = cli.main(["demo-quadratic", "--dim", "5", "--diagonal",
                       "--seed", "2", "--tol", "1e-12", "--output", out])
        assert rc == cli.EXIT_OK
        report = read_report(out)
        assert report["status"] == "converged"
        assert report["iterations"] <= 5

    def test_bound_curve_dominates_gaps(self, tmp_path):
        out = str(tmp_path / "report.json")
        rc = cli.main(["demo-quadratic", "--dim", "3", "--seed", "4",
                       "--tol", "1e-10", "--output", out])
        assert rc == cli.EXIT_OK
        report = read_report(out)
        for gap, bound in zip(report["observed_gaps"], report["bound_curve"]):
            assert gap <= bound * 1.05 + 1e-12


class TestUsageErrors:
    """Usage errors exit 1 with the message on stderr, never 2, which is the
    not-scalable code; each subcommand takes only the flags it reads."""

    @pytest.mark.parametrize("argv", [
        ["scale", "TENSOR", "--tol", "abc"],
        ["scale", "TENSOR", "--bogus"],
        ["feasible", "TENSOR", "--tol", "1e-8"],
        ["feasible", "TENSOR", "--max-iters", "5"],
        ["feasible", "TENSOR", "--seed", "3"],
        ["bridge", "TENSOR", "--seed", "3"],
        ["scale"],
        [],
    ], ids=["tol-not-a-number", "unknown-flag", "feasible-tol",
            "feasible-max-iters", "feasible-seed", "bridge-seed",
            "no-input", "no-command"])
    def test_exit_one(self, argv, tensor_file, capsys):
        argv = [tensor_file if a == "TENSOR" else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == cli.EXIT_INVALID
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["scale", "feasible"])
    @pytest.mark.parametrize("flags, named", [
        (["--row-targets", "1,1"], "--row-targets"),
        (["--col-targets", "1,1"], "--col-targets"),
        (["--csv", "--row-targets", "1,1", "--col-targets", "1,1",
          "--targets", "TENSOR"], "--targets"),
    ], ids=["row-targets-json", "col-targets-json", "targets-csv"])
    def test_ignored_target_flags_refused(self, command, flags, named,
                                          tensor_file, tmp_path, capsys):
        # refused with the input present, and before it is read: a missing
        # input is not reported
        csv = tmp_path / "matrix.csv"
        csv.write_text("1.0,2.0\n3.0,4.0\n")
        present = str(csv) if "--csv" in flags else tensor_file
        flags = [tensor_file if f == "TENSOR" else f for f in flags]
        for path in (present, str(tmp_path / "absent")):
            assert cli.main([command, path] + flags) == cli.EXIT_INVALID
            err = capsys.readouterr().err
            assert err.startswith("error: ") and named in err

    @pytest.mark.parametrize("argv", [["--help"], ["scale", "--help"]])
    def test_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == cli.EXIT_OK
        assert "usage:" in capsys.readouterr().out

    def test_process_exit_code(self, tensor_file):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "slicescale.cli", "scale", "--tol", "abc",
             tensor_file], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == cli.EXIT_INVALID
        assert "invalid float value: 'abc'" in proc.stderr
        assert proc.stdout == ""


def test_cli_import_loads_no_scipy():
    # scipy is optional at run time, and importing it would add about 0.6 s
    # to every CLI call
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    code = ("import sys, slicescale.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
