"""The public surface: every exported name resolves, and the engine's
problem contract is the one ``run`` calls."""

import importlib
import inspect

import numpy as np
import pytest

import slicescale
from slicescale import blockmin

MODULES = ["blockmin", "bridge", "feasibility", "numerics", "objective",
           "scaler", "tensor"]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"slicescale.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing


def test_package_namespace_resolves():
    # each name the package re-exports is listed in its defining module's
    # __all__; submodules themselves are skipped
    exported = {n: obj for n, obj in vars(slicescale).items()
                if not n.startswith("_") and not inspect.ismodule(obj)}
    assert "solve" in exported
    for n, obj in exported.items():
        module = importlib.import_module(obj.__module__)
        assert n in module.__all__, f"{n} not in {obj.__module__}.__all__"


def test_problem_without_evaluate_is_abstract():
    class NoEvaluate(blockmin.BlockProblem):
        block_dims = (1, 1)

        def partial_minimizer(self, x, j):
            return x.blocks[j]

    with pytest.raises(TypeError, match="evaluate"):
        NoEvaluate()


def test_evaluate_and_partial_minimizer_suffice():
    class Separable(blockmin.BlockProblem):
        """f(x) = sum (x_j - 1)^2 / 2, one coordinate per block."""

        block_dims = (1, 1)

        def evaluate(self, x):
            g = [b - 1.0 for b in x.blocks]
            return 0.5 * sum(float(v @ v) for v in g), g

        def partial_minimizer(self, x, j):
            return np.ones(1)

    x, trace, status = blockmin.run(Separable(), blockmin.BlockVector.zeros((1, 1)),
                                    1e-12, 10)
    assert status == blockmin.CONVERGED
    assert trace.n_steps == 2
    np.testing.assert_array_equal(x.concat(), [1.0, 1.0])
