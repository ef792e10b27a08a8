"""The public surface: every exported name resolves, and the engine's
problem contract is the one ``run`` calls."""

import importlib
import inspect
import math

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

        def step(self, x, j):
            return x, None

    with pytest.raises(TypeError, match="evaluate"):
        NoEvaluate()


def test_problem_without_step_is_abstract():
    class NoStep(blockmin.BlockProblem):
        block_dims = (1, 1)

        def evaluate(self, x):
            return 0.0, [0.0, 0.0]

    with pytest.raises(TypeError, match="step"):
        NoStep()


class Separable(blockmin.BlockProblem):
    """f(x) = sum ||x_j - 1||^2 / 2 over blocks of the given lengths; evaluate
    returns the objective and the d block-gradient norms."""

    def __init__(self, block_dims):
        self._dims = tuple(block_dims)

    @property
    def block_dims(self):
        return self._dims

    def evaluate(self, x):
        g = [b - 1.0 for b in x.blocks]
        squares = [float(v @ v) for v in g]
        return 0.5 * sum(squares), [math.sqrt(s) for s in squares]

    def step(self, x, j):
        return x.with_block(j, np.ones(self.block_dims[j])), None


def test_evaluate_and_step_suffice():
    x, trace, status = blockmin.run(Separable((1, 1)),
                                    blockmin.BlockVector.zeros((1, 1)), 1e-12, 10)
    assert status == blockmin.CONVERGED
    assert trace.n_steps == 2
    np.testing.assert_array_equal(x.concat(), [1.0, 1.0])


def test_run_reads_the_returned_block_norms():
    # d = 3 with blocks longer than 1: the trace carries evaluate's norms
    # as they are, and blocks are taken in decreasing order of norm
    # (sqrt(8), 1.5 and sqrt(1.25) at the start)
    problem = Separable((2, 3, 4))
    x0 = blockmin.BlockVector([[0.5, 2.0], [3.0, -1.0, 1.0], [1.0, 0.0, 2.0, 1.5]])
    _, norms = problem.evaluate(x0)
    x, trace, status = blockmin.run(problem, x0, 1e-12, 10)
    assert trace.block_grad_norms[0] == norms
    assert trace.full_grad_norms[0] == math.sqrt(sum(v * v for v in norms))
    assert trace.chosen_blocks == [1, 2, 0]
    assert status == blockmin.CONVERGED
    np.testing.assert_array_equal(x.concat(), np.ones(9))
