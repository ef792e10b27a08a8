"""``tools/parity.py``, the bit-parity check of two source trees."""

import importlib.util
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "parity.py"
spec = importlib.util.spec_from_file_location("parity", TOOL)
parity = importlib.util.module_from_spec(spec)
spec.loader.exec_module(parity)


def test_source_tree_matches_itself(capsys):
    src = str(ROOT / "src")
    assert parity.main([src, src, "--seeds", "3"]) == 0
    # per seed: 5 dense and 10 steep scaling cases from two starts each,
    # and the quadratic from zero
    assert capsys.readouterr().out == "31 runs at seeds [3]: 0 differences\n"


def test_canonical_forms_compare_bits():
    canonical = parity._canonical
    assert canonical(0.0) != canonical(-0.0)
    assert canonical(float("nan")) == canonical(np.float64("nan"))
    assert canonical(np.zeros(2)) != canonical(np.zeros((1, 2)))
    assert canonical(np.zeros(2)) != canonical(np.zeros(2, dtype=np.float32))
    assert canonical([1.0, [2.0]]) != canonical((1.0, [2.0]))


def test_differences_name_each_run_and_value():
    old = {(3, "a", "zero"): {"status": "converged", "x_star": (1.0,)},
           (3, "b", "zero"): {"status": "converged"}}
    new = {(3, "a", "zero"): {"status": "converged", "x_star": (2.0,)},
           (3, "c", "zero"): {"status": "converged"}}
    assert parity.differences(old, new) == [
        "(3, 'a', 'zero'): x_star differs",
        "(3, 'b', 'zero'): run only in old",
        "(3, 'c', 'zero'): run only in new",
    ]
    assert parity.differences(old, old) == []
