"""Seeded inputs of the three workloads.

Every function here draws from ``numpy.random.default_rng([seed, tag])``, so
one seed always gives the same inputs. Sizes are fixed and only values and
patterns vary with the seed: the cost of a round then depends little on the
seed, which keeps run-to-run spread small. Nothing here imports the package
under test.
"""

import json

import numpy as np

import oracles

# dense-solve: frame-bound positive inputs (about 40²-50², 12³-16³, 6⁴).
DENSE_DIMS = [(40, 40), (48, 44), (12, 12, 12), (16, 14, 12), (6, 6, 6, 6)]

# steep-solve: 1-D entropic OT kernels exp(-C/eps) as (n, eps).
OT_CASES = [(12, 0.02), (16, 0.01), (18, 0.008), (20, 0.005), (22, 0.006), (24, 0.008)]
# steep-solve: block-diagonal supports (gauge directions), entries exp(U(-r, r)).
BLOCK_CASES = [((8, 6), (6, 8)), ((6, 6), (6, 6), (6, 6)), ((8, 8), (8, 8)),
               ((10, 8), (6, 8))]
BLOCK_RANGE = 4.0
# steep-solve: SPD quadratics in blocks, the CG-like case.
QUADRATIC_BLOCKS = [(10, 10, 10)]

# cli-scale: patterned matrices for `feasible` (LP-heavy), density about 0.4.
FEASIBLE_SIZES = [24, 28]


def _rng(seed, tag):
    return np.random.default_rng([seed, tag])


def _targets(rng, dims, total):
    out = []
    for m in dims:
        v = rng.uniform(0.5, 1.5, m)
        out.append(v * (total / v.sum()))
    return out


def _pattern(rng, n, permutations):
    """Union of random permutation supports, values in [0.2, 1].

    Every entry lies on a positive diagonal (total support), so the pattern
    is scalable to unit row and column sums and the feasibility LP has to
    prove that no witness exists, whatever the seed.
    """
    mask = np.zeros((n, n), dtype=bool)
    for _ in range(permutations):
        mask[np.arange(n), rng.permutation(n)] = True
    return np.where(mask, rng.uniform(0.2, 1.0, (n, n)), 0.0)


def _block_diagonal(rng, sizes, log_range):
    """Block-diagonal support; each block's row and column targets carry the
    same mass, so the instance is scalable but has gauge directions."""
    m = sum(p for p, _ in sizes)
    n = sum(q for _, q in sizes)
    array = np.zeros((m, n))
    rows, cols = np.zeros(m), np.zeros(n)
    i = j = 0
    for p, q in sizes:
        array[i:i + p, j:j + q] = np.exp(rng.uniform(-log_range, log_range, (p, q)))
        mass = 0.5 * (p + q)
        rows[i:i + p], cols[j:j + q] = _targets(rng, (p, q), mass)
        i, j = i + p, j + q
    return array, [rows, cols]


def _scale_case(name, array, targets):
    return {"name": name, "kind": "scale", "array": array,
            "targets": [np.asarray(t, dtype=float) for t in targets]}


def _label(dims):
    return "x".join(map(str, dims))


def dense_solve(seed):
    rng = _rng(seed, 1)
    cases = []
    for dims in DENSE_DIMS:
        array = rng.uniform(0.1, 1.0, dims)
        cases.append(_scale_case(f"dense-{_label(dims)}", array,
                                 _targets(rng, dims, array.sum())))
    return cases


def _ot_kernel(rng, n, eps):
    """Gibbs kernel of squared distances between jittered 1-D grids.

    The kernel is divided by a constant so that the scaled mass equals the
    target total (proportionality factor 1); the scaled matrix does not
    depend on that constant. Left unnormalized, the optimal mass of small-eps
    kernels is ~1e-4 of the total and the absolute ``tol`` then stops runs
    that ``normalize`` refuses (see CHANGES.md, FOUND).
    """
    x = np.linspace(0.0, 1.0, n) + rng.uniform(-0.3, 0.3, n) / n
    y = np.linspace(0.0, 1.0, n) + rng.uniform(-0.3, 0.3, n) / n
    cost = (x[:, None] - y[None, :]) ** 2
    log_k = -cost / cost.max() / eps
    a, b = _targets(rng, (n, n), float(n))
    plan = oracles.alternating_scaling(np.exp(log_k), [a, b])
    kl = float(np.sum(plan * (np.log(plan) - log_k)))
    return np.exp(log_k + kl / n), [a, b], plan


def steep_solve(seed):
    """Cases plus the OT plans computed while normalizing the kernels."""
    rng = _rng(seed, 2)
    cases, plans = [], {}
    for n, eps in OT_CASES:
        kernel, targets, plan = _ot_kernel(rng, n, eps)
        name = f"ot-{n}-eps{eps:g}"
        cases.append(_scale_case(name, kernel, targets))
        plans[name] = plan
    for sizes in BLOCK_CASES:
        array, targets = _block_diagonal(rng, sizes, BLOCK_RANGE)
        cases.append(_scale_case(f"blocks-{'+'.join(_label(s) for s in sizes)}",
                                 array, targets))
    for dims in QUADRATIC_BLOCKS:
        n = sum(dims)
        m = rng.standard_normal((n, n))
        cases.append({"name": f"quadratic-{_label(dims)}", "kind": "quadratic",
                      "matrix": m.T @ m + 0.5 * np.eye(n),
                      "linear": rng.standard_normal(n), "block_dims": list(dims)})
    return cases, plans


def cli_scale(seed):
    rng = _rng(seed, 3)
    cases = []

    def scale(name, array, targets, command="scale"):
        case = _scale_case(name, array, targets)
        case["command"] = command
        cases.append(case)

    array = rng.uniform(0.1, 1.0, (12, 12))
    scale("positive-12x12", array, _targets(rng, array.shape, array.sum()))
    array = rng.uniform(0.1, 1.0, (6, 6, 6))
    scale("positive-6x6x6", array, _targets(rng, array.shape, array.sum()))
    scale("pattern-10x10", _pattern(rng, 10, 7), [np.ones(10)] * 2)
    array, targets = _block_diagonal(rng, ((4, 4), (4, 4)), 2.0)
    scale("gauge-4x4+4x4", array, targets)
    # Row mass 4 + 4 against column mass 3 + 5 on a block-diagonal support:
    # no scaling can move mass between blocks, so the answer is exit 2.
    array = np.zeros((8, 8))
    array[:4, :4] = rng.uniform(0.2, 1.0, (4, 4))
    array[4:, 4:] = rng.uniform(0.2, 1.0, (4, 4))
    scale("not-scalable-8x8", array,
          [np.ones(8), np.concatenate([np.full(4, 0.75), np.full(4, 1.25)])])
    for n in FEASIBLE_SIZES:
        scale(f"feasible-{n}x{n}", _pattern(rng, n, n // 2), [np.ones(n)] * 2,
              command="feasible")
    matrix = rng.uniform(0.1, 1.0, (8, 10))
    source = rng.uniform(0.5, 1.5, 10)
    column_sums = rng.uniform(0.5, 1.5, 10)
    target = rng.uniform(0.5, 1.5, 8)
    target *= float(column_sums @ source) / target.sum()
    cases.append({"name": "bridge-8x10", "command": "bridge", "kind": "bridge",
                  "matrix": matrix, "source": source, "target": target,
                  "column_sums": column_sums})
    return cases


def write_library(cases, path_npz, path_manifest):
    """Arrays to one .npz, case names and kinds to a JSON manifest."""
    arrays, manifest = {}, []
    for i, case in enumerate(cases):
        entry = {"name": case["name"], "kind": case["kind"]}
        if case["kind"] == "scale":
            arrays[f"{i}.array"] = case["array"]
            for k, t in enumerate(case["targets"]):
                arrays[f"{i}.target{k}"] = t
            entry["modes"] = len(case["targets"])
        else:
            arrays[f"{i}.matrix"] = case["matrix"]
            arrays[f"{i}.linear"] = case["linear"]
            entry["block_dims"] = case["block_dims"]
        manifest.append(entry)
    np.savez(path_npz, **arrays)
    with open(path_manifest, "w") as fh:
        json.dump(manifest, fh)


def write_cli_input(case, path):
    """The CLI's JSON format: flat row-major values with inline targets, or
    a bridge file."""
    if case["kind"] == "bridge":
        data = {key: np.asarray(case[key]).tolist()
                for key in ("matrix", "source", "target", "column_sums")}
    else:
        data = {"dims": list(case["array"].shape),
                "values": case["array"].ravel().tolist(),
                "targets": [t.tolist() for t in case["targets"]]}
    with open(path, "w") as fh:
        json.dump(data, fh)
