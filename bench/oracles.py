"""Independent referees for every output the benchmark collects.

Nothing here imports the package under test: scaled tensors are compared
with plain alternating per-mode scaling in the log domain, scalability
verdicts with scipy's LP solver, witnesses and certificates with numpy
arithmetic, and quadratic minimizers with ``numpy.linalg.solve``.

Each ``check_*`` function returns a list of problems (empty when the output
passes), so a caller can report every problem at once.
"""

import numpy as np
from scipy.optimize import linprog

# normalize() refuses points whose slice-sum ratios disagree by more than
# 1e-6 relative, so a normalized output is within that of its targets.
SUM_RTOL = 1e-6
# The scaled tensor is unique; a converged run lies within this of the
# alternating-scaling limit, relative to the largest entry.
ENTRY_RTOL = 1e-6
# Absolute tolerance of the witness conditions (the CLI's own is 1e-9).
WITNESS_TOL = 1e-8
# The acceptance suite allows observed gaps 5% above the bound curve.
CERTIFICATE_SLACK = 1.05


def _mode_shape(d, k, m):
    shape = [1] * d
    shape[k] = m
    return shape


def _log_slice_sums(log_array, k):
    """log of the mode-k slice sums of exp(log_array); -inf entries are zeros."""
    axes = tuple(a for a in range(log_array.ndim) if a != k)
    peak = log_array.max(axis=axes, keepdims=True)
    sums = np.exp(log_array - peak).sum(axis=axes, keepdims=True)
    return (np.log(sums) + peak).reshape(-1)


def alternating_scaling(array, targets, tol=1e-13, max_rounds=200000):
    """Scale ``array`` so that every mode's slice sums equal its target.

    Plain alternating per-mode scaling, kept in the log domain so that Gibbs
    kernels with entries near exp(-200) and wide-range inputs stay exact.
    Zeros stay zero. Raises ValueError when the slice sums do not reach
    ``tol`` relative mismatch within ``max_rounds`` rounds.
    """
    array = np.asarray(array, dtype=float)
    d = array.ndim
    with np.errstate(divide="ignore"):
        log_b = np.log(array)
    log_t = [np.log(np.asarray(t, dtype=float)) for t in targets]
    for _ in range(max_rounds):
        for k in range(d):
            update = log_t[k] - _log_slice_sums(log_b, k)
            log_b = log_b + update.reshape(_mode_shape(d, k, array.shape[k]))
        mismatch = max(
            float(np.abs(np.expm1(_log_slice_sums(log_b, k) - log_t[k])).max())
            for k in range(d - 1)
        )
        if mismatch <= tol:
            return np.exp(log_b)
    raise ValueError(f"alternating scaling stalled at mismatch {mismatch:.2e}")


def check_scaled(scaled, array, targets, reference):
    """A normalized scaling of ``array``: support kept, targets met, and equal
    to the alternating-scaling ``reference``."""
    scaled = np.asarray(scaled, dtype=float)
    if scaled.shape != np.shape(array):
        return [f"shape {scaled.shape} != {np.shape(array)}"]
    if not np.all(np.isfinite(scaled)):
        return ["non-finite entries"]
    problems = []
    support = np.asarray(array) > 0
    if np.any(scaled[~support] != 0.0):
        problems.append("a zero entry became nonzero")
    if np.any(scaled[support] <= 0.0):
        problems.append("a positive entry became zero or negative")
    for k, t in enumerate(targets):
        t = np.asarray(t, dtype=float)
        axes = tuple(a for a in range(scaled.ndim) if a != k)
        err = float(np.abs(scaled.sum(axis=axes) - t).max())
        if err > SUM_RTOL * float(t.max()):
            problems.append(f"mode-{k} slice sums miss targets by {err:.2e}")
    dist = float(np.abs(scaled - reference).max())
    if dist > ENTRY_RTOL * float(np.abs(reference).max()):
        problems.append(f"differs from alternating scaling by {dist:.2e}")
    return problems


def _incidence(array):
    """One row per supported entry, with a one at each mode's index."""
    dims = np.shape(array)
    offsets = np.concatenate([[0], np.cumsum(dims)])[:-1]
    idx = np.argwhere(np.asarray(array) > 0)
    rows = np.zeros((len(idx), sum(dims)))
    for k in range(len(dims)):
        rows[np.arange(len(idx)), offsets[k] + idx[:, k]] = 1.0
    return rows


def lp_says_scalable(array, targets):
    """Scalability decided by scipy's HiGHS on the witness system.

    A witness is an exponent vector orthogonal to every target whose sums
    over the supported entries are all <= 0 with total <= -1; the instance
    is scalable exactly when none exists.
    """
    dims = np.shape(array)
    rows = _incidence(array)
    a_ub = np.vstack([rows, rows.sum(axis=0, keepdims=True)])
    b_ub = np.zeros(len(rows) + 1)
    b_ub[-1] = -1.0
    a_eq = np.zeros((len(dims), sum(dims)))
    pos = 0
    for k, t in enumerate(targets):
        a_eq[k, pos:pos + dims[k]] = t
        pos += dims[k]
    res = linprog(np.zeros(sum(dims)), A_ub=a_ub, b_ub=b_ub, A_eq=a_eq,
                  b_eq=np.zeros(len(dims)), bounds=(None, None), method="highs")
    if res.status not in (0, 2):
        raise ValueError(f"linprog failed: {res.message}")
    return res.status == 2


def check_witness(witness, array, targets):
    """Witness conditions checked with numpy: per-mode blocks orthogonal to
    the targets, supported entry sums <= 0, their total <= -1."""
    dims = np.shape(array)
    if witness is None or [len(b) for b in witness] != list(dims):
        return ["witness missing or of the wrong shape"]
    expo = np.zeros(dims)
    for k, b in enumerate(witness):
        expo = expo + np.asarray(b, dtype=float).reshape(_mode_shape(len(dims), k, dims[k]))
    sums = expo[np.asarray(array) > 0]
    problems = []
    if float(sums.max()) > WITNESS_TOL:
        problems.append(f"witness has a supported sum {float(sums.max()):.2e} > 0")
    if float(sums.sum()) > -1.0 + WITNESS_TOL:
        problems.append(f"witness total {float(sums.sum()):.3f} > -1")
    for k, (b, t) in enumerate(zip(witness, targets)):
        inner = float(np.asarray(b, dtype=float) @ np.asarray(t, dtype=float))
        if abs(inner) > WITNESS_TOL:
            problems.append(f"witness block {k} not orthogonal to its target ({inner:.2e})")
    return problems


def check_quadratic(x, matrix, linear, tol):
    """A minimizer of 0.5 x'Ax + b'x whose gradient norm reached ``tol``:
    within tol / lambda_min(A) of numpy's solution, with tenfold slack."""
    x = np.asarray(x, dtype=float)
    exact = np.linalg.solve(matrix, -np.asarray(linear, dtype=float))
    lam_min = float(np.linalg.eigvalsh(matrix)[0])
    err = float(np.linalg.norm(x - exact))
    if err > 10.0 * tol / lam_min:
        return [f"quadratic solution off by {err:.2e}"]
    return []


def check_certificate(cert, trace, d):
    """Rate certificate of a ``d``-block run with the reported ``trace``:
    0 < alpha <= beta, a bound curve recomputed from alpha, beta and the
    first gradient norm, and observed gaps under it."""
    objectives = trace["objectives"]
    alpha, beta = cert["sampled_alpha"], cert["sampled_beta"]
    if not 0.0 < alpha <= beta:
        return [f"certificate has alpha={alpha} beta={beta}"]
    problems = []
    kappa = beta / alpha
    if abs(cert["sampled_kappa"] - kappa) > 1e-9 * kappa:
        problems.append("kappa is not beta/alpha")
    curve = np.asarray(cert["bound_curve"], dtype=float)
    gaps = np.asarray(cert["observed_gaps"], dtype=float)
    steps = len(objectives) - 1
    if len(curve) != steps or len(gaps) != steps:
        return problems + ["bound curve or gaps do not match the step count"]
    expect_gaps = np.asarray(objectives[1:]) - objectives[-1]
    if np.any(np.abs(gaps - expect_gaps) > 1e-12 * max(1.0, abs(objectives[0]))):
        problems.append("observed gaps do not match the objective trace")
    lead = trace["full_grad_norms"][0] ** 2 / (2.0 * alpha)
    k = np.arange(steps)
    expect = (lead * (1.0 - 1.0 / (d * kappa))
              * (1.0 - 1.0 / ((d - 1) * kappa)) ** k)
    if np.any(np.abs(curve - expect) > 1e-9 * expect):
        problems.append("bound curve does not follow from alpha and beta")
    worst = int(np.argmax(gaps - CERTIFICATE_SLACK * curve))
    if gaps[worst] > CERTIFICATE_SLACK * curve[worst]:
        problems.append(f"gap {gaps[worst]:.2e} above the bound at step {worst + 1}")
    return problems


def check_bridge(matrix, case, reference):
    """Bridge output B: B @ source = target, column sums as prescribed, the
    support of the input kept, and equal to the alternating-scaling answer."""
    B = np.asarray(matrix, dtype=float)
    A = np.asarray(case["matrix"], dtype=float)
    if B.shape != A.shape:
        return [f"bridge matrix shape {B.shape} != {A.shape}"]
    problems = []
    source = np.asarray(case["source"])
    target = np.asarray(case["target"])
    cols = np.asarray(case["column_sums"])
    if np.any((B != 0) != (A != 0)):
        problems.append("bridge matrix changed the support")
    err = float(np.abs(B @ source - target).max())
    if err > SUM_RTOL * float(target.max()):
        problems.append(f"B @ source misses the target by {err:.2e}")
    err = float(np.abs(B.sum(axis=0) - cols).max())
    if err > SUM_RTOL * float(cols.max()):
        problems.append(f"column sums miss by {err:.2e}")
    dist = float(np.abs(B - reference).max())
    if dist > ENTRY_RTOL * float(np.abs(reference).max()):
        problems.append(f"bridge differs from alternating scaling by {dist:.2e}")
    return problems


def bridge_reference(case):
    """The bridge answer from alternating scaling of A diag(source)."""
    source = np.asarray(case["source"], dtype=float)
    reduced = np.asarray(case["matrix"], dtype=float) * source[None, :]
    scaled = alternating_scaling(
        reduced, [case["target"], np.asarray(case["column_sums"]) * source])
    return scaled / source[None, :]


def check_cli_report(case, code, report, scalable, reference):
    """One CLI call: its exit code and JSON report against the oracles.

    ``scalable`` is scipy's verdict on the case (None for a bridge case) and
    ``reference`` the alternating-scaling answer when there is one.
    """
    if case["kind"] == "bridge":
        if code != 0 or report.get("status") != "converged":
            return [f"bridge exit {code}, status {report.get('status')}"]
        return check_bridge(report["matrix"], case, reference)
    feasibility = report if case["command"] == "feasible" else report.get("feasibility", {})
    verdict = feasibility.get("verdict")
    expected = "scalable" if scalable else "not_scalable"
    if code != (0 if scalable else 2) or verdict != expected:
        return [f"exit {code} and verdict {verdict}, but scipy says {expected}"]
    if not scalable:
        return check_witness(feasibility["witness"], case["array"], case["targets"])
    if feasibility["witness"] is not None:
        return ["witness on a scalable input"]
    if case["command"] == "feasible":
        return []
    if report.get("status") != "converged":
        return [f"status {report.get('status')}"]
    scaled = np.asarray(report["scaled"]["values"]).reshape(report["scaled"]["dims"])
    problems = check_scaled(scaled, case["array"], case["targets"], reference)
    if "certificate" not in report:
        return problems + ["no rate certificate"]
    return problems + check_certificate(report["certificate"], report["trace"],
                                        len(case["targets"]))
