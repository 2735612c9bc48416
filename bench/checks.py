"""Independent checks of the benchmark's outputs.

Nothing here calls ``spdmeans``, ``numpy.linalg.eigh``/``eigvalsh``,
``numpy.tensordot`` or ``scipy.linalg.lu_*``: the checks use ``scipy.linalg``
and their own quadrature rules, so they neither share code with the program
nor show up in the traced per-layer counts.

Mean checks work in whitened coordinates, ``W = X^(-1/2) A X^(-1/2)``, so
that their tolerances mean the same at every scale.  Each Karcher check is
made against the discretized measure the program was asked to solve (same
Gauss rule, same node count), not against the exact ``log``: 64 Lebesgue
nodes depart from ``log`` by up to 1.6e-3 in whitened residual once
eigenvalue ratios reach 1e3, while the discretized equation is met to
rounding.
"""

import json
import math
from functools import lru_cache

import numpy as np
import scipy.linalg as sla
from scipy.optimize import brentq
from scipy.special import roots_jacobi

# Whitened-residual tolerance of a Karcher mean (t -> 0 net or descent).
# The solvers reach ~1e-10; a (1 + 1e-6) scaling of the mean moves the
# residual by ~1e-6 times the mean slope of the kernels (>= 0.1 here).
TOL_KARCHER = 2e-8
# Whitened fixed-point tolerance of induced and power means (t = 0.5).
TOL_FIXED_POINT = 1e-9
# Thompson distance to a closed-form mean.
TOL_CLOSED_FORM = 1e-7
# Relative tolerance of values recomputed here (metric, residual, divergence).
TOL_VALUE = 1e-9
# Loewner slack of the harmonic <= X <= arithmetic sandwich, relative to ||X||.
TOL_SANDWICH = 1e-9


class CheckFailed(Exception):
    """An output did not pass its independent check."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# quadrature rules of the [0, 1]-measure specs
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _legendre(nodes):
    x, w = np.polynomial.legendre.leggauss(nodes)
    return 0.5 * (x + 1.0), 0.5 * w


@lru_cache(maxsize=None)
def _power_rule(t, nodes):
    # density s^t (1-s)^(-t) sin(t pi)/(t pi) on [0, 1]: Gauss-Jacobi with
    # weight (1-u)^(-t) (1+u)^t on [-1, 1], u = 2s - 1
    x, w = roots_jacobi(nodes, -t, t)
    return 0.5 * (x + 1.0), 0.5 * w * math.sin(t * math.pi) / (t * math.pi)


def quadrature(spec):
    """(nodes, weights) on [0, 1] of a measure spec."""
    kind = spec[0]
    if kind == "dirac":
        return np.array([spec[1]]), np.array([1.0])
    if kind == "atoms":
        return np.array([s for s, _ in spec[1]]), np.array([v for _, v in spec[1]])
    if kind == "lebesgue":
        return _legendre(spec[1])
    if kind == "power":
        return _power_rule(spec[1], spec[2])
    raise ValueError(f"unknown measure spec {spec!r}")


# ---------------------------------------------------------------------------
# dense helpers on scipy.linalg
# ---------------------------------------------------------------------------


def _sym(a):
    return 0.5 * (a + a.T)


def _roots(x):
    """(X^(1/2), X^(-1/2)) of an SPD matrix; CheckFailed if X is not SPD."""
    w, q = sla.eigh(_sym(x))
    _require(w[0] > 0.0, f"mean is not positive definite (min eig {w[0]:.3e})")
    r = np.sqrt(w)
    return _sym((q * r) @ q.T), _sym((q / r) @ q.T)


def _fn(m, f):
    w, q = sla.eigh(_sym(m))
    return _sym((q * f(w)) @ q.T)


def _whitened_field(x, atoms, kernel):
    """sum_k w_k int Q kernel(s, Lambda) Q^T d nu_k in whitened coordinates."""
    _, irs = _roots(x)
    acc = np.zeros_like(x)
    for wk, a, spec in atoms:
        s, om = quadrature(spec)
        lam, q = sla.eigh(_sym(irs @ a @ irs))
        vals = om @ kernel(s[:, None], lam[None, :])
        acc += wk * ((q * vals) @ q.T)
    return _sym(acc)


def _log_kernel(s, x):
    return (x - 1.0) / ((1.0 - s) * x + s)


def thompson(a, b):
    """Thompson metric from the generalized eigenvalues of (A, B)."""
    w = sla.eigh(_sym(a), _sym(b), eigvals_only=True)
    return float(np.max(np.abs(np.log(w))))


def geometric(a, b, t):
    """A #_t B = A^(1/2) (A^(-1/2) B A^(-1/2))^t A^(1/2)."""
    rs, irs = _roots(a)
    return _sym(rs @ _fn(irs @ b @ irs, lambda w: w**t) @ rs)


def _min_eig(m):
    return float(sla.eigh(_sym(m), eigvals_only=True)[0])


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_sandwich(x, atoms):
    """harmonic <= X <= arithmetic mean of the atoms, in the Loewner order."""
    arith = sum(w * a for w, a, _ in atoms)
    harm = np.linalg.inv(sum(w * np.linalg.inv(a) for w, a, _ in atoms))
    slack = TOL_SANDWICH * float(np.linalg.norm(x))
    _require(_min_eig(x - harm) >= -slack, "mean lies below the harmonic mean")
    _require(_min_eig(arith - x) >= -slack, "mean lies above the arithmetic mean")


def karcher_residual(x, atoms):
    """Whitened generalized Karcher residual of the discretized measure."""
    return _whitened_field(x, atoms, _log_kernel)


def check_karcher(x, atoms):
    r = float(np.linalg.norm(karcher_residual(x, atoms)))
    _require(r <= TOL_KARCHER, f"whitened Karcher residual {r:.3e} > {TOL_KARCHER:g}")
    check_sandwich(x, atoms)


def check_induced(x, atoms, t):
    """Level equation X = T_t(X), from the two-parameter mean kernel itself."""

    def mean_kernel(s, w):
        alpha = (1.0 - t) * (1.0 - s) + t
        beta = s * (1.0 - t)
        gamma = (1.0 - t) * (1.0 - s)
        delta = t + s * (1.0 - t)
        return (alpha * w + beta) / (gamma * w + delta)

    gap = _whitened_field(x, atoms, mean_kernel) - np.eye(len(x))
    r = float(np.linalg.norm(gap))
    _require(r <= TOL_FIXED_POINT, f"induced fixed-point gap {r:.3e} > {TOL_FIXED_POINT:g}")
    check_sandwich(x, atoms)


def check_power(x, atoms, t):
    """Fixed point X = sum_i w_i X #_t A_i, whitened."""
    _, irs = _roots(x)
    acc = sum(w * _fn(irs @ a @ irs, lambda v: v**t) for w, a, _ in atoms)
    r = float(np.linalg.norm(acc - np.eye(len(x))))
    _require(r <= TOL_FIXED_POINT, f"power fixed-point gap {r:.3e} > {TOL_FIXED_POINT:g}")
    check_sandwich(x, atoms)


def check_two_point(x, atoms):
    """Two Lebesgue atoms: the Karcher mean is A #_w B with w the weight of B."""
    check_karcher(x, atoms)
    (_, a, _), (wb, b, _) = atoms
    d = thompson(x, geometric(a, b, wb))
    _require(d <= TOL_CLOSED_FORM, f"two-point mean is {d:.3e} from A #_w B")


def commuting_mean(atoms):
    """Mean of atoms sharing one eigenbasis: one scalar equation per eigenvalue."""
    q = sla.eigh(atoms[0][1])[1]
    diag = [np.diag(q.T @ a @ q) for _, a, _ in atoms]
    rules = [quadrature(spec) for _, _, spec in atoms]
    out = []
    for j in range(len(q)):
        vals = [d[j] for d in diag]

        def f(logm):
            m = math.exp(logm)
            return sum(
                wk * float(om @ _log_kernel(s, v / m))
                for (wk, _, _), (s, om), v in zip(atoms, rules, vals)
            )

        lo, hi = math.log(min(vals)), math.log(max(vals))
        out.append(math.exp(brentq(f, lo - 1e-9, hi + 1e-9, xtol=1e-15, rtol=1e-15)))
    return _sym((q * np.array(out)) @ q.T)


def check_commuting(x, atoms):
    check_karcher(x, atoms)
    d = thompson(x, commuting_mean(atoms))
    _require(d <= TOL_CLOSED_FORM, f"commuting mean is {d:.3e} from the scalar solution")


def _close(got, want, what):
    err = abs(got - want)
    _require(err <= TOL_VALUE * max(1.0, abs(want)), f"{what} {got!r} differs from {want!r}")


def _parse(raw):
    try:
        return json.loads(raw)
    except ValueError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from exc


def _matrix(obj):
    return np.array(obj["data"], dtype=float)


def objective(x, atoms):
    """Integrated log-det divergence, from the generalized eigenvalues of (A, X)."""
    total = 0.0
    for wk, a, spec in atoms:
        s, om = quadrature(spec)
        lam = sla.eigh(_sym(a), _sym(x), eigvals_only=True)
        ld = []
        for si in s:
            if si <= 0.0:
                ld.append(np.sum(1.0 / lam - 1.0 + np.log(lam)))
            elif si >= 1.0:
                ld.append(np.sum(lam - 1.0 - np.log(lam)))
            else:
                ld.append(np.sum(np.log((1.0 - si) * lam + si) - (1.0 - si) * np.log(lam))
                          / (si * (1.0 - si)))
        total += wk * float(om @ np.array(ld))
    return total


def check_metric_json(raw, a, b):
    _close(float(_parse(raw)["d_inf"]), thompson(a, b), "Thompson distance")


def check_residual_json(raw, atoms, x):
    out = _parse(raw)
    rs, _ = _roots(x)
    want = _sym(rs @ karcher_residual(x, atoms) @ rs)
    got = _matrix(out["residual"])
    err = float(np.linalg.norm(got - want))
    _require(err <= TOL_VALUE * max(1.0, float(np.linalg.norm(want))),
             f"residual differs by {err:.3e}")
    _close(float(out["residual_norm"]), float(np.linalg.norm(want)), "residual norm")


def check_divergence_json(raw, atoms, x):
    _close(float(_parse(raw)["objective"]), objective(x, atoms), "objective")


def check_minimize_json(raw, atoms):
    check_karcher(_matrix(_parse(raw)["mean"]), atoms)
