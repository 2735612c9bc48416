"""Operator monotone function families and their representing measures.

Every normalized operator monotone function used by the solvers is a
probability mixture over s in [0, 1] of the rational kernels

    (x - 1) / ((1 - s) x + s),

each vanishing at 1 with unit derivative there, pinched between ``1 - 1/x``
(s = 0) and ``x - 1`` (s = 1).  So a measure on [0, 1] *is* the function:
Dirac measures give single kernels, Lebesgue measure gives ``log``, and the
power density ``s^t (1-s)^(-t) sin(t pi)/(t pi)`` gives ``(x^t - 1)/t``.  An
:class:`SMeasure` stores the measure as a quadrature rule (nodes, weights),
which makes every downstream integral a weighted sum over nodes.

Continuous kinds are discretized once at construction: Lebesgue measure and
custom densities by Gauss-Legendre, the power density by a Gauss-Jacobi
rule matched to its endpoint singularity at s = 1 (plain Gauss-Legendre
loses five to eight digits there; the Jacobi rule is exact for the mass and
spectrally accurate for the kernels).
"""

from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi

from .core import (_eigh, _float_array, _is_count, _probability_weights, spd_stack, spectral_sum,
                   sym_matrix, whitened_eigh)
from .errors import DomainError, MeasureError, NotPositiveDefinite

DEFAULT_NODES = 64


# ---------------------------------------------------------------------------
# scalar kernels (vectorized over numpy arrays; 2-d input means spectral)
# ---------------------------------------------------------------------------


def _apply(x, fn):
    """``fn`` of a positive scalar (0-d), or spectrally of an SPD matrix: ``Q diag(fn(w)) Q.T``.

    A matrix passes :func:`sym_matrix`; DomainError unless the scalar, or the matrix's
    spectrum w, is positive and finite and ``fn(w)`` finite.
    """
    x = _float_array(x)
    w, q = (x[None], None) if x.ndim == 0 else _eigh(sym_matrix(x))
    if not np.all((w > 0.0) & (w < np.inf)):
        raise DomainError("argument must be a finite positive scalar or positive definite matrix")
    with np.errstate(all="ignore"):
        fw = fn(w)
    if not np.all(np.isfinite(fw)):
        raise DomainError("scalar function undefined on part of the spectrum")
    return float(fw[0]) if q is None else spectral_sum(q[None], fw[None])


def log_kernel_grid(s, x):
    """The kernels ``(x - 1)/((1 - s) x + s)`` on an outer grid: s (m,) by x (k,)."""
    s = np.asarray(s, dtype=float)[:, None]
    x = np.asarray(x, dtype=float)[None, :]
    return (x - 1.0) / ((1.0 - s) * x + s)


def x_over_affine(s, w):
    """Elementwise ``w / ((1 - s) w + s) = ((1 - s) + s/w)^-1`` on an eigenvalue array."""
    return w / ((1.0 - s) * w + s)


# ---------------------------------------------------------------------------
# representing measures on [0, 1]
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _legendre_01(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


@lru_cache(maxsize=64)
def _jacobi_01(n, t):
    # weight (1-u)^(-t) (1+u)^t on [-1,1]; mapped to s^t (1-s)^(-t) on [0,1]
    x, w = roots_jacobi(n, -t, t)
    return 0.5 * (x + 1.0), 0.5 * w


def _node_count(nodes) -> int:
    """``nodes`` as an int; MeasureError unless it is a positive whole number (NaN is not)."""
    if not _is_count(nodes):
        raise MeasureError(f"node count must be a positive whole number, got {nodes!r}")
    return int(nodes)


def _frozen(a):
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


class SMeasure:
    """Probability measure on [0, 1], stored as a quadrature rule.

    Build one with :meth:`dirac`, :meth:`from_atoms`, :meth:`lebesgue`,
    :meth:`power` or :meth:`custom`.  ``nodes`` and ``weights`` are
    read-only arrays with ``sum(weights) = 1`` up to the quadrature scheme,
    and every integral against the measure is ``sum(weights * g(nodes))``.
    """

    __slots__ = ("kind", "params", "nodes", "weights")

    def __init__(self, kind, params, nodes, weights):
        self.kind = kind
        self.params = params
        self.nodes = _frozen(nodes)
        self.weights = _frozen(weights)

    # -- factories ---------------------------------------------------------

    @classmethod
    def dirac(cls, s: float) -> "SMeasure":
        """Point mass at ``s`` in [0, 1]."""
        if not 0.0 <= s <= 1.0:
            raise MeasureError(f"dirac location must lie in [0, 1], got {s}")
        return cls("dirac", {"s": float(s)}, [s], [1.0])

    @classmethod
    def from_atoms(cls, points) -> "SMeasure":
        """Finite atomic measure from ``[(s_j, v_j), ...]`` with positive v summing to 1."""
        pts = [(float(s), float(v)) for s, v in points]
        if not pts:
            raise MeasureError("atomic measure needs at least one atom")
        s = np.array([p[0] for p in pts])
        if not np.all((s >= 0.0) & (s <= 1.0)):
            raise MeasureError("atom locations must lie in [0, 1]")
        v = _probability_weights([p[1] for p in pts])
        return cls("atoms", {"points": tuple(pts)}, s, v)

    @classmethod
    def lebesgue(cls, nodes: int = DEFAULT_NODES) -> "SMeasure":
        """Uniform measure ds; the represented monotone function is ``log``."""
        nodes = _node_count(nodes)
        x, w = _legendre_01(nodes)
        return cls("lebesgue", {"nodes": nodes}, x, w)

    @classmethod
    def power(cls, t: float, nodes: int = DEFAULT_NODES) -> "SMeasure":
        """Density ``s^t (1-s)^(-t) sin(t pi)/(t pi)`` for t in (0, 1).

        Represents ``(x^t - 1)/t``.  Discretized by a Gauss-Jacobi rule for
        the endpoint singularity, so the total mass is exact and kernel
        integrals converge spectrally.
        """
        if not 0.0 < t < 1.0:
            raise MeasureError(f"power parameter must lie in (0, 1), got {t}")
        nodes = _node_count(nodes)
        x, w = _jacobi_01(nodes, float(t))
        scale = np.sin(t * np.pi) / (t * np.pi)
        return cls("power", {"t": float(t), "nodes": nodes}, x, scale * w)

    @classmethod
    def custom(cls, density, nodes: int = DEFAULT_NODES) -> "SMeasure":
        """Density given by a callable on (0, 1), integrated by plain Gauss-Legendre.

        The node count is fixed at construction (no adaptivity) so results
        are reproducible; the caller owns the accuracy of the density.
        """
        nodes = _node_count(nodes)
        x, w = _legendre_01(nodes)
        d = np.asarray([float(density(s)) for s in x])
        if np.any(d < 0.0) or not np.all(np.isfinite(d)):
            raise MeasureError("density must be finite and nonnegative on the nodes")
        return cls("custom", {"nodes": nodes}, x, w * d)

    # -- structure ----------------------------------------------------------

    def transpose(self) -> "SMeasure":
        """Reflected measure ``nu'(s) = nu(1 - s)``, representing the transposed mean.

        ``eval_mean(nu.transpose(), A, B) = eval_mean(nu, B, A)``.
        """
        if self.kind == "dirac":
            return SMeasure.dirac(1.0 - self.params["s"])
        if self.kind == "atoms":
            return SMeasure.from_atoms(
                [(1.0 - s, v) for s, v in self.params["points"]]
            )
        if self.kind == "lebesgue":
            return SMeasure.lebesgue(self.params["nodes"])
        return SMeasure(self.kind, dict(self.params), 1.0 - self.nodes, self.weights)

    def same_structure(self, other: "SMeasure") -> bool:
        """True when both measures have the same kind and their nodes and weights agree to 1e-12."""
        if self.kind != other.kind:
            return False
        if self.nodes.shape != other.nodes.shape:
            return False
        return bool(
            np.all(np.abs(self.nodes - other.nodes) <= 1e-12)
            and np.all(np.abs(self.weights - other.weights) <= 1e-12)
        )

    def __repr__(self):
        inner = ", ".join(
            f"{k}={v!r}" for k, v in self.params.items() if k != "points"
        )
        return f"SMeasure({self.kind}, {inner or len(self.nodes)})"


# ---------------------------------------------------------------------------
# evaluation against a representing measure
# ---------------------------------------------------------------------------


def eval_monotone(rep: SMeasure, x):
    """Evaluate the operator monotone function represented by ``rep``.

    ``f(x) = integral (x - 1)/((1 - s) x + s) d rep(s)``.  For the Lebesgue
    measure this is ``log x``, for the power measure ``(x^t - 1)/t``.
    Accepts a positive scalar or an SPD matrix.
    """
    return _apply(x, lambda w: rep.weights @ log_kernel_grid(rep.nodes, w))


def eval_mean(nu: SMeasure, a, b):
    """Two-variable operator mean with representing measure ``nu``.

    ``M(A, B) = integral ((1-s) A^-1 + s B^-1)^-1 d nu(s)``; equals
    ``(A+B)/2`` for ``(dirac(0)+dirac(1))/2`` and the harmonic mean for
    ``dirac(1/2)``.  Fixes ``M(A, A) = A`` and is monotone in both slots.
    """
    a, b = spd_stack([a, b])
    rs, _, lam, q = whitened_eigh(a, b[None])
    if not np.all(lam > 0.0):
        raise NotPositiveDefinite("mean operands must be positive definite")
    return spectral_sum(q, nu.weights @ x_over_affine(nu.nodes[:, None], lam), rs)


# ---------------------------------------------------------------------------
# JSON schema
# ---------------------------------------------------------------------------


def smeasure_from_json(obj) -> SMeasure:
    """Parse the SMeasure JSON schema; lebesgue and power default to DEFAULT_NODES nodes."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise MeasureError('measure JSON must carry a "type" field')
    kind = obj["type"]
    try:
        if kind == "dirac":
            return SMeasure.dirac(obj["s"])
        if kind == "atoms":
            return SMeasure.from_atoms([(p["s"], p["w"]) for p in obj["points"]])
        if kind == "lebesgue":
            return SMeasure.lebesgue(obj.get("nodes", DEFAULT_NODES))
        if kind == "power":
            return SMeasure.power(obj["t"], obj.get("nodes", DEFAULT_NODES))
    except (KeyError, TypeError, ValueError) as exc:
        raise MeasureError(f"malformed {kind!r} measure JSON: {exc!r}") from exc
    raise MeasureError(f"unknown measure type {kind!r}")
