"""Operator monotone function families and their representing measures.

Every normalized operator monotone function used by the solvers is a
probability mixture over s in [0, 1] of the rational kernels

    (x - 1) / ((1 - s) x + s),

each vanishing at 1 with unit derivative there, pinched between ``1 - 1/x``
(s = 0) and ``x - 1`` (s = 1).  So a measure on [0, 1] *is* the function:
Dirac measures give single kernels, Lebesgue measure gives ``log``, and the
power density ``s^t (1-s)^(-t) sin(t pi)/(t pi)`` gives ``(x^t - 1)/t``.  An
:class:`SMeasure` stores the measure as a quadrature rule (nodes, weights), read
only here and in :mod:`spdmeans.measures`, whose methods integrate against it.
This module holds only the measure, its quadrature rules and its JSON reader: the
represented function is evaluated where the solvers evaluate it, by
:meth:`PMeasure.kernels <spdmeans.measures.PMeasure.kernels>`, so ``f(A)`` is
``karcher_residual(I, product_measure(rep, [(1.0, A)]))``.

Continuous kinds are discretized once at construction: Lebesgue measure by
Gauss-Legendre, the power density by a Gauss-Jacobi rule matched to its
endpoint singularity at s = 1 (plain Gauss-Legendre loses five to eight digits
there; the Jacobi rule is exact for the mass and spectrally accurate for the
kernels).  The Jacobi rule is computed by Golub-Welsch (Golub & Welsch, Math.
Comp. 23, 1969) from the eigenvectors of the weight's Jacobi matrix, whose
weights sum to 1 up to rounding, so numpy alone builds it.
"""

from functools import lru_cache

import numpy as np

from .core import _eigh, _is_count, _probability_weights, _real
from .errors import MeasureError

DEFAULT_NODES = 64

# Most nodes a quadrature rule may have: the rules are built densely (the Jacobi matrix
# is n x n), in 0.12 s (Legendre) and 0.25 s (Jacobi) at 1024 nodes on one core, and
# in six times that at 2048.
_MAX_NODES = 1024


# ---------------------------------------------------------------------------
# representing measures on [0, 1]
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _legendre_01(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


@lru_cache(maxsize=64)
def _jacobi_01(n, t):
    """Golub-Welsch rule for ``s^t (1-s)^(-t) sin(t pi)/(t pi)`` on [0, 1]: (nodes, weights).

    On [-1, 1] the weight is ``(1-u)^(-t) (1+u)^t``, whose Jacobi matrix has
    diagonal ``(t, 0, ..., 0)`` and off-diagonal ``sqrt((k^2 - t^2)/(4k^2 - 1))``.
    Its mass ``2 pi t / sin(pi t)`` cancels the density's scale, so the weights
    are the squared first components of the eigenvectors and sum to 1.
    """
    k = np.arange(1.0, n)
    off = np.sqrt((k * k - t * t) / (4.0 * k * k - 1.0))
    jac = np.diag(off, 1) + np.diag(off, -1)
    jac[0, 0] = t
    x, v = _eigh(jac)
    return 0.5 * (x + 1.0), v[0] ** 2


def _node_count(nodes) -> int:
    """``nodes`` as an int; MeasureError unless it is a whole number from 1 to _MAX_NODES.

    NaN, an infinity and a bool are not.
    """
    if not (_is_count(nodes) and nodes <= _MAX_NODES):
        raise MeasureError(f"node count must be a whole number from 1 to {_MAX_NODES}, "
                           f"got {nodes!r}")
    return int(nodes)


def _frozen(a):
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


class SMeasure:
    """Probability measure on [0, 1], stored as a quadrature rule.

    Build one with :meth:`dirac`, :meth:`from_atoms`, :meth:`lebesgue` or
    :meth:`power`.  ``nodes`` and ``weights`` are
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
        s = _real(s, "dirac location")
        if not 0.0 <= s <= 1.0:
            raise MeasureError(f"dirac location must lie in [0, 1], got {s}")
        return cls("dirac", {"s": s}, [s], [1.0])

    @classmethod
    def from_atoms(cls, points) -> "SMeasure":
        """Finite atomic measure from ``[(s_j, v_j), ...]``, real numbers, positive v summing to 1."""
        try:
            pts = [(_real(s, "atom location"), _real(v, "atom weight")) for s, v in points]
        except (TypeError, ValueError) as exc:
            raise MeasureError(f"atoms must be (location, weight) number pairs: {exc}") from exc
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
        the endpoint singularity, computed by Golub-Welsch from the Jacobi
        matrix's eigenvectors, so the weights sum to 1 up to rounding and
        kernel integrals converge spectrally.
        """
        t = _real(t, "power parameter")
        if not 0.0 < t < 1.0:
            raise MeasureError(f"power parameter must lie in (0, 1), got {t}")
        nodes = _node_count(nodes)
        x, w = _jacobi_01(nodes, t)
        return cls("power", {"t": t, "nodes": nodes}, x, w)

    # -- structure ----------------------------------------------------------

    def same_structure(self, other: "SMeasure") -> bool:
        """True when both measures have the same kind and their nodes and weights agree to 1e-12."""
        return (self.kind == other.kind and self.nodes.shape == other.nodes.shape
                and bool(np.all(np.abs(self.nodes - other.nodes) <= 1e-12)
                         and np.all(np.abs(self.weights - other.weights) <= 1e-12)))

    def __repr__(self):
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params.items() if k != "points")
        return f"SMeasure({self.kind}, {inner or len(self.nodes)})"


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
