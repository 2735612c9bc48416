"""Probability measures on [0, 1] x SPD with finite matrix support.

A :class:`PMeasure` is a finite list of atoms ``(weight, matrix, nu)`` where
``nu`` is the measure on [0, 1] attached to that matrix; it represents the
product-like measure ``sum_k w_k (nu_k x delta_{A_k})``.  Continuous matrix
marginals are out of scope: every construction in the underlying theory
that we evaluate numerically has finitely many matrix atoms, while the
[0, 1] marginal may be continuous (handled by quadrature inside SMeasure).

Every integral against a measure is a :class:`PMeasure` method, on its atoms' [0, 1]
quadratures kept as per-atom node blocks: (k, m) arrays, m the longest atom rule,
shorter rules padded with weight 0.  An integrand is evaluated on every (atom, node)
pair in one array pass and summed per atom by a batched product over the node axis,
in a fixed order, so reruns are bit-identical.
"""

import numpy as np

from .core import (_cholesky, _float_array, _json_rows, _numeric, _probability_weights,
                   congruence, loewner_leq, spd_stack)
from .errors import Incomparable, MeasureError, NotPositiveDefinite
from .monotone import SMeasure, _frozen, smeasure_from_json

# 1/(s(1-s)) overflows the useful range below this margin; dispatch to the
# closed-form endpoint divergences instead.
_ENDPOINT = 1e-8


class PMeasure:
    """Finitely supported probability measure on [0, 1] x SPD.

    Parameters
    ----------
    atoms : sequence of (weight, matrix, SMeasure)
        Finite positive weights summing to 1 (within 1e-12); matrices all SPD and of one
        shared dimension (a ragged or non-numeric matrix raises ShapeError, well-formed ones
        of different dimensions MeasureError).  They are stored once, as the read-only
        (k, n, n) stack ``matrices`` and vector ``weights``; ``atoms`` holds views into that
        stack, and the read-only stack ``factors`` their lower Cholesky factors.

    :meth:`kernels` and :meth:`divergence` read the private node blocks: row k of
    ``_block_nodes`` (k, m) and ``_block_weights`` (k, m) holds atom k's ``nu.nodes``
    and ``w_k * omega_m``, m the longest atom rule; a shorter rule is padded with nodes
    at s = 1/2, where every integrand is finite, of weight 0.
    """

    __slots__ = ("atoms", "dim", "factors", "matrices", "weights", "_block_nodes", "_block_weights")

    def __init__(self, atoms):
        atoms = list(atoms)
        if not atoms:
            raise MeasureError("measure needs at least one atom")
        mats = [_float_array(m) for _, m, _ in atoms]
        if len({m.shape for m in mats}) > 1:
            raise MeasureError("all atom matrices must share one dimension")
        mats = spd_stack(mats)
        nus = [nu for _, _, nu in atoms]
        if not all(isinstance(nu, SMeasure) for nu in nus):
            raise MeasureError("each atom needs an SMeasure on [0, 1]")
        self.weights = w = _frozen(_probability_weights([w for w, _, _ in atoms]))
        self.matrices = _frozen(mats)
        self.factors = _frozen(_cholesky(mats))
        self.atoms = tuple((float(wk), m, nu) for wk, m, nu in zip(w, self.matrices, nus))
        self.dim = mats.shape[1]
        counts = np.array([len(nu.nodes) for nu in nus])
        filled = np.arange(counts.max()) < counts[:, None]
        nodes, omega = np.full(filled.shape, 0.5), np.zeros(filled.shape)
        nodes[filled] = np.concatenate([nu.nodes for nu in nus])  # row-major: atom by atom
        omega[filled] = np.concatenate([nu.weights for nu in nus])
        self._block_nodes = _frozen(nodes)
        self._block_weights = _frozen(w[:, None] * omega)

    def __len__(self):
        return len(self.atoms)

    def kernels(self, t: float):
        """Kernel of R_t (t = 0: Karcher) on spectra (k, n): ``kernel(lam) -> (phi, divdiff)``.

        Atom k's kernel is ``w_k sum_m omega_m (x - 1)/(a_m x + s_m)``, ``s_m = t + s(1 - t)``,
        ``a_m = 1 - s_m``.  One node pass forms ``v = 1/(a_m x + s_m)`` (k, n, m); ``phi =
        (x - 1) (v omega)`` is one batched product over the nodes, and ``divdiff()`` the Gram
        ``v diag(omega) v.T`` (k, n, n) from that same v: ``1/((a_m x + s_m)(a_m y + s_m))``
        is the divided difference of node m's term.
        """
        s = (t + self._block_nodes * (1.0 - t))[:, None, :]
        a, omega = 1.0 - s, self._block_weights[:, :, None]

        def kernel(lam):
            v = 1.0 / (a * lam[:, :, None] + s)
            return (lam - 1.0) * (v @ omega)[:, :, 0], lambda: v @ (omega * v.swapaxes(1, 2))

        return kernel

    @staticmethod
    def power_kernels(w, t: float):
        """Closed-form power kernel ``w_k (x^t - 1)/t`` and its divided differences, as kernels().

        ``(x^t - y^t)/(t(x - y)) = y^(t-1) expm1(t(u - v))/(t expm1(u - v))`` with
        ``u, v = log x, log y``, and ``y^(t-1)`` where ``u = v``.
        """
        def kernel(lam):
            u = np.log(lam)

            def divdiff():
                d = u[:, :, None] - u[:, None, :]
                with np.errstate(invalid="ignore"):
                    ratio = np.where(d == 0.0, 1.0, np.expm1(t * d) / (t * np.expm1(d)))
                return w[:, None, None] * np.exp((t - 1.0) * u)[:, None, :] * ratio

            return w[:, None] * np.expm1(t * u) / t, divdiff

        return kernel

    def divergence(self, lam) -> float:
        """``sum_k w_k int LD_s(X, A_k) d nu_k(s)`` from the atoms' whitened spectra (k, n) at X.

        NotPositiveDefinite unless every eigenvalue is positive (a NaN is not).
        """
        if not np.all(lam > 0.0):
            raise NotPositiveDefinite("divergence of a non-positive matrix")
        w, s = lam[:, :, None], self._block_nodes[:, None, :]
        logw = np.log(w)
        with np.errstate(divide="ignore", invalid="ignore"):
            mid = (np.log((1.0 - s) * w + s) - (1.0 - s) * logw) / (s * (1.0 - s))
        terms = np.where(s <= _ENDPOINT, 1.0 / w - 1.0 + logw,
                         np.where(s >= 1.0 - _ENDPOINT, w - 1.0 - logw, mid))
        return float(np.vdot(self._block_weights, np.sum(terms, axis=1)))

    def matrix_pairs(self):
        """The matrix marginal as ``[(weight, matrix), ...]``."""
        return [(w, m) for w, m, _ in self.atoms]

    def __repr__(self):
        return f"PMeasure({len(self.atoms)} atoms, dim={self.dim})"


def product_measure(nu: SMeasure, sigma) -> PMeasure:
    """Product of one [0, 1]-measure with a finitely supported matrix measure.

    ``sigma`` is ``[(weight, matrix), ...]``; every atom of the result
    carries the same ``nu``.
    """
    if not sigma:
        raise MeasureError("matrix marginal needs at least one atom")
    return PMeasure([(w, m, nu) for w, m in sigma])


def congruence_measure(x, mu: PMeasure) -> PMeasure:
    """Push the matrix marginal through ``A -> X A X.T`` (weights and nu unchanged)."""
    return PMeasure([(w, congruence(x, m), nu) for w, m, nu in mu.atoms])


def measure_leq(mu1: PMeasure, mu2: PMeasure) -> bool:
    """Partial order on structurally matched measures.

    Atoms are matched by list position and must have equal weights (within
    1e-12) and structurally identical [0, 1]-measures; then the order holds
    iff every matched matrix pair is Loewner ordered (:func:`loewner_leq` at its
    default scaled tolerance, 1e-10).  Structural mismatch raises
    :class:`Incomparable`.
    """
    if len(mu1) != len(mu2):
        raise Incomparable("measures have different atom counts")
    if mu1.dim != mu2.dim:
        raise Incomparable("measures have different matrix dimensions")
    for (w1, a1, n1), (w2, a2, n2) in zip(mu1.atoms, mu2.atoms):
        if abs(w1 - w2) > 1e-12:
            raise Incomparable("matched atoms carry different weights")
        if not n1.same_structure(n2):
            raise Incomparable("matched atoms carry different [0, 1]-measures")
    return all(
        loewner_leq(a1, a2)
        for (_, a1, _), (_, a2, _) in zip(mu1.atoms, mu2.atoms)
    )


def pmeasure_from_json(obj) -> PMeasure:
    """Parse the PMeasure JSON schema ``{"atoms": [{"weight", "nu", "matrix"}, ...]}``.

    Each atom's matrix schema is checked in plain Python (:func:`core._json_rows`: a
    dict with ``"dim"`` and ``"data"``, ``dim`` rows of ``dim`` entries), every atom
    of one dimension; then all matrices become one (k, n, n) array, which
    :class:`PMeasure` gates with its one :func:`spd_stack`.  No matrix is converted,
    checked or symmetrized on its own.
    """
    if not isinstance(obj, dict) or "atoms" not in obj:
        raise MeasureError('measure JSON must carry an "atoms" list')
    try:
        entries = list(obj["atoms"])
        rows = [_json_rows(entry["matrix"]) for entry in entries]
        weights = [entry["weight"] for entry in entries]
        nus = [smeasure_from_json(entry["nu"]) for entry in entries]
    except (KeyError, TypeError) as exc:
        raise MeasureError(f"malformed measure JSON atoms: {exc!r}") from exc
    if len({len(r) for r in rows}) > 1:
        raise MeasureError("all atom matrices must share one dimension")
    return PMeasure(zip(weights, _numeric(rows), nus))
