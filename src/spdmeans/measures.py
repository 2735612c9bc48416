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

from .core import _check_weights, _json_rows, _numeric, _spd, congruence, loewner_leq
from .errors import Incomparable, MeasureError, NotPositiveDefinite
from .monotone import SMeasure, _frozen, smeasure_from_json

# Within this margin of s = 0 or 1, log((1-s) w + s) - (1-s) log w cancels to O(s(1-s));
# the terms there are taken through log1p, free of that cancellation, and the closed-form
# endpoint divergences only at s = 0 and 1 exactly: at s = 1e-8 the s -> 0 limit is off
# by its O(s) remainder, which grows like 1/w (relative error 1e3 at w = 1e-12).
_ENDPOINT = 1e-8

# Whitened eigenvalues w with |w - 1| below this may take :func:`_divergence_near_one`.
_NEAR_ONE = 0.25

# 1/(2j + 3), j = 8, 7, ..., 0: Horner's coefficients of (atanh(u) - u)/u^3 in u^2, to
# rounding for |u| <= 1/7.
_ATANH_COEFFS = tuple(1.0 / c for c in range(19, 2, -2))


def _log1p_quotient(x):
    """``h(x) = (log1p(x) - x)/x^2`` to full relative accuracy, elementwise for |x| <= 1/4.

    ``log1p(x) = 2 atanh(u)`` with ``u = x/(2 + x)``, ``|u| <= 1/7``, and ``x = 2u/(1 - u)``
    give ``h(x) = ((1 - u)^2 u (atanh(u) - u)/u^3 - (1 - u))/2``, free of the cancellation
    in ``log1p(x) - x``; ``(atanh(u) - u)/u^3`` is its series in u^2.
    """
    u = x / (2.0 + x)
    v = u * u
    series = _ATANH_COEFFS[0] * v
    for c in _ATANH_COEFFS[1:-1]:
        series += c
        series *= v
    series += _ATANH_COEFFS[-1]
    b = 1.0 - u
    return 0.5 * b * (b * u * series - 1.0)


def _divergence_near_one(d, s):
    """The divergence's terms (k, m) at ``w = 1 + d`` (k, 1), |d| <= 1/4, and nodes s (k, m).

    With ``log1p(x) = x + x^2 h(x)`` (:func:`_log1p_quotient`) the linear parts that cancel
    as d -> 0 drop out exactly: ``log((1-s) w + s) - (1-s) log w = (1-s) d^2 ((1-s) h((1-s) d)
    - h(d))``, which at s = 1 reads ``w - 1 - log w = -d^2 h(d)``, and the term of the nodes
    at s = 0 (below _ENDPOINT), ``1/w - 1 + log w``, is ``d^2 (1/w + h(d))``.
    """
    a = 1.0 - s
    h = _log1p_quotient(np.concatenate([a * d, d], axis=1))
    hd = h[:, -1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = d * d * (a * h[:, :-1] - hd) / s
    low = s <= _ENDPOINT
    return np.where(low, d * d * (1.0 / (1.0 + d) + hd), terms) if low.any() else terms


class PMeasure:
    """Finitely supported probability measure on [0, 1] x SPD.

    Parameters
    ----------
    atoms : iterable of (weight, matrix, SMeasure)
        Read by :func:`core._check_weights`: finite positive weights summing to 1 (within
        1e-12); SPD matrices of one dimension (a ragged or non-numeric matrix, or matrices of
        different dimensions, raise ShapeError).  They are stored once, as the read-only
        (k, n, n) stack ``matrices`` and vector ``weights``; ``atoms`` holds views into that
        stack, and the read-only stack ``factors`` their factors ``V_k w_k^(1/2)`` (``core._spd``).

    :meth:`kernels` and :meth:`divergence` read the private node blocks: row k of
    ``_block_nodes`` (k, m) and ``_block_weights`` (k, m) holds atom k's ``nu.nodes``
    and ``w_k * omega_m``, m the longest atom rule; a shorter rule is padded with nodes
    at s = 1/2, where every integrand is finite, of weight 0.
    """

    __slots__ = ("atoms", "dim", "factors", "matrices", "weights", "_block_nodes", "_block_weights")

    def __init__(self, atoms):
        w, (mats, factors, _), nus = _check_weights(atoms, _spd, 3)
        if not all(isinstance(nu, SMeasure) for nu in nus):
            raise MeasureError("each atom needs an SMeasure on [0, 1]")
        self.weights = w = _frozen(w)
        self.matrices = _frozen(mats)
        self.factors = _frozen(factors)
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

        Terms at whitened eigenvalues within _NEAR_ONE of 1, where the logs cancel, come
        from :func:`_divergence_near_one` wherever their rounding could show in the sum.
        NotPositiveDefinite unless every eigenvalue is positive (a NaN is not).
        """
        if not np.all(lam > 0.0):
            raise NotPositiveDefinite("divergence of a non-positive matrix")
        w, s = lam[:, :, None], self._block_nodes[:, None, :]
        a, logw = 1.0 - s, np.log(w)
        den = s * a
        low, high = s <= _ENDPOINT, s >= 1.0 - _ENDPOINT
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = (np.log(a * w + s) - a * logw) / den
            if low.any():  # log(a w + s) - a log w = log1p(s (1/w - 1)) + s log w
                terms = np.where(low, (np.log1p(s * (1.0 / w - 1.0)) + s * logw) / den, terms)
                terms = np.where(s == 0.0, 1.0 / w - 1.0 + logw, terms)
            if high.any():  # log(a w + s) - a log w = log1p(a (w - 1)) - a log w, a = 1 - s
                terms = np.where(high, (np.log1p(a * (w - 1.0)) - a * logw) / den, terms)
                terms = np.where(s == 1.0, w - 1.0 - logw, terms)
        total = np.vdot(self._block_weights, np.sum(terms, axis=1))
        near = np.abs(lam - 1.0) < _NEAR_ONE
        if near.any():
            # a term at a near eigenvalue is off by at most 4 eps/(s(1 - s)) (4 eps at the
            # endpoints): redo those terms only where that can reach 2^-40 of the total
            slack = np.sum(self._block_weights / np.maximum(den[:, 0], _ENDPOINT), axis=1)
            if 4.0 * np.finfo(float).eps * (near.sum(axis=1) @ slack) > 2.0 ** -40 * total:
                terms[near] = _divergence_near_one(lam[near][:, None] - 1.0,
                                                   self._block_nodes[np.nonzero(near)[0]])
                total = np.vdot(self._block_weights, np.sum(terms, axis=1))
        return float(total)

    def matrix_pairs(self):
        """The matrix marginal as ``[(weight, matrix), ...]``."""
        return [(w, m) for w, m, _ in self.atoms]

    def __repr__(self):
        return f"PMeasure({len(self.atoms)} atoms, dim={self.dim})"


def product_measure(nu: SMeasure, sigma) -> PMeasure:
    """Product of one [0, 1]-measure with a finitely supported matrix measure.

    ``sigma`` is ``[(weight, matrix), ...]``; every atom of the result carries the same
    ``nu``.  :class:`PMeasure`'s reader iterates sigma, so it types sigma's faults too.
    """
    return PMeasure((*pair, nu) for pairs in [sigma] for pair in pairs)


def congruence_measure(x, mu: PMeasure) -> PMeasure:
    """Push the matrix marginal through ``A -> X A X.T`` (weights and nu unchanged)."""
    return PMeasure([(w, congruence(x, m), nu) for w, m, nu in mu.atoms])


def measure_leq(mu1: PMeasure, mu2: PMeasure) -> bool:
    """Partial order on structurally matched measures.

    Atoms are matched by list position and must have equal weights (within
    1e-12) and structurally identical [0, 1]-measures; then the order holds
    iff every matched matrix pair is Loewner ordered (:func:`loewner_leq` at its
    default tolerance, 1e-10 relative to the pair's norms, so that scaling both
    measures' matrices together keeps the answer).  Structural mismatch raises
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
    return all(loewner_leq(a1, a2) for (_, a1, _), (_, a2, _) in zip(mu1.atoms, mu2.atoms))


def _json_atoms(obj, nu=False):
    """``[(weight, matrix[, nu]), ...]`` of the JSON ``{"atoms": [{"weight", "matrix"[, "nu"]}]}``.

    Each matrix's schema is checked in plain Python (:func:`core._json_rows`) and its data
    converted once (:func:`core._numeric`), not symmetrized or gated.  With ``nu`` the atoms
    go to :class:`PMeasure`, whose reader they pass; without, :func:`core._check_weights`
    reads them here with no gate, so that the list's faults are raised while it is parsed.
    """
    if not isinstance(obj, dict) or "atoms" not in obj:
        raise MeasureError('atoms-list JSON must carry an "atoms" list')
    try:
        atoms = [(a["weight"], _numeric(_json_rows(a["matrix"])),
                  *((smeasure_from_json(a["nu"]),) if nu else ())) for a in obj["atoms"]]
    except (KeyError, TypeError) as exc:
        raise MeasureError(f"malformed JSON atoms: {exc!r}") from exc
    return atoms if nu else list(zip(*_check_weights(atoms, list)))


def pmeasure_from_json(obj) -> PMeasure:
    """Parse the PMeasure JSON schema ``{"atoms": [{"weight", "nu", "matrix"}, ...]}``.

    :func:`_json_atoms` converts each matrix once and :class:`PMeasure` reads the atoms,
    gating and factoring all matrices with its one stacked ``eigh`` (:func:`core._spd`).
    """
    return PMeasure(_json_atoms(obj, nu=True))
