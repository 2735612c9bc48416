"""Probability measures on [0, 1] x SPD with finite matrix support.

A :class:`PMeasure` is a finite list of atoms ``(weight, matrix, nu)`` where
``nu`` is the measure on [0, 1] attached to that matrix; it represents the
product-like measure ``sum_k w_k (nu_k x delta_{A_k})``.  Continuous matrix
marginals are out of scope: every construction in the underlying theory
that we evaluate numerically has finitely many matrix atoms, while the
[0, 1] marginal may be continuous (handled by quadrature inside SMeasure).

The atoms' [0, 1] quadratures are kept as one flat rule over all atoms: a
kernel is evaluated on every (atom, node) pair in one array pass and summed
per atom by ``np.add.reduceat`` in a fixed order, so reruns are bit-identical.
"""

import numpy as np

from .core import (_float_array, _probability_weights, congruence, loewner_leq, matrix_from_json,
                   spd_stack)
from .errors import Incomparable, MeasureError
from .monotone import SMeasure, _frozen, smeasure_from_json


class PMeasure:
    """Finitely supported probability measure on [0, 1] x SPD.

    Parameters
    ----------
    atoms : sequence of (weight, matrix, SMeasure)
        Finite positive weights summing to 1 (within 1e-12); matrices all SPD and
        of one shared dimension (a ragged or non-numeric matrix raises ShapeError,
        well-formed ones of different dimensions MeasureError).  They are stored
        once, as the read-only (k, n, n) stack ``matrices`` and vector
        ``weights``; ``atoms`` holds views into that stack.

    The flat quadrature is read-only too: over all M nodes of all atoms,
    ``nodes`` (M,) and ``node_weights`` (M,) hold each atom's ``nu.nodes``
    and ``w_k * omega_m``, ``owner`` (M,) the atom of each node and ``starts``
    (k,) each atom's first node, so ``np.add.reduceat(terms, starts)`` sums
    per-node terms per atom.
    """

    __slots__ = ("atoms", "dim", "matrices", "weights", "nodes", "node_weights", "owner", "starts")

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
        w = _frozen(_probability_weights([w for w, _, _ in atoms]))
        self.matrices = _frozen(mats)
        self.weights = w
        self.atoms = tuple((float(wk), m, nu) for wk, m, nu in zip(w, self.matrices, nus))
        self.dim = mats.shape[1]
        counts = [len(nu.nodes) for nu in nus]
        self.nodes = _frozen(np.concatenate([nu.nodes for nu in nus]))
        self.owner = np.repeat(np.arange(len(nus)), counts)
        self.node_weights = _frozen(w[self.owner] * np.concatenate([nu.weights for nu in nus]))
        self.starts = np.cumsum(counts) - counts
        self.owner.setflags(write=False)
        self.starts.setflags(write=False)

    def __len__(self):
        return len(self.atoms)

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
    """Parse the PMeasure JSON schema ``{"atoms": [{"weight", "nu", "matrix"}, ...]}``."""
    if not isinstance(obj, dict) or "atoms" not in obj:
        raise MeasureError('measure JSON must carry an "atoms" list')
    try:
        atoms = [
            (
                entry["weight"],
                matrix_from_json(entry["matrix"]),
                smeasure_from_json(entry["nu"]),
            )
            for entry in obj["atoms"]
        ]
    except (KeyError, TypeError) as exc:
        raise MeasureError(f"malformed measure JSON atoms: {exc!r}") from exc
    return PMeasure(atoms)
