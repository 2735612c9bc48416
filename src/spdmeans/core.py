"""Dense SPD/symmetric matrix primitives and the package's one spectral layer.

Everything here operates on plain ``numpy.ndarray`` values.  A caller's matrix
is checked once, by the public function that takes it: :func:`spd_stack` (the
one SPD gate; :func:`spd_matrix` is its k = 1 case) or :func:`sym_matrix`
converts, shape-checks and symmetrizes it as ``(A + A.T) / 2``.  Nothing behind
that gate checks again; the remaining operations stay allocation-light so they
can sit inside solver loops.

All matrix functions take the spectral route rather than Pade or
scaling-and-squaring: dimensions stay small, and one kernel handles every
scalar function we need.  It has three pieces, and no other module calls
``eigh`` or ``eigvalsh``:

* :func:`_eigh`, the one ``eigh`` call, on a matrix or a (k, n, n) stack; a
  LAPACK failure becomes :class:`NumericalFailure`;
* :func:`whitened_eigh` / :func:`whiten`, the stacked spectra of
  ``X^(-1/2) A_k X^(-1/2)``;
* :func:`spectral_sum`, the one reassembly ``rs (sum_k Q_k diag(v_k) Q_k.T) rs``.
"""

from numbers import Real

import numpy as np

from .errors import (
    DomainError,
    EmptyInput,
    MeasureError,
    NotPositiveDefinite,
    NumericalFailure,
    ShapeError,
    SingularTransform,
)

# Relative eigenvalue floor used by the positive-definiteness check.
PD_FLOOR = 1e-14

# Default scaled tolerance for the Loewner order test.  Monotonicity tests
# of iterated means accumulate rounding, so exact checks are too brittle.
LOEWNER_TOL = 1e-10


def _sym(a):
    return 0.5 * (a + a.T)


def _is_count(n, least=1) -> bool:
    """True iff n is a whole number >= least; NaN, infinities, bools and non-numbers are not."""
    return (isinstance(n, Real) and not isinstance(n, bool) and n >= least
            and float(n).is_integer())


def _float_array(a) -> np.ndarray:
    """``a`` as a float ndarray, not copied if it is one; ShapeError if ragged or not numeric."""
    try:
        return np.asarray(a, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ShapeError(f"matrices must be numeric arrays: {exc}") from exc


def sym_matrix(entries) -> np.ndarray:
    """Validate and symmetrize a square real matrix.

    Parameters
    ----------
    entries : array_like, shape (n, n)
        Square matrix; symmetrized as ``(A + A.T) / 2``.

    Returns
    -------
    ndarray
        Symmetric float64 copy.
    """
    a = _float_array(entries)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError("matrix entries must be finite")
    return _sym(a)


def spd_matrix(entries) -> np.ndarray:
    """Validate, symmetrize and positivity-check a matrix: the k = 1 case of :func:`spd_stack`.

    Returns
    -------
    ndarray
        Symmetric positive definite float64 copy.
    """
    return spd_stack(sym_matrix(entries)[None])[0]


def spd_stack(mats) -> np.ndarray:
    """Validate, symmetrize and positivity-check k square matrices of one shape.

    The one SPD gate of the package: a (k, n, n) stack, checked by one stacked
    ``eigvalsh``.  Each smallest eigenvalue must exceed ``n * 1e-14 *
    lambda_max``, so that floating-point drift neither rejects valid input nor
    admits indefinite matrices; the first failing matrix is named by its index.
    """
    a = _float_array(mats)
    if a.ndim != 3 or a.shape[1] != a.shape[2] or a.shape[1] < 1:
        raise ShapeError(f"expected a stack of square matrices, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError("matrix entries must be finite")
    a = 0.5 * (a + a.swapaxes(1, 2))
    w = np.linalg.eigvalsh(a)
    lo, hi = w[:, 0], w[:, -1]
    bad = (hi <= 0.0) | (lo <= a.shape[1] * PD_FLOOR * hi)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise NotPositiveDefinite(
            f"matrix {k} is not positive definite (min eig {lo[k]:.3e}, max eig {hi[k]:.3e})"
        )
    return a


def _eigh(a):
    """Ascending ``eigh`` of a symmetric matrix or (k, n, n) stack; the package's one entry."""
    try:
        return np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigendecomposition failed: {exc}") from exc


def sqrt_pair(a):
    """Return ``(A**0.5, A**-0.5)`` from a single eigendecomposition."""
    w, q = _eigh(a)
    if not np.all(w > 0.0):
        raise NotPositiveDefinite("square root of a non-positive matrix")
    r = np.sqrt(w)
    return _sym((q * r) @ q.T), _sym((q / r) @ q.T)


def whitened_eigh(x, mats):
    """Stacked spectra of the whitened matrices ``X^(-1/2) A_k X^(-1/2)``.

    One :func:`sqrt_pair` of X and one ``eigh`` over the (k, n, n) stack
    ``mats``; returns ``(X^(1/2), X^(-1/2), lam, q)`` with ``lam[k]``
    ascending and ``q[k]`` the matching eigenvectors.
    """
    rs, irs = sqrt_pair(x)
    return (rs, irs, *whiten(irs, mats))


def whiten(irs, mats):
    """Stacked spectra ``(lam, q)`` of ``irs @ mats @ irs``, irs a known ``X^(-1/2)``."""
    white = irs @ mats @ irs
    return _eigh(0.5 * (white + white.swapaxes(1, 2)))


def spectral_sum(q, vals, rs=None) -> np.ndarray:
    """``rs (sum_k Q_k diag(vals_k) Q_k.T) rs`` for q (k, n, n) and vals (k, n), as one product.

    Without ``rs`` the bare sum; with ``rs = X^(1/2)`` the sum is taken back out of
    X's whitened frame.
    """
    cols = q.transpose(1, 0, 2).reshape(q.shape[1], -1)
    acc = _sym((cols * np.ravel(vals)) @ cols.T)
    return acc if rs is None else _sym(rs @ acc @ rs)


def congruence(c, a) -> np.ndarray:
    """Congruence transform ``C A C.T``.

    Raises :class:`DomainError` for a non-finite entry of ``C`` or of the
    product, and :class:`SingularTransform` when ``C`` is numerically singular
    (condition estimate above 1e14 or infinite).
    """
    c, a = _float_array(c), sym_matrix(a)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ShapeError(f"transform must be square, got {c.shape}")
    if not np.all(np.isfinite(c)):
        raise DomainError("transform entries must be finite")
    if c.shape[0] != a.shape[0]:
        raise ShapeError("transform and matrix dimensions differ")
    cond = np.linalg.cond(c)
    if not cond <= 1e14:
        raise SingularTransform(f"transform is numerically singular (cond {cond:.3e})")
    with np.errstate(over="ignore", invalid="ignore"):
        out = _sym(c @ a @ c.T)
    if not np.all(np.isfinite(out)):
        raise DomainError("congruence overflows the float range")
    return out


def geometric_mean(a, b, t: float) -> np.ndarray:
    """Weighted geometric mean ``A^(1/2) (A^(-1/2) B A^(-1/2))^t A^(1/2)``.

    ``t = 0`` returns ``A`` and ``t = 1`` returns ``B``; for ``t`` in between
    this is the geodesic of the affine-invariant metric.
    """
    if not 0.0 <= t <= 1.0:
        raise DomainError(f"geometric mean weight must lie in [0, 1], got {t}")
    a, b = spd_stack([a, b])
    rs, _, lam, q = whitened_eigh(a, b[None])
    if not np.all(lam > 0.0):
        raise NotPositiveDefinite("matrix power of a non-positive matrix")
    return spectral_sum(q, lam**t, rs)


def loewner_leq(a, b, tol: float = LOEWNER_TOL) -> bool:
    """Test ``A <= B`` in the Loewner (positive semidefinite) order.

    True iff ``lambda_min(B - A) >= -tol * (1 + ||B - A||_F)``; A and B pass
    :func:`sym_matrix`.  DomainError unless tol is finite and nonnegative.
    """
    if not 0.0 <= tol < np.inf:
        raise DomainError(f"Loewner tolerance must be finite and nonnegative, got {tol!r}")
    a, b = sym_matrix(a), sym_matrix(b)
    if a.shape != b.shape:
        raise ShapeError("operands must share dimensions")
    d = b - a
    wmin = np.linalg.eigvalsh(d)[0]
    return bool(wmin >= -tol * (1.0 + np.linalg.norm(d)))


def _probability_weights(w):
    """``w`` as a float array of finite positive numbers summing to 1 within 1e-12.

    Every weight vector of the package passes here; anything else raises MeasureError.
    """
    try:
        w = np.array(w, dtype=float)
    except (TypeError, ValueError) as exc:
        raise MeasureError(f"weights must be numbers: {exc}") from exc
    if not np.all(np.isfinite(w) & (w > 0.0)):
        raise MeasureError("weights must be finite and positive")
    if abs(w.sum() - 1.0) > 1e-12:
        raise MeasureError(f"weights must sum to 1, got {w.sum()!r}")
    return w


def _check_weights(pairs):
    """Weights and gated (k, n, n) stack of ``[(weight, matrix), ...]``.

    Weights go through :func:`_probability_weights`, matrices through :func:`spd_stack`.
    """
    if len(pairs) == 0:
        raise EmptyInput("need at least one (weight, matrix) pair")
    return _probability_weights([p[0] for p in pairs]), spd_stack([p[1] for p in pairs])


def _arith(w, mats):
    """``sym(sum_k w_k A_k)``, summed in atom order, of gated weights and matrices."""
    acc = np.zeros_like(mats[0])
    for wk, m in zip(w, mats):
        acc = acc + wk * m
    return _sym(acc)


def _harm(w, mats):
    """``(sum_k w_k A_k^-1)^-1`` of gated weights and matrices, from one stacked eigh."""
    lam, q = _eigh(mats)
    return _sym(np.linalg.inv(spectral_sum(q, w[:, None] / lam)))


def weighted_arith(pairs) -> np.ndarray:
    """Weighted arithmetic mean ``sum_k w_k A_k`` of SPD matrices."""
    return _arith(*_check_weights(pairs))


def weighted_harm(pairs) -> np.ndarray:
    """Weighted harmonic mean ``(sum_k w_k A_k^-1)^-1``; below the arithmetic mean."""
    return _harm(*_check_weights(pairs))


def matrix_to_json(a) -> dict:
    """Serialize a matrix to the ``{"dim": n, "data": [[...], ...]}`` schema."""
    a = np.asarray(a, dtype=float)
    return {"dim": int(a.shape[0]), "data": [[float(v) for v in row] for row in a]}


def matrix_from_json(obj) -> np.ndarray:
    """Parse ``{"dim": n, "data": [[row0...], ...]}`` (row-major floats) and symmetrize.

    Only :func:`sym_matrix` runs here: the function the matrix is passed to checks
    positive definiteness, so each matrix is gated once.
    """
    if not isinstance(obj, dict) or "dim" not in obj or "data" not in obj:
        raise MeasureError('matrix JSON must have "dim" and "data" fields')
    dim = obj["dim"]
    try:
        data = np.array(obj["data"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise MeasureError(f'matrix JSON "data" is not numeric: {exc}') from exc
    if data.shape != (dim, dim):
        raise ShapeError(f'"data" must be {dim}x{dim}, got {data.shape}')
    return sym_matrix(data)
