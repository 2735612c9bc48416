"""Dense SPD/symmetric matrix primitives and the package's one spectral layer.

Everything here operates on plain ``numpy.ndarray`` values.  A caller's matrix
is checked once, by the public function that takes it: :func:`sym_matrix`
converts, shape-checks and symmetrizes it as ``0.5 A + 0.5 A.T``, and one
positive-definiteness rule (:func:`_pd_rule`) reads its spectrum.  A matrix that
is whitened against (a caller's point, a two-operand function's frame, a solver's
trial point) is gated by the ``eigh`` of its :func:`sqrt_pair`; any other operand
by :func:`spd_stack`'s one stacked ``eigvalsh`` (:func:`spd_matrix` is its k = 1
case).  The two-operand functions enter through :func:`_whitened_pair`.  Nothing
behind that gate checks again; the remaining operations stay allocation-light so
they can sit inside solver loops.

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

import math
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
    """``(A + A.T)/2`` of a matrix or a stack: the package's one symmetrizer.

    Formed as ``h + h.T`` with ``h = 0.5 A``, which rounds as ``0.5 (A + A.T)`` does in the
    normal range and cannot overflow.
    """
    h = 0.5 * a
    return h + h.swapaxes(-1, -2)


def _is_count(n, least=1) -> bool:
    """True iff n is a whole number >= least; NaN, infinities, bools and non-numbers are not."""
    return (isinstance(n, Real) and not isinstance(n, bool) and n >= least
            and float(n).is_integer())


def _real(x, what) -> float:
    """``x`` as a float; MeasureError unless it is a real number (a string is not)."""
    if not isinstance(x, (float, int, Real)):  # the abstract Real alone is a slow check
        raise MeasureError(f"{what} must be a number, got {x!r}")
    return float(x)


def _float_array(a) -> np.ndarray:
    """``a`` as a float ndarray, not copied if it is one; ShapeError if ragged or not numeric."""
    try:
        return np.asarray(a, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ShapeError(f"matrices must be numeric arrays: {exc}") from exc


def _symmetrized(entries, ndim, what) -> np.ndarray:
    """The one check body of :func:`sym_matrix` and :func:`spd_stack`.

    ``entries`` as a float array: ShapeError unless it has ``ndim`` axes and ends in a
    nonempty square matrix, DomainError unless every entry is finite.  Symmetrized by
    :func:`_sym`.
    """
    a = _float_array(entries)
    if a.ndim != ndim or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise ShapeError(f"expected {what}, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError("matrix entries must be finite")
    return _sym(a)


def sym_matrix(entries) -> np.ndarray:
    """Validate and symmetrize a square real matrix.

    Parameters
    ----------
    entries : array_like, shape (n, n)
        Square matrix with finite entries; symmetrized as ``0.5 A + 0.5 A.T``.

    Returns
    -------
    ndarray
        Symmetric float64 copy.
    """
    return _symmetrized(entries, 2, "a square matrix")


def spd_matrix(entries) -> np.ndarray:
    """Validate, symmetrize and positivity-check a matrix: the k = 1 case of :func:`spd_stack`.

    Returns
    -------
    ndarray
        Symmetric positive definite float64 copy.
    """
    a = sym_matrix(entries)
    _pd_rule(np.linalg.eigvalsh(a))
    return a


def spd_stack(mats) -> np.ndarray:
    """Validate, symmetrize and positivity-check k square matrices of one shape.

    The gate of operands that are not whitened against: a (k, n, n) stack, checked by
    one stacked ``eigvalsh``.  Each smallest eigenvalue must exceed ``n * 1e-14 *
    lambda_max``, so that floating-point drift neither rejects valid input nor
    admits indefinite matrices; the first failing matrix is named by its index.
    """
    a = _symmetrized(mats, 3, "a stack of square matrices")
    _pd_rule(np.linalg.eigvalsh(a))
    return a


def _pd_rule(w):
    """The package's one positive-definiteness rule, on an ascending spectrum ``w``: (n,) or (k, n).

    One comparison: each smallest eigenvalue must exceed ``n * PD_FLOOR`` times the
    largest, which fails too for a largest eigenvalue <= 0 and for NaN.
    NotPositiveDefinite names the first failing matrix by its index (0 for one spectrum).
    """
    ok = w[..., :1] > w.shape[-1] * PD_FLOOR * w[..., -1:]
    if not ok.all():
        k, w = int(np.argmin(ok)), w.reshape(-1, w.shape[-1])
        raise NotPositiveDefinite(
            f"matrix {k} is not positive definite (min eig {w[k, 0]:.3e}, max eig {w[k, -1]:.3e})"
        )


def _eigh(a):
    """Ascending ``eigh`` of a symmetric matrix or (k, n, n) stack; the package's one entry."""
    try:
        return np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigendecomposition failed: {exc}") from exc


def sqrt_pair(a):
    """``(A**0.5, A**-0.5)`` from one ``eigh``, whose spectrum gates A (:func:`_pd_rule`)."""
    w, q = _eigh(a)
    _pd_rule(w)
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
    return _eigh(_sym(irs @ mats @ irs))


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
    _, _, k, rs, lam, q = _whitened_pair(a, b)
    if not np.all(lam > 0.0):
        raise NotPositiveDefinite("matrix power of a non-positive matrix")
    # A #_t B = 2^(-k t) (A #_t 2^k B), the power of two applied as 2^f 2^m
    m, f = divmod(-k * t, 1.0)
    return np.ldexp(2.0**f * spectral_sum(q, lam**t, rs), int(m))


def _whitened_pair(x, a):
    """``(x, a, k, X^(1/2), lam, q)``: X and A gated, ``X^(-1/2) 2^k A X^(-1/2)``'s spectrum.

    The two-operand functions' one entry: A passes :func:`spd_matrix`, frame X the
    :func:`sqrt_pair` that whitens it; k is the :func:`_scale_gap` of A to X.
    """
    x, a = sym_matrix(x), spd_matrix(a)
    if x.shape != a.shape:
        raise ShapeError("operands must share dimensions")
    k = _scale_gap(x, a)
    rs, _, lam, q = whitened_eigh(x, np.ldexp(a, k)[None])
    return x, a, k, rs, lam, q


def _scale_gap(a, b) -> int:
    """The k with ``2^k B`` on the scale of A: largest diagonal entries within a factor of 2.

    Only the ratio of two operands' scales reaches ``A^(-1/2) B A^(-1/2)``, so a
    two-operand function whitens against ``2^k B`` and takes ``2^-k`` back out in
    closed form: operands of any finite scales then meet without overflow or
    underflow.  Scaling by a power of two is exact, short of entries pushed into the
    subnormal range, and k = 0 for operands of one scale leaves every bit as it was.
    """
    return math.frexp(a.diagonal().max())[1] - math.frexp(b.diagonal().max())[1]


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

    Every weight vector of the package passes here; anything else, a numeric string
    included, raises MeasureError.
    """
    w = np.array([_real(v, "each of the weights") for v in w])
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

    :func:`_json_rows` checks the schema in plain Python and :func:`sym_matrix`
    converts, checks finiteness and symmetrizes; the function the matrix is passed to
    checks positive definiteness, so each matrix is gated once.
    """
    return sym_matrix(_numeric(_json_rows(obj)))


def _json_rows(obj):
    """The ``"data"`` rows of one matrix JSON object, its schema checked in plain Python.

    MeasureError unless ``obj`` is a dict with ``"dim"`` and ``"data"``.  Data that is
    not ``dim`` lists of ``dim`` entries raises what numpy's reading of it shows:
    MeasureError (:func:`_numeric`) if it is ragged or not numeric, else ShapeError.
    The entries are left to the caller's one conversion.
    """
    if not isinstance(obj, dict) or "dim" not in obj or "data" not in obj:
        raise MeasureError('matrix JSON must have "dim" and "data" fields')
    dim, rows = obj["dim"], obj["data"]
    if not (isinstance(rows, list) and len(rows) == dim
            and all(isinstance(row, list) and len(row) == dim for row in rows)):
        raise ShapeError(f'"data" must be {dim}x{dim}, got {_numeric(rows).shape}')
    return rows


def _numeric(rows) -> np.ndarray:
    """Matrix JSON data as one float array; MeasureError if it is ragged or not numeric."""
    try:
        return np.array(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise MeasureError(f'matrix JSON "data" is not numeric: {exc}') from exc
