"""Dense SPD/symmetric matrix primitives and the package's one spectral layer.

Everything here operates on plain ``numpy.ndarray`` values.  A caller's matrix
is checked once, by the public function that takes it: :func:`sym_matrix`
converts, shape-checks and symmetrizes it as ``0.5 A + 0.5 A.T``, and one
positive-definiteness rule (:func:`_pd_rule`) reads its spectrum.  A matrix that
is whitened against (a caller's point, a two-operand function's frame, a solver's
trial point) is gated by the ``eigh`` of its :func:`whitened_eigh`; any other operand
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
* :func:`whitened_eigh` / :func:`whiten`, the stacked spectra of ``C.T A_k C`` in
  X's frame ``X = F F.T``, ``C.T X C = I``: those of ``X^(-1/2) A_k X^(-1/2)``;
* :func:`spectral_sum`, the one reassembly ``F (sum_k Q_k diag(v_k) Q_k.T) F.T``.
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


def _symmetrized(entries, ndim=3, what="a stack of square matrices") -> np.ndarray:
    """The one check body of :func:`sym_matrix` and :func:`spd_stack` (a stack by default).

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
    a = _symmetrized(mats)
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


def _cholesky(mats):
    """Lower Cholesky factors of a gated stack; a LAPACK failure becomes NumericalFailure."""
    try:
        return np.linalg.cholesky(mats)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"Cholesky factorization failed: {exc}") from exc


def whitened_eigh(x, mats, factors=None):
    """Stacked spectra of the atoms ``mats`` whitened in X's frame: ``(F, C, lam, q)``.

    One ``eigh`` ``X = V diag(w) V.T``, whose spectrum gates X (:func:`_pd_rule`), gives
    X's frame ``F = V w^(1/2)``, ``C = V w^(-1/2)``: ``X = F F.T`` and ``C.T X C = I``.
    ``lam[k]`` ascending and ``q[k]`` are the eigenpairs of ``C.T A_k C``, whose spectrum
    is that of ``X^(-1/2) A_k X^(-1/2)``: one ``eigh`` of the Gram stack ``B_k B_k.T``,
    ``B_k = C.T L_k`` with ``factors[k] = L_k`` the atom's lower Cholesky factor, which keeps
    each eigenvalue's relative accuracy (Demmel and Veselic, SIAM J. Matrix Anal. Appl. 13,
    1992); without factors, of the product (:func:`whiten`).  A 1 x 1 spectrum is ``a / x``.
    """
    w, v = _eigh(x)
    _pd_rule(w)
    f, c = v * np.sqrt(w), v / np.sqrt(w)
    if len(x) == 1:
        return f, c, mats[:, :, 0] / x[0, 0], np.ones_like(mats)
    if factors is None:
        return (f, c, *whiten(c, mats))
    b = c.T @ factors
    return (f, c, *_eigh(b @ b.swapaxes(1, 2)))


def whiten(c, mats):
    """Stacked spectra ``(lam, q)`` of ``C.T @ mats @ C``, C a known frame ``C.T X C = I``."""
    return _eigh(_sym(c.T @ mats @ c))


def spectral_sum(q, vals, f=None) -> np.ndarray:
    """``F (sum_k Q_k diag(vals_k) Q_k.T) F.T`` for q (k, n, n) and vals (k, n), as one product.

    Without ``f`` the bare sum; with X's frame ``F`` (``X = F F.T``) the sum is taken
    back out of X's whitened frame.
    """
    cols = q.transpose(1, 0, 2).reshape(q.shape[1], -1)
    acc = _sym((cols * np.ravel(vals)) @ cols.T)
    return acc if f is None else _sym(f @ acc @ f.T)


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
    _, _, k, frame, _, lam, q = _whitened_pair(a, b)
    if not np.all(lam > 0.0):
        raise NotPositiveDefinite("matrix power of a non-positive matrix")
    # A #_t B = 2^(-k t) (A #_t 2^k B), the power of two applied as 2^f 2^m
    m, f = divmod(-k * t, 1.0)
    return np.ldexp(2.0**f * spectral_sum(q, lam**t, frame), int(m))


def _whitened_pair(x, a):
    """``(x, a, k, F, C, lam, q)``: X and A gated, ``C.T 2^k A C``'s spectrum in X's frame.

    The two-operand functions' one entry: A passes :func:`spd_matrix`, frame X the
    :func:`whitened_eigh` that whitens it; k is the :func:`_scale_gap` of A to X.
    """
    x, a = sym_matrix(x), spd_matrix(a)
    if x.shape != a.shape:
        raise ShapeError("operands must share dimensions")
    k = _scale_gap(x, a)
    return (x, a, k, *whitened_eigh(x, np.ldexp(a, k)[None]))


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


def _check_weights(pairs, gate=None):
    """Weights and (k, n, n) stack of ``[(weight, matrix), ...]``.

    Weights go through :func:`_probability_weights`, matrices through ``gate`` or :func:`spd_stack`.
    """
    if len(pairs) == 0:
        raise EmptyInput("need at least one (weight, matrix) pair")
    return _probability_weights([p[0] for p in pairs]), (gate or spd_stack)([p[1] for p in pairs])


def _arith(w, mats):
    """``sym(sum_k w_k A_k)``, summed in atom order, of gated weights and matrices."""
    return _sym(np.sum(w[:, None, None] * mats, axis=0))


def _harm(w, mats):
    """``(sum_k w_k A_k^-1)^-1`` of symmetric matrices, gated by the spectra of one stacked eigh."""
    lam, q = _eigh(mats)
    _pd_rule(lam)
    return _sym(np.linalg.inv(spectral_sum(q, w[:, None] / lam)))


def weighted_arith(pairs) -> np.ndarray:
    """Weighted arithmetic mean ``sum_k w_k A_k`` of SPD matrices."""
    return _arith(*_check_weights(pairs))


def weighted_harm(pairs) -> np.ndarray:
    """Weighted harmonic mean ``(sum_k w_k A_k^-1)^-1``; below the arithmetic mean."""
    return _harm(*_check_weights(pairs, _symmetrized))


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
