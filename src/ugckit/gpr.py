"""Gaussian process regression with an explicit polynomial mean basis.

The regression model used throughout the toolkit is

    y = h(x)' beta + f(x) + e,        f ~ GP(0, k),  e ~ N(0, noise_variance)

where h(x) is the pure-quadratic basis [1, x_1..x_d, x_1^2..x_d^2] (2d+1
terms, d in {1, 2}) and k is the squared-exponential kernel

    k(a, b) = signal_variance * exp(-0.5 * sum_j ((a_j - b_j) / l_j)^2).

beta is either supplied by the caller or estimated by generalized least
squares (minimum-norm where the basis is rank-deficient). fit, archive loads
(fit with beta held fixed) and tune_hyperparams build every model from one
eigendecomposition K1 = V diag(lam) V' of the unit-signal kernel
(_kernel_eigh, held as a KernelSpectrum): with K = sf2 K1 (sf2 the signal
variance) a model keeps d = sf2 lam + noise, so every solve against
A = K + noise*I = (F F')^-1 is a matrix product with one whitening factor F
built on W = V diag(d)^-1/2 (a dense-inverse formulation exists only as an
independent oracle in the test suite). _whiten is the one path to F'M and
_gls the one GLS solver on it, for fits and for leave-one-out residuals in
closed form rather than from n refits (loo_residuals, the toolkit's one LOO
routine: it applies F to the rank + 1 columns of _gls's residual and basis
Q and forms no n x n matrix, and with no model, F = I, it scores the
polynomial baseline of joints too). Predictions run in blocks of query rows,
with one unit-signal cross-kernel per block for every target on the same
rows and length scales (predict_targets; predict_many is its one-model
call): each target scales it by its signal variance for its means, and the
first target alone gets variances, from one product per block with W, or
with V on the low-rank form.

The spectrum takes one of three forms. The dense and Kronecker forms keep
all n eigenpairs, and F = W. The low-rank form keeps r < n (Harbrecht,
Peters and Schneider 2012, On the low-rank approximation by the pivoted
Cholesky decomposition; Halko, Martinsson and Tropp 2011, Finding Structure
with Randomness): pivoted Cholesky K1 ~ L L', which reads K1's unit
diagonal and its pivot rows only, so that no n x n matrix is formed,
pivoting on the largest residual diagonal (the lowest index on a tie),
stops once the residual's
trace, kept as KernelSpectrum.tail, is at most n eps times the first pivot
column's squared norm (a lower bound on lam_max); the thin SVD of L then
gives V (n x r) and lam. The trace bounds |K1 - L L'|_2 up to the rounding
of its running update, about n r eps: the order of the stopping tolerance
itself and of the dense eigh's own error. Off the range of V, A = noise*I:

    A^-1 = V diag(1/d) V' + (I - V V')/noise,   F = [W | (I - V V')/sqrt(noise)],

and a prediction subtracts the complement's |k - V V'k|^2 / noise from each
variance, from the explicit complement, not as a difference of squares;
|W'k|^2 = |(V'k) d^-1/2|^2 and the complement share the one product V'k.
The low-rank form is tried on 1-D rows from LOW_RANK_MIN_ROWS (256) up, the
crossover measured on them, and given up past a rank of n/2, where a failed
attempt has cost about as much as the K1 and dense eigh it falls back to,
which are formed only then. A model takes
it only where sf2 * tail <= LOW_RANK_DELTA (1e-9) * noise: zero noise, a
noise too small for the certificate, and a rank past the cap all take the
dense eigh, and so do 1-D rows below the crossover, 2-D rows (ragged grids
and repeated rows, whose crossover is not measured) and product grids,
whose arithmetic the low-rank form leaves as it is, bit for bit.

K1 depends only on the training rows and the length scales, so there is one
spectrum per distinct (rows, length scales), shared by the targets and archive
pairs that match bit for bit (GPML sections 2.2 and 5.4: many targets on one
covariance share one factorization). The sharing is explicit: every model
keeps a read-only reference to the KernelSpectrum it was built from
(FittedGP.spectrum), and fit(..., spectrum=s) reuses s only when its rows
and length scales are bit-identical to X and hyper.length_scales, and builds
its own otherwise. tune_hyperparams(X, targets) scores every (y,
GridSpec) target in one loop over the length-scale tuples their grids share:
per tuple it rotates [H | y_1 | y_2 ...] into K1's eigenbasis once, and
scores all of a target's (signal variance, noise) candidates at once: one
stacked QR of their whitened [H | y], whose triangular factor alone gives
each GLS residual's norm (_qr_residual), and one likelihood per row. Nothing
is cached between calls. A GridSpec refuses an axis that is not a sequence,
an empty one or a value fit() would refuse when it is built, so the search
itself checks no candidate.

The kernel is a product over its axes, so on 2-D rows that are exactly the
product of their distinct angles and thicknesses, each pair once (averaged
bench data measured on a full grid), K1 is a row permutation of the
Kronecker product of the two one-axis kernels, and _kernel_eigh builds the
spectrum from one small eigh per axis (Saatci 2012, Scalable Inference for
Structured Gaussian Process Models, ch. 5; Wilson, Gilboa, Nehorai and
Cunningham 2014, Fast Kernel Learning for Multidimensional Pattern
Extrapolation). All other rows (1-D, a ragged grid, repeated rows) take the
low-rank spectrum where it is tried and certified, and the dense n x n eigh
otherwise. Fits, loads and tuning's picks all go through _kernel_eigh, so a
saved model reloads bit for bit whatever its form. Tuning on a product grid
builds no n x n matrix while it scores: one eigh per distinct (axis, length
scale), kept in a memo local to the call, and the rotation kron(V_a, V_t)' M
as V_a' X V_t per column; only the picked length scales get a full
spectrum, from the same per-axis factors. Tuning on other rows scores on
the dense eigh, and builds its picks as fit() builds them.

Every model fit() and tune_hyperparams() return is immutable, so it can be
shared freely across threads. Grid search in tune_hyperparams breaks ties
toward the earlier candidate in a fixed order, so the result is reproducible.
"""

import itertools
import math

import numpy as np

from .errors import InputError, NotPositiveDefiniteError, UnsupportedDimensionError
from .units import _ANY, _Record, checked, floats

JITTER = 1e-8
_PREDICT_BLOCK = 256  # query rows per cross-kernel block; bounds predict_many's memory
# The low-rank spectrum (_low_rank): tried on 1-D rows from this many up, where
# it is built faster than the dense eigh at every tuning length scale on rows
# over 10-170 deg, and given up past a rank of half the rows, where a failed
# attempt has cost no more than that eigh.
LOW_RANK_MIN_ROWS = 256
# A model takes the low-rank form only where sf2 * tail <= LOW_RANK_DELTA *
# noise: the dropped part of sf2 K1 is then a relative perturbation of at
# most LOW_RANK_DELTA of A = sf2 K1 + noise*I, up to the trace's rounding.
LOW_RANK_DELTA = 1e-9


class KernelHyperParams(_Record):
    """Squared-exponential kernel hyperparameters.

    signal_variance is the finite prior variance of the residual process;
    one finite positive length scale per input dimension.
    """

    signal_variance: float
    length_scales: tuple[float, ...]

    def __post_init__(self):
        sf2 = checked("signal_variance", self.signal_variance, _ANY)
        ls = tuple(checked("length scales", l, _ANY) for l in self.length_scales)
        object.__setattr__(self, "signal_variance", sf2)
        object.__setattr__(self, "length_scales", ls)
        if sf2 < 0:
            raise ValueError(f"signal_variance must be finite and >= 0, got {sf2}")
        if not ls or min(ls) <= 0:
            raise ValueError(f"length scales must all be finite and > 0, got {ls}")

    @property
    def dim(self) -> int:
        return len(self.length_scales)


def _as_points(x, label: str = "X") -> np.ndarray:
    """Coerce input points to an (n, d) float array (units.floats)."""
    arr = floats(label, x)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise InputError(f"expected 1-D or 2-D input array, got shape {arr.shape}")
    return arr


def _finite_points(x, label: str) -> np.ndarray:
    """_as_points, refusing a NaN or inf entry with ValueError naming label."""
    arr = _as_points(x, label)
    if not np.isfinite(arr).all():
        raise ValueError(f"{label}: must be a finite number")
    return arr


def kernel_matrix(xa, xb, hyper: KernelHyperParams) -> np.ndarray:
    """Cross-covariance matrix K[i, j] = k(xa_i, xb_j)."""
    A, B = _finite_points(xa, "xa"), _finite_points(xb, "xb")
    if A.shape[1] != hyper.dim or B.shape[1] != hyper.dim:
        raise InputError(f"points of dim {A.shape[1]}/{B.shape[1]} vs {hyper.dim} length scales")
    # sf2 exp(-0.5 sum_j ((a_j - b_j) / l_j)^2), formed in place in the first
    # axis's array. A squared distance past the float range gives exp(-inf)
    # = 0, the exact limit, so numpy's overflow warning would only add noise
    with np.errstate(over="ignore"):
        for j, length_scale in enumerate(hyper.length_scales):
            sq = A[:, j : j + 1] - B[:, j : j + 1].T
            sq /= length_scale
            np.square(sq, out=sq)
            if j:
                K += sq
            else:
                K = sq
    K *= -0.5
    np.exp(K, out=K)
    if hyper.signal_variance != 1.0:  # a unit kernel is exp(...) itself
        K *= hyper.signal_variance
    return K


def basis_matrix(X) -> np.ndarray:
    """Pure-quadratic basis rows [1, x_1..x_d, x_1^2..x_d^2] (2d+1 columns)
    at the rows of X (n x d, or n angles).

    For 2-D inputs the convention is angle first, thickness second, matching
    the built-in coefficient ordering [1, angle, T, angle^2, T^2].
    """
    pts = _finite_points(X, "X")
    if pts.shape[1] not in (1, 2):
        raise UnsupportedDimensionError(f"basis covers d in {{1, 2}}, got d={pts.shape[1]}")
    return np.hstack([np.ones((pts.shape[0], 1)), pts, pts**2])


def _shifted_spectrum(lam: np.ndarray, noise_variance):
    """Eigenvalues d of A = K + noise*I from those of K, row-wise over stacked
    candidates (one spectrum per row of the last axis), with a single +JITTER
    retry on each row where one is not positive; also whether each row took
    the retry. A row not positive even with jitter keeps d.min() <= 0: fit
    refuses it and tuning skips it."""
    d = lam + noise_variance
    retried = d.min(axis=-1, keepdims=True) <= 0
    if retried.any():
        d = np.where(retried, d + JITTER, d)
    return d, retried[..., 0]


def _row_cells(rows: np.ndarray):
    """Each column's distinct values, and each row's rank among the distinct
    rows, row-major (-0.0 == 0.0); np.unique is asked for an index, as a bare
    call imports numpy.ma (numpy 2.4)."""
    axes, cell = [], np.zeros(rows.shape[0], dtype=np.intp)
    for column in rows.T:
        values, index = np.unique(column, return_inverse=True)
        axes.append(values)
        _, cell = np.unique(cell * values.size + index, return_inverse=True)
    return axes, cell


def _noise(noise_variance) -> float:
    """noise_variance as a float, by the rule for a noise variance, fit()'s
    and GridSpec's: finite and >= 0. Typed first, so that < compares a
    number. Zero noise is refused only on repeated rows (_repeats)."""
    noise = checked("noise_variance", noise_variance, _ANY)
    if noise < 0:
        raise ValueError(f"noise_variance must be finite and >= 0, got {noise}")
    return noise


def _repeats(rows: np.ndarray) -> bool:
    """Whether a row repeats: with no noise K is singular there."""
    return _row_cells(rows)[1].max() + 1 < rows.shape[0]


class KernelSpectrum(_Record):
    """K1 = V diag(lam) V', the unit-signal kernel on the rows x at
    length_scales (see _kernel_eigh). Its arrays are read-only, so models of
    several targets on the same rows share one.

    The dense form keeps all n eigenpairs. The low-rank form (truncated)
    keeps r < n (_low_rank): K1 - V diag(lam) V' is positive semidefinite
    with trace tail, which bounds its 2-norm up to rounding, and the rest of
    R^n counts as eigenvalue 0. A dense spectrum may carry the low-rank one
    on the same rows as low_rank: a model whose noise fails the low-rank
    form's check takes the dense one (_fitted), and another target fitted
    on it still takes the low-rank one where its own noise passes."""

    x: np.ndarray  # (n, d)
    length_scales: tuple[float, ...]
    lam: np.ndarray  # (r,)
    V: np.ndarray  # (n, r)
    tail: float = 0.0
    low_rank: "KernelSpectrum | None" = None

    def __post_init__(self):
        for name in ("x", "lam", "V"):
            getattr(self, name).setflags(write=False)

    @property
    def truncated(self) -> bool:
        """Whether this is the low-rank form: fewer eigenpairs than rows."""
        return self.lam.size < self.x.shape[0]

    def matches(self, X: np.ndarray, length_scales) -> bool:
        """Whether this is K1's spectrum on X at length_scales: the rows and
        the length scales bit for bit."""
        return (
            self.length_scales == tuple(length_scales)
            and self.x.shape == X.shape
            and self.x.tobytes() == X.tobytes()
        )


def _product_grid(rows: np.ndarray):
    """The distinct angles and thicknesses of 2-D rows, and each row's index
    ia * nt + it into their product (its rank), when the rows are exactly
    that product with every pair once; None otherwise."""
    if rows.shape[1] != 2:
        return None
    (a, t), index = _row_cells(rows)
    if a.size * t.size != rows.shape[0] or index.max() + 1 != index.size:
        return None
    return (a, t), index


def _axis_eigh(values: np.ndarray, length_scale: float):
    """eigh of the unit-signal kernel on one axis's distinct values."""
    return np.linalg.eigh(kernel_matrix(values, values, KernelHyperParams(1.0, (length_scale,))))


def _kron_eigenvalues(lam_a: np.ndarray, lam_t: np.ndarray):
    """kron(lam_a, lam_t) sorted ascending (stable) as eigh sorts, and the
    sort order."""
    lam = np.kron(lam_a, lam_t)
    order = np.argsort(lam, kind="stable")
    return lam[order], order


def _kron_rotate(V_a: np.ndarray, V_t: np.ndarray, Mk: np.ndarray) -> np.ndarray:
    """kron(V_a, V_t)' M for the columns of M in kron order, held as Mk of
    shape (na, nt, m): V_a' X V_t for each column X, in O(m (na^2 nt +
    na nt^2)) without forming the kron."""
    na, nt, m = Mk.shape
    Z = (V_a.T @ Mk.reshape(na, nt * m)).reshape(na, nt, m)
    return (V_t.T @ Z).reshape(na * nt, m)


class _KernelRows:
    """The unit-signal kernel K1 on rows, one row at a time: K1[p] is
    kernel_matrix(rows[p:p+1], rows), the bits of the full matrix's row p,
    and no n x n matrix is formed."""

    def __init__(self, rows: np.ndarray, length_scales):
        self.rows, self.unit = rows, KernelHyperParams(1.0, length_scales)

    def __len__(self) -> int:
        return self.rows.shape[0]

    def __getitem__(self, p: int) -> np.ndarray:
        return kernel_matrix(self.rows[p : p + 1], self.rows, self.unit)[0]


def _pivoted_cholesky(K1, cap: int):
    """L' (rows of L) with K1 - L L' positive semidefinite, and that
    residual's trace, once the trace is at most n eps times a lower bound on
    K1's largest eigenvalue (the first column's squared norm); None past cap
    columns. K1 is a unit-signal kernel, whose diagonal is ones, held whole
    or as _KernelRows: each step reads its pivot row K1[p] alone, and L'
    grows by doubling, so the attempt forms no n x n matrix of its own. The
    trace is that of the running diagonal d, whose updates round by about
    k eps per entry after k steps (clamped at 0), so it bounds the residual
    up to about n k eps, the tolerance's own order. Each step pivots on the
    largest residual diagonal, the lowest index on a tie (Harbrecht, Peters
    and Schneider 2012, On the low-rank approximation by the pivoted
    Cholesky decomposition)."""
    n = len(K1)
    d = np.ones(n)  # the residual's diagonal
    Lt = np.empty((min(cap, 16), n))
    for k in range(cap):
        if k == Lt.shape[0]:
            Lt = np.concatenate([Lt, np.empty((min(k, cap - k), n))])
        p = int(np.argmax(d))
        row = K1[p] - Lt[:k, p] @ Lt[:k]
        row /= math.sqrt(d[p])
        Lt[k] = row
        d -= row * row
        d[p] = 0.0
        np.maximum(d, 0.0, out=d)
        if k == 0:
            tol = n * np.finfo(float).eps * (row @ row)
        tail = float(d.sum())
        if tail <= tol:
            return Lt[: k + 1], tail
    return None


def _low_rank(rows: np.ndarray, length_scales, K1=None) -> KernelSpectrum | None:
    """The low-rank spectrum of K1, the unit-signal kernel on 1-D rows of
    at least LOW_RANK_MIN_ROWS: pivoted Cholesky K1 ~ L L' to rounding level
    from K1's pivot rows alone (_pivoted_cholesky, reading K1 when the
    caller holds it and _KernelRows otherwise), then the thin SVD L =
    V diag(s) U' gives lam = s^2 (Halko, Martinsson and Tropp 2011). None on
    2-D or fewer rows, or past a rank of half the rows. The crossover and
    the cap are measured on 1-D rows only; on a ragged curve grid the
    attempt fails at short angle length scales, so 2-D rows keep the dense
    eigh."""
    n = rows.shape[0]
    if n < LOW_RANK_MIN_ROWS or rows.shape[1] != 1:
        return None
    if K1 is None:
        K1 = _KernelRows(rows, length_scales)
    factor = _pivoted_cholesky(K1, n // 2)
    if factor is None:
        return None
    Lt, tail = factor
    _, s, Vt = np.linalg.svd(Lt, full_matrices=False)
    return KernelSpectrum(rows, tuple(length_scales), s * s, Vt.T, tail)


def _dense(rows: np.ndarray, length_scales, K1=None, low_rank=None) -> KernelSpectrum:
    """The dense spectrum: the n x n eigh of K1 on rows (K1 when the caller
    holds it)."""
    if K1 is None:
        K1 = kernel_matrix(rows, rows, KernelHyperParams(1.0, length_scales))
    lam, V = np.linalg.eigh(K1)
    return KernelSpectrum(rows, tuple(length_scales), lam, V, low_rank=low_rank)


def _kernel_eigh(rows: np.ndarray, length_scales, factors=None) -> KernelSpectrum:
    """Eigendecomposition K1 = V diag(lam) V' of the unit-signal kernel on
    rows, which the spectrum keeps (the caller's own copy): the one
    factorization behind fit, archive loads and tuning's picks, one per
    distinct (rows, length scales). A kernel with signal variance sf2 is
    sf2 K1, with eigenvalues sf2 lam.

    The squared-exponential kernel is a product over its axes, so on 2-D rows
    that are an exact product of their na angles and nt thicknesses, each
    pair once (_product_grid), K1 = P (Ka kron Kt) P' with P the permutation
    taking the kron order to the rows' order (Saatci 2012, Scalable Inference
    for Structured Gaussian Process Models, ch. 5; Wilson, Gilboa, Nehorai and
    Cunningham 2014, Fast Kernel Learning for Multidimensional Pattern
    Extrapolation). Its spectrum then comes from an na x na and an nt x nt
    eigh: lam = kron(lam_a, lam_t) and V = P kron(V_a, V_t), sorted ascending
    (stable) as eigh sorts. Every other set of rows (1-D, a ragged grid, a
    repeated row) takes the low-rank spectrum where _low_rank gives one (1-D
    rows only, from K1's pivot rows), and the dense n x n eigh otherwise,
    the only case that forms the n x n K1.

    factors: the two per-axis eighs (_axis_eigh) of a product grid at
    length_scales, when the caller already holds them (tuning's memo)."""
    length_scales = tuple(length_scales)
    grid = _product_grid(rows)
    if grid is None:
        return _low_rank(rows, length_scales) or _dense(rows, length_scales)
    axes, index = grid
    if factors is None:
        factors = [_axis_eigh(v, l) for v, l in zip(axes, length_scales)]
    (lam_a, V_a), (lam_t, V_t) = factors
    lam, order = _kron_eigenvalues(lam_a, lam_t)
    V = np.kron(V_a, V_t)[np.ix_(index, order)]
    return KernelSpectrum(rows, length_scales, lam, V)


def _kept(s: np.ndarray, shape) -> np.ndarray:
    """Which singular values s of a matrix (or stack of matrices) Hw of the
    given shape are kept: those above numpy's matrix_rank tolerance. This is
    the one rank rule for fits, tuning and leave-one-out scores; it cuts the
    directions a basis rank-deficient on X (a curve fit at one thickness)
    cannot identify."""
    return s > s.max(axis=-1, keepdims=True) * max(shape[-2:]) * np.finfo(float).eps


def _gls(Hw: np.ndarray, yw: np.ndarray):
    """Minimum-norm argmin_b (y - H b)' A^-1 (y - H b) from Hw = F'H (m x p)
    and yw = F'y (_whiten), for fits and leave-one-out residuals; also the
    whitened residual z = yw - Hw b = (I - Q Q') yw and Q, the left singular
    vectors of Hw that _kept keeps."""
    U, s, Vt = np.linalg.svd(Hw, full_matrices=False)
    keep = _kept(s, Hw.shape)
    U *= keep
    # U' row-major, as slicing its columns gave; the layout sets the rounding
    # that archived fits pin
    Ut = np.ascontiguousarray(U.T)
    coef = Ut @ yw
    beta = (Vt.T / np.where(keep, s, np.inf)) @ coef
    return beta, yw - Ut.T @ coef, U[:, keep]


def _qr_residual(Mw: np.ndarray, p: int) -> np.ndarray:
    """For stacked whitened [Hw | yw] (c, n, p + 1), a vector per candidate
    whose squared norm is _gls's |z|^2 = r' A^-1 r, from the R of a QR alone
    (Golub and Van Loan, Matrix Computations, 5.3): R[p:, p] (empty for
    n <= p) and the share of R[:p, p] on the directions of R[:p, :p] that
    _kept drops on Hw's shape, whose singular vectors are computed only then."""
    n = Mw.shape[-2]
    R = np.linalg.qr(Mw, mode="r")
    dropped = ~_kept(np.linalg.svd(R[:, :p, :p], compute_uv=False), (n, p))
    if not dropped.any():
        return R[:, p:, p]
    U = np.linalg.svd(R[:, :p, :p])[0]
    share = (U.swapaxes(-1, -2) @ R[:, :p, p, None])[..., 0]
    return np.concatenate([R[:, p:, p], np.where(dropped, share, 0.0)], axis=-1)


def _log_likelihood(rw: np.ndarray, d: np.ndarray) -> np.ndarray:
    """-0.5 r' A^-1 r - 0.5 log det A - (n/2) log 2 pi from rw, with |rw|^2 =
    r' A^-1 r (_qr_residual), and A's n eigenvalues d, row-wise over stacked
    candidates. |rw|^2 is a matmul, not an einsum: an einsum would not raise
    on overflow under np.errstate(over="raise")."""
    quad = (rw[..., None, :] @ rw[..., :, None])[..., 0, 0]
    logdet = np.sum(np.log(d), axis=-1)
    return -0.5 * quad - 0.5 * logdet - 0.5 * d.shape[-1] * math.log(2.0 * math.pi)


class FittedGP(_Record):
    """A trained model; immutable, so safe to share across threads. It keeps
    d and its spectrum, not W = V diag(d)^-1/2, which is formed where used."""

    beta: np.ndarray
    noise_variance: float
    hyper: KernelHyperParams
    train_y: np.ndarray  # (n,)
    d: np.ndarray  # (r,) the spectrum of K + noise*I on the range of spectrum.V
    alpha: np.ndarray  # (K + noise*I)^-1 (y - H beta)
    spectrum: KernelSpectrum  # K1 on train_x at hyper.length_scales, maybe shared

    def __post_init__(self):
        for name in ("beta", "train_y", "d", "alpha"):
            getattr(self, name).setflags(write=False)

    @property
    def train_x(self) -> np.ndarray:  # (n, d)
        return self.spectrum.x

    @property
    def input_dim(self) -> int:
        return self.train_x.shape[1]


def _training_data(X, y, dim: int):
    """Coerce training data to (X, y) arrays and reject what cannot be fitted,
    fit()'s rules and tune_hyperparams()': a non-finite entry, and an X whose
    quadratic basis overflows."""
    Xm = _as_points(X)
    yv = floats("y", y).ravel()
    n, d = Xm.shape
    if n < 1 or yv.shape[0] != n:
        raise InputError(f"X has {n} rows but y has {yv.shape[0]} entries")
    if d != dim:
        raise InputError(f"X dim {d} vs {dim} length scales")
    for label, values in (("X", Xm), ("y", yv)):
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{label}: must be a finite number")
    with np.errstate(over="ignore"):  # refused here, naming X
        if not np.all(np.isfinite(np.square(Xm))):
            raise ValueError("X: values too large for the quadratic basis")
    return Xm, yv


def _whiten(spectrum: KernelSpectrum, W: np.ndarray, noise_variance: float, M):
    """F'M for the whitening factor F, F F' = A^-1, of a model on spectrum
    with A's spectrum d on the range of V and W = V diag(d)^-1/2. F'M is
    W'M for the dense and Kronecker forms; the low-rank form, whose A is
    noise*I off the range of V, adds the explicit complement (M - V V'M) /
    sqrt(noise) below it."""
    WtM = W.T @ M
    if not spectrum.truncated:
        return WtM
    V = spectrum.V
    return np.concatenate([WtM, (M - V @ (V.T @ M)) / math.sqrt(noise_variance)])


def _fitted(yv, hyper: KernelHyperParams, noise_variance: float, spectrum: KernelSpectrum,
            beta=None):
    """The model on checked targets yv at the rows of spectrum, K1 = V
    diag(lam) V': A = hyper.signal_variance K1 + noise*I has the spectrum
    d = _shifted_spectrum(sf2 lam, noise) on the range of V, which the model
    keeps, and A^-1 = F F' (_whiten) with W = V diag(d)^-1/2.

    A low-rank spectrum serves only a positive noise with sf2 * tail <=
    LOW_RANK_DELTA * noise; otherwise the model takes the dense spectrum on
    the same rows, its own, or the one spectrum.low_rank came with."""
    low_rank = spectrum.low_rank or spectrum
    if low_rank.truncated:
        if noise_variance > 0 and (
            hyper.signal_variance * low_rank.tail <= LOW_RANK_DELTA * noise_variance
        ):
            spectrum = low_rank
        elif spectrum is low_rank:
            spectrum = _dense(low_rank.x, low_rank.length_scales, low_rank=low_rank)
    d, _ = _shifted_spectrum(hyper.signal_variance * spectrum.lam, noise_variance)
    if d.min() <= 0:
        raise NotPositiveDefiniteError("kernel matrix not positive definite even with jitter")
    V = spectrum.V
    W = V / np.sqrt(d)
    H = basis_matrix(spectrum.x)

    if beta is None:
        beta_vec, _, _ = _gls(*(_whiten(spectrum, W, noise_variance, M) for M in (H, yv)))
    else:
        beta_vec = floats("beta", beta).ravel()
        if beta_vec.shape[0] != H.shape[1]:
            raise InputError(f"beta has {beta_vec.shape[0]} terms, basis needs {H.shape[1]}")
        if not np.all(np.isfinite(beta_vec)):
            raise ValueError("beta: must be a finite number")

    # alpha = F F' r from beta alone, so a reload with beta held fixed is bit-identical
    r = yv - H @ beta_vec
    alpha = W @ (W.T @ r)
    if spectrum.truncated:
        alpha += (r - V @ (V.T @ r)) / noise_variance
    return FittedGP(beta=beta_vec, noise_variance=float(noise_variance), hyper=hyper,
                    train_y=yv.copy(), d=d, alpha=alpha, spectrum=spectrum)


def fit(
    X, y, hyper: KernelHyperParams, noise_variance: float, beta=None,
    spectrum: KernelSpectrum | None = None,
) -> FittedGP:
    """Fit the GP to training inputs X (n x d) and targets y (n,).

    beta: None to estimate the mean coefficients by generalized least
    squares, or an explicit vector of length 2d+1 to hold them fixed.
    With zero noise the inputs must be distinct, otherwise K is singular.

    spectrum: another model's FittedGP.spectrum, reused when its rows and
    length scales are bit-identical to X and hyper.length_scales (then the
    model equals a lone fit bit for bit, in the form its own noise takes:
    see _fitted); otherwise, or when None, fit builds its own with
    _kernel_eigh.
    """
    Xm, yv = _training_data(X, y, hyper.dim)
    noise = _noise(noise_variance)
    if noise == 0.0 and _repeats(Xm):
        raise NotPositiveDefiniteError("duplicate training rows with zero noise variance")
    if spectrum is None or not spectrum.matches(Xm, hyper.length_scales):
        spectrum = _kernel_eigh(Xm.copy(), hyper.length_scales)
    return _fitted(yv, hyper, noise, spectrum, beta)


def took_jitter(model: FittedGP) -> bool:
    """Whether the model's factorization took the +JITTER retry: sf2 K1 +
    noise*I had an eigenvalue not positive at the fitted noise variance."""
    lam = model.hyper.signal_variance * model.spectrum.lam
    return bool(_shifted_spectrum(lam, model.noise_variance)[1])


def loo_residuals(
    H: np.ndarray, y: np.ndarray, model: FittedGP | None = None
) -> tuple[np.ndarray, int]:
    """Leave-one-out residuals y_i - mu_(-i)(x_i) of generalized least squares
    on the basis H (n x p) plus a GP with A^-1 = F F', and the rank of F'H
    kept, in closed form (GPML 5.4.2; Sundararajan and Keerthi 2001):

        e = P y / diag(P),   P = A^-1 - A^-1 H (H' A^-1 H)^+ H' A^-1
                               = F (I - Q Q') F',

    with Q the orthonormal basis of the range of F'H that _gls projects out,
    so a basis that is rank-deficient on the rows (a curve fit at one
    thickness) gives what the refits' minimum-norm GLS gives. From the one
    _gls(F'H, F'y), P y = F z with z = (I - Q Q') F'y and diag(P) =
    diag(A^-1) - rowsum((F Q)^2), so F, the model's whitening factor
    (_whiten), meets rank + 1 columns only and no n x n matrix is formed.

    The one leave-one-out routine: a fitted GP passes basis_matrix(train_x),
    train_y and itself (beta re-estimated in every fold, also for a model
    fitted with beta held fixed); no model means F = I, the PRESS residuals
    r_i / (1 - h_ii) of ordinary least squares on H (Allen 1974).

    Where the other rows cannot identify the mean at row i (diag(P)_i within
    rounding of 0, e.g. five rows for a five-term 2-D basis), the fold's
    residual is undefined and comes back as NaN.
    """
    n = H.shape[0]
    if model is None:
        _, z, Q = _gls(H, y)
        FzQ, diag_inv = np.column_stack([z, Q]), np.ones(n)
    else:
        spectrum, noise, r = model.spectrum, model.noise_variance, model.d.size
        V, W = spectrum.V, spectrum.V / np.sqrt(model.d)
        _, z, Q = _gls(*(_whiten(spectrum, W, noise, M) for M in (H, y)))
        zQ = np.column_stack([z, Q])
        FzQ, diag_inv = W @ zQ[:r], np.einsum("ij,ij->i", W, W)
        if spectrum.truncated:  # the complement rows of F'
            FzQ += (zQ[r:] - V @ (V.T @ zQ[r:])) / math.sqrt(noise)
            diag_inv += (1.0 - np.einsum("ij,ij->i", V, V)) / noise
    FQ = FzQ[:, 1:]
    diag_p = diag_inv - np.einsum("ij,ij->i", FQ, FQ)
    # diag(A^-1) bounds diag(P); a ratio at rounding level is a zero
    undefined = diag_p <= n * np.finfo(float).eps * diag_inv
    residuals = np.full(n, np.nan)
    residuals[~undefined] = FzQ[~undefined, 0] / diag_p[~undefined]
    return residuals, Q.shape[1]


def predict_many(model: FittedGP, Xq, with_variances: bool = True):
    """Posterior means and variances at the rows of Xq (m x d, or m angles).

    mean = h(x)' beta + k_*' alpha
    var  = k(x, x) - |W' k_*|^2   (clamped to 0 from below; the clamp only
    absorbs rounding on the order of 1e-10)

    and, for the low-rank form, also - |k_* - V V' k_*|^2 / noise.

    k(x, x) is the signal variance for the squared-exponential kernel. The
    one-model call of predict_targets, which runs the blocks: a row's mean
    does not depend on the rows queried with it, and its variance may
    differ in the last bits between batches. with_variances=False returns
    (means, None), the same means. Raises ValueError naming the first query
    point whose mean or variance is not finite (overflow far from the data).
    """
    (means,), variances = predict_targets((model,), Xq, with_variances)
    return means, variances


def predict_targets(models, Xq, with_variances: bool = True):
    """Posterior means of every model of models at the rows of Xq, and the
    first model's variances (None when with_variances is False), as
    ((means_1, means_2 ...), variances): the targets on one set of training
    rows and length scales (KernelSpectrum.matches; GPML section 2.2, where
    the mean and the variance share k_*) share each cross-kernel.

    Rows go through in blocks of _PREDICT_BLOCK, one unit-signal
    cross-kernel K1_* per block for all the models, scaled by each model's
    signal variance to its k_* = sf2 K1_* (the bits kernel_matrix gives at
    sf2). Both mean products run row by row, so each model's means equal
    those of a lone predict_many. The first model's variances come from one
    matrix product per block: k_* W with W = V diag(d)^-1/2 on the dense and
    Kronecker forms, and on the low-rank form k_* V, which gives both
    W'k_* = (V'k_*) d^-1/2 and the complement k_* - V V'k_*. Raises
    ValueError naming the first query point whose mean or variance is not
    finite, model by model in order, the first model's variances with its
    means.
    """
    first = models[0]
    train_x, length_scales = first.train_x, first.hyper.length_scales
    if not all(m.spectrum.matches(train_x, length_scales) for m in models):
        raise ValueError("predict_targets needs models on the same rows and length scales")
    Q = _as_points(Xq, "Xq")
    if Q.shape[1] != first.input_dim:
        raise InputError(f"query dim {Q.shape[1]} vs training dim {first.input_dim}")
    if not np.all(np.isfinite(Q)):
        raise ValueError("Xq: must be a finite number")
    means = [np.empty(Q.shape[0]) for _ in models]
    variances = np.empty(Q.shape[0]) if with_variances else None
    unit = KernelHyperParams(1.0, length_scales)
    sf2, V = first.hyper.signal_variance, first.spectrum.V
    low_rank = first.spectrum.truncated
    if with_variances:
        root_d = np.sqrt(first.d)
        W = V if low_rank else V / root_d  # the low-rank form scales k_* V itself
    # k_* and the complement reuse one block-sized array each: a fresh array
    # of that size per block costs more than the arithmetic on it
    scaled = np.empty((min(Q.shape[0], _PREDICT_BLOCK), train_x.shape[0]))
    tails = np.empty_like(scaled) if with_variances and low_rank else None
    # far from the data the arithmetic may overflow; the finite check below
    # names the point, so numpy's own warnings would only add noise
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, Q.shape[0], _PREDICT_BLOCK):
            rows = slice(start, start + _PREDICT_BLOCK)
            K1 = kernel_matrix(Q[rows], train_x, unit)
            H = basis_matrix(Q[rows])
            k_star = scaled[: K1.shape[0]]
            for i, (model, out) in enumerate(zip(models, means)):
                np.multiply(model.hyper.signal_variance, K1, out=k_star)
                out[rows] = np.einsum("ij,j->i", H, model.beta) + np.einsum(
                    "ij,j->i", k_star, model.alpha
                )
                if i or not with_variances:
                    continue
                v = k_star @ W
                if low_rank:  # k_* off the range of V, where A is noise*I
                    tail = np.matmul(v, V.T, out=tails[: K1.shape[0]])
                    np.subtract(k_star, tail, out=tail)
                    v /= root_d
                variances[rows] = sf2 - np.einsum("ij,ij->i", v, v)
                if low_rank:
                    variances[rows] -= np.einsum("ij,ij->i", tail, tail) / first.noise_variance
    if with_variances:
        np.maximum(variances, 0.0, out=variances)
    for i, out in enumerate(means):
        finite = np.isfinite(out)
        if i == 0 and with_variances:
            finite &= np.isfinite(variances)
        bad = np.flatnonzero(~finite)
        if bad.size:
            raise ValueError(f"prediction at query point {Q[bad[0]].tolist()} is not finite")
    return tuple(means), variances


def _axis(name: str, candidates) -> tuple:
    """A grid axis's candidates as a tuple; InputError naming the axis when
    it is not a sequence (a bare number, say)."""
    try:
        return tuple(candidates)
    except TypeError:
        raise InputError(f"{name}: expected a sequence of candidates") from None


class GridSpec(_Record):
    """Finite hyperparameter grid: candidates per axis, searched exhaustively.

    length_scale_grids holds one candidate sequence per input dimension.
    Candidates are usually log-spaced (np.geomspace). A grid is checked when
    built and stores floats: an axis that is not a sequence (a bare number,
    or a number in length_scale_grids) raises InputError naming the axis, an
    empty axis raises InputError, and a value fit() would refuse raises
    fit()'s ValueError, by its rule and in its words (KernelHyperParams
    words a bad length scale for the first tuple in scan order that holds
    one). fit() refuses zero noise only on repeated rows, where
    tune_hyperparams skips it.
    """

    signal_variances: tuple[float, ...]
    length_scale_grids: tuple[tuple[float, ...], ...]
    noise_variances: tuple[float, ...]

    def __post_init__(self):
        sf2s = _axis("signal_variances", self.signal_variances)
        noises = _axis("noise_variances", self.noise_variances)
        grids = _axis("length_scale_grids", self.length_scale_grids)
        grids = tuple(_axis(f"length_scale_grids[{i}]", g) for i, g in enumerate(grids))
        if not (sf2s and noises and grids and all(grids)):
            raise InputError("every grid axis needs at least one candidate")
        sf2s = tuple(KernelHyperParams(sf2, (1.0,)).signal_variance for sf2 in sf2s)
        for ls in itertools.product(*grids):
            KernelHyperParams(1.0, ls)
        object.__setattr__(self, "signal_variances", sf2s)
        object.__setattr__(self, "length_scale_grids", tuple(tuple(map(float, g)) for g in grids))
        object.__setattr__(self, "noise_variances", tuple(map(_noise, noises)))


def tune_hyperparams(X, targets) -> tuple[FittedGP, ...]:
    """For each (y, GridSpec) pair of targets, in order, the model at its
    grid's candidate maximizing the log marginal likelihood on the rows X.

    The grids must have equal length_scale_grids; each keeps its own signal
    and noise variance axes. beta is re-estimated by GLS for every candidate
    before scoring. A candidate's covariance is sf2 K1 + noise*I with K1 =
    V diag(lam) V' the unit-signal kernel, so per length-scale tuple the
    rotated [H | y_1 | y_2 ...] = V'[H | Y] and lam score every target's
    (sf2, noise) pairs from the shifted spectrum sf2 lam + noise: all of a
    target's pairs at once, in one stacked QR of their whitened [H | y_t],
    whose R alone gives r' A^-1 r of each pair's minimum-norm GLS
    (_qr_residual, ranked by _gls's rule), and one likelihood per row.

    On rows that form a product grid (_product_grid), no n x n matrix is
    built while scoring: each distinct (axis, length scale) gets one eigh,
    held in a memo for this call only, and V'[H | Y] comes through the
    factors (_kron_rotate) in kron order, then sorted as _kernel_eigh sorts.
    Other rows score on the dense eigh of K1 per tuple (_dense). Each pick is
    built as fit() builds it there (_kernel_eigh), bit for bit: on a product
    grid from the same factors, and on other rows from the K1 it was scored
    on, low-rank where _low_rank gives a spectrum and the scored dense one
    otherwise. A one-target call runs the same loop.

    Ties keep the earlier candidate in the cartesian product of the axes
    (signal variance, length scales, noise variance), so repeated runs
    return the same answer. Each GridSpec refused a bad value when it was
    built, so the search checks no candidate. Candidates that fit() would
    reject as not positive definite (zero noise on repeated rows, or a
    spectrum not positive even with jitter) are skipped. Nothing is cached
    between calls.
    """
    targets = tuple(targets)
    if not targets:
        raise ValueError("tune_hyperparams needs at least one (y, GridSpec) target")
    grids = targets[0][1].length_scale_grids
    if any(search.length_scale_grids != grids for _, search in targets):
        raise ValueError("every target's grid needs the same length_scale_grids")

    data = [_training_data(X, y, len(grids)) for y, _ in targets]
    rows = data[0][0].copy()
    ys = [yv for _, yv in data]
    M = np.column_stack([basis_matrix(rows), *ys])  # [H | y_1 | y_2 ...]
    p = M.shape[1] - len(ys)
    grid = _product_grid(rows)
    if grid is not None:
        axes, index = grid
        Mk = np.empty_like(M)
        Mk[index] = M  # the rows in kron order
        Mk = Mk.reshape(axes[0].size, axes[1].size, M.shape[1])
        memo = {}  # (axis, length scale) -> that axis's eigh

        def factors(ls):
            for key in enumerate(ls):
                if key not in memo:
                    memo[key] = _axis_eigh(axes[key[0]], key[1])
            return [memo[key] for key in enumerate(ls)]

    # each target's (i, k) candidates in scan order, with their signal and
    # noise variances; zero noise is skipped on repeated rows
    repeats = any(0.0 in search.noise_variances for _, search in targets) and _repeats(rows)
    scans = []
    for _, search in targets:
        sf2, noise = np.meshgrid(search.signal_variances, search.noise_variances, indexing="ij")
        keep = (noise > 0) | (not repeats)
        scans.append((np.argwhere(keep).tolist(), sf2[keep], noise[keep]))
    # length-scale tuples outermost, so only each target's best is held
    best = [((math.inf,), None)] * len(targets)
    for j, ls in enumerate(itertools.product(*grids)):
        if grid is None:
            K1 = kernel_matrix(rows, rows, KernelHyperParams(1.0, ls))
            spectrum = _dense(rows, ls, K1)
            lam, rotated = spectrum.lam, spectrum.V.T @ M
        else:
            K1 = spectrum = None  # materialized for the picks only
            (lam_a, V_a), (lam_t, V_t) = factors(ls)
            lam, order = _kron_eigenvalues(lam_a, lam_t)
            rotated = _kron_rotate(V_a, V_t, Mk)[order]
        for t, (ik, sf2, noise) in enumerate(scans):
            d, _ = _shifted_spectrum(sf2[:, None] * lam, noise[:, None])
            usable = np.flatnonzero(d.min(axis=-1) > 0)
            if not usable.size:
                continue
            d = d[usable]
            scale = 1.0 / np.sqrt(d)[:, :, None]  # W' = diag(scale) V'
            rw = _qr_residual(rotated[:, [*range(p), p + t]] * scale, p)
            for c, score in zip(usable.tolist(), _log_likelihood(rw, d).tolist()):
                # the scan-order index breaks ties; a NaN score never compares below
                key = (-score, ik[c][0], j, ik[c][1])
                if key < best[t][0]:
                    best[t] = (key, (ls, spectrum, K1))
    if any(pick is None for _, pick in best):
        raise NotPositiveDefiniteError("no grid candidate produced a factorizable kernel")
    models, spectra = [], {}
    for yv, ((_, i, _, k), (ls, spectrum, K1)), (_, search) in zip(ys, best, targets):
        if ls not in spectra:  # as _kernel_eigh builds it
            if spectrum is None:
                spectra[ls] = _kernel_eigh(rows, ls, factors(ls))
            else:
                spectra[ls] = _low_rank(rows, ls, K1) or spectrum
        spectrum = spectra[ls]
        hyper = KernelHyperParams(search.signal_variances[i], ls)
        models.append(_fitted(yv, hyper, search.noise_variances[k], spectrum))
    return tuple(models)
