"""Gaussian process regression with an explicit polynomial mean basis.

The regression model used throughout the toolkit is

    y = h(x)' beta + f(x) + e,        f ~ GP(0, k),  e ~ N(0, noise_variance)

where h(x) is the pure-quadratic basis [1, x_1..x_d, x_1^2..x_d^2] (2d+1
terms, d in {1, 2}) and k is the squared-exponential kernel

    k(a, b) = signal_variance * exp(-0.5 * sum_j ((a_j - b_j) / l_j)^2).

beta is either supplied by the caller or estimated by generalized least
squares. Fitting factorizes K + noise*I once with a Cholesky decomposition;
no explicit inverse of K + noise*I is ever formed (a dense-inverse
formulation exists only as an independent oracle in the test suite).
Predictions at many points share one triangular solve per block of rows
(predict_many), and leave-one-out residuals come in closed form from the
same factor (loo_residuals) rather than from n refits.

Everything returned by fit() is immutable, so a fitted model can be shared
freely across threads. Grid search in tune_hyperparams evaluates candidates
in a fixed order and breaks ties toward the earlier candidate, so the result
is reproducible run to run.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from .errors import (
    DimensionMismatchError,
    EmptyGridError,
    NotPositiveDefiniteError,
    UnsupportedDimensionError,
)

CHOLESKY_JITTER = 1e-8
_PREDICT_BLOCK = 256  # query rows per cross-kernel block; bounds predict_many's memory


@dataclass(frozen=True)
class KernelHyperParams:
    """Squared-exponential kernel hyperparameters.

    signal_variance is the finite prior variance of the residual process;
    one finite positive length scale per input dimension.
    """

    signal_variance: float
    length_scales: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "length_scales", tuple(float(l) for l in self.length_scales))
        if not 0 <= self.signal_variance < math.inf:
            raise ValueError(
                f"signal_variance must be finite and >= 0, got {self.signal_variance}"
            )
        if not self.length_scales or not all(0 < l < math.inf for l in self.length_scales):
            raise ValueError(f"length scales must all be finite and > 0, got {self.length_scales}")

    @property
    def dim(self) -> int:
        return len(self.length_scales)


def _as_points(x) -> np.ndarray:
    """Coerce input points to an (n, d) float array."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise DimensionMismatchError(f"expected 1-D or 2-D input array, got shape {arr.shape}")
    return arr


def _as_point(x) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.ndim != 1:
        raise DimensionMismatchError(f"expected a single point, got shape {arr.shape}")
    return arr


def kernel_se(a, b, hyper: KernelHyperParams) -> float:
    """Squared-exponential covariance between two points.

    Symmetric in its arguments and equal to signal_variance when a == b.
    """
    return float(kernel_matrix(_as_point(a)[None, :], _as_point(b)[None, :], hyper)[0, 0])


def kernel_matrix(xa, xb, hyper: KernelHyperParams) -> np.ndarray:
    """Cross-covariance matrix K[i, j] = k(xa_i, xb_j)."""
    A, B = _as_points(xa), _as_points(xb)
    if A.shape[1] != hyper.dim or B.shape[1] != hyper.dim:
        raise DimensionMismatchError(
            f"points of dim {A.shape[1]}/{B.shape[1]} vs {hyper.dim} length scales"
        )
    ls = np.asarray(hyper.length_scales)
    sq = np.zeros((A.shape[0], B.shape[0]))
    for j in range(A.shape[1]):
        sq += ((A[:, j : j + 1] - B[:, j : j + 1].T) / ls[j]) ** 2
    return hyper.signal_variance * np.exp(-0.5 * sq)


def basis_expand(x) -> np.ndarray:
    """Pure-quadratic basis vector [1, x_1..x_d, x_1^2..x_d^2] (length 2d+1).

    For 2-D inputs the convention is angle first, thickness second, matching
    the built-in coefficient ordering [1, angle, T, angle^2, T^2].
    """
    return basis_matrix(_as_point(x)[None, :])[0]


def basis_matrix(X) -> np.ndarray:
    pts = _as_points(X)
    if pts.shape[1] not in (1, 2):
        raise UnsupportedDimensionError(f"basis covers d in {{1, 2}}, got d={pts.shape[1]}")
    return np.hstack([np.ones((pts.shape[0], 1)), pts, pts**2])


def _factorize(K: np.ndarray, noise_variance: float):
    """Cholesky of K + noise*I with a single +1e-8 jitter retry."""
    A = K + noise_variance * np.eye(K.shape[0])
    try:
        c, low = cho_factor(A, lower=True)
    except np.linalg.LinAlgError:
        try:
            c, low = cho_factor(A + CHOLESKY_JITTER * np.eye(K.shape[0]), lower=True)
        except np.linalg.LinAlgError:
            raise NotPositiveDefiniteError(
                "kernel matrix not positive definite even with jitter"
            ) from None
    return c


def _has_duplicate_rows(X: np.ndarray) -> bool:
    return np.unique(X, axis=0).shape[0] < X.shape[0]


def _gls_beta(H: np.ndarray, y: np.ndarray, L: np.ndarray) -> np.ndarray:
    """Generalized least squares: argmin_b (y - Hb)' A^-1 (y - Hb)."""
    W = cho_solve((L, True), H)
    M = H.T @ W
    rhs = H.T @ cho_solve((L, True), y)
    try:
        return np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        # rank-deficient design (e.g. fewer points than basis terms):
        # fall back to the minimum-norm solution
        return np.linalg.pinv(M) @ rhs


@dataclass(frozen=True)
class FittedGP:
    """A trained model; immutable, safe for concurrent predict() calls."""

    beta: np.ndarray
    noise_variance: float
    hyper: KernelHyperParams
    train_x: np.ndarray  # (n, d)
    train_y: np.ndarray  # (n,)
    chol_factor: np.ndarray  # lower-triangular L with L L' = K + noise*I
    alpha: np.ndarray  # (K + noise*I)^-1 (y - H beta)

    def __post_init__(self):
        for name in ("beta", "train_x", "train_y", "chol_factor", "alpha"):
            getattr(self, name).setflags(write=False)

    @property
    def input_dim(self) -> int:
        return self.train_x.shape[1]

    def predict(self, x_star) -> tuple[float, float]:
        return predict(self, x_star)


def _training_data(X, y, hyper: KernelHyperParams, noise_variance: float):
    """Coerce training data to (X, y) arrays and reject what cannot be fitted."""
    Xm = _as_points(X)
    yv = np.asarray(y, dtype=float).ravel()
    n, d = Xm.shape
    if n < 1 or yv.shape[0] != n:
        raise DimensionMismatchError(f"X has {n} rows but y has {yv.shape[0]} entries")
    if d != hyper.dim:
        raise DimensionMismatchError(f"X dim {d} vs {hyper.dim} length scales")
    if not (np.all(np.isfinite(Xm)) and np.all(np.isfinite(yv))):
        raise ValueError("training inputs and targets must be finite")
    if noise_variance < 0:
        raise ValueError(f"noise_variance must be >= 0, got {noise_variance}")
    if noise_variance == 0.0 and _has_duplicate_rows(Xm):
        raise NotPositiveDefiniteError("duplicate training rows with zero noise variance")
    return Xm, yv


def _log_marginal(L: np.ndarray, r: np.ndarray) -> float:
    """-0.5 r' A^-1 r - 0.5 log det A - (n/2) log 2 pi, with L L' = A."""
    quad = float(r @ cho_solve((L, True), r))
    logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
    return -0.5 * quad - 0.5 * logdet - 0.5 * r.shape[0] * math.log(2.0 * math.pi)


def fit(X, y, hyper: KernelHyperParams, noise_variance: float, beta="gls") -> FittedGP:
    """Fit the GP to training inputs X (n x d) and targets y (n,).

    beta: "gls" to estimate the mean coefficients by generalized least
    squares, or an explicit vector of length 2d+1 to hold them fixed.
    With zero noise the inputs must be distinct, otherwise K is singular.
    """
    Xm, yv = _training_data(X, y, hyper, noise_variance)
    # K stays bound until fit returns: freed before the solves below, its
    # pages are released and faulted in again by the next fit, which costs
    # the refit-LOO loop about 40% more page faults.
    K = kernel_matrix(Xm, Xm, hyper)
    L = _factorize(K, noise_variance)
    H = basis_matrix(Xm)

    if isinstance(beta, str):
        if beta != "gls":
            raise ValueError(f"beta must be 'gls' or a coefficient vector, got {beta!r}")
        beta_vec = _gls_beta(H, yv, L)
    else:
        beta_vec = np.asarray(beta, dtype=float).ravel()
        if beta_vec.shape[0] != H.shape[1]:
            raise DimensionMismatchError(
                f"beta has {beta_vec.shape[0]} terms, basis needs {H.shape[1]}"
            )

    alpha = cho_solve((L, True), yv - H @ beta_vec)
    return FittedGP(
        beta=beta_vec,
        noise_variance=float(noise_variance),
        hyper=hyper,
        train_x=Xm.copy(),
        train_y=yv.copy(),
        chol_factor=np.tril(L),
        alpha=alpha,
    )


def loo_residuals(X, y, hyper: KernelHyperParams, noise_variance: float) -> np.ndarray:
    """Leave-one-out residuals y_i - mu_(-i)(x_i), beta re-estimated by GLS
    in every fold, in closed form from one factorization (GPML section 5.4.2;
    Sundararajan and Keerthi 2001):

        e = P y / diag(P),   P = A^-1 - A^-1 H (H' A^-1 H)^+ H' A^-1
                               = L^-T (I - Q Q') L^-1,

    with A = L L' factorized as in fit() (jitter retry included) and Q an
    orthonormal basis of the range of L^-1 H. Q takes only the singular
    directions above numpy's matrix_rank tolerance, so a basis that is
    rank-deficient on X (a curve fit at one thickness) gives what the
    refits' minimum-norm GLS gives. Neither P nor A^-1 is formed; only
    diag(P) and P y.

    Where the other rows cannot identify the mean at x_i (diag(P)_i within
    rounding of 0, e.g. five rows for a five-term 2-D basis), the fold's
    residual is undefined and comes back as NaN.
    """
    Xm, yv = _training_data(X, y, hyper, noise_variance)
    L = _factorize(kernel_matrix(Xm, Xm, hyper), noise_variance)
    n = Xm.shape[0]
    Linv = solve_triangular(L, np.eye(n), lower=True)
    Hw = Linv @ basis_matrix(Xm)
    U, s, _ = np.linalg.svd(Hw, full_matrices=False)
    Q = U[:, s > s.max() * max(Hw.shape) * np.finfo(float).eps]
    R = Linv - Q @ (Q.T @ Linv)  # P = R' R
    diag_p = np.einsum("ij,ij->j", R, R)
    p_y = R.T @ (R @ yv)
    # diag(A^-1) bounds diag(P); a ratio at rounding level is a zero
    undefined = diag_p <= n * np.finfo(float).eps * np.einsum("ij,ij->j", Linv, Linv)
    residuals = np.full(n, np.nan)
    residuals[~undefined] = p_y[~undefined] / diag_p[~undefined]
    return residuals


def predict(model: FittedGP, x_star) -> tuple[float, float]:
    """Posterior mean and variance at a single query point; a one-row
    predict_many."""
    means, variances = predict_many(model, _as_point(x_star)[None, :])
    return float(means[0]), float(variances[0])


def predict_many(model: FittedGP, Xq) -> tuple[np.ndarray, np.ndarray]:
    """Posterior means and variances at the rows of Xq (m x d, or m angles).

    mean = h(x)' beta + k_*' alpha
    var  = k(x, x) - |L^-1 k_*|^2   (clamped to 0 from below; the clamp only
    absorbs rounding on the order of 1e-10)

    k(x, x) is the signal variance for the squared-exponential kernel. Rows
    go through in blocks of _PREDICT_BLOCK: one cross-kernel and one
    triangular solve against the stored factor per block.
    """
    Q = _as_points(Xq)
    if Q.shape[1] != model.input_dim:
        raise DimensionMismatchError(
            f"query dim {Q.shape[1]} vs training dim {model.input_dim}"
        )
    if not np.all(np.isfinite(Q)):
        raise ValueError("query points must be finite")
    means = np.empty(Q.shape[0])
    variances = np.empty(Q.shape[0])
    for start in range(0, Q.shape[0], _PREDICT_BLOCK):
        rows = slice(start, start + _PREDICT_BLOCK)
        k_star = kernel_matrix(Q[rows], model.train_x, model.hyper)
        means[rows] = basis_matrix(Q[rows]) @ model.beta + k_star @ model.alpha
        # the factor is finite by construction and the rows were checked above
        v = solve_triangular(model.chol_factor, k_star.T, lower=True, check_finite=False)
        variances[rows] = model.hyper.signal_variance - np.einsum("ij,ij->j", v, v)
    np.maximum(variances, 0.0, out=variances)
    return means, variances


def log_marginal_likelihood(X, y, hyper: KernelHyperParams, noise_variance: float, beta) -> float:
    """Gaussian log marginal likelihood of y under the model with fixed beta.

    Computed through the Cholesky factor:
        -0.5 r' A^-1 r - 0.5 log det A - (n/2) log 2 pi,   r = y - H beta.
    """
    Xm, yv = _training_data(X, y, hyper, noise_variance)
    L = _factorize(kernel_matrix(Xm, Xm, hyper), noise_variance)
    return _log_marginal(L, yv - basis_matrix(Xm) @ np.asarray(beta, dtype=float).ravel())


@dataclass(frozen=True)
class GridSpec:
    """Finite hyperparameter grid: candidates per axis, searched exhaustively.

    length_scale_grids holds one candidate sequence per input dimension.
    Candidates are usually log-spaced (np.geomspace); any finite positive
    values are accepted.
    """

    signal_variances: tuple[float, ...]
    length_scale_grids: tuple[tuple[float, ...], ...]
    noise_variances: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "signal_variances", tuple(self.signal_variances))
        object.__setattr__(
            self, "length_scale_grids", tuple(tuple(g) for g in self.length_scale_grids)
        )
        object.__setattr__(self, "noise_variances", tuple(self.noise_variances))


def tune_hyperparams(X, y, search: GridSpec) -> tuple[KernelHyperParams, float]:
    """Pick the grid candidate maximizing the log marginal likelihood.

    beta is re-estimated by GLS for every candidate before scoring. The scan
    order is the deterministic cartesian product of the grid axes and ties
    keep the earlier candidate, so repeated runs return the same answer.
    Candidates whose kernel matrix cannot be factorized are skipped.
    """
    if (
        not search.signal_variances
        or not search.noise_variances
        or not search.length_scale_grids
        or any(not g for g in search.length_scale_grids)
    ):
        raise EmptyGridError("every grid axis needs at least one candidate")

    Xm = _as_points(X)
    yv = np.asarray(y, dtype=float).ravel()
    H = basis_matrix(Xm)

    best_ll = -math.inf
    best = None
    for sf2 in search.signal_variances:
        for ls in itertools.product(*search.length_scale_grids):
            hyper = KernelHyperParams(sf2, ls)
            K = kernel_matrix(Xm, Xm, hyper)
            for noise in search.noise_variances:
                try:
                    L = _factorize(K, noise)
                except NotPositiveDefiniteError:
                    continue
                ll = _log_marginal(L, yv - H @ _gls_beta(H, yv, L))
                if ll > best_ll:
                    best_ll = ll
                    best = (hyper, float(noise))
    if best is None:
        raise NotPositiveDefiniteError("no grid candidate produced a factorizable kernel")
    return best
