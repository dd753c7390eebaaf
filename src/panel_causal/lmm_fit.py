"""Gaussian linear mixed model with a unit random intercept, fitted by ML.

With exactly two rows per unit, the marginal covariance of a cluster is
``sigma_e^2 I_2 + sigma_u^2 11'``.  The within-cluster sum/difference
transform (an orthogonal rotation) diagonalizes that matrix, so for a fixed
variance ratio ``lambda = sigma_u^2 / sigma_e^2`` generalized least squares
reduces to weighted least squares with one weight for sum rows and one for
difference rows.  Profiling out the fixed effects and ``sigma_e^2`` in
closed form leaves a one-dimensional likelihood in ``log lambda``, which a
bounded derivative-free search maximizes and a short derivative-sign
bisection then pins down to machine precision.  Candidate ratios reuse
precomputed Gram blocks, so the search stays cheap enough for large
bootstrap and simulation runs.

``fit_or`` provides the ordinary least squares companion (post-period
outcome regression, no random effect) in the same result shape.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import (
    InvalidArgumentError,
    NonFiniteLikelihoodError,
    RankDeficientDesignError,
    UnbalancedClustersError,
)

__all__ = ["FitOptions", "LMMFit", "fit_lmm", "fit_or", "profile_loglik"]

_LOG2PI = float(np.log(2.0 * np.pi))
_EPS2 = float(np.finfo(float).eps) ** 2


@dataclass(frozen=True)
class FitOptions:
    """Search controls for the profiled likelihood in ``log lambda``.

    The default bounds [-12, 12] cover variance ratios from e-12 (forced to
    the sigma_u^2 = 0 boundary) to e12.  ``xatol`` is the absolute tolerance
    on ``log lambda``, i.e. a relative tolerance on ``lambda`` itself.
    """

    log_lambda_lo: float = -12.0
    log_lambda_hi: float = 12.0
    xatol: float = 1e-8
    grid_points: int = 25


@dataclass(frozen=True, eq=False)
class LMMFit:
    """Fitted model: fixed effects, variance components, and their quality.

    ``fixed_effects`` is aligned to the design columns (``columns`` carries
    labels when the caller supplies them).  ``sigma_u2`` is the random
    intercept variance (0 at the boundary, and always 0 for :func:`fit_or`),
    ``sigma_e2`` the residual variance.  ``cov_fixed`` is the GLS covariance
    of the fixed effects at the fitted variance ratio; ``se_fixed`` is its
    diagonal square root.
    """

    fixed_effects: np.ndarray
    sigma_u2: float
    sigma_e2: float
    loglik: float
    se_fixed: np.ndarray
    converged: bool
    cov_fixed: np.ndarray
    columns: tuple = None
    log_lambda: float = float("nan")


def _pair_rows(X, y, cluster_ids):
    """Group the stacked rows into per-cluster pairs.

    Returns the two row blocks (first and second row of every cluster, in
    order of sorted cluster label).  Which row of a pair is which period
    does not matter downstream: the exchangeable cluster covariance makes
    the likelihood invariant to within-pair order.
    """
    ids = np.asarray(cluster_ids)
    if ids.shape[0] != X.shape[0]:
        raise InvalidArgumentError("cluster_ids must have one entry per design row")
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    if X.shape[0] % 2 != 0:
        raise UnbalancedClustersError("odd number of rows; clusters must have 2 rows")
    first = order[0::2]
    second = order[1::2]
    if np.any(sorted_ids[0::2] != sorted_ids[1::2]):
        raise UnbalancedClustersError("every cluster must have exactly 2 rows")
    if sorted_ids[0::2].shape[0] > 1 and np.any(sorted_ids[0::2][1:] == sorted_ids[0::2][:-1]):
        raise UnbalancedClustersError("every cluster must have exactly 2 rows")
    return X[first], X[second], y[first], y[second]


class _Profile:
    """Precomputed Gram blocks and the profiled log-likelihood evaluator."""

    def __init__(self, X, y, cluster_ids):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2 or y.shape != (X.shape[0],):
            raise InvalidArgumentError("design must be (N, p) with response of length N")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise NonFiniteLikelihoodError("design or response contains non-finite values")
        X0, X1, y0, y1 = _pair_rows(X, y, cluster_ids)
        rt2 = np.sqrt(2.0)
        Xs = (X0 + X1) / rt2
        Xd = (X1 - X0) / rt2
        ys = (y0 + y1) / rt2
        yd = (y1 - y0) / rt2
        self.Xs = Xs
        self.Xd = Xd
        self.ys = ys
        self.yd = yd
        self.Gs = Xs.T @ Xs
        self.Gd = Xd.T @ Xd
        self.bs = Xs.T @ ys
        self.bd = Xd.T @ yd
        self.n = X0.shape[0]
        self.N = 2 * self.n
        self.p = X.shape[1]
        # A Cholesky probe of X'X is not reliable here: with exactly duplicated
        # columns rounding can leave a tiny positive pivot and the factorization
        # "succeeds", only for the GLS solve to blow up later.
        if np.linalg.matrix_rank(X) < self.p:
            raise RankDeficientDesignError(
                f"stacked design has rank below its {self.p} columns"
            )

    def solve(self, lam):
        """GLS fixed effects and weighted RSS at variance ratio ``lam``.

        The residual sums of squares are accumulated from explicit residual
        vectors, not from Gram-matrix identities: the subtraction form
        cancels catastrophically when the response carries a large offset,
        and the optimum's reproducibility depends on these values.
        """
        w = 1.0 / (1.0 + 2.0 * lam)
        A = self.Gd + w * self.Gs
        rhs = self.bd + w * self.bs
        beta = np.linalg.solve(A, rhs)
        rd = self.yd - self.Xd @ beta
        rs = self.ys - self.Xs @ beta
        ss = float(rs @ rs)
        rss = float(rd @ rd) + w * ss
        return beta, rss, A, ss

    def loglik(self, log_lambda):
        lam = np.exp(log_lambda)
        _, rss, _, _ = self.solve(lam)
        if not np.isfinite(rss) or rss <= 0.0:
            return -np.inf
        s2e = rss / self.N
        return (
            -0.5 * self.N * (_LOG2PI + 1.0 + np.log(s2e))
            - 0.5 * self.n * np.log(1.0 + 2.0 * lam)
        )

    def score_sign(self, log_lambda):
        """Sign of the profiled likelihood's derivative in ``log lambda``.

        With R the weighted RSS and S the sum-row residual part,
        dL/dlambda = w (N w S / R - n), w = 1/(1+2 lambda) > 0, so only the
        bracketed factor decides the sign.  Residual-based R and S keep
        this usable far below the resolution of likelihood comparisons.
        """
        lam = np.exp(log_lambda)
        _, rss, _, ss = self.solve(lam)
        if not np.isfinite(rss) or rss <= 0.0:
            return 0.0
        w = 1.0 / (1.0 + 2.0 * lam)
        return float(np.sign(self.N * w * ss / rss - self.n))


def profile_loglik(stacked_design, response, cluster_ids, log_lambda):
    """Profiled log-likelihood at a given ``log lambda`` (for diagnostics).

    Fixed effects and the residual variance are concentrated out, so this is
    the exact curve :func:`fit_lmm` maximizes.
    """
    prof = _Profile(stacked_design, response, cluster_ids)
    return float(prof.loglik(float(log_lambda)))


def fit_lmm(stacked_design, response, cluster_ids, opts=None):
    """Maximum likelihood fit of the random-intercept model.

    Parameters
    ----------
    stacked_design : ndarray, shape (2n, p)
        Fixed-effect design, two rows per cluster.
    response : ndarray, shape (2n,)
    cluster_ids : ndarray, shape (2n,)
        Cluster label per row; every label must appear exactly twice.
    opts : FitOptions, optional

    Returns
    -------
    LMMFit

    Raises
    ------
    RankDeficientDesignError, UnbalancedClustersError, NonFiniteLikelihoodError

    Notes
    -----
    The profiled likelihood is scanned on a coarse grid over
    ``log lambda in [lo, hi]``, then a bounded scalar minimizer polishes the
    best bracket.  If the boundary value at ``lo`` is at least as good as
    the interior optimum, the variance ratio is taken to be exactly 0 and
    the fit collapses to ordinary least squares.
    """
    opts = opts or FitOptions()
    prof = _Profile(stacked_design, response, cluster_ids)
    lo, hi = float(opts.log_lambda_lo), float(opts.log_lambda_hi)
    if not lo < hi:
        raise InvalidArgumentError("log_lambda bounds must satisfy lo < hi")

    def neg(u):
        return -prof.loglik(u)

    grid = np.linspace(lo, hi, int(opts.grid_points))
    vals = np.array([neg(u) for u in grid])
    if not np.any(np.isfinite(vals)):
        raise NonFiniteLikelihoodError(
            "profiled likelihood is degenerate everywhere (zero residual variance?)"
        )
    j = int(np.argmin(vals))
    bracket_lo = grid[max(0, j - 1)]
    bracket_hi = grid[min(len(grid) - 1, j + 1)]
    res = minimize_scalar(
        neg,
        bounds=(bracket_lo, bracket_hi),
        method="bounded",
        options={"xatol": opts.xatol, "maxiter": 500},
    )
    log_lambda = float(res.x)
    converged = bool(res.success)
    if neg(lo) <= res.fun:
        log_lambda = lo
        converged = True
    elif lo + 1e-8 < log_lambda < hi - 1e-8:
        # Polish by bisecting the derivative's sign change.  Likelihood
        # comparisons go blind a few orders of magnitude above this scale,
        # and refits of equivalent data (shifted response, reordered rows)
        # must land on the same ratio to around 1e-13 for the fit to be
        # reproducible at the precision the estimators are tested to.
        a = max(lo, log_lambda - 1e-4)
        b = min(hi, log_lambda + 1e-4)
        if prof.score_sign(a) > 0.0 and prof.score_sign(b) < 0.0:
            while b - a > 1e-13:
                mid = 0.5 * (a + b)
                if prof.score_sign(mid) > 0.0:
                    a = mid
                else:
                    b = mid
            log_lambda = 0.5 * (a + b)
    lam = 0.0 if log_lambda <= lo + 1e-8 else float(np.exp(log_lambda))

    beta, rss, A, _ = prof.solve(lam)
    if not np.isfinite(rss) or rss <= 0.0:
        raise NonFiniteLikelihoodError("degenerate residual variance at the optimum")
    s2e = rss / prof.N
    s2u = lam * s2e
    loglik = (
        -0.5 * prof.N * (_LOG2PI + 1.0 + np.log(s2e))
        - 0.5 * prof.n * np.log(1.0 + 2.0 * lam)
    )
    cov = s2e * np.linalg.inv(A)
    return LMMFit(
        fixed_effects=beta,
        sigma_u2=float(s2u),
        sigma_e2=float(s2e),
        loglik=float(loglik),
        se_fixed=np.sqrt(np.diag(cov)),
        converged=converged,
        cov_fixed=cov,
        log_lambda=log_lambda,
    )


def fit_or(post_design, response):
    """Ordinary least squares in the :class:`LMMFit` shape (sigma_u2 = 0).

    Used for the post-period outcome regression.  An exact fit (zero
    residual sum of squares) reports ``sigma_e2 = 0`` and infinite
    log-likelihood rather than failing.
    """
    X = np.asarray(post_design, dtype=float)
    y = np.asarray(response, dtype=float)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise InvalidArgumentError("design must be (n, p) with response of length n")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise NonFiniteLikelihoodError("design or response contains non-finite values")
    n, p = X.shape
    if np.linalg.matrix_rank(X) < p:
        raise RankDeficientDesignError(f"design has rank below its {p} columns")
    G = X.T @ X
    beta = np.linalg.solve(G, X.T @ y)
    # From the residual vector: y'y - beta'X'y cancels catastrophically when
    # the response carries a large offset.  An exact fit still leaves
    # round-off residuals, which the relative floor maps to zero.
    resid = y - X @ beta
    rss = float(resid @ resid)
    if rss <= n * _EPS2 * float(y @ y):
        rss = 0.0
    s2 = rss / n
    if rss > 0.0:
        loglik = -0.5 * n * (_LOG2PI + 1.0 + np.log(s2))
    else:
        loglik = float("inf")
    cov = s2 * np.linalg.inv(G)
    return LMMFit(
        fixed_effects=beta,
        sigma_u2=0.0,
        sigma_e2=s2,
        loglik=loglik,
        se_fixed=np.sqrt(np.diag(cov)),
        converged=True,
        cov_fixed=cov,
    )
