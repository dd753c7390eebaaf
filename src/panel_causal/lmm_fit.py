"""Gaussian linear mixed model with a unit random intercept, fitted by ML.

The data come as two aligned blocks: row i of the t=0 block ``(X0, y0)``
and row i of the t=1 block ``(X1, y1)`` belong to the same unit.  With
exactly these two rows per unit, the marginal covariance of a unit is
``sigma_e^2 I_2 + sigma_u^2 11'``.  The within-unit sum/difference
transform (an orthogonal rotation) diagonalizes that matrix, so for a fixed
variance ratio ``lambda = sigma_u^2 / sigma_e^2`` generalized least squares
reduces to weighted least squares with weight 1 on difference rows and
``w = 1 / (1 + 2 lambda)`` on sum rows.  Profiling out the fixed effects and
``sigma_e^2`` in closed form leaves a one-dimensional likelihood in
``log lambda``.

Each fit does its O(n p) work once: the stacked OLS fit moves the response
to its residual scale, and one generalized eigendecomposition diagonalizes
the sum-row and difference-row Gram blocks together.  In that basis the
weighted normal equations are diagonal for every ``w``, so each evaluation
of the profiled likelihood or its score costs O(p).  A coarse grid over
``log lambda`` guards against multiple optima, and Brent's method finds the
root of the score inside the best grid bracket; the grid and the root
tolerance are fixed module constants.  One explicit-residual GLS solve at
the optimum gives the fixed effects, the residual variance and their
covariance.

``fit_or`` provides the ordinary least squares companion (post-period
outcome regression, no random effect) in the same result shape.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import (
    InvalidArgumentError,
    NonFiniteLikelihoodError,
    RankDeficientDesignError,
)

__all__ = ["LMMFit", "fit_lmm", "fit_or", "profile_loglik"]

_LOG2PI = float(np.log(2.0 * np.pi))
_EPS2 = float(np.finfo(float).eps) ** 2

# The search in log lambda: the bounds cover variance ratios from e-12
# (taken as the sigma_u^2 = 0 boundary) to e12; the profile is scanned at
# _GRID_POINTS evenly spaced values, and Brent's method finds the score's
# root in the best grid bracket to an absolute tolerance of _XATOL on
# log lambda, i.e. a relative tolerance on lambda itself.
_LOG_LAMBDA_LO = -12.0
_LOG_LAMBDA_HI = 12.0
_GRID_POINTS = 25
_XATOL = 1e-13


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


def _profile_terms(log_lambda, stats):
    """Sum-row weight, weighted RSS and sum-row RSS at ``log_lambda``.

    ``stats`` is ``(Sd, Ss, hd, hs, mu, n)`` from :class:`_Profile`.  With
    the GLS step from the stacked OLS fit written as ``V z``, the weighted
    normal equations are diagonal: ``z = (hd + w hs) / (1 - (1 - w) mu)``.
    Both sums of squares are then O(p) expressions in ``z``.  Accepts a
    scalar or a 1-d array of ``log_lambda``.
    """
    Sd, Ss, hd, hs, mu, _ = stats
    w = 1.0 / (1.0 + 2.0 * np.exp(log_lambda))
    wc = np.asarray(w)[..., None]
    z = (hd + wc * hs) / (1.0 - (1.0 - wc) * mu)
    zz = z * z
    ss = Ss - 2.0 * (z @ hs) + zz @ mu
    rss = Sd - 2.0 * (z @ hd) + zz @ (1.0 - mu) + w * ss
    return w, rss, ss


def _score(log_lambda, *stats):
    """Profiled score in ``log lambda``, up to a positive factor.

    With R the weighted RSS and S the sum-row RSS,
    dL/dlambda = w (N w S / R - n), so the bracketed factor carries the
    sign and the root.  This is a module-level function over length-p
    arrays on purpose: ``brentq`` wraps its callable in a self-referencing
    closure that only the cyclic garbage collector frees, and a bound
    method there would keep the n-row design blocks alive with it.
    """
    w, rss, ss = _profile_terms(log_lambda, stats)
    n = stats[-1]
    return 2 * n * w * ss / rss - n


class _Profile:
    """One fit's data: the rotated design and the O(p) profile statistics."""

    def __init__(self, X0, X1, y0, y1):
        X0, X1, y0, y1 = (np.asarray(a, dtype=float) for a in (X0, X1, y0, y1))
        if not (X0.ndim == 2 and X1.shape == X0.shape
                and y0.shape == y1.shape == (X0.shape[0],)):
            raise InvalidArgumentError(
                "design blocks must both be (n, p) with responses of length n"
            )
        if not all(np.all(np.isfinite(a)) for a in (X0, X1, y0, y1)):
            raise NonFiniteLikelihoodError("design or response contains non-finite values")
        rt2 = np.sqrt(2.0)
        Xs = (X0 + X1) / rt2
        Xd = (X1 - X0) / rt2
        ys = (y0 + y1) / rt2
        yd = (y1 - y0) / rt2
        self.n = X0.shape[0]
        self.N = 2 * self.n
        self.p = X0.shape[1]
        # A Cholesky probe of X'X is not reliable here: with exactly duplicated
        # columns rounding can leave a tiny positive pivot and the factorization
        # "succeeds", only for the GLS solve to blow up later.
        if np.linalg.matrix_rank(np.vstack([X0, X1])) < self.p:
            raise RankDeficientDesignError(
                f"the two design blocks stacked have rank below their {self.p} columns"
            )
        self.Xs = Xs
        self.Xd = Xd
        self.Gs = Xs.T @ Xs
        self.Gd = Xd.T @ Xd
        # Gs v = mu (Gd + Gs) v with V'(Gd + Gs)V = I: V diagonalizes both
        # blocks at once (V'Gs V = diag(mu), V'Gd V = diag(1 - mu)).  The
        # Cholesky reduction L^-1 Gs L^-T stays on numpy's LAPACK:
        # scipy.linalg.eigh would page in scipy's own LAPACK build, about
        # 1.5 MB more peak RSS for a process that otherwise never calls it.
        L = np.linalg.cholesky(self.Gd + self.Gs)
        C = np.linalg.solve(L, np.linalg.solve(L, self.Gs).T)
        mu, Q = np.linalg.eigh(0.5 * (C + C.T))
        V = np.linalg.solve(L.T, Q)
        # Everything below works on the residual scale of the stacked OLS
        # fit, so a large response offset does not cancel in the sums of
        # squares or in the GLS step.
        self.beta0 = V @ (V.T @ (Xd.T @ yd + Xs.T @ ys))
        self.rd = yd - Xd @ self.beta0
        self.rs = ys - Xs @ self.beta0
        self.gd = Xd.T @ self.rd
        self.gs = Xs.T @ self.rs
        self.stats = (
            float(self.rd @ self.rd),
            float(self.rs @ self.rs),
            V.T @ self.gd,
            V.T @ self.gs,
            mu,
            self.n,
        )

    def solve(self, lam):
        """GLS fixed effects and weighted RSS at variance ratio ``lam``.

        The GLS step from the stacked OLS fit is solved for on the residual
        scale, and the residual sums of squares are accumulated from
        explicit residual vectors.
        """
        w = 1.0 / (1.0 + 2.0 * lam)
        A = self.Gd + w * self.Gs
        delta = np.linalg.solve(A, self.gd + w * self.gs)
        rd = self.rd - self.Xd @ delta
        rs = self.rs - self.Xs @ delta
        rss = float(rd @ rd) + w * float(rs @ rs)
        return self.beta0 + delta, rss, A

    def loglik(self, log_lambda):
        """Profiled log-likelihood at a scalar or an array of ``log lambda``.

        Degenerate residual variance (non-finite or non-positive RSS) maps
        to ``-inf``.
        """
        w, rss, _ = _profile_terms(log_lambda, self.stats)
        with np.errstate(divide="ignore", invalid="ignore"):
            ll = (
                -0.5 * self.N * (_LOG2PI + 1.0 + np.log(rss / self.N))
                + 0.5 * self.n * np.log(w)
            )
        return np.where(np.isfinite(rss) & (rss > 0.0), ll, -np.inf)


def profile_loglik(X0, X1, y0, y1, log_lambda):
    """Profiled log-likelihood at a given ``log lambda`` (for diagnostics).

    Fixed effects and the residual variance are concentrated out, so this is
    the exact curve :func:`fit_lmm` maximizes on the same blocks.
    """
    prof = _Profile(X0, X1, y0, y1)
    return float(prof.loglik(float(log_lambda)))


def fit_lmm(X0, X1, y0, y1):
    """Maximum likelihood fit of the random-intercept model.

    Parameters
    ----------
    X0, X1 : ndarray, shape (n, p)
        Fixed-effect design of the t=0 and the t=1 rows; row i of both
        blocks belongs to unit i.
    y0, y1 : ndarray, shape (n,)
        Responses at t=0 and t=1, aligned to the blocks' rows.

    Returns
    -------
    LMMFit

    Raises
    ------
    InvalidArgumentError
        A block is not (n, p), or a response is not of length n.
    RankDeficientDesignError
        The two blocks stacked have rank below p.
    NonFiniteLikelihoodError
        A non-finite input, or zero residual variance.

    Notes
    -----
    After one O(n p) set-up (stacked OLS residuals and a generalized
    eigendecomposition of the sum-row and difference-row Gram blocks), the
    profiled likelihood and its score cost O(p) per ``log lambda``.  The
    likelihood is scanned on a 25-point grid over ``log lambda in [-12, 12]``
    in one vectorized evaluation.  If the score changes sign across the
    best grid point's bracket, Brent's method finds its root; otherwise
    the best grid point stands, and it counts as converged only on an edge
    of the grid with the score pointing outward.  If the boundary value at
    -12 is at least as good as that optimum, the variance ratio is
    taken to be exactly 0 and the fit collapses to ordinary least squares.
    """
    prof = _Profile(X0, X1, y0, y1)
    stats = prof.stats
    grid = np.linspace(_LOG_LAMBDA_LO, _LOG_LAMBDA_HI, _GRID_POINTS)
    ll = prof.loglik(grid)
    if not np.any(np.isfinite(ll)):
        raise NonFiniteLikelihoodError(
            "profiled likelihood is degenerate everywhere (zero residual variance?)"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        score = _score(grid, *stats)
    j = int(np.argmax(ll))
    a, b = max(0, j - 1), min(len(grid) - 1, j + 1)
    if score[a] > 0.0 > score[b]:
        log_lambda, res = brentq(
            _score, grid[a], grid[b], args=stats, xtol=_XATOL,
            maxiter=500, full_output=True, disp=False,
        )
        log_lambda = float(log_lambda)
        converged = bool(res.converged)
        best = float(prof.loglik(log_lambda))
    else:
        log_lambda = float(grid[j])
        converged = (j == 0 and score[0] <= 0.0) or (
            j == len(grid) - 1 and score[-1] >= 0.0
        )
        best = float(ll[j])
    if ll[0] >= best:
        log_lambda = _LOG_LAMBDA_LO
        converged = True
    lam = 0.0 if log_lambda <= _LOG_LAMBDA_LO + 1e-8 else float(np.exp(log_lambda))

    beta, rss, A = prof.solve(lam)
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
