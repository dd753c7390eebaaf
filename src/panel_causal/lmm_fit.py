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
``log lambda`` guards against multiple optima, and regula falsi with the
Illinois modification finds the root of the score inside the best grid
bracket; the grid, the root tolerance and the step cap are fixed module
constants.  One explicit-residual GLS solve at the optimum gives the fixed
effects, the residual variance and their covariance.

``fit_or`` provides the ordinary least squares companion (post-period
outcome regression, no random effect) in the same result shape.

The cluster bootstrap fits many resamples of one dataset, and a simulation
study many draws of one scenario.  A resample is the full design with unit
i counted ``c_i`` times; a draw has a design of its own.  The private
:func:`_fit_lmm_batch` runs the same profiled fit for a batch of either
kind at once (:class:`_Rows` holds the design shared or per replicate):
Gram blocks from one matrix product with the row outer products of a
shared design, or one batched product per replicate, a batched
eigendecomposition, the grid for every replicate in one evaluation, and a
vectorized bisection in place of :func:`_illinois`.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidArgumentError,
    NonFiniteLikelihoodError,
    RankDeficientDesignError,
)

__all__ = ["LMMFit", "fit_lmm", "fit_or", "profile_loglik"]

_LOG2PI = float(np.log(2.0 * np.pi))
_EPS = float(np.finfo(float).eps)
_EPS2 = _EPS ** 2
_RT2 = float(np.sqrt(2.0))

# The search in log lambda: the bounds cover variance ratios from e-12
# (taken as the sigma_u^2 = 0 boundary) to e12; the profile is scanned at
# _GRID_POINTS evenly spaced values, and _illinois finds the score's root
# in the best grid bracket to an absolute tolerance of _XATOL on log lambda,
# i.e. a relative tolerance on lambda itself, in at most _ROOT_STEPS steps.
_LOG_LAMBDA_LO = -12.0
_LOG_LAMBDA_HI = 12.0
_GRID_POINTS = 25
_XATOL = 1e-13
_ROOT_STEPS = 100

# Full-rank certificate from the Gram matrix each fit forms anyway.  Let X
# be m x p with singular values s_1 >= ... >= s_p.  np.linalg.matrix_rank
# reports rank p unless its SVD puts s_p at or below m * eps * s_1 (m >= p).
# Forming G = X'X in floating point errs by at most about m * eps * |X|'|X|,
# whose 2-norm is at most m * eps * ||X||_F^2 <= m * p * eps * s_1^2, and
# eigvalsh adds a backward error of a small multiple of p * eps * ||G||.
# By Weyl's inequality every computed eigenvalue of G is therefore within
# d ~ m * p * eps * s_1^2 of the exact s_j^2.  The certificate asks for
#     lam_min > _RANK_MARGIN * m * p * eps * lam_max,
# so a certified design has s_p^2 >= (_RANK_MARGIN - 2) * m * p * eps * s_1^2
# and s_p / s_1 >= sqrt(8 m p eps): about 6e-6 for m = 2000, p = 10, where
# matrix_rank's threshold ratio m * eps is 4e-13.  The factor between the
# two, sqrt(8 p / (m eps)), stays above 1000 for any m below 1e10 rows, far
# beyond the SVD's own rounding.  A design with exactly duplicated columns
# has s_p = 0, so its computed lam_min is at most d, below the threshold:
# it is never certified, even when rounding leaves G a tiny positive
# Cholesky pivot.  A design that is not certified (duplicated, nearly
# collinear, or badly scaled columns) goes to matrix_rank, so the verdict
# is always matrix_rank's.
_RANK_MARGIN = 10.0

# Two equally valid solves of one Gram system, with their sums taken in
# different orders, agree only to about cond(G) * eps.  The batched fits
# therefore vouch for a resample only while its Gram's condition number
# stays below this (it passes it only when a few distinct units carry
# many columns), and refit the rest on their own.
_BATCH_COND = 1e8

# A replicate of the batched fit whose interior optimum beats the boundary
# value at log lambda = -12 by less than this fraction of |loglik| is refitted
# on its own: there the choice between sigma_u^2 = 0 and a small positive
# ratio rests on the last digits of the likelihood.
_TIE_RTOL = 1e-11


@dataclass(frozen=True, eq=False)
class LMMFit:
    """Fitted model: fixed effects, variance components, and their quality.

    ``fixed_effects`` is aligned to the design columns.  ``sigma_u2`` is
    the random intercept variance (0 at the boundary, and always 0 for
    :func:`fit_or`), ``sigma_e2`` the residual variance.  ``cov_fixed`` is
    the GLS covariance of the fixed effects at the fitted variance ratio;
    ``se_fixed`` is its diagonal square root.
    """

    fixed_effects: np.ndarray
    sigma_u2: float
    sigma_e2: float
    loglik: float
    se_fixed: np.ndarray
    converged: bool
    cov_fixed: np.ndarray
    log_lambda: float = float("nan")


def _profile_terms(log_lambda, stats):
    """Sum-row weight, weighted RSS and sum-row RSS at ``log_lambda``.

    ``stats`` is ``(Sd, Ss, hd, hs, mu, n)`` from :class:`_Profile`.  With
    the GLS step from the stacked OLS fit written as ``V z``, the weighted
    normal equations are diagonal: ``z = (hd + w hs) / (1 - (1 - w) mu)``.
    Both sums of squares are then O(p) expressions in ``z``.  The length-p
    vectors sit on the last axis and everything broadcasts, so one call
    evaluates a scalar, a grid, or (from :func:`_fit_lmm_batch`, whose
    statistics carry leading replicate axes) every replicate at once.
    """
    Sd, Ss, hd, hs, mu, _ = stats
    w = 1.0 / (1.0 + 2.0 * np.exp(log_lambda))
    wc = np.asarray(w)[..., None]
    z = (hd + wc * hs) / (1.0 - (1.0 - wc) * mu)
    zz = z * z
    ss = Ss - 2.0 * _dot(z, hs) + _dot(zz, mu)
    rss = Sd - 2.0 * _dot(z, hd) + _dot(zz, 1.0 - mu) + w * ss
    return w, rss, ss


def _dot(a, b):
    """Dot products over the last axis; the other axes broadcast."""
    if b.ndim == 1:
        return a @ b
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _score(log_lambda, stats):
    """Profiled score in ``log lambda``, up to a positive factor: with R the
    weighted RSS and S the sum-row RSS, dL/dlambda = w (N w S / R - n), so
    the bracketed factor carries the sign and the root."""
    w, rss, ss = _profile_terms(log_lambda, stats)
    n = stats[-1]
    return 2 * n * w * ss / rss - n


def _illinois(f, a, b, fa, fb):
    """Root of ``f`` between ``a`` and ``b`` (values ``fa``, ``fb`` of opposite
    sign) by regula falsi with the Illinois modification: an end kept twice
    in a row has its value halved.  Returns ``(x, converged)``: converged at
    a bracket no wider than ``_XATOL`` or an exact zero, not converged at a
    non-finite ``f`` or after ``_ROOT_STEPS`` evaluations."""
    for _ in range(_ROOT_STEPS):
        x = float(b - fb * (b - a) / (fb - fa))
        fx = f(x)
        if fx == 0.0:
            return x, True
        if not np.isfinite(fx):
            return x, False
        if (fx > 0.0) == (fb > 0.0):
            fa = 0.5 * fa
        else:
            a, fa = b, fb
        b, fb = x, fx
        if abs(b - a) <= _XATOL:
            return x, True
    return x, False


def _loglik(log_lambda, stats):
    """Profiled log-likelihood at ``log_lambda`` (broadcast as in
    :func:`_profile_terms`).  Degenerate residual variance (non-finite or
    non-positive RSS) maps to ``-inf``."""
    w, rss, _ = _profile_terms(log_lambda, stats)
    n = stats[-1]
    N = 2 * n
    with np.errstate(divide="ignore", invalid="ignore"):
        ll = -0.5 * N * (_LOG2PI + 1.0 + np.log(rss / N)) + 0.5 * n * np.log(w)
    return np.where(np.isfinite(rss) & (rss > 0.0), ll, -np.inf)


def _rank_certified(G, m, max_cond=np.inf):
    """Whether the Gram matrix ``G = X'X`` of an ``(m, p)`` design proves
    ``np.linalg.matrix_rank(X) == p`` (see ``_RANK_MARGIN``), and, if
    ``max_cond`` is given, that ``G`` is conditioned better than that.

    ``G`` may carry leading batch axes.  False only means the eigenvalues
    cannot vouch for full rank; the caller then asks ``matrix_rank``.
    """
    lam = np.linalg.eigvalsh(G)
    floor = np.maximum(_RANK_MARGIN * m * G.shape[-1] * _EPS, 1.0 / max_cond)
    return lam[..., 0] > floor * lam[..., -1]


def _simultaneous_basis(G, Gs):
    """``(V, mu)`` with ``V'G V = I`` and ``V'Gs V = diag(mu)``, for ``G``
    positive definite, by the Cholesky reduction ``L^-1 Gs L^-T``; both may
    carry leading batch axes."""
    L = np.linalg.cholesky(G)
    C = np.linalg.solve(L, np.swapaxes(np.linalg.solve(L, Gs), -1, -2))
    mu, Q = np.linalg.eigh(0.5 * (C + np.swapaxes(C, -1, -2)))
    return np.linalg.solve(np.swapaxes(L, -1, -2), Q), mu


def _solve_each(A, b):
    """Batched ``solve(A, b)`` over a stack of systems; a row whose ``A``
    is singular gets NaN instead of failing the whole stack."""
    try:
        return np.linalg.solve(A, b[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        out = np.full(b.shape, np.nan)
        for i in range(b.shape[0]):
            try:
                out[i] = np.linalg.solve(A[i], b[i])
            except np.linalg.LinAlgError:
                pass
        return out


def _rotate(X0, X1, y0, y1):
    """The sum and difference rows ``(Xs, Xd, ys, yd)`` of two aligned
    period blocks."""
    return (X0 + X1) / _RT2, (X1 - X0) / _RT2, (y0 + y1) / _RT2, (y1 - y0) / _RT2


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
        Xs, Xd, ys, yd = _rotate(X0, X1, y0, y1)
        self.n = X0.shape[0]
        self.N = 2 * self.n
        self.p = X0.shape[1]
        self.Xs = Xs
        self.Xd = Xd
        self.Gs = Xs.T @ Xs
        self.Gd = Xd.T @ Xd
        # Gd + Gs = X0'X0 + X1'X1 is the Gram of the two blocks stacked.  A
        # Cholesky probe of it is not a rank test (with exactly duplicated
        # columns rounding can leave a tiny positive pivot); the eigenvalue
        # certificate is, and the SVD runs only when it fails.
        G = self.Gd + self.Gs
        if not (_rank_certified(G, self.N)
                or np.linalg.matrix_rank(np.vstack([X0, X1])) == self.p):
            raise RankDeficientDesignError(
                f"the two design blocks stacked have rank below their {self.p} columns"
            )
        # Gs v = mu (Gd + Gs) v with V'(Gd + Gs)V = I: V diagonalizes both
        # blocks at once (V'Gs V = diag(mu), V'Gd V = diag(1 - mu)).
        V, mu = _simultaneous_basis(G, self.Gs)
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


def profile_loglik(X0, X1, y0, y1, log_lambda):
    """Profiled log-likelihood at a given ``log lambda`` (for diagnostics).

    Fixed effects and the residual variance are concentrated out, so this is
    the exact curve :func:`fit_lmm` maximizes on the same blocks.
    """
    return float(_loglik(float(log_lambda), _Profile(X0, X1, y0, y1).stats))


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
    best grid point's bracket, :func:`_illinois` finds its root; otherwise
    the best grid point stands, and it counts as converged only on an edge
    of the grid with the score pointing outward.  If the boundary value at
    -12 is at least as good as that optimum, the variance ratio is
    taken to be exactly 0 and the fit collapses to ordinary least squares.
    """
    prof = _Profile(X0, X1, y0, y1)
    stats = prof.stats
    grid = np.linspace(_LOG_LAMBDA_LO, _LOG_LAMBDA_HI, _GRID_POINTS)
    ll = _loglik(grid, stats)
    if not np.any(np.isfinite(ll)):
        raise NonFiniteLikelihoodError(
            "profiled likelihood is degenerate everywhere (zero residual variance?)"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        score = _score(grid, stats)
    j = int(np.argmax(ll))
    a, b = max(0, j - 1), min(len(grid) - 1, j + 1)
    if score[a] > 0.0 > score[b]:
        log_lambda, converged = _illinois(
            lambda x: _score(x, stats), grid[a], grid[b], score[a], score[b])
        best = float(_loglik(log_lambda, stats))
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
    G = X.T @ X
    if not (_rank_certified(G, n) or np.linalg.matrix_rank(X) == p):
        raise RankDeficientDesignError(f"design has rank below its {p} columns")
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


class _Rows:
    """The rows and response of a batch of fits, one fit per replicate.

    ``X`` is either one ``(n, p)`` design that every replicate shares,
    weighting its rows by its own counts (the resamples of the cluster
    bootstrap), or a ``(k, n, p)`` stack with a design per replicate (the
    draws of a simulation study); ``y`` is ``(n,)`` or ``(k, n)`` to match.
    A shared design keeps its row outer products ``O`` as an ``(n, p*p)``
    matrix, so that the Gram matrices of k count vectors are the one
    product ``C @ O``.
    """

    def __init__(self, X, y):
        self.X, self.y = X, y
        self.shared = X.ndim == 2
        if self.shared:
            n, p = X.shape
            self.O = (X[:, :, None] * X[:, None, :]).reshape(n, p * p)

    def take(self, rows):
        """The fits ``rows`` (sorted indices) of a batch."""
        if self.shared or len(rows) == self.X.shape[0]:
            return self
        return _Rows(self.X[rows], self.y[rows])

    def gram(self, W):
        """The ``(k, p, p)`` Gram matrices ``X' diag(w) X`` of the rows of ``W``."""
        if self.shared:
            p = self.X.shape[1]
            return (W @ self.O).reshape(-1, p, p)
        return np.swapaxes(self.X * W[:, :, None], 1, 2) @ self.X

    def cross(self, W):
        """The ``(k, p)`` cross products ``X' w`` of the rows of ``W``."""
        if self.shared:
            return W @ self.X
        return (W[:, None, :] @ self.X)[:, 0]

    def fitted(self, B):
        """The ``(k, n)`` fitted values ``X b`` of the rows of ``B``."""
        if self.shared:
            return B @ self.X.T
        return (self.X @ B[:, :, None])[:, :, 0]


def _rotated_rows(X0, X1, y0, y1):
    """The sum and the difference rows of :class:`_Profile` as the
    :class:`_Rows` pair ``(s, d)`` of a batch of fits; the blocks may carry
    a leading replicate axis.  The inputs are those of :func:`fit_lmm` and
    must already be valid."""
    Xs, Xd, ys, yd = _rotate(X0, X1, y0, y1)
    return _Rows(Xs, ys), _Rows(Xd, yd)


def _fit_lmm_batch(rows, C, bins=None, n_bins=0, random_intercept=True):
    """Fixed effects of :func:`fit_lmm` on a batch of fits.

    ``rows`` is the :func:`_rotated_rows` pair of the design, shared by the
    batch or one per replicate.  Row r of the ``(k, n)`` count matrix ``C``
    weights the n units of fit r: unit i enters it ``C[r, i]`` times (all
    ones for a design per replicate).  ``bins``, if given, is a ``(k, n)``
    array of bin labels in ``0 .. n_bins - 1``; fit r then appends to both
    period blocks the indicators of bins 1 to ``n_bins - 1`` under its own
    labels (the DRGLMM bin dummies).  Such unit-constant columns vanish
    from the difference rows and enter the sum rows times sqrt(2); their
    sums over units are bincounts, so no dummy matrix is formed.  Without
    the random intercept the result is the OLS fit of the blocks stacked,
    as :func:`fit_or` computes it.

    Each step is :class:`_Profile` and :func:`fit_lmm` with a leading
    replicate axis: Gram blocks and cross products weighted by the counts,
    one batched eigendecomposition, the 25-point grid for all replicates in
    one evaluation, and a bisection on the score in place of
    :func:`_illinois` (both stop within ``_XATOL``).  The bisection runs
    the batch in lockstep, one vectorized score evaluation per step;
    :func:`_illinois` per replicate cost the README DRGLMM bootstrap about
    9 % of its speed on a 2-vCPU host.

    Returns
    -------
    beta : ndarray, shape (k, p + n_bins - 1)
        NaN in rows that are not ``ok``.
    ok : ndarray of bool, shape (k,)
        False for a fit the batch does not vouch for, which the caller
        must refit on its own: rank or conditioning (``_BATCH_COND``) not
        certified, a non-finite point on the likelihood grid, a grid
        optimum inside the grid without a bracketing sign change of the
        score, a near-tie between the boundary and the interior optimum,
        or a degenerate residual variance at the optimum.
    """
    s, d = rows
    k = C.shape[0]
    units = C.sum(axis=1)
    p = s.X.shape[-1]
    q = 0 if bins is None else n_bins - 1
    m = p + q

    def bin_sums(v):
        """Row by row, the sums of ``v`` over the units of bins 1 .. q."""
        r = v.shape[0]
        labels = bins + n_bins * np.arange(r)[:, None]
        sums = np.bincount(labels.ravel(), weights=v.ravel(), minlength=r * n_bins)
        return sums.reshape(r, n_bins)[:, 1:]

    beta = np.full((k, m), np.nan)
    Gd = np.zeros((k, m, m))
    Gs = np.zeros((k, m, m))
    Gd[:, :p, :p] = d.gram(C)
    Gs[:, :p, :p] = s.gram(C)
    if q:
        cross = _RT2 * np.stack([bin_sums(C * x) for x in np.moveaxis(s.X, -1, 0)],
                                axis=2)
        Gs[:, p:, :p] = cross
        Gs[:, :p, p:] = np.swapaxes(cross, 1, 2)
        Gs[:, np.arange(p, m), np.arange(p, m)] = 2.0 * bin_sums(C)
    G = Gd + Gs
    ok = _rank_certified(G, 2 * units, _BATCH_COND)
    sel = np.flatnonzero(ok)
    if sel.size == 0:
        return beta, ok
    C, Gd, Gs, G, units = C[sel], Gd[sel], Gs[sel], G[sel], units[sel]
    s, d = s.take(sel), d.take(sel)
    if q:
        bins = bins[sel]

    def fitted(b):
        fd = d.fitted(b[:, :p])
        fs = s.fitted(b[:, :p])
        if q:
            per_bin = np.concatenate([np.zeros((len(sel), 1)), b[:, p:]], axis=1)
            fs = fs + _RT2 * np.take_along_axis(per_bin, bins, axis=1)
        return fd, fs

    def crossprod(vd, vs):
        gd = np.zeros((len(sel), m))
        gs = np.empty((len(sel), m))
        gd[:, :p] = d.cross(C * vd)
        gs[:, :p] = s.cross(C * vs)
        if q:
            gs[:, p:] = _RT2 * bin_sums(C * vs)
        return gd, gs

    gd, gs = crossprod(d.y, s.y)
    if not random_intercept:
        beta[sel] = _solve_each(G, gd + gs)
        return beta, ok

    V, mu = _simultaneous_basis(G, Gs)
    Vt = np.swapaxes(V, 1, 2)
    beta0 = (V @ (Vt @ (gd + gs)[:, :, None]))[:, :, 0]
    fd, fs = fitted(beta0)
    rd, rs = d.y - fd, s.y - fs
    gd, gs = crossprod(rd, rs)
    stats = (
        np.sum(C * rd * rd, axis=1)[:, None],
        np.sum(C * rs * rs, axis=1)[:, None],
        (Vt @ gd[:, :, None])[:, None, :, 0],
        (Vt @ gs[:, :, None])[:, None, :, 0],
        mu[:, None, :],
        units[:, None],
    )
    rows = np.arange(len(sel))
    grid = np.linspace(_LOG_LAMBDA_LO, _LOG_LAMBDA_HI, _GRID_POINTS)
    ll = _loglik(grid, stats)
    with np.errstate(divide="ignore", invalid="ignore"):
        score = _score(grid, stats)
        j = np.argmax(ll, axis=1)
        a = np.maximum(j - 1, 0)
        b = np.minimum(j + 1, _GRID_POINTS - 1)
        bracket = (score[rows, a] > 0.0) & (score[rows, b] < 0.0)
        lo = np.where(bracket, grid[a], grid[j])
        hi = np.where(bracket, grid[b], grid[j])
        while np.any(hi - lo > _XATOL):
            mid = 0.5 * (lo + hi)
            up = _score(mid[:, None], stats)[:, 0] > 0.0
            lo = np.where(up, mid, lo)
            hi = np.where(up, hi, mid)
        root = 0.5 * (lo + hi)
        best = np.where(bracket, _loglik(root[:, None], stats)[:, 0], ll[rows, j])
    log_lambda = np.where(bracket, root, grid[j])
    good = (np.all(np.isfinite(ll), axis=1)
            & (bracket | (j == 0) | (j == _GRID_POINTS - 1))
            & ~(bracket & (np.abs(best - ll[:, 0]) <= _TIE_RTOL * np.abs(ll[:, 0]))))
    log_lambda = np.where(ll[:, 0] >= best, _LOG_LAMBDA_LO, log_lambda)
    lam = np.where(log_lambda <= _LOG_LAMBDA_LO + 1e-8, 0.0, np.exp(log_lambda))
    w = 1.0 / (1.0 + 2.0 * lam)
    A = Gd + w[:, None, None] * Gs
    delta = _solve_each(A, gd + w[:, None] * gs)
    fd, fs = fitted(delta)
    rd, rs = rd - fd, rs - fs
    rss = np.sum(C * rd * rd, axis=1) + w * np.sum(C * rs * rs, axis=1)
    good &= np.isfinite(rss) & (rss > 0.0)
    ok[sel] = good
    beta[sel[good]] = (beta0 + delta)[good]
    return beta, ok


def _fit_or_batch(rows, C):
    """Fixed effects of :func:`fit_or` on a batch of fits.

    ``rows`` is the :class:`_Rows` of the design and response, shared by
    the batch or one per replicate, and row r of the ``(k, n)`` count
    matrix ``C`` weights the units of fit r.  Returns ``(beta, ok)``: beta
    ``(k, p)``, NaN where ``ok`` is False because the rank or the
    conditioning is not certified.
    """
    G = rows.gram(C)
    ok = _rank_certified(G, C.sum(axis=1), _BATCH_COND)
    beta = np.full((C.shape[0], G.shape[-1]), np.nan)
    sel = np.flatnonzero(ok)
    if sel.size:
        rows = rows.take(sel)
        beta[sel] = _solve_each(G[sel], rows.cross(C[sel] * rows.y))
    return beta, ok
