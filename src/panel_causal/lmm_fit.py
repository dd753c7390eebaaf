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

Each model has one kernel, which fits a batch of k fits at once: the
resamples of one dataset, which share its design and count unit i of fit r
``C[r, i]`` times (the cluster bootstrap), or the draws of a simulation
study, each with a design of its own, which the fits of several suite
entries on the same draws share (:class:`_Rows` holds either).
:func:`_fit_lmm_batch` does each fit's O(n p) work once: the stacked OLS
fit moves the response to its residual scale, and one generalized
eigendecomposition diagonalizes the sum-row and difference-row Gram blocks
together.  In that basis the weighted normal equations are diagonal for
every ``w``, so each evaluation of the profiled likelihood or its score
costs O(p).  A coarse grid over ``log lambda`` guards against multiple
optima, and regula falsi with the Illinois modification finds the root of
the score inside the best grid bracket, every fit of the batch in lockstep;
the grid, the root tolerance and the step cap are fixed module constants.
One explicit-residual GLS solve at the optimum gives the fixed effects,
the residual variance and their covariance.  :func:`_fit_or_batch` is the
ordinary least squares companion (post-period outcome regression, no
random effect).

The public fits are those kernels on a batch of one fit that counts every
unit once: :func:`fit_lmm`, :func:`profile_loglik` and :func:`fit_or`
check their input, call the kernel, pass its per-fit status to
:func:`_raise_failure` and build the result in one step, :func:`_lmm_result`,
under the one covariance rule of every single fit, glm_fit's too:
:func:`_covariance`.  Every kernel's statuses, glm_fit's too, are
numbered here, and :data:`_FAILURES` is the one table of the error each
raises in a single fit.  A status is final when its kernel returns it:
each model kernel asks :func:`_full_rank` whether the design is full rank
on the rows of each fit, so a batch caller (the estimators' ``_Batch``,
also behind every point estimate) only reads the statuses.
"""

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import (
    InvalidArgumentError,
    NoVariationInOutcomeError,
    NonFiniteLikelihoodError,
    RankDeficientDesignError,
    SeparationError,
)

__all__ = ["LMMFit", "fit_lmm", "fit_or", "profile_loglik"]

_LOG2PI = float(np.log(2.0 * np.pi))
_EPS = float(np.finfo(float).eps)
_EPS2 = _EPS ** 2
_RT2 = float(np.sqrt(2.0))

# The search in log lambda: the bounds cover variance ratios from e-12
# (taken as the sigma_u^2 = 0 boundary) to e12; the profile is scanned at
# _GRID_POINTS evenly spaced values, and _find_roots finds the score's root
# in the best grid bracket to an absolute tolerance of _XATOL on log lambda,
# i.e. a relative tolerance on lambda itself, in at most _ROOT_STEPS steps.
_LOG_LAMBDA_LO = -12.0
_LOG_LAMBDA_HI = 12.0
_GRID_POINTS = 25
_XATOL = 1e-13
_ROOT_STEPS = 100

# Full-rank proof from the Gram matrix each fit forms anyway.  Let X
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
# it is never proved full rank, even when rounding leaves G a tiny positive
# Cholesky pivot.  A design without the proof (duplicated, nearly
# collinear, or badly scaled columns) goes to matrix_rank, so the verdict
# is always matrix_rank's.
_RANK_MARGIN = 10.0

# Statuses of a fit, numbered once for every kernel (glm_fit's too) so that
# a status array names its cause: success; a Gram matrix of the design not
# positive definite in floating point; the mixed model's profiled
# likelihood degenerate at every grid point, or its residual variance
# degenerate at the optimum; the logistic model's single outcome class, or
# separation in one of four ways; a design rank deficient on the fit's own
# rows; and, for a fit of the estimators' batch, no treated or no control
# unit counted, or a treatment model the estimator cannot use.
(_OK, _NOT_PD, _FLAT, _DEGENERATE, _ONE_CLASS, _SINGULAR, _UNBOUNDED, _SEPARATED,
 _STALLED, _RANK_DEFICIENT, _NO_OVERLAP, _PS_UNUSABLE) = range(12)

# The logistic IRLS gives up on a fit with a coefficient beyond this bound.
_COEF_BOUND = 30.0

# The error a single fit (a public fit or a point estimate) raises for each
# failure.  No single fit reaches _NO_OVERLAP: a dataset has both groups.
_FAILURES = {
    # Full rank by matrix_rank, so not a rank deficiency, but singular in
    # floating point (for the logistic model: at IRLS step 1, or where a
    # caller needs its covariance).
    _NOT_PD: (NonFiniteLikelihoodError, "the design's Gram matrix is not positive definite "
              "in floating point; its columns are nearly collinear"),
    _FLAT: (NonFiniteLikelihoodError,
            "profiled likelihood is degenerate everywhere (zero residual variance?)"),
    _DEGENERATE: (NonFiniteLikelihoodError, "degenerate residual variance at the optimum"),
    _ONE_CLASS: (NoVariationInOutcomeError, "outcome has a single class; cannot fit"),
    # After step 1, a full-rank design with a singular information matrix
    # means the IRLS weights collapsed, which only happens on the way to a
    # boundary solution.
    _SINGULAR: (SeparationError, "information matrix became singular; data are separated"),
    _UNBOUNDED: (SeparationError, f"coefficient magnitude exceeded {_COEF_BOUND:g}; data are "
                 "(quasi-)separated and the MLE does not exist"),
    # Newton can plateau (tiny deviance changes) while walking out to
    # infinity on separated data, declaring convergence before the
    # coefficient bound trips; a collapsed deviance is unambiguous.
    _SEPARATED: (SeparationError, "deviance collapsed to zero; the classes are strictly "
                 "separated and the MLE does not exist"),
    _STALLED: (SeparationError,
               "fit stalled with fitted probabilities at the boundary; data are separated"),
    _RANK_DEFICIENT: (RankDeficientDesignError, {
        "ps": "design has rank below its {} columns; drop redundant terms",
        "post": "design has rank below its {} columns",
        "mixed": "the two design blocks stacked have rank below their {} columns",
    }),
    # A treatment model fitted, or given, with a score of exactly 0 or 1
    # (or NaN) on a counted unit: its inverse weights are not finite.
    _PS_UNUSABLE: (InvalidArgumentError, "fitted propensity scores must lie strictly in (0, 1)"),
}


def _raise_failure(status, model, p):
    """Raise the :data:`_FAILURES` error of a failed ``status``, for a fit of
    ``model`` (``"ps"``, ``"post"`` or ``"mixed"``) on ``p`` columns."""
    if status != _OK:
        error, message = _FAILURES[status]
        raise error(message[model].format(p) if status == _RANK_DEFICIENT else message)


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


class _Fits(SimpleNamespace):
    """A kernel's outputs, each an array with one entry per fit of the batch.

    A model kernel sets ``status``: 0 for success, else the failure its
    public wrapper raises.  The status is final: it includes the verdict of
    :func:`_full_rank` on the fit's own rows.
    """


def _profile_terms(log_lambda, stats):
    """Sum-row weight, weighted RSS and sum-row RSS at ``log_lambda``.

    ``stats`` is ``(Sd, Ss, hd, hs, mu, n)`` from :func:`_fit_lmm_batch`.
    With the GLS step from the stacked OLS fit written as ``V z``, the
    weighted normal equations are diagonal:
    ``z = (hd + w hs) / (1 - (1 - w) mu)``.  Both sums of squares are then
    O(p) expressions in ``z``.  The length-p vectors sit on the last axis,
    after a fit axis and an axis for the points of ``log_lambda``, and
    everything broadcasts, so one call evaluates a grid for every fit.
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


def _score_of(terms, n):
    """Profiled score in ``log lambda``, up to a positive factor, from the
    :func:`_profile_terms` ``terms`` of ``n`` units: with R the weighted
    RSS and S the sum-row RSS, dL/dlambda = w (N w S / R - n), so the
    bracketed factor carries the sign and the root."""
    w, rss, ss = terms
    return 2 * n * w * ss / rss - n


def _find_roots(f, a, b, fa, fb, args=None):
    """Roots of a batch of functions by regula falsi with the Illinois
    modification, every member in lockstep.

    ``a``, ``b``, ``fa`` and ``fb`` are arrays over the batch: brackets and
    their end values, of opposite sign.  ``args`` is a tuple of arrays with
    a leading member axis, by default the members' indices.  ``f(x, *live)``
    evaluates the live members at ``x``, ``live`` being ``args`` for those
    members.  At each step an end kept twice in a row has its value halved.
    Returns ``(x, converged)``: a member converges at a bracket no wider
    than ``_XATOL`` or an exact zero, and stops unconverged at a non-finite
    value or after ``_ROOT_STEPS`` evaluations; ``x`` is the point it was
    last evaluated at.

    The steps work on the live members only, in compacted arrays: ``args``
    and the brackets are gathered again only when a member stops.
    """
    a, b, fa, fb = (np.array(v, dtype=float) for v in (a, b, fa, fb))
    x = np.full(a.shape, np.nan)
    converged = np.zeros(a.shape, dtype=bool)
    idx = np.arange(a.size)
    live = (idx,) if args is None else tuple(args)
    for _ in range(_ROOT_STEPS):
        if idx.size == 0:
            break
        xi = b - fb * (b - a) / (fb - fa)
        fx = f(xi, *live)
        kept = (fx > 0.0) == (fb > 0.0)
        fa = np.where(kept, 0.5 * fa, fb)
        a = np.where(kept, a, b)
        b, fb = xi, fx
        finite = np.isfinite(fx)
        done = finite & ((fx == 0.0) | (np.abs(b - a) <= _XATOL))
        stop = done | ~finite
        if stop.any():
            x[idx[stop]] = b[stop]
            converged[idx[done]] = True
            go = ~stop
            idx, a, b, fa, fb = idx[go], a[go], b[go], fa[go], fb[go]
            live = tuple(v[go] for v in live)
    x[idx] = b
    return x, converged


def _loglik_of(terms, n):
    """Profiled log-likelihood from the :func:`_profile_terms` ``terms`` of
    ``n`` units.  Degenerate residual variance (non-finite or non-positive
    RSS) maps to ``-inf``."""
    w, rss, _ = terms
    N = 2 * n
    with np.errstate(divide="ignore", invalid="ignore"):
        ll = -0.5 * N * (_LOG2PI + 1.0 + np.log(rss / N)) + 0.5 * n * np.log(w)
    return np.where(np.isfinite(rss) & (rss > 0.0), ll, -np.inf)


def _full_rank(G, C, blocks, bins=None):
    """The rank verdict of each fit of a batch, given the Gram matrices
    ``G`` ``(k, p + q, p + q)`` of its rows: a proof of full rank from
    their eigenvalues (see ``_RANK_MARGIN``), or else
    ``np.linalg.matrix_rank`` on the fit's own rows.

    Those are the rows of the ``blocks`` stacked, unit i repeated
    ``C[r, i]`` times as in the fit's own dataset.  A block is ``(n, p)``,
    or a stack of designs, fit r taking its design r modulo their number
    (as :class:`_Rows` does).  ``bins`` ``(k, n)``, if given, labels each unit
    with one of the fit's bins ``0 .. q``; the dense dummies of bins 1 to q
    then enter the first block times sqrt(2) and the second as zeros, as a
    unit-constant column enters the mixed model's sum and difference rows.
    """
    m = len(blocks) * C.sum(axis=1)
    lam = np.linalg.eigvalsh(G)
    full = lam[:, 0] > _RANK_MARGIN * m * G.shape[-1] * _EPS * lam[:, -1]
    for r in np.flatnonzero(~full):
        units = np.repeat(np.arange(C.shape[1]), C[r].astype(int))
        X = [(b if b.ndim == 2 else b[r % len(b)])[units] for b in blocks]
        if bins is not None:
            dummies = np.eye(G.shape[-1] - X[0].shape[1] + 1)[bins[r, units], 1:]
            X = [np.hstack([X[0], _RT2 * dummies]), np.hstack([X[1], 0.0 * dummies])]
        X = np.vstack(X)
        full[r] = np.linalg.matrix_rank(X) == X.shape[1]
    return full


def _simultaneous_basis(L, Gs):
    """``(V, mu)`` with ``V'G V = I`` and ``V'Gs V = diag(mu)``, for ``G``
    positive definite with Cholesky factor ``L``, by the reduction
    ``L^-1 Gs L^-T``; both carry a leading fit axis."""
    C = np.linalg.solve(L, np.swapaxes(np.linalg.solve(L, Gs), -1, -2))
    mu, Q = np.linalg.eigh(0.5 * (C + np.swapaxes(C, -1, -2)))
    return np.linalg.solve(np.swapaxes(L, -1, -2), Q), mu


def _solve(A, b):
    """``solve(A, b)`` for vectors ``b``, over any leading axes."""
    return np.linalg.solve(A, b[..., None])[..., 0]


def _each(f, *args):
    """``f`` on a stack of systems (a leading fit axis on every argument);
    a fit on which ``f`` fails (a singular or not positive definite matrix)
    gets NaN instead of failing the whole stack.  The result has the shape
    of the last argument."""
    try:
        return f(*args)
    except np.linalg.LinAlgError:
        out = np.full(args[-1].shape, np.nan)
        for i in range(out.shape[0]):
            try:
                out[i] = f(*(a[i] for a in args))
            except np.linalg.LinAlgError:
                pass
        return out


class _Rows:
    """The rows and response of a batch of fits.

    ``X`` is either one ``(n, p)`` design that every fit shares, weighting
    its rows by its own counts (the resamples of the cluster bootstrap), or
    a ``(k, n, p)`` stack with a design per draw (the draws of a simulation
    study, or the one fit of a public wrapper); ``y`` is ``(n,)``, or a
    ``(K, n)`` response per fit, K a multiple of k, fit r taking design
    ``r % k``.  Fits of the same draws (the doubly robust entries of a suite
    that share an outcome design) thus share one copy of the designs: each
    draw's Gram matrix is formed once, and cross products and fitted values
    broadcast the designs against the fits' operands, to the same bits as
    one design per fit.  A shared design keeps its row outer products ``O``
    as an ``(n, p*p)`` matrix, so that the Gram matrices of k count vectors
    are the one product ``C @ O``.
    """

    def __init__(self, X, y):
        self.X, self.y = X, y
        self.shared = X.ndim == 2
        if self.shared:
            n, p = X.shape
            self.O = (X[:, :, None] * X[:, None, :]).reshape(n, p * p)

    def take(self, fits):
        """The fits ``fits`` (indices, which may repeat) of a batch.  Fits
        that repeat the whole stack of draws in order keep the designs; any
        other subset gathers its own."""
        if self.shared or np.array_equal(fits, np.arange(len(self.y))):
            return self
        k = len(self.X)
        draws = fits % k
        if len(fits) % k == 0 and np.array_equal(draws, np.tile(np.arange(k), len(fits) // k)):
            return _Rows(self.X, self.y[fits])
        return _Rows(self.X[draws], self.y[fits])

    def gram(self, W):
        """The ``(K, p, p)`` Gram matrices ``X' diag(w) X`` of the rows of ``W``."""
        p = self.X.shape[-1]
        if self.shared:
            return (W @ self.O).reshape(-1, p, p)
        # Unit weights (the counts of a study's draws or of a single fit)
        # need no weighted copy of the design, which at n = 100 000 would
        # set the peak memory and much of the time of a single fit.
        Xt = np.swapaxes(self.X, 1, 2)
        if np.all(W == 1.0):
            G = Xt @ self.X
            return G if len(W) == len(G) else np.tile(G, (len(W) // len(G), 1, 1))
        return (Xt @ (self.X * self._per_draw(W)[..., None])).reshape(-1, p, p)

    def cross(self, W):
        """The ``(K, p)`` cross products ``X' w`` of the rows of ``W``."""
        if self.shared:
            return W @ self.X
        return (self._per_draw(W)[..., None, :] @ self.X)[..., 0, :].reshape(len(W), -1)

    def fitted(self, B):
        """The ``(K, n)`` fitted values ``X b`` of the rows of ``B``."""
        if self.shared:
            return B @ self.X.T
        return (self.X @ self._per_draw(B)[..., None])[..., 0].reshape(len(B), -1)

    def columns(self, W):
        """``W`` times each column of each fit's design, ``(K, n)`` arrays."""
        for x in np.moveaxis(self.X, -1, 0):
            yield (W.reshape(-1, *x.shape) * x).reshape(W.shape)

    def _per_draw(self, A):
        """A ``(K, ...)`` array of the fits as ``(K // k, k, ...)``: the
        fits of each design on its own axis."""
        return A.reshape(-1, len(self.X), *A.shape[1:])


def _rotate(a0, a1, s=None, d=None):
    """The sum and difference rows ``(a0 + a1) / sqrt 2`` and ``(a1 - a0) /
    sqrt 2`` of two aligned period arrays, written into ``s`` and ``d`` if
    given; ``d`` may be ``a1`` itself, which is read before it is written."""
    s = np.add(a0, a1, out=s)
    s /= _RT2
    d = np.subtract(a1, a0, out=d)
    d /= _RT2
    return s, d


def _rotated_rows(X0, X1, y0, y1):
    """The sum and difference rows of two aligned period blocks as the
    :class:`_Rows` pair ``(s, d)`` of a batch of fits; the blocks may carry
    a leading replicate axis."""
    (Xs, Xd), (ys, yd) = _rotate(X0, X1), _rotate(y0, y1)
    return _Rows(Xs, ys), _Rows(Xd, yd)


def _fit_lmm_batch(rows, C, bins=None, n_bins=0, random_intercept=True):
    """:func:`fit_lmm` on a batch of fits.

    ``rows`` is the :func:`_rotated_rows` pair of the design, shared by the
    batch or one per draw (:class:`_Rows`; several fits may share a draw's
    design).  Row r of the ``(k, n)`` count matrix ``C`` weights the n units
    of fit r: unit i enters it ``C[r, i]`` times (all ones for the fits of
    draws).  ``bins``, if given, is a ``(k, n)``
    array of bin labels in ``0 .. n_bins - 1``; fit r then appends to both
    period blocks the indicators of bins 1 to ``n_bins - 1`` under its own
    labels (the DRGLMM bin dummies).  Such unit-constant columns vanish
    from the difference rows and enter the sum rows times sqrt(2); their
    sums over units are bincounts, so no dummy matrix is formed.  Without
    the random intercept the variance ratio is held at 0: the fit is the
    least squares fit of the blocks stacked.

    Gram blocks and cross products are weighted by the counts, one batched
    eigendecomposition serves every fit, the 25-point grid is evaluated for
    all fits at once (one :func:`_profile_terms` call gives both the
    likelihood and the score), and :func:`_find_roots` finds every bracketed
    root in lockstep.  The flat bin labels are built once per call: every
    sum over bins is one ``bincount`` through them, and the residuals read
    each unit's bin coefficient through them.

    Returns
    -------
    _Fits
        Per fit: ``beta`` ``(k, p + n_bins - 1)``, ``log_lambda`` and the
        variance ratio ``lam`` it stands for, ``converged``, the weighted
        residual sum of squares ``rss`` and the GLS matrix ``A`` at the
        optimum, and ``status``: ``_RANK_DEFICIENT`` (:func:`_full_rank` on
        the sum and difference rows, which outranks every other failure),
        ``_NOT_PD`` (no Cholesky factor; the other outputs mean nothing),
        ``_FLAT`` (no finite point on the likelihood grid) or
        ``_DEGENERATE`` (no positive finite ``rss`` at the optimum).
        ``stats`` holds the profile statistics of :func:`_profile_terms`.
    """
    s, d = rows
    k = C.shape[0]
    units = C.sum(axis=1)
    p = s.X.shape[-1]
    q = 0 if bins is None else n_bins - 1
    m = p + q

    if q:
        # Unit i of fit r in bin j has the flat label r * n_bins + j.
        labels = (bins + n_bins * np.arange(k)[:, None]).ravel()

    def bin_sums(v):
        """Row by row, the sums of ``v`` over the units of bins 1 .. q."""
        sums = np.bincount(labels, weights=v.ravel(), minlength=k * n_bins)
        return sums.reshape(k, n_bins)[:, 1:]

    Gd = np.zeros((k, m, m))
    Gs = np.zeros((k, m, m))
    Gd[:, :p, :p] = d.gram(C)
    Gs[:, :p, :p] = s.gram(C)
    if q:
        cross = _RT2 * np.stack([bin_sums(v) for v in s.columns(C)], axis=2)
        Gs[:, p:, :p] = cross
        Gs[:, :p, p:] = np.swapaxes(cross, 1, 2)
        Gs[:, np.arange(p, m), np.arange(p, m)] = 2.0 * bin_sums(C)
    # Gd + Gs is the Gram of the two blocks stacked.  A Cholesky factor of
    # it is not a rank test (with exactly duplicated columns rounding can
    # leave a tiny positive pivot); _full_rank is.  The rotation is
    # orthogonal, so the sum and difference rows have the singular values
    # of the period blocks.
    G = Gd + Gs
    full = _full_rank(G, C, (s.X, d.X), bins)
    L = _each(np.linalg.cholesky, G)
    status = np.where(np.all(np.isfinite(L), axis=(1, 2)), _OK, _NOT_PD)
    # A fit without a factor is carried along on an identity one.
    L[status == _NOT_PD] = np.eye(m)

    def residuals(ed, es, b, into=None):
        """``ed - Xd b`` and ``es - Xs b``, the bin columns included, each
        written over its fitted values, or into the pair ``into`` (which
        may be ``ed, es``); the fitted values of one are freed before the
        other's are formed."""
        out = (None, None) if into is None else into
        fd = d.fitted(b[:, :p])
        rd = np.subtract(ed, fd, out=fd if out[0] is None else out[0])
        del fd
        fs = s.fitted(b[:, :p])
        if q:
            per_bin = np.concatenate([np.zeros((k, 1)), b[:, p:]], axis=1)
            in_bins = per_bin.ravel()[labels].reshape(k, -1)
            in_bins *= _RT2
            fs += in_bins
        return rd, np.subtract(es, fs, out=fs if out[1] is None else out[1])

    def counted_ss(r):
        """``np.sum(C * r * r, axis=1)``, its products formed in one array."""
        products = C * r
        products *= r
        return np.sum(products, axis=1)

    def crossprod(vd, vs):
        gd = np.zeros((k, m))
        gs = np.empty((k, m))
        gd[:, :p] = d.cross(C * vd)
        gs[:, :p] = s.cross(C * vs)
        if q:
            gs[:, p:] = _RT2 * bin_sums(C * vs)
        return gd, gs

    # V diagonalizes both blocks at once (V'Gs V = diag(mu), V'Gd V =
    # diag(1 - mu)).  Everything below works on the residual scale of the
    # stacked OLS fit, so a large response offset does not cancel in the
    # sums of squares or in the GLS step.
    V, mu = _simultaneous_basis(L, Gs)
    Vt = np.swapaxes(V, 1, 2)
    gd, gs = crossprod(d.y, s.y)
    beta0 = (V @ (Vt @ (gd + gs)[:, :, None]))[:, :, 0]
    rd, rs = residuals(d.y, s.y, beta0)
    gd, gs = crossprod(rd, rs)
    stats = (
        counted_ss(rd)[:, None],
        counted_ss(rs)[:, None],
        (Vt @ gd[:, :, None])[:, None, :, 0],
        (Vt @ gs[:, :, None])[:, None, :, 0],
        mu[:, None, :],
        units[:, None],
    )
    log_lambda = np.full(k, _LOG_LAMBDA_LO)
    converged = np.ones(k, dtype=bool)
    if random_intercept:
        at = np.arange(k)
        grid = np.linspace(_LOG_LAMBDA_LO, _LOG_LAMBDA_HI, _GRID_POINTS)
        terms = _profile_terms(grid, stats)
        ll, score = _loglik_of(terms, stats[-1]), _score_of(terms, stats[-1])
        j = np.argmax(ll, axis=1)
        a = np.maximum(j - 1, 0)
        b = np.minimum(j + 1, _GRID_POINTS - 1)
        bracket = (score[at, a] > 0.0) & (score[at, b] < 0.0)
        log_lambda = grid[j]
        best = ll[at, j]
        # Without a bracket the best grid point stands; it counts as
        # converged only on an edge of the grid with the score pointing out.
        converged = (((j == 0) & (score[:, 0] <= 0.0))
                     | ((j == _GRID_POINTS - 1) & (score[:, -1] >= 0.0)))
        i = np.flatnonzero(bracket)
        if i.size:
            sub = tuple(v[i] for v in stats)
            log_lambda[i], converged[i] = _find_roots(
                lambda x, *live: _score_of(_profile_terms(x[:, None], live), live[-1])[:, 0],
                grid[a[i]], grid[b[i]], score[i, a[i]], score[i, b[i]], sub)
            best[i] = _loglik_of(_profile_terms(log_lambda[i, None], sub), sub[-1])[:, 0]
        status[(status == _OK) & ~np.isfinite(ll).any(axis=1)] = _FLAT
        # A boundary value at least as good as the optimum puts the variance
        # ratio at exactly 0: the fit collapses to least squares.
        boundary = ll[:, 0] >= best
        log_lambda[boundary] = _LOG_LAMBDA_LO
        converged |= boundary
    lam = np.where(log_lambda <= _LOG_LAMBDA_LO + 1e-8, 0.0, np.exp(log_lambda))
    w = 1.0 / (1.0 + 2.0 * lam)
    A = Gd + w[:, None, None] * Gs
    # The GLS step from the stacked OLS fit, solved for on the residual
    # scale, and the residual sums of squares from explicit residuals.
    delta = _each(_solve, A, gd + w[:, None] * gs)
    # The residuals of the stacked OLS fit are dead once they are updated.
    rd, rs = residuals(rd, rs, delta, into=(rd, rs))
    rss = counted_ss(rd) + w * counted_ss(rs)
    status[(status == _OK) & ~(np.isfinite(rss) & (rss > 0.0))] = _DEGENERATE
    status[~full] = _RANK_DEFICIENT
    return _Fits(beta=beta0 + delta, log_lambda=log_lambda, lam=lam, converged=converged,
                 rss=rss, A=A, status=status, stats=stats)


def _fit_or_batch(rows, C):
    """:func:`fit_or`'s least squares on a batch of fits.

    ``rows`` is the :class:`_Rows` of the design and response, shared by
    the batch or one per draw, and row r of the ``(k, n)`` count
    matrix ``C`` weights the units of fit r.  Returns :class:`_Fits` with
    ``beta`` ``(k, p)``, the Gram matrices ``A``, and ``status``:
    ``_RANK_DEFICIENT`` where :func:`_full_rank` finds the design rank
    deficient on the fit's rows, else ``_NOT_PD`` where the Gram matrix is
    singular in floating point (``beta`` is not finite).
    """
    A = rows.gram(C)
    beta = _each(_solve, A, rows.cross(C * rows.y))
    status = np.where(np.all(np.isfinite(beta), axis=1), _OK, _NOT_PD)
    status[~_full_rank(A, C, (rows.X,))] = _RANK_DEFICIENT
    return _Fits(beta=beta, A=A, status=status)


def _fit_blocks(X0, X1, y0, y1, random_intercept=True):
    """:func:`_fit_lmm_batch` on a batch of one fit, with the checks of
    every single fit: shapes and finiteness raise."""
    X0, X1, y0, y1 = (np.asarray(a, dtype=float) for a in (X0, X1, y0, y1))
    if not (X0.ndim == 2 and X1.shape == X0.shape
            and y0.shape == y1.shape == (X0.shape[0],)):
        raise InvalidArgumentError(
            "design blocks must both be (n, p) with responses of length n"
        )
    if not all(np.all(np.isfinite(a)) for a in (X0, X1, y0, y1)):
        raise NonFiniteLikelihoodError("design or response contains non-finite values")
    with np.errstate(all="ignore"):
        return _fit_lmm_batch(_rotated_rows(X0[None], X1[None], y0[None], y1[None]),
                              np.ones((1, X0.shape[0])), random_intercept=random_intercept)


def _covariance(A, scale=1.0):
    """``scale * inv(A)``, or None where ``A`` is singular in floating
    point: no inverse, or a diagonal entry of ``inv(A)`` that is not
    positive (checked before scaling, so an exact fit's zero ``scale``
    gives zeros)."""
    try:
        inv = np.linalg.inv(A)
    except np.linalg.LinAlgError:
        return None
    return scale * inv if np.all(np.diag(inv) > 0.0) else None


def _lmm_result(model, beta, A, rss, N, n, lam=0.0, **rest):
    """The :class:`LMMFit` of a fit of ``model`` on ``n`` units and ``N``
    rows at variance ratio ``lam``, whose GLS matrix ``A`` (the Gram matrix
    at ``lam`` 0) gives the :func:`_covariance`, else ``_NOT_PD``'s error;
    ``rest`` holds its other fields.  The log-likelihood is +inf at ``rss``
    0."""
    s2 = rss / N
    cov = _covariance(A, s2)
    if cov is None:
        _raise_failure(_NOT_PD, model, len(beta))
    with np.errstate(divide="ignore"):
        loglik = -0.5 * N * (_LOG2PI + 1.0 + np.log(s2)) - 0.5 * n * np.log(1.0 + 2.0 * lam)
    return LMMFit(fixed_effects=beta, sigma_u2=lam * s2, sigma_e2=s2, loglik=float(loglik),
                  se_fixed=np.sqrt(np.diag(cov)), cov_fixed=cov, **rest)


def profile_loglik(X0, X1, y0, y1, log_lambda):
    """Profiled log-likelihood at a given ``log lambda`` (for diagnostics).

    Fixed effects and the residual variance are concentrated out, so this is
    the exact curve :func:`fit_lmm` maximizes on the same blocks.  Where the
    residual variance is degenerate the curve is ``-inf``, not an error.
    """
    fits = _fit_blocks(X0, X1, y0, y1)
    if fits.status[0] not in (_FLAT, _DEGENERATE):
        _raise_failure(fits.status[0], "mixed", fits.beta.shape[1])
    terms = _profile_terms(np.full((1, 1), float(log_lambda)), fits.stats)
    return float(_loglik_of(terms, fits.stats[-1])[0, 0])


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
        A non-finite input, zero residual variance, or nearly collinear
        columns (a Gram or GLS matrix singular in floating point).

    Notes
    -----
    After one O(n p) set-up (stacked OLS residuals and a generalized
    eigendecomposition of the sum-row and difference-row Gram blocks), the
    profiled likelihood and its score cost O(p) per ``log lambda``.  The
    likelihood is scanned on a 25-point grid over ``log lambda in [-12, 12]``
    in one vectorized evaluation.  If the score changes sign across the
    best grid point's bracket, :func:`_find_roots` finds its root; otherwise
    the best grid point stands, and it counts as converged only on an edge
    of the grid with the score pointing outward.  If the boundary value at
    -12 is at least as good as that optimum, the variance ratio is
    taken to be exactly 0 and the fit collapses to ordinary least squares.
    """
    return _fit_one(X0, X1, y0, y1)


def _fit_one(X0, X1, y0, y1, random_intercept=True):
    """:func:`fit_lmm`, or without the random intercept the least squares
    fit of the two blocks stacked (the variance ratio held at 0)."""
    fits = _fit_blocks(X0, X1, y0, y1, random_intercept)
    _raise_failure(fits.status[0], "mixed", fits.beta.shape[1])
    n = len(y0)
    return _lmm_result("mixed", fits.beta[0], fits.A[0], float(fits.rss[0]), 2 * n, n,
                       float(fits.lam[0]), converged=bool(fits.converged[0]),
                       log_lambda=float(fits.log_lambda[0]))


def fit_or(post_design, response):
    """Ordinary least squares in the :class:`LMMFit` shape (sigma_u2 = 0).

    Used for the post-period outcome regression.  An exact fit (zero
    residual sum of squares) reports ``sigma_e2 = 0`` and infinite
    log-likelihood rather than failing.

    Raises
    ------
    InvalidArgumentError
        ``post_design`` is not (n, p), or ``response`` is not of length n.
    RankDeficientDesignError
        The design has rank below p.
    NonFiniteLikelihoodError
        A non-finite input, or nearly collinear columns: a Gram matrix
        singular in floating point, which leaves no solution or no
        covariance.
    """
    X = np.asarray(post_design, dtype=float)
    y = np.asarray(response, dtype=float)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise InvalidArgumentError("design must be (n, p) with response of length n")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise NonFiniteLikelihoodError("design or response contains non-finite values")
    n, p = X.shape
    with np.errstate(all="ignore"):
        fits = _fit_or_batch(_Rows(X[None], y[None]), np.ones((1, n)))
    _raise_failure(fits.status[0], "post", p)
    beta = fits.beta[0]
    # From the residual vector: y'y - beta'X'y cancels catastrophically when
    # the response carries a large offset.  An exact fit still leaves
    # round-off residuals, which the relative floor maps to zero.
    resid = y - X @ beta
    rss = float(resid @ resid)
    if rss <= n * _EPS2 * float(y @ y):
        rss = 0.0
    return _lmm_result("post", beta, fits.A[0], rss, n, n, converged=True)
