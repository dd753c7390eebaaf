"""Population-averaged counterfactual contrasts over the random intercept.

Given per-unit linear predictors under treatment and control, the
population-averaged contrast integrates the inverse link over the random
intercept distribution:

    integral [ inv_link(eta1_i + u) - inv_link(eta0_i + u) ] N(u; 0, sigma_u2) du

For the identity link the integral collapses to ``eta1_i - eta0_i`` exactly.
For nonlinear links it is evaluated by Gauss-Hermite quadrature after the
change of variable ``u = sqrt(2 sigma_u2) x``, which maps the Gaussian
weight onto the Hermite weight ``exp(-x^2)``.

Nodes and weights come from the Golub-Welsch eigen-decomposition of the
Hermite Jacobi matrix by ``np.linalg.eigh``; nothing is hard-coded (numpy's
``hermgauss`` weights turn NaN from about 400 nodes).  Accuracy note: for
the logit link the paired low-order rules (say 20 vs 40 nodes) agree to
near machine precision while ``sigma_u2`` is small, but the integrand's
poles at ``eta + u = +/- i pi`` approach the real axis relative to the node
spacing as ``sigma_u2`` grows, so high-accuracy work at large variances
should simply raise K; the rule cost is O(K) per unit.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    InvalidArgumentError,
    InvalidVarianceError,
    NonFiniteLinearPredictorError,
)
from .glm_fit import expit

__all__ = [
    "LinkFunction",
    "QuadratureRule",
    "IDENTITY_LINK",
    "LOGIT_LINK",
    "link_function",
    "gauss_hermite_rule",
    "population_average_contrast",
]


@dataclass(frozen=True)
class LinkFunction:
    """A link by name plus its inverse ``mu = inv(eta)`` evaluator."""

    kind: str
    inverse: object


def _identity_inverse(eta):
    return np.asarray(eta, dtype=float)


IDENTITY_LINK = LinkFunction("identity", _identity_inverse)
LOGIT_LINK = LinkFunction("logit", expit)

_LINKS = {"identity": IDENTITY_LINK, "logit": LOGIT_LINK}


def link_function(kind):
    """Look up a shipped link by name ('identity' or 'logit')."""
    try:
        return _LINKS[kind]
    except KeyError:
        raise InvalidArgumentError(
            f"unknown link '{kind}'; available: {sorted(_LINKS)}"
        ) from None


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """K-point Gauss-Hermite rule for the weight function exp(-x^2)."""

    nodes: np.ndarray
    weights: np.ndarray
    K: int


@lru_cache(maxsize=32)
def _gh_cached(K):
    # Golub-Welsch: eigenvalues of the symmetric tridiagonal Jacobi matrix
    # are the nodes; weights are mu0 times the squared first eigenvector
    # components, with mu0 = integral exp(-x^2) = sqrt(pi).  At K = 1 the
    # matrix is the 1 x 1 zero: one node at 0 with weight sqrt(pi).
    off = np.sqrt(np.arange(1, K) / 2.0)
    nodes, vecs = np.linalg.eigh(np.diag(off, -1) + np.diag(off, 1))
    weights = np.sqrt(np.pi) * vecs[0] ** 2
    # The rule is symmetric by construction; make that exact in floating
    # point by averaging each node/weight with its mirror.
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (weights + weights[::-1])
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(nodes=nodes, weights=weights, K=K)


def gauss_hermite_rule(K):
    """Build (or fetch from cache) the K-point Gauss-Hermite rule.

    Weights are positive and sum to sqrt(pi); nodes are symmetric about 0.
    At very high orders (a few hundred nodes) the extreme weights underflow
    to zero in double precision, which is harmless for integration.
    """
    K = int(K)
    if K < 1:
        raise InvalidArgumentError(f"quadrature order must be at least 1, got {K}")
    return _gh_cached(K)


def population_average_contrast(eta1, eta0, sigma_u2, link, K=20):
    """Average the counterfactual contrast over the random intercept.

    Parameters
    ----------
    eta1, eta0 : ndarray
        Per-unit linear predictors under treatment and under control.
    sigma_u2 : float
        Random-intercept variance, >= 0.
    link : LinkFunction
    K : int
        Quadrature order for nonlinear links (default 20).

    Returns
    -------
    ndarray
        Per-unit contrasts, same length as the inputs.

    Raises
    ------
    InvalidVarianceError
        ``sigma_u2`` is negative (or not a number).
    NonFiniteLinearPredictorError
        A linear predictor is NaN or infinite.

    Notes
    -----
    The identity link short-circuits to ``eta1 - eta0`` exactly, for any
    variance.  ``sigma_u2 = 0`` short-circuits to the point-mass integral
    ``inv(eta1) - inv(eta0)``.  Swapping the two predictor vectors negates
    the output exactly, and a monotone inverse link preserves elementwise
    ordering of the inputs in the output sign.
    """
    e1 = np.asarray(eta1, dtype=float)
    e0 = np.asarray(eta0, dtype=float)
    if e1.shape != e0.shape or e1.ndim != 1:
        raise InvalidArgumentError("eta1 and eta0 must be 1-d arrays of equal length")
    if not (np.all(np.isfinite(e1)) and np.all(np.isfinite(e0))):
        raise NonFiniteLinearPredictorError("linear predictors must be finite")
    s2 = float(sigma_u2)
    if np.isnan(s2) or s2 < 0.0:
        raise InvalidVarianceError(f"sigma_u2 must be nonnegative, got {sigma_u2!r}")
    if link.kind == "identity":
        return e1 - e0
    if s2 == 0.0:
        return link.inverse(e1) - link.inverse(e0)
    rule = gauss_hermite_rule(K)
    u = np.sqrt(2.0 * s2) * rule.nodes
    diff = link.inverse(e1[:, None] + u) - link.inverse(e0[:, None] + u)
    return (diff @ rule.weights) / np.sqrt(np.pi)
