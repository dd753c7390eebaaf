"""Structured errors and warnings shared across the package.

Every error carries a stable ``kind`` tag, its class name without
``Error``, so callers (and the CLI, which prints failures as
``ERROR:<kind>:<message>``) can react without parsing prose.  Validation
problems, things wrong with input data or configuration before any model
is touched, exit with status 2; failures that occur during a computation
exit with status 1.
"""

import numbers
import os
import sys
import warnings


class PanelCausalError(Exception):
    """Base class for all structured errors raised by this package."""

    kind = "Error"
    exit_code = 1

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.kind = cls.__name__.removesuffix("Error")


class ValidationError(PanelCausalError):
    """Malformed or inconsistent input data or configuration."""

    exit_code = 2


# ---------------------------------------------------------------------------
# data loading and design construction
# ---------------------------------------------------------------------------

class MissingRowError(ValidationError):
    """A unit does not have both a t=0 and a t=1 row."""


class NonBinaryTreatmentError(ValidationError):
    """Treatment (or a binary outcome) takes a value outside {0, 1}."""


class TreatedAtBaselineError(ValidationError):
    """A unit is marked treated in the pre-intervention period."""


class MissingValueError(ValidationError):
    """A response or covariate value is absent or not finite."""


class MalformedValueError(ValidationError):
    """A cell cannot be parsed, or the file structure is inconsistent."""


class NoOverlapError(ValidationError):
    """All units are treated, or all are control."""


class UnknownCovariateError(ValidationError):
    """A model term references a covariate the dataset does not have."""


class NonPositiveLogError(ValidationError):
    """A log transform was requested for a non-positive covariate value."""


class InvalidTermError(ValidationError):
    """A model term string cannot be parsed or is not allowed there."""


class InvalidArgumentError(ValidationError):
    """A function or CLI argument is out of range or inconsistent."""


def _as_int(value, name):
    """``value`` as an int if it is integral (2.0 is, 2.7 and "2" are not)."""
    if isinstance(value, numbers.Integral) or (
            isinstance(value, numbers.Real) and float(value).is_integer()):
        return int(value)
    raise InvalidArgumentError(f"{name} must be an integer, got {value!r}")


# ---------------------------------------------------------------------------
# model fitting and numerical evaluation
# ---------------------------------------------------------------------------

class RankDeficientDesignError(PanelCausalError):
    """The design has linearly dependent columns on the rows it is fitted to."""


class SeparationError(PanelCausalError):
    """The logistic likelihood has no finite maximizer."""


class NoVariationInOutcomeError(PanelCausalError):
    """A binary outcome has a single class, so its model cannot be fitted."""


class NonFiniteLikelihoodError(PanelCausalError):
    """The likelihood cannot be evaluated: non-finite input, zero residual
    variance, or a matrix singular in floating point."""


class InvalidVarianceError(PanelCausalError):
    """A variance component is negative or NaN."""


class NonFiniteLinearPredictorError(PanelCausalError):
    """A linear predictor is not finite."""


class BootstrapFailureError(PanelCausalError):
    """Too few bootstrap replicates fitted to summarize them."""


# ---------------------------------------------------------------------------
# warnings
# ---------------------------------------------------------------------------

class PanelCausalWarning(UserWarning):
    """Base class for warnings emitted by this package."""


class TimeVaryingDowngradeWarning(PanelCausalWarning):
    """A covariate declared time-invariant varies across periods."""


class ExtremeWeightsWarning(PanelCausalWarning):
    """Fitted propensity scores close enough to 0 or 1 to destabilize weights."""


class DegenerateBinsWarning(PanelCausalWarning):
    """Propensity-score quantile bins collapsed because of ties."""


class BootstrapFailureWarning(PanelCausalWarning):
    """Five percent or more of bootstrap replicates failed to fit."""


class ReplicateFailureWarning(PanelCausalWarning):
    """More than one percent of simulation replicates failed for some cell."""


class DegenerateVarianceWarning(PanelCausalWarning):
    """A test statistic had zero variance and was guarded to 0."""


class EmptyModelWarning(PanelCausalWarning):
    """Backward elimination removed every candidate term."""


_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


def _warn(message, category):
    """Issue a warning at the first frame outside this package: the line of
    the caller that led to it, however deep in the package it arose."""
    frame, level = sys._getframe(1), 2
    while frame.f_back is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=level)
