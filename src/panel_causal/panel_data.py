"""Two-period panel data: records, validation, model terms, design matrices.

Everything downstream consumes one fixed longitudinal layout: each unit
contributes exactly two measurement rows, a pre-intervention row (t=0, never
treated) and a post-intervention row (t=1, treated or control).  Responses
and covariates must be complete; covariates may change between periods or
not, and which ones do is inferred from the data itself.

The module also owns the declarative model-term language.  A term is one of
intercept, time, treatment, a covariate main effect, a covariate-by-time or
covariate-by-treatment interaction, or a log transform of a covariate, with
string forms ``"1"``, ``"time"``, ``"treat"``, ``"x1"``, ``"x1:time"``,
``"x1:treat"`` and ``"log(x2)"``.  ``build_design`` turns a term list into
the post-period design (n rows, observed treatment) and the two
counterfactual post-period designs with treatment forced to 1 and to 0,
plus, for the mixed model, the aligned pre-period (t=0) design.
"""

import csv
import io
import os
import stat
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidArgumentError,
    InvalidTermError,
    MalformedValueError,
    MissingRowError,
    MissingValueError,
    NoOverlapError,
    NonBinaryTreatmentError,
    NonPositiveLogError,
    TimeVaryingDowngradeWarning,
    TreatedAtBaselineError,
    UnknownCovariateError,
    _warn,
)

__all__ = [
    "PanelDataset",
    "Term",
    "ModelSpec",
    "DesignMatrices",
    "ColumnMapping",
    "parse_term",
    "term_label",
    "build_design",
    "ps_design",
    "load_csv",
    "write_csv",
]


# ---------------------------------------------------------------------------
# dataset
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PanelDataset:
    """Validated two-period panel, stored column-wise for fast resampling.

    Parameters
    ----------
    covariate_names : tuple of str
        Ordered covariate identifiers.
    unit_ids : ndarray of object
        One id per unit.  Resampled datasets may repeat ids; estimators
        treat each stored pair of rows as its own cluster regardless.
    y0, y1 : ndarray
        Pre- and post-intervention responses.
    d1 : ndarray of int
        Post-intervention treatment indicator, 0 or 1.  Treatment at t=0
        is identically 0 and is not stored.
    x0, x1 : ndarray, shape (n, p)
        Covariate values at t=0 and t=1, columns aligned to
        ``covariate_names``.

    Notes
    -----
    ``time_varying_flags`` is derived, not declared: covariate j is flagged
    time-varying exactly when some unit has ``x0[i, j] != x1[i, j]``.
    All arrays are marked read-only after construction, so a dataset and
    the designs built from it can be shared without copies.
    """

    covariate_names: tuple
    unit_ids: np.ndarray
    y0: np.ndarray
    y1: np.ndarray
    d1: np.ndarray
    x0: np.ndarray
    x1: np.ndarray
    time_varying_flags: tuple = field(init=False)

    def __post_init__(self):
        names = tuple(str(c) for c in self.covariate_names)
        object.__setattr__(self, "covariate_names", names)
        # Copy everything: the arrays get frozen below and must not alias
        # (or flip the writeable flag of) caller-owned buffers.
        ids = np.array(self.unit_ids, dtype=object)
        y0 = np.array(self.y0, dtype=float)
        y1 = np.array(self.y1, dtype=float)
        d1 = np.array(self.d1)
        x0 = np.array(self.x0, dtype=float)
        x1 = np.array(self.x1, dtype=float)
        n = y0.shape[0]
        p = len(names)
        if not (ids.shape == (n,) and y1.shape == (n,) and d1.shape == (n,)):
            raise InvalidArgumentError("unit_ids, y0, y1 and d1 must all have length n")
        if x0.ndim != 2 or x0.shape != (n, p) or x1.shape != (n, p):
            raise InvalidArgumentError(
                f"covariate arrays must have shape ({n}, {p}); "
                f"got {x0.shape} and {x1.shape}"
            )
        if n == 0:
            raise InvalidArgumentError("dataset has no units")
        bad = (d1 != 0) & (d1 != 1)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise NonBinaryTreatmentError(
                f"treat must be 0 or 1; unit '{ids[i]}' has {d1[i]!r} at t=1"
            )
        d1 = d1.astype(np.int64)
        n_treated = int(d1.sum())
        if n_treated == 0 or n_treated == n:
            raise NoOverlapError(
                "need at least one treated and one control unit at t=1; "
                f"got {n_treated} treated of {n}"
            )
        for label, a in (("y", y0), ("y", y1), ("covariate", x0), ("covariate", x1)):
            if not np.all(np.isfinite(a)):
                raise MissingValueError(f"non-finite {label} value in dataset")
        flags = tuple(bool(np.any(x0[:, j] != x1[:, j])) for j in range(p))
        for name, a in (("unit_ids", ids), ("y0", y0), ("y1", y1),
                        ("d1", d1), ("x0", x0), ("x1", x1)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        object.__setattr__(self, "time_varying_flags", flags)

    @property
    def n(self):
        return self.y0.shape[0]

    @property
    def n_treated(self):
        return int(self.d1.sum())

    def covariate_index(self, name):
        try:
            return self.covariate_names.index(name)
        except ValueError:
            raise UnknownCovariateError(
                f"unknown covariate '{name}'; dataset has {self.covariate_names}"
            ) from None

    def take(self, indices):
        """Return a new dataset holding units ``indices``, repeats allowed.

        Each drawn unit carries both of its rows, and unit ids are copied
        as-is, so the result can contain duplicates.  The cluster bootstrap
        does not build its resamples this way: it counts each unit as often
        as it was drawn.  A resample built here is the dataset that count
        vector stands for.
        """
        idx = np.asarray(indices, dtype=np.intp)
        return PanelDataset(
            covariate_names=self.covariate_names,
            unit_ids=self.unit_ids[idx],
            y0=self.y0[idx],
            y1=self.y1[idx],
            d1=self.d1[idx],
            x0=self.x0[idx],
            x1=self.x1[idx],
        )

    def value_equal(self, other):
        """Exact value comparison, used by round-trip tests."""
        return (
            self.covariate_names == other.covariate_names
            and bool(np.all(self.unit_ids == other.unit_ids))
            and np.array_equal(self.y0, other.y0)
            and np.array_equal(self.y1, other.y1)
            and np.array_equal(self.d1, other.d1)
            and np.array_equal(self.x0, other.x0)
            and np.array_equal(self.x1, other.x1)
        )


# ---------------------------------------------------------------------------
# model terms
# ---------------------------------------------------------------------------

_BARE_KINDS = {"intercept", "time", "treatment"}
_NAMED_KINDS = {"covariate", "cov_time", "cov_treat", "log"}
_RESERVED = {"1", "intercept", "time", "t", "treat", "d", "treatment"}


@dataclass(frozen=True)
class Term:
    """A single fixed-effect column: what it is, and which covariate if any."""

    kind: str
    name: str = None

    def __post_init__(self):
        if self.kind in _BARE_KINDS:
            if self.name is not None:
                raise InvalidTermError(f"term kind '{self.kind}' takes no covariate name")
        elif self.kind in _NAMED_KINDS:
            if not self.name:
                raise InvalidTermError(f"term kind '{self.kind}' needs a covariate name")
        else:
            raise InvalidTermError(f"unknown term kind '{self.kind}'")


def parse_term(text):
    """Parse one term string into a :class:`Term`.

    Accepted forms: ``1``/``intercept``, ``time``/``t``, ``treat``/``d``/
    ``treatment``, a bare covariate name, ``name:time``, ``name:treat``,
    and ``log(name)``.
    """
    s = str(text).strip()
    if not s:
        raise InvalidTermError("empty term string")
    low = s.lower()
    if low in ("1", "intercept"):
        return Term("intercept")
    if low in ("time", "t"):
        return Term("time")
    if low in ("treat", "d", "treatment"):
        return Term("treatment")
    if low.startswith("log(") and s.endswith(")"):
        name = s[4:-1].strip()
        bad = not name or name.lower() in _RESERVED or ":" in name
        if bad or "(" in name or ")" in name:
            raise InvalidTermError(f"cannot parse term '{text}'")
        return Term("log", name)
    if ":" in s:
        name, _, suffix = s.partition(":")
        name = name.strip()
        suffix = suffix.strip().lower()
        if not name or name.lower() in _RESERVED or name.startswith("log("):
            raise InvalidTermError(f"cannot parse term '{text}'")
        if suffix in ("time", "t"):
            return Term("cov_time", name)
        if suffix in ("treat", "d", "treatment"):
            return Term("cov_treat", name)
        raise InvalidTermError(f"cannot parse term '{text}': unknown interaction '{suffix}'")
    if "(" in s or ")" in s:
        raise InvalidTermError(f"cannot parse term '{text}'")
    return Term("covariate", s)


def term_label(term):
    """Canonical string form of a term (inverse of :func:`parse_term`)."""
    if term.kind == "intercept":
        return "1"
    if term.kind == "time":
        return "time"
    if term.kind == "treatment":
        return "treat"
    if term.kind == "covariate":
        return term.name
    if term.kind == "cov_time":
        return f"{term.name}:time"
    if term.kind == "cov_treat":
        return f"{term.name}:treat"
    return f"log({term.name})"


def _coerce_terms(terms):
    """A term list, a list or tuple of :class:`Term` objects and term
    strings, as a tuple of :class:`Term`.  Nothing else is one: not a bare
    string, a mapping or other iterable, nor an entry such as 1 or None."""
    if not isinstance(terms, (list, tuple)):
        raise InvalidTermError(f"a term list must be a list or tuple of terms, got {terms!r}")
    for t in terms:
        if not isinstance(t, (Term, str)):
            raise InvalidTermError(f"a term must be a Term or a term string, got {t!r}")
    return tuple(t if isinstance(t, Term) else parse_term(t) for t in terms)


_PS_ALLOWED = {"intercept", "covariate", "log"}


def _check_ps_terms(terms):
    """Reject a treatment-model term that is not a function of
    pre-intervention covariates: a time or treatment term."""
    for t in terms:
        if t.kind not in _PS_ALLOWED:
            raise InvalidTermError(
                f"'{term_label(t)}' is not allowed in a propensity model: the "
                "treatment model is a function of pre-intervention covariates only"
            )


@dataclass(frozen=True)
class ModelSpec:
    """Declarative model: outcome terms, random effect, propensity terms.

    ``ps_terms`` describe the treatment-assignment model and may reference
    only pre-intervention covariate values, so time and treatment terms are
    rejected there.
    """

    outcome_terms: tuple = ()
    random_effect: str = "unit_intercept"
    ps_terms: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "outcome_terms", _coerce_terms(self.outcome_terms))
        object.__setattr__(self, "ps_terms", _coerce_terms(self.ps_terms))
        if self.random_effect not in ("none", "unit_intercept"):
            raise InvalidArgumentError(
                f"random_effect must be 'none' or 'unit_intercept', got {self.random_effect!r}"
            )
        _check_ps_terms(self.ps_terms)

    def to_dict(self):
        return {
            "outcome_terms": [term_label(t) for t in self.outcome_terms],
            "random_effect": self.random_effect,
            "ps_terms": [term_label(t) for t in self.ps_terms],
        }

    @classmethod
    def from_dict(cls, d):
        extra = set(d) - {"outcome_terms", "random_effect", "ps_terms"}
        if extra:
            raise InvalidArgumentError(f"unknown model spec fields: {sorted(extra)}")
        return cls(
            outcome_terms=d.get("outcome_terms", ()),
            random_effect=d.get("random_effect", "unit_intercept"),
            ps_terms=d.get("ps_terms", ()),
        )


# ---------------------------------------------------------------------------
# design construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DesignMatrices:
    """Design matrix bundle for one term list on one dataset.

    Every matrix has one row per unit, in dataset order.  ``X`` is the
    post-period (t=1) design with the observed treatment.  ``cf_treated``
    and ``cf_control`` are the post-period designs with the treatment
    column (and every treatment interaction) forced to 1 and to 0.  ``X0``
    is the pre-period (t=0) design when built with ``pre_period=True``,
    else None; row i of ``X0`` and row i of ``X`` are the two rows of
    unit i.
    """

    columns: tuple
    X: np.ndarray
    cf_treated: np.ndarray
    cf_control: np.ndarray
    X0: np.ndarray


def _covariate_at(data, name, t):
    j = data.covariate_index(name)
    return data.x1[:, j] if t == 1 else data.x0[:, j]


def _term_column(term, data, t, d):
    n = data.n
    if term.kind == "intercept":
        return np.ones(n)
    if term.kind == "time":
        return np.full(n, float(t))
    if term.kind == "treatment":
        return np.asarray(d, dtype=float)
    if term.kind == "covariate":
        return _covariate_at(data, term.name, t)
    if term.kind == "cov_time":
        if t == 0:
            return np.zeros(n)
        return _covariate_at(data, term.name, 1)
    if term.kind == "cov_treat":
        return _covariate_at(data, term.name, t) * d
    # log transform
    x = _covariate_at(data, term.name, t)
    if np.any(x <= 0.0):
        raise NonPositiveLogError(
            f"log({term.name}) requested but {term.name} has non-positive values"
        )
    return np.log(x)


def _matrix(terms, data, t, d):
    return np.column_stack([_term_column(tm, data, t, d) for tm in terms])


def build_design(data, spec, pre_period):
    """Materialize design matrices for ``spec.outcome_terms`` on ``data``.

    Parameters
    ----------
    data : PanelDataset
    spec : ModelSpec, or a list or tuple of terms
        Only the outcome terms are used here; see :func:`ps_design` for the
        treatment model.
    pre_period : bool
        True to build the t=0 block ``X0`` as well, which the mixed model
        needs; False evaluates no term at t=0.

    Returns
    -------
    DesignMatrices

    Raises
    ------
    UnknownCovariateError
        A term references a covariate the dataset does not have.
    NonPositiveLogError
        A log term hits a non-positive covariate value.
    """
    terms = spec.outcome_terms if isinstance(spec, ModelSpec) else _coerce_terms(spec)
    if not terms:
        raise InvalidTermError("outcome term list is empty")
    n = data.n
    zeros = np.zeros(n)
    cf_treated = _matrix(terms, data, 1, np.ones(n))
    cf_control = _matrix(terms, data, 1, zeros)
    # Only treatment terms depend on d, as a factor d in {0, 1}, so a unit's
    # observed row is its counterfactual row at its own treatment.
    X = np.where((data.d1 == 1)[:, None], cf_treated, cf_control)
    return DesignMatrices(
        columns=tuple(term_label(t) for t in terms),
        X=X,
        cf_treated=cf_treated,
        cf_control=cf_control,
        X0=_matrix(terms, data, 0, zeros) if pre_period else None,
    )


def ps_design(data, spec):
    """Build the treatment-model design from pre-intervention covariates.

    Returns ``(matrix, column_labels)``; the matrix has one row per unit and
    evaluates every term at its t=0 value.
    """
    terms = spec.ps_terms if isinstance(spec, ModelSpec) else _coerce_terms(spec)
    if not terms:
        raise InvalidTermError("propensity term list is empty")
    _check_ps_terms(terms)
    cols = [_term_column(tm, data, 0, None) for tm in terms]
    return np.column_stack(cols), tuple(term_label(t) for t in terms)


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ColumnMapping:
    """Column names for :func:`load_csv`, and optional declarations.

    ``covariates=None`` means every column beyond the four required ones is
    a covariate, in file order.  Covariates listed in ``time_invariant`` are
    expected to be constant within unit; if the data disagree the covariate
    is downgraded to time-varying with a warning rather than an error.
    """

    unit_id: str = "unit_id"
    time: str = "time"
    treat: str = "treat"
    y: str = "y"
    covariates: tuple = None
    time_invariant: tuple = ()


def _parse_01(raw, what, unit, exc):
    s = str(raw).strip()
    if s in ("0", "1"):
        return int(s)
    try:
        v = float(s)
    except ValueError:
        raise exc(f"{what} for unit '{unit}' is {raw!r}, expected 0 or 1") from None
    if v == 0.0 or v == 1.0:
        return int(v)
    raise exc(f"{what} for unit '{unit}' is {raw!r}, expected 0 or 1")


def _parse_float(raw, column, unit):
    s = "" if raw is None else str(raw).strip()
    if s == "" or s.lower() in ("na", "nan"):
        raise MissingValueError(f"missing value in column '{column}' for unit '{unit}'")
    try:
        v = float(s)
    except ValueError:
        raise MalformedValueError(
            f"cannot parse column '{column}' value {raw!r} for unit '{unit}'"
        ) from None
    if not np.isfinite(v):
        raise MissingValueError(f"non-finite value in column '{column}' for unit '{unit}'")
    return v


def load_csv(path, schema=None):
    r"""Load and validate a long-format two-period panel CSV.

    The file must have a header row with the ``unit_id``, ``time``,
    ``treat`` and ``y`` columns (names configurable through ``schema``);
    every other column is read as a covariate unless ``schema.covariates``
    narrows the list.  Cells may be quoted with ``"``; ``#`` is an ordinary
    character, not a comment.  Units come out in Python string order of
    their ids, each with its t=0 and t=1 values, whatever the row order.

    The file must be UTF-8 text: a compressed file must be decompressed
    first.  ``path`` is opened once.  An input that can be read only once,
    such as a pipe or ``/dev/stdin``, is read into memory once.

    The data rows are parsed column-wise by numpy's C reader and checked
    in vectorized form.  numpy is given the file's name, so that it reads
    the file in chunks rather than line by line; a pipe, a descriptor and
    a name ending in a suffix by which numpy would decompress the file
    (such as ``.gz``) are read from the open file or its text in memory
    instead.  Rows already in unit-then-time order, as :func:`write_csv`
    writes them, are paired without a sort; any other order costs one sort
    by id.  A file that fails any of those checks is parsed again one row
    at a time, from the same open file, which raises the typed error
    naming the first bad row, or returns the same dataset for cells only
    Python's ``float`` reads (such as ``1_000``) and for ids with a quoted
    line break inside, which numpy, opening the file itself, would read as
    ``\n``.

    Parameters
    ----------
    path : str, path-like or int
        A file name, or an open file descriptor, which is closed on return.
    schema : ColumnMapping, optional

    Returns
    -------
    PanelDataset

    Raises
    ------
    MissingRowError, NonBinaryTreatmentError, TreatedAtBaselineError,
    MissingValueError, MalformedValueError (also for a file that is not
    UTF-8), NoOverlapError
    """
    schema = schema or ColumnMapping()
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            source = _chunked_name(fh, path)
            if not fh.seekable():
                fh = io.StringIO(fh.read(), newline="")
            start = fh.tell()
            reader = csv.reader(fh)
            header, cov_names = _check_header(next(reader, None), path, schema)
            data = _load_columns(source or fh, reader.line_num, header, cov_names, schema)
            if data is None:
                fh.seek(start)
                data = _load_rows(fh, path, schema)
    except UnicodeDecodeError:
        raise MalformedValueError(
            f"{path}: not UTF-8 text (a compressed file must be decompressed first)"
        ) from None
    for name in schema.time_invariant:
        if name not in cov_names:
            raise MissingValueError(f"declared time-invariant column '{name}' not found")
        if data.time_varying_flags[cov_names.index(name)]:
            _warn(
                f"covariate '{name}' was declared time-invariant but differs across "
                "periods for some unit; treating it as time-varying",
                TimeVaryingDowngradeWarning,
            )
    return data


def _check_header(header, path, schema):
    """Check the header row (None for an empty file): returns ``(header,
    covariate names)``."""
    if header is None:
        raise MalformedValueError(f"{path}: empty file, header row required")
    # Cells are looked up by these names, so strip them:
    # "unit_id, time, treat, y" names the same columns as the bare form.
    header = [h.strip() for h in header]
    required = (schema.unit_id, schema.time, schema.treat, schema.y)
    for col in required:
        if col not in header:
            raise MissingValueError(f"{path}: required column '{col}' not found")
    if schema.covariates is None:
        cov_names = tuple(h for h in header if h not in required)
    else:
        cov_names = tuple(schema.covariates)
        for col in cov_names:
            if col not in header:
                raise MissingValueError(f"{path}: covariate column '{col}' not found")
    return header, cov_names


# Suffixes by which np.loadtxt, given a file name, picks a decompressor.
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")
_strip = np.frompyfunc(str.strip, 1, 1)


def _chunked_name(fh, path):
    """The name under which ``np.loadtxt`` may open ``fh``'s file again.

    numpy reads a file in chunks only when it opens the file itself, from
    a name; an open handle it reads line by line.  None for a pipe or
    other file that can be read only once, through ``fh``, and for a name
    with a suffix by which numpy would decompress a file.
    """
    if not (isinstance(path, (str, bytes, os.PathLike))
            and stat.S_ISREG(os.fstat(fh.fileno()).st_mode)):
        return None
    name = os.fsdecode(path)
    if os.path.splitext(name)[1] in _COMPRESSED:
        return None
    # A full path: numpy's opener would take a relative "a://b" for a URL.
    return os.path.join(os.getcwd(), name)


def _load_columns(source, header_lines, header, cov_names, schema):
    r"""Parse the data rows after the header in one ``np.loadtxt`` call.

    ``source`` is the file's name (see :func:`_chunked_name`), of which
    numpy skips the ``header_lines`` physical lines the header took, or
    else the open file, read on from the end of the header.  Opened by
    name, the file is read with universal newlines, which turn a quoted
    ``\r`` or ``\r\n`` into ``\n``, so a stripped id that holds a ``\n``
    is left to :func:`_load_rows`, which reads it as written.

    Rows whose ids already run in order, each unit's t=0 row then its t=1
    row, are paired as the even and odd rows, without a sort: the order
    :func:`write_csv` writes.  Any other order is sorted by id once, and
    each pair put in time order.

    Returns the dataset, or None when the file needs :func:`_load_rows`:
    besides the ids above, a cell numpy cannot parse, a short row, an
    empty id, a non-finite value, a time or treat not 0 or 1, treatment at
    t=0, or a unit without exactly one row per period.
    """
    by_name = isinstance(source, str)
    # A repeated header name means its last column, as in csv.DictReader.
    col = {name: i for i, name in enumerate(header)}
    names = (schema.unit_id, schema.time, schema.treat, schema.y) + cov_names
    usecols = [col[c] for c in names]
    fields = [f"c{k}" for k in range(len(names))]
    dtype = [(fields[0], object)] + [(f, np.float64) for f in fields[1:]]
    try:
        with warnings.catch_warnings():
            # e.g. "input contained no data": leave such files to the row loop.
            warnings.simplefilter("error")
            rec = np.loadtxt(
                source, dtype=dtype, usecols=usecols, delimiter=",", quotechar='"',
                comments=None, encoding="utf-8", ndmin=1,
                skiprows=header_lines if by_name else 0,
            )
    except (ValueError, Warning):
        return None
    ids = _strip(rec[fields[0]])
    t, d, y = rec[fields[1]], rec[fields[2]], rec[fields[3]]
    x = np.empty((len(rec), len(cov_names)))
    for j, f in enumerate(fields[4:]):
        x[:, j] = rec[f]
    if (len(rec) % 2 or not ((d == 0.0) | (d == 1.0)).all()
            or not np.isfinite(y).all() or not np.isfinite(x).all()):
        return None
    pre, post = slice(0, None, 2), slice(1, None, 2)
    if not _paired(ids, t, d, pre, post):
        order = np.argsort(ids, kind="stable")
        pre, post = order[0::2], order[1::2]
        swap = t[pre] > t[post]
        pre, post = np.where(swap, post, pre), np.where(swap, pre, post)
        if not _paired(ids, t, d, pre, post):
            return None
    if by_name and "\n" in "".join(ids[pre]):
        return None
    return PanelDataset(
        covariate_names=cov_names,
        unit_ids=ids[pre],
        y0=y[pre],
        y1=y[post],
        d1=d[post].astype(np.int64),
        x0=x[pre],
        x1=x[post],
    )


def _paired(ids, t, d, pre, post):
    """Whether rows ``pre[k]`` and ``post[k]`` are the t=0 and t=1 rows of
    unit k, for units in strictly increasing id order: then every row is
    in one pair, and every unit has one row per period.  The smallest id
    comes first, so it alone can be the empty id."""
    first = ids[pre]
    return bool(first[0] != "" and (first[1:] > first[:-1]).all()
                and (first == ids[post]).all()
                and (t[pre] == 0.0).all() and (t[post] == 1.0).all()
                and (d[pre] == 0.0).all())


def _load_rows(fh, path, schema):
    """Reference parser: one row at a time, in file order, from the open
    file ``fh`` placed at the start of the header row.

    It raises the typed error for the first row that breaks the layout;
    :func:`load_csv` calls it for every file the columnar parse refuses.
    ``path`` names the file in messages only.
    """
    header, cov_names = _check_header(next(csv.reader(fh), None), path, schema)
    rows = {}
    reader = csv.DictReader(fh, fieldnames=header)
    for lineno, raw in enumerate(reader, start=2):
        unit = str(raw.get(schema.unit_id, "") or "").strip()
        if not unit:
            raise MissingValueError(f"{path}:{lineno}: missing unit_id")
        t = _parse_01(raw.get(schema.time), "time", unit, MalformedValueError)
        d = _parse_01(raw.get(schema.treat), "treat", unit, NonBinaryTreatmentError)
        y = _parse_float(raw.get(schema.y), schema.y, unit)
        x = [_parse_float(raw.get(c), c, unit) for c in cov_names]
        key = (unit, t)
        if key in rows:
            raise MalformedValueError(f"{path}: duplicate row for unit '{unit}' at time {t}")
        rows[key] = (d, y, x)
    units = sorted({u for (u, _) in rows})
    if not units:
        raise MalformedValueError(f"{path}: no data rows")
    ids, y0, y1, d1, x0, x1 = [], [], [], [], [], []
    for unit in units:
        pre = rows.get((unit, 0))
        post = rows.get((unit, 1))
        if pre is None or post is None:
            missing = "t=0" if pre is None else "t=1"
            raise MissingRowError(f"unit '{unit}' lacks its {missing} row")
        if pre[0] != 0:
            raise TreatedAtBaselineError(f"unit '{unit}' has treat=1 at t=0")
        ids.append(unit)
        y0.append(pre[1])
        y1.append(post[1])
        d1.append(post[0])
        x0.append(pre[2])
        x1.append(post[2])
    return PanelDataset(
        covariate_names=cov_names,
        unit_ids=np.array(ids, dtype=object),
        y0=np.array(y0),
        y1=np.array(y1),
        d1=np.array(d1),
        x0=np.array(x0, dtype=float).reshape(len(ids), len(cov_names)),
        x1=np.array(x1, dtype=float).reshape(len(ids), len(cov_names)),
    )


# Units formatted per block by write_csv: bounds the strings held at once.
_WRITE_BLOCK = 4096


def _csv_cell(text):
    """``text`` as the csv module's default dialect writes it in a row of
    several cells: quoted, with quotes doubled, when it holds a comma, a
    quote or a line break."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _rows(ids, labels, y, x):
    """One period's data rows: id, the time and treat cells, y, covariates."""
    columns = [ids, labels, list(map(repr, y.tolist()))]
    columns += [list(map(repr, col.tolist())) for col in x.T]
    return list(map(",".join, zip(*columns)))


def write_csv(data, path, schema=None):
    """Write ``data`` in the normalized long format ``load_csv`` reads.

    Rows come out (unit, time) sorted in the dataset's stored order, floats
    in shortest round-trip form, so load/write/load is value-identical.
    The bytes are those of ``csv.writer`` writing one row at a time
    (``\r\n`` line ends, ids quoted where needed); the rows are formatted
    column by column, a block of units at a time.
    """
    schema = schema or ColumnMapping()
    header = [schema.unit_id, schema.time, schema.treat, schema.y, *data.covariate_names]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for lo in range(0, data.n, _WRITE_BLOCK):
            block = slice(lo, lo + _WRITE_BLOCK)
            ids = [_csv_cell(str(u)) for u in data.unit_ids[block]]
            pre = _rows(ids, ["0,0"] * len(ids), data.y0[block], data.x0[block])
            post = _rows(ids, np.where(data.d1[block] == 1, "1,1", "1,0").tolist(),
                         data.y1[block], data.x1[block])
            fh.write("".join(f"{a}\r\n{b}\r\n" for a, b in zip(pre, post)))
