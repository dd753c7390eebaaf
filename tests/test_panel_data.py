import contextlib
import itertools
import os
import re
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from panel_causal import (
    ColumnMapping,
    Scenario,
    InvalidArgumentError,
    InvalidTermError,
    MalformedValueError,
    MissingRowError,
    MissingValueError,
    ModelSpec,
    NoOverlapError,
    NonBinaryTreatmentError,
    NonPositiveLogError,
    PanelDataset,
    TimeVaryingDowngradeWarning,
    TreatedAtBaselineError,
    UnknownCovariateError,
    build_design,
    generate_scenario,
    load_csv,
    parse_term,
    ps_design,
    term_label,
    write_csv,
)
from panel_causal import panel_data

from helpers import make_dataset, write_csv_rows


WELL_FORMED = """unit_id,time,treat,y,x1,x2
a,0,0,1.5,10.0,2.0
a,1,1,6.5,11.0,2.0
b,0,0,2.5,9.0,1.0
b,1,1,8.0,9.5,1.0
c,0,0,2.0,8.0,3.0
c,1,0,3.0,8.5,3.0
d,0,0,4.0,12.0,4.0
d,1,0,5.0,12.5,4.0
"""


def write_file(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestLoadCsv:
    def test_well_formed_four_units(self, tmp_path):
        data = load_csv(write_file(tmp_path, WELL_FORMED))
        assert data.n == 4
        assert data.covariate_names == ("x1", "x2")
        assert list(data.unit_ids) == ["a", "b", "c", "d"]
        assert data.d1.tolist() == [1, 1, 0, 0]
        assert data.y0.tolist() == [1.5, 2.5, 2.0, 4.0]
        assert data.y1.tolist() == [6.5, 8.0, 3.0, 5.0]
        assert data.x0[:, 0].tolist() == [10.0, 9.0, 8.0, 12.0]
        assert data.x1[:, 0].tolist() == [11.0, 9.5, 8.5, 12.5]
        # x1 varies across periods, x2 does not
        assert data.time_varying_flags == (True, False)

    def test_row_order_normalized(self, tmp_path):
        lines = WELL_FORMED.strip().split("\n")
        shuffled = [lines[0]] + lines[1:][::-1]
        data = load_csv(write_file(tmp_path, "\n".join(shuffled) + "\n"))
        ref = load_csv(write_file(tmp_path, WELL_FORMED, name="ref.csv"))
        assert list(data.unit_ids) == list(ref.unit_ids)
        np.testing.assert_array_equal(data.y0, ref.y0)
        np.testing.assert_array_equal(data.x1, ref.x1)

    def test_treated_at_baseline(self, tmp_path):
        bad = WELL_FORMED.replace("a,0,0,1.5", "a,0,1,1.5")
        with pytest.raises(TreatedAtBaselineError):
            load_csv(write_file(tmp_path, bad))

    def test_missing_period_row(self, tmp_path):
        lines = WELL_FORMED.strip().split("\n")
        del lines[4]  # b's t=1 row
        with pytest.raises(MissingRowError, match="'b'"):
            load_csv(write_file(tmp_path, "\n".join(lines) + "\n"))

    def test_duplicate_row(self, tmp_path):
        dup = WELL_FORMED + "d,1,0,5.0,12.5,4.0\n"
        with pytest.raises(MalformedValueError, match="duplicate"):
            load_csv(write_file(tmp_path, dup))

    def test_non_binary_treatment(self, tmp_path):
        bad = WELL_FORMED.replace("b,1,1,8.0", "b,1,2,8.0")
        with pytest.raises(NonBinaryTreatmentError):
            load_csv(write_file(tmp_path, bad))

    def test_missing_value(self, tmp_path):
        bad = WELL_FORMED.replace("c,1,0,3.0", "c,1,0,")
        with pytest.raises(MissingValueError):
            load_csv(write_file(tmp_path, bad))

    def test_malformed_value(self, tmp_path):
        bad = WELL_FORMED.replace("c,1,0,3.0", "c,1,0,three")
        with pytest.raises(MalformedValueError):
            load_csv(write_file(tmp_path, bad))

    def test_no_overlap(self, tmp_path):
        bad = WELL_FORMED.replace("c,1,0", "c,1,1").replace("d,1,0", "d,1,1")
        with pytest.raises(NoOverlapError):
            load_csv(write_file(tmp_path, bad))

    def test_missing_required_column(self, tmp_path):
        with pytest.raises(MissingValueError, match="treat"):
            load_csv(write_file(tmp_path, "unit_id,time,y\na,0,1.0\n"))

    def test_declared_invariant_downgraded(self, tmp_path):
        schema = ColumnMapping(time_invariant=("x1",))
        with pytest.warns(TimeVaryingDowngradeWarning, match="x1"):
            data = load_csv(write_file(tmp_path, WELL_FORMED), schema=schema)
        assert data.time_varying_flags[0] is True

    def test_declared_invariant_consistent_no_warning(self, tmp_path):
        import warnings

        schema = ColumnMapping(time_invariant=("x2",))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = load_csv(write_file(tmp_path, WELL_FORMED), schema=schema)
        assert data.time_varying_flags[1] is False

    def test_custom_schema_names(self, tmp_path):
        text = WELL_FORMED.replace("unit_id,time,treat,y", "id,period,d,resp")
        schema = ColumnMapping(unit_id="id", time="period", treat="d", y="resp")
        data = load_csv(write_file(tmp_path, text), schema=schema)
        assert data.n == 4

    def test_covariate_subset_selection(self, tmp_path):
        schema = ColumnMapping(covariates=("x2",))
        data = load_csv(write_file(tmp_path, WELL_FORMED), schema=schema)
        assert data.covariate_names == ("x2",)
        assert data.x0.shape == (4, 1)

    def test_spaces_after_the_commas(self, tmp_path):
        spaced = WELL_FORMED.replace(",", ", ")
        data = load_csv(write_file(tmp_path, spaced))
        plain = load_csv(write_file(tmp_path, WELL_FORMED, name="plain.csv"))
        assert data.covariate_names == ("x1", "x2")
        assert list(data.unit_ids) == list(plain.unit_ids)
        np.testing.assert_array_equal(data.y0, plain.y0)
        np.testing.assert_array_equal(data.y1, plain.y1)
        np.testing.assert_array_equal(data.d1, plain.d1)
        np.testing.assert_array_equal(data.x0, plain.x0)
        np.testing.assert_array_equal(data.x1, plain.x1)

    def test_readme_header_is_the_written_header(self, tmp_path):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("### Data format", 1)[1]
        block = re.search(r"```\n(.*?)```", section, re.S).group(1)
        out = tmp_path / "written.csv"
        write_csv(generate_scenario(Scenario("HOM", 5), 0), out)
        assert block.splitlines()[0] == out.read_text().splitlines()[0]

    def test_round_trip_value_identical(self, tmp_path):
        first = load_csv(write_file(tmp_path, WELL_FORMED))
        out = tmp_path / "rewritten.csv"
        write_csv(first, out)
        second = load_csv(out)
        assert list(first.unit_ids) == list(second.unit_ids)
        np.testing.assert_array_equal(first.y0, second.y0)
        np.testing.assert_array_equal(first.y1, second.y1)
        np.testing.assert_array_equal(first.d1, second.d1)
        np.testing.assert_array_equal(first.x0, second.x0)
        np.testing.assert_array_equal(first.x1, second.x1)

    def test_round_trip_awkward_floats(self, tmp_path):
        rng = np.random.default_rng(5)
        data = make_dataset(
            y0=rng.standard_normal(5) * 1e-7,
            y1=rng.standard_normal(5) * 1e12,
            d1=[1, 0, 1, 0, 0],
            covariates=[rng.standard_normal(5) / 3.0],
        )
        out = tmp_path / "awkward.csv"
        write_csv(data, out)
        back = load_csv(out)
        np.testing.assert_array_equal(back.y0, data.y0)
        np.testing.assert_array_equal(back.y1, data.y1)
        np.testing.assert_array_equal(back.x0, data.x0)


def _row_loop_forbidden(fh, path, schema):
    raise AssertionError(f"{path} was handed to the row loop")


def _row_loop(path, schema=ColumnMapping()):
    """The reference parser's reading of the file at ``path``."""
    with open(path, newline="", encoding="utf-8") as fh:
        return panel_data._load_rows(fh, path, schema)


def _well_formed_with_ids(ids):
    """WELL_FORMED's values under the given unit ids (in file order a-d)."""
    return make_dataset(
        y0=[1.5, 2.5, 2.0, 4.0], y1=[6.5, 8.0, 3.0, 5.0], d1=[1, 1, 0, 0],
        covariates=[[10.0, 9.0, 8.0, 12.0], [2.0, 1.0, 3.0, 4.0]],
        covariates_post=[[11.0, 9.5, 8.5, 12.5], [2.0, 1.0, 3.0, 4.0]],
        unit_ids=ids,
    )


def _assert_loads_like_the_row_loop(path, schema=ColumnMapping()):
    """load_csv returns the row loop's dataset, or raises its error."""
    try:
        expected = _row_loop(path, schema)
    except Exception as exc:  # the error is the result under comparison
        with pytest.raises(type(exc)) as got:
            load_csv(path, schema)
        assert type(got.value) is type(exc)
        assert str(got.value) == str(exc)
        return
    got = load_csv(path, schema)
    assert got.value_equal(expected)
    assert got.time_varying_flags == expected.time_varying_flags


LONG_ID = "a" * 40
NON_ASCII_ID = "\u00fc-\u6771\u4eac-\U0001d11e"  # sorts after "c", like "d"

# Files numpy's reader misreads under its defaults (comments="#", no
# quoting, fixed-width strings, a header of one physical line), and rows
# in unit order but with each unit's t=1 row first, each with the unit
# ids it must yield.
C_READER_TRAPS = {
    "hash_in_id": (WELL_FORMED.replace("\na,", "\na#1,"), ["a#1", "b", "c", "d"]),
    "quoted_comma_in_id": (WELL_FORMED.replace("\nb,", '\n"b,2",'),
                           ["a", "b,2", "c", "d"]),
    "long_and_non_ascii_ids": (
        WELL_FORMED.replace("\na,", f"\n{LONG_ID},").replace("\nd,", f"\n{NON_ASCII_ID},"),
        [LONG_ID, "b", "c", NON_ASCII_ID],
    ),
    "crlf": (WELL_FORMED.replace("\n", "\r\n"), ["a", "b", "c", "d"]),
    "blank_lines_between_units": (
        WELL_FORMED.replace("\nb,0", "\n\nb,0").replace("\nd,0", "\n\n\nd,0"),
        ["a", "b", "c", "d"],
    ),
    "line_break_in_header_cell": (WELL_FORMED.replace(",x2\n", ',"x2\r\n"\n'),
                                  ["a", "b", "c", "d"]),
    "t1_row_first": (
        "\n".join([WELL_FORMED.splitlines()[0]] + [
            line for pair in zip(WELL_FORMED.splitlines()[2::2],
                                 WELL_FORMED.splitlines()[1::2]) for line in pair
        ]) + "\n",
        ["a", "b", "c", "d"],
    ),
}


class TestColumnarParse:
    @pytest.mark.parametrize("name", sorted(C_READER_TRAPS))
    def test_c_reader_trap_loads_as_the_row_loop_reads_it(self, name, tmp_path,
                                                            monkeypatch):
        text, ids = C_READER_TRAPS[name]
        path = write_file(tmp_path, text)
        expected = _well_formed_with_ids(ids)
        assert _row_loop(path).value_equal(expected)
        # Clean files never need the row loop.
        monkeypatch.setattr(panel_data, "_load_rows", _row_loop_forbidden)
        data = load_csv(path)
        assert list(data.unit_ids) == ids
        assert data.value_equal(expected)
        assert data.time_varying_flags == expected.time_varying_flags

    def test_underscore_digits_load_through_the_row_loop(self, tmp_path):
        # numpy rejects "1_0.0"; Python's float() reads it as 10.0.
        data = load_csv(write_file(tmp_path, WELL_FORMED.replace("a,0,0,1.5,10.0",
                                                                 "a,0,0,1.5,1_0.0")))
        assert data.value_equal(_well_formed_with_ids(["a", "b", "c", "d"]))

    def test_whitespace_only_line_is_a_missing_unit_id(self, tmp_path):
        with pytest.raises(MissingValueError, match=":10: missing unit_id"):
            load_csv(write_file(tmp_path, WELL_FORMED + "   \n"))

    @pytest.mark.parametrize("text, schema", [
        (WELL_FORMED.replace("x1,x2\n", "x1,x1\n"), ColumnMapping()),
        (WELL_FORMED, ColumnMapping(covariates=("y", "x2"))),
        (WELL_FORMED.replace("\na,", "\n7,").replace("\nb,", "\n5,"),
         ColumnMapping(covariates=("unit_id",))),
        (WELL_FORMED, ColumnMapping(covariates=("unit_id",))),
    ], ids=["repeated_header_name", "y_as_covariate", "numeric_ids_as_covariate",
            "text_ids_as_covariate"])
    def test_a_column_read_twice_matches_the_row_loop(self, text, schema, tmp_path):
        _assert_loads_like_the_row_loop(write_file(tmp_path, text), schema)

    def test_downgrade_warning_on_the_columnar_path(self, tmp_path, monkeypatch):
        monkeypatch.setattr(panel_data, "_load_rows", _row_loop_forbidden)
        path = write_file(tmp_path, C_READER_TRAPS["blank_lines_between_units"][0])
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            load_csv(path, schema=ColumnMapping(time_invariant=("x1",)))
        assert [w.category for w in seen] == [TimeVaryingDowngradeWarning]
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            load_csv(path, schema=ColumnMapping(time_invariant=("x2",)))
        assert seen == []


# Ways to spell every unit id of a file: quoted, with "#" (not a comment),
# quoted with a comma, long and non-ASCII (no fixed-width truncation), and
# quoted with a line break inside (read as written, not as "\n").
_ID_FORMS = {
    "plain": lambda u: u,
    "quoted": lambda u: f'"{u}"',
    "hash": lambda u: f"{u}#1",
    "comma": lambda u: f'"{u},1"',
    "long": lambda u: "\u00fc\u6771" * 20 + u,
    "lf": lambda u: f'"{u}\n1"',
    "crlf": lambda u: f'"{u}\r\n1"',
    "cr": lambda u: f'"{u}\r1"',
}
# Defects in single rows: (kind, row, column, choice, float); row and
# column are taken modulo the current sizes.
_DEFECTS = ("awkward", "missing", "blank_id", "rename", "nonbinary_time",
            "nonbinary_treat", "short", "long", "blank", "duplicate", "duplicate_unit",
            "drop", "truncate", "treated_at_baseline", "quote")
_AWKWARD = ("1e-300", "1e400", "-0.0", "1_000", "1e-320")


def _panel_lines(data, id_form, t0, t1):
    """The rows write_csv writes for ``data``, as cells, ids and times respelled."""
    lines = []
    for i in range(data.n):
        uid = id_form(str(data.unit_ids[i]))
        lines.append([uid, t0, t0, repr(float(data.y0[i])), *map(repr, data.x0[i].tolist())])
        lines.append([uid, t1, (t0, t1)[int(data.d1[i])], repr(float(data.y1[i])),
                      *map(repr, data.x1[i].tolist())])
    return lines


def _damage(lines, defect, t0, t1):
    """Apply one defect to ``lines`` in place; blank lines are strings."""
    kind, i, j, k, v = defect
    if not lines or isinstance(lines[i % len(lines)], str):
        return
    i %= len(lines)
    row = lines[i]
    j %= len(row)
    if kind == "awkward" and j >= 3:
        row[j] = _AWKWARD[k % len(_AWKWARD)] if k % 2 else repr(v)
    elif kind == "missing":
        row[j] = ("nan", "NA", "", " ")[k % 4]
    elif kind == "blank_id":
        for r in lines:
            if isinstance(r, list) and r[0] == row[0]:
                r[0] = " " * (k % 2)
    elif kind == "rename":
        # The unit keeps one row; its other row makes a unit that sorts
        # right after it.
        row[0] = row[0] + "x"
    elif kind in ("nonbinary_time", "nonbinary_treat"):
        row[1 if kind == "nonbinary_time" else 2] = ("2", "0.5", "-1", "nan", "1e0")[k % 5]
    elif kind == "short":
        del row[max(1, len(row) - 1 - k % 2):]
    elif kind == "long":
        row.append(str(k))
    elif kind == "blank":
        lines.insert(i, " " * (k % 3))
    elif kind == "duplicate":
        lines.insert(k % len(lines), list(row))
    elif kind == "duplicate_unit":
        # Both rows again: the row count stays even.
        unit = [list(r) for r in lines if isinstance(r, list) and r[0] == row[0]]
        lines[k % len(lines):k % len(lines)] = unit
    elif kind == "drop":
        del lines[i]
    elif kind == "truncate":
        del lines[k % 3:]
    elif kind == "treated_at_baseline" and row[1] == t0:
        row[2] = t1
    elif kind == "quote":
        row[0] = '"' + row[0] + (",x" if k % 2 else "") + '"'


def _write_panel_file(path, covariate_names, lines, pad="", newline="\n"):
    header = ["unit_id", "time", "treat", "y", *covariate_names]
    body = [r if isinstance(r, str) else ",".join(pad + c + pad for c in r)
            for r in [header] + lines]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(newline.join(body) + newline)


@st.composite
def _mutated_panels(draw):
    """A random HOM/HET panel, rows in write_csv's order, with each unit's
    t=1 row first, or shuffled; restyled and damaged."""
    scenario = draw(st.sampled_from(["HOM", "HET"]))
    n = draw(st.integers(4, 10))
    seed = draw(st.integers(0, 2**31 - 1))
    try:
        data = generate_scenario(Scenario(scenario, n), seed)
    except NoOverlapError:
        assume(False)
    id_form = _ID_FORMS[draw(st.sampled_from(sorted(_ID_FORMS)))]
    t0, t1 = draw(st.sampled_from([("0", "1"), ("0.0", "1.0")]))
    lines = _panel_lines(data, id_form, t0, t1)
    order = draw(st.sampled_from(["written", "t1_first", "shuffled"]))
    if order == "t1_first":
        lines[0::2], lines[1::2] = lines[1::2], lines[0::2]
    elif order == "shuffled":
        lines = draw(st.permutations(lines))
    lines = [list(r) for r in lines]
    defects = draw(st.lists(st.tuples(st.sampled_from(_DEFECTS), st.integers(0, 999),
                                      st.integers(0, 999), st.integers(0, 999),
                                      st.floats()),
                            max_size=2))
    for defect in defects:
        _damage(lines, defect, t0, t1)
    pad = " " * draw(st.integers(0, 2))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return data.covariate_names, lines, pad, newline


# No shrink phase: a failing example of this many is reported as found.
# Shrinking one ran for minutes at hundreds of MB and decided nothing that
# the failure did not already show.
@settings(max_examples=300, phases=[p for p in Phase if p is not Phase.shrink])
@given(panel=_mutated_panels())
def test_columnar_parse_matches_the_row_loop(panel):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "panel.csv")
        _write_panel_file(path, *panel)
        _assert_loads_like_the_row_loop(path)


def _each_defect_alone(path):
    """Write each single defect in turn to ``path``, with the rows in unit
    order, each unit's t=0 row first or its t=1 row first; yields after
    each write."""
    data = generate_scenario(Scenario("HOM", 6), 0)
    floats = (0.1, float("nan"), float("inf"), 5e-324, -1.5)
    for t1_first, kind in itertools.product((False, True), _DEFECTS):
        for i, j, k in itertools.product((0, 7), (0, 1, 2, 3, 5), range(5)):
            lines = _panel_lines(data, str, "0", "1")
            if t1_first:
                lines[0::2], lines[1::2] = lines[1::2], lines[0::2]
            _damage(lines, (kind, i, j, k, floats[k]), "0", "1")
            _write_panel_file(path, data.covariate_names, lines)
            yield


def test_each_defect_alone_matches_the_row_loop(tmp_path):
    # In a file named .csv or .csv.gz (plain text all the same).
    for name in ("panel.csv", "panel.csv.gz"):
        for _ in _each_defect_alone(tmp_path / name):
            _assert_loads_like_the_row_loop(tmp_path / name)


@contextlib.contextmanager
def _pipe_of(path):
    """The ``/dev/fd`` name of a pipe that a writer thread fills with the
    bytes of the file at ``path``."""
    data = Path(path).read_bytes()
    r, w = os.pipe()

    def write():
        with open(w, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=write)
    writer.start()
    try:
        yield f"/dev/fd/{r}"
    finally:
        os.close(r)  # a writer still blocked then fails, and ends
        writer.join()


def _assert_loads_like_the_file(source, path):
    """load_csv reads ``source``, which holds the bytes of the file at
    ``path``, as it reads ``path``: the same dataset, or the same error
    under the other name."""
    try:
        expected = load_csv(path)
    except Exception as exc:  # the error is the result under comparison
        with pytest.raises(type(exc)) as got:
            load_csv(source)
        assert type(got.value) is type(exc)
        assert (str(got.value).removeprefix(f"{source}:")
                == str(exc).removeprefix(f"{path}:"))
        return
    assert load_csv(source).value_equal(expected)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_each_defect_alone_loads_alike_from_a_pipe_and_a_descriptor(tmp_path):
    # Neither can be opened again by name: the row loop must read on from
    # the one open file.
    path = tmp_path / "panel.csv"
    for _ in _each_defect_alone(path):
        with _pipe_of(path) as pipe:
            _assert_loads_like_the_file(pipe, path)
        _assert_loads_like_the_file(os.open(path, os.O_RDONLY), path)  # load_csv closes it


@pytest.mark.parametrize("text", [
    WELL_FORMED.replace("a,0,0,1.5,10.0", "a,0,0,1.5,1_0.0"),
    WELL_FORMED.replace("a,0,0,1.5,10.0,2.0\n", ""),
], ids=["underscore_digits", "missing_row"])
def test_a_file_the_columnar_parse_refuses_is_opened_once(tmp_path, monkeypatch, text):
    path = write_file(tmp_path, text)
    opened = []

    def spy(file, *args, **kwargs):
        opened.append(file)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(panel_data, "open", spy, raising=False)
    _assert_loads_like_the_row_loop(path)
    assert opened == [path]


def _spy_on_loadtxt(monkeypatch):
    """The first arguments of numpy.loadtxt as panel_data calls it; the
    row loop is forbidden."""
    seen = []
    loadtxt = np.loadtxt

    def spy(fname, *args, **kwargs):
        seen.append(fname)
        return loadtxt(fname, *args, **kwargs)

    monkeypatch.setattr(panel_data.np, "loadtxt", spy)
    monkeypatch.setattr(panel_data, "_load_rows", _row_loop_forbidden)
    return seen


def test_a_clean_file_reaches_numpy_as_a_path(tmp_path, monkeypatch):
    # numpy reads a file in chunks only when given its name; an open file
    # it reads line by line.
    seen = _spy_on_loadtxt(monkeypatch)
    path = write_file(tmp_path, WELL_FORMED)
    for name in (path, str(path), os.fsencode(path)):
        assert load_csv(name).value_equal(_well_formed_with_ids(["a", "b", "c", "d"]))
    assert [type(f) for f in seen] == [str] * 3
    assert all(os.path.samefile(f, path) for f in seen)


@pytest.mark.parametrize("source", ["compressed_suffix", "descriptor"])
def test_a_file_numpy_cannot_open_by_name_is_read_from_the_open_file(tmp_path, monkeypatch,
                                                                      source):
    # Given the name, numpy would gunzip this plain-text file; a file
    # descriptor has no name.
    seen = _spy_on_loadtxt(monkeypatch)
    if source == "compressed_suffix":
        source = write_file(tmp_path, WELL_FORMED, name="data.csv.gz")
    else:
        source = os.open(write_file(tmp_path, WELL_FORMED), os.O_RDONLY)  # load_csv closes it
    assert load_csv(source).value_equal(_well_formed_with_ids(["a", "b", "c", "d"]))
    assert len(seen) == 1 and not isinstance(seen[0], (str, bytes, os.PathLike))


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_a_pipe_is_read_once_from_the_open_file(tmp_path, monkeypatch):
    # Opened again by name, a pipe would go on after the bytes the header
    # read took from it.  The panel is many times a read buffer.
    data = generate_scenario(Scenario("HOM", 2000), 0)
    path = tmp_path / "panel.csv"
    write_csv(data, path)
    seen = _spy_on_loadtxt(monkeypatch)
    with _pipe_of(path) as pipe:
        got = load_csv(pipe)
    assert got.value_equal(load_csv(path))
    assert not isinstance(seen[0], (str, bytes, os.PathLike))


def test_a_relative_name_that_parses_as_a_url_is_read_from_disk(tmp_path, monkeypatch):
    # numpy's opener takes "x://host/..." for a URL; "x:" is a directory
    # here, and "x" a scheme that no URL opener knows.
    (tmp_path / "x:" / "host").mkdir(parents=True)
    write_file(tmp_path / "x:" / "host", WELL_FORMED)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(panel_data, "_load_rows", _row_loop_forbidden)
    data = load_csv("x://host/data.csv")
    assert data.value_equal(_well_formed_with_ids(["a", "b", "c", "d"]))


_AWKWARD_VALUES = (-0.0, 0.0, 5e-324, 2.2250738585072e-308, 1e16, -1e16,
                   9007199254740993.0, 1e-300, 0.1, 1.0 / 3.0)


@st.composite
def _writable_panels(draw):
    n = draw(st.integers(2, 12))
    ids = draw(st.lists(st.text(max_size=6) | st.sampled_from(['a,b', 'q"t', 'l\nf', 'c\r']),
                        min_size=n, max_size=n))
    value = st.sampled_from(_AWKWARD_VALUES) | st.floats(allow_nan=False, allow_infinity=False)
    cols = draw(st.lists(st.lists(value, min_size=n, max_size=n), min_size=6, max_size=6))
    d = [1] + [0] + draw(st.lists(st.integers(0, 1), min_size=n - 2, max_size=n - 2))
    return make_dataset(cols[0], cols[1], d, covariates=cols[2:4],
                        covariates_post=cols[4:6], unit_ids=ids)


@given(data=_writable_panels())
def test_write_csv_matches_the_row_writer(data):
    with tempfile.TemporaryDirectory() as tmp:
        fast, rows = os.path.join(tmp, "fast.csv"), os.path.join(tmp, "rows.csv")
        write_csv(data, fast)
        write_csv_rows(data, rows)
        with open(fast, "rb") as a, open(rows, "rb") as b:
            assert a.read() == b.read()


def test_write_csv_matches_the_row_writer_across_blocks(tmp_path, monkeypatch):
    monkeypatch.setattr(panel_data, "_WRITE_BLOCK", 7)
    data = generate_scenario(Scenario("HET", 40), 3)
    write_csv(data, tmp_path / "fast.csv")
    write_csv_rows(data, tmp_path / "rows.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


class TestPanelDataset:
    def test_non_binary_treatment_rejected(self):
        with pytest.raises(NonBinaryTreatmentError):
            make_dataset(y0=[1.0, 2.0], y1=[1.0, 2.0], d1=[0, 2])

    def test_overlap_required(self):
        with pytest.raises(NoOverlapError):
            make_dataset(y0=[1.0, 2.0], y1=[1.0, 2.0], d1=[1, 1])

    def test_non_finite_rejected(self):
        with pytest.raises(MissingValueError):
            make_dataset(y0=[1.0, np.nan], y1=[1.0, 2.0], d1=[0, 1])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            make_dataset(y0=[1.0, 2.0, 3.0], y1=[1.0, 2.0], d1=[0, 1])

    def test_arrays_read_only(self):
        data = make_dataset(
            y0=[1.0, 2.0], y1=[3.0, 4.0], d1=[0, 1], covariates=[[1.0, 2.0]]
        )
        for arr in (data.y0, data.y1, data.d1, data.x0, data.x1):
            with pytest.raises(ValueError):
                arr[0] = 99

    def test_counts_and_index(self):
        data = make_dataset(
            y0=[1.0, 2.0, 3.0],
            y1=[1.0, 2.0, 3.0],
            d1=[0, 1, 1],
            covariates=[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]],
            names=("a", "b"),
        )
        assert data.n == 3
        assert data.n_treated == 2
        assert data.covariate_index("b") == 1
        with pytest.raises(UnknownCovariateError):
            data.covariate_index("missing")

    def test_take_resamples_with_repeats(self):
        data = make_dataset(
            y0=[1.0, 2.0, 3.0, 4.0],
            y1=[5.0, 6.0, 7.0, 8.0],
            d1=[0, 1, 0, 1],
            covariates=[[1.0, 2.0, 3.0, 4.0]],
        )
        sub = data.take([3, 0, 3])
        assert sub.n == 3
        assert sub.y0.tolist() == [4.0, 1.0, 4.0]
        assert sub.d1.tolist() == [1, 0, 1]
        assert sub.covariate_names == data.covariate_names

    def test_take_preserves_overlap_validation(self):
        data = make_dataset(
            y0=[1.0, 2.0], y1=[3.0, 4.0], d1=[0, 1], covariates=[[1.0, 2.0]]
        )
        with pytest.raises(NoOverlapError):
            data.take([1, 1])


class TestTerms:
    @pytest.mark.parametrize(
        "text, kind, name, label",
        [
            ("1", "intercept", None, "1"),
            ("intercept", "intercept", None, "1"),
            ("time", "time", None, "time"),
            ("t", "time", None, "time"),
            ("treat", "treatment", None, "treat"),
            ("d", "treatment", None, "treat"),
            ("treatment", "treatment", None, "treat"),
            ("x1", "covariate", "x1", "x1"),
            ("x1:time", "cov_time", "x1", "x1:time"),
            ("x1:treat", "cov_treat", "x1", "x1:treat"),
            ("log(x2)", "log", "x2", "log(x2)"),
        ],
    )
    def test_parse_and_label(self, text, kind, name, label):
        term = parse_term(text)
        assert term.kind == kind
        assert term.name == name
        assert term_label(term) == label
        # labels parse back to the same term
        assert parse_term(term_label(term)) == term

    @pytest.mark.parametrize(
        "bad", ["", "x1:x2", "log(x1", "time:treat", "log(time)", "d:treat", "x 1:"]
    )
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(InvalidTermError):
            parse_term(bad)

    def test_model_spec_coerces_strings(self):
        spec = ModelSpec(
            outcome_terms=("1", "t", "d", "x1", "log(x2)"),
            ps_terms=("1", "x1"),
        )
        assert [t.kind for t in spec.outcome_terms] == [
            "intercept", "time", "treatment", "covariate", "log",
        ]

    def test_model_spec_rejects_treatment_in_ps(self):
        with pytest.raises(InvalidTermError):
            ModelSpec(ps_terms=("1", "treat"))
        with pytest.raises(InvalidTermError):
            ModelSpec(ps_terms=("1", "x1:time"))

    def test_model_spec_random_effect_values(self):
        assert ModelSpec(outcome_terms=("1",)).random_effect == "unit_intercept"
        assert ModelSpec(outcome_terms=("1",), random_effect="none").random_effect == "none"
        with pytest.raises(InvalidArgumentError):
            ModelSpec(outcome_terms=("1",), random_effect="slope")

    def test_model_spec_dict_round_trip(self):
        spec = ModelSpec(
            outcome_terms=("1", "time", "treat", "x1", "x2:time", "x1:treat", "log(x2)"),
            random_effect="unit_intercept",
            ps_terms=("1", "x1", "log(x2)"),
        )
        again = ModelSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_model_spec_from_dict_rejects_unknown_field(self):
        with pytest.raises(InvalidArgumentError):
            ModelSpec.from_dict({"outcome_terms": ["1"], "link": "logit"})

    @pytest.mark.parametrize("bad", ["1", "x1", 5, None,
                                     pytest.param({"1": 0, "x": 0}, id="mapping"),
                                     pytest.param((t for t in ("1", "x")), id="generator")])
    def test_term_list_is_a_sequence_of_terms(self, bad):
        # A bare string is not the list of its characters, a value that is
        # not iterable is no list, and neither is a mapping (its keys) or a
        # generator: every reader of a term list says so, naming the value.
        data = make_dataset(y0=[1.0, 2.0], y1=[3.0, 4.0], d1=[0, 1],
                            covariates=[[10.0, 20.0]], names=("x",))
        for read in (lambda: ModelSpec(outcome_terms=bad),
                     lambda: ModelSpec(ps_terms=bad),
                     lambda: ModelSpec.from_dict({"outcome_terms": bad}),
                     lambda: ModelSpec.from_dict({"ps_terms": bad}),
                     lambda: build_design(data, bad, pre_period=False),
                     lambda: ps_design(data, bad)):
            with pytest.raises(InvalidTermError, match=re.escape(f"got {bad!r}")):
                read()

    @pytest.mark.parametrize("bad, entry", [
        (["1", 1, "time"], 1),
        (["1", None, "time"], None),
        (("1", b"x"), b"x"),
    ], ids=["number_entry", "null_entry", "bytes_entry"])
    def test_term_list_entry_is_a_term_or_a_string(self, bad, entry):
        # The number 1 would read as the intercept, and None as a covariate
        # named "None": every reader of a term list names the entry.
        data = make_dataset(y0=[1.0, 2.0], y1=[3.0, 4.0], d1=[0, 1],
                            covariates=[[10.0, 20.0]], names=("x",))
        message = f"a term must be a Term or a term string, got {entry!r}"
        for read in (lambda: ModelSpec(outcome_terms=bad),
                     lambda: ModelSpec(ps_terms=bad),
                     lambda: ModelSpec.from_dict({"outcome_terms": bad}),
                     lambda: ModelSpec.from_dict({"ps_terms": bad}),
                     lambda: build_design(data, bad, pre_period=False),
                     lambda: ps_design(data, bad)):
            with pytest.raises(InvalidTermError, match=re.escape(message)):
                read()


@pytest.fixture
def two_units():
    return make_dataset(
        y0=[1.0, 2.0],
        y1=[3.0, 4.0],
        d1=[0, 1],
        covariates=[[10.0, 20.0], [2.0, 4.0]],
        covariates_post=[[11.0, 21.0], [2.0, 4.0]],
        names=("x1", "x2"),
    )


class TestBuildDesign:
    def test_stacked_intercept_time_treat(self, two_units):
        des = build_design(two_units, ("1", "time", "treat"), pre_period=True)
        assert des.columns == ("1", "time", "treat")
        assert des.X0.shape == des.X.shape == (2, 3)
        np.testing.assert_array_equal(des.X0[:, 0], [1, 1])
        np.testing.assert_array_equal(des.X[:, 0], [1, 1])
        np.testing.assert_array_equal(des.X0[:, 1], [0, 0])
        np.testing.assert_array_equal(des.X[:, 1], [1, 1])
        np.testing.assert_array_equal(des.X0[:, 2], [0, 0])
        np.testing.assert_array_equal(des.X[:, 2], [0, 1])

    def test_post_period_design(self, two_units):
        des = build_design(two_units, ("1", "treat", "x1"), pre_period=False)
        assert des.X0 is None
        assert des.X.shape == (2, 3)
        np.testing.assert_array_equal(des.X[:, 1], [0.0, 1.0])
        # post-period covariate values
        np.testing.assert_array_equal(des.X[:, 2], [11.0, 21.0])

    def test_counterfactuals_differ_only_in_treatment_columns(self, two_units):
        terms = ("1", "time", "treat", "x1", "x2", "x1:treat")
        des = build_design(two_units, terms, pre_period=True)
        treat_cols = [2, 5]
        other = [j for j in range(len(terms)) if j not in treat_cols]
        np.testing.assert_array_equal(
            des.cf_treated[:, other], des.cf_control[:, other]
        )
        np.testing.assert_array_equal(des.cf_treated[:, 2], [1.0, 1.0])
        np.testing.assert_array_equal(des.cf_control[:, 2], [0.0, 0.0])
        np.testing.assert_array_equal(des.cf_treated[:, 5], [11.0, 21.0])
        np.testing.assert_array_equal(des.cf_control[:, 5], [0.0, 0.0])

    def test_counterfactuals_are_post_period(self, two_units):
        des = build_design(two_units, ("1", "time", "treat", "x1"), pre_period=False)
        np.testing.assert_array_equal(des.cf_treated[:, 1], [1.0, 1.0])
        np.testing.assert_array_equal(des.cf_treated[:, 3], [11.0, 21.0])

    def test_homogeneous_scenario_columns(self, two_units):
        terms = ("1", "time", "treat", "x1", "x2", "log(x2)")
        des = build_design(two_units, terms, pre_period=True)
        assert des.columns == ("1", "time", "treat", "x1", "x2", "log(x2)")
        np.testing.assert_array_equal(des.X0[:, 3], [10.0, 20.0])
        np.testing.assert_array_equal(des.X[:, 3], [11.0, 21.0])
        np.testing.assert_array_equal(des.X0[:, 4], [2.0, 4.0])
        np.testing.assert_array_equal(des.X[:, 4], [2.0, 4.0])
        np.testing.assert_allclose(des.X0[:, 5], np.log([2.0, 4.0]))
        np.testing.assert_allclose(des.X[:, 5], np.log([2.0, 4.0]))

    def test_cov_time_zero_at_baseline(self, two_units):
        des = build_design(two_units, ("1", "x2:time"), pre_period=True)
        np.testing.assert_array_equal(des.X0[:, 1], [0.0, 0.0])
        np.testing.assert_array_equal(des.X[:, 1], [2.0, 4.0])

    @pytest.mark.parametrize("scenario", ["HOM", "HET", "RANDCOEF"])
    def test_observed_design_is_the_counterfactual_at_the_observed_treatment(
            self, scenario):
        # Treatment interactions of negative covariates give -0.0 in the
        # control design; the observed design must carry the same bits.
        data = generate_scenario(Scenario(scenario, 200), 5)
        terms = ("1", "time", "treat", "x1", "x2", "v", "log(x2)", "x1:time",
                 "x1:treat", "v:treat", "x2:treat")
        des = build_design(data, terms, pre_period=False)
        X, cf1, cf0 = (a.view(np.int64) for a in (des.X, des.cf_treated, des.cf_control))
        treated = data.d1 == 1
        np.testing.assert_array_equal(X[treated], cf1[treated])
        np.testing.assert_array_equal(X[~treated], cf0[~treated])
        observed = panel_data._matrix(
            panel_data._coerce_terms(terms), data, 1, data.d1.astype(float))
        np.testing.assert_array_equal(X, observed.view(np.int64))
        assert np.any(cf0 == np.array(-0.0).view(np.int64))

    def test_unknown_covariate(self, two_units):
        with pytest.raises(UnknownCovariateError):
            build_design(two_units, ("1", "zzz"), pre_period=True)

    def test_non_positive_log(self):
        data = make_dataset(
            y0=[1.0, 2.0], y1=[3.0, 4.0], d1=[0, 1],
            covariates=[[0.0, 1.0]], names=("x1",),
        )
        with pytest.raises(NonPositiveLogError):
            build_design(data, ("1", "log(x1)"), pre_period=False)

    def test_empty_terms_rejected(self, two_units):
        with pytest.raises(InvalidTermError):
            build_design(two_units, (), pre_period=True)


class TestPsDesign:
    def test_uses_baseline_values(self, two_units):
        X, labels = ps_design(two_units, ("1", "x1", "x2"))
        assert labels == ("1", "x1", "x2")
        np.testing.assert_array_equal(X[:, 1], [10.0, 20.0])
        np.testing.assert_array_equal(X[:, 2], [2.0, 4.0])

    def test_rejects_time_and_treatment_terms(self, two_units):
        with pytest.raises(InvalidTermError):
            ps_design(two_units, ("1", "time"))
        with pytest.raises(InvalidTermError):
            ps_design(two_units, ("1", "x1:treat"))

    def test_log_term_at_baseline(self, two_units):
        X, _ = ps_design(two_units, ("1", "log(x2)"))
        np.testing.assert_allclose(X[:, 1], np.log([2.0, 4.0]))
