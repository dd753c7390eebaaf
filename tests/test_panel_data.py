import re
from pathlib import Path

import numpy as np
import pytest

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
    stacked_cluster_ids,
    stacked_response,
    term_label,
    write_csv,
)

from helpers import make_dataset


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

    def test_units_view(self):
        data = make_dataset(
            y0=[1.0, 2.0], y1=[3.0, 4.0], d1=[0, 1],
            covariates=[[5.0, 6.0]], names=("a",),
        )
        unit = data.units[1]
        assert unit.unit_id == "u1"
        assert unit.y0 == 2.0 and unit.y1 == 4.0 and unit.d1 == 1
        assert unit.x0.tolist() == [6.0]


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
        des = build_design(two_units, ("1", "time", "treat"), stacked=True)
        assert des.columns == ("1", "time", "treat")
        assert des.X.shape == (4, 3)
        np.testing.assert_array_equal(des.X[:, 0], [1, 1, 1, 1])
        np.testing.assert_array_equal(des.X[:, 1], [0, 1, 0, 1])
        np.testing.assert_array_equal(des.X[:, 2], [0, 0, 0, 1])

    def test_stacked_row_order_matches_response_and_clusters(self, two_units):
        y = stacked_response(two_units)
        np.testing.assert_array_equal(y, [1.0, 3.0, 2.0, 4.0])
        np.testing.assert_array_equal(stacked_cluster_ids(two_units), [0, 0, 1, 1])

    def test_post_period_design(self, two_units):
        des = build_design(two_units, ("1", "treat", "x1"), stacked=False)
        assert des.X.shape == (2, 3)
        np.testing.assert_array_equal(des.X[:, 1], [0.0, 1.0])
        # post-period covariate values
        np.testing.assert_array_equal(des.X[:, 2], [11.0, 21.0])

    def test_counterfactuals_differ_only_in_treatment_columns(self, two_units):
        terms = ("1", "time", "treat", "x1", "x2", "x1:treat")
        des = build_design(two_units, terms, stacked=True)
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
        des = build_design(two_units, ("1", "time", "treat", "x1"), stacked=False)
        np.testing.assert_array_equal(des.cf_treated[:, 1], [1.0, 1.0])
        np.testing.assert_array_equal(des.cf_treated[:, 3], [11.0, 21.0])

    def test_homogeneous_scenario_columns(self, two_units):
        terms = ("1", "time", "treat", "x1", "x2", "log(x2)")
        des = build_design(two_units, terms, stacked=True)
        assert des.columns == ("1", "time", "treat", "x1", "x2", "log(x2)")
        np.testing.assert_array_equal(des.X[:, 3], [10.0, 11.0, 20.0, 21.0])
        np.testing.assert_array_equal(des.X[:, 4], [2.0, 2.0, 4.0, 4.0])
        np.testing.assert_allclose(des.X[:, 5], np.log([2.0, 2.0, 4.0, 4.0]))

    def test_cov_time_zero_at_baseline(self, two_units):
        des = build_design(two_units, ("1", "x2:time"), stacked=True)
        np.testing.assert_array_equal(des.X[:, 1], [0.0, 2.0, 0.0, 4.0])

    def test_unknown_covariate(self, two_units):
        with pytest.raises(UnknownCovariateError):
            build_design(two_units, ("1", "zzz"), stacked=True)

    def test_non_positive_log(self):
        data = make_dataset(
            y0=[1.0, 2.0], y1=[3.0, 4.0], d1=[0, 1],
            covariates=[[0.0, 1.0]], names=("x1",),
        )
        with pytest.raises(NonPositiveLogError):
            build_design(data, ("1", "log(x1)"), stacked=False)

    def test_empty_terms_rejected(self, two_units):
        with pytest.raises(InvalidTermError):
            build_design(two_units, (), stacked=True)


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
