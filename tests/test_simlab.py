"""Scenario DGPs, ground truths, the study harness, and table formatting."""

import json
import math
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from collections import Counter
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from panel_causal import estimators, inference, simlab
from panel_causal import (
    DEFAULT_SUITE,
    DegenerateBinsWarning,
    EstimatorConfig,
    ExtremeWeightsWarning,
    InvalidArgumentError,
    ModelSpec,
    NoOverlapError,
    ReplicateFailureWarning,
    SCENARIO_IDS,
    Scenario,
    SuiteEntry,
    cluster_bootstrap,
    dr_specification_test,
    estimate_did,
    generate_scenario,
    parse_table,
    render_table,
    run_study,
    scenario_specs,
    term_label,
    true_effects,
)

from helpers import (draw_reference, run_study_reference, source_env, study_values_reference,
                     treated_x1_mean)


class TestScenario:
    def test_id_is_normalized_and_checked(self):
        assert Scenario("hom", 100).id == "HOM"
        with pytest.raises(InvalidArgumentError):
            Scenario("LONDON", 100)

    def test_needs_two_units(self):
        Scenario("HOM", 2)
        with pytest.raises(InvalidArgumentError):
            Scenario("HOM", 1)

    def test_unit_count_must_be_integral(self):
        for n in (250, 250.0, np.int64(250), np.float64(250.0)):
            sc = Scenario("HOM", n)
            assert sc.n == 250 and type(sc.n) is int
        for n in (2.7, 250.5, np.float64(99.9), float("nan"), float("inf"), None, "250"):
            with pytest.raises(InvalidArgumentError, match="integer"):
                Scenario("HOM", n)

    def test_param_overrides_merge_over_defaults(self):
        sc = Scenario("HOM", 50, dgp_params={"treat": 20.0})
        assert sc.dgp_params["treat"] == 20.0
        assert sc.dgp_params["trend"] == 3.0

    def test_unknown_param_rejected(self):
        with pytest.raises(InvalidArgumentError):
            Scenario("HOM", 50, dgp_params={"effect": 1.0})


class TestTrueEffects:
    def test_homogeneous_truths_are_analytic(self):
        for sid in ("HOM", "HOM_TI"):
            te = true_effects(sid)
            assert te.ate == 15.0
            assert te.att == 15.0
            assert te.att_mc_se == 0.0

    def test_heterogeneous_truths(self):
        te = true_effects("HET")
        assert te.ate == 35.0
        assert te.att == 35.3905358503353
        assert 0.0 < te.att_mc_se < 0.01
        for sid in ("HET_TI", "RANDCOEF", "RANDCOEF_TI"):
            other = true_effects(sid)
            assert other.ate == te.ate
            assert other.att == te.att

    def test_stored_truth_is_the_oracle_bit_for_bit(self):
        # The stored pair is re-derived from the scenario's parameters and
        # stream on every run, not copied by hand.
        assert treated_x1_mean() == (simlab._TREATED_X1_MEAN, simlab._TREATED_X1_MEAN_SE)

    def test_scoring_draws_nothing(self):
        # A fresh process: the first call of true_effects is what a study
        # pays at start-up, with nothing cached by earlier calls.
        script = textwrap.dedent("""
            import json, tracemalloc
            from panel_causal import simlab

            def drawn(*args, **kwargs):
                raise AssertionError("true_effects drew from a stream")

            simlab.substream = simlab._draw = drawn
            out = {}
            for sid in ("HET", "HET_TI", "RANDCOEF", "RANDCOEF_TI"):
                tracemalloc.start()
                te = simlab.true_effects(sid)
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                out[sid] = [te.ate, te.att, te.att_mc_se, peak]
            print(json.dumps(out))
        """)
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=source_env())
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert sorted(out) == ["HET", "HET_TI", "RANDCOEF", "RANDCOEF_TI"]
        for sid, (ate, att, att_mc_se, peak) in out.items():
            assert (ate, att, att_mc_se) == (35.0, 35.3905358503353, 0.003073705617306642), sid
            assert peak < 1e6, sid

    @pytest.mark.parametrize("block", [1, 1000, 4096, 10_007, 10_008])
    def test_oracle_repeats_the_draw_bit_for_bit(self, block):
        # 10 007 units: blocks that leave a remainder, that divide the
        # count (1 and the count itself), and one larger than the count.
        n = 10_007
        x1, _, _, d, _, _ = simlab._draw(Scenario("HET", n), simlab.ORACLE_SEED, [0])
        kept = x1[0, d[0] == 1, 1]
        want = (float(kept.mean()), float(kept.std(ddof=1) / np.sqrt(kept.size)))
        assert treated_x1_mean(n, block) == want

    def test_oracle_memory_is_bounded(self):
        # The whole 1 000 000-unit draw peaks at about 120 MB; the blocked
        # oracle keeps three arrays of the units, about 20 MB.
        tracemalloc.start()
        try:
            treated_x1_mean()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6

    def test_modified_params_have_no_registered_truth(self):
        with pytest.raises(InvalidArgumentError):
            true_effects(Scenario("HOM", 100, dgp_params={"treat": 20.0}))


class TestScenarioSpecs:
    def test_keys_and_reduction(self):
        for sid in SCENARIO_IDS:
            specs = scenario_specs(sid)
            assert sorted(specs) == [
                "mixed_full", "mixed_reduced", "post_full",
                "post_reduced", "ps_full", "ps_reduced",
            ]
            full = [term_label(t) for t in specs["mixed_full"].outcome_terms]
            red = [term_label(t) for t in specs["mixed_reduced"].outcome_terms]
            assert not any("x2" in lab for lab in red)
            assert any("x2" in lab for lab in full)
            assert [term_label(t) for t in specs["ps_full"].ps_terms] == \
                ["1", "x1", "x2", "v"]
            assert [term_label(t) for t in specs["ps_reduced"].ps_terms] == \
                ["1", "x1", "v"]
            for key in ("post_full", "post_reduced"):
                labels = [term_label(t) for t in specs[key].outcome_terms]
                assert "time" not in labels

    def test_heterogeneous_specs_keep_the_interaction(self):
        specs = scenario_specs("HET")
        for key in ("mixed_full", "mixed_reduced", "post_full", "post_reduced"):
            labels = [term_label(t) for t in specs[key].outcome_terms]
            assert "x1:treat" in labels

    def test_unknown_id(self):
        with pytest.raises(InvalidArgumentError):
            scenario_specs("PARIS")


class TestGenerateScenario:
    def test_shape_and_labels(self):
        data = generate_scenario(Scenario("HOM", 150), seed=0)
        assert data.n == 150
        assert data.covariate_names == ("x1", "x2", "v")
        assert data.unit_ids[0] == "u0000000"
        assert set(np.unique(data.d1)) == {0, 1}
        assert data.x0.shape == data.x1.shape == (150, 3)

    def test_only_x1_varies_over_time(self):
        data = generate_scenario(Scenario("HOM", 300), seed=1)
        assert not np.array_equal(data.x0[:, 0], data.x1[:, 0])
        assert np.array_equal(data.x0[:, 1], data.x1[:, 1])
        assert np.array_equal(data.x0[:, 2], data.x1[:, 2])

    def test_seed_and_replicate_control_the_draw(self):
        sc = Scenario("HOM", 100)
        a = generate_scenario(sc, seed=5)
        b = generate_scenario(sc, seed=5)
        assert np.array_equal(a.y0, b.y0) and np.array_equal(a.y1, b.y1)
        c = generate_scenario(sc, seed=5, replicate=1)
        d = generate_scenario(sc, seed=6)
        assert not np.array_equal(a.y1, c.y1)
        assert not np.array_equal(a.y1, d.y1)

    @pytest.mark.parametrize("sid", SCENARIO_IDS)
    def test_chunk_draw_is_each_replicate_drawn_alone(self, sid):
        # One pass over a chunk's streams gives each replicate, in any
        # order and repeated, the arrays of its own one-replicate draw and
        # of the per-replicate first formulation, to the last bit.
        sc = Scenario(sid, 37)
        replicates = [5, 0, 12, 3, 3, 2**64 - 1]
        chunk = simlab._draw(sc, 7, replicates)
        for i, r in enumerate(replicates):
            alone = simlab._draw(sc, 7, [r])
            for got, one, want in zip(chunk, alone, draw_reference(sc, 7, r)):
                assert got.dtype == one.dtype == want.dtype
                np.testing.assert_array_equal(got[i], one[0])
                np.testing.assert_array_equal(got[i], want)

    def test_replicate_outside_the_stream_range_rejected(self):
        sc = Scenario("HOM", 50)
        last = generate_scenario(sc, seed=5, replicate=2**64 - 1)
        for r in (-1, 2**64):
            with pytest.raises(InvalidArgumentError, match="stream index"):
                generate_scenario(sc, seed=5, replicate=r)
        # Seeds are taken modulo 2**64.
        assert np.array_equal(generate_scenario(sc, seed=-1).y1,
                              generate_scenario(sc, seed=2**64 - 1).y1)
        assert not np.array_equal(last.y1, generate_scenario(sc, seed=5).y1)

    def test_non_integral_seed_or_replicate_rejected(self):
        sc = Scenario("HOM", 50)
        for kwargs in ({"seed": 2.7}, {"seed": 5, "replicate": 1.9},
                       {"seed": "5"}, {"seed": float("nan")}):
            with pytest.raises(InvalidArgumentError, match="integer"):
                generate_scenario(sc, **kwargs)
        # Integral floats and numpy integers name the int's stream; ints of
        # any size are taken modulo 2**64.
        want = generate_scenario(sc, seed=2, replicate=1).y1
        for seed, replicate in ((2.0, 1.0), (np.int64(2), np.uint64(1)),
                                (2 + 5 * 2**64, 1)):
            assert np.array_equal(generate_scenario(sc, seed, replicate).y1, want)

    def test_time_invariant_variant_moves_x2_to_post(self):
        a = generate_scenario(Scenario("HOM", 400), 12)
        b = generate_scenario(Scenario("HOM_TI", 400), 12)
        assert np.array_equal(a.y1, b.y1)
        assert np.array_equal(a.d1, b.d1)
        from panel_causal.simlab import default_params

        gap = a.y0 - b.y0
        x2 = a.x0[:, 1]
        coef = default_params("HOM")["x2"]
        assert np.max(np.abs(gap - coef * x2)) < 1e-12

    def test_random_coefficients_perturb_responses_only(self):
        h = generate_scenario(Scenario("HET", 200), 5)
        r = generate_scenario(Scenario("RANDCOEF", 200), 5)
        assert np.array_equal(h.d1, r.d1)
        assert not np.array_equal(h.y1, r.y1)


class TestRunStudy:
    DID_SUITE = (SuiteEntry("DID"),)

    def test_replicate_count_validated(self):
        with pytest.raises(InvalidArgumentError):
            run_study(Scenario("HOM", 50), self.DID_SUITE, R=1, seed=0)

    def test_non_integral_R_or_seed_rejected(self):
        sc = Scenario("HOM", 50)
        for kwargs in ({"R": 3.9, "seed": 0}, {"R": 3, "seed": 2.7}):
            with pytest.raises(InvalidArgumentError, match="integer"):
                run_study(sc, self.DID_SUITE, **kwargs)
        res = run_study(sc, self.DID_SUITE, R=3.0, seed=np.int64(2))
        assert (res.R, res.seed) == (3, 2)
        assert type(res.R) is int and type(res.seed) is int
        assert res == run_study(sc, self.DID_SUITE, R=3, seed=2)

    def test_duplicate_labels_rejected(self):
        suite = (SuiteEntry("DID", label="x"), SuiteEntry("IPW", ps_model="full", label="x"))
        with pytest.raises(InvalidArgumentError):
            run_study(Scenario("HOM", 50), suite, R=3, seed=0)

    @staticmethod
    def _no_draw(monkeypatch):
        # Every draw, a chunk's or a single dataset's, pulls each of its
        # replicates' streams through simlab's substream.
        def no_draw(*args, **kwargs):
            raise AssertionError("a replicate was drawn")

        monkeypatch.setattr(simlab, "substream", no_draw)

    def test_more_bins_than_units_rejected_before_any_draw(self, monkeypatch):
        # With 25 bins every doubly robust fit of a 20-unit draw would fail.
        self._no_draw(monkeypatch)
        suite = (SuiteEntry("DRGLMM", outcome_model="full", ps_model="full"),)
        with pytest.raises(InvalidArgumentError, match="k_bins"):
            run_study(Scenario("HOM", 20), suite, R=3, seed=0, k_bins=25)

    def test_more_unit_constant_columns_than_units_rejected_before_any_draw(
            self, monkeypatch):
        # At 20 bins the full HOM outcome model has 3 + 19 = 22 columns that
        # are constant within a unit, which 20 units cannot identify.
        self._no_draw(monkeypatch)
        with pytest.raises(InvalidArgumentError, match="dr-full-full"):
            run_study(Scenario("HOM", 20), R=3, seed=0, k_bins=20)

    def test_unit_constant_columns_up_to_the_unit_count_fit(self):
        # At 18 bins the full models have 3 + 17 = 20 unit-constant columns.
        res = run_study(Scenario("HOM", 20), R=3, seed=0, k_bins=18)
        dr = [c for c in res.cells if c.method == "DRGLMM"]
        assert len(dr) == 8
        assert all(c.r_used == 3 for c in dr)

    def test_bins_bound_only_a_suite_with_the_doubly_robust_method(self):
        res = run_study(Scenario("HOM", 20), self.DID_SUITE, R=3, seed=0, k_bins=25)
        assert res.cells[0].r_used == 3

    def test_did_reports_att_only(self):
        res = run_study(Scenario("HOM", 60), self.DID_SUITE, R=3, seed=0)
        assert len(res.cells) == 1
        cell = res.cells[0]
        assert cell.label == "did"
        assert cell.estimand == "ATT"
        with pytest.raises(KeyError):
            res.cell("did", "ATE")

    def test_cells_match_a_manual_replication(self):
        sc = Scenario("HOM", 80)
        R, seed = 8, 2
        res = run_study(sc, self.DID_SUITE, R=R, seed=seed)
        vals = np.array([
            estimate_did(generate_scenario(sc, seed, replicate=r)).value
            for r in range(R)
        ])
        cell = res.cell("did", "ATT")
        truth = 15.0
        assert cell.r_used == R
        assert cell.bias100 == pytest.approx(100.0 * (vals.mean() - truth), abs=1e-10)
        assert cell.var == pytest.approx(vals.var(), abs=1e-10)
        assert cell.mse == pytest.approx(np.mean((vals - truth) ** 2), abs=1e-10)
        assert cell.mc_se_bias100 == pytest.approx(
            100.0 * vals.std(ddof=1) / np.sqrt(R), abs=1e-10
        )
        assert res.true_ate == 15.0 and res.true_att == 15.0

    def test_extreme_weight_warnings_are_silenced(self):
        # Two of these ten replicates have extreme scores; across a study's
        # thousands of draws such warnings would drown the per-cell failure
        # accounting, so run_study keeps them to itself.
        suite = (SuiteEntry("IPW", ps_model="full"),)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_study(Scenario("HOM", 30), suite, R=10, seed=2)
        assert not [w for w in caught if w.category is ExtremeWeightsWarning]

    def test_default_suite_labels(self):
        assert [e.label for e in DEFAULT_SUITE] == [
            "or-full", "or-reduced", "glmm-full", "glmm-reduced",
            "ipw-full", "ipw-reduced", "ipwdid-full", "ipwdid-reduced",
            "dr-full-full", "dr-full-reduced", "dr-reduced-full",
            "dr-reduced-reduced",
        ]

    def test_suite_entry_validation(self):
        with pytest.raises(InvalidArgumentError):
            SuiteEntry("IPW")                      # ps choice missing
        with pytest.raises(InvalidArgumentError):
            SuiteEntry("DID", outcome_model="full")
        with pytest.raises(InvalidArgumentError):
            SuiteEntry("GLMM", outcome_model="all")

    def test_augmentation_repairs_wrong_outcome_model(self):
        # The reduced outcome model alone is badly biased (this run: +19.0
        # on the x100 scale); augmenting it with dummies from a correct
        # treatment model pulls the bias back under 8 (this run: -3.1).
        suite = (
            SuiteEntry("GLMM", outcome_model="reduced"),
            SuiteEntry("DRGLMM", outcome_model="reduced", ps_model="full"),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = run_study(Scenario("HOM", 1000), suite, R=50, seed=12)
        wrong = res.cell("glmm-reduced", "ATE").bias100
        repaired = res.cell("dr-reduced-full", "ATE").bias100
        assert wrong > 10.0
        assert abs(repaired) < 8.0
        assert abs(repaired) < abs(wrong)

    def test_replicate_failures_warn_and_shrink_r_used(self):
        # At n=30 a resampled replicate occasionally separates; this seed
        # loses exactly one of fifty.
        suite = (SuiteEntry("IPW", ps_model="full"),)
        with pytest.warns(ReplicateFailureWarning):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ExtremeWeightsWarning)
                res = run_study(Scenario("HOM", 30), suite, R=50, seed=2)
        cell = res.cell("ipw-full", "ATE")
        assert cell.r_used == 49
        assert np.isfinite(cell.bias100)


def _run_recorded(study, *args, **kwargs):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = study(*args, **kwargs)
    return res, [(w.category, str(w.message)) for w in caught]


class TestBatchedStudy:
    """run_study fits a chunk of replicates at once; the reference
    evaluates every replicate on its own."""

    @pytest.mark.parametrize("sid,n,R,seed,k_bins", [
        ("HOM", 250, 30, 1, 5),
        ("HET", 250, 30, 2, 5),
        ("RANDCOEF", 250, 30, 3, 5),
        ("HOM", 20, 30, 0, 18),
        # n = 15 loses replicates in eight entries, with a failure warning.
        ("HOM", 15, 40, 1, 5),
    ])
    def test_matches_one_replicate_at_a_time(self, sid, n, R, seed, k_bins):
        sc = Scenario(sid, n)
        got, got_warnings = _run_recorded(run_study, sc, R=R, seed=seed, k_bins=k_bins)
        want, want_warnings = _run_recorded(run_study_reference, sc, R=R, seed=seed,
                                            k_bins=k_bins)
        assert got_warnings == want_warnings
        assert (got.true_ate, got.true_att) == (want.true_ate, want.true_att)
        assert len(got.cells) == len(want.cells)
        for a, b in zip(got.cells, want.cells):
            assert (a.label, a.estimand, a.r_used) == (b.label, b.estimand, b.r_used)
            for field in ("bias100", "var", "mse", "mc_se_bias100"):
                np.testing.assert_allclose(getattr(a, field), getattr(b, field),
                                           rtol=1e-12, err_msg=f"{a.label} {field}")

    def test_value_does_not_depend_on_chunk_or_position(self):
        sc = Scenario("HET", 250)
        specs = scenario_specs("HET")
        suite = [(e.method, simlab._entry_spec(e, specs)) for e in DEFAULT_SUITE]

        def values(replicates):
            return inference._replicate_values(
                suite, simlab._draw_chunks(sc, 4, replicates, 5))

        forward = values(range(25))
        backward = values(range(24, -1, -1))
        alone = [values([r])[0] for r in (0, 11, 24)]
        assert np.isfinite(forward).sum() == 25 * 12 * 2
        np.testing.assert_array_equal(forward, backward[::-1])
        np.testing.assert_array_equal(forward[[0, 11, 24]], alone)

    @pytest.mark.parametrize("sid,n", [("HET", 250), ("HOM", 15)])
    def test_study_does_not_depend_on_its_chunks(self, sid, n, monkeypatch):
        # One draw a chunk, seven, and the default (every draw in one
        # chunk): the same result to the last bit and the same warnings in
        # order.  At n = 15 pairs fail and the study warns.
        runs, default = [], inference._CHUNK_CELLS
        for cells in (n, 7 * n, default):
            monkeypatch.setattr(inference, "_CHUNK_CELLS", cells)
            res, caught = _run_recorded(run_study, Scenario(sid, n), R=40, seed=5)
            runs.append((astuple(res), caught))
        assert inference._chunk_size(n) >= 40
        for res, caught in runs[1:]:
            np.testing.assert_equal(res, runs[0][0])
            assert caught == runs[0][1]
        if n == 15:
            assert any(category is ReplicateFailureWarning for category, _ in runs[0][1])

    @pytest.mark.parametrize("per_chunk", [None, 7])
    def test_draws_are_validated_once(self, per_chunk, monkeypatch):
        # A chunk's draws are checked as one stacked dataset; no draw gets a
        # dataset of its own.
        counts = Counter()
        post_init = simlab.PanelDataset.__post_init__

        def counted_post_init(self):
            counts["datasets"] += 1
            post_init(self)

        monkeypatch.setattr(simlab.PanelDataset, "__post_init__", counted_post_init)
        # One chunk by default, six of at most 7 draws, also where small
        # draws lose pairs.
        for n in (250, 15):
            if per_chunk:
                monkeypatch.setattr(inference, "_CHUNK_CELLS", per_chunk * n)
            counts.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                run_study(Scenario("HOM", n), R=40, seed=1)
            assert counts["datasets"] == math.ceil(40 / inference._chunk_size(n))

    def test_replicates_make_no_single_estimates(self, monkeypatch):
        # Beyond their point estimates, the bootstrap, the DR test (with a
        # constant treatment model too) and the study take no resample and
        # call no public estimator or treatment-model fit.
        counts = Counter()

        def count(owner, name):
            f = getattr(owner, name)

            def counted(*args, **kwargs):
                counts[name] += 1
                return f(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        count(simlab.PanelDataset, "take")
        count(inference, "estimate_effects")
        # The point estimates fit their own treatment models by the batch
        # kernel, as the replicates do; only the DR test fits one publicly.
        count(inference, "fit_propensity")
        data = generate_scenario(Scenario("HOM", 60), 1)
        specs = scenario_specs("HOM")
        spec = ModelSpec(outcome_terms=specs["mixed_full"].outcome_terms,
                         ps_terms=specs["ps_full"].ps_terms)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cluster_bootstrap(data, EstimatorConfig("DRGLMM", "ATT", spec=spec), B=30, seed=0)
            assert counts == {"estimate_effects": 1}
            for ps_terms in (spec.ps_terms, ("1",)):
                counts.clear()
                dr_specification_test(data, replace(spec, ps_terms=ps_terms), B=30, seed=0)
                assert counts == {"estimate_effects": 3, "fit_propensity": 1}
            counts.clear()
            run_study(Scenario("HOM", 15), R=40, seed=1)
            assert counts == {}

    @pytest.mark.parametrize("sid", ["HET", "HOM", "RANDCOEF_TI"])
    def test_vouched_pairs_are_the_single_estimates_bit_for_bit(self, sid):
        # One chunk of 25 draws: every pair the batch finds ok, DRGLMM's
        # included and most of them, is the draw's own estimate to the last
        # bit, every other pair NaN where the own estimate fails, with the
        # same warnings in order.
        sc = Scenario(sid, 250)
        specs = scenario_specs(sid)
        suite = [(e.method, simlab._entry_spec(e, specs)) for e in DEFAULT_SUITE]
        (batch, C), = simlab._draw_chunks(sc, 3, range(25), 5)
        _, ok, _ = batch.values(suite, C)
        dr = [i for i, (method, _) in enumerate(suite) if method == "DRGLMM"]
        assert ok[:, dr].sum() >= 25 * len(dr) // 2
        got, got_warnings = _run_recorded(inference._replicate_values, suite, [(batch, C)])
        want, want_warnings = _run_recorded(study_values_reference, sc, DEFAULT_SUITE, 25, 3, 5)
        np.testing.assert_array_equal(got, want)
        assert got_warnings == want_warnings

    # Bins of one unit each leave DRGLMM more unit-constant columns than units.
    @example(sid="HOM", n=15, R=2, seed=0, k_bins=15)
    @given(sid=st.sampled_from(SCENARIO_IDS), n=st.integers(15, 400),
           R=st.integers(2, 8), seed=st.integers(0, 10_000), k_bins=st.integers(2, 20))
    def test_batch_equals_single(self, sid, n, R, seed, k_bins):
        # A point estimate makes its replicate's kernel calls, on a batch of
        # one: every pair of a chunk of draws is the draw's own estimate to
        # the last bit, NaN where that fails, with the same warnings in
        # order.  Small n brings extreme weights, separation and rank loss.
        sc = Scenario(sid, n)
        k_bins = min(k_bins, n)
        specs = scenario_specs(sid)
        suite = [(e.method, simlab._entry_spec(e, specs)) for e in DEFAULT_SUITE]
        got, got_warnings = _run_recorded(inference._replicate_values, suite,
                                          simlab._draw_chunks(sc, seed, range(R), k_bins))
        want, want_warnings = _run_recorded(study_values_reference, sc, DEFAULT_SUITE, R,
                                            seed, k_bins)
        np.testing.assert_array_equal(got, want)
        assert got_warnings == want_warnings

    @pytest.mark.parametrize("sid,n,k_bins", [("HET", 250, 5), ("HOM", 15, 15), ("HOM", 15, 12)])
    def test_fused_entries_are_each_entry_alone(self, sid, n, k_bins, monkeypatch):
        # The entries of one outcome design fit in one kernel call per bin
        # count.  Each pair is still its entry's own, evaluated as a suite
        # of one, to the last bit, and the warnings are each entry's own,
        # fit by fit.  At n = 15 fits fail, so entries fit on subsets of the
        # chunk, and a constant treatment model's entries (added there)
        # collapse every bin into one, a bin count of their own.
        calls = Counter()
        kernel = estimators._fit_lmm_batch

        def counted(rows, C, *args, **kwargs):
            calls[C.shape[0]] += 1
            return kernel(rows, C, *args, **kwargs)

        monkeypatch.setattr(estimators, "_fit_lmm_batch", counted)
        specs = scenario_specs(sid)
        suite = [(e.method, simlab._entry_spec(e, specs)) for e in DEFAULT_SUITE]
        if n == 15:
            suite += [(method, replace(spec, ps_terms=("1",)))
                      for method, spec in suite if method == "DRGLMM"][::2]
        sc, seed, R = Scenario(sid, n), 0, 20
        (batch, C), = simlab._draw_chunks(sc, seed, range(R), k_bins)
        vals, ok, notes = batch.values(suite, C)
        fused = +calls
        for i, entry in enumerate(suite):
            (alone, C), = simlab._draw_chunks(sc, seed, range(R), k_bins)
            want_vals, want_ok, _ = alone.values([entry], C)
            np.testing.assert_array_equal(vals[:, i], want_vals[:, 0])
            np.testing.assert_array_equal(ok[:, i], want_ok[:, 0])
        want_notes = []
        for r in range(R):
            (one, C), = simlab._draw_chunks(sc, seed, [r], k_bins)
            for entry in suite:
                want_notes += one.values([entry], C)[2]
        assert notes == want_notes
        if n == 250:
            assert ok.all()
            assert fused == {R: 2, 2 * R: 2}
        else:
            dr = [i for i, (method, _) in enumerate(suite) if method == "DRGLMM"]
            assert 0 < ok[:, dr].sum() < ok[:, dr].size
            assert sum(fused.values()) == 6
            assert any(category is DegenerateBinsWarning for _, category in notes)

    def test_a_chunk_makes_one_mixed_call_per_outcome_design_and_bin_count(self, monkeypatch):
        # DEFAULT_SUITE on a HET chunk: GLMM's two designs, then the four
        # DRGLMM entries in one call per design.  The fused calls keep the
        # chunk's one copy of each design.
        calls = []
        kernel = estimators._fit_lmm_batch

        def spied(rows, C, *args, **kwargs):
            calls.append((C.shape[0], [r.X.shape[0] for r in rows]))
            return kernel(rows, C, *args, **kwargs)

        monkeypatch.setattr(estimators, "_fit_lmm_batch", spied)
        specs = scenario_specs("HET")
        suite = [(e.method, simlab._entry_spec(e, specs)) for e in DEFAULT_SUITE]
        (batch, C), = simlab._draw_chunks(Scenario("HET", 250), 0, range(40), 5)
        batch.values(suite, C)
        assert calls == [(40, [40, 40]), (80, [40, 40]), (40, [40, 40]), (80, [40, 40])]

    def test_draw_without_overlap_raises_as_before(self):
        # Replicate 8 of this 4-unit scenario treats every unit.
        sc = Scenario("HOM", 4)
        suite = (SuiteEntry("DID"),)
        with pytest.raises(NoOverlapError) as want:
            run_study_reference(sc, suite, R=10, seed=0)
        with pytest.raises(NoOverlapError) as got:
            run_study(sc, suite, R=10, seed=0)
        assert str(got.value) == str(want.value)


class TestTables:
    @staticmethod
    def _small_result(seed=0):
        suite = (SuiteEntry("DID"), SuiteEntry("IPWDID", ps_model="full"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return run_study(Scenario("HOM", 60), suite, R=4, seed=seed)

    def test_csv_round_trip_is_exact(self):
        res = self._small_result()
        back = parse_table(render_table(res, fmt="csv"))
        assert len(back) == 1
        assert back[0] == res

    def test_csv_round_trip_of_several_results(self):
        a, b = self._small_result(0), self._small_result(1)
        back = parse_table(render_table([a, b], fmt="csv"))
        assert back == [a, b]

    def test_text_table_shape(self):
        res = self._small_result()
        text = render_table(res, estimand="ATT")
        lines = text.strip().split("\n")
        assert lines[0].startswith("scenario HOM")
        assert "truth 15.000000" in lines[0]
        assert any(line.startswith("did") for line in lines)
        assert any(line.startswith("ipwdid-full") for line in lines)

    def test_text_table_requires_shared_suites(self):
        res = self._small_result()
        other = run_study(Scenario("HOM", 60), (SuiteEntry("DID"),), R=4, seed=0)
        with pytest.raises(InvalidArgumentError):
            render_table([res, other])

    def test_render_validation(self):
        with pytest.raises(InvalidArgumentError):
            render_table([])
        with pytest.raises(InvalidArgumentError):
            render_table(self._small_result(), fmt="json")

    def test_unknown_estimand_rejected(self):
        res = self._small_result()
        for fmt in ("text", "csv"):
            with pytest.raises(InvalidArgumentError, match="estimand"):
                render_table(res, estimand="xyz", fmt=fmt)
        assert render_table(res, estimand="att") == render_table(res, estimand="ATT")

    def test_parse_rejects_foreign_text(self):
        with pytest.raises(InvalidArgumentError):
            parse_table("")
        with pytest.raises(InvalidArgumentError):
            parse_table("a,b,c\n1,2,3\n")
