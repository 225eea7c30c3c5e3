import statistics

import numpy as np
import pytest
from hypothesis import given, strategies as st

from peergrade import (
    EmConfig,
    EvalConfig,
    FrozenPrediction,
    GibbsConfig,
    GradingGraph,
    GroundTruth,
    Hyperparameters,
    Model,
    PeerGrade,
    SynthConfig,
    TruthSource,
    evaluate_baseline,
    evaluate_model,
    fit_frozen,
    generate,
    gibbs_infer,
    median_baseline,
    simulate_frozen,
)
from conftest import make_graph


class TestMedianBaseline:
    def test_odd(self):
        assert median_baseline([3.0, 1.0, 2.0]) == 2.0

    def test_even_averages_middle_pair(self):
        assert median_baseline([4.0, 1.0, 3.0, 2.0]) == 2.5

    @given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=25))
    def test_matches_statistics_median(self, xs):
        assert median_baseline(xs) == pytest.approx(statistics.median(xs), abs=1e-12)


class TestEvalConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EvalConfig(n_simulations=0)
        with pytest.raises(ValueError):
            EvalConfig(grades_per_simulation=0)


def _frozen(scores, bias=None, precision=None, mu0=75.0, gamma0=0.01,
            truth=70.0, staff=None):
    """scores: mapping grader -> observed pool grade."""
    from peergrade import PeerGrade

    pool = tuple(PeerGrade(1, v, "u", z) for v, z in scores.items())
    return FrozenPrediction(
        assignment=1,
        gradee="u",
        index=0,
        mu0=mu0,
        gamma0=gamma0,
        pool=pool,
        bias=bias if bias is not None else {v: 0.0 for v in scores},
        precision=precision if precision is not None else {v: 0.25 for v in scores},
        truth_consensus=truth,
        truth_staff=staff,
    )


class TestFrozenPrediction:
    def test_estimate_closed_form(self):
        fp = _frozen({"a": 82.0, "b": 76.0}, mu0=70.0, gamma0=0.01)
        mean, sd = fp.estimate(fp.pool)
        p = 0.01 + 0.25 + 0.25
        m = (0.01 * 70.0 + 0.25 * 82.0 + 0.25 * 76.0) / p
        assert mean == pytest.approx(m)
        assert sd == pytest.approx(1.0 / np.sqrt(p))

    def test_estimate_corrects_bias(self):
        fp = _frozen({"a": 82.0}, bias={"a": 4.0}, precision={"a": 1.0}, gamma0=1e-12, mu0=0.0)
        mean, _ = fp.estimate(fp.pool)
        assert mean == pytest.approx(78.0, abs=1e-6)

    def test_truth_source(self):
        fp = _frozen({"a": 80.0}, truth=70.0, staff=64.0)
        assert fp.truth(TruthSource.CONSENSUS) == 70.0
        assert fp.truth(TruthSource.STAFF) == 64.0

    def test_missing_staff_errors(self):
        fp = _frozen({"a": 80.0}, staff=None)
        with pytest.raises(ValueError, match="staff"):
            fp.truth(TruthSource.STAFF)


class TestSimulateFrozen:
    POOL = {"a": 70.0, "b": 72.0, "c": 68.0, "d": 71.0, "e": 74.0, "f": 69.0}

    def test_deterministic_per_index(self):
        cfg = EvalConfig(n_simulations=50, grades_per_simulation=3, seed=4)
        a = simulate_frozen(_frozen(self.POOL), cfg)
        b = simulate_frozen(_frozen(self.POOL), cfg)
        assert np.array_equal(a.estimates, b.estimates)

    def test_index_changes_stream(self):
        cfg = EvalConfig(n_simulations=50, grades_per_simulation=3, seed=4)
        fp0 = _frozen(self.POOL)
        fp1 = FrozenPrediction(**{**fp0.__dict__, "index": 1})
        a = simulate_frozen(fp0, cfg)
        b = simulate_frozen(fp1, cfg)
        assert not np.array_equal(a.estimates, b.estimates)

    def test_pool_too_small(self):
        fp = _frozen({"a": 70.0, "b": 72.0})
        with pytest.raises(ValueError, match="pool"):
            simulate_frozen(fp, EvalConfig(n_simulations=5, grades_per_simulation=3, seed=0))

    def test_zero_noise_pool_gives_zero_rmse(self):
        fp = _frozen({k: 70.0 for k in "abcd"}, mu0=70.0, truth=70.0)
        ev = simulate_frozen(fp, EvalConfig(n_simulations=40, grades_per_simulation=2, seed=1))
        assert np.allclose(ev.residuals, 0.0)
        assert ev.sigmas is not None and np.all(ev.sigmas > 0)


@pytest.fixture(scope="module")
def reports(small_pg1):
    graph, _ = small_pg1
    hp = Hyperparameters()
    eval_cfg = EvalConfig(n_simulations=150, grades_per_simulation=4, seed=9)
    base = evaluate_baseline(graph, eval_cfg)
    gibbs = evaluate_model(graph, hp, Model.PG1, eval_cfg,
                           gibbs_cfg=GibbsConfig(model=Model.PG1, total_sweeps=300, burn_in=60, seed=2))
    em = evaluate_model(graph, hp, Model.PG1, eval_cfg, engine="em", em_cfg=EmConfig(model=Model.PG1))
    return base, gibbs, em


class TestConfigForTheWrongModel:
    @pytest.mark.parametrize("engine, cfg, message", [
        ("gibbs", GibbsConfig(model=Model.PG2), "GibbsConfig is for pg2, but pg1 was asked for"),
        ("em", EmConfig(model=Model.PG1_BIAS), "EmConfig is for pg1bias, but pg1 was asked for"),
    ], ids=["gibbs", "em"])
    def test_evaluate_model_rejects_it(self, small_pg1, engine, cfg, message):
        with pytest.raises(ValueError, match=message):
            evaluate_model(small_pg1[0], Hyperparameters(), Model.PG1, EvalConfig(n_simulations=10),
                           engine=engine, **{f"{engine}_cfg": cfg})


class TestEndToEnd:
    def test_shapes(self, reports, small_pg1):
        graph, _ = small_pg1
        n_gt = len(graph.ground_truth)
        for rep in reports:
            assert len(rep.submissions) == n_gt
            assert all(s.residuals.shape == (150,) for s in rep.submissions)
            assert set(rep.metrics) == {"RMSE", "% Within 5pp", "% Within 10pp", "Mean Std", "Worst Grade"}

    def test_model_beats_baseline_here(self, reports):
        base, gibbs, em = reports
        assert gibbs.rmse < base.rmse
        assert em.rmse < base.rmse

    def test_worst_grade_is_signed_extreme(self, reports):
        base, _, _ = reports
        res = base.all_residuals
        assert abs(base.worst_grade) == pytest.approx(np.max(np.abs(res)))

    def test_mean_std_matches_manual(self, reports):
        base, _, _ = reports
        manual = np.mean([np.std(s.residuals) for s in base.submissions])
        assert base.mean_std == pytest.approx(manual)

    def test_baseline_draws_match_model_draws(self, small_pg1):
        """Baseline and model see identical simulated grade draws: with the
        same seed their per-sim estimates differ only via the estimator."""
        graph, _ = small_pg1
        eval_cfg = EvalConfig(n_simulations=30, grades_per_simulation=4, seed=77)
        base1 = evaluate_baseline(graph, eval_cfg)
        base2 = evaluate_baseline(graph, eval_cfg)
        assert all(np.array_equal(a.estimates, b.estimates)
                   for a, b in zip(base1.submissions, base2.submissions))


class TestFitFrozen:
    def test_unseen_pool_grader_falls_back_to_prior(self):
        # grader "z" only ever graded the held-out submission: after removal the
        # fit knows nothing about them, so the frozen prediction must use the
        # prior bias 0 and prior mean reliability
        rows = [
            (1, "a", "u", 78.0), (1, "b", "u", 74.0), (1, "z", "u", 90.0),
            (1, "a", "w", 70.0), (1, "b", "w", 80.0), (1, "u", "w", 75.0),
            (1, "w", "x", 68.0), (1, "u", "x", 72.0),
        ]
        graph = make_graph(rows, ground_truth={(1, "u"): GroundTruth(consensus_score=80.0)})
        hp = Hyperparameters(mu0=75.0, gamma0=0.01)
        fp = fit_frozen(graph, hp, Model.PG1, (1, "u"), index=0, engine="em",
                        em_cfg=EmConfig(model=Model.PG1))
        assert fp.bias["z"] == 0.0
        assert fp.precision["z"] == pytest.approx(hp.alpha0 / hp.beta0)

    def test_pg2_assume_normalized_freezes_priors_in_fit_units(self):
        # the fit ran on raw grades with mu0/gamma0 as given, so the frozen
        # prior and a pool grader's fallback reliability must not be mapped
        # through a z-score normalization the fit never applied
        graph, _ = generate(SynthConfig(n_students=120, n_assignments=2, super_grades=20,
                                        model=Model.PG2, seed=1))
        key = sorted(graph.ground_truth)[0]
        graph = GradingGraph(list(graph.grades) + [PeerGrade(key[0], "pool-only", key[1], 70.0)],
                             ground_truth=graph.ground_truth)
        hp = Hyperparameters(mu0=75.0, gamma0=0.01)
        cfg = GibbsConfig(model=Model.PG2, total_sweeps=20, burn_in=5, assume_normalized=True)
        fp = fit_frozen(graph, hp, Model.PG2, key, gibbs_cfg=cfg)
        assert (fp.mu0, fp.gamma0) == (75.0, 0.01)
        assert fp.precision["pool-only"] == hp.alpha0 / hp.beta0

    def test_pg3_precision_is_the_theta_line_at_the_reduced_fit_means(self):
        graph, _ = generate(SynthConfig(n_students=60, super_grades=20, model=Model.PG3, seed=7))
        key = sorted(graph.ground_truth)[0]
        hp = Hyperparameters()
        cfg = GibbsConfig(model=Model.PG3, total_sweeps=60, burn_in=10, seed=3)
        fp = fit_frozen(graph, hp, Model.PG3, key, gibbs_cfg=cfg)
        summary = gibbs_infer(graph.without_received(*key), hp, cfg)
        th0, th1 = summary.theta["theta0"].mean, summary.theta["theta1"].mean
        for g in fp.pool:
            expected = max(th1 * summary.s[(key[0], g.grader)].mean + th0, hp.precision_floor)
            assert fp.precision[g.grader] == pytest.approx(expected, rel=1e-12)

    def test_pool_is_original_graders(self, small_pg1):
        graph, _ = small_pg1
        key = sorted(graph.ground_truth)[0]
        fp = fit_frozen(graph, Hyperparameters(), Model.PG1, key, index=0, engine="em",
                        em_cfg=EmConfig(model=Model.PG1))
        assert {g.grader for g in fp.pool} == {g.grader for g in graph.graders_of(*key)}
