import math
import re

import numpy as np
import pytest
from scipy import special

from peergrade import (
    DELTAS,
    EmConfig,
    EvalConfig,
    GibbsConfig,
    Hyperparameters,
    Model,
    calibration_experiment,
    confidence,
    empirical_confidence,
    restrict_to_first_grades,
    rounds_experiment,
)
from peergrade import calibration
from conftest import make_graph

HP = Hyperparameters(mu0=75.0, gamma0=1 / 100)


class TestConfidence:
    def test_two_sigma(self):
        # delta exactly 2 posterior sds: erf(sqrt(2)) = 0.9544997...
        assert confidence(80.0, 4.0, 4.0) == pytest.approx(0.9544997361036416, abs=1e-12)

    def test_95_percent_quantile(self):
        sigma = 3.7
        assert confidence(0.0, sigma**2, 1.959963984540054 * sigma) == pytest.approx(0.95, abs=1e-9)

    def test_zero_delta(self):
        assert confidence(50.0, 9.0, 0.0) == 0.0

    def test_monotone_in_delta(self):
        cs = [confidence(0.0, 25.0, d) for d in (1.0, 2.0, 5.0, 10.0, 20.0)]
        assert cs == sorted(cs)
        assert 0.0 < cs[0] and cs[-1] < 1.0

    def test_rejects_bad_variance(self):
        with pytest.raises(ValueError):
            confidence(0.0, 0.0, 5.0)
        with pytest.raises(ValueError):
            confidence(0.0, -1.0, 5.0)


def test_calibration_erf_is_within_4_ulp_of_scipy():
    """The elementwise math.erf that bins calibration's confidences against
    scipy.special.erf, on 0, subnormals, a log grid up to 10^1.5, large
    arguments and inf; the largest gap seen over a million values was 3 ulp."""
    x = np.concatenate([
        [0.0, 5e-324, 1e-310, np.finfo(float).tiny, 1e-300, 6.0, 27.0, 1e10, 1e308, np.inf],
        np.logspace(-20, 1.5, 20_001),
        np.random.default_rng(1).uniform(0.0, 6.0, 20_000),
    ])
    ours, ref = calibration._erf(x), special.erf(x)
    assert ours.dtype == np.float64 and ours.shape == x.shape
    assert np.all(np.abs(ours - ref) <= 4 * np.spacing(np.abs(ref)))


class TestEmpiricalConfidence:
    def test_coverage_fraction(self):
        samples = np.array([0.0, 1.0, 2.0, 3.0, 10.0])
        # mean 3.2; |x - 3.2| <= 3 covers {1,2,3} -> wait, 0.2? |0-3.2|=3.2 no; |1-3.2|=2.2 yes
        assert empirical_confidence(samples, 3.0) == pytest.approx(3 / 5)

    def test_matches_gaussian_for_normal_samples(self):
        rng = np.random.default_rng(5)
        samples = rng.normal(10.0, 2.0, size=200_000)
        emp = empirical_confidence(samples, 3.0)
        assert emp == pytest.approx(math.erf(3.0 / (2.0 * math.sqrt(2.0))), abs=5e-3)


@pytest.fixture(scope="module")
def report(small_pg1):
    graph, _ = small_pg1
    return calibration_experiment(
        graph, Hyperparameters(), Model.PG1,
        EvalConfig(n_simulations=200, grades_per_simulation=4, seed=3),
        engine="em", em_cfg=EmConfig(model=Model.PG1),
    )


class TestCalibrationExperiment:
    def test_bin_partition(self, report):
        for delta in DELTAS:
            bins = report.bins_for(delta)
            assert len(bins) == 20
            assert bins[0].bin_lo == 0.0 and bins[-1].bin_hi == 1.0
            for lo, hi in zip(bins, bins[1:]):
                assert lo.bin_hi == pytest.approx(hi.bin_lo)
                assert lo.bin_hi - lo.bin_lo == pytest.approx(0.05)

    def test_counts_sum_to_predictions(self, report, small_pg1):
        graph, _ = small_pg1
        n = len(graph.ground_truth) * 200
        assert report.n_predictions == n
        for delta in DELTAS:
            assert sum(b.count for b in report.bins_for(delta)) == n

    @pytest.mark.parametrize("kwargs, message", [
        ({"n_bins": 0}, "n_bins must be >= 1, got 0"),
        ({"deltas": (5.0, -1.0)}, "every delta must be finite and >= 0"),
        ({"deltas": (float("nan"),)}, "every delta must be finite and >= 0"),
        ({"deltas": (float("inf"),)}, "every delta must be finite and >= 0"),
    ], ids=["n_bins=0", "delta=-1", "delta=nan", "delta=inf"])
    def test_bad_arguments_rejected_before_any_fit(self, small_pg1, monkeypatch, kwargs, message):
        def no_evaluation(*args, **kw):
            raise AssertionError("the evaluation ran before the arguments were checked")

        monkeypatch.setattr(calibration, "evaluate_model", no_evaluation)
        with pytest.raises(ValueError, match=message):
            calibration_experiment(small_pg1[0], Hyperparameters(), Model.PG1, EvalConfig(n_simulations=10),
                                   engine="em", **kwargs)

    def test_pass_rate_nan_only_when_empty(self, report):
        for b in report.bins:
            if b.count == 0:
                assert math.isnan(b.pass_rate)
            else:
                assert 0.0 <= b.pass_rate <= 1.0


class TestRestrictToFirstGrades:
    def test_keeps_input_order_not_sorted_order(self):
        rows = [(1, "v", "zz", 80.0), (1, "v", "aa", 70.0), (1, "w", "aa", 75.0)]
        g = make_graph(rows)
        r1 = restrict_to_first_grades(g, 1)
        kept = {(x.grader, x.gradee) for x in r1.grades}
        assert kept == {("v", "zz"), ("w", "aa")}

    def test_k_at_max_is_identity(self, small_pg1):
        graph, _ = small_pg1
        kmax = max(len(graph.gradees_of(1, v.grader)) for v in graph.grades)
        full = restrict_to_first_grades(graph, kmax)
        assert full.grades == graph.grades

    def test_universe_preserved(self):
        g = make_graph([(1, "v", "u", 80.0), (1, "v", "w", 70.0)])
        r = restrict_to_first_grades(g, 1)
        assert r.submissions(1) == g.submissions(1)

    def test_k_must_be_positive(self, small_pg1):
        graph, _ = small_pg1
        with pytest.raises(ValueError):
            restrict_to_first_grades(graph, 0)


@pytest.fixture(scope="module")
def rounds_graph():
    from peergrade import SynthConfig, generate

    cfg = SynthConfig(n_students=50, n_assignments=1, grades_per_grader=4,
                      n_ground_truth=2, super_grades=10, model=Model.PG1, seed=55)
    return generate(cfg)[0]


class TestRoundsExperiment:
    def test_row_shape_and_bounds(self, rounds_graph):
        rep = rounds_experiment(rounds_graph, Hyperparameters(), Model.PG1,
                                gibbs_cfg=GibbsConfig(model=Model.PG1, total_sweeps=150, burn_in=30, seed=8))
        assert [r.round for r in rep.rows] == list(range(1, len(rep.rows) + 1))
        total = len(rounds_graph.submissions(1))
        for r in rep.rows:
            assert r.total == total
            assert 0 <= r.confident_count <= total
        assert 0.0 <= rep.final_unresolved_fraction <= 1.0

    def test_deterministic(self, rounds_graph):
        cfg = GibbsConfig(model=Model.PG1, total_sweeps=100, burn_in=20, seed=8)
        a = rounds_experiment(rounds_graph, Hyperparameters(), Model.PG1, gibbs_cfg=cfg, max_rounds=2)
        b = rounds_experiment(rounds_graph, Hyperparameters(), Model.PG1, gibbs_cfg=cfg, max_rounds=2)
        assert [(r.round, r.confident_count) for r in a.rows] == [(r.round, r.confident_count) for r in b.rows]

    def test_rows_independent_of_thread_count(self, rounds_graph):
        cfg = GibbsConfig(model=Model.PG1, total_sweeps=100, burn_in=20, seed=8)
        one, two = (rounds_experiment(rounds_graph, Hyperparameters(), Model.PG1, gibbs_cfg=cfg,
                                      max_rounds=3, max_workers=n) for n in (1, 2))
        assert len(one.rows) == 3
        assert one.rows == two.rows

    def test_empirical_method_runs(self, rounds_graph):
        rep = rounds_experiment(rounds_graph, Hyperparameters(), Model.PG1,
                                gibbs_cfg=GibbsConfig(model=Model.PG1, total_sweeps=150, burn_in=30, seed=8),
                                method="empirical", max_rounds=2)
        assert len(rep.rows) == 2

    def test_unknown_method_rejected(self, rounds_graph):
        with pytest.raises(ValueError, match="method"):
            rounds_experiment(rounds_graph, Hyperparameters(), Model.PG1, method="exact")

    @pytest.mark.parametrize("method", ["closed_form", "empirical"])
    def test_one_retained_sweep_rejected_before_any_fit(self, rounds_graph, monkeypatch, method):
        # one draw has no spread: the closed form would divide by a zero variance,
        # and every submission would count as confident from its draw alone
        def no_fit(*_, **__):
            raise AssertionError("a round was fitted before the sweep counts were checked")

        monkeypatch.setattr(calibration, "gibbs_infer", no_fit)
        with pytest.raises(ValueError, match=re.escape(
                "rounds needs at least 2 retained sweeps to measure confidence, got 1 (2 sweeps, burn-in 1)")):
            rounds_experiment(rounds_graph, Hyperparameters(), Model.PG1, method=method,
                              gibbs_cfg=GibbsConfig(model=Model.PG1, total_sweeps=2, burn_in=1))

    def test_mismatched_config_model(self, rounds_graph):
        with pytest.raises(ValueError, match="GibbsConfig is for pg2, but pg1 was asked for"):
            rounds_experiment(rounds_graph, Hyperparameters(), Model.PG1,
                              gibbs_cfg=GibbsConfig(model=Model.PG2))
