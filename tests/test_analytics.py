import math

import numpy as np
import pytest

from peergrade import (
    Covariate,
    Hyperparameters,
    Model,
    SynthConfig,
    bias_temporal_correlation,
    generate,
    joint_residual_heatmap,
    residual_vs_covariate,
)
from peergrade.analytics import _residuals
from peergrade.core import GradingGraph, PeerGrade


class TestBiasTemporalCorrelation:
    def test_identical_biases_correlate_perfectly(self):
        rng = np.random.default_rng(1)
        b = rng.normal(0, 4, size=40)
        est = {}
        for a in (1, 2):
            for i, v in enumerate(b):
                est[(a, f"g{i}")] = v + rng.normal(0, 1e-9)
        rep = bias_temporal_correlation(est)
        assert len(rep.pairs) == 1
        assert rep.pairs[0].n_common == 40
        assert rep.pairs[0].pearson == pytest.approx(1.0, abs=1e-6)
        assert rep.pooled == pytest.approx(1.0, abs=1e-6)

    def test_sign_flip_gives_negative_one(self):
        est = {(1, f"g{i}"): float(i) for i in range(10)}
        est.update({(2, f"g{i}"): float(-i) for i in range(10)})
        rep = bias_temporal_correlation(est)
        assert rep.pairs[0].pearson == pytest.approx(-1.0, abs=1e-12)

    def test_min_overlap_skips_pair(self):
        est = {(1, "a"): 1.0, (1, "b"): 2.0,
               (2, "a"): 1.0, (2, "b"): 2.0,
               (3, "a"): 1.0, (3, "b"): 2.0, (3, "c"): 0.0, (3, "d"): 3.0}
        # pairs (1,2) and (2,3) both have only 2 common graders
        rep = bias_temporal_correlation(est, min_overlap=3)
        assert rep.pairs == ()
        assert rep.skipped == ((1, 2, 2), (2, 3, 2))
        assert math.isnan(rep.pooled)

    def test_needs_two_assignments(self):
        with pytest.raises(ValueError, match="at least 2 assignments"):
            bias_temporal_correlation({(1, "a"): 0.0, (1, "b"): 1.0})

    def test_explicit_assignment_order(self):
        est = {(a, f"g{i}"): float(i + a) for a in (1, 2, 3) for i in range(5)}
        rep = bias_temporal_correlation(est, assignments=(1, 3))
        assert [(p.assignment_prev, p.assignment_next) for p in rep.pairs] == [(1, 3)]

    def test_pooled_spans_all_pairs(self):
        # per-pair correlation is perfect, but pair-level offsets drag the
        # pooled scatter below 1
        est = {}
        for i in range(20):
            est[(1, f"g{i}")] = float(i)
            est[(2, f"g{i}")] = float(i)
            est[(3, f"g{i}")] = float(i) + 40.0
        rep = bias_temporal_correlation(est)
        assert all(p.pearson == pytest.approx(1.0) for p in rep.pairs)
        assert rep.pooled < 0.9

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_generated_pg2_latents_recover_the_analytic_lag1_pearson(self, seed):
        """generate's latents go in as they are; the chain's lag-1 Pearson is
        sqrt(v1 / (v1 + 1/omega0)) with v1 = 1/eta0, about 0.011 standard error
        at 2,000 graders."""
        hp = Hyperparameters(mu0=75.0, gamma0=1 / 100, eta0=1 / 25, omega0=1 / 25, alpha0=2.0, beta0=8.0)
        _, latents = generate(SynthConfig(n_students=2000, n_assignments=2, grades_per_grader=6,
                                          n_ground_truth=0, super_grades=0, model=Model.PG2, hp=hp, seed=seed))
        v1 = 1.0 / hp.eta0
        rep = bias_temporal_correlation(latents)
        assert rep.pairs[0].n_common == 2000
        assert rep.pooled == pytest.approx(math.sqrt(v1 / (v1 + 1.0 / hp.omega0)), abs=0.04)


def planted_graph(slope: float, seed: int = 0, n: int = 64, per: int = 40):
    """One assignment, n graders each grading `per` others; residual trend
    planted linearly in the grader's own (estimated) score."""
    rng = np.random.default_rng(seed)
    students = [f"s{i:03d}" for i in range(n)]
    s_hat = {(1, u): 50.0 + 30.0 * i / (n - 1) for i, u in enumerate(students)}
    grades = []
    for i, v in enumerate(students):
        others = [u for u in students if u != v]
        for u in rng.choice(others, size=per, replace=False):
            resid = slope * (s_hat[(1, v)] - 65.0) + rng.normal(0, 0.5)
            grades.append(PeerGrade(1, v, str(u), s_hat[(1, str(u))] + resid,
                                    seconds=float(rng.integers(60, 1200))))
    return GradingGraph(grades), s_hat


class TestResidualVsCovariate:
    def test_planted_grader_trend_is_monotone(self):
        graph, s_hat = planted_graph(slope=0.4)
        table = residual_vs_covariate(graph, s_hat, Covariate.GRADER_SCORE,
                                      n_bins=6, min_support=10)
        means = [b.mean_residual for b in table.bins if not b.flagged]
        assert len(means) >= 4
        assert means == sorted(means)
        assert means[-1] - means[0] > 5.0

    def test_flat_when_no_trend(self):
        graph, s_hat = planted_graph(slope=0.0, seed=3)
        table = residual_vs_covariate(graph, s_hat, Covariate.GRADER_SCORE,
                                      n_bins=6, min_support=10)
        for b in table.bins:
            if not b.flagged:
                assert abs(b.mean_residual) < 0.3

    def test_bin_edges_partition_z_range(self):
        graph, s_hat = planted_graph(slope=0.1)
        table = residual_vs_covariate(graph, s_hat, Covariate.GRADEE_SCORE, n_bins=8)
        assert table.bins[0].lo == -2.0 and table.bins[-1].hi == 2.0
        for a, b in zip(table.bins, table.bins[1:]):
            assert a.hi == pytest.approx(b.lo)

    def test_counts_sum_to_n_grades(self):
        graph, s_hat = planted_graph(slope=0.1)
        table = residual_vs_covariate(graph, s_hat, Covariate.GRADER_SCORE)
        assert sum(table.counts) == table.n_grades == len(graph.grades)

    def test_support_flagging(self):
        graph, s_hat = planted_graph(slope=0.1, n=20, per=5)
        table = residual_vs_covariate(graph, s_hat, Covariate.GRADER_SCORE,
                                      n_bins=8, min_support=1000)
        assert all(b.flagged for b in table.bins)

    def test_time_spent_requires_seconds(self):
        grades = [PeerGrade(1, "a", "b", 70.0), PeerGrade(1, "b", "a", 80.0)]
        graph = GradingGraph(grades)
        s_hat = {(1, "a"): 75.0, (1, "b"): 75.0}
        with pytest.raises(ValueError, match="missing seconds column"):
            residual_vs_covariate(graph, s_hat, Covariate.TIME_SPENT)

    def test_time_spent_uses_seconds(self):
        graph, s_hat = planted_graph(slope=0.0)
        table = residual_vs_covariate(graph, s_hat, Covariate.TIME_SPENT)
        assert table.n_grades == len(graph.grades)
        assert table.covariate is Covariate.TIME_SPENT

    def test_residuals_keep_input_order_across_assignments(self):
        rows = [(2, "a", "b", 61.0), (1, "b", "c", 72.5), (2, "c", "a", 58.0),
                (1, "a", "b", 80.0), (2, "b", "c", 66.0), (1, "c", "a", 70.0)]
        graph = GradingGraph([PeerGrade(*row) for row in rows])
        s_hat = {(a, u): 60.0 + 10.0 * a + i for a in (1, 2) for i, u in enumerate("abc")}
        resid, grader_s, gradee_s, _, assign = _residuals(graph, s_hat)
        assert assign.tolist() == [a for a, _, _, _ in rows]
        assert grader_s.tolist() == [s_hat[a, v] for a, v, _, _ in rows]
        assert gradee_s.tolist() == [s_hat[a, u] for a, _, u, _ in rows]
        assert resid.tolist() == [z - s_hat[a, u] for a, _, u, z in rows]

    def test_missing_estimate_names_the_submission(self):
        graph, s_hat = planted_graph(slope=0.1, n=20, per=5)
        del s_hat[(1, "s007")]
        with pytest.raises(KeyError, match=r"\(1, 's007'\)"):
            residual_vs_covariate(graph, s_hat, Covariate.GRADER_SCORE)

    def test_accepts_posterior_summary_duck_type(self, small_pg1):
        from peergrade import GibbsConfig, Hyperparameters, Model, gibbs_infer

        graph, _ = small_pg1
        summary = gibbs_infer(graph, Hyperparameters(), GibbsConfig(
            model=Model.PG1, total_sweeps=80, burn_in=20, seed=4))
        t1 = residual_vs_covariate(graph, summary, Covariate.GRADEE_SCORE)
        plain = {k: v.mean for k, v in summary.s.items()}
        t2 = residual_vs_covariate(graph, plain, Covariate.GRADEE_SCORE)
        assert t1 == t2


class TestJointResidualHeatmap:
    def test_counts_and_shape(self):
        graph, s_hat = planted_graph(slope=0.2)
        hm = joint_residual_heatmap(graph, s_hat, n_bins=5, min_support=5)
        assert hm.counts.shape == (5, 5)
        assert hm.mean_residual_z.shape == (5, 5)
        assert int(hm.counts.sum()) == hm.n_grades == len(graph.grades)
        assert len(hm.edges) == 6

    def test_low_support_cells_are_nan(self):
        graph, s_hat = planted_graph(slope=0.2)
        hm = joint_residual_heatmap(graph, s_hat, n_bins=5, min_support=20)
        low = hm.counts < 20
        assert np.isnan(hm.mean_residual_z[low]).all()
        assert np.isfinite(hm.mean_residual_z[~low]).all()

    def test_residuals_are_zscored(self):
        graph, s_hat = planted_graph(slope=0.3)
        hm = joint_residual_heatmap(graph, s_hat, n_bins=4, min_support=1)
        total = float(np.nansum(hm.mean_residual_z * hm.counts))
        assert total == pytest.approx(0.0, abs=1e-8)

    def test_planted_trend_shows_on_grader_axis(self):
        graph, s_hat = planted_graph(slope=0.4)
        hm = joint_residual_heatmap(graph, s_hat, n_bins=4, min_support=10)
        row_means = np.nanmean(hm.mean_residual_z, axis=1)
        finite = row_means[np.isfinite(row_means)]
        assert finite[-1] > finite[0]

    def test_self_grades_excluded(self):
        grades = [PeerGrade(1, "a", "a", 90.0)]
        for i in range(6):
            grades.append(PeerGrade(1, "a", f"x{i}", 70.0 + i))
            grades.append(PeerGrade(1, f"x{i}", "a", 75.0))
        graph = GradingGraph(grades)
        s_hat = {(1, u): 75.0 for u in graph.submissions(1)}
        hm = joint_residual_heatmap(graph, s_hat, n_bins=2, min_support=1)
        assert hm.n_grades == len(grades) - 1
