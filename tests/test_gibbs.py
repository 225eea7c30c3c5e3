import gc
import math
import threading
import weakref
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from peergrade import (
    GibbsConfig,
    GradingGraph,
    Hyperparameters,
    LatentState,
    Model,
    PeerGrade,
    SynthConfig,
    TraceRecorder,
    cond_sample_bias,
    cond_sample_bias_chain,
    cond_sample_reliability,
    cond_sample_score,
    cond_sample_score_affine,
    generate,
    gibbs_infer,
    initial_state,
    sweep,
)
from peergrade import gibbs
from peergrade.evaluation import fit_frozen
from peergrade.gibbs import _build_engine, _Engine
from conftest import make_graph

HP = Hyperparameters(mu0=75.0, gamma0=1 / 100, eta0=1 / 25, alpha0=2.0, beta0=18.0)


def summary_vector(summary):
    out = []
    for kind in ("s", "b", "tau"):
        d = getattr(summary, kind)
        out.extend(d[k].mean for k in sorted(d))
        out.extend(d[k].var for k in sorted(d))
    return out


class TestConfig:
    def test_burn_in_must_leave_samples(self):
        with pytest.raises(ValueError, match="burn_in"):
            GibbsConfig(model=Model.PG1, total_sweeps=100, burn_in=100)

    def test_seed_range(self):
        with pytest.raises(ValueError, match="seed"):
            GibbsConfig(model=Model.PG1, seed=-1)

    def test_proposal_scale_positive(self):
        with pytest.raises(ValueError, match="proposal"):
            GibbsConfig(model=Model.PG3, mh_proposal_scale=0.0)

    def test_retained(self):
        assert GibbsConfig(model=Model.PG1, total_sweeps=800, burn_in=80).retained_sweeps == 720


class TestDeterminism:
    def test_same_seed_identical(self, small_pg1):
        graph, _ = small_pg1
        cfg = GibbsConfig(model=Model.PG1, total_sweeps=60, burn_in=10, seed=5)
        a = gibbs_infer(graph, HP, cfg)
        b = gibbs_infer(graph, HP, cfg)
        assert summary_vector(a) == summary_vector(b)

    def test_different_seed_differs(self, small_pg1):
        graph, _ = small_pg1
        a = gibbs_infer(graph, HP, GibbsConfig(model=Model.PG1, total_sweeps=60, burn_in=10, seed=5))
        b = gibbs_infer(graph, HP, GibbsConfig(model=Model.PG1, total_sweeps=60, burn_in=10, seed=6))
        assert summary_vector(a) != summary_vector(b)

    def test_pg2_on_one_assignment_is_pg1(self, small_pg1):
        # every submitter grades, so PG2's graders are PG1's, its bias chain is
        # the anchored bias block alone, and both draw from one stream
        graph, _ = small_pg1
        assert {g.grader for g in graph.grades} == set(graph.submissions(1))
        pg1 = gibbs_infer(graph, HP, GibbsConfig(model=Model.PG1, total_sweeps=200, burn_in=20, seed=5))
        pg2 = gibbs_infer(graph, HP, GibbsConfig(model=Model.PG2, total_sweeps=200, burn_in=20, seed=5,
                                                 assume_normalized=True))
        for kind in ("s", "b", "tau"):
            assert getattr(pg2, kind) == getattr(pg1, kind)
        assert summary_vector(pg2) == summary_vector(pg1)

    @pytest.mark.parametrize("model", [Model.PG1_BIAS, Model.PG1, Model.PG3], ids=lambda m: m.value)
    def test_assignment_block_equals_fit_of_that_assignment(self, model):
        # these models fit each assignment on its own stream, spawned in
        # assignment order, so later assignments cannot move the first. PG3's
        # one theta joins every assignment; held fixed, the rows are
        # independent again (the other models have no theta to hold)
        graph, _ = generate(SynthConfig(n_students=60, n_assignments=3, n_ground_truth=3,
                                        super_grades=20, seed=7))
        alone = GradingGraph([g for g in graph.grades if g.assignment == 1],
                             submissions={1: graph.submissions(1)})
        cfg = GibbsConfig(model=model, total_sweeps=120, burn_in=20, seed=7, sample_theta=False)
        full_fit = gibbs_infer(graph, Hyperparameters(), cfg)
        alone_fit = gibbs_infer(alone, Hyperparameters(), cfg)
        assert len(full_fit.s) == 3 * len(alone_fit.s)
        for kind in ("s", "b", "tau"):
            block = {k: v for k, v in getattr(full_fit, kind).items() if k[0] == 1}
            assert block == getattr(alone_fit, kind)


class TestMarginals:
    def test_prior_only_submission_tracks_prior(self):
        # grader v never receives a grade: its score is a pure prior draw
        g = make_graph([(1, "v", "u", 80.0)])
        cfg = GibbsConfig(model=Model.PG1, total_sweeps=6000, burn_in=500, seed=9)
        summ = gibbs_infer(g, HP, cfg)
        stat = summ.s[(1, "v")]
        assert stat.mean == pytest.approx(75.0, abs=1.0)
        assert stat.var == pytest.approx(100.0, rel=0.15)

    def test_informed_score_between_prior_and_grade(self):
        g = make_graph([(1, "v", "u", 95.0)])
        summ = gibbs_infer(g, HP, GibbsConfig(model=Model.PG1, total_sweeps=4000, burn_in=400, seed=3))
        assert 75.0 < summ.s[(1, "u")].mean < 95.0

    def test_pg3_zero_slope_always_accepts(self):
        g = make_graph([(1, "v", "u", 80.0), (1, "u", "v", 70.0)])
        hp = Hyperparameters(mu0=75.0, gamma0=1 / 100, eta0=1 / 25, theta0=0.1, theta1=0.0)
        summ = gibbs_infer(g, hp, GibbsConfig(model=Model.PG3, total_sweeps=300, burn_in=50, seed=1, sample_theta=False))
        assert summ.mh_acceptance == 1.0

    def test_pg3_theta_fixed_when_not_sampled(self):
        g = make_graph([(1, "v", "u", 80.0), (1, "u", "v", 70.0)])
        hp = Hyperparameters(mu0=75.0, gamma0=1 / 100, eta0=1 / 25, theta0=0.1, theta1=0.001)
        summ = gibbs_infer(g, hp, GibbsConfig(model=Model.PG3, total_sweeps=200, burn_in=20, seed=1, sample_theta=False))
        assert summ.theta["theta0"].mean == pytest.approx(0.1)
        assert summ.theta["theta0"].var < 1e-12
        assert summ.theta["theta1"].mean == pytest.approx(0.001)

    def test_pg2_rejects_assignment_without_grades(self):
        # assignment 2 has a submission but no grades: there is nothing to
        # z-score it by, so its scores could not come out in percentage points
        g = make_graph([(1, "v", "u", 62.0), (1, "u", "v", 78.0)],
                       submissions={1: ("u", "v"), 2: ("u",)})
        cfg = GibbsConfig(model=Model.PG2, total_sweeps=20, burn_in=5, seed=4)
        with pytest.raises(ValueError, match="assignment 2: no grades to resolve data-driven priors"):
            gibbs_infer(g, Hyperparameters(), cfg)

    def test_pg2_outputs_percentage_points(self):
        rows = [(1, "v", "u1", 62.0), (1, "v", "u2", 78.0), (1, "w", "u1", 66.0), (1, "w", "u2", 84.0)]
        summ = gibbs_infer(make_graph(rows), Hyperparameters(),
                           GibbsConfig(model=Model.PG2, total_sweeps=2000, burn_in=200, seed=4))
        means = [summ.s[k].mean for k in sorted(summ.s)]
        # grades average ~72.5; pp output should sit in that range, not z-units
        assert all(40.0 < m < 100.0 for m in means)


class TestLargeOffset:
    def test_score_variances_survive_a_large_offset(self, small_pg1):
        """Moving every grade and mu0 by 1e6 moves the posterior without
        changing its spread; a tight prior keeps the posterior sd near 0.05,
        where E[x^2] - E[x]^2 at 1e6 cancels to zero."""
        offset = 1e6
        graph, _ = small_pg1
        shifted = graph.with_grades(
            [PeerGrade(g.assignment, g.grader, g.gradee, g.score + offset, g.seconds) for g in graph.grades]
        )
        hp = Hyperparameters(mu0=75.0, gamma0=400.0, eta0=1 / 25, alpha0=2.0, beta0=18.0)
        cfg = GibbsConfig(model=Model.PG1, total_sweeps=400, burn_in=50, seed=4)
        base = gibbs_infer(graph, hp, cfg)
        moved = gibbs_infer(shifted, replace(hp, mu0=75.0 + offset), cfg)
        assert len(moved.s) == len(base.s)
        for key, stat in base.s.items():
            var = moved.s[key].var
            assert var > 0.0, key
            assert var == pytest.approx(stat.var, rel=1e-3), key
            assert moved.confidence(*key, 0.05) == pytest.approx(base.confidence(*key, 0.05), rel=1e-3)


@pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
class TestStateApi:
    def test_initial_state_covers_latents(self, small_pg1, model):
        graph, _ = small_pg1
        cfg = GibbsConfig(model=model, total_sweeps=20, burn_in=5, seed=0)
        state = initial_state(graph, HP, cfg)
        assert set(state.s) == {(1, u) for u in graph.submissions(1)}
        graders = {(g.assignment, g.grader) for g in graph.grades}
        assert set(state.b) == graders
        assert set(state.tau) == (graders if model in (Model.PG1, Model.PG2) else set())
        summary = gibbs_infer(graph, HP, cfg)
        for kind in ("s", "b", "tau"):
            assert set(getattr(state, kind)) == set(getattr(summary, kind))
        assert (state.theta is None) == (summary.theta is None) == (model is not Model.PG3)

    def test_sweep_is_deterministic_and_moves(self, small_pg1, model):
        graph, _ = small_pg1
        cfg = GibbsConfig(model=model, seed=0)
        state = initial_state(graph, HP, cfg)
        s1 = sweep(state, graph, HP, cfg, np.random.default_rng(11))
        s2 = sweep(state, graph, HP, cfg, np.random.default_rng(11))
        assert s1.s == s2.s and s1.b == s2.b and s1.tau == s2.tau and s1.theta == s2.theta
        assert s1.s != state.s


class TestTrace:
    def test_rows_per_retained_sweep(self):
        g = make_graph([(1, "v", "u", 80.0), (1, "w", "u", 72.0)])
        trace = TraceRecorder([("s", 1, "u"), ("b", 1, "v")])
        gibbs_infer(g, HP, GibbsConfig(model=Model.PG1, total_sweeps=50, burn_in=10, seed=2), trace=trace)
        assert len(trace.rows) == 40 * 2
        sweeps = sorted({r[0] for r in trace.rows})
        assert sweeps[0] == 11 and sweeps[-1] == 50

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            TraceRecorder([("x", 1, "u")])

    def test_untracked_variable_rejected(self):
        g = make_graph([(1, "v", "u", 80.0)])
        trace = TraceRecorder([("s", 1, "nobody")])
        with pytest.raises(ValueError, match="not tracked"):
            gibbs_infer(g, HP, GibbsConfig(model=Model.PG1, total_sweeps=20, burn_in=5, seed=2), trace=trace)

    @pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
    def test_traceable_exactly_when_summarized(self, model):
        # u grades nobody: it has a score, but no bias or reliability to report
        g = make_graph([(1, "v", "u", 80.0)])
        cfg = GibbsConfig(model=model, total_sweeps=20, burn_in=5, seed=2,
                          assume_normalized=model is Model.PG2)
        summary = gibbs_infer(g, HP, cfg)
        assert (1, "u") not in summary.b and (1, "u") not in summary.tau
        for kind in ("s", "b", "tau"):
            reported = getattr(summary, kind)
            for student in ("u", "v"):
                trace = TraceRecorder([(kind, 1, student)])
                if (1, student) not in reported:
                    with pytest.raises(ValueError, match="not tracked"):
                        gibbs_infer(g, HP, cfg, trace=trace)
                    continue
                gibbs_infer(g, HP, cfg, trace=trace)
                values = [row[4] for row in trace.rows]
                assert len(values) == 15
                assert np.mean(values) == pytest.approx(reported[(1, student)].mean, rel=1e-9)


class TestRecord:
    """Traces are columns of the engine's draw vector."""

    @pytest.fixture(scope="class")
    def pg3_graph(self):
        graph, _ = generate(SynthConfig(n_students=30, n_assignments=3, super_grades=8,
                                        model=Model.PG3, seed=4))
        return graph

    def test_rows_are_sweep_major_in_variable_order(self):
        # x grades nobody, so the bias and reliability rows report fewer graders than they hold
        g = make_graph([(1, "v", "u", 80.0), (1, "w", "u", 72.0), (1, "u", "v", 77.0), (1, "v", "x", 70.0)])
        variables = [("s", 1, "u"), ("b", 1, "v"), ("tau", 1, "w"), ("s", 1, "u"), ("tau", 1, "v")]
        trace = TraceRecorder(variables)
        summary = gibbs_infer(g, HP, GibbsConfig(model=Model.PG1, total_sweeps=30, burn_in=10, seed=2),
                              trace=trace)
        assert [r[0] for r in trace.rows] == [n for n in range(11, 31) for _ in variables]
        assert [r[1:4] for r in trace.rows] == variables * 20
        assert all(type(r[4]) is float for r in trace.rows)
        values = np.array([r[4] for r in trace.rows]).reshape(20, len(variables))
        assert np.array_equal(values[:, 0], values[:, 3])
        assert len(set(values[:, 0].tolist())) > 1
        for column, (kind, a, u) in zip(values.T, variables):
            assert column.mean() == pytest.approx(getattr(summary, kind)[(a, u)].mean, rel=1e-9)

    @pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
    def test_layout_starts_address_the_draw_vector(self, model):
        # x grades nobody, so its row holds a bias and a reliability the layout does not report
        g = make_graph([(1, "v", "u", 80.0), (1, "u", "v", 77.0), (1, "v", "x", 70.0), (2, "x", "u", 75.0)])
        engine = _build_engine(g, HP, GibbsConfig(model=model, assume_normalized=True))
        rngs, v = [np.random.default_rng(1)] * 2, engine.variates()
        engine.draw(rngs, v)
        engine.sweep(v)
        vector = engine.accumulate()
        for e in engine.layout:
            assert np.array_equal(vector[e.at], getattr(engine, e.kind)[e.pos])
        blocks = ("s", "b", "tau") if engine.infer_tau else ("s", "b")
        assert vector.size == sum(getattr(engine, kind).size for kind in blocks) + (2 if model is Model.PG3 else 0)

    def test_pg3_traces_match_score_traces_and_summary(self, pg3_graph):
        cfg = GibbsConfig(model=Model.PG3, total_sweeps=60, burn_in=10, seed=3)
        plain = gibbs_infer(pg3_graph, Hyperparameters(), cfg)
        variables = [(kind, a, u) for kind in ("s", "b") for (a, u) in sorted(getattr(plain, kind))]
        trace, scores = TraceRecorder(variables), TraceRecorder([v for v in variables if v[0] == "s"])
        summary = gibbs_infer(pg3_graph, Hyperparameters(), cfg, trace=trace)
        gibbs_infer(pg3_graph, Hyperparameters(), cfg, trace=scores)
        values = np.array([r[4] for r in trace.rows]).reshape(cfg.retained_sweeps, len(variables))
        for column, (kind, a, u) in zip(values.T, variables):
            assert column.mean() == pytest.approx(getattr(summary, kind)[(a, u)].mean, rel=1e-9, abs=1e-9)
        # a score's draws do not depend on what else is traced
        assert np.array_equal(scores.values, values[:, :len(scores.variables)])
        assert summary.theta is not None

    def test_chained_bias_in_an_empty_assignment(self):
        graph = GradingGraph([PeerGrade(1, "v", "u1", 0.4)], submissions={1: ("u1", "v"), 2: ()})
        hp = Hyperparameters(mu0=0.0, gamma0=1.0, eta0=1.0, omega0=2.0, alpha0=3.0, beta0=3.0)
        cfg = GibbsConfig(model=Model.PG2, total_sweeps=120, burn_in=20, seed=5, assume_normalized=True)
        variables = [("b", 2, "v"), ("s", 1, "u1"), ("b", 1, "v")]
        trace = TraceRecorder(variables)
        summary = gibbs_infer(graph, hp, cfg, trace=trace)
        for kind, a, u in variables:
            values = [r[4] for r in trace.rows if r[1:4] == (kind, a, u)]
            assert len(values) == 100
            assert np.mean(values) == pytest.approx(getattr(summary, kind)[(a, u)].mean, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
    def test_recording_leaves_the_summary_unchanged(self, pg3_graph, model):
        cfg = GibbsConfig(model=model, total_sweeps=40, burn_in=10, seed=6)
        plain = gibbs_infer(pg3_graph, Hyperparameters(), cfg)
        trace = TraceRecorder([("s", a, sorted(pg3_graph.submissions(a))[0]) for a in pg3_graph.assignments])
        recorded = gibbs_infer(pg3_graph, Hyperparameters(), cfg, trace=trace)
        assert len(trace.rows) == 3 * cfg.retained_sweeps
        assert recorded == plain
        # rows are read from values: sweep-major, one column per variable
        assert trace.first_sweep == cfg.burn_in + 1
        assert trace.values.shape == (cfg.retained_sweeps, 3)
        rows = np.array([r[4] for r in trace.rows]).reshape(trace.values.shape)
        assert trace.values.tobytes() == rows.tobytes()

    @pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
    def test_every_reported_latent_traces_to_its_mean(self, pg3_graph, model):
        # PG2 fits this network z-scored, so its columns are mapped back to pp row by row
        cfg = GibbsConfig(model=model, total_sweeps=40, burn_in=10, seed=6)
        plain = gibbs_infer(pg3_graph, Hyperparameters(), cfg)
        variables = [(kind, a, u) for kind in ("s", "b", "tau") for (a, u) in getattr(plain, kind)]
        trace = TraceRecorder(variables)
        assert gibbs_infer(pg3_graph, Hyperparameters(), cfg, trace=trace) == plain
        assert {a for _, a, _ in variables} == set(pg3_graph.assignments) and len(pg3_graph.assignments) == 3
        assert trace.values.shape == (cfg.retained_sweeps, len(variables))
        for column, (kind, a, u) in zip(trace.values.T, variables):
            assert column.mean() == pytest.approx(getattr(plain, kind)[(a, u)].mean, rel=1e-9)

    def test_recorders_compare_before_and_after_a_fit(self):
        g = make_graph([(1, "v", "u", 80.0), (1, "w", "u", 72.0)])
        cfg = GibbsConfig(model=Model.PG1, total_sweeps=30, burn_in=10, seed=2)
        one, two = TraceRecorder([("s", 1, "u")]), TraceRecorder([("s", 1, "u")])
        assert one.rows == [] and one.values.shape == (0, 1)
        assert one == two
        gibbs_infer(g, HP, cfg, trace=one)
        gibbs_infer(g, HP, cfg, trace=two)
        assert one == two and one.rows == two.rows
        assert one != TraceRecorder([("b", 1, "v")])

    def test_a_second_fit_replaces_the_draws(self):
        g = make_graph([(1, "v", "u", 80.0), (1, "w", "u", 72.0)])
        first = GibbsConfig(model=Model.PG1, total_sweeps=30, burn_in=10, seed=2)
        second = GibbsConfig(model=Model.PG1, total_sweeps=45, burn_in=5, seed=3)
        reused, fresh = TraceRecorder([("s", 1, "u")]), TraceRecorder([("s", 1, "u")])
        gibbs_infer(g, HP, first, trace=reused)
        gibbs_infer(g, HP, second, trace=reused)
        gibbs_infer(g, HP, second, trace=fresh)
        assert reused.first_sweep == 6 and len(reused.rows) == 40
        assert reused.rows == fresh.rows


class TestScoreTrace:
    def test_samples_match_summary_moments(self):
        g = make_graph([(1, "v", "u", 80.0), (1, "w", "u", 72.0)])
        cfg = GibbsConfig(model=Model.PG1, total_sweeps=200, burn_in=50, seed=7)
        trace = TraceRecorder([("s", 1, "u")])
        summ = gibbs_infer(g, HP, cfg, trace=trace)
        samples = trace.values[:, 0]
        assert samples.shape == (150,)
        assert float(samples.mean()) == pytest.approx(summ.s[(1, "u")].mean, abs=1e-9)
        assert float(samples.var()) == pytest.approx(summ.s[(1, "u")].var, rel=1e-6)


class TestZScoredPg2Readers:
    """PG2 with default priors fits each assignment in z-units; the summary,
    traces and frozen priors all map back to percentage points through that
    assignment's normalization."""

    CFG = GibbsConfig(model=Model.PG2, total_sweeps=60, burn_in=10, seed=7)

    @pytest.fixture(scope="class")
    def graph(self):
        graph, _ = generate(SynthConfig(n_students=60, n_assignments=3, super_grades=20,
                                        model=Model.PG2, seed=7))
        return graph

    def test_traces_and_score_traces_match_summary(self, graph):
        variables = []
        for a in graph.assignments:
            g = graph.grades_in(a)[0]
            variables += [("s", a, g.gradee), ("b", a, g.grader), ("tau", a, g.grader)]
        trace, scores = TraceRecorder(variables), TraceRecorder([v for v in variables if v[0] == "s"])
        summary = gibbs_infer(graph, Hyperparameters(), self.CFG, trace=trace)
        gibbs_infer(graph, Hyperparameters(), self.CFG, trace=scores)
        for kind, a, student in variables:
            values = np.array([r[4] for r in trace.rows if r[1:4] == (kind, a, student)])
            assert values.size == self.CFG.retained_sweeps
            stat = getattr(summary, kind)[(a, student)]
            assert values.mean() == pytest.approx(stat.mean, rel=1e-9)
            assert values.var() == pytest.approx(stat.var, rel=1e-9)
            if kind == "s":
                assert np.array_equal(scores.values[:, scores.variables.index((kind, a, student))], values)
                assert abs(stat.mean - graph.scores_in(a).mean()) < 20.0  # pp, not z-units

    def test_fit_frozen_priors_are_the_reduced_grades_moments(self, graph):
        key = sorted(graph.ground_truth)[-1]
        fp = fit_frozen(graph, Hyperparameters(), Model.PG2, key, gibbs_cfg=self.CFG)
        scores = graph.without_received(*key).scores_in(key[0])
        assert fp.mu0 == pytest.approx(scores.mean(), rel=1e-12)
        assert fp.gamma0 == pytest.approx(1.0 / scores.var(), rel=1e-12)


class TestScalarSamplers:
    """Moment checks; full distribution tests live in the acceptance suite."""

    def setup_method(self):
        self.graph = make_graph([(1, "v", "u", 80.0), (1, "v", "w", 70.0)])
        self.hp = Hyperparameters(mu0=75.0, gamma0=0.01, eta0=0.04, alpha0=2.0, beta0=18.0)
        cfg = GibbsConfig(model=Model.PG1, seed=0)
        self.state = initial_state(self.graph, self.hp, cfg)
        self.state.s[(1, "u")] = 78.0
        self.state.s[(1, "w")] = 69.0
        self.state.b[(1, "v")] = 1.5
        self.state.tau[(1, "v")] = 0.2

    def test_score_moments(self, rng):
        draws = [cond_sample_score((1, "u"), self.state, self.graph, self.hp, rng) for _ in range(20000)]
        p = 0.01 + 0.2
        m = (0.01 * 75.0 + 0.2 * (80.0 - 1.5)) / p
        assert np.mean(draws) == pytest.approx(m, abs=4.5 * math.sqrt(1 / p / 20000))
        assert np.var(draws) == pytest.approx(1 / p, rel=0.05)

    def test_bias_moments(self, rng):
        draws = [cond_sample_bias((1, "v"), self.state, self.graph, self.hp, rng) for _ in range(20000)]
        p = 0.04 + 2 * 0.2
        m = 0.2 * ((80.0 - 78.0) + (70.0 - 69.0)) / p
        assert np.mean(draws) == pytest.approx(m, abs=4.5 * math.sqrt(1 / p / 20000))
        assert np.var(draws) == pytest.approx(1 / p, rel=0.05)

    def test_reliability_moments(self, rng):
        draws = [cond_sample_reliability((1, "v"), self.state, self.graph, self.hp, rng) for _ in range(20000)]
        rss = (80.0 - 78.0 - 1.5) ** 2 + (70.0 - 69.0 - 1.5) ** 2
        shape, rate = 2.0 + 1.0, 18.0 + rss / 2
        assert np.mean(draws) == pytest.approx(shape / rate, rel=0.03)
        assert np.var(draws) == pytest.approx(shape / rate**2, rel=0.10)

    def test_bias_chain_anchor_and_link(self, rng):
        rows = [(1, "v", "u", 0.5), (2, "v", "u", -0.3)]
        graph = make_graph(rows)
        hp = Hyperparameters(mu0=0.0, gamma0=1.0, eta0=1.0, omega0=2.0, alpha0=2.0, beta0=2.0)
        cfg = GibbsConfig(model=Model.PG2, seed=0, assume_normalized=True)
        state = initial_state(graph, hp, cfg)
        state.s[(1, "u")] = 0.2
        state.s[(2, "u")] = -0.1
        state.b[(1, "v")] = 0.4
        state.b[(2, "v")] = -0.2
        state.tau[(1, "v")] = 1.5
        state.tau[(2, "v")] = 1.5
        draws = [cond_sample_bias_chain("v", 1, state, graph, hp, rng) for _ in range(20000)]
        # anchor eta0, forward link omega0 to b^(2), one grade at tau
        p = 1.0 + 2.0 + 1.5
        m = (2.0 * (-0.2) + 1.5 * (0.5 - 0.2)) / p
        assert np.mean(draws) == pytest.approx(m, abs=4.5 * math.sqrt(1 / p / 20000))
        assert np.var(draws) == pytest.approx(1 / p, rel=0.05)

    def test_requires_resolved_priors(self, rng):
        with pytest.raises(ValueError, match="resolve"):
            cond_sample_score((1, "u"), self.state, self.graph, Hyperparameters(), rng)


class TestChromaticPg3:
    """The PG3 score block updates one colour class of the grader-gradee
    graph at a time, all members in one vectorized Metropolis step."""

    HP = Hyperparameters(mu0=75.0, gamma0=1 / 16, eta0=1 / 4, theta0=-0.6, theta1=0.01)

    @staticmethod
    def engine(graph, hp):
        return _build_engine(graph, hp, GibbsConfig(model=Model.PG3, seed=0))

    def test_class_update_matches_scalar_reference(self):
        # u receives two grades and gives two; at this slope and these
        # residuals both terms of the log ratio move the acceptance
        graph = make_graph([
            (1, "v", "u", 80.0), (1, "w", "u", 71.0), (1, "u", "x", 70.0),
            (1, "u", "y", 66.0), (1, "x", "v", 74.0), (1, "y", "w", 68.0),
            (1, "q", "x", 72.0), (1, "v", "q", 79.0),
        ])
        state = LatentState(
            s={(1, k): m for k, m in
               [("u", 75.0), ("v", 76.0), ("w", 73.0), ("x", 64.0), ("y", 70.0), ("q", 78.0)]},
            b={(1, "u"): 0.5, (1, "v"): 1.0, (1, "w"): -1.0, (1, "x"): 0.0,
               (1, "y"): 0.3, (1, "q"): -0.2},
            theta=(-0.6, 0.01),
        )
        n = 20_000
        engine = self.engine(graph, self.HP)
        engine.load_state(state)
        i = engine.submissions.index((1, "u"))
        cls = next(c for c in engine.classes if i in c.members)
        s = engine.s
        s0 = s.copy()
        zb = engine.z - engine.b[engine.grader]
        rng = np.random.default_rng(31)
        got = np.empty(n)
        for k in range(n):
            s[:] = s0
            eps, e2 = rng.standard_normal(s.size), rng.exponential(2.0, s.size)
            engine._class_step(cls, zb, engine._prec(s), eps, e2)
            got[k] = s[i]
        got_accept = float(np.mean(got != s0[i]))

        rng = np.random.default_rng(32)
        ref = [cond_sample_score_affine((1, "u"), state, graph, self.HP, rng) for _ in range(n)]
        want = np.array([value for value, _ in ref])
        want_accept = float(np.mean([accepted for _, accepted in ref]))

        assert 0.2 < want_accept < 0.95
        assert stats.ks_2samp(got, want).pvalue >= 0.01
        pooled = 0.5 * (got_accept + want_accept)
        assert abs(got_accept - want_accept) <= 4 * math.sqrt(pooled * (1 - pooled) * 2 / n)

    @staticmethod
    def check_colouring(graph, hp):
        engine = TestChromaticPg3.engine(graph, hp)
        colour = np.full(engine.s.size, -1)
        for k, c in enumerate(engine.classes):
            assert (colour[c.members] == -1).all(), "a student is in two classes"
            colour[c.members] = k
        assert (colour >= 0).all(), "a student is in no class"
        assert not np.any(colour[engine.grader] == colour[engine.gradee]), "a grade joins one class"
        again = TestChromaticPg3.engine(graph, hp)
        assert [c.members.tolist() for c in again.classes] == [c.members.tolist() for c in engine.classes]
        return engine.classes

    def test_colouring_on_hci_shaped_network(self):
        cfg = SynthConfig(
            n_students=3600, n_assignments=1, grades_per_grader=4,
            n_ground_truth=3, super_grades=160, model=Model.PG3, seed=0,
        )
        graph, _ = generate(cfg)
        classes = self.check_colouring(graph, Hyperparameters())
        assert sum(c.size for c in classes) == 3600

    def test_colouring_on_two_node_network(self):
        graph = make_graph([(1, "u", "v", 73.0), (1, "v", "u", 78.0)])
        classes = self.check_colouring(graph, self.HP)
        assert [c.members.tolist() for c in classes] == [[0], [1]]


class TestSharedTheta:
    """PG3 holds one theta for every assignment: one step per sweep, against
    the likelihood of every assignment's grades and feasible over every
    assignment's scores."""

    CFG = GibbsConfig(model=Model.PG3, total_sweeps=60, burn_in=10, seed=7)

    @pytest.fixture
    def pg3(self):
        graph, _ = generate(SynthConfig(n_students=60, n_assignments=3, super_grades=20,
                                        model=Model.PG3, seed=7))
        engine = _build_engine(graph, Hyperparameters(), self.CFG)
        rngs, v = [np.random.default_rng(k) for k in range(3)], engine.variates()
        engine.draw(rngs, v)
        engine.sweep(v)
        return graph, engine

    def test_fit_reports_one_theta(self, pg3):
        graph, engine = pg3
        summary = gibbs_infer(graph, Hyperparameters(), self.CFG)
        assert set(summary.theta) == {"theta0", "theta1"}
        assert summary.theta["theta0"].n == self.CFG.retained_sweeps
        assert engine.total_theta == 1

    def test_point_is_the_mean_columns(self, pg3):
        graph, _ = pg3
        summary = gibbs_infer(graph, Hyperparameters(), self.CFG)
        point = summary.point()
        assert isinstance(point, LatentState)
        for kind in ("s", "b", "tau"):
            block, values = getattr(summary, kind), getattr(point, kind)
            assert list(values) == list(block)
            means = [m for col in block.columns.values() for m in col.mean.tolist()]
            assert [v.hex() for v in values.values()] == [m.hex() for m in means]
        assert len(point.s) == 180 and len(point.b) == 180
        assert point.theta == (summary.theta["theta0"].mean, summary.theta["theta1"].mean)

    def test_likelihood_sums_every_assignment(self, pg3):
        graph, engine = pg3
        state = LatentState()
        engine.export_state(state)
        th0, th1 = 0.05, 1e-4
        want = 0.0
        for g in graph.grades:
            w = th1 * state.s[(g.assignment, g.grader)] + th0
            r = g.score - state.s[(g.assignment, g.gradee)] - state.b[(g.assignment, g.grader)]
            want += 0.5 * math.log(w) - 0.5 * w * r * r
        assert {g.assignment for g in graph.grades} == {1, 2, 3}
        assert engine._log_likelihood(th0, th1) == pytest.approx(want, rel=1e-9)

    def test_feasibility_covers_every_assignment(self, pg3):
        _, engine = pg3
        floor = engine.hp[0].precision_floor
        engine.s[engine.rows[2].scores.start] = -50.0  # the lowest score of the graph, in the last assignment
        assert not engine._feasible(floor + 49.0, 1.0)
        assert engine._feasible(floor + 50.5, 1.0)


@pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
def test_an_engine_is_freed_without_the_cycle_collector(model):
    """Nothing an engine holds refers back to it, so a fit's arrays go when
    the fit returns; refits in evaluate, calibrate and rounds would
    otherwise pile up until a collection."""
    graph, _ = generate(SynthConfig(n_students=40, n_assignments=2, super_grades=10, model=model, seed=2))
    engine = _build_engine(graph, Hyperparameters(), GibbsConfig(model=model, assume_normalized=True))
    v = engine.variates()
    engine.draw([np.random.default_rng(0)] * 2, v)
    engine.sweep(v)
    alive = weakref.ref(engine)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del engine
        assert alive() is None
    finally:
        if enabled:
            gc.enable()


class TestThetaStep:
    """With scores and biases held, PG3's theta step alone samples theta's
    conditional: a flat prior on the feasible region times the likelihood
    of the grades, sum(0.5 log w - 0.5 w r^2) with w = theta1 * s_grader + theta0."""

    STEPS, BURN, BATCHES = 60_000, 5_000, 50

    @staticmethod
    def grid_moments(engine, centre, spread, n=401):
        """theta0 and theta1 means and variances of the conditional on an
        n x n grid of centre +- 8 spread, and the grid's mass on its edges."""
        s, b = engine.s, engine.b  # one assignment: its row is the whole of each array
        w_of, resid = s[engine.grader], engine.z - s[engine.gradee] - b[engine.grader]
        th0 = np.linspace(centre[0] - 8 * spread[0], centre[0] + 8 * spread[0], n)
        th1 = np.linspace(centre[1] - 8 * spread[1], centre[1] + 8 * spread[1], n)
        log_p = np.full((n, n), -np.inf)
        floor = engine.hp[0].precision_floor
        for i, t0 in enumerate(th0.tolist()):
            feasible = np.minimum(th1 * s.min(), th1 * s.max()) + t0 >= floor
            w = th1[feasible, None] * w_of + t0
            log_p[i, feasible] = 0.5 * np.log(w).sum(axis=1) - 0.5 * (w * resid * resid).sum(axis=1)
        p = np.exp(log_p - log_p.max())
        p /= p.sum()
        edges = p[0].sum() + p[-1].sum() + p[:, 0].sum() + p[:, -1].sum()
        mean = np.array([p.sum(axis=1) @ th0, p.sum(axis=0) @ th1])
        var = np.array([p.sum(axis=1) @ (th0 - mean[0]) ** 2, p.sum(axis=0) @ (th1 - mean[1]) ** 2])
        return mean, var, edges

    @pytest.mark.parametrize("scale", [0.3, 0.6])
    def test_theta_moments_match_a_grid_of_the_conditional(self, scale):
        graph, truth = generate(SynthConfig(n_students=40, super_grades=10, model=Model.PG3, seed=4))
        engine = _build_engine(graph, Hyperparameters(), GibbsConfig(model=Model.PG3, mh_proposal_scale=scale))
        engine.load_state(LatentState(s=truth.s, b=truth.b))
        rng = np.random.default_rng(1)
        draws = np.empty((self.STEPS, 2))
        for i, ((n0, n1), e) in enumerate(zip(rng.standard_normal((self.STEPS, 2)).tolist(),
                                              rng.standard_exponential(self.STEPS).tolist())):
            engine._theta_step(n0, n1, e)
            draws[i] = engine.theta
        kept = draws[self.BURN:]
        mean, var, edges = self.grid_moments(engine, kept.mean(axis=0), kept.std(axis=0))
        assert edges < 1e-9  # the grid holds the whole conditional
        assert 0.05 < engine.accept_theta / engine.total_theta < 0.6
        for values, want in ((kept, mean), ((kept - mean) ** 2, var)):  # within 3 batch-means SEs
            batch_means = values.reshape(self.BATCHES, -1, 2).mean(axis=1)
            se = batch_means.std(axis=0, ddof=1) / math.sqrt(self.BATCHES)
            assert np.all(np.abs(values.mean(axis=0) - want) < 3 * se), (values.mean(axis=0), want, se)


class TestDrawAhead:
    """Past a size, the next sweep's variates are drawn on a helper thread
    while the current sweep computes. The draws stay the same."""

    NETWORKS = {
        "pg1bias": SynthConfig(n_students=50, n_assignments=1, super_grades=10, model=Model.PG1_BIAS, seed=8),
        "pg1": SynthConfig(n_students=40, n_assignments=3, super_grades=10, model=Model.PG1, seed=8),
        "pg2": SynthConfig(n_students=40, n_assignments=3, super_grades=10, model=Model.PG2, seed=8),
        "pg3": SynthConfig(n_students=40, n_assignments=2, super_grades=10, model=Model.PG3, seed=8),
    }

    @pytest.fixture
    def drew(self, monkeypatch):
        """The name of the thread that drew each sweep's variates, in turn."""
        names = []

        def named(engine, rngs, v, draw=_Engine.draw):
            names.append(threading.current_thread().name)
            draw(engine, rngs, v)
        monkeypatch.setattr(_Engine, "draw", named)
        return names

    @staticmethod
    def fit(monkeypatch, synth, least):
        """A fit tracing every latent it reports, with the size at which
        draws go to the helper set to least."""
        monkeypatch.setattr(gibbs, "_DRAW_AHEAD_MIN", least)
        graph, _ = generate(synth)
        cfg = GibbsConfig(model=synth.model, total_sweeps=25, burn_in=5, seed=9)
        engine = _build_engine(graph, Hyperparameters(), cfg)
        trace = TraceRecorder([(e.kind, engine.assignments[e.k], u) for e in engine.layout for u in e.keys])
        return gibbs_infer(graph, Hyperparameters(), cfg, trace=trace), trace

    @pytest.mark.parametrize("model", ["pg1bias", "pg1", "pg2", "pg3"])
    def test_drawing_ahead_keeps_every_byte(self, monkeypatch, drew, model):
        synth = self.NETWORKS[model]
        ahead, ahead_trace = self.fit(monkeypatch, synth, 0)
        ahead_drew = drew[:]
        drew.clear()
        inline, inline_trace = self.fit(monkeypatch, synth, 2**62)
        assert ahead == inline
        assert ahead_trace.values.tobytes() == inline_trace.values.tobytes()
        assert ahead_trace.values.shape == (20, len(ahead_trace.variables))
        main = threading.current_thread().name
        assert drew == [main] * 25
        # the first sweep's draws are made before there is a sweep to overlap
        assert ahead_drew[0] == main and len(ahead_drew) == 25
        assert all(name.startswith("peergrade-draw") for name in ahead_drew[1:])

    def test_an_error_on_the_helper_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(gibbs, "_DRAW_AHEAD_MIN", 0)
        draw = _Engine.draw

        def failing(engine, rngs, v):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("draw failed on the helper")
            draw(engine, rngs, v)

        monkeypatch.setattr(_Engine, "draw", failing)
        graph, _ = generate(self.NETWORKS["pg1"])
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="draw failed on the helper"):
            gibbs_infer(graph, Hyperparameters(), GibbsConfig(model=Model.PG1, total_sweeps=5, burn_in=1))
        assert set(threading.enumerate()) <= before


@pytest.mark.parametrize("model", ["pg1bias", "pg1", "pg2", "pg3"])
def test_drawing_gammas_one_by_one_keeps_every_byte(monkeypatch, model):
    """A row of at most _GAMMAS_ONE_BY_ONE graders draws its reliability
    gammas by scalar calls, which draw the array call's stream: every row
    one way and every row the other give the same summary and trace."""
    fits = []
    for most in (0, 2**62):
        monkeypatch.setattr(gibbs, "_GAMMAS_ONE_BY_ONE", most)
        fits.append(TestDrawAhead.fit(monkeypatch, TestDrawAhead.NETWORKS[model], 2**62))
    (array, array_trace), (scalar, scalar_trace) = fits
    assert array == scalar
    assert array_trace.values.tobytes() == scalar_trace.values.tobytes()
