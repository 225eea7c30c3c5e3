import dataclasses
import logging
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.special import gammaln

from peergrade import (
    EmConfig, GibbsConfig, GradingGraph, Hyperparameters, LatentState, Model, PeerGrade, SynthConfig, em_infer,
    generate, gibbs_infer,
)
from peergrade.io import ingest
from peergrade import em
from peergrade.em import _ascend, _log_joint
from peergrade.gibbs import _build_engine
from conftest import make_graph

HP = Hyperparameters(mu0=75.0, gamma0=1 / 100, eta0=1 / 25, alpha0=2.0, beta0=18.0)


def linear_map_solution(graph: GradingGraph, hp: Hyperparameters, tau: float):
    """Exact MAP for the fixed-reliability model: the log joint is a quadratic
    in (scores, biases), so the argmax solves one symmetric linear system."""
    assert len(graph.assignments) == 1
    a = graph.assignments[0]
    students = list(graph.submissions(a))
    graders = sorted({g.grader for g in graph.grades})
    n, m = len(students), len(graders)
    si = {u: i for i, u in enumerate(students)}
    bi = {v: n + j for j, v in enumerate(graders)}
    P = np.zeros((n + m, n + m))
    rhs = np.zeros(n + m)
    for i in range(n):
        P[i, i] = hp.gamma0
        rhs[i] = hp.gamma0 * hp.mu0
    for j in range(n, n + m):
        P[j, j] = hp.eta0
    for g in graph.grades:
        i, j = si[g.gradee], bi[g.grader]
        P[i, i] += tau
        P[j, j] += tau
        P[i, j] += tau
        P[j, i] += tau
        rhs[i] += tau * g.score
        rhs[j] += tau * g.score
    x = np.linalg.solve(P, rhs)
    s = {(a, u): x[si[u]] for u in students}
    b = {(a, v): x[bi[v]] for v in graders}
    return s, b


def random_net(n_students: int, grades_each: int, seed: int) -> GradingGraph:
    rng = np.random.default_rng(seed)
    students = [f"s{i:03d}" for i in range(n_students)]
    rows = []
    for i, v in enumerate(students):
        others = [u for u in students if u != v]
        for u in rng.choice(others, size=grades_each, replace=False):
            rows.append((1, v, str(u), float(np.clip(rng.normal(75, 8), 0, 100))))
    return make_graph(rows)


class TestConfig:
    def test_rejects_pg3(self):
        with pytest.raises(ValueError, match="pg1bias and pg1 only"):
            EmConfig(model=Model.PG3)

    def test_rejects_pg2(self):
        with pytest.raises(ValueError):
            EmConfig(model=Model.PG2)

    def test_validation(self):
        with pytest.raises(ValueError):
            EmConfig(model=Model.PG1, max_iterations=0)
        with pytest.raises(ValueError):
            EmConfig(model=Model.PG1, tol=0.0)


class TestFixedReliabilityExactness:
    def test_three_node_matches_linear_solve(self):
        g = make_graph([(1, "a", "b", 81.0), (1, "b", "c", 68.0), (1, "c", "a", 74.0)])
        hp = Hyperparameters(mu0=75.0, gamma0=0.01, eta0=0.04, tau_fixed=0.2)
        pts = em_infer(g, hp, EmConfig(model=Model.PG1_BIAS, tol=1e-14))
        s_ref, b_ref = linear_map_solution(g, hp, tau=0.2)
        for k, v in s_ref.items():
            assert pts.s[k] == pytest.approx(v, abs=1e-8)
        for k, v in b_ref.items():
            assert pts.b[k] == pytest.approx(v, abs=1e-8)

    def test_fifty_node_matches_linear_solve(self):
        g = random_net(50, 4, seed=33)
        hp = Hyperparameters(mu0=75.0, gamma0=0.01, eta0=0.04, tau_fixed=0.15)
        pts = em_infer(g, hp, EmConfig(model=Model.PG1_BIAS, tol=1e-14))
        s_ref, b_ref = linear_map_solution(g, hp, tau=0.15)
        worst = max(abs(pts.s[k] - v) for k, v in s_ref.items())
        worst = max(worst, max(abs(pts.b[k] - v) for k, v in b_ref.items()))
        assert worst < 1e-8


class TestMonotonicity:
    @pytest.mark.parametrize("model", [Model.PG1_BIAS, Model.PG1])
    def test_objective_never_decreases(self, model):
        g = random_net(25, 3, seed=7)
        pts = em_infer(g, HP, EmConfig(model=model))
        trace = pts.objective_trace[1]
        diffs = np.diff(np.asarray(trace))
        assert np.all(diffs >= -1e-9), f"objective decreased by {diffs.min()}"
        assert pts.converged[1]


class TestStationarity:
    def test_pg1_fixed_point(self):
        """At convergence each coordinate block solves its own first-order
        condition; re-applying one exact block update must not move it."""
        g = random_net(20, 3, seed=11)
        pts = em_infer(g, HP, EmConfig(model=Model.PG1, tol=1e-13))
        a = 1
        for u in g.submissions(a):
            received = g.graders_of(a, u)
            p = HP.gamma0
            num = HP.gamma0 * HP.mu0
            for gr in received:
                t = pts.tau[(a, gr.grader)]
                p += t
                num += t * (gr.score - pts.b[(a, gr.grader)])
            assert pts.s[(a, u)] == pytest.approx(num / p, abs=1e-6)
        for (aa, v), tau in pts.tau.items():
            given = g.gradees_of(aa, v)
            rss = sum((gr.score - pts.s[(aa, gr.gradee)] - pts.b[(aa, v)]) ** 2 for gr in given)
            mode = (HP.alpha0 + len(given) / 2 - 1) / (HP.beta0 + rss / 2)
            assert tau == pytest.approx(max(mode, HP.precision_floor), abs=1e-6)


class TestOutputs:
    def test_noise_free_recovery(self):
        """With huge tau_fixed and dense grading, scores land on the observed
        grades and biases on zero."""
        rows = []
        truth = {"a": 70.0, "b": 80.0, "c": 90.0}
        for v in truth:
            for u in truth:
                if u != v:
                    rows.append((1, v, u, truth[u]))
        hp = Hyperparameters(mu0=80.0, gamma0=1e-6, eta0=1.0, tau_fixed=1e6)
        pts = em_infer(make_graph(rows), hp, EmConfig(model=Model.PG1_BIAS, tol=1e-14, max_iterations=2000))
        for u, t in truth.items():
            assert pts.s[(1, u)] == pytest.approx(t, abs=1e-3)
        for v in truth:
            assert pts.b[(1, v)] == pytest.approx(0.0, abs=1e-3)

    def test_log_joint_total(self):
        g = random_net(15, 3, seed=3)
        pts = em_infer(g, HP, EmConfig(model=Model.PG1))
        assert pts.log_joint == pytest.approx(pts.objective_trace[1][-1])

    @pytest.mark.parametrize("model", [Model.PG1_BIAS, Model.PG1])
    def test_objective_is_the_log_joint_at_the_estimates(self, model):
        """The trace's last value, which pg1 takes from the reliability step's
        residuals, equals the log joint recomputed at the estimates, which
        are a LatentState the engine loads as they are."""
        g = random_net(15, 3, seed=3)
        cfg = EmConfig(model=model)
        pts = em_infer(g, HP, cfg)
        assert isinstance(pts, LatentState) and pts.theta is None
        engine = _build_engine(g, HP, cfg)
        engine.load_state(pts)
        assert _log_joint(engine).hex() == pts.objective_trace[1][-1].hex()

    @pytest.mark.parametrize("alpha0", [0.5, 1.5, 2.0, 3.0, 7.25, 100.0])
    def test_log_joint_agrees_with_scipy(self, alpha0):
        """The log joint is the sum of scipy.stats' log densities at the
        estimates, and its Gamma normalizer math.lgamma(alpha0) is gammaln's
        to 1e-15 of max(1, |gammaln|). The bound is absolute near lgamma's
        roots at 1 and 2: at 1.5 the two differ by 1.7e-16, 1.4e-15 of the
        value."""
        ref = float(gammaln(alpha0))
        assert abs(math.lgamma(alpha0) - ref) <= 1e-15 * max(1.0, abs(ref))
        hp = dataclasses.replace(HP, alpha0=alpha0)
        g = random_net(15, 3, seed=3)
        cfg = EmConfig(model=Model.PG1)
        pts = em_infer(g, hp, cfg)
        engine = _build_engine(g, hp, cfg)
        engine.load_state(LatentState(pts.s, pts.b, pts.tau))
        grader, biased = engine.grader, engine.biased
        s, b, tau = engine.s, engine.b, engine.tau
        expected = (stats.norm.logpdf(engine.residuals(), scale=tau[grader] ** -0.5).sum()
                    + stats.norm.logpdf(s, hp.mu0, hp.gamma0 ** -0.5).sum()
                    + stats.norm.logpdf(b[biased], 0.0, hp.eta0 ** -0.5).sum()
                    + stats.gamma.logpdf(tau[biased], alpha0, scale=1.0 / hp.beta0).sum())
        assert _log_joint(engine) == pytest.approx(expected, rel=1e-12)

    def test_estimate_accessor(self):
        g = make_graph([(1, "v", "u", 80.0), (1, "w", "u", 74.0)])
        pts = em_infer(g, HP, EmConfig(model=Model.PG1))
        assert pts.estimate(1, "u") == pts.s[(1, "u")]


class TestIterationCap:
    def test_warns_when_cap_stops_an_assignment(self, caplog):
        """A capped run reports exactly max_iterations ascent maps, whether
        the cap falls inside a SQUAREM cycle or at its end."""
        graph, _ = generate(SynthConfig(n_students=60, n_assignments=2, n_ground_truth=3,
                                        super_grades=20, seed=7))
        for cap in range(1, 8):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="peergrade.em"):
                pts = em_infer(graph, Hyperparameters(), EmConfig(model=Model.PG1, max_iterations=cap))
            assert pts.n_iterations == {1: cap, 2: cap}
            assert pts.converged == {1: False, 2: False}
            messages = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
            assert messages == [f"assignment {a}: EM stopped after {cap} iterations (max_iterations) "
                                "without meeting tol=1e-10" for a in (1, 2)]

    def test_silent_when_converged(self, caplog):
        with caplog.at_level(logging.WARNING, logger="peergrade.em"):
            pts = em_infer(random_net(15, 3, seed=3), HP, EmConfig(model=Model.PG1))
        assert pts.converged == {1: True}
        assert not caplog.records


class TestMultiAssignment:
    @pytest.mark.parametrize("model", [Model.PG1_BIAS, Model.PG1], ids=lambda m: m.value)
    def test_assignment_entries_equal_fit_of_that_assignment(self, model):
        # each assignment is fitted on its own, so the others cannot move it
        graph, _ = generate(SynthConfig(n_students=60, n_assignments=3, n_ground_truth=3,
                                        super_grades=20, seed=7))
        cfg = EmConfig(model=model)
        full = em_infer(graph, Hyperparameters(), cfg)
        for a in graph.assignments:
            alone = em_infer(GradingGraph([g for g in graph.grades if g.assignment == a],
                                          submissions={a: graph.submissions(a)}), Hyperparameters(), cfg)
            for kind in ("s", "b", "tau"):
                block = {k: v.hex() for k, v in getattr(full, kind).items() if k[0] == a}
                assert block == {k: v.hex() for k, v in getattr(alone, kind).items()}
            assert full.n_iterations[a] == alone.n_iterations[a]
            assert full.converged[a] == alone.converged[a]
            assert [v.hex() for v in full.objective_trace[a]] == [v.hex() for v in alone.objective_trace[a]]
        assert len(full.s) == 180
        assert len(full.tau) == (180 if model is Model.PG1 else 0)

    def test_unresolvable_assignment_stops_the_run_before_any_fit(self, monkeypatch):
        """Every assignment's priors are resolved before the first fit, so
        assignment 2's single grade stops the run before assignment 1 is fit."""
        calls = []
        squarem = em._squarem
        monkeypatch.setattr(em, "_squarem", lambda *args: calls.append(args) or squarem(*args))
        graph = make_graph([(1, "a", "b", 70.0), (1, "b", "c", 80.0), (1, "c", "a", 75.0), (2, "a", "b", 72.0)])
        with pytest.raises(ValueError, match=r"^assignment 2: cannot resolve data-driven priors "
                                             r"from fewer than 2 grades; "):
            em_infer(graph, Hyperparameters(), EmConfig(model=Model.PG1))
        assert calls == []


def plain_ascent(graph: GradingGraph, hp: Hyperparameters, cfg: EmConfig, tol: float):
    """Coordinate ascent without extrapolation, each assignment on its own
    engine, as em_infer fits them, until one map moves no parameter by tol:
    the estimates, each assignment's final log joint and the maps each took
    to first meet cfg.tol."""
    out = LatentState({}, {}, {})
    objective, maps = {}, {}
    for a in graph.assignments:
        engine = _build_engine(GradingGraph(graph.grades_in(a), submissions={a: graph.submissions(a)}), hp, cfg)
        before = [engine.s, engine.b, engine.tau]
        for n in range(1, 20_001):
            after, resid = _ascend(engine)
            delta = max(float(np.max(np.abs(new - old))) for new, old in zip(after, before))
            before = after
            if delta < cfg.tol:
                maps.setdefault(a, n)
            if delta < tol:
                break
        else:
            raise AssertionError("plain ascent did not converge")
        objective[a] = _log_joint(engine, resid)
        engine.export_state(out)
    return out, objective, maps


class TestSquarem:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("model", [Model.PG1_BIAS, Model.PG1], ids=lambda m: m.value)
    def test_same_mode_as_plain_ascent(self, model, seed):
        graph, _ = generate(SynthConfig(n_students=1200, model=model, seed=seed))
        cfg = EmConfig(model=model)
        pts = em_infer(graph, Hyperparameters(), cfg)
        ref, objective, maps = plain_ascent(graph, Hyperparameters(), cfg, tol=1e-12)
        assert all(pts.converged.values())
        assert all(pts.n_iterations[a] <= n / 2 for a, n in maps.items())
        for kind in ("s", "b", "tau"):
            got, want = getattr(pts, kind), getattr(ref, kind)
            assert got.keys() == want.keys()
            assert max((abs(got[key] - v) for key, v in want.items()), default=0.0) < 1e-6, kind
        for a, value in objective.items():
            assert pts.objective_trace[a][-1] >= value - 1e-9 * abs(value)

    @pytest.mark.parametrize("model", [Model.PG1_BIAS, Model.PG1], ids=lambda m: m.value)
    def test_refused_extrapolations_keep_the_ascent(self, model, monkeypatch):
        """A step length far too long lowers the objective on every cycle,
        so the safeguard keeps each cycle's double step: the trace still
        never decreases and the fit reaches the same mode."""
        graph, _ = generate(SynthConfig(n_students=300, model=model, seed=5))
        cfg = EmConfig(model=model, tol=1e-12, max_iterations=5000)
        free = em_infer(graph, Hyperparameters(), cfg)
        monkeypatch.setattr(em, "_step_length", lambda r, v: -1e6)
        refused = em_infer(graph, Hyperparameters(), cfg)
        assert refused.converged == {1: True}
        assert refused.n_iterations[1] > free.n_iterations[1]
        trace = np.asarray(refused.objective_trace[1])
        assert np.diff(trace).min() >= -1e-9
        for kind in ("s", "b", "tau"):
            got, want = getattr(refused, kind), getattr(free, kind)
            assert max((abs(got[key] - v) for key, v in want.items()), default=0.0) < 1e-8, kind


class TestLargeScoreOffsets:
    """Every grade of the golden synth set shifted by +1e6 pp: the fit is the
    unshifted one shifted. One ulp of a score near 1e6 (1.16e-10) exceeds
    EM's default tol, so EM's stop test has to allow for rounding at the
    grades' magnitude; the Gibbs half guards the samplers' arithmetic."""

    SHIFT = 1e6

    @pytest.fixture(scope="class")
    def graphs(self):
        graph = ingest(Path(__file__).parent / "golden" / "synth" / "grades.csv")
        shifted = graph.with_grades([PeerGrade(g.assignment, g.grader, g.gradee, g.score + self.SHIFT)
                                     for g in graph.grades])
        return graph, shifted

    @staticmethod
    def assert_shifted(got: LatentState, want: LatentState, shift: float) -> None:
        """got's scores are want's plus shift, and its biases want's, within
        1e-6 pp; its reliabilities are want's within 1e-6 relative."""
        assert (got.s.keys(), got.b.keys(), got.tau.keys()) == (want.s.keys(), want.b.keys(), want.tau.keys())
        assert max(abs(got.s[k] - v - shift) for k, v in want.s.items()) < 1e-6
        assert max(abs(got.b[k] - v) for k, v in want.b.items()) < 1e-6
        assert max((abs(got.tau[k] / v - 1.0) for k, v in want.tau.items()), default=0.0) < 1e-6

    @pytest.mark.parametrize("model", [Model.PG1_BIAS, Model.PG1], ids=lambda m: m.value)
    def test_em_converges_to_the_shifted_mode(self, graphs, model):
        graph, shifted = graphs
        cfg = EmConfig(model=model)
        want, got = em_infer(graph, Hyperparameters(), cfg), em_infer(shifted, Hyperparameters(), cfg)
        assert all(got.converged.values())
        assert all(got.n_iterations[a] <= 2 * n for a, n in want.n_iterations.items())
        self.assert_shifted(got, want, self.SHIFT)

    @pytest.mark.parametrize("model", [Model.PG1_BIAS, Model.PG1], ids=lambda m: m.value)
    def test_gibbs_shifts_its_moments(self, graphs, model):
        graph, shifted = graphs
        cfg = GibbsConfig(model=model, total_sweeps=400, burn_in=50, seed=4)
        want, got = gibbs_infer(graph, Hyperparameters(), cfg), gibbs_infer(shifted, Hyperparameters(), cfg)
        self.assert_shifted(got.point(), want.point(), self.SHIFT)
        for kind in ("s", "b", "tau"):
            got_block, want_block = getattr(got, kind), getattr(want, kind)
            assert max((abs(got_block[k].var / st.var - 1.0) for k, st in want_block.items()), default=0.0) < 1e-6
