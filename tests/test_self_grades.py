"""A self-grade in the input changes no result: GradingGraph drops it when the
graph is built, and every fit, evaluation, experiment and analysis sees only
the peer grades."""
import numpy as np
import pytest

from peergrade import (
    Covariate,
    EmConfig,
    EvalConfig,
    GibbsConfig,
    GradingGraph,
    GridSpec,
    Hyperparameters,
    Model,
    PeerGrade,
    SynthConfig,
    em_infer,
    evaluate_baseline,
    evaluate_model,
    generate,
    gibbs_infer,
    joint_residual_heatmap,
    oracle_posterior,
    residual_vs_covariate,
    rounds_experiment,
)

HP = Hyperparameters()
GIBBS = GibbsConfig(model=Model.PG1, total_sweeps=30, burn_in=5)
EVAL = EvalConfig(n_simulations=50, grades_per_simulation=3, seed=5)


def _with_self_grade(graph: GradingGraph, key: tuple[int, str]) -> GradingGraph:
    a, u = key
    out = GradingGraph([PeerGrade(a, u, u, 99.0)] + list(graph.grades), ground_truth=graph.ground_truth)
    assert out.n_self_grades == 1
    assert out.grades == graph.grades
    assert {b: out.submissions(b) for b in out.assignments} == {b: graph.submissions(b) for b in graph.assignments}
    return out


@pytest.fixture(scope="module")
def pair():
    """A 40-student, 2-assignment network, and the same network with one
    ground-truth submission grading itself."""
    graph, _ = generate(SynthConfig(n_students=40, n_assignments=2, n_ground_truth=2,
                                    super_grades=10, model=Model.PG1, seed=7))
    return graph, _with_self_grade(graph, sorted(graph.ground_truth)[0])


def _same_report(x, y) -> None:
    assert x.label == y.label
    for a, b in zip(x.submissions, y.submissions, strict=True):
        assert (a.assignment, a.gradee, a.truth) == (b.assignment, b.gradee, b.truth)
        assert np.array_equal(a.estimates, b.estimates)
        assert (a.sigmas is None) == (b.sigmas is None)
        assert a.sigmas is None or np.array_equal(a.sigmas, b.sigmas)


def test_gibbs_infer(pair):
    clean, dirty = pair
    assert gibbs_infer(dirty, HP, GIBBS) == gibbs_infer(clean, HP, GIBBS)


def test_em_infer(pair):
    clean, dirty = pair
    cfg = EmConfig(model=Model.PG1)
    assert em_infer(dirty, HP, cfg) == em_infer(clean, HP, cfg)


def test_oracle_posterior():
    clean = GradingGraph([PeerGrade(1, "v", "u", 80.0), PeerGrade(1, "w", "u", 74.0)])
    dirty = _with_self_grade(clean, (1, "u"))
    hp = Hyperparameters(mu0=75.0, gamma0=0.01)
    spec = GridSpec(points_per_dim=11, tau_points=7)
    assert oracle_posterior(dirty, hp, Model.PG1, spec) == oracle_posterior(clean, hp, Model.PG1, spec)


def test_evaluate_model(pair):
    clean, dirty = pair
    _same_report(evaluate_model(dirty, HP, Model.PG1, EVAL, gibbs_cfg=GIBBS),
                 evaluate_model(clean, HP, Model.PG1, EVAL, gibbs_cfg=GIBBS))


def test_evaluate_baseline(pair):
    clean, dirty = pair
    _same_report(evaluate_baseline(dirty, EVAL), evaluate_baseline(clean, EVAL))


def test_rounds_experiment(pair):
    clean, dirty = pair
    assert (rounds_experiment(dirty, HP, Model.PG1, GIBBS, max_rounds=2)
            == rounds_experiment(clean, HP, Model.PG1, GIBBS, max_rounds=2))


def test_residual_analyses(pair):
    clean, dirty = pair
    s_hat = gibbs_infer(clean, HP, GIBBS)
    x = residual_vs_covariate(dirty, s_hat, Covariate.GRADER_SCORE, n_bins=4, min_support=1)
    y = residual_vs_covariate(clean, s_hat, Covariate.GRADER_SCORE, n_bins=4, min_support=1)
    assert x.n_grades == y.n_grades == clean.n_grades
    assert [(b.count, b.mean_residual) for b in x.bins] == [(b.count, b.mean_residual) for b in y.bins]
    x = joint_residual_heatmap(dirty, s_hat, n_bins=3, min_support=1)
    y = joint_residual_heatmap(clean, s_hat, n_bins=3, min_support=1)
    assert x.n_grades == y.n_grades == clean.n_grades
    assert np.array_equal(x.counts, y.counts)
    assert np.array_equal(x.mean_residual_z, y.mean_residual_z, equal_nan=True)
