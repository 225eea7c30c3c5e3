"""An exact Gaussian reference for PG1-bias beyond the grid oracle's reach.

With the reliability fixed, the PG1-bias posterior over (scores, biases) is
exactly Gaussian, and assignments are independent. Per assignment, the joint
precision is diag(gamma0 on every score, eta0 on every grader's bias) plus
tau * A'A, where row i of A has a 1 at the gradee's score and at the grader's
bias of grade i; the right-hand side is gamma0 * mu0 on the scores plus
tau * A'z. A dense solve and inverse give the exact means and variances,
built from the graph alone, independently of the engine.
"""
import numpy as np
import pytest

from peergrade import (
    EmConfig,
    GibbsConfig,
    GradingGraph,
    Hyperparameters,
    Model,
    PeerGrade,
    SynthConfig,
    TraceRecorder,
    em_infer,
    generate,
    gibbs_infer,
    resolve_priors,
)


def exact_pg1bias_posterior(graph: GradingGraph, hp: Hyperparameters) -> dict[tuple, tuple[float, float]]:
    """(kind, assignment, student) -> exact (mean, variance), for every score
    and for the bias of every grader with a grade."""
    tau = hp.effective_tau_fixed
    out = {}
    for a, prior in resolve_priors(graph, hp).items():
        grades = graph.grades_in(a)
        students = list(graph.submissions(a))
        graders = sorted({g.grader for g in grades})
        col = {("s", u): i for i, u in enumerate(students)}
        col.update({("b", v): len(students) + j for j, v in enumerate(graders)})
        A = np.zeros((len(grades), len(col)))
        for i, g in enumerate(grades):
            A[i, col["s", g.gradee]] = A[i, col["b", g.grader]] = 1.0
        z = np.array([g.score for g in grades])
        prior_prec = np.r_[np.full(len(students), prior.gamma0), np.full(len(graders), prior.eta0)]
        prior_num = np.r_[np.full(len(students), prior.gamma0 * prior.mu0), np.zeros(len(graders))]
        cov = np.linalg.inv(np.diag(prior_prec) + tau * A.T @ A)
        mean = cov @ (prior_num + tau * A.T @ z)
        for (kind, student), i in col.items():
            out[kind, a, student] = (float(mean[i]), float(cov[i, i]))
    return out


def _network(seed: int, offset: float = 0.0) -> GradingGraph:
    graph, _ = generate(SynthConfig(n_students=80, n_assignments=3, n_ground_truth=0,
                                    model=Model.PG1_BIAS, seed=seed))
    if not offset:
        return graph
    return GradingGraph([PeerGrade(g.assignment, g.grader, g.gradee, g.score + offset) for g in graph.grades])


@pytest.mark.parametrize("offset", [0.0, 1e4])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_em_reaches_the_exact_mean(seed, offset):
    graph = _network(seed, offset)
    hp = Hyperparameters()
    exact = exact_pg1bias_posterior(graph, hp)
    points = em_infer(graph, hp, EmConfig(model=Model.PG1_BIAS))
    assert len(exact) == len(points.s) + len(points.b) == 480
    worst = max(abs(getattr(points, kind)[a, v] - mean) for (kind, a, v), (mean, _) in exact.items())
    assert worst < 1e-8


class _Draws:
    """Stands in for TraceRecorder.rows: keeps the traced values of each
    retained sweep as one row of an array instead of one tuple per value."""

    def __init__(self, n_sweeps: int, n_vars: int):
        self.values = np.empty((n_sweeps, n_vars))
        self._flat = self.values.reshape(-1)
        self._i = 0

    def append(self, row) -> None:
        self._flat[self._i] = row[4]
        self._i += 1


def _batch_se(draws: np.ndarray, n_batches: int = 50) -> np.ndarray:
    """Batch-means standard error of the mean of each column."""
    batches = draws[: draws.shape[0] // n_batches * n_batches].reshape(n_batches, -1, draws.shape[1])
    return batches.mean(axis=1).std(axis=0, ddof=1) / np.sqrt(n_batches)


def test_gibbs_matches_the_exact_moments():
    """20,000 retained sweeps on seed 1: every posterior mean is within 5
    batch-means standard errors of the exact mean, and every variance within
    6% of the exact variance."""
    graph, hp = _network(1), Hyperparameters()
    exact = exact_pg1bias_posterior(graph, hp)
    cfg = GibbsConfig(model=Model.PG1_BIAS, total_sweeps=20_500, burn_in=500, seed=1)
    biases = [(kind, a, v) for (kind, a, v) in exact if kind == "b"]
    trace = TraceRecorder(biases, rows=_Draws(cfg.retained_sweeps, len(biases)))
    summary = gibbs_infer(graph, hp, cfg, trace=trace, collect_scores=True)
    scores = [(kind, a, u) for (kind, a, u) in exact if kind == "s"]
    keys = scores + biases
    draws = np.column_stack([summary.score_samples[a, u] for _, a, u in scores] + [trace.rows.values])
    reported = {"s": summary.s, "b": summary.b}
    got_mean = np.array([reported[kind][a, v].mean for kind, a, v in keys])
    got_var = np.array([reported[kind][a, v].var for kind, a, v in keys])
    want_mean, want_var = np.array([exact[k] for k in keys]).T
    assert np.allclose(draws.mean(axis=0), got_mean, rtol=0, atol=1e-9)
    assert np.max(np.abs(got_mean - want_mean) / _batch_se(draws)) < 5
    assert np.max(np.abs(got_var / want_var - 1)) < 0.06
