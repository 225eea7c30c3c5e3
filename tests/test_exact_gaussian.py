"""An exact Gaussian reference for the linear-Gaussian models beyond the
grid oracle's reach.

Given every grader's reliability, the posterior over (scores, biases) is
exactly Gaussian. Its precision is diag(gamma0 on every score, eta0 on every
grader's bias) plus, per grade, the grader's tau times A'A, where row i of A
has a 1 at the gradee's score and at the grader's bias of grade i; the
right-hand side is gamma0 * mu0 on the scores plus tau * A'z. For the chain
model (PG2) eta0 anchors only the first assignment's biases and omega0 links
each grader's biases in consecutive assignments. A dense solve and inverse
give the exact means and variances, built from the graph alone,
independently of the engine. For PG1-bias the reliability is fixed, so this
is its whole posterior; for PG1 and PG2 the tests hold each reliability at a
fixed value and drive only the engine's score and bias blocks.
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
from peergrade.gibbs import _build_engine


def exact_posterior(
    graph: GradingGraph, hp: Hyperparameters, tau: dict[tuple[int, str], float], chained: bool = False
) -> dict[tuple, tuple[float, float]]:
    """(kind, assignment, student) -> exact (mean, variance), for every score
    and for the bias of every grader with a grade in its assignment (in any
    assignment when chained), given each grader's reliability tau[a, grader]."""
    priors = resolve_priors(graph, hp)
    assignments = list(graph.assignments)
    everyone = sorted({g.grader for g in graph.grades})
    keys = []
    for a in assignments:
        keys += [("s", a, u) for u in graph.submissions(a)]
        keys += [("b", a, v) for v in (everyone if chained else sorted({g.grader for g in graph.grades_in(a)}))]
    col = {key: i for i, key in enumerate(keys)}
    prec, num = np.zeros((len(keys), len(keys))), np.zeros(len(keys))
    for (kind, a, _), i in col.items():
        prior = priors[a]
        if kind == "s":
            prec[i, i], num[i] = prior.gamma0, prior.gamma0 * prior.mu0
        elif not chained or a == assignments[0]:
            prec[i, i] = prior.eta0
    if chained:
        for a0, a1 in zip(assignments, assignments[1:]):
            for v in everyone:
                i, j = col["b", a0, v], col["b", a1, v]
                prec[np.ix_([i, j], [i, j])] += priors[a1].omega0 * np.array([[1.0, -1.0], [-1.0, 1.0]])
    A = np.zeros((len(graph.grades), len(keys)))
    for i, g in enumerate(graph.grades):
        A[i, col["s", g.assignment, g.gradee]] = A[i, col["b", g.assignment, g.grader]] = 1.0
    w = np.array([tau[g.assignment, g.grader] for g in graph.grades])
    z = np.array([g.score for g in graph.grades])
    cov = np.linalg.inv(prec + A.T @ (w[:, None] * A))
    mean = cov @ (num + A.T @ (w * z))
    return {key: (float(mean[i]), float(cov[i, i])) for key, i in col.items()}


def exact_pg1bias_posterior(graph: GradingGraph, hp: Hyperparameters) -> dict[tuple, tuple[float, float]]:
    return exact_posterior(graph, hp, {(g.assignment, g.grader): hp.effective_tau_fixed for g in graph.grades})


def _shifted(graph: GradingGraph, offset: float) -> GradingGraph:
    if not offset:
        return graph
    return GradingGraph([PeerGrade(g.assignment, g.grader, g.gradee, g.score + offset) for g in graph.grades])


def _network(seed: int, offset: float = 0.0) -> GradingGraph:
    graph, _ = generate(SynthConfig(n_students=80, n_assignments=3, n_ground_truth=0,
                                    model=Model.PG1_BIAS, seed=seed))
    return _shifted(graph, offset)


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


def _batch_se(draws: np.ndarray, n_batches: int = 50) -> np.ndarray:
    """Batch-means standard error of the mean of each column."""
    batches = draws[: draws.shape[0] // n_batches * n_batches].reshape(n_batches, -1, draws.shape[1])
    return batches.mean(axis=1).std(axis=0, ddof=1) / np.sqrt(n_batches)


def _assert_matches_exact(exact, keys, mean, var, se) -> None:
    """Every exact latent is drawn; each mean lies within 5 batch-means
    standard errors, and each variance within 6%, of the exact value."""
    at = {key: i for i, key in enumerate(keys)}
    assert set(exact) <= set(at)
    cols = np.array([at[key] for key in exact])
    want_mean, want_var = np.array(list(exact.values())).T
    assert np.max(np.abs(mean[cols] - want_mean) / se[cols]) < 5
    assert np.max(np.abs(var[cols] / want_var - 1)) < 0.06


@pytest.mark.parametrize("offset", [0.0, 1e4])
def test_gibbs_matches_the_exact_moments(offset):
    """20,000 retained sweeps on seed 1: every posterior mean is within 5
    batch-means standard errors of the exact mean, and every variance within
    6% of the exact variance, also with every grade shifted far from zero."""
    graph, hp = _network(1, offset), Hyperparameters()
    exact = exact_pg1bias_posterior(graph, hp)
    cfg = GibbsConfig(model=Model.PG1_BIAS, total_sweeps=20_500, burn_in=500, seed=1)
    keys = [key for key in exact if key[0] == "s"] + [key for key in exact if key[0] == "b"]
    trace = TraceRecorder(keys)
    summary = gibbs_infer(graph, hp, cfg, trace=trace)
    draws = trace.values
    reported = {"s": summary.s, "b": summary.b}
    got_mean = np.array([reported[kind][a, v].mean for kind, a, v in keys])
    got_var = np.array([reported[kind][a, v].var for kind, a, v in keys])
    assert np.allclose(draws.mean(axis=0), got_mean, rtol=0, atol=1e-9)
    _assert_matches_exact(exact, keys, got_mean, got_var, _batch_se(draws))


def _held_tau_moments(
    graph: GradingGraph, hp: Hyperparameters, cfg: GibbsConfig, tau: dict[tuple[int, str], float],
    sweeps: int, burn_in: int = 500, n_batches: int = 50,
) -> tuple[list[tuple], np.ndarray, np.ndarray, np.ndarray]:
    """Hold every reliability at tau and run only the engine's score and bias
    blocks. Returns the (kind, assignment, student) of each score, then each
    bias, and their retained draws' mean, variance and batch-means standard
    error of the mean, streamed so that no draw is kept."""
    engine = _build_engine(graph, hp, cfg)
    engine.tau[:] = [tau[key] for key in engine.graders]
    keys = [("s", a, u) for a, u in engine.submissions] + [("b", a, v) for a, v in engine.graders]
    rngs = [np.random.default_rng([cfg.seed, k]) for k in range(len(engine.assignments))]
    if engine.chained:
        rngs = rngs[:1] * len(rngs)
    batch = (sweeps - burn_in) // n_batches
    sums, sumsq = np.zeros((n_batches, len(keys))), np.zeros(len(keys))
    s_eps, b_eps = np.empty(engine.s.size), np.empty(engine.b.size)
    for n in range(burn_in + batch * n_batches):
        for rng, r in zip(rngs, engine.rows):
            rng.standard_normal(out=s_eps[r.scores])
        engine._score_block(s_eps)
        for rng, r in zip(rngs, engine.rows):
            rng.standard_normal(out=b_eps[r.graders])
        engine._bias_block(b_eps)
        if n == burn_in - 1:
            shift = np.concatenate([engine.s, engine.b])  # moments are taken about it
        elif n >= burn_in:
            d = np.concatenate([engine.s, engine.b]) - shift
            sums[(n - burn_in) // batch] += d
            sumsq += d * d
    total = batch * n_batches
    centred = sums.sum(axis=0) / total
    se = (sums / batch).std(axis=0, ddof=1) / np.sqrt(n_batches)
    return keys, shift + centred, sumsq / total - centred * centred, se


@pytest.mark.parametrize("offset", [0.0, 1e4])
def test_pg1_with_tau_held_matches_the_exact_moments(offset):
    """PG1 on 80 students x 3 assignments with each grader's reliability held
    at its generating draw from the Gamma prior, default priors: 20,000
    sweeps of the score and bias blocks, also with every grade shifted far
    from zero."""
    graph, latents = generate(SynthConfig(n_students=80, n_assignments=3, n_ground_truth=0,
                                          model=Model.PG1, seed=1))
    graph, hp = _shifted(graph, offset), Hyperparameters()
    exact = exact_posterior(graph, hp, latents.tau)
    assert len(exact) == 480
    keys, mean, var, se = _held_tau_moments(graph, hp, GibbsConfig(model=Model.PG1, seed=1), latents.tau,
                                            sweeps=20_500)
    _assert_matches_exact(exact, keys, mean, var, se)


def test_pg2_with_tau_held_matches_the_exact_moments():
    """PG2 on 40 students x 4 assignments in percentage points
    (assume_normalized, mu0=75, gamma0=0.01), each reliability held at its
    generating draw: 60,000 sweeps of the score and the chained bias blocks."""
    graph, latents = generate(SynthConfig(n_students=40, n_assignments=4, n_ground_truth=0,
                                          model=Model.PG2, seed=1))
    hp = Hyperparameters(mu0=75.0, gamma0=0.01)
    exact = exact_posterior(graph, hp, latents.tau, chained=True)
    assert len(exact) == 320
    cfg = GibbsConfig(model=Model.PG2, assume_normalized=True, seed=1)
    keys, mean, var, se = _held_tau_moments(graph, hp, cfg, latents.tau, sweeps=60_500)
    _assert_matches_exact(exact, keys, mean, var, se)
