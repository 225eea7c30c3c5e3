import dataclasses
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import gamma as gamma_dist
from scipy.stats import multivariate_normal

from peergrade import GridSpec, Hyperparameters, Model, oracle_posterior
from peergrade.oracle import _tau_grid
from peergrade.io import write_summary_json
from conftest import make_graph
from test_acceptance import _oracle_net

GOLDEN_ORACLE = Path(__file__).parent / "golden_oracle"


class TestGridSpec:
    def test_rejects_even_counts(self):
        with pytest.raises(ValueError, match="odd"):
            GridSpec(points_per_dim=100)
        with pytest.raises(ValueError, match="odd"):
            GridSpec(tau_points=40)

    def test_rejects_bad_span_and_range(self):
        with pytest.raises(ValueError):
            GridSpec(prior_std_span=0.0)
        with pytest.raises(ValueError):
            GridSpec(tau_quantile_range=(0.5, 0.5))


class TestGuards:
    def test_too_many_latents(self):
        rows = [(1, "v", f"u{i}", 70.0 + i) for i in range(8)]
        with pytest.raises(ValueError, match="at most"):
            oracle_posterior(make_graph(rows), Hyperparameters(mu0=75, gamma0=0.01), Model.PG1,
                             GridSpec(points_per_dim=5, tau_points=5, max_latents=4))

    def test_underflow_detected(self, monkeypatch):
        # a grade so extreme the log density is -inf at every grid point, in
        # one block and in 21; no block may produce a NaN on the way to the error.
        # Its squared residual about mu0 (1e306) is finite, so resolve_priors
        # lets it through; times tau_fixed it overflows
        g = make_graph([(1, "v", "u", 1e153)])
        hp = Hyperparameters(mu0=75.0, gamma0=1 / 16, eta0=1.0, tau_fixed=400.0)
        for budget in (None, 21):
            if budget is not None:
                monkeypatch.setattr("peergrade.oracle._BLOCK_BUDGET", budget)
            with pytest.raises(ValueError, match="underflow"), np.errstate(over="ignore"), \
                    warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                oracle_posterior(g, hp, Model.PG1_BIAS, GridSpec(points_per_dim=21, prior_std_span=1.0))


class TestClosedFormAgreement:
    def test_fixed_reliability_matches_bivariate_normal(self):
        hp = Hyperparameters(mu0=70.0, gamma0=1 / 100, eta0=1 / 25, tau_fixed=1 / 9)
        g = make_graph([(1, "v", "u", 80.0)])
        post = oracle_posterior(g, hp, Model.PG1_BIAS, GridSpec(points_per_dim=201, prior_std_span=6.0))
        tau = 1 / 9
        P = np.array([[hp.gamma0 + tau, tau], [tau, hp.eta0 + tau]])
        mean = np.linalg.solve(P, np.array([hp.gamma0 * 70.0 + tau * 80.0, tau * 80.0]))
        cov = np.linalg.inv(P)
        assert post.s[(1, "u")].mean == pytest.approx(mean[0], abs=1e-4)
        assert post.s[(1, "u")].var == pytest.approx(cov[0, 0], rel=1e-4)
        assert post.b[(1, "v")].mean == pytest.approx(mean[1], abs=1e-4)
        assert post.b[(1, "v")].var == pytest.approx(cov[1, 1], rel=1e-4)

    def test_late_mode_rescales_running_maximum(self, monkeypatch):
        """One outer axis (the score) and a mode in its last quarter: the log
        density's running maximum rises block after block, so the mass summed
        before the mode is rescaled many times and must still integrate to the
        closed form."""
        monkeypatch.setattr("peergrade.oracle._BLOCK_BUDGET", 201)
        hp = Hyperparameters(mu0=70.0, gamma0=1 / 100, eta0=1 / 4, tau_fixed=1.0)
        g = make_graph([(1, "v", "u", 120.0)])
        spec = GridSpec(points_per_dim=201, prior_std_span=7.0)
        post = oracle_posterior(g, hp, Model.PG1_BIAS, spec)
        P = np.array([[hp.gamma0 + 1.0, 1.0], [1.0, hp.eta0 + 1.0]])
        mean = np.linalg.solve(P, np.array([hp.gamma0 * 70.0 + 120.0, 120.0]))
        cov = np.linalg.inv(P)
        grid = np.linspace(0.0, 140.0, 201)
        assert np.argmin(np.abs(grid - mean[0])) > 0.75 * grid.size
        assert post.s[(1, "u")].mean == pytest.approx(mean[0], abs=1e-4)
        assert post.s[(1, "u")].var == pytest.approx(cov[0, 0], rel=1e-4)
        assert post.b[(1, "v")].mean == pytest.approx(mean[1], abs=1e-4)
        assert post.b[(1, "v")].var == pytest.approx(cov[1, 1], rel=1e-4)

    def test_reliability_matches_gaussian_marginalization(self):
        """Independent route for the tau marginal: conditionally on tau the
        grades are jointly Gaussian with analytic covariance, so p(tau | z) is
        a 1-D integral we can do by quadrature."""
        hp = Hyperparameters(mu0=75.0, gamma0=1 / 16, eta0=1 / 4, alpha0=3.0, beta0=8.0)
        z = np.array([79.0, 70.5])
        g = make_graph([(1, "v", "u1", z[0]), (1, "v", "u2", z[1])])
        spec = GridSpec(points_per_dim=121, tau_points=81, prior_std_span=7.0,
                        tau_quantile_range=(1e-7, 1 - 1e-7))
        post = oracle_posterior(g, hp, Model.PG1, spec)

        # z = s_u + b_v + eps: cov = diag(1/gamma0) + (1/eta0) 11' + (1/tau) I
        taus = np.exp(np.linspace(np.log(gamma_dist.ppf(1e-9, 3.0, scale=1 / 8.0)),
                                  np.log(gamma_dist.ppf(1 - 1e-9, 3.0, scale=1 / 8.0)), 4001))
        logp = np.empty_like(taus)
        mu = np.full(2, 75.0)
        base = 16.0 * np.eye(2) + 4.0 * np.ones((2, 2))
        for i, t in enumerate(taus):
            logp[i] = multivariate_normal.logpdf(z, mean=mu, cov=base + np.eye(2) / t)
        logp += (3.0 - 1.0) * np.log(taus) - 8.0 * taus + np.log(taus)  # prior + log-spacing weight
        w = np.exp(logp - logp.max())
        w /= w.sum()
        mean_ref = float(w @ taus)
        var_ref = float(w @ taus**2) - mean_ref**2
        assert post.tau[(1, "v")].mean == pytest.approx(mean_ref, rel=5e-3)
        assert post.tau[(1, "v")].var == pytest.approx(var_ref, rel=2e-2)

    def test_score_linked_zero_slope_equals_fixed_reliability(self):
        rows = [(1, "u", "v", 80.1), (1, "v", "u", 72.6)]
        hp3 = Hyperparameters(mu0=75.0, gamma0=1 / 16, eta0=1 / 4, theta0=0.22, theta1=0.0)
        hp1b = Hyperparameters(mu0=75.0, gamma0=1 / 16, eta0=1 / 4, tau_fixed=0.22)
        spec = GridSpec(points_per_dim=61, prior_std_span=5.0)
        p3 = oracle_posterior(make_graph(rows), hp3, Model.PG3, spec)
        p1b = oracle_posterior(make_graph(rows), hp1b, Model.PG1_BIAS, spec)
        for key in p3.s:
            assert p3.s[key].mean == pytest.approx(p1b.s[key].mean, abs=1e-9)
            assert p3.s[key].var == pytest.approx(p1b.s[key].var, rel=1e-9)
        for key in p3.b:
            assert p3.b[key].mean == pytest.approx(p1b.b[key].mean, abs=1e-9)


class TestStructuralProperties:
    @pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
    def test_block_split_matches_one_block(self, model, monkeypatch):
        """Four 41- or 31-point axes in one block, then split over two outer
        axes (1,681 blocks of at most 41 x 41). The split puts PG2's chain
        link and every PG3 term on an outer axis; the moments must not move
        beyond summation order."""
        whole = golden_oracle_summary(model)
        monkeypatch.setattr("peergrade.oracle._BLOCK_BUDGET", 41 * 41)
        split = golden_oracle_summary(model)
        assert split.n_samples == whole.n_samples
        for kind in ("s", "b", "tau"):
            w, p = getattr(whole, kind), getattr(split, kind)
            assert set(w) == set(p)
            for key in w:
                assert p[key].mean == pytest.approx(w[key].mean, rel=1e-12, abs=0)
                assert p[key].var == pytest.approx(w[key].var, rel=1e-12, abs=0)

    def test_prior_only_scores_reported_analytically(self):
        g = make_graph([(1, "v", "u", 80.0)])
        hp = Hyperparameters(mu0=70.0, gamma0=0.01, eta0=0.04, tau_fixed=0.1)
        post = oracle_posterior(g, hp, Model.PG1_BIAS, GridSpec(points_per_dim=41))
        stat = post.s[(1, "v")]
        assert (stat.mean, stat.var, stat.n) == (70.0, 100.0, 0)

    def test_chain_bias_diffuses(self):
        """With no grades at the second assignment the chain bias spreads by
        exactly the walk noise: var(b2) = var(b1) + 1/omega0."""
        hp = Hyperparameters(mu0=0.0, gamma0=1.0, eta0=1.0, omega0=2.0, alpha0=3.0, beta0=3.0)
        g = make_graph([(1, "v", "u1", 0.8)], submissions={1: ("u1", "v"), 2: ()})
        spec = GridSpec(points_per_dim=121, tau_points=61, prior_std_span=7.0,
                        tau_quantile_range=(1e-6, 1 - 1e-6))
        post = oracle_posterior(g, hp, Model.PG2, spec, assume_normalized=True)
        v1 = post.b[(1, "v")].var
        v2 = post.b[(2, "v")].var
        assert v2 - v1 == pytest.approx(0.5, rel=0.02)
        assert post.b[(2, "v")].mean == pytest.approx(post.b[(1, "v")].mean, abs=0.01)

    def test_grid_refinement_converges(self):
        """Doubling resolution and widening the tau range barely moves the
        moments: the default grid is inside its convergence plateau."""
        hp = Hyperparameters(mu0=75.0, gamma0=1 / 16, eta0=1 / 4, alpha0=3.0, beta0=8.0)
        g = make_graph([(1, "v", "u1", 79.0), (1, "v", "u2", 70.5)])
        coarse = oracle_posterior(g, hp, Model.PG1, GridSpec(
            points_per_dim=81, tau_points=61, prior_std_span=6.0, tau_quantile_range=(1e-6, 1 - 1e-6)))
        fine = oracle_posterior(g, hp, Model.PG1, GridSpec(
            points_per_dim=161, tau_points=121, prior_std_span=7.0, tau_quantile_range=(1e-8, 1 - 1e-8)))
        for kind in ("s", "b", "tau"):
            cd, fd = getattr(coarse, kind), getattr(fine, kind)
            for key in cd:
                assert cd[key].mean == pytest.approx(fd[key].mean, abs=5e-3)
                assert cd[key].var == pytest.approx(fd[key].var, rel=5e-3)


def golden_oracle_summary(model: Model):
    """Acceptance 1's seed-1 network for ``model`` on a 41-point grid (31 tau
    points)."""
    graph, hp, spec, _ = _oracle_net(model, 1)
    spec = dataclasses.replace(spec, points_per_dim=41, tau_points=31)
    return oracle_posterior(graph, hp, model, spec, assume_normalized=model is Model.PG2)


@pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
def test_golden_oracle_bytes(model, tmp_path):
    """The oracle writes the committed bytes under tests/golden_oracle."""
    out = tmp_path / f"{model.value}.json"
    write_summary_json(golden_oracle_summary(model), out)
    assert out.read_bytes() == (GOLDEN_ORACLE / f"{model.value}.json").read_bytes()


@pytest.mark.parametrize("alpha0, beta0", [(2.0, 18.0), (3.0, 3.0), (3.0, 8.0)])
@pytest.mark.parametrize("quantiles", [(5e-4, 1 - 5e-4), (1e-6, 1 - 1e-6)])
def test_tau_grid_spans_the_gamma_quantiles(alpha0, beta0, quantiles):
    """The reliability grid's ends are exactly scipy.stats.gamma.ppf's quantiles."""
    spec = GridSpec(tau_quantile_range=quantiles)
    lo, hi = (float(gamma_dist.ppf(q, alpha0, scale=1.0 / beta0)) for q in quantiles)
    grid, _ = _tau_grid(Hyperparameters(alpha0=alpha0, beta0=beta0), spec)
    assert np.array_equal(grid, np.exp(np.linspace(math.log(lo), math.log(hi), spec.tau_points)))


def test_the_reliability_grid_loads_scipy_special_only():
    """The grid's ends come from scipy.special, which the oracle imports only
    to build it, and never from scipy.stats. A fresh interpreter, because
    this module imports scipy.stats itself."""
    code = (
        "import sys\n"
        "from peergrade import GridSpec, Hyperparameters, Model, oracle_posterior\n"
        "from peergrade.core import GradingGraph, PeerGrade\n"
        "graph = GradingGraph([PeerGrade(1, 'v', 'u1', 70.0), PeerGrade(1, 'v', 'u2', 80.0)])\n"
        "before = 'scipy.special' in sys.modules\n"
        "oracle_posterior(graph, Hyperparameters(mu0=75.0, gamma0=0.01), Model.PG1,\n"
        "                 GridSpec(points_per_dim=5, tau_points=5))\n"
        "print(before, 'scipy.special' in sys.modules, 'scipy.stats' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False True False\n"
