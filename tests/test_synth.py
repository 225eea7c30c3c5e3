import math
import re
from dataclasses import replace

import numpy as np
import pytest

from peergrade import (
    EvalConfig,
    GibbsConfig,
    Hyperparameters,
    IdentifiabilityRow,
    Model,
    SynthConfig,
    generate,
    identifiability_experiment,
)
from peergrade import synth

HP = Hyperparameters(mu0=75.0, gamma0=1 / 100, eta0=1 / 25, alpha0=4.0, beta0=16.0)


def base_cfg(**kw) -> SynthConfig:
    defaults = dict(n_students=60, grades_per_grader=4, n_ground_truth=3,
                    super_grades=20, model=Model.PG1, hp=HP, seed=7)
    defaults.update(kw)
    return SynthConfig(**defaults)


class TestConfigValidation:
    def test_super_grades_infeasible(self):
        with pytest.raises(ValueError, match="infeasible"):
            base_cfg(n_students=10, super_grades=10)

    def test_quota_infeasible(self):
        # 10 students, 3 ground truths, self excluded: 6 gradeable, quota 7 fails
        with pytest.raises(ValueError, match="infeasible"):
            base_cfg(n_students=10, grades_per_grader=7, super_grades=5)

    def test_ground_truth_needs_super_grades(self, monkeypatch):
        def no_generate(cfg):
            raise AssertionError("generate ran before the config was checked")

        monkeypatch.setattr(synth, "generate", no_generate)
        with pytest.raises(ValueError, match="infeasible: 3 ground-truth submissions per assignment .* "
                                             "super_grades is 0"):
            base_cfg(super_grades=0)
        assert base_cfg(n_ground_truth=0, super_grades=0).super_grades == 0

    def test_needs_resolved_priors(self):
        with pytest.raises(ValueError, match="explicit mu0 and gamma0"):
            base_cfg(hp=Hyperparameters())

    def test_basic_bounds(self):
        with pytest.raises(ValueError):
            base_cfg(n_students=1)
        with pytest.raises(ValueError):
            base_cfg(n_assignments=0)
        with pytest.raises(ValueError):
            base_cfg(n_ground_truth=-1)
        with pytest.raises(ValueError):
            base_cfg(seed=-1)


class TestGenerate:
    def test_deterministic_in_seed(self):
        g1, l1 = generate(base_cfg())
        g2, l2 = generate(base_cfg())
        assert g1.grades == g2.grades
        assert l1.s == l2.s and l1.b == l2.b and l1.tau == l2.tau
        g3, _ = generate(base_cfg(seed=8))
        assert g3.grades != g1.grades

    def test_network_shape(self):
        cfg = base_cfg()
        graph, _ = generate(cfg)
        gt = set(graph.ground_truth)
        assert len(gt) == cfg.n_ground_truth
        # every grader hands out exactly the quota over non-gt submissions
        for v in graph.submissions(1):
            given = [g for g in graph.gradees_of(1, v) if (1, g.gradee) not in gt]
            assert len(given) == cfg.grades_per_grader
            assert v not in {g.gradee for g in graph.gradees_of(1, v)}
        # ground truths are graded exactly super_grades times, by distinct graders
        for (a, u) in gt:
            pool = graph.graders_of(a, u)
            assert len(pool) == cfg.super_grades
            assert len({g.grader for g in pool}) == cfg.super_grades

    def test_ground_truth_fields(self):
        graph, latents = generate(base_cfg())
        for (a, u), truth in graph.ground_truth.items():
            received = [g.score for g in graph.graders_of(a, u)]
            assert truth.consensus_score == pytest.approx(np.mean(received), abs=1e-12)
            assert truth.staff_score == latents.s[(a, u)]

    def test_latents_cover_universe(self):
        cfg = base_cfg(n_assignments=2, model=Model.PG2)
        graph, latents = generate(cfg)
        keys = {(a, u) for a in (1, 2) for u in graph.submissions(a)}
        assert set(latents.s) == keys
        assert set(latents.b) == keys
        assert set(latents.tau) == keys

    def test_prior_moments(self):
        # large single network pins the latent draws near their prior moments
        cfg = base_cfg(n_students=4000, super_grades=50)
        _, latents = generate(cfg)
        s = np.array(list(latents.s.values()))
        b = np.array(list(latents.b.values()))
        tau = np.array(list(latents.tau.values()))
        assert s.mean() == pytest.approx(HP.mu0, abs=0.6)
        assert s.var() == pytest.approx(1 / HP.gamma0, rel=0.1)
        assert b.mean() == pytest.approx(0.0, abs=0.3)
        assert b.var() == pytest.approx(1 / HP.eta0, rel=0.1)
        assert tau.mean() == pytest.approx(HP.alpha0 / HP.beta0, rel=0.1)

    def test_grade_noise_matches_reliability(self):
        # residual z - s_u - b_v should look like N(0, 1/tau_v)
        graph, latents = generate(base_cfg(n_students=500, super_grades=40))
        scaled = [
            (g.score - latents.s[(1, g.gradee)] - latents.b[(1, g.grader)])
            * math.sqrt(latents.tau[(1, g.grader)])
            for g in graph.grades
        ]
        scaled = np.array(scaled)
        assert scaled.mean() == pytest.approx(0.0, abs=0.05)
        assert scaled.std() == pytest.approx(1.0, rel=0.05)


class TestModelSpecificLatents:
    def test_fixed_reliability_model(self):
        hp = replace(HP, tau_fixed=0.3)
        _, latents = generate(base_cfg(model=Model.PG1_BIAS, hp=hp))
        assert set(latents.tau.values()) == {0.3}
        assert latents.theta is None

    def test_score_linked_reliability(self):
        hp = replace(HP, theta0=0.01, theta1=0.002)
        _, latents = generate(base_cfg(model=Model.PG3, hp=hp))
        assert latents.theta == (0.01, 0.002)
        for key, tau in latents.tau.items():
            expected = max(0.002 * latents.s[key] + 0.01, hp.precision_floor)
            assert tau == pytest.approx(expected, abs=1e-12)

    def test_score_linked_floor_binds(self):
        # steep negative slope pushes tau to the clamp for high scorers
        hp = replace(HP, theta0=0.05, theta1=-0.01)
        _, latents = generate(base_cfg(model=Model.PG3, hp=hp, seed=3))
        floored = [t for t in latents.tau.values() if t == hp.precision_floor]
        assert floored, "expected some reliabilities at the clamp"

    def test_bias_random_walk(self):
        hp = replace(HP, eta0=1 / 25, omega0=1 / 9)
        cfg = base_cfg(n_students=4000, n_assignments=3, super_grades=50,
                       model=Model.PG2, hp=hp)
        _, latents = generate(cfg)
        students = sorted({u for (_, u) in latents.b})
        b = np.array([[latents.b[(a, u)] for u in students] for a in (1, 2, 3)])
        steps = np.diff(b, axis=0)
        assert steps.mean() == pytest.approx(0.0, abs=0.2)
        assert steps.var() == pytest.approx(1 / hp.omega0, rel=0.1)
        # neighbouring assignments correlate as sqrt(var1 / var2)
        rho = np.corrcoef(b[0], b[1])[0, 1]
        v1 = 1 / hp.eta0
        assert rho == pytest.approx(math.sqrt(v1 / (v1 + 1 / hp.omega0)), abs=0.03)


class TestIdentifiabilityExperiment:
    def test_rejects_wrong_model(self):
        with pytest.raises(ValueError, match="pg1"):
            identifiability_experiment(base_cfg(model=Model.PG1_BIAS))

    def test_rejects_wrong_gibbs_model(self):
        with pytest.raises(ValueError, match="pg1"):
            identifiability_experiment(
                base_cfg(), gibbs_cfg=GibbsConfig(model=Model.PG2))

    @pytest.mark.parametrize("counts, message", [
        ((4, 0), "grades_per_grader must be >= 1, got 0"),
        ((4, 57), "infeasible: quota 57 exceeds the 56 gradeable submissions"),
    ], ids=["zero", "above-quota"])
    def test_bad_count_rejected_before_generating(self, monkeypatch, counts, message):
        def no_generate(cfg):
            raise AssertionError("generate ran before every count was checked")

        monkeypatch.setattr(synth, "generate", no_generate)
        with pytest.raises(ValueError, match=message):
            identifiability_experiment(base_cfg(), grade_counts=counts)

    @pytest.mark.parametrize("cfg_kw, grades_per_sim, message", [
        ({"n_ground_truth": 0}, 4, "graph has no ground-truth submissions to evaluate"),
        ({}, 21, "each ground-truth submission has a pool of 20 grades, cannot draw 21 without replacement"),
        ({"super_grades": 0}, 1, "infeasible: 3 ground-truth submissions per assignment are graded only by "
                                 "super graders, and super_grades is 0"),
    ], ids=["no-ground-truth", "pool-below-draw", "empty-pool"])
    def test_ground_truth_pools_checked_before_generating(self, monkeypatch, cfg_kw, grades_per_sim, message):
        def no_generate(cfg):
            raise AssertionError("generate ran before the ground-truth pools were checked")

        monkeypatch.setattr(synth, "generate", no_generate)
        with pytest.raises(ValueError, match=re.escape(message)):
            identifiability_experiment(
                base_cfg(**cfg_kw), eval_cfg=EvalConfig(grades_per_simulation=grades_per_sim))

    def test_row_per_count(self):
        rows = identifiability_experiment(
            base_cfg(n_students=40, super_grades=12),
            grade_counts=(3, 6),
            eval_cfg=EvalConfig(n_simulations=40, grades_per_simulation=3, seed=1),
            gibbs_cfg=GibbsConfig(model=Model.PG1, total_sweeps=120, burn_in=20, seed=2),
        )
        assert [r.grades_per_grader for r in rows] == [3, 6]
        for r in rows:
            assert isinstance(r, IdentifiabilityRow)
            assert r.rmse_baseline > 0 and r.rmse_pg1 > 0 and r.rmse_pg1_bias > 0
            assert -1.0 <= r.tau_recovery_pearson <= 1.0


def reference_generate(cfg: SynthConfig):
    """generate() written out with a copy of the candidate list per grader
    (the np.delete form), as a check on the array draw: rows of (assignment,
    grader, gradee, score.hex()), truth as hex pairs, latents as (K, n) arrays."""
    hp, n, K = cfg.hp, cfg.n_students, cfg.n_assignments
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))
    s = rng.normal(hp.mu0, 1.0 / math.sqrt(hp.gamma0), size=(K, n))
    if cfg.model is Model.PG2:
        b = np.empty((K, n))
        b[0] = rng.normal(0.0, 1.0 / math.sqrt(hp.eta0), size=n)
        for k in range(1, K):
            b[k] = b[k - 1] + rng.normal(0.0, 1.0 / math.sqrt(hp.omega0), size=n)
    else:
        b = rng.normal(0.0, 1.0 / math.sqrt(hp.eta0), size=(K, n))
    if cfg.model in (Model.PG1, Model.PG2):
        tau = rng.gamma(hp.alpha0, 1.0 / hp.beta0, size=(K, n))
    elif cfg.model is Model.PG1_BIAS:
        tau = np.full((K, n), hp.effective_tau_fixed)
    else:
        tau = np.maximum(hp.theta1 * s + hp.effective_theta0, hp.precision_floor)

    rows, truth = [], {}
    for k in range(K):
        gt = (np.sort(rng.choice(n, size=cfg.n_ground_truth, replace=False))
              if cfg.n_ground_truth else np.array([], dtype=int))
        non_gt = np.array([u for u in range(n) if u not in set(gt.tolist())], dtype=int)
        edges = []
        for v in range(n):
            eligible = np.delete(non_gt, np.flatnonzero(non_gt == v))
            chosen = rng.choice(eligible.size, size=cfg.grades_per_grader, replace=False)
            edges += [(v, int(u)) for u in eligible[chosen]]
        for u in gt:
            others = np.delete(np.arange(n), u)
            chosen = rng.choice(others.size, size=cfg.super_grades, replace=False)
            edges += [(int(v), int(u)) for v in others[np.sort(chosen)]]
        eg, eu = np.array(edges, dtype=int).T
        z = s[k][eu] + b[k][eg] + rng.normal(0.0, 1.0, size=eg.size) * (1.0 / np.sqrt(tau[k][eg]))
        rows += [(k + 1, v, u, float(x).hex()) for v, u, x in zip(eg.tolist(), eu.tolist(), z)]
        for u in gt.tolist():
            truth[(k + 1, u)] = (float(np.mean([x for x, w in zip(z, eu) if w == u])).hex(), float(s[k][u]).hex())
    return rows, truth, (s, b, tau)


class TestStreamPinned:
    SHAPES = {
        "basic": dict(n_students=40, grades_per_grader=4, n_ground_truth=3, super_grades=20),
        "no-ground-truth": dict(n_students=40, grades_per_grader=4, n_ground_truth=0),
        "quota-equals-eligible": dict(n_students=4, grades_per_grader=2, n_ground_truth=1, super_grades=2),
        "every-other-student-super-grades": dict(n_students=25, grades_per_grader=3, n_ground_truth=2,
                                                 super_grades=24),
        "three-assignments": dict(n_students=30, grades_per_grader=4, n_ground_truth=2, super_grades=10,
                                  n_assignments=3),
    }

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("model", list(Model), ids=lambda m: m.value)
    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_generate_matches_reference_bitwise(self, shape, model, seed):
        cfg = SynthConfig(model=model, seed=seed, **self.SHAPES[shape])
        graph, latents = generate(cfg)
        rows, truth, (s, b, tau) = reference_generate(cfg)
        ids = graph.submissions(1)
        index = {u: i for i, u in enumerate(ids)}
        assert [(g.assignment, index[g.grader], index[g.gradee], g.score.hex()) for g in graph.grades] == rows
        assert {(a, index[u]): (t.consensus_score.hex(), t.staff_score.hex())
                for (a, u), t in graph.ground_truth.items()} == truth
        for got, want in ((latents.s, s), (latents.b, b), (latents.tau, tau)):
            assert {key: x.hex() for key, x in got.items()} == {
                (k + 1, u): float(want[k][i]).hex() for k in range(cfg.n_assignments) for i, u in enumerate(ids)
            }
