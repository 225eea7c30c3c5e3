"""Synthetic grading networks sampled exactly from each model.

Latents come top-down from the chosen model's priors and are returned as a
LatentState, the container of every point estimate. Graders are matched to
gradees uniformly at random (no self-grades, no duplicate pairs, fixed
per-grader quota over the non-ground-truth submissions), ground-truth
submissions are super-graded by a large random subset of the class, and
observed grades come from the likelihood. Scores are deliberately left
unclamped. Also hosts the reliability-identifiability experiment: regenerate
at several grading loads and measure what becomes recoverable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    GradeTable,
    GradingGraph,
    GroundTruth,
    Hyperparameters,
    LatentState,
    Model,
    check_seed,
)
from .evaluation import EvalConfig, evaluate_baseline, evaluate_model
from .gibbs import GibbsConfig, gibbs_infer

__all__ = [
    "SynthConfig",
    "generate",
    "IdentifiabilityRow",
    "identifiability_experiment",
]


def _default_hp() -> Hyperparameters:
    # generation needs concrete priors; 75 +- 10 pp scores, reliability line
    # gently increasing in the grader's own score
    return Hyperparameters(mu0=75.0, gamma0=1.0 / 100.0, theta0=0.02, theta1=0.0012)


@dataclass(frozen=True)
class SynthConfig:
    """Shape and priors of a generated grading network."""

    n_students: int
    n_assignments: int = 1
    grades_per_grader: int = 4
    n_ground_truth: int = 3  # per assignment
    super_grades: int = 160  # graders per ground-truth submission
    model: Model = Model.PG1
    hp: Hyperparameters = field(default_factory=_default_hp)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_students < 2:
            raise ValueError(f"n_students must be >= 2, got {self.n_students}")
        if self.n_assignments < 1:
            raise ValueError(f"n_assignments must be >= 1, got {self.n_assignments}")
        if self.grades_per_grader < 1:
            raise ValueError(f"grades_per_grader must be >= 1, got {self.grades_per_grader}")
        if self.n_ground_truth < 0 or self.super_grades < 0:
            raise ValueError("n_ground_truth and super_grades must be >= 0")
        if self.n_ground_truth > self.n_students:
            raise ValueError("n_ground_truth cannot exceed n_students")
        check_seed(self.seed)
        if not self.hp.is_resolved:
            raise ValueError("generation needs explicit mu0 and gamma0 (no data to resolve them from)")
        if self.n_ground_truth and self.super_grades == 0:
            raise ValueError(
                f"infeasible: {self.n_ground_truth} ground-truth submissions per assignment are graded "
                "only by super graders, and super_grades is 0"
            )
        if self.n_ground_truth and self.super_grades > self.n_students - 1:
            raise ValueError(
                f"infeasible: {self.super_grades} super grades need {self.super_grades} distinct "
                f"non-self graders, only {self.n_students - 1} exist"
            )
        eligible = self.n_students - 1 - self.n_ground_truth
        if self.grades_per_grader > eligible:
            raise ValueError(
                f"infeasible: quota {self.grades_per_grader} exceeds the {eligible} "
                "gradeable submissions per grader (after removing self and ground truths)"
            )


def _student_ids(n: int) -> list[str]:
    width = max(5, len(str(n - 1)))
    return [f"s{i:0{width}d}" for i in range(n)]


def generate(cfg: SynthConfig) -> tuple[GradingGraph, LatentState]:
    """Sample a grading network and its generating latents; deterministic in
    cfg.seed.

    The latents cover every student of every assignment; tau holds each
    grader's effective precision: the fixed value for PG1-bias, the clamped
    affine value for PG3. Ground-truth submissions receive exactly
    cfg.super_grades grades from distinct random graders and none from the regular matching, so their pool
    size is exact. Their consensus score is the mean of those grades; their
    staff score is the generating true score.
    """
    hp = cfg.hp
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))
    students = _student_ids(cfg.n_students)
    assignments = list(range(1, cfg.n_assignments + 1))
    n, K = cfg.n_students, cfg.n_assignments

    s = rng.normal(hp.mu0, 1.0 / math.sqrt(hp.gamma0), size=(K, n))
    if cfg.model is Model.PG2:
        b = np.empty((K, n))
        b[0] = rng.normal(0.0, 1.0 / math.sqrt(hp.eta0), size=n)
        for k in range(1, K):
            b[k] = b[k - 1] + rng.normal(0.0, 1.0 / math.sqrt(hp.omega0), size=n)
    else:
        b = rng.normal(0.0, 1.0 / math.sqrt(hp.eta0), size=(K, n))
    if cfg.model.has_reliability:
        tau = rng.gamma(hp.alpha0, 1.0 / hp.beta0, size=(K, n))
    elif cfg.model is Model.PG1_BIAS:
        tau = np.full((K, n), hp.effective_tau_fixed)
    else:
        tau = np.maximum(hp.theta1 * s + hp.effective_theta0, hp.precision_floor)

    columns: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []  # (grader, gradee, score) per assignment
    truth: dict[tuple[int, str], GroundTruth] = {}
    q = cfg.grades_per_grader
    for k, a in enumerate(assignments):
        gt = np.sort(rng.choice(n, size=cfg.n_ground_truth, replace=False)) if cfg.n_ground_truth else np.array([], dtype=int)
        is_gt = np.zeros(n, dtype=bool)
        is_gt[gt] = True
        non_gt = np.flatnonzero(~is_gt)
        own_pos = np.cumsum(~is_gt) - 1  # a candidate grader's own position in non_gt

        # a candidate grader draws among the others by stepping over its own
        # position, so the draw sizes, and the stream, match drawing from a copy
        # of non_gt without it
        chosen = np.empty((n, q), dtype=int)
        for v in range(n):
            if is_gt[v]:
                chosen[v] = rng.choice(non_gt.size, size=q, replace=False)
            else:
                c = rng.choice(non_gt.size - 1, size=q, replace=False)
                chosen[v] = c + (c >= own_pos[v])
        super_graders = []
        for u in gt:
            c = np.sort(rng.choice(n - 1, size=cfg.super_grades, replace=False))
            super_graders.append(c + (c >= u))

        eg = np.concatenate([np.repeat(np.arange(n), q), *super_graders])
        eu = np.concatenate([non_gt[chosen].ravel(), np.repeat(gt, cfg.super_grades)])
        noise_sd = 1.0 / np.sqrt(tau[k][eg])
        z = s[k][eu] + b[k][eg] + rng.normal(0.0, 1.0, size=eg.size) * noise_sd
        columns.append((eg, eu, z))

        for u in gt:
            truth[(a, students[u])] = GroundTruth(
                consensus_score=float(np.mean(z[eu == u])),
                staff_score=float(s[k][u]),
            )

    latents = LatentState(
        s={(a, students[u]): float(s[k][u]) for k, a in enumerate(assignments) for u in range(n)},
        b={(a, students[v]): float(b[k][v]) for k, a in enumerate(assignments) for v in range(n)},
        tau={(a, students[v]): float(tau[k][v]) for k, a in enumerate(assignments) for v in range(n)},
        theta=(hp.effective_theta0, hp.theta1) if cfg.model is Model.PG3 else None,
    )
    grades = GradeTable(
        np.repeat(assignments, [eg.size for eg, _, _ in columns]),
        *(np.concatenate(col) for col in zip(*columns)),
        ids=students,
    )
    graph = GradingGraph(
        grades,
        ground_truth=truth,
        submissions={a: students for a in assignments},
    )
    return graph, latents


@dataclass(frozen=True)
class IdentifiabilityRow:
    """One grading-load setting: evaluation RMSE per approach and how well
    per-grader reliability is recovered."""

    grades_per_grader: int
    rmse_baseline: float
    rmse_pg1_bias: float
    rmse_pg1: float
    tau_recovery_pearson: float


def identifiability_experiment(
    base_cfg: SynthConfig,
    grade_counts: tuple[int, ...] = (4, 10, 20),
    eval_cfg: EvalConfig | None = None,
    gibbs_cfg: GibbsConfig | None = None,
    max_workers: int = 1,
) -> list[IdentifiabilityRow]:
    """Regenerate PG1 data at several per-grader quotas; at each, report
    baseline/fixed-reliability/full-model evaluation RMSE and the Pearson
    correlation between inferred and generating reliabilities (full-graph
    fit). More grades per grader should make reliability identifiable."""
    if max_workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")
    if base_cfg.model is not Model.PG1:
        raise ValueError("the identifiability experiment generates from pg1")
    eval_cfg = eval_cfg or EvalConfig()
    # generate gives every ground-truth submission exactly super_grades grades
    if not base_cfg.n_ground_truth:
        raise ValueError("graph has no ground-truth submissions to evaluate")
    if base_cfg.super_grades < eval_cfg.grades_per_simulation:
        raise ValueError(
            f"each ground-truth submission has a pool of {base_cfg.super_grades} grades, "
            f"cannot draw {eval_cfg.grades_per_simulation} without replacement"
        )
    cfg_pg1 = gibbs_cfg or GibbsConfig(model=Model.PG1, seed=base_cfg.seed)
    if cfg_pg1.model is not Model.PG1:
        raise ValueError("gibbs_cfg must target pg1")
    cfg_bias = replace(cfg_pg1, model=Model.PG1_BIAS)

    configs = [replace(base_cfg, grades_per_grader=count) for count in grade_counts]
    rows = []
    for cfg in configs:
        graph, latents = generate(cfg)

        summary = gibbs_infer(graph, base_cfg.hp, cfg_pg1)
        common = sorted(set(summary.tau) & set(latents.tau))
        est = np.array([summary.tau[k].mean for k in common])
        true = np.array([latents.tau[k] for k in common])
        pearson = float(np.corrcoef(est, true)[0, 1])

        rmse_pg1 = evaluate_model(
            graph, base_cfg.hp, Model.PG1, eval_cfg, gibbs_cfg=cfg_pg1, max_workers=max_workers
        ).rmse
        rmse_bias = evaluate_model(
            graph, base_cfg.hp, Model.PG1_BIAS, eval_cfg, gibbs_cfg=cfg_bias, max_workers=max_workers
        ).rmse
        rmse_base = evaluate_baseline(graph, eval_cfg, max_workers=max_workers).rmse
        rows.append(
            IdentifiabilityRow(
                grades_per_grader=cfg.grades_per_grader,
                rmse_baseline=rmse_base,
                rmse_pg1_bias=rmse_bias,
                rmse_pg1=rmse_pg1,
                tau_recovery_pearson=pearson,
            )
        )
    return rows
