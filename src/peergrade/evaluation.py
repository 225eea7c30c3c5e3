"""Leave-one-out evaluation against ground-truth submissions.

Two-step protocol per ground-truth submission: (1) run inference on the
whole graph minus that submission's received grades, freezing each pool
grader's bias and precision and the data-driven priors; (2) repeatedly sample
a handful of grades from the submission's pool, form the closed-form
conditional posterior-mean estimate from the frozen parameters, and record
the residual against the true grade. Metrics aggregate the residuals. The
median-of-sampled-grades baseline runs on identical draws for paired
comparison.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .core import (
    IDENTITY_NORMALIZATION,
    GradingGraph,
    Hyperparameters,
    Model,
    PeerGrade,
    check_seed,
    prepare_graph,
    resolve_priors,
)
from .em import EmConfig, em_infer
from .gibbs import GibbsConfig, gibbs_infer

__all__ = [
    "METRIC_ROWS",
    "TruthSource",
    "EvalConfig",
    "FrozenPrediction",
    "SubmissionEval",
    "EvaluationReport",
    "median_baseline",
    "fit_frozen",
    "simulate_frozen",
    "evaluate_model",
    "evaluate_baseline",
]

METRIC_ROWS = ("RMSE", "% Within 5pp", "% Within 10pp", "Mean Std", "Worst Grade")


class TruthSource(Enum):
    """What counts as a ground-truth submission's true grade."""

    CONSENSUS = "consensus"  # mean of its many peer grades
    STAFF = "staff"


@dataclass(frozen=True)
class EvalConfig:
    """Simulation settings for the leave-one-out protocol."""

    n_simulations: int = 3000
    grades_per_simulation: int = 4
    truth_source: TruthSource = TruthSource.CONSENSUS
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_simulations < 1:
            raise ValueError(f"n_simulations must be >= 1, got {self.n_simulations}")
        if self.grades_per_simulation < 1:
            raise ValueError(f"grades_per_simulation must be >= 1, got {self.grades_per_simulation}")
        check_seed(self.seed)


@dataclass(frozen=True)
class FrozenPrediction:
    """Everything step 2 needs for one held-out submission, in percentage
    points: the grade pool, per-pool-grader bias/precision frozen from the
    reduced-graph fit (prior fallback for graders the reduced graph never
    saw grading), and the score prior."""

    assignment: int
    gradee: str
    index: int  # position among sorted ground-truth keys, fixes the RNG stream
    mu0: float
    gamma0: float
    pool: tuple[PeerGrade, ...]
    bias: dict[str, float]
    precision: dict[str, float]
    truth_consensus: float
    truth_staff: float | None

    def truth(self, source: TruthSource) -> float:
        return _truth((self.assignment, self.gradee), self.truth_consensus, self.truth_staff, source)

    def estimate(self, grades: Sequence[PeerGrade]) -> tuple[float, float]:
        """Conditional posterior mean and std of the true score given a grade
        sample, under the frozen grader parameters."""
        p = self.gamma0
        num = self.gamma0 * self.mu0
        for g in grades:
            t = self.precision[g.grader]
            p += t
            num += t * (g.score - self.bias[g.grader])
        return num / p, math.sqrt(1.0 / p)


def _truth(key: tuple[int, str], consensus: float, staff: float | None, source: TruthSource) -> float:
    if source is TruthSource.STAFF:
        if staff is None:
            raise ValueError(f"submission ({key[0]}, {key[1]!r}) has no staff score")
        return staff
    return consensus


@dataclass(frozen=True)
class SubmissionEval:
    """Per-submission simulation outcome."""

    assignment: int
    gradee: str
    truth: float
    estimates: np.ndarray
    sigmas: np.ndarray | None  # None for the baseline, which has no posterior

    @property
    def residuals(self) -> np.ndarray:
        return self.estimates - self.truth


@dataclass(frozen=True)
class EvaluationReport:
    """Pooled metrics over every ground-truth submission's residuals."""

    label: str
    n_simulations: int
    grades_per_simulation: int
    truth_source: TruthSource
    submissions: tuple[SubmissionEval, ...]

    @property
    def all_residuals(self) -> np.ndarray:
        return np.concatenate([s.residuals for s in self.submissions])

    @property
    def rmse(self) -> float:
        r = self.all_residuals
        return float(np.sqrt(np.mean(r * r)))

    @property
    def pct_within_5pp(self) -> float:
        r = np.abs(self.all_residuals)
        return float(100.0 * np.mean(r <= 5.0))

    @property
    def pct_within_10pp(self) -> float:
        r = np.abs(self.all_residuals)
        return float(100.0 * np.mean(r <= 10.0))

    @property
    def mean_std(self) -> float:
        return float(np.mean([np.std(s.residuals) for s in self.submissions]))

    @property
    def worst_grade(self) -> float:
        r = self.all_residuals
        return float(r[np.argmax(np.abs(r))])

    @property
    def metrics(self) -> dict[str, float]:
        return {
            "RMSE": self.rmse,
            "% Within 5pp": self.pct_within_5pp,
            "% Within 10pp": self.pct_within_10pp,
            "Mean Std": self.mean_std,
            "Worst Grade": self.worst_grade,
        }


def median_baseline(scores: Sequence[float]) -> float:
    """The deployed scoring rule: median grade, averaging the middle pair for
    even counts."""
    if len(scores) == 0:
        raise ValueError("median of an empty grade set is undefined")
    ordered = sorted(scores)
    n = len(ordered)
    mid = n // 2
    if n % 2 == 1:
        return float(ordered[mid])
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def _gt_keys(graph: GradingGraph, cfg: EvalConfig) -> list[tuple[int, str]]:
    """The ground-truth submissions in sorted order, each checked before any
    fit: it has a staff score where that is the truth, and a pool of at
    least cfg.grades_per_simulation grades."""
    keys = sorted(graph.ground_truth)
    if not keys:
        raise ValueError("graph has no ground-truth submissions to evaluate")
    for key in keys:
        gt = graph.ground_truth[key]
        _truth(key, gt.consensus_score, gt.staff_score, cfg.truth_source)
        _require_pool(key, len(graph.graders_of(*key)), cfg.grades_per_simulation)
    return keys


def _config_for(model: Model, cfg: GibbsConfig | EmConfig | None, kind: type) -> GibbsConfig | EmConfig:
    """cfg, or a default config of the given kind when cfg is None; a config
    for another model than the one asked for is a ValueError."""
    if cfg is None:
        return kind(model=model)
    if cfg.model is not model:
        raise ValueError(f"{kind.__name__} is for {cfg.model.value}, but {model.value} was asked for")
    return cfg


def fit_frozen(
    graph: GradingGraph,
    hp: Hyperparameters,
    model: Model,
    key: tuple[int, str],
    index: int = 0,
    engine: str = "gibbs",
    gibbs_cfg: GibbsConfig | None = None,
    em_cfg: EmConfig | None = None,
) -> FrozenPrediction:
    """Step 1 for one held-out submission: reduced-graph inference, frozen
    grader parameters and priors in percentage points."""
    a, gradee = key
    truth = graph.ground_truth.get(key)
    if truth is None:
        raise KeyError(f"({a}, {gradee!r}) is not a ground-truth submission")
    pool = tuple(graph.graders_of(a, gradee))
    reduced = graph.without_received(a, gradee)
    if engine == "em":
        cfg = _config_for(model, em_cfg, EmConfig)
        assume_normalized = False
    elif engine == "gibbs":
        cfg = _config_for(model, gibbs_cfg, GibbsConfig)
        assume_normalized = cfg.assume_normalized
    else:
        raise ValueError(f"unknown engine {engine!r}; expected gibbs or em")

    # priors in pp for the reduced graph, mirroring what inference resolves
    work, norm = prepare_graph(reduced, model, assume_normalized)
    resolved = resolve_priors(work, hp, normalized=bool(norm))[a]
    p = norm.get(a, IDENTITY_NORMALIZATION)
    mu0 = p.to_pp("s", resolved.mu0)[0]
    gamma0 = p.to_pp("tau", resolved.gamma0)[0]
    prior_prec = p.to_pp("tau", resolved.alpha0 / resolved.beta0)[0]

    if engine == "em":
        points = em_infer(reduced, hp, cfg)
        b_hat, tau_hat, s_hat = points.b, points.tau, points.s
    else:
        summary = gibbs_infer(reduced, hp, cfg)
        # only the pool graders' latents are needed
        keys = [(a, g.grader) for g in pool]
        b_hat, tau_hat, s_hat = (
            {k: block[k].mean for k in keys if k in block}
            for block in (summary.b, summary.tau, summary.s)
        )
        theta = summary.theta

    bias: dict[str, float] = {}
    precision: dict[str, float] = {}
    for g in pool:
        v = g.grader
        bias[v] = b_hat.get((a, v), 0.0)
        if model is Model.PG1_BIAS:
            precision[v] = resolved.effective_tau_fixed
        elif model is Model.PG3:
            th0, th1 = theta["theta0"].mean, theta["theta1"].mean
            precision[v] = max(th1 * s_hat[(a, v)] + th0, resolved.precision_floor)
        else:
            precision[v] = tau_hat.get((a, v), prior_prec)

    return FrozenPrediction(
        assignment=a,
        gradee=gradee,
        index=index,
        mu0=mu0,
        gamma0=gamma0,
        pool=pool,
        bias=bias,
        precision=precision,
        truth_consensus=truth.consensus_score,
        truth_staff=truth.staff_score,
    )


def _require_pool(key: tuple[int, str], pool_size: int, k: int) -> None:
    if pool_size < k:
        raise ValueError(
            f"submission ({key[0]}, {key[1]!r}) has a pool of {pool_size} grades, "
            f"cannot draw {k} without replacement"
        )


def _pool_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(index,))))


def _simulate(
    key: tuple[int, str],
    index: int,
    pool_size: int,
    truth: float,
    cfg: EvalConfig,
    estimate: Callable[[np.ndarray], tuple[float, float | None]],
) -> SubmissionEval:
    """The draw loop the models and the baseline share: cfg.n_simulations
    draws of cfg.grades_per_simulation pool positions without replacement
    from the submission's own RNG stream, derived from (cfg.seed, index), so
    results do not depend on scheduling. estimate maps the drawn positions to
    (estimate, posterior std), the std None for an estimator without a
    posterior."""
    a, gradee = key
    k = cfg.grades_per_simulation
    _require_pool(key, pool_size, k)
    rng = _pool_rng(cfg.seed, index)
    estimates, sigmas = zip(*(estimate(rng.choice(pool_size, size=k, replace=False))
                              for _ in range(cfg.n_simulations)))
    return SubmissionEval(
        assignment=a,
        gradee=gradee,
        truth=truth,
        estimates=np.array(estimates, dtype=float),
        sigmas=None if sigmas[0] is None else np.array(sigmas, dtype=float),
    )


def simulate_frozen(fp: FrozenPrediction, cfg: EvalConfig) -> SubmissionEval:
    """Step 2: closed-form estimates from repeated grade draws without
    replacement, on the submission's own RNG stream (cfg.seed, fp.index)."""
    return _simulate((fp.assignment, fp.gradee), fp.index, len(fp.pool), fp.truth(cfg.truth_source), cfg,
                     lambda chosen: fp.estimate([fp.pool[j] for j in chosen]))


def _run_indexed(tasks, max_workers: int):
    """Run callables preserving order; thread count never changes results."""
    if max_workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")
    if max_workers <= 1:
        return [t() for t in tasks]
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        futures = [pool.submit(t) for t in tasks]
        return [f.result() for f in futures]


def evaluate_model(
    graph: GradingGraph,
    hp: Hyperparameters,
    model: Model,
    eval_cfg: EvalConfig,
    engine: str = "gibbs",
    gibbs_cfg: GibbsConfig | None = None,
    em_cfg: EmConfig | None = None,
    max_workers: int = 1,
) -> EvaluationReport:
    """Full protocol over every ground-truth submission."""
    keys = _gt_keys(graph, eval_cfg)
    tasks = [
        (lambda key=key, i=i: simulate_frozen(
            fit_frozen(graph, hp, model, key, index=i, engine=engine,
                       gibbs_cfg=gibbs_cfg, em_cfg=em_cfg),
            eval_cfg,
        ))
        for i, key in enumerate(keys)
    ]
    subs = _run_indexed(tasks, max_workers)
    return EvaluationReport(
        label=f"{model.value}-{engine}",
        n_simulations=eval_cfg.n_simulations,
        grades_per_simulation=eval_cfg.grades_per_simulation,
        truth_source=eval_cfg.truth_source,
        submissions=tuple(subs),
    )


def evaluate_baseline(
    graph: GradingGraph,
    eval_cfg: EvalConfig,
    max_workers: int = 1,
) -> EvaluationReport:
    """Median-of-sampled-grades baseline on draws identical to the models'
    (same seed, same per-submission streams)."""
    keys = _gt_keys(graph, eval_cfg)
    truth_map = graph.ground_truth

    def run_one(key: tuple[int, str], index: int) -> SubmissionEval:
        gt = truth_map[key]
        truth = _truth(key, gt.consensus_score, gt.staff_score, eval_cfg.truth_source)
        scores = graph.graders_of(*key).score
        return _simulate(key, index, len(scores), truth, eval_cfg,
                         lambda chosen: (median_baseline(scores[chosen]), None))

    tasks = [(lambda key=key, i=i: run_one(key, i)) for i, key in enumerate(keys)]
    subs = _run_indexed(tasks, max_workers)
    return EvaluationReport(
        label="median-baseline",
        n_simulations=eval_cfg.n_simulations,
        grades_per_simulation=eval_cfg.grades_per_simulation,
        truth_source=eval_cfg.truth_source,
        submissions=tuple(subs),
    )
