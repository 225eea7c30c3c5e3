"""Confidence calibration and rounds-of-grading experiments.

Calibration: run the leave-one-out simulation loop, convert each prediction's
posterior std into a confidence that the estimate lies within delta of the
truth, bin those confidences (20 bins of 5 percent), and measure each bin's
empirical pass rate. Rounds: restrict the graph to each grader's first k
grades (input order), rerun inference, and count submissions the model is
confident about; grading more rounds should grow that set.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GradingGraph, Hyperparameters, Model, _gaussian_within
from .em import EmConfig
from .evaluation import EvalConfig, EvaluationReport, _config_for, _run_indexed, evaluate_model
from .gibbs import GibbsConfig, TraceRecorder, gibbs_infer

__all__ = [
    "DELTAS",
    "confidence",
    "empirical_confidence",
    "CalibrationBin",
    "CalibrationReport",
    "calibration_experiment",
    "RoundStat",
    "RoundsReport",
    "restrict_to_first_grades",
    "rounds_experiment",
]

DELTAS = (5.0, 7.0, 10.0)
N_BINS = 20

# core._gaussian_within's erf, elementwise: importing scipy.special for its
# erf would cost every command that imports the package about 0.3 s.
_erf = np.vectorize(math.erf, otypes=[float])


def confidence(posterior_mean: float, posterior_var: float, delta: float) -> float:
    """Probability that a N(mean, var) draw lies within +-delta of the mean,
    i.e. the model's belief that the true score is within delta of its
    estimate. The mean itself does not enter the central-interval mass; it is
    part of the signature because the prediction is the pair (mean, var)."""
    if not (posterior_var > 0):
        raise ValueError(f"posterior variance must be positive, got {posterior_var}")
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    return _gaussian_within(delta, posterior_var)


def empirical_confidence(samples: np.ndarray, delta: float) -> float:
    """Sample-based alternative: fraction of posterior draws within delta of
    their mean."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("empirical confidence needs at least one sample")
    return float(np.mean(np.abs(samples - samples.mean()) <= delta))


@dataclass(frozen=True)
class CalibrationBin:
    bin_lo: float
    bin_hi: float
    delta: float
    count: int
    passes: int

    @property
    def pass_rate(self) -> float:
        return self.passes / self.count if self.count else float("nan")


@dataclass(frozen=True)
class CalibrationReport:
    bins: tuple[CalibrationBin, ...]
    n_predictions: int  # per delta
    evaluation: EvaluationReport

    def bins_for(self, delta: float) -> tuple[CalibrationBin, ...]:
        return tuple(b for b in self.bins if b.delta == delta)


def calibration_experiment(
    graph: GradingGraph,
    hp: Hyperparameters,
    model: Model,
    eval_cfg: EvalConfig,
    deltas: tuple[float, ...] = DELTAS,
    n_bins: int = N_BINS,
    engine: str = "gibbs",
    gibbs_cfg: GibbsConfig | None = None,
    em_cfg: EmConfig | None = None,
    max_workers: int = 1,
) -> CalibrationReport:
    """Bin-and-test calibration over the leave-one-out simulations.

    Every prediction contributes once per delta: its confidence (closed-form
    Gaussian, from the frozen-parameter posterior std) picks the bin, and it
    passes when the realized |residual| <= delta.
    """
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    if not all(math.isfinite(d) and d >= 0 for d in deltas):
        raise ValueError(f"every delta must be finite and >= 0, got {deltas}")
    report = evaluate_model(
        graph, hp, model, eval_cfg,
        engine=engine, gibbs_cfg=gibbs_cfg, em_cfg=em_cfg, max_workers=max_workers,
    )
    bins: list[CalibrationBin] = []
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    for delta in deltas:
        counts = np.zeros(n_bins, dtype=int)
        passes = np.zeros(n_bins, dtype=int)
        for sub in report.submissions:
            conf = _erf(delta / (np.sqrt(2.0) * sub.sigmas))
            idx = np.minimum((conf * n_bins).astype(int), n_bins - 1)
            ok = np.abs(sub.residuals) <= delta
            np.add.at(counts, idx, 1)
            np.add.at(passes, idx, ok.astype(int))
        for i in range(n_bins):
            bins.append(
                CalibrationBin(
                    bin_lo=float(edges[i]),
                    bin_hi=float(edges[i + 1]),
                    delta=float(delta),
                    count=int(counts[i]),
                    passes=int(passes[i]),
                )
            )
    n_pred = len(report.submissions) * eval_cfg.n_simulations
    return CalibrationReport(bins=tuple(bins), n_predictions=n_pred, evaluation=report)


@dataclass(frozen=True)
class RoundStat:
    round: int
    confident_count: int
    total: int

    @property
    def fraction(self) -> float:
        return self.confident_count / self.total if self.total else float("nan")


@dataclass(frozen=True)
class RoundsReport:
    rows: tuple[RoundStat, ...]
    delta: float
    threshold: float

    @property
    def final_unresolved_fraction(self) -> float:
        """Share of submissions still below the confidence bar after all rounds."""
        return 1.0 - self.rows[-1].fraction


def _given_rank(graph: GradingGraph) -> np.ndarray:
    """Each grade's position, in input order, among the grades its grader
    gave in its assignment."""
    t = graph.grades
    order = np.lexsort((t.grader, t.assignment))  # stable: input order within a grader
    a, v = t.assignment[order], t.grader[order]
    starts = np.ones(len(t), dtype=bool)
    starts[1:] = (a[1:] != a[:-1]) | (v[1:] != v[:-1])
    at = np.arange(len(t))
    rank = np.empty(len(t), dtype=np.intp)
    rank[order] = at - np.maximum.accumulate(np.where(starts, at, 0))
    return rank


def restrict_to_first_grades(graph: GradingGraph, k: int) -> GradingGraph:
    """Keep only each grader's first k grades per assignment, in input order."""
    if k < 1:
        raise ValueError(f"round must be >= 1, got {k}")
    return graph.with_grades(graph.grades.take(_given_rank(graph) < k))


def rounds_experiment(
    graph: GradingGraph,
    hp: Hyperparameters,
    model: Model,
    gibbs_cfg: GibbsConfig | None = None,
    delta: float = 10.0,
    threshold: float = 0.9,
    max_rounds: int | None = None,
    method: str = "closed_form",
    max_workers: int = 1,
) -> RoundsReport:
    """Simulate grading arriving in rounds: round k sees each grader's first k
    grades. Counts submissions whose posterior puts >= threshold probability
    within +-delta of the estimate; method "empirical" uses Gibbs-sample
    coverage instead of the Gaussian closed form."""
    if method not in ("closed_form", "empirical"):
        raise ValueError(f"unknown confidence method {method!r}")
    if max_rounds is not None and max_rounds < 1:
        raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
    if not (math.isfinite(delta) and delta >= 0):
        raise ValueError(f"delta must be finite and >= 0, got {delta}")
    if not 0 <= threshold <= 1:
        raise ValueError(f"threshold must lie in [0, 1], got {threshold}")
    cfg = _config_for(model, gibbs_cfg, GibbsConfig)
    if cfg.retained_sweeps < 2:
        raise ValueError(f"rounds needs at least 2 retained sweeps to measure confidence, "
                         f"got {cfg.retained_sweeps} ({cfg.total_sweeps} sweeps, burn-in {cfg.burn_in})")
    if not graph.n_grades:
        raise ValueError("no grades to run rounds over")
    k_max = int(_given_rank(graph).max()) + 1
    if max_rounds is not None:
        k_max = min(k_max, max_rounds)
    total = sum(len(graph.submissions(a)) for a in graph.assignments)

    def run_round(k: int) -> RoundStat:
        restricted = restrict_to_first_grades(graph, k)
        keys = [(a, u) for a in restricted.assignments for u in restricted.submissions(a)]
        trace = TraceRecorder([("s", a, u) for a, u in keys]) if method == "empirical" else None
        summary = gibbs_infer(restricted, hp, cfg, trace=trace)
        confident = 0
        for j, (a, u) in enumerate(keys):
            if trace is not None:
                c = empirical_confidence(trace.values[:, j], delta)
            else:
                c = summary.confidence(a, u, delta)
            if c >= threshold:
                confident += 1
        return RoundStat(round=k, confident_count=confident, total=total)

    rows = _run_indexed([lambda k=k: run_round(k) for k in range(1, k_max + 1)], max_workers)
    return RoundsReport(rows=tuple(rows), delta=delta, threshold=threshold)
