"""Descriptive analytics over fitted grading models.

Temporal correlation of grader biases across consecutive assignments,
residual-vs-covariate binning (how grading error relates to the grader's own
score, the gradee's score, or time spent), and a joint grader-by-gradee
residual heatmap. All residuals are measured against model-estimated true
scores, since staff scores exist only for ground-truth submissions.
"""
from __future__ import annotations

import logging
from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import GradingGraph, LatentState, PosteriorSummary

__all__ = [
    "Covariate",
    "PairCorrelation",
    "TemporalCorrelationReport",
    "ResidualBin",
    "BinnedResidualTable",
    "ResidualHeatmap",
    "bias_temporal_correlation",
    "residual_vs_covariate",
    "joint_residual_heatmap",
]

log = logging.getLogger(__name__)

DEFAULT_BINS = 8
DEFAULT_SUPPORT = 30
_Z_RANGE = (-2.0, 2.0)


class Covariate(Enum):
    GRADER_SCORE = "grader_score"  # estimated true score of the grader's own submission
    GRADEE_SCORE = "gradee_score"
    TIME_SPENT = "time_spent"  # requires the optional seconds column


def _point_block(estimates, name: str) -> Mapping[tuple[int, str], float]:
    """One block ("s" or "b") of point values keyed by (assignment, student):
    a PosteriorSummary's posterior means, a LatentState's dict, or a plain
    mapping as given."""
    if isinstance(estimates, PosteriorSummary):
        estimates = estimates.point()
    return getattr(estimates, name) if isinstance(estimates, LatentState) else estimates


@dataclass(frozen=True)
class PairCorrelation:
    """Pearson correlation of biases between one consecutive assignment pair."""

    assignment_prev: int
    assignment_next: int
    n_common: int
    pearson: float


@dataclass(frozen=True)
class TemporalCorrelationReport:
    pairs: tuple[PairCorrelation, ...]
    skipped: tuple[tuple[int, int, int], ...]  # (prev, next, n_common) below the overlap floor
    pooled: float = float("nan")  # Pearson over (b_prev, b_next) points stacked across pairs


def bias_temporal_correlation(
    estimates,
    assignments: tuple[int, ...] | None = None,
    min_overlap: int = 3,
) -> TemporalCorrelationReport:
    """Pearson correlation of estimated biases between consecutive assignments,
    over graders present in both; pairs with fewer than min_overlap common
    graders are skipped with a notice.

    estimates may be a PosteriorSummary (its posterior means), a LatentState
    (EM's PointEstimates, generate's latents, a summary's point()) or a
    mapping (assignment, grader) -> bias.
    """
    bias = _point_block(estimates, "b")
    if assignments is None:
        assignments = tuple(sorted({a for a, _ in bias}))
    if len(assignments) < 2:
        raise ValueError("temporal correlation needs at least 2 assignments with bias estimates")

    pairs: list[PairCorrelation] = []
    skipped: list[tuple[int, int, int]] = []
    stacked_prev: list[float] = []
    stacked_next: list[float] = []
    for a_prev, a_next in zip(assignments, assignments[1:]):
        prev_graders = {v for a, v in bias if a == a_prev}
        common = sorted(prev_graders & {v for a, v in bias if a == a_next})
        if len(common) < min_overlap:
            log.info(
                "skipping assignment pair (%d, %d): only %d common graders", a_prev, a_next, len(common)
            )
            skipped.append((a_prev, a_next, len(common)))
            continue
        x = np.array([bias[(a_prev, v)] for v in common])
        y = np.array([bias[(a_next, v)] for v in common])
        r = float(np.corrcoef(x, y)[0, 1])
        pairs.append(PairCorrelation(a_prev, a_next, len(common), r))
        stacked_prev.extend(x)
        stacked_next.extend(y)

    pooled = float("nan")
    if len(stacked_prev) >= 2:
        pooled = float(np.corrcoef(np.array(stacked_prev), np.array(stacked_next))[0, 1])
    return TemporalCorrelationReport(pairs=tuple(pairs), skipped=tuple(skipped), pooled=pooled)


@dataclass(frozen=True)
class ResidualBin:
    lo: float
    hi: float
    count: int
    mean_residual: float  # NaN when empty
    std_residual: float  # population std; NaN when empty
    flagged: bool  # below minimum support, excluded from plots


@dataclass(frozen=True)
class BinnedResidualTable:
    covariate: Covariate
    bins: tuple[ResidualBin, ...]
    n_grades: int  # grades with the covariate available

    @property
    def counts(self) -> list[int]:
        return [b.count for b in self.bins]


def _zscore_per_assignment(values: np.ndarray, assignment_ids: np.ndarray) -> np.ndarray:
    """Z-score within each assignment; degenerate assignments map to zero."""
    out = np.zeros_like(values, dtype=float)
    for a in np.unique(assignment_ids):
        sel = assignment_ids == a
        v = values[sel]
        std = float(np.std(v))
        out[sel] = (v - float(np.mean(v))) / std if std > 0 else 0.0
    return out


def _bin_index(z: np.ndarray, n_bins: int) -> np.ndarray:
    """Map z-scores into n_bins equal bins over [-2, 2]; outliers clip into the
    end bins so every grade lands somewhere."""
    lo, hi = _Z_RANGE
    idx = np.floor((z - lo) / (hi - lo) * n_bins).astype(int)
    return np.clip(idx, 0, n_bins - 1)


def _bin_edges(n_bins: int) -> np.ndarray:
    return np.linspace(_Z_RANGE[0], _Z_RANGE[1], n_bins + 1)


def _residuals(graph: GradingGraph, estimates) -> tuple[np.ndarray, ...]:
    """Per grade: residual (pp), the grader's and the gradee's estimated
    scores, seconds spent (NaN where absent) and the assignment id. Each
    submission's estimate is looked up once; a missing one raises KeyError."""
    s_hat = _point_block(estimates, "s")
    t = graph.grades
    grader_s, gradee_s = np.empty(len(t)), np.empty(len(t))
    for a in graph.assignments:
        s = np.array([s_hat[a, u] for u in graph.submissions(a)], dtype=float)
        grader, gradee = graph.grade_positions(a)
        rows = np.flatnonzero(t.assignment == a)
        grader_s[rows], gradee_s[rows] = s[grader], s[gradee]
    seconds = np.full(len(t), np.nan) if t.seconds is None else t.seconds
    return t.score - gradee_s, grader_s, gradee_s, seconds, t.assignment


def residual_vs_covariate(
    graph: GradingGraph,
    estimates,
    covariate: Covariate,
    n_bins: int = DEFAULT_BINS,
    min_support: int = DEFAULT_SUPPORT,
) -> BinnedResidualTable:
    """Bin grade residuals (observed minus estimated true score) by a z-scored
    covariate. estimates must cover every submission's true score."""
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    resid, grader_s, gradee_s, seconds, assign = _residuals(graph, estimates)
    if covariate is Covariate.TIME_SPENT:
        timed = ~np.isnan(seconds)
        resid, cov, assign = resid[timed], seconds[timed], assign[timed]
    else:
        cov = grader_s if covariate is Covariate.GRADER_SCORE else gradee_s
    if not resid.size:
        raise ValueError(
            f"no grades with covariate {covariate.value} available"
            + (" (missing seconds column?)" if covariate is Covariate.TIME_SPENT else "")
        )
    z = _zscore_per_assignment(cov, assign)
    idx = _bin_index(z, n_bins)
    edges = _bin_edges(n_bins)
    bins = []
    for i in range(n_bins):
        sel = idx == i
        count = int(np.sum(sel))
        if count:
            mean = float(np.mean(resid[sel]))
            std = float(np.std(resid[sel]))
        else:
            mean = std = float("nan")
        bins.append(
            ResidualBin(
                lo=float(edges[i]),
                hi=float(edges[i + 1]),
                count=count,
                mean_residual=mean,
                std_residual=std,
                flagged=count < min_support,
            )
        )
    return BinnedResidualTable(covariate=covariate, bins=tuple(bins), n_grades=len(resid))


@dataclass(frozen=True)
class ResidualHeatmap:
    """Mean residual z-score per (grader-score bin, gradee-score bin) cell.

    Cells with support below the minimum are NaN ("empty boxes"). edges are
    shared by both axes, in z-score units.
    """

    edges: tuple[float, ...]
    counts: np.ndarray  # (n_bins, n_bins) rows = grader bins
    mean_residual_z: np.ndarray
    min_support: int
    n_grades: int


def joint_residual_heatmap(
    graph: GradingGraph,
    estimates,
    n_bins: int = DEFAULT_BINS,
    min_support: int = DEFAULT_SUPPORT,
) -> ResidualHeatmap:
    """2-D version: how the z-scored residual depends jointly on the grader's
    and the gradee's estimated scores."""
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    resid, grader_s, gradee_s, _, assign = _residuals(graph, estimates)
    if not resid.size:
        raise ValueError("no grades to analyze")
    rz = _zscore_per_assignment(resid, assign)
    gi = _bin_index(_zscore_per_assignment(grader_s, assign), n_bins)
    ui = _bin_index(_zscore_per_assignment(gradee_s, assign), n_bins)

    counts = np.zeros((n_bins, n_bins), dtype=int)
    sums = np.zeros((n_bins, n_bins))
    np.add.at(counts, (gi, ui), 1)
    np.add.at(sums, (gi, ui), rz)
    with np.errstate(invalid="ignore"):
        means = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    means = np.where(counts < min_support, np.nan, means)
    return ResidualHeatmap(
        edges=tuple(float(e) for e in _bin_edges(n_bins)),
        counts=counts,
        mean_residual_z=means,
        min_support=min_support,
        n_grades=int(resid.size),
    )
