"""MAP point estimation by coordinate ascent, accelerated by SQUAREM.

Supports the fixed-reliability and per-grader reliability models. It runs on
the Gibbs engine, whose rows (one per assignment, each a slice of every
block's array) are independent for these models, with each block set to its
conditional mode instead of drawn from it. Rows are fit one after another,
each in place in its slices. One ascent map sets every score of the row,
then every bias, then every reliability (in sweep order) to the exact
maximizer of the log joint density given the others, so it never lowers the
objective. Scores and biases take their Gaussian conditional means;
reliabilities take the Gamma conditional mode (shape - 1) / rate, clamped at
the precision floor.
SQUAREM (Varadhan & Roland, Scand. J. Statist. 2008) wraps that map: each
cycle extrapolates along two maps' path, takes one stabilising map from
there, and falls back to the two maps' end point when that would lower the
objective. The objective stays non-decreasing from cycle to cycle, and the
fit reaches the mode that plain ascent reaches in a fraction of its maps.
The result is a LatentState, the container of every point estimate, that
also records ascent maps, convergence and the objective per assignment.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .core import GradingGraph, Hyperparameters, LatentState, Model
from .gibbs import _build_engine, _Engine

__all__ = ["EmConfig", "PointEstimates", "em_infer"]

log = logging.getLogger(__name__)

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class EmConfig:
    """Coordinate-ascent settings: max_iterations caps the ascent maps per
    assignment, extrapolation aside; tol bounds one map's largest parameter
    change at convergence."""

    model: Model = Model.PG1
    max_iterations: int = 500
    tol: float = 1e-10

    def __post_init__(self) -> None:
        if self.model not in (Model.PG1_BIAS, Model.PG1):
            raise ValueError(
                f"point estimation supports pg1bias and pg1 only, got {self.model.value}"
            )
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be positive, got {self.tol}")


@dataclass(kw_only=True)
class PointEstimates(LatentState):
    """MAP estimates: a LatentState in percentage points (theta stays None)
    with the run's record.

    n_iterations counts the ascent maps per assignment, the ones whose
    extrapolation was refused too. objective_trace holds the log joint
    density at the starting point, then at the point each SQUAREM cycle
    kept, per assignment; converged marks assignments whose last map met
    tol before the cap.
    """

    model: Model
    n_iterations: dict[int, int] = field(default_factory=dict)
    converged: dict[int, bool] = field(default_factory=dict)
    objective_trace: dict[int, list[float]] = field(default_factory=dict)

    @property
    def log_joint(self) -> float:
        """Final objective summed over assignments."""
        return sum(trace[-1] for trace in self.objective_trace.values())

    def estimate(self, assignment: int, student: str) -> float:
        return self.s[(assignment, student)]


def _log_joint(engine: _Engine, k: int, resid: np.ndarray | None = None) -> float:
    """Log joint density of row k (one assignment) at the engine's current
    state; resid, where given, is engine.residuals(k) at that state."""
    hp, r = engine.hp[k], engine.rows[k]
    resid = engine.residuals(k) if resid is None else resid
    w = engine.tau[r.graders][r.grader]
    s, biased = engine.s[r.scores], engine.biased[r.graders]
    total = float(np.sum(0.5 * (np.log(w) - _LOG_2PI) - 0.5 * w * resid * resid))
    total += float(np.sum(0.5 * (math.log(hp.gamma0) - _LOG_2PI) - 0.5 * hp.gamma0 * (s - hp.mu0) ** 2))
    bg = engine.b[r.graders][biased]
    total += float(np.sum(0.5 * (math.log(hp.eta0) - _LOG_2PI) - 0.5 * hp.eta0 * bg * bg))
    if engine.infer_tau:
        tg = engine.tau[r.graders][biased]
        total += float(np.sum(hp.alpha0 * math.log(hp.beta0) - math.lgamma(hp.alpha0)
                              + (hp.alpha0 - 1.0) * np.log(tg) - hp.beta0 * tg))
    return total


def _ascend(engine: _Engine, k: int) -> tuple[list[np.ndarray], np.ndarray | None]:
    """One ascent map on row k: its blocks, in sweep order, set in place to
    their conditional modes. Returns the row's new point (scores, biases
    and, where inferred, reliabilities) and the residuals at the new scores
    and biases where the reliability step computed them."""
    r = engine.rows[k]
    s = engine.s[r.scores] = engine.score_conditional(k)[0]
    b = engine.b[r.graders] = engine.bias_conditional(k)[0]
    if not engine.infer_tau:
        return [s, b], None
    resid = engine.residuals(k)
    shape, rate = engine.reliability_conditional(k, resid)
    tau = engine.tau[r.graders] = np.maximum((shape - 1.0) / rate, engine.hp[k].precision_floor)
    return [s, b, tau], resid


def _step_length(r: list[np.ndarray], v: list[np.ndarray]) -> float:
    """SQUAREM's step length -|r| / |v|, capped at -1."""
    r_norm = math.sqrt(sum(float(np.sum(d * d)) for d in r))
    v_norm = math.sqrt(sum(float(np.sum(d * d)) for d in v))
    return -max(1.0, r_norm / v_norm) if v_norm > 0 else -1.0


def _squarem(engine: _Engine, k: int, cfg: EmConfig) -> tuple[int, bool, list[float]]:
    """SQUAREM on row k: ascent maps, whether the last counted map met tol,
    and the objective at the start and after each cycle.

    A cycle runs two maps x0 -> x1 -> x2, extrapolates to
    x0 - 2 alpha r + alpha^2 v (r = x1 - x0, v = x2 - 2 x1 + x0, alpha =
    -max(1, |r| / |v|), reliabilities clipped at the precision floor) and
    runs one stabilising map from there. If that lands below x2's objective
    the cycle keeps x2. At alpha = -1 the extrapolated point is x2, whose
    map cannot lower the objective, so the safeguard is not evaluated. The
    run stops when a map x1 -> x2 or a stabilising map moves no parameter
    by tol or more, or when max_iterations maps have run. A point is the
    row's scores, biases and, where inferred, reliabilities.
    """
    r = engine.rows[k]
    slots = [(engine.s, r.scores), (engine.b, r.graders)]
    if engine.infer_tau:
        slots.append((engine.tau, r.graders))

    def ascend(before: list[np.ndarray]) -> tuple[np.ndarray | None, list[np.ndarray], float]:
        """One ascent map from the point before: its residuals, the point it
        reaches, and the largest absolute change it made."""
        after, resid = _ascend(engine, k)
        return resid, after, max(float(np.max(np.abs(a - b), initial=0.0)) for a, b in zip(after, before))

    trace = [_log_joint(engine, k)]
    maps = 0
    x2 = [array[span].copy() for array, span in slots]  # the point each cycle keeps
    while True:
        x0 = x2
        resid, x1, delta = ascend(x0)
        x2 = x1
        maps += 1
        if maps < cfg.max_iterations:
            resid, x2, delta = ascend(x1)
            maps += 1
        objective = None
        if delta >= cfg.tol and maps < cfg.max_iterations:
            r = [a1 - a0 for a0, a1 in zip(x0, x1)]
            v = [a2 - 2.0 * a1 + a0 for a0, a1, a2 in zip(x0, x1, x2)]
            alpha = _step_length(r, v)
            start = x2
            if alpha < -1.0:
                objective = _log_joint(engine, k, resid)
                start = [a0 - 2.0 * alpha * dr + alpha * alpha * dv for a0, dr, dv in zip(x0, r, v)]
                if engine.infer_tau:
                    start[2] = np.maximum(start[2], engine.hp[k].precision_floor)
                for (array, span), a in zip(slots, start):
                    array[span] = a
            resid, x3, change = ascend(start)
            maps += 1
            stabilised = _log_joint(engine, k, resid)
            if objective is None or stabilised >= objective:
                objective, delta, x2 = stabilised, change, x3
            else:  # refused: keep x2
                for (array, span), a2 in zip(slots, x2):
                    array[span] = a2
        trace.append(_log_joint(engine, k, resid) if objective is None else objective)
        if delta < cfg.tol or maps == cfg.max_iterations:
            return maps, delta < cfg.tol, trace


def em_infer(graph: GradingGraph, hp: Hyperparameters, cfg: EmConfig) -> PointEstimates:
    """MAP estimates per assignment; deterministic (no randomness involved).

    For pg1bias the log joint is one concave quadratic and the ascent
    reaches its exact MAP. For pg1 it is not concave: the ascent stops at a
    local mode, and converged means tol was met, not that the global MAP
    was found.
    """
    out = PointEstimates(model=cfg.model)
    engine = _build_engine(graph, hp, cfg)
    for k, a in enumerate(engine.assignments):
        maps, converged, trace = _squarem(engine, k, cfg)
        out.n_iterations[a] = maps
        out.converged[a] = converged
        if not converged:
            log.warning("assignment %d: EM stopped after %d iterations (max_iterations) "
                        "without meeting tol=%g", a, maps, cfg.tol)
        out.objective_trace[a] = trace
    engine.export_state(out)
    return out
