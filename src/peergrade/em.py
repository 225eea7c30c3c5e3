"""MAP point estimation by coordinate ascent, accelerated by SQUAREM.

Supports the fixed-reliability and per-grader reliability models, whose
assignments are independent. Each assignment is fit on a Gibbs engine of its
own, with each block set to its conditional mode instead of drawn from it,
one assignment after another. One ascent map sets every score, then every
bias, then every reliability (in sweep order) to the exact maximizer of the
log joint density given the others, so it never lowers the objective.
Scores and biases take their Gaussian conditional means; reliabilities take
the Gamma conditional mode (shape - 1) / rate, clamped at the precision
floor.
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


def _log_joint(engine: _Engine, resid: np.ndarray | None = None) -> float:
    """Log joint density of a one-assignment engine at its current state;
    resid, where given, is engine.residuals() at that state."""
    hp = engine.hp[0]
    resid = engine.residuals() if resid is None else resid
    w = engine.tau[engine.grader]
    total = float(np.sum(0.5 * (np.log(w) - _LOG_2PI) - 0.5 * w * resid * resid))
    total += float(np.sum(0.5 * (math.log(hp.gamma0) - _LOG_2PI) - 0.5 * hp.gamma0 * (engine.s - hp.mu0) ** 2))
    bg = engine.b[engine.biased]
    total += float(np.sum(0.5 * (math.log(hp.eta0) - _LOG_2PI) - 0.5 * hp.eta0 * bg * bg))
    if engine.infer_tau:
        tg = engine.tau[engine.biased]
        total += float(np.sum(hp.alpha0 * math.log(hp.beta0) - math.lgamma(hp.alpha0)
                              + (hp.alpha0 - 1.0) * np.log(tg) - hp.beta0 * tg))
    return total


def _ascend(engine: _Engine) -> tuple[list[np.ndarray], np.ndarray | None]:
    """One ascent map: the engine's blocks, in sweep order, set to their
    conditional modes. Returns the new point (scores, biases and, where
    inferred, reliabilities) and the residuals at the new scores and biases
    where the reliability step computed them."""
    engine.s = engine.score_conditional()[0]
    engine.b = engine.bias_conditional()[0]
    if not engine.infer_tau:
        return [engine.s, engine.b], None
    resid = engine.residuals()
    shape, rate = engine.reliability_conditional(resid)
    engine.tau = np.maximum((shape - 1.0) / rate, engine.hp[0].precision_floor)
    return [engine.s, engine.b, engine.tau], resid


def _step_length(r: list[np.ndarray], v: list[np.ndarray]) -> float:
    """SQUAREM's step length -|r| / |v|, capped at -1."""
    r_norm = math.sqrt(sum(float(np.sum(d * d)) for d in r))
    v_norm = math.sqrt(sum(float(np.sum(d * d)) for d in v))
    return -max(1.0, r_norm / v_norm) if v_norm > 0 else -1.0


def _squarem(engine: _Engine, cfg: EmConfig) -> tuple[int, bool, list[float]]:
    """SQUAREM on a one-assignment engine: ascent maps, whether the last
    counted map met tol, and the objective at the start and after each
    cycle.

    A cycle runs two maps x0 -> x1 -> x2, extrapolates to
    x0 - 2 alpha r + alpha^2 v (r = x1 - x0, v = x2 - 2 x1 + x0, alpha =
    -max(1, |r| / |v|), reliabilities clipped at the precision floor) and
    runs one stabilising map from there. If that lands below x2's objective
    the cycle keeps x2. At alpha = -1 the extrapolated point is x2, whose
    map cannot lower the objective, so the safeguard is not evaluated. The
    run stops when a map x1 -> x2 or a stabilising map moves no parameter
    by tol or more, or when max_iterations maps have run. A point is the
    engine's scores, biases and, where inferred, reliabilities, and
    moving to one rebinds the engine's arrays to it.
    """
    kinds = ("s", "b", "tau") if engine.infer_tau else ("s", "b")

    def move(point: list[np.ndarray]) -> None:
        for kind, array in zip(kinds, point):
            setattr(engine, kind, array)

    def ascend(before: list[np.ndarray]) -> tuple[np.ndarray | None, list[np.ndarray], float]:
        """One ascent map from the point before: its residuals, the point it
        reaches, and the largest absolute change it made."""
        after, resid = _ascend(engine)
        return resid, after, max(float(np.max(np.abs(a - b), initial=0.0)) for a, b in zip(after, before))

    trace = [_log_joint(engine)]
    maps = 0
    x2 = [getattr(engine, kind) for kind in kinds]  # the point each cycle keeps
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
                objective = _log_joint(engine, resid)
                start = [a0 - 2.0 * alpha * dr + alpha * alpha * dv for a0, dr, dv in zip(x0, r, v)]
                if engine.infer_tau:
                    start[2] = np.maximum(start[2], engine.hp[0].precision_floor)
                move(start)
            resid, x3, change = ascend(start)
            maps += 1
            stabilised = _log_joint(engine, resid)
            if objective is None or stabilised >= objective:
                objective, delta, x2 = stabilised, change, x3
            else:  # refused: keep x2
                move(x2)
        trace.append(_log_joint(engine, resid) if objective is None else objective)
        if delta < cfg.tol or maps == cfg.max_iterations:
            return maps, delta < cfg.tol, trace


def em_infer(graph: GradingGraph, hp: Hyperparameters, cfg: EmConfig) -> PointEstimates:
    """MAP estimates per assignment; deterministic (no randomness involved).

    For pg1bias the log joint is one concave quadratic and the ascent
    reaches its exact MAP. For pg1 it is not concave: the ascent stops at a
    local mode, and converged means tol was met, not that the global MAP
    was found.

    Each assignment is fit on an engine of its own, so no assignment moves
    another: a graph of one assignment is used as it is, any other is split
    into one graph per assignment. Every engine is built, and so every
    assignment's priors resolved, before the first fit.
    """
    out = PointEstimates(model=cfg.model)
    parts = [graph] if len(graph.assignments) < 2 else [
        GradingGraph(graph.grades_in(a), submissions={a: graph.submissions(a)}) for a in graph.assignments]
    for engine in [_build_engine(part, hp, cfg) for part in parts]:
        a = engine.assignments[0]
        maps, converged, trace = _squarem(engine, cfg)
        out.n_iterations[a] = maps
        out.converged[a] = converged
        if not converged:
            log.warning("assignment %d: EM stopped after %d iterations (max_iterations) "
                        "without meeting tol=%g", a, maps, cfg.tol)
        out.objective_trace[a] = trace
        engine.export_state(out)
    return out
