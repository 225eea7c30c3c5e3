"""MAP point estimation by coordinate ascent, accelerated by SQUAREM.

Supports the fixed-reliability and per-grader reliability models. It runs on
the Gibbs engine, whose rows (one per assignment) are independent for these
models, with each block set to its conditional mode instead of drawn from it.
Rows are fit one after another. One ascent map sets every score of the row,
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
    idx, hp = engine.idx[k], engine.hp[k]
    s, b, tau = engine.s[k], engine.b[k], engine.tau[k]
    resid = engine.residuals(k) if resid is None else resid
    w = tau[idx.grader]
    total = float(np.sum(0.5 * (np.log(w) - _LOG_2PI) - 0.5 * w * resid * resid))
    total += float(np.sum(0.5 * (math.log(hp.gamma0) - _LOG_2PI) - 0.5 * hp.gamma0 * (s - hp.mu0) ** 2))
    bg = b[engine.biased[k]]
    total += float(np.sum(0.5 * (math.log(hp.eta0) - _LOG_2PI) - 0.5 * hp.eta0 * bg * bg))
    if engine.infer_tau:
        tg = tau[engine.biased[k]]
        total += float(
            np.sum(
                hp.alpha0 * math.log(hp.beta0)
                - math.lgamma(hp.alpha0)
                + (hp.alpha0 - 1.0) * np.log(tg)
                - hp.beta0 * tg
            )
        )
    return total


def _ascend(engine: _Engine, k: int) -> np.ndarray | None:
    """One ascent map on row k: its blocks, in sweep order, set to their
    conditional modes. Returns the residuals at the new scores and biases
    where the reliability step computed them."""
    engine.s[k] = engine.score_conditional(k)[0]
    engine.b[k] = engine.bias_conditional(k)[0]
    if not engine.infer_tau:
        return None
    resid = engine.residuals(k)
    shape, rate = engine.reliability_conditional(k, resid)
    engine.tau[k] = np.maximum((shape - 1.0) / rate, engine.hp[k].precision_floor)
    return resid


def _map(engine: _Engine, k: int, rows: tuple[list[np.ndarray], ...]) -> tuple[np.ndarray | None, float]:
    """One ascent map on row k: what _ascend returns, and the largest
    absolute change it made to the row."""
    before = [row[k] for row in rows]
    resid = _ascend(engine, k)
    return resid, max(float(np.max(np.abs(row[k] - old), initial=0.0)) for row, old in zip(rows, before))


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
    by tol or more, or when max_iterations maps have run.
    """
    rows = (engine.s, engine.b, engine.tau) if engine.infer_tau else (engine.s, engine.b)
    trace = [_log_joint(engine, k)]
    maps = 0
    while True:
        x0 = [row[k] for row in rows]
        resid, delta = _map(engine, k, rows)
        x1 = [row[k] for row in rows]
        maps += 1
        if maps < cfg.max_iterations:
            resid, delta = _map(engine, k, rows)
            maps += 1
        objective = None
        if delta >= cfg.tol and maps < cfg.max_iterations:
            x2 = [row[k] for row in rows]
            r = [a1 - a0 for a0, a1 in zip(x0, x1)]
            v = [a2 - 2.0 * a1 + a0 for a0, a1, a2 in zip(x0, x1, x2)]
            alpha = _step_length(r, v)
            if alpha < -1.0:
                objective = _log_joint(engine, k, resid)
                for row, a0, dr, dv in zip(rows, x0, r, v):
                    row[k] = a0 - 2.0 * alpha * dr + alpha * alpha * dv
                if engine.infer_tau:
                    engine.tau[k] = np.maximum(engine.tau[k], engine.hp[k].precision_floor)
            resid, change = _map(engine, k, rows)
            maps += 1
            stabilised = _log_joint(engine, k, resid)
            if objective is None or stabilised >= objective:
                objective, delta = stabilised, change
            else:  # refused: keep x2
                for row, a2 in zip(rows, x2):
                    row[k] = a2
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
