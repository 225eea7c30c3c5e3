"""MAP point estimation by coordinate ascent.

Supports the fixed-reliability and per-grader reliability models. It runs on
the Gibbs engines, one per assignment, with each block set to its conditional
mode instead of drawn from it: each iteration sets every score, then every
bias, then every reliability (in sweep order) to the exact maximizer of the
log joint density given the others, so the objective is non-decreasing.
Scores and biases take their Gaussian conditional means; reliabilities take
the Gamma conditional mode (shape - 1) / rate, clamped at the precision floor.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .core import GradingGraph, Hyperparameters, LatentState, Model
from .gibbs import _build_engines, _Engine

__all__ = ["EmConfig", "PointEstimates", "em_infer"]

log = logging.getLogger(__name__)

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class EmConfig:
    """Coordinate-ascent settings."""

    model: Model = Model.PG1
    max_iterations: int = 500
    tol: float = 1e-10  # max absolute parameter change declaring convergence

    def __post_init__(self) -> None:
        if self.model not in (Model.PG1_BIAS, Model.PG1):
            raise ValueError(
                f"point estimation supports pg1bias and pg1 only, got {self.model.value}"
            )
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be positive, got {self.tol}")


@dataclass
class PointEstimates:
    """MAP estimates keyed by (assignment, student), in percentage points.

    objective_trace holds the log joint density after each iteration per
    assignment (index 0 is the starting point); converged marks assignments
    that met tol before the iteration cap.
    """

    model: Model
    s: dict[tuple[int, str], float] = field(default_factory=dict)
    b: dict[tuple[int, str], float] = field(default_factory=dict)
    tau: dict[tuple[int, str], float] = field(default_factory=dict)
    n_iterations: dict[int, int] = field(default_factory=dict)
    converged: dict[int, bool] = field(default_factory=dict)
    objective_trace: dict[int, list[float]] = field(default_factory=dict)

    @property
    def log_joint(self) -> float:
        """Final objective summed over assignments."""
        return sum(trace[-1] for trace in self.objective_trace.values())

    def estimate(self, assignment: int, student: str) -> float:
        return self.s[(assignment, student)]


def _log_joint(engine: _Engine) -> float:
    """Log joint density at the engine's current state (one assignment)."""
    idx, hp = engine.idx[0], engine.hp[0]
    s, b, tau = engine.s[0], engine.b[0], engine.tau[0]
    resid = idx.z - s[idx.gradee] - b[idx.grader]
    w = tau[idx.grader]
    total = float(np.sum(0.5 * (np.log(w) - _LOG_2PI) - 0.5 * w * resid * resid))
    total += float(np.sum(0.5 * (math.log(hp.gamma0) - _LOG_2PI) - 0.5 * hp.gamma0 * (s - hp.mu0) ** 2))
    bg = b[engine.biased]
    total += float(np.sum(0.5 * (math.log(hp.eta0) - _LOG_2PI) - 0.5 * hp.eta0 * bg * bg))
    if engine.infer_tau:
        tg = tau[engine.biased]
        total += float(
            np.sum(
                hp.alpha0 * math.log(hp.beta0)
                - gammaln(hp.alpha0)
                + (hp.alpha0 - 1.0) * np.log(tg)
                - hp.beta0 * tg
            )
        )
    return total


def _ascend(engine: _Engine) -> None:
    """One iteration: the engine's blocks, in sweep order, set to their
    conditional modes (one assignment)."""
    engine.s[0] = engine.score_conditional(0)[0]
    engine.b[0] = engine.bias_conditional(0)[0]
    if engine.infer_tau:
        shape, rate = engine.reliability_conditional(0)
        engine.tau[0] = np.maximum((shape - 1.0) / rate, engine.hp[0].precision_floor)


def em_infer(graph: GradingGraph, hp: Hyperparameters, cfg: EmConfig) -> PointEstimates:
    """MAP estimates per assignment; deterministic (no randomness involved)."""
    out = PointEstimates(model=cfg.model)
    state = LatentState(out.s, out.b, out.tau)  # export_state fills the estimates
    for engine in _build_engines(graph, hp, cfg):
        (a,) = engine.assignments
        trace = [_log_joint(engine)]
        for iteration in range(1, cfg.max_iterations + 1):
            before = (engine.s[0], engine.b.copy(), engine.tau.copy())
            _ascend(engine)
            delta = max(float(np.max(np.abs(new - old), initial=0.0))
                        for new, old in zip((engine.s[0], engine.b, engine.tau), before))
            trace.append(_log_joint(engine))
            if delta < cfg.tol:
                break
        out.n_iterations[a] = iteration
        out.converged[a] = delta < cfg.tol
        if not out.converged[a]:
            log.warning("assignment %d: EM stopped after %d iterations (max_iterations) "
                        "without meeting tol=%g", a, iteration, cfg.tol)
        out.objective_trace[a] = trace
        engine.export_state(state)
    return out
