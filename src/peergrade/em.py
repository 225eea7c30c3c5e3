"""MAP point estimation by coordinate ascent.

Supports the fixed-reliability and per-grader reliability models. It runs on
the Gibbs engine, whose rows (one per assignment) are independent for these
models, with each block set to its conditional mode instead of drawn from it.
Rows are fit one after another: each iteration sets every score of the row,
then every bias, then every reliability (in sweep order) to the exact
maximizer of the log joint density given the others, so the objective is
non-decreasing.
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
from .gibbs import _build_engine, _Engine

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
                - gammaln(hp.alpha0)
                + (hp.alpha0 - 1.0) * np.log(tg)
                - hp.beta0 * tg
            )
        )
    return total


def _ascend(engine: _Engine, k: int) -> np.ndarray | None:
    """One iteration on row k: its blocks, in sweep order, set to their
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


def em_infer(graph: GradingGraph, hp: Hyperparameters, cfg: EmConfig) -> PointEstimates:
    """MAP estimates per assignment; deterministic (no randomness involved).

    For pg1bias the log joint is one concave quadratic and coordinate ascent
    reaches its exact MAP. For pg1 it is not concave: coordinate ascent stops
    at a local mode, and converged means tol was met, not that the global MAP
    was found.
    """
    out = PointEstimates(model=cfg.model)
    engine = _build_engine(graph, hp, cfg)
    rows = (engine.s, engine.b, engine.tau)
    for k, a in enumerate(engine.assignments):
        trace = [_log_joint(engine, k)]
        for iteration in range(1, cfg.max_iterations + 1):
            before = [row[k] for row in rows]
            resid = _ascend(engine, k)
            delta = max(float(np.max(np.abs(row[k] - old), initial=0.0)) for row, old in zip(rows, before))
            trace.append(_log_joint(engine, k, resid))
            if delta < cfg.tol:
                break
        out.n_iterations[a] = iteration
        out.converged[a] = delta < cfg.tol
        if not out.converged[a]:
            log.warning("assignment %d: EM stopped after %d iterations (max_iterations) "
                        "without meeting tol=%g", a, iteration, cfg.tol)
        out.objective_trace[a] = trace
    engine.export_state(LatentState(out.s, out.b, out.tau))  # fills the estimates
    return out
