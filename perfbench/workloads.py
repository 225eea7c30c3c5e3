"""The four workloads: the commands each runs and the checks on their outputs.

An operation is one CLI-equivalent command: it computes, writes its output
files under ``ctx.out`` and is timed as a whole. Its check runs after the
clock stops and raises ``CheckFailed`` when an output is wrong. Every call
matches what the ``peergrade`` CLI does for the same flags (CLI defaults: no
``--hp``, ``--sweeps 800 --burnin 80 --sims 3000``, seed = the benchmark
seed), except that ``analyze`` reuses the PG1 fit that ``infer`` made with
the same flags instead of fitting it a second time.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .specs import Spec

# Gibbs/EM gap in leave-one-out RMSE. Acceptance criterion 4 pins 2% on one
# network; over generated HCI-shaped networks (seeds 0-15) the gap ranged
# 0.02-1.85%, so a 2% bound would fail about one seed in twenty. 5% keeps
# the check sharp without false alarms.
EVAL_ENGINE_GAP = 0.05
# Gibbs posterior means vs EM MAP scores at scale: RMS difference as a share
# of the spread of the Gibbs means across submissions. Measured at 0.036-0.042
# on HCI-shaped networks at 3.6k and 36k students.
SCORE_AGREEMENT = 0.10
# Tiny networks: Gibbs moments must sit within this many Monte Carlo standard
# errors (batch means over the retained draws) of the grid oracle.
MC_SIGMAS = 5.0
MC_BATCHES = 50
# Grading rounds replayed by ``rounds``. The heaviest grader's load is 6 or 7
# depending on the seed (4 regular grades plus the super-graded submissions a
# grader drew); capping at 6 gives every seed the same number of refits.
MAX_ROUNDS = 6
# Relative tolerance on the EM objective: an iteration may not lower it by
# more than rounding at the objective's magnitude.
OBJECTIVE_RTOL = 1e-12


class CheckFailed(Exception):
    """An operation ran but its output is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Op:
    name: str
    run: Callable[["Ctx"], object]
    check: Callable[["Ctx", object], None]


@dataclass
class Ctx:
    """State one pass of a workload shares between its operations."""

    pg: object
    spec: Spec
    seed: int
    graph: object
    latents: object
    out: Path
    results: dict = field(default_factory=dict)
    fits: list = field(default_factory=list)  # (model, graph, hp, cfg, seconds) per primary fit
    tiny: list = field(default_factory=list)  # (sweeps, seconds) per tiny-network fit
    grid_points: int = 0
    primary: object = None  # PosteriorSummary of the workload's first full fit
    eval_ratio: float | None = None  # leave-one-out model RMSE / baseline RMSE

    @property
    def hp(self):
        return self.pg.Hyperparameters()

    def gibbs_cfg(self, model: str):
        return self.pg.GibbsConfig(model=self.pg.Model.from_string(model), total_sweeps=self.spec.sweeps,
                                   burn_in=self.spec.burnin, seed=self.seed)

    def eval_cfg(self):
        return self.pg.EvalConfig(n_simulations=self.spec.sims, grades_per_simulation=4, seed=self.seed)

    def outdir(self, name: str) -> Path:
        path = self.out / name
        path.mkdir(parents=True, exist_ok=True)
        return path

    def fit(self, graph, model: str):
        """A full Gibbs fit whose time the traced run splits into fixed and per-sweep cost."""
        hp, cfg = self.hp, self.gibbs_cfg(model)
        t0 = time.perf_counter()
        summary = self.pg.gibbs_infer(graph, hp, cfg)
        self.fits.append((model, graph, hp, cfg, time.perf_counter() - t0))
        if self.primary is None:
            self.primary = summary
        return summary


# ---------------------------------------------------------------------------
# checks shared by several workloads
# ---------------------------------------------------------------------------


def check_summary_complete(ctx: Ctx, summary) -> None:
    """Every submission has a score with finite mean and positive variance;
    biases and reliabilities are finite."""
    for a in ctx.graph.assignments:
        for u in ctx.graph.submissions(a):
            st = summary.s.get((a, u))
            require(st is not None, f"submission ({a}, {u}) missing from the summary")
            require(math.isfinite(st.mean) and math.isfinite(st.var) and st.var > 0,
                    f"submission ({a}, {u}): mean {st.mean}, var {st.var}")
    for block in (summary.b, summary.tau):
        for key, st in block.items():
            require(math.isfinite(st.mean) and math.isfinite(st.var), f"{key}: non-finite moment")


def check_points_complete(ctx: Ctx, points) -> None:
    for a in ctx.graph.assignments:
        for u in ctx.graph.submissions(a):
            v = points.s.get((a, u))
            require(v is not None and math.isfinite(v), f"EM score for ({a}, {u}) is {v}")
    for block in (points.b, points.tau):
        require(all(math.isfinite(v) for v in block.values()), "non-finite EM bias or reliability")


def check_objective_monotone(points) -> None:
    for a, trace in points.objective_trace.items():
        t = np.asarray(trace)
        drop = np.diff(t)
        worst = float(drop.min(initial=0.0))
        require(worst >= -OBJECTIVE_RTOL * float(np.abs(t).max()),
                f"assignment {a}: EM objective decreased by {-worst:.3g}")


def check_scores_agree(summary, points) -> None:
    keys = sorted(summary.s)
    g = np.array([summary.s[k].mean for k in keys])
    e = np.array([points.s[k] for k in keys])
    rms_diff = float(np.sqrt(np.mean((g - e) ** 2)))
    spread = float(np.std(g))
    require(rms_diff <= SCORE_AGREEMENT * spread,
            f"Gibbs and EM scores differ by {rms_diff:.3f} pp RMS (spread {spread:.3f} pp)")


# ---------------------------------------------------------------------------
# mooc-36k
# ---------------------------------------------------------------------------


def _infer(model: str):
    def run(ctx: Ctx):
        summary = ctx.fit(ctx.graph, model)
        ctx.pg.io.write_summary_json(summary, ctx.outdir(f"infer-{model}") / "summary.json")
        ctx.results[model] = summary
        return summary
    return run


def _infer_em(ctx: Ctx):
    points = ctx.pg.em_infer(ctx.graph, ctx.hp, ctx.pg.EmConfig(model=ctx.pg.Model.PG1))
    ctx.pg.io.write_points_json(points, ctx.outdir("infer-em") / "summary.json")
    return points


def _check_em(ctx: Ctx, points) -> None:
    check_points_complete(ctx, points)
    check_objective_monotone(points)
    check_scores_agree(ctx.results["pg1"], points)


MOOC = [
    Op("infer", _infer("pg1"), check_summary_complete),
    Op("infer-em", _infer_em, _check_em),
]


# ---------------------------------------------------------------------------
# course-4x3k6
# ---------------------------------------------------------------------------


def _check_pg2(ctx: Ctx, summary) -> None:
    """Scores come back in percentage points: per assignment, their mean sits
    near the mean grade and they spread like scores, not like z-values."""
    check_summary_complete(ctx, summary)
    for a in ctx.graph.assignments:
        grades = ctx.graph.scores_in(a)
        means = np.array([summary.s[(a, u)].mean for u in ctx.graph.submissions(a)])
        gap = abs(float(means.mean()) - float(grades.mean()))
        require(gap <= 0.25 * float(grades.std()),
                f"assignment {a}: mean score {means.mean():.3f} vs mean grade {grades.mean():.3f}")
        require(float(means.std()) >= 0.25 * float(grades.std()),
                f"assignment {a}: scores spread {means.std():.3f}, grades {grades.std():.3f} (z-units?)")


def _analyze(ctx: Ctx):
    pg, graph = ctx.pg, ctx.graph
    estimates = ctx.results["pg1"]
    out = ctx.outdir("analyze")
    tables = []
    for cov in (pg.Covariate.GRADER_SCORE, pg.Covariate.GRADEE_SCORE):
        table = pg.residual_vs_covariate(graph, estimates, cov)
        pg.io.write_binned_table_csv(table, out / f"residual_vs_{cov.value}.csv")
        tables.append(table)
    heatmap = pg.joint_residual_heatmap(graph, estimates)
    pg.io.write_heatmap_csv(heatmap, out / "heatmap.csv")
    temporal = pg.bias_temporal_correlation(estimates)
    pg.io.write_temporal_csv(temporal, out / "temporal.csv")
    pg.io.write_json({
        "covariates": [t.covariate.value for t in tables],
        "temporal": {"pooled_pearson": temporal.pooled, "n_pairs": len(temporal.pairs),
                     "n_skipped": len(temporal.skipped)},
    }, out / "analytics.json")
    return tables, heatmap, temporal


def _check_analyze(ctx: Ctx, result) -> None:
    tables, heatmap, temporal = result
    n = ctx.graph.n_grades
    for t in tables:
        require(t.n_grades == n and sum(t.counts) == n, f"{t.covariate.value}: {sum(t.counts)} of {n} grades binned")
    require(heatmap.n_grades == n and int(heatmap.counts.sum()) == n,
            f"heatmap holds {int(heatmap.counts.sum())} of {n} grades")
    require(len(temporal.pairs) == len(ctx.graph.assignments) - 1, "a consecutive assignment pair was skipped")
    # biases follow a random walk, so consecutive estimates correlate positively
    require(math.isfinite(temporal.pooled) and temporal.pooled > 0.0,
            f"pooled lag-1 bias correlation {temporal.pooled}")


COURSE = [
    Op("infer-pg2", _infer("pg2"), _check_pg2),
    Op("infer-pg1", _infer("pg1"), check_summary_complete),
    Op("infer-em", _infer_em, _check_em),
    Op("analyze", _analyze, _check_analyze),
]


# ---------------------------------------------------------------------------
# experiments-hci
# ---------------------------------------------------------------------------


def _evaluate(engine: str):
    def run(ctx: Ctx):
        pg, model = ctx.pg, ctx.pg.Model.PG1
        reports = []
        if engine == "gibbs":
            reports.append(pg.evaluate_baseline(ctx.graph, ctx.eval_cfg(), max_workers=ctx.spec.threads))
        reports.append(pg.evaluate_model(
            ctx.graph, ctx.hp, model, ctx.eval_cfg(), engine=engine,
            gibbs_cfg=ctx.gibbs_cfg("pg1") if engine == "gibbs" else None,
            em_cfg=pg.EmConfig(model=model) if engine == "em" else None,
            max_workers=ctx.spec.threads,
        ))
        pg.io.write_report(reports, ctx.outdir(f"evaluate-{engine}"))
        ctx.results[f"evaluate-{engine}"] = reports[-1]
        return reports
    return run


def _check_evaluate_gibbs(ctx: Ctx, reports) -> None:
    baseline, model = reports
    require(model.rmse < baseline.rmse, f"model RMSE {model.rmse:.4f} >= baseline {baseline.rmse:.4f}")
    ctx.eval_ratio = model.rmse / baseline.rmse


def _check_evaluate_em(ctx: Ctx, reports) -> None:
    gibbs, em = ctx.results["evaluate-gibbs"], reports[-1]
    gap = abs(gibbs.rmse - em.rmse) / em.rmse
    require(gap <= EVAL_ENGINE_GAP, f"Gibbs/EM evaluation RMSE gap {gap:.2%} > {EVAL_ENGINE_GAP:.0%}")


def _calibrate(ctx: Ctx):
    pg = ctx.pg
    report = pg.calibration_experiment(
        ctx.graph, ctx.hp, pg.Model.PG1, ctx.eval_cfg(), engine="gibbs",
        gibbs_cfg=ctx.gibbs_cfg("pg1"), max_workers=ctx.spec.threads,
    )
    out = ctx.outdir("calibrate")
    pg.io.write_calibration_csv(report, out / "calibration.csv")
    pg.io.write_report([report.evaluation], out)
    return report


def _check_calibrate(ctx: Ctx, report) -> None:
    expected = len(ctx.graph.ground_truth) * ctx.spec.sims
    require(report.n_predictions == expected, f"{report.n_predictions} predictions, expected {expected}")
    for delta in ctx.pg.DELTAS:
        counted = sum(b.count for b in report.bins_for(delta))
        require(counted == expected, f"delta {delta}: bins hold {counted} of {expected} predictions")


def _rounds(ctx: Ctx):
    pg = ctx.pg
    report = pg.rounds_experiment(ctx.graph, ctx.hp, pg.Model.PG1, gibbs_cfg=ctx.gibbs_cfg("pg1"),
                                  delta=10.0, threshold=0.9, max_rounds=MAX_ROUNDS,
                                  max_workers=ctx.spec.threads)
    pg.io.write_rounds_csv(report, ctx.outdir("rounds") / "rounds.csv")
    return report


def _check_rounds(ctx: Ctx, report) -> None:
    given: dict = {}
    for g in ctx.graph.grades:
        given[(g.assignment, g.grader)] = given.get((g.assignment, g.grader), 0) + 1
    rounds = min(max(given.values()), MAX_ROUNDS)
    require(len(report.rows) == rounds, f"{len(report.rows)} rounds, expected {rounds}")
    total = sum(len(ctx.graph.submissions(a)) for a in ctx.graph.assignments)
    for row in report.rows:
        require(row.total == total and 0 <= row.confident_count <= total,
                f"round {row.round}: {row.confident_count} of {row.total}")


HCI = [
    Op("infer", _infer("pg1"), check_summary_complete),
    Op("evaluate-gibbs", _evaluate("gibbs"), _check_evaluate_gibbs),
    Op("evaluate-em", _evaluate("em"), _check_evaluate_em),
    Op("calibrate", _calibrate, _check_calibrate),
    Op("rounds", _rounds, _check_rounds),
]


# ---------------------------------------------------------------------------
# mcmc-small
# ---------------------------------------------------------------------------


def _check_pg3(ctx: Ctx, summary) -> None:
    check_summary_complete(ctx, summary)
    require(summary.mh_acceptance is not None and 0.05 <= summary.mh_acceptance <= 1.0,
            f"score Metropolis acceptance {summary.mh_acceptance}")
    require(summary.theta_acceptance is not None and summary.theta_acceptance > 0.0,
            f"theta acceptance {summary.theta_acceptance}")


def tiny_network(pg, model, seed: int):
    """The acceptance-1 tiny network of one model, with its grid: (graph, hp,
    grid spec, Gibbs settings less the sweep counts, gridded latent kinds)."""
    rng = np.random.default_rng(seed)
    M = pg.Model
    if model is M.PG2:
        z = float(rng.normal(0.0, 1.0))
        graph = pg.GradingGraph([pg.PeerGrade(1, "v", "u1", z)], submissions={1: ("u1", "v"), 2: ()})
        hp = pg.Hyperparameters(mu0=0.0, gamma0=1.0, eta0=1.0, omega0=2.0, alpha0=3.0, beta0=3.0)
        return graph, hp, _tau_grid(pg), {"assume_normalized": True}, ("s", "b", "b", "tau")
    z = 75.0 + rng.normal(0.0, 4.0, size=2)
    if model is M.PG1:
        rows = [(1, "v", "u1", float(z[0])), (1, "v", "u2", float(z[1]))]
        hp = pg.Hyperparameters(mu0=75.0, gamma0=1 / 16, eta0=1 / 4, alpha0=3.0, beta0=8.0)
        gridded, grid, extra = ("s", "s", "b", "tau"), _tau_grid(pg), {}
    else:
        rows = [(1, "u", "v", float(z[0])), (1, "v", "u", float(z[1]))]
        gridded, grid = ("s", "s", "b", "b"), pg.GridSpec(points_per_dim=81, prior_std_span=6.0)
        if model is M.PG1_BIAS:
            hp = pg.Hyperparameters(mu0=75.0, gamma0=1 / 16, eta0=1 / 4, tau_fixed=0.25)
            extra = {}
        else:
            hp = pg.Hyperparameters(mu0=75.0, gamma0=1 / 16, eta0=1 / 4, theta0=0.05, theta1=0.003)
            extra = {"sample_theta": False}
    graph = pg.GradingGraph([pg.PeerGrade(a, v, u, s) for a, v, u, s in rows])
    return graph, hp, grid, extra, gridded


def _tau_grid(pg):
    return pg.GridSpec(points_per_dim=81, tau_points=61, prior_std_span=6.0,
                       tau_quantile_range=(1e-6, 1 - 1e-6))


def grid_points(grid, gridded) -> int:
    """Lattice size of one oracle call, from its grid spec."""
    n = 1
    for kind in gridded:
        n *= grid.tau_points if kind == "tau" else grid.points_per_dim
    return n


def _batch_se(x: np.ndarray) -> float:
    """Monte Carlo standard error of the mean of a correlated series."""
    batches = x[: x.size - x.size % MC_BATCHES].reshape(MC_BATCHES, -1).mean(axis=1)
    return float(batches.std(ddof=1) / math.sqrt(MC_BATCHES))


def _tiny(model_name: str):
    def run(ctx: Ctx):
        pg = ctx.pg
        model = pg.Model.from_string(model_name)
        graph, hp, grid, extra, gridded = tiny_network(pg, model, ctx.seed)
        oracle = pg.oracle_posterior(graph, hp, model, grid=grid,
                                     assume_normalized=extra.get("assume_normalized", False))
        ctx.grid_points += grid_points(grid, gridded)
        burn = ctx.spec.tiny_sweeps // 20
        cfg = pg.GibbsConfig(model=model, total_sweeps=ctx.spec.tiny_sweeps + burn, burn_in=burn,
                             seed=ctx.seed, **extra)
        trace = pg.TraceRecorder([(kind, a, u) for kind in ("s", "b", "tau")
                                  for (a, u) in sorted(getattr(oracle, kind))])
        t0 = time.perf_counter()
        summary = pg.gibbs_infer(graph, hp, cfg, trace=trace)
        ctx.tiny.append((cfg.total_sweeps, time.perf_counter() - t0))
        out = ctx.outdir(f"tiny-{model_name}")
        pg.io.write_summary_json(oracle, out / "oracle.json")
        pg.io.write_summary_json(summary, out / "summary.json")
        return oracle, summary, trace
    return run


def _check_tiny(ctx: Ctx, result) -> None:
    oracle, summary, trace = result
    draws: dict = {}
    for _, kind, a, u, value in trace.rows:
        draws.setdefault((kind, a, u), []).append(value)
    for (kind, a, u), values in draws.items():
        want, got = getattr(oracle, kind)[(a, u)], getattr(summary, kind)[(a, u)]
        x = np.asarray(values)
        se_mean = _batch_se(x)
        se_var = _batch_se((x - x.mean()) ** 2)
        require(abs(got.mean - want.mean) <= MC_SIGMAS * se_mean,
                f"{kind}[{a},{u}] mean {got.mean:.4f} vs oracle {want.mean:.4f} (MC se {se_mean:.4f})")
        require(abs(got.var - want.var) <= MC_SIGMAS * se_var,
                f"{kind}[{a},{u}] var {got.var:.4f} vs oracle {want.var:.4f} (MC se {se_var:.4f})")


MCMC = [
    Op("infer-pg3", _infer("pg3"), _check_pg3),
] + [Op(f"tiny-{m}", _tiny(m), _check_tiny) for m in ("pg1bias", "pg1", "pg2", "pg3")]


OPS = {
    "mooc-36k": MOOC,
    "course-4x3k6": COURSE,
    "experiments-hci": HCI,
    "mcmc-small": MCMC,
}


# ---------------------------------------------------------------------------
# accuracy metrics of a finished pass
# ---------------------------------------------------------------------------


def score_rmse(ctx: Ctx) -> float:
    """RMSE of the primary fit's posterior means against the generating scores."""
    keys = sorted(ctx.latents.s)
    est = np.array([ctx.primary.s[k].mean for k in keys])
    true = np.array([ctx.latents.s[k] for k in keys])
    return float(np.sqrt(np.mean((est - true) ** 2)))


def rmse_ratio(ctx: Ctx) -> float:
    """Model RMSE over median-baseline RMSE. Where the workload evaluates,
    this is the leave-one-out ratio; elsewhere it compares the primary fit
    with the median of each submission's received grades, both against the
    generating scores, over submissions that received a grade."""
    if ctx.eval_ratio is not None:
        return ctx.eval_ratio
    received: dict = {}
    for g in ctx.graph.grades:
        received.setdefault((g.assignment, g.gradee), []).append(g.score)
    keys = sorted(received)
    true = np.array([ctx.latents.s[k] for k in keys])
    model = np.array([ctx.primary.s[k].mean for k in keys])
    median = np.array([ctx.pg.median_baseline(received[k]) for k in keys])
    return float(np.sqrt(np.mean((model - true) ** 2)) / np.sqrt(np.mean((median - true) ** 2)))
