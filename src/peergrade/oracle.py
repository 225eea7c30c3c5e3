"""Brute-force posterior moments by dense grid integration.

Independent of the samplers: enumerates every latent variable a tiny network
actually informs, lays a grid over each (Gaussian variables on uniform grids
spanning several prior standard deviations, precisions on log-spaced grids
over a Gamma-prior quantile range), evaluates the unnormalized log posterior
over the full lattice in the log domain, and reads off means and variances
from the marginals. Exponential in the number of latents; refuses more than a
handful. Used to validate the samplers on small networks.

The lattice is visited once, in blocks over its leading (outer) axes. Every
term of the log density records the axes it reads; the terms that read only
inner axes, with the inner unaries, are summed into one inner-shape array
once per call, and each block adds to a copy of it only the terms that read
an outer axis. Blocks are exponentiated against a running maximum of the log
density: when a block raises it, the mass and marginals summed so far are
rescaled. Nothing is marginalized analytically; every lattice point is
evaluated and summed.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    IDENTITY_NORMALIZATION,
    GradingGraph,
    Hyperparameters,
    Model,
    PosteriorSummary,
    VariableStat,
    prepare_graph,
    resolve_priors,
)

__all__ = ["GridSpec", "oracle_posterior"]

_BLOCK_BUDGET = 1 << 24  # floats per evaluated lattice block (~128 MB)


@dataclass(frozen=True)
class GridSpec:
    """Grid resolution and extent.

    Gaussian variables get points_per_dim points across +-prior_std_span prior
    standard deviations of their prior mean (odd counts keep the prior mean on
    the grid). Precisions get tau_points log-spaced points covering the
    central tau_quantile_range of their Gamma prior; widen the range when the
    posterior carries mass past the prior's tails.
    """

    points_per_dim: int = 161
    tau_points: int = 41
    prior_std_span: float = 4.0
    tau_quantile_range: tuple[float, float] = (5e-4, 1.0 - 5e-4)
    max_latents: int = 6

    def __post_init__(self) -> None:
        for name in ("points_per_dim", "tau_points"):
            n = getattr(self, name)
            if n < 3 or n % 2 == 0:
                raise ValueError(f"{name} must be odd and >= 3, got {n}")
        if not (math.isfinite(self.prior_std_span) and self.prior_std_span > 0):
            raise ValueError(f"prior_std_span must be positive, got {self.prior_std_span}")
        lo, hi = self.tau_quantile_range
        if not (0.0 < lo < hi < 1.0):
            raise ValueError(f"tau_quantile_range must satisfy 0 < lo < hi < 1, got {self.tau_quantile_range}")
        if self.max_latents < 1:
            raise ValueError(f"max_latents must be >= 1, got {self.max_latents}")


class _GridVar:
    """One gridded latent: its identity, support points, and the 1-D part of
    the log density (prior terms that involve only this variable, plus
    quadrature log-weights for non-uniform grids)."""

    def __init__(self, kind: str, assignment: int, student: str, grid: np.ndarray, unary: np.ndarray):
        self.kind = kind
        self.assignment = assignment
        self.student = student
        self.grid = grid
        self.unary = unary


def _gaussian_grid(center: float, sd: float, spec: GridSpec) -> np.ndarray:
    half = spec.prior_std_span * sd
    return np.linspace(center - half, center + half, spec.points_per_dim)


def _tau_grid(hp: Hyperparameters, spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Log-spaced points with midpoint-in-log quadrature weights."""
    # Only this grid needs scipy, so only building it imports scipy.special:
    # importing it with the package would cost every command about 0.3 s.
    from scipy.special import gammaincinv

    lo, hi = spec.tau_quantile_range
    # Gamma(alpha0, rate beta0) quantiles by gamma.ppf's own expression (times
    # the scale, not over the rate), without scipy.stats' import
    t_lo = float(gammaincinv(hp.alpha0, lo) * (1.0 / hp.beta0))
    t_hi = float(gammaincinv(hp.alpha0, hi) * (1.0 / hp.beta0))
    logt = np.linspace(math.log(t_lo), math.log(t_hi), spec.tau_points)
    step = logt[1] - logt[0]
    grid = np.exp(logt)
    logw = math.log(step) + logt  # dt = t dlog(t)
    return grid, logw


def _enumerate_latents(
    work: GradingGraph,
    model: Model,
    resolved: dict[int, Hyperparameters],
    spec: GridSpec,
):
    """Gridded latents (in a fixed order) plus analytically-known prior-only
    score entries."""
    gridded: list[_GridVar] = []
    prior_only: list[tuple[int, str, float, float]] = []  # (a, student, mean, var)

    receives: dict[tuple[int, str], bool] = {}
    gives: dict[tuple[int, str], bool] = {}
    for a, v, u, _, _ in work.grades.records():
        receives[(a, u)] = True
        gives[(a, v)] = True

    for a in work.assignments:
        hp = resolved[a]
        for u in work.submissions(a):
            informed = receives.get((a, u), False)
            if model is Model.PG3:
                informed = informed or gives.get((a, u), False)
            if informed:
                grid = _gaussian_grid(hp.mu0, 1.0 / math.sqrt(hp.gamma0), spec)
                unary = -0.5 * hp.gamma0 * (grid - hp.mu0) ** 2
                gridded.append(_GridVar("s", a, u, grid, unary))
            else:
                prior_only.append((a, u, hp.mu0, 1.0 / hp.gamma0))

    if model is Model.PG2:
        assignments = list(work.assignments)
        hp0 = resolved[assignments[0]]
        graders = work.graders
        for v in graders:
            for k, a in enumerate(assignments):
                # marginal prior sd grows along the walk
                sd = math.sqrt(1.0 / hp0.eta0 + k / hp0.omega0)
                grid = _gaussian_grid(0.0, sd, spec)
                unary = -0.5 * hp0.eta0 * grid * grid if k == 0 else np.zeros_like(grid)
                gridded.append(_GridVar("b", a, v, grid, unary))
        for v in graders:
            for a in assignments:
                if gives.get((a, v), False):
                    hp = resolved[a]
                    grid, logw = _tau_grid(hp, spec)
                    unary = (hp.alpha0 - 1.0) * np.log(grid) - hp.beta0 * grid + logw
                    gridded.append(_GridVar("tau", a, v, grid, unary))
        return gridded, prior_only

    for a in work.assignments:
        hp = resolved[a]
        for v in work.submissions(a):
            if not gives.get((a, v), False):
                continue
            grid = _gaussian_grid(0.0, 1.0 / math.sqrt(hp.eta0), spec)
            gridded.append(_GridVar("b", a, v, grid, -0.5 * hp.eta0 * grid * grid))
        if model is Model.PG1:
            for v in work.submissions(a):
                if not gives.get((a, v), False):
                    continue
                grid, logw = _tau_grid(hp, spec)
                unary = (hp.alpha0 - 1.0) * np.log(grid) - hp.beta0 * grid + logw
                gridded.append(_GridVar("tau", a, v, grid, unary))
    return gridded, prior_only


def oracle_posterior(
    graph: GradingGraph,
    hp: Hyperparameters,
    model: Model,
    grid: GridSpec | None = None,
    assume_normalized: bool = False,
) -> PosteriorSummary:
    """Posterior moments of every latent by exhaustive grid integration.

    The score-linked model's theta coefficients are treated as fixed
    constants (hp.theta0/theta1). Raises when the network grids more latents
    than GridSpec.max_latents or the posterior mass underflows the grid.
    """
    spec = grid or GridSpec()
    work, norm = prepare_graph(graph, model, assume_normalized)
    resolved = resolve_priors(work, hp, normalized=bool(norm))
    gvars, prior_only = _enumerate_latents(work, model, resolved, spec)
    if len(gvars) > spec.max_latents:
        raise ValueError(
            f"grid oracle handles at most {spec.max_latents} latent variables, "
            f"this network needs {len(gvars)}"
        )

    stats: dict[str, dict[tuple[int, str], VariableStat]] = {"s": {}, "b": {}, "tau": {}}
    for a, u, mean, var in prior_only:
        m, v = norm.get(a, IDENTITY_NORMALIZATION).to_pp("s", mean, var)
        stats["s"][(a, u)] = VariableStat(mean=m, var=v, n=0)
    if not gvars:
        return PosteriorSummary(model=model, **stats)

    k = len(gvars)
    pos = {(v.kind, v.assignment, v.student): j for j, v in enumerate(gvars)}

    # each likelihood and chain-link term: the lattice axes it reads, and its
    # log density over them
    terms: list[tuple[tuple[int, ...], Callable]] = []
    for a, grader, gradee, score, _ in work.grades.records():
        js = pos[("s", a, gradee)]
        jb = pos[("b", a, grader)]
        if model is Model.PG3:
            jv = pos[("s", a, grader)]
            th0, th1 = resolved[a].effective_theta0, resolved[a].theta1
            floor = resolved[a].precision_floor

            def term(v, z=score, js=js, jb=jb, jv=jv, th0=th0, th1=th1, floor=floor):
                w = np.maximum(th1 * v[jv] + th0, floor)
                resid = z - v[js] - v[jb]
                return 0.5 * np.log(w) - 0.5 * w * resid * resid

            terms.append(((js, jb, jv), term))

        elif model is Model.PG1_BIAS:
            tau = resolved[a].effective_tau_fixed

            def term(v, z=score, js=js, jb=jb, tau=tau):
                resid = z - v[js] - v[jb]
                return -0.5 * tau * resid * resid

            terms.append(((js, jb), term))

        else:
            jt = pos[("tau", a, grader)]

            def term(v, z=score, js=js, jb=jb, jt=jt):
                resid = z - v[js] - v[jb]
                return 0.5 * np.log(v[jt]) - 0.5 * v[jt] * resid * resid

            terms.append(((js, jb, jt), term))

    if model is Model.PG2:
        assignments = list(work.assignments)
        omega0 = resolved[assignments[0]].omega0
        for v_id in work.graders:
            for prev_a, cur_a in zip(assignments, assignments[1:]):
                j1 = pos[("b", prev_a, v_id)]
                j2 = pos[("b", cur_a, v_id)]

                def link(v, j1=j1, j2=j2, omega0=omega0):
                    d = v[j2] - v[j1]
                    return -0.5 * omega0 * d * d

                terms.append(((j1, j2), link))

    # evaluate the lattice in blocks: loop over enough leading (outer) axes
    # that one block stays within a fixed float budget
    sizes = [v.grid.size for v in gvars]
    n_outer = 0
    while n_outer < k - 1 and math.prod(sizes[n_outer:]) > _BLOCK_BUDGET:
        n_outer += 1
    inner_shape = tuple(sizes[n_outer:])

    # everything that reads only inner axes is the same in every block: sum it once
    vals: list = [None] * k
    inner = np.zeros(inner_shape)
    for j in range(n_outer, k):
        shape = [1] * (k - n_outer)
        shape[j - n_outer] = sizes[j]
        vals[j] = gvars[j].grid.reshape(shape)
        inner += gvars[j].unary.reshape(shape)
    outer_terms = []
    for axes, t in terms:
        if min(axes) < n_outer:
            outer_terms.append(t)
        else:
            inner += t(vals)

    # one pass over the blocks, normalized by the running maximum of the log
    # density: when a block raises it, the mass summed so far is rescaled
    block = np.empty(inner_shape)
    marginals = [np.zeros(s) for s in sizes]
    mass = 0.0
    gmax = -np.inf
    for idx in itertools.product(*(range(s) for s in sizes[:n_outer])):
        base = 0.0
        for j, i in enumerate(idx):
            vals[j] = gvars[j].grid[i]
            base += gvars[j].unary[i]
        np.add(inner, base, out=block)
        for t in outer_terms:
            block += t(vals)
        bmax = float(block.max())
        if bmax == -np.inf:
            continue  # no mass here; subtracting an infinite gmax would give NaN
        if bmax > gmax:
            scale = math.exp(gmax - bmax)
            mass *= scale
            for m in marginals:
                m *= scale
            gmax = bmax
        block -= gmax
        np.exp(block, out=block)
        total = float(block.sum())
        mass += total
        for j, i in enumerate(idx):
            marginals[j][i] += total
        for j in range(n_outer, k):
            axes = tuple(ax for ax in range(k - n_outer) if ax != j - n_outer)
            marginals[j] += block.sum(axis=axes) if axes else block
    if gmax == -np.inf:
        raise ValueError("posterior mass underflows the grid; widen or re-center it")

    n_total = int(np.prod([v.grid.size for v in gvars]))
    for j, var in enumerate(gvars):
        w = marginals[j] / mass
        mean = float(np.dot(w, var.grid))
        centered = var.grid - mean
        p = norm.get(var.assignment, IDENTITY_NORMALIZATION)
        mean_pp, var_pp = p.to_pp(var.kind, mean, float(np.dot(w, centered * centered)))
        stats[var.kind][(var.assignment, var.student)] = VariableStat(mean=mean_pp, var=var_pp, n=n_total)
    return PosteriorSummary(model=model, n_samples=n_total, **stats)
