"""Gibbs samplers for the grading models.

One systematic-scan sweep updates every true score, then every grader bias,
then every reliability (where inferred), then the reliability-line
coefficients (score-linked model). Every fit runs one engine, configured by
model, whose row k is the k-th assignment of the graph. Each block (scores,
biases, reliabilities) is one array whose row k is a slice, and the grades
are indexed once for all rows, so the score and reliability blocks, and the
bias block where rows are independent, are each one vectorized pass over
every row. For PG2 every row holds the graph's graders and a grader's
biases form a chain across rows, so its bias block runs row by row. The
score-linked model (PG3) overrides only its score block, its bias
arithmetic and its theta step, and holds one theta for all rows. Its scores
enter the likelihood precisions of the grades they give, so its score block
runs on a chromatic schedule (Gonzalez et al., "Parallel Gibbs Sampling:
From Colored Fields to Thin Junction Trees", AISTATS 2011): no grade joins
two students of one colour, and each colour class, which spans every row,
takes one vectorized Metropolis step, classes in turn.

Each block shifts and scales its variates by its conditional's parameters;
coordinate ascent (em.py) sets the blocks of a one-assignment engine to
their modes instead.
Scalar reference samplers of each conditional are exposed for testing.

A sweep's variates do not depend on the chain's state: standard normals for
every score and every bias, standard gammas of the fixed shapes
alpha0 + n_given / 2 where reliabilities are drawn, and for PG3 the
exponentials of its score proposals and theta's proposal variates. The
engine's plan lists them in the order the blocks consume them, each row's
from its own generator into its slice of one buffer per block. When a sweep
needs at least _DRAW_AHEAD_MIN variates, gibbs_infer draws the next sweep's
buffers on one helper thread while the current sweep computes, alternating
two sets; smaller fits draw inline into one set. Each generator is used by
one thread at a time and called in the same order either way, so the draws
and every output are the same.

A sweep's draw vector is s, b, tau where drawn, then theta where the model
has it; retained ones feed the posterior moments, and a trace is one array
of their columns. The engine's layout, the one table of what a fit reports,
lists per (block, row) the reported students or graders and their positions
in the block and in the draw vector, mapped to pp by NormalizationParams.to_pp.
"""
from __future__ import annotations

import math
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .core import (
    IDENTITY_NORMALIZATION,
    GradingGraph,
    Hyperparameters,
    LatentState,
    Model,
    NormalizationParams,
    PosteriorSummary,
    StatBlock,
    StatColumn,
    VariableStat,
    check_seed,
    prepare_graph,
    resolve_priors,
)

if TYPE_CHECKING:
    from .em import EmConfig

__all__ = [
    "GibbsConfig",
    "TraceRecorder",
    "cond_sample_score",
    "cond_sample_bias",
    "cond_sample_reliability",
    "cond_sample_bias_chain",
    "cond_sample_score_affine",
    "initial_state",
    "sweep",
    "gibbs_infer",
]

# Variates a sweep must draw for the next sweep's to be drawn on a helper
# thread. Below it the hand-off costs more than the drawing it overlaps:
# a 3,600-student PG1 fit draws 10,800 a sweep, a 36,000-student one 108,000.
_DRAW_AHEAD_MIN = 32_768

# A row of at most this many graders draws its reliability gammas by scalar
# calls. On numpy 2.4 an array call of standard_gamma costs about 6 us at
# these sizes and a scalar call about 0.75 us, so they break even near 8.
_GAMMAS_ONE_BY_ONE = 8


@dataclass(frozen=True)
class GibbsConfig:
    """Sampler settings: sweep counts, seed, and Metropolis tuning."""

    model: Model
    total_sweeps: int = 800
    burn_in: int = 80
    seed: int = 0
    mh_proposal_scale: float = 0.1  # random-walk step for theta, relative to alpha0/beta0
    sample_theta: bool = True  # False holds theta fixed at (theta0, theta1)
    assume_normalized: bool = False  # skip z-scoring for the chain model

    def __post_init__(self) -> None:
        if self.total_sweeps < 1:
            raise ValueError(f"total_sweeps must be >= 1, got {self.total_sweeps}")
        if not (0 <= self.burn_in < self.total_sweeps):
            raise ValueError(
                f"burn_in must lie in [0, total_sweeps), got {self.burn_in} of {self.total_sweeps}"
            )
        check_seed(self.seed)
        if not (math.isfinite(self.mh_proposal_scale) and self.mh_proposal_scale > 0):
            raise ValueError(f"mh_proposal_scale must be positive, got {self.mh_proposal_scale}")

    @property
    def retained_sweeps(self) -> int:
        return self.total_sweeps - self.burn_in


# ---------------------------------------------------------------------------
# scalar conditional samplers (reference implementations)
# ---------------------------------------------------------------------------


def _require_resolved(hp: Hyperparameters) -> None:
    if not hp.is_resolved:
        raise ValueError("conditional samplers need concrete mu0/gamma0; call hp.resolve first")


def cond_sample_score(
    u: tuple[int, str],
    state: LatentState,
    graph: GradingGraph,
    hp: Hyperparameters,
    rng: np.random.Generator,
) -> float:
    """Draw s_u | rest: Gaussian with precision gamma0 + sum tau_v over received
    grades and mean (gamma0*mu0 + sum tau_v*(z - b_v)) / precision."""
    _require_resolved(hp)
    a, student = u
    p = hp.gamma0
    num = hp.gamma0 * hp.mu0
    for grader, z in graph._received(a, student):
        t = state.tau[(a, grader)]
        p += t
        num += t * (z - state.b[(a, grader)])
    return float(rng.normal(num / p, math.sqrt(1.0 / p)))


def cond_sample_bias(
    v: tuple[int, str],
    state: LatentState,
    graph: GradingGraph,
    hp: Hyperparameters,
    rng: np.random.Generator,
) -> float:
    """Draw b_v | rest: Gaussian with precision eta0 + n_v*tau_v and mean
    tau_v * sum(z - s_u) / precision."""
    a, grader = v
    t = state.tau[v]
    given = graph._given(a, grader)
    p = hp.eta0 + len(given) * t
    num = t * sum(z - state.s[(a, u)] for u, z in given)
    return float(rng.normal(num / p, math.sqrt(1.0 / p)))


def cond_sample_reliability(
    v: tuple[int, str],
    state: LatentState,
    graph: GradingGraph,
    hp: Hyperparameters,
    rng: np.random.Generator,
) -> float:
    """Draw tau_v | rest: Gamma(alpha0 + n_v/2, beta0 + sum resid^2 / 2), shape-rate."""
    a, grader = v
    given = graph._given(a, grader)
    rss = sum((z - state.s[(a, u)] - state.b[v]) ** 2 for u, z in given)
    shape = hp.alpha0 + 0.5 * len(given)
    rate = hp.beta0 + 0.5 * rss
    return float(rng.gamma(shape, 1.0 / rate))


def cond_sample_bias_chain(
    v: str,
    T: int,
    state: LatentState,
    graph: GradingGraph,
    hp: Hyperparameters,
    rng: np.random.Generator,
) -> float:
    """Draw b_v^(T) | rest for the random-walk bias chain.

    Precision-weighted combination of the walk neighbors (eta0 anchors the
    first assignment at zero, omega0 links consecutive ones) plus the grading
    likelihood at assignment T.
    """
    assignments = graph.assignments
    if T not in assignments:
        raise KeyError(f"unknown assignment {T}")
    k = assignments.index(T)
    if k == 0:
        p = hp.eta0
        num = 0.0
    else:
        p = hp.omega0
        num = hp.omega0 * state.b[(assignments[k - 1], v)]
    if k + 1 < len(assignments):
        p += hp.omega0
        num += hp.omega0 * state.b[(assignments[k + 1], v)]
    t = state.tau[(T, v)]
    given = graph._given(T, v)
    p += len(given) * t
    num += t * sum(z - state.s[(T, u)] for u, z in given)
    return float(rng.normal(num / p, math.sqrt(1.0 / p)))


def cond_sample_score_affine(
    u: tuple[int, str],
    state: LatentState,
    graph: GradingGraph,
    hp: Hyperparameters,
    rng: np.random.Generator,
) -> tuple[float, bool]:
    """Metropolis step for s_u when precision is affine in the grader's score.

    Proposes from the conjugate conditional built from received grades (with
    each grader's precision clamped at the floor), then accepts against the
    likelihood of the grades u gave, whose precisions move with s_u. Returns
    (new value, accepted). Reduces to an exact conjugate draw when u gave no
    grades or theta1 == 0.
    """
    _require_resolved(hp)
    if state.theta is None:
        raise ValueError("state.theta must be set for the score-linked model")
    th0, th1 = state.theta
    floor = hp.precision_floor
    a, student = u
    p = hp.gamma0
    num = hp.gamma0 * hp.mu0
    for grader, z in graph._received(a, student):
        w = max(th1 * state.s[(a, grader)] + th0, floor)
        p += w
        num += w * (z - state.b[(a, grader)])
    prop = float(rng.normal(num / p, math.sqrt(1.0 / p)))

    given = graph._given(a, student)
    if not given:
        return prop, True
    cur = state.s[u]
    w_old = max(th1 * cur + th0, floor)
    w_new = max(th1 * prop + th0, floor)
    rss = sum((z - state.s[(a, gradee)] - state.b[u]) ** 2 for gradee, z in given)
    log_ratio = 0.5 * len(given) * (math.log(w_new) - math.log(w_old)) - 0.5 * (w_new - w_old) * rss
    if log_ratio >= 0.0 or math.log(rng.uniform()) < log_ratio:
        return prop, True
    return cur, False


# ---------------------------------------------------------------------------
# array engine
# ---------------------------------------------------------------------------


# Row k of an engine: its slices of the score array, of the bias and
# reliability arrays, and of the grade arrays.
_Row = namedtuple("_Row", "scores graders grades")


class _Accumulator:
    """Streaming first and second moments of an array drawn once per sweep,
    shaped by the first draw.

    The second moment is taken about the first accumulated draw, so the
    variance does not cancel when values sit far from zero.
    """

    def __init__(self) -> None:
        self.n = 0

    def add(self, values: np.ndarray) -> None:
        if self.n == 0:
            self.sum = np.zeros(values.shape)
            self.sumsq = np.zeros(values.shape)
            self.shift = np.array(values, dtype=float)
        self.sum += values
        d = values - self.shift
        self.sumsq += d * d
        self.n += 1

    def moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-element mean and population variance."""
        mean = self.sum / self.n
        d = mean - self.shift
        return mean, np.maximum(self.sumsq / self.n - d * d, 0.0)


_Variates = dict[str, np.ndarray]  # one sweep's variates: one array per block, row k's at its slice


def _normals(rng: np.random.Generator, out: np.ndarray) -> None:
    rng.standard_normal(out=out)


def _doubled_exponentials(rng: np.random.Generator, out: np.ndarray) -> None:
    # out = -2 log u for uniform u, so accepting when -2 log(ratio) <= out
    # accepts with probability min(1, ratio), and always when ratio == 1
    rng.standard_exponential(out=out)
    out *= 2.0


def _theta_variates(rng: np.random.Generator, out: np.ndarray) -> None:  # two normals, one exponential
    rng.standard_normal(out=out[:2])
    rng.standard_exponential(out=out[2:])


def _gammas(shape: np.ndarray) -> Callable[[np.random.Generator, np.ndarray], None]:
    """A fill of standard gammas of the given shapes. It binds the shapes as a
    default argument, not the engine, so that an engine is no reference cycle.
    A row of at most _GAMMAS_ONE_BY_ONE graders draws them one at a time: an
    array call's set-up costs more than a few scalar calls, which draw the
    same stream."""
    if shape.size > _GAMMAS_ONE_BY_ONE:
        return lambda rng, out, shape=shape: rng.standard_gamma(shape, out=out)

    def fill(rng: np.random.Generator, out: np.ndarray, shape: list[float] = shape.tolist()) -> None:
        for i, a in enumerate(shape):
            out[i] = rng.standard_gamma(a)

    return fill


class _Reported(NamedTuple):
    """The latents of one block ("s", "b" or "tau") in row k that a fit
    reports: their students or graders, their positions in the block's
    array and their positions in the draw vector."""

    kind: str
    k: int
    keys: list[str]
    pos: np.ndarray
    at: np.ndarray


class _Engine:
    """Gibbs engine over every assignment of a graph, configured by model.

    Row k is assignment k: the scores s at rows[k].scores, in the graph's
    numbering, and the biases b and reliabilities tau of its graders at
    rows[k].graders; submissions and graders give each position's
    (assignment, student). The grades z are grouped by row at
    rows[k].grades, in input order within one, with their gradee (a
    position in s) and grader (a position in b and tau). With a grader
    list given (PG2), every row holds that list and the bias block is a
    chain across rows: eta0 anchors the first, omega0 links consecutive
    ones. Otherwise each row is graded by its assignment's submissions and
    each bias is anchored at eta0 alone. Reliabilities are drawn for PG1
    and PG2 and held at the fixed value for PG1-bias. Every conditional
    covers every row at once: its bincounts add each position's grades in
    input order, and no position takes grades from two rows, so each sum
    is the one its row alone would make. The chained bias block reads its
    rows' likelihoods from one such pass and walks the chain row by row.
    The plan lists a sweep's variates as (block, k, slice, fill) per row,
    where fill(rng, out) fills row k's slice of the block's buffer from the
    k-th generator. Row k maps back to percentage points through norm[k].
    """

    def __init__(self, graph: GradingGraph, graders: Sequence[str] | None, resolved: dict[int, Hyperparameters],
                 norm: dict[int, NormalizationParams], cfg: GibbsConfig | EmConfig) -> None:
        self.assignments = list(graph.assignments)
        self.hp = [resolved[a] for a in self.assignments]
        base = self.hp[0]
        self.eta0, self.omega0 = base.eta0, base.omega0
        self.alpha0, self.beta0 = base.alpha0, base.beta0
        self.norm = [norm.get(a, IDENTITY_NORMALIZATION) for a in self.assignments]
        self.chained = graders is not None
        so, eo, self.z, self.grader, self.gradee = graph.grade_index()
        self.submissions = [(a, u) for a in self.assignments for u in graph.submissions(a)]
        n_rows = len(self.assignments)
        if self.chained:  # row k holds the grader list at k * len(graders)
            code = {v: j for j, v in enumerate(graders)}
            shared = np.array([code.get(u, -1) for _, u in self.submissions], dtype=np.intp)
            go = np.arange(n_rows + 1) * len(graders)
            self.grader = np.repeat(go[:-1], np.diff(eo)) + shared[self.grader]
            self.graders = [(a, v) for a in self.assignments for v in graders]
        else:
            go, self.graders = so, self.submissions
        per_score = np.diff(so)  # each score's prior, from its row's hyperparameters
        self.gamma0 = np.repeat([hp.gamma0 for hp in self.hp], per_score)
        self.gamma0_mu0 = np.repeat([hp.gamma0 * hp.mu0 for hp in self.hp], per_score)
        self.n_given = np.bincount(self.grader, minlength=go[-1]).astype(float)
        self.biased = self.n_given > 0  # the graders whose bias a fit reports
        if self.chained:  # a chained grader carries a bias in every row once it grades in any
            self.biased = np.tile(self.biased.reshape(n_rows, len(graders)).any(axis=0), n_rows)
        self.infer_tau = cfg.model.has_reliability
        tau0 = self.alpha0 / self.beta0 if self.infer_tau else base.effective_tau_fixed
        self.tau_shape = self.alpha0 + 0.5 * self.n_given
        so, go, eo = so.tolist(), go.tolist(), eo.tolist()
        self.rows = [_Row(slice(so[k], so[k + 1]), slice(go[k], go[k + 1]), slice(eo[k], eo[k + 1]))
                     for k in range(n_rows)]
        self.plan = [("s", k, r.scores, _normals) for k, r in enumerate(self.rows)]
        self.plan += [("b", k, r.graders, _normals) for k, r in enumerate(self.rows)]
        if self.infer_tau:
            self.plan += [("tau", k, r.graders, _gammas(self.tau_shape[r.graders])) for k, r in enumerate(self.rows)]
        n_received = np.bincount(self.gradee, minlength=so[-1]).astype(float)
        has = n_received > 0  # a score starts at the mean of its grades, or at mu0
        self.s = np.repeat([hp.mu0 for hp in self.hp], per_score)
        self.s[has] = np.bincount(self.gradee, self.z, so[-1])[has] / n_received[has]
        self.b = np.zeros(go[-1])
        self.tau = np.full(go[-1], tau0)
        reported = {"s": np.ones(so[-1], dtype=bool), "b": self.biased}
        if self.infer_tau:
            reported["tau"] = self.n_given > 0
        self.layout, start = [], 0
        for kind, mask in reported.items():
            keys = self.submissions if kind == "s" else self.graders
            for k, r in enumerate(self.rows):
                span = r.scores if kind == "s" else r.graders
                pos = span.start + np.flatnonzero(mask[span])
                self.layout.append(_Reported(kind, k, [keys[i][1] for i in pos.tolist()], pos, start + pos))
            start += mask.size
        self.theta: tuple[float, float] | None = None
        self.acc = _Accumulator()  # the draw vector's moments
        self.accept_s = self.total_s = 0
        self.accept_theta = self.total_theta = 0

    def variates(self) -> _Variates:
        """An unfilled buffer set for draw."""
        ends = {block: rows.stop for block, _, rows, _ in self.plan}  # each block's last row ends it
        return {block: np.empty(n) for block, n in ends.items()}

    def draw(self, rngs: Sequence[np.random.Generator], v: _Variates) -> None:
        """Fill v with one sweep's variates by the plan, row k's from rngs[k]."""
        for block, k, rows, fill in self.plan:
            fill(rngs[k], v[block][rows])

    def sweep(self, v: _Variates) -> None:
        """Every row's scores, then every row's biases, then reliabilities, on the variates in v."""
        self._score_block(v["s"])
        self._bias_block(v["b"])
        if self.infer_tau:
            self._reliability_block(v["tau"])

    def score_conditional(self) -> tuple[np.ndarray, np.ndarray]:
        """Mean and precision of every score given the rest."""
        w = self.tau[self.grader]
        wr = self.b[self.grader]  # w * (z - b), in place: one temporary fewer on a large graph
        np.subtract(self.z, wr, out=wr)
        wr *= w
        prec = self.gamma0 + np.bincount(self.gradee, w, self.gamma0.size)
        num = self.gamma0_mu0 + np.bincount(self.gradee, wr, self.gamma0.size)
        return num / prec, prec

    def _score_block(self, normals: np.ndarray) -> None:
        mean, prec = self.score_conditional()
        self.s = mean + np.sqrt(1.0 / prec) * normals

    def _bias_likelihood(self) -> tuple[np.ndarray, np.ndarray]:
        """Precision and precision-weighted residual sum that the grades
        contribute to each grader's bias; they read the scores and
        reliabilities, never the biases."""
        zs = self.s[self.gradee]  # z - s, in place
        np.subtract(self.z, zs, out=zs)
        return self.n_given * self.tau, self.tau * np.bincount(self.grader, zs, self.tau.size)

    def bias_conditional(self) -> tuple[np.ndarray, np.ndarray]:
        """Mean and precision of every bias given the rest, for rows that
        are not chained: each bias is anchored at eta0 alone."""
        lik_prec, lik_num = self._bias_likelihood()
        prec = self.eta0 + lik_prec
        return lik_num / prec, prec

    def _bias_block(self, normals: np.ndarray) -> None:
        if not self.chained:
            mean, prec = self.bias_conditional()
            self.b = mean + np.sqrt(1.0 / prec) * normals
            return
        lik_prec, lik_num = self._bias_likelihood()
        for k, r in enumerate(self.rows):  # row by row, each given the rows either side of it
            prec = self.eta0 if k == 0 else self.omega0
            num = 0.0 if k == 0 else self.omega0 * self.b[self.rows[k - 1].graders]
            if k + 1 < len(self.rows):
                prec += self.omega0
                num = num + self.omega0 * self.b[self.rows[k + 1].graders]
            prec = prec + lik_prec[r.graders]
            num = num + lik_num[r.graders]
            self.b[r.graders] = num / prec + np.sqrt(1.0 / prec) * normals[r.graders]

    def residuals(self) -> np.ndarray:
        """Each grade less its gradee's score and its grader's bias."""
        resid = self.s[self.gradee]  # z - s - b, in place
        np.subtract(self.z, resid, out=resid)
        resid -= self.b[self.grader]
        return resid

    def reliability_conditional(self, resid: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Gamma shape and rate of every reliability given the rest; resid,
        where given, is residuals() at this state."""
        resid = self.residuals() if resid is None else resid
        return self.tau_shape, self.beta0 + 0.5 * np.bincount(self.grader, resid * resid, self.tau_shape.size)

    def _reliability_block(self, gammas: np.ndarray) -> None:
        self.tau = (1.0 / self.reliability_conditional()[1]) * gammas

    def accumulate(self) -> np.ndarray:
        """Add this sweep's draw vector to the moments and return it."""
        draws = [self.s, self.b, self.tau] if self.infer_tau else [self.s, self.b]
        if self.theta is not None:
            draws.append(self.theta)
        values = np.concatenate(draws)
        self.acc.add(values)
        return values

    def load_state(self, state: LatentState) -> None:
        for array, keys, values in ((self.s, self.submissions, state.s), (self.b, self.graders, state.b),
                                    (self.tau, self.graders, state.tau)):
            for i, key in enumerate(keys):
                if key in values:
                    array[i] = values[key]
        if self.theta is not None and state.theta is not None:
            self.theta = tuple(state.theta)

    def export_state(self, state: LatentState) -> None:
        for e in self.layout:
            a = self.assignments[e.k]
            getattr(state, e.kind).update(zip([(a, u) for u in e.keys], getattr(self, e.kind)[e.pos].tolist()))
        if self.theta is not None:
            state.theta = self.theta

    def summarize(self, blocks: dict[str, dict[int, StatColumn]]) -> tuple[np.ndarray, np.ndarray] | None:
        """Add every layout entry's column, in percentage points, to its block;
        return theta's mean and variance where the engine has theta."""
        n = self.acc.n
        mean, var = self.acc.moments()
        for e in self.layout:
            m, v = self.norm[e.k].to_pp(e.kind, mean[e.at], var[e.at])
            blocks[e.kind][self.assignments[e.k]] = StatColumn(e.keys, m, v, np.full(e.pos.size, n))
        return (mean[-2:], var[-2:]) if self.theta is not None else None  # theta closes the vector

    def locate(self, variables: Sequence[tuple[str, int, str]]) -> list[tuple[_Reported, int]]:
        """The layout entry that reports each (kind, assignment, student) and
        its position in the draw vector, read from one table of the layout; a
        ValueError for a latent that summarize does not report."""
        table = {(e.kind, self.assignments[e.k], u): (e, at)
                 for e in self.layout for u, at in zip(e.keys, e.at.tolist())}
        columns = []
        for kind, a, student in variables:
            column = table.get((kind, a, student))
            if column is None:
                raise ValueError(f"trace variable ({kind!r}, {a}, {student!r}) not tracked by the model")
            columns.append(column)
        return columns


class _ColourClass:
    """Students of one colour class, from every row, with their grade index arrays.

    recv/give are the grades the members received/gave, *_loc the class-local
    position of the member each grade belongs to, draws the positions of the
    sweep's score variates that the members read, and gamma0 and gamma0_mu0
    the members' score priors.
    """

    def __init__(self, engine: _Engine, members: np.ndarray, draws: np.ndarray) -> None:
        self.members = members
        self.size = members.size
        self.draws = draws
        local = np.full(engine.s.size, -1, dtype=np.intp)
        local[members] = np.arange(members.size)
        self.recv = np.flatnonzero(local[engine.gradee] >= 0)
        self.recv_loc = local[engine.gradee[self.recv]]
        self.recv_grader = engine.grader[self.recv]
        self.give = np.flatnonzero(local[engine.grader] >= 0)
        self.give_loc = local[engine.grader[self.give]]
        self.give_gradee = engine.gradee[self.give]
        self.n_given = engine.n_given[members]
        self.gamma0 = engine.gamma0[members]
        self.gamma0_mu0 = engine.gamma0_mu0[members]


def _colour_classes(engine: _Engine) -> list[_ColourClass]:
    """Greedy colouring of the undirected grader-gradee graph of every row.

    Students are visited in index order and each takes the smallest colour
    none of its neighbours holds, so no grade joins two members of one class
    and the classes depend only on the graph. No grade joins two rows, so a
    row's colours are those it would have alone. A row's students, stably
    sorted by colour, read its slice of the score variates in turn.
    """
    n = engine.s.size
    neighbours: list[list[int]] = [[] for _ in range(n)]
    for v, u in zip(engine.grader.tolist(), engine.gradee.tolist()):
        neighbours[v].append(u)
        neighbours[u].append(v)
    colours: list[int] = []
    for i in range(n):
        taken = {colours[j] for j in neighbours[i] if j < i}
        c = 0
        while c in taken:
            c += 1
        colours.append(c)
    colour = np.array(colours, dtype=np.intp)
    row = np.repeat(np.arange(len(engine.rows)), [r.scores.stop - r.scores.start for r in engine.rows])
    draws = np.empty(n, dtype=np.intp)
    draws[np.lexsort((colour, row))] = np.arange(n)
    order = np.argsort(colour, kind="stable")
    classes, start = [], 0
    for stop in np.cumsum(np.bincount(colour)).tolist():
        members = order[start:stop]
        classes.append(_ColourClass(engine, members, draws[members]))
        start = stop
    return classes


class _Pg3Engine(_Engine):
    """The engine for the score-linked reliability model.

    Overrides the score block and the bias arithmetic, draws no
    reliabilities, and adds the theta step. Scores move by
    Metropolis-within-Gibbs on a chromatic schedule: s_i's conditional
    involves only its graders (proposal precisions) and its gradees
    (acceptance residuals), so one colour class's students are
    conditionally independent, and so are rows given theta. Each class,
    coloured on first use and spanning every row, takes one vectorized
    Metropolis step, classes in turn. Biases stay conjugate, each grade
    weighted by the precision at its grader's score. One theta serves every
    row: one joint random-walk Metropolis step per sweep, under a flat prior
    on the precision-floor feasible region over every row's scores, against
    every row's grades, on two normals and one exponential from row 0's
    generator that close the plan.
    """

    def __init__(self, graph: GradingGraph, graders: Sequence[str] | None, resolved: dict[int, Hyperparameters],
                 norm: dict[int, NormalizationParams], cfg: GibbsConfig) -> None:
        super().__init__(graph, graders, resolved, norm, cfg)
        hp = self.hp[0]
        self.theta = (hp.effective_theta0, hp.theta1)
        ref = hp.alpha0 / hp.beta0
        score_scale = max(1.0, abs(hp.mu0) + 4.0 / math.sqrt(hp.gamma0))
        self.sig0 = cfg.mh_proposal_scale * ref
        self.sig1 = cfg.mh_proposal_scale * ref / score_scale
        n_rows = len(self.rows)  # each row's exponentials follow every row's score normals
        self.plan[n_rows:n_rows] = [("e2", k, r.scores, _doubled_exponentials) for k, r in enumerate(self.rows)]
        if cfg.sample_theta:
            self.plan.append(("theta", 0, slice(0, 3), _theta_variates))

    @cached_property
    def classes(self) -> list[_ColourClass]:
        return _colour_classes(self)

    def _prec(self, s_values: np.ndarray) -> np.ndarray:
        th0, th1 = self.theta
        return np.maximum(th1 * s_values + th0, self.hp[0].precision_floor)

    def _feasible(self, th0: float, th1: float) -> bool:
        # th1 * v + th0 is monotone in v, so the extreme scores bound it
        ends = [float(self.s.min()), float(self.s.max())] if self.s.size else []
        return min((th1 * v + th0 for v in ends), default=th0) >= self.hp[0].precision_floor

    def _log_likelihood(self, th0: float, th1: float) -> float:
        s = self.s
        w = th1 * s[self.grader] + th0  # feasibility guarantees w >= floor > 0
        resid = self.z - s[self.gradee] - self.b[self.grader]
        log_w, weighted = np.log(w), w * resid * resid
        total = 0.0
        for r in self.rows:  # one sum per row, added in row order
            total += float(0.5 * np.sum(log_w[r.grades]) - 0.5 * np.sum(weighted[r.grades]))
        return total

    def sweep(self, v: _Variates) -> None:
        """Every class's scores, then every row's biases, then theta, on the variates in v."""
        zb = self.z - self.b[self.grader]
        w = self._prec(self.s)
        for c in self.classes:
            self._class_step(c, zb, w, v["s"], v["e2"])
        self.total_s += self.s.size
        self._bias_block(v["b"])
        if "theta" in v:  # where the plan samples theta
            self._theta_step(*v["theta"].tolist())

    def _class_step(self, c: _ColourClass, zb: np.ndarray, w: np.ndarray, eps: np.ndarray, e2: np.ndarray) -> None:
        """Same proposal and acceptance as cond_sample_score_affine, for all
        members at once, on the proposal normals eps and acceptance
        exponentials e2 (of mean 2); zb holds each grade less its grader's
        bias, and w the precisions of the current scores."""
        s = self.s
        w_recv = w[c.recv_grader]
        prec = c.gamma0 + np.bincount(c.recv_loc, w_recv, c.size)
        num = c.gamma0_mu0 + np.bincount(c.recv_loc, w_recv * zb[c.recv], c.size)
        prop = (num + eps[c.draws] * np.sqrt(prec)) / prec
        cur = s[c.members]
        w_old = w[c.members]
        w_new = self._prec(prop)
        resid = zb[c.give] - s[c.give_gradee]
        rss = np.bincount(c.give_loc, resid * resid, c.size)
        accept = (w_new - w_old) * rss - c.n_given * np.log(w_new / w_old) <= e2[c.draws]
        np.putmask(cur, accept, prop)
        np.putmask(w_old, accept, w_new)
        s[c.members] = cur
        w[c.members] = w_old
        self.accept_s += int(np.count_nonzero(accept))

    def _bias_likelihood(self) -> tuple[np.ndarray, np.ndarray]:
        s = self.s  # a PG3 row's graders are its students
        w = self._prec(s)[self.grader]
        return np.bincount(self.grader, w, s.size), np.bincount(self.grader, w * (self.z - s[self.gradee]), s.size)

    def _theta_step(self, n0: float, n1: float, e: float) -> None:
        """One random-walk Metropolis step on proposal normals n0, n1 and a standard exponential
        e = -log u, so rejecting when -log(ratio) > e accepts with probability min(1, ratio)."""
        self.total_theta += 1
        th0, th1 = self.theta
        prop0, prop1 = th0 + self.sig0 * n0, th1 + self.sig1 * n1
        if not self._feasible(prop0, prop1):
            return
        if self._feasible(th0, th1):
            log_ratio = self._log_likelihood(prop0, prop1) - self._log_likelihood(th0, th1)
            if -log_ratio > e:
                return
        self.theta = (prop0, prop1)
        self.accept_theta += 1


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


@dataclass
class TraceRecorder:
    """The per-sweep values of selected latents in a fit.

    variables holds (kind, assignment, student) with kind in {s, b, tau}. A fit
    sets values to its retained draws of them in percentage points, one row
    per sweep from first_sweep on, one column per variable.
    """

    variables: Sequence[tuple[str, int, str]]
    values: np.ndarray = field(init=False, compare=False)
    first_sweep: int = field(init=False, default=1)

    def __post_init__(self) -> None:
        for kind, _, _ in self.variables:
            if kind not in ("s", "b", "tau"):
                raise ValueError(f"unknown trace variable kind {kind!r}")
        self.values = np.empty((0, len(self.variables)))

    @property
    def rows(self) -> list[tuple[int, str, int, str, float]]:
        """(sweep, var_kind, assignment, student, value) per value, sweep-major."""
        return [(sweep_no, kind, a, student, value)
                for sweep_no, row in enumerate(self.values.tolist(), start=self.first_sweep)
                for (kind, a, student), value in zip(self.variables, row)]


def _build_engine(graph: GradingGraph, hp: Hyperparameters, cfg: GibbsConfig | EmConfig) -> _Engine:
    """One engine over every assignment of the graph: PG2's rows are graded
    by every grader of the graph, the other models' rows by their
    assignment's submissions.

    Reads cfg.model; PG2 also reads assume_normalized and PG3 its theta-step
    settings, so coordinate ascent builds its PG1-bias and PG1 engine from
    its own config.
    """
    pg2 = cfg.model is Model.PG2
    work, norm = prepare_graph(graph, cfg.model, pg2 and cfg.assume_normalized)
    resolved = resolve_priors(work, hp, normalized=bool(norm))
    graders = list(work.graders) if pg2 else None
    engine = _Pg3Engine if cfg.model is Model.PG3 else _Engine
    return engine(work, graders, resolved, norm, cfg)


def initial_state(graph: GradingGraph, hp: Hyperparameters, cfg: GibbsConfig) -> LatentState:
    """Deterministic starting point: scores at the mean of received grades,
    biases at zero, reliabilities at the prior mean (or the fixed value).

    Values are in the model's working units (z-scores for the chain model
    unless assume_normalized).
    """
    state = LatentState()
    _build_engine(graph, hp, cfg).export_state(state)
    return state


def sweep(
    state: LatentState,
    graph: GradingGraph,
    hp: Hyperparameters,
    cfg: GibbsConfig,
    rng: np.random.Generator,
) -> LatentState:
    """One systematic scan over all latents; returns a new state.

    Visits every assignment's scores, then every assignment's biases, then
    every assignment's reliabilities (then theta), assignments in ascending
    order and students in sorted order within each, on variates drawn from
    rng in the engine's plan order. Operates in the model's working units.
    """
    engine = _build_engine(graph, hp, cfg)
    engine.load_state(state)
    v = engine.variates()
    engine.draw([rng] * len(engine.assignments), v)
    engine.sweep(v)
    out = LatentState(theta=state.theta)
    engine.export_state(out)
    return out


def _drawn(engine: _Engine, rngs: Sequence[np.random.Generator], current: _Variates, sweeps: int,
           helper: ThreadPoolExecutor | None) -> Iterator[_Variates]:
    """Each of sweeps sweeps' variates, filled by engine.draw before they are
    handed out. Without a helper, the buffer set current is refilled inline
    after the caller is done with it. With one, the next sweep's set is
    filled on the helper while the caller uses the current one, and two sets
    alternate."""
    spare = engine.variates() if helper is not None else None
    engine.draw(rngs, current)
    for left in range(sweeps - 1, -1, -1):
        drawing = helper.submit(engine.draw, rngs, spare) if helper is not None and left else None
        yield current
        if drawing is not None:
            drawing.result()
            current, spare = spare, current
        elif left:
            engine.draw(rngs, current)


def gibbs_infer(
    graph: GradingGraph,
    hp: Hyperparameters,
    cfg: GibbsConfig,
    trace: TraceRecorder | None = None,
) -> PosteriorSummary:
    """Run the Gibbs sampler and summarize retained sweeps.

    Deterministic given (graph, hp, cfg.seed): each assignment draws from its
    own generator, spawned off one seed sequence in assignment order, except
    that the chain model's assignments all draw from the first. Posterior
    moments are streamed and reported in percentage points. The traced
    latents are columns picked from each retained sweep's draw vector into
    one array, trace.values, in percentage points. A helper thread that
    draws ahead (see the module docstring) is joined before the fit returns
    or raises.
    """
    engine = _build_engine(graph, hp, cfg)
    children = np.random.SeedSequence(cfg.seed).spawn(len(engine.assignments))
    rngs = [np.random.Generator(np.random.PCG64(c)) for c in children]
    if engine.chained:
        rngs = rngs[:1] * len(rngs)

    columns = engine.locate(trace.variables) if trace is not None else []  # (entry, draw-vector position)
    picked = np.array([at for _, at in columns], dtype=np.intp)
    record = np.empty((cfg.retained_sweeps, picked.size))

    first = engine.variates()
    ahead = sum(block.size for block in first.values()) >= _DRAW_AHEAD_MIN
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="peergrade-draw") if ahead else nullcontext() as helper:
        for sweep_no, v in enumerate(_drawn(engine, rngs, first, cfg.total_sweeps, helper), start=1):
            engine.sweep(v)
            if sweep_no > cfg.burn_in:
                record[sweep_no - cfg.burn_in - 1] = engine.accumulate()[picked]

    for j, (e, _) in enumerate(columns):
        record[:, j] = engine.norm[e.k].to_pp(e.kind, record[:, j])[0]
    if trace is not None:
        trace.values, trace.first_sweep = record, cfg.burn_in + 1
    blocks: dict[str, dict[int, StatColumn]] = {"s": {}, "b": {}, "tau": {}}
    theta = engine.summarize(blocks)
    summary = PosteriorSummary(
        model=cfg.model,
        s=StatBlock(blocks["s"]),
        b=StatBlock(blocks["b"]),
        tau=StatBlock(blocks["tau"]),
        n_samples=cfg.retained_sweeps,
    )
    if theta is not None:
        th_mean, th_var = theta
        summary.theta = {"theta0": VariableStat(float(th_mean[0]), float(th_var[0]), cfg.retained_sweeps),
                         "theta1": VariableStat(float(th_mean[1]), float(th_var[1]), cfg.retained_sweeps)}
    if engine.total_s:
        summary.mh_acceptance = engine.accept_s / engine.total_s
    if engine.total_theta:
        summary.theta_acceptance = engine.accept_theta / engine.total_theta
    return summary
