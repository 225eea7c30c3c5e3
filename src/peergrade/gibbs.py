"""Gibbs samplers for the grading models.

One systematic-scan sweep updates every true score, then every grader bias,
then every reliability (where inferred), then the reliability-line
coefficients (score-linked model). Every fit runs one engine, configured by
model, whose row k is the k-th assignment of the graph. For PG2 the rows
share one grader list and the biases form a chain across them; for the
other models each row is graded by its assignment's submissions and its
biases are independent. Reliabilities are drawn or held fixed. The
score-linked model (PG3) overrides only its score block, its bias arithmetic
and its theta step, and holds one theta for all rows. Blocks that are
conditionally independent given the rest are drawn as vectorized batches.
The score-linked model's scores are not: each student's score enters the
likelihood precisions of the grades they gave. Its score block therefore
runs on a chromatic schedule (Gonzalez et al., "Parallel Gibbs Sampling:
From Colored Fields to Thin Junction Trees", AISTATS 2011): students are
greedily coloured so that no grade joins two students of one colour, and
each colour class takes one vectorized Metropolis step, which is a
sequential scan in class order.

Each block of the engine first computes its conditional's parameters (score
mean and precision, bias-chain mean and precision, reliability shape and
rate) and then shifts and scales its variates by them; coordinate ascent
(em.py) sets the same blocks to their conditional modes. Scalar reference
implementations of each conditional sampler are exposed for
distribution-level testing; the engine implements the same conditionals on
arrays.

A sweep's variates do not depend on the chain's state: standard normals for
every score and every bias, standard gammas of the fixed shapes
alpha0 + n_given / 2 where reliabilities are drawn, and for PG3 the
exponentials of its score proposals and theta's proposal variates. The
engine's plan lists them in the order the blocks consume them, and the
engine draws them into a buffer set before the sweep. When a sweep needs at
least _DRAW_AHEAD_MIN variates, gibbs_infer draws the next sweep's set on
one helper thread while the current sweep computes, alternating two sets;
smaller fits draw inline into one set. Each generator is used by one thread
at a time and called in the same order either way, so the draws and every
output are the same.

The engine's layout is the one table of what a fit reports: one entry per
(block, row), listing the reported students or graders, their positions in
the row's array and where the row starts in the draw vector. Each retained
sweep's draw vector feeds the posterior moments; a trace is one array of its
columns. Each row carries its normalization, and NormalizationParams.to_pp
maps its values back to percentage points.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
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


class _AssignmentIndex:
    """Array view of one assignment: grade triples as index arrays plus
    per-student grade counts. Graders are positions in the given grader
    list, or in the assignment's own students when none is given."""

    def __init__(
        self,
        graph: GradingGraph,
        assignment: int,
        graders: tuple[list[str], dict[str, int]] | None = None,
    ) -> None:
        self.assignment = assignment
        self.students = list(graph.submissions(assignment))
        self.n_students = len(self.students)
        self.z = graph.scores_in(assignment)
        self.grader, self.gradee = graph.grade_positions(assignment)
        if graders is None:
            self.graders = self.students
        else:  # a student's position in the grader list, read through its own position
            self.graders, gpos = graders
            shared = np.array([gpos.get(s, -1) for s in self.students], dtype=np.intp)
            self.grader = shared[self.grader]
        self.n_graders = len(self.graders)
        self.n_given = np.bincount(self.grader, minlength=self.n_graders).astype(float)
        self.n_received = np.bincount(self.gradee, minlength=self.n_students).astype(float)

    def sum_by_gradee(self, values: np.ndarray) -> np.ndarray:
        return np.bincount(self.gradee, weights=values, minlength=self.n_students)

    def sum_by_grader(self, values: np.ndarray) -> np.ndarray:
        return np.bincount(self.grader, weights=values, minlength=self.n_graders)

    def mean_received(self, mu0: float) -> np.ndarray:
        out = np.full(self.n_students, mu0, dtype=float)
        has = self.n_received > 0
        out[has] = self.sum_by_gradee(self.z)[has] / self.n_received[has]
        return out


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


_Variates = dict[str, list[np.ndarray]]  # one sweep's variates: per block, one array per row


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
    reports: their students or graders, their positions in the row's array,
    and where the row starts in the draw vector."""

    kind: str
    k: int
    keys: list[str]
    pos: np.ndarray
    start: int


class _Engine:
    """Gibbs engine over every assignment of a graph, configured by model.

    Row k is assignment k: its scores, and the biases and reliabilities of
    its graders, are one array each. With a grader list given (PG2), every
    row is graded by that list and the bias block is a chain across rows:
    eta0 anchors the first, omega0 links consecutive ones. Otherwise each
    row is graded by its assignment's submissions and each bias is anchored
    at eta0 alone, so rows are independent. Reliabilities are drawn for PG1
    and PG2 and held at the fixed value for PG1-bias. The plan lists a
    sweep's variates in draw order, block by block, as (block, k, size,
    fill) per row, where fill(rng, out) fills row k's array from the k-th
    generator; draw fills a buffer set by it and sweep consumes it.

    The layout holds the reported latents in draw-vector order: every score,
    the bias of every grader with a grade in any row (PG2) or in its row, and,
    where drawn, the reliability of every grader with a grade in its row. The
    engine works in the graph's units (z-scores for PG2 unless
    assume_normalized), and row k maps back to percentage points through
    norm[k], the identity where the graph was not z-scored.
    """

    def __init__(
        self,
        graph: GradingGraph,
        graders: Sequence[str] | None,
        resolved: dict[int, Hyperparameters],
        norm: dict[int, NormalizationParams],
        cfg: GibbsConfig | EmConfig,
    ) -> None:
        self.assignments = list(graph.assignments)
        self.hp = [resolved[a] for a in self.assignments]
        base = self.hp[0]
        self.eta0, self.omega0 = base.eta0, base.omega0
        self.alpha0, self.beta0 = base.alpha0, base.beta0
        self.norm = [norm.get(a, IDENTITY_NORMALIZATION) for a in self.assignments]
        self.chained = graders is not None
        shared = (list(graders), {v: j for j, v in enumerate(graders)}) if self.chained else None
        self.idx = [_AssignmentIndex(graph, a, shared) for a in self.assignments]
        given = [ix.n_given for ix in self.idx]
        if self.chained:  # a chained grader carries a bias in every row once it grades in any
            given = [np.sum(given, axis=0)] * len(given)
        self.biased = [np.flatnonzero(n > 0) for n in given]
        self.infer_tau = cfg.model.has_reliability
        tau0 = self.alpha0 / self.beta0 if self.infer_tau else base.effective_tau_fixed
        self.tau_shape = [self.alpha0 + 0.5 * ix.n_given for ix in self.idx]
        self.plan = [("s", k, ix.n_students, _normals) for k, ix in enumerate(self.idx)]
        self.plan += [("b", k, ix.n_graders, _normals) for k, ix in enumerate(self.idx)]
        if self.infer_tau:
            self.plan += [("tau", k, ix.n_graders, _gammas(shape))
                          for k, (ix, shape) in enumerate(zip(self.idx, self.tau_shape))]
        self.s = [ix.mean_received(hp.mu0) for ix, hp in zip(self.idx, self.hp)]
        self.b = [np.zeros(ix.n_graders) for ix in self.idx]
        self.tau = [np.full(ix.n_graders, tau0) for ix in self.idx]
        reported = {"s": [np.arange(ix.n_students) for ix in self.idx], "b": self.biased}
        if self.infer_tau:
            reported["tau"] = [np.flatnonzero(ix.n_given > 0) for ix in self.idx]
        self.layout, start = [], 0
        for kind, rows in reported.items():
            for k, (ix, pos) in enumerate(zip(self.idx, rows)):
                names = ix.students if kind == "s" else ix.graders
                self.layout.append(_Reported(kind, k, [names[j] for j in pos.tolist()], pos, start))
                start += len(names)
        self.theta: tuple[float, float] | None = None
        self.acc = _Accumulator()  # the row of every layout entry, then theta, in one array
        self.accept_s = self.total_s = 0
        self.accept_theta = self.total_theta = 0

    def variates(self) -> _Variates:
        """An unfilled buffer set for draw."""
        v: _Variates = {}
        for block, _, size, _ in self.plan:
            v.setdefault(block, []).append(np.empty(size))
        return v

    def draw(self, rngs: Sequence[np.random.Generator], v: _Variates) -> None:
        """Fill v with one sweep's variates by the plan, row k's from rngs[k]."""
        for block, k, _, fill in self.plan:
            fill(rngs[k], v[block][k])

    def sweep(self, v: _Variates) -> None:
        """Every row's scores, then every row's biases, then reliabilities, on the variates in v."""
        self._score_block(v["s"])
        self._bias_block(v["b"])
        if self.infer_tau:
            self._reliability_block(v["tau"])

    def score_conditional(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Mean and precision of row k's scores given the rest."""
        idx, hp = self.idx[k], self.hp[k]
        w = self.tau[k][idx.grader]
        prec = hp.gamma0 + idx.sum_by_gradee(w)
        num = hp.gamma0 * hp.mu0 + idx.sum_by_gradee(w * (idx.z - self.b[k][idx.grader]))
        return num / prec, prec

    def _score_block(self, normals: Sequence[np.ndarray]) -> None:
        for k, eps in enumerate(normals):
            mean, prec = self.score_conditional(k)
            self.s[k] = mean + np.sqrt(1.0 / prec) * eps

    def _bias_likelihood(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Precision and precision-weighted residual sum that row k's grades
        contribute to each grader's bias."""
        idx = self.idx[k]
        return idx.n_given * self.tau[k], self.tau[k] * idx.sum_by_grader(idx.z - self.s[k][idx.gradee])

    def bias_conditional(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Mean and precision of row k's biases given the rest."""
        anchored = k == 0 or not self.chained
        prec = self.eta0 if anchored else self.omega0
        num = 0.0 if anchored else self.omega0 * self.b[k - 1]
        if self.chained and k + 1 < len(self.b):
            prec += self.omega0
            num = num + self.omega0 * self.b[k + 1]
        lik_prec, lik_num = self._bias_likelihood(k)
        prec = prec + lik_prec
        num = num + lik_num
        return num / prec, prec

    def _bias_block(self, normals: Sequence[np.ndarray]) -> None:
        for k, eps in enumerate(normals):
            mean, prec = self.bias_conditional(k)
            self.b[k] = mean + np.sqrt(1.0 / prec) * eps

    def residuals(self, k: int) -> np.ndarray:
        """Each grade of row k less its gradee's score and its grader's bias."""
        idx = self.idx[k]
        return idx.z - self.s[k][idx.gradee] - self.b[k][idx.grader]

    def reliability_conditional(self, k: int, resid: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Gamma shape and rate of row k's reliabilities given the rest;
        resid, where given, is residuals(k) at the current state."""
        resid = self.residuals(k) if resid is None else resid
        return self.tau_shape[k], self.beta0 + 0.5 * self.idx[k].sum_by_grader(resid * resid)

    def _reliability_block(self, gammas: Sequence[np.ndarray]) -> None:
        for k, g in enumerate(gammas):
            self.tau[k] = (1.0 / self.reliability_conditional(k)[1]) * g

    def row(self, e: _Reported) -> np.ndarray:
        """The current array, in working units, that a layout entry reports from."""
        return getattr(self, e.kind)[e.k]

    def accumulate(self) -> np.ndarray:
        """Add this sweep's draw vector to the moments and return it."""
        draws = [self.row(e) for e in self.layout]
        if self.theta is not None:
            draws.append(self.theta)
        values = np.concatenate(draws)
        self.acc.add(values)
        return values

    def load_state(self, state: LatentState) -> None:
        for k, (a, ix) in enumerate(zip(self.assignments, self.idx)):
            for i, student in enumerate(ix.students):
                if (a, student) in state.s:
                    self.s[k][i] = state.s[(a, student)]
            for j, grader in enumerate(ix.graders):
                if (a, grader) in state.b:
                    self.b[k][j] = state.b[(a, grader)]
                if (a, grader) in state.tau:
                    self.tau[k][j] = state.tau[(a, grader)]
        if self.theta is not None and state.theta is not None:
            self.theta = tuple(state.theta)

    def export_state(self, state: LatentState) -> None:
        for e in self.layout:
            a = self.assignments[e.k]
            getattr(state, e.kind).update(zip([(a, u) for u in e.keys], self.row(e)[e.pos].tolist()))
        if self.theta is not None:
            state.theta = self.theta

    def summarize(self, blocks: dict[str, dict[int, StatColumn]]) -> tuple[np.ndarray, np.ndarray] | None:
        """Add every layout entry's column, in percentage points, to its block;
        return theta's mean and variance where the engine has theta."""
        n = self.acc.n
        mean, var = self.acc.moments()
        for e in self.layout:
            at = e.start + e.pos
            m, v = self.norm[e.k].to_pp(e.kind, mean[at], var[at])
            blocks[e.kind][self.assignments[e.k]] = StatColumn(e.keys, m, v, np.full(e.pos.size, n))
        return (mean[-2:], var[-2:]) if self.theta is not None else None  # theta closes the vector

    def locate(self, variables: Sequence[tuple[str, int, str]]) -> list[tuple[_Reported, int]]:
        """The layout entry that reports each (kind, assignment, student) and
        its position in the draw vector, read from one table of the layout; a
        ValueError for a latent that summarize does not report."""
        table = {(e.kind, self.assignments[e.k], u): (e, e.start + j)
                 for e in self.layout for u, j in zip(e.keys, e.pos.tolist())}
        columns = []
        for kind, a, student in variables:
            column = table.get((kind, a, student))
            if column is None:
                raise ValueError(f"trace variable ({kind!r}, {a}, {student!r}) not tracked by the model")
            columns.append(column)
        return columns


class _ColourClass:
    """Students of one colour class with their grade index arrays.

    recv/give are the grades the members received/gave, *_loc the class-local
    position of the member each grade belongs to, and draws the slice of the
    sweep's draw arrays that the class consumes.
    """

    def __init__(self, idx: _AssignmentIndex, members: np.ndarray, draws: slice) -> None:
        self.members = members
        self.size = members.size
        self.draws = draws
        local = np.full(idx.n_students, -1, dtype=np.intp)
        local[members] = np.arange(members.size)
        self.recv = np.flatnonzero(local[idx.gradee] >= 0)
        self.recv_loc = local[idx.gradee[self.recv]]
        self.recv_grader = idx.grader[self.recv]
        self.give = np.flatnonzero(local[idx.grader] >= 0)
        self.give_loc = local[idx.grader[self.give]]
        self.give_gradee = idx.gradee[self.give]
        self.n_given = idx.n_given[members]


def _colour_classes(idx: _AssignmentIndex) -> list[_ColourClass]:
    """Greedy colouring of the undirected grader-gradee graph.

    Students are visited in index order and each takes the smallest colour
    none of its neighbours holds, so no grade joins two members of one class
    and the classes depend only on the graph.
    """
    n = idx.n_students
    neighbours: list[list[int]] = [[] for _ in range(n)]
    for v, u in zip(idx.grader.tolist(), idx.gradee.tolist()):
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
    order = np.argsort(colour, kind="stable")
    classes, start = [], 0
    for stop in np.cumsum(np.bincount(colour)).tolist():
        classes.append(_ColourClass(idx, order[start:stop], slice(start, stop)))
        start = stop
    return classes


class _Pg3Engine(_Engine):
    """The engine for the score-linked reliability model.

    Overrides the score block and the bias arithmetic, draws no
    reliabilities, and adds the theta step. Scores move by
    Metropolis-within-Gibbs on a chromatic schedule: the conditional of s_i
    involves only its graders (proposal precisions) and its gradees
    (acceptance residuals), so the students of one colour class are
    conditionally independent and take one vectorized Metropolis step
    together, classes in turn. Each row's score normals and exponentials
    are drawn in one call each, laid out class by class. Biases stay
    conjugate, with each grade weighted by the precision at its grader's
    score. One theta serves every row: it moves by joint random-walk
    Metropolis once per sweep under a flat prior restricted to the
    precision-floor feasible region over every row's current scores,
    against the likelihood of every row's grades, on two proposal normals
    and one exponential that close the plan, from row 0's generator.
    """

    def __init__(self, graph: GradingGraph, graders: Sequence[str] | None,
                 resolved: dict[int, Hyperparameters], norm: dict[int, NormalizationParams],
                 cfg: GibbsConfig) -> None:
        super().__init__(graph, graders, resolved, norm, cfg)
        hp = self.hp[0]
        self.classes = [_colour_classes(ix) for ix in self.idx]
        self.theta = (hp.effective_theta0, hp.theta1)
        ref = hp.alpha0 / hp.beta0
        score_scale = max(1.0, abs(hp.mu0) + 4.0 / math.sqrt(hp.gamma0))
        self.sig0 = cfg.mh_proposal_scale * ref
        self.sig1 = cfg.mh_proposal_scale * ref / score_scale
        rows = len(self.idx)  # each row's exponentials follow every row's score normals
        self.plan[rows:rows] = [("e2", k, ix.n_students, _doubled_exponentials) for k, ix in enumerate(self.idx)]
        if cfg.sample_theta:
            self.plan.append(("theta", 0, 3, _theta_variates))

    def _prec(self, s_values: np.ndarray) -> np.ndarray:
        th0, th1 = self.theta
        return np.maximum(th1 * s_values + th0, self.hp[0].precision_floor)

    def _feasible(self, th0: float, th1: float) -> bool:
        ends = [float(end(s)) for s in self.s if s.size for end in (np.min, np.max)]
        return min((th1 * v + th0 for v in ends), default=th0) >= self.hp[0].precision_floor

    def _log_likelihood(self, th0: float, th1: float) -> float:
        total = 0.0
        for idx, s, b in zip(self.idx, self.s, self.b):
            w = th1 * s[idx.grader] + th0  # feasibility guarantees w >= floor > 0
            resid = idx.z - s[idx.gradee] - b[idx.grader]
            total += float(0.5 * np.sum(np.log(w)) - 0.5 * np.sum(w * resid * resid))
        return total

    def sweep(self, v: _Variates) -> None:
        """Every row's scores, then every row's biases, then theta, on the variates in v."""
        for k, classes in enumerate(self.classes):
            self._update_scores(k, v["s"][k], v["e2"][k], classes)
        self._bias_block(v["b"])
        if "theta" in v:  # where the plan samples theta
            self._theta_step(*v["theta"][0].tolist())

    def _update_scores(self, k: int, eps: np.ndarray, e2: np.ndarray, classes: Sequence[_ColourClass]) -> None:
        """One Metropolis step for every member of the given classes of row k,
        class by class, on the row's proposal normals eps and acceptance
        exponentials e2 (of mean 2)."""
        idx = self.idx[k]
        zb = idx.z - self.b[k][idx.grader]
        w = self._prec(self.s[k])
        for c in classes:
            self._class_step(k, c, zb, w, eps, e2)
            self.total_s += c.size

    def _class_step(
        self, k: int, c: _ColourClass, zb: np.ndarray, w: np.ndarray, eps: np.ndarray, e2: np.ndarray
    ) -> None:
        """Same proposal and acceptance as cond_sample_score_affine, for all
        members at once; w holds the precisions of row k's current scores."""
        hp, s = self.hp[k], self.s[k]
        w_recv = w[c.recv_grader]
        prec = hp.gamma0 + np.bincount(c.recv_loc, w_recv, c.size)
        num = hp.gamma0 * hp.mu0 + np.bincount(c.recv_loc, w_recv * zb[c.recv], c.size)
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

    def _bias_likelihood(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        idx, s = self.idx[k], self.s[k]
        w = self._prec(s)[idx.grader]
        return idx.sum_by_grader(w), idx.sum_by_grader(w * (idx.z - s[idx.gradee]))

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
    ahead = sum(row.size for block in first.values() for row in block) >= _DRAW_AHEAD_MIN
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
