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
rate) and then draws from them; coordinate ascent (em.py) sets the same
blocks to their conditional modes. Scalar reference implementations of each
conditional sampler are exposed for distribution-level testing; the engine
implements the same conditionals on arrays.

The engine's layout is the one table of what a fit reports: one entry per
(block, row), listing the reported students or graders, their positions in
the row's array and where the row starts in the draw vector. Each retained
sweep's draw vector feeds the posterior moments; traces and score samples
are views of one array of its columns. Each row carries its normalization,
and NormalizationParams.to_pp maps its values back to percentage points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple, Sequence

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

_MAX_SEED = 2**64 - 1


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
        if not (0 <= self.seed <= _MAX_SEED):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
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
    for g in graph.graders_of(a, student):
        t = state.tau[(a, g.grader)]
        p += t
        num += t * (g.score - state.b[(a, g.grader)])
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
    given = graph.gradees_of(a, grader)
    p = hp.eta0 + len(given) * t
    num = t * sum(g.score - state.s[(a, g.gradee)] for g in given)
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
    given = graph.gradees_of(a, grader)
    rss = sum((g.score - state.s[(a, g.gradee)] - state.b[v]) ** 2 for g in given)
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
    given = graph.gradees_of(T, v)
    p += len(given) * t
    num += t * sum(g.score - state.s[(T, g.gradee)] for g in given)
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
    for g in graph.graders_of(a, student):
        w = max(th1 * state.s[(a, g.grader)] + th0, floor)
        p += w
        num += w * (g.score - state.b[(a, g.grader)])
    prop = float(rng.normal(num / p, math.sqrt(1.0 / p)))

    given = graph.gradees_of(a, student)
    if not given:
        return prop, True
    cur = state.s[u]
    w_old = max(th1 * cur + th0, floor)
    w_new = max(th1 * prop + th0, floor)
    rss = sum((g.score - state.s[(a, g.gradee)] - state.b[u]) ** 2 for g in given)
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
        self.pos = {s: i for i, s in enumerate(self.students)}
        self.n_students = len(self.students)
        self.graders, self.gpos = graders or (self.students, self.pos)
        self.n_graders = len(self.graders)
        grades = graph.grades_in(assignment)
        self.z = np.array([g.score for g in grades], dtype=float)
        self.gradee = np.array([self.pos[g.gradee] for g in grades], dtype=np.intp)
        self.grader = np.array([self.gpos[g.grader] for g in grades], dtype=np.intp)
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


def _normal(rng: np.random.Generator, mean: np.ndarray, prec: np.ndarray) -> np.ndarray:
    """Gaussian draws with the given means and precisions; the same variates
    as rng.normal(mean, 1/sqrt(prec)), without its per-call argument checks."""
    return mean + np.sqrt(1.0 / prec) * rng.standard_normal(mean.shape)


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
    and PG2 and held at the fixed value for PG1-bias. A sweep takes one
    generator per row and row k draws from the k-th.

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

    def sweep(self, rngs: Sequence[np.random.Generator]) -> None:
        """Every row's scores, then every row's biases, then reliabilities."""
        self._score_block(rngs)
        self._bias_block(rngs)
        self._reliability_block(rngs)

    def score_conditional(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Mean and precision of row k's scores given the rest."""
        idx, hp = self.idx[k], self.hp[k]
        w = self.tau[k][idx.grader]
        prec = hp.gamma0 + idx.sum_by_gradee(w)
        num = hp.gamma0 * hp.mu0 + idx.sum_by_gradee(w * (idx.z - self.b[k][idx.grader]))
        return num / prec, prec

    def _score_block(self, rngs: Sequence[np.random.Generator]) -> None:
        for k, rng in enumerate(rngs):
            self.s[k] = _normal(rng, *self.score_conditional(k))

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

    def _bias_block(self, rngs: Sequence[np.random.Generator]) -> None:
        for k, rng in enumerate(rngs):
            self.b[k] = _normal(rng, *self.bias_conditional(k))

    def reliability_conditional(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Gamma shape and rate of row k's reliabilities given the rest."""
        idx = self.idx[k]
        resid = idx.z - self.s[k][idx.gradee] - self.b[k][idx.grader]
        return self.alpha0 + 0.5 * idx.n_given, self.beta0 + 0.5 * idx.sum_by_grader(resid * resid)

    def _reliability_block(self, rngs: Sequence[np.random.Generator]) -> None:
        if not self.infer_tau:
            return
        for k, rng in enumerate(rngs):
            shape, rate = self.reliability_conditional(k)
            self.tau[k] = (1.0 / rate) * rng.standard_gamma(shape)

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

    def locate(self, kind: str, a: int, student: str) -> tuple[_Reported, int]:
        """The layout entry that reports a latent and the latent's position in
        the draw vector; a ValueError for a latent that summarize does not report."""
        for e in self.layout:
            if e.kind == kind and self.assignments[e.k] == a and student in e.keys:
                return e, e.start + int(e.pos[e.keys.index(student)])
        raise ValueError(f"trace variable ({kind!r}, {a}, {student!r}) not tracked by the model")


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

    Overrides the score block, the bias arithmetic and the reliability block.
    Scores move by Metropolis-within-Gibbs on a chromatic schedule: the
    conditional of s_i involves only its graders (proposal precisions) and
    its gradees (acceptance residuals), so the students of one colour class
    are conditionally independent and take one vectorized Metropolis step
    together, classes in turn. Each row's sweep draws its normals and
    exponentials in one call each, laid out class by class. Biases stay
    conjugate, with each grade weighted by the precision at its grader's
    score. One theta serves every row: it moves by joint random-walk
    Metropolis once per sweep, drawing from row 0's generator, under a flat
    prior restricted to the precision-floor feasible region over every
    row's current scores, against the likelihood of every row's grades.
    """

    def __init__(self, graph: GradingGraph, graders: Sequence[str] | None,
                 resolved: dict[int, Hyperparameters], norm: dict[int, NormalizationParams],
                 cfg: GibbsConfig) -> None:
        super().__init__(graph, graders, resolved, norm, cfg)
        hp = self.hp[0]
        self.classes = [_colour_classes(ix) for ix in self.idx]
        self.sample_theta = cfg.sample_theta
        self.theta = (hp.effective_theta0, hp.theta1)
        ref = hp.alpha0 / hp.beta0
        score_scale = max(1.0, abs(hp.mu0) + 4.0 / math.sqrt(hp.gamma0))
        self.sig0 = cfg.mh_proposal_scale * ref
        self.sig1 = cfg.mh_proposal_scale * ref / score_scale

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

    def _score_block(self, rngs: Sequence[np.random.Generator]) -> None:
        for k, rng in enumerate(rngs):
            self._update_scores(k, rng, self.classes[k])

    def _update_scores(self, k: int, rng: np.random.Generator, classes: Sequence[_ColourClass]) -> None:
        """One Metropolis step for every member of the given classes of row k,
        class by class."""
        idx = self.idx[k]
        eps = rng.standard_normal(idx.n_students)
        # e2 = -2 log u for uniform u, so accepting when -2 log(ratio) <= e2
        # accepts with probability min(1, ratio), and always when ratio == 1
        e2 = rng.exponential(2.0, idx.n_students)
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

    def _reliability_block(self, rngs: Sequence[np.random.Generator]) -> None:
        if not self.sample_theta:
            return
        rng = rngs[0]
        self.total_theta += 1
        th0, th1 = self.theta
        prop0 = th0 + float(rng.normal(0.0, self.sig0))
        prop1 = th1 + float(rng.normal(0.0, self.sig1))
        if not self._feasible(prop0, prop1):
            return
        if self._feasible(th0, th1):
            log_ratio = self._log_likelihood(prop0, prop1) - self._log_likelihood(th0, th1)
            if log_ratio < 0.0 and math.log(rng.uniform()) >= log_ratio:
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
    sets values to a view of its retained draws of them in percentage points,
    one row per sweep from first_sweep on, one column per variable.
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
    graders = sorted({g.grader for g in work.grades}) if pg2 else None
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
    order and students in sorted order within each, all drawn from rng.
    Operates in the model's working units, like initial_state.
    """
    engine = _build_engine(graph, hp, cfg)
    engine.load_state(state)
    engine.sweep([rng] * len(engine.assignments))
    out = LatentState(theta=state.theta)
    engine.export_state(out)
    return out


def gibbs_infer(
    graph: GradingGraph,
    hp: Hyperparameters,
    cfg: GibbsConfig,
    trace: TraceRecorder | None = None,
    collect_scores: bool = False,
) -> PosteriorSummary:
    """Run the Gibbs sampler and summarize retained sweeps.

    Deterministic given (graph, hp, cfg.seed): each assignment draws from its
    own generator, spawned off one seed sequence in assignment order, except
    that the chain model's assignments all draw from the first. Posterior
    moments are streamed and reported in percentage points. The traced
    latents, then every score if collect_scores (for sample-based coverage),
    are columns picked from each retained sweep's draw vector into one array;
    trace.values and score_samples are views of it, in percentage points.
    """
    engine = _build_engine(graph, hp, cfg)
    children = np.random.SeedSequence(cfg.seed).spawn(len(engine.assignments))
    rngs = [np.random.Generator(np.random.PCG64(c)) for c in children]
    if engine.chained:
        rngs = rngs[:1] * len(rngs)

    variables = trace.variables if trace is not None else []
    columns = [engine.locate(*v) for v in variables]  # (layout entry, draw-vector position) each
    scored = [e for e in engine.layout if collect_scores and e.kind == "s"]
    columns += [(e, e.start + j) for e in scored for j in e.pos.tolist()]
    picked = np.array([at for _, at in columns], dtype=np.intp)
    record = np.empty((cfg.retained_sweeps, picked.size))

    for sweep_no in range(1, cfg.total_sweeps + 1):
        engine.sweep(rngs)
        if sweep_no > cfg.burn_in:
            record[sweep_no - cfg.burn_in - 1] = engine.accumulate()[picked]

    for j, (e, _) in enumerate(columns):
        record[:, j] = engine.norm[e.k].to_pp(e.kind, record[:, j])[0]
    if trace is not None:
        trace.values, trace.first_sweep = record[:, :len(variables)], cfg.burn_in + 1
    score_samples = None
    if collect_scores:
        keys = [(engine.assignments[e.k], student) for e in scored for student in e.keys]
        score_samples = dict(zip(keys, record[:, len(variables):].T))
    blocks: dict[str, dict[int, StatColumn]] = {"s": {}, "b": {}, "tau": {}}
    theta = engine.summarize(blocks)
    summary = PosteriorSummary(
        model=cfg.model,
        s=StatBlock(blocks["s"]),
        b=StatBlock(blocks["b"]),
        tau=StatBlock(blocks["tau"]),
        n_samples=cfg.retained_sweeps,
        score_samples=score_samples,
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
