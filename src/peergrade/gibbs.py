"""Gibbs samplers for the grading models.

One systematic-scan sweep updates every true score, then every grader bias,
then every reliability (where inferred), then the reliability-line
coefficients (score-linked model). Blocks that are conditionally independent
given the rest are drawn as vectorized batches. The score-linked model's
scores are not: each student's score enters the likelihood precisions of the
grades they gave. Its score block therefore runs on a chromatic schedule
(Gonzalez et al., "Parallel Gibbs Sampling: From Colored Fields to Thin
Junction Trees", AISTATS 2011): students are greedily coloured so that no
grade joins two students of one colour, and each colour class takes one
vectorized Metropolis step, which is a sequential scan in class order.

Scalar reference implementations of each conditional sampler are exposed for
distribution-level testing; the engines implement the same conditionals on
arrays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import (
    GradingGraph,
    Hyperparameters,
    LatentState,
    Model,
    NormalizationParams,
    PosteriorSummary,
    VariableStat,
    prepare_graph,
    resolve_priors,
)

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


def _received(graph: GradingGraph, a: int, student: str):
    return [g for g in graph.graders_of(a, student) if not g.is_self_grade]


def _given(graph: GradingGraph, a: int, grader: str):
    return [g for g in graph.gradees_of(a, grader) if not g.is_self_grade]


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
    for g in _received(graph, a, student):
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
    given = _given(graph, a, grader)
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
    given = _given(graph, a, grader)
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
    given = _given(graph, T, v)
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
    for g in _received(graph, a, student):
        w = max(th1 * state.s[(a, g.grader)] + th0, floor)
        p += w
        num += w * (g.score - state.b[(a, g.grader)])
    prop = float(rng.normal(num / p, math.sqrt(1.0 / p)))

    given = _given(graph, a, student)
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
# array engines
# ---------------------------------------------------------------------------


class _AssignmentIndex:
    """Array view of one assignment: grade triples as index arrays plus
    per-student grade counts."""

    def __init__(
        self,
        graph: GradingGraph,
        assignment: int,
        grader_pos: dict[str, int] | None = None,
    ) -> None:
        self.assignment = assignment
        self.students = list(graph.submissions(assignment))
        self.pos = {s: i for i, s in enumerate(self.students)}
        self.n_students = len(self.students)
        grades = graph.grades_in(assignment)
        self.z = np.array([g.score for g in grades], dtype=float)
        self.gradee = np.array([self.pos[g.gradee] for g in grades], dtype=np.intp)
        if grader_pos is None:
            grader_pos = self.pos
        self.n_graders = len(grader_pos)
        self.grader = np.array([grader_pos[g.grader] for g in grades], dtype=np.intp)
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
    """Streaming first and second moments of an array drawn once per sweep."""

    def __init__(self, size: int) -> None:
        self.sum = np.zeros(size)
        self.sumsq = np.zeros(size)
        self.n = 0

    def add(self, values: np.ndarray) -> None:
        self.sum += values
        self.sumsq += values * values
        self.n += 1

    def stats(self, scale: float = 1.0, shift: float = 0.0) -> list[VariableStat]:
        """Moments of shift + scale*x per element."""
        mean = self.sum / self.n
        var = np.maximum(self.sumsq / self.n - mean * mean, 0.0)
        return [
            VariableStat(mean=shift + scale * m, var=scale * scale * v, n=self.n)
            for m, v in zip(mean, var)
        ]


class _Pg1Engine:
    """Single-assignment engine for the fixed-reliability and per-grader
    reliability models (graders index into the same student list)."""

    def __init__(self, graph: GradingGraph, assignment: int, hp: Hyperparameters, model: Model) -> None:
        self.idx = _AssignmentIndex(graph, assignment)
        self.hp = hp
        self.infer_tau = model is Model.PG1
        self.s = self.idx.mean_received(hp.mu0)
        self.b = np.zeros(self.idx.n_students)
        tau0 = hp.alpha0 / hp.beta0 if self.infer_tau else hp.effective_tau_fixed
        self.tau = np.full(self.idx.n_students, tau0)
        n = self.idx.n_students
        self.acc_s = _Accumulator(n)
        self.acc_b = _Accumulator(n)
        self.acc_tau = _Accumulator(n) if self.infer_tau else None

    def sweep(self, rng: np.random.Generator) -> None:
        hp, idx = self.hp, self.idx
        w = self.tau[idx.grader]
        prec = hp.gamma0 + idx.sum_by_gradee(w)
        num = hp.gamma0 * hp.mu0 + idx.sum_by_gradee(w * (idx.z - self.b[idx.grader]))
        self.s = rng.normal(num / prec, np.sqrt(1.0 / prec))

        prec_b = hp.eta0 + idx.n_given * self.tau
        num_b = self.tau * idx.sum_by_grader(idx.z - self.s[idx.gradee])
        self.b = rng.normal(num_b / prec_b, np.sqrt(1.0 / prec_b))

        if self.infer_tau:
            resid = idx.z - self.s[idx.gradee] - self.b[idx.grader]
            shape = hp.alpha0 + 0.5 * idx.n_given
            rate = hp.beta0 + 0.5 * idx.sum_by_grader(resid * resid)
            self.tau = rng.gamma(shape, 1.0 / rate)

    def accumulate(self) -> None:
        self.acc_s.add(self.s)
        self.acc_b.add(self.b)
        if self.acc_tau is not None:
            self.acc_tau.add(self.tau)

    def load_state(self, state: LatentState) -> None:
        a = self.idx.assignment
        for i, student in enumerate(self.idx.students):
            key = (a, student)
            if key in state.s:
                self.s[i] = state.s[key]
            if key in state.b:
                self.b[i] = state.b[key]
            if key in state.tau:
                self.tau[i] = state.tau[key]

    def export_state(self, state: LatentState) -> None:
        a = self.idx.assignment
        grades_given = self.idx.n_given > 0
        for i, student in enumerate(self.idx.students):
            state.s[(a, student)] = float(self.s[i])
            if grades_given[i]:
                state.b[(a, student)] = float(self.b[i])
                if self.infer_tau:
                    state.tau[(a, student)] = float(self.tau[i])

    def summarize(self, summary: PosteriorSummary) -> None:
        a = self.idx.assignment
        s_stats = self.acc_s.stats()
        b_stats = self.acc_b.stats()
        tau_stats = self.acc_tau.stats() if self.acc_tau is not None else None
        grades_given = self.idx.n_given > 0
        for i, student in enumerate(self.idx.students):
            summary.s[(a, student)] = s_stats[i]
            if grades_given[i]:
                summary.b[(a, student)] = b_stats[i]
                if tau_stats is not None:
                    summary.tau[(a, student)] = tau_stats[i]

    def trace_resolver(self, kind: str, a: int, student: str) -> Callable[[], float] | None:
        if a != self.idx.assignment or student not in self.idx.pos:
            return None
        i = self.idx.pos[student]
        if kind == "s":
            return lambda: float(self.s[i])
        if kind == "b":
            return lambda: float(self.b[i])
        if kind == "tau" and self.infer_tau:
            return lambda: float(self.tau[i])
        return None

    def sample_spec(self):
        return [(self.idx.assignment, self.idx.students, lambda: self.s, 1.0, 0.0)]


class _Pg2Engine:
    """Joint engine for the random-walk bias model: per-assignment scores and
    reliabilities, bias chains across assignments for each grader.

    Works in whatever units the graph carries (z-scores unless
    assume_normalized); summaries are mapped back to percentage points with
    the per-assignment normalization params (identity where absent).
    """

    def __init__(
        self,
        graph: GradingGraph,
        resolved: dict[int, Hyperparameters],
        norm: dict[int, NormalizationParams],
    ) -> None:
        self.assignments = list(graph.assignments)
        self.hp = resolved
        base = resolved[self.assignments[0]]
        self.eta0, self.omega0 = base.eta0, base.omega0
        self.alpha0, self.beta0 = base.alpha0, base.beta0
        self.norm = norm
        self.graders = sorted({g.grader for g in graph.grades})
        gpos = {v: i for i, v in enumerate(self.graders)}
        self.idx = [_AssignmentIndex(graph, a, grader_pos=gpos) for a in self.assignments]
        K, G = len(self.assignments), len(self.graders)
        self.s = [self.idx[k].mean_received(self.hp[a].mu0) for k, a in enumerate(self.assignments)]
        self.b = np.zeros((K, G))
        self.tau = np.full((K, G), self.alpha0 / self.beta0)
        self.acc_s = [_Accumulator(ix.n_students) for ix in self.idx]
        self.acc_b = _Accumulator(K * G)
        self.acc_tau = _Accumulator(K * G)

    def sweep(self, rng: np.random.Generator) -> None:
        K = len(self.assignments)
        for k in range(K):
            idx, hp = self.idx[k], self.hp[self.assignments[k]]
            w = self.tau[k][idx.grader]
            prec = hp.gamma0 + idx.sum_by_gradee(w)
            num = hp.gamma0 * hp.mu0 + idx.sum_by_gradee(w * (idx.z - self.b[k][idx.grader]))
            self.s[k] = rng.normal(num / prec, np.sqrt(1.0 / prec))

        for k in range(K):
            idx = self.idx[k]
            resid_sum = idx.sum_by_grader(idx.z - self.s[k][idx.gradee])
            if k == 0:
                prec = np.full(idx.n_graders, self.eta0)
                num = np.zeros(idx.n_graders)
            else:
                prec = np.full(idx.n_graders, self.omega0)
                num = self.omega0 * self.b[k - 1].copy()
            if k + 1 < K:
                prec += self.omega0
                num += self.omega0 * self.b[k + 1]
            prec += idx.n_given * self.tau[k]
            num += self.tau[k] * resid_sum
            self.b[k] = rng.normal(num / prec, np.sqrt(1.0 / prec))

        for k in range(K):
            idx = self.idx[k]
            resid = idx.z - self.s[k][idx.gradee] - self.b[k][idx.grader]
            shape = self.alpha0 + 0.5 * idx.n_given
            rate = self.beta0 + 0.5 * idx.sum_by_grader(resid * resid)
            self.tau[k] = rng.gamma(shape, 1.0 / rate)

    def accumulate(self) -> None:
        for acc, s in zip(self.acc_s, self.s):
            acc.add(s)
        self.acc_b.add(self.b.ravel())
        self.acc_tau.add(self.tau.ravel())

    def _norm_of(self, a: int) -> NormalizationParams:
        return self.norm.get(a) or NormalizationParams(mean=0.0, std=1.0)

    def load_state(self, state: LatentState) -> None:
        for k, a in enumerate(self.assignments):
            idx = self.idx[k]
            for i, student in enumerate(idx.students):
                if (a, student) in state.s:
                    self.s[k][i] = state.s[(a, student)]
            for j, grader in enumerate(self.graders):
                if (a, grader) in state.b:
                    self.b[k, j] = state.b[(a, grader)]
                if (a, grader) in state.tau:
                    self.tau[k, j] = state.tau[(a, grader)]

    def export_state(self, state: LatentState) -> None:
        for k, a in enumerate(self.assignments):
            idx = self.idx[k]
            for i, student in enumerate(idx.students):
                state.s[(a, student)] = float(self.s[k][i])
            for j, grader in enumerate(self.graders):
                state.b[(a, grader)] = float(self.b[k, j])
                if idx.n_given[j] > 0:
                    state.tau[(a, grader)] = float(self.tau[k, j])

    def summarize(self, summary: PosteriorSummary) -> None:
        K, G = len(self.assignments), len(self.graders)
        b_stats = self.acc_b.stats()
        tau_stats = self.acc_tau.stats()
        for k, a in enumerate(self.assignments):
            p = self._norm_of(a)
            sd, var_scale = p.std, p.std * p.std
            s_stats = self.acc_s[k].stats(scale=sd, shift=p.mean)
            for i, student in enumerate(self.idx[k].students):
                summary.s[(a, student)] = s_stats[i]
            for j, grader in enumerate(self.graders):
                st = b_stats[k * G + j]
                summary.b[(a, grader)] = VariableStat(sd * st.mean, var_scale * st.var, st.n)
                if self.idx[k].n_given[j] > 0:
                    tt = tau_stats[k * G + j]
                    summary.tau[(a, grader)] = VariableStat(
                        tt.mean / var_scale, tt.var / (var_scale * var_scale), tt.n
                    )

    def trace_resolver(self, kind: str, a: int, student: str) -> Callable[[], float] | None:
        if a not in self.assignments:
            return None
        k = self.assignments.index(a)
        p = self._norm_of(a)
        if kind == "s" and student in self.idx[k].pos:
            i = self.idx[k].pos[student]
            return lambda: p.mean + p.std * float(self.s[k][i])
        if student in self.graders:
            j = self.graders.index(student)
            if kind == "b":
                return lambda: p.std * float(self.b[k, j])
            if kind == "tau" and self.idx[k].n_given[j] > 0:
                return lambda: float(self.tau[k, j]) / (p.std * p.std)
        return None

    def sample_spec(self):
        spec = []
        for k, a in enumerate(self.assignments):
            p = self._norm_of(a)
            spec.append((a, self.idx[k].students, lambda k=k: self.s[k], p.std, p.mean))
        return spec


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


class _Pg3Engine:
    """Single-assignment engine for the score-linked reliability model.

    Scores move by Metropolis-within-Gibbs on a chromatic schedule: the
    conditional of s_i involves only its graders (proposal precisions) and
    its gradees (acceptance residuals), so the students of one colour class
    are conditionally independent and take one vectorized Metropolis step
    together, classes in turn. Each sweep draws its normals and exponentials
    in one call each, laid out class by class. Biases are a vectorized
    conjugate block; theta moves by joint random-walk Metropolis once per
    sweep under a flat prior restricted to the precision-floor feasible
    region over current scores.
    """

    def __init__(self, graph: GradingGraph, assignment: int, hp: Hyperparameters, cfg: GibbsConfig) -> None:
        self.idx = _AssignmentIndex(graph, assignment)
        self.classes = _colour_classes(self.idx)
        self.hp = hp
        self.sample_theta = cfg.sample_theta
        self.s = self.idx.mean_received(hp.mu0)
        self.b = np.zeros(self.idx.n_students)
        self.th0 = hp.effective_theta0
        self.th1 = hp.theta1
        ref = hp.alpha0 / hp.beta0
        score_scale = max(1.0, abs(hp.mu0) + 4.0 / math.sqrt(hp.gamma0))
        self.sig0 = cfg.mh_proposal_scale * ref
        self.sig1 = cfg.mh_proposal_scale * ref / score_scale
        n = self.idx.n_students
        self.acc_s = _Accumulator(n)
        self.acc_b = _Accumulator(n)
        self.acc_theta = _Accumulator(2)
        self.accept_s = 0
        self.total_s = 0
        self.accept_theta = 0
        self.total_theta = 0

    def _prec(self, s_values: np.ndarray) -> np.ndarray:
        return np.maximum(self.th1 * s_values + self.th0, self.hp.precision_floor)

    def _feasible(self, th0: float, th1: float) -> bool:
        if self.s.size == 0:
            return th0 >= self.hp.precision_floor
        lo = th1 * float(self.s.min()) + th0
        hi = th1 * float(self.s.max()) + th0
        return min(lo, hi) >= self.hp.precision_floor

    def _log_likelihood(self, th0: float, th1: float) -> float:
        idx = self.idx
        w = th1 * self.s[idx.grader] + th0  # feasibility guarantees w >= floor > 0
        resid = idx.z - self.s[idx.gradee] - self.b[idx.grader]
        return float(0.5 * np.sum(np.log(w)) - 0.5 * np.sum(w * resid * resid))

    def _update_scores(self, rng: np.random.Generator, classes: Sequence[_ColourClass]) -> np.ndarray:
        """One Metropolis step for every member of the given classes, class by
        class; returns the precisions of the updated scores."""
        idx = self.idx
        eps = rng.standard_normal(idx.n_students)
        # e2 = -2 log u for uniform u, so accepting when -2 log(ratio) <= e2
        # accepts with probability min(1, ratio), and always when ratio == 1
        e2 = rng.exponential(2.0, idx.n_students)
        zb = idx.z - self.b[idx.grader]
        w = self._prec(self.s)
        for c in classes:
            self._class_step(c, zb, w, eps, e2)
            self.total_s += c.size
        return w

    def _class_step(
        self, c: _ColourClass, zb: np.ndarray, w: np.ndarray, eps: np.ndarray, e2: np.ndarray
    ) -> None:
        """Same proposal and acceptance as cond_sample_score_affine, for all
        members at once; w holds the precisions of the current scores."""
        hp, s = self.hp, self.s
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

    def sweep(self, rng: np.random.Generator) -> None:
        hp, idx = self.hp, self.idx
        w = self._update_scores(rng, self.classes)[idx.grader]
        prec_b = hp.eta0 + idx.sum_by_grader(w)
        num_b = idx.sum_by_grader(w * (idx.z - self.s[idx.gradee]))
        self.b = rng.normal(num_b / prec_b, np.sqrt(1.0 / prec_b))

        if self.sample_theta:
            self._theta_step(rng)

    def _theta_step(self, rng: np.random.Generator) -> None:
        self.total_theta += 1
        prop0 = self.th0 + float(rng.normal(0.0, self.sig0))
        prop1 = self.th1 + float(rng.normal(0.0, self.sig1))
        if not self._feasible(prop0, prop1):
            return
        if self._feasible(self.th0, self.th1):
            log_ratio = self._log_likelihood(prop0, prop1) - self._log_likelihood(self.th0, self.th1)
            if log_ratio < 0.0 and math.log(rng.uniform()) >= log_ratio:
                return
        self.th0, self.th1 = prop0, prop1
        self.accept_theta += 1

    def accumulate(self) -> None:
        self.acc_s.add(self.s)
        self.acc_b.add(self.b)
        self.acc_theta.add(np.array([self.th0, self.th1]))

    def load_state(self, state: LatentState) -> None:
        a = self.idx.assignment
        for i, student in enumerate(self.idx.students):
            if (a, student) in state.s:
                self.s[i] = state.s[(a, student)]
            if (a, student) in state.b:
                self.b[i] = state.b[(a, student)]
        if state.theta is not None:
            self.th0, self.th1 = state.theta

    def export_state(self, state: LatentState) -> None:
        a = self.idx.assignment
        grades_given = self.idx.n_given > 0
        for i, student in enumerate(self.idx.students):
            state.s[(a, student)] = float(self.s[i])
            if grades_given[i]:
                state.b[(a, student)] = float(self.b[i])
        state.theta = (self.th0, self.th1)

    def summarize(self, summary: PosteriorSummary) -> None:
        a = self.idx.assignment
        s_stats = self.acc_s.stats()
        b_stats = self.acc_b.stats()
        grades_given = self.idx.n_given > 0
        for i, student in enumerate(self.idx.students):
            summary.s[(a, student)] = s_stats[i]
            if grades_given[i]:
                summary.b[(a, student)] = b_stats[i]
        th_stats = self.acc_theta.stats()
        summary.theta = {"theta0": th_stats[0], "theta1": th_stats[1]}

    def trace_resolver(self, kind: str, a: int, student: str) -> Callable[[], float] | None:
        if a != self.idx.assignment or student not in self.idx.pos:
            return None
        i = self.idx.pos[student]
        if kind == "s":
            return lambda: float(self.s[i])
        if kind == "b":
            return lambda: float(self.b[i])
        return None

    def sample_spec(self):
        return [(self.idx.assignment, self.idx.students, lambda: self.s, 1.0, 0.0)]


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


@dataclass
class TraceRecorder:
    """Captures per-sweep values of selected latents during inference.

    variables holds (kind, assignment, student) with kind in {s, b, tau};
    rows accumulate (sweep, var_kind, assignment, student, value) for every
    retained sweep, in percentage points.
    """

    variables: Sequence[tuple[str, int, str]]
    rows: list[tuple[int, str, int, str, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        for kind, _, _ in self.variables:
            if kind not in ("s", "b", "tau"):
                raise ValueError(f"unknown trace variable kind {kind!r}")


def _build_engines(graph: GradingGraph, hp: Hyperparameters, cfg: GibbsConfig):
    work, norm = prepare_graph(graph, cfg.model, cfg.assume_normalized)
    normalized = cfg.model is Model.PG2 and not cfg.assume_normalized
    resolved = resolve_priors(work, hp, normalized=normalized)
    if cfg.model is Model.PG2:
        return [_Pg2Engine(work, resolved, norm)]
    engines = []
    for a in work.assignments:
        if cfg.model is Model.PG3:
            engines.append(_Pg3Engine(work, a, resolved[a], cfg))
        else:
            engines.append(_Pg1Engine(work, a, resolved[a], cfg.model))
    return engines


def initial_state(graph: GradingGraph, hp: Hyperparameters, cfg: GibbsConfig) -> LatentState:
    """Deterministic starting point: scores at the mean of received grades,
    biases at zero, reliabilities at the prior mean (or the fixed value).

    Values are in the model's working units (z-scores for the chain model
    unless assume_normalized).
    """
    state = LatentState()
    for engine in _build_engines(graph, hp, cfg):
        engine.export_state(state)
    return state


def sweep(
    state: LatentState,
    graph: GradingGraph,
    hp: Hyperparameters,
    cfg: GibbsConfig,
    rng: np.random.Generator,
) -> LatentState:
    """One systematic scan over all latents; returns a new state.

    Assignments are visited in ascending order, students in sorted order
    within each block. Operates in the model's working units, like
    initial_state.
    """
    engines = _build_engines(graph, hp, cfg)
    for engine in engines:
        engine.load_state(state)
        engine.sweep(rng)
    out = LatentState(theta=state.theta)
    for engine in engines:
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

    Deterministic given (graph, hp, cfg.seed): per-assignment chains draw from
    generators spawned off one seed sequence in assignment order. Posterior
    moments are streamed and reported in percentage points. collect_scores
    additionally stores every retained score draw (for sample-based coverage)
    at the cost of retained_sweeps x n_submissions floats.
    """
    engines = _build_engines(graph, hp, cfg)
    children = np.random.SeedSequence(cfg.seed).spawn(len(engines))
    rngs = [np.random.Generator(np.random.PCG64(c)) for c in children]

    resolvers = []
    if trace is not None:
        for kind, a, student in trace.variables:
            resolver = None
            for engine in engines:
                resolver = engine.trace_resolver(kind, a, student)
                if resolver is not None:
                    break
            if resolver is None:
                raise ValueError(f"trace variable ({kind!r}, {a}, {student!r}) not tracked by the model")
            resolvers.append((kind, a, student, resolver))

    buffers = []
    if collect_scores:
        for engine in engines:
            for a, students, getter, scale, shift in engine.sample_spec():
                buffers.append((a, students, getter, scale, shift,
                                np.empty((cfg.retained_sweeps, len(students)))))

    for sweep_no in range(1, cfg.total_sweeps + 1):
        for engine, rng in zip(engines, rngs):
            engine.sweep(rng)
        if sweep_no > cfg.burn_in:
            for engine in engines:
                engine.accumulate()
            if trace is not None:
                for kind, a, student, resolve in resolvers:
                    trace.rows.append((sweep_no, kind, a, student, resolve()))
            for a, students, getter, scale, shift, buf in buffers:
                buf[sweep_no - cfg.burn_in - 1] = getter()

    summary = PosteriorSummary(model=cfg.model, s={}, b={}, tau={}, n_samples=cfg.retained_sweeps)
    if collect_scores:
        summary.score_samples = {}
        for a, students, getter, scale, shift, buf in buffers:
            converted = shift + scale * buf
            for i, student in enumerate(students):
                summary.score_samples[(a, student)] = converted[:, i]
    for engine in engines:
        engine.summarize(summary)
    accept = sum(getattr(e, "accept_s", 0) for e in engines)
    total = sum(getattr(e, "total_s", 0) for e in engines)
    if total:
        summary.mh_acceptance = accept / total
    accept_t = sum(getattr(e, "accept_theta", 0) for e in engines)
    total_t = sum(getattr(e, "total_theta", 0) for e in engines)
    if total_t:
        summary.theta_acceptance = accept_t / total_t
    return summary
