"""Core data model for peer-grading networks.

Defines the grading graph (who graded whom, with what score), the model
identifiers, prior hyperparameters with data-driven resolution, latent-state
containers, posterior summaries, and per-assignment z-score normalization.
Scores are percentages on a 0..100 scale unless a graph has been normalized.

Posterior summaries hold their moments as arrays: each block (scores, biases,
reliabilities) is a read-only mapping over one column per assignment, and a
lookup builds the VariableStat of one latent on demand.
"""
from __future__ import annotations

import math
from collections.abc import ItemsView
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, TypeVar

import numpy as np

V = TypeVar("V")

__all__ = [
    "Model",
    "PeerGrade",
    "GroundTruth",
    "GradingGraph",
    "NormalizationParams",
    "Hyperparameters",
    "LatentState",
    "VariableStat",
    "StatColumn",
    "StatBlock",
    "PosteriorSummary",
    "exclude_self_grades",
    "zscore_normalize",
    "normalize_all",
    "denormalize",
    "resolve_priors",
]


class Model(Enum):
    """The four grading models, in increasing order of structure."""

    PG1_BIAS = "pg1bias"  # per-grader bias, shared fixed reliability
    PG1 = "pg1"  # per-grader bias and per-grader reliability
    PG2 = "pg2"  # grader bias follows a random walk across assignments
    PG3 = "pg3"  # reliability is an affine function of the grader's own score

    @classmethod
    def from_string(cls, name: str) -> "Model":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(m.value for m in cls)
            raise ValueError(f"unknown model {name!r}; expected one of: {valid}") from None

    @property
    def has_reliability(self) -> bool:
        """Whether the model samples per-grader precision variables."""
        return self in (Model.PG1, Model.PG2)


@dataclass(frozen=True)
class PeerGrade:
    """One observed grade: grader scores gradee's submission in an assignment."""

    assignment: int
    grader: str
    gradee: str
    score: float
    seconds: float | None = None  # optional grading time, used by analytics only

    def __post_init__(self) -> None:
        if not isinstance(self.assignment, int) or isinstance(self.assignment, bool):
            raise ValueError(f"assignment id must be an int, got {self.assignment!r}")
        if self.assignment < 1:
            raise ValueError(f"assignment id must be >= 1, got {self.assignment}")
        if not self.grader or not self.gradee:
            raise ValueError("grader and gradee ids must be non-empty strings")
        if not math.isfinite(self.score):
            raise ValueError(f"grade score must be finite, got {self.score!r}")
        if self.seconds is not None and (not math.isfinite(self.seconds) or self.seconds < 0):
            raise ValueError(f"grading seconds must be finite and >= 0, got {self.seconds!r}")

    @property
    def is_self_grade(self) -> bool:
        return self.grader == self.gradee


@dataclass(frozen=True)
class GroundTruth:
    """Reference scores for one submission: staff grade and/or peer consensus."""

    consensus_score: float
    staff_score: float | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.consensus_score):
            raise ValueError("consensus score must be finite")
        if self.staff_score is not None and not math.isfinite(self.staff_score):
            raise ValueError("staff score must be finite")


@dataclass(frozen=True)
class NormalizationParams:
    """Affine map for one assignment: z = (score - mean) / std."""

    mean: float
    std: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.mean) or not math.isfinite(self.std):
            raise ValueError("normalization parameters must be finite")
        if self.std <= 0:
            raise ValueError(f"normalization std must be positive, got {self.std}")

    def to_pp(self, kind: str, mean, var=0.0):
        """Map the mean and variance of a score ("s"), a bias ("b") or a
        precision ("tau") from z-units back to percentage points: scores
        shift and scale, biases scale, precisions scale inversely. Takes
        floats or arrays."""
        sd2 = self.std * self.std
        if kind == "s":
            return self.mean + self.std * mean, sd2 * var
        if kind == "b":
            return self.std * mean, sd2 * var
        return mean / sd2, var / (sd2 * sd2)


IDENTITY_NORMALIZATION = NormalizationParams(mean=0.0, std=1.0)  # for graphs fit in percentage points


class GradingGraph:
    """Immutable bipartite-per-assignment grading network of peer grades.

    Nodes are (assignment, student) submissions; edges are observed peer
    grades. The graph is the one place self-grades are dropped: every input
    row, self-grades included, is checked for duplicates and counts toward the
    submission universe, and then only grades whose grader is not the gradee
    are kept, in input order. The submission universe defaults to every
    student appearing as a grader or gradee, but can be given explicitly so
    that students (or whole assignments) without grades stay addressable,
    which leave-one-out evaluation and the random-walk bias chain rely on.
    """

    def __init__(
        self,
        grades: Iterable[PeerGrade],
        ground_truth: Mapping[tuple[int, str], GroundTruth] | None = None,
        submissions: Mapping[int, Iterable[str]] | None = None,
    ) -> None:
        rows = tuple(grades)
        seen: set[tuple[int, str, str]] = set()
        derived: dict[int, set[str]] = {}
        for g in rows:
            key = (g.assignment, g.grader, g.gradee)
            if key in seen:
                raise ValueError(
                    f"duplicate grade: grader {g.grader!r} already graded "
                    f"{g.gradee!r} in assignment {g.assignment}"
                )
            seen.add(key)
            derived.setdefault(g.assignment, set()).update((g.grader, g.gradee))
        self._grades: tuple[PeerGrade, ...] = tuple(g for g in rows if not g.is_self_grade)
        self._n_self_grades = len(rows) - len(self._grades)

        by_assignment: dict[int, list[PeerGrade]] = {}
        for g in self._grades:
            by_assignment.setdefault(g.assignment, []).append(g)
        self._by_assignment = {a: tuple(gs) for a, gs in by_assignment.items()}

        if submissions is not None:
            subs = {int(a): set(studs) for a, studs in submissions.items()}
            for a in subs:
                if a < 1:
                    raise ValueError(f"assignment id must be >= 1, got {a}")
            for a, studs in derived.items():
                if a not in subs:
                    raise ValueError(f"grades reference assignment {a} missing from the submission universe")
                missing = studs - subs[a]
                if missing:
                    raise ValueError(
                        f"grades reference students without submissions in assignment {a}: "
                        f"{sorted(missing)[:5]}"
                    )
        else:
            subs = derived
        self._submissions: dict[int, tuple[str, ...]] = {
            a: tuple(sorted(studs)) for a, studs in sorted(subs.items())
        }

        self._truth: dict[tuple[int, str], GroundTruth] = dict(ground_truth or {})
        for (a, student) in self._truth:
            if a not in self._submissions or student not in set(self._submissions[a]):
                raise ValueError(f"ground truth references unknown submission ({a}, {student!r})")

    # -- basic views ------------------------------------------------------

    @property
    def grades(self) -> tuple[PeerGrade, ...]:
        """All peer grades in input order."""
        return self._grades

    @property
    def n_self_grades(self) -> int:
        """How many input rows were self-grades and were dropped."""
        return self._n_self_grades

    @property
    def assignments(self) -> tuple[int, ...]:
        """Assignment ids in ascending order."""
        return tuple(self._submissions)

    @property
    def ground_truth(self) -> Mapping[tuple[int, str], GroundTruth]:
        return dict(self._truth)

    @property
    def n_grades(self) -> int:
        return len(self._grades)

    def submissions(self, assignment: int) -> tuple[str, ...]:
        """Students with a submission in the assignment, sorted by id."""
        try:
            return self._submissions[assignment]
        except KeyError:
            raise KeyError(f"unknown assignment {assignment}") from None

    def grades_in(self, assignment: int) -> tuple[PeerGrade, ...]:
        """Grades of one assignment, in input order."""
        return self._by_assignment.get(assignment, ())

    def graders_of(self, assignment: int, gradee: str) -> tuple[PeerGrade, ...]:
        """Grades received by a submission, in input order."""
        return tuple(g for g in self.grades_in(assignment) if g.gradee == gradee)

    def gradees_of(self, assignment: int, grader: str) -> tuple[PeerGrade, ...]:
        """Grades given by a grader in an assignment, in input order."""
        return tuple(g for g in self.grades_in(assignment) if g.grader == grader)

    def scores_in(self, assignment: int) -> np.ndarray:
        return np.array([g.score for g in self.grades_in(assignment)], dtype=float)

    # -- derived graphs ----------------------------------------------------

    def with_grades(self, grades: Iterable[PeerGrade]) -> "GradingGraph":
        """A copy holding different grades but the same universe and truth."""
        return GradingGraph(
            grades,
            ground_truth=self._truth,
            submissions={a: studs for a, studs in self._submissions.items()},
        )

    def without_received(self, assignment: int, gradee: str) -> "GradingGraph":
        """Drop every grade received by one submission (leave-one-out step)."""
        kept = [g for g in self._grades if not (g.assignment == assignment and g.gradee == gradee)]
        return self.with_grades(kept)

    def __len__(self) -> int:
        return len(self._grades)

    def __repr__(self) -> str:
        n_subs = sum(len(s) for s in self._submissions.values())
        return (
            f"GradingGraph(assignments={len(self._submissions)}, "
            f"submissions={n_subs}, grades={len(self._grades)}, "
            f"ground_truth={len(self._truth)})"
        )


def exclude_self_grades(graph: GradingGraph) -> tuple[GradingGraph, int]:
    """The graph and how many self-grades building it dropped; a GradingGraph
    never holds a self-grade, so the graph is returned as it is."""
    return graph, graph.n_self_grades


def _zscore_params(scores: np.ndarray, assignment: int) -> NormalizationParams:
    """Mean and population std of one assignment's grades; errors on fewer
    than two grades or zero score variance, where the transform is undefined."""
    if scores.size < 2:
        raise ValueError(
            f"cannot normalize assignment {assignment}: needs at least 2 grades, has {scores.size}"
        )
    mean = float(np.mean(scores))
    std = float(np.std(scores))  # population std, ddof=0
    if std == 0.0:
        raise ValueError(f"degenerate assignment {assignment}: all grades equal ({mean})")
    return NormalizationParams(mean=mean, std=std)


def _apply_zscores(graph: GradingGraph, params: Mapping[int, NormalizationParams]) -> GradingGraph:
    """One graph with every grade of the given assignments z-scored."""
    if not params:
        return graph
    out = []
    for g in graph.grades:
        p = params.get(g.assignment)
        out.append(g if p is None else PeerGrade(g.assignment, g.grader, g.gradee,
                                                   (g.score - p.mean) / p.std, g.seconds))
    return graph.with_grades(out)


def zscore_normalize(graph: GradingGraph, assignment: int) -> tuple[GradingGraph, NormalizationParams]:
    """Z-score every grade of one assignment by its own mean and population std.

    Errors on assignments with fewer than two grades or zero score variance,
    where the transform is undefined.
    """
    params = _zscore_params(graph.scores_in(assignment), assignment)
    return _apply_zscores(graph, {assignment: params}), params


def normalize_all(graph: GradingGraph) -> tuple[GradingGraph, dict[int, NormalizationParams]]:
    """Z-score every assignment that has grades; empty assignments pass through.

    Computes every assignment's parameters first, then builds one graph.
    """
    params = {a: _zscore_params(graph.scores_in(a), a) for a in graph.assignments if graph.grades_in(a)}
    return _apply_zscores(graph, params), params


def denormalize(score: float, params: NormalizationParams) -> float:
    """Invert the z-score map: pp = mean + std * z."""
    return params.to_pp("s", score)[0]


@dataclass(frozen=True)
class Hyperparameters:
    """Prior hyperparameters shared by all models.

    mu0/gamma0 left as None are resolved per assignment from the observed
    grades (mean, and reciprocal population variance). tau_fixed and theta0
    default to the reliability prior mean alpha0/beta0.
    """

    mu0: float | None = None  # prior mean of true scores
    gamma0: float | None = None  # prior precision of true scores
    eta0: float = 1.0 / 25.0  # prior precision of grader bias
    alpha0: float = 2.0  # reliability Gamma shape
    beta0: float = 18.0  # reliability Gamma rate
    omega0: float = 1.0  # bias random-walk precision in the fit's working units (pp unless z-scored)
    tau_fixed: float | None = None  # shared reliability when not inferred
    theta0: float | None = None  # reliability intercept (score-linked model)
    theta1: float = 0.0  # reliability slope on the grader's own score
    precision_floor: float = 1e-4  # lower clamp for any likelihood precision

    def __post_init__(self) -> None:
        for name in ("eta0", "alpha0", "beta0", "omega0", "precision_floor"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and positive, got {v!r}")
        for name in ("gamma0", "tau_fixed"):
            v = getattr(self, name)
            if v is not None and not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and positive, got {v!r}")
        for name in ("mu0", "theta0"):
            v = getattr(self, name)
            if v is not None and not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
        if not math.isfinite(self.theta1):
            raise ValueError(f"theta1 must be finite, got {self.theta1!r}")

    @property
    def effective_tau_fixed(self) -> float:
        return self.tau_fixed if self.tau_fixed is not None else self.alpha0 / self.beta0

    @property
    def effective_theta0(self) -> float:
        return self.theta0 if self.theta0 is not None else self.alpha0 / self.beta0

    @property
    def is_resolved(self) -> bool:
        return self.mu0 is not None and self.gamma0 is not None

    def resolve(self, scores: np.ndarray) -> "Hyperparameters":
        """Fill mu0/gamma0 from observed grades where they were left data-driven."""
        if self.is_resolved:
            return self
        scores = np.asarray(scores, dtype=float)
        if scores.size < 2:
            raise ValueError(
                "cannot resolve data-driven priors from fewer than 2 grades; "
                "set mu0 and gamma0 explicitly"
            )
        var = float(np.var(scores))
        if var == 0.0:
            raise ValueError(
                "degenerate assignment: zero grade variance, cannot resolve gamma0; "
                "set mu0 and gamma0 explicitly"
            )
        mu0 = self.mu0 if self.mu0 is not None else float(np.mean(scores))
        gamma0 = self.gamma0 if self.gamma0 is not None else 1.0 / var
        return replace(self, mu0=mu0, gamma0=gamma0)


def prepare_graph(
    graph: GradingGraph,
    model: Model,
    assume_normalized: bool = False,
) -> tuple[GradingGraph, dict[int, NormalizationParams]]:
    """Shared inference preprocessing: z-score for the chain model.

    The one place that decides whether a fit runs in z-units. Returns the
    working graph and, for the random-walk model unless assume_normalized, the
    per-assignment normalization parameters; the mapping is empty when the
    fit runs in percentage points, so callers resolve priors with
    normalized=bool(norm). Raises on a graph with no submissions at all, and,
    when z-scoring, on an assignment without grades: its scores could not be
    mapped back to percentage points.
    """
    if not graph.assignments:
        raise ValueError("empty graph: no submissions to infer over")
    if model is not Model.PG2 or assume_normalized:
        return graph, {}
    work, norm = normalize_all(graph)
    for a in work.assignments:
        if a not in norm:
            raise ValueError(
                f"assignment {a}: no grades to resolve data-driven priors from or to "
                "normalize by; grade it, or use assume_normalized with explicit mu0 and gamma0"
            )
    return work, norm


def resolve_priors(
    graph: GradingGraph,
    hp: Hyperparameters,
    normalized: bool = False,
) -> dict[int, Hyperparameters]:
    """Resolved hyperparameters per assignment on an already-prepared graph.

    With normalized=True (grades already z-scored), data-driven priors are
    exactly standard: mu0=0, gamma0=1. Otherwise they come from each
    assignment's observed grades, which must exist and vary.
    """
    out: dict[int, Hyperparameters] = {}
    for a in graph.assignments:
        if hp.is_resolved:
            out[a] = hp
            continue
        if normalized:
            out[a] = replace(
                hp,
                mu0=0.0 if hp.mu0 is None else hp.mu0,
                gamma0=1.0 if hp.gamma0 is None else hp.gamma0,
            )
            continue
        scores = graph.scores_in(a)
        if scores.size == 0:
            raise ValueError(
                f"assignment {a}: no grades to resolve data-driven priors from; "
                "set mu0 and gamma0 explicitly"
            )
        try:
            out[a] = hp.resolve(scores)
        except ValueError as e:
            raise ValueError(f"assignment {a}: {e}") from None
    return out


@dataclass
class LatentState:
    """One configuration of all latent variables, keyed by (assignment, student).

    s holds true scores for every submission; b holds biases for every grader
    with at least one given grade (the chain model keys every assignment of
    such graders); tau holds per-grader precisions where the model infers them.
    theta carries the score-linked reliability coefficients.
    """

    s: dict[tuple[int, str], float] = field(default_factory=dict)
    b: dict[tuple[int, str], float] = field(default_factory=dict)
    tau: dict[tuple[int, str], float] = field(default_factory=dict)
    theta: tuple[float, float] | None = None  # (theta0, theta1)

    def copy(self) -> "LatentState":
        return LatentState(dict(self.s), dict(self.b), dict(self.tau), self.theta)


@dataclass(frozen=True)
class VariableStat:
    """Moments of one latent variable: mean and population variance over samples."""

    mean: float
    var: float
    n: int


def by_assignment(values: Mapping[tuple[int, str], V]) -> dict[int, tuple[list[str], list[V]]]:
    """Per assignment, the students of (assignment, student)-keyed values in
    sorted order and their values."""
    groups: dict[int, dict[str, V]] = {}
    for (a, student), v in values.items():
        groups.setdefault(a, {})[student] = v
    out = {}
    for a, group in groups.items():
        students = sorted(group)
        out[a] = (students, [group[u] for u in students])
    return out


class StatColumn(NamedTuple):
    """Moments of one block's latents in one assignment: students in sorted
    order, with mean, var and n aligned to them."""

    students: Sequence[str]
    mean: np.ndarray
    var: np.ndarray
    n: np.ndarray


class StatBlock(Mapping[tuple[int, str], VariableStat]):
    """Read-only mapping (assignment, student) -> VariableStat over one
    StatColumn per assignment.

    Iterates assignments in ascending order and students in column order. A
    lookup builds a VariableStat of plain floats from the columns.
    """

    def __init__(self, columns: Mapping[int, StatColumn] | None = None) -> None:
        self.columns: dict[int, StatColumn] = {
            a: col for a, col in sorted((columns or {}).items()) if len(col.students)
        }
        self._pos: dict[int, dict[str, int]] = {}

    @classmethod
    def from_stats(cls, stats: Mapping[tuple[int, str], VariableStat]) -> "StatBlock":
        """Group per-latent stats into columns, students sorted."""
        return cls({
            a: StatColumn(
                students=students,
                mean=np.array([st.mean for st in rows], dtype=float),
                var=np.array([st.var for st in rows], dtype=float),
                n=np.array([st.n for st in rows], dtype=np.int64),
            )
            for a, (students, rows) in by_assignment(stats).items()
        })

    def _row(self, key) -> tuple[StatColumn, int] | None:
        try:
            a, student = key
        except (TypeError, ValueError):
            return None
        col = self.columns.get(a)
        if col is None:
            return None
        pos = self._pos.get(a)
        if pos is None:
            pos = self._pos[a] = {u: i for i, u in enumerate(col.students)}
        i = pos.get(student)
        return None if i is None else (col, i)

    def __getitem__(self, key) -> VariableStat:
        row = self._row(key)
        if row is None:
            raise KeyError(key)
        col, i = row
        return VariableStat(float(col.mean[i]), float(col.var[i]), int(col.n[i]))

    def __contains__(self, key) -> bool:
        return self._row(key) is not None

    def __iter__(self) -> Iterator[tuple[int, str]]:
        for a, col in self.columns.items():
            for student in col.students:
                yield (a, student)

    def __len__(self) -> int:
        return sum(len(col.students) for col in self.columns.values())

    def items(self) -> ItemsView:
        return _StatItems(self)

    def __repr__(self) -> str:
        return f"StatBlock(assignments={list(self.columns)}, latents={len(self)})"


class _StatItems(ItemsView):
    """A StatBlock's items, read column by column instead of key by key."""

    def __iter__(self) -> Iterator[tuple[tuple[int, str], VariableStat]]:
        for a, col in self._mapping.columns.items():
            for student, m, v, n in zip(col.students, col.mean.tolist(), col.var.tolist(), col.n.tolist()):
                yield (a, student), VariableStat(m, v, n)


def _gaussian_within(delta: float, var: float) -> float:
    """P(|X - mean| <= delta) for X Gaussian with the given variance."""
    if delta == 0.0:
        return 0.0
    return math.erf(delta / math.sqrt(2.0 * var))


@dataclass
class PosteriorSummary:
    """Posterior moments per latent variable, always in percentage points.

    Produced by both the samplers (moments over retained sweeps) and the grid
    oracle (moments under the gridded posterior). s, b and tau are StatBlocks;
    a mapping of VariableStats given for one is converted. mh_acceptance and
    theta_acceptance report Metropolis acceptance rates where applicable.
    """

    model: Model
    s: StatBlock
    b: StatBlock
    tau: StatBlock
    theta: dict[str, VariableStat] | None = None
    n_samples: int = 0
    mh_acceptance: float | None = None
    theta_acceptance: float | None = None
    score_samples: dict[tuple[int, str], np.ndarray] | None = None  # retained draws, pp

    def __post_init__(self) -> None:
        for name in ("s", "b", "tau"):
            block = getattr(self, name)
            if not isinstance(block, StatBlock):
                setattr(self, name, StatBlock.from_stats(block))

    def __eq__(self, other: object) -> bool:
        """Field by field, with score_samples compared array by array."""
        if not isinstance(other, PosteriorSummary):
            return NotImplemented
        if any(getattr(self, f.name) != getattr(other, f.name) for f in fields(self) if f.name != "score_samples"):
            return False
        mine, theirs = self.score_samples, other.score_samples
        if mine is None or theirs is None:
            return mine is theirs
        return mine.keys() == theirs.keys() and all(np.array_equal(v, theirs[k]) for k, v in mine.items())

    def estimate(self, assignment: int, student: str) -> float:
        """Posterior-mean score of one submission."""
        return self.s[(assignment, student)].mean

    def confidence(self, assignment: int, student: str, delta: float) -> float:
        """Posterior probability the true score lies within +-delta of its mean."""
        stat = self.s[(assignment, student)]
        if stat.var <= 0:
            raise ValueError(f"nonpositive posterior variance for ({assignment}, {student!r})")
        if delta < 0:
            raise ValueError(f"delta must be >= 0, got {delta}")
        return _gaussian_within(delta, stat.var)
