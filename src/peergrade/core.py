"""Core data model for peer-grading networks.

Defines the grading graph (who graded whom, with what score, held as one
read-only table of integer-coded columns), the model identifiers, prior
hyperparameters with data-driven resolution, latent-state containers,
posterior summaries, and per-assignment z-score normalization.
Scores are percentages on a 0..100 scale unless a graph has been normalized.

Posterior summaries hold their moments as arrays: each block (scores, biases,
reliabilities) is a read-only mapping over one column per assignment, and a
lookup builds the VariableStat of one latent on demand. Point values (MAP
estimates, generating latents, posterior means) are LatentStates of dicts.
"""
from __future__ import annotations

import math
from collections.abc import ItemsView
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from itertools import repeat
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, TypeVar

import numpy as np

V = TypeVar("V")

__all__ = [
    "Model",
    "PeerGrade",
    "GradeTable",
    "GroundTruth",
    "GradingGraph",
    "NormalizationParams",
    "Hyperparameters",
    "LatentState",
    "VariableStat",
    "StatColumn",
    "StatBlock",
    "PosteriorSummary",
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


def check_seed(seed: int) -> None:
    """Raise unless seed is a 64-bit unsigned integer, which every seeded config takes."""
    if not (0 <= seed < 2**64):
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")


def _int64_ids(values) -> tuple[np.ndarray, dict[int, int]]:
    """Assignment ids as int64, and the ids out of int64 range by row (stored as 0)."""
    try:
        return np.asarray(values, dtype=np.int64), {}
    except OverflowError:
        big = {r: a for r, a in enumerate(values) if not -2**63 <= a < 2**63}
        return np.array([0 if r in big else a for r, a in enumerate(values)], dtype=np.int64), big


def _frozen(values, dtype) -> np.ndarray:
    """values as a read-only array; a writeable array given is viewed, not changed."""
    out = np.asarray(values, dtype=dtype)
    if out.flags.writeable:
        out = out.view()
        out.flags.writeable = False
    return out


def _seconds(column: np.ndarray | None) -> np.ndarray | None:
    """A seconds column, None when no row has seconds."""
    return None if column is None or np.isnan(column).all() else column


class GradeTable(Sequence[PeerGrade]):
    """Read-only columns of peer grades, one row per grade in input order.

    assignment holds assignment ids (int64); grader and gradee hold codes
    (np.intp) into ids, the student ids, each interned once; score holds the
    scores, and seconds the grading seconds, NaN where a row has none, or is
    None when no row has any. lines, where given, holds the file line each
    row was read from, and an error about a row names its line. Indexing or
    iterating builds PeerGrade rows on demand; two tables are equal when
    their rows are.
    """

    def __init__(self, assignment, grader, gradee, score, ids: Sequence[str], seconds=None, lines=None) -> None:
        self.ids = tuple(ids)
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("student ids must be distinct")
        assignment, big = _int64_ids(assignment)
        self.assignment, self.grader, self.gradee, self.score = (
            _frozen(assignment, np.int64), _frozen(grader, np.intp), _frozen(gradee, np.intp), _frozen(score, float))
        self.seconds = _seconds(None if seconds is None else _frozen(seconds, float))
        self.lines = None if lines is None else _frozen(lines, np.intp)
        n = len(self.score)
        if any(col is not None and len(col) != n for col in (self.assignment, self.grader, self.gradee,
                                                             self.seconds, self.lines)):
            raise ValueError("grade columns must have equal lengths")
        if n and not all(0 <= col.min() and col.max() < len(self.ids) for col in (self.grader, self.gradee)):
            raise ValueError("grader and gradee codes must index ids")
        self._check_rows(big)

    def _check_rows(self, big: Mapping[int, int]) -> None:
        """Raise the error of the first row that is not a valid PeerGrade."""
        bad = (self.assignment < 1) | ~np.isfinite(self.score)
        if "" in self.ids:
            empty = self.ids.index("")
            bad |= (self.grader == empty) | (self.gradee == empty)
        if self.seconds is not None:  # NaN is a row without seconds
            bad |= (self.seconds < 0) | np.isinf(self.seconds)
        if not bad.any():
            return
        r = int(np.argmax(bad))
        try:
            if r in big:
                raise ValueError(f"assignment id must be {'>= 1' if big[r] < 1 else '< 2**63'}, got {big[r]}")
            self[r]
        except ValueError as e:
            raise ValueError(f"line {self.lines[r]}: {e}" if self.lines is not None else str(e)) from None

    @classmethod
    def from_rows(cls, rows: Iterable[PeerGrade]) -> "GradeTable":
        """The table of PeerGrade rows, student ids interned in order of first appearance."""
        code: dict[str, int] = {}
        assignment, grader, gradee, score, seconds = [], [], [], [], []
        for g in rows:
            assignment.append(g.assignment)
            grader.append(code.setdefault(g.grader, len(code)))
            gradee.append(code.setdefault(g.gradee, len(code)))
            score.append(g.score)
            seconds.append(np.nan if g.seconds is None else g.seconds)
        return cls(assignment, grader, gradee, score, ids=list(code), seconds=seconds)

    def _copy(self, rows, ids: tuple[str, ...] | None = None, **columns) -> "GradeTable":
        """The table of some rows (an index array, a boolean mask or a slice),
        in that order, with ids and some full-length columns replaced; unchecked."""
        table = GradeTable.__new__(GradeTable)
        table.ids = self.ids if ids is None else ids
        for name in ("assignment", "grader", "gradee", "score", "seconds", "lines"):
            column = columns.get(name, getattr(self, name))
            if column is not None:
                column = column[rows]
                column.setflags(write=False)
            setattr(table, name, column)
        table.seconds = _seconds(table.seconds)
        return table

    def take(self, rows) -> "GradeTable":
        """The table of some rows, in the given order: an index array or a boolean mask."""
        return self._copy(rows)

    def _recoded(self, ids: Sequence[str]) -> "GradeTable":
        """The same rows coded into ids, which hold every id of this table."""
        ids = tuple(ids)
        if ids == self.ids:
            return self
        code = {s: i for i, s in enumerate(ids)}
        remap = np.array([code[s] for s in self.ids], dtype=np.intp)
        return self._copy(slice(None), ids, grader=remap[self.grader], gradee=remap[self.gradee])

    def __len__(self) -> int:
        return len(self.score)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self._copy(i)
        seconds = None if self.seconds is None or np.isnan(self.seconds[i]) else float(self.seconds[i])
        return PeerGrade(int(self.assignment[i]), self.ids[self.grader[i]], self.ids[self.gradee[i]],
                         float(self.score[i]), seconds)

    def records(self) -> Iterator[tuple[int, str, str, float, float | None]]:
        """(assignment, grader, gradee, score, seconds) per row as plain
        values, seconds None where the row has none."""
        ids = self.ids.__getitem__
        seconds = repeat(None) if self.seconds is None else (
            None if s != s else s for s in self.seconds.tolist())
        return zip(self.assignment.tolist(), map(ids, self.grader.tolist()), map(ids, self.gradee.tolist()),
                   self.score.tolist(), seconds)

    def __iter__(self) -> Iterator[PeerGrade]:
        return (PeerGrade(*row) for row in self.records())

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradeTable):
            return NotImplemented
        return len(self) == len(other) and all(map(tuple.__eq__, self.records(), other.records()))

    __hash__ = None

    def __repr__(self) -> str:
        return f"GradeTable(rows={len(self)}, students={len(self.ids)})"


def _csr(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows stably sorted by key, and where each of the n keys' rows start."""
    order = np.argsort(keys, kind="stable")
    starts = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(keys, minlength=n), out=starts[1:])
    return order, starts


def _check_duplicates(table: GradeTable, row_k: np.ndarray) -> None:
    """Raise on the first row, in input order, that repeats an earlier
    (assignment, grader, gradee); row_k numbers each row's assignment."""
    n = len(table.ids)
    key = (row_k * n + table.grader) * n + table.gradee
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    repeats = np.flatnonzero(sorted_key[1:] == sorted_key[:-1]) + 1
    if not repeats.size:
        return
    second = int(order[repeats].min())
    first = int(order[np.searchsorted(sorted_key, key[second])])
    g = table[second]
    message = f"duplicate grade: grader {g.grader!r} already graded {g.gradee!r} in assignment {g.assignment}"
    if table.lines is not None:
        message = f"line {table.lines[second]}: {message} on line {table.lines[first]}"
    raise ValueError(message)


class GradingGraph:
    """Immutable bipartite-per-assignment grading network of peer grades.

    Nodes are (assignment, student) submissions; edges are observed peer
    grades, held as one GradeTable whose ids are every student of the graph,
    sorted. The graph is the one place self-grades are dropped: every input
    row, self-grades included, is checked for duplicates and counts toward
    the submission universe, and then only grades whose grader is not the
    gradee are kept, in input order. The submission universe defaults to
    every student appearing as a grader or gradee, but can be given
    explicitly so that students (or whole assignments) without grades stay
    addressable, which leave-one-out evaluation and the random-walk bias
    chain rely on. Submissions are numbered assignment by assignment, and
    the grades received and given by each are indexed once, on first use.
    """

    def __init__(
        self,
        grades: GradeTable | Iterable[PeerGrade],
        ground_truth: Mapping[tuple[int, str], GroundTruth] | None = None,
        submissions: Mapping[int, Iterable[str]] | None = None,
    ) -> None:
        table = grades if isinstance(grades, GradeTable) else GradeTable.from_rows(grades)
        universe = None if submissions is None else {int(a): tuple(s) for a, s in submissions.items()}
        table = table._recoded(sorted(set(table.ids).union(*(universe or {}).values())))
        n = len(table.ids)
        present, row_k = np.unique(table.assignment, return_inverse=True)
        _check_duplicates(table, row_k)

        if universe is None:
            assignments = present
            sub_keys = np.unique(np.concatenate([row_k * n + table.grader, row_k * n + table.gradee]))
        else:
            for a in universe:
                if not 1 <= a < 2**63:
                    raise ValueError(f"assignment id must be {'>= 1' if a < 1 else '< 2**63'}, got {a}")
            assignments = np.array(sorted(universe), dtype=np.int64)
            code = self._code = {s: i for i, s in enumerate(table.ids)}
            sub_keys = np.concatenate([np.empty(0, dtype=np.int64)] + [
                j * n + np.unique(np.array([code[s] for s in universe[a]], dtype=np.int64))
                for j, a in enumerate(assignments.tolist())
            ])
            row_k = np.searchsorted(assignments, table.assignment)
        self._assignments: tuple[int, ...] = tuple(assignments.tolist())
        self._index = {a: j for j, a in enumerate(self._assignments)}
        self._sub_keys = sub_keys
        self._offsets = np.searchsorted(sub_keys, np.arange(len(assignments) + 1) * n)
        grader_key, gradee_key = row_k * n + table.grader, row_k * n + table.gradee
        self._grader_sid, self._gradee_sid = sub_keys.searchsorted(grader_key), sub_keys.searchsorted(gradee_key)
        if universe is not None:
            known = np.isin(table.assignment, assignments)
            self._check_universe(table, known, known & self._found(self._grader_sid, grader_key),
                                 known & self._found(self._gradee_sid, gradee_key))

        keep = table.grader != table.gradee
        self._n_self_grades = len(table) - int(np.count_nonzero(keep))
        self._k = row_k
        if self._n_self_grades:
            table = table.take(keep)
            self._grader_sid, self._gradee_sid, self._k = (
                self._grader_sid[keep], self._gradee_sid[keep], self._k[keep])
        self._grades = table

        self._truth: dict[tuple[int, str], GroundTruth] = dict(ground_truth or {})
        if self._truth:
            code = self._code
            keys = np.array([self._index[a] * n + code[u] if a in self._index and u in code else -1
                             for a, u in self._truth], dtype=np.int64)
            known = self._found(self._sub_keys.searchsorted(keys), keys)
            if not known.all():
                a, student = list(self._truth)[int(np.argmin(known))]
                raise ValueError(f"ground truth references unknown submission ({a}, {student!r})")

    def _found(self, at: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """Which (assignment number * students + student code) keys are
        submissions, given where searchsorted places them."""
        if not len(self._sub_keys):
            return np.zeros(len(keys), dtype=bool)
        return self._sub_keys[np.minimum(at, len(self._sub_keys) - 1)] == keys

    @staticmethod
    def _check_universe(table: GradeTable, known: np.ndarray, grader_ok: np.ndarray, gradee_ok: np.ndarray) -> None:
        """Raise for the first assignment, in order of first appearance, whose
        grades reference an assignment or a student without a submission."""
        bad = ~(grader_ok & gradee_ok)
        if not bad.any():
            return
        present, first = np.unique(table.assignment, return_index=True)
        failing = np.unique(table.assignment[bad])
        a = int(failing[np.argmin(first[np.searchsorted(present, failing)])])
        rows = table.assignment == a
        if not known[rows].all():
            raise ValueError(f"grades reference assignment {a} missing from the submission universe")
        codes = np.union1d(table.grader[rows & ~grader_ok], table.gradee[rows & ~gradee_ok])
        missing = [table.ids[c] for c in codes[:5].tolist()]
        raise ValueError(f"grades reference students without submissions in assignment {a}: {missing}")

    @cached_property
    def _code(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self._grades.ids)}

    @cached_property
    def _by_assignment(self) -> tuple[np.ndarray, np.ndarray]:
        return _csr(self._k, len(self._assignments))

    @cached_property
    def _by_gradee(self) -> tuple[np.ndarray, np.ndarray]:
        return _csr(self._gradee_sid, len(self._sub_keys))

    @cached_property
    def _by_grader(self) -> tuple[np.ndarray, np.ndarray]:
        return _csr(self._grader_sid, len(self._sub_keys))

    def _sid(self, assignment: int, student: str) -> int | None:
        """The number of a submission, None when there is none."""
        j, c = self._index.get(assignment), self._code.get(student)
        if j is None or c is None:
            return None
        key = j * len(self._grades.ids) + c
        sid = int(self._sub_keys.searchsorted(key))
        return sid if sid < len(self._sub_keys) and self._sub_keys[sid] == key else None

    def _rows(self, j: int) -> np.ndarray:
        """The rows of the j-th assignment, in input order."""
        order, starts = self._by_assignment
        return order[starts[j]:starts[j + 1]]

    def _rows_of(self, assignment: int) -> np.ndarray:
        """The rows of an assignment, in input order; none for an unknown one."""
        j = self._index.get(assignment)
        return np.empty(0, dtype=np.intp) if j is None else self._rows(j)

    def _linked(self, index: tuple[np.ndarray, np.ndarray], sid: int | None) -> np.ndarray:
        """The rows an index links to a submission, in input order; none for no submission."""
        if sid is None:
            return np.empty(0, dtype=np.intp)
        order, starts = index
        return order[starts[sid]:starts[sid + 1]]

    def _pairs(self, rows: np.ndarray, codes: np.ndarray) -> list[tuple[str, float]]:
        ids = self._grades.ids
        return list(zip([ids[c] for c in codes[rows].tolist()], self._grades.score[rows].tolist()))

    def _received(self, assignment: int, gradee: str) -> list[tuple[str, float]]:
        """(grader, score) per grade received by a submission, in input order;
        graders_of's rows without building a table."""
        return self._pairs(self._linked(self._by_gradee, self._sid(assignment, gradee)), self._grades.grader)

    def _given(self, assignment: int, grader: str) -> list[tuple[str, float]]:
        """(gradee, score) per grade given by a grader in an assignment, in
        input order; gradees_of's rows without building a table."""
        return self._pairs(self._linked(self._by_grader, self._sid(assignment, grader)), self._grades.gradee)

    # -- basic views ------------------------------------------------------

    @property
    def grades(self) -> GradeTable:
        """All peer grades in input order."""
        return self._grades

    @property
    def n_self_grades(self) -> int:
        """How many input rows were self-grades and were dropped."""
        return self._n_self_grades

    @property
    def assignments(self) -> tuple[int, ...]:
        """Assignment ids in ascending order."""
        return self._assignments

    @property
    def graders(self) -> tuple[str, ...]:
        """Every student who gave a grade, sorted by id."""
        ids = self._grades.ids
        return tuple(ids[c] for c in np.unique(self._grades.grader).tolist())

    @property
    def ground_truth(self) -> Mapping[tuple[int, str], GroundTruth]:
        return dict(self._truth)

    @property
    def n_grades(self) -> int:
        return len(self._grades)

    def submissions(self, assignment: int) -> tuple[str, ...]:
        """Students with a submission in the assignment, sorted by id."""
        j = self._index.get(assignment)
        if j is None:
            raise KeyError(f"unknown assignment {assignment}")
        ids = self._grades.ids
        codes = self._sub_keys[self._offsets[j]:self._offsets[j + 1]] - j * len(ids)
        return tuple(ids[c] for c in codes.tolist())

    def grades_in(self, assignment: int) -> GradeTable:
        """Grades of one assignment, in input order."""
        return self._grades.take(self._rows_of(assignment))

    def grade_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every grade as arrays, grouped by assignment and in input order
        within one. Returns where each assignment's submissions start in the
        graph's numbering (assignment by assignment, each in submissions()
        order) and where its grades start, each closed by the total; then,
        per grade, its score and the numbers of its grader's and its
        gradee's submissions."""
        order, starts = self._by_assignment
        return (self._offsets.copy(), starts.copy(), self._grades.score[order],
                self._grader_sid[order], self._gradee_sid[order])

    def graders_of(self, assignment: int, gradee: str) -> GradeTable:
        """Grades received by a submission, in input order."""
        return self._grades.take(self._linked(self._by_gradee, self._sid(assignment, gradee)))

    def gradees_of(self, assignment: int, grader: str) -> GradeTable:
        """Grades given by a grader in an assignment, in input order."""
        return self._grades.take(self._linked(self._by_grader, self._sid(assignment, grader)))

    def scores_in(self, assignment: int) -> np.ndarray:
        """Scores of one assignment's grades, in input order; read-only."""
        scores = self._grades.score[self._rows_of(assignment)]
        scores.setflags(write=False)
        return scores

    # -- derived graphs ----------------------------------------------------

    def with_grades(self, grades: GradeTable | Iterable[PeerGrade]) -> "GradingGraph":
        """A copy holding different grades but the same universe and truth."""
        return GradingGraph(
            grades,
            ground_truth=self._truth,
            submissions={a: self.submissions(a) for a in self._assignments},
        )

    def without_received(self, assignment: int, gradee: str) -> "GradingGraph":
        """Drop every grade received by one submission (leave-one-out step)."""
        keep = np.ones(len(self._grades), dtype=bool)
        keep[self._linked(self._by_gradee, self._sid(assignment, gradee))] = False
        return self.with_grades(self._grades.take(keep))

    def __len__(self) -> int:
        return len(self._grades)

    def __repr__(self) -> str:
        return (
            f"GradingGraph(assignments={len(self._assignments)}, "
            f"submissions={len(self._sub_keys)}, grades={len(self._grades)}, "
            f"ground_truth={len(self._truth)})"
        )


def _zscore_params(scores: np.ndarray, assignment: int) -> NormalizationParams:
    """Mean and population std of one assignment's grades; errors on fewer
    than two grades, zero score variance or a variance that overflows, where
    the transform is undefined."""
    if scores.size < 2:
        raise ValueError(
            f"cannot normalize assignment {assignment}: needs at least 2 grades, has {scores.size}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        mean, std = float(np.mean(scores)), float(np.std(scores))  # population std, ddof=0
    if not (math.isfinite(mean) and math.isfinite(std)):
        raise ValueError(f"cannot normalize assignment {assignment}: grades too large, their variance overflows")
    if std == 0.0:
        raise ValueError(f"degenerate assignment {assignment}: all grades equal ({mean})")
    return NormalizationParams(mean=mean, std=std)


def _apply_zscores(graph: GradingGraph, params: Mapping[int, NormalizationParams]) -> GradingGraph:
    """One graph with every grade of the given assignments z-scored."""
    if not params:
        return graph
    table = graph.grades
    score = table.score.copy()
    for a, p in params.items():
        rows = table.assignment == a
        score[rows] = (score[rows] - p.mean) / p.std
    return graph.with_grades(table._copy(slice(None), score=score))


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
    params = {a: _zscore_params(z, a) for a in graph.assignments if (z := graph.scores_in(a)).size}
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
        # the fits divide by these precisions and rates, and EM's log joint takes lgamma(alpha0)
        for name in ("gamma0", "eta0", "omega0", "beta0", "tau_fixed"):
            v = getattr(self, name)
            if v is not None and 1.0 / v == math.inf:
                raise ValueError(f"{name}={v!r} is too small: its reciprocal overflows")
        try:
            math.lgamma(self.alpha0)
        except OverflowError:
            raise ValueError(f"alpha0={self.alpha0!r} is too large: lgamma(alpha0) overflows") from None
        # the fits square how far reliabilities and PG3's theta move: they start at and step on the
        # scale of the prior-mean reliability alpha0/beta0, and EM may clamp them at the floor
        if not math.isfinite(self.precision_floor * self.precision_floor):
            raise ValueError(f"precision_floor={self.precision_floor!r} is too large: its square overflows")
        ref = self.alpha0 / self.beta0
        if not math.isfinite(ref * ref):
            raise ValueError(f"beta0={self.beta0!r} is too small for alpha0={self.alpha0!r}: "
                             "the prior-mean reliability alpha0/beta0 squared overflows")

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
        with np.errstate(over="ignore", invalid="ignore"):
            mean, var = float(np.mean(scores)), float(np.var(scores))
        if not (math.isfinite(mean) and math.isfinite(var)):
            raise ValueError(
                "grades too large to resolve data-driven priors from: their variance overflows; "
                "set mu0 and gamma0 explicitly"
            )
        if var == 0.0:
            raise ValueError(
                "degenerate assignment: zero grade variance, cannot resolve gamma0; "
                "set mu0 and gamma0 explicitly"
            )
        mu0 = self.mu0 if self.mu0 is not None else mean
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
    assignment's observed grades, which must exist and vary. Either way, an
    assignment's squared residuals about mu0 must sum to a finite value, or
    every fit of it would overflow.
    """
    out: dict[int, Hyperparameters] = {}
    for a in graph.assignments:
        if normalized:  # z-scores have mean 0 and variance 1: their squares about mu0 sum to n (1 + mu0^2)
            resolved = hp if hp.is_resolved else replace(
                hp,
                mu0=0.0 if hp.mu0 is None else hp.mu0,
                gamma0=1.0 if hp.gamma0 is None else hp.gamma0,
            )
            rss = graph._rows_of(a).size * (1.0 + resolved.mu0 * resolved.mu0)
        else:
            scores = graph.scores_in(a)
            if hp.is_resolved:
                resolved = hp
            elif scores.size == 0:
                raise ValueError(
                    f"assignment {a}: no grades to resolve data-driven priors from; "
                    "set mu0 and gamma0 explicitly"
                )
            else:
                try:
                    resolved = hp.resolve(scores)
                except ValueError as e:
                    raise ValueError(f"assignment {a}: {e}") from None
            with np.errstate(over="ignore"):
                rss = float(np.sum(np.square(scores - resolved.mu0)))
        if not math.isfinite(rss):
            raise ValueError(
                f"assignment {a}: grades too far from mu0={resolved.mu0:g}: their squared residuals "
                "overflow; rescale the grades or set mu0 nearer to them"
            )
        out[a] = resolved
    return out


@dataclass
class LatentState:
    """One configuration of all latent variables, keyed by (assignment, student).

    s holds true scores for every submission; b holds biases for every grader
    with at least one given grade (the chain model keys every assignment of
    such graders); tau holds per-grader precisions where the model infers them.
    theta carries the score-linked reliability coefficients.

    Every point estimate is one, in percentage points: em_infer's MAP
    estimates, generate's generating latents and PosteriorSummary.point()'s
    posterior means. The samplers' initial_state and sweep hold one in the
    model's working units.
    """

    s: dict[tuple[int, str], float] = field(default_factory=dict)
    b: dict[tuple[int, str], float] = field(default_factory=dict)
    tau: dict[tuple[int, str], float] = field(default_factory=dict)
    theta: tuple[float, float] | None = None  # (theta0, theta1)


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

    def __post_init__(self) -> None:
        for name in ("s", "b", "tau"):
            block = getattr(self, name)
            if not isinstance(block, StatBlock):
                setattr(self, name, StatBlock.from_stats(block))

    def point(self) -> LatentState:
        """The posterior means as a LatentState, each block in column order;
        theta holds the (theta0, theta1) means where the model has theta."""
        s, b, tau = (
            {(a, u): m for a, col in block.columns.items() for u, m in zip(col.students, col.mean.tolist())}
            for block in (self.s, self.b, self.tau)
        )
        theta = None if self.theta is None else (self.theta["theta0"].mean, self.theta["theta1"].mean)
        return LatentState(s, b, tau, theta)

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
