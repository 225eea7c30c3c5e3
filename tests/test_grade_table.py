"""The columnar grade table and the graph built on it, checked against the
row-by-row graph it replaces."""
import itertools

import numpy as np
import pytest

from peergrade import (
    GibbsConfig,
    GradeTable,
    GradingGraph,
    Hyperparameters,
    Model,
    PeerGrade,
    SynthConfig,
    generate,
    gibbs_infer,
    normalize_all,
    restrict_to_first_grades,
)
from peergrade.io import ingest, read_grades_csv, write_grades_csv, write_truth_csv


class RowwiseGraph:
    """The graph as it was built row by row: a seen set over every input
    row, the self-grade drop, per-assignment tuples and sorted submissions."""

    def __init__(self, grades, submissions=None):
        rows = tuple(grades)
        seen, derived = set(), {}
        for g in rows:
            key = (g.assignment, g.grader, g.gradee)
            assert key not in seen
            seen.add(key)
            derived.setdefault(g.assignment, set()).update((g.grader, g.gradee))
        self.grades = tuple(g for g in rows if not g.is_self_grade)
        self.n_self_grades = len(rows) - len(self.grades)
        subs = derived if submissions is None else {int(a): set(s) for a, s in submissions.items()}
        self.submissions = {a: tuple(sorted(s)) for a, s in sorted(subs.items())}

    def grades_in(self, a):
        return tuple(g for g in self.grades if g.assignment == a)

    def graders_of(self, a, u):
        return tuple(g for g in self.grades_in(a) if g.gradee == u)

    def gradees_of(self, a, v):
        return tuple(g for g in self.grades_in(a) if g.grader == v)


def _with_self_grades_and_seconds(graph, self_graded):
    """graph's rows with seconds on two rows of every three, and a self-grade
    of each (assignment, student position) in self_graded inserted."""
    rng = np.random.default_rng(5)
    rows = [PeerGrade(g.assignment, g.grader, g.gradee, g.score, None if i % 3 == 0 else float(rng.uniform(30, 600)))
            for i, g in enumerate(graph.grades)]
    students = graph.submissions(1)
    for i, (a, k) in enumerate(self_graded):
        rows.insert(37 * i + 5, PeerGrade(a, students[k], students[k], 90.0 + i, 60.0))
    return rows, students


@pytest.fixture(scope="module", params=["four-assignments", "one-assignment"])
def network(request):
    """Rows, submission universe and number of self-grades of a PG2 network
    over 3 graded assignments and a fourth without grades, or of a PG1
    network of one assignment; self-grades are injected and two rows of
    every three have seconds."""
    if request.param == "four-assignments":
        graph, _ = generate(SynthConfig(n_students=40, n_assignments=3, grades_per_grader=3,
                                        n_ground_truth=2, super_grades=10, model=Model.PG2, seed=13))
        rows, students = _with_self_grades_and_seconds(graph, [(1, 4), (2, 0), (3, 17), (1, 30)])
        return rows, {a: students for a in (1, 2, 3, 4)}, 4
    graph, _ = generate(SynthConfig(n_students=40, grades_per_grader=3, n_ground_truth=2, super_grades=10,
                                    model=Model.PG1, seed=13))
    rows, students = _with_self_grades_and_seconds(graph, [(1, 4), (1, 0), (1, 17)])
    return rows, {1: students}, 3


def test_views_match_the_rowwise_graph(network):
    rows, universe, self_grades = network
    graph, ref = GradingGraph(rows, submissions=universe), RowwiseGraph(rows, universe)
    assert graph.n_self_grades == ref.n_self_grades == self_grades
    assert list(graph.grades) == list(ref.grades)
    assert graph.assignments == tuple(ref.submissions) == tuple(universe)
    for a in graph.assignments:
        assert graph.submissions(a) == ref.submissions[a]
        assert list(graph.grades_in(a)) == list(ref.grades_in(a))
        assert graph.scores_in(a).tolist() == [g.score for g in ref.grades_in(a)]
        for u in graph.submissions(a):
            assert list(graph.graders_of(a, u)) == list(ref.graders_of(a, u))
            assert list(graph.gradees_of(a, u)) == list(ref.gradees_of(a, u))
    assert not graph.grades_in(5) and not graph.graders_of(5, universe[1][0])
    assert graph.graders == tuple(sorted({g.grader for g in ref.grades}))


def test_grade_index_numbers_every_submission(network):
    """The one index of all grades: assignment j's slice holds its grades in
    input order, and a submission's number is its position in
    submissions(), counted from the assignment's offset."""
    rows, universe, _ = network
    graph, ref = GradingGraph(rows, submissions=universe), RowwiseGraph(rows, universe)
    offsets, starts, score, grader, gradee = graph.grade_index()
    assert grader.dtype == gradee.dtype == np.intp
    assert len(offsets) == len(starts) == len(graph.assignments) + 1
    assert (offsets[-1], starts[-1]) == (sum(len(s) for s in ref.submissions.values()), len(ref.grades))
    for j, a in enumerate(graph.assignments):
        subs, lo = ref.submissions[a], offsets[j]
        assert offsets[j + 1] - lo == len(subs)
        grades = slice(starts[j], starts[j + 1])
        assert [(subs[v - lo], subs[u - lo], z) for v, u, z in zip(grader[grades], gradee[grades], score[grades])] == [
            (g.grader, g.gradee, g.score) for g in ref.grades_in(a)]


def test_derived_graphs_match_their_rowwise_definitions(network):
    rows, universe, _ = network
    graph = GradingGraph(rows, submissions=universe)
    ref = RowwiseGraph(rows, universe)
    for a, k in zip(itertools.cycle(universe), (4, 0, 39, 1)):
        u = universe[a][k]
        reduced = graph.without_received(a, u)
        assert list(reduced.grades) == [g for g in ref.grades if not (g.assignment == a and g.gradee == u)]
        assert all(reduced.submissions(b) == graph.submissions(b) for b in graph.assignments)

    for k in (1, 2, 3):
        counts, kept = {}, []
        for g in ref.grades:
            seen = counts.get((g.assignment, g.grader), 0)
            if seen < k:
                kept.append(g)
            counts[(g.assignment, g.grader)] = seen + 1
        assert list(restrict_to_first_grades(graph, k).grades) == kept

    normed, params = normalize_all(graph)
    assert sorted(params) == [a for a in universe if ref.grades_in(a)]
    for a, p in params.items():
        scores = np.array([g.score for g in ref.grades_in(a)])
        assert (p.mean, p.std) == (float(np.mean(scores)), float(np.std(scores)))
    assert list(normed.grades) == [
        PeerGrade(g.assignment, g.grader, g.gradee, (g.score - params[g.assignment].mean) / params[g.assignment].std,
                  g.seconds)
        for g in ref.grades
    ]


def test_table_rows_and_equality():
    rows = [PeerGrade(2, "v", "u", 70.5, 12.0), PeerGrade(1, "u", "w", 60.0), PeerGrade(1, "w", "v", 81.0)]
    table = GradeTable.from_rows(rows)
    assert len(table) == 3 and list(table) == rows
    assert table[1] == rows[1] and table[-1] == rows[2]
    assert list(table[1:]) == rows[1:]
    assert list(table.records()) == [(2, "v", "u", 70.5, 12.0), (1, "u", "w", 60.0, None), (1, "w", "v", 81.0, None)]
    assert table == GradingGraph(rows).grades  # same rows, other codes
    assert table != GradeTable.from_rows(rows[:2]) and table != rows
    assert table != GradeTable.from_rows(rows[:2] + [PeerGrade(1, "w", "v", 81.5)])  # one score differs
    assert table != GradeTable.from_rows(rows[:2] + [PeerGrade(1, "w", "v", 81.0, 0.0)])  # one row's seconds
    assert table != GradeTable.from_rows([PeerGrade(2, "v", "u", 70.5, 13.0)] + rows[1:])
    assert table.take(np.array([0])).seconds is not None and table.take(np.array([1, 2])).seconds is None
    assert table.take(np.array([1, 2])) == GradeTable.from_rows(rows[1:])
    with pytest.raises(ValueError):
        table.score[0] = 1.0


def test_table_rejects_what_a_row_rejects():
    with pytest.raises(ValueError, match="^grade score must be finite, got inf$"):
        GradeTable([1, 1], [0, 1], [1, 0], [70.0, np.inf], ids=["a", "b"])
    with pytest.raises(ValueError, match="^line 7: assignment id must be >= 1, got 0$"):
        GradeTable([1, 0], [0, 1], [1, 0], [70.0, 60.0], ids=["a", "b"], lines=[3, 7])
    with pytest.raises(ValueError, match="^assignment id must be < 2\\*\\*63, got 9223372036854775808$"):
        GradeTable([1, 2**63], [0, 1], [1, 0], [70.0, 60.0], ids=["a", "b"])
    with pytest.raises(ValueError, match="distinct"):
        GradeTable([1], [0], [1], [70.0], ids=["a", "a"])


def test_reader_keeps_lines_and_rows(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text("assignment,grader,gradee,score,seconds\n1,a,b,70,\n\n2,\"b\nc\",a,61.5,30\n")
    table = read_grades_csv(path)
    assert table.lines.tolist() == [2, 5]
    assert list(table) == [PeerGrade(1, "a", "b", 70.0), PeerGrade(2, "b\nc", "a", 61.5, 30.0)]


def test_nothing_builds_a_peer_grade_from_generate_to_a_fit(tmp_path, monkeypatch):
    built = []
    check = PeerGrade.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(PeerGrade, "__post_init__", counted)
    graph, _ = generate(SynthConfig(n_students=60, grades_per_grader=4, n_ground_truth=2, super_grades=10,
                                    model=Model.PG1, seed=21))
    write_grades_csv(graph.grades, tmp_path / "grades.csv")
    write_truth_csv(graph.ground_truth, tmp_path / "truth.csv")
    ingested = ingest(tmp_path / "grades.csv", tmp_path / "truth.csv")
    gibbs_infer(ingested, Hyperparameters(), GibbsConfig(model=Model.PG1, total_sweeps=20, burn_in=5, seed=3))
    assert built == []
    ingested.grades[0]  # the counter sees a row built on demand
    assert len(built) == 1


def test_a_pg2_fit_copies_each_assignments_rows_once(monkeypatch):
    """z-scoring reads each assignment's scores once, and the engine reads the
    z-scored graph's grades once, all assignments in one index; neither
    builds an assignment's table again."""
    copies = []
    for name in ("grades_in", "scores_in"):
        def counted(graph, a, read=getattr(GradingGraph, name)):
            copies.append((graph, a))  # holding the graph keeps its id from being reused
            return read(graph, a)
        monkeypatch.setattr(GradingGraph, name, counted)

    def indexed(graph, read=GradingGraph.grade_index):
        copies.append((graph, "all"))
        return read(graph)
    monkeypatch.setattr(GradingGraph, "grade_index", indexed)
    graph, _ = generate(SynthConfig(n_students=40, n_assignments=4, super_grades=10, model=Model.PG2, seed=5))
    gibbs_infer(graph, Hyperparameters(), GibbsConfig(model=Model.PG2, total_sweeps=4, burn_in=1, seed=3))
    per_graph = {}
    for g, a in copies:
        per_graph.setdefault(id(g), []).append(a)
    assert list(per_graph.values()) == [[1, 2, 3, 4], ["all"]]
