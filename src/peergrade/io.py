"""File formats: grade/ground-truth CSV ingestion and result emission.

All emitted floats go through a 6-significant-digit format so outputs are
byte-stable across runs and platforms. Every CSV table is written by one
function: a header row, then one record per \n-terminated line. Every JSON
file is written by one
encoder: two-space indents, keys sorted as strings, ASCII-escaped strings,
floats rounded to 6 significant digits and then written as Python's repr,
NaN and Infinity as the json module writes them. A posterior or point
estimate block ({assignment: {student: row}}) is rendered one row per
student straight from its per-assignment columns. Ingestion validates
headers and cell types with line-numbered errors.
"""
from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .analytics import BinnedResidualTable, ResidualHeatmap, TemporalCorrelationReport
from .calibration import CalibrationReport, RoundsReport
from .core import (GradeTable, GradingGraph, GroundTruth, LatentState, PeerGrade, PosteriorSummary, StatBlock,
                   by_assignment)
from .em import PointEstimates
from .evaluation import METRIC_ROWS, EvaluationReport
from .gibbs import TraceRecorder
from .synth import IdentifiabilityRow

__all__ = [
    "read_grades_csv",
    "read_truth_csv",
    "ingest",
    "describe",
    "write_grades_csv",
    "write_truth_csv",
    "write_latents_csv",
    "write_summary_json",
    "write_points_json",
    "write_trace_csv",
    "write_report",
    "write_residuals_csv",
    "write_calibration_csv",
    "write_rounds_csv",
    "write_binned_table_csv",
    "write_heatmap_csv",
    "write_temporal_csv",
    "write_identifiability_csv",
    "write_json",
]

log = logging.getLogger(__name__)

GRADE_HEADER = ["assignment", "grader", "gradee", "score"]
GRADE_HEADER_SECONDS = GRADE_HEADER + ["seconds"]
TRUTH_HEADER = ["assignment", "gradee", "staff_score", "consensus_score"]


def f6(x: float) -> str:
    """Canonical float cell: 6 significant digits."""
    if isinstance(x, float) and not math.isfinite(x):
        return "nan" if math.isnan(x) else ("inf" if x > 0 else "-inf")
    return format(float(x), ".6g")


def _round6(x: float) -> float:
    if not math.isfinite(x):
        return x
    return float(format(x, ".6g"))


def jsonable(obj):
    """Recursively convert to JSON-friendly values with rounded floats."""
    if obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return _round6(float(obj))
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, Mapping):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


_quote = json.encoder.encode_basestring_ascii


def _float(x: float) -> str:
    if math.isfinite(x):
        return repr(float(format(x, ".6g")))
    return "NaN" if math.isnan(x) else ("Infinity" if x > 0 else "-Infinity")


def _scalar(obj) -> str | None:
    """The JSON text of a leaf value, None for a container."""
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (np.floating, float)):
        return _float(float(obj))
    if isinstance(obj, (np.integer, int)):
        return int.__repr__(int(obj))
    return None


@dataclass(frozen=True)
class _Rows:
    """{assignment: {student: row}} as columns: per assignment, students in
    sorted order and either a mapping field -> values (a row is an object of
    those fields) or one sequence of values (a row is the bare value)."""

    columns: Mapping[int, tuple[Sequence[str], Mapping[str, Sequence] | Sequence]]


def _encode(obj, pad: str, out: list[str]) -> None:
    """Append obj's JSON text, indented two spaces per level from pad; the
    bytes json.dump(jsonable(obj), sort_keys=True, indent=2) writes."""
    leaf = _scalar(obj)
    if leaf is not None:
        out.append(leaf)
    elif isinstance(obj, _Rows):
        _encode_rows(obj, pad, out)
    elif isinstance(obj, np.ndarray):
        _encode_list(list(obj.tolist()), pad, out)
    elif isinstance(obj, Mapping):
        items = sorted({str(k): v for k, v in obj.items()}.items(), key=lambda kv: kv[0])
        if not items:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{\n"
        for k, v in items:
            out.append(sep + inner + _quote(k) + ": ")
            _encode(v, inner, out)
            sep = ",\n"
        out.append("\n" + pad + "}")
    elif isinstance(obj, (list, tuple)):
        _encode_list(obj, pad, out)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _encode_list(items: Sequence, pad: str, out: list[str]) -> None:
    if not items:
        out.append("[]")
        return
    inner = pad + "  "
    sep = "[\n"
    for v in items:
        out.append(sep + inner)
        _encode(v, inner, out)
        sep = ",\n"
    out.append("\n" + pad + "]")


def _cells(values: Sequence) -> list[str]:
    """The JSON text of each value of one row field."""
    if isinstance(values, np.ndarray):
        if values.dtype.kind == "f":
            return list(map(_float, values.tolist()))
        values = values.tolist()
    return [_scalar(v) or _unsupported(v) for v in values]


def _unsupported(v) -> str:
    raise TypeError(f"cannot serialize {type(v).__name__} in a row")


def _encode_rows(rows: _Rows, pad: str, out: list[str]) -> None:
    columns = sorted(((str(a), col) for a, col in rows.columns.items() if len(col[0])),
                     key=lambda kv: kv[0])
    if not columns:
        out.append("{}")
        return
    p2, p4, p6 = pad + "  ", pad + "    ", pad + "      "
    sep = "{\n"
    for a, (students, fields) in columns:
        if isinstance(fields, Mapping):
            names = sorted(fields)
            template = p4 + "%s: {\n" + ",\n".join(
                p6 + _quote(name).replace("%", "%%") + ": %s" for name in names
            ) + "\n" + p4 + "}"
            cells = [_cells(fields[name]) for name in names]
        else:
            template = p4 + "%s: %s"
            cells = [_cells(fields)]
        out.append(sep + p2 + _quote(a) + ": {\n")
        out.append(",\n".join([template % row for row in zip(map(_quote, students), *cells)]))
        out.append("\n" + p2 + "}")
        sep = ",\n"
    out.append("\n" + pad + "}")


def write_json(obj, path) -> None:
    """Write obj as indented JSON with sorted keys and rounded floats."""
    out: list[str] = []
    _encode(obj, "", out)
    out.append("\n")
    with open(path, "w") as fh:
        fh.write("".join(out))


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------


def _parse_int(value: str, what: str, lineno: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"line {lineno}: {what} must be an integer, got {value!r}") from None


def _parse_float(value: str, what: str, lineno: int) -> float:
    try:
        return float(value)
    except ValueError:
        raise ValueError(f"line {lineno}: {what} must be a number, got {value!r}") from None


def _records(path) -> Iterator[tuple[int, list[str]]]:
    """(line number, cells) for each record of a CSV file; a record whose
    quoted cell spans lines is numbered by its last line. A malformed record
    or bytes that do not decode stop with a ValueError naming the line or the
    file."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            for row in reader:
                yield reader.line_num, row
        except csv.Error as e:
            raise ValueError(f"line {reader.line_num}: {e}") from None
        except UnicodeDecodeError as e:
            raise ValueError(f"{path}: cannot decode as text ({e.reason})") from None


def _header(path, records: Iterator[tuple[int, list[str]]], accepted: Sequence[list[str]], note: str = "") -> list[str]:
    """A CSV file's header, read off its records: one of accepted, else a
    ValueError naming the file and the first accepted header, then note."""
    _, header = next(records, (1, None))
    if header is None:
        raise ValueError(f"{path}: empty file, expected header {','.join(accepted[0])}")
    if header not in accepted:
        raise ValueError(f"{path}: bad header {','.join(header)!r}; expected {','.join(accepted[0])}{note}")
    return header


def read_grades_csv(path) -> GradeTable:
    """Parse a grades file (header assignment,grader,gradee,score with an
    optional trailing seconds column) into a table whose rows know their
    lines. Errors name the line of the first bad row, as reading row by row
    would."""
    records = _records(path)
    header = _header(path, records, (GRADE_HEADER, GRADE_HEADER_SECONDS),
                     " (optionally with a trailing seconds column)")
    has_seconds, n_cells = header == GRADE_HEADER_SECONDS, len(header)
    code: dict[str, int] = {}
    assignment, grader, gradee, score, seconds, lines = [], [], [], [], [], []

    def table() -> GradeTable:
        return GradeTable(assignment, grader, gradee, score, ids=list(code), seconds=seconds, lines=lines)

    try:
        for lineno, row in records:
            if not row:
                continue
            if len(row) != n_cells:
                raise ValueError(f"line {lineno}: expected {n_cells} cells, got {len(row)}")
            s = None
            if has_seconds and row[4].strip() != "":
                s = _parse_float(row[4], "seconds", lineno)
            a = _parse_int(row[0], "assignment", lineno)
            z = _parse_float(row[3], "score", lineno)
            assignment.append(a)
            score.append(z)
            grader.append(code.setdefault(row[1], len(code)))
            gradee.append(code.setdefault(row[2], len(code)))
            lines.append(lineno)
            seconds.append(math.nan if s is None else s)
            if s is not None and s != s:  # NaN stands for no seconds in the table, so a NaN cell fails here
                raise ValueError(f"line {lineno}: grading seconds must be finite and >= 0, got nan")
    except ValueError:
        table()  # a row read before the failing one may hold an earlier error
        raise
    return table()


def read_truth_csv(path) -> dict[tuple[int, str], GroundTruth]:
    """Parse a ground-truth file (staff_score may be empty)."""
    truth: dict[tuple[int, str], GroundTruth] = {}
    records = _records(path)
    _header(path, records, (TRUTH_HEADER,))
    for lineno, row in records:
        if not row:
            continue
        if len(row) != 4:
            raise ValueError(f"line {lineno}: expected 4 cells, got {len(row)}")
        key = (_parse_int(row[0], "assignment", lineno), row[1])
        if key in truth:
            raise ValueError(f"line {lineno}: duplicate ground truth for {key}")
        staff = None if row[2].strip() == "" else _parse_float(row[2], "staff_score", lineno)
        consensus = _parse_float(row[3], "consensus_score", lineno)
        try:
            truth[key] = GroundTruth(consensus_score=consensus, staff_score=staff)
        except ValueError as e:
            raise ValueError(f"line {lineno}: {e}") from None
    return truth


def ingest(grades_path, truth_path=None) -> GradingGraph:
    """Build a validated graph from files; the graph drops self-grades, and
    their count is logged. A duplicate grade's error names both lines."""
    grades = read_grades_csv(grades_path)
    truth = read_truth_csv(truth_path) if truth_path else None
    graph = GradingGraph(grades, ground_truth=truth)
    if graph.n_self_grades:
        log.info("excluded %d self-grades at ingestion", graph.n_self_grades)
    return graph


def describe(graph: GradingGraph) -> str:
    """Small per-assignment summary table (submissions, graders, grades)."""
    lines = [f"{'assignment':>10} {'submissions':>12} {'graders':>8} {'grades':>8} {'truth':>6}"]
    total_subs = total_grades = total_truth = 0
    truth = graph.ground_truth
    for a in graph.assignments:
        grades = graph.grades_in(a)
        n_graders = len(np.unique(grades.grader))
        n_subs = len(graph.submissions(a))
        n_grades = len(grades)
        n_truth = sum(1 for (ta, _) in truth if ta == a)
        total_subs += n_subs
        total_grades += n_grades
        total_truth += n_truth
        lines.append(f"{a:>10} {n_subs:>12} {n_graders:>8} {n_grades:>8} {n_truth:>6}")
    lines.append(f"{'total':>10} {total_subs:>12} {'':>8} {total_grades:>8} {total_truth:>6}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _write_table(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write one CSV table: the header row, then one \n-terminated record per row."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def write_grades_csv(grades: GradeTable | Iterable[PeerGrade], path) -> None:
    """Write grades row by row from their columns; the seconds column only
    when a row has seconds."""
    t = grades if isinstance(grades, GradeTable) else GradeTable.from_rows(grades)
    if t.seconds is None:
        _write_table(path, GRADE_HEADER, ((a, v, u, f6(z)) for a, v, u, z, _ in t.records()))
        return
    _write_table(path, GRADE_HEADER_SECONDS, (
        (a, v, u, f6(z), "" if s is None else f6(s)) for a, v, u, z, s in t.records()
    ))


def write_truth_csv(truth: Mapping[tuple[int, str], GroundTruth], path) -> None:
    _write_table(path, TRUTH_HEADER, (
        (a, gradee, "" if gt.staff_score is None else f6(gt.staff_score), f6(gt.consensus_score))
        for (a, gradee), gt in sorted(truth.items())
    ))


def write_latents_csv(latents: LatentState, path) -> None:
    _write_table(path, ["assignment", "student", "s_true", "b_true", "tau_true"], (
        (a, student, f6(latents.s[a, student]), f6(latents.b[a, student]), f6(latents.tau[a, student]))
        for a, student in sorted(latents.s)
    ))


def _stat_rows(block: StatBlock) -> _Rows:
    return _Rows({a: (col.students, {"mean": col.mean, "var": col.var, "n": col.n})
                  for a, col in block.columns.items()})


def write_summary_json(summary: PosteriorSummary, path) -> None:
    doc = {
        "model": summary.model.value,
        "n_samples": summary.n_samples,
        "s": _stat_rows(summary.s),
        "b": _stat_rows(summary.b),
        "tau": _stat_rows(summary.tau),
    }
    if summary.theta is not None:
        doc["theta"] = {k: {"mean": v.mean, "var": v.var, "n": v.n} for k, v in summary.theta.items()}
    if summary.mh_acceptance is not None:
        doc["mh_acceptance"] = summary.mh_acceptance
    if summary.theta_acceptance is not None:
        doc["theta_acceptance"] = summary.theta_acceptance
    write_json(doc, path)


def write_points_json(points: PointEstimates, path) -> None:
    doc = {
        "model": points.model.value,
        "s": _Rows(by_assignment(points.s)),
        "b": _Rows(by_assignment(points.b)),
        "tau": _Rows(by_assignment(points.tau)),
        "n_iterations": {str(a): n for a, n in points.n_iterations.items()},
        "converged": {str(a): c for a, c in points.converged.items()},
        "log_joint": points.log_joint,
    }
    write_json(doc, path)


def write_trace_csv(trace: TraceRecorder, path) -> None:
    _write_table(path, ["sweep", "var_kind", "assignment", "student", "value"], (
        (sweep_no, kind, a, student, f6(value)) for sweep_no, kind, a, student, value in trace.rows
    ))


def write_report(reports: Sequence[EvaluationReport], outdir) -> None:
    """report.json plus report.csv with one row per headline metric and one
    column per evaluated approach."""
    outdir = Path(outdir)
    doc = {}
    for rep in reports:
        doc[rep.label] = {
            "metrics": rep.metrics,
            "n_simulations": rep.n_simulations,
            "grades_per_simulation": rep.grades_per_simulation,
            "truth_source": rep.truth_source.value,
            "submissions": {
                f"{s.assignment}/{s.gradee}": {
                    "truth": s.truth,
                    "rmse": float(np.sqrt(np.mean(s.residuals**2))),
                    "std": float(np.std(s.residuals)),
                    "worst": float(s.residuals[np.argmax(np.abs(s.residuals))]),
                }
                for s in rep.submissions
            },
        }
    write_json(doc, outdir / "report.json")
    _write_table(outdir / "report.csv", ["metric"] + [rep.label for rep in reports],
                 ([metric] + [f6(rep.metrics[metric]) for rep in reports] for metric in METRIC_ROWS))


def write_residuals_csv(reports: Sequence[EvaluationReport], path) -> None:
    _write_table(path, ["label", "assignment", "gradee", "sim", "estimate", "residual"], (
        (rep.label, sub.assignment, sub.gradee, i, f6(est), f6(res))
        for rep in reports
        for sub in rep.submissions
        for i, (est, res) in enumerate(zip(sub.estimates, sub.residuals))
    ))


def write_calibration_csv(report: CalibrationReport, path) -> None:
    _write_table(path, ["bin_lo", "bin_hi", "delta", "count", "pass_rate"], (
        (f6(b.bin_lo), f6(b.bin_hi), f6(b.delta), b.count, f6(b.pass_rate)) for b in report.bins
    ))


def write_rounds_csv(report: RoundsReport, path) -> None:
    _write_table(path, ["round", "confident_count", "total"],
                 ((r.round, r.confident_count, r.total) for r in report.rows))


def write_binned_table_csv(table: BinnedResidualTable, path) -> None:
    _write_table(path, ["bin_lo", "bin_hi", "count", "mean_residual", "std_residual", "flagged"], (
        (f6(b.lo), f6(b.hi), b.count, f6(b.mean_residual), f6(b.std_residual), int(b.flagged))
        for b in table.bins
    ))


def write_heatmap_csv(hm: ResidualHeatmap, path) -> None:
    edges, n = hm.edges, hm.counts.shape[0]
    _write_table(path, ["grader_bin_lo", "grader_bin_hi", "gradee_bin_lo", "gradee_bin_hi", "count",
                        "mean_residual_z"], (
        (f6(edges[i]), f6(edges[i + 1]), f6(edges[j]), f6(edges[j + 1]),
         int(hm.counts[i, j]), f6(float(hm.mean_residual_z[i, j])))
        for i in range(n)
        for j in range(n)
    ))


def write_temporal_csv(report: TemporalCorrelationReport, path) -> None:
    _write_table(path, ["assignment_prev", "assignment_next", "n_common", "pearson"],
                 ((p.assignment_prev, p.assignment_next, p.n_common, f6(p.pearson)) for p in report.pairs))


def write_identifiability_csv(rows: Sequence[IdentifiabilityRow], path) -> None:
    _write_table(path, ["grades_per_grader", "rmse_baseline", "rmse_pg1_bias", "rmse_pg1",
                        "tau_recovery_pearson"], (
        (r.grades_per_grader, f6(r.rmse_baseline), f6(r.rmse_pg1_bias), f6(r.rmse_pg1),
         f6(r.tau_recovery_pearson))
        for r in rows
    ))
