import filecmp
import json
import logging
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from peergrade import cli, evaluation, synth
from peergrade.core import GradingGraph, GroundTruth, Model, PeerGrade, PosteriorSummary, VariableStat
from peergrade.em import PointEstimates
from peergrade.io import (
    describe,
    f6,
    ingest,
    jsonable,
    read_grades_csv,
    read_truth_csv,
    write_grades_csv,
    write_json,
    write_points_json,
    write_summary_json,
    write_truth_csv,
)


class TestFormatting:
    def test_f6_six_significant_digits(self):
        assert f6(75.123456789) == "75.1235"
        assert f6(0.000123456789) == "0.000123457"
        assert f6(3.0) == "3"
        assert f6(-1e20) == "-1e+20"

    def test_f6_non_finite(self):
        assert f6(float("nan")) == "nan"
        assert f6(float("inf")) == "inf"
        assert f6(float("-inf")) == "-inf"

    def test_jsonable_scalars(self):
        assert jsonable(None) is None
        assert jsonable("x") == "x"
        assert jsonable(True) is True
        assert jsonable(np.bool_(False)) is False
        assert jsonable(7) == 7
        assert jsonable(np.int64(7)) == 7
        assert jsonable(1.23456789) == 1.23457

    def test_jsonable_containers(self):
        out = jsonable({"a": np.array([1.0, 2.0]), "b": (np.float64(0.5),)})
        assert out == {"a": [1.0, 2.0], "b": [0.5]}

    def test_jsonable_keeps_nan(self):
        assert math.isnan(jsonable(float("nan")))

    def test_jsonable_rejects_unknown(self):
        with pytest.raises(TypeError):
            jsonable(object())

    def test_write_json_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_json({"b": 1.0, "a": {"z": 2, "y": 3}}, p1)
        write_json({"a": {"y": 3, "z": 2}, "b": 1.0}, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_bytes().endswith(b"\n")
        assert json.loads(p1.read_text()) == {"a": {"y": 3, "z": 2}, "b": 1.0}


def reference_json(doc) -> bytes:
    """What json.dump(jsonable(doc), sort_keys=True, indent=2) plus a newline writes."""
    return (json.dumps(jsonable(doc), sort_keys=True, indent=2) + "\n").encode()


SPECIAL_FLOATS = [0.0, -0.0, 1e-5, 1e17, -1e17, 1.23456789, 123456789.0, 5e-324,
                  float("nan"), float("inf"), float("-inf")]
ids = st.text(max_size=6) | st.sampled_from(["s00001", "\u00e9t\u00fc", 'a"b', "a\\b", "\x00\x1f\n", "\U0001f600"])
floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(SPECIAL_FLOATS)
leaves = (
    st.none() | st.booleans() | st.integers() | floats | ids
    | floats.map(np.float64) | st.floats(width=32).map(np.float32) | st.integers(-2**63, 2**63 - 1).map(np.int64)
    | st.booleans().map(np.bool_)
    | st.lists(floats, max_size=4).map(lambda v: np.array(v, dtype=float))
    | st.lists(st.integers(-9, 9), max_size=4).map(lambda v: np.array(v, dtype=np.int64).reshape(-1, 1))
)
keys = st.integers(-3, 12) | st.sampled_from([2, 10, "2", "10"]) | ids
documents = st.recursive(
    leaves,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(keys, inner, max_size=4)),
    max_leaves=20,
)


class TestJsonEncoder:
    @settings(max_examples=300, deadline=None)
    @given(doc=documents)
    def test_bytes_equal_json_module(self, tmp_path_factory, doc):
        path = tmp_path_factory.getbasetemp() / "encoder.json"
        write_json(doc, path)
        assert path.read_bytes() == reference_json(doc)

    def test_key_order_is_string_order(self, tmp_path):
        write_json({2: "a", 10: "b", "1x": None}, tmp_path / "k.json")
        assert list(json.loads((tmp_path / "k.json").read_text())) == ["10", "1x", "2"]

    def test_rejects_unknown(self, tmp_path):
        with pytest.raises(TypeError, match="cannot serialize"):
            write_json({"a": [object()]}, tmp_path / "x.json")

    @settings(max_examples=100, deadline=None)
    @given(
        stats=st.dictionaries(
            st.tuples(st.sampled_from([1, 2, 10]), ids.filter(bool)),
            st.builds(VariableStat, floats, floats, st.integers(0, 10**6)),
            max_size=12,
        ),
        theta=st.none() | st.builds(VariableStat, floats, floats, st.integers(0, 9)),
    )
    def test_summary_rows_match_nested_document(self, tmp_path_factory, stats, theta):
        """The row path writes the bytes of the nested document that
        {assignment: {student: {mean, n, var}}} spells out."""
        summary = PosteriorSummary(model=Model.PG1, s=stats, b={}, tau=dict(list(stats.items())[:3]),
                                   n_samples=7, mh_acceptance=0.25)
        if theta is not None:
            summary.theta = {"theta0": theta, "theta1": theta}

        def nested(block):
            out = {}
            for (a, u), v in block.items():
                out.setdefault(str(a), {})[u] = {"mean": v.mean, "var": v.var, "n": v.n}
            return out

        doc = {"model": "pg1", "n_samples": 7, "s": nested(summary.s), "b": {},
               "tau": nested(summary.tau), "mh_acceptance": 0.25}
        if theta is not None:
            doc["theta"] = {k: {"mean": v.mean, "var": v.var, "n": v.n} for k, v in summary.theta.items()}
        path = tmp_path_factory.getbasetemp() / "summary.json"
        write_summary_json(summary, path)
        assert path.read_bytes() == reference_json(doc)

    @settings(max_examples=100, deadline=None)
    @given(values=st.dictionaries(st.tuples(st.sampled_from([1, 2, 10]), ids.filter(bool)), floats, max_size=12))
    def test_point_rows_match_nested_document(self, tmp_path_factory, values):
        points = PointEstimates(model=Model.PG1, s=values, b={}, tau=values,
                                n_iterations={1: 3}, converged={1: True}, objective_trace={1: [-1.5]})

        def nested(block):
            out = {}
            for (a, u), v in block.items():
                out.setdefault(str(a), {})[u] = v
            return out

        doc = {"model": "pg1", "s": nested(values), "b": {}, "tau": nested(values),
               "n_iterations": {"1": 3}, "converged": {"1": True}, "log_joint": -1.5}
        path = tmp_path_factory.getbasetemp() / "points.json"
        write_points_json(points, path)
        assert path.read_bytes() == reference_json(doc)


GRADE_ROWS = [
    PeerGrade(1, "v1", "u1", 80.0),
    PeerGrade(1, "v2", "u1", 70.5),
    PeerGrade(2, "v1", "u2", 60.25, seconds=300.0),
]


class TestGradesCsv:
    def test_roundtrip_without_seconds(self, tmp_path):
        path = tmp_path / "g.csv"
        rows = [g for g in GRADE_ROWS if g.seconds is None]
        write_grades_csv(rows, path)
        assert path.read_text().splitlines()[0] == "assignment,grader,gradee,score"
        assert list(read_grades_csv(path)) == rows

    def test_roundtrip_with_seconds(self, tmp_path):
        path = tmp_path / "g.csv"
        write_grades_csv(GRADE_ROWS, path)
        header = path.read_text().splitlines()[0]
        assert header == "assignment,grader,gradee,score,seconds"
        back = read_grades_csv(path)
        assert list(back) == GRADE_ROWS
        assert back[0].seconds is None and back[2].seconds == 300.0

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("grader,gradee,score\nv,u,70\n")
        with pytest.raises(ValueError, match="header"):
            read_grades_csv(path)

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("assignment,grader,gradee,score\n1,v,u,70\nx,v,u,70\n")
        with pytest.raises(ValueError, match="line 3"):
            read_grades_csv(path)

    def test_rejects_short_row(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("assignment,grader,gradee,score\n1,v,u\n")
        with pytest.raises(ValueError, match="line 2"):
            read_grades_csv(path)

    @pytest.mark.parametrize("row, message", [
        ("1,v,w,high,", "line 3: score must be a number, got 'high'"),
        ("one,v,w,70,", "line 3: assignment must be an integer, got 'one'"),
        ("1,v,w,70,soon", "line 3: seconds must be a number, got 'soon'"),
        ("0,v,w,70,", "line 3: assignment id must be >= 1, got 0"),
        ("1,v,w,nan,", "line 3: grade score must be finite, got nan"),
    ])
    def test_cell_error_prefixed_once(self, tmp_path, row, message):
        path = tmp_path / "g.csv"
        path.write_text(f"assignment,grader,gradee,score,seconds\n1,v,u,70,\n{row}\n")
        with pytest.raises(ValueError) as err:
            read_grades_csv(path)
        assert str(err.value) == message

    def test_error_names_physical_line_after_multiline_cell(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text('assignment,grader,gradee,score\n1,v,"u\nw",70\n1,v,x,high\n')
        with pytest.raises(ValueError) as err:
            read_grades_csv(path)
        assert str(err.value) == "line 4: score must be a number, got 'high'"


class TestCsvReaderErrors:
    @pytest.mark.parametrize("reader, header", [
        (read_grades_csv, "assignment,grader,gradee,score\n1,v,u,70\n"),
        (read_truth_csv, "assignment,gradee,staff_score,consensus_score\n1,u,,70\n"),
    ])
    def test_oversized_cell_names_line(self, tmp_path, reader, header):
        path = tmp_path / "f.csv"
        path.write_text(header + "1," + "x" * 200_000 + ",70,70\n")
        with pytest.raises(ValueError) as err:
            reader(path)
        assert str(err.value) == "line 3: field larger than field limit (131072)"

    @pytest.mark.parametrize("reader, header", [
        (read_grades_csv, b"assignment,grader,gradee,score\n"),
        (read_truth_csv, b"assignment,gradee,staff_score,consensus_score\n"),
        (read_grades_csv, b"\xef\xbb\xbfassignment,grader,gradee,score\n"),
        (cli._load_config, b"# fit settings\n"),
    ])
    def test_undecodable_bytes_name_file(self, tmp_path, reader, header):
        path = tmp_path / "f.csv"
        path.write_bytes(header + b"1,\xff,\xfe,70\n")
        with pytest.raises(ValueError) as err:
            reader(path)
        assert str(err.value) == f"{path}: cannot decode as text (invalid start byte)"

    @pytest.mark.parametrize("reader, text", [
        (read_grades_csv, "assignment,grader,gradee,score,seconds\n1,v,u,70,12\n1,u,v,65.5,\n"),
        (read_truth_csv, "assignment,gradee,staff_score,consensus_score\n1,u,,70\n1,v,72,71.5\n"),
    ], ids=["grades", "truth"])
    def test_byte_order_mark_is_skipped(self, tmp_path, reader, text):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert reader(marked) == reader(plain)

    def test_cli_oversized_cell_exits_1(self, tmp_path, capsys):
        gpath = tmp_path / "g.csv"
        gpath.write_text("assignment,grader,gradee,score\n1,v," + "u" * 200_000 + ",70\n")
        code, _, err = run_cli(["infer", "--grades", str(gpath), "--out", str(tmp_path / "x")], capsys)
        assert code == 1
        assert err == "error: line 2: field larger than field limit (131072)\n"


class TestTruthCsv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "t.csv"
        truth = {
            (1, "u1"): GroundTruth(consensus_score=75.5, staff_score=74.0),
            (2, "u9"): GroundTruth(consensus_score=60.0, staff_score=None),
        }
        write_truth_csv(truth, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "assignment,gradee,staff_score,consensus_score"
        assert lines[2].startswith("2,u9,,")
        assert read_truth_csv(path) == truth

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "assignment,gradee,staff_score,consensus_score\n1,u,70,71\n1,u,70,72\n")
        with pytest.raises(ValueError, match="duplicate"):
            read_truth_csv(path)


class TestIngest:
    def test_drops_self_grades_keeps_universe(self, tmp_path, caplog):
        gpath = tmp_path / "g.csv"
        write_grades_csv(
            [PeerGrade(1, "a", "a", 90.0),
             PeerGrade(1, "a", "b", 70.0),
             PeerGrade(1, "b", "a", 75.0)],
            gpath,
        )
        with caplog.at_level(logging.INFO, logger="peergrade.io"):
            graph = ingest(gpath)
        assert len(graph.grades) == 2
        assert graph.submissions(1) == ("a", "b")
        assert any("self-grade" in r.message for r in caplog.records)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_fuzzed_files_load_or_raise_one_line_prefix(self, tmp_path_factory, data):
        # cells drawn from a small alphabet that reaches the parse branches:
        # numbers, ids, quotes, separators, line breaks and undecodable bytes
        cell = st.one_of(
            st.sampled_from(["1", "2", "0", "-3", "a", "b", "c", "70", "1e400", "nan", "", " ", "x"]),
            st.text(alphabet='12ab,"\n\r.e-', max_size=6),
        )
        header = data.draw(st.sampled_from([
            "assignment,grader,gradee,score", "assignment,grader,gradee,score,seconds",
            "assignment,grader,score", "",
        ]))
        rows = data.draw(st.lists(st.lists(cell, min_size=0, max_size=6), max_size=8))
        body = (header + "\n" + "\n".join(",".join(r) for r in rows)).encode()
        if data.draw(st.booleans()):
            at = data.draw(st.integers(0, len(body)))
            body = body[:at] + data.draw(st.binary(min_size=1, max_size=3)) + body[at:]
        path = tmp_path_factory.mktemp("fuzz") / "g.csv"
        path.write_bytes(body)
        try:
            graph = ingest(path)
        except ValueError as e:
            assert type(e) is ValueError, repr(e)
            assert not re.match(r"line \d+: line \d+:", str(e)), str(e)
        else:
            assert all(g.grader != g.gradee for g in graph.grades)

    def test_attaches_truth(self, tmp_path):
        gpath, tpath = tmp_path / "g.csv", tmp_path / "t.csv"
        write_grades_csv([PeerGrade(1, "a", "b", 70.0), PeerGrade(1, "b", "a", 75.0)], gpath)
        write_truth_csv({(1, "b"): GroundTruth(consensus_score=71.0, staff_score=70.5)}, tpath)
        graph = ingest(gpath, tpath)
        assert graph.ground_truth[(1, "b")].staff_score == 70.5

    def test_truth_for_unknown_submission_rejected(self, tmp_path):
        gpath, tpath = tmp_path / "g.csv", tmp_path / "t.csv"
        write_grades_csv([PeerGrade(1, "a", "b", 70.0)], gpath)
        write_truth_csv({(1, "zz"): GroundTruth(consensus_score=71.0, staff_score=None)}, tpath)
        with pytest.raises(ValueError):
            ingest(gpath, tpath)


class TestDescribe:
    def test_totals_row(self):
        graph = GradingGraph(
            [PeerGrade(1, "a", "b", 70.0), PeerGrade(1, "b", "a", 75.0),
             PeerGrade(2, "a", "b", 72.0), PeerGrade(2, "b", "a", 77.0)],
            ground_truth={(1, "b"): GroundTruth(consensus_score=71.0, staff_score=None)},
        )
        text = describe(graph)
        lines = text.splitlines()
        assert any(line.lstrip().startswith("total") for line in lines)
        assert "2" in text and "4" in text


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    code = cli.main([
        "synth", "--students", "60", "--grades-per-grader", "4", "--gt", "3",
        "--super-grades", "20", "--seed", "11", "--out", str(out),
    ])
    assert code == 0
    truth = read_truth_csv(out / "truth.csv")
    write_truth_csv({k: replace(gt, staff_score=None) for k, gt in truth.items()}, out / "truth-consensus.csv")
    return out


class TestCliHappyPaths:
    def test_synth_outputs(self, synth_dir):
        for name in ("grades.csv", "truth.csv", "latents.csv"):
            assert (synth_dir / name).exists()
        graph = ingest(synth_dir / "grades.csv", synth_dir / "truth.csv")
        assert len(graph.submissions(1)) == 60

    def test_infer_gibbs(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "fit"
        code, stdout, _ = run_cli([
            "infer", "--grades", str(synth_dir / "grades.csv"),
            "--model", "pg1", "--sweeps", "120", "--burnin", "20",
            "--seed", "5", "--out", str(out),
        ], capsys)
        assert code == 0
        assert stdout.startswith("seed: 5")
        data = json.loads((out / "summary.json").read_text())
        assert data["model"] == "pg1"
        assert data["n_samples"] == 100

    def test_infer_em_writes_points(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "fit"
        code, stdout, _ = run_cli([
            "infer", "--grades", str(synth_dir / "grades.csv"),
            "--model", "pg1bias", "--engine", "em", "--out", str(out),
        ], capsys)
        assert code == 0
        data = json.loads((out / "summary.json").read_text())
        assert data["converged"] == {"1": True}
        assert "wrote" in stdout

    def test_synth_hp_applies_on_top_of_the_defaults(self, tmp_path, capsys):
        # eta0=0.04 is the default, so setting it must not change a byte
        flags = ["synth", "--students", "40", "--super-grades", "10", "--seed", "3"]
        for name, hp in [("plain", []), ("same", ["--hp", "eta0=0.04"]), ("eta", ["--hp", "eta0=0.1"])]:
            assert run_cli([*flags, *hp, "--out", str(tmp_path / name)], capsys)[0] == 0
        for name in ("grades.csv", "truth.csv", "latents.csv"):
            assert (tmp_path / "same" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
        assert (tmp_path / "eta" / "latents.csv").read_bytes() != (tmp_path / "plain" / "latents.csv").read_bytes()

    def test_identifiability_hp_applies_on_top_of_the_defaults(self, tmp_path, capsys, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "identifiability_experiment", lambda base_cfg, **kw: seen.append(base_cfg.hp) or [])
        code, _, _ = run_cli(["identifiability", "--students", "40", "--super-grades", "10",
                              "--hp", "theta1=0.002", "--out", str(tmp_path)], capsys)
        assert code == 0
        assert seen == [replace(synth.SynthConfig(n_students=200).hp, theta1=0.002)]

    def test_infer_trace(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "fit"
        code, _, _ = run_cli([
            "infer", "--grades", str(synth_dir / "grades.csv"),
            "--model", "pg1", "--sweeps", "60", "--burnin", "10",
            "--trace", "s:1:s00001", "--out", str(out),
        ], capsys)
        assert code == 0
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == "sweep,var_kind,assignment,student,value"
        assert len(lines) == 51

    def test_evaluate_report_shape(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "ev"
        code, _, _ = run_cli([
            "evaluate", "--grades", str(synth_dir / "grades.csv"),
            "--truth", str(synth_dir / "truth.csv"),
            "--model", "pg1", "--engine", "em", "--sims", "60", "--out", str(out),
        ], capsys)
        assert code == 0
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0] == "metric,median-baseline,pg1-em"
        assert len(lines) == 6
        report = json.loads((out / "report.json").read_text())
        assert set(report) == {"median-baseline", "pg1-em"}

    def test_rounds(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "r"
        code, _, _ = run_cli([
            "rounds", "--grades", str(synth_dir / "grades.csv"),
            "--model", "pg1", "--sweeps", "100", "--burnin", "20",
            "--max-rounds", "2", "--out", str(out),
        ], capsys)
        assert code == 0
        lines = (out / "rounds.csv").read_text().splitlines()
        assert lines[0] == "round,confident_count,total"
        assert len(lines) == 3

    def test_calibrate(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "cal"
        code, _, _ = run_cli([
            "calibrate", "--grades", str(synth_dir / "grades.csv"),
            "--truth", str(synth_dir / "truth.csv"),
            "--model", "pg1", "--engine", "em", "--sims", "40", "--out", str(out),
        ], capsys)
        assert code == 0
        assert len((out / "calibration.csv").read_text().splitlines()) == 61
        assert (out / "report.json").exists()
        assert (out / "report.csv").exists()

    def test_identifiability(self, tmp_path, capsys):
        out = tmp_path / "id"
        code, _, _ = run_cli([
            "identifiability", "--students", "30", "--gt", "2", "--super-grades", "10",
            "--counts", "4,6", "--sims", "20", "--sweeps", "40", "--burnin", "10", "--out", str(out),
        ], capsys)
        assert code == 0
        lines = (out / "identifiability.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["4", "6"]

    def test_analyze(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "an"
        code, _, _ = run_cli([
            "analyze", "--grades", str(synth_dir / "grades.csv"),
            "--model", "pg1", "--engine", "em", "--out", str(out),
        ], capsys)
        assert code == 0
        assert (out / "residual_vs_grader_score.csv").exists()
        assert (out / "residual_vs_gradee_score.csv").exists()
        assert (out / "heatmap.csv").exists()
        meta = json.loads((out / "analytics.json").read_text())
        assert meta["covariates"] == ["grader_score", "gradee_score"]


class TestCliErrors:
    @pytest.mark.parametrize("args, message", [
        (["analyze", "--bins", "0"], "n_bins must be >= 1, got 0"),
        (["analyze", "--bins", "-2"], "n_bins must be >= 1, got -2"),
        (["rounds", "--max-rounds", "0"], "max_rounds must be >= 1, got 0"),
        (["rounds", "--max-rounds", "-1"], "max_rounds must be >= 1, got -1"),
    ], ids=["bins=0", "bins=-2", "max-rounds=0", "max-rounds=-1"])
    def test_count_below_one(self, synth_dir, tmp_path, capsys, args, message):
        code, _, err = run_cli([
            *args, "--grades", str(synth_dir / "grades.csv"),
            "--sweeps", "20", "--burnin", "5", "--out", str(tmp_path / "x"),
        ], capsys)
        assert code == 1
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("args, message", [
        (["infer", "--sweeps", "0"], "total_sweeps must be >= 1, got 0"),
        (["infer", "--burnin", "900"], "burn_in must lie in [0, total_sweeps), got 900 of 800"),
        (["infer", "--trace", "s:x:u"], "bad --trace 's:x:u': assignment must be an integer"),
        (["infer", "--engine", "em", "--trace", "s:1:s00001"],
         "--trace records Gibbs draws; it needs --engine gibbs"),
        (["analyze", "--bins", "0"], "n_bins must be >= 1, got 0"),
        (["evaluate", "--grades", "no-such-dir/grades.csv", "--sweeps", "0"], "total_sweeps must be >= 1, got 0"),
        (["calibrate", "--sims", "0"], "n_simulations must be >= 1, got 0"),
        (["rounds", "--burnin", "900"], "burn_in must lie in [0, total_sweeps), got 900 of 800"),
        (["rounds", "--delta", "-1"], "delta must be finite and >= 0, got -1.0"),
        (["rounds", "--threshold", "1.5"], "threshold must lie in [0, 1], got 1.5"),
        (["evaluate", "--threads", "-3"], "max_workers must be >= 1, got -3"),
        (["identifiability", "--students", "200", "--threads", "-3"], "max_workers must be >= 1, got -3"),
        (["identifiability", "--students", "200", "--counts", "4,0"], "grades_per_grader must be >= 1, got 0"),
        (["identifiability", "--students", "200", "--counts", "4", "--grades-per-sim", "500"],
         "each ground-truth submission has a pool of 160 grades, cannot draw 500 without replacement"),
        (["identifiability", "--students", "200", "--counts", "4", "--gt", "0"],
         "graph has no ground-truth submissions to evaluate"),
        (["evaluate", "--skip-baseline", "--truth", "{synth}/truth-consensus.csv", "--truth-source", "staff"],
         "submission (1, 's00035') has no staff score"),
        (["evaluate", "--skip-baseline", "--grades-per-sim", "200"],
         "submission (1, 's00035') has a pool of 20 grades, cannot draw 200 without replacement"),
        (["calibrate", "--truth", "{synth}/truth-consensus.csv", "--truth-source", "staff"],
         "submission (1, 's00035') has no staff score"),
        (["evaluate", "--grades", "no-such-dir/grades.csv", "--threads", "0"], "max_workers must be >= 1, got 0"),
        (["calibrate", "--grades", "no-such-dir/grades.csv", "--threads", "0"], "max_workers must be >= 1, got 0"),
        (["rounds", "--grades", "no-such-dir/grades.csv", "--threads", "0"], "max_workers must be >= 1, got 0"),
        (["rounds", "--sweeps", "2", "--burnin", "1", "--method", "empirical"],
         "rounds needs at least 2 retained sweeps to measure confidence, got 1 (2 sweeps, burn-in 1)"),
    ], ids=["sweeps=0", "burnin=900", "trace=s:x:u", "em-trace", "bins=0", "evaluate-missing-grades",
            "sims=0", "rounds-burnin=900", "delta=-1", "threshold=1.5", "threads=-3",
            "identifiability-threads=-3", "identifiability-counts=4,0",
            "identifiability-grades-per-sim=500", "identifiability-gt=0", "evaluate-no-staff",
            "evaluate-grades-per-sim=200", "calibrate-no-staff", "evaluate-threads=0-missing-grades",
            "calibrate-threads=0-missing-grades", "rounds-threads=0-missing-grades",
            "rounds-one-retained-sweep"])
    def test_bad_flag_rejected_before_any_output(self, synth_dir, tmp_path, capsys, monkeypatch, args, message):
        # flags after the grades and truth files win, so a case can point at a missing file or
        # at the synth directory's staff-less truth; identifiability reads no files, and must
        # stop before it generates a network; evaluation must stop before its first fit
        def no_generate(cfg):
            raise AssertionError("generate ran before the flags were checked")

        def no_fit(*_, **__):
            raise AssertionError("a reduced graph was fitted before the inputs were checked")

        monkeypatch.setattr(synth, "generate", no_generate)
        monkeypatch.setattr(evaluation, "fit_frozen", no_fit)
        command, *flags = [arg.format(synth=synth_dir) for arg in args]
        inputs = [] if command == "identifiability" else [
            "--grades", str(synth_dir / "grades.csv"), "--truth", str(synth_dir / "truth.csv")]
        out = tmp_path / "x"
        code, _, err = run_cli([command, *inputs, *flags, "--out", str(out)], capsys)
        assert code == 1
        assert err == f"error: {message}\n"
        assert not out.exists()

    def test_synth_ground_truth_without_super_grades(self, tmp_path, capsys, monkeypatch):
        def no_generate(cfg):
            raise AssertionError("generate ran before the config was checked")

        monkeypatch.setattr(cli, "generate", no_generate)
        out = tmp_path / "x"
        code, _, err = run_cli(["synth", "--students", "50", "--super-grades", "0", "--out", str(out)], capsys)
        assert code == 1
        assert err == ("error: infeasible: 3 ground-truth submissions per assignment are graded only by "
                       "super graders, and super_grades is 0\n")
        assert not out.exists()

    def test_bad_hp_key(self, synth_dir, tmp_path, capsys):
        code, _, err = run_cli([
            "infer", "--grades", str(synth_dir / "grades.csv"),
            "--hp", "nonsense=1.0", "--out", str(tmp_path / "x"),
        ], capsys)
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("args, message", [
        (["infer", "--engine", "em", "--hp", "alpha0=1e308"], "alpha0=1e+308 is too large: lgamma(alpha0) overflows"),
        (["calibrate", "--hp", "alpha0=1e308"], "alpha0=1e+308 is too large: lgamma(alpha0) overflows"),
        (["infer", "--model", "pg1", "--hp", "gamma0=1e-320"], "gamma0=1e-320 is too small: its reciprocal overflows"),
        (["infer", "--model", "pg2", "--hp", "alpha0=1e308"], "alpha0=1e+308 is too large: lgamma(alpha0) overflows"),
        (["evaluate", "--hp", "alpha0=1e308"], "alpha0=1e+308 is too large: lgamma(alpha0) overflows"),
        (["infer", "--model", "pg3", "--hp", "precision_floor=1e308"],
         "precision_floor=1e+308 is too large: its square overflows"),
        (["infer", "--model", "pg3", "--hp", "beta0=1e-300"],
         "beta0=1e-300 is too small for alpha0=2.0: the prior-mean reliability alpha0/beta0 squared overflows"),
    ], ids=["infer-em", "calibrate", "infer-pg1", "infer-pg2", "evaluate", "infer-pg3-floor", "infer-pg3-beta0"])
    def test_hyperparameter_whose_use_overflows(self, tmp_path, capsys, args, message):
        """Each of these once ended in a traceback or wrote NaN or Infinity
        with exit 0; now the run stops before any fit, naming the field."""
        synth = Path(__file__).parent / "golden" / "synth"
        truth = ["--truth", str(synth / "truth.csv")] if args[0] in ("calibrate", "evaluate") else []
        out = tmp_path / "x"
        code, _, err = run_cli([*args, "--grades", str(synth / "grades.csv"), *truth, "--sweeps", "20",
                                "--burnin", "5", "--out", str(out)], capsys)
        assert (code, err) == (1, f"error: {message}\n")
        assert not out.exists()

    def test_em_rejects_pg3(self, synth_dir, tmp_path, capsys):
        code, _, err = run_cli([
            "infer", "--grades", str(synth_dir / "grades.csv"),
            "--model", "pg3", "--engine", "em", "--out", str(tmp_path / "x"),
        ], capsys)
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("model", ["pg1", "pg2"])
    def test_assignment_without_grades(self, tmp_path, capsys, model):
        # ingest keeps assignment 2's universe after dropping its only grade,
        # a self-grade; neither model has grades to put it in percentage points
        gpath = tmp_path / "g.csv"
        write_grades_csv(
            [PeerGrade(1, "a", "b", 70.0), PeerGrade(1, "b", "a", 75.0),
             PeerGrade(2, "a", "a", 80.0)],
            gpath,
        )
        code, _, err = run_cli([
            "infer", "--grades", str(gpath), "--model", model,
            "--sweeps", "20", "--burnin", "5", "--out", str(tmp_path / "x"),
        ], capsys)
        assert code == 1
        assert err.startswith("error: assignment 2: no grades to resolve data-driven priors")
        assert "Traceback" not in err

    def test_duplicate_grade_names_both_lines(self, tmp_path, capsys):
        gpath = tmp_path / "g.csv"
        gpath.write_text("assignment,grader,gradee,score\n1,a,b,80\n1,b,a,70\n\n1,a,b,75\n")
        code, _, err = run_cli(["infer", "--grades", str(gpath), "--out", str(tmp_path / "x")], capsys)
        assert code == 1
        assert err == "error: line 5: duplicate grade: grader 'a' already graded 'b' in assignment 1 on line 2\n"

    def test_overflowing_grades_name_the_assignment(self, tmp_path, capsys):
        gpath = tmp_path / "g.csv"
        gpath.write_text("assignment,grader,gradee,score\n1,a,b,1e308\n1,b,a,-1e308\n")
        code, _, err = run_cli([
            "infer", "--grades", str(gpath), "--sweeps", "20", "--burnin", "5", "--out", str(tmp_path / "x"),
        ], capsys)
        assert code == 1
        assert err == ("error: assignment 1: grades too large to resolve data-driven priors from: "
                       "their variance overflows; set mu0 and gamma0 explicitly\n")

    def test_overflowing_grades_name_the_assignment_when_z_scored(self, tmp_path, capsys):
        gpath = tmp_path / "g.csv"
        gpath.write_text("assignment,grader,gradee,score\n1,a,b,1e308\n1,b,a,-1e308\n")
        code, _, err = run_cli([
            "infer", "--grades", str(gpath), "--model", "pg2", "--sweeps", "20", "--burnin", "5",
            "--out", str(tmp_path / "x"),
        ], capsys)
        assert code == 1
        assert err == "error: cannot normalize assignment 1: grades too large, their variance overflows\n"

    FAR = ("error: assignment 1: grades too far from mu0={}: their squared residuals overflow; "
           "rescale the grades or set mu0 nearer to them\n")

    @pytest.mark.parametrize("engine", [["--model", "pg1bias"], ["--model", "pg1"], ["--model", "pg2"],
                                        ["--model", "pg3"], ["--engine", "em"]], ids=lambda args: args[-1])
    def test_prior_far_from_the_grades_names_the_assignment(self, synth_dir, tmp_path, capsys, engine):
        code, _, err = run_cli([
            "infer", "--grades", str(synth_dir / "grades.csv"), *engine, "--hp", "mu0=1e300",
            "--sweeps", "20", "--burnin", "5", "--out", str(tmp_path / "x"),
        ], capsys)
        assert code == 1
        assert err == self.FAR.format("1e+300")

    @pytest.mark.parametrize("engine", [["--model", "pg1bias"], ["--model", "pg1"], ["--model", "pg3"],
                                        ["--engine", "em"]], ids=lambda args: args[-1])
    def test_explicit_priors_for_overflowing_grades_name_the_assignment(self, tmp_path, capsys, engine):
        gpath = tmp_path / "g.csv"
        gpath.write_text("assignment,grader,gradee,score\n1,a,b,1e200\n1,b,c,-1e200\n1,c,a,3e199\n1,a,c,5\n")
        code, _, err = run_cli([
            "infer", "--grades", str(gpath), *engine, "--hp", "mu0=0", "--hp", "gamma0=1",
            "--sweeps", "20", "--burnin", "5", "--out", str(tmp_path / "x"),
        ], capsys)
        assert code == 1
        assert err == self.FAR.format("0")

    def test_trace_of_non_grader_bias(self, tmp_path, capsys):
        # u grades nobody, so it has no bias to trace
        gpath = tmp_path / "g.csv"
        write_grades_csv([PeerGrade(1, "v", "u", 80.0), PeerGrade(1, "w", "u", 72.0)], gpath)
        code, _, err = run_cli([
            "infer", "--grades", str(gpath), "--sweeps", "20", "--burnin", "5",
            "--trace", "b:1:u", "--out", str(tmp_path / "x"),
        ], capsys)
        assert code == 1
        assert err.startswith("error: trace variable ('b', 1, 'u') not tracked by the model")
        assert "Traceback" not in err

    def test_missing_grades_file(self, tmp_path, capsys):
        code, _, err = run_cli([
            "infer", "--grades", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "x"),
        ], capsys)
        assert code == 1
        assert "error:" in err

    def test_bad_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_choice_exits_2(self, synth_dir, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["infer", "--grades", str(synth_dir / "grades.csv"),
                      "--model", "pg9", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2


class TestCliConfigFile:
    def test_config_supplies_defaults(self, synth_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# fit settings\nsweeps = 70\nburnin = 10\nseed = 9\n")
        out = tmp_path / "fit"
        code, stdout, _ = run_cli([
            "infer", "--grades", str(synth_dir / "grades.csv"),
            "--config", str(cfg), "--out", str(out),
        ], capsys)
        assert code == 0
        assert stdout.startswith("seed: 9")
        data = json.loads((out / "summary.json").read_text())
        assert data["n_samples"] == 60

    def test_config_with_byte_order_mark(self, synth_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sweeps = 70\nburnin = 10\nseed = 9\n", encoding="utf-8-sig")
        out = tmp_path / "fit"
        code, stdout, err = run_cli([
            "infer", "--grades", str(synth_dir / "grades.csv"),
            "--config", str(cfg), "--out", str(out),
        ], capsys)
        assert (code, err) == (0, "")
        assert stdout.startswith("seed: 9")
        assert json.loads((out / "summary.json").read_text())["n_samples"] == 60

    def test_explicit_flag_beats_config(self, synth_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 9\n")
        code, stdout, _ = run_cli([
            "infer", "--grades", str(synth_dir / "grades.csv"),
            "--config", str(cfg), "--seed", "4", "--sweeps", "60",
            "--burnin", "10", "--out", str(tmp_path / "fit"),
        ], capsys)
        assert code == 0
        assert stdout.startswith("seed: 4")

    def test_unknown_config_key(self, synth_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("swweeps = 70\n")
        code, _, err = run_cli([
            "infer", "--grades", str(synth_dir / "grades.csv"),
            "--config", str(cfg), "--out", str(tmp_path / "fit"),
        ], capsys)
        assert code == 1
        assert "unknown config key" in err


class TestCliDeterminism:
    def test_repeat_runs_byte_identical(self, synth_dir, tmp_path, capsys):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code, _, _ = run_cli([
                "evaluate", "--grades", str(synth_dir / "grades.csv"),
                "--truth", str(synth_dir / "truth.csv"),
                "--model", "pg1", "--sweeps", "100", "--burnin", "20",
                "--sims", "50", "--seed", "3", "--out", str(out),
            ], capsys)
            assert code == 0
            outs.append(out)
        for name in ("report.json", "report.csv"):
            assert filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False)

    def test_threads_do_not_change_bytes(self, synth_dir, tmp_path, capsys):
        outs = []
        for name, threads in (("t1", "1"), ("t2", "2")):
            out = tmp_path / name
            code, _, _ = run_cli([
                "evaluate", "--grades", str(synth_dir / "grades.csv"),
                "--truth", str(synth_dir / "truth.csv"),
                "--model", "pg1", "--engine", "em", "--sims", "80",
                "--seed", "3", "--threads", threads, "--out", str(out),
            ], capsys)
            assert code == 0
            outs.append(out)
        for name in ("report.json", "report.csv"):
            assert filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False)


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_4X = Path(__file__).parent / "golden_4x"


def test_golden_bytes(tmp_path, capsys):
    """The CLI writes the committed bytes under tests/golden and
    tests/golden_4x: synth (PG2, 60 students x 2 assignments at seed 7, and
    x 4 assignments at seed 11, where a PG2 row has two chain neighbours),
    then, at the same seed, infer for pg1bias, pg1 and pg2, and infer
    --engine em. PG3 is left out: its accept test goes through np.log, whose
    last bit may differ between libm builds."""
    for golden, assignments, seed in ((GOLDEN, "2", "7"), (GOLDEN_4X, "4", "11")):
        out = tmp_path / golden.name
        grades = str(out / "synth" / "grades.csv")
        commands = [["synth", "--model", "pg2", "--students", "60", "--assignments", assignments, "--gt", "3",
                     "--super-grades", "20", "--seed", seed, "--out", str(out / "synth")]]
        for model in ("pg1bias", "pg1", "pg2"):
            commands.append(["infer", "--grades", grades, "--model", model, "--sweeps", "300",
                             "--burnin", "50", "--seed", seed, "--out", str(out / f"infer-{model}")])
        commands.append(["infer", "--grades", grades, "--model", "pg1", "--engine", "em",
                         "--out", str(out / "infer-em")])
        for args in commands:
            assert run_cli(args, capsys)[0] == 0
        expected = sorted(p.relative_to(golden) for p in golden.rglob("*") if p.is_file())
        written = sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
        assert written == expected
        for rel in expected:
            assert (out / rel).read_bytes() == (golden / rel).read_bytes(), (golden.name, rel)


GOLDEN_EM_PG1BIAS = Path(__file__).parent / "golden_em_pg1bias" / "summary.json"


def test_golden_em_pg1bias_bytes(tmp_path, capsys):
    """infer --engine em --model pg1bias on the synth set of test_golden_bytes
    writes the committed bytes."""
    out = tmp_path / "infer"
    grades = str(GOLDEN / "synth" / "grades.csv")
    assert run_cli(["infer", "--grades", grades, "--model", "pg1bias", "--engine", "em", "--out", str(out)],
                   capsys)[0] == 0
    assert sorted(p.name for p in out.iterdir()) == ["summary.json"]
    assert (out / "summary.json").read_bytes() == GOLDEN_EM_PG1BIAS.read_bytes()


GOLDEN_TABLES = Path(__file__).parent / "golden_tables"


def _with_seconds(src: Path, dst: Path) -> None:
    """A copy of a grades file with a seconds column; every ninth cell is
    empty, so the column has missing values too."""
    lines = src.read_text().splitlines()
    rows = [lines[0] + ",seconds"]
    for i, line in enumerate(lines[1:]):
        rows.append(f"{line}," + ("" if i % 9 == 8 else str(30 + (i * 37) % 600)))
    dst.write_text("\n".join(rows) + "\n")


def _table_commands(grades: str, truth: str, timed: str, out: Path) -> list[list[str]]:
    fit = ["--sweeps", "120", "--burnin", "20", "--seed", "7"]
    sims = ["--sims", "60"]
    return [
        ["infer", "--grades", grades, *fit, "--trace", "s:1:s00012", "--trace", "b:2:s00000",
         "--trace", "tau:1:s00003", "--out", str(out / "infer-trace")],
        ["evaluate", "--grades", grades, "--truth", truth, *fit, *sims, "--dump-residuals",
         "--out", str(out / "evaluate")],
        ["calibrate", "--grades", grades, "--truth", truth, *fit, *sims, "--out", str(out / "calibrate")],
        ["rounds", "--grades", grades, *fit, "--max-rounds", "3", "--out", str(out / "rounds")],
        ["rounds", "--grades", grades, *fit, "--max-rounds", "3", "--method", "empirical",
         "--out", str(out / "rounds-empirical")],
        ["analyze", "--grades", grades, *fit, "--out", str(out / "analyze")],
        ["analyze", "--grades", timed, *fit, "--min-support", "5", "--out", str(out / "analyze-seconds")],
        ["identifiability", "--students", "60", "--super-grades", "20", "--counts", "4,6", *fit, *sims,
         "--out", str(out / "identifiability")],
    ]


def test_golden_table_bytes(tmp_path, capsys):
    """Every CSV table the CLI writes matches the committed bytes under
    tests/golden_tables, on the synth set of test_golden_bytes (PG2, 60
    students x 2 assignments, seed 7): infer --trace for s, b and tau,
    evaluate --dump-residuals, calibrate, rounds by closed form and from
    traced draws, analyze with and without a seconds column, and
    identifiability. PG3 is left out, as it is there."""
    timed = tmp_path / "timed-grades.csv"
    _with_seconds(GOLDEN / "synth" / "grades.csv", timed)
    out = tmp_path / "out"
    for args in _table_commands(str(GOLDEN / "synth" / "grades.csv"), str(GOLDEN / "synth" / "truth.csv"),
                                str(timed), out):
        assert run_cli(args, capsys)[0] == 0, args[0]
    expected = sorted(p.relative_to(GOLDEN_TABLES) for p in GOLDEN_TABLES.rglob("*") if p.is_file())
    written = sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
    assert written == expected
    for rel in expected:
        assert (out / rel).read_bytes() == (GOLDEN_TABLES / rel).read_bytes(), rel
    # the seconds branch of write_grades_csv writes back the bytes it read
    write_grades_csv(read_grades_csv(timed), tmp_path / "timed-again.csv")
    assert (tmp_path / "timed-again.csv").read_bytes() == timed.read_bytes()
