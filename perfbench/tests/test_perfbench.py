"""Tests of the benchmark harness itself, at toy size (``--size toy``)."""
import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import layers, run, workloads  # noqa: E402
from perfbench.specs import WORKLOADS  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402


def _run(capsys, *argv):
    code = run.main(["--size", "toy", "--seed", "3", *argv])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def _assert_metrics(result, lines, expected):
    assert set(result["metrics"]) == {name for name, _, _ in expected}
    for name, unit, _ in expected:
        got = result["metrics"][name]
        assert got["unit"] == unit
        assert isinstance(got["value"], (int, float))
        # the human-readable table names every metric with its unit too
        assert any(line.split() == [name, line.split()[1], unit] for line in lines), name


def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)


@pytest.mark.parametrize("workload", ["mooc-36k", "course-4x3k6", "experiments-hci"])
def test_untraced_run_prints_every_end_to_end_metric(capsys, workload):
    code, lines, result = _run(capsys, "--workload", workload, "--seconds", "0", "--trace", "0")
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    _assert_metrics(result, lines, run.END_TO_END)
    assert result["metrics"]["pass_ratio"]["value"] == 1.0
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_repeated_passes_write_identical_outputs(capsys):
    code, lines, result = _run(capsys, "--workload", "mooc-36k", "--seconds", "0.5", "--trace", "0")
    record = json.loads((run.WORK / "mooc-36k" / "run.json").read_text())
    assert code == 0 and record["passes"] >= 2
    assert isinstance(record["digest"], str)  # one digest shared by every pass
    assert result["attempted"] == 2 * record["passes"] + 1


def test_traced_run_prints_every_layer_metric(capsys):
    code, lines, result = _run(capsys, "--workload", "experiments-hci", "--seconds", "0", "--trace", "1")
    assert code == 0 and result["correct"]
    _assert_metrics(result, lines, layers.PER_LAYER)
    # layers the workload calls are its own; the rest come from the reference runs
    own = json.loads((run.WORK / "experiments-hci" / "run.json").read_text())["reference_layers"]
    assert "evaluation.fit_s" not in own and "oracle.posterior_s" in own
    assert (run.WORK / "experiments-hci" / "spans.json").is_file()


def test_forced_check_failure_raises_fail_count_without_crashing(capsys, monkeypatch):
    monkeypatch.setattr(workloads, "SCORE_AGREEMENT", -1.0)  # no agreement can pass

    def boom(ctx):
        raise RuntimeError("forced")

    ops = [workloads.Op("boom", boom, lambda ctx, result: None)] + workloads.OPS["mooc-36k"]
    monkeypatch.setitem(workloads.OPS, "mooc-36k", ops)
    code, lines, result = _run(capsys, "--workload", "mooc-36k", "--seconds", "0", "--trace", "0")
    assert code == 1
    assert not result["correct"] and result["attempted"] == 3 and result["failed"] == 2
    _assert_metrics(result, lines, run.END_TO_END)
    assert result["metrics"]["pass_ratio"]["value"] == pytest.approx(1 / 3)
    assert any("boom: raised RuntimeError" in line for line in lines)
    assert any("infer-em: check failed" in line for line in lines)


def test_without_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mooc-36k", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": ""},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_the_union_of_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            time.sleep(0.02)
        workers = [threading.Thread(target=lambda: _sleep_span(tracer)) for _ in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=5)
        assert not any(w.is_alive() for w in workers)
    outer = tracer.named("outer")[0]
    assert all(s.parent == outer.id for s in tracer.spans if s.name != "outer")
    inner, pooled = tracer.total("inner"), tracer.named("pooled")
    covered_by_pool = max(s.end for s in pooled) - min(s.start for s in pooled)
    self_outer = tracer.self_times()["outer"]
    assert covered_by_pool < sum(s.duration for s in pooled)  # the pooled children overlapped
    assert self_outer == pytest.approx(outer.duration - inner - covered_by_pool, abs=1e-9)


def _sleep_span(tracer):
    with tracer.span("pooled"):
        time.sleep(0.02)
