"""peergrade benchmark: one workload per process, metrics as JSON on the last line.

    python3 perfbench/run.py --workload mooc-36k --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; peergrade is imported from ``src/``.
The workload's network is generated from ``--seed``. Its commands run in
passes until ``--seconds`` have gone by (at least one pass); the metrics are
medians over passes. ``--trace 0`` prints the end-to-end metrics, ``--trace
1`` the per-layer metrics of one traced pass. Outputs, the run record and
the spans go to ``.perfbench/<workload>/``. Exit status: 0 when every check
passed, 1 when a check failed or the run broke, 2 when the source is missing.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 3  # setup_s is the median of this many set-ups
SETUP_TIMEOUT_S = 300
# The machine's speed moves by up to 1.5x between states that last tens of
# seconds (other tenants share its cores), which shows on every timing taken
# over a run. wall_s and grade_sweeps_per_s are therefore scaled to a fixed
# speed: a reference loop that never calls peergrade is timed in samples
# before and after the passes, and a sample counts as REFERENCE_S at that
# speed. The unscaled values are printed and kept in run.json.
REFERENCE_S = 0.1
REFERENCE_SAMPLES = 8

if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

# standard library only; ``workloads`` imports numpy and is imported after set-up
from perfbench import layers  # noqa: E402
from perfbench.specs import FULL, TOY, WORKLOADS  # noqa: E402
from perfbench.tracing import GibbsMeter, Instrumentation, Tracer  # noqa: E402

# name, unit, better
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("grade_sweeps_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("score_rmse_pp", "pp", "lower"),
    ("eval_rmse_ratio", "ratio", "lower"),
    ("pass_ratio", "ratio", "higher"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0, help="minimum measuring time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "toy"), default="full",
                   help="toy shrinks every workload, for the harness tests")
    p.add_argument("--setup-only", metavar="DIR", default=None,
                   help="time one set-up in DIR and print {\"setup_s\": ...}; used for the repeats")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up: import, generate, write CSVs, ingest
# ---------------------------------------------------------------------------


@dataclass
class Setup:
    pg: object  # the imported peergrade package
    graph: object
    latents: object
    seconds: float
    csv_bytes: int


def timed_setup(spec, seed: int, workdir: Path) -> Setup:
    """What a user pays before the first command: import peergrade, generate
    the network, write grades.csv/truth.csv and ingest them into a validated
    graph. The clock starts before the import."""
    t0 = time.perf_counter()
    import peergrade as pg
    import peergrade.io  # noqa: F401  (binds pg.io)

    cfg = pg.SynthConfig(n_students=spec.students, n_assignments=spec.assignments,
                         grades_per_grader=spec.grades_per_grader, n_ground_truth=spec.ground_truth,
                         super_grades=spec.super_grades, model=pg.Model.from_string(spec.model), seed=seed)
    generated, latents = pg.generate(cfg)
    workdir.mkdir(parents=True, exist_ok=True)
    grades_csv, truth_csv = workdir / "grades.csv", workdir / "truth.csv"
    pg.io.write_grades_csv(generated.grades, grades_csv)
    pg.io.write_truth_csv(generated.ground_truth, truth_csv)
    graph = pg.io.ingest(grades_csv, truth_csv)
    seconds = time.perf_counter() - t0
    if (graph.n_grades != generated.n_grades or graph.assignments != generated.assignments
            or len(graph.ground_truth) != len(generated.ground_truth)):
        raise RuntimeError(f"ingested {graph!r} does not match generated {generated!r}")
    return Setup(pg, graph, latents, seconds, grades_csv.stat().st_size + truth_csv.stat().st_size)


def setup_in_subprocess(args, workdir: Path) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-only", str(workdir)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up subprocess failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def digest(out: Path) -> tuple[str, int]:
    """sha256 over every emitted file (relative name and bytes), and their size."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        size += len(data)
        h.update(str(path.relative_to(out)).encode() + b"\0" + data + b"\0")
    return h.hexdigest(), size


class Pass:
    """One run of every operation of a workload: timings, failures, outputs."""

    def __init__(self, setup: Setup, name: str, spec, seed: int, out: Path) -> None:
        from perfbench import workloads

        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        self.ctx = workloads.Ctx(setup.pg, spec, seed, setup.graph, setup.latents, out)
        self.op_seconds: dict[str, float] = {}
        self.failures: dict[str, str] = {}
        for op in workloads.OPS[name]:
            t0 = time.perf_counter()
            try:
                result = op.run(self.ctx)
            except Exception as e:  # a failed command is counted, and the pass goes on
                self.failures[op.name] = f"raised {type(e).__name__}: {e}"
                continue
            finally:
                self.op_seconds[op.name] = time.perf_counter() - t0
            try:
                op.check(self.ctx, result)
            except workloads.CheckFailed as e:
                self.failures[op.name] = f"check failed: {e}"
            except Exception as e:
                self.failures[op.name] = f"check raised {type(e).__name__}: {e}"
        self.wall = sum(self.op_seconds.values())
        self.digest, self.emitted_bytes = digest(out)

    @property
    def attempted(self) -> int:
        return len(self.op_seconds)

    def accuracy(self) -> dict:
        """score_rmse_pp and eval_rmse_ratio; NaN when the fit they need failed."""
        from perfbench import workloads

        out = {}
        for name, fn in (("score_rmse_pp", workloads.score_rmse), ("eval_rmse_ratio", workloads.rmse_ratio)):
            try:
                out[name] = fn(self.ctx)
            except Exception as e:  # reported as a failed measurement, not a crash
                print(f"warning: {name} unavailable: {type(e).__name__}: {e}", file=sys.stderr)
                out[name] = float("nan")
        return out


def reference_samples() -> list[float]:
    """Times of a fixed loop that mixes numpy calls and interpreted Python,
    like the workloads do."""
    import numpy as np

    x = np.random.default_rng(0).normal(size=50_000)
    out = []
    for _ in range(REFERENCE_SAMPLES):
        t0 = time.perf_counter()
        for _ in range(200):
            np.sort(x)
            total = 0
            for i in range(3000):
                total += i * i
        out.append(time.perf_counter() - t0)
    return out


def run_untraced(args, spec, setup: Setup, work: Path) -> tuple[dict, dict]:
    setup_times = [setup.seconds]
    for k in range(2, SETUP_REPEATS + 1):
        setup_times.append(setup_in_subprocess(args, work / f"setup-{k}"))
    reference = reference_samples()
    meter = GibbsMeter(setup.pg)
    passes: list[Pass] = []
    t_start = time.perf_counter()
    try:
        while not passes or time.perf_counter() - t_start < args.seconds:
            passes.append(Pass(setup, args.workload, spec, args.seed, work / "out"))
    finally:
        meter.restore()
    reference += reference_samples()
    slowdown = statistics.median(reference) / REFERENCE_S
    wall = statistics.median(p.wall for p in passes)
    attempted = sum(p.attempted for p in passes)
    failures = [f"pass {i}: {op}: {why}" for i, p in enumerate(passes, 1) for op, why in p.failures.items()]
    digests = sorted({p.digest for p in passes})
    if len(passes) > 1:  # same code, same seed: every pass must write the same bytes
        attempted += 1
        if len(digests) > 1:
            failures.append(f"outputs differ between passes: {digests}")
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall / slowdown,
        "grade_sweeps_per_s": meter.rate() * slowdown,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **passes[-1].accuracy(),
        "pass_ratio": (attempted - len(failures)) / attempted,
    }
    record = {
        "passes": len(passes),
        "unscaled": {"wall_s": wall, "grade_sweeps_per_s": meter.rate()},
        "reference_samples_s": reference,
        "setup_times_s": setup_times,
        "pass_wall_s": [p.wall for p in passes],
        "op_seconds": [p.op_seconds for p in passes],
        "digest": digests[0] if len(digests) == 1 else digests,
        "emitted_bytes": passes[-1].emitted_bytes,
        "attempted": attempted,
        "failures": failures,
    }
    return metrics, record


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def traced_layers(name: str, spec, seed: int, setup: Setup, work: Path, untraced_first: bool = True):
    """Per-layer metrics of one workload: an untraced pass with the fit
    probes, then a traced set-up and a traced pass. Without the untraced
    pass, the probes time the traced pass's fits instead. Returns (metrics,
    tracer, untraced pass or None, traced pass)."""
    plain = Pass(setup, name, spec, seed, work / "out") if untraced_first else None
    probes = layers.probe_fits(plain.ctx) if plain else {}
    tracer = Tracer()
    inst = Instrumentation(setup.pg, tracer)
    try:
        with tracer.span("setup"):
            traced_setup = timed_setup(spec, seed, work / "traced-setup")
        with tracer.span("pass"):
            traced = Pass(traced_setup, name, spec, seed, work / "out")
    finally:
        inst.restore()
    if plain is None:
        probes = layers.probe_fits(traced.ctx)
    metrics = layers.derive(tracer, traced.ctx, probes, traced_setup.csv_bytes, traced.emitted_bytes)
    if plain is not None:
        metrics["trace.wall_s"] = traced.wall
        metrics["trace.overhead_s"] = traced.wall - plain.wall
        metrics["trace.spans"] = len(tracer.spans)
    return metrics, tracer, plain, traced


def run_traced(args, spec, setup: Setup, work: Path) -> tuple[dict, dict]:
    metrics, tracer, plain, traced = traced_layers(args.workload, spec, args.seed, setup, work)
    tracer.dump(work / "spans.json")
    failures = [f"{op}: {why}" for p in (plain, traced) for op, why in p.failures.items()]
    attempted = plain.attempted + traced.attempted + 1
    if plain.digest != traced.digest:
        failures.append("traced outputs differ from untraced outputs")

    # layers this workload never calls are measured on the others at toy size
    reference = {}
    for other in WORKLOADS:
        missing = [n for n, _, _ in layers.PER_LAYER if n not in metrics and n not in reference]
        if not missing or other == args.workload:
            continue
        ref_work = work / f"reference-{other}"
        ref_setup = timed_setup(TOY[other], args.seed, ref_work / "data")
        ref_metrics, _, _, ref_traced = traced_layers(other, TOY[other], args.seed, ref_setup, ref_work,
                                                      untraced_first=False)
        attempted += ref_traced.attempted
        failures += [f"reference {other}: {op}: {why}" for op, why in ref_traced.failures.items()]
        for n in missing:
            if n in ref_metrics:
                reference[n] = (other, ref_metrics[n])
    for n, (_, value) in reference.items():
        metrics[n] = value
    metrics["trace.reference_layers"] = len(reference)
    print("reference layers (toy size): "
          + json.dumps({n: other for n, (other, _) in sorted(reference.items())}))
    record = {
        "untraced_wall_s": plain.wall,
        "traced_wall_s": traced.wall,
        "digest": traced.digest,
        "attempted": attempted,
        "failures": failures,
        "reference_layers": {n: other for n, (other, _) in reference.items()},
    }
    return {n: metrics[n] for n, _, _ in layers.PER_LAYER}, record


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def machine() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "platform": platform.platform()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "peergrade" / "__init__.py").is_file():
        print(f"error: no peergrade source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    spec = (FULL if args.size == "full" else TOY)[args.workload]

    if args.setup_only is not None:
        setup = timed_setup(spec, args.seed, Path(args.setup_only))
        print(json.dumps({"setup_s": setup.seconds}))
        return 0

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    units = layers.UNITS if args.trace else {n: u for n, u, _ in END_TO_END}
    try:
        setup = timed_setup(spec, args.seed, work / "data")
        run = run_traced if args.trace else run_untraced
        values, record = run(args, spec, setup, work)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:  # no measurement without a set-up
        print(f"error: {e}", file=sys.stderr)
        return 1
    record.update(workload=args.workload, seed=args.seed, size=args.size, trace=args.trace,
                  machine=machine(), metrics=values)
    with open(work / "run.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload} seed {args.seed}: digest {record['digest']}")
    if "unscaled" in record:
        print("unscaled: " + json.dumps(record["unscaled"])
              + f"; reference sample median {statistics.median(record['reference_samples_s']):.4f} s")
    for why in record["failures"]:
        print(f"FAILED {why}")
    for name, value in values.items():
        print(f"{name:>28} {value:14.6g} {units[name]}")
    failed = len(record["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": record["attempted"],
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
