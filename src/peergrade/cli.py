"""Command-line front end.

Subcommands: infer, evaluate, calibrate, rounds, synth, analyze,
identifiability. A --config file supplies key=value defaults (one per line,
# comments allowed); explicit flags always win. Exit codes: 0 success,
1 runtime/config error, 2 bad arguments (argparse).
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import fields as dc_fields, replace
from pathlib import Path

from . import io
from .analytics import (
    Covariate,
    bias_temporal_correlation,
    joint_residual_heatmap,
    residual_vs_covariate,
)
from .calibration import calibration_experiment, rounds_experiment
from .core import Hyperparameters, Model
from .em import EmConfig, em_infer
from .evaluation import EvalConfig, TruthSource, evaluate_baseline, evaluate_model
from .gibbs import GibbsConfig, TraceRecorder, gibbs_infer
from .synth import SynthConfig, _default_hp, generate, identifiability_experiment

__all__ = ["main", "build_parser"]

_HP_FIELDS = {f.name for f in dc_fields(Hyperparameters)}
_MODEL_CHOICES = [m.value for m in Model]


def _parse_hp(pairs: list[str], base: Hyperparameters = Hyperparameters()) -> Hyperparameters:
    """base with the --hp key=value overrides applied."""
    vals: dict[str, float] = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        key = key.strip()
        if not sep or not key or raw.strip() == "":
            raise ValueError(f"bad --hp {pair!r}: expected key=value")
        if key not in _HP_FIELDS:
            raise ValueError(f"unknown hyperparameter {key!r}; valid: {', '.join(sorted(_HP_FIELDS))}")
        try:
            vals[key] = float(raw)
        except ValueError:
            raise ValueError(f"bad --hp {pair!r}: value must be a number") from None
    return replace(base, **vals)


def _parse_trace_var(text: str) -> tuple[str, int, str]:
    parts = text.split(":", 2)
    if len(parts) != 3:
        raise ValueError(f"bad --trace {text!r}: expected kind:assignment:student")
    kind, a_raw, student = parts
    try:
        a = int(a_raw)
    except ValueError:
        raise ValueError(f"bad --trace {text!r}: assignment must be an integer") from None
    return (kind, a, student)


def _load_config(path) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, encoding="utf-8-sig") as fh:
        try:
            lines = list(fh)
        except UnicodeDecodeError as e:
            raise ValueError(f"{path}: cannot decode as text ({e.reason})") from None
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        key, sep, value = text.partition("=")
        if not sep:
            raise ValueError(f"{path} line {lineno}: expected key=value, got {text!r}")
        out[key.strip()] = value.strip()
    return out


def _apply_config(sub: argparse.ArgumentParser, conf: dict[str, str]) -> None:
    """Install config values as parser defaults so explicit flags win."""
    actions = {a.dest: a for a in sub._actions}
    defaults: dict[str, object] = {}
    for key, raw in conf.items():
        dest = key.replace("-", "_")
        action = actions.get(dest)
        if action is None or dest in ("help", "config"):
            raise ValueError(f"unknown config key {key!r}")
        if isinstance(action, argparse._StoreTrueAction):
            low = raw.lower()
            if low in ("1", "true", "yes", "on"):
                defaults[dest] = True
            elif low in ("0", "false", "no", "off"):
                defaults[dest] = False
            else:
                raise ValueError(f"config key {key!r}: expected a boolean, got {raw!r}")
            continue
        if isinstance(action, argparse._AppendAction):
            defaults[dest] = [p.strip() for p in raw.split(",") if p.strip()]
            continue
        value = action.type(raw) if action.type is not None else raw
        if action.choices is not None and value not in action.choices:
            raise ValueError(f"config key {key!r}: {value!r} not in {sorted(action.choices)}")
        defaults[dest] = value
    sub.set_defaults(**defaults)


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _gibbs_cfg(args, model: Model) -> GibbsConfig:
    return GibbsConfig(
        model=model,
        total_sweeps=args.sweeps,
        burn_in=args.burnin,
        seed=args.seed,
        mh_proposal_scale=args.mh_scale,
        assume_normalized=args.assume_normalized,
    )


def _settings(args) -> tuple[Model, Hyperparameters, GibbsConfig | EmConfig]:
    """Echo the seed, then parse the model, --hp, --threads and the engine's
    config, so that a bad flag stops a command before it reads any input."""
    print(f"seed: {args.seed}")
    model = Model.from_string(args.model)
    hp = _parse_hp(args.hp)
    if getattr(args, "threads", 1) < 1:
        raise ValueError(f"max_workers must be >= 1, got {args.threads}")
    if getattr(args, "engine", "gibbs") == "em":
        return model, hp, EmConfig(model=model)
    return model, hp, _gibbs_cfg(args, model)


def _engine_kwargs(args, cfg: GibbsConfig | EmConfig) -> dict[str, object]:
    em = args.engine == "em"
    return dict(engine=args.engine, gibbs_cfg=None if em else cfg, em_cfg=cfg if em else None,
                max_workers=args.threads)


def _eval_cfg(args) -> EvalConfig:
    return EvalConfig(
        n_simulations=args.sims,
        grades_per_simulation=args.grades_per_sim,
        truth_source=TruthSource(args.truth_source),
        seed=args.seed,
    )


def _wrote(path) -> None:
    print(f"wrote {path}")


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


def cmd_infer(args) -> int:
    model, hp, cfg = _settings(args)
    if args.trace and args.engine == "em":
        raise ValueError("--trace records Gibbs draws; it needs --engine gibbs")
    trace = TraceRecorder([_parse_trace_var(t) for t in args.trace]) if args.trace else None
    graph = io.ingest(args.grades, args.truth)
    out = _outdir(args)
    if args.engine == "em":
        io.write_points_json(em_infer(graph, hp, cfg), out / "summary.json")
    else:
        summary = gibbs_infer(graph, hp, cfg, trace=trace)
        io.write_summary_json(summary, out / "summary.json")
        if trace is not None:
            io.write_trace_csv(trace, out / "trace.csv")
            _wrote(out / "trace.csv")
    _wrote(out / "summary.json")
    return 0


def cmd_evaluate(args) -> int:
    model, hp, cfg = _settings(args)
    eval_cfg = _eval_cfg(args)
    graph = io.ingest(args.grades, args.truth)
    reports = []
    if not args.skip_baseline:
        reports.append(evaluate_baseline(graph, eval_cfg, max_workers=args.threads))
    reports.append(evaluate_model(graph, hp, model, eval_cfg, **_engine_kwargs(args, cfg)))
    out = _outdir(args)
    io.write_report(reports, out)
    _wrote(out / "report.json")
    _wrote(out / "report.csv")
    if args.dump_residuals:
        io.write_residuals_csv(reports, out / "residuals.csv")
        _wrote(out / "residuals.csv")
    for rep in reports:
        print(f"{rep.label}: rmse={io.f6(rep.rmse)} within10pp={io.f6(rep.pct_within_10pp)}%")
    return 0


def cmd_calibrate(args) -> int:
    model, hp, cfg = _settings(args)
    eval_cfg = _eval_cfg(args)
    graph = io.ingest(args.grades, args.truth)
    report = calibration_experiment(graph, hp, model, eval_cfg, **_engine_kwargs(args, cfg))
    out = _outdir(args)
    io.write_calibration_csv(report, out / "calibration.csv")
    _wrote(out / "calibration.csv")
    io.write_report([report.evaluation], out)
    _wrote(out / "report.json")
    _wrote(out / "report.csv")
    print(f"predictions per delta: {report.n_predictions}")
    return 0


def cmd_rounds(args) -> int:
    model, hp, cfg = _settings(args)
    graph = io.ingest(args.grades, args.truth)
    report = rounds_experiment(
        graph, hp, model,
        gibbs_cfg=cfg,
        delta=args.delta,
        threshold=args.threshold,
        max_rounds=args.max_rounds,
        method=args.method,
        max_workers=args.threads,
    )
    out = _outdir(args)
    io.write_rounds_csv(report, out / "rounds.csv")
    _wrote(out / "rounds.csv")
    print(f"final unresolved fraction: {io.f6(report.final_unresolved_fraction)}")
    return 0


def cmd_synth(args) -> int:
    print(f"seed: {args.seed}")
    cfg = SynthConfig(
        n_students=args.students,
        n_assignments=args.assignments,
        grades_per_grader=args.grades_per_grader,
        n_ground_truth=args.gt,
        super_grades=args.super_grades,
        model=Model.from_string(args.model),
        seed=args.seed,
        hp=_parse_hp(args.hp, _default_hp()),
    )
    graph, latents = generate(cfg)
    out = _outdir(args)
    io.write_grades_csv(graph.grades, out / "grades.csv")
    io.write_truth_csv(graph.ground_truth, out / "truth.csv")
    io.write_latents_csv(latents, out / "latents.csv")
    for name in ("grades.csv", "truth.csv", "latents.csv"):
        _wrote(out / name)
    print(io.describe(graph))
    return 0


def cmd_analyze(args) -> int:
    model, hp, cfg = _settings(args)
    if args.bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {args.bins}")
    graph = io.ingest(args.grades, args.truth)
    estimates = em_infer(graph, hp, cfg) if args.engine == "em" else gibbs_infer(graph, hp, cfg).point()
    out = _outdir(args)

    if args.covariate:
        covs = [Covariate(c) for c in args.covariate]
    else:
        covs = [Covariate.GRADER_SCORE, Covariate.GRADEE_SCORE]
        if graph.grades.seconds is not None:
            covs.append(Covariate.TIME_SPENT)
    for cov in covs:
        table = residual_vs_covariate(graph, estimates, cov, n_bins=args.bins, min_support=args.min_support)
        path = out / f"residual_vs_{cov.value}.csv"
        io.write_binned_table_csv(table, path)
        _wrote(path)

    heatmap = joint_residual_heatmap(graph, estimates, n_bins=args.bins, min_support=args.min_support)
    io.write_heatmap_csv(heatmap, out / "heatmap.csv")
    _wrote(out / "heatmap.csv")

    meta: dict[str, object] = {"covariates": [c.value for c in covs]}
    if len(graph.assignments) >= 2:
        temporal = bias_temporal_correlation(estimates, min_overlap=args.min_overlap)
        io.write_temporal_csv(temporal, out / "temporal.csv")
        _wrote(out / "temporal.csv")
        meta["temporal"] = {
            "pooled_pearson": temporal.pooled,
            "n_pairs": len(temporal.pairs),
            "n_skipped": len(temporal.skipped),
        }
    io.write_json(meta, out / "analytics.json")
    _wrote(out / "analytics.json")
    return 0


def cmd_identifiability(args) -> int:
    print(f"seed: {args.seed}")
    base_cfg = SynthConfig(
        n_students=args.students,
        n_assignments=1,
        grades_per_grader=4,
        n_ground_truth=args.gt,
        super_grades=args.super_grades,
        model=Model.PG1,
        seed=args.seed,
        hp=_parse_hp(args.hp, _default_hp()),
    )
    try:
        counts = tuple(int(c) for c in args.counts.split(","))
    except ValueError:
        raise ValueError(f"bad --counts {args.counts!r}: expected comma-separated integers") from None
    rows = identifiability_experiment(
        base_cfg,
        grade_counts=counts,
        eval_cfg=EvalConfig(n_simulations=args.sims, grades_per_simulation=args.grades_per_sim, seed=args.seed),
        gibbs_cfg=GibbsConfig(model=Model.PG1, total_sweeps=args.sweeps, burn_in=args.burnin, seed=args.seed),
        max_workers=args.threads,
    )
    out = _outdir(args)
    io.write_identifiability_csv(rows, out / "identifiability.csv")
    _wrote(out / "identifiability.csv")
    for r in rows:
        print(
            f"grades={r.grades_per_grader}: tau_pearson={io.f6(r.tau_recovery_pearson)}"
            f" rmse_pg1={io.f6(r.rmse_pg1)} rmse_pg1bias={io.f6(r.rmse_pg1_bias)}"
        )
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", required=True, help="output directory (created if missing)")
    p.add_argument("--seed", type=int, default=0, help="random seed (echoed)")
    p.add_argument("--hp", action="append", default=[], metavar="KEY=VALUE",
                   help="hyperparameter override, repeatable")
    p.add_argument("--config", default=None, help="key=value defaults file; flags win")


def _add_grades(p: argparse.ArgumentParser, truth_required: bool = False) -> None:
    p.add_argument("--grades", required=True, help="grades CSV (assignment,grader,gradee,score[,seconds])")
    p.add_argument("--truth", required=truth_required, default=None,
                   help="ground truth CSV (assignment,gradee,staff_score,consensus_score)")


def _add_model(p: argparse.ArgumentParser, with_engine: bool = True) -> None:
    p.add_argument("--model", choices=_MODEL_CHOICES, default="pg1")
    if with_engine:
        p.add_argument("--engine", choices=["gibbs", "em"], default="gibbs")


def _add_gibbs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sweeps", type=int, default=800, help="total Gibbs sweeps")
    p.add_argument("--burnin", type=int, default=80, help="sweeps discarded before averaging")
    p.add_argument("--mh-scale", type=float, default=0.1, help="relative scale of the theta proposal")
    p.add_argument("--assume-normalized", action="store_true",
                   help="treat grades as already z-scored (pg2 only)")


def _add_sims(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sims", type=int, default=3000, help="simulated gradings per submission")
    p.add_argument("--grades-per-sim", type=int, default=4, help="grades drawn per simulation")


def _add_threads(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threads", type=int, default=1, help="worker threads (output is thread-count invariant)")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="peergrade",
        description="Probabilistic peer grading: inference, evaluation and diagnostics.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("infer", help="fit one model and write posterior summaries")
    _add_grades(p)
    _add_model(p)
    _add_gibbs(p)
    _add_common(p)
    p.add_argument("--trace", action="append", default=[], metavar="KIND:ASSIGNMENT:STUDENT",
                   help="record per-sweep draws of a latent (kind s, b or tau), repeatable")
    p.set_defaults(func=cmd_infer)

    p = subs.add_parser("evaluate", help="leave-one-out accuracy against ground truth")
    _add_grades(p, truth_required=True)
    _add_model(p)
    _add_gibbs(p)
    _add_sims(p)
    _add_threads(p)
    _add_common(p)
    p.add_argument("--truth-source", choices=[t.value for t in TruthSource], default="consensus")
    p.add_argument("--skip-baseline", action="store_true", help="skip the median baseline column")
    p.add_argument("--dump-residuals", action="store_true", help="also write per-simulation residuals.csv")
    p.set_defaults(func=cmd_evaluate)

    p = subs.add_parser("calibrate", help="confidence calibration of the evaluation posteriors")
    _add_grades(p, truth_required=True)
    _add_model(p)
    _add_gibbs(p)
    _add_sims(p)
    _add_threads(p)
    _add_common(p)
    p.add_argument("--truth-source", choices=[t.value for t in TruthSource], default="consensus")
    p.set_defaults(func=cmd_calibrate)

    p = subs.add_parser("rounds", help="confident submissions as grades arrive round by round")
    _add_grades(p)
    _add_model(p, with_engine=False)
    _add_gibbs(p)
    _add_threads(p)
    _add_common(p)
    p.add_argument("--delta", type=float, default=10.0, help="half-width of the confidence interval (pp)")
    p.add_argument("--threshold", type=float, default=0.9, help="posterior mass needed to count as confident")
    p.add_argument("--max-rounds", type=int, default=None)
    p.add_argument("--method", choices=["closed_form", "empirical"], default="closed_form")
    p.set_defaults(func=cmd_rounds)

    p = subs.add_parser("synth", help="generate a synthetic grading network")
    _add_model(p, with_engine=False)
    _add_common(p)
    p.add_argument("--students", type=int, required=True)
    p.add_argument("--assignments", type=int, default=1)
    p.add_argument("--grades-per-grader", type=int, default=4)
    p.add_argument("--gt", type=int, default=3, help="ground-truth submissions per assignment")
    p.add_argument("--super-grades", type=int, default=160, help="graders per ground-truth submission")
    p.set_defaults(func=cmd_synth)

    p = subs.add_parser("analyze", help="residual diagnostics and grader-bias drift")
    _add_grades(p)
    _add_model(p)
    _add_gibbs(p)
    _add_common(p)
    p.add_argument("--covariate", action="append", default=[],
                   choices=[c.value for c in Covariate],
                   help="residual covariate, repeatable (default: all applicable)")
    p.add_argument("--bins", type=int, default=8)
    p.add_argument("--min-support", type=int, default=30)
    p.add_argument("--min-overlap", type=int, default=3)
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("identifiability", help="reliability recovery vs grades per grader")
    _add_common(p)
    _add_sims(p)
    _add_threads(p)
    p.add_argument("--students", type=int, required=True)
    p.add_argument("--gt", type=int, default=3)
    p.add_argument("--super-grades", type=int, default=160)
    p.add_argument("--counts", default="4,10,20", help="comma-separated grades-per-grader settings")
    p.add_argument("--sweeps", type=int, default=800)
    p.add_argument("--burnin", type=int, default=80)
    p.set_defaults(func=cmd_identifiability)

    return parser, subs.choices


def main(argv=None) -> int:
    parser, subparsers = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            _apply_config(subparsers[args.command], _load_config(args.config))
            args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
