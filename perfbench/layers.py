"""Per-layer metrics of a traced run, derived from its spans.

Layers are peergrade's modules. Each metric below is taken at the public
calls into one module and is listed with the end-to-end metric and workload
it should move. A metric is derived only when its spans (or probe timings)
exist in the run; ``run.py`` fills the rest from reference runs of the other
workloads at toy size, so every traced run reports every layer.
"""
from __future__ import annotations

import time

# name, unit, better; grouped by module
PER_LAYER = (
    ("synth.generate_s", "s", "lower"),
    ("io.write_csv_s", "s", "lower"),
    ("io.csv_mb", "MB", "lower"),
    ("io.ingest_s", "s", "lower"),
    ("io.read_csv_s", "s", "lower"),
    ("io.ingest_build_s", "s", "lower"),
    ("io.ingest_grades_per_s", "1/s", "higher"),
    ("io.emit_s", "s", "lower"),
    ("io.emit_mb", "MB", "lower"),
    ("core.graph_build_s", "s", "lower"),
    ("core.graph_builds", "count", "lower"),
    ("core.prepare_s", "s", "lower"),
    ("core.normalize_s", "s", "lower"),
    ("core.without_received_s", "s", "lower"),
    ("gibbs.infer_s", "s", "lower"),
    ("gibbs.pg1.fixed_s", "s", "lower"),
    ("gibbs.pg1.sweep_ms", "ms", "lower"),
    ("gibbs.pg2.fixed_s", "s", "lower"),
    ("gibbs.pg2.sweep_ms", "ms", "lower"),
    ("gibbs.pg3.fixed_s", "s", "lower"),
    ("gibbs.pg3.sweep_ms", "ms", "lower"),
    ("gibbs.tiny.sweep_us", "us", "lower"),
    ("gibbs.init_s", "s", "lower"),
    ("gibbs.pg3.mh_accept", "ratio", "higher"),
    ("gibbs.pg3.theta_accept", "ratio", "higher"),
    ("em.infer_s", "s", "lower"),
    ("em.iterations", "count", "lower"),
    ("em.iter_ms", "ms", "lower"),
    ("em.converged_frac", "ratio", "higher"),
    ("evaluation.fit_s", "s", "lower"),
    ("evaluation.simulate_s", "s", "lower"),
    ("evaluation.sims_per_s", "1/s", "higher"),
    ("evaluation.baseline_s", "s", "lower"),
    ("evaluation.pool_efficiency", "ratio", "higher"),
    ("calibration.calibrate_s", "s", "lower"),
    ("calibration.rounds_s", "s", "lower"),
    ("calibration.rounds", "count", "higher"),
    ("analytics.temporal_s", "s", "lower"),
    ("analytics.residual_s", "s", "lower"),
    ("analytics.heatmap_s", "s", "lower"),
    ("oracle.posterior_s", "s", "lower"),
    ("oracle.grid_points", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.reference_layers", "count", "lower"),
)

UNITS = {name: unit for name, unit, _ in PER_LAYER}

EMITTERS = (
    "io.write_summary_json", "io.write_points_json", "io.write_report", "io.write_calibration_csv",
    "io.write_rounds_csv", "io.write_binned_table_csv", "io.write_heatmap_csv",
    "io.write_temporal_csv", "io.write_json",
)


def probe_fits(ctx) -> dict:
    """Fixed and per-sweep Gibbs cost per model, separated from outside: the
    first full fit of each model is timed against a 2-sweep fit of the same
    graph and settings. Also times ``initial_state`` for the first fit and
    the tiny-network fits per sweep. Run it untraced, right after an
    untraced pass, so both timings of a pair carry the same overhead."""
    pg = ctx.pg
    out = {}
    for model, graph, hp, cfg, seconds in ctx.fits:
        if model in out:
            continue
        short = pg.GibbsConfig(model=cfg.model, total_sweeps=2, burn_in=1, seed=cfg.seed,
                               mh_proposal_scale=cfg.mh_proposal_scale,
                               assume_normalized=cfg.assume_normalized)
        t0 = time.perf_counter()
        pg.gibbs_infer(graph, hp, short)
        t2 = time.perf_counter() - t0
        sweep = (seconds - t2) / (cfg.total_sweeps - 2)
        out[model] = (t2 - 2 * sweep, sweep)
    if ctx.fits:
        _, graph, hp, cfg, _ = ctx.fits[0]
        t0 = time.perf_counter()
        pg.initial_state(graph, hp, cfg)
        out["init"] = time.perf_counter() - t0
    if ctx.tiny:
        out["tiny"] = sum(t for _, t in ctx.tiny) / sum(n for n, _ in ctx.tiny)
    return out


def _children(tracer, parent_names: tuple[str, ...], child_names: tuple[str, ...]):
    parents = {s.id for s in tracer.spans if s.name in parent_names}
    return [s for s in tracer.spans if s.name in child_names and s.parent in parents]


def derive(tracer, ctx, probes: dict, setup_files_bytes: int, emitted_bytes: int) -> dict:
    """Every per-layer metric this run's spans and probes support."""
    m: dict = {}
    total = tracer.total
    named = tracer.named

    if named("synth.generate"):
        m["synth.generate_s"] = total("synth.generate")
    if named("io.write_grades_csv"):
        m["io.write_csv_s"] = total("io.write_grades_csv", "io.write_truth_csv")
        m["io.csv_mb"] = setup_files_bytes / 1e6
    ingests = named("io.ingest")
    if ingests:
        ingest_s = total("io.ingest")
        m["io.ingest_s"] = ingest_s
        m["io.read_csv_s"] = total("io.read_grades_csv", "io.read_truth_csv")
        m["io.ingest_build_s"] = sum(s.duration for s in _children(tracer, ("io.ingest",),
                                                                   ("core.GradingGraph.__init__",)))
        m["io.ingest_grades_per_s"] = sum(s.attrs["grades"] for s in ingests) / ingest_s
    emits = [s for s in tracer.spans if s.name in EMITTERS]
    if emits:
        ids = {s.id for s in emits}
        m["io.emit_s"] = sum(s.duration for s in emits if s.parent not in ids)
        m["io.emit_mb"] = emitted_bytes / 1e6

    builds = named("core.GradingGraph.__init__")
    if builds:
        m["core.graph_build_s"] = sum(s.duration for s in builds)
        m["core.graph_builds"] = len(builds)
    if named("core.prepare_graph"):
        m["core.prepare_s"] = total("core.prepare_graph", "core.resolve_priors")
    if named("core.normalize_all"):
        m["core.normalize_s"] = total("core.normalize_all")
    if named("core.GradingGraph.without_received"):
        m["core.without_received_s"] = total("core.GradingGraph.without_received")

    fits = named("gibbs.gibbs_infer")
    if fits:
        m["gibbs.infer_s"] = sum(s.duration for s in fits)
    for model in ("pg1", "pg2", "pg3"):
        if model in probes:
            fixed, sweep = probes[model]
            m[f"gibbs.{model}.fixed_s"] = fixed
            m[f"gibbs.{model}.sweep_ms"] = sweep * 1e3
    if "tiny" in probes:
        m["gibbs.tiny.sweep_us"] = probes["tiny"] * 1e6
    if "init" in probes:
        m["gibbs.init_s"] = probes["init"]
    pg3 = [s for s in fits if s.attrs.get("model") == "pg3" and "theta_accept" in s.attrs
           and s.attrs["sweeps"] > 2]
    if pg3:
        m["gibbs.pg3.mh_accept"] = pg3[0].attrs["mh_accept"]
        m["gibbs.pg3.theta_accept"] = pg3[0].attrs["theta_accept"]

    ems = named("em.em_infer")
    if ems:
        em_s = sum(s.duration for s in ems)
        iterations = sum(s.attrs["iterations"] for s in ems)
        m["em.infer_s"] = em_s
        m["em.iterations"] = iterations
        m["em.iter_ms"] = em_s / iterations * 1e3
        m["em.converged_frac"] = sum(s.attrs["converged"] for s in ems) / sum(s.attrs["assignments"] for s in ems)

    fit_frozen = named("evaluation.fit_frozen")
    if fit_frozen:
        sims = named("evaluation.simulate_frozen")
        sim_s = sum(s.duration for s in sims)
        m["evaluation.fit_s"] = sum(s.duration for s in fit_frozen) / len(fit_frozen)
        m["evaluation.simulate_s"] = sim_s / len(sims)
        m["evaluation.sims_per_s"] = sum(s.attrs["sims"] for s in sims) / sim_s
        m["evaluation.baseline_s"] = total("evaluation.evaluate_baseline")
        pools = named("evaluation.evaluate_model")
        busy = sum(s.duration for s in _children(tracer, ("evaluation.evaluate_model",),
                                                 ("evaluation.fit_frozen", "evaluation.simulate_frozen")))
        m["evaluation.pool_efficiency"] = busy / sum(s.attrs["workers"] * s.duration for s in pools)
    if named("calibration.calibration_experiment"):
        m["calibration.calibrate_s"] = total("calibration.calibration_experiment")
    rounds = named("calibration.rounds_experiment")
    if rounds:
        m["calibration.rounds_s"] = sum(s.duration for s in rounds)
        m["calibration.rounds"] = sum(s.attrs["rounds"] for s in rounds)
    if named("analytics.joint_residual_heatmap"):
        m["analytics.temporal_s"] = total("analytics.bias_temporal_correlation")
        m["analytics.residual_s"] = total("analytics.residual_vs_covariate")
        m["analytics.heatmap_s"] = total("analytics.joint_residual_heatmap")
    if named("oracle.oracle_posterior"):
        m["oracle.posterior_s"] = total("oracle.oracle_posterior")
        m["oracle.grid_points"] = ctx.grid_points
    return m
