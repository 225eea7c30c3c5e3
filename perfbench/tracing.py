"""Span recorder and the wrappers that put spans around peergrade's public calls.

A span has a name, a start, an end and a parent. Spans stay in memory while
the benchmark runs and are written out once at the end. Nothing under
``src/`` knows about tracing: ``Instrumentation`` replaces public functions in
the peergrade module namespaces with timing wrappers and ``restore`` puts the
originals back.

``GibbsMeter`` is the one wrapper an untraced run installs: it adds one clock
read before and after each ``gibbs_infer`` call, which is what the end-to-end
``grade_sweeps_per_s`` needs.
"""
from __future__ import annotations

import functools
import json
import threading
import time
from dataclasses import dataclass, field

# (module, attribute) pairs wrapped in a traced run. Class attributes are
# written "Class.method". Every module namespace that holds the same function
# object gets the wrapper, so calls through ``from .x import f`` are seen too.
TRACED = (
    ("synth", "generate"),
    ("io", "read_grades_csv"),
    ("io", "read_truth_csv"),
    ("io", "ingest"),
    ("io", "write_grades_csv"),
    ("io", "write_truth_csv"),
    ("io", "write_summary_json"),
    ("io", "write_points_json"),
    ("io", "write_report"),
    ("io", "write_calibration_csv"),
    ("io", "write_rounds_csv"),
    ("io", "write_binned_table_csv"),
    ("io", "write_heatmap_csv"),
    ("io", "write_temporal_csv"),
    ("io", "write_json"),
    ("core", "GradingGraph.__init__"),
    ("core", "GradingGraph.without_received"),
    ("core", "prepare_graph"),
    ("core", "resolve_priors"),
    ("core", "normalize_all"),
    ("gibbs", "gibbs_infer"),
    ("em", "em_infer"),
    ("evaluation", "fit_frozen"),
    ("evaluation", "simulate_frozen"),
    ("evaluation", "evaluate_model"),
    ("evaluation", "evaluate_baseline"),
    ("calibration", "calibration_experiment"),
    ("calibration", "rounds_experiment"),
    ("analytics", "bias_temporal_correlation"),
    ("analytics", "residual_vs_covariate"),
    ("analytics", "joint_residual_heatmap"),
    ("oracle", "oracle_posterior"),
)

MODULES = ("synth", "io", "core", "gibbs", "em", "evaluation", "calibration", "analytics", "oracle")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; safe to use from worker threads.

    A span opened in a thread with no open span of its own gets the innermost
    open span of the thread that created the tracer as its parent, so tasks a
    worker pool runs hang under the call that submitted them.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._t0 = time.perf_counter()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> tuple[int, int | None, float]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        with self._id_lock:
            sid = self._next_id
            self._next_id += 1
        stack.append(sid)
        return sid, parent, time.perf_counter()

    def close(self, token: tuple[int, int | None, float], name: str, attrs: dict | None = None) -> Span:
        sid, parent, start = token
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        span = Span(sid, name, start, end, parent, threading.get_ident(), attrs or {})
        self.spans.append(span)
        return span

    def span(self, name: str, **attrs):
        return _SpanContext(self, name, attrs)

    # -- queries -------------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, *names: str) -> float:
        return sum(s.duration for s in self.spans if s.name in names)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: each span's duration minus the part
        of its interval that its children cover (children in other threads
        can overlap each other, so covered time is the union)."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out: dict[str, float] = {}
        for s in self.spans:
            covered = 0.0
            cur_lo = cur_hi = None
            for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
                lo, hi = max(c.start, s.start), min(c.end, s.end)
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out[s.name] = out.get(s.name, 0.0) + s.duration - covered
        return out

    def dump(self, path) -> None:
        rows = [
            {"id": s.id, "name": s.name, "start": s.start - self._t0, "end": s.end - self._t0,
             "parent": s.parent, "thread": s.thread, "attrs": s.attrs}
            for s in sorted(self.spans, key=lambda s: s.start)
        ]
        with open(path, "w") as fh:
            json.dump({"spans": rows, "self_s": self.self_times()}, fh, indent=1, default=str)


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str, attrs: dict) -> None:
        self.tracer, self.name, self.attrs = tracer, name, attrs

    def __enter__(self):
        self.token = self.tracer.open(self.name)
        return self.attrs

    def __exit__(self, *exc) -> None:
        self.tracer.close(self.token, self.name, self.attrs)


# ---------------------------------------------------------------------------
# attributes recorded per wrapped call
# ---------------------------------------------------------------------------


def _arg(args, kwargs, pos: int, name: str):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


def _gibbs_attrs(args, kwargs, result) -> dict:
    graph, cfg = _arg(args, kwargs, 0, "graph"), _arg(args, kwargs, 2, "cfg")
    attrs = {"model": cfg.model.value, "sweeps": cfg.total_sweeps, "grades": graph.n_grades}
    if result.mh_acceptance is not None:
        attrs["mh_accept"] = result.mh_acceptance
    if result.theta_acceptance is not None:
        attrs["theta_accept"] = result.theta_acceptance
    return attrs


def _em_attrs(args, kwargs, result) -> dict:
    return {
        "iterations": sum(result.n_iterations.values()),
        "assignments": len(result.converged),
        "converged": sum(bool(c) for c in result.converged.values()),
    }


def _pool_attrs(args, kwargs, result) -> dict:
    return {"workers": kwargs.get("max_workers", 1)}


def _simulate_attrs(args, kwargs, result) -> dict:
    return {"sims": int(result.estimates.size)}


def _rounds_attrs(args, kwargs, result) -> dict:
    return {"rounds": len(result.rows)}


def _ingest_attrs(args, kwargs, result) -> dict:
    return {"grades": result.n_grades}


ATTRS = {
    "gibbs.gibbs_infer": _gibbs_attrs,
    "em.em_infer": _em_attrs,
    "evaluation.evaluate_model": _pool_attrs,
    "evaluation.simulate_frozen": _simulate_attrs,
    "calibration.rounds_experiment": _rounds_attrs,
    "io.ingest": _ingest_attrs,
}


def _wrap(fn, name: str, tracer: Tracer):
    attrs_of = ATTRS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        token = tracer.open(name)
        attrs = None
        try:
            result = fn(*args, **kwargs)
            if attrs_of is not None:
                attrs = attrs_of(args, kwargs, result)
            return result
        finally:
            tracer.close(token, name, attrs)

    return traced


def _replace_everywhere(pg, original, replacement) -> list[tuple[object, str, object]]:
    """Point every module-level reference to ``original`` at ``replacement``."""
    undo = []
    for mod_name in MODULES:
        mod = getattr(pg, mod_name)
        for attr, value in list(vars(mod).items()):
            if value is original:
                undo.append((mod, attr, value))
                setattr(mod, attr, replacement)
    if getattr(pg, original.__name__, None) is original:
        undo.append((pg, original.__name__, original))
        setattr(pg, original.__name__, replacement)
    return undo


class Instrumentation:
    """Installs span wrappers on the traced calls; ``restore`` undoes it."""

    def __init__(self, pg, tracer: Tracer) -> None:
        self._undo: list[tuple[object, str, object]] = []
        for mod_name, attr in TRACED:
            mod = getattr(pg, mod_name)
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, _wrap(original, name, tracer))
            else:
                original = getattr(mod, attr)
                self._undo.extend(_replace_everywhere(pg, original, _wrap(original, name, tracer)))

    def restore(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


class GibbsMeter:
    """Counts grade-sweeps and the time spent inside ``gibbs_infer``."""

    def __init__(self, pg) -> None:
        self.grade_sweeps = 0
        self.seconds = 0.0
        self._lock = threading.Lock()
        original = pg.gibbs.gibbs_infer

        @functools.wraps(original)
        def metered(graph, hp, cfg, *args, **kwargs):
            t0 = time.perf_counter()
            result = original(graph, hp, cfg, *args, **kwargs)
            dt = time.perf_counter() - t0
            with self._lock:
                self.grade_sweeps += graph.n_grades * cfg.total_sweeps
                self.seconds += dt
            return result

        self._undo = _replace_everywhere(pg, original, metered)

    def rate(self) -> float:
        return self.grade_sweeps / self.seconds if self.seconds > 0 else float("nan")

    def restore(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
