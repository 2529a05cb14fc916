"""Span tracing of ripsim from the outside, and the per-layer metrics.

instrument() replaces module attributes (simulate.control_terms,
simulate.step_rk4, the regressor term classes' __call__, ...) with
wrappers that record one span per call: name, start, end and parent.
Spans go into flat in-memory arrays during the run and are reduced to
counts and self times (a span's duration minus its children's) when the
run ends. Nothing inside ripsim changes; the wrappers are removed when
the context exits.
"""
from __future__ import annotations

import contextlib
import statistics
from array import array
from time import perf_counter_ns

VERIFY_CHECKS = ("kinetic_matching", "potential_matching", "region_report",
                 "md_definiteness_scan", "hessian_vd_check",
                 "closed_loop_equivalence", "remark2_residual")


class Tracer:
    """Spans of one process, kept in memory: name id, start, end, parent."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._open = [-1]

    def wrap(self, name: str, fn):
        """fn, recording a span named `name` around each call."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        name_id, parent, start, end, open_ = (self.name_id, self.parent,
                                              self.start, self.end, self._open)

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(open_[-1])
            start.append(0)
            end.append(0)
            open_.append(idx)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                open_.pop()
                start[idx] = t0
                end[idx] = t1

        return traced

    def write(self, path: str):
        """All spans as CSV: name, start_ns, end_ns, parent row (-1 for roots)."""
        with open(path, "w") as fh:
            fh.write("name,start_ns,end_ns,parent\n")
            for nid, s, e, p in zip(self.name_id, self.start, self.end, self.parent):
                fh.write(f"{self.names[nid]},{s},{e},{p}\n")

    def reduce(self) -> "Spans":
        """Counts, total and self nanoseconds per name and per (name, parent name)."""
        n = len(self.start)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        out = Spans()
        for i in range(n):
            name = self.names[self.name_id[i]]
            p = self.parent[i]
            pname = self.names[self.name_id[p]] if p >= 0 else ""
            out.count[name] = out.count.get(name, 0) + 1
            out.total[name] = out.total.get(name, 0) + dur[i]
            out.self_ns[name] = out.self_ns.get(name, 0) + dur[i] - child[i]
            key = (name, pname)
            out.count_under[key] = out.count_under.get(key, 0) + 1
        return out


class Spans:
    """Reduced spans of a run."""

    def __init__(self):
        self.count: dict[str, int] = {}
        self.total: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.count_under: dict[tuple[str, str], int] = {}

    def self_us_per_call(self, name: str) -> float:
        n = self.count.get(name, 0)
        return self.self_ns[name] / n / 1e3 if n else 0.0

    def ms_per_call(self, name: str) -> float:
        n = self.count.get(name, 0)
        return self.total[name] / n / 1e6 if n else 0.0


@contextlib.contextmanager
def instrument(mods, tracer: Tracer):
    """Wrap the calls into each ripsim layer for the duration of the block."""
    saved = []

    def patch(owner, attr, wrapper):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def traced(owner, attr, name):
        patch(owner, attr, tracer.wrap(name, getattr(owner, attr)))

    sim, ctl = mods.simulate, mods.controller
    control_terms = tracer.wrap("controller.control_terms", ctl.control_terms)
    patch(sim, "control_terms", control_terms)
    patch(ctl, "control_terms", control_terms)
    traced(sim, "open_loop_rhs_flat", "model.open_loop_rhs_flat")
    traced(sim, "hamiltonian", "model.hamiltonian")
    traced(ctl, "desired_hamiltonian", "controller.desired_hamiltonian")
    traced(ctl, "control_law", "controller.control_law")
    traced(sim, "run", "simulate.run")
    traced(mods.adaptive.DisturbanceSpec, "value", "adaptive.DisturbanceSpec.value")
    traced(mods.cli, "write_trace_csv", "cli.write_trace_csv")
    traced(mods.svgplot, "line_plot", "svgplot.line_plot")
    for check in VERIFY_CHECKS:
        traced(mods.verify, check, f"verify.{check}")

    # step_rk4 receives run()'s rhs closure; wrap that too (once per closure).
    step = sim.step_rk4
    rhs_cache = [None, None]

    def step_rk4(rhs, x, dt):
        if rhs is not rhs_cache[0]:
            rhs_cache[:] = [rhs, tracer.wrap("simulate.rhs", rhs)]
        return step(rhs_cache[1], x, dt)

    patch(sim, "step_rk4", tracer.wrap("simulate.step_rk4", step_rk4))

    # One span per top-level regressor term; nested factor nodes are part of it.
    in_term = [False]

    def term_call(call):
        span = tracer.wrap("regressor.term", call)

        def __call__(self, *args):
            if in_term[0]:
                return call(self, *args)
            in_term[0] = True
            try:
                return span(self, *args)
            finally:
                in_term[0] = False

        return __call__

    for cls in (mods.regressor.Number, mods.regressor.Variable,
                mods.regressor.Call, mods.regressor.Product):
        patch(cls, "__call__", term_call(cls.__call__))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(spans: Spans, traced: list, untraced: list, load_s: list,
                  region_peak_bytes: int) -> dict:
    """Per-layer metrics of a traced run; a layer the workload never calls reads 0.

    traced and untraced are the OpResults of the operations made with and
    without tracing; simulate.run.us_per_step comes from the untraced
    ones, everything else from the spans. Times are in reference seconds,
    scaled by the median reference time of the traced operations.
    """
    scale = statistics.median(r.scale for r in traced)
    steps = sum(r.steps for r in traced if r.summary)
    rows = sum(r.steps + 1 for r in traced if r.summary)
    csv_bytes = sum(r.csv_bytes for r in traced)
    svg = [b for r in traced for b in r.svg_bytes]

    def per(value, base):
        return value / base if base else 0.0

    ct, run_, rhs = "controller.control_terms", "simulate.run", "simulate.rhs"
    stage = spans.count_under.get((ct, rhs), 0)
    record = spans.count_under.get((ct, run_), 0)
    sim_untraced = [r for r in untraced if r.summary]
    m = {
        f"{ct}.calls_per_step": per(stage + record, steps),
        f"{ct}.stage_calls_per_step": per(stage, steps),
        f"{ct}.record_calls_per_row": per(record, rows),
        f"{ct}.calls_per_op": per(spans.count.get(ct, 0), len(traced)),
        f"{ct}.self_us": spans.self_us_per_call(ct) * scale,
        "model.open_loop_rhs_flat.calls_per_step":
            per(spans.count.get("model.open_loop_rhs_flat", 0), steps),
        "model.open_loop_rhs_flat.self_us":
            spans.self_us_per_call("model.open_loop_rhs_flat") * scale,
        "simulate.rhs.self_us": spans.self_us_per_call(rhs) * scale,
        "simulate.step_rk4.self_us": spans.self_us_per_call("simulate.step_rk4") * scale,
        "regressor.term_evals_per_step": per(spans.count.get("regressor.term", 0), steps),
        "regressor.self_us_per_step":
            per(spans.self_ns.get("regressor.term", 0) / 1e3, steps) * scale,
        "adaptive.DisturbanceSpec.value.calls_per_step":
            per(spans.count.get("adaptive.DisturbanceSpec.value", 0), steps),
        "simulate.record.self_us_per_row": per(spans.self_ns.get(run_, 0) / 1e3, rows) * scale,
        "controller.desired_hamiltonian.calls_per_step":
            per(spans.count.get("controller.desired_hamiltonian", 0), steps),
        "model.hamiltonian.calls_per_step": per(spans.count.get("model.hamiltonian", 0), steps),
        "simulate.run.us_per_step": (statistics.median(r.run_s * r.scale / r.steps * 1e6
                                                       for r in sim_untraced)
                                     if sim_untraced else 0.0),
        "cli.write_trace_csv.us_per_row":
            per(spans.total.get("cli.write_trace_csv", 0) / 1e3, rows) * scale,
        "cli.write_trace_csv.bytes_per_row": per(csv_bytes, rows),
        "svgplot.line_plot.ms": spans.ms_per_call("svgplot.line_plot") * scale,
        "svgplot.line_plot.bytes": per(sum(svg), len(svg)),
        "config.load_config.ms": statistics.median(load_s) * 1e3,
    }
    for c in VERIFY_CHECKS:
        m[f"verify.{c}.ms"] = spans.ms_per_call(f"verify.{c}") * scale
    cle = "verify.closed_loop_equivalence"
    m[f"{cle}.control_law_calls"] = per(
        spans.count_under.get(("controller.control_law", cle), 0), spans.count.get(cle, 0))
    m["verify.region_report.peak_bytes"] = region_peak_bytes
    m["trace.overhead_ratio"] = (statistics.median(r.wall_s * r.scale for r in traced)
                                 / statistics.median(r.wall_s * r.scale for r in untraced))
    return m
