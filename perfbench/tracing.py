"""In-memory span tracing of cmmsim's layers, installed from outside.

The wrappers are set at the names the callers look up (for example
``cmmsim.sweep.validate``, which ``evaluate_point`` calls, and
``cmmsim.dynamics.is_stable``, which ``solve_lyapunov`` calls too), so the
program itself is unchanged.  Spans nest through a stack, which assumes the
traced commands run on one thread, as the CLI's default worker count does.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

#: layers reported per workload, in report order
LAYERS = (
    "params.validate",
    "meanfield.solve_steady_state",
    "dynamics.build_drift",
    "dynamics.build_diffusion",
    "dynamics.is_stable",
    "dynamics.solve_lyapunov",
    "entanglement.entanglement_report",
    "sweep.evaluate_point",
    "sweep.run_sweep",
    "sweep.optimize_phase",
    "cli.parse_config",
    "cli.write_sweep_csv",
)
LINALG = ("numpy.linalg.eigvals", "numpy.linalg.eig",
          "numpy.linalg.eigvalsh", "numpy.linalg.solve")

#: (module, attribute, layer) for every place a layer is looked up
SITES = (
    ("cmmsim.cli", "validate", "params.validate"),
    ("cmmsim.sweep", "validate", "params.validate"),
    ("cmmsim.meanfield", "solve_steady_state", "meanfield.solve_steady_state"),
    ("cmmsim.cli", "solve_steady_state", "meanfield.solve_steady_state"),
    ("cmmsim.dynamics", "build_drift", "dynamics.build_drift"),
    ("cmmsim.dynamics", "build_diffusion", "dynamics.build_diffusion"),
    ("cmmsim.dynamics", "is_stable", "dynamics.is_stable"),
    ("cmmsim.dynamics", "solve_lyapunov", "dynamics.solve_lyapunov"),
    ("cmmsim.entanglement", "entanglement_report",
     "entanglement.entanglement_report"),
    ("cmmsim.sweep", "evaluate_point", "sweep.evaluate_point"),
    ("cmmsim.cli", "evaluate_point", "sweep.evaluate_point"),
    ("cmmsim.sweep", "run_sweep", "sweep.run_sweep"),
    ("cmmsim.cli", "run_sweep", "sweep.run_sweep"),
    ("cmmsim.sweep", "optimize_phase", "sweep.optimize_phase"),
    ("cmmsim.cli", "optimize_phase", "sweep.optimize_phase"),
    ("cmmsim.cli", "parse_config", "cli.parse_config"),
    ("cmmsim.cli", "write_sweep_csv", "cli.write_sweep_csv"),
) + tuple(("numpy.linalg", name.rsplit(".", 1)[1], name) for name in LINALG)

ROOT = "cli.main"
POINT = "sweep.evaluate_point"


@dataclass(slots=True)
class Span:
    name: str
    start: int          # perf_counter_ns
    end: int
    parent: int         # index into Tracer.spans, -1 for a root
    op: int             # command index within the pass
    point: int          # enclosing evaluate_point call, -1 outside one
    raised: bool = False
    nbytes: int = 0     # bytes written, for the CSV writer


class Tracer:
    """Collects spans in memory; ``op`` and ``point`` ids tie a span to the
    command and the operating point it served."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._points = 0
        self.op = -1

    def enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        if name == POINT:
            point = self._points
            self._points += 1
        else:
            point = self.spans[parent].point if parent >= 0 else -1
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent,
                               self.op, point))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def exit(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.spans[idx].raised = True
                raise
            finally:
                self.exit(idx)
            if name == "cli.write_sweep_csv":
                self.spans[idx].nbytes = os.path.getsize(args[1])
            return result
        return traced

    @contextmanager
    def installed(self):
        """Wrap every site in SITES for the duration of the block and put the
        original objects back afterwards, also when the block raises.
        A site a later version of cmmsim no longer has is skipped."""
        saved = []
        try:
            for module_name, attr, layer in SITES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(layer, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    @contextmanager
    def command(self, op: int):
        """Root span of one ``cmmsim`` command."""
        self.op = op
        idx = self.enter(ROOT)
        try:
            yield
        finally:
            self.exit(idx)


def self_times(spans: list[Span]) -> list[int]:
    """Per span, its duration minus the part of it covered by its direct
    children (the union of their intervals), in nanoseconds."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0, s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(s.end - s.start - covered)
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts, self times and ratios of one pass.  Every layer is
    present; one the pass never reached reads 0."""
    own = self_times(spans)
    calls = dict.fromkeys(LAYERS + LINALG, 0)
    self_ns = dict.fromkeys(LAYERS + LINALG, 0)
    raised = dict.fromkeys(LAYERS + LINALG, 0)
    point_ns, nbytes, evals_in_opt = [], 0, 0
    for s, t in zip(spans, own):
        if s.name not in calls:
            continue
        calls[s.name] += 1
        self_ns[s.name] += t
        raised[s.name] += s.raised
        nbytes += s.nbytes
        if s.name == POINT:
            point_ns.append(s.end - s.start)
            if _inside(spans, s, "sweep.optimize_phase"):
                evals_in_opt += 1

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = calls[layer]
        m[f"{layer}.self_s"] = self_ns[layer] / 1e9
        m[f"{layer}.raised"] = raised[layer]
    points = calls[POINT]
    m["sweep.evaluate_point.p50_us"] = (statistics.median(point_ns) / 1e3
                                        if point_ns else 0.0)
    m["cli.write_sweep_csv.bytes"] = nbytes
    m["sweep.stable_ratio"] = _ratio(calls["dynamics.solve_lyapunov"], points)
    m["dynamics.is_stable.calls_per_point"] = _ratio(
        calls["dynamics.is_stable"], points)
    m["numpy.linalg.eig_calls_per_point"] = _ratio(
        calls["numpy.linalg.eigvals"] + calls["numpy.linalg.eig"], points)
    m["sweep.optimize_phase.evals_per_call"] = _ratio(
        evals_in_opt, calls["sweep.optimize_phase"])
    m["numpy.linalg.self_s"] = sum(self_ns[n] for n in LINALG) / 1e9
    return m


def _inside(spans: list[Span], span: Span, name: str) -> bool:
    parent = span.parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def write_spans(spans: list[Span], path: str) -> None:
    """One CSV line per span, in start order."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,name,start_ns,end_ns,parent,op,point,raised\n")
        for i, s in enumerate(spans):
            fh.write(f"{i},{s.name},{s.start},{s.end},{s.parent},{s.op},"
                     f"{s.point},{int(s.raised)}\n")
