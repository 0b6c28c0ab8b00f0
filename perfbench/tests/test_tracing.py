import math

import cmmsim.dynamics
import numpy
import pytest

import tracing
from tracing import Span, Tracer, layer_metrics, self_times


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        Span("cli.main", 0, 100, -1, 0, -1),
        Span("sweep.evaluate_point", 10, 30, 0, 0, 0),
        Span("sweep.evaluate_point", 40, 70, 0, 0, 1),
        Span("dynamics.is_stable", 50, 60, 2, 0, 1),
        # overlaps its sibling by 5 ns; the overlap is covered once
        Span("params.validate", 25, 35, 0, 0, 0),
    ]
    assert self_times(spans) == [100 - 20 - 30 - 5, 20, 30 - 10, 10, 10]


def test_layer_metrics_reports_every_layer_and_counts_optimizer_evals():
    spans = [
        Span("cli.main", 0, 1000, -1, 0, -1),
        Span("sweep.optimize_phase", 10, 900, 0, 0, -1),
        Span("sweep.evaluate_point", 20, 120, 1, 0, 0),
        Span("numpy.linalg.eigvals", 30, 40, 2, 0, 0),
        Span("sweep.evaluate_point", 200, 400, 1, 0, 1),
        Span("numpy.linalg.eigvals", 210, 230, 4, 0, 1),
        Span("sweep.evaluate_point", 910, 960, 0, 0, 2, raised=True),
    ]
    m = layer_metrics(spans)
    for layer in tracing.LAYERS:
        for stat in ("calls", "self_s", "raised"):
            assert f"{layer}.{stat}" in m
    assert m["sweep.run_sweep.calls"] == 0
    assert m["sweep.run_sweep.self_s"] == 0.0
    assert m["sweep.evaluate_point.calls"] == 3
    assert m["sweep.evaluate_point.raised"] == 1
    assert m["sweep.optimize_phase.evals_per_call"] == 2.0
    assert m["sweep.evaluate_point.p50_us"] == pytest.approx(0.1)
    assert m["numpy.linalg.eig_calls_per_point"] == pytest.approx(2 / 3)
    assert m["numpy.linalg.self_s"] == pytest.approx(30e-9)
    assert m["sweep.optimize_phase.self_s"] == pytest.approx(
        (890 - 100 - 200) * 1e-9)


def test_wrappers_are_restored_after_a_traced_run():
    from cmmsim import baseline_params, evaluate_point

    original = cmmsim.dynamics.solve_lyapunov
    original_eigvals = numpy.linalg.eigvals
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert cmmsim.dynamics.solve_lyapunov is not original
            with tracer.command(0):
                row = evaluate_point(baseline_params())
            raise RuntimeError("leave the block by an exception")
    assert cmmsim.dynamics.solve_lyapunov is original
    assert numpy.linalg.eigvals is original_eigvals
    assert row.stable and math.isfinite(row.r_min)
    m = layer_metrics(tracer.spans)
    # the public evaluate_point is looked up nowhere the tracer wraps; its
    # callees are, and is_stable is seen once directly, once from the solve
    assert m["dynamics.is_stable.calls"] == 2
    assert m["dynamics.solve_lyapunov.calls"] == 1
    assert m["numpy.linalg.eig_calls_per_point"] == 0.0
    lyap = next(i for i, s in enumerate(tracer.spans)
                if s.name == "dynamics.solve_lyapunov")
    assert any(s.parent == lyap and s.name == "dynamics.is_stable"
               for s in tracer.spans)
