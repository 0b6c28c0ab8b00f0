import signal
import time

import pytest

import run
import speed


def test_speedometer_samples_and_restores_the_alarm():
    previous = signal.getsignal(signal.SIGALRM)
    meter = speed.Speedometer(interval=0.01)
    with meter.running():
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(meter.samples) >= 5
    assert meter.spent == pytest.approx(
        sum(p + la for _, p, la in meter.samples), rel=0.5)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_slowness_comes_from_the_samples_around_a_command():
    nominal = (speed.NOMINAL_PYTHON_S, speed.NOMINAL_LINALG_S)
    meter = speed.Speedometer()
    for t in range(11):
        factor = 2.0 if 3 <= t <= 7 else 1.0
        meter.samples.append((float(t), factor * nominal[0],
                              factor * nominal[1]))
    assert meter.slowness(4.9, 5.1) == pytest.approx(2.0)
    assert meter.slowness(0.0, 1.5) == pytest.approx(1.0)
    # no sample within the window: the nearest one counts
    assert meter.slowness(20.0, 21.0) == pytest.approx(1.0)


def test_end_to_end_times_are_divided_by_the_slowness():
    result = {"points_per_command": 10, "maxrss_kb": 2048,
              "commands": [{"wall": 2.0, "slowness": 2.0},
                           {"wall": 3.0, "slowness": 1.5}]}
    setup = [(0.4, 2.0), (0.3, 1.0), (0.6, 2.0)]
    scaled = run.end_to_end(result, setup)
    assert scaled["cmd_p50_ms"] == pytest.approx(1500.0)
    assert scaled["points_per_s"] == pytest.approx(20.0 / 3.0)
    assert scaled["setup_s"] == pytest.approx(0.3)
    assert scaled["peak_rss_mb"] == 2.0
    raw = run.end_to_end(result, setup, scaled=False)
    assert raw["cmd_p50_ms"] == pytest.approx(2500.0)
    assert raw["setup_s"] == pytest.approx(0.4)
