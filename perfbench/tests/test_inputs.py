import os

import pytest

import inputs
from conftest import ROOT


def _configs(workload, seed, workdir):
    return inputs.make_inputs(workload, seed, ROOT, workdir).configs


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_inputs_are_deterministic_per_seed(workload, workdir):
    first = _configs(workload, 7, os.path.join(workdir, "a"))
    assert first == _configs(workload, 7, os.path.join(workdir, "b"))
    other = _configs(workload, 8, os.path.join(workdir, "c"))
    assert (first == other) == (workload in inputs.GRID_WORKLOADS)


def test_phase_opt_draws_stay_in_their_ranges():
    for da, pa, t in inputs.phase_opt_points(3, 500):
        assert -1.6 <= da <= -1.1
        assert 1e-3 <= pa <= 0.5
        assert 0.010 <= t <= 0.100


def test_stability_edge_is_the_phase_grid_at_higher_magnon_power():
    from cmmsim.cli import parse_config

    edge, spec = parse_config(inputs.grid_config("stability_edge", ROOT))
    grid, grid_spec = parse_config(inputs.grid_config("phase_grid", ROOT))
    assert edge.P_m == 1.2 and grid.P_m == 0.9
    assert [ax.count for ax in spec.axes] == [201, 201]
    assert [ax.count for ax in grid_spec.axes] == [101, 101]
    assert edge.replace(P_m=0.9) == grid


def test_set_key_rejects_a_missing_key():
    with pytest.raises(ValueError):
        inputs.set_key("a = 1\n", "b", "2")
