import types

import cmmsim.cli
import numpy

import worker


def test_run_command_records_nonzero_exits_and_raises():
    rec = worker.run_command(
        cmmsim.cli, ["phase-opt", "--config", "no-such.cfg"], None)
    assert rec["rc"] == 2
    assert "cannot read config" in rec["error"]

    def main(argv):
        raise numpy.linalg.LinAlgError("Eigenvalues did not converge")

    rec = worker.run_command(types.SimpleNamespace(main=main), [], None)
    assert rec["rc"] is None
    assert rec["error"] == "LinAlgError: Eigenvalues did not converge"
