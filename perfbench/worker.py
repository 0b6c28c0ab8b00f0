"""The program process of one benchmark run.

Imports cmmsim from the checkout's ``src``, writes the workload's inputs,
then runs its commands in-process through ``cmmsim.cli.main``: one client,
closed loop, each command starting when the previous one returned.  With
``--trace 1`` untraced and traced passes alternate.  The record of every
command goes to ``result.json`` in the work directory; the parent process
turns it into metrics and checks the outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time

import inputs

#: reference samples a set-up process takes once it is ready
SETUP_REF_SAMPLES = 40


def _import_cmmsim(root: str):
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    import cmmsim.cli
    if not os.path.abspath(cmmsim.cli.__file__).startswith(src + os.sep):
        raise ImportError(f"cmmsim imported from {cmmsim.cli.__file__}, "
                          f"not from {src}")
    return cmmsim.cli


def run_command(cli, argv: list[str], csv_path: str | None) -> dict:
    """Run one command and time it.  A raised exception or a nonzero exit
    is recorded, not propagated: the run goes on and counts it as failed."""
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = 0 if exc.code is None else exc.code
    except Exception as exc:  # any failure of the program under test
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    if rc not in (0, None):
        error = err.getvalue().strip()
    record = {"wall": wall, "rc": rc, "error": error}
    if csv_path is not None and rc == 0:
        with open(csv_path, "rb") as fh:
            record["digest"] = hashlib.sha256(fh.read()).hexdigest()
    else:
        record["output"] = dict(
            line.split(" = ", 1) for line in out.getvalue().splitlines()
            if " = " in line)
    return record


class Loop:
    """Closed-loop scheduler: keeps going while the next unit of work is
    expected to end within ``seconds``, and always runs ``minimum`` units."""

    def __init__(self, seconds: float, minimum: int):
        self.seconds, self.minimum = seconds, minimum
        self.start = time.perf_counter()
        self.walls: list[float] = []

    def more(self) -> bool:
        if len(self.walls) < self.minimum:
            return True
        elapsed = time.perf_counter() - self.start
        return elapsed + statistics.median(self.walls) <= self.seconds

    def done(self, wall: float) -> None:
        self.walls.append(wall)


def timed_run(cli, inp, seconds: float, min_passes: int):
    """Run whole passes over the commands, closed-loop, under a
    ``speed.Speedometer``: every command runs equally often.  Return the
    records and the reference samples.  Each record's ``wall`` excludes the
    samples taken during the command, and ``slowness`` is the host's
    slowness around it."""
    import speed

    records, spans = [], []
    loop = Loop(seconds, min_passes)
    with speed.Speedometer().running() as meter:
        while loop.more():
            pass_start = time.perf_counter()
            for k, argv in enumerate(inp.commands):
                spent, start = meter.spent, time.perf_counter()
                rec = run_command(cli, argv, inp.csv_path)
                spans.append((start, time.perf_counter()))
                rec.update(command=k, wall=rec["wall"] - (meter.spent - spent))
                records.append(rec)
            loop.done(time.perf_counter() - pass_start)
    for rec, (start, end) in zip(records, spans):
        rec["slowness"] = meter.slowness(start, end)
        rec["span"] = (start, end)
    return records, meter.samples


def traced_run(cli, inp, seconds: float, pass_commands: int, workdir: str):
    """Alternate untraced and traced passes of the first ``pass_commands``
    commands; return their records, the layer metrics of every traced pass
    and the wall time of every pass."""
    import tracing

    records, layers, first_spans = [], [], None
    walls = {"untraced": [], "traced": []}
    loop = Loop(seconds, 1)
    while loop.more():
        pair_start = time.perf_counter()
        for traced in (False, True):
            tracer = tracing.Tracer()
            untraced = contextlib.nullcontext
            start = time.perf_counter()
            with tracer.installed() if traced else untraced():
                for k in range(pass_commands):
                    with tracer.command(k) if traced else untraced():
                        rec = run_command(cli, inp.commands[k], inp.csv_path)
                    rec.update(command=k, traced=traced)
                    records.append(rec)
            walls["traced" if traced else "untraced"].append(
                time.perf_counter() - start)
            if traced:
                layers.append(tracing.layer_metrics(tracer.spans))
                first_spans = first_spans or tracer.spans
        loop.done(time.perf_counter() - pair_start)
    tracing.write_spans(first_spans, os.path.join(workdir, "spans.csv"))
    return records, layers, walls


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    cli = _import_cmmsim(args.root)
    inp = inputs.make_inputs(args.workload, args.seed, args.root,
                             args.workdir, smoke=args.smoke)
    ready = time.monotonic()
    if args.setup_only:
        import speed

        speed.block(1)   # first-call costs stay out of the samples
        slowness = speed.slowness(speed.block(SETUP_REF_SAMPLES))
        print(json.dumps({"ready": ready, "slowness": slowness}))
        return 0

    warmup = run_command(cli, inp.warmup, None)
    result = {"warmup": warmup, "points_per_command": inp.points_per_command}
    grid = args.workload in inputs.GRID_WORKLOADS
    if args.trace:
        pass_commands = 1 if grid else min(inputs.PHASE_OPT_PASS,
                                           len(inp.commands))
        result["commands"], result["layers"], result["pass_walls"] = \
            traced_run(cli, inp, args.seconds, pass_commands, args.workdir)
    else:
        result["commands"], result["speed_samples"] = timed_run(
            cli, inp, args.seconds, 2 if grid else 1)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(os.path.join(args.workdir, "result.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
