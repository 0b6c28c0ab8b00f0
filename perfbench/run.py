"""cmmsim benchmark: one command per workload, metrics by name and unit.

Run from the root of a cmmsim checkout:

    python3 perfbench/run.py --workload phase_grid --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with tracing off and
scaled to a host of fixed speed (see ``speed.py``); ``--trace 1`` prints
the per-layer metrics of a traced run.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Outputs are checked against an
independent oracle after the timed region; any failed command, error row or
mismatch makes ``correct`` false and the exit status 1, and so does output
that differs from an earlier run of the same seed, program and inputs.
Scratch files go to ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import tracing  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
SETUP_REPEATS = 11
SETUP_TIMEOUT_S = 30
#: a run must end within 180 s; the worker gets what set-up leaves of it
WORKER_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "points_per_s": "points/s",
    "cmd_p50_ms": "ms",
    "cmd_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
STAT_UNITS = {"calls": "calls", "self_s": "s", "raised": "count",
              "p50_us": "us", "bytes": "bytes"}
PER_LAYER = (
    [f"{layer}.{stat}" for layer in tracing.LAYERS
     for stat in ("calls", "self_s", "raised")]
    + ["sweep.evaluate_point.p50_us", "cli.write_sweep_csv.bytes",
       "sweep.stable_ratio", "dynamics.is_stable.calls_per_point",
       "numpy.linalg.eig_calls_per_point",
       "sweep.optimize_phase.evals_per_call", "numpy.linalg.self_s",
       "trace.overhead_frac"])


def unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    return STAT_UNITS.get(name.rsplit(".", 1)[1], "ratio")


def git_commit(root: str) -> str | None:
    """Commit of a git checkout, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: str) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        **{var: os.environ.get(var) for var in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(root),
        "loadavg_at_start": list(os.getloadavg()),
    }


def _worker_args(args, root: str, workdir: str) -> list[str]:
    argv = [sys.executable, WORKER, "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--root", root, "--workdir", workdir]
    return argv + (["--smoke"] if args.smoke else [])


def measure_setup(args, root: str, workdir: str) -> list[tuple[float, float]]:
    """(seconds, host slowness) per set-up: from launching a fresh
    interpreter to inputs ready (importing cmmsim, parsing the configs,
    writing the inputs).  The set-up process takes the slowness from
    reference samples right after it is ready."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        proc = subprocess.run(_worker_args(args, root, workdir)
                              + ["--setup-only"], capture_output=True,
                              text=True, timeout=SETUP_TIMEOUT_S, check=True)
        done = json.loads(proc.stdout.splitlines()[-1])
        samples.append((done["ready"] - start, done["slowness"]))
    return samples


def fingerprint(root: str, inp) -> str:
    """Digest of the program's sources and the run's inputs: runs that share
    it must produce byte-identical outputs."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(root, "src")):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    h.update(fh.read())
    for text in inp.configs:
        h.update(text.encode())
    return h.hexdigest()[:16]


def check(seed: int, result: dict, inp, known_path: str):
    """Attempted and failed operations and the problems found.  An operation
    is a grid point on the grid workloads and a phase-opt call on phase_opt;
    a command that raised or exited nonzero fails all of its operations, and
    so does one whose output differs from that of the same command earlier
    in this run or in an earlier run recorded in ``known_path``."""
    import oracle

    per_cmd = result["points_per_command"]
    records = result["commands"]
    attempted, failed, problems = per_cmd * len(records), 0, []
    warm = result["warmup"]
    if warm["error"] or warm["rc"] != 0:
        attempted += 1
        failed += 1
        problems.append(f"warm-up command failed: {warm['error']}")
    try:
        with open(known_path, encoding="utf-8") as fh:
            known = json.load(fh)
    except FileNotFoundError:
        known = {}
    ok, differing = [], 0
    for rec in records:
        if rec["error"] or rec["rc"] != 0:
            failed += per_cmd
            problems.append(f"command {rec['command']} failed: "
                            f"rc={rec['rc']} {rec['error']}")
            continue
        digest = rec.get("digest") or hashlib.sha256(json.dumps(
            rec["output"], sort_keys=True).encode()).hexdigest()
        if known.setdefault(str(rec["command"]), digest) != digest:
            differing += 1
            failed += per_cmd
            continue
        ok.append(rec)
    with open(known_path, "w", encoding="utf-8") as fh:
        json.dump(known, fh)
    if differing:
        problems.append(f"{differing} commands gave other output than "
                        "earlier runs of the same command")
    if inp.csv_path is not None and ok:
        rows = oracle.read_csv(inp.csv_path)
        n_err = oracle.error_rows(rows)
        if n_err:
            failed += n_err * len(ok)
            problems.append(f"{n_err} error rows per sweep")
        mismatches = oracle.check_grid(inp.configs[0], rows, seed)
        failed += len({m.split(":")[0] for m in mismatches})
        problems += mismatches
    elif inp.csv_path is None:
        seen = {}
        for rec in ok:
            k = rec["command"]
            if k not in seen:
                seen[k] = oracle.check_phase_opt(inp.configs[k], rec["output"])
            if seen[k]:
                failed += 1
                problems += [f"command {k}: {p}" for p in seen[k]]
    return attempted, min(failed, attempted), problems


def end_to_end(result: dict, setup: list[tuple[float, float]],
               scaled: bool = True) -> dict[str, float]:
    """The end-to-end metrics; with ``scaled`` every time is divided by the
    host's slowness while it was taken (see ``speed``)."""
    walls = [rec["wall"] / (rec["slowness"] if scaled else 1.0)
             for rec in result["commands"]]
    return {
        "setup_s": statistics.median(
            sec / (slow if scaled else 1.0) for sec, slow in setup),
        "points_per_s": result["points_per_command"] * len(walls) / sum(walls),
        "cmd_p50_ms": 1e3 * statistics.median(walls),
        "cmd_p90_ms": 1e3 * statistics.quantiles(
            walls, n=10, method="inclusive")[8],
        "peak_rss_mb": result["maxrss_kb"] / 1024.0,
    }


def per_layer(result: dict) -> dict[str, float]:
    passes = result["layers"]
    out = {name: statistics.median(p[name] for p in passes)
           for name in passes[0]}
    walls = result["pass_walls"]
    out["trace.overhead_frac"] = (statistics.median(walls["traced"])
                                  / statistics.median(walls["untraced"]) - 1.0)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="cmmsim benchmark (run from the checkout root)")
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)

    root = os.getcwd()
    required = [os.path.join("src", "cmmsim", "cli.py"),
                inputs.PHASE_GRID_CFG, inputs.BASELINE_CFG]
    missing = [p for p in required if not os.path.isfile(os.path.join(root, p))]
    if missing:
        print(f"not a cmmsim checkout: missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))

    env = environment(root)
    workdir = os.path.join(root, ".perfbench_work", args.workload)
    os.makedirs(workdir, exist_ok=True)
    setup = [] if args.trace else measure_setup(args, root, workdir)
    proc = subprocess.run(_worker_args(args, root, workdir),
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        print(f"benchmark worker exited with {proc.returncode}",
              file=sys.stderr)
        return 1
    with open(os.path.join(workdir, "result.json"), encoding="utf-8") as fh:
        result = json.load(fh)
    inp = inputs.make_inputs(args.workload, args.seed, root, workdir,
                             smoke=args.smoke)
    known = os.path.join(
        workdir, f"outputs-seed{args.seed}-{fingerprint(root, inp)}.json")
    attempted, failed, problems = check(args.seed, result, inp, known)
    metrics = per_layer(result) if args.trace else end_to_end(result, setup)
    unscaled = {} if args.trace else end_to_end(result, setup, scaled=False)

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "commands": len(result["commands"]),
              "points_per_command": result["points_per_command"],
              "setup_samples": setup, "problems": problems,
              "metrics": metrics, "unscaled_metrics": unscaled}
    with open(os.path.join(workdir, "record.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print("environment " + json.dumps(env))
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(result['commands'])} commands of "
          f"{result['points_per_command']} point(s); "
          f"{len(setup)} set-ups; {failed}/{attempted} failed")
    for p in problems[:20]:
        print(f"  problem: {p}")
    for name, value in metrics.items():
        raw = (f" (unscaled {unscaled[name]:.6g})"
               if unscaled.get(name, value) != value else "")
        print(f"  {name} = {value:.6g} {unit(name)}{raw}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
