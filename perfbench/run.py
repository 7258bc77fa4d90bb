"""Layered benchmark for sketchlab.

    python3 perfbench/run.py --workload attack-b64 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. Each run starts the workload in a
fresh worker process (perfbench/worker.py) with one BLAS thread, the checkout's
``src`` on PYTHONPATH and SKETCHLAB_THREADS unset. With ``--trace 0`` two more
workers only set up, and set-up time is the median of the three. With
``--trace 0`` every time is scaled to reference speed: the worker times a
fixed reference chunk ten times a second between the program's steps and
divides out the machine's speed of the moment (refspeed.py). The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for ``--trace 0`` and the per-layer metrics for
``--trace 1``. Workloads, metrics and bounds are listed in BENCHMARK.json and
explained in perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("attack-b64", "attack-cli-n256", "harddist")
SETUP_PROBES = 2           # extra set-up-only workers per untraced run
DEADLINE_S = 170.0         # the whole command must end within 180 s

# One BLAS thread: on two cores numpy's default pool burns about 1.6 s of CPU
# per wall second in an attack run, so the timings would follow whatever else
# the machine runs. Fixed so every commit is measured with the same pool.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def worker_env():
    env = dict(os.environ)
    for key in ("SKETCHLAB_THREADS", "SKETCHLAB_OUT", "PYTHONPATH"):
        env.pop(key, None)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def start_worker(args, out_dir, deadline, setup_only=False):
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out_dir), "--launched", repr(time.monotonic())]
    if args.small:
        cmd.append("--small")
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        sys.stderr.write(exc.stderr or "")
        raise SystemExit(f"worker did not finish in time: {' '.join(cmd)}")
    sys.stderr.write(proc.stderr)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"worker exited {proc.returncode}: {' '.join(cmd)}")
    return json.loads(lines[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true",
                   help="reduced sizes (self-test only; not comparable)")
    args = p.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "sketchlab" / "__init__.py").is_file():
        print(f"no sketchlab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)

    run = start_worker(args, out_dir, deadline)
    problems = list(run["problems"])
    if args.trace:
        if run["missing_layers"]:
            print(f"layers not found (reported as 0): {run['missing_layers']}",
                  file=sys.stderr)
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in run["layers"].items()}
    else:
        setups = [run["setup_s"]]
        for i in range(SETUP_PROBES):
            probe = start_worker(args, out_dir / f"setup-probe-{i}", deadline, setup_only=True)
            setups.append(probe["setup_s"])
        rounds = run["round_s"]
        metrics = {
            "wall_s": {"value": statistics.median(rounds), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
            "ops_per_s": {"value": run["units"] / sum(rounds), "unit": "1/s"},
        }
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("ns_per_coord"):
        return "ns"
    if name.endswith("us_per_query"):
        return "us"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
