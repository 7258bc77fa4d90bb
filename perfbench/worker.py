"""One benchmark run of one workload, in a fresh process.

Started by run.py with the BLAS pool fixed and SKETCHLAB_THREADS unset. It
sets the workload up, runs whole rounds until the timed part has lasted
``--seconds`` at reference speed (at least one round; two in a traced run),
checks every round's outputs and then the final properties, and prints one
JSON object as its last line.

With ``--trace 0`` a refspeed.SpeedProbe times reference chunks interleaved
with the program from the start of the process, and the set-up and round
times it reports are scaled to reference speed (see refspeed.py); the
unscaled times are kept in result.json. With ``--trace 1`` rounds alternate
untraced and traced, nothing is scaled, the traced rounds give the per-layer
numbers and their difference to the untraced rounds is the tracing overhead.
With ``--setup-only`` it stops after set-up and reports only the set-up time.
"""

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import checks
from refspeed import SpeedProbe
from tracing import Tracer, layer_summary

# A traced run needs one untraced and one traced round, and its second round
# is checked against the first. An untraced run stops at the first round that
# brings the timed part, at reference speed, to --seconds, so how many rounds
# it runs does not follow the host's speed of the moment.
MIN_ROUNDS_TRACED = 2
SETUP_CHUNKS = 8  # reference chunks timed right after set-up, to scale it


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--launched", type=float, required=True,
                   help="time.monotonic() when the parent started this process")
    p.add_argument("--out", required=True, help="directory for this run's files")
    p.add_argument("--small", action="store_true", help="self-test sizes")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def kernel_basis_problems(kept):
    """Check every basis the lattice layer returned during the traced run."""
    problems, seen = [], set()
    for name, args, result in kept:
        A = args[0]
        key = (name, A.entries.tobytes(), A.entries.shape)
        if key in seen:
            continue
        seen.add(key)
        if name == "lattice.kernel":
            problems += checks.check_kernel_basis(A.to_lists(), result.vectors)
        else:  # lattice.preprocess: (A', basis) with the pre-processing bounds
            A_prime, basis = result
            M = A.max_abs_entry()
            problems += checks.check_kernel_basis(
                A_prime.to_lists(), basis.vectors,
                min_count=A.cols - 4 * A.rows, max_len_sq=A.cols * M * M)
    return problems


def layer_metrics(tracer, traced_ids, traced_s, untraced_s):
    """The per-layer metrics of BENCHMARK.json from the traced rounds."""
    acc, wall, unattributed = layer_summary(tracer.spans, traced_ids)
    out = {}
    for name, a in acc.items():
        out[f"{name}.busy_s"] = a["busy_s"]
        if name != "cli.attack_run":
            out[f"{name}.self_s"] = a["self_s"]
    # cmd_attack_run minus its _single_attack_run spans: config, artefacts, report
    out["cli.artefacts.busy_s"] = acc["cli.attack_run"]["self_s"]

    def ratio(name, scale):
        a = acc[name]
        return a["busy_s"] / a["work"] * scale if a["work"] else 0.0

    out["dgauss.subspace.ns_per_coord"] = ratio("dgauss.subspace", 1e9)
    out["dgauss.centered.ns_per_coord"] = ratio("dgauss.centered", 1e9)
    out["sketch.oracle.us_per_query"] = ratio("sketch.oracle", 1e6)
    out["sketch.oracle.queries"] = acc["sketch.oracle"]["work"]
    out["sketch.build.calls"] = acc["sketch.build"]["calls"]
    out["numerics.svd.calls"] = acc["numerics.svd"]["calls"]
    out["lattice.lll.calls"] = acc["lattice.lll"]["calls"]
    out["attack.rounds"] = acc["attack.round"]["calls"]
    out["trace.wall_s"] = wall
    out["trace.unattributed_s"] = unattributed
    out["trace.overhead_s"] = statistics.fmean(traced_s) - statistics.fmean(untraced_s)
    self_total = unattributed + sum(a["self_s"] for a in acc.values())
    return out, self_total - wall


def main(argv=None):
    args = parse_args(argv)
    probe = None if args.trace else SpeedProbe()
    if probe:
        probe.start()
    root = Path(__file__).resolve().parent.parent
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    import sketchlab

    src = (root / "src").resolve()
    if src not in Path(sketchlab.__file__).resolve().parents:
        print(f"sketchlab was imported from {sketchlab.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    import workloads

    tracer = Tracer() if args.trace else None
    workload = workloads.WORKLOADS[args.workload](args.seed, args.small, str(out_dir))
    if tracer:
        tracer.install()  # set-up is traced too, so its lattice bases are checked
    workload.setup()
    if tracer:
        tracer.uninstall()
    setup_end = time.monotonic()
    setup_raw_s = setup_s = setup_end - args.launched
    if probe:
        for _ in range(SETUP_CHUNKS):
            probe.chunk()
        _, setup_s = probe.measure(args.launched, setup_end)
    if args.setup_only:
        if probe:
            probe.stop()
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    problems = []
    rounds = []          # (seconds, traced, unscaled seconds)
    attempted = failed = units = 0
    first = None
    t_start = time.perf_counter()
    k = 0
    min_rounds = MIN_ROUNDS_TRACED if tracer else 1
    while k < min_rounds or sum(s for s, _, _ in rounds) < args.seconds:
        traced = bool(tracer) and k % 2 == 1
        if traced:
            tracer.install()
            with tracer.round_span(f"round-{k}"):
                t0 = time.perf_counter()
                res = workload.run_round(k)
                dt = raw = time.perf_counter() - t0
            tracer.uninstall()
        else:
            t0 = time.monotonic()
            res = workload.run_round(k)
            t1 = time.monotonic()
            dt = raw = t1 - t0
            if probe:
                raw, dt = probe.measure(t0, t1)
        rounds.append((dt, traced, raw))
        problems += workload.check_round(res, first)
        attempted += res["attempted"]
        failed += res["failed"]
        if not traced:
            units += res["units"]
        if first is None:
            first = res
        k += 1
    if probe:
        probe.stop()
    problems += workload.final_checks()

    untraced_s = [s for s, t, _ in rounds if not t]
    result = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "round_s": untraced_s,
        "round_raw_s": [raw for _, t, raw in rounds if not t],
        "ref_chunk_s": probe.mean_chunk_s() if probe else None,
        "attempted": attempted,
        "failed": failed,
        "units": units,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "run_s": time.perf_counter() - t_start,
    }
    if tracer:
        problems += kernel_basis_problems(tracer.kept)
        traced_s = [s for s, t, _ in rounds if t]
        traced_ids = [f"round-{i}" for i in range(k) if i % 2 == 1]
        result["layers"], gap = layer_metrics(tracer, traced_ids, traced_s, untraced_s)
        if abs(gap) > 1e-6 * max(result["layers"]["trace.wall_s"], 1.0):
            problems.append(f"layer self times miss the traced wall time by {gap:.3g} s")
        result["missing_layers"] = tracer.missing
        tracer.write(out_dir / "spans.jsonl", t_start)
    result["problems"] = problems
    with open(out_dir / "result.json", "w") as fh:
        json.dump(result, fh, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
