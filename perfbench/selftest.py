"""Self-test of the benchmark (not part of the repository's test suite).

    python3 perfbench/selftest.py

At reduced sizes it drives every workload's correctness checks on real
outputs, which must pass, and feeds each check one deliberately wrong input
(a flipped oracle bit, a tampered exploit vector, an edited report, ...),
which must fail. It then runs perfbench/run.py end to end at the reduced
sizes, traced and untraced, compares the printed metric names with
BENCHMARK.json, and checks that the benchmark refuses to run in a directory
that holds only the benchmark. Exits 1 if any expectation is not met.
"""

import copy
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out" / "selftest"

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"})
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import refspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

FAILURES = []


def expect(label, problems, fail):
    ok = bool(problems) == fail
    verdict = "ok  " if ok else "FAIL"
    detail = problems[0] if problems else "no problems"
    print(f"{verdict} {label}: {'rejected' if problems else 'accepted'} ({detail})")
    if not ok:
        FAILURES.append(label)


def fresh(cls, seed=5):
    workdir = OUT / cls.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    w = cls(seed, True, str(workdir))
    w.setup()
    return w


def test_attack_b64():
    w = fresh(workloads.AttackB64)
    first = w.run_round(0)
    expect("b64 round 0 checks", w.check_round(first, None), fail=False)
    second = w.run_round(1)
    expect("b64 repeated round checks", w.check_round(second, first), fail=False)
    expect("b64 final checks", w.final_checks(), fail=False)

    sk, out = w.sketch, second["outcome"]
    X = np.rint(np.random.default_rng(1).standard_normal((400, sk.n))
                * np.sqrt(np.geomspace(w.params.alpha / 2, 2 * w.params.alpha * w.params.B,
                                       400))[:, None]).astype(np.int64)
    bits = sketch_bits(w, X)
    expect("oracle bits", checks.check_oracle_bits(sk.A.entries, sk.estimator["tau"], X, bits),
           fail=False)
    flipped = bits.copy()
    flipped[int(np.argmax(bits))] ^= 1
    expect("oracle bits, one bit flipped",
           checks.check_oracle_bits(sk.A.entries, sk.estimator["tau"], X, flipped), fail=True)

    records = copy.deepcopy(out.state.transcript)
    records[0]["m_prime"] += 1
    expect("transcript, m_prime off by one", checks.check_transcript(records, w.config.m),
           fail=True)

    V = out.state.V.matrix.copy()
    V[0] *= 1.001
    expect("learned basis, one row rescaled", checks.check_orthonormal(V), fail=True)

    from sketchlab import dgauss
    s2 = w.params.alpha * w.params.B / 2
    Vb = out.state.V
    Xs = dgauss.sample_subspace_query(dgauss.SubspaceGaussianSpec(sk.n, Vb, s2), "discrete",
                                      np.random.default_rng(2), size=2000)
    expect("sampler moments", checks.check_subspace_moments(Xs, Vb.matrix, s2), fail=False)
    on_v = np.rint((Xs @ Vb.matrix.T) @ Vb.matrix).astype(np.int64)
    expect("sampler moments, V component doubled",
           checks.check_subspace_moments(Xs + on_v, Vb.matrix, s2), fail=True)

    other = copy.deepcopy(first)
    other["outcome"].state.transcript[-1]["m_prime"] += 1
    expect("b64 repeated round, transcript changed", w.check_round(second, other), fail=True)


def sketch_bits(w, X):
    from sketchlab import sketch
    return sketch.GapNormOracle(w.sketch, w.params).query_batch(X).astype(np.int64)


def copy_round(res, tag):
    dst = res["dir"] + f"-{tag}"
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(res["dir"], dst)
    return dict(res, dir=dst)


def edit_json(path, fn):
    with open(path) as fh:
        doc = json.load(fh)
    fn(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def test_attack_cli():
    w = fresh(workloads.AttackCli)
    first = w.run_round(0)
    second = w.run_round(1)
    with open(os.path.join(first["dir"], "exploits.json")) as fh:
        assert json.load(fh)[0]["exploits"], "the small CLI config must certify"
    tampered = {tag: copy_round(second, tag) for tag in
                ("vector", "answer", "report", "summary", "transcript")}
    expect("cli round 0 checks", w.check_round(first, None), fail=False)
    expect("cli repeated invocation checks", w.check_round(second, first), fail=False)

    def grow_vector(doc):  # consistent norm_sq, so only the window can catch it
        e = doc[0]["exploits"][0]
        e["x"] = [10 * v for v in e["x"]]
        e["norm_sq"] = float(sum(v * v for v in e["x"]))

    def flip_answer(doc):
        doc[0]["exploits"][0]["answer"] ^= 1

    def miscount(doc):
        doc["verified"] += 1

    edit_json(os.path.join(tampered["vector"]["dir"], "exploits.json"), grow_vector)
    expect("cli exploit vector scaled by 10", w.check_round(tampered["vector"], first), fail=True)
    edit_json(os.path.join(tampered["answer"]["dir"], "exploits.json"), flip_answer)
    expect("cli recorded exploit answer flipped", w.check_round(tampered["answer"], first),
           fail=True)
    edit_json(os.path.join(tampered["report"]["dir"], "report.json"), miscount)
    expect("cli report.json verified count changed", w.check_round(tampered["report"], first),
           fail=True)
    with open(os.path.join(tampered["summary"]["dir"], "summary.csv"), "a") as fh:
        fh.write("\n")
    expect("cli summary.csv one byte longer", w.check_round(tampered["summary"], first),
           fail=True)
    path = os.path.join(tampered["transcript"]["dir"], "transcript.jsonl")
    with open(path) as fh:
        rows = [json.loads(line) for line in fh]
    rows[0]["rate"] += 0.25
    with open(path, "w") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in rows)
    expect("cli transcript rate changed", w.check_round(tampered["transcript"], first),
           fail=True)


def test_harddist():
    w = fresh(workloads.HardDist)
    first = w.run_round(0)
    kept = list(first["kept"])
    expect("harddist round 0 checks", w.check_round(first, None), fail=False)
    expect("harddist final checks", w.final_checks(), fail=False)
    name, params, inst, rep = kept[-1]
    expect("harddist statistic", checks.check_gap_statistic(name, params, inst, rep), fail=False)
    bad = dict(rep, statistic=rep["statistic"] * 1.01)
    expect("harddist statistic off by 1%", checks.check_gap_statistic(name, params, inst, bad),
           fail=True)
    expect("gap events in 18 of 20 pairs", checks.check_gap_rates({"cs": [18, 20]}), fail=True)
    expect("small-spike TVD 0.2", checks.check_tvd(0.2, 0.9), fail=True)
    expect("large-spike TVD 0.4", checks.check_tvd(0.05, 0.4), fail=True)


def test_kernel_and_trace():
    from sketchlab import lattice, sketch

    sk = sketch.build_sketch("projection-threshold", 64, 4, {"alpha": 200.0, "B": 8.0}, seed=3)
    tracer = tracing.Tracer()
    tracer.install()
    with tracer.round_span("round-1"):
        lattice.preprocess_sketch(sk.A)
    tracer.uninstall()
    import worker
    expect("kernel bases", worker.kernel_basis_problems(tracer.kept), fail=False)
    A_prime, kb = next(res for name, _, res in tracer.kept if name == "lattice.preprocess")
    vecs = [list(v) for v in kb.vectors]
    vecs[0][0] += 1
    expect("kernel vector with one entry changed",
           checks.check_kernel_basis(A_prime.to_lists(), vecs), fail=True)
    M = sk.A.max_abs_entry()
    stretch = math.isqrt(sk.n * M * M) + 1  # pushes every nonzero vector past sqrt(n) M
    long_vecs = [[stretch * x for x in v] for v in kb.vectors]
    expect(f"kernel vectors stretched {stretch}-fold",
           checks.check_kernel_basis(A_prime.to_lists(), long_vecs,
                                     max_len_sq=sk.n * M * M), fail=True)
    expect("kernel basis missing vectors",
           checks.check_kernel_basis(A_prime.to_lists(), kb.vectors[:10],
                                     min_count=sk.n - 4 * sk.r), fail=True)
    acc, wall, unattributed = tracing.layer_summary(tracer.spans, ["round-1"])
    gap = unattributed + sum(a["self_s"] for a in acc.values()) - wall
    expect("self times add up to the round", [] if abs(gap) < 1e-9 else [f"gap {gap}"],
           fail=False)


def test_refspeed():
    def scaled(chunk_times, start=0.0, end=1.0):
        probe = refspeed.SpeedProbe()
        step = (end - start) / len(chunk_times)
        probe.chunks = [(start + i * step, start + i * step + c)
                        for i, c in enumerate(chunk_times)]
        return probe.measure(start, end)

    nominal = refspeed.NOMINAL_CHUNK_S
    active, at_ref = scaled([nominal] * 20)
    expect("interval at nominal speed keeps its active time",
           [] if abs(at_ref - active) < 1e-12 and abs(active - (1 - 20 * nominal)) < 1e-12
           else [f"active {active}, scaled {at_ref}"], fail=False)
    active2, slow = scaled([2 * nominal] * 20)
    expect("machine twice as slow halves the scaled time",
           [] if abs(slow - active2 / 2) < 1e-12 else [f"scaled {slow} of {active2}"],
           fail=False)
    _, spiked = scaled([nominal] * 19 + [5 * nominal])
    expect("one paused chunk in twenty does not move the scale",
           [] if abs(spiked / (1 - 24 * nominal) - 1) < 1e-12 else [f"scaled {spiked}"],
           fail=False)
    probe = refspeed.SpeedProbe()
    probe.start()
    t_end = refspeed.time.monotonic() + 1.0
    while refspeed.time.monotonic() < t_end:
        sum(range(1000))
    probe.stop()
    per_second = 1.0 / refspeed.TICK_S
    expect(f"timer runs about {per_second:g} chunks a second",
           [] if abs(len(probe.chunks) - per_second) <= 0.3 * per_second
           else [f"{len(probe.chunks)} chunks"], fail=False)


def test_command():
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    for wl in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", wl["name"], "--seed", "2",
                 "--seconds", "1", "--trace", str(trace), "--small"],
                capture_output=True, text=True, timeout=170, cwd=ROOT)
            label = f"run.py {wl['name']} --trace {trace}"
            if proc.returncode != 0:
                expect(label, [f"exit {proc.returncode}: {proc.stderr[-300:]}"], fail=False)
                continue
            doc = json.loads(proc.stdout.splitlines()[-1])
            problems = [] if doc["correct"] else ["correct is false"]
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in doc["metrics"].items()}
            if got != want:
                problems.append(f"metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got) ^ set(want))}")
            if doc["attempted"] < 1 or doc["failed"] != 0:
                problems.append(f"attempted {doc['attempted']}, failed {doc['failed']}")
            expect(label, problems, fail=False)

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(bench["command"] + ["--workload", "harddist", "--seed", "1",
                                              "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=170, cwd=bare)
    problems = [] if proc.returncode == 0 else [f"exit {proc.returncode}"]
    if proc.stdout.strip():
        problems.append("printed a result")
    expect("run.py without the program's source", problems, fail=True)
    shutil.rmtree(bare, ignore_errors=True)


def main():
    for test in (test_attack_b64, test_attack_cli, test_harddist, test_kernel_and_trace,
                 test_refspeed, test_command):
        print(f"-- {test.__name__}")
        test()
    shutil.rmtree(OUT, ignore_errors=True)
    print(f"{len(FAILURES)} expectation(s) not met" if FAILURES else "all expectations met")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
