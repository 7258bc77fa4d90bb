"""Config-driven experiment runner.

Subcommands: attack run|verify, sketch build|info, harddist gen|gap|tvd,
stats check, suite acceptance. All randomness flows from one 64-bit root seed
through the counter-based splitting scheme in sketchlab.rng. Outputs are a
JSON-lines transcript, a CSV summary, and JSON certificate/exploit files;
reruns with the same config and seed reproduce byte-identical CSVs.

Exit codes: 0 success, 1 error (including config schema violations, reported
with the offending field path), 2 threshold failure in acceptance/check mode.

Environment: SKETCHLAB_OUT overrides the output directory, SKETCHLAB_THREADS
the worker count for independent seeded attack runs.
"""

import argparse
import csv
import io
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from importlib import resources

import numpy as np

from . import acceptance, dgauss, harddist, stats
from .attack import AttackConfig, FailureCertificate, run_attack, verify_certificate
from .errors import NoExploitFound, SketchLabError
from .rng import derive
from .sketch import GapNormOracle, GapNormParams, build_sketch


EXPLOITS_WRITTEN = 200  # exploits kept per run in exploits.json


def _load_schema():
    with resources.files("sketchlab").joinpath("config_schema.json").open() as fh:
        return json.load(fh)


def load_config(path):
    """Read + schema-validate a config file; raises SystemExit(1) with the
    offending field path on violation."""
    import jsonschema

    with open(path) as fh:
        cfg = json.load(fh)
    try:
        jsonschema.validate(cfg, _load_schema())
    except jsonschema.ValidationError as exc:
        loc = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        print(f"config error at '{loc}': {exc.message}", file=sys.stderr)
        raise SystemExit(1)
    return cfg


def _out_dir(cfg_out, cli_out):
    out = cli_out or os.environ.get("SKETCHLAB_OUT") or cfg_out or "sketchlab-out"
    os.makedirs(out, exist_ok=True)
    return out


def _json_default(o):
    if isinstance(o, (np.integer,)):
        return int(o)
    if isinstance(o, (np.floating,)):
        return float(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON-serializable: {type(o)}")


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _build_attack_pieces(acfg, root_seed):
    """The attacked sketch, its GapNormParams and AttackConfig, and how alpha
    was set: the sampling floor, the lattice term (None for a fixed alpha)
    and which of floor, lattice or fixed binds."""
    n, r = acfg["n"], acfg["r"]
    B = float(acfg["B"])
    family = acfg["family"]
    fam_params = dict(acfg.get("family_params", {}))
    policy = acfg.get("alpha_policy", "auto")
    sketch_seed = int(acfg.get("sketch_seed", root_seed))

    if policy == "auto":
        probe_params = dict(fam_params)
        if family == "projection-threshold":
            probe_params.update({"alpha": 1.0, "B": B, "m_cal": 16})
        probe = build_sketch(family, n, r, probe_params, seed=sketch_seed)
        alpha, ell = acceptance.auto_alpha(probe)
        lattice_term = acceptance.alpha_lattice_term(n, ell)
        binds = "lattice" if alpha == lattice_term else "floor"
    else:
        alpha, lattice_term, binds = float(policy), None, "fixed"
    alpha_report = {
        "alpha_floor": acceptance.alpha_floor(n),
        "alpha_lattice_term": lattice_term,
        "alpha_binds": binds,
    }

    if family == "projection-threshold":
        fam_params.update({"alpha": alpha, "B": B})
    sk = build_sketch(family, n, r, fam_params, seed=sketch_seed)
    params = GapNormParams(B=B, alpha=alpha)
    grid = acfg.get("grid", {})
    cfg = AttackConfig(
        gap=params,
        m=int(acfg.get("m", 2000)),
        grid_kind=grid.get("kind", "geometric"),
        grid_points=int(grid.get("points", 16)),
        positive_floor=acfg.get("positive_floor"),
        slack_mode=acfg.get("slack_mode", "relative"),
        round_cap=acfg.get("round_cap"),
        zeta=acfg.get("zeta"),
        verify_trials=int(acfg.get("verify_trials", 10_000)),
    )
    return sk, params, cfg, alpha_report


def _single_attack_run(args):
    """One seeded attack run (top-level so a process pool can pickle it)."""
    (sk, params, cfg), root_seed, run_seed, do_verify = args
    oracle = GapNormOracle(sk, params)
    out = run_attack(oracle, sk.n, sk.r, cfg, derive(root_seed, "attack", run_seed))
    result = {
        "run_seed": run_seed,
        "alpha": params.alpha,
        "outcome": out.outcome,
        "transcript": out.state.transcript,
        "certificate": asdict(out.certificate) if out.certificate else None,
        "sketch_spec": json.loads(sk.spec_json()),
        "exploits": None,
        "failure_rate": None,
    }
    if do_verify and out.certificate is not None:
        try:
            rep = verify_certificate(
                oracle, out.certificate, cfg.verify_trials,
                derive(root_seed, "verify", run_seed),
            )
            result["exploits"] = [dict(vars(e)) for e in rep["exploits"][:EXPLOITS_WRITTEN]]
            result["failure_rate"] = rep["failure_rate"]
        except NoExploitFound:
            result["exploits"] = []
            result["failure_rate"] = 0.0
    return result


def cmd_attack_run(args):
    cfg = load_config(args.config)
    if "attack" not in cfg:
        print("config error at '<root>': missing 'attack' block", file=sys.stderr)
        return 1
    root_seed = int(args.seed if args.seed is not None else cfg["seed"])
    out_dir = _out_dir(cfg.get("out"), args.out)
    acfg = cfg["attack"]
    seeds = acfg.get("seeds", [0])
    do_verify = bool(acfg.get("verify", True))
    # the sketch depends only on the sketch seed: build it once for all runs
    *pieces, alpha_report = _build_attack_pieces(acfg, root_seed)
    jobs = [(pieces, root_seed, s, do_verify) for s in seeds]

    threads = int(os.environ.get("SKETCHLAB_THREADS", "1"))
    if threads > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=threads) as ex:
            results = list(ex.map(_single_attack_run, jobs))
    else:
        results = [_single_attack_run(j) for j in jobs]

    # transcript.jsonl: one record per (run, round, sigma2)
    with open(os.path.join(out_dir, "transcript.jsonl"), "w") as fh:
        for res in results:
            for rec in res["transcript"]:
                row = {"run_seed": res["run_seed"], **rec}
                fh.write(json.dumps(row, sort_keys=True, default=_json_default))
                fh.write("\n")

    # summary.csv (byte-stable: fixed column order and float repr)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["run_id", "seed", "round", "sigma2", "rate", "m_prime", "score", "accepted"]
    )
    for run_id, res in enumerate(results):
        for rec in res["transcript"]:
            writer.writerow([
                run_id, res["run_seed"], rec["round"], repr(rec["sigma2"]),
                repr(rec["rate"]), rec["m_prime"],
                "" if rec["score"] is None else repr(rec["score"]),
                int(rec["accepted"]),
            ])
    with open(os.path.join(out_dir, "summary.csv"), "w") as fh:
        fh.write(buf.getvalue())

    certs = [r["certificate"] for r in results]
    _write_json(os.path.join(out_dir, "certificate.json"), certs)
    _write_json(
        os.path.join(out_dir, "exploits.json"),
        [{"run_seed": r["run_seed"], "failure_rate": r["failure_rate"],
          "exploits": r["exploits"] or []} for r in results],
    )
    report = {
        "runs": len(results),
        "certificates": sum(c is not None for c in certs),
        "verified": sum(1 for r in results if r["exploits"]),
        "alpha": results[0]["alpha"],
        **alpha_report,
        "out_dir": out_dir,
    }
    _write_json(os.path.join(out_dir, "report.json"), report)
    print(json.dumps(report, indent=2))
    return 0


def cmd_attack_verify(args):
    with open(args.certificate) as fh:
        payload = json.load(fh)
    if isinstance(payload, list):
        payload = next((c for c in payload if c), None)
        if payload is None:
            print("no certificate in file", file=sys.stderr)
            return 1
    cert = FailureCertificate(**payload)
    with open(args.sketch) as fh:
        spec = json.load(fh)
    sk = build_sketch(spec["family"], spec["n"], spec["r"],
                      spec.get("params"), seed=spec["seed"])
    params = GapNormParams(B=cert.B, alpha=cert.alpha)
    oracle = GapNormOracle(sk, params)
    try:
        rep = verify_certificate(oracle, cert, args.trials, derive(args.seed, "verify"))
    except NoExploitFound:
        print(json.dumps({"failure_rate": 0.0, "exploits": 0}))
        return 2
    print(json.dumps({"failure_rate": rep["failure_rate"],
                      "exploits": len(rep["exploits"])}))
    return 0


def cmd_sketch_build(args):
    params = json.loads(args.params) if args.params else None
    sk = build_sketch(args.family, args.n, args.r, params, seed=args.seed)
    spec = json.loads(sk.spec_json())
    if args.out:
        _write_json(args.out, spec)
    print(json.dumps(spec, indent=2, default=_json_default))
    return 0


def cmd_sketch_info(args):
    with open(getattr(args, "in")) as fh:
        spec = json.load(fh)
    sk = build_sketch(spec["family"], spec["n"], spec["r"],
                      spec.get("params"), seed=spec["seed"])
    info = {
        "family": sk.family,
        "n": sk.n,
        "r": sk.r,
        "max_abs_entry": sk.A.max_abs_entry(),
        "estimator": {k: v for k, v in sk.estimator.items()
                      if isinstance(v, (int, float, str, list))},
        "orthogonality_error": float(np.max(np.abs(sk.Q @ sk.Q.T - np.eye(sk.r)))),
    }
    print(json.dumps(info, indent=2, default=_json_default))
    return 0


def _family_from_args(args):
    params = json.loads(args.params) if args.params else {}
    return harddist.HardFamily(args.family, params)


def cmd_harddist_gen(args):
    fam = _family_from_args(args)
    out = []
    for i in range(args.count):
        rng = derive(args.seed, "gen", fam.name, i)
        inst = harddist.gen_hard_instance(fam, args.side, rng)
        out.append({
            "family": fam.name,
            "params": {k: (None if isinstance(v, float) and math.isinf(v) else v)
                       for k, v in fam.params.items()},
            "side": inst.side,
            "seed": args.seed,
            "index": i,
            "payload": inst.payload.tolist(),
            "witness": {k: (v.tolist() if isinstance(v, np.ndarray) else v)
                        for k, v in inst.witness.items()},
        })
    doc = out if args.count > 1 else out[0]
    if args.out:
        _write_json(args.out, doc)
        print(f"wrote {args.count} instance(s) to {args.out}")
    else:
        print(json.dumps(doc, default=_json_default))
    return 0


def cmd_harddist_gap(args):
    fam = _family_from_args(args)
    rep = harddist.gap_event_battery(fam, pairs=args.pairs, seed=args.seed)
    rep.pop("details")
    print(json.dumps(rep, indent=2, default=_json_default))
    need = int(0.95 * args.pairs)
    return 0 if rep["both_hold"] >= need else 2


def cmd_harddist_tvd(args):
    fam = _family_from_args(args)
    rep = harddist.sketched_indistinguishability(
        fam, d=args.d, trials=args.trials, rng=derive(args.seed, "tvd")
    )
    print(json.dumps(rep, indent=2, default=_json_default))
    return 0


def cmd_stats_check(args):
    name = args.name
    rng = derive(args.seed, "stats", name)
    if name == "pmf-ratio":
        rep = stats.pmf_ratio_check(args.sigma2, args.n, args.C)
        ok = rep["ok"]
    elif name == "normalization":
        sigmas = [float(s) for s in (args.values.split(",") if args.values
                                     else ["0.5", "1", "4", "100", "1e6"])]
        rep = [dgauss.verify_normalization_fact(s) for s in sigmas]
        ok = all(r["ok"] for r in rep)
    elif name == "cell-lemma":
        from .sketch import IntegerSketch
        gen = derive(args.seed, "cell-A")
        while True:
            A = gen.integers(-10, 11, size=(args.r, args.n))
            if np.linalg.matrix_rank(A.astype(float)) == args.r:
                break
        sk = IntegerSketch.from_matrix(A, seed=args.seed)
        rep = stats.cell_lemma_check(sk, args.sigma2, args.trials, rng)
        ok = rep["pass"]
    elif name == "chi2-mixture":
        rep = stats.chi_square_mixture_check(
            ("pm", args.a), args.sigma2, args.d, args.trials, rng
        )
        ok = rep["ok"]
    elif name == "tvd-null":
        x = rng.standard_normal(args.trials)
        y = rng.standard_normal(args.trials)
        est = stats.empirical_tvd(x, y, rng=rng)
        rep = est.as_dict()
        ok = est.value <= 0.03
    else:
        print(f"unknown check {name}", file=sys.stderr)
        return 1
    print(json.dumps(rep, indent=2, default=_json_default))
    return 0 if ok else 2


def cmd_suite_acceptance(args):
    only = set(int(x) for x in args.only.split(",")) if args.only else None
    records = acceptance.run_battery(fast=args.fast, only=only)
    if args.out:
        _write_json(args.out, records)
    return 0 if all(r["ok"] for r in records) else 2


def build_parser():
    p = argparse.ArgumentParser(prog="sketchlab", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    pa = sub.add_parser("attack", help="run or verify adaptive attacks")
    suba = pa.add_subparsers(dest="sub", required=True)
    pr = suba.add_parser("run")
    pr.add_argument("--config", required=True)
    pr.add_argument("--seed", type=int, default=None)
    pr.add_argument("--out", default=None)
    pr.set_defaults(fn=cmd_attack_run)
    pv = suba.add_parser("verify")
    pv.add_argument("--certificate", required=True)
    pv.add_argument("--sketch", required=True)
    pv.add_argument("--trials", type=int, default=10_000)
    pv.add_argument("--seed", type=int, default=0)
    pv.set_defaults(fn=cmd_attack_verify)

    ps = sub.add_parser("sketch", help="build or inspect sketches")
    subs = ps.add_subparsers(dest="sub", required=True)
    pb = subs.add_parser("build")
    pb.add_argument("--family", required=True)
    pb.add_argument("--n", type=int, required=True)
    pb.add_argument("--r", type=int, required=True)
    pb.add_argument("--params", default=None)
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--out", default=None)
    pb.set_defaults(fn=cmd_sketch_build)
    pi = subs.add_parser("info")
    pi.add_argument("--in", required=True)
    pi.set_defaults(fn=cmd_sketch_info)

    ph = sub.add_parser("harddist", help="hard-distribution tooling")
    subh = ph.add_subparsers(dest="sub", required=True)
    pg = subh.add_parser("gen")
    pg.add_argument("--family", required=True)
    pg.add_argument("--side", choices=["D1", "D2"], default="D2")
    pg.add_argument("--params", default=None)
    pg.add_argument("--count", type=int, default=1)
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--out", default=None)
    pg.set_defaults(fn=cmd_harddist_gen)
    pp = subh.add_parser("gap")
    pp.add_argument("--family", required=True)
    pp.add_argument("--params", default=None)
    pp.add_argument("--pairs", type=int, default=100)
    pp.add_argument("--seed", type=int, default=101)
    pp.set_defaults(fn=cmd_harddist_gap)
    pt = subh.add_parser("tvd")
    pt.add_argument("--family", required=True)
    pt.add_argument("--params", default=None)
    pt.add_argument("--d", type=int, default=1)
    pt.add_argument("--trials", type=int, default=20_000)
    pt.add_argument("--seed", type=int, default=0)
    pt.set_defaults(fn=cmd_harddist_tvd)

    pst = sub.add_parser("stats", help="statistical verification checks")
    subst = pst.add_subparsers(dest="sub", required=True)
    pc = subst.add_parser("check")
    pc.add_argument("name", choices=["pmf-ratio", "normalization", "cell-lemma",
                                     "chi2-mixture", "tvd-null"])
    pc.add_argument("--sigma2", type=float, default=10_000.0)
    pc.add_argument("--n", type=int, default=10)
    pc.add_argument("--C", type=float, default=2.0)
    pc.add_argument("--r", type=int, default=2)
    pc.add_argument("--d", type=int, default=1)
    pc.add_argument("--a", type=float, default=0.5)
    pc.add_argument("--trials", type=int, default=100_000)
    pc.add_argument("--values", default=None)
    pc.add_argument("--seed", type=int, default=0)
    pc.set_defaults(fn=cmd_stats_check)

    psu = sub.add_parser("suite", help="run test batteries")
    subsu = psu.add_subparsers(dest="sub", required=True)
    pacc = subsu.add_parser("acceptance")
    pacc.add_argument("--fast", action="store_true",
                      help="reduced trial counts (smoke mode)")
    pacc.add_argument("--only", default=None,
                      help="comma-separated criterion ids")
    pacc.add_argument("--out", default=None)
    pacc.set_defaults(fn=cmd_suite_acceptance)

    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SystemExit as exc:
        return exc.code
    except SketchLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
