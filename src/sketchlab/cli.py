"""Config-driven experiment runner.

Subcommands: attack run|verify, sketch build|info, harddist gen|gap|tvd,
stats check, suite acceptance. All randomness flows from one 64-bit root seed
through the counter-based splitting scheme in sketchlab.rng. Outputs are a
JSON-lines transcript, a CSV summary, and JSON certificate, exploit and report
files; reruns with the same config and seed reproduce every file byte for byte,
at any BLAS thread count (the transcript's `score` is written to
attack.SCORE_DIGITS significant digits). JSON artefacts are compact and
key-sorted, one line each (written by the C encoder); the report is still
printed indented on stdout.

A config is read key by key (fields.read_fields): its top level by
CONFIG_FIELDS, its attack block by acceptance.read_attack_block, a sketch
spec by SPEC_FIELDS; each table holds each key's type, bound and default. An
unknown or missing key, a wrong type or a value out of bounds is one
`config error at '<path>'` line.

Exit codes: 0 success, 1 error (including a usage error, reported by argparse,
an unreadable or malformed config file, reported by name, a bad config field,
reported with its path, and a bad --params, --certificate, --sketch or --in,
reported in one `error:` line), 2 threshold failure in acceptance/check mode.

Environment: SKETCHLAB_OUT overrides the output directory.
"""

import argparse
import contextlib
import csv
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import acceptance, dgauss, harddist, stats
from .attack import FailureCertificate, run_and_verify, verify_certificate
from .errors import BadParams, SketchLabError
from .fields import REQUIRED, read_fields
from .rng import derive
from .sketch import FAMILIES, GapNormOracle, GapNormParams, build_sketch

# a root seed: rng.derive keys every stream by all 64 bits of it
ROOT_SEED = ((int,), ((">=", 0), ("<", 2**64)), REQUIRED)
# a config's top level (acceptance.ATTACK_FIELDS has its attack block)
CONFIG_FIELDS = {"seed": ROOT_SEED, "out": ((str,), (), None), "attack": ((dict,), (), REQUIRED)}
# a sketch spec, as `sketch build --out` writes it (IntegerSketch.spec_json)
SPEC_FIELDS = {"family": (FAMILIES, (), REQUIRED), "n": ((int,), ((">=", 1),), REQUIRED),
               "r": ((int,), ((">=", 1),), REQUIRED), "seed": ROOT_SEED,
               "params": ((dict,), (), {})}


def _read_json(path, what):
    """The JSON in the file at `path`; BadParams "<what> '<path>': <reason>"
    when the file is unreadable or malformed."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BadParams(f"{what} '{path}': {getattr(exc, 'strerror', None) or exc}") from None


def load_config(path):
    """Read a config file and check it: its top level by CONFIG_FIELDS, its
    attack block by acceptance.read_attack_block. An unreadable file,
    malformed JSON or a bad field prints one `config error` line (naming
    the file, or the offending field path) and raises SystemExit(1).
    Returns the config as read."""
    try:
        cfg = _read_json(path, "config error in")
        read_fields(cfg, CONFIG_FIELDS)
        acceptance.read_attack_block(cfg["attack"])
    except BadParams as exc:
        print(exc, file=sys.stderr)
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
    """One compact, key-sorted line: json.dumps without indent runs the C
    encoder, which json.dump to a file never does."""
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, sort_keys=True, default=_json_default) + "\n")


def _single_attack_run(sk, params, cfg, root_seed, run_seed, do_verify):
    """The attack run of seed `run_seed` on the config's one sketch."""
    out, rep = run_and_verify(
        GapNormOracle(sk, params), sk.r, cfg, derive(root_seed, "attack", run_seed),
        derive(root_seed, "verify", run_seed) if do_verify else None,
    )
    return {
        "run_seed": run_seed,
        "alpha": params.alpha,
        "outcome": out.outcome,
        "transcript": out.state.transcript,
        "certificate": asdict(out.certificate) if out.certificate else None,
        "exploits": [dict(vars(e)) for e in rep["exploits"]] if rep else None,
        "failure_rate": rep["failure_rate"] if rep else None,
        "promise_violations": rep["promise_violations"] if rep else None,
    }


def cmd_attack_run(args):
    cfg = load_config(args.config)
    acfg = acceptance.read_attack_block(cfg["attack"])
    root_seed = int(args.seed if args.seed is not None else cfg["seed"])
    # the sketch depends only on the root seed: build it once for all runs
    sk, params, attack_cfg, alpha_report = acceptance.attack_setup(acfg, root_seed)
    out_dir = _out_dir(cfg.get("out"), args.out)
    calibration = acceptance.calibration_vs_zeta(sk, attack_cfg)
    results = [_single_attack_run(sk, params, attack_cfg, root_seed, s, acfg["verify"])
               for s in acfg["seeds"]]

    # transcript.jsonl: one record per (run, round, sigma2) that the round
    # drew; a round whose direction is decided skips its middle grid points
    with open(os.path.join(out_dir, "transcript.jsonl"), "w") as fh:
        for res in results:
            for rec in res["transcript"]:
                row = {"run_seed": res["run_seed"], **rec}
                fh.write(json.dumps(row, sort_keys=True, default=_json_default))
                fh.write("\n")

    # summary.csv (byte-stable: fixed column order and float repr)
    with open(os.path.join(out_dir, "summary.csv"), "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
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

    certs = [r["certificate"] for r in results]
    _write_json(os.path.join(out_dir, "certificate.json"), certs)
    _write_json(
        os.path.join(out_dir, "exploits.json"),
        [{"run_seed": r["run_seed"], "failure_rate": r["failure_rate"],
          "promise_violations": r["promise_violations"], "exploits": r["exploits"] or []}
         for r in results],
    )
    report = {
        "runs": len(results),
        "certificates": sum(c is not None for c in certs),
        "verified": sum(1 for r in results if r["exploits"]),
        "promise_violations": sum(r["promise_violations"] or 0 for r in results),
        "alpha": results[0]["alpha"],
        **alpha_report,
        **calibration,
    }
    _write_json(os.path.join(out_dir, "report.json"), report)
    print(json.dumps(report, indent=2))
    return 0


def _params_arg(text):
    """--params as a dict, {} when absent; BadParams unless a JSON object."""
    try:
        params = json.loads(text or "{}")
    except ValueError as exc:
        raise BadParams(f"--params is not valid JSON: {exc}") from None
    if not isinstance(params, dict):
        raise BadParams(f"--params must be a JSON object, got {text}")
    return params


def _number(text, option, kind=float):
    """One comma-separated token of `option` as a finite `kind`; BadParams
    otherwise."""
    try:
        value = kind(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        noun = "an integer" if kind is int else "a finite number"
        raise BadParams(f"{option} token {text!r} is not {noun}")
    return value


def _load_sketch(path, option):
    """Rebuild the sketch a `sketch build --out` spec file describes."""
    try:
        spec = read_fields(_read_json(path, option), SPEC_FIELDS)
    except BadParams as exc:
        raise BadParams(f"{option} '{path}' is not a sketch spec: {exc}") from None
    return build_sketch(spec["family"], spec["n"], spec["r"], spec["params"], seed=spec["seed"])


def cmd_attack_verify(args):
    payload = _read_json(args.certificate, "--certificate")
    if isinstance(payload, list):  # certificate.json: one entry per run, null for none
        payload = next((c for c in payload if c), None)
    try:
        cert = FailureCertificate(**payload)
    except TypeError as exc:
        raise BadParams(f"--certificate '{args.certificate}' holds no certificate: {exc}") from None
    sk = _load_sketch(args.sketch, "--sketch")
    oracle = GapNormOracle(sk, GapNormParams(B=cert.B, alpha=cert.alpha))
    rep = verify_certificate(oracle, cert, args.trials, derive(args.seed, "verify"))
    print(json.dumps({"failure_rate": rep["failure_rate"], "exploits": rep["exploit_count"],
                      "promise_violations": rep["promise_violations"]}))
    return 0 if rep["exploit_count"] else 2


def cmd_sketch_build(args):
    sk = build_sketch(args.family, args.n, args.r, _params_arg(args.params), seed=args.seed)
    spec = json.loads(sk.spec_json())
    if args.out:
        _write_json(args.out, spec)
    print(json.dumps(spec, indent=2, default=_json_default))
    return 0


def cmd_sketch_info(args):
    sk = _load_sketch(getattr(args, "in"), "--in")
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
    """The family, calibrated: calibration fills the spike parameters that
    D2 instances are drawn with."""
    fam = harddist.HardFamily(args.family, _params_arg(args.params))
    harddist.calibrate_family(fam)
    return fam


def cmd_harddist_gen(args):
    """Write the instances as one JSON value, an array when --count > 1, one
    instance at a time: compact and key-sorted to --out, in generation order
    to stdout. A D2 matrix instance's witness also carries its spike."""
    if args.count < 1:
        raise BadParams(f"--count must be at least 1, got {args.count}")
    fam = _family_from_args(args)
    params = {k: (None if isinstance(v, float) and math.isinf(v) else v)
              for k, v in fam.params.items()}

    def instance_json(i):
        inst = harddist.gen_hard_instance(fam, args.side, derive(args.seed, "gen", fam.name, i))
        witness = dict(inst.witness)
        if "u" in witness:
            witness["spike"] = harddist.planted_spike(witness)
        doc = {
            "family": fam.name,
            "params": params,
            "side": inst.side,
            "seed": args.seed,
            "index": i,
            "payload": inst.payload.tolist(),
            "witness": {k: (v.tolist() if isinstance(v, np.ndarray) else v)
                        for k, v in witness.items()},
        }
        del inst, witness  # the lists hold every value while the text is built
        return json.dumps(doc, sort_keys=bool(args.out), default=_json_default)

    many = args.count > 1
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        fh.write("[" if many else "")
        for i in range(args.count):
            fh.write(", " if i else "")
            fh.write(instance_json(i))
        fh.write("]\n" if many else "\n")
    if args.out:
        print(f"wrote {args.count} instance(s) to {args.out}")
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
        tokens = args.values.split(",") if args.values else ["0.5", "1", "4", "100", "1e6"]
        rep = [dgauss.verify_normalization_fact(_number(s, "--values")) for s in tokens]
        ok = all(r["ok"] for r in rep)
    elif name == "cell-lemma":
        sk = stats.cell_lemma_sketch(args.r, args.n, derive(args.seed, "cell-A"),
                                     seed=args.seed)
        rep = stats.cell_lemma_check(sk, args.sigma2, args.trials, rng)
        ok = rep["pass"]
    elif name == "chi2-mixture":
        rep = stats.chi_square_mixture_check(args.a, args.sigma2, args.trials, rng)
        ok = rep["ok"]
    else:  # tvd-null; argparse's choices admit no other name
        stats.require_tvd_samples(args.trials)
        x = rng.standard_normal(args.trials)
        y = rng.standard_normal(args.trials)
        est = stats.empirical_tvd(x, y, rng=rng)
        bound = stats.tvd_null_bound(x, y, rng=rng)
        rep = dict(est.as_dict(), bound=bound, false_fail_rate=stats.TVD_NULL_LEVEL)
        ok = est.value <= bound
    print(json.dumps(rep, indent=2, default=_json_default))
    return 0 if ok else 2


def cmd_suite_acceptance(args):
    only = {_number(x, "--only", int) for x in args.only.split(",")} if args.only else None
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        return 1 if exc.code else 0
    try:
        return args.fn(args)
    except SystemExit as exc:
        return exc.code
    except SketchLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
