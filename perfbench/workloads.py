"""The benchmark's three workloads.

Each workload has a set-up (inputs built, module caches warmed), a round
(the timed operation; every round of a run repeats the same seeded inputs),
per-round checks and final checks made after the timed part. Rounds and
checks call sketchlab through module attributes, so a traced run sees every
call at the boundaries listed in tracing.LAYERS.

``small=True`` selects the reduced sizes the self-test uses.
"""

import contextlib
import io
import json
import math
import os
import shutil
from dataclasses import asdict

import numpy as np

from sketchlab import acceptance, attack, cli, dgauss, harddist, numerics, sketch
from sketchlab.errors import NoExploitFound, SketchLabError
from sketchlab.rng import derive

import checks


class AttackB64:
    """The adaptive attack against GapNormOracle on a projection-threshold
    sketch that is right on isotropic inputs (B=64), so the attack runs out
    of rounds: 9 rounds x 16 grid points x m queries per round."""

    name = "attack-b64"
    FULL = {"n": 128, "r": 8, "B": 64.0, "m": 2000, "grid_points": 16,
            "check_queries": 4000, "moment_samples": 4000}
    SMALL = {"n": 64, "r": 4, "B": 64.0, "m": 200, "grid_points": 4,
             "check_queries": 1000, "moment_samples": 2000}

    def __init__(self, seed, small, workdir):
        self.seed = seed
        self.size = self.SMALL if small else self.FULL
        self.workdir = workdir
        self.last = None

    def setup(self):
        s = self.size
        n, r, B = s["n"], s["r"], s["B"]
        probe = sketch.build_sketch("projection-threshold", n, r,
                                    {"alpha": 1.0, "B": B, "m_cal": 16}, seed=self.seed)
        alpha, _ = acceptance.auto_alpha(probe)
        self.sketch = sketch.build_sketch("projection-threshold", n, r,
                                          {"alpha": alpha, "B": B}, seed=self.seed)
        self.params = sketch.GapNormParams(B=B, alpha=alpha)
        self.config = attack.AttackConfig(gap=self.params, m=s["m"],
                                          grid_points=s["grid_points"])
        # warm the sampler's envelope cache and the BLAS paths the rounds use
        oracle = sketch.GapNormOracle(self.sketch, self.params)
        empty = numerics.OrthonormalBasis.empty(n)
        rng = derive(self.seed, "bench-warm")
        for s2 in self.config.grid_for(n):
            spec = dgauss.SubspaceGaussianSpec(n, empty, float(s2))
            X = dgauss.sample_subspace_query(spec, "discrete", rng, size=16)
            oracle.query_batch(X)
        numerics.top_right_singular_vector(X.astype(float))

    def run_round(self, k):
        oracle = sketch.GapNormOracle(self.sketch, self.params)
        n, r = self.sketch.n, self.sketch.r
        out = attack.run_attack(oracle, n, r, self.config, derive(self.seed, "bench-attack"))
        exploits = None
        if out.certificate is not None:
            try:
                rep = attack.verify_certificate(oracle, out.certificate,
                                                self.config.verify_trials,
                                                derive(self.seed, "bench-verify"))
                exploits = rep["exploits"]
            except NoExploitFound:
                exploits = []
        return {"outcome": out, "exploits": exploits, "units": oracle.query_count,
                "attempted": 1, "failed": 0}

    def check_round(self, res, first):
        out = res["outcome"]
        n = self.sketch.n
        problems = checks.check_transcript(out.state.transcript, self.config.m)
        problems += checks.check_orthonormal(out.state.V.matrix)
        if out.certificate is not None:
            cert = asdict(out.certificate)
            exploits = [asdict(e) for e in res["exploits"]]
            problems += checks.check_exploits(exploits, cert, n)
            if exploits:
                problems += checks.check_oracle_bits(
                    self.sketch.A.entries, self.sketch.estimator["tau"],
                    [e["x"] for e in exploits], [e["answer"] for e in exploits],
                    straddle=False)
        if first is not None:
            a, b = first["outcome"], out
            if (a.outcome, a.state.transcript) != (b.outcome, b.state.transcript):
                problems.append("a repeated round with the same seed gave another transcript")
        self.last = out
        return problems

    def final_checks(self):
        s, sk = self.size, self.sketch
        n, alpha, B = sk.n, self.params.alpha, self.params.B
        # a fixed batch of queries drawn after the timed part, from the
        # benchmark's own generator, spanning both sides of the threshold
        gen = np.random.default_rng([self.seed, 7])
        scale = np.sqrt(np.geomspace(alpha / 2.0, 2.0 * alpha * B, s["check_queries"]))
        X = np.rint(gen.standard_normal((s["check_queries"], n)) * scale[:, None]).astype(np.int64)
        bits = sketch.GapNormOracle(sk, self.params).query_batch(X)
        problems = checks.check_oracle_bits(sk.A.entries, sk.estimator["tau"], X, bits)
        # a fresh sampler batch at the learned subspace
        V = self.last.state.V
        sigma2 = alpha * B / 2.0
        spec = dgauss.SubspaceGaussianSpec(n, V, sigma2)
        Xs = dgauss.sample_subspace_query(spec, "discrete", derive(self.seed, "bench-moments"),
                                          size=s["moment_samples"])
        problems += checks.check_subspace_moments(Xs, V.matrix, sigma2)
        return problems


class AttackCli:
    """`sketchlab attack run` on an n=256 config with several seeds, writing
    every artefact. Each seed rebuilds the sketch (kernel + LLL in
    auto_alpha, two calibrations), runs a short certifying attack and
    verifies the certificate."""

    name = "attack-cli-n256"
    FULL = {"n": 256, "r": 8, "B": 8.0, "m": 2000, "grid_points": 16,
            "seeds": [0, 1, 2], "verify_trials": 10_000}
    # small: criterion 1's sketch, which certifies in the first round
    SMALL = {"n": 128, "r": 8, "B": 8.0, "m": 2000, "grid_points": 16,
             "seeds": [0], "verify_trials": 2000}

    def __init__(self, seed, small, workdir):
        self.seed = seed
        self.size = self.SMALL if small else self.FULL
        self.workdir = workdir
        self.rebuilt = None

    def setup(self):
        s = self.size
        self.config_path = os.path.join(self.workdir, "config.json")
        doc = {
            "seed": self.seed,
            "attack": {
                "n": s["n"], "r": s["r"], "family": "projection-threshold",
                "B": s["B"], "alpha_policy": "auto", "m": s["m"],
                "grid": {"kind": "geometric", "points": s["grid_points"]},
                "seeds": s["seeds"], "verify_trials": s["verify_trials"],
            },
        }
        with open(self.config_path, "w") as fh:
            json.dump(doc, fh, indent=2)
        cli.load_config(self.config_path)  # imports the schema validator

    def run_round(self, k):
        out_dir = os.path.join(self.workdir, f"round-{k}")
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = cli.main(["attack", "run", "--config", self.config_path, "--out", out_dir])
        seeds = len(self.size["seeds"])
        return {"rc": rc, "stdout": stdout.getvalue(), "dir": out_dir,
                "attempted": seeds, "failed": 0 if rc == 0 else seeds, "units": 0}

    def _rebuild_oracle(self, alpha):
        """An oracle rebuilt from the sketch spec that `sketchlab sketch
        build` writes for the config's sketch (family, n, r, seed, params)."""
        s = self.size
        spec_path = os.path.join(self.workdir, "sketch.json")
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["sketch", "build", "--family", "projection-threshold",
                           "--n", str(s["n"]), "--r", str(s["r"]), "--seed", str(self.seed),
                           "--params", json.dumps({"alpha": alpha, "B": s["B"]}),
                           "--out", spec_path])
        if rc != 0:
            raise RuntimeError(f"sketchlab sketch build exited {rc}")
        with open(spec_path) as fh:
            spec = json.load(fh)
        sk = sketch.build_sketch(spec["family"], spec["n"], spec["r"], spec["params"],
                                 seed=spec["seed"])
        return sk, sketch.GapNormOracle(sk, sketch.GapNormParams(B=s["B"], alpha=alpha))

    def check_round(self, res, first):
        s = self.size
        if res["rc"] != 0:
            return []  # counted as failed operations
        art = checks.read_cli_artefacts(res["dir"])
        problems = checks.check_cli_artefacts(art, s["seeds"], s["n"], s["m"])
        if json.loads(res["stdout"]) != art["report"]:
            problems.append("printed report differs from report.json")
        certs = [c for c in art["certificates"] if c is not None]
        res["units"] = len(art["transcript"]) * s["m"] + len(certs) * s["verify_trials"]
        if self.rebuilt is None:
            self.rebuilt = self._rebuild_oracle(art["report"]["alpha"])
        sk, oracle = self.rebuilt
        for entry in art["exploits"]:
            if not entry["exploits"]:
                continue
            X = np.array([e["x"] for e in entry["exploits"]], dtype=np.int64)
            recorded = [e["answer"] for e in entry["exploits"]]
            if [int(b) for b in oracle.query_batch(X)] != recorded:
                problems.append(f"seed {entry['run_seed']}: rebuilt oracle disagrees "
                                "with recorded exploit answers")
            problems += checks.check_oracle_bits(sk.A.entries, sk.estimator["tau"], X,
                                                 recorded, straddle=False)
        if first is not None and first.get("summary") not in (None, art["summary"]):
            problems.append("summary.csv differs between two invocations with one seed")
        res["summary"] = art["summary"]
        shutil.rmtree(res["dir"], ignore_errors=True)
        return problems

    def final_checks(self):
        return []


# criterion 11's families and parameters; criterion 14's spike pair
GAP_FAMILIES = (
    ("lp-small", {"n": 1024, "eps": 0.1, "p": 1.5}),
    ("lp-large", {"n": 1024, "p": 4.0, "delta": 1.0 / 9.0, "eps": 0.1}),
    ("opnorm-alpha", {"n": 64, "alpha": 2.0}),
    ("opnorm-eps", {"d": 64, "eps": 0.1}),
    ("kyfan", {"n": 64, "s": 4}),
    ("eigen", {"d": 64, "eps": 0.1}),
    ("psd", {"d": 64, "p": math.inf, "eps": 0.1}),
    ("cs", {"n": 256, "k": 8, "eps": 0.2}),
)
TVD_N = 32
TVD_SPIKES = (("small", 0.1), ("large", 40.0))


class HardDist:
    """The gap-event battery for all eight hard families plus the small- and
    large-spike sketched TVD for opnorm-alpha."""

    name = "harddist"
    FULL = {"pairs": 20, "tvd_trials": 10_000, "recheck_pairs": 4}
    SMALL = {"pairs": 3, "tvd_trials": 2000, "recheck_pairs": 1}

    def __init__(self, seed, small, workdir):
        self.seed = seed
        self.size = self.SMALL if small else self.FULL
        self.workdir = workdir
        self.held = {name: [0, 0] for name, _ in GAP_FAMILIES}

    def setup(self):
        # fill the module-level caches (expected_p_norm, support_family, the
        # sampler envelopes); opnorm-eps calibration has no module cache and
        # is the slowest, so it is left to the rounds
        for name, params in GAP_FAMILIES:
            fam = harddist.HardFamily(name, dict(params))
            if name != "opnorm-eps":
                harddist.calibrate_family(fam)
            rng = derive(self.seed, "bench-warm", name)
            harddist.gen_hard_instance(fam, "D1", rng)
            harddist.gen_hard_instance(fam, "D2", rng)

    def run_round(self, k):
        s = self.size
        held, stats, kept = {}, [], []
        failed = 0
        for name, params in GAP_FAMILIES:
            fam = harddist.HardFamily(name, dict(params))
            thresholds = harddist.calibrate_family(fam)
            held[name] = [0, 0]  # pairs whose two events held, pairs drawn
            for i in range(s["pairs"]):
                rng = derive(self.seed, "bench-gap", name, i)
                try:
                    i1 = harddist.gen_hard_instance(fam, "D1", rng)
                    r1 = harddist.verify_gap_event(i1, thresholds)
                    i2 = harddist.gen_hard_instance(fam, "D2", rng)
                    r2 = harddist.verify_gap_event(i2, thresholds)
                except SketchLabError:
                    failed += 2
                    continue
                held[name][0] += int(r1["event_holds"] and r2["event_holds"])
                held[name][1] += 1
                stats.append((r1["statistic"], r2["statistic"]))
                if i < s["recheck_pairs"]:
                    kept += [(name, fam.params, i1, r1), (name, fam.params, i2, r2)]
        tvd = {}
        for label, spike in TVD_SPIKES:
            fam = harddist.HardFamily("opnorm-alpha", {"n": TVD_N, "alpha": 2.0,
                                                       "s1": spike / math.sqrt(TVD_N)})
            rep = harddist.sketched_indistinguishability(
                fam, d=1, trials=s["tvd_trials"], rng=derive(self.seed, "bench-tvd", label))
            tvd[label] = rep["tvd"]["value"]
        attempted = 2 * s["pairs"] * len(GAP_FAMILIES)
        return {"held": held, "stats": stats, "kept": kept, "tvd": tvd,
                "attempted": attempted, "failed": failed, "units": attempted - failed}

    def check_round(self, res, first):
        problems = []
        for name, params, inst, rep in res.pop("kept"):
            problems += checks.check_gap_statistic(name, params, inst, rep)
        for name, (count, pairs) in res["held"].items():
            self.held[name][0] += count
            self.held[name][1] += pairs
        problems += checks.check_tvd(res["tvd"]["small"], res["tvd"]["large"])
        if first is not None and (first["stats"], first["tvd"]) != (res["stats"], res["tvd"]):
            problems.append("a repeated round with the same seed gave other statistics")
        return problems

    def final_checks(self):
        return checks.check_gap_rates(self.held)


WORKLOADS = {w.name: w for w in (AttackB64, AttackCli, HardDist)}
