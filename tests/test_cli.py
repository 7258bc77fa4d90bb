import csv
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import sketchlab
from sketchlab import acceptance, dgauss, harddist, stats
from sketchlab.attack import EXPLOITS_KEPT, FailureCertificate, verify_certificate
from sketchlab.cli import load_config, main
from sketchlab.errors import BadParams
from sketchlab.rng import derive
from sketchlab.sketch import GapNormOracle


def read_json(*path):
    return json.loads(Path(*path).read_text())


def write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


# the config format as JSON Schema, a test-only oracle for load_config
SCHEMA = read_json(Path(__file__).parent, "data", "config_schema.json")


ATTACK_CFG = {
    "seed": 7,
    "attack": {
        "n": 64,
        "r": 4,
        "family": "projection-threshold",
        "B": 8.0,
        "alpha_policy": "auto",
        "m": 300,
        "grid": {"kind": "geometric", "points": 6},
        "seeds": [0],
        "verify_trials": 500,
    },
}


# the attack-cli-n256 benchmark's config (perfbench/workloads.py)
N256_CFG = {
    "seed": 0,
    "attack": {"n": 256, "r": 8, "family": "projection-threshold", "B": 8.0,
               "alpha_policy": "auto", "m": 2000,
               "grid": {"kind": "geometric", "points": 16},
               "seeds": [0, 1, 2], "verify_trials": 10_000},
}
CONFIGS = {"demo": "demos/projection_r8_n128.json"}
# sha256 prefixes of each artefact that `attack run --seed 7` writes
ARTEFACT_PINS = {
    "n256": {
        "certificate.json": "17e76f89f3a08ab5",
        "exploits.json": "88260c2bf74e8a66",
        "report.json": "c76319397d592866",
        "summary.csv": "54b2e1558d30b152",
        "transcript.jsonl": "11c0ac0a28c09af7",
    },
    "demo": {
        "certificate.json": "5fc1e17096a393ee",
        "exploits.json": "4236463d2c60c8ad",
        "report.json": "8db4fa34b5bd2fe4",
        "summary.csv": "ffdd317d17fdc2c0",
        "transcript.jsonl": "2a89e61054c8732d",
    },
}


class TestAttackRun:
    def test_artifacts_and_replayability(self, tmp_path):
        # two runs of one config and seed into two directories write the
        # same five artefacts, byte for byte: none records where it went
        cfg = write_cfg(tmp_path, ATTACK_CFG)
        out1, out2 = str(tmp_path / "o1"), str(tmp_path / "deeper" / "o2")
        assert main(["attack", "run", "--config", cfg, "--out", out1]) == 0
        assert main(["attack", "run", "--config", cfg, "--out", out2]) == 0
        for f in ("transcript.jsonl", "summary.csv", "certificate.json",
                  "exploits.json", "report.json"):
            assert Path(out1, f).read_bytes() == Path(out2, f).read_bytes(), f
        header = Path(out1, "summary.csv").read_text().splitlines()[0]
        assert header == "run_id,seed,round,sigma2,rate,m_prime,score,accepted"
        report = read_json(out1, "report.json")
        assert report["alpha"] == max(report["alpha_floor"], report["alpha_lattice_term"])
        assert report["alpha_binds"] in ("floor", "lattice")

    @pytest.mark.parametrize("family,zeta,warned", [
        ("projection-threshold", None, True),  # both rates 0.325 > zeta 0.289
        ("projection-threshold", 0.5, False),
        ("sign", None, True),                  # both rates 0.367 > zeta 0.289
    ], ids=["projection-over", "projection-under", "sign-over"])
    def test_report_records_calibration_against_zeta(self, tmp_path, capsys,
                                                     family, zeta, warned):
        doc = json.loads(json.dumps(ATTACK_CFG))
        doc["attack"].update(family=family, zeta=zeta)
        out = str(tmp_path / "out")
        assert main(["attack", "run", "--config", write_cfg(tmp_path, doc), "--out", out]) == 0
        printed = capsys.readouterr()
        report = read_json(out, "report.json")
        assert json.loads(printed.out) == report
        sk, _, cfg, _ = acceptance.attack_setup(doc["attack"], 7)
        assert report["zeta"] == cfg.effective_zeta(64)
        assert report["false_low"] == sk.estimator["false_low"]
        assert report["false_high"] == sk.estimator["false_high"]
        assert (max(report["false_low"], report["false_high"]) > report["zeta"]) == warned
        assert printed.err.count("above zeta") == int(warned)

    def test_alpha_decomposition(self):
        floor = dgauss.smoothing_sigma2(64, dgauss.SAMPLING_FLOOR_ELL_SQ)
        _, params, _, auto = acceptance.attack_setup(ATTACK_CFG["attack"], 7)
        assert auto["alpha_floor"] == floor
        assert params.alpha == max(auto["alpha_lattice_term"], floor)
        binds = "lattice" if auto["alpha_lattice_term"] >= floor else "floor"
        assert auto["alpha_binds"] == binds
        fixed = dict(ATTACK_CFG["attack"], alpha_policy=900.0)
        _, params, _, rep = acceptance.attack_setup(fixed, 7)
        assert params.alpha == 900.0
        assert rep == {"alpha_floor": floor, "alpha_lattice_term": None, "alpha_binds": "fixed"}

    def test_sketch_built_once_for_all_seeds(self, tmp_path, monkeypatch):
        builds = []
        real_build = acceptance.build_sketch
        monkeypatch.setattr(acceptance, "build_sketch",
                            lambda *a, **k: builds.append(a) or real_build(*a, **k))
        doc = json.loads(json.dumps(ATTACK_CFG))
        doc["attack"]["seeds"] = [0, 1, 2]
        out = str(tmp_path / "all")
        assert main(["attack", "run", "--config", write_cfg(tmp_path, doc), "--out", out]) == 0
        assert len(builds) == 2  # the auto-alpha probe and the attacked sketch
        # each run sees the same sketch as a run of its seed alone
        doc["attack"]["seeds"] = [1]
        one = str(tmp_path / "one")
        assert main(["attack", "run", "--config", write_cfg(tmp_path, doc, "one.json"),
                     "--out", one]) == 0
        rows = [json.loads(line) for line in Path(out, "transcript.jsonl").read_text().splitlines()]
        alone = [json.loads(line) for line in Path(one, "transcript.jsonl").read_text().splitlines()]
        assert [r for r in rows if r["run_seed"] == 1] == alone
        exploits = read_json(out, "exploits.json")
        assert all(len(e["exploits"]) <= EXPLOITS_KEPT for e in exploits)
        report = read_json(out, "report.json")
        assert report["verified"] == sum(1 for e in exploits if e["exploits"])

    def test_runs_written_in_config_order(self, tmp_path):
        # seeds [2, 0, 1] list their runs in that order in every artefact,
        # each run the one that seeds [0, 1, 2] write for its seed
        written = {}
        for seeds in ([0, 1, 2], [2, 0, 1]):
            doc = json.loads(json.dumps(ATTACK_CFG))
            doc["attack"]["seeds"] = seeds
            out = tmp_path / "".join(map(str, seeds))
            assert main(["attack", "run", "--config", write_cfg(tmp_path, doc),
                         "--out", str(out)]) == 0
            rows = [json.loads(line) for line in (out / "transcript.jsonl").read_text().splitlines()]
            with open(out / "summary.csv", newline="") as fh:
                summary = list(csv.DictReader(fh))
            written[tuple(seeds)] = {
                "transcript": {s: [r for r in rows if r["run_seed"] == s] for s in seeds},
                "certificate": dict(zip(seeds, read_json(out, "certificate.json"))),
                "exploits": {e["run_seed"]: e for e in read_json(out, "exploits.json")},
            }
            run_seeds = [r["run_seed"] for r in rows]
            assert run_seeds == sorted(run_seeds, key=seeds.index)
            assert [(int(r["run_id"]), int(r["seed"])) for r in summary] == [
                (seeds.index(r["run_seed"]), r["run_seed"]) for r in rows]
            assert [e["run_seed"] for e in read_json(out, "exploits.json")] == seeds
        assert written[(0, 1, 2)] == written[(2, 0, 1)]
        certs = written[(0, 1, 2)]["certificate"]
        assert len({json.dumps(c, sort_keys=True) for c in certs.values()}) == 3

    @pytest.mark.parametrize("config", ARTEFACT_PINS)
    def test_artefacts_pinned(self, tmp_path, config):
        # `attack run --seed 7` writes these bytes at one and at two BLAS
        # threads: the attack-cli-n256 benchmark's config and the demo config.
        # The transcript's singular scores are float sums whose last bits
        # follow the BLAS pool, so the records keep attack.SCORE_DIGITS of them
        path = CONFIGS[config] if config in CONFIGS else write_cfg(tmp_path, N256_CFG)
        src = os.path.dirname(os.path.dirname(sketchlab.__file__))
        got = {}
        for blas in ("1", "2"):
            out = tmp_path / f"out-blas{blas}"
            env = dict(os.environ, PYTHONPATH=src,
                       OPENBLAS_NUM_THREADS=blas, OMP_NUM_THREADS=blas, MKL_NUM_THREADS=blas)
            subprocess.run([sys.executable, "-m", "sketchlab.cli", "attack", "run",
                            "--config", path, "--seed", "7", "--out", str(out)],
                           env=env, capture_output=True, check=True, timeout=300)
            got[blas] = {f: hashlib.sha256(Path(out, f).read_bytes()).hexdigest()[:16]
                         for f in ARTEFACT_PINS[config]}
        assert got == {"1": ARTEFACT_PINS[config], "2": ARTEFACT_PINS[config]}

    def test_schema_violation_reports_path(self, tmp_path, capsys):
        bad = dict(ATTACK_CFG)
        bad = json.loads(json.dumps(ATTACK_CFG))
        bad["attack"]["B"] = 2.0  # below minimum
        cfg = write_cfg(tmp_path, bad, "bad.json")
        rc = main(["attack", "run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "attack/B" in err

    @pytest.mark.parametrize("key,value,path,why", [
        ("grid", {"kind": "zeta", "points": 6}, "attack/grid/kind",
         "must be 'geometric', got 'zeta'"),
        ("slack_mode", "absolute", "attack", "'slack_mode' is unknown"),
    ], ids=["zeta-grid", "slack-mode"])
    def test_removed_attack_keys_rejected(self, tmp_path, capsys, key, value, path, why):
        bad = json.loads(json.dumps(ATTACK_CFG))
        bad["attack"][key] = value
        cfg = write_cfg(tmp_path, bad, "bad.json")
        rc = main(["attack", "run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"config error at '{path}': " in err and why in err

    @pytest.mark.parametrize("key,value,path,why", [
        ("family_params", {"alpha": 1.0}, "attack/family_params",
         "'alpha' is unknown; it takes ['m_cal']"),
        ("family_params", {"B": 8.0}, "attack/family_params", "'B' is unknown; it takes ['m_cal']"),
        ("zeta", 1.5, "attack/zeta", "must be a finite number > 0 and <= 1, got 1.5"),
        ("seeds", [0, 0], "attack/seeds", "[0, 0] has non-unique elements"),
        ("seeds", [0, 2**32], "attack/seeds/1", "must be an integer >= 0 and < 4294967296"),
        ("seeds", [-1], "attack/seeds/0", "must be an integer >= 0 and < 4294967296"),
        ("B", float("inf"), "attack/B", "must be a finite number, got inf"),
    ], ids=["family-alpha", "family-B", "zeta-above-1", "seeds-repeated", "seed-2^32",
            "seed-negative", "B-infinite"])
    def test_ignored_or_aliased_values_rejected(self, tmp_path, capsys, key, value, path, why):
        # values the run would ignore, alias or fail on are refused before
        # any directory is made
        bad = json.loads(json.dumps(ATTACK_CFG))
        bad["attack"][key] = value
        out = tmp_path / "o"
        assert main(["attack", "run", "--config", write_cfg(tmp_path, bad), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error at '{path}': ") and why in err
        assert err.count("\n") == 1 and not out.exists()

    def test_integral_floats_run_as_ints(self, tmp_path):
        # 64.0 is read as 64: a config written with integral floats writes
        # its all-int twin's five artefacts, byte for byte
        ints = json.loads(json.dumps(ATTACK_CFG))
        ints["attack"]["round_cap"] = 5
        floats = json.loads(json.dumps(ints))
        floats["attack"].update(n=64.0, r=4.0, round_cap=5.0, m=300.0, seeds=[0.0],
                                grid={"kind": "geometric", "points": 6.0})
        written = []
        for name, doc in (("ints", ints), ("floats", floats)):
            out = tmp_path / name
            assert main(["attack", "run", "--config", write_cfg(tmp_path, doc, f"{name}.json"),
                         "--out", str(out)]) == 0
            written.append({f: (out / f).read_bytes() for f in (
                "transcript.jsonl", "summary.csv", "certificate.json", "exploits.json",
                "report.json")})
        assert written[0] == written[1]

    @pytest.mark.parametrize("block", [{"harddist": {"family": "cs"}},
                                       {"stats": {"check": "pmf-ratio"}}],
                             ids=["harddist", "stats"])
    def test_unread_config_blocks_rejected(self, tmp_path, capsys, block):
        bad = dict(json.loads(json.dumps(ATTACK_CFG)), **block)
        cfg = write_cfg(tmp_path, bad, "bad.json")
        rc = main(["attack", "run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"'{next(iter(block))}' is unknown" in err

    def test_missing_field_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, {"attack": {"n": 64}}, "m.json")
        assert main(["attack", "run", "--config", cfg]) == 1

    @pytest.mark.parametrize("text", ['{"seed": 1, "attack": {', None],
                             ids=["truncated", "missing"])
    def test_unreadable_config_exit_1(self, tmp_path, capsys, text):
        # a malformed or missing file is one config error line naming the
        # file, not a traceback
        path = tmp_path / "cfg.json"
        if text is not None:
            path.write_text(text)
        rc = main(["attack", "run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error in '{path}': ") and err.count("\n") == 1

    def test_exploits_are_the_verification_exploits(self, tmp_path):
        # exploits.json holds, per seed, the EXPLOITS_KEPT first exploits
        # that verify_certificate finds on that seed's verification stream,
        # with exact integer coordinates and squared lengths
        doc = json.loads(json.dumps(ATTACK_CFG))
        doc["attack"]["seeds"] = [0, 1]
        out = str(tmp_path / "out")
        assert main(["attack", "run", "--config", write_cfg(tmp_path, doc), "--out", out]) == 0
        sk, params, cfg, _ = acceptance.attack_setup(doc["attack"], 7)
        oracle = GapNormOracle(sk, params)
        certs, entries = read_json(out, "certificate.json"), read_json(out, "exploits.json")
        for seed, cert, entry in zip(doc["attack"]["seeds"], certs, entries):
            rep = verify_certificate(oracle, FailureCertificate(**cert), cfg.verify_trials,
                                     derive(7, "verify", seed))
            want = rep["exploits"]
            assert entry["run_seed"] == seed
            assert entry["failure_rate"] == rep["failure_rate"]
            assert entry["promise_violations"] == rep["promise_violations"]
            assert len(entry["exploits"]) == len(want) > 0
            for got, e in zip(entry["exploits"], want):
                assert all(type(v) is int for v in got["x"]) and got["x"] == e.x
                assert got["norm_sq"] == e.norm_sq == float(sum(v * v for v in e.x))
                assert (got["answer"], got["wrong"]) == (e.answer, e.wrong)
        report = read_json(out, "report.json")
        assert report["promise_violations"] == sum(e["promise_violations"] for e in entries)

    def test_counts_every_exploit_past_the_kept_ones(self, tmp_path, capsys):
        # at 2,000 trials this certificate has more exploits than a report
        # keeps: exploits.json holds EXPLOITS_KEPT of them, while its
        # failure_rate and `attack verify`'s "exploits" count them all
        doc = json.loads(json.dumps(ATTACK_CFG))
        doc["attack"]["verify_trials"] = 2000
        out = str(tmp_path / "out")
        assert main(["attack", "run", "--config", write_cfg(tmp_path, doc), "--out", out]) == 0
        sk, params, _, _ = acceptance.attack_setup(doc["attack"], 7)
        oracle = GapNormOracle(sk, params)
        cert = FailureCertificate(**read_json(out, "certificate.json")[0])
        rep = verify_certificate(oracle, cert, 2000, derive(7, "verify", 0))
        [entry] = read_json(out, "exploits.json")
        assert rep["exploit_count"] > len(entry["exploits"]) == EXPLOITS_KEPT
        assert entry["failure_rate"] == rep["exploit_count"] / 2000
        sk_file = tmp_path / "sk.json"
        sk_file.write_text(sk.spec_json())
        capsys.readouterr()
        assert main(["attack", "verify", "--certificate", str(Path(out, "certificate.json")),
                     "--sketch", str(sk_file), "--trials", "2000", "--seed", "3"]) == 0
        printed = json.loads(capsys.readouterr().out)
        want = verify_certificate(oracle, cert, 2000, derive(3, "verify"))
        assert printed == {"failure_rate": want["failure_rate"], "exploits": want["exploit_count"],
                           "promise_violations": want["promise_violations"]}
        assert printed["exploits"] > EXPLOITS_KEPT

    def test_json_artefacts_are_one_line(self, tmp_path):
        # every JSON artefact is one compact line; verify reads the compact
        # certificate.json against the spec `sketch build --out` writes
        out = str(tmp_path / "out")
        assert main(["attack", "run", "--config", write_cfg(tmp_path, ATTACK_CFG),
                     "--out", out]) == 0
        alpha = read_json(out, "report.json")["alpha"]
        sk_file = str(tmp_path / "sk.json")
        assert main(["sketch", "build", "--family", "projection-threshold", "--n", "64",
                     "--r", "4", "--seed", "7", "--params",
                     json.dumps({"alpha": alpha, "B": 8.0}), "--out", sk_file]) == 0
        for path in (Path(out, "certificate.json"), Path(out, "exploits.json"),
                     Path(out, "report.json"), Path(sk_file)):
            text = path.read_text()
            assert text.endswith("\n") and text.count("\n") == 1, path.name
            assert text == json.dumps(json.loads(text), sort_keys=True) + "\n", path.name
        assert main(["attack", "verify", "--certificate", str(Path(out, "certificate.json")),
                     "--sketch", sk_file, "--trials", "500"]) == 0

    def test_verify_roundtrip(self, tmp_path):
        cfg = write_cfg(tmp_path, ATTACK_CFG)
        out = str(tmp_path / "o")
        assert main(["attack", "run", "--config", cfg, "--out", out]) == 0
        cert_file = os.path.join(out, "certificate.json")
        certs = read_json(cert_file)
        if not any(certs):
            pytest.skip("run produced no certificate at these tiny parameters")
        sk_file = str(tmp_path / "sk.json")
        # the sketch spec comes from the attack set-up; write it for verify
        sk, _, _, _ = acceptance.attack_setup(ATTACK_CFG["attack"], 7)
        Path(sk_file).write_text(sk.spec_json())
        rc = main(["attack", "verify", "--certificate", cert_file,
                   "--sketch", sk_file, "--trials", "500"])
        assert rc in (0, 2)


class TestAttackSetup:
    @pytest.mark.parametrize("family,policy,builds", [
        ("projection-threshold", "auto", 2),  # the alpha probe, then the calibrated sketch
        ("sign", "auto", 2),
        ("projection-threshold", 900.0, 1),
        ("sign", 900.0, 1),
    ], ids=["projection-auto", "sign-auto", "projection-fixed", "sign-fixed"])
    def test_build_count(self, monkeypatch, family, policy, builds):
        calls = []
        real_build = acceptance.build_sketch
        monkeypatch.setattr(acceptance, "build_sketch",
                            lambda *a, **k: calls.append(a) or real_build(*a, **k))
        acfg = dict(ATTACK_CFG["attack"], family=family, alpha_policy=policy)
        sk, params, cfg, _ = acceptance.attack_setup(acfg, 7)
        assert len(calls) == builds
        assert cfg.gap is params and sk.family == family
        # the attacked sketch is the one a direct build at the final alpha gives
        direct = real_build(family, 64, 4, {"alpha": params.alpha, "B": 8.0}, seed=7)
        assert np.array_equal(sk.A.entries, direct.A.entries)
        assert sk.estimator["tau"] == direct.estimator["tau"]

    def test_auto_probe_is_built_without_the_promise(self):
        # m_cal needs alpha and B, so the alpha probe leaves it out and the
        # attacked sketch is fit on m_cal draws per side
        acfg = dict(ATTACK_CFG["attack"], family="sign", family_params={"m_cal": 16})
        sk, params, _, _ = acceptance.attack_setup(acfg, 7)
        direct = acceptance.build_sketch("sign", 64, 4, {"alpha": params.alpha, "B": 8.0,
                                                         "m_cal": 16}, seed=7)
        assert sk.estimator["m_cal"] == 16
        assert sk.spec_json() == direct.spec_json()
        assert sk.estimator["tau"] == direct.estimator["tau"]

    def test_criteria_attack_block_validates(self, tmp_path):
        path = write_cfg(tmp_path, {"seed": 0, "attack": acceptance.ATTACK})
        assert load_config(path)["attack"] == acceptance.ATTACK

    @pytest.mark.parametrize("acfg,where", [
        ({"n": 64, "r": 4, "family": "sign"}, "config error at 'attack': 'B' is a required property"),
        (dict(ATTACK_CFG["attack"], m="300"), "config error at 'attack/m': "),
        (dict(ATTACK_CFG["attack"], seeds=[0, 0]), "config error at 'attack/seeds': "),
    ], ids=["missing-B", "m-string", "seeds-repeated"])
    def test_library_callers_get_the_same_checks(self, monkeypatch, acfg, where):
        # attack_setup reads the block before it builds anything, so a
        # library caller's bad block is the CLI's config error
        monkeypatch.setattr(acceptance, "build_sketch", None)
        with pytest.raises(BadParams) as exc:
            acceptance.attack_setup(acfg, 7)
        assert str(exc.value).startswith(where)

    def test_filled_block(self):
        # every default filled, every integer field an int; a filled block
        # reads as itself
        acfg = acceptance.read_attack_block(
            {"n": 64.0, "r": 4, "family": "sign", "B": 8, "seeds": [2.0]})
        assert acfg == {"n": 64, "r": 4, "family": "sign", "B": 8.0, "family_params": {},
                        "alpha_policy": "auto", "m": 2000,
                        "grid": {"kind": "geometric", "points": 16}, "seeds": [2],
                        "round_cap": None, "zeta": None, "verify_trials": 10_000,
                        "verify": True}
        assert type(acfg["n"]) is int and type(acfg["seeds"][0]) is int
        assert acceptance.read_attack_block(acfg) == acfg


# build_sketch params that each raise BadParams naming the key, for r = 4:
# (family, params, why), why "'<key>' <reason>"
BAD_FAMILY_PARAMS = [
    ("sign", {"groups": 0}, "'groups' must be an integer >= 1, got 0"),
    ("sign", {"groups": "x"}, "'groups' must be an integer, got 'x'"),
    ("countsketch", {"reps": 0}, "'reps' must be an integer >= 1, got 0"),
    ("countsketch", {"reps": 3}, "'reps' must be >= 1 and divide r=4, got 3"),
    ("projection-threshold", {"alpha": 1, "B": 8, "m_cal": 0},
     "'m_cal' must be an integer >= 1, got 0"),
    ("rounded-gaussian", {"entry_std": [1]}, "'entry_std' must be a finite number, got [1]"),
]


class TestOtherCommands:
    def test_stats_check_pmf_ratio(self):
        rc = main(["stats", "check", "pmf-ratio", "--n", "10", "--C", "2",
                   "--sigma2", "10000"])
        assert rc == 0

    def test_stats_check_pmf_ratio_at_the_ceiling_is_cheap(self, traced_peak):
        # two points, not a grid of 6 sigma + 1 = 6e8 integers
        t0 = time.perf_counter()
        rc, peak = traced_peak(main, ["stats", "check", "pmf-ratio", "--sigma2", "1e16"])
        assert time.perf_counter() - t0 < 1.0 and peak < 2**20
        assert rc == 0

    def test_stats_check_normalization(self):
        assert main(["stats", "check", "normalization"]) == 0

    def test_stats_check_tvd_null_small_sample(self, capsys):
        # at 2,000 trials the null TVD sits near 0.044, above the old fixed
        # 0.03; the permutation bound follows n and fails at its stated rate
        fails = 0
        for seed in range(40):
            rc = main(["stats", "check", "tvd-null", "--trials", "2000", "--seed", str(seed)])
            rep = json.loads(capsys.readouterr().out)
            assert rep["false_fail_rate"] == stats.TVD_NULL_LEVEL == 0.01
            assert rep["bound"] > 0.03 and rc == (0 if rep["value"] <= rep["bound"] else 2)
            fails += rc != 0
        assert fails <= 3  # P(Binomial(40, 0.01) >= 4) < 1e-3

    def test_stats_check_tvd_null_default_trials(self, capsys):
        assert main(["stats", "check", "tvd-null", "--seed", "5"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["n1"] == rep["n2"] == 100_000
        assert rep["value"] <= rep["bound"] <= 0.03

    def test_sketch_build_info(self, tmp_path):
        out = str(tmp_path / "sk.json")
        assert main(["sketch", "build", "--family", "countsketch", "--n", "64",
                     "--r", "16", "--params", '{"reps": 4}', "--seed", "3",
                     "--out", out]) == 0
        assert main(["sketch", "info", "--in", out]) == 0

    def test_harddist_gen_and_gap(self, tmp_path):
        out = str(tmp_path / "inst.json")
        assert main(["harddist", "gen", "--family", "cs", "--side", "D2",
                     "--seed", "3", "--out", out]) == 0
        doc = read_json(out)
        assert doc["side"] == "D2" and len(doc["payload"]) == 256
        assert main(["harddist", "gap", "--family", "eigen",
                     "--params", '{"d": 32}', "--pairs", "10"]) == 0

    def test_harddist_gen_plants_calibrated_spike(self, tmp_path):
        # D2 spikes are sized by calibration, as in the gap battery
        out = str(tmp_path / "eigen.json")
        assert main(["harddist", "gen", "--family", "eigen", "--params", '{"d": 16}',
                     "--side", "D2", "--seed", "3", "--out", out]) == 0
        doc = read_json(out)
        fam = harddist.HardFamily("eigen", {"d": 16})
        harddist.calibrate_family(fam)
        inst = harddist.gen_hard_instance(fam, "D2", derive(3, "gen", "eigen", 0))
        assert doc["payload"] == inst.payload.tolist()
        assert doc["witness"]["s1"] == inst.witness["s1"] == fam.spike_scale()

    def test_harddist_gen_holds_one_instance(self, tmp_path, traced_peak):
        # each instance is written before the next is drawn, so three cost
        # no more memory than one
        argv = ["harddist", "gen", "--family", "opnorm-eps", "--params", '{"d": 16}',
                "--out", str(tmp_path / "gen.json"), "--count"]
        assert main(argv + ["1"]) == 0  # calibrate once, outside the traces
        one = traced_peak(main, argv + ["1"])[1]
        three = traced_peak(main, argv + ["3"])[1]
        assert three <= 1.25 * one

    def test_harddist_gen_reads_an_integral_shift(self, tmp_path, capsys):
        # psd's shift is an integer: 99.0 writes the bytes of 99, and 99.5 is
        # one error line, not a numpy traceback
        argv = ["harddist", "gen", "--family", "psd", "--seed", "3", "--params"]
        outs = []
        for shift in ("99", "99.0"):
            out = tmp_path / f"psd-{shift}.json"
            assert main(argv + [f'{{"d": 4, "shift": {shift}}}', "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] and read_json(out)["params"]["shift"] == 99
        capsys.readouterr()
        assert main(argv + ['{"d": 4, "shift": 99.5}']) == 1
        assert capsys.readouterr().err == (
            "error: config error at 'psd/shift': must be an integer, got 99.5\n")

    @pytest.mark.parametrize("edit, why", [
        ({"n": "64"}, "config error at 'n': must be an integer, got '64'"),
        ({"params": [1]}, "config error at 'params': must be an object, got [1]"),
        ({"seed": -1}, "config error at 'seed': must be an integer >= 0 and "
                       "< 18446744073709551616, got -1"),
        ({"family": "fourier"}, "config error at 'family': must be 'sign' or"),
        ({"params": {"groups": 2.5}}, "config error at 'sign/groups': must be an integer"),
    ], ids=["n-string", "params-list", "seed-negative", "family-unknown", "groups-2.5"])
    def test_bad_spec_file_exits_1(self, tmp_path, capsys, edit, why):
        # `sketch info --in` and `attack verify --sketch` read a spec by one
        # key table: a bad field is one error line naming it
        spec = tmp_path / "sk.json"
        assert main(["sketch", "build", "--family", "sign", "--n", "16", "--r", "2",
                     "--out", str(spec)]) == 0
        spec.write_text(json.dumps(dict(read_json(spec), **edit)))
        cert = {"subspace": [], "sigma2": 4.0, "side": "high", "empirical_rate": 0.2,
                "sample_count": 100, "zeta": 0.1, "alpha": 0.5, "B": 8.0, "round": 1}
        (tmp_path / "cert.json").write_text(json.dumps(cert))
        capsys.readouterr()
        for argv, option in ((["sketch", "info", "--in", str(spec)], "--in"),
                             (["attack", "verify", "--certificate", str(tmp_path / "cert.json"),
                               "--sketch", str(spec)], "--sketch")):
            assert main(argv) == 1
            err = capsys.readouterr().err
            if why.startswith("config error at 'sign"):  # the family's own table
                assert err.startswith(f"error: {why}")
            else:
                assert err.startswith(f"error: {option} '{spec}' is not a sketch spec: {why}")
            assert err.count("\n") == 1

    @pytest.mark.parametrize("seed_arg, cfg_seed, why", [
        (["--seed", "-1"], 7, "error: root seed must be in [0, 2^64), got -1"),
        (["--seed", str(2**64)], 7, f"error: root seed must be in [0, 2^64), got {2**64}"),
        ([], 2**64, f"config error at 'seed': must be an integer >= 0 and < {2**64}, "
                    f"got {2**64}"),
    ], ids=["seed-negative", "seed-2^64", "config-seed-2^64"])
    def test_root_seed_outside_64_bits_exits_1(self, tmp_path, capsys, seed_arg, cfg_seed, why):
        # rng.derive keys its streams by all 64 bits of the root seed, so -1
        # would rerun 2^64 - 1 and 2^64 would rerun 0
        cfg = dict(json.loads(json.dumps(ATTACK_CFG)), seed=cfg_seed)
        out = tmp_path / "o"
        argv = ["attack", "run", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]
        assert main(argv + seed_arg) == 1
        assert capsys.readouterr().err == why + "\n" and not out.exists()

    def test_harddist_tvd(self):
        assert main(["harddist", "tvd", "--family", "opnorm-alpha",
                     "--params", '{"n": 16, "s1": 0.0}', "--d", "1",
                     "--trials", "3000"]) == 0

    def test_harddist_tvd_at_the_payload_size(self, capsys):
        # d may equal the payload size: lp-small's n = 2 payload, sketched whole
        assert main(["harddist", "tvd", "--family", "lp-small", "--params", '{"n": 2}',
                     "--d", "2", "--trials", "2000"]) == 0
        assert json.loads(capsys.readouterr().out)["tvd"]["binning"]["dims"] == 2

    @pytest.mark.parametrize("argv, why", [
        (["harddist", "tvd", "--family", "opnorm-alpha", "--params", '{"n": 16}',
          "--d", "0"], "d must be at least 1"),
        (["harddist", "tvd", "--family", "opnorm-alpha", "--params", '{"n": 16}',
          "--d", "-1"], "d must be at least 1"),
        (["harddist", "gen", "--family", "cs", "--count", "0"], "--count must be at least 1"),
        (["harddist", "gap", "--family", "eigen", "--params", '{"d": 16}', "--pairs", "0"],
         "at least one pair"),
    ], ids=["tvd-d0", "tvd-d-1", "gen-count0", "gap-pairs0"])
    def test_harddist_bad_sizes_exit_1(self, capsys, argv, why):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and why in err

    @pytest.mark.parametrize("value", ["[64]", '{"d": 64}', '"64"'],
                             ids=["list", "dict", "string"])
    def test_harddist_non_number_param_exits_1(self, capsys, value):
        argv = ["harddist", "gen", "--family", "opnorm-alpha", "--params", f'{{"n": {value}}}']
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == (f"error: config error at 'opnorm-alpha/n': must be an integer, "
                       f"got {json.loads(value)!r}\n")

    @pytest.mark.parametrize("argv, why", [
        (["sketch", "build", "--family", "sign", "--n", "16", "--r", "2", "--params", "[1]"],
         "--params must be a JSON object"),
        (["sketch", "build", "--family", "sign", "--n", "16", "--r", "2", "--params", "{"],
         "--params is not valid JSON"),
        (["harddist", "gen", "--family", "opnorm-alpha", "--params", "[1]"],
         "--params must be a JSON object"),
        (["harddist", "gen", "--family", "opnorm-alpha", "--params", "{"],
         "--params is not valid JSON"),
        (["harddist", "gap", "--family", "eigen", "--params", "[1]"],
         "--params must be a JSON object"),
        (["harddist", "tvd", "--family", "opnorm-alpha", "--params", "{"],
         "--params is not valid JSON"),
        (["attack", "verify", "--certificate", "missing.json", "--sketch", "sk.json"],
         "--certificate '"),
        (["attack", "verify", "--certificate", "garbage.json", "--sketch", "sk.json"],
         "--certificate '"),
        (["attack", "verify", "--certificate", "sk.json", "--sketch", "sk.json"],
         "holds no certificate"),
        (["attack", "verify", "--certificate", "low.json", "--sketch", "sk.json"],
         "low-side certificate needs sigma^2 <= 2*alpha"),
        (["attack", "verify", "--certificate", "cert.json", "--sketch", "missing.json"],
         "--sketch '"),
        (["attack", "verify", "--certificate", "cert.json", "--sketch", "garbage.json"],
         "--sketch '"),
        (["attack", "verify", "--certificate", "cert.json", "--sketch", "sk.json",
          "--trials", "0"], "verification needs trials >= 1, got 0"),
        (["attack", "verify", "--certificate", "cert.json", "--sketch", "sk.json",
          "--trials", "-5"], "verification needs trials >= 1, got -5"),
        (["harddist", "tvd", "--family", "opnorm-alpha", "--params", '{"n": 16}',
          "--d", "1", "--trials", "0"], "trials must be at least 1, got 0"),
        (["harddist", "tvd", "--family", "opnorm-alpha", "--params", '{"n": 16}',
          "--d", "1", "--trials", "-3"], "trials must be at least 1, got -3"),
        (["sketch", "build", "--family", "projection-threshold", "--n", "16", "--r", "4",
          "--params", '{"alpha": 1, "B": 2}'], "B must be >= 8, got 2"),
        (["sketch", "build", "--family", "projection-threshold", "--n", "16", "--r", "4",
          "--params", '{"alpha": -1, "B": 8}'], "alpha must be positive, got -1"),
        (["harddist", "gen", "--family", "opnorm-alpha", "--params", '{"n": 0}'],
         "config error at 'opnorm-alpha/n': must be an integer >= 1, got 0"),
        (["harddist", "gen", "--family", "opnorm-alpha", "--params", '{"n": 16.5}'],
         "config error at 'opnorm-alpha/n': must be an integer, got 16.5"),
        (["harddist", "gen", "--family", "kyfan", "--params", '{"s": 2.5}'],
         "config error at 'kyfan/s': must be an integer, got 2.5"),
        (["harddist", "gen", "--family", "kyfan", "--params", '{"s": 0}'],
         "config error at 'kyfan/s': must be an integer >= 1, got 0"),
        (["harddist", "gap", "--family", "opnorm-eps", "--params", '{"d": 0}'],
         "config error at 'opnorm-eps/d': must be an integer >= 1, got 0"),
        (["harddist", "gen", "--family", "kyfan", "--params", '{"n": 4, "s": 5}'],
         "kyfan param 's' must be at most n = 4, got 5"),
        (["harddist", "gen", "--family", "lp-small", "--params", '{"n": -4}'],
         "config error at 'lp-small/n': must be an integer >= 1, got -4"),
        (["harddist", "gen", "--family", "lp-large", "--params", '{"n": 1, "delta": 0.0001}'],
         "lp-large param 'n' must exceed t = 4"),
        (["harddist", "tvd", "--family", "opnorm-alpha", "--params", '{"N": -5}'],
         "config error at 'opnorm-alpha/N': must be a finite number > 0, got -5"),
        (["harddist", "gen", "--family", "lp-large", "--params", '{"eps": -0.1, "n": 64}'],
         "config error at 'lp-large/eps': must be a finite number > 0 and < 1, got -0.1"),
        (["harddist", "gen", "--family", "psd", "--params", '{"p": 0, "d": 8}'],
         "config error at 'psd/p': must be a finite number >= 1, got 0"),
        (["harddist", "gap", "--family", "psd", "--params", '{"p": 0, "d": 8}'],
         "config error at 'psd/p': must be a finite number >= 1, got 0"),
        (["harddist", "gen", "--family", "opnorm-alpha", "--params", '{"alpha": 1e300, "n": 8}'],
         "is not below 2^62 (int64)"),
        (["harddist", "gen", "--family", "opnorm-alpha", "--params", '{"N": 1e16, "n": 8}'],
         "sigma^2 = 1e+32 above the sampling ceiling 1e+16"),
        (["harddist", "gen", "--family", "opnorm-alpha", "--params", '{"alpah": 3.0}'],
         "config error at 'opnorm-alpha': 'alpah' is unknown"),
        (["sketch", "info", "--in", "missing.json"], "--in '"),
        (["sketch", "info", "--in", "garbage.json"], "--in '"),
        (["sketch", "info", "--in", "cert.json"], "is not a sketch spec"),
        (["sketch", "build", "--family", "sign", "--n", "16", "--r", "2", "--seed", "-1"],
         "root seed must be in [0, 2^64), got -1"),
        (["attack", "verify", "--certificate", "short.json", "--sketch", "sk.json"],
         "basis vector dimension mismatch: need 16"),
        (["attack", "verify", "--certificate", "equal.json", "--sketch", "sk.json"],
         "basis not orthonormal"),
        (["attack", "verify", "--certificate", "nan.json", "--sketch", "sk.json"],
         "basis not orthonormal: max Gram deviation nan"),
        (["attack", "verify", "--certificate", "text.json", "--sketch", "sk.json"],
         "certificate subspace is not rows of numbers"),
        (["harddist", "gen", "--family", "opnorm-alpha", "--params", '{"N": 1e200, "n": 8}'],
         "sigma^2 = inf above the sampling ceiling 1e+16"),
        (["harddist", "gen", "--family", "cs", "--params", '{"n": 4096, "k": 64}'],
         "cs (n, k) = (4096, 64) needs 2^96 support sets, above the cap 2^14"),
        (["harddist", "tvd", "--family", "lp-small", "--params", '{"n": 1}', "--d", "3",
          "--trials", "2000"], "sketch dimension d = 3 exceeds the payload size 1"),
        (["harddist", "tvd", "--family", "lp-small", "--params", '{"n": 2}', "--d", "3",
          "--trials", "2000"], "sketch dimension d = 3 exceeds the payload size 2"),
    ], ids=["build-list", "build-json", "gen-list", "gen-json", "gap-list", "tvd-json",
            "cert-missing", "cert-malformed", "cert-not-certificate", "cert-bad-side",
            "sketch-missing", "sketch-malformed", "verify-trials-0", "verify-trials-5",
            "tvd-trials-0", "tvd-trials-3", "promise-B-2", "promise-alpha-negative",
            "gen-n0", "gen-n-float", "kyfan-s-float", "kyfan-s0", "gap-d0", "kyfan-s-above-n",
            "lp-small-n-negative", "lp-large-n-below-t", "tvd-N-negative",
            "lp-large-eps-negative", "psd-p0-gen", "psd-p0-gap", "spike-past-int64",
            "N-past-ceiling", "gen-unknown-key", "in-missing", "in-malformed", "in-not-spec",
            "build-seed-negative", "verify-row-short", "verify-rows-equal", "verify-row-nan",
            "verify-row-text", "N-past-float64", "cs-support-past-cap", "tvd-d-above-n1",
            "tvd-d-above-n2"])
    def test_bad_input_exits_1_with_one_line(self, tmp_path, capsys, argv, why):
        cert = {"subspace": [[1.0] + [0.0] * 15], "sigma2": 4.0, "side": "high",
                "empirical_rate": 0.2, "sample_count": 100, "zeta": 0.1, "alpha": 0.5,
                "B": 8.0, "round": 1}
        (tmp_path / "cert.json").write_text(json.dumps([cert]))
        (tmp_path / "low.json").write_text(json.dumps(dict(cert, side="low")))
        (tmp_path / "short.json").write_text(json.dumps(dict(cert, subspace=[[1.0, 0.0]])))
        (tmp_path / "equal.json").write_text(json.dumps(dict(cert, subspace=cert["subspace"] * 2)))
        nan_row = [float("nan")] + [0.0] * 15
        (tmp_path / "nan.json").write_text(json.dumps(dict(cert, subspace=[nan_row])))
        (tmp_path / "text.json").write_text(json.dumps(dict(cert, subspace=[["a"] * 16])))
        (tmp_path / "garbage.json").write_text("{")
        # the sketch's tau is fit for the certificate's promise
        assert main(["sketch", "build", "--family", "sign", "--n", "16", "--r", "2",
                     "--params", '{"alpha": 0.5, "B": 8}', "--out", str(tmp_path / "sk.json")]) == 0
        capsys.readouterr()
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and why in err

    def test_verify_refuses_a_sketch_fit_for_another_promise(self, tmp_path, capsys):
        # a spec built at another alpha would answer from the wrong tau
        cert = {"subspace": [[1.0] + [0.0] * 15], "sigma2": 4.0, "side": "high",
                "empirical_rate": 0.2, "sample_count": 100, "zeta": 0.1, "alpha": 0.5,
                "B": 8.0, "round": 1}
        (tmp_path / "cert.json").write_text(json.dumps(cert))
        assert main(["sketch", "build", "--family", "sign", "--n", "16", "--r", "2",
                     "--params", '{"alpha": 1.0, "B": 8}', "--out", str(tmp_path / "sk.json")]) == 0
        capsys.readouterr()
        assert main(["attack", "verify", "--certificate", str(tmp_path / "cert.json"),
                     "--sketch", str(tmp_path / "sk.json")]) == 1
        assert capsys.readouterr().err == (
            "error: the sign sketch's tau is fit for (alpha, B) = (1.0, 8.0), "
            "not the oracle's promise (0.5, 8.0)\n")

    @pytest.mark.parametrize("via, family, params, why", [
        (via, *case) for via in ("sketch-build", "attack-run") for case in BAD_FAMILY_PARAMS
    ] + [
        # an attack block sets alpha and B itself
        ("sketch-build", "projection-threshold", {"alpha": "1", "B": 8},
         "'alpha' must be a finite number, got '1'"),
        ("sketch-build", "projection-threshold", {"alpha": 1, "B": None},
         "'B' must be a finite number, got None"),
    ] + [
        # a key the family does not read is refused, not left at its default
        (via, "sign", {"grops": 2}, "'grops' is unknown")
        for via in ("sketch-build", "attack-run")
    ])
    def test_bad_family_params_exit_1(self, tmp_path, capsys, via, family, params, why):
        # `why` reads "'<key>' <reason>". The key table refuses a value with
        # "config error at '<where>/<key>': <reason>" and an unknown key with
        # "config error at '<where>': <why>...", <where> the family, or
        # attack/family_params in a config (refused as it is read); a
        # cross-field rule with "error: <family> param <why>".
        key, reason = why[1:].split("' ", 1)
        where, prefix = ((family, "error: ") if via == "sketch-build"
                         else ("attack/family_params", ""))
        if via == "sketch-build":
            argv = ["sketch", "build", "--family", family, "--n", "64", "--r", "4",
                    "--params", json.dumps(params)]
        else:  # the attack block sets alpha and B itself
            cfg = json.loads(json.dumps(ATTACK_CFG))
            cfg["attack"].update(family=family, family_params={
                k: v for k, v in params.items() if k not in ("alpha", "B")})
            argv = ["attack", "run", "--config", write_cfg(tmp_path, cfg),
                    "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        table = (f"{prefix}config error at '{where}/{key}': {reason}\n",
                 f"{prefix}config error at '{where}': {why}")
        assert err.startswith(table) or err == f"error: {family} param {why}\n"
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, why", [
        (["normalization", "--values", "abc"], "--values token 'abc' is not a finite number"),
        (["normalization", "--values", "1,nan"], "--values token 'nan' is not a finite number"),
        (["normalization", "--values", "-1"], "sigma2 must be positive, got -1.0"),
        (["pmf-ratio", "--n", "0"], "pmf ratio needs n >= 1, got 0"),
        (["cell-lemma", "--r", "0"], "cell-lemma sketch needs 1 <= r <= n, got r=0, n=10"),
        (["cell-lemma", "--r", "3", "--n", "2"], "needs 1 <= r <= n, got r=3, n=2"),
        (["cell-lemma", "--sigma2", "-1"], "least eigenvalue must be positive, got -1.0"),
        (["chi2-mixture", "--sigma2", "-1"], "sigma2 must be positive, got -1.0"),
        (["chi2-mixture", "--trials", "1"], "needs >= 2 trials, got 1"),
        (["chi2-mixture", "--a", "nan"], "needs a finite a and sigma2, got nan, 10000.0"),
        (["chi2-mixture", "--sigma2", "inf"], "needs a finite a and sigma2, got 0.5, inf"),
        (["cell-lemma", "--sigma2", "inf"], "sigma^2 = inf above the sampling ceiling"),
        (["pmf-ratio", "--C", "nan"], "needs a finite sigma2 and C, got 10000.0, nan"),
        (["pmf-ratio", "--sigma2", "nan"], "needs a finite sigma2 and C, got nan, 2.0"),
        (["normalization", "--values", "1e10"], "sigma2 = 1e+10 above the normalization ceiling"),
        (["tvd-null", "--trials", "-3"], "need >= 1000 samples per side, got -3"),
        (["cell-lemma", "--trials", "-5"], "need >= 1000 samples per side, got -5"),
        (["pmf-ratio", "--C", "-1"], "pmf ratio needs C > 0, got -1.0"),
    ], ids=["values-abc", "values-nan", "values-negative", "pmf-n0", "cell-r0", "cell-r-above-n", "cell-sigma2-negative",
            "chi2-sigma2-negative", "chi2-trials1", "chi2-a-nan", "chi2-sigma2-inf", "cell-sigma2-inf",
            "pmf-C-nan", "pmf-sigma2-nan", "values-1e10", "tvd-trials-negative",
            "cell-trials-negative", "pmf-C-negative"])
    def test_stats_check_bad_numbers_exit_1(self, capsys, argv, why):
        assert main(["stats", "check", *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and why in err

    @pytest.mark.parametrize("only, why", [
        ("99", "unknown criterion id(s) [99]; ids run 1-14"),
        ("5,0", "unknown criterion id(s) [0]"),
        ("abc", "--only token 'abc' is not an integer"),
        ("5,", "--only token '' is not an integer"),
    ], ids=["unknown", "zero", "not-integer", "empty-token"])
    def test_suite_acceptance_only_refuses_bad_ids(self, capsys, monkeypatch, only, why):
        ran = []
        monkeypatch.setattr(acceptance, "ALL_CRITERIA",
                            [lambda fast, i=i: ran.append(i) for i in range(1, 15)])
        assert main(["suite", "acceptance", "--only", only]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and why in err
        assert ran == []

    def test_stats_check_cell_lemma_bound_follows_trials(self, capsys):
        # each path is held to its own samples' null bound, which at 2,000
        # trials lies above the old fixed 0.05
        for trials in (2000, 20_000):
            rc = main(["stats", "check", "cell-lemma", "--trials", str(trials), "--seed", "0"])
            rep = json.loads(capsys.readouterr().out)
            assert rep["false_fail_rate"] == stats.TVD_NULL_LEVEL
            for path in ("noise", "round"):
                tvd = rep[f"tvd_{path}_path"]
                assert tvd["n1"] == tvd["n2"] == trials
                assert rep[f"pass_{path}_path"] == (tvd["value"] <= tvd["null_bound"])
                if trials == 2000:
                    assert tvd["null_bound"] > 0.05
            assert rc == (0 if rep["pass"] else 2)

    @pytest.mark.parametrize("argv", [
        ["stats", "check", "pmf-ratio", "--bogus"], ["stats", "check", "bogus"],
    ], ids=["unknown-option", "unknown-check"])
    def test_usage_error_exits_1(self, capsys, argv):
        # 2 is a failed threshold, so argparse's usage exit is mapped to 1
        assert main(argv) == 1
        assert "usage:" in capsys.readouterr().err
        assert main(["stats", "check", "--help"]) == 0

    def test_suite_acceptance_subset(self):
        assert main(["suite", "acceptance", "--fast", "--only", "5,6"]) == 0

    def test_env_out_dir(self, tmp_path, monkeypatch):
        target = str(tmp_path / "env-out")
        monkeypatch.setenv("SKETCHLAB_OUT", target)
        cfg = write_cfg(tmp_path, ATTACK_CFG)
        assert main(["attack", "run", "--config", cfg]) == 0
        assert os.path.exists(os.path.join(target, "summary.csv"))


class TestImportHygiene:
    def test_cold_import_loads_no_scipy_and_no_process_pool(self):
        # the package runs on numpy and the standard library, and every
        # seeded run stays in the caller's process
        code = ("import sys, sketchlab, sketchlab.cli, sketchlab.acceptance; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
                "or m == 'concurrent.futures.process'))")
        src = os.path.dirname(os.path.dirname(sketchlab.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True, timeout=120)
        assert proc.stdout.strip() == "[]"

    def test_cold_import_loads_only_numpy_past_the_stdlib(self):
        # packages on disk that the imports add, beyond the standard library;
        # mpmath loads only where a caller needs it, and jsonschema, a test
        # oracle, never loads (test_config_check_loads_no_jsonschema)
        code = ("import sys; before = set(sys.modules); "
                "import sketchlab, sketchlab.cli, sketchlab.acceptance, sketchlab.harddist; "
                "new = {m.split('.')[0] for m in set(sys.modules) - before}; "
                "print(sorted(m for m in new if m not in sys.stdlib_module_names "
                "and getattr(sys.modules.get(m), '__file__', None)))")
        src = os.path.dirname(os.path.dirname(sketchlab.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True, timeout=120)
        assert proc.stdout.strip() == "['numpy', 'sketchlab']"


    def test_config_check_loads_no_jsonschema(self, tmp_path):
        # checking the shipped demo config and a small attack run, each in a
        # fresh interpreter, never import jsonschema
        demo = str(Path(__file__).resolve().parent.parent / "demos" / "projection_r8_n128.json")
        cfg, out = write_cfg(tmp_path, ATTACK_CFG), str(tmp_path / "o")
        code = ("import sys; from sketchlab.cli import load_config, main; "
                "load_config(sys.argv[1]); "
                "rc = main(['attack', 'run', '--config', sys.argv[2], '--out', sys.argv[3]]); "
                "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'jsonschema'), "
                "file=sys.stderr)")
        src = os.path.dirname(os.path.dirname(sketchlab.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code, demo, cfg, out], env=env,
                              capture_output=True, text=True, check=True, timeout=300)
        assert proc.stderr.strip().splitlines()[-1] == "0 []"


# every value a mutated config field takes in the cross-check against
# jsonschema: each JSON type, bounds on either side of every minimum, the
# schema's own constants, and arrays with bad items
MUTATION_VALUES = [
    None, True, False, 0, 1, -1, 2, 7, 8, 99, 100, 0.0, 0.5, 1.0, 2.5, -0.5, 8.0,
    7.5, 1e9, "", "auto", "geometric", "zeta", "sign", "projection-threshold",
    [], [0], [0, 3], [1.5], [2.0], ["a"], [None], [0, 0], [0.0, 0], [-1],
    [2**32 - 1], [2**32], {}, {"kind": "geometric"}, {"points": 1}, {"alpha": 1},
    {"B": 8.0}, 2**64,
]

# a config that sets every property of the schema
FULL_CFG = {
    "seed": 7,
    "out": "o",
    "attack": dict(ATTACK_CFG["attack"], family_params={"m_cal": 16}, round_cap=3,
                   zeta=0.25, verify=True),
}


def _mutations():
    """Each property of the schema set to each MUTATION_VALUE and removed,
    and one unknown key added at each object level."""
    def walk(schema, path):
        yield path, schema
        for key, sub in schema.get("properties", {}).items():
            yield from walk(sub, (*path, key))

    def at(path, edit):
        cfg = json.loads(json.dumps(FULL_CFG))
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        edit(parent, path[-1])
        return cfg

    for path, schema in walk(SCHEMA, ()):
        if path:
            for value in MUTATION_VALUES:
                yield at(path, lambda obj, key, value=value: obj.__setitem__(key, value))
            yield at(path, lambda obj, key: obj.pop(key))
        if schema.get("type") == "object":
            yield at((*path, "unknown"), lambda obj, key: obj.__setitem__(key, 1))


def _error_path(tmp_path, capsys, cfg):
    """load_config's error path for `cfg` as a list of keys, None when it
    accepts the config."""
    path = write_cfg(tmp_path, cfg)
    try:
        load_config(path)
    except SystemExit:
        err = capsys.readouterr().err
        assert err.startswith("config error at '") and err.count("\n") == 1, err
        where = err.split("'")[1]
        return [] if where == "<root>" else where.split("/")
    return None


class TestConfigCheck:
    def test_agrees_with_jsonschema(self, tmp_path, capsys):
        # load_config against jsonschema's best match on the test-side
        # schema, on accept/reject and the error path, over single-field
        # mutations
        from jsonschema.exceptions import best_match
        from jsonschema.validators import validator_for

        oracle = validator_for(SCHEMA)(SCHEMA)
        cases = list(_mutations())
        rejected, wrong = 0, []
        for cfg in cases:
            ours = _error_path(tmp_path, capsys, cfg)
            theirs = best_match(oracle.iter_errors(cfg))
            rejected += theirs is not None
            if ours != (None if theirs is None else list(map(str, theirs.absolute_path))):
                wrong.append((cfg, ours, theirs and theirs.message))
        assert _error_path(tmp_path, capsys, FULL_CFG) is None
        assert wrong == []
        assert len(cases) > 500 and 0 < rejected < len(cases)


class TestShippedExampleConfig:
    def test_schema_passes_its_metaschema(self):
        # the oracle that test_agrees_with_jsonschema reads is itself a
        # valid draft 2020-12 schema
        from jsonschema.validators import validator_for

        assert SCHEMA["$schema"] == "https://json-schema.org/draft/2020-12/schema"
        validator_for(SCHEMA).check_schema(SCHEMA)

    def test_example_config_validates(self):
        cfg = load_config("demos/projection_r8_n128.json")
        assert cfg["attack"]["n"] == 128 and len(cfg["attack"]["seeds"]) == 10
