import json
import os
from pathlib import Path

import numpy as np
import pytest

from sketchlab import acceptance, dgauss, harddist
from sketchlab.cli import load_config, main
from sketchlab.rng import derive


def read_json(*path):
    return json.loads(Path(*path).read_text())


def write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


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


class TestAttackRun:
    def test_artifacts_and_replayability(self, tmp_path):
        cfg = write_cfg(tmp_path, ATTACK_CFG)
        out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
        assert main(["attack", "run", "--config", cfg, "--out", out1]) == 0
        assert main(["attack", "run", "--config", cfg, "--out", out2]) == 0
        for f in ("transcript.jsonl", "summary.csv", "certificate.json",
                  "exploits.json", "report.json"):
            assert os.path.exists(os.path.join(out1, f))
        a = Path(out1, "summary.csv").read_bytes()
        b = Path(out2, "summary.csv").read_bytes()
        assert a == b  # byte-identical replay
        header = a.decode().splitlines()[0]
        assert header == "run_id,seed,round,sigma2,rate,m_prime,score,accepted"
        report = read_json(out1, "report.json")
        assert report["alpha"] == max(report["alpha_floor"], report["alpha_lattice_term"])
        assert report["alpha_binds"] in ("floor", "lattice")

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
        import sketchlab.cli as cli_mod
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
        assert all(len(e["exploits"]) <= cli_mod.EXPLOITS_WRITTEN for e in exploits)
        report = read_json(out, "report.json")
        assert report["verified"] == sum(1 for e in exploits if e["exploits"])

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
        ("grid", {"kind": "zeta", "points": 6}, "attack/grid/kind", "'geometric' was expected"),
        ("slack_mode", "absolute", "attack", "'slack_mode' was unexpected"),
    ], ids=["zeta-grid", "slack-mode"])
    def test_removed_attack_keys_rejected(self, tmp_path, capsys, key, value, path, why):
        bad = json.loads(json.dumps(ATTACK_CFG))
        bad["attack"][key] = value
        cfg = write_cfg(tmp_path, bad, "bad.json")
        rc = main(["attack", "run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"config error at '{path}': " in err and why in err

    def test_missing_field_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, {"attack": {"n": 64}}, "m.json")
        assert main(["attack", "run", "--config", cfg]) == 1

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
        ("sign", "auto", 1),
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
        fam_params = {"alpha": params.alpha, "B": 8.0} if family == "projection-threshold" else None
        direct = real_build(family, 64, 4, fam_params, seed=7)
        assert np.array_equal(sk.A.entries, direct.A.entries)
        assert sk.estimator.get("tau") == direct.estimator.get("tau")

    def test_criteria_attack_block_validates(self, tmp_path):
        path = write_cfg(tmp_path, {"seed": 0, "attack": acceptance.ATTACK})
        assert load_config(path)["attack"] == acceptance.ATTACK


class TestOtherCommands:
    def test_stats_check_pmf_ratio(self):
        rc = main(["stats", "check", "pmf-ratio", "--n", "10", "--C", "2",
                   "--sigma2", "10000"])
        assert rc == 0

    def test_stats_check_normalization(self):
        assert main(["stats", "check", "normalization"]) == 0

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

    def test_harddist_tvd(self):
        assert main(["harddist", "tvd", "--family", "opnorm-alpha",
                     "--params", '{"n": 16, "s1": 0.0}', "--d", "1",
                     "--trials", "3000"]) == 0

    def test_suite_acceptance_subset(self):
        assert main(["suite", "acceptance", "--fast", "--only", "5,6"]) == 0

    def test_env_out_dir(self, tmp_path, monkeypatch):
        target = str(tmp_path / "env-out")
        monkeypatch.setenv("SKETCHLAB_OUT", target)
        cfg = write_cfg(tmp_path, ATTACK_CFG)
        assert main(["attack", "run", "--config", cfg]) == 0
        assert os.path.exists(os.path.join(target, "summary.csv"))


class TestShippedExampleConfig:
    def test_example_config_validates(self):
        cfg = load_config("demos/projection_r8_n128.json")
        assert cfg["attack"]["n"] == 128 and len(cfg["attack"]["seeds"]) == 10
