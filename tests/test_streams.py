"""Stream guard: SHA-256 digests of fixed-seed draws from every sampler path,
of a small attack transcript, and of the exact integer layer's outputs
(batch products in each tier, a turnstile value past int64, the n = 256
kernel bases and auto alpha, auto alpha of each family's probe sketch), of
seeded set-up constants (the cs support family and the median-estimator
corrections), of each sketch family's GapNorm oracle bits, of every hard
family's instances and calibration, of `harddist gen`'s output, and of the
benchmark's sketched TVD values.

A fixed seed must give the same bits. A change that moves one of these
digests changes a random stream or an exact result; if that is deliberate,
update the digest here and record in CHANGES.md which output changed and why.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from sketchlab import dgauss
from sketchlab.acceptance import auto_alpha
from sketchlab.attack import AttackConfig, run_attack
from sketchlab.cli import main
from sketchlab.harddist import (FAMILY_NAMES, HardFamily, calibrate_family, gen_hard_instance,
                                planted_spike, sketched_indistinguishability, support_family)
from sketchlab.lattice import integer_kernel_basis, pairwise_reduced_kernel
from sketchlab.numerics import OrthonormalBasis
from sketchlab.rng import derive
from sketchlab.sketch import GapNormOracle, GapNormParams, IntegerSketch, build_sketch


def digest(x):
    return hashlib.sha256(np.ascontiguousarray(x, dtype="<i8").tobytes()).hexdigest()


def json_digest(obj):
    """Digest of a JSON-able value; Python integers of any size hash exactly."""
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


DGAUSS_1D = {
    24.65: "fc8dfdbf2750a80a304ff05a7e3b320628777142f5418264777aee233ffc3886",
    1e4: "330ac1aa12413728f1b201bcd5a57e8459c4bd1792c1bbc7b4996aa544148033",
    1e8: "7bd0124c9ed8d305ec7eb2c811917a0567ea10bb796854e5cb33e6e04a4eea36",
}
# keyed by dim V
SUBSPACE_QUERY = {
    0: "a21a1c7e692959c59a48404cb3127a1d5c43a169f288f09ea407044cc0225e38",
    4: "fc13cf0c1ee3100d2ade96240157a514f2482c95e54111b852c2c50ee2f85daa",
}


@pytest.mark.parametrize("s2", DGAUSS_1D)
def test_dgauss_1d(s2):
    x = dgauss.sample_dgauss_1d(s2, derive(14, "streams", "1d", str(s2)), size=4096)
    assert digest(x) == DGAUSS_1D[s2]


@pytest.mark.parametrize("k", SUBSPACE_QUERY)
def test_subspace_query(k):
    n = 128
    basis = np.linalg.qr(np.random.default_rng(14).standard_normal((n, 4)))[0].T
    V = OrthonormalBasis(n, list(basis[:k])) if k else OrthonormalBasis.empty(n)
    spec = dgauss.SubspaceGaussianSpec(n, V, 8.0 * dgauss.smoothing_sigma2(n, 4))
    X = dgauss.sample_subspace_query(spec, "discrete",
                                     derive(14, "streams", "subspace", str(k)), size=64)
    assert digest(X) == SUBSPACE_QUERY[k]


def test_attack_transcript():
    # certifies in round 3 after learning two directions, so the transcript
    # covers both the empty-subspace and the V != empty draws
    n, params = 32, GapNormParams(B=8.0, alpha=800.0)
    sk = build_sketch("projection-threshold", n, 4, {"alpha": 800.0, "B": 8.0}, seed=13)
    out = run_attack(GapNormOracle(sk, params), n, 4,
                     AttackConfig(gap=params, m=200, grid_points=8),
                     derive(14, "streams", "attack"))
    assert (out.outcome, out.state.t, len(out.state.V)) == ("certificate", 3, 2)
    text = json.dumps(out.state.transcript, sort_keys=True)
    assert (hashlib.sha256(text.encode()).hexdigest()
            == "495d51996ddcb7ce293c4fc737030d431c5a6223f3a6846ea0fa25812ad9caf1")


# keyed by the tier of n max|A| max|x|: below 2^53, below 2^62, past 2^62
APPLY_BATCH = {
    "float64": ("int64", 0, 2**53,
                "2f33d4fedc9fd313e94495697aa6a63874cc1c5838f541d4b89070a7a5b016ed"),
    "int64": ("int64", 2**53, 2**62,
              "6c3c944a67d003a54c27c1bd542cc3ad403785fb5f53a9acad5a69ba398e587f"),
    "python": ("object", 2**62, 2**80,
               "f7fbd903ea5d9f292ecab53ace2b1d531e9edfcc48851a3fe8c1ab1c1a2fbaae"),
}


@pytest.mark.parametrize("tier", APPLY_BATCH)
def test_apply_batch_tiers(tier):
    dtype, lo, hi, want = APPLY_BATCH[tier]
    sk = build_sketch("rounded-gaussian", 64, 8, seed=16)
    nM = sk.n * sk.A.max_abs_entry()
    X = derive(14, "streams", "apply", tier).integers(-50, 51, size=(32, 64)).astype(object)
    X[0, 0] = 50
    X *= max(1, lo // (50 * nM) + 1)
    assert lo <= nM * max(abs(x) for x in X.flat) < hi
    Y = sk.apply_batch(X)
    assert Y.dtype == np.dtype(dtype)
    assert json_digest(Y.tolist()) == want


def test_turnstile_value_past_int64():
    sk = IntegerSketch.from_matrix([[1] * 16, [1, -1] * 8, list(range(16))])
    st = sk.new_stream()
    rng = derive(14, "streams", "turnstile")
    for _ in range(8):
        st.ingest_updates(rng.integers(0, 16, size=12), rng.integers(2**59, 2**61, size=12))
    st.update(5, -2**62)
    value = [int(v) for v in st.value]
    assert max(map(abs, value)) >= 2**63 and st.update_count == 97
    assert (json_digest(value)
            == "4f3c8cd42e733ad9d0c998dee869cdd636f4ad810846f9fd195cf4d4315decbe")


def test_n256_kernels_and_auto_alpha():
    # the probe sketch `acceptance.attack_setup` hands auto_alpha for the
    # n = 256 projection-threshold config of the attack-cli-n256 benchmark
    sk = build_sketch("projection-threshold", 256, 8,
                      {"alpha": 1.0, "B": 8.0, "m_cal": 16}, seed=1)
    M = sk.A.max_abs_entry()
    kernel = integer_kernel_basis(sk.A)
    reduced = pairwise_reduced_kernel(sk.A, min(dgauss.SAMPLING_FLOOR_ELL_SQ, 256 * M * M + 1))
    assert reduced is not None
    got = {
        "kernel": json_digest([kernel.vectors, kernel.certified_max_len]),
        "pairwise": json_digest([reduced.vectors, reduced.certified_max_len]),
        "auto_alpha": json_digest(auto_alpha(sk)),
    }
    assert got == {
        "kernel": "5783ee82539eb0464984e167b900ddcfb0752c85411406a202b29a335b46215f",
        "pairwise": "b8a997c3394b90ad1253eb2b6961fc740233e5ca3fa201a872ba9fed576521f9",
        "auto_alpha": "e13797c47fe3329bc4425d4c331ccc3e975b2f34bf3972d413cfbbf1a14e0c6b",
    }


# auto_alpha of each family's probe sketch (r = 8, seed 0, as
# test_lattice.family_sketch builds it) at n = 64 and 128; rounded-gaussian
# reads 231.74 and 246.51, through LLL
AUTO_ALPHA = {
    ("projection-threshold", 64): "7ea1c3cf2fc2d7e4586970fbcf5ab36a822b1261f147c00ea6c3e42d3fe7b195",
    ("projection-threshold", 128): "87de5a88c506b1dfbdaf0d13c3a3f2905ff257958d03c08a5c85346a0a3544db",
    ("sign", 64): "1518d652bcc602df9a7b4647b1a3b59ccebfcae6c4e99636622158bcbddf0b48",
    ("sign", 128): "6ae70f847e4f52322854c5612b78ccb8823040d9d594a60a9867933284713f39",
    ("countsketch", 64): "cf9fe42db723330d91895a84b0633c6ba0eb157b9755164ae6878d64c831f2ff",
    ("countsketch", 128): "27bb37d9646f460d23efb425ccc9ab7ce16ddf2aad5f686180ed334cce7da5f9",
    ("rounded-gaussian", 64): "bc1442f36e900d93da5ce4d9deaed0fb398ce456d6978eac4992acb51dfdf6c3",
    ("rounded-gaussian", 128): "cc6f0c4f5652667045d80e1931ef145284b11dfcfd7646a11ad1745d81d21c1f",
}


@pytest.mark.parametrize("family, n", AUTO_ALPHA)
def test_auto_alpha(family, n):
    params = {"alpha": 1.0, "B": 8.0, "m_cal": 16} if family == "projection-threshold" else {}
    sk = build_sketch(family, n, 8, params, seed=0)
    assert json_digest(auto_alpha(sk)) == AUTO_ALPHA[family, n]


# GapNormOracle bits of each family's sketch (r = 8, seed n, alpha = 200,
# B = 8, tau fit for that promise) on 4,000 queries whose squared norms run
# from alpha/2 to 2 alpha B, across the promise gap and tau
ORACLE_BITS = {
    ("sign", 64): "e0f202a9973c6aad60adb117a319add83e177a5f71cf243620af7c2d3714ff98",
    ("sign", 128): "b0ed687ed8fe6902326f5e1d3f9eda7d57bd744e96933adbb762ffa326843dd7",
    ("sign", 256): "bc46a28cb84417a19d5a0f55f65dabe0d4f173e4eb618c84eca225fabc259b13",
    ("rounded-gaussian", 64): "53dbe88630fbe51b3b753f12fb8c6518f797d83e3a0005ced13b076f92e243bb",
    ("rounded-gaussian", 128): "6dc211db7373adfd4cf9c2f2a26bce02b314e7440ab8eb80b3b5e78b5c01f247",
    ("rounded-gaussian", 256): "38fd03c6200784988dd8db9e6cba647f93e077ebb9cef6666249af3b310f0ad3",
    ("countsketch", 64): "e93694d02bb0db8c51aea682fae9f2f8ae4e617fd379becf880e14005aa53b7a",
    ("countsketch", 128): "d9c8a2b559e6b89feec740708b98ebb78c1d9bb40c31e2bad6f454e7ec6cdb1c",
    ("countsketch", 256): "398c2a61579f69a6296ef6e9e2a1d86a0fe6f9f824b7185f00203be0279480d3",
    ("projection-threshold", 64): "93ccddb2f503f64c69e84c445feb06df5d32f0746b3ff872acd35ff4bc51f617",
    ("projection-threshold", 128): "594bbbbce7faa4c110e5a7f13d9f754bf8a21ef8a9de90e5f846a995b8968cb0",
    ("projection-threshold", 256): "1d0ef565040e30f5abc5c2c22d89d1f3ab8fec478547f15c9d90c2de0debce46",
}


def straddling_batch(family, n, alpha, B, size=4000):
    """Integer queries whose squared norms run geometrically from alpha/2 to
    2 alpha B, so their oracle bits cross both the promise gap and tau."""
    gen = derive(n, "solve-bits", family)
    scale = np.sqrt(np.geomspace(alpha / 2.0, 2.0 * alpha * B, size))
    return np.rint(gen.standard_normal((size, n)) * scale[:, None]).astype(np.int64)


@pytest.mark.parametrize("family, n", ORACLE_BITS)
def test_oracle_bits(family, n):
    alpha, B = 200.0, 8.0
    sk = build_sketch(family, n, 8, {"alpha": alpha, "B": B}, seed=n)
    bits = GapNormOracle(sk, GapNormParams(B=B, alpha=alpha)).query_batch(
        straddling_batch(family, n, alpha, B))
    assert digest(bits) == ORACLE_BITS[family, n]


def test_support_family():
    fam_sets = support_family(256, 8, 1024)
    assert (json_digest(fam_sets)
            == "9e146260f239892d54a318af4541ad723f6a44b6bd6adb07bb8376b016cca4fc")


# keyed by (family, r): sign's groups and countsketch's blocks at n = 128
MEDIAN_CORRECTION = {
    ("sign", 8): "f4a2c3b6332eeca5b2f1a5d01cfef70fbbb95f6c4d48e8c58e4c0890f1606ad3",
    ("sign", 64): "00fe90c3b368480053351d93ceb54c0d29c6b0d25082ca6dec2d925e4d3e09d5",
    ("countsketch", 8): "d0ff5974b6aa52cf562bea5921840c032a860a91a3512f7fe8f768f6bbe005f6",
    ("countsketch", 64): "0a82c2d25c0c73efea6437fd7a040815237e2748b983813a545d23ed4e402dcd",
}


@pytest.mark.parametrize("family, r", MEDIAN_CORRECTION)
def test_median_correction(family, r):
    sk = build_sketch(family, 128, r, seed=17)
    assert json_digest(sk.estimator["median_correction"]) == MEDIAN_CORRECTION[family, r]


# gen_hard_instance at each family's defaults, keyed by (family, side): the
# digest of [payload shape, payload digest, witness as JSON]
HARD_INSTANCE = {
    ("lp-small", "D1"): "a7731384c854b38d17f2d5d650c12b4bf3ef1887634327794ba200af1eb280b1",
    ("lp-small", "D2"): "59f0443f9fa700cfb1a3951663b91436989e155b8dd0606f7255bd9e30f90fee",
    ("lp-large", "D1"): "d0c5e28a1f4bc420754c84d7a4b8fddb12726192815bbecc51046e43a94a25b0",
    ("lp-large", "D2"): "c22aefb176688a417b735d2701b385e863a516ed4f38a57eb4a4343441fe5c2b",
    ("opnorm-alpha", "D1"): "aed83127934404d355857c3484fbb91ed194188ab521c32762b96f4262fba9ce",
    ("opnorm-alpha", "D2"): "0567c781ad99e02d3c9a49b3109954b574c2855a62c856bba651add6b54d8e31",
    ("opnorm-eps", "D1"): "b863567b4ce1a566161dc8850c11a8b0f8b231893d270b81430853db397385eb",
    ("opnorm-eps", "D2"): "84b9ccac6c516e542ebfcf39bbd515dd12c832c6d5ad78412e28531cf9eebb45",
    ("kyfan", "D1"): "f85eb2853a8d3af27fb3f46a304f38237ac6a6e9d1ac55d29a20160d41bdfaae",
    ("kyfan", "D2"): "da386953532305ff95ec88dfac3f095f03cd6ef37260da56505097cd670bc30f",
    ("eigen", "D1"): "135d2ca128bebbba3e8e86bb4c7bf0a8d556b0ae698c70e1cab657d888c025db",
    ("eigen", "D2"): "640d5eeded302a032e39c1aaf8896edc69f6ea347d74f91fc30b67fe6653db92",
    ("psd", "D1"): "345e08552ac6ad0625b127105b0559219d2a222fa9ef3761f24a66acafb128a5",
    ("psd", "D2"): "eda4a9c778359257e7137efde92f0cc6cd82dd74b33c4c3692d7d2ca4f2c2842",
    ("cs", "D1"): "c541b0779cf85866a8c1a04219734132afd4afa30ad0e88fdc95dbc1b84cdfdf",
    ("cs", "D2"): "75f0e3c7143a77511714db4bc0a5e5341b32588e7a6902d17d82d72579504f65",
}


# each digest covers the witness with a D2 matrix instance's spike appended
# last, so the pins fix the spike as well as its factors
@pytest.mark.parametrize("family, side", HARD_INSTANCE)
def test_hard_instance(family, side):
    inst = gen_hard_instance(HardFamily(family), side, derive(14, "streams", "hard", family, side))
    witness = dict(inst.witness)
    if "u" in witness:
        witness["spike"] = planted_spike(witness)
    witness = {k: (v.tolist() if isinstance(v, np.ndarray) else v)
               for k, v in witness.items()}
    got = json_digest([list(inst.payload.shape), digest(inst.payload), witness])
    assert got == HARD_INSTANCE[family, side]


# calibrate_family at each family's defaults: the digest of [thresholds,
# filled params] as JSON, so every value and the key order of both count
CALIBRATION = {
    "lp-small": "9bbfc816858d2008305e6eac377c2420ba1c9b7830aaff5731eb53328e3f0cda",
    "lp-large": "dac585f93b6a38e5e1b3c4ac48bc2812029244071d84d8b03b26d30e7d93b0ff",
    "opnorm-alpha": "80ad1e6900b9ee769e63f44185f6e92da5b90af90400e006b31408d870b81b60",
    "opnorm-eps": "d9d8df31a7ff06470e5f4106cc82ead7f4184c32a733b6c423df5fe67c00d08f",
    "kyfan": "5d206bc7fd4b2936b557cea7a5cdfddff431b62ef9ac7f0312a3c43555f8aefe",
    "eigen": "2d22087adf3eb6f655535813f3634b940091156e6f3844579a33b77313d926ca",
    "psd": "066ad85544b20f7d784c92951db5ebfcedffb436774fbce0cf097369a4cf9a43",
    "cs": "f88d9cf208677989a6dbc5bfe8edd2bab7ce6bf2d3824c4d362c6606da1cf775",
}


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_calibration(family):
    fam = HardFamily(family)
    thresholds = calibrate_family(fam)
    assert json_digest([thresholds, fam.params]) == CALIBRATION[family]


# the harddist benchmark's opnorm-alpha TVD (n = 32, 10,000 trials per side)
# at seed 1, keyed by its spike label and scale
SKETCHED_TVD = {("small", 0.1): 0.02380000000000001, ("large", 40.0): 0.7124999999999999}


@pytest.mark.parametrize("label, spike", SKETCHED_TVD)
def test_sketched_tvd(label, spike):
    fam = HardFamily("opnorm-alpha", {"n": 32, "alpha": 2.0, "s1": spike / math.sqrt(32)})
    rep = sketched_indistinguishability(fam, d=1, trials=10_000,
                                        rng=derive(1, "bench-tvd", label))
    assert rep["tvd"]["value"] == SKETCHED_TVD[label, spike]


# `harddist gen --seed 7` (side D2) for each matrix family at its defaults,
# keyed by (family, --count): the sha256 of the --out file and of stdout
HARDDIST_GEN = {
    ("opnorm-alpha", 1): ("1a3a31ab4e99b8784d865359c68b264255561b4156688ac1982f8d63a6eb4e11",
                          "e5d37bb8983b159f031d48f574f9a8cb418a7c6332d49486097a1a595fcda75a"),
    ("opnorm-alpha", 3): ("9befa05c4cecc06e86bc77a6ebc235edfa96dc369c9e116a5f3e363f02afead6",
                          "46c05f1a2e3d60190726f31bfc703d5f2b8c98939abb10f1252c1f482ea04822"),
    ("opnorm-eps", 1): ("f330dfe7b1291eb5dabae5fa4c4952a0bfc63fd4acd2d34ffcd1e2045913b98a",
                        "53174a52b0d20e17af9ffef7485be467fcc48215fc2e572e73f5c4928587e875"),
    ("opnorm-eps", 3): ("24aa1e84289a2520a6e0cf292dca564324045c5e5584252760c07ebf214a08b9",
                        "27d1ab598f8b0a3a7f9622dbc068604a4a06de8cd2679d9b4df5a1a7ef63e4c4"),
    ("kyfan", 1): ("32278e361f3db41a98cef3c8cdd0c6dddc8ada641577c3c49734beaa305a61cb",
                   "d4106c99208c54da8c6208f0bfd371d60ac8c4bba5272351ef63614a4c07cf74"),
    ("kyfan", 3): ("4465e20214db4fcf1d7c42361a5f323f01864722d84bf6eb857fa1028f60fb96",
                   "b976e42877ce0d4f3128049a32b5e0093b558531584681f6fbec1ae40464ee2d"),
    ("eigen", 1): ("8545815ddfcf9f10f9e56d902ff3437fc7b3569d60767ef9a5451e2682e1a181",
                   "4ce5666f65eeacdd56cda12c414d673db114a0345bb787ef9827db44c5f4a619"),
    ("eigen", 3): ("f3ce03a4f92b6fdd2a78e274258c21bdf8cd8040efdf32585363433668cfcf4a",
                   "5906b186e1ccad3011f8893f4f60f4cb9b9f87e7075fa8a2cb9224d8d6be8aa5"),
    ("psd", 1): ("f57a57716f57a72b2bd9e629aad21ee0a501159ffb8f691920d4e1612c3dac8f",
                 "ab99724c7179240da5b1108cbb82c89b652d400d05bf9380c36721c501327430"),
    ("psd", 3): ("64e791e490042f4ac03efa8dfdcd1d142f14f14f5201a43c911bd3089cdaff3e",
                 "38ac493b47d3b6172b68c6ac7f8c6dcd62637f1b1afeb17ac3d2f9fbe44e23d1"),
}


@pytest.mark.parametrize("family, count", HARDDIST_GEN)
def test_harddist_gen(family, count, tmp_path, capsys):
    argv = ["harddist", "gen", "--family", family, "--count", str(count), "--seed", "7"]
    out = tmp_path / "gen.json"
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    printed = capsys.readouterr().out
    got = tuple(hashlib.sha256(b).hexdigest() for b in (out.read_bytes(), printed.encode()))
    assert got == HARDDIST_GEN[family, count]
