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
from sketchlab.lattice import integer_kernel_basis
from sketchlab.numerics import OrthonormalBasis
from sketchlab.rng import derive
from sketchlab.sketch import GapNormOracle, GapNormParams, IntegerSketch, build_sketch


def digest(x):
    return hashlib.sha256(np.ascontiguousarray(x, dtype="<i8").tobytes()).hexdigest()


def json_digest(obj):
    """Digest of a JSON-able value; Python integers of any size hash exactly."""
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


# 0.5 is summed directly in the partition function, 1e12 is the lp
# families' N^2 and 1e15 lies just under the ceiling MAX_SIGMA2
DGAUSS_1D = {
    0.5: "09de569ba71fff02c5f88035d09768a5796097c9d4204d36e9baa9fe51f35713",
    24.65: "b7aeb4207ed93844239954818e45d5ecc73222219bfb0ae8ea5dd12987490934",
    1e4: "f3c704e891c8a0a1aa62b800853585c8cc81c1572de5c10427e1bd68bc065924",
    1e8: "d75cd1bc5ec8d71aa402d43ea0c64d380a85fc45bd4dccf338ad1daf4f844402",
    1e12: "698e4da7abcfef3b8983dd127dc53b0e2c5ec58b5d776e6a921108aa11a0c138",
    1e15: "9918072701459b6cdb772ca4310eb7145f48845a7b9e1cad3af41d4c0a419edb",
}
# keyed by dim V, at the sampling floor 8 r0^2 (n = 128), which a query with
# V != {} rounds at 2 r0^2
SUBSPACE_QUERY = {
    0: "45f72047744b8fd5c8b24fd9799ececd1c5ff5cc50a56b728e45522bd9a0fc67",
    4: "9e687c2f971538fd84341160f957bd7367fd7b823e1e1f9dd5ab9d46be598391",
}
# dim V = 4 at 32 r0^2, auto alpha at n = 128 and the low end of the
# attack's grid: it rounds at 8 r0^2
SUBSPACE_QUERY_AT_ALPHA = "4912b2dc0d340c3950b46769f5e5b30c30362e26139ba8cdb066ff76125e00b9"


@pytest.mark.parametrize("s2", DGAUSS_1D)
def test_dgauss_1d(s2):
    x = dgauss.sample_dgauss_1d(s2, derive(14, "streams", "1d", str(s2)), size=4096)
    assert digest(x) == DGAUSS_1D[s2]


def subspace_digest(k, r0_units):
    """Digest of 64 draws at n = 128 with dim V = k, at sigma^2 = r0_units r0^2."""
    n = 128
    basis = np.linalg.qr(np.random.default_rng(14).standard_normal((n, 4)))[0].T
    V = OrthonormalBasis(n, list(basis[:k])) if k else OrthonormalBasis.empty(n)
    spec = dgauss.SubspaceGaussianSpec(n, V, r0_units * dgauss.smoothing_sigma2(n, 4))
    return digest(dgauss.sample_subspace_query(spec, "discrete",
                                               derive(14, "streams", "subspace", str(k)), size=64))


@pytest.mark.parametrize("k", SUBSPACE_QUERY)
def test_subspace_query(k):
    assert subspace_digest(k, 8.0) == SUBSPACE_QUERY[k]


def test_subspace_query_at_auto_alpha():
    assert subspace_digest(4, 32.0) == SUBSPACE_QUERY_AT_ALPHA


def test_attack_transcript():
    # certifies in round 2 after learning one direction, so the transcript
    # covers both the empty-subspace and the V != empty draws
    n, params = 32, GapNormParams(B=8.0, alpha=800.0)
    sk = build_sketch("projection-threshold", n, 4, {"alpha": 800.0, "B": 8.0}, seed=13)
    out = run_attack(GapNormOracle(sk, params), n, 4,
                     AttackConfig(gap=params, m=200, grid_points=8),
                     derive(14, "streams", "attack"))
    assert (out.outcome, out.state.t, len(out.state.V)) == ("certificate", 2, 1)
    text = json.dumps(out.state.transcript, sort_keys=True)
    assert (hashlib.sha256(text.encode()).hexdigest()
            == "146abb4b4e3f91973df89fc1a488b1eb74a3a8978c811af7ad03c17a4fe6a5a4")


# keyed by the tier of n max|A| max|x|: below 2^53, below 2^62, past 2^62
APPLY_BATCH = {
    "float64": ("int64", 0, 2**53,
                "50bf60e4e410a5d01ae6fff2b4e49a2ff04f56cc90efddd81916c06e9e1139e8"),
    "int64": ("int64", 2**53, 2**62,
              "55714bbc31710240e5916f7fca7d9dd1bc340a068f6165cbf11eabd9ecac826a"),
    "python": ("object", 2**62, 2**80,
               "720d9d391fc3b8ce7a488df93036025c11f7b81b45197ca8e6010b7d92c1cec5"),
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
            == "e3811879c7849ebd8db6f0f45eefc0363dd10a4645e7a928e2eff902cfab8105")


def alpha_at_length(sk):
    """auto_alpha's alpha beside the length sqrt(n) M it is the smoothing
    variance of."""
    return [auto_alpha(sk)[0], math.sqrt(sk.n) * sk.A.max_abs_entry()]


def test_n256_kernels_and_auto_alpha():
    # the probe sketch `acceptance.attack_setup` hands auto_alpha for the
    # n = 256 projection-threshold config of the attack-cli-n256 benchmark;
    # auto_alpha reads only n and M = 1: 1634.13 at ell = 16
    sk = build_sketch("projection-threshold", 256, 8,
                      {"alpha": 1.0, "B": 8.0, "m_cal": 16}, seed=1)
    kernel = integer_kernel_basis(sk.A)
    got = {
        "kernel": json_digest([kernel.vectors, kernel.certified_max_len]),
        "auto_alpha": json_digest(alpha_at_length(sk)),
    }
    assert got == {
        "kernel": "639a9b8d87f0abe44742f71cb46dd23dc6e7373439f21a0fe5961765d6bfb07d",
        "auto_alpha": "93fe4945805a48a90e2d0493fff890fbd596ac6d9a468e0f38f06c5f5053511a",
    }


# alpha_at_length of each family's probe sketch (r = 8, seed 0, as
# test_lattice.family_sketch builds it) at n = 64 and 128: 380.29 and 788.83
# for the +-1 families (M = 1); rounded-gaussian reads 257,077.4 (M = 26)
# and 1,139,063.9 (M = 38)
AUTO_ALPHA = {
    ("projection-threshold", 64): "606047a7bdfd146e22533c5eed41b01cacf4b31c1e6f15fc7c4f278c1c763af7",
    ("projection-threshold", 128): "064c4bb825a17a0b86bab5e80139bb5046a09c147c623956ed14a0198e620883",
    ("sign", 64): "606047a7bdfd146e22533c5eed41b01cacf4b31c1e6f15fc7c4f278c1c763af7",
    ("sign", 128): "064c4bb825a17a0b86bab5e80139bb5046a09c147c623956ed14a0198e620883",
    ("countsketch", 64): "606047a7bdfd146e22533c5eed41b01cacf4b31c1e6f15fc7c4f278c1c763af7",
    ("countsketch", 128): "064c4bb825a17a0b86bab5e80139bb5046a09c147c623956ed14a0198e620883",
    ("rounded-gaussian", 64): "8e6e997253bdcd7518716fc74242b94328404c9a012872666b79770745ad7ba0",
    ("rounded-gaussian", 128): "2d6a1fb06f71d051a9cee0f52842d2740de5aa1210facd6666c985056a9a9d13",
}


@pytest.mark.parametrize("family, n", AUTO_ALPHA)
def test_auto_alpha(family, n):
    params = {"alpha": 1.0, "B": 8.0, "m_cal": 16} if family == "projection-threshold" else {}
    sk = build_sketch(family, n, 8, params, seed=0)
    assert json_digest(alpha_at_length(sk)) == AUTO_ALPHA[family, n]


# GapNormOracle bits of each family's sketch (r = 8, seed n, alpha = 200,
# B = 8, tau fit for that promise) on 4,000 queries whose squared norms run
# from alpha/2 to 2 alpha B, across the promise gap and tau
ORACLE_BITS = {
    ("sign", 64): "4fa92740ba86eccb23435bb70e91ac9de057843d1dd8bc3a5de87bfe7551ac61",
    ("sign", 128): "e08c3bb8164a13507d22e8db095a3df945489c082b8b1de9e17f48c8cc91d54c",
    ("sign", 256): "f3f80ade8d57bef330e20982bc522648131e1d69dd4ed6866f6d6b038c0cb821",
    ("rounded-gaussian", 64): "c1a439015a2e157240b34a7da5ee7789e6e256f87b9d6135804dac7143173563",
    ("rounded-gaussian", 128): "5e30c6971e6d897507d86fa0a9cfcfabe0fa5d279105768a247dc41f2563885d",
    ("rounded-gaussian", 256): "51ddad12297e3cfa3714cb5409aa170be70c0fd1802aa64e7f435b74c34efbaf",
    ("countsketch", 64): "d25a833579126fe9b30ff7f0e8b7aa08a4fd47662499af6a3fdf0b2d1595326f",
    ("countsketch", 128): "a7c3ec0cc87f4ba519c8b518ce23df01061e54df783521670f00363de157586d",
    ("countsketch", 256): "6e201e15c2b6477744470bce4c2d78d61288facd3d1696a73669cebe2f84bf04",
    ("projection-threshold", 64): "40742156af53f701a3555c86e0628a9cac615d2176cfaf4c5f2a8a60ed91b21f",
    ("projection-threshold", 128): "ad7118694907521ff17825bb4efe827855787f03bf328348a1301959cff625e3",
    ("projection-threshold", 256): "80bdf3c0deb20f08ccf606f4482c8ffa7ee7a98e9b0824f3cdd5917516204dc8",
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
            == "d0281d60367c94e24de8839818f2b2bf2bd8a7b806e046d820ac03cb1c93f711")


# keyed by (family, r): sign's groups and countsketch's blocks at n = 128
MEDIAN_CORRECTION = {
    ("sign", 8): "6a2734b5f0b886de1671123475e2f6966b4467fd5c3e8cfe4abccd5ed61f9b77",
    ("sign", 64): "9b26ce426440281dda6306b3d9cc025bc2fdda09071cb3326d31e1ec88583754",
    ("countsketch", 8): "d0ff5974b6aa52cf562bea5921840c032a860a91a3512f7fe8f768f6bbe005f6",
    ("countsketch", 64): "1f20fe5bcd8bf441f19bed3ba8352c96ac2b1cd951006626a0cd70454d260550",
}


@pytest.mark.parametrize("family, r", MEDIAN_CORRECTION)
def test_median_correction(family, r):
    sk = build_sketch(family, 128, r, seed=17)
    assert json_digest(sk.estimator["median_correction"]) == MEDIAN_CORRECTION[family, r]


# gen_hard_instance at each family's defaults, keyed by (family, side): the
# digest of [payload shape, payload digest, witness as JSON]
HARD_INSTANCE = {
    ("lp-small", "D1"): "f92e725ec5d01a7f0f41daa404aeb0d06a2a8bfb62772ecc7740b183b5ea641b",
    ("lp-small", "D2"): "5b8550cf1fae3eeb370e4d4888ad90966c910c320dcc16cd785e4e3fbd1605a9",
    ("lp-large", "D1"): "f35b6c30ca593b12078a4704504506d25b7d307bc5e418daf7aef0168d1d4cab",
    ("lp-large", "D2"): "39fea0277762a06c8b296808df1c96f43d90167bbd3c57af581a596d8333f3ab",
    ("opnorm-alpha", "D1"): "0332f8faf14ccbc71ac0808a2badf10e22c96d5574cac47a50654146fa956083",
    ("opnorm-alpha", "D2"): "183d0267e07cc49d9900ba61fbe6f92ced59cef89b7a1cfba708a9fafcbd5157",
    ("opnorm-eps", "D1"): "994a3d3dd7267f9a661d8d3a6670bf784d1a6309858767539e70308cf77ac6ad",
    ("opnorm-eps", "D2"): "c12fbfc3baff8fad720ef890b56e5e27aeafc40a3719f5f386396c65b74b57aa",
    ("kyfan", "D1"): "f2d509888758d9d395924d3e047a7a09d3647d13cee7a6385ecd126abb69e4b1",
    ("kyfan", "D2"): "6ae988d62b94659ada44ffe1e626aabc90ef2cd7bfd298d09790baad98cd9065",
    ("eigen", "D1"): "1ca69294add2f02a2f6f8519383a84bfef595f56084843e2ba7484876816913c",
    ("eigen", "D2"): "38324a5bc28bb94e560eb687526ff49ee6dcdd06b91d1944dd274c0b7572a29e",
    ("psd", "D1"): "463c5c6a9b781b80755187460ff535f08347cce84c89ba2a0dbd18ee59151c61",
    ("psd", "D2"): "7c8f0258c8f83219b02f65f2f72b5048168385f58e8d0e2b6140b7cb4c5e5681",
    ("cs", "D1"): "33c07225a7937263a9e41032845e7ffc07d3a74cac2b5437e39c24093491dfd7",
    ("cs", "D2"): "5b7b3f10ed017bfe75e12de89616ada03bfada0fcb7769450d6c3122d995a69d",
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
    "lp-large": "00c19f48ac2974cc39150244687e3311423b5daaca3e689a95590fc8086d58bd",
    "opnorm-alpha": "33464354901435e30ce2c761d44c8f69556beb194ef9f1d0989bc40a7a253d26",
    "opnorm-eps": "3b0e285070720133ee29b80f82ef7787dc7731d51384181efbc0764a177d00af",
    "kyfan": "9d2fb5cfaebc42d3af2d1020833e2fc16845c5239854315bace6a283e9586c8d",
    "eigen": "3732f2c20b601f27d1aed1728d3fc41fdf5d2d2367e274ec0f180e2715428f14",
    "psd": "714ed54b46d2d0f2e9c0b6d0779d60f98473fa30077f7ff20838477148e27bbc",
    "cs": "f88d9cf208677989a6dbc5bfe8edd2bab7ce6bf2d3824c4d362c6606da1cf775",
}


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_calibration(family):
    fam = HardFamily(family)
    thresholds = calibrate_family(fam)
    assert json_digest([thresholds, fam.params]) == CALIBRATION[family]


# the harddist benchmark's opnorm-alpha TVD (n = 32, 10,000 trials per side)
# at seed 1, keyed by its spike label and scale
SKETCHED_TVD = {("small", 0.1): 0.018800000000000008, ("large", 40.0): 0.7093999999999999}


@pytest.mark.parametrize("label, spike", SKETCHED_TVD)
def test_sketched_tvd(label, spike):
    fam = HardFamily("opnorm-alpha", {"n": 32, "alpha": 2.0, "s1": spike / math.sqrt(32)})
    rep = sketched_indistinguishability(fam, d=1, trials=10_000,
                                        rng=derive(1, "bench-tvd", label))
    assert rep["tvd"]["value"] == SKETCHED_TVD[label, spike]


# `harddist gen --seed 7` (side D2) for each matrix family at its defaults,
# keyed by (family, --count): the sha256 of the --out file and of stdout
HARDDIST_GEN = {
    ("opnorm-alpha", 1): ("bc818a434212641245de193eadbf31b0dbddc3d79ca69b528688b5c37dea3113",
                          "29207f3811935f4db6048a9e96215749b5f763c4182fda431e635eddb7457469"),
    ("opnorm-alpha", 3): ("65e58b8264831c310378428bea4d32ace4674e6bca4c3e2f9fefee430c2726cf",
                          "6399c76fbb62469e2f524fb00b78197db3f94608f8d3ca1fb1ea5988524d830b"),
    ("opnorm-eps", 1): ("e808a6447f6458e7913f3771cac163b888d640b78be155b3e0478e3e073d785a",
                        "391afe5444e77b9b3b7fbb36579c76cf258c26054bcf60b52d35eaf2a284aadc"),
    ("opnorm-eps", 3): ("174e21fde6f915ab63ce9c4860e10c030f2ff3316c8509ab695faace4873bd99",
                        "5accd8f804fc8e18e3a3ac02d4dc14519fd2fff0338309350a07ddb155fd8d96"),
    ("kyfan", 1): ("271219ee0cd5aad01e3f9e24d20322bbb2ce6e509fb3aba2515dea53da85b986",
                   "ba47b6b1c8faf31689f40ee264d22c40c72463aac51c081a1439536044a06c1b"),
    ("kyfan", 3): ("75d46c5ea059a787a9c1afba3a7a622c1dc0387a687e335d17e6370b0a4a9510",
                   "49be793e4f4c9eff9ed985af353767afa90b4213b2ab713cc265bb68327a1f16"),
    ("eigen", 1): ("123af9cfbc600b296926dfde72aef2d35729e60a4bcd1ee64d98acc1bb3a7264",
                   "fc6e28634180823bd841bcc5683e9773b957d1dedf5ccde95c888ee0cfe76381"),
    ("eigen", 3): ("a9e1cc23211d12e8a732d5a9456ae40d4eb60526f928293c2469e6887bdf5672",
                   "ca068efcd80dae72150c9b2f62c783fe41bb1e9ed398afa5ef346c752f2a6497"),
    ("psd", 1): ("17534822fd4ce4a09b55a1eebe7b11279454b3a3aebc7cac3690ea7111e8e8cc",
                 "f74d847407c1be0f48e3f9487d29c3fb55d93aaa08ebebf5fe4ad2fe0da5c7af"),
    ("psd", 3): ("9e374e9b1ed4e47222eae15304f856e90de3640e1ba603647faabdf42e443b26",
                 "e5afadd64553186a20986dad74501760fbffc4009b99fd7b0f8df93c134f4be5"),
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
