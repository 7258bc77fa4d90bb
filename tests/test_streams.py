"""Stream guard: SHA-256 digests of fixed-seed draws from every sampler path
and of a small attack transcript.

A fixed seed must give the same bits. A change that moves one of these
digests changes a random stream; if that is deliberate, update the digest
here and record in CHANGES.md which stream changed and why.
"""

import hashlib
import json

import numpy as np
import pytest

from sketchlab import dgauss
from sketchlab.attack import AttackConfig, run_attack
from sketchlab.numerics import OrthonormalBasis
from sketchlab.rng import derive
from sketchlab.sketch import GapNormOracle, GapNormParams, build_sketch


def digest(x):
    return hashlib.sha256(np.ascontiguousarray(x, dtype="<i8").tobytes()).hexdigest()


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


def test_ellipsoidal():
    n = 16
    Q = np.linalg.qr(np.random.default_rng(15).standard_normal((n, n)))[0]
    Sigma = Q @ np.diag(np.linspace(60.0, 900.0, n)) @ Q.T
    Z = dgauss.sample_dgauss_ellipsoidal(Sigma, derive(14, "streams", "ellipsoidal"), size=256)
    assert digest(Z) == "7968bdb823ee46d0291f576fc8d1a084c4f59cf1e015c0440d426c3516e87663"


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
            == "57dcd23c37c3edd8d63754d520f6de2efdd89b34b639dfaf951ad24c3d0ad863")
