"""Adaptive attack engine for GapNorm oracles: learns the sketch rowspace
from yes/no answers, terminates with a failure certificate when the answer
rate at some subspace-variance pair contradicts correctness, and extracts
integer exploit queries from the certificate.

Round structure: per round the variance grid is swept in ascending order,
m queries are drawn from D(V_t^perp, sigma^2) per grid point, and the first
direction whose positive-sample singular score crosses
sigma^2 + sigma^2/4 + slack is orthogonalized into the learned basis. Only
a point on a promise side (GapNormParams.side) can certify, so once the
round's direction is decided the middle points between the sides are not
drawn: the transcript holds the points a round drew.

Verification streams its fresh queries in row blocks and counts every
exploit, but keeps only the first EXPLOITS_KEPT as integer vectors, so its
memory does not grow with the number of trials.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import intlinalg
from .dgauss import SubspaceGaussianSpec, sample_subspace_query
from .errors import (
    BadParams,
    DegenerateResidual,
    NoPositives,
    OracleFailure,
)
from .fields import read_value
from .numerics import OrthonormalBasis, gram_schmidt_residual, top_right_singular_vector
from .rng import as_generator
from .sketch import GapNormParams

EXPLOITS_KEPT = 200  # exploits a verification report keeps, in draw order
SCORE_DIGITS = 12  # significant digits of a transcript record's score
_VERIFY_BLOCK = 65_536  # query entries per verification block (512 KB of int64)


def zeta_floor(B, n):
    """Termination-rate resolution 1/(20 (Bn)^2 log(Bn))."""
    return 1.0 / (20.0 * (B * n) ** 2 * math.log(B * n))


# AttackConfig's knobs as key-table entries, key -> (kinds, bound, default)
# (fields.read_fields); a config's attack block (acceptance.ATTACK_FIELDS)
# reads its knobs by these entries
KNOBS = {
    "m": ((int,), ((">=", 100),), 2000),
    "grid_points": ((int,), ((">=", 2),), 16),
    "round_cap": ((int, None), ((">=", 1),), None),  # None: r_budget + 1
    "zeta": ((float, None), ((">", 0),), None),  # None: max(zeta_floor, 5/sqrt(m))
    "verify_trials": ((int,), ((">=", 100),), 10_000),
}


@dataclass
class AttackConfig:
    """Tunable attack parameters. Defaults are desk-scale: the sample counts
    and grid resolution behind the asymptotic guarantees are astronomically
    larger and matter only for the proofs, not the mechanism.

    Each knob is read by its KNOBS entry, BadParams naming the knob when it
    is out of bounds. A zeta above 1 is accepted: no answer rate reaches it,
    so certification is off; a config's attack block refuses it."""

    gap: GapNormParams
    m: int = KNOBS["m"][2]
    grid_points: int = KNOBS["grid_points"][2]
    round_cap: int = None
    zeta: float = None
    verify_trials: int = KNOBS["verify_trials"][2]

    def __post_init__(self):
        for key, (kinds, bound, _) in KNOBS.items():
            setattr(self, key, read_value(getattr(self, key), kinds, bound, (key,)))

    def effective_zeta(self, n):
        if self.zeta is not None:
            return self.zeta
        return max(zeta_floor(self.gap.B, n), 5.0 / math.sqrt(self.m))

    def slack(self, sigma2, r_budget):
        return sigma2 / (14.0 * self.gap.B * r_budget)

    def grid_for(self, n):
        """The variance grid: grid_points geometric steps over [alpha, alpha B],
        the same at every n."""
        return np.geomspace(self.gap.alpha, self.gap.alpha * self.gap.B, self.grid_points)


@dataclass
class AttackState:
    t: int
    V: OrthonormalBasis
    transcript: list = field(default_factory=list)  # ordered records


@dataclass
class FailureCertificate:
    """(subspace, variance, side) on which the oracle's answer rate is
    inconsistent with correctness at the recorded zeta."""

    subspace: list          # orthonormal rows spanning V
    sigma2: float
    side: str               # "high" (rate <= 1-zeta) | "low" (rate >= zeta)
    empirical_rate: float
    sample_count: int
    zeta: float
    alpha: float
    B: float
    round: int

    def __post_init__(self):
        if self.side not in ("high", "low"):
            raise BadParams(f"bad side {self.side}")
        if GapNormParams(self.B, self.alpha).side(self.sigma2) != self.side:
            needs = "sigma^2 >= alpha*B/2" if self.side == "high" else "sigma^2 <= 2*alpha"
            raise BadParams(f"{self.side}-side certificate needs {needs}")

    @property
    def dim(self):
        return len(self.subspace)

    def basis(self, n):
        try:
            rows = [np.asarray(v, float) for v in self.subspace]
        except (TypeError, ValueError) as exc:
            raise BadParams(f"certificate subspace is not rows of numbers: {exc}") from None
        return OrthonormalBasis(n, rows)


@dataclass
class Exploit:
    x: list
    norm_sq: float
    answer: int
    wrong: bool


@dataclass
class AttackOutcome:
    outcome: str  # "certificate" | "exhausted"
    state: AttackState
    certificate: FailureCertificate = None


def _ask(oracle, X):
    try:
        return np.asarray(oracle.query_batch(X), dtype=np.int8)
    except Exception as exc:  # noqa: BLE001 - wrapped per contract
        raise OracleFailure(str(exc)) from exc


def round_step(state: AttackState, oracle, n, r_budget, config: AttackConfig, rng):
    """One attack round: sweep the grid, test termination per grid point,
    then fold the first above-threshold singular direction into the basis.

    A grid point off the promise sides (GapNormParams.side) can never
    certify; it serves only to find the direction. Once the round's
    direction is decided, such a point is skipped: no draw, no oracle query
    and no transcript record. The two sides are always drawn and tested.

    Returns ("certificate", cert) | ("direction", v_t) | ("no-progress", None).
    """
    rng = as_generator(rng)
    zeta = config.effective_zeta(n)
    t = state.t
    found = None

    for sigma2 in config.grid_for(n):
        side = config.gap.side(sigma2)
        decided = found is not None  # the round's direction is decided
        if decided and side is None:
            continue
        spec = SubspaceGaussianSpec(n, state.V, float(sigma2))
        X = sample_subspace_query(spec, "discrete", rng, size=config.m)
        answers = _ask(oracle, X)
        m_prime = int(answers.sum())
        rate = m_prime / config.m
        rec = {
            "round": t,
            "sigma2": float(sigma2),
            "rate": rate,
            "m_prime": m_prime,
            "score": None,
            "accepted": False,
        }
        state.transcript.append(rec)

        if (side == "high" and rate <= 1.0 - zeta) or (side == "low" and rate >= zeta):
            cert = FailureCertificate(
                subspace=[list(map(float, v)) for v in state.V],
                sigma2=float(sigma2),
                side=side,
                empirical_rate=rate,
                sample_count=config.m,
                zeta=zeta,
                alpha=config.gap.alpha,
                B=config.gap.B,
                round=t,
            )
            return "certificate", cert

        # only the first above-threshold direction is consumed, so singular
        # scores are computed until one is found (later grid records carry
        # score None for this round)
        if m_prime >= 1 and not decided:
            positives = X[answers == 1].astype(float)
            v_sigma, s = top_right_singular_vector(positives)
            score = s * s / m_prime
            # the record keeps SCORE_DIGITS significant digits, as the last
            # bits of s follow the BLAS pool's summation order; the threshold
            # test reads the unrounded score
            rec["score"] = float(f"{score:.{SCORE_DIGITS}g}")
            threshold = sigma2 + sigma2 / 4.0 + config.slack(sigma2, r_budget)
            if score >= threshold:
                rec["accepted"] = True
                found = v_sigma

    if found is None:
        return "no-progress", None
    try:
        v_t = gram_schmidt_residual(found, state.V)
    except DegenerateResidual:
        return "no-progress", None
    state.V = state.V.extended(v_t)
    return "direction", v_t


def run_attack(oracle, n, r_budget, config: AttackConfig, rng):
    """Run the adaptive attack; returns an AttackOutcome.

    Executes rounds t = 1..round_cap (default r_budget + 1); terminates with
    a FailureCertificate as soon as a grid point's answer rate contradicts
    correctness, else reports exhaustion with the final state. The first
    draw is at sigma^2 = alpha, so an alpha below the sampling floor raises
    VarianceTooSmall from the sampler before any oracle query.
    """
    rng = as_generator(rng)
    cap = config.round_cap if config.round_cap is not None else r_budget + 1
    state = AttackState(t=1, V=OrthonormalBasis.empty(n))
    for t in range(1, cap + 1):
        state.t = t
        kind, payload = round_step(state, oracle, n, r_budget, config, rng)
        if kind == "certificate":
            return AttackOutcome("certificate", state, payload)
    return AttackOutcome("exhausted", state)


def verify_certificate(oracle, cert: FailureCertificate, trials, rng):
    """Draw `trials` fresh queries at the certificate's (V, sigma^2) and
    extract integer exploits, by GapNormParams.exploits at n - d.

    The queries are drawn in blocks of about _VERIFY_BLOCK entries (at least
    one row), one `sample_subspace_query` call per block on `rng`, and each
    block is answered and reduced to its exploits before the next is drawn,
    so the memory held does not grow with `trials`. Every exploit is counted
    (`exploit_count`, `failure_rate` = exploit_count / trials); the first
    EXPLOITS_KEPT, in draw order, are kept as Exploit objects. Every query
    that breaks the promise is counted too (`promise_violations`). A
    spurious certificate, with no exploit in `trials` queries, gets the zero
    report: exploit_count 0, failure_rate 0.0 and no exploits. Raises
    BadParams when trials < 1.
    """
    if trials < 1:
        raise BadParams(f"verification needs trials >= 1, got {trials}")
    rng = as_generator(rng)
    trials = int(trials)
    n = oracle.n
    gap = GapNormParams(cert.B, cert.alpha)
    spec = SubspaceGaussianSpec(n, cert.basis(n), cert.sigma2)
    rows = max(1, _VERIFY_BLOCK // n)
    count, violations, exploits = 0, 0, []
    for start in range(0, trials, rows):
        X = sample_subspace_query(spec, "discrete", rng, size=min(rows, trials - start))
        answers = _ask(oracle, X)
        norms = np.asarray(intlinalg.norms_sq(X))  # exact squared lengths
        idx = np.flatnonzero(gap.exploits(cert.side, norms, answers, n - cert.dim))
        count += idx.size
        violations += gap.violations(norms, answers, n)
        exploits += [
            Exploit(x=X[i].tolist(), norm_sq=float(norms[i]), answer=int(answers[i]), wrong=True)
            for i in idx[: EXPLOITS_KEPT - len(exploits)]
        ]
    return {"failure_rate": count / trials, "exploit_count": count,
            "promise_violations": violations, "exploits": exploits}


def run_and_verify(oracle, r_budget, config: AttackConfig, attack_rng, verify_rng):
    """One seeded attack run: run_attack on `attack_rng`, then, when it
    certifies, verify_certificate with config.verify_trials queries on
    `verify_rng`. Returns (AttackOutcome, report), the report None when the
    run exhausted its rounds or `verify_rng` is None (no verification)."""
    out = run_attack(oracle, oracle.n, r_budget, config, attack_rng)
    if out.certificate is None or verify_rng is None:
        return out, None
    return out, verify_certificate(oracle, out.certificate, config.verify_trials, verify_rng)


def conditional_gap_estimate(oracle, spec: SubspaceGaussianSpec, u, m, rng):
    """Delta-hat = E[<u,x>^2 | f(x)=1] - E[<u,x>^2], with standard error.

    Raises NoPositives when the oracle never answers 1 on the m samples.
    """
    if m < 1000:
        raise BadParams("conditional gap estimation needs m >= 1000")
    u = np.asarray(u, dtype=float)
    if abs(np.linalg.norm(u) - 1.0) > 1e-8:
        raise BadParams("u must be a unit vector")
    rng = as_generator(rng)
    X = sample_subspace_query(spec, "discrete", rng, size=int(m))
    answers = _ask(oracle, X)
    dots = (X.astype(float) @ u) ** 2
    m_prime = int(answers.sum())
    if m_prime == 0:
        raise NoPositives("oracle never answered 1")
    pos = dots[answers == 1]
    delta = float(pos.mean() - dots.mean())
    se = float(math.sqrt(pos.var(ddof=1) / m_prime + dots.var(ddof=1) / m)) \
        if m_prime > 1 else float("inf")
    return {
        "delta": delta,
        "se": se,
        "positive_rate": m_prime / m,
        "m": int(m),
        "m_prime": m_prime,
    }


def invariant_diagnostic(state: AttackState, true_sketch):
    """White-box diagnostic (test-only): the sine of the largest principal
    angle between the learned basis V_t and rowspan(A), the norm of V_t's
    part outside the rowspan.

    For dim V_t <= r it equals sqrt(1 - sigma_min(V Q^T)^2) and the
    operator-norm distance between the projectors onto V_t and onto the
    closest equal-dimensional subspace of the rowspan; a V_t of dimension
    above r holds a direction orthogonal to the rowspan and reads 1.
    """
    V, Q = state.V.matrix, true_sketch.Q  # orthonormal rows
    sin = 0.0
    if len(V):
        sin = min(float(np.linalg.norm(V - (V @ Q.T) @ Q, 2)), 1.0)
    return {"t": state.t, "dim": len(V), "sin_theta_max": sin}
