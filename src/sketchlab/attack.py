"""Adaptive attack engine for GapNorm oracles: learns the sketch rowspace
from yes/no answers, terminates with a failure certificate when the answer
rate at some subspace-variance pair contradicts correctness, and extracts
integer exploit queries from the certificate.

Round structure: per round the variance grid is swept in ascending order,
m queries are drawn from D(V_t^perp, sigma^2) per grid point, and the first
direction whose positive-sample singular score crosses
sigma^2 + sigma^2/4 + slack is orthogonalized into the learned basis.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .dgauss import SubspaceGaussianSpec, sample_subspace_query
from .errors import (
    BadParams,
    DegenerateResidual,
    NoExploitFound,
    NoPositives,
    OracleFailure,
)
from .numerics import OrthonormalBasis, gram_schmidt_residual, top_right_singular_vector
from .rng import as_generator
from .sketch import GapNormParams


def zeta_floor(B, n):
    """Termination-rate resolution 1/(20 (Bn)^2 log(Bn))."""
    return 1.0 / (20.0 * (B * n) ** 2 * math.log(B * n))


@dataclass
class AttackConfig:
    """Tunable attack parameters. Defaults are desk-scale: the sample counts
    and grid resolution behind the asymptotic guarantees are astronomically
    larger and matter only for the proofs, not the mechanism."""

    gap: GapNormParams
    m: int = 2000
    grid_points: int = 16
    positive_floor: float = None   # min positive count; default m/(100 B^2 n)
    round_cap: int = None          # default r_budget + 1
    zeta: float = None             # default max(zeta_floor, 5/sqrt(m))
    verify_trials: int = 10_000

    def __post_init__(self):
        if self.m < 100:
            raise BadParams(f"m must be >= 100, got {self.m}")

    def effective_zeta(self, n):
        if self.zeta is not None:
            return self.zeta
        return max(zeta_floor(self.gap.B, n), 5.0 / math.sqrt(self.m))

    def effective_floor(self, n):
        if self.positive_floor is not None:
            return self.positive_floor
        return self.m / (100.0 * self.gap.B**2 * n)

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
    accepted: list = field(default_factory=list)    # (t, sigma2, score)


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
        a, b = self.alpha, self.alpha * self.B
        if self.side == "high" and not (self.sigma2 >= a * self.B / 2.0):
            raise ValueError("high-side certificate needs sigma^2 >= alpha*B/2")
        if self.side == "low" and not (self.sigma2 <= 2.0 * a):
            raise ValueError("low-side certificate needs sigma^2 <= 2*alpha")
        if self.side not in ("high", "low"):
            raise ValueError(f"bad side {self.side}")

    @property
    def dim(self):
        return len(self.subspace)

    def basis(self, n):
        return OrthonormalBasis(n, [np.asarray(v, float) for v in self.subspace])


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

    Returns ("certificate", cert) | ("direction", v_t) | ("no-progress", None).
    """
    rng = as_generator(rng)
    zeta = config.effective_zeta(n)
    floor = config.effective_floor(n)
    alpha, B = config.gap.alpha, config.gap.B
    t = state.t
    found = None

    for sigma2 in config.grid_for(n):
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

        high = sigma2 >= alpha * B / 2.0 and rate <= 1.0 - zeta
        if high or (sigma2 <= 2.0 * alpha and rate >= zeta):
            cert = FailureCertificate(
                subspace=[list(map(float, v)) for v in state.V],
                sigma2=float(sigma2),
                side="high" if high else "low",
                empirical_rate=rate,
                sample_count=config.m,
                zeta=zeta,
                alpha=alpha,
                B=B,
                round=t,
            )
            return "certificate", cert

        # only the first above-threshold direction is consumed, so singular
        # scores are computed until one is found (later grid records carry
        # score None for this round)
        if m_prime >= max(floor, 1) and found is None:
            positives = X[answers == 1].astype(float)
            v_sigma, _ = top_right_singular_vector(positives)
            score = float(np.mean((positives @ v_sigma) ** 2))
            rec["score"] = score
            threshold = sigma2 + sigma2 / 4.0 + config.slack(sigma2, r_budget)
            if score >= threshold:
                rec["accepted"] = True
                found = (v_sigma, float(sigma2), score)

    if found is None:
        return "no-progress", None
    v_sigma, sigma2, score = found
    try:
        v_t = gram_schmidt_residual(v_sigma, state.V)
    except DegenerateResidual:
        return "no-progress", None
    state.V = state.V.extended(v_t)
    state.accepted.append((t, sigma2, score))
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


def verify_certificate(oracle, cert: FailureCertificate, trials, rng, n=None):
    """Draw fresh queries at the certificate's (V, sigma^2) and extract
    integer exploits.

    high side: exploits are queries answered 0 with ||x||^2 > alpha B (n-d)/3;
    low side: answered 1 with ||x||^2 < 3 alpha (n-d). Raises NoExploitFound
    when no exploit shows up in `trials` queries (certificate spurious).
    """
    rng = as_generator(rng)
    if n is None:
        n = oracle.n
    basis = cert.basis(n)
    d = cert.dim
    spec = SubspaceGaussianSpec(n, basis, cert.sigma2)
    X = sample_subspace_query(spec, "discrete", rng, size=int(trials))
    answers = _ask(oracle, X)
    norms = np.sum(X.astype(float) ** 2, axis=1)
    if cert.side == "high":
        mask = (answers == 0) & (norms > cert.alpha * cert.B * (n - d) / 3.0)
    else:
        mask = (answers == 1) & (norms < 3.0 * cert.alpha * (n - d))
    idx = np.nonzero(mask)[0]
    if idx.size == 0:
        raise NoExploitFound(
            f"no exploit in {trials} trials for {cert.side}-side certificate"
        )
    exploits = [
        Exploit(x=x, norm_sq=float(norms[i]), answer=int(answers[i]), wrong=True)
        for i, x in zip(idx, X[idx].tolist())
    ]
    return {"failure_rate": idx.size / int(trials), "exploits": exploits}


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
    return {"t": state.t, "dim": len(V), "distance": sin, "sin_theta_max": sin}
