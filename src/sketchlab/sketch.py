"""Integer linear sketches, concrete sketch constructions, L2 estimators, and
the GapNorm oracle wrapper the attack interrogates.

Central design rule: estimators receive only (seed-derived constants, A x).
The query vector itself never reaches the estimator; oracles answer a batch
of queries X from the exact product A X^T alone, and `gap_bits` and
`l2_estimates` are deterministic functions of those sketched values, so two
queries with equal A x always get equal answers. `StreamState` accumulates
A x from turnstile coordinate updates, for queries that arrive as streams.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import dgauss, intlinalg
from .errors import BadParams, DimensionMismatch
from .fields import OPTIONAL, read_fields
from .lattice import IntMatrix
from .numerics import orthonormalize_rows
from .rng import derive

# each family's params as a key table (fields.read_fields): its own param,
# whose default build_sketch computes from n and r, and the promise alpha and
# B that tau is fit between, on m_cal draws per side
_PROMISE = {"alpha": ((float,), (), OPTIONAL), "B": ((float,), (), OPTIONAL),
            "m_cal": ((int,), ((">=", 1),), OPTIONAL)}
_FIELDS = {
    "sign": {"groups": ((int,), ((">=", 1),), OPTIONAL), **_PROMISE},
    "rounded-gaussian": {"entry_std": ((float,), ((">", 0),), OPTIONAL), **_PROMISE},
    "countsketch": {"reps": ((int,), ((">=", 1),), OPTIONAL), **_PROMISE},
    "projection-threshold": _PROMISE,
}
FAMILIES = tuple(_FIELDS)


@dataclass
class GapNormParams:
    """Promise thresholds on the per-coordinate scale ||x||^2 / n: answer 1
    when ||x||^2 >= alpha*B*n, 0 when ||x||^2 <= alpha*n. A query drawn at
    variance sigma^2 has ||x||^2 ~ n sigma^2, so the attack's grid
    sigma^2 in [alpha, alpha*B] spans the promise gap. What follows from
    the promise is stated here once: `edges`, `side`, `exploits`, `violations`."""

    B: float
    alpha: float

    def __post_init__(self):
        if self.B < 8:
            raise BadParams(f"B must be >= 8, got {self.B}")
        if self.alpha <= 0:
            raise BadParams(f"alpha must be positive, got {self.alpha}")

    @property
    def edges(self):
        """(2 alpha, alpha B / 2), the certifying sides' edges: apart, as B >= 8."""
        return 2.0 * self.alpha, self.alpha * self.B / 2.0

    def side(self, sigma2):
        """"low" at sigma2 <= 2 alpha, "high" at sigma2 >= alpha B / 2, None
        in between, where no answer rate certifies."""
        low, high = self.edges
        return "low" if sigma2 <= low else "high" if sigma2 >= high else None

    def exploits(self, side, norms_sq, answers, free):
        """The verifier's exploit mask over queries of exact squared lengths
        `norms_sq`, `free` = n - d: answered 0 at ||x||^2 > alpha B free / 3
        on the high side, 1 at ||x||^2 < 3 alpha free on the low side."""
        if side == "high":
            return (answers == 0) & (norms_sq > self.alpha * self.B * free / 3.0)
        return (answers == 1) & (norms_sq < 3.0 * self.alpha * free)

    def violations(self, norms_sq, answers, n):
        """How many answers break the promise: 1 at ||x||^2 <= alpha n or 0
        at ||x||^2 >= alpha B n."""
        wrong_low = (answers == 1) & (norms_sq <= self.alpha * n)
        wrong_high = (answers == 0) & (norms_sq >= self.alpha * self.B * n)
        return int(np.count_nonzero(wrong_low | wrong_high))


class StreamState:
    """Accumulated sketch value A x for x = sum of turnstile updates (i, delta).

    The value is held as Python integers (dtype object), so it never wraps.
    """

    def __init__(self, sketch):
        self._A = sketch.A.entries
        self.value = np.zeros(self._A.shape[0], dtype=object)
        self.update_count = 0

    def update(self, i, delta):
        self.ingest_updates([i], [delta])

    def ingest_updates(self, indices, deltas):
        indices = np.asarray(indices, dtype=np.intp)
        if indices.size:
            deltas = intlinalg.int_array(deltas)[None, :]
            self.value += intlinalg.exact_product(deltas, self._A[:, indices])[0]
        self.update_count += int(indices.size)

    def ingest_vector(self, x):
        """Feed a whole query vector as one batch of coordinate updates."""
        x = np.asarray(x, dtype=np.int64)
        idx = np.nonzero(x)[0]
        self.ingest_updates(idx, x[idx])


@dataclass
class IntegerSketch:
    """An integer sketching matrix with its orthonormal working form and
    estimator constants. Immutable after build."""

    A: IntMatrix
    seed: int
    family: str
    params: dict
    Q: np.ndarray = field(repr=False)
    R: np.ndarray = field(repr=False)
    estimator: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        r, n = self.A.rows, self.A.cols
        if r > n:
            raise BadParams(f"sketch needs r <= n (got r={r}, n={n})")
        cap = n * n
        if self.A.max_abs_entry() > cap:
            raise BadParams(f"entry bound exceeds poly(n) cap {cap}")

    @classmethod
    def from_matrix(cls, rows, seed=0):
        """Wrap an explicit integer matrix (family "raw": no estimator;
        apply_batch/streams/orthonormal form only)."""
        A = IntMatrix.from_rows(rows)
        Q, R = orthonormalize_rows(A.entries.astype(float))
        return cls(A=A, seed=int(seed), family="raw", params={}, Q=Q, R=R)

    @property
    def n(self):
        return self.A.cols

    @property
    def r(self):
        return self.A.rows

    def apply_batch(self, X):
        """Exact integer products A x for the rows x of X, as the (k, r) array
        X A^T (`intlinalg.exact_product`: int64, or Python integers once a
        partial sum could pass int64)."""
        X = np.asarray(X)
        if X.ndim != 2 or X.shape[1] != self.n:
            raise DimensionMismatch(f"expected rows of dim {self.n}, got {X.shape}")
        return intlinalg.exact_product(X, self.A.entries)

    def new_stream(self):
        return StreamState(self)

    def working_value(self, y):
        """Sketched value(s) in the orthonormal row basis: Q x = R (A x), for
        one y = A x or for the rows of a batch Y. A row's value does not
        depend on its batch: a one-row batch is padded to two rows, since a
        lone row takes numpy's matrix-vector product, whose sums round
        differently."""
        y = np.asarray(y, dtype=float)
        if y.ndim == 2 and len(y) == 1:
            return (np.repeat(y, 2, axis=0) @ self.R.T)[:1]
        return y @ self.R.T

    def l2_estimates(self, Y):
        """Numeric estimates of ||x||^2 from the rows y = A x of Y."""
        kind = self.family
        est = self.estimator
        Y = np.asarray(Y, dtype=float)
        if kind in ("sign", "countsketch"):
            # median over row groups (sign: mean of squares) or blocks
            # (countsketch: sum of squares)
            parts, reduce = ((est["groups"], np.mean) if kind == "sign"
                             else (est["blocks"], np.sum))
            vals = np.stack([reduce(Y[:, p] ** 2, axis=1) for p in parts], axis=1)
            return np.median(vals, axis=1) * est["median_correction"]
        if kind in ("rounded-gaussian", "projection-threshold"):
            scale = self.n / self.r if kind == "rounded-gaussian" else 1.0
            return scale * np.sum(self.working_value(Y) ** 2, axis=1)
        raise BadParams(f"unknown family {kind}")

    def gap_bits(self, Y):
        """Thresholded GapNorm answers (int8) for the rows y = A x of Y: the
        estimate against the calibrated tau. A sketch built without a
        promise has no tau and raises BadParams."""
        if "tau" not in self.estimator:
            raise BadParams(f"the {self.family} sketch has no tau: build it with "
                            "params alpha and B to answer GapNorm queries")
        return (self.l2_estimates(Y) >= self.estimator["tau"]).astype(np.int8)

    def spec_json(self):
        """Replayable build spec (family, n, r, seed, params)."""
        return json.dumps(
            {
                "family": self.family,
                "n": self.n,
                "r": self.r,
                "seed": self.seed,
                "params": self.params,
            },
            sort_keys=True,
        )


def _median_correction(group_sizes, rng, trials=4000):
    """Monte Carlo correction so the median-of-group-means estimator is
    unbiased on Gaussian-like inputs (the median of chi^2 means sits below 1).
    One group makes the estimator a plain mean of chi^2 means, whose
    expectation is exactly 1, so nothing is drawn."""
    if len(group_sizes) == 1:
        return 1.0
    # one row per trial, each row the trial's groups side by side: the same
    # normals in the same order as one draw per group per trial
    sq = rng.standard_normal((trials, sum(group_sizes))) ** 2
    edges = np.cumsum(group_sizes)[:-1]
    vals = np.stack([np.mean(g, axis=1) for g in np.split(sq, edges, axis=1)], axis=1)
    return 1.0 / float(np.mean(np.median(vals, axis=1)))


def _calibrate_tau(sk, gap, rng, m_cal):
    """Fit tau so false rates on both promise-side distributions (isotropic
    discrete Gaussians at the variances `gap.edges`) are minimized, and fill
    the sketch's estimator with it. Each draw is scored by the estimate the
    oracle thresholds, so a recorded rate is the oracle's own on its draws.

    At desk-scale (small r, small B) a 1% target on both sides may be
    infeasible; the achieved rates are recorded, not asserted.
    """
    lo_s2, hi_s2 = gap.edges

    def stat(sigma2):
        """The estimates of one side's batch, drawn and reduced before the
        next side is drawn."""
        X = dgauss.sample_dgauss_1d(sigma2, rng, size=(m_cal, sk.n))
        return sk.l2_estimates(sk.apply_batch(X))

    low_stat = stat(lo_s2)
    high_stat = stat(hi_s2)
    # np.unique's sorted distinct values; np.unique imports numpy.ma on first use
    cands = np.sort(np.concatenate([low_stat, high_stat]))
    cands = cands[np.concatenate(([True], cands[1:] != cands[:-1]))]
    # false_low: low-side samples answered 1; false_high: high-side answered 0
    false_low = 1.0 - np.searchsorted(np.sort(low_stat), cands, side="left") / m_cal
    false_high = np.searchsorted(np.sort(high_stat), cands, side="left") / m_cal
    worst = np.maximum(false_low, false_high)
    k = int(np.argmin(worst))
    tau = float(cands[k])
    sk.estimator.update({
        "tau": tau,
        "false_low": float(false_low[k]),
        "false_high": float(false_high[k]),
        "calibration_sigma2": [lo_s2, hi_s2],
        "m_cal": m_cal,
    })


def build_sketch(family, n, r, params=None, seed=0):
    """Construct an IntegerSketch of the given family with its estimator.

    sign: +-1 entries, median over row-groups of mean squared entries.
    rounded-gaussian: entries round(N(0, s^2)), estimate (n/r) ||Q x||^2.
    countsketch: one +-1 per column per repetition block.
    projection-threshold: +-1 entries, estimate ||Q x||^2.
    Given params alpha and B (and m_cal), every family fits its threshold tau
    between that promise's sides (`_calibrate_tau`); without them, no tau.
    """
    if family not in FAMILIES:
        raise BadParams(f"unknown family {family!r}; choose from {FAMILIES}")
    if not (1 <= r <= n):
        raise BadParams(f"need 1 <= r <= n, got r={r}, n={n}")
    params = read_fields(params or {}, _FIELDS[family], (family,))
    gap = None
    if params.keys() & _PROMISE:
        if not params.keys() >= {"alpha", "B"}:
            raise BadParams(f"{family} param {sorted(params.keys() & _PROMISE)} "
                            "needs params alpha and B")
        # tau separates the promise sides, so they must be ones an oracle accepts
        gap = GapNormParams(B=params["B"], alpha=params["alpha"])
    rng = derive(seed, "sketch", family)
    cal_rng = derive(seed, "sketch-cal", family)
    est = {}

    if family in ("sign", "projection-threshold"):
        A = rng.choice(np.array([-1, 1], dtype=np.int64), size=(r, n))
    elif family == "rounded-gaussian":
        s = params.get("entry_std", math.sqrt(n))
        A = np.rint(rng.standard_normal((r, n)) * s).astype(np.int64)
        if int(np.max(np.abs(A))) > n * n:
            raise BadParams(
                f"entry_std={s} produced entries beyond the poly(n) cap {n * n}"
            )
        if not np.any(A):
            raise BadParams("rounded-gaussian entries all zero; increase entry_std")
    elif family == "countsketch":
        reps = params.get("reps", max(1, r // 8))
        if r % reps != 0:
            raise BadParams(f"countsketch param 'reps' must be >= 1 and divide r={r}, got {reps}")
        buckets = r // reps
        A = np.zeros((r, n), dtype=np.int64)
        blocks = []
        for j in range(reps):
            h = rng.integers(0, buckets, size=n)
            s = rng.choice(np.array([-1, 1], dtype=np.int64), size=n)
            rows = np.arange(j * buckets, (j + 1) * buckets)
            A[rows[h], np.arange(n)] = s
            blocks.append(rows)
        est["blocks"] = blocks
        params["reps"] = reps

    Q, R = orthonormalize_rows(A.astype(float))

    if family == "sign":
        g = params.get("groups", min(5, r))
        if g > r:
            raise BadParams(f"sign param 'groups' must be in [1, r={r}], got {g}")
        groups = np.array_split(np.arange(r), g)
        est["groups"] = groups
        est["median_correction"] = _median_correction([len(grp) for grp in groups], cal_rng)
        params["groups"] = g
    elif family == "countsketch":
        est["median_correction"] = _median_correction([r // params["reps"]] * params["reps"],
                                                      cal_rng)

    sk = IntegerSketch(
        A=IntMatrix.from_rows(A),
        seed=int(seed),
        family=family,
        params=params,
        Q=Q,
        R=R,
        estimator=est,
    )
    if gap is not None:
        _calibrate_tau(sk, gap, cal_rng, m_cal=params.get("m_cal", 4000))
    return sk


class GapNormOracle:
    """Query interface handed to the attack: bits only, no access to A.

    A batch of queries X is answered from the exact sketched values A X^T
    (`IntegerSketch.apply_batch`) through the sketch's estimator, against
    the tau fit for `params`; a sketch fit for another promise, or none, is
    refused."""

    def __init__(self, sketch: IntegerSketch, params: GapNormParams):
        fit = (sketch.params.get("alpha"), sketch.params.get("B"))
        if fit != (params.alpha, params.B):
            raise BadParams(f"the {sketch.family} sketch's tau is fit for (alpha, B) = {fit}, "
                            f"not the oracle's promise {(params.alpha, params.B)}")
        self._sketch = sketch
        self.params = params
        self.query_count = 0

    @property
    def n(self):
        return self._sketch.n

    def query_batch(self, X):
        Y = self._sketch.apply_batch(X)
        self.query_count += Y.shape[0]
        return self._sketch.gap_bits(Y)


class ExactNormOracle:
    """Negative control: answers from the true squared norm of the query.

    Its threshold 3 alpha n sits between the verifier's low-side window
    3 alpha (n-d) and the high-side demands at sigma^2 >= alpha B / 2 for the
    desk-scale B used here, so this oracle admits no failure certificate.
    """

    def __init__(self, n, params: GapNormParams):
        self.n = n
        self.params = params
        self.threshold = 3.0 * params.alpha * n
        self.query_count = 0

    def query_batch(self, X):
        X = np.asarray(X, dtype=float)
        self.query_count += X.shape[0]
        return (np.sum(X * X, axis=1) >= self.threshold).astype(np.int8)
