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

from . import dgauss
from .errors import BadParams, DimensionMismatch
from .intlinalg import INT64_GUARD
from .lattice import IntMatrix
from .numerics import orthonormalize_rows
from .rng import derive

# float64 holds every integer below 2^53 in magnitude exactly, so a float64
# product whose partial sums all stay below it is exact.
FLOAT64_EXACT = 2**53

FAMILIES = ("sign", "rounded-gaussian", "countsketch", "projection-threshold")


@dataclass
class GapNormParams:
    """Promise thresholds: answer 1 when ||x||^2 >= alpha*B, 0 when <= alpha."""

    B: float
    alpha: float

    def __post_init__(self):
        if self.B < 8:
            raise BadParams(f"B must be >= 8, got {self.B}")
        if self.alpha <= 0:
            raise BadParams(f"alpha must be positive, got {self.alpha}")


class StreamState:
    """Accumulated sketch value A x for x = sum of turnstile updates (i, delta).

    The value is int64 until an update could carry a row past INT64_GUARD,
    and Python integers (dtype object) from then on, so it never wraps.
    """

    def __init__(self, sketch):
        self._A = sketch.A.entries
        self._a_max = sketch.A.max_abs_entry()
        self.value = np.zeros(self._A.shape[0], dtype=np.int64)
        self.update_count = 0

    def update(self, i, delta):
        self.ingest_updates([i], [delta])

    def ingest_updates(self, indices, deltas):
        indices = np.asarray(indices, dtype=np.intp)
        deltas = np.asarray(deltas, dtype=np.int64)
        if indices.size:
            cols = self._A[:, indices]
            if self.value.dtype != object:
                v_max = max(int(self.value.max()), -int(self.value.min()))
                d_max = max(int(deltas.max()), -int(deltas.min()))
                if v_max + self._a_max * d_max * indices.size >= INT64_GUARD:
                    self.value = self.value.astype(object)
            if self.value.dtype == object:
                cols, deltas = cols.astype(object), deltas.astype(object)
            self.value += cols @ deltas
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
        apply/streams/orthonormal form only)."""
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
        X A^T: int64 from a float64 BLAS product while every partial sum is
        an integer below 2^53, from numpy's int64 loop while it is below
        INT64_GUARD, and Python integers (dtype object) beyond that."""
        X = np.asarray(X)
        if X.ndim != 2 or X.shape[1] != self.n:
            raise DimensionMismatch(f"expected rows of dim {self.n}, got {X.shape}")
        x_max = max(int(X.max()), -int(X.min())) if X.size else 0
        bound = self.A.max_abs_entry() * max(x_max, 1) * self.n
        if bound >= INT64_GUARD:
            rows = self.A.to_lists()
            Y = [[sum(a * int(b) for a, b in zip(row, x)) for row in rows] for x in X]
            return np.array(Y, dtype=object).reshape(X.shape[0], self.r)
        X = X.astype(np.int64, copy=False)
        if bound < FLOAT64_EXACT:
            return (X.astype(float) @ self.A.entries.T.astype(float)).astype(np.int64)
        return X @ self.A.entries.T

    def apply(self, x):
        """Exact integer product A x."""
        x = np.asarray(x)
        if x.shape != (self.n,):
            raise DimensionMismatch(f"expected dim {self.n}, got {x.shape}")
        return self.apply_batch(x[None, :])[0]

    def new_stream(self):
        return StreamState(self)

    def working_value(self, y):
        """Sketched value(s) in the orthonormal row basis: Q x = R (A x), for
        one y = A x or for the rows of a batch Y."""
        return np.asarray(y, dtype=float) @ self.R.T

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

    def gap_bits(self, Y, params: GapNormParams):
        """Thresholded GapNorm answers (int8) for the rows y = A x of Y."""
        mid = (self.estimator["tau"] if self.family == "projection-threshold"
               else params.alpha * math.sqrt(params.B))
        return (self.l2_estimates(Y) >= mid).astype(np.int8)

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
    unbiased on Gaussian-like inputs (the median of chi^2 means sits below 1)."""
    sims = np.empty(trials)
    for t in range(trials):
        vals = [np.mean(rng.standard_normal(k) ** 2) for k in group_sizes]
        sims[t] = np.median(vals)
    m = float(np.mean(sims))
    return 1.0 / m


def _calibrate_projection_threshold(Q, R, n, r, alpha, B, rng, m_cal=4000):
    """Fit tau so false rates on both promise-side distributions (isotropic
    discrete Gaussians at sigma^2 in {2 alpha, alpha B / 2}) are minimized.

    At desk-scale (small r, small B) a 1% target on both sides may be
    infeasible; the achieved rates are recorded, not asserted.
    """
    lo_s2, hi_s2 = 2.0 * alpha, alpha * B / 2.0
    lows = dgauss.sample_dgauss_1d(lo_s2, rng, size=(m_cal, n)).astype(float)
    highs = dgauss.sample_dgauss_1d(hi_s2, rng, size=(m_cal, n)).astype(float)
    low_stat = np.sum((lows @ Q.T) ** 2, axis=1)
    high_stat = np.sum((highs @ Q.T) ** 2, axis=1)
    cands = np.unique(np.concatenate([low_stat, high_stat]))
    # false_low: low-side samples answered 1; false_high: high-side answered 0
    false_low = 1.0 - np.searchsorted(np.sort(low_stat), cands, side="left") / m_cal
    false_high = np.searchsorted(np.sort(high_stat), cands, side="left") / m_cal
    worst = np.maximum(false_low, false_high)
    k = int(np.argmin(worst))
    tau = float(cands[k])
    return {
        "tau": tau,
        "c": tau / (alpha * B * r / n),
        "false_low": float(false_low[k]),
        "false_high": float(false_high[k]),
        "calibration_sigma2": [lo_s2, hi_s2],
        "m_cal": m_cal,
    }


def build_sketch(family, n, r, params=None, seed=0):
    """Construct an IntegerSketch of the given family with its estimator.

    sign: +-1 entries, median over row-groups of mean squared entries.
    rounded-gaussian: entries round(N(0, s^2)), estimate (n/r) ||Q x||^2.
    countsketch: one +-1 per column per repetition block.
    projection-threshold: GapNorm bit ||Q x||^2 >= tau with tau calibrated
    from params {"alpha": float, "B": float}.
    """
    if family not in FAMILIES:
        raise BadParams(f"unknown family {family!r}; choose from {FAMILIES}")
    if not (1 <= r <= n):
        raise BadParams(f"need 1 <= r <= n, got r={r}, n={n}")
    params = dict(params or {})
    rng = derive(seed, "sketch", family)
    est = {}

    if family in ("sign", "projection-threshold"):
        A = rng.choice(np.array([-1, 1], dtype=np.int64), size=(r, n))
    elif family == "rounded-gaussian":
        s = float(params.get("entry_std", math.sqrt(n)))
        A = np.rint(rng.standard_normal((r, n)) * s).astype(np.int64)
        if int(np.max(np.abs(A))) > n * n:
            raise BadParams(
                f"entry_std={s} produced entries beyond the poly(n) cap {n * n}"
            )
        if not np.any(A):
            raise BadParams("rounded-gaussian entries all zero; increase entry_std")
    elif family == "countsketch":
        reps = int(params.get("reps", max(1, r // 8)))
        if r % reps != 0:
            raise BadParams(f"reps={reps} must divide r={r}")
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
        g = int(params.get("groups", min(5, r)))
        groups = np.array_split(np.arange(r), g)
        est["groups"] = groups
        est["median_correction"] = _median_correction(
            [len(grp) for grp in groups], derive(seed, "sketch-cal", family)
        )
        params["groups"] = g
    elif family == "countsketch":
        est["median_correction"] = _median_correction(
            [r // params["reps"]] * params["reps"],
            derive(seed, "sketch-cal", family),
        )
    elif family == "projection-threshold":
        if "alpha" not in params or "B" not in params:
            raise BadParams("projection-threshold needs params alpha and B")
        est.update(
            _calibrate_projection_threshold(
                Q, R, n, r, float(params["alpha"]), float(params["B"]),
                derive(seed, "sketch-cal", family),
                m_cal=int(params.get("m_cal", 4000)),
            )
        )

    sk = IntegerSketch(
        A=IntMatrix.from_rows(A),
        seed=int(seed),
        family=family,
        params=params,
        Q=Q,
        R=R,
        estimator=est,
    )
    return sk


class GapNormOracle:
    """Query interface handed to the attack: bits only, no access to A.

    A batch of queries X is answered from the exact sketched values A X^T
    (`IntegerSketch.apply_batch`) through the sketch's estimator.
    """

    def __init__(self, sketch: IntegerSketch, params: GapNormParams):
        self._sketch = sketch
        self.params = params
        self.query_count = 0

    @property
    def n(self):
        return self._sketch.n

    def query_batch(self, X):
        Y = self._sketch.apply_batch(X)
        self.query_count += Y.shape[0]
        return self._sketch.gap_bits(Y, self.params)


class ExactNormOracle:
    """Negative control: answers from the true squared norm of the query.

    Default threshold 3 alpha n sits between the verifier's low-side window
    3 alpha (n-d) and the high-side demands at sigma^2 >= alpha B / 2 for the
    desk-scale B used here, so this oracle admits no failure certificate.
    """

    def __init__(self, n, params: GapNormParams, threshold=None):
        self.n = n
        self.params = params
        self.threshold = float(threshold if threshold is not None
                               else 3.0 * params.alpha * n)
        self.query_count = 0

    def query_batch(self, X):
        X = np.asarray(X, dtype=float)
        self.query_count += X.shape[0]
        return (np.sum(X * X, axis=1) >= self.threshold).astype(np.int8)
