"""Correctness checks for the benchmark's workloads.

Every check recomputes what it tests with the benchmark's own numpy or exact
Python integers, or tests a property the method must have; none compares
with a stored copy of earlier output. Each check returns a list of problems;
an empty list is a pass.
"""

import json
import math
import os

import numpy as np

# Disagreement between an oracle bit and the recomputed rule is allowed only
# this close to the threshold (relative), i.e. within floating-point rounding.
ROUNDING_REL = 1e-9
# Second moments of a fresh sampler batch must lie within this many standard
# errors of their expected values.
MOMENT_Z = 5.0


def exact_norm_sq(x):
    return sum(int(v) * int(v) for v in x)


def rowspan_energy(A, X):
    """||P_rowspan(A) x||^2 for each row x of X, from A alone.

    y = A x is exact in int64 for the sizes used here; the Gram matrix
    G = A A^T is exact too; ||P x||^2 = y^T G^{-1} y.
    """
    A = np.asarray(A, dtype=np.int64)
    X = np.asarray(X, dtype=np.int64)
    guard = int(np.max(np.abs(A))) * max(int(np.max(np.abs(X))), 1) * A.shape[1]
    if guard >= 2**62:
        raise ValueError("query entries too large for an exact int64 product")
    Y = X @ A.T
    G = A @ A.T
    W = np.linalg.solve(G.astype(float), Y.T.astype(float))
    return np.einsum("ij,ji->i", Y.astype(float), W)


def check_oracle_bits(A, tau, X, bits, straddle=True):
    """Each bit must equal ||P_rowspan(A) x||^2 >= tau. With ``straddle``
    both answers must occur, so the batch tests the threshold from both
    sides."""
    energy = rowspan_energy(A, X)
    expected = energy >= tau
    bits = np.asarray(bits).astype(bool)
    problems = []
    if bits.shape != expected.shape:
        return [f"oracle returned {bits.shape} bits for {expected.shape} queries"]
    near = np.abs(energy - tau) <= ROUNDING_REL * tau
    bad = np.nonzero((bits != expected) & ~near)[0]
    if bad.size:
        i = int(bad[0])
        problems.append(
            f"{bad.size} oracle bits disagree with ||P x||^2 >= tau; first at "
            f"query {i}: bit {int(bits[i])}, energy {energy[i]:.6g}, tau {tau:.6g}")
    if straddle and (expected.all() or not expected.any()):
        problems.append("oracle check batch does not straddle the threshold")
    return problems


def check_transcript(records, m):
    """rate * m must equal m_prime in every record."""
    problems = []
    for rec in records:
        mp = rec["m_prime"]
        if not isinstance(mp, int) or not 0 <= mp <= m:
            problems.append(f"m_prime {mp!r} is not an integer in [0, {m}]")
        elif abs(rec["rate"] * m - mp) > 1e-9 * m:
            problems.append(f"rate*m = {rec['rate'] * m} but m_prime = {mp}")
    return problems


def check_orthonormal(V, tol=1e-9):
    V = np.asarray(V, dtype=float)
    if V.size == 0:
        return []
    err = float(np.max(np.abs(V @ V.T - np.eye(V.shape[0]))))
    return [] if err <= tol else [f"learned basis not orthonormal: max |VV^T - I| = {err:.3g}"]


def check_subspace_moments(X, V, sigma2, z=MOMENT_Z):
    """Samples of D(V^perp, sigma^2) have per-direction second moment
    sigma^2/4 on V and sigma^2 off V. For Gaussian coordinates a squared
    projection has variance 2 s^4, which sets the standard errors."""
    X = np.asarray(X, dtype=float)
    V = np.asarray(V, dtype=float)
    M, n = X.shape
    k = V.shape[0]
    total = np.sum(X * X, axis=1)
    on = np.sum((X @ V.T) ** 2, axis=1) if k else np.zeros(M)
    problems = []
    bands = [("off V", (total - on) / (n - k), sigma2, n - k)]
    if k:
        bands.append(("on V", on / k, sigma2 / 4.0, k))
    for label, per_sample, expect, dims in bands:
        est = float(np.mean(per_sample))
        se = expect * math.sqrt(2.0 / (M * dims))
        if abs(est - expect) > z * se:
            problems.append(
                f"second moment {label} = {est:.6g}, expected {expect:.6g} "
                f"+- {z:g} x {se:.3g}")
    return problems


def exploit_window(side, alpha, B, n, d):
    """(answer the oracle gave, test on the exact squared norm)."""
    if side == "high":
        return 0, lambda s: s > alpha * B * (n - d) / 3.0
    return 1, lambda s: s < 3.0 * alpha * (n - d)


def check_exploits(exploits, cert, n):
    """Each exploit is an integer vector of length n whose exact squared norm
    lies in its side's window, with the recorded wrong answer."""
    answer, in_window = exploit_window(cert["side"], cert["alpha"], cert["B"],
                                       n, len(cert["subspace"]))
    problems = []
    for j, e in enumerate(exploits):
        x = e["x"]
        if len(x) != n or not all(type(v) is int for v in x):
            problems.append(f"exploit {j} is not an integer vector of length {n}")
            continue
        s = exact_norm_sq(x)
        if float(s) != e["norm_sq"]:
            problems.append(f"exploit {j}: recorded norm_sq {e['norm_sq']} != exact {s}")
        if not in_window(s):
            problems.append(f"exploit {j}: ||x||^2 = {s} outside the {cert['side']}-side window")
        if e["answer"] != answer or e["wrong"] is not True:
            problems.append(f"exploit {j}: answer {e['answer']} on the {cert['side']} side")
    return problems


def check_kernel_basis(A_rows, vectors, min_count=None, max_len_sq=None):
    """A v = 0 in exact integers for every v; with the pre-processing
    guarantees, at least ``min_count`` vectors each of squared length at most
    ``max_len_sq``."""
    rows = [[int(a) for a in row] for row in A_rows]
    problems = []
    for j, v in enumerate(vectors):
        v = [int(x) for x in v]
        if any(sum(a * b for a, b in zip(row, v)) != 0 for row in rows):
            problems.append(f"kernel vector {j} is not annihilated exactly")
        if max_len_sq is not None and exact_norm_sq(v) > max_len_sq:
            problems.append(f"kernel vector {j}: squared length {exact_norm_sq(v)} > {max_len_sq}")
    if min_count is not None and len(vectors) < min_count:
        problems.append(f"{len(vectors)} kernel vectors, fewer than {min_count}")
    return problems


# ---------------------------------------------------------------------------
# hard distributions: each family's separating statistic, recomputed
# ---------------------------------------------------------------------------

def _top_singular_values(X, count):
    """Singular values from the eigenvalues of X^T X (not the SVD the
    program uses)."""
    X = np.asarray(X, dtype=float)
    lam = np.linalg.eigvalsh(X.T @ X)[::-1][:count]
    return np.sqrt(np.maximum(lam, 0.0))


def reference_statistic(name, params, payload, witness):
    """(statistic, scale) for one instance; scale sets the tolerance."""
    x = np.asarray(payload)
    if name in ("lp-small", "lp-large"):
        p = params["p"]
        ax = np.abs(x.astype(float))
        stat = float(np.sum(ax ** p) ** (1.0 / p))
        return stat, stat
    if name in ("opnorm-alpha", "opnorm-eps", "eigen"):
        stat = float(_top_singular_values(x, 1)[0])
        return stat, stat
    if name == "kyfan":
        stat = float(np.sum(_top_singular_values(x, params["s"])))
        return stat, stat
    if name == "psd":
        lam = np.linalg.eigvals(x.astype(float)).real
        return float(np.min(lam)), float(np.max(np.abs(lam)))
    if name == "cs":
        mags = np.abs(x.astype(float))
        if "S" in witness:
            return float(np.min(mags[list(witness["S"])])), float(np.max(mags))
        return float(np.max(mags)), float(np.max(mags))
    raise ValueError(f"unknown family {name}")


def check_gap_statistic(name, params, instance, report, rel=1e-7):
    """The program's statistic must match the benchmark's recomputation."""
    ref, scale = reference_statistic(name, params, instance.payload, instance.witness)
    got = report["statistic"]
    if abs(got - ref) > rel * max(abs(scale), 1.0):
        return [f"{name} {instance.side}: statistic {got!r} != recomputed {ref!r}"]
    return []


def check_gap_rates(counts, min_share=0.95):
    """Both sides' events must hold in at least 95% of the pairs."""
    problems = []
    for name, (held, pairs) in counts.items():
        if held < min_share * pairs:
            problems.append(f"{name}: events held in {held}/{pairs} pairs (< 95%)")
    return problems


def check_tvd(small, large):
    problems = []
    if not small <= 0.15:
        problems.append(f"small-spike TVD {small:.4f} > 0.15")
    if not large >= 0.5:
        problems.append(f"large-spike TVD {large:.4f} < 0.5")
    return problems


# ---------------------------------------------------------------------------
# `sketchlab attack run` artefacts
# ---------------------------------------------------------------------------

def read_cli_artefacts(out_dir):
    def load(name):
        with open(os.path.join(out_dir, name)) as fh:
            return json.load(fh)

    with open(os.path.join(out_dir, "transcript.jsonl")) as fh:
        transcript = [json.loads(line) for line in fh if line.strip()]
    with open(os.path.join(out_dir, "summary.csv"), "rb") as fh:
        summary = fh.read()
    return {
        "report": load("report.json"),
        "certificates": load("certificate.json"),
        "exploits": load("exploits.json"),
        "transcript": transcript,
        "summary": summary,
    }


def check_cli_artefacts(art, seeds, n, m):
    """report.json must agree with certificate.json and exploits.json, each
    certificate's exploits must pass the exploit check, and every transcript
    record must satisfy rate * m = m_prime."""
    report, certs, expl = art["report"], art["certificates"], art["exploits"]
    problems = check_transcript(art["transcript"], m)
    if not (report["runs"] == len(certs) == len(expl) == len(seeds)):
        problems.append(f"report runs {report['runs']}, {len(certs)} certificates, "
                        f"{len(expl)} exploit entries, {len(seeds)} seeds")
        return problems
    if report["certificates"] != sum(c is not None for c in certs):
        problems.append("report.json certificate count disagrees with certificate.json")
    if report["verified"] != sum(1 for e in expl if e["exploits"]):
        problems.append("report.json verified count disagrees with exploits.json")
    if [e["run_seed"] for e in expl] != list(seeds):
        problems.append("exploits.json run seeds are not the config's seeds in order")
    for cert, entry in zip(certs, expl):
        if cert is None:
            if entry["exploits"]:
                problems.append(f"seed {entry['run_seed']}: exploits without a certificate")
            continue
        if cert["alpha"] != report["alpha"]:
            problems.append(f"seed {entry['run_seed']}: certificate alpha != report alpha")
        problems += check_exploits(entry["exploits"], cert, n)
    return problems
