import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import jacobi_svd, ref_cholesky_qr2
from sketchlab import sketch
from sketchlab.errors import DegenerateResidual, RankDeficient
from sketchlab.numerics import (
    RANK_PIVOT_REL,
    OrthonormalBasis,
    gram_schmidt_residual,
    orthonormalize_rows,
    top_eigenpair,
    top_right_singular_vector,
)
from sketchlab.rng import derive
from test_streams import straddling_batch


class TestGramSchmidtResidual:
    def test_axis_case(self):
        basis = OrthonormalBasis(2, [np.array([1.0, 0.0])])
        r = gram_schmidt_residual(np.array([1.0, 1.0]), basis)
        assert np.allclose(r, [0.0, 1.0])

    def test_in_span_raises(self):
        basis = OrthonormalBasis(2, [np.array([1.0, 0.0])])
        with pytest.raises(DegenerateResidual):
            gram_schmidt_residual(np.array([2.0, 0.0]), basis)

    def test_random_matches_qr_oracle(self):
        rng = derive(1, "gs")
        B = np.linalg.qr(rng.standard_normal((8, 3)))[0].T
        basis = OrthonormalBasis(8, list(B))
        v = rng.standard_normal(8)
        r = gram_schmidt_residual(v, basis)
        assert np.max(np.abs(B @ r)) <= 1e-9
        # oracle: QR factorization of [basis; v] reveals the residual direction
        Q = np.linalg.qr(np.vstack([B, v]).T)[0]
        oracle_dir = Q[:, 3]
        assert min(np.linalg.norm(r - oracle_dir), np.linalg.norm(r + oracle_dir)) <= 1e-8

    def test_empty_basis_normalizes(self):
        basis = OrthonormalBasis.empty(3)
        r = gram_schmidt_residual(np.array([0.0, 2.0, 0.0]), basis)
        assert np.allclose(r, [0, 1, 0])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_pythagorean_identity(self, seed):
        rng = derive(seed, "pyth")
        k = int(rng.integers(1, 4))
        B = np.linalg.qr(rng.standard_normal((6, k)))[0].T
        basis = OrthonormalBasis(6, list(B))
        v = rng.standard_normal(6) * float(rng.uniform(0.1, 10))
        pv = basis.project(v)
        rv = v - pv
        lhs = v @ v
        rhs = pv @ pv + rv @ rv
        assert abs(lhs - rhs) <= 1e-8 * max(lhs, 1.0)


class TestTopRightSingularVector:
    def test_diagonal(self):
        v, s = top_right_singular_vector(np.diag([3.0, 1.0]))
        assert abs(s - 3.0) < 1e-9
        assert abs(abs(v[0]) - 1.0) < 1e-9

    def test_rank_one(self):
        rng = derive(2, "rank1")
        u0 = rng.standard_normal(5)
        v0 = rng.standard_normal(3)
        v, s = top_right_singular_vector(np.outer(u0, v0))
        vn = v0 / np.linalg.norm(v0)
        assert abs(abs(v @ vn) - 1.0) < 1e-9
        assert abs(s - np.linalg.norm(u0) * np.linalg.norm(v0)) < 1e-8 * s

    def test_identical_rows(self):
        x = np.array([1.0, -2.0, 2.0])
        M = np.tile(x, (6, 1))
        v, s = top_right_singular_vector(M)
        assert abs(abs(v @ x / np.linalg.norm(x)) - 1.0) < 1e-10

    def test_random_matches_jacobi_oracle(self):
        rng = derive(2, "jsvd")
        M = rng.standard_normal((5, 3))
        v, s = top_right_singular_vector(M)
        svals, V = jacobi_svd(M)
        assert abs(abs(v @ V[:, 0]) - 1.0) <= 1e-8
        assert abs(s - svals[0]) <= 1e-8 * svals[0]
        # dominance over random unit directions
        for _ in range(50):
            w = rng.standard_normal(3)
            w /= np.linalg.norm(w)
            assert s >= np.linalg.norm(M @ w) - 1e-6 * s

    def test_eigenvalue_relation(self):
        rng = derive(2, "eig")
        M = rng.standard_normal((6, 4))
        v, s = top_right_singular_vector(M)
        svals, _ = jacobi_svd(M)
        lam = svals[0] ** 2
        assert abs(s**2 - lam) <= 1e-8 * lam

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            top_right_singular_vector(np.zeros((3, 3)))

    def test_near_degenerate_matches_jacobi_oracle(self):
        # sigma_2 / sigma_1 = 0.99: an iteration that stops on the Rayleigh
        # quotient leaves the vector off by ~1e-4 here
        rng = derive(2, "near-degenerate")
        U = np.linalg.qr(rng.standard_normal((4, 3)))[0]
        W = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        M = U @ np.diag([1.0, 0.99, 0.3]) @ W.T
        v, s = top_right_singular_vector(M)
        svals, V = jacobi_svd(M)
        assert min(np.linalg.norm(v - V[:, 0]), np.linalg.norm(v + V[:, 0])) <= 1e-12
        assert abs(s - svals[0]) <= 1e-12


class TestTopEigenpair:
    def test_indefinite_takes_largest_algebraic(self):
        lam, v = top_eigenpair(np.diag([1.0, -5.0]))
        assert lam == pytest.approx(1.0, abs=1e-15)
        assert np.array_equal(v, [1.0, 0.0])

    def test_sign_rule(self):
        rng = derive(2, "sign-rule")
        for _ in range(20):
            X = rng.standard_normal((5, 5))
            S = X + X.T
            lam, v = top_eigenpair(S)
            lam2, v2 = top_eigenpair(S)
            assert lam == lam2 and np.array_equal(v, v2)
            assert v[np.argmax(np.abs(v))] > 0
            assert np.linalg.norm(S @ v - lam * v) <= 1e-12 * np.linalg.norm(S)
        # on a tie in magnitude the first entry is the positive one
        _, v = top_eigenpair(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert v[0] > 0 > v[1]


class TestOrthonormalizeRows:
    def test_scaled_identity(self):
        Q, R = orthonormalize_rows(np.array([[2.0, 0.0], [0.0, 3.0]]))
        assert np.allclose(Q, np.eye(2), atol=1e-12)
        assert np.allclose(R @ np.diag([2.0, 3.0]), Q, atol=1e-12)

    def test_hadamard_rows(self):
        A = np.array([[1.0, 1.0], [1.0, -1.0]])
        Q, _ = orthonormalize_rows(A)
        assert np.allclose(Q, A / np.sqrt(2), atol=1e-12)

    def test_random_integer_matrix(self):
        rng = derive(3, "orth")
        A = rng.integers(-9, 10, size=(4, 16)).astype(float)
        Q, R = orthonormalize_rows(A)
        assert np.max(np.abs(Q @ Q.T - np.eye(4))) <= 1e-9
        assert np.max(np.abs(R @ A - Q)) <= 1e-8
        # rowspan preserved: projector comparison oracle (SVD-based)
        U, s, Vt = np.linalg.svd(A)
        P_oracle = Vt[:4].T @ Vt[:4]
        assert np.max(np.abs(Q.T @ Q - P_oracle)) <= 1e-8

    def test_rank_deficient(self):
        for A in ([[1.0, 2.0], [2.0, 4.0]], np.zeros((2, 3)), np.eye(3)[:, :2]):
            with pytest.raises(RankDeficient):
                orthonormalize_rows(A)

    def test_idempotence(self):
        rng = derive(3, "idem")
        A = rng.integers(-5, 6, size=(3, 8)).astype(float)
        Q, _ = orthonormalize_rows(A)
        Q2, _ = orthonormalize_rows(Q)
        # rows match up to sign
        for q, q2 in zip(Q, Q2):
            assert min(np.linalg.norm(q - q2), np.linalg.norm(q + q2)) <= 1e-9


class TestForwardSolve:
    """orthonormalize_rows against the Cholesky QR2 reference, which solves
    its triangular systems by forward substitution. Q and R may differ from
    it in their last bits, so the sketches and their oracle bits are
    compared, not the bytes."""

    @staticmethod
    def build_both(monkeypatch, family, n, alpha, B):
        params = {"alpha": alpha, "B": B}
        sk = sketch.build_sketch(family, n, 8, params, seed=n)
        with monkeypatch.context() as m:
            m.setattr(sketch, "orthonormalize_rows", ref_cholesky_qr2)
            ref = sketch.build_sketch(family, n, 8, params, seed=n)
        return sk, ref

    @pytest.mark.parametrize("family", sketch.FAMILIES)
    @pytest.mark.parametrize("n", (64, 128, 256))
    def test_matches_lapack_on_sketches(self, monkeypatch, family, n):
        alpha, B = 200.0, 8.0
        sk, ref = self.build_both(monkeypatch, family, n, alpha, B)
        assert np.array_equal(sk.A.entries, ref.A.entries)
        for got, want in ((sk.Q, ref.Q), (sk.R, ref.R)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.max(np.abs(sk.Q @ sk.Q.T - np.eye(8))) <= 1e-12
        if "tau" in ref.estimator:
            assert abs(sk.estimator["tau"] / ref.estimator["tau"] - 1.0) <= 1e-12
        X = straddling_batch(family, n, alpha, B)
        params = sketch.GapNormParams(B=B, alpha=alpha)
        bits = sketch.GapNormOracle(sk, params).query_batch(X)
        assert 0 < np.sum(bits) < bits.size
        assert np.array_equal(bits, sketch.GapNormOracle(ref, params).query_batch(X))

    @pytest.mark.parametrize("factor", (4.0, 0.25))
    def test_rank_threshold(self, factor):
        # orthonormal rows scaled by 1 and d: ||A||_2 = 1 and L's diagonal is
        # (1, d), with d `factor` times the pivot threshold
        rows = np.linalg.qr(derive(3, "rank-threshold").standard_normal((6, 2)))[0].T
        A = np.diag([1.0, factor * RANK_PIVOT_REL]) @ rows
        if factor > 1.0:
            Q, R = orthonormalize_rows(A)
            assert np.max(np.abs(Q - ref_cholesky_qr2(A)[0])) <= 1e-9
            assert np.max(np.abs(Q - rows)) <= 1e-9
            assert np.max(np.abs(R @ A - Q)) <= 1e-9
        else:
            with pytest.raises(RankDeficient):
                orthonormalize_rows(A)
            with pytest.raises(ValueError):
                ref_cholesky_qr2(A)
