import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_closest_lattice_point,
    brute_shortest_lattice_vector,
    enumerate_integer_kernel,
    ref_kernel_basis_int,
    ref_lll_reduce_int,
    ref_row_hnf,
)
from sketchlab import acceptance, dgauss, intlinalg, lattice
from sketchlab.errors import (
    BoundViolated,
    DegenerateLattice,
    DependentInput,
    FullRank,
    Int64Overflow,
    LengthBoundUnachieved,
    SketchLabError,
    TooManyRows,
)
from sketchlab.intlinalg import norm_sq, row_hnf, same_lattice
from sketchlab.lattice import (
    CellRounder,
    IntMatrix,
    KernelBasis,
    fundamental_cell_uniform,
    integer_kernel_basis,
    pairwise_reduced_kernel,
    preprocess_sketch,
    reduce_basis,
    reduced_kernel_basis,
    short_kernel_vector,
)
from sketchlab.rng import derive
from sketchlab.sketch import FAMILIES, build_sketch


class TestIntegerKernelBasis:
    def test_coordinate_kernel(self):
        kb = integer_kernel_basis(IntMatrix.from_rows([[1, 0, 0], [0, 1, 0]]))
        assert kb.vectors == [[0, 0, 1]] or kb.vectors == [[0, 0, -1]]

    def test_two_ones(self):
        kb = integer_kernel_basis(IntMatrix.from_rows([[1, 1]]))
        assert sorted(map(abs, kb.vectors[0])) == [1, 1]

    def test_2_3_5_lattice_index_one(self):
        A = [[2, 3, 5]]
        kb = integer_kernel_basis(IntMatrix.from_rows(A))
        assert len(kb) == 2
        for v in kb.vectors:
            assert 2 * v[0] + 3 * v[1] + 5 * v[2] == 0
        # enumeration oracle: every small integer kernel point lies in the
        # lattice generated by the basis (index 1)
        for pt in enumerate_integer_kernel(A, 10):
            assert same_lattice(kb.vectors, kb.vectors + [list(pt)])

    def test_full_rank_raises(self):
        with pytest.raises(FullRank):
            integer_kernel_basis(IntMatrix.from_rows([[1, 0], [0, 1]]))

    def test_exactness_random(self):
        rng = derive(5, "kern")
        for _ in range(20):
            r, n = int(rng.integers(1, 5)), int(rng.integers(6, 14))
            A = rng.integers(-50, 51, size=(r, n))
            kb = integer_kernel_basis(IntMatrix.from_rows(A))
            kb.check_against(IntMatrix.from_rows(A))  # exact A v = 0
            assert len(kb) == n - np.linalg.matrix_rank(A.astype(float))


class TestShortKernelVector:
    def test_all_ones(self):
        v = short_kernel_vector(IntMatrix.from_rows([[1, 1, 1]], bound=1))
        assert max(abs(x) for x in v) <= 1
        assert sum(v) == 0

    def test_2_3(self):
        v = short_kernel_vector(IntMatrix.from_rows([[2, 3]], bound=3))
        assert sorted(map(abs, v)) == [2, 3]
        assert 2 * v[0] + 3 * v[1] == 0

    def test_coordinate(self):
        v = short_kernel_vector(IntMatrix.from_rows([[1, 0]]))
        assert [abs(x) for x in v] == [0, 1]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_siegel_bound_random(self, seed):
        rng = derive(seed, "siegel-prop")
        n = int(rng.integers(2, 25))
        r = int(rng.integers(1, max(2, n // 2 + 1)))
        M = int(rng.integers(1, 101))
        A = rng.integers(-M, M + 1, size=(r, n))
        if not np.any(A):
            A[0, 0] = 1
        v = short_kernel_vector(IntMatrix.from_rows(A, bound=M))
        # exact integer form of linf(v) <= (nM)^(r/(n-r))
        linf = max(abs(int(x)) for x in v)
        assert linf ** (n - r) <= (n * M) ** r
        assert all(int(np.dot(A[i], v)) == 0 for i in range(r))

    def test_unreduced_basis_raises_bound_violated(self, monkeypatch):
        # x + y + z = 0 has the kernel vector (1, -1, 0) with linf 1 = the
        # Siegel bound (3 * 1)^(1/2) rounded down; a skewed basis of the
        # same lattice has no member that short
        A = IntMatrix.from_rows([[1, 1, 1]], bound=1)
        monkeypatch.setattr(lattice, "reduce_basis", skew_basis)
        with pytest.raises(BoundViolated):
            short_kernel_vector(A)


class TestReduceBasis:
    def test_identity_unchanged(self):
        out = reduce_basis([[1, 0], [0, 1]])
        assert sorted(tuple(map(abs, v)) for v in out) == [(0, 1), (1, 0)]

    def test_hand_reduction(self):
        out = reduce_basis([[1, 0], [5, 1]])
        assert sorted(norm_sq(v) for v in out) == [1, 1]
        assert same_lattice(out, [[1, 0], [0, 1]])

    def test_dependent_raises(self):
        with pytest.raises(DependentInput):
            reduce_basis([[1, 2], [2, 4]])

    def test_random_4dim_near_shortest(self):
        rng = derive(6, "red")
        for _ in range(10):
            B = rng.integers(-20, 21, size=(4, 4))
            while abs(np.linalg.det(B.astype(float))) < 0.5:
                B = rng.integers(-20, 21, size=(4, 4))
            out = reduce_basis(B)
            assert same_lattice(B.tolist(), out)
            shortest = math.sqrt(norm_sq(out[0]))
            brute = brute_shortest_lattice_vector(out, coeff_bound=2)
            assert shortest <= 2 ** 1.5 * brute + 1e-9

    def test_sorted_by_norm(self):
        out = reduce_basis([[7, 1, 0], [1, 0, 3], [0, 5, 1]])
        norms = [norm_sq(v) for v in out]
        assert norms == sorted(norms)


class TestLllInt64Mirror:
    """lll_reduce_int's output must be the reference Python-integer LLL's,
    vector for vector, on kernels and on entries far past int64."""

    def test_siegel_instances_match_reference(self):
        # criterion 3's generator
        rng = derive(3, "siegel")
        for _ in range(100):
            n = int(rng.integers(2, 25))
            r = int(rng.integers(1, max(2, n // 2 + 1)))
            M = int(rng.integers(1, 101))
            A = rng.integers(-M, M + 1, size=(r, n))
            if not np.any(A):
                A[0, 0] = 1
            vecs = integer_kernel_basis(IntMatrix.from_rows(A, bound=M)).vectors
            assert intlinalg.lll_reduce_int(vecs) == ref_lll_reduce_int(vecs)

    @pytest.mark.parametrize("n", [64, 128])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_family_kernels_match_reference(self, family, n):
        params = {"alpha": 1.0, "B": 8.0, "m_cal": 16} if family == "projection-threshold" else {}
        vecs = integer_kernel_basis(build_sketch(family, n, 8, params, seed=0).A).vectors
        ref = ref_lll_reduce_int(vecs)
        assert intlinalg.lll_reduce_int(vecs) == ref
        assert reduce_basis(vecs) == sorted(ref, key=norm_sq)

    def test_above_guard_matches_reference(self):
        rng = derive(11, "lll-guard")
        # entries near 2^70
        for _ in range(5):
            B = [[int(x) << 41 for x in row]
                 for row in rng.integers(-2**29, 2**29 + 1, size=(6, 8))]
            assert intlinalg.lll_reduce_int(B) == ref_lll_reduce_int(B)
        # entries near 2^29 at n = 8, whose inner products pass 2^62
        for _ in range(40):
            B = rng.integers(-2**29, 2**29 + 1, size=(6, 8)).tolist()
            assert intlinalg.lll_reduce_int(B) == ref_lll_reduce_int(B)
        # one kernel row v_5 + 2^40 v_0, far longer than the rest
        vecs = integer_kernel_basis(family_sketch("sign", 32).A).vectors
        skewed = [list(v) for v in vecs]
        skewed[5] = [a + 2**40 * c for a, c in zip(vecs[5], vecs[0])]
        assert intlinalg.lll_reduce_int(skewed) == ref_lll_reduce_int(skewed)

    @pytest.mark.parametrize("scale", [1, 2**40])
    def test_check_against_exact_in_both_regimes(self, scale):
        A = IntMatrix.from_rows([[1, 2, 3], [0, 1, -1]])
        good = KernelBasis(3, [[-5 * scale, scale, scale]], 0.0)
        good.check_against(A)
        bad = KernelBasis(3, [[-5 * scale, scale, scale], [-5 * scale, scale, scale + 1]], 0.0)
        assert (intlinalg.int64_rows(bad.vectors) is None) == (scale > 1)
        with pytest.raises(AssertionError):
            bad.check_against(A)
        KernelBasis(3, [], 0.0).check_against(A)  # nothing to annihilate

    def test_reduce_basis_check_on_family_kernel(self):
        A = build_sketch("sign", 64, 8, seed=0).A
        vecs = integer_kernel_basis(A).vectors
        out = reduce_basis(vecs)
        assert same_lattice(vecs, out)
        KernelBasis(64, out, 0.0).check_against(A)


class TestArrayElimination:
    """kernel_basis_int and row_hnf run their row operations as int64 array
    steps, widening to Python integers near the guard; the output must be
    the list-based reference's, vector for vector."""

    def test_siegel_instances_match_reference(self):
        # criterion 3's generator
        rng = derive(3, "siegel")
        for _ in range(100):
            n = int(rng.integers(2, 25))
            r = int(rng.integers(1, max(2, n // 2 + 1)))
            M = int(rng.integers(1, 101))
            A = rng.integers(-M, M + 1, size=(r, n)).tolist()
            assert intlinalg.kernel_basis_int(A) == ref_kernel_basis_int(A)
            assert row_hnf(A) == ref_row_hnf(A)

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_family_kernels_match_reference(self, family, n):
        A = family_sketch(family, n).A.to_lists()
        vecs = intlinalg.kernel_basis_int(A)
        assert vecs == ref_kernel_basis_int(A)
        assert all(type(x) is int for v in vecs for x in v)

    def test_large_entries_widen_and_match_reference(self, monkeypatch):
        widened = []
        real = intlinalg._gcd_eliminate_column

        def spy(W, col, start):
            before = W.dtype
            W, piv = real(W, col, start)
            widened.append((before, W.dtype))
            return W, piv

        monkeypatch.setattr(intlinalg, "_gcd_eliminate_column", spy)
        rng = derive(12, "elim-guard")
        for bits in (40, 58, 60, 61, 62, 70):
            for _ in range(10):
                r = int(rng.integers(1, 4))
                n = int(rng.integers(r + 1, 8))
                A = [[int(x) << (bits - 20) for x in row]
                     for row in rng.integers(-2**20, 2**20 + 1, size=(r, n))]
                A[0][0] += 1  # an odd entry keeps the kernel from scaling trivially
                assert intlinalg.kernel_basis_int(A) == ref_kernel_basis_int(A)
                assert row_hnf(A) == ref_row_hnf(A)
        int64 = np.dtype(np.int64)
        assert (int64, np.dtype(object)) in widened  # widened during a run
        assert (int64, int64) in widened and (np.dtype(object),) * 2 in widened


class TestPreprocessSketch:
    def test_all_ones_row(self):
        A = IntMatrix.from_rows([[1, 1, 1, 1]], bound=1)
        Ap, kb = preprocess_sketch(A)
        assert Ap.rows <= 4
        assert len(kb) >= 3
        assert kb.certified_max_len <= math.sqrt(4) * 1
        kb.check_against(Ap)

    def test_identity_prefix_short_circuits(self):
        rows = np.zeros((2, 16), dtype=np.int64)
        rows[0, 0] = rows[1, 1] = 1
        Ap, kb = preprocess_sketch(IntMatrix.from_rows(rows))
        assert Ap.rows == 2  # already satisfies the bound, no rows added
        assert len(kb) == 14
        assert kb.certified_max_len <= 1.0 + 1e-12

    def test_forced_row_addition(self):
        A = IntMatrix.from_rows([[1, 1, 1, 1, 1, 1, 1, 1]], bound=1)
        Ap, kb = preprocess_sketch(A, short_circuit=False)
        assert Ap.rows == 4  # r + 3r rows
        assert len(kb) == 4  # n - 4r
        assert kb.certified_max_len <= math.sqrt(8)
        kb.check_against(Ap)  # orthogonal to original and added rows
        # A' contains A's rows verbatim
        assert Ap.to_lists()[0] == [1] * 8

    def test_int64_storage_overflow_is_typed(self):
        # stacked Siegel rows outgrow int64 on this input; the failure names
        # the storage limit instead of escaping as a bare OverflowError
        A = IntMatrix.from_rows(derive(4, "prep").integers(-50, 51, size=(3, 32)), bound=50)
        with pytest.raises(Int64Overflow, match="int64"):
            preprocess_sketch(A, short_circuit=False)
        with pytest.raises(SketchLabError):
            IntMatrix.from_rows([[2**63, 0]])

    def test_too_many_rows(self):
        with pytest.raises(TooManyRows):
            preprocess_sketch(IntMatrix.from_rows(np.eye(3, 8, dtype=np.int64)))

    def test_unreduced_basis_raises_length_bound_unachieved(self, monkeypatch):
        # a skewed basis of the all-ones row's kernel: all but one vector
        # longer than sqrt(n) M, so the n - 4r shortest miss the target
        A = IntMatrix.from_rows([[1] * 8], bound=1)
        monkeypatch.setattr(lattice, "reduce_basis", skew_basis)
        with pytest.raises(LengthBoundUnachieved) as err:
            preprocess_sketch(A)
        assert err.value.achieved > err.value.target == math.sqrt(8)

    def test_random_batch_meets_bound(self):
        rng = derive(7, "prep")
        target = math.sqrt(32) * 50
        ok = 0
        for _ in range(20):
            A = rng.integers(-50, 51, size=(3, 32))
            _, kb = preprocess_sketch(IntMatrix.from_rows(A, bound=50))
            ok += int(kb.certified_max_len <= target)
        assert ok >= 19


class TestReducedKernelBasis:
    def test_is_the_sorted_lll_kernel(self):
        A = family_sketch("sign", 64).A
        kb = reduced_kernel_basis(A)
        assert kb.vectors == reduce_basis(integer_kernel_basis(A).vectors)
        kb.check_against(A)
        # the length cell_lemma_check and preprocess_sketch certify
        assert kb.certified_max_len == max(math.sqrt(norm_sq(v)) for v in kb.vectors)
        assert preprocess_sketch(A)[1].certified_max_len == kb.certified_max_len


def skew_basis(vecs):
    """The lattice of `vecs` from the unimodular, unreduced basis v_0 + 5 v_1,
    v_i + 7 (v_0 + 5 v_1) for i >= 1, sorted by norm as reduce_basis sorts."""
    vecs = [list(map(int, v)) for v in vecs]
    w0 = [a + 5 * b for a, b in zip(vecs[0], vecs[1])]
    out = [w0] + [[a + 7 * b for a, b in zip(v, w0)] for v in vecs[1:]]
    return sorted(out, key=norm_sq)


def family_sketch(family, n, seed=0):
    """A sketch of each family as `acceptance.attack_setup` probes it."""
    params = {"alpha": 1.0, "B": 8.0, "m_cal": 16} if family == "projection-threshold" else {}
    return build_sketch(family, n, 8, params, seed=seed)


def lll_alpha(sketch):
    """auto_alpha's value when ell always comes from kernel + LLL."""
    _, kb = preprocess_sketch(sketch.A)
    ell = max(kb.certified_max_len, 1.0)
    return max(dgauss.smoothing_sigma2(sketch.n, ell**2), floor(sketch.n))


def floor(n):
    return dgauss.smoothing_sigma2(n, dgauss.SAMPLING_FLOOR_ELL_SQ)


@pytest.fixture
def lll_calls(monkeypatch):
    """Counts lattice.reduce_basis calls."""
    calls = []
    real = lattice.reduce_basis
    monkeypatch.setattr(lattice, "reduce_basis",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    return calls


class TestAutoAlpha:
    """auto_alpha certifies the sampling floor from the pairwise-reduced
    kernel basis and runs LLL only when that basis does not reach it."""

    @pytest.mark.parametrize("n", [64, 128])
    @pytest.mark.parametrize("family,lll", [("projection-threshold", 0), ("sign", 0),
                                            ("countsketch", 0), ("rounded-gaussian", 1)])
    def test_alpha_equals_lll_alpha(self, lll_calls, family, lll, n):
        sk = family_sketch(family, n)
        alpha, _ = acceptance.auto_alpha(sk)
        assert len(lll_calls) == lll
        assert alpha == lll_alpha(sk)

    def test_cli_n256_config(self, lll_calls):
        # the sketch `attack-cli-n256` attacks at root seed 7
        sk = family_sketch("projection-threshold", 256, seed=7)
        alpha, ell = acceptance.auto_alpha(sk)
        assert lll_calls == []
        assert alpha == lll_alpha(sk) == floor(256)
        assert ell * ell < 32

    @pytest.mark.parametrize("family", ["projection-threshold", "sign", "countsketch"])
    def test_fast_path_basis_is_certified(self, family):
        A = family_sketch(family, 64).A
        kb = pairwise_reduced_kernel(A, 32)
        assert kb is not None and len(kb) == 64 - 8
        rows = A.to_lists()
        assert all(intlinalg.dot(a, v) == 0 for a in rows for v in kb.vectors)
        norms = [norm_sq(v) for v in kb.vectors]
        assert max(norms) < 32
        assert kb.certified_max_len == math.sqrt(max(norms))
        assert same_lattice(kb.vectors, integer_kernel_basis(A).vectors)

    def test_too_many_rows_still_raises(self):
        with pytest.raises(TooManyRows):
            acceptance.auto_alpha(family_sketch("sign", 16))

    def test_lattice_bound_sketch_returns_none(self):
        assert pairwise_reduced_kernel(family_sketch("rounded-gaussian", 64).A, 32) is None

    @pytest.mark.parametrize("shift,lll", [(2**10, 0), (2**40, 1)])
    def test_basis_past_int64_guard_falls_back_to_lll(self, monkeypatch, lll_calls, shift, lll):
        # the same lattice from a basis v_0, v_k + shift v_0: below the guard
        # the pass undoes the shift; past it the pass is abandoned for LLL
        sk = family_sketch("sign", 32)
        kb = integer_kernel_basis(sk.A)
        v0 = kb.vectors[0]
        skewed = [v0] + [[a + shift * b for a, b in zip(v, v0)] for v in kb.vectors[1:]]
        assert (intlinalg.int64_rows(skewed) is None) == (shift > 2**20)
        monkeypatch.setattr(lattice, "integer_kernel_basis",
                            lambda A: KernelBasis(A.cols, skewed, 0.0))
        assert (pairwise_reduced_kernel(sk.A, 32) is None) == bool(lll)
        alpha, _ = acceptance.auto_alpha(sk)
        assert len(lll_calls) == lll
        assert alpha == floor(32) == lll_alpha(sk)


class TestCellRounder:
    def test_round_identity_lattice(self):
        rounder = CellRounder(np.eye(2, dtype=np.int64))
        _, p = rounder.round(np.array([0.6, -1.4]))
        assert p.tolist() == [1, -1]

    def test_round_even_lattice(self):
        rounder = CellRounder(2 * np.eye(2, dtype=np.int64))
        _, p = rounder.round(np.array([0.9, 0.9]))
        assert p.tolist() == [0, 0]

    def test_round_matches_bruteforce(self):
        rng = derive(8, "cvp")
        for _ in range(15):
            A = rng.integers(-6, 7, size=(2, 6))
            try:
                rounder = CellRounder(A)
            except DegenerateLattice:
                continue
            y = rng.uniform(-20, 20, size=2)
            _, p = rounder.round(y)
            oracle_p, oracle_d = brute_closest_lattice_point(rounder.basis, y)
            assert abs(np.linalg.norm(p - y) - oracle_d) <= 1e-9

    def test_round_idempotent_on_lattice_points(self):
        rng = derive(8, "idem")
        A = rng.integers(-5, 6, size=(3, 7))
        rounder = CellRounder(A)
        for _ in range(10):
            z = rng.integers(-4, 5, size=7)
            pt = (A @ z).astype(float)
            _, p = rounder.round(pt)
            assert np.allclose(p, pt)
            _, p2 = rounder.round(p.astype(float))
            assert np.array_equal(p, p2)

    def test_degenerate(self):
        with pytest.raises(DegenerateLattice):
            CellRounder(np.array([[1, 2], [2, 4]], dtype=np.int64))

    def test_unit_distances_are_row_gcds(self):
        r = CellRounder(np.array([[2, 4, 6], [3, 5, 7]], dtype=np.int64))
        assert r.unit_distances.tolist() == [2, 1]


class TestFundamentalCellUniform:
    def test_z1_uniform_mean(self):
        rounder = CellRounder(np.eye(1, dtype=np.int64))
        rng = derive(9, "cell1")
        eta = fundamental_cell_uniform(rounder, rng, size=100_000)
        assert abs(float(np.mean(eta)) - 0.5) <= 0.01
        assert float(np.min(eta)) >= 0.0 and float(np.max(eta)) < 1.0

    def test_z2_cell_base_recovers(self):
        rounder = CellRounder(np.eye(2, dtype=np.int64))
        rng = derive(9, "cell2")
        p = np.array([3.0, -2.0])
        eta = fundamental_cell_uniform(rounder, rng, size=100_000)
        bases = rounder.cell_base_batch(p[None, :] + eta)
        frac = float(np.mean(np.all(bases == p, axis=1)))
        assert frac >= 0.999

    def test_general_lattice_cell_base_recovers(self):
        A = np.array([[2, 1, 0], [0, 1, 3]], dtype=np.int64)
        rounder = CellRounder(A)
        rng = derive(9, "cell3")
        z = rng.integers(-3, 4, size=(200, 3))
        pts = (z @ A.T).astype(float)
        eta = fundamental_cell_uniform(rounder, rng, size=200)
        rec = rounder.cell_base_batch(pts + eta)
        assert np.mean(np.all(rec == pts, axis=1)) >= 0.995

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateLattice):
            CellRounder(np.array([[1, 1], [1, 1]], dtype=np.int64))


class TestHnfEquality:
    def test_lattice_preservation_is_canonical(self):
        rng = derive(10, "hnf")
        B = rng.integers(-9, 10, size=(3, 5))
        while np.linalg.matrix_rank(B.astype(float)) < 3:
            B = rng.integers(-9, 10, size=(3, 5))
        R = reduce_basis(B)
        assert row_hnf(B.tolist()) == row_hnf(R)
