import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_shortest_lattice_vector,
    enumerate_integer_kernel,
    ref_exact_product_float,
    ref_kernel_basis_int,
    ref_lll_reduce_int,
    ref_row_hnf,
    same_lattice,
)
from sketchlab import acceptance, dgauss, intlinalg, lattice
from sketchlab.errors import (
    BoundViolated,
    DegenerateLattice,
    DependentInput,
    FullRank,
    LengthBoundUnachieved,
    TooManyRows,
)
from sketchlab.intlinalg import norm_sq, row_hnf
from sketchlab.lattice import (
    CellRounder,
    IntMatrix,
    KernelBasis,
    fundamental_cell_uniform,
    integer_kernel_basis,
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

    def test_length_past_float64_is_an_upper_bound(self):
        # the kernel vector (2^600, -1) has squared length 2^1200 + 1, past
        # float64; its length is taken from the exact integer, rounded up
        A = IntMatrix.from_rows([[1, 2**600]])
        for kb in (integer_kernel_basis(A), reduced_kernel_basis(A)):
            assert [abs(x) for x in kb.vectors[0]] == [2**600, 1]
            bound = kb.certified_max_len
            assert math.isfinite(bound) and int(bound) ** 2 >= 2**1200 + 1
            assert bound <= 2**600 * (1 + 2**-50)
        assert lattice._length(2**2100) == math.inf
        assert lattice._length(48) == math.sqrt(48)  # below 2^53 as before

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


def py_product(X, Y):
    """X Y^T in Python integers, the reference for exact_product."""
    return [[sum(int(a) * int(b) for a, b in zip(x, y)) for y in Y] for x in X]


class TestExactProduct:
    """intlinalg.exact_product at the edges of its tiers; apply_batch's tests
    in test_sketch.py cover the tiers on sketch matrices."""

    def test_object_input_below_guard_is_int64(self):
        X = np.array([[1, -2, 3], [2**40, 0, -1]], dtype=object)
        Y = np.array([[4, 5, 6]], dtype=object)
        out = intlinalg.exact_product(X, Y)
        assert out.dtype == np.int64 and out.tolist() == py_product(X, Y)

    def test_empty_batch(self):
        Y = np.ones((3, 5), dtype=np.int64)
        assert intlinalg.exact_product(np.zeros((0, 5), dtype=np.int64), Y).shape == (0, 3)
        assert intlinalg.exact_product(Y, np.zeros((0, 5), dtype=object)).shape == (3, 0)

    # (n, max|X|, max|Y|) with n max|X| max|Y| exactly at each tier edge:
    # 2^53 - 1 = 6361 * 69431 * 20394401 and 2^62 - 1 = 3 * 715827883 * (2^31 - 1)
    @pytest.mark.parametrize("n,mx,my,dtype", [
        (6361, 69431, 20394401, np.int64),
        (8, 2**25, 2**25, np.int64),
        (3, 715827883, 2**31 - 1, np.int64),
        (4, 2**30, 2**30, object),
    ], ids=["2^53-1", "2^53", "2^62-1", "2^62"])
    def test_mixed_sign_sums_at_tier_edges(self, n, mx, my, dtype):
        signs = np.where(np.arange(n) % 2, -1, 1)
        X = np.stack([np.full(n, mx), mx * signs, -mx * signs]).astype(np.int64)
        X[2, -1] = 1 - mx  # the running sum turns back below its peak
        Y = np.stack([np.full(n, my), -my * signs]).astype(np.int64)
        bound = n * mx * my
        assert bound in (2**53 - 1, 2**53, 2**62 - 1, 2**62)
        out = intlinalg.exact_product(X, Y)
        assert out.dtype == np.dtype(dtype)
        assert out.tolist() == py_product(X, Y)
        assert max(abs(v) for row in out.tolist() for v in row) == bound

    def test_row_blocks_give_the_whole_batch_product(self):
        # rows of X per block: _PRODUCT_BLOCK // 256 = 256, so 1,000 rows run
        # as three whole blocks and a part, in the float64 tier with its
        # bound n max|X| max|Y| just below 2^53
        n, r = 256, 8
        rng = np.random.default_rng(34)
        mx = (intlinalg.FLOAT64_EXACT - 1) // (n * 7)
        X = rng.integers(-mx, mx + 1, (1000, n))
        X[:, 0] = mx
        Y = rng.integers(-7, 8, (r, n))
        Y[:, 0] = 7
        assert intlinalg.FLOAT64_EXACT - n * 7 <= n * mx * 7 < intlinalg.FLOAT64_EXACT
        assert X.shape[0] > 3 * (intlinalg._PRODUCT_BLOCK // n)
        out = intlinalg.exact_product(X, Y)
        assert out.dtype == np.int64
        assert np.array_equal(out, ref_exact_product_float(X, Y))
        assert np.array_equal(out, X @ Y.T)

    def test_batch_product_holds_no_float_copy(self, traced_peak):
        # the 10,000 x 256 batch `attack verify` draws at n = 256
        X = np.random.default_rng(35).integers(-300, 301, (10_000, 256))
        Y = np.random.default_rng(36).choice([-1, 1], (8, 256))
        out, peak = traced_peak(intlinalg.exact_product, X, Y)
        assert np.array_equal(out, ref_exact_product_float(X, Y))
        assert peak <= out.nbytes + 2**20

    def test_every_exact_layer_calls_it(self, monkeypatch):
        calls = []
        real = intlinalg.exact_product

        def spy(X, Y):
            calls.append(np.shape(X))
            return real(X, Y)

        monkeypatch.setattr(intlinalg, "exact_product", spy)
        sk = build_sketch("sign", 16, 4, seed=0)
        sk.apply_batch(np.ones((2, 16), dtype=np.int64))
        assert calls == [(2, 16)]
        sk.new_stream().ingest_updates([0, 3, 5], [1, -2, 2**62])
        assert calls[1:] == [(1, 3)]
        kb = integer_kernel_basis(sk.A)
        del calls[:]
        kb.check_against(sk.A)
        assert calls == [(4, 16)]


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
    def test_forced_row_addition(self):
        A = IntMatrix.from_rows([[1, 1, 1, 1, 1, 1, 1, 1]], bound=1)
        Ap, kb = preprocess_sketch(A)
        assert Ap.rows == 4  # r + 3r rows
        assert len(kb) == 4  # n - 4r
        assert kb.certified_max_len <= math.sqrt(8)
        kb.check_against(Ap)  # orthogonal to original and added rows
        # A' contains A's rows verbatim
        assert Ap.to_lists()[0] == [1] * 8

    def test_added_rows_from_one_reduced_basis(self):
        # criterion 4's first five inputs: 3r = 9 rows from the reduced
        # basis of ker([A; S]), each entry within sqrt(n) M (in integers)
        rng = derive(4, "prep")
        n, M = 32, 50
        for _ in range(5):
            A = rng.integers(-M, M + 1, size=(3, n)).tolist()
            Ap, kb = preprocess_sketch(IntMatrix.from_rows(A, bound=M))
            rows = Ap.to_lists()
            assert len(rows) == 12 and rows[:3] == A
            kb.check_against(Ap)
            assert all(max(abs(x) for x in y) ** 2 <= n * M * M for y in rows[3:])
            assert kb.certified_max_len <= math.sqrt(n) * M
        big = IntMatrix.from_rows([[2**63, 0]])
        assert big.to_lists() == [[2**63, 0]] and big.max_abs_entry() == 2**63

    @pytest.mark.parametrize("family", ["sign", "countsketch"])
    def test_n128_r16_sketch(self, family):
        sk = build_sketch(family, 128, 16, seed=3)
        Ap, kb = preprocess_sketch(sk.A)
        assert Ap.rows == 64 and Ap.entries.dtype == np.int64
        assert Ap.to_lists()[:16] == sk.A.to_lists()
        assert len(kb) == 128 - 64
        assert all(intlinalg.dot(a, v) == 0 for a in Ap.to_lists() for v in kb.vectors)

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
    def test_all_ones_row(self):
        A = IntMatrix.from_rows([[1, 1, 1, 1]], bound=1)
        kb = reduced_kernel_basis(A)
        assert len(kb) >= 3
        assert kb.certified_max_len <= math.sqrt(4) * 1
        kb.check_against(A)

    def test_identity_prefix_kernel(self):
        rows = np.zeros((2, 16), dtype=np.int64)
        rows[0, 0] = rows[1, 1] = 1
        kb = reduced_kernel_basis(IntMatrix.from_rows(rows))
        assert len(kb) == 14
        assert kb.certified_max_len <= 1.0 + 1e-12

    def test_is_the_sorted_lll_kernel(self):
        A = family_sketch("sign", 64).A
        kb = reduced_kernel_basis(A)
        assert kb.vectors == reduce_basis(integer_kernel_basis(A).vectors)
        kb.check_against(A)
        # the length cell_lemma_check and auto_alpha certify
        assert kb.certified_max_len == max(math.sqrt(norm_sq(v)) for v in kb.vectors)
        # pre-processing keeps its n - 4r shortest vectors
        assert preprocess_sketch(A)[1].vectors == kb.vectors[:64 - 4 * 8]


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


def floor(n):
    return dgauss.smoothing_sigma2(n, dgauss.SAMPLING_FLOOR_ELL_SQ)


@pytest.fixture
def no_lattice(monkeypatch):
    """Every kernel, LLL and pre-processing entry point fails when called."""
    for mod, name in ((lattice, "integer_kernel_basis"), (lattice, "reduce_basis"),
                      (lattice, "preprocess_sketch"), (acceptance, "preprocess_sketch")):
        monkeypatch.setattr(mod, name, lambda *a, **k: pytest.fail("auto_alpha ran a lattice step"))


class TestAutoAlpha:
    """auto_alpha is max(sampling floor, smoothing_sigma2(n, n M^2)), from n
    and the entry bound M alone, and computes nothing about the lattice."""

    @pytest.mark.parametrize("n", [64, 128])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_alpha_is_closed_form(self, no_lattice, family, n):
        sk = family_sketch(family, n)
        M = sk.A.max_abs_entry()
        assert (M == 1) == (family != "rounded-gaussian")
        alpha, how = acceptance.auto_alpha(sk)
        term = dgauss.smoothing_sigma2(n, n * M * M)
        assert alpha == max(floor(n), term) == term
        assert how == {"alpha_floor": floor(n), "alpha_lattice_term": term,
                       "alpha_binds": "lattice"}

    def test_cli_n256_config(self, no_lattice):
        # the sketch `attack-cli-n256` attacks at root seed 7: the lattice
        # term n M^2 = 256 binds
        sk = family_sketch("projection-threshold", 256, seed=7)
        alpha, how = acceptance.auto_alpha(sk)
        assert alpha == dgauss.smoothing_sigma2(256, 256) > floor(256)
        assert how["alpha_lattice_term"] == dgauss.smoothing_sigma2(256, 16.0**2)
        assert how["alpha_binds"] == "lattice"

    @pytest.mark.parametrize("n,binds", [(16, "floor"), (32, "lattice"), (64, "lattice")])
    def test_floor_binds_below_32(self, no_lattice, n, binds):
        # a +-1 sketch has n M^2 = n: the floor binds at n < 32, and at 32
        # the two terms are one value
        block = {"n": n, "r": n // 4, "family": "sign", "B": 8.0}
        _, params, _, how = acceptance.attack_setup(block, 3)
        assert how["alpha_floor"] == floor(n)
        assert how["alpha_lattice_term"] == dgauss.smoothing_sigma2(n, n)
        assert params.alpha == max(floor(n), how["alpha_lattice_term"])
        assert how["alpha_binds"] == binds

    def test_too_many_rows_still_raises(self):
        with pytest.raises(TooManyRows):
            acceptance.auto_alpha(family_sketch("sign", 16))

    @pytest.mark.parametrize("seed", [1000, 4242])
    def test_preprocessing_certifies_the_bound_alpha_takes(self, seed):
        # the fact auto_alpha rests on, on the sketches of acceptance
        # criteria 1 and 2: pre-processing keeps n - 4r vectors of the
        # orthogonal lattice of A', each of squared length <= n M^2, checked
        # in Python integers
        A = family_sketch("projection-threshold", 128, seed=seed).A
        A_prime, S = preprocess_sketch(A)
        M = A.max_abs_entry()
        assert M == 1 and len(S) == 128 - 4 * 8
        rows = A_prime.to_lists()
        assert rows[:8] == A.to_lists()
        assert all(intlinalg.dot(a, s) == 0 for a in rows for s in S.vectors)
        assert max(norm_sq(s) for s in S.vectors) <= 128 * M * M


class TestCellRounder:
    def test_degenerate(self):
        with pytest.raises(DegenerateLattice):
            CellRounder(np.array([[1, 2], [2, 4]], dtype=np.int64))


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
