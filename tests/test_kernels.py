import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist  # the reference only: the package does not use it

from gpimpute import kernels
from gpimpute.kernels import (
    JITTER_MAX,
    JITTER_START,
    DimensionMismatchError,
    KernelSpec,
    SingularMatrixError,
    _cholesky_with_jitter,
    build_correlation,
    chol_inverse,
    chol_solve,
    expect_k,
    expect_kk,
    expect_kk_pairwise,
    kernel_value,
)


def se(*lengthscales):
    return KernelSpec(np.array(lengthscales, dtype=float))


def correlation_values(spec, nugget, X):
    """R = K + nugget * I as build_correlation forms it before factoring, which
    it does not keep."""
    X = np.asarray(X, dtype=float)
    return kernels._correlation_values(kernels.scaled_sq_dist(spec, X, X), nugget)


class TestKernelValue:
    def test_zero_distance_is_one(self):
        assert kernel_value(se(1.0), [0.3], [0.3]) == 1.0

    def test_se_convention(self):
        # k(r) = exp(-r^2 / l^2), documented convention
        for r in [0.1, 0.5, 2.0]:
            assert kernel_value(se(1.0), [0.0], [r]) == pytest.approx(np.exp(-(r**2)))
        # self-consistency: k(l) * k(l) = k(l*sqrt(2)) * k(0)
        l = 0.7
        lhs = kernel_value(se(l), [0.0], [l]) ** 2
        rhs = kernel_value(se(l), [0.0], [l * np.sqrt(2)]) * 1.0
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_multiplicative_form(self):
        spec = se(1.0, 2.0)
        v = kernel_value(spec, [0.0, 0.0], [1.0, 2.0])
        v1 = kernel_value(se(1.0), [0.0], [1.0])
        v2 = kernel_value(se(2.0), [0.0], [2.0])
        assert v == pytest.approx(v1 * v2, rel=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            kernel_value(se(1.0), [0.0, 1.0], [0.0, 1.0])

    @settings(max_examples=100, deadline=None)
    @given(
        # quantized to keep |a-b| either 0 or large enough that k < 1 in floats
        a=st.floats(-5, 5).map(lambda x: round(x, 3)),
        b=st.floats(-5, 5).map(lambda x: round(x, 3)),
        l=st.floats(0.5, 5),  # avoid exp underflow to exactly 0
    )
    def test_symmetric_bounded(self, a, b, l):
        spec = se(l)
        v1 = kernel_value(spec, [a], [b])
        v2 = kernel_value(spec, [b], [a])
        assert v1 == v2
        assert 0 < v1 <= 1
        assert (v1 == 1) == (a == b)


def bitwise_equal(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestDistanceParity:
    """The squared distances are numpy's, bitwise what cdist(..., "sqeuclidean")
    returns for the scaled inputs."""

    @staticmethod
    def cases(d, seed, n_cases=40):
        rng = np.random.default_rng(seed)
        for _ in range(n_cases):
            n, m = rng.integers(1, 50, 2)
            spec = KernelSpec(rng.uniform(0.05, 5.0, d))
            A = rng.normal(0.0, rng.uniform(0.1, 10.0), (n, d))
            yield spec, A, rng.normal(0.0, 3.0, (m, d))

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("same", [True, False], ids=["A-is-B", "A-not-B"])
    def test_scaled_sq_dist_is_cdist(self, d, same):
        for spec, A, B in self.cases(d, seed=20 + d):
            B = A if same else B
            got = kernels.scaled_sq_dist(spec, A, B)
            want = cdist(A / spec.lengthscales, B / spec.lengthscales, "sqeuclidean")
            assert bitwise_equal(got, want)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_u_against_minus_u_is_cdist(self, d):
        # expect_kk_pairwise's ||u_i + u_j||^2, as the distance from u to -u
        unit = KernelSpec(np.ones(d))
        for _, u, _ in self.cases(d, seed=30 + d):
            assert bitwise_equal(kernels.scaled_sq_dist(unit, u, -u), cdist(u, -u, "sqeuclidean"))

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_exactly_symmetric_with_zero_diagonal(self, d):
        for spec, A, _ in self.cases(d, seed=40 + d):
            for B in (A, A.copy()):
                d2 = kernels.scaled_sq_dist(spec, A, B)
                assert bitwise_equal(d2, d2.T)
                assert (d2.diagonal() == 0).all()

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_expect_kk_pairwise_is_the_cdist_form(self, d):
        rng = np.random.default_rng(50 + d)
        for spec, W, _ in self.cases(d, seed=60 + d):
            m, v = rng.normal(0.0, 0.5, d), rng.uniform(0.0, 0.5, d)
            l2 = spec.lengthscales**2
            denom = l2 + 4.0 * v
            u = (m - W) / np.sqrt(2.0 * denom)
            Ws = W / spec.lengthscales
            exponent = cdist(Ws, Ws, "sqeuclidean")
            exponent *= -0.5
            exponent -= cdist(u, -u, "sqeuclidean")
            want = np.exp(exponent) * np.prod(np.sqrt(l2 / denom))
            assert bitwise_equal(expect_kk_pairwise(spec, m, v, W), want)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_expect_kk_pairwise_reads_a_given_d2(self, d):
        # a d2 made by the caller gives J bitwise, and is left as it was (a
        # read-only d2 would raise on any write)
        rng = np.random.default_rng(70 + d)
        for spec, W, _ in self.cases(d, seed=80 + d):
            m, v = rng.normal(0.0, 0.5, d), rng.uniform(0.0, 0.5, d)
            d2 = kernels.scaled_sq_dist(spec, W, W)
            held = d2.copy()
            d2.flags.writeable = False
            assert bitwise_equal(expect_kk_pairwise(spec, m, v, W, d2),
                                 expect_kk_pairwise(spec, m, v, W))
            assert bitwise_equal(d2, held)

    @pytest.mark.parametrize("bad", [[], [[1.0, 2.0]], [1.0, 0.0], [1.0, np.inf]],
                             ids=["empty", "2-D", "zero", "infinite"])
    def test_kernel_spec_refuses_lengthscales(self, bad):
        with pytest.raises(ValueError, match="lengthscales must be"):
            KernelSpec(np.array(bad))


class TestBuildCorrelation:
    def test_single_point(self):
        assert np.allclose(correlation_values(se(1.0), 0.1, [[0.5]]), [[1.1]])
        corr = build_correlation(se(1.0), 0.1, [[0.5]])
        assert np.allclose(corr.chol, [[np.sqrt(1.1)]])

    def test_duplicate_rows_nugget_on_diagonal_only(self):
        # K + nugget * I: identical rows correlate at exactly 1, and the nugget on
        # the diagonal keeps R positive definite, so it factors with no jitter
        X = np.array([[0.3], [0.3], [1.0]])
        R = correlation_values(se(1.0), 0.2, X)
        assert R[0, 1] == 1.0
        assert R[0, 0] == R[1, 1] == R[2, 2] == 1.2
        assert R[0, 2] == pytest.approx(kernel_value(se(1.0), [0.3], [1.0]))
        # D = 3, rows 0 and 3 identical
        X3 = np.array([[0.1, 0.5, -0.2], [0.1, 0.5, 0.7], [0.4, -1.0, 0.3], [0.1, 0.5, -0.2]])
        spec3 = se(0.6, 1.1, 0.9)
        R3 = correlation_values(spec3, 0.2, X3)
        for i in range(4):
            for j in range(4):
                expected = kernel_value(spec3, X3[i], X3[j]) + (0.2 if i == j else 0.0)
                assert R3[i, j] == pytest.approx(expected, rel=1e-14)
        assert R3[0, 3] == 1.0
        for c, values in ((build_correlation(se(1.0), 0.2, X), R),
                          (build_correlation(spec3, 0.2, X3), R3)):
            assert c.jitter_applied == 0
            assert np.allclose(c.chol @ c.chol.T, values, rtol=0, atol=1e-14)

    def test_rank_one_duplicate_no_nugget_jitter(self):
        # two identical rows, eta=0: exactly singular; jitter policy repairs and records
        corr = build_correlation(se(1.0), 0.0, [[0.3], [0.3]])
        assert corr.jitter_applied > 0
        assert corr.jitter_applied <= 1e-4

    def test_elementwise_agreement(self):
        eta = 0.05
        cases = [
            (np.array([[0.1], [0.4], [0.9]]), se(0.7)),
            (np.array([[0.1, -0.3, 0.5], [0.4, 0.2, -0.1], [0.9, 0.6, 0.3], [-0.5, 0.0, 1.2]]),
             se(0.7, 1.3, 0.4)),
        ]
        for X, spec in cases:
            R = correlation_values(spec, eta, X)
            for i in range(len(X)):
                for j in range(len(X)):
                    expected = kernel_value(spec, X[i], X[j]) + (eta if i == j else 0)
                    assert abs(R[i, j] - expected) <= 1e-15

    def test_cholesky_reconstruction(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 1, (40, 2))
        corr = build_correlation(se(0.3, 0.5), 1e-6, X)
        R_hat = corr.chol @ corr.chol.T
        target = correlation_values(se(0.3, 0.5), 1e-6, X) + corr.jitter_applied * np.eye(40)
        rel = np.linalg.norm(R_hat - target) / np.linalg.norm(target)
        assert rel <= 1e-8

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(-2, 2, (25, 3))
        R = correlation_values(se(1.0, 1.0, 1.0), 0.01, X)
        assert np.array_equal(R, R.T)

    def test_singular_error_names_jitter(self):
        # an indefinite matrix cannot be repaired; error names the jitter ceiling
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(SingularMatrixError, match="0.0001"):
            _cholesky_with_jitter(bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_inputs_raise(self, bad):
        # LAPACK factors a NaN row with info == 0, which would hand the ESS a NaN
        # likelihood; the error must name the cause and be a fit error
        with pytest.raises(ValueError, match="inputs are not finite"):
            build_correlation(se(1.0), 0.1, np.array([[0.0], [bad], [1.0]]))


class TestCholeskyFactor:
    """The LAPACK factor: what ESS, the refit objective and prediction rely on."""

    @staticmethod
    def correlation(n):
        X = np.random.default_rng(n).uniform(0, 1, (n, 1))
        return correlation_values(se(0.3), 1e-3, X)

    @pytest.mark.parametrize("n", [40, 115])
    def test_matches_numpy_with_zero_upper_triangle(self, n):
        R = self.correlation(n)
        L, jitter = _cholesky_with_jitter(R)
        assert jitter == 0.0
        # ess_update multiplies the whole factor, so the upper triangle must be 0
        assert np.all(np.triu(L, 1) == 0)
        ref = np.linalg.cholesky(R)
        assert np.linalg.norm(L - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_jittered_rung(self):
        # two identical rows without nugget: singular at 0, factored on a rung
        R = correlation_values(se(1.0), 0.0, [[0.3], [0.3], [0.9], [0.1]])
        L, jitter = _cholesky_with_jitter(R)
        assert JITTER_START <= jitter <= JITTER_MAX
        assert np.all(np.triu(L, 1) == 0)
        ref = np.linalg.cholesky(R + jitter * np.eye(4))
        assert np.linalg.norm(L - ref) <= 1e-12 * np.linalg.norm(ref)

    # (115, 20) is solved in blocks of columns
    @pytest.mark.parametrize("shape", [(40,), (40, 3), (115, 20)])
    def test_chol_solve(self, shape):
        R = self.correlation(shape[0])
        L, _ = _cholesky_with_jitter(R)
        b = np.random.default_rng(2).standard_normal(shape)
        x = chol_solve(L, b)
        assert x.shape == shape
        assert np.allclose(R @ x, b, rtol=0, atol=1e-9)
        ref = kernels.lapack.dpotrs(L, b, lower=1)[0]
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("n", [1, 40, 80, 115])
    def test_chol_inverse(self, n):
        R = self.correlation(n)
        L, _ = _cholesky_with_jitter(R)
        inv = chol_inverse(L)
        ref = kernels.lapack.dpotrs(L, np.eye(n), lower=1)[0]
        assert np.linalg.norm(inv - ref) <= 1e-12 * np.linalg.norm(ref)
        assert np.allclose(R @ inv, np.eye(n), rtol=0, atol=1e-6)

    def test_solve_and_inverse_calls_stay_below_threading_sizes(self, monkeypatch):
        sizes = {"dpotrs": [], "dgemm": []}
        dpotrs, dgemm = kernels.lapack.dpotrs, kernels.blas.dgemm

        def record_dpotrs(chol, b, lower):
            sizes["dpotrs"].append(chol.shape[0] * (1 if b.ndim == 1 else b.shape[1]))
            return dpotrs(chol, b, lower=lower)

        def record_dgemm(alpha, a, b, trans_a):
            sizes["dgemm"].append(a.shape[1] * a.shape[0] * b.shape[1])
            return dgemm(alpha, a, b, trans_a=trans_a)

        monkeypatch.setattr(kernels.lapack, "dpotrs", record_dpotrs)
        monkeypatch.setattr(kernels.blas, "dgemm", record_dgemm)
        L, _ = _cholesky_with_jitter(self.correlation(115))
        b = np.random.default_rng(4).standard_normal((115, 40))
        assert np.allclose(L @ (L.T @ chol_solve(L, b)), b, rtol=0, atol=1e-8)
        chol_inverse(L)
        assert len(sizes["dpotrs"]) > 1 and len(sizes["dgemm"]) > 1
        # the sizes at which OpenBLAS 0.3.30/0.3.31 start worker threads
        assert max(sizes["dpotrs"]) < 1024
        assert max(sizes["dgemm"]) < 2**19

    def test_unfactorable_scores_minus_inf(self, monkeypatch):
        # with the ladder capped below its first rung, identical rows with a
        # nugget lost in 1's round-off cannot be factored: the ESS likelihood is
        # -inf and the refit objective inf
        from gpimpute.dgp import LatentState
        from gpimpute.gp import GPHyperparams, _PreparedSEObjective

        monkeypatch.setattr(kernels, "JITTER_MAX", 0.0)
        X = np.array([[0.2], [0.2], [0.7]])
        y = np.array([0.1, -0.4, 0.3])
        nll, grad = _PreparedSEObjective(X, y)(np.log([0.5, 1e-300]))
        assert nll == np.inf and np.all(grad == 0)
        hyper = GPHyperparams(kernel=se(0.5), scale=1.0, nugget=0.0)
        state = LatentState(X=X, y=y, latent_obs=X, latent_mask=np.ones((3, 1), bool),
                            first_hyper=[hyper], second_hyper=hyper, initial_latents=X)
        assert state.output_loglik(X) == -np.inf


def gauss_hermite_expect(f, m, v, nodes=64):
    x, w = np.polynomial.hermite.hermgauss(nodes)
    return float(np.sum(w * f(m + np.sqrt(2 * v) * x)) / np.sqrt(np.pi))


class TestExpectK:
    def test_delta_at_point(self):
        assert expect_k(se(1.0), 0.5, 0.0, 0.5) == pytest.approx(1.0)

    def test_delta_distribution(self):
        spec = se(1.3)
        assert expect_k(spec, 0.2, 0.0, 0.9) == pytest.approx(
            kernel_value(spec, [0.2], [0.9])
        )

    def test_monte_carlo_oracle(self):
        spec = se(1.0)
        rng = np.random.default_rng(42)
        W = rng.normal(0.0, np.sqrt(0.5), 10**6)
        samples = np.exp(-((W - 0.7) ** 2))
        mc_mean = samples.mean()
        mc_se = samples.std(ddof=1) / np.sqrt(len(samples))
        assert abs(expect_k(spec, 0.0, 0.5, 0.7) - mc_mean) < 3 * mc_se

    def test_gauss_hermite_grid(self):
        # grid kept inside the 64-node quadrature's spectral-accuracy regime
        rng = np.random.default_rng(7)
        for _ in range(100):
            l = rng.uniform(0.7, 2.0)
            m = rng.uniform(-1, 1)
            v = rng.uniform(0, 0.4)
            w = rng.uniform(-1, 1)
            gh = gauss_hermite_expect(lambda x: np.exp(-((x - w) ** 2) / l**2), m, v)
            assert abs(expect_k(se(l), m, v, w) - gh) < 1e-10

    def test_continuity_at_zero_variance(self):
        spec = se(0.8)
        for m, w in [(0.0, 0.3), (1.0, -0.5), (0.2, 0.2)]:
            assert abs(
                expect_k(spec, m, 1e-12, w) - kernel_value(spec, [m], [w])
            ) <= 1e-6

    def test_peak_monotone_in_variance(self):
        spec = se(1.0)
        vals = [expect_k(spec, 0.4, v, 0.4) for v in np.linspace(0, 3, 20)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestExpectKK:
    def test_delta_distribution(self):
        spec = se(0.9)
        got = expect_kk(spec, 0.1, 0.0, -0.4, 0.8)
        want = kernel_value(spec, [0.1], [-0.4]) * kernel_value(spec, [0.1], [0.8])
        assert got == pytest.approx(want, rel=1e-12)

    def test_jensen(self):
        spec = se(1.0)
        for v in [0.1, 0.5, 2.0]:
            assert expect_kk(spec, 0.3, v, 0.7, 0.7) >= expect_k(spec, 0.3, v, 0.7) ** 2

    def test_symmetry_in_w(self):
        spec = se(1.0)
        assert expect_kk(spec, 0.2, 0.4, -0.5, 1.0) == pytest.approx(
            expect_kk(spec, 0.2, 0.4, 1.0, -0.5), rel=1e-14
        )

    def test_monte_carlo_oracle(self):
        spec = se(1.0)
        rng = np.random.default_rng(43)
        W = rng.normal(0.2, np.sqrt(0.3), 10**6)
        samples = np.exp(-((W + 0.5) ** 2)) * np.exp(-((W - 1.0) ** 2))
        mc_mean = samples.mean()
        mc_se = samples.std(ddof=1) / np.sqrt(len(samples))
        assert abs(expect_kk(spec, 0.2, 0.3, -0.5, 1.0) - mc_mean) < 3 * mc_se

    def test_gauss_hermite_grid(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            l = rng.uniform(0.7, 2.0)
            m, v = rng.uniform(-1, 1), rng.uniform(0, 0.4)
            wi, wj = rng.uniform(-1, 1, 2)
            gh = gauss_hermite_expect(
                lambda x: np.exp(-((x - wi) ** 2) / l**2) * np.exp(-((x - wj) ** 2) / l**2),
                m,
                v,
            )
            assert abs(expect_kk(se(l), m, v, wi, wj) - gh) < 1e-10

    def test_pairwise_matches_scalar(self):
        spec = se(0.8, 1.2)
        rng = np.random.default_rng(9)
        W = rng.uniform(-1, 1, (5, 2))
        m, v = np.array([0.1, -0.2]), np.array([0.3, 0.05])
        J = expect_kk_pairwise(spec, m, v, W)
        assert np.allclose(J, J.T, rtol=1e-14)
        for i in range(5):
            for j in range(5):
                assert J[i, j] == pytest.approx(expect_kk(spec, m, v, W[i], W[j]), rel=1e-12)


def pairwise_product_form(spec, m, v, W):
    """J as the product over dimensions of expect_kk's three factors, each an
    (N, N) array: the reference the one-exponential form is checked against."""
    l2 = spec.lengthscales**2
    out = np.ones((W.shape[0], W.shape[0]))
    for d in range(W.shape[1]):
        wi, wj = W[:, d, None], W[None, :, d]
        denom = l2[d] + 4.0 * v[d]
        out *= (np.exp(-((wi - wj) ** 2) / (2.0 * l2[d])) * np.sqrt(l2[d] / denom)
                * np.exp(-2.0 * (m[d] - 0.5 * (wi + wj)) ** 2 / denom))
    return out


class TestExpectKKPairwise:
    @pytest.mark.parametrize("case", ["random", "zero-variance", "underflow"])
    def test_symmetric_and_matches_product_form(self, case):
        rng = np.random.default_rng(14)
        spec = se(0.7, 1.3, 0.4)
        W = rng.normal(0.0, 1.0, (40, 3))
        m, v = rng.normal(0.0, 0.5, 3), rng.uniform(0.0, 0.5, 3)
        if case == "zero-variance":
            v[1] = 0.0
        elif case == "underflow":
            v[:] = 0.0
            W[:10] += 30.0  # exponents of -1000s between these rows and the rest
        J = expect_kk_pairwise(spec, m, v, W)
        ref = pairwise_product_form(spec, m, v, W)
        assert np.array_equal(J, J.T)
        np.testing.assert_allclose(J, ref, rtol=1e-13, atol=np.finfo(float).tiny)
        if case == "underflow":
            assert (J[:10, 10:] == 0).all() and (ref[:10, 10:] == 0).all()
            assert (J[10:, 10:] > 0).any()
