import numpy as np
import pytest

from gpimpute.gp import GPHyperparams, make_fitted_gp, predict
from gpimpute.kernels import KernelSpec, expect_k, expect_kk, expect_kk_pairwise
from gpimpute.linked import LayerArchitecture, LinkedEmulator, link_predict, propagate_moments


def se_spec(*lengthscales):
    return KernelSpec(np.array(lengthscales, dtype=float))


def se_hyper(l, scale=1.0, nugget=1e-8):
    return GPHyperparams(kernel=se_spec(*np.atleast_1d(l)), scale=scale, nugget=nugget)


def propagate(gp, m, v):
    """propagate_moments through a fitted GP, as link_predict calls it."""
    return propagate_moments(gp.hyper, gp.training.X, gp.alpha, gp.corr.inverse(), m, v)


def build_emulator(rng, n=15, p=2, l_first=0.4, l_second=0.5, nugget=1e-6):
    """Hand-assembled two-layer emulator on synthetic smooth data."""
    X = np.sort(rng.uniform(0, 1, (n, 1)), axis=0)
    latents = np.column_stack(
        [np.sin(2 * np.pi * X[:, 0] + j) for j in range(p)]
    )
    y = np.tanh(latents.sum(axis=1)) + 0.01 * rng.standard_normal(n)
    first = [
        make_fitted_gp(X, latents[:, j], se_hyper(l_first, 1.0, nugget))
        for j in range(p)
    ]
    second = make_fitted_gp(latents, y, se_hyper([l_second] * p, 1.0, nugget))
    return LinkedEmulator(first_layer=first, second_layer=second)


class TestArchitecture:
    def test_duplicate_latent_names(self):
        with pytest.raises(ValueError, match="unique"):
            LayerArchitecture(("a", "a"), "out")

    def test_latent_index(self):
        arch = LayerArchitecture(("a", "b"), "out")
        assert arch.latent_index("b") == 1
        with pytest.raises(KeyError):
            arch.latent_index("zzz")


class TestAssembly:
    """I and J as propagate_moments computes them, on the second layer's latents."""

    @staticmethod
    def moments(em, x0):
        preds = [predict(m, x0) for m in em.first_layer]
        return np.array([p.mean for p in preds]), np.array([p.variance for p in preds])

    def test_I_entries_and_factorization(self):
        em = build_emulator(np.random.default_rng(0), p=2)
        m, v = self.moments(em, [0.37])
        kernel = em.second_layer.hyper.kernel
        W = em.second_layer.training.X
        I = expect_k(kernel, m, v, W)
        assert I.shape == (W.shape[0],)
        assert np.all(I > 0) and np.all(I <= 1)
        for i, w in enumerate(W):
            factors = [
                expect_k(se_spec(kernel.lengthscales[d]), m[d], v[d], w[d])
                for d in range(2)
            ]
            assert I[i] == pytest.approx(np.prod(factors), rel=1e-12)

    def test_J_symmetric_jensen(self):
        em = build_emulator(np.random.default_rng(1), p=2)
        m, v = self.moments(em, [0.61])
        kernel = em.second_layer.hyper.kernel
        W = em.second_layer.training.X
        I = expect_k(kernel, m, v, W)
        J = expect_kk_pairwise(kernel, m, v, W)
        assert np.allclose(J, J.T, rtol=1e-13)
        # E[k^2] >= E[k]^2 elementwise on the diagonal
        assert np.all(np.diag(J) >= I**2 - 1e-14)
        assert J[0, 1] == pytest.approx(expect_kk(kernel, m, v, W[0], W[1]), rel=1e-12)


class TestLinkPredict:
    def test_degenerate_latents_collapse_to_plain_gp(self):
        # when the first layer is certain, linking equals direct prediction
        em = build_emulator(np.random.default_rng(2), p=2)
        x0 = np.array([0.52])
        preds = [predict(m, x0) for m in em.first_layer]
        m_lat = np.array([p.mean for p in preds])
        mu, var = propagate(em.second_layer, m_lat, np.zeros(2))
        direct = predict(em.second_layer, m_lat)
        assert abs(mu - direct.mean) < 1e-10
        assert abs(var - direct.variance) < 1e-10

    def test_monotone_convergence_as_variance_shrinks(self):
        em = build_emulator(np.random.default_rng(3), p=2)
        m_lat = np.array([0.4, -0.2])
        direct = predict(em.second_layer, m_lat)
        errs = []
        for v in [1e-2, 1e-4, 1e-6]:
            mu, var = propagate(em.second_layer, m_lat, np.full(2, v))
            errs.append(abs(mu - direct.mean) + abs(var - direct.variance))
        assert errs[0] > errs[1] > errs[2]

    def test_single_point_hand_formula(self):
        # P=1, N=1: mu = E[k(W, w1)] * y1 / (1 + eta)
        eta = 0.3
        w1, y1 = 0.2, 1.5
        second = make_fitted_gp([[w1]], [y1], se_hyper(1.0, 1.0, eta))
        m, v = 0.6, 0.1
        mu, var = propagate(second, np.array([m]), np.array([v]))
        kernel = second.hyper.kernel
        I1 = expect_k(kernel, np.array([m]), np.array([v]), np.array([w1]))
        J11 = expect_kk(kernel, np.array([m]), np.array([v]), [w1], [w1])
        expected_mu = I1 * y1 / (1 + eta)
        expected_var = (
            (y1 / (1 + eta)) ** 2 * J11
            - expected_mu**2
            + 1.0 * (1 + eta - J11 / (1 + eta))
        )
        assert mu == pytest.approx(expected_mu, rel=1e-12)
        assert var == pytest.approx(expected_var, rel=1e-12)

    def test_monte_carlo_oracle(self):
        # propagated moments match the sampled predictive mixture
        rng = np.random.default_rng(4)
        em = build_emulator(rng, n=12, p=2)
        m_lat = np.array([0.3, -0.4])
        v_lat = np.array([0.05, 0.02])
        mu, var = propagate(em.second_layer, m_lat, v_lat)
        n_mc = 200_000
        W = m_lat + np.sqrt(v_lat) * rng.standard_normal((n_mc, 2))
        from gpimpute.gp import predict_batch

        mc_m, mc_v = predict_batch(em.second_layer, W)
        mix_mean = mc_m.mean()
        mix_var = (mc_m**2 + mc_v).mean() - mix_mean**2
        se_mean = mc_m.std(ddof=1) / np.sqrt(n_mc)
        assert abs(mu - mix_mean) < 4 * se_mean
        assert abs(var - mix_var) / mix_var < 0.02

    def test_three_layer_iterated_linking(self):
        # chain propagate_moments through an extra GP layer and check vs MC
        rng = np.random.default_rng(5)
        X = np.sort(rng.uniform(0, 1, (10, 1)), axis=0)
        mid = np.sin(3 * X[:, 0])
        top_in = mid[:, None]
        top_out = np.cos(2 * mid)
        g_mid = make_fitted_gp(X, mid, se_hyper(0.4, 1.0, 1e-6))
        g_top = make_fitted_gp(top_in, top_out, se_hyper(0.5, 1.0, 1e-6))
        m0, v0 = 0.45, 0.01
        m1, v1 = propagate(g_mid, np.array([m0]), np.array([v0]))
        m2, v2 = propagate(g_top, np.array([m1]), np.array([max(v1, 0.0)]))

        n_mc = 100_000
        from gpimpute.gp import predict_batch

        x_s = m0 + np.sqrt(v0) * rng.standard_normal(n_mc)
        mm, vv = predict_batch(g_mid, x_s[:, None])
        mid_s = mm + np.sqrt(np.maximum(vv, 0)) * rng.standard_normal(n_mc)
        tm, tv = predict_batch(g_top, mid_s[:, None])
        out_s = tm + np.sqrt(np.maximum(tv, 0)) * rng.standard_normal(n_mc)
        # second hop treats the mid distribution as Gaussian, so allow a
        # moment-matching gap beyond pure MC error
        assert abs(m2 - out_s.mean()) < 0.02
        assert abs(v2 - out_s.var()) / out_s.var() < 0.15

    def test_link_predict_runs_end_to_end(self):
        em = build_emulator(np.random.default_rng(6))
        pred = link_predict(em, [0.5])
        assert np.isfinite(pred.mean)
        assert pred.variance >= 0



def _longdouble_cholesky(A):
    """Lower Cholesky factor of A, column by column, in A's dtype."""
    L = np.zeros_like(A)
    for j in range(len(A)):
        L[j, j] = np.sqrt(A[j, j] - L[j, :j] @ L[j, :j])
        L[j + 1:, j] = (A[j + 1:, j] - L[j + 1:, :j] @ L[j, :j]) / L[j, j]
    return L


def _longdouble_inverse(L):
    """(L L^T)^-1 = L^-T L^-1, with L^-1 by forward substitution in L's dtype."""
    n = len(L)
    Linv = np.zeros_like(L)
    for j in range(n):
        for i in range(j, n):
            Linv[i, j] = ((i == j) - L[i, j:i] @ Linv[j:i, j]) / L[i, i]
    return Linv.T @ Linv


def longdouble_moments(W, y, hyper, m, v):
    """The linked mean and variance with I, J, alpha and R^-1 all formed in
    np.longdouble from the per-dimension expectation formulas."""
    ld = np.longdouble
    W, y, m, v = (np.asarray(a, dtype=ld) for a in (W, y, m, v))
    l2 = hyper.kernel.lengthscales.astype(ld) ** 2
    diff = W[:, None, :] - W[None, :, :]
    R = np.exp(-np.sum(diff**2 / l2, axis=-1)) + ld(hyper.nugget) * np.eye(len(W), dtype=ld)
    Rinv = _longdouble_inverse(_longdouble_cholesky(R))
    alpha = Rinv @ y
    I = np.prod(np.sqrt(l2 / (l2 + 2 * v)) * np.exp(-((m - W) ** 2) / (l2 + 2 * v)), axis=1)
    wbar = 0.5 * (W[:, None, :] + W[None, :, :])
    J = np.prod(np.exp(-diff**2 / (2 * l2)) * np.sqrt(l2 / (l2 + 4 * v))
                * np.exp(-2 * (m - wbar) ** 2 / (l2 + 4 * v)), axis=-1)
    mu = I @ alpha
    var = alpha @ J @ alpha - mu**2 + ld(hyper.scale) * (1 + ld(hyper.nugget) - np.sum(Rinv * J))
    return mu, var


class TestExtendedPrecisionOracle:
    # the bound is fixed before the run; the measured maximum is recorded with
    # the change that added this test
    VAR_REL_TOL = 1e-8

    def test_variance_matches_longdouble_oracle(self):
        # random systems as criterion 02 draws them (N 5-30, P 1-3), with alpha
        # and R^-1 from the float64 path the ensemble uses
        worst = 0.0
        for case in range(200):
            rng = np.random.default_rng(2000 + case)
            P = int(rng.integers(1, 4))
            N = int(rng.integers(5, 31))
            W = rng.uniform(-1, 1, (N, P))
            y = np.sin(W.sum(axis=1)) + 0.1 * rng.standard_normal(N)
            hyper = se_hyper(rng.uniform(0.5, 1.5, P), rng.uniform(0.5, 2.0),
                             rng.uniform(1e-6, 0.1))
            m = rng.uniform(-1, 1, P)
            v = rng.uniform(0.01, 0.2, P)
            mu, var = propagate(make_fitted_gp(W, y, hyper), m, v)
            ref_mu, ref_var = longdouble_moments(W, y, hyper, m, v)
            assert ref_var > 0
            assert abs(mu - ref_mu) <= 1e-10 * abs(ref_mu) + 1e-14, f"case {case}"
            worst = max(worst, float(abs(var - ref_var) / ref_var))
        assert worst <= self.VAR_REL_TOL
