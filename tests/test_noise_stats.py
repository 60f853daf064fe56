"""Tests for the error split, xi decomposition, and expected noise norms."""

import tracemalloc

import numpy as np
import pytest
from scipy.stats import spearmanr

import kaczmarz_lab as kl
from kaczmarz_lab import noise_stats, operator, spectral
from test_linalg import complex_eigenvectors
from test_operator import restricted_gv, sharp_case


def _complex_basis(case):
    """W = V C and W^+ = C^-1 V^T in complex arithmetic, C built from R0 and conj."""
    sm, V = case.sm, case.sv.V
    C = complex_eigenvectors(sm.lam, kl.eig_general(restricted_gv(case)).R0, sm.conj)
    return V @ C, np.linalg.solve(C, V.T.astype(complex))


@pytest.fixture(scope="module")
def gravity32_machinery():
    return sharp_case(kl.gravity(32, 0.06))


class TestErrorSplit:
    def test_noise_free_collapse(self):
        p = kl.gravity(16, 0.1)
        split = kl.error_split(p, p.b_bar, kl.SweepConfig(max_sweeps=10))
        assert np.all(split.noise_err == 0.0)
        np.testing.assert_array_equal(split.recon_err, split.iter_err)

    def test_iteration_error_independent_of_realization(self):
        p = kl.gravity(16, 0.1)
        cfg = kl.SweepConfig(max_sweeps=10)
        splits = [
            kl.error_split(p, kl.add_noise(p.b_bar, kl.NoiseModel(1e-3, seed)), cfg)
            for seed in (0, 1)
        ]
        np.testing.assert_array_equal(splits[0].iter_err, splits[1].iter_err)

    def test_triangle_inequality(self):
        p = kl.gravity(24, 0.08)
        b = kl.add_noise(p.b_bar, kl.NoiseModel(5e-3, seed=2))
        s = kl.error_split(p, b, kl.SweepConfig(max_sweeps=15))
        assert np.all(np.abs(s.recon_err - s.iter_err) <= s.noise_err + 1e-12)
        assert np.all(s.noise_err <= s.recon_err + s.iter_err + 1e-12)

    def test_wrong_length_rejected(self):
        p = kl.gravity(8, 0.1)
        with pytest.raises(ValueError, match="b_noisy must have shape"):
            kl.error_split(p, np.ones(7), kl.SweepConfig(max_sweeps=2))

    def test_semiconvergence_on_realizations(self, gravity128_06):
        cfg = kl.SweepConfig(max_sweeps=200)
        for seed in range(5):
            b = kl.add_noise(gravity128_06.b_bar, kl.NoiseModel(5e-3, seed))
            split = kl.error_split(gravity128_06, b, cfg)
            kmin = kl.semiconvergence_min(split)
            assert 0 < kmin < 200
            # the noise error ends above its early level once sigma bites
            assert split.noise_err[-1] > split.noise_err[1]


class TestXiProfile:
    def test_k_zero_vanishes(self, gravity32_machinery):
        p, sm, *_ = gravity32_machinery
        e = kl.add_noise(np.zeros(p.m), kl.NoiseModel(5e-3, seed=3))
        prof = kl.xi_profile(sm, e, ks=[0, 1])
        assert prof.norms[0] == 0.0
        assert prof.norms[1] > 0.0

    def test_complex_factor_can_exceed_one(self):
        # lambda = 0.9 e^{i pi/4}: lambda^4 = -0.6561, so |1 - lambda^4| > 1
        lam = 0.9 * np.exp(1j * np.pi / 4)
        assert abs(1 - lam**4) == pytest.approx(1.6561)
        assert abs(1 - lam**4) > 1.0

    def test_norm_identity_against_operator_route(self, gravity32_machinery):
        # the honest route applies the sweep operator k times
        p, sm, *_ = gravity32_machinery
        e = kl.add_noise(np.zeros(p.m), kl.NoiseModel(1e-2, seed=4))
        ks = [1, 3, 10]
        prof = kl.xi_profile(sm, e, ks)
        y0 = kl.fixed_point(p, e)
        _, W_plus = _complex_basis(gravity32_machinery)
        for j, k in enumerate(ks):
            gk = y0.copy()
            for _ in range(k):
                gk = kl.apply_G(gravity32_machinery.lf, p.A, gk)
            xi_k = W_plus @ (y0 - gk)
            direct = float(np.sum(np.abs(xi_k) ** 2))
            assert abs(direct - prof.norms[j]) <= 1e-10 * max(direct, 1e-30)

    def test_high_frequency_components_amplified(self, gravity128_02):
        # the slow modes (|lambda| near 1) belong to the small singular
        # values where inverse-problem noise amplification concentrates,
        # so |xi_i| grows, on average, with |lambda_i|
        p = gravity128_02
        sv = kl.svd(p.A)
        lf = kl.build_L(p.A, 1.0)
        sm = kl.sharp_maps(p.A, lf, sv)
        for seed in range(3):
            e = kl.add_noise(np.zeros(p.m), kl.NoiseModel(5e-3, seed))
            prof = kl.xi_profile(sm, e, ks=[1])
            corr = spearmanr(np.abs(prof.lam), np.abs(prof.xi)).statistic
            assert corr > 0.0

    def test_amplification_extreme_for_severely_ill_posed(self):
        # on the meaningful modes of the baart problem the ordering is
        # essentially perfect
        p = kl.baart(32)
        sv = kl.svd(p.A, rank_tol=1e-6)
        lf = kl.build_L(p.A, 1.0)
        sm = kl.sharp_maps(p.A, lf, sv)
        e = kl.add_noise(np.zeros(p.m), kl.NoiseModel(5e-3, seed=1))
        prof = kl.xi_profile(sm, e, ks=[1])
        assert spearmanr(np.abs(prof.lam), np.abs(prof.xi)).statistic > 0.9

    def test_near_defective_raises(self, gravity32_machinery):
        p, sm, *_ = gravity32_machinery
        import dataclasses

        bad = dataclasses.replace(sm, kappa_W=1e13)
        with pytest.raises(kl.NumericalError, match="near-defective"):
            kl.xi_profile(bad, np.zeros(p.m), ks=[1])

    def test_near_defective_threshold_is_spectral(self, gravity32_machinery, monkeypatch):
        # xi_profile and spectrum judge near-defectiveness by one constant:
        # lowering it below this kappa_W makes both call the basis near-defective
        p, sm, *_ = gravity32_machinery
        kl.xi_profile(sm, np.zeros(p.m), ks=[1])
        ro = kl.restrict_to_V(p.A, gravity32_machinery.lf, gravity32_machinery.sv)
        assert not kl.spectrum(ro).near_defective
        monkeypatch.setattr(spectral, "NEAR_DEFECTIVE_KAPPA", sm.kappa_W / 2)
        assert kl.spectrum(ro).near_defective
        with pytest.raises(kl.NumericalError, match="near-defective"):
            kl.xi_profile(sm, np.zeros(p.m), ks=[1])


class TestExpectedNorms:
    def test_sigma_zero_all_zero(self, gravity32_machinery):
        p, sm, *_ = gravity32_machinery
        exp = kl.expected_norms(sm, sigma=0.0, ks=[1, 5], n_mc=10, seed=0)
        assert np.all(exp.e1 == 0.0) and np.all(exp.e2 == 0.0)
        assert np.all(exp.mc == 0.0)

    def test_monte_carlo_matches_closed_form_random16(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((16, 16)) + 2 * np.eye(16)
        sv = kl.svd(A)
        sm = kl.sharp_maps(A, kl.build_L(A, 1.0), sv)
        exp = kl.expected_norms(sm, sigma=0.7, ks=[1, 5, 20], n_mc=10_000, seed=7)
        for j in range(3):
            assert abs(exp.mc[j] - exp.e1[j]) <= 3.0 * exp.mc_stderr[j]
        assert not exp.e1_estimated

    def test_frobenius_identity_gravity(self, gravity32_machinery):
        # sample mean of squared propagated standard Gaussians converges
        # to the squared Frobenius norm of the k-sweep map
        p, sm, *_ = gravity32_machinery
        exp = kl.expected_norms(sm, sigma=1.0, ks=[1, 5, 20], n_mc=10_000, seed=8)
        for j in range(3):
            assert abs(exp.mc[j] - exp.e1[j]) <= 3.0 * exp.mc_stderr[j]

    @pytest.mark.parametrize("sigma", [1e-3, 1e-1])
    def test_e1_e2_absolute_tracking_near_normal(self, sigma):
        # with a well-conditioned eigenbasis the physical and
        # coefficient-space expectations agree within a decade; the baart
        # problem needs its rank cut to the numerically meaningful modes
        p = kl.baart(32)
        sv = kl.svd(p.A, rank_tol=1e-6)
        sm = kl.sharp_maps(p.A, kl.build_L(p.A, 1.0), sv)
        assert sm.kappa_W < 10.0
        ks = [1, 2, 5, 10, 20, 50]
        exp = kl.expected_norms(sm, sigma=sigma, ks=ks, n_mc=100, seed=9)
        gap = np.abs(np.log10(exp.e1) - np.log10(exp.e2))
        assert np.max(gap) <= 1.0

    @pytest.mark.parametrize("sigma", [1e-3, 1e-1])
    def test_e1_e2_shape_tracking_skewed_basis(self, sigma):
        # a skewed eigenbasis (kappa_W ~ 1e4 here) offsets the
        # coefficient-space expectation by a large constant factor, but the
        # two curves stay parallel on a log scale: the gap varies by less
        # than a decade while the values themselves grow by orders of
        # magnitude
        p = kl.gravity(32, 0.06)
        sv = kl.svd(p.A)
        sm = kl.sharp_maps(p.A, kl.build_L(p.A, 1.0), sv)
        ks = [1, 2, 5, 10, 20, 50]
        exp = kl.expected_norms(sm, sigma=sigma, ks=ks, n_mc=100, seed=9)
        gap = np.log10(exp.e1) - np.log10(exp.e2)
        assert np.max(gap) - np.min(gap) <= 1.0

    def test_symmetric_variant_monotone(self):
        # double-sweep operator is SPD with real spectrum in [0, 1), so
        # both expectations grow monotonically in k
        p = kl.gravity(32, 0.06)
        sv = kl.svd(p.A)
        for omega in (0.8, 1.0):
            lf = kl.build_L(p.A, omega)
            sm = kl.sharp_maps(p.A, lf, sv, variant="symmetric")
            ks = list(range(1, 31))
            exp = kl.expected_norms(sm, sigma=1e-2, ks=ks, n_mc=10, seed=10)
            assert np.all(np.diff(exp.e1) >= -1e-12 * exp.e1.max())
            assert np.all(np.diff(exp.e2) >= -1e-12 * exp.e2.max())


def _per_k_reference(sm, sigma, ks, n_mc, seed, estimated):
    """E1, mc and stderr through apply_Ak_sharp, one full map per k.

    Draws from the generator in the order expected_norms documents: the
    n_mc Monte Carlo samples first, then 256 E1 probes per k when the
    estimator is used.
    """
    m = sm.M.shape[1]
    rng = np.random.default_rng(seed)
    draws = sigma * rng.standard_normal((n_mc, m))
    e1, mc, stderr = [], [], []
    for k in ks:
        if estimated:
            probes = rng.standard_normal((256, m))
            e1.append(sigma**2 * np.mean(np.sum(kl.apply_Ak_sharp(sm, probes.T, k) ** 2, axis=0)))
        else:
            Ak = kl.apply_Ak_sharp(sm, np.eye(m), k)
            e1.append(sigma**2 * np.linalg.norm(Ak, "fro") ** 2)
        norms2 = np.sum(kl.apply_Ak_sharp(sm, draws.T, k) ** 2, axis=0)
        mc.append(np.mean(norms2))
        stderr.append(np.std(norms2, ddof=1) / np.sqrt(n_mc))
    return np.array(e1), np.array(mc), np.array(stderr)


@pytest.fixture(scope="module", params=["standard", "symmetric"])
def gravity32_variant(request):
    # the symmetric sweep has its own B = A^T S, so it gets its own check
    return sharp_case(kl.gravity(32, 0.06), variant=request.param)


class TestExpectedNormsAgainstPerKRoute:
    # expected_norms forms M = (I - D)^-1 R0^-1 V^T B once, draws and lifts
    # in blocks and only rescales per k; the reference sends every sample
    # through apply_Ak_sharp (B, then the same real coefficients and lift)
    # for every k
    KS = [0, 1, 5, 20]

    @pytest.mark.parametrize("max_n", [noise_stats.EXPLICIT_MAP_MAX_N, 8])
    def test_both_branches(self, gravity32_variant, monkeypatch, max_n):
        p, sm, *_ = gravity32_variant
        monkeypatch.setattr(noise_stats, "EXPLICIT_MAP_MAX_N", max_n)
        exp = kl.expected_norms(sm, sigma=3e-3, ks=self.KS, n_mc=300, seed=11)
        assert exp.e1_estimated == (p.n > max_n)
        e1, mc, stderr = _per_k_reference(sm, 3e-3, self.KS, 300, 11, exp.e1_estimated)
        for got, want in ((exp.e1, e1), (exp.mc, mc), (exp.mc_stderr, stderr)):
            assert got[0] == want[0] == 0.0
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)

    def test_xi_profile_norms(self, gravity32_variant):
        p, sm, *_ = gravity32_variant
        e = kl.add_noise(np.zeros(p.m), kl.NoiseModel(3e-3, seed=12))
        prof = kl.xi_profile(sm, e, self.KS)
        limit = kl.fixed_point(p, e, variant=gravity32_variant.variant)
        xi = _complex_basis(gravity32_variant)[1] @ limit
        for j, k in enumerate(self.KS):
            want = np.sum(np.abs(1.0 - sm.lam**k) ** 2 * np.abs(xi) ** 2)
            assert prof.norms[j] == pytest.approx(want, rel=1e-12, abs=0.0)


def _all_modes_reference(case, sigma, ks, n_mc, seed, estimated):
    """E1, E2, mc and stderr with every mode lifted in complex arithmetic.

    The same closed forms and generator draws as expected_norms, on the
    complex eigenbasis rather than the real coordinates on R0, and with W^+
    from a complex solve with C rather than from the real LU.  B is
    sharp_maps' own B^T transposed.
    """
    sm, m = case.sm, case.p.m
    W, W_plus = _complex_basis(case)
    M = (W_plus / (1.0 - sm.lam)[:, None]) @ operator._weight(
        case.lf, case.variant, case.p.A, transpose=True).T
    e_xi2 = sigma**2 * np.sum(np.abs(M) ** 2, axis=1)
    e2 = [np.sum(np.abs(1.0 - sm.lam**k) ** 2 * e_xi2) for k in ks]
    rng = np.random.default_rng(seed)
    Z = M @ (sigma * rng.standard_normal((n_mc, m))).T
    e1, mc, stderr = [], [], []
    for k in ks:
        lift = W * (1.0 - sm.lam**k)
        if estimated:
            probes = rng.standard_normal((256, m)).T
            e1.append(sigma**2 * np.mean(np.sum(np.real(lift @ (M @ probes)) ** 2, axis=0)))
        else:
            e1.append(sigma**2 * np.linalg.norm(np.real(lift @ M), "fro") ** 2)
        norms2 = np.sum(np.real(lift @ Z) ** 2, axis=0)
        mc.append(np.mean(norms2))
        stderr.append(np.std(norms2, ddof=1) / np.sqrt(n_mc))
    return np.array(e1), np.array(e2), np.array(mc), np.array(stderr)


@pytest.fixture(scope="module", params=["standard", "symmetric", "real-spectrum"])
def gravity32_pairs(request):
    p = kl.gravity(32, 0.06)
    variant = "symmetric" if request.param == "symmetric" else "standard"
    omega = 0.02 if request.param == "real-spectrum" else 1.0
    return sharp_case(p, omega, variant)


class TestExpectedNormsOneModePerPair:
    # expected_norms works on the real coordinates, where a pair's two modes
    # share two rows of M; the reference lifts every complex mode
    KS = [0, 1, 5, 20]

    @pytest.mark.parametrize("max_n", [noise_stats.EXPLICIT_MAP_MAX_N, 8])
    def test_matches_all_modes(self, gravity32_pairs, monkeypatch, max_n):
        monkeypatch.setattr(noise_stats, "EXPLICIT_MAP_MAX_N", max_n)
        exp = kl.expected_norms(gravity32_pairs.sm, sigma=3e-3, ks=self.KS, n_mc=300, seed=5)
        want = _all_modes_reference(gravity32_pairs, 3e-3, self.KS, 300, 5, exp.e1_estimated)
        for got, ref in zip((exp.e1, exp.e2, exp.mc, exp.mc_stderr), want):
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)

    def test_standard_spectrum_is_mostly_complex(self, gravity32_machinery):
        _, sm, *_ = gravity32_machinery
        assert np.count_nonzero(sm.lam.imag > 0) >= 8


class TestMonteCarloBlocks:
    # the samples are drawn and lifted _MC_BLOCK at a time; the generator
    # yields them in the order of one n_mc-by-m draw, so a block size only
    # moves the rounding of the per-sample products
    @pytest.mark.parametrize("max_n", [noise_stats.EXPLICIT_MAP_MAX_N, 8])
    def test_blocks_match_one_block(self, gravity32_variant, monkeypatch, max_n):
        p, sm, *_ = gravity32_variant
        monkeypatch.setattr(noise_stats, "EXPLICIT_MAP_MAX_N", max_n)
        runs = []
        for block in (10_000, 7):
            monkeypatch.setattr(noise_stats, "_MC_BLOCK", block)
            runs.append(kl.expected_norms(sm, sigma=3e-3, ks=[0, 1, 5, 20], n_mc=40, seed=3))
        one, many = runs
        if max_n == 8:  # the 256 probes per k are drawn in blocks too
            np.testing.assert_allclose(many.e1, one.e1, rtol=1e-13, atol=0.0)
        else:
            assert many.e1.tobytes() == one.e1.tobytes()
        assert many.e2.tobytes() == one.e2.tobytes()
        for got, want in ((many.mc, one.mc), (many.mc_stderr, one.mc_stderr)):
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    def test_memory_does_not_grow_with_n_mc(self):
        # the traced peak at four blocks of samples is the one-block peak
        # plus the per-sample norms (8 bytes per sample and k)
        p = kl.paralleltomo(12, 16, 16)
        sm = kl.sharp_maps(p.A, kl.build_L(p.A, 1.0), kl.svd(p.A))
        ks = [1, 5, 20]

        def traced_peak(n_mc):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                kl.expected_norms(sm, 1e-2, ks, n_mc=n_mc, seed=0)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        block = noise_stats._MC_BLOCK
        one, four = traced_peak(block), traced_peak(4 * block)
        assert four <= one + 8 * len(ks) * 3 * block + 64 * 1024


class TestE1BySweeps:
    # E1 with no eigenbasis: k sweeps of the identity block I_m from X = 0
    # give the k-sweep map A_k itself, so E1 = sigma^2 ||A_k||_F^2 (Elfving,
    # Hansen and Nikazad, Inverse Problems 2014).  kappa_W is about 1.7e6 here
    KS = (1, 5, 20, 50)

    @pytest.mark.parametrize("variant", ["standard", "symmetric"])
    def test_matches_spectral_e1(self, gravity128_02, variant):
        p, sigma = gravity128_02, 1e-3
        sm = kl.sharp_maps(p.A, kl.build_L(p.A, 1.0), kl.svd(p.A), variant=variant)
        exp = kl.expected_norms(sm, sigma, self.KS, n_mc=2)
        op = kl.SweepOperator(p.A, kl.build_L(p.A, 1.0))
        sweep = op.down if variant == "standard" else op.symmetric
        I_m = np.eye(p.m, order="F")
        X = np.zeros((p.n, p.m), order="F")
        e1 = []
        for k in range(1, max(self.KS) + 1):
            X = sweep(X, I_m)
            if k in self.KS:
                e1.append(sigma**2 * np.linalg.norm(X, "fro") ** 2)
        np.testing.assert_allclose(e1, exp.e1, rtol=1e-10)


class TestRejectsBadInput:
    # a bad sigma, k or noise vector fails loudly instead of returning NaN,
    # inf or a meaningless number
    @pytest.mark.parametrize("sigma", [np.nan, np.inf, -np.inf, -1.0])
    def test_expected_norms_bad_sigma(self, gravity32_machinery, sigma):
        p, sm, *_ = gravity32_machinery
        with pytest.raises(ValueError, match="sigma"):
            kl.expected_norms(sm, sigma=sigma, ks=[1], n_mc=10)

    @pytest.mark.parametrize("ks", [[-1], [0, 5, -2], [2.5], [1, np.nan]],
                             ids=["negative", "negative-among-valid", "fractional", "nan"])
    def test_bad_k(self, gravity32_machinery, ks):
        # k = 2.5 used to be truncated to 2 without a word
        p, sm, *_ = gravity32_machinery
        with pytest.raises(ValueError, match="nonnegative integers"):
            kl.expected_norms(sm, sigma=1e-3, ks=ks, n_mc=10)
        with pytest.raises(ValueError, match="nonnegative integers"):
            kl.xi_profile(sm, np.zeros(p.m), ks)

    @pytest.mark.parametrize("bad", ["short", "long", "matrix", "nan", "inf"])
    def test_xi_profile_bad_e(self, gravity32_machinery, bad):
        p, sm, *_ = gravity32_machinery
        e = np.full(p.m, 1e-3)
        if bad in ("nan", "inf"):
            e[3] = np.nan if bad == "nan" else np.inf
        else:
            e = {"short": e[:-1], "long": np.append(e, 0.0),
                 "matrix": e[:, None]}[bad]
        with pytest.raises(ValueError, match="e "):
            kl.xi_profile(sm, e, [1])

    @pytest.mark.parametrize("ks", [[-1, 1, 2], [1, 2.7], [np.nan]],
                             ids=["negative", "fractional", "nan"])
    def test_monotonicity_probe_bad_k(self, ks):
        # k = -1 used to give e2_unit NaN at lambda = 0, and 2.7 ran as 2
        with pytest.raises(ValueError, match="nonnegative integers"):
            kl.monotonicity_probe([0.5, 0.0], ks)

    def test_monotonicity_probe_sorts_and_dedups(self):
        mono = kl.monotonicity_probe([0.5, 0.0], [3, 1.0, 3, 2])
        assert mono.ks.tolist() == [1, 2, 3]

    def test_k_zero_stays_valid(self, gravity32_machinery):
        p, sm, *_ = gravity32_machinery
        exp = kl.expected_norms(sm, sigma=1e-3, ks=[0], n_mc=10)
        prof = kl.xi_profile(sm, np.full(p.m, 1e-3), [0])
        assert exp.e1[0] == exp.e2[0] == exp.mc[0] == 0.0
        assert prof.norms[0] == 0.0


class TestMonotonicityProbe:
    def test_real_spectrum_monotone(self):
        # all-real eigenvalues in [0, 1): every factor curve grows, so
        # does their sum
        A = np.diag([2.0, 1.0, 0.5])  # orthogonal rows, omega != 1
        sv = kl.svd(A)
        ro = kl.restrict_to_V(A, kl.build_L(A, 0.5), sv)
        rep = kl.spectrum(ro)
        assert np.all(rep.eigenvalues.imag == 0.0)
        mono = kl.monotonicity_probe(rep.eigenvalues, range(1, 40))
        assert mono.e2_monotone
        assert np.all(mono.bumps == 0)

    def test_gravity_bumps_but_monotone_sum(self, gravity32_machinery):
        # individual curves for the small eigenvalues bump, yet the sum
        # over all modes grows monotonically
        p, sm, *_ = gravity32_machinery
        mono = kl.monotonicity_probe(sm.lam, range(1, 60))
        assert np.any(mono.bumps > 0)
        assert mono.e2_monotone

    def test_single_complex_pair_not_monotone(self):
        # two-term sum for a lone conjugate pair oscillates: the
        # balancing of bumps needs many eigenvalues
        lam = 0.95 * np.exp(1j * np.pi / 4)
        ks = np.arange(1, 25)
        e2 = np.array([2 * abs(1 - lam**k) ** 2 for k in ks])
        assert np.any(np.diff(e2) < -1e-12)


class TestSemiconvergenceMin:
    def test_monotone_decreasing_returns_last(self):
        split = kl.ErrorSplit(
            recon_err=np.array([3.0, 2.0, 1.0]),
            iter_err=np.zeros(3),
            noise_err=np.zeros(3),
        )
        assert kl.semiconvergence_min(split) == 2

    def test_noise_free_returns_last(self):
        p = kl.gravity(16, 0.1)
        split = kl.error_split(p, p.b_bar, kl.SweepConfig(max_sweeps=30))
        assert kl.semiconvergence_min(split) == 30

    def test_first_index_on_ties(self):
        split = kl.ErrorSplit(
            recon_err=np.array([2.0, 1.0, 1.0]),
            iter_err=np.zeros(3),
            noise_err=np.zeros(3),
        )
        assert kl.semiconvergence_min(split) == 1

    def test_too_short_rejected(self):
        split = kl.ErrorSplit(
            recon_err=np.array([1.0]), iter_err=np.zeros(1), noise_err=np.zeros(1)
        )
        with pytest.raises(ValueError):
            kl.semiconvergence_min(split)
