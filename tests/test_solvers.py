"""Tests for the row-action sweep kernels and the CGLS reference."""

import warnings

import numpy as np
import pytest
import scipy.linalg as sla

import kaczmarz_lab as kl


def _matrix_form_standard(A, b, x, omega):
    lf = kl.build_L(A, omega)
    return x + A.T @ sla.solve_triangular(lf.L, b - A @ x, lower=True)


def _matrix_form_symmetric(A, b, x, omega):
    lf = kl.build_L(A, omega)
    S = (2.0 / omega - 1.0) * sla.solve_triangular(
        lf.L.T, np.diag(lf.D_diag) @ sla.solve_triangular(lf.L, np.eye(lf.m), lower=True),
        lower=False,
    )
    return x + A.T @ (S @ (b - A @ x))


class TestSweepStandard:
    def test_single_row_exact_projection(self):
        A = np.array([[3.0, 4.0]])
        b = np.array([10.0])
        x1 = kl.sweep_standard(A, b, np.zeros(2), omega=1.0)
        np.testing.assert_allclose(x1, (b[0] / 25.0) * A[0])

    def test_solution_is_fixed_point(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((8, 8)) + 4 * np.eye(8)
        x = rng.standard_normal(8)
        out = kl.sweep_standard(A, A @ x, x, omega=1.0)
        np.testing.assert_allclose(out, x, atol=1e-12 * np.linalg.norm(x))

    @pytest.mark.parametrize("omega", [0.3, 1.0, 1.7])
    @pytest.mark.parametrize("shape", [(10, 7), (7, 10), (25, 25)])
    def test_matches_triangular_solve_form(self, omega, shape):
        rng = np.random.default_rng(hash(shape) % 2**32)
        A = rng.standard_normal(shape)
        b = rng.standard_normal(shape[0])
        x = rng.standard_normal(shape[1])
        got = kl.sweep_standard(A, b, x, omega)
        want = _matrix_form_standard(A, b, x, omega)
        assert np.linalg.norm(got - want) <= 1e-10 * max(1.0, np.linalg.norm(want))


class TestSweepSymmetric:
    @pytest.mark.parametrize("omega", [0.3, 1.0, 1.7])
    def test_matches_closed_form(self, omega):
        rng = np.random.default_rng(17)
        A = rng.standard_normal((9, 6))
        b = rng.standard_normal(9)
        x = rng.standard_normal(6)
        got = kl.sweep_symmetric(A, b, x, omega)
        want = _matrix_form_symmetric(A, b, x, omega)
        assert np.linalg.norm(got - want) <= 1e-10 * max(1.0, np.linalg.norm(want))

    def test_double_steps_redundant_at_omega_one(self):
        # at omega = 1 the repeated projections onto the first and last
        # rows are no-ops, so skipping them changes nothing
        rng = np.random.default_rng(23)
        A = rng.standard_normal((7, 5))
        b = rng.standard_normal(7)
        x0 = rng.standard_normal(5)
        full = kl.sweep_symmetric(A, b, x0, omega=1.0)

        rn = kl.row_norms_squared(A)
        x = x0.copy()
        for i in list(range(7)) + list(range(5, -1, -1)):  # skip double m-1
            x += ((b[i] - A[i] @ x) / rn[i]) * A[i]
        # the trailing double projection onto row 0 is also a no-op
        assert np.linalg.norm(full - x) <= 1e-12 * max(1.0, np.linalg.norm(x))

    def test_solution_unchanged(self):
        rng = np.random.default_rng(29)
        A = rng.standard_normal((6, 6)) + 3 * np.eye(6)
        x = rng.standard_normal(6)
        out = kl.sweep_symmetric(A, A @ x, x, omega=0.7)
        np.testing.assert_allclose(out, x, atol=1e-12 * np.linalg.norm(x))


class TestSweepRandomized:
    def test_m_one_equals_standard(self):
        A = np.array([[2.0, -1.0]])
        b = np.array([3.0])
        x = np.array([0.5, 0.5])
        got = kl.sweep_randomized(A, b, x, 1.0, np.random.default_rng(0))
        np.testing.assert_array_equal(got, kl.sweep_standard(A, b, x, 1.0))

    def test_bitwise_reproducible(self):
        p = kl.gravity(16, 0.1)
        cfg = kl.SweepConfig(variant="randomized", max_sweeps=5, seed=11,
                             store_iterates=True)
        h1 = kl.run(p, p.b_bar, cfg)
        h2 = kl.run(p, p.b_bar, cfg)
        assert np.array_equal(h1.iterates, h2.iterates)

    def test_row_access_order_dramatic_influence(self):
        # the smooth kernel makes consecutive rows nearly parallel, so the
        # natural order crawls at first while shuffled access is dramatically
        # faster; with-replacement sampling behaves like the shuffled order
        p = kl.gravity(128, 0.03)
        std = kl.run(p, p.b_bar, kl.SweepConfig(max_sweeps=3), reference=p.x_bar)
        pp = kl.apply_ordering(p, kl.random_ordering(p.m, seed=3))
        perm = kl.run(pp, pp.b_bar, kl.SweepConfig(max_sweeps=3), reference=pp.x_bar)
        rnd = kl.run(
            p, p.b_bar,
            kl.SweepConfig(variant="randomized", max_sweeps=3, seed=1),
            reference=p.x_bar,
        )
        assert perm.error_norms[-1] < 0.3 * std.error_norms[-1]
        assert rnd.error_norms[-1] < 0.3 * std.error_norms[-1]


class TestRun:
    def test_zero_sweeps_history(self):
        p = kl.gravity(8, 0.1)
        h = kl.run(p, p.b_bar, kl.SweepConfig(max_sweeps=0, store_iterates=True))
        assert h.sweep_count == 0
        assert h.iterates.shape == (1, 8)
        assert np.array_equal(h.iterates[0], np.zeros(8))

    def test_error_strictly_decreasing_noise_free(self, gravity128_01):
        h = kl.run(
            gravity128_01, gravity128_01.b_bar,
            kl.SweepConfig(max_sweeps=200), reference=gravity128_01.x_bar,
        )
        assert np.all(np.diff(h.error_norms) < 0)

    def test_tomo_rapid_initial_convergence(self, tomo):
        h = kl.run(tomo, tomo.b_bar, kl.SweepConfig(max_sweeps=5),
                   reference=tomo.x_bar)
        assert h.error_norms[5] < 0.5 * h.error_norms[0]

    def test_iterates_stay_in_row_space(self):
        # nullspace via a duplicated column
        rng = np.random.default_rng(31)
        B = rng.standard_normal((10, 5))
        A = np.hstack([B, B[:, :1]])
        x = rng.standard_normal(6)
        p = kl.TestProblem(A=A, x_bar=x, b_bar=A @ x, name="dupcol")
        sv = kl.svd(A)
        null_proj = np.eye(6) - sv.V @ sv.V.T
        h = kl.run(p, p.b_bar, kl.SweepConfig(max_sweeps=20, store_iterates=True))
        for xk in h.iterates[1:]:
            assert np.linalg.norm(null_proj @ xk) <= 1e-8 * np.linalg.norm(xk)

    def test_converges_to_least_norm_solution(self):
        p = kl.gravity(16, 0.1)
        h = kl.run(p, p.b_bar, kl.SweepConfig(max_sweeps=2000, store_iterates=True))
        want = kl.least_norm_solution(p.A, p.b_bar).x
        assert np.linalg.norm(h.iterates[-1] - want) <= 1e-6

    def test_limit_independent_of_omega(self):
        p = kl.gravity(32, 0.01)
        lims = []
        for omega in (0.8, 1.2):
            h = kl.run(p, p.b_bar, kl.SweepConfig(omega=omega, max_sweeps=3000,
                                                  store_iterates=True))
            lims.append(h.iterates[-1])
        assert np.linalg.norm(lims[0] - lims[1]) <= 1e-6

    def test_history_lengths(self):
        p = kl.gravity(8, 0.1)
        h = kl.run(p, p.b_bar, kl.SweepConfig(max_sweeps=7), reference=p.x_bar)
        assert len(h.residual_norms) == 8 == len(h.error_norms)

    def test_csv_export(self, tmp_path):
        p = kl.gravity(8, 0.1)
        h = kl.run(p, p.b_bar, kl.SweepConfig(max_sweeps=3), reference=p.x_bar)
        path = tmp_path / "hist.csv"
        with open(path, "w") as fh:
            h.write_csv(fh)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "sweep,residual_norm,error_norm"
        assert len(lines) == 5


def _assert_rel_close(got, want, rel=1e-12):
    """Normwise: max |got - want| within rel times max |want|."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


def _noisy_block(p):
    rng = np.random.default_rng(8)
    return np.column_stack([
        p.b_bar,
        p.b_bar + 1e-2 * np.abs(p.b_bar).max() * rng.standard_normal(p.m),
        rng.standard_normal(p.m),
    ])


class TestRunBlock:
    @pytest.mark.parametrize("variant", ["standard", "symmetric", "randomized"])
    @pytest.mark.parametrize("omega", [0.3, 1.0, 1.7])
    def test_columns_match_vector_runs(self, small_problems, variant, omega):
        # randomized: one seeded row order serves every column
        cfg = kl.SweepConfig(omega=omega, variant=variant, max_sweeps=30,
                             seed=5, store_iterates=True)
        for p in small_problems:
            B = _noisy_block(p)
            block = kl.run(p, B, cfg, reference=p.x_bar)
            assert isinstance(block, tuple) and len(block) == B.shape[1]
            for j, h in enumerate(block):
                v = kl.run(p, B[:, j], cfg, reference=p.x_bar)
                assert h.sweep_count == v.sweep_count == 30
                _assert_rel_close(h.residual_norms, v.residual_norms)
                _assert_rel_close(h.error_norms, v.error_norms)
                _assert_rel_close(h.iterates, v.iterates)

    @pytest.mark.parametrize("variant", ["standard", "symmetric", "randomized"])
    @pytest.mark.parametrize("omega", [0.3, 1.0, 1.7])
    def test_vector_run_matches_row_loop(self, small_problems, variant, omega):
        # randomized: the row loop draws from the same seeded stream
        cfg = kl.SweepConfig(omega=omega, variant=variant, max_sweeps=30,
                             store_iterates=True)
        for p in small_problems:
            h = kl.run(p, p.b_bar, cfg)
            rng = np.random.default_rng(cfg.seed)
            sweep = {
                "standard": kl.sweep_standard,
                "symmetric": kl.sweep_symmetric,
                "randomized": lambda A, b, x, omega: kl.sweep_randomized(A, b, x, omega, rng),
            }[variant]
            x = np.zeros(p.n)
            want = [x]
            for _ in range(30):
                x = sweep(p.A, p.b_bar, x, omega)
                want.append(x)
            _assert_rel_close(h.iterates, np.array(want))
            res = [np.linalg.norm(p.b_bar - p.A @ x) for x in want]
            _assert_rel_close(h.residual_norms, res)

    @pytest.mark.parametrize("omega", [0.3, 1.7])
    def test_randomized_blocks_of_draws_match_row_loop(self, omega):
        # m = 150: three stacked sweeps of 64, 64 and 22 draws per sweep
        p = kl.gravity(150, 0.06)
        B = _noisy_block(p)
        cfg = kl.SweepConfig(omega=omega, variant="randomized", max_sweeps=10,
                             seed=3, store_iterates=True)
        block = kl.run(p, B, cfg)
        for j, h in enumerate(block):
            rng = np.random.default_rng(cfg.seed)
            x = np.zeros(p.n)
            want = [x]
            for _ in range(10):
                x = kl.sweep_randomized(p.A, B[:, j], x, omega, rng)
                want.append(x)
            _assert_rel_close(h.iterates, np.array(want))

    def test_single_column_block_gives_one_tuple(self):
        p = kl.gravity(8, 0.1)
        out = kl.run(p, p.b_bar[:, None], kl.SweepConfig(max_sweeps=3))
        assert isinstance(out, tuple) and len(out) == 1
        assert out[0].residual_norms.shape == (4,)


class TestRunInputChecks:
    @pytest.mark.parametrize("shape", [(7,), (9,), (7, 2), (9, 2), (8, 0), (8, 2, 1)])
    def test_wrong_shape_rejected(self, shape):
        p = kl.gravity(8, 0.1)
        with pytest.raises(ValueError, match="must be an 8-vector or an 8-by-R block"):
            kl.run(p, np.ones(shape), kl.SweepConfig(max_sweeps=2))

    def test_wrong_length_reference_rejected(self):
        p = kl.gravity(8, 0.1)
        with pytest.raises(ValueError, match="reference must be an 8-vector"):
            kl.run(p, p.b_bar, kl.SweepConfig(max_sweeps=2), reference=np.ones(7))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_reference_rejected(self, bad):
        p = kl.gravity(8, 0.1)
        ref = p.x_bar.copy()
        ref[0] = bad
        with pytest.raises(ValueError, match="reference has non-finite"):
            kl.run(p, p.b_bar, kl.SweepConfig(max_sweeps=2), reference=ref)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("block", [False, True])
    def test_non_finite_rejected(self, bad, block):
        p = kl.gravity(8, 0.1)
        b = p.b_bar.copy()
        b[3] = bad
        if block:
            b = np.column_stack([p.b_bar, b])
        for variant in ("standard", "randomized"):
            with pytest.raises(ValueError, match="non-finite"):
                kl.run(p, b, kl.SweepConfig(variant=variant, max_sweeps=2))

    @pytest.mark.parametrize("where", ["A", "b", "reference"])
    def test_complex_data_rejected(self, where):
        # never cast to the real part with a ComplexWarning
        p = kl.gravity(8, 0.1)
        A, b, ref = p.A, p.b_bar, p.x_bar
        if where == "A":
            p = kl.TestProblem(A=A + 1e-3j, x_bar=ref, b_bar=b, name="complex")
        elif where == "b":
            b = b + 1e-3j
        else:
            ref = ref + 1e-3j
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="must be real"):
                kl.run(p, b, kl.SweepConfig(max_sweeps=2), reference=ref)
            if where != "reference":
                with pytest.raises(ValueError, match="must be real"):
                    kl.cgls(p.A, b, 2)


class TestConfigValidation:
    @pytest.mark.parametrize("omega", [0.0, 2.0, -0.5, 2.5])
    def test_omega_range(self, omega):
        with pytest.raises(ValueError):
            kl.SweepConfig(omega=omega)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            kl.SweepConfig(variant="greedy")

    @pytest.mark.parametrize("max_sweeps", [2.5, np.nan, 3.0, -1, True, "3"])
    def test_max_sweeps_is_a_nonnegative_integer(self, max_sweeps):
        # a fractional or NaN count used to pass here and fail in np.empty
        with pytest.raises(ValueError, match="max_sweeps must be a nonnegative integer"):
            kl.SweepConfig(max_sweeps=max_sweeps)


class TestCgls:
    def test_identity_converges_in_one_step(self):
        b = np.array([1.0, -2.0, 0.5])
        h = kl.cgls(np.eye(3), b, k_max=1)
        np.testing.assert_allclose(h.iterates[-1], b, atol=1e-14)

    def test_full_rank_matches_direct_solve(self):
        rng = np.random.default_rng(37)
        A = rng.standard_normal((6, 6)) + 4 * np.eye(6)
        x = rng.standard_normal(6)
        h = kl.cgls(A, A @ x, k_max=6)
        assert h.residual_norms[-1] <= 1e-8 * np.linalg.norm(A @ x)

    def test_breakdown_flagged_and_truncated(self):
        h = kl.cgls(np.eye(3), np.zeros(3), k_max=5)
        assert "breakdown" in h.flags
        assert h.sweep_count == 0

    @pytest.mark.parametrize("bad", ["nan", "inf", "short", "long", "block"])
    def test_bad_b_rejected(self, bad):
        # a NaN used to give an all-NaN history with no flag, and a short b
        # numpy's matmul shape error
        p = kl.gravity(16, 0.1)
        b = p.b_bar.copy()
        b[3] = np.nan if bad == "nan" else np.inf
        b = {"short": p.b_bar[:-1], "long": np.append(p.b_bar, 0.0),
             "block": np.column_stack([p.b_bar, p.b_bar])}.get(bad, b)
        with pytest.raises(ValueError, match="non-finite|16-vector|one right-hand side"):
            kl.cgls(p.A, b, 3)

    def test_semiconvergence_like_kaczmarz(self, gravity128_06):
        # with noisy data both solvers pass through an interior error
        # minimum before the propagated noise takes over
        p = gravity128_06
        b = kl.add_noise(p.b_bar, kl.NoiseModel(sigma=5e-3, seed=4))
        hk = kl.run(p, b, kl.SweepConfig(max_sweeps=60, store_iterates=True))
        hc = kl.cgls(p.A, b, k_max=60)
        for h in (hk, hc):
            err = np.linalg.norm(h.iterates - p.x_bar, axis=1)
            kmin = int(np.argmin(err))
            assert 0 < kmin < h.sweep_count
