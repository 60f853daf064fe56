"""Tests for spectrum reports, structure, bounds, and omega scans."""

import numpy as np
import pytest
import scipy.linalg as sla

import kaczmarz_lab as kl


def _restricted(p, omega, sv=None):
    sv = sv or kl.svd(p.A)
    lf = kl.build_L(p.A, omega)
    return sv, lf, kl.restrict_to_V(p.A, lf, sv)


class TestSpectrum:
    def test_zero_eigenvalue_at_omega_one(self, small_problems):
        for p in small_problems:
            sv, lf, ro = _restricted(p, 1.0)
            rep = kl.spectrum(ro)
            assert rep.zero_count >= 1

    def test_tomo_zero_eigenvalue_cluster(self, tomo_spectrum):
        assert tomo_spectrum.zero_count >= 20

    def test_tomo_random_order_radius_order_of_magnitude(self, tomo, tomo_svd):
        # a random row permutation shifts the radius within a decade of
        # one part in 1e6
        q = kl.apply_ordering(tomo, kl.random_ordering(tomo.m, seed=7))
        ro = kl.restrict_to_V(q.A, kl.build_L(q.A, 1.0), tomo_svd)
        rep = kl.spectrum(ro)
        assert abs(np.log10(1.0 - rep.rho) - np.log10(1.1e-6)) <= 1.0

    def test_report_consistency(self, gravity128_06):
        sv, lf, ro = _restricted(gravity128_06, 1.0)
        rep = kl.spectrum(ro, zero_tol=1e-8)
        assert rep.rho == abs(rep.eigenvalues[0])
        assert rep.zero_count == np.sum(np.abs(rep.eigenvalues) <= 1e-8)
        assert not rep.near_defective

    @pytest.mark.parametrize("zero_tol", [np.nan, -1.0, np.inf])
    def test_bad_zero_tol_rejected(self, zero_tol):
        # a NaN or negative tolerance used to report zero_count 0
        _, _, ro = _restricted(kl.gravity(16, 0.1), 1.0)
        with pytest.raises(ValueError, match="zero_tol must be finite and nonnegative"):
            kl.spectrum(ro, zero_tol=zero_tol)


# sorted by descending modulus: a complex top pair, exact zeros of both
# signs, a zero within the tolerance and negative real parts; then an
# all-real spectrum
_SPECTRA = {
    "complex-top": np.array([0.6 + 0.8j, 0.6 - 0.8j, -0.7, -0.3 + 0.2j, -0.3 - 0.2j,
                             2e-8, 1e-10, 0.0, -0.0]),
    "all-real": np.array([1.5 + 0j, -1.2, 0.5, -0.25, 1e-3]),
}

_PROPERTIES = {
    "rho": lambda lam, rep: max(abs(z) for z in lam),
    "zero_count": lambda lam, rep: sum(abs(z) <= rep.zero_tol for z in lam),
    "max_im": lambda lam, rep: max(abs(z.imag) for z in lam),
    "n_nonpos_real": lambda lam, rep: sum(z.real <= 0.0 for z in lam),
    "min_abs": lambda lam, rep: min(abs(z) for z in lam),
    "top_is_real": lambda lam, rep: max(lam, key=abs).imag == 0.0,
    "near_defective": lambda lam, rep: (rep.kappa_W is not None
                                        and rep.kappa_W > kl.spectral.NEAR_DEFECTIVE_KAPPA),
}


class TestSpectrumReport:
    @pytest.mark.parametrize("prop", list(_PROPERTIES))
    @pytest.mark.parametrize("name, kappa_W", [("complex-top", None), ("complex-top", 10.0),
                                               ("all-real", 1e13)])
    def test_property_matches_direct_formula(self, name, kappa_W, prop):
        lam = _SPECTRA[name]
        rep = kl.SpectrumReport(lam, 1.0, 1e-8, kappa_W)
        assert getattr(rep, prop) == _PROPERTIES[prop](list(lam), rep)


class TestStructuralOrthogonality:
    def test_diagonal_matrix_full_block(self):
        rep = kl.structural_orthogonality(np.diag([1.0, 2.0, 3.0]))
        assert rep.leading_diag_block == 3
        assert rep.orth_pairs == 3

    def test_dense_random_block_one(self):
        A = np.random.default_rng(0).standard_normal((6, 4))
        rep = kl.structural_orthogonality(A)
        assert rep.leading_diag_block == 1
        assert rep.orth_pairs == 0

    def test_tomo_leading_block(self, tomo):
        # the whole first projection is structurally orthogonal
        rep = kl.structural_orthogonality(tomo.A)
        assert rep.leading_diag_block >= 20
        assert rep.near_orth == 0.0

    def test_zero_count_at_least_block_size(self, tomo, tomo_spectrum):
        rep = kl.structural_orthogonality(tomo.A)
        assert tomo_spectrum.zero_count >= rep.leading_diag_block

    def test_diagonal_case_all_zero_eigenvalues(self):
        # orthogonal rows at omega = 1: the sweep solves exactly, G = 0
        A = np.diag([2.0, 1.0, 0.5])
        sv = kl.svd(A)
        ro = kl.restrict_to_V(A, kl.build_L(A, 1.0), sv)
        rep = kl.spectrum(ro)
        assert rep.zero_count == 3 == kl.structural_orthogonality(A).leading_diag_block


@pytest.fixture(scope="module")
def gravity_bounds(gravity128_02):
    sv, lf, ro = _restricted(gravity128_02, 1.0)
    return kl.rho_bounds(gravity128_02.A, sv, lf, ro)


class TestRhoBounds:

    def test_reference_values(self, gravity_bounds):
        # 1-rho ~ 1e-4, 1-||G|| ~ 9.9e-5, both bounds ~ 1e-5 (factor 2)
        rep = gravity_bounds
        assert 0.5e-4 <= 1.0 - rep.rho_actual <= 2e-4
        assert 0.5e-4 <= 1.0 - rep.norm_G <= 2e-4
        assert 0.5e-5 <= 1.0 - rep.bound_L <= 2e-5
        assert 0.5e-5 <= 1.0 - rep.bound_nu <= 2e-5
        assert rep.assumption_met

    def test_ordering_chain(self, gravity_bounds, gravity128_02):
        rep = gravity_bounds
        assert rep.rho_actual <= rep.norm_G <= 1.0
        assert rep.rho_actual <= rep.bound_L <= rep.bound_nu
        # ||L||_2 by numpy's dense 2-norm, not the report's route
        norm_L = np.linalg.norm(kl.build_L(gravity128_02.A, 1.0).L, 2)
        assert 0.0 < rep.nu <= 1.0 / norm_L + 1e-12

    def test_orthogonal_rows_normal_operator(self):
        # diagonal A A^T makes G symmetric, so rho equals the norm
        rng = np.random.default_rng(1)
        A = np.diag(rng.uniform(0.5, 2.0, size=5)) @ np.eye(5, 8)
        sv, lf, ro = _restricted(kl.TestProblem(A=A, x_bar=np.zeros(8),
                                                b_bar=np.zeros(5), name="orth"), 1.3)
        rep = kl.rho_bounds(A, sv, lf, ro)
        assert abs(rep.rho_actual - rep.norm_G) <= 1e-10

    def test_complex_extremal_pair_flagged(self, gravity128_01):
        # this configuration has a conjugate pair at maximum modulus
        sv, lf, ro = _restricted(gravity128_01, 1.4)
        rep = kl.rho_bounds(gravity128_01.A, sv, lf, ro)
        assert not rep.assumption_met
        top = kl.spectrum(ro).eigenvalues[0]
        assert abs(top.imag) > 1e-8

    def test_bounds_hold_on_battery(self, small_problems):
        for p in small_problems[:2]:
            for omega in (0.5, 1.0, 1.5):
                sv, lf, ro = _restricted(p, omega)
                rep = kl.rho_bounds(p.A, sv, lf, ro)
                if rep.assumption_met:
                    assert rep.rho_actual <= rep.bound_L + 1e-12
                    assert rep.bound_L <= rep.bound_nu + 1e-12


    def test_given_kappa_X_changes_nothing(self, small_problems):
        # kappa_X is taken at omega = 1 whatever omega is studied, so a
        # caller may compute it once and pass it in
        for p in small_problems[:2]:
            kappa_X = kl.spectral.bauer_fike_kappa(p.A)
            assert kappa_X == kl.eig_general(
                sla.solve_triangular(kl.build_L(p.A, 1.0).L, p.A @ p.A.T, lower=True)).kappa
            for omega in (0.5, 1.0, 1.5):
                sv, lf, ro = _restricted(p, omega)
                assert kl.rho_bounds(p.A, sv, lf, ro, kappa_X=kappa_X) == kl.rho_bounds(
                    p.A, sv, lf, ro)


    def test_given_kappa_X_no_eigenvectors(self, monkeypatch):
        # with kappa_X given, rho_bounds reads eigenvalues only
        def forbidden(M):
            raise AssertionError("rho_bounds computed eigenvectors")

        monkeypatch.setattr(kl.spectral, "eig_general", forbidden)
        p = kl.gravity(32, 0.06)
        for omega in (0.5, 1.0):
            sv, lf, ro = _restricted(p, omega)
            rep = kl.rho_bounds(p.A, sv, lf, ro, kappa_X=1.0)
            assert rep.rho_actual == np.max(np.abs(kl.eigvals(ro.Gv)))


class TestBauerFike:
    def test_structurally_orthogonal_rows_zero_bound(self):
        A = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 1.0, 1.0]])
        lf = kl.build_L(A, 1.0)
        assert kl.bauer_fike_bound(A, lf, kappa_X=10.0) == 0.0

    def test_linear_in_row_inner_product(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((5, 4))
        lf = kl.build_L(A, 1.0)
        b1 = kl.bauer_fike_bound(A, lf, kappa_X=1.0)
        A2 = A.copy()
        A2[1] *= 3.0
        # same L factor argument isolates the |a_1^T a_2| scaling
        b2 = kl.bauer_fike_bound(A2, lf, kappa_X=1.0)
        assert abs(b2 - 3.0 * b1) <= 1e-12 * max(1.0, b1)

    def test_second_smallest_eigenvalue_below_bound(self):
        # nearly-orthogonal leading rows: the bound captures the second
        # near-zero eigenvalue
        rng = np.random.default_rng(3)
        A = rng.standard_normal((6, 4))
        A[1] -= (A[1] @ A[0]) / (A[0] @ A[0]) * A[0]
        A[1] += 1e-4 * A[0]
        lf = kl.build_L(A, 1.0)
        kappa_X = kl.eig_general(sla.solve_triangular(lf.L, A @ A.T, lower=True)).kappa
        bound = kl.bauer_fike_bound(A, lf, kappa_X)
        ev = np.sort(np.abs(np.linalg.eigvals(
            np.eye(4) - A.T @ sla.solve_triangular(lf.L, A, lower=True))))
        assert ev[1] <= bound


class TestBackwardError:
    def test_omega_one_is_exact(self):
        A = np.random.default_rng(4).standard_normal((4, 3))
        assert kl.backward_error_bound(A, 1.0) == 0.0

    @pytest.mark.parametrize("omega", [np.nan, np.inf, 0.0])
    def test_bad_omega_rejected(self, omega):
        with pytest.raises(ValueError, match="omega must be finite and positive"):
            kl.backward_error_bound(np.ones((2, 2)), omega)

    def test_omega_two_half_max_row_norm(self):
        A = np.array([[3.0, 4.0], [1.0, 0.0]])
        assert kl.backward_error_bound(A, 2.0) == pytest.approx(0.5 * 25.0)

    def test_first_order_eigenvalue_estimate(self):
        # smallest |lambda| at omega near 1 is controlled by the condition
        # number of the zero eigenvalue times the backward error; the
        # factor 10 absorbs second-order terms
        p = kl.gravity(32, 0.06)
        kappa = kl.zero_eigenvalue_condition(p.A)
        bound = kl.backward_error_bound(p.A, 0.9)
        sv, lf, ro = _restricted(p, 0.9)
        smallest = np.min(np.abs(kl.spectrum(ro).eigenvalues))
        assert smallest <= 10.0 * kappa * bound


class TestSmallOmega:
    def test_gravity_real_spectrum_threshold(self, gravity128_06):
        sv = kl.svd(gravity128_06.A)
        scan = kl.small_omega_scan(
            gravity128_06.A, sv, np.arange(0.02, 0.21, 0.02)
        )
        assert scan.omega0 == pytest.approx(0.08, abs=0.021)

    def test_first_order_operator_richardson(self):
        # eigenvalue mismatch against I - omega A^T D^-1 A shrinks like
        # omega^2: quartering omega-squared between the two probes
        p = kl.gravity(32, 0.06)
        sv = kl.svd(p.A)
        D = kl.row_norms_squared(p.A)
        errs = []
        for omega in (1e-2, 5e-3):
            ro = kl.restrict_to_V(p.A, kl.build_L(p.A, omega), sv)
            got = np.sort(np.linalg.eigvals(ro.Gv).real)
            first_order = np.eye(sv.rank) - omega * sv.V.T @ (
                p.A.T @ (p.A @ sv.V / D[:, None])
            )
            want = np.sort(np.linalg.eigvalsh(0.5 * (first_order + first_order.T)))
            errs.append(np.max(np.abs(got - want)))
        ratio = errs[0] / errs[1]
        assert 2.5 <= ratio <= 6.0

    def test_scan_rows_sorted_and_complete(self, gravity128_06):
        sv = kl.svd(gravity128_06.A)
        scan = kl.small_omega_scan(gravity128_06.A, sv, [0.3, 0.1, 0.2])
        assert [r.omega for r in scan.rows] == [0.1, 0.2, 0.3]
        for row in scan.rows:
            # rho is numerically 1 here (condition number ~2e9 puts
            # 1 - rho below the eigenvalue resolution)
            assert 0.0 < row.rho <= 1.0 + 1e-10
            assert row.zero_count >= 0 and row.n_nonpos_real >= 0


    def test_rows_are_eigenvalue_only_reports(self, gravity128_06):
        sv = kl.svd(gravity128_06.A)
        for row in kl.small_omega_scan(gravity128_06.A, sv, [0.5, 1.0]).rows:
            assert isinstance(row, kl.SpectrumReport)
            assert row.kappa_W is None
            assert row.near_defective is False

    def test_one_gram_per_scan(self, monkeypatch):
        # each omega's factor comes from the first one through with_omega,
        # bit-identical to a factor built at that omega
        p = kl.gravity(32, 0.06)
        sv = kl.svd(p.A)
        calls = []

        def spy(A, omega):
            calls.append(omega)
            return kl.build_L(A, omega)

        monkeypatch.setattr(kl.spectral, "build_L", spy)
        scan = kl.small_omega_scan(p.A, sv, [1.5, 0.5, 1.0])
        assert calls == [0.5]
        for row in scan.rows:
            ro = kl.restrict_to_V(p.A, kl.build_L(p.A, row.omega), sv)
            np.testing.assert_array_equal(row.eigenvalues, kl.eigvals(ro.Gv))

    @pytest.mark.parametrize("name", ["zero_tol", "im_tol"])
    @pytest.mark.parametrize("value", [np.nan, -1.0, np.inf])
    def test_bad_tolerance_rejected(self, name, value):
        # a NaN im_tol used to make omega0 the last grid point
        p = kl.gravity(16, 0.1)
        with pytest.raises(ValueError, match=f"{name} must be finite and nonnegative"):
            kl.small_omega_scan(p.A, kl.svd(p.A), [0.1, 0.2], **{name: value})


class TestSmallOmegaAgainstDenseRoute:
    """Scan rows against eigenvalues of V^T G V with G formed from inv(L)."""

    @pytest.mark.parametrize("omega", [0.3, 1.0, 1.7])
    def test_rows_match_dense_eigenvalues(self, small_problems, omega):
        # the battery includes gravity(32, 0.06)
        for p in small_problems:
            sv = kl.svd(p.A)
            lf = kl.build_L(p.A, omega)
            G = np.eye(p.n) - p.A.T @ np.linalg.inv(lf.L) @ p.A
            lam = np.linalg.eigvals(sv.V.T @ G @ sv.V)
            row = kl.small_omega_scan(p.A, sv, [omega]).rows[0]
            rho = np.max(np.abs(lam))
            assert row.rho == pytest.approx(rho, rel=1e-10)
            assert row.max_im == pytest.approx(np.max(np.abs(lam.imag)), rel=1e-10, abs=1e-14)
            zero = np.abs(lam) <= kl.spectral.DEFAULT_ZERO_TOL
            assert row.zero_count == np.sum(zero)
            # an exactly zero eigenvalue has a real part of either sign at
            # rounding level, so only the other eigenvalues are counted
            # exactly; the zero ones count as nonpositive or not
            nonpos = int(np.sum(lam.real[~zero] <= 0.0))
            assert nonpos <= row.n_nonpos_real <= nonpos + row.zero_count

    def test_scan_stays_in_one_library(self, monkeypatch):
        # the scan's speed depends on never mixing numpy's OpenBLAS with
        # scipy's: no numpy eigensolve, no scipy triangular solve between
        # numpy products
        def forbidden(*args, **kwargs):
            raise AssertionError("small_omega_scan left scipy's BLAS")

        monkeypatch.setattr(np.linalg, "eigvals", forbidden)
        for module in (kl.linalg, kl.operator, kl.spectral):
            for name in ("solve_lower", "solve_upper"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
        p = kl.gravity(32, 0.06)
        scan = kl.small_omega_scan(p.A, kl.svd(p.A), [0.5, 1.0, 1.5])
        assert len(scan.rows) == 3


class TestSymmetricRelations:
    def test_radius_equals_squared_norm_battery(self, small_problems):
        # ten instances: the double-sweep radius equals the squared
        # one-sweep norm to 1e-8 even though the two restrictions are
        # assembled independently
        count = 0
        for p in small_problems:
            sv = kl.svd(p.A)
            for omega in (0.6, 1.0, 1.4):
                lf = kl.build_L(p.A, omega)
                rel = kl.symmetric_relations(
                    kl.restrict_to_V(p.A, lf, sv),
                    kl.restrict_symmetric_to_V(p.A, lf, sv),
                )
                assert rel.difference <= 1e-8
                assert rel.max_all < 1.0 + 1e-10
                count += 1
        assert count >= 10

    def test_gravity_reference_radii(self, gravity128_01):
        # rho(G) ~ 0.92 and rho of the double sweep ~ 0.85 at omega = 1
        sv = kl.svd(gravity128_01.A)
        lf = kl.build_L(gravity128_01.A, 1.0)
        rel = kl.symmetric_relations(
            kl.restrict_to_V(gravity128_01.A, lf, sv),
            kl.restrict_symmetric_to_V(gravity128_01.A, lf, sv),
        )
        assert abs(rel.rho_G - 0.92) <= 0.02
        assert abs(rel.rho_Gs - 0.85) <= 0.02

    def test_mismatched_omega_rejected(self):
        p = kl.gravity(8, 0.1)
        sv = kl.svd(p.A)
        with pytest.raises(ValueError):
            kl.symmetric_relations(
                kl.restrict_to_V(p.A, kl.build_L(p.A, 0.5), sv),
                kl.restrict_symmetric_to_V(p.A, kl.build_L(p.A, 1.0), sv),
            )

    def test_restrictions_record_their_operator(self):
        # on gravity(32, 0.06) at omega = 1 the double-sweep radius (0.99346)
        # reads as a plausible one-sweep radius (0.99663), so rho_bounds and
        # symmetric_relations tell the two restrictions apart by their variant
        p = kl.gravity(32, 0.06)
        sv, lf = kl.svd(p.A), kl.build_L(p.A, 1.0)
        ro_G = kl.restrict_to_V(p.A, lf, sv)
        ro_Gs = kl.restrict_symmetric_to_V(p.A, lf, sv)
        assert (ro_G.variant, ro_Gs.variant) == ("standard", "symmetric")
        assert kl.rho_bounds(p.A, sv, lf, ro_G, kappa_X=1.0).rho_actual == pytest.approx(
            0.99663, abs=1e-5)
        with pytest.raises(ValueError, match="one-sweep"):
            kl.rho_bounds(p.A, sv, lf, ro_Gs, kappa_X=1.0)
        for args in ((ro_Gs, ro_G), (ro_G, ro_G), (ro_Gs, ro_Gs)):
            with pytest.raises(ValueError, match="standard then a symmetric"):
                kl.symmetric_relations(*args)
        rel = kl.symmetric_relations(ro_G, ro_Gs)
        assert rel.rho_Gs == pytest.approx(0.99346, abs=1e-5)
        assert rel.norm_G_squared == rel.norm_G**2
        assert rel.difference == abs(rel.rho_Gs - rel.norm_G**2)
        assert rel.max_all == max(rel.rho_G, rel.rho_Gs, rel.norm_G)

    def test_two_by_two_norm_threshold(self):
        # the miniature nonnormal example: norm reaches 1 at alpha ~ 0.0281
        alpha = kl.norm_threshold_alpha()
        assert abs(alpha - 0.0281) <= 5e-4


class TestSpdIdentities:
    @pytest.mark.parametrize("omega", [0.1, 0.7, 1.0, 1.5, 1.9])
    def test_L_plus_Lt_positive_definite(self, omega):
        A = np.random.default_rng(5).standard_normal((8, 6))
        lf = kl.build_L(A, omega)
        assert np.linalg.eigvalsh(lf.L + lf.L.T)[0] > 0.0
