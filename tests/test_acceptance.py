"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see every line.  Each
criterion asserts a quantitative statement at a fixed tolerance against
reference values for the named test problems.

Two criteria are known to fail and are kept at their reference tolerances
deliberately (see their docstrings): the tomography spectral-radius gap
(criterion 3) and the left edge of the zero-eigenvalue plateau
(criterion 11).
"""

import time

import numpy as np

import kaczmarz_lab as kl
from kaczmarz_lab.cli import main


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}  {detail}")
    assert ok, f"{name}: {detail}"


def test_c01_sweep_equals_triangular_solve_form():
    """One row-action sweep equals x + A^T L^-1 (b - A x) to 1e-10."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(20):
        m = int(rng.integers(2, 51))
        n = int(rng.integers(2, 41))
        A = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        x = rng.standard_normal(n)
        for omega in (0.3, 1.0, 1.7):
            lf = kl.build_L(A, omega)
            want = x + A.T @ kl.solve_lower(lf.L, b - A @ x)
            got = kl.sweep_standard(A, b, x, omega)
            rel = np.linalg.norm(got - want) / max(1.0, np.linalg.norm(want))
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    _report(
        "C1 sweep/matrix-form equivalence",
        worst <= 1e-10 and elapsed < 5.0,
        f"worst rel diff {worst:.2e}, {elapsed:.2f}s",
    )


def test_c02_zero_eigenvector_exactness(tomo, baart32, gravity128_01,
                                        gravity128_02):
    """G a_1 = 0 and G^T a_m = 0 at omega=1 to 1e-12 on every problem."""
    problems = [gravity128_01, gravity128_02, kl.gravity(128, 0.4), baart32, tomo]
    t0 = time.perf_counter()
    worst = 0.0
    for p in problems:
        lf = kl.build_L(p.A, 1.0)
        a1, am = p.A[0], p.A[-1]
        r1 = np.linalg.norm(kl.apply_G(lf, p.A, a1)) / np.linalg.norm(a1)
        rm = np.linalg.norm(kl.apply_Gt(lf, p.A, am)) / np.linalg.norm(am)
        worst = max(worst, r1, rm)
    elapsed = time.perf_counter() - t0
    _report(
        "C2 zero-eigenvector exactness at omega=1",
        worst <= 1e-12 and elapsed < 5.0,
        f"worst residual {worst:.2e}, {elapsed:.2f}s",
    )


def test_c03_ct_spectral_radius_gap(tomo_spectrum):
    """1 - rho for the 1024x1024 tomography operator vs reference 1.063e-7.

    Known to fail: the unit-ray-spacing geometry (the only convention
    reproducing the full square 1024x1024 matrix and its orthogonality
    structure) gives a stable 4.40e-7, factor 4.1 from the reference,
    just outside the factor-3 budget.  The reference's exact detector
    convention could not be reconstructed; all conventions tried either
    land at factor 4.1 (this one) or miss by orders of magnitude.  The
    tolerance is kept as specified rather than widened to fit.
    """
    gap = 1.0 - tomo_spectrum.rho
    ref = 1.063e-7
    ok = ref / 3.0 <= gap <= ref * 3.0
    _report("C3 tomography 1-rho vs reference", ok,
            f"measured {gap:.3e}, reference {ref:.3e}, ratio {gap / ref:.2f}")


def test_c04_ct_zero_structure(tomo, tomo_svd, tomo_spectrum):
    """Zero-eigenvalue count and diagonal block of the CT operator."""
    struct = kl.structural_orthogonality(tomo.A)
    perm = kl.apply_ordering(tomo, kl.random_ordering(tomo.m, seed=7))
    ro = kl.restrict_to_V(perm.A, kl.build_L(perm.A, 1.0), tomo_svd)
    zc_perm = kl.spectrum(ro).zero_count
    ok = (
        tomo_spectrum.zero_count >= 20
        and struct.leading_diag_block >= 20
        and zc_perm < tomo_spectrum.zero_count
    )
    _report(
        "C4 CT zero-eigenvalue structure",
        ok,
        f"zero_count {tomo_spectrum.zero_count}, block {struct.leading_diag_block}, "
        f"permuted zero_count {zc_perm}",
    )


def test_c05_gravity_reference_numbers(gravity128_01, gravity128_02):
    """Condition numbers 10.21/415.7 and radii 0.92/0.85 for gravity."""
    t0 = time.perf_counter()
    conds = {}
    for p, d in ((gravity128_01, 0.01), (gravity128_02, 0.02)):
        s = np.linalg.svd(p.A, compute_uv=False)
        conds[d] = s[0] / s[-1]
    sv = kl.svd(gravity128_01.A)
    lf = kl.build_L(gravity128_01.A, 1.0)
    rel = kl.symmetric_relations(gravity128_01.A, lf, sv)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(conds[0.01] - 10.21) / 10.21 < 0.05
        and abs(conds[0.02] - 415.7) / 415.7 < 0.05
        and abs(rel.rho_G - 0.92) <= 0.02
        and abs(rel.rho_Gs - 0.85) <= 0.02
        and elapsed < 30.0
    )
    _report(
        "C5 gravity condition numbers and radii",
        ok,
        f"cond {conds[0.01]:.2f}/{conds[0.02]:.1f}, rho {rel.rho_G:.4f}, "
        f"rho_s {rel.rho_Gs:.4f}, {elapsed:.1f}s",
    )


def test_c06_symmetric_identity_and_threshold(small_problems):
    """rho of the double sweep equals ||G|_V||^2; 2x2 norm threshold."""
    worst = 0.0
    count = 0
    for p in small_problems:
        sv = kl.svd(p.A)
        for omega in (0.6, 1.0, 1.4):
            lf = kl.build_L(p.A, omega)
            rel = kl.symmetric_relations(p.A, lf, sv)
            worst = max(worst, rel.difference)
            count += 1
    alpha = kl.norm_threshold_alpha()
    ok = count >= 10 and worst <= 1e-8 and abs(alpha - 0.0281) <= 5e-4
    _report(
        "C6 double-sweep radius identity + 2x2 threshold",
        ok,
        f"{count} instances, worst |rho_s - norm^2| {worst:.2e}, alpha {alpha:.5f}",
    )


def test_c07_bounds_example(gravity128_02):
    """Radius, norm, and both upper bounds for gravity(128, 0.02)."""
    sv = kl.svd(gravity128_02.A)
    lf = kl.build_L(gravity128_02.A, 1.0)
    rep = kl.rho_bounds(gravity128_02.A, sv, lf)
    within = lambda got, ref: ref / 2.0 <= got <= ref * 2.0  # noqa: E731
    ok = (
        within(1.0 - rep.rho_actual, 1e-4)
        and within(1.0 - rep.bound_L, 1e-5)
        and within(1.0 - rep.bound_nu, 1e-5)
        and within(1.0 - rep.norm_G, 9.9e-5)
        and rep.rho_actual <= rep.norm_G
        and rep.rho_actual <= rep.bound_L <= rep.bound_nu
    )
    _report(
        "C7 spectral-radius bounds example",
        ok,
        f"1-rho {1 - rep.rho_actual:.2e}, 1-norm {1 - rep.norm_G:.2e}, "
        f"1-bound_L {1 - rep.bound_L:.2e}, 1-bound_nu {1 - rep.bound_nu:.2e}",
    )


def test_c08_real_spectrum_thresholds(gravity128_06, tomo, tomo_svd):
    """All-real spectrum edges: 0.08 (gravity) and 0.004 (tomography)."""
    sv_g = kl.svd(gravity128_06.A)
    scan_g = kl.small_omega_scan(
        gravity128_06.A, sv_g, np.round(np.arange(0.02, 0.21, 0.02), 10)
    )
    scan_t = kl.small_omega_scan(
        tomo.A, tomo_svd, np.round(np.arange(0.001, 0.009, 0.001), 10)
    )
    ok = (
        scan_g.omega0 is not None
        and abs(scan_g.omega0 - 0.08) <= 0.02
        and scan_t.omega0 is not None
        and abs(scan_t.omega0 - 0.004) <= 0.002
    )
    _report(
        "C8 real-spectrum omega thresholds",
        ok,
        f"gravity omega0 {scan_g.omega0}, tomography omega0 {scan_t.omega0}",
    )


def test_c09_expected_noise_norm():
    """Monte Carlo mean within 3 standard errors of the closed form."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)
    A16 = rng.standard_normal((16, 16)) + 2 * np.eye(16)
    g32 = kl.gravity(32, 0.06)
    ok = True
    details = []
    for tag, A in (("random16", A16), ("gravity32", g32.A)):
        sv = kl.svd(A)
        sm = kl.sharp_maps(A, kl.build_L(A, 1.0), sv)
        exp = kl.expected_norms(sm, sigma=1e-2, ks=[1, 5, 20], n_mc=10_000, seed=17)
        dev = np.max(np.abs(exp.mc - exp.e1) / exp.mc_stderr)
        details.append(f"{tag} max dev {dev:.2f} sigma_err")
        ok = ok and dev <= 3.0
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _report("C9 expected noise norm vs Monte Carlo", ok,
            "; ".join(details) + f", {elapsed:.1f}s")


def test_c10_semiconvergence(gravity128_06):
    """25 noise realizations: interior minima, shared iteration error,
    and the same qualitative pattern for the CGLS reference."""
    p = gravity128_06
    cfg = kl.SweepConfig(max_sweeps=200)
    iter_curves = []
    interior = []
    for seed in range(25):
        b = kl.add_noise(p.b_bar, kl.NoiseModel(5e-3, seed))
        split = kl.error_split(p, b, cfg)
        kmin = kl.semiconvergence_min(split)
        interior.append(0 < kmin < 200)
        iter_curves.append(split.iter_err)
    shared_iteration = all(
        np.array_equal(iter_curves[0], c) for c in iter_curves[1:]
    )
    cgls_interior = []
    for seed in range(5):
        b = kl.add_noise(p.b_bar, kl.NoiseModel(5e-3, seed))
        h = kl.cgls(p.A, b, k_max=60)
        err = np.linalg.norm(h.iterates - p.x_bar, axis=1)
        kmin = int(np.argmin(err))
        cgls_interior.append(0 < kmin < h.sweep_count)
    ok = all(interior) and shared_iteration and all(cgls_interior)
    _report(
        "C10 semi-convergence structure",
        ok,
        f"interior minima {sum(interior)}/25, shared iteration curve "
        f"{shared_iteration}, CGLS interior {sum(cgls_interior)}/5",
    )


def test_c11_zero_eigenvalue_plateau(gravity128_01):
    """zero_count >= 1 for every scanned omega in [0.4, 1.6].

    Known to fail at the left edge: for this exact matrix (condition
    number matches the reference to 0.07%) the smallest eigenvalue
    modulus is 3.3e-2 at omega=0.40 and only dives below the 1e-8
    zero tolerance at omega ~ 0.49; the numerically-zero plateau is
    [0.49, ~1.68].  The interval is asserted as specified.
    """
    sv = kl.svd(gravity128_01.A)
    grid = np.round(np.arange(0.40, 1.6001, 0.05), 10)
    scan = kl.small_omega_scan(gravity128_01.A, sv, grid)
    bad = [r.omega for r in scan.rows if r.zero_count < 1]
    _report(
        "C11 zero-eigenvalue plateau on [0.4, 1.6]",
        not bad,
        f"scanned {len(scan.rows)} points, zero_count=0 at {bad or 'none'}",
    )


def test_c12_cli_determinism(tmp_path):
    """Byte-identical CSV outputs when any command is rerun."""
    from test_cli import SMALL, _csv_bytes

    all_ok = True
    for command, flags in SMALL.items():
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / command / tag
            rc = main([command, *flags, "--out", str(out)])
            all_ok = all_ok and rc == 0
            outs.append(_csv_bytes(out / command))
        all_ok = all_ok and outs[0] == outs[1] and len(outs[0]) > 0
    _report("C12 CLI rerun determinism", all_ok,
            f"{len(SMALL)} commands, byte-identical CSVs")
