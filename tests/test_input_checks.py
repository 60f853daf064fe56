"""The library's three input rules (``linalg._check_int``, ``_check_real`` and
``_as_array``) at the public entry points that take caller data."""

import numpy as np
import pytest

import kaczmarz_lab as kl


@pytest.fixture(scope="module")
def g12():
    p = kl.gravity(12, 0.1)
    sv = kl.svd(p.A)
    lf = kl.build_L(p.A, 1.0)
    return p, sv, lf, kl.sharp_maps(p.A, lf, sv)


def _with_nan(a, where):
    a = np.array(a, dtype=float)
    a[where] = np.nan
    return a


_COMPLEX = np.ones(12) + 1e-3j

# the factor and the row-space basis of another, smaller matrix
_Q = kl.gravity(8, 0.1)
_LF8, _SV8 = kl.build_L(_Q.A, 1.0), kl.svd(_Q.A)

# Before these checks each row either cast complex data to its real part
# with a ComplexWarning, returned NaN or an empty report, died with a BLAS
# or matmul shape error, a numpy reduction error, an IndexError or a
# TypeError, or ran on a bool as 1.0.
_BAD_INPUT = [
    ("apply_Ak_sharp-complex", lambda p, sv, lf, sm: kl.apply_Ak_sharp(sm, _COMPLEX, 2),
     "e must be real"),
    ("xi_profile-complex", lambda p, sv, lf, sm: kl.xi_profile(sm, _COMPLEX, [1]),
     "e must be real"),
    ("fixed_point-complex", lambda p, sv, lf, sm: kl.fixed_point(p, _COMPLEX),
     "b must be real"),
    ("least_norm_solution-complex", lambda p, sv, lf, sm: kl.least_norm_solution(p.A, _COMPLEX),
     "b must be real"),
    ("apply_G-complex", lambda p, sv, lf, sm: kl.apply_G(lf, p.A, _COMPLEX), "x must be real"),
    ("apply_Gt-complex", lambda p, sv, lf, sm: kl.apply_Gt(lf, p.A, _COMPLEX), "x must be real"),
    ("apply_Gs-complex", lambda p, sv, lf, sm: kl.apply_Gs(lf, p.A, _COMPLEX), "x must be real"),
    ("build_L-complex", lambda p, sv, lf, sm: kl.build_L(p.A + 1e-3j, 1.0), "matrix must be real"),
    ("sharp_maps-complex", lambda p, sv, lf, sm: kl.sharp_maps(p.A + 1e-3j, lf, sv),
     "matrix must be real"),
    ("build_L-nan", lambda p, sv, lf, sm: kl.build_L(_with_nan(p.A, (2, 3)), 1.0),
     "matrix has non-finite"),
    ("apply_G-nan", lambda p, sv, lf, sm: kl.apply_G(lf, p.A, _with_nan(np.ones(12), 4)),
     "x has non-finite"),
    ("apply_G-short", lambda p, sv, lf, sm: kl.apply_G(lf, p.A, np.ones(11)),
     "x must be an 12-vector"),
    ("least_norm_solution-short", lambda p, sv, lf, sm: kl.least_norm_solution(p.A, np.ones(11)),
     "b must be an 12-vector"),
    ("build_L-bool", lambda p, sv, lf, sm: kl.build_L(p.A, True), "omega must be finite"),
    ("gravity-bool", lambda p, sv, lf, sm: kl.gravity(8, True), "depth d must be finite"),
    ("expected_norms-bool", lambda p, sv, lf, sm: kl.expected_norms(sm, True, [1], n_mc=10),
     "sigma must be finite"),
    ("backward_error_bound-bool", lambda p, sv, lf, sm: kl.backward_error_bound(p.A, True),
     "omega must be finite"),
    ("svd-bool", lambda p, sv, lf, sm: kl.svd(p.A, True), "rank_tol must be finite"),
    ("SweepConfig-string", lambda p, sv, lf, sm: kl.SweepConfig(omega="1"),
     r"omega must lie in \(0, 2\)"),
    ("NoiseModel-string", lambda p, sv, lf, sm: kl.NoiseModel("1"), "sigma must be finite"),
    ("spectrum-None", lambda p, sv, lf, sm: kl.spectrum(kl.restrict_to_V(p.A, lf, sv), None),
     "zero_tol must be finite"),
    ("fixed_point-short", lambda p, sv, lf, sm: kl.fixed_point(p, np.ones(11)),
     "b must be an 12-vector"),
    ("add_noise-complex", lambda p, sv, lf, sm: kl.add_noise(_COMPLEX, kl.NoiseModel(0.1, 0)),
     "b_bar must be real"),
    ("monotonicity_probe-empty-ks", lambda p, sv, lf, sm: kl.monotonicity_probe(sm.lam, []),
     "iteration counts k must be a nonempty list"),
    ("expected_norms-empty-ks", lambda p, sv, lf, sm: kl.expected_norms(sm, 1e-3, [], n_mc=10),
     "iteration counts k must be a nonempty list"),
    ("xi_profile-empty-ks", lambda p, sv, lf, sm: kl.xi_profile(sm, p.b_bar, []),
     "iteration counts k must be a nonempty list"),
    ("monotonicity_probe-nan", lambda p, sv, lf, sm: kl.monotonicity_probe(
        _with_nan(sm.lam.real, 3), [1, 2]), "lam has non-finite"),
    ("monotonicity_probe-complex-nan", lambda p, sv, lf, sm: kl.monotonicity_probe(
        np.where(np.arange(sm.r) == 3, np.nan, sm.lam), [1, 2]), "lam has non-finite"),
    ("monotonicity_probe-string", lambda p, sv, lf, sm: kl.monotonicity_probe("0.5", [1]),
     "lam must be a nonempty 1-d real or complex array"),
    ("monotonicity_probe-empty-lam", lambda p, sv, lf, sm: kl.monotonicity_probe([], [1]),
     "lam must be a nonempty 1-d real or complex array"),
    ("monotonicity_probe-block", lambda p, sv, lf, sm: kl.monotonicity_probe(
        sm.lam[:, None], [1]), "lam must be a nonempty 1-d real or complex array"),
    ("apply_G-other-factor", lambda p, sv, lf, sm: kl.apply_G(_LF8, p.A, np.ones(12)),
     "lf must have the matrix's 12 rows, got 8"),
    ("rho_bounds-other-factor", lambda p, sv, lf, sm: kl.rho_bounds(p.A, sv, _LF8),
     "lf must have the matrix's 12 rows, got 8"),
    ("sharp_maps-other-factor", lambda p, sv, lf, sm: kl.sharp_maps(p.A, _LF8, sv),
     "lf must have the matrix's 12 rows, got 8"),
    ("bauer_fike_bound-other-factor", lambda p, sv, lf, sm: kl.bauer_fike_bound(p.A, _LF8),
     "lf must have the matrix's 12 rows, got 8"),
    ("restrict_to_V-other-basis", lambda p, sv, lf, sm: kl.restrict_to_V(p.A, lf, _SV8),
     r"sv.V must be an 12-vector or an 12-by-R block.*got shape \(8, 8\)"),
    ("restrict_symmetric_to_V-other-basis",
     lambda p, sv, lf, sm: kl.restrict_symmetric_to_V(p.A, lf, _SV8),
     r"sv.V must be an 12-vector or an 12-by-R block.*got shape \(8, 8\)"),
]


@pytest.mark.parametrize("call, match", [pytest.param(c, m, id=i) for i, c, m in _BAD_INPUT])
def test_bad_input_raises_value_error(g12, call, match):
    with pytest.raises(ValueError, match=match):
        call(*g12)


@pytest.mark.parametrize("call", [
    lambda sm: kl.random_ordering(5, 4.5),
    lambda sm: kl.add_noise(np.ones(3), kl.NoiseModel(1e-3, 2.5)),
    lambda sm: kl.expected_norms(sm, 1e-3, [1], n_mc=10, seed=1.5),
    lambda sm: kl.shepp_logan_like(2.5),
    lambda sm: kl.SweepConfig(seed=2.5),
    lambda sm: kl.SweepConfig(variant="randomized", seed=-1),
], ids=["random_ordering", "NoiseModel", "expected_norms", "shepp_logan_like", "SweepConfig",
        "SweepConfig-negative"])
def test_non_integer_seed_rejected(g12, call):
    # each used to die with numpy's TypeError ("SeedSequence expects int"),
    # and SweepConfig(seed=2.5) was built and failed only inside a
    # randomized run
    with pytest.raises(ValueError, match="must be (a nonnegative|an) integer"):
        call(g12[3])
