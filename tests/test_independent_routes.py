"""Reported numbers against routes that share none of their code.

Each number the library reports should be tested against an independent
route.  A new output comes with a row here and, once it exists, a test:

    output                 today's test                      independent route
    ---------------------  --------------------------------  -----------------------------
    nu (bounds.csv)        this module                       the pencil (sym(L), L^T L)
    mc, C9                 the same M and lift as E1         sweeps of the noise draws
    E1 for n > 512         a probe estimate                  exact E1 by sweeps
    E2 and xi on a         the same eigenbasis               a basis-free E2 on clusters
    cluster
    zero_count,            counts only                       certificates of the small
    zero_counts                                              eigenvalues
    kappa_W                equal to cond(C) of the same      certificates, and the thread
                           vectors; it moved 12 % with the   count in the run record
                           thread count on tomography
"""

import numpy as np
import pytest
import scipy.linalg as sla

import kaczmarz_lab as kl


@pytest.fixture(scope="module")
def gravity32_06():
    return kl.gravity(32, 0.06)


@pytest.mark.parametrize("omega", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("name", ["gravity32_06", "gravity128_02"])
def test_nu_is_the_smallest_pencil_eigenvalue(request, name, omega):
    # with x = L y, x^T L^-1 x / x^T x = y^T sym(L) y / y^T L^T L y, so nu
    # (smallest eigenvalue of sym(L^-1)) is the smallest eigenvalue of the
    # symmetric-definite pencil (sym(L), L^T L), which forms no inverse
    p = request.getfixturevalue(name)
    lf = kl.build_L(p.A, omega)
    L = lf.L
    ref = sla.eigh(0.5 * (L + L.T), L.T @ L, eigvals_only=True, subset_by_index=[0, 0])[0]
    nu = kl.rho_bounds(p.A, kl.svd(p.A), lf).nu
    assert abs(nu - ref) <= 1e-12 * abs(ref)
