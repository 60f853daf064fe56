"""Shared fixtures.

The tomography problem and its spectrum are expensive (1024-dim SVD and
eigendecomposition), so they are built once per session and shared by the
module tests and the acceptance suite.
"""

import os
from pathlib import Path

import numpy as np
import pytest

import kaczmarz_lab as kl


@pytest.fixture
def subprocess_env():
    """os.environ with the package's source root first on PYTHONPATH, for child Pythons."""
    src = str(Path(kl.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


_DENSE_NUMPY = ("svd", "eig", "eigvals", "solve", "cond", "eigvalsh", "eigh", "qr", "lstsq",
                "inv", "pinv", "det", "slogdet", "matrix_rank")


@pytest.fixture
def no_numpy_lapack(monkeypatch):
    """Make every dense ``numpy.linalg`` routine and matrix 2-norm raise AssertionError.

    Vector norms and the Frobenius norm stay, since they run no LAPACK.
    """
    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError(f"numpy.linalg.{name} called")
        return call

    for name in _DENSE_NUMPY:
        monkeypatch.setattr(np.linalg, name, forbidden(name))
    norm = np.linalg.norm

    def vector_norm(x, ord=None, *args, **kwargs):
        if np.ndim(x) == 2 and ord in (2, -2, "nuc"):
            raise AssertionError("numpy.linalg.norm of a matrix by its singular values")
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", vector_norm)


@pytest.fixture(scope="session")
def tomo():
    p = kl.paralleltomo(32, 32, 32)
    p.validate()
    return p


@pytest.fixture(scope="session")
def tomo_svd(tomo):
    return kl.svd(tomo.A)


@pytest.fixture(scope="session")
def tomo_spectrum(tomo, tomo_svd):
    lf = kl.build_L(tomo.A, 1.0)
    ro = kl.restrict_to_V(tomo.A, lf, tomo_svd)
    return kl.spectrum(ro)


@pytest.fixture(scope="session")
def gravity128_01():
    return kl.gravity(128, 0.01)


@pytest.fixture(scope="session")
def gravity128_02():
    return kl.gravity(128, 0.02)


@pytest.fixture(scope="session")
def gravity128_06():
    return kl.gravity(128, 0.06)


@pytest.fixture(scope="session")
def baart32():
    return kl.baart(32)


@pytest.fixture(scope="session")
def small_problems(baart32):
    """Cheap battery used by invariant sweeps."""
    rng = np.random.default_rng(42)
    rand = kl.TestProblem(
        A=(A := rng.standard_normal((12, 9))),
        x_bar=(x := rng.standard_normal(9)),
        b_bar=A @ x,
        name="random12x9",
    )
    return [kl.gravity(32, 0.06), kl.gravity(32, 0.01), baart32, rand]
