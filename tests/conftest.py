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
