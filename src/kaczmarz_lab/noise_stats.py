"""Noise propagation through the sweeps: error splits and expectations.

With data b = b_bar + e, the reconstruction error after k sweeps splits as

    x_k - x_bar = (x_k - xbar_k)  +  (xbar_k - x_bar)
                   noise error        iteration error

where xbar_k are the noise-free iterates.  In the eigenbasis W of the
restricted sweep operator the noise error is governed by the coefficients
xi = W^+ (limit of e) and the per-mode factors |1 - lambda_i^k|^2: the
squared coefficient norm after k sweeps is sum_i |1-lambda_i^k|^2 |xi_i|^2.
For white noise the expectations have closed forms

    E ||(k-sweep map) e||^2 = sigma^2 * || (k-sweep map) ||_F^2
    E ||xi^k||^2            = sum_i |1 - lambda_i^k|^2 * E|xi_i|^2,

with E|xi_i|^2 = sigma^2 * ||row_i(M)||^2 obtained by exact covariance
propagation (Monte Carlo sampling is kept for validation only).  The
coefficient map M = W^+ A_limit comes from the eigendecomposition itself:
I - G|_V = C (I - Lambda) C^-1 gives M = (I - Lambda)^-1 W^+ B, with
B = A^T L^-1 for the standard sweep and A^T S for the symmetric one, so
neither the fixed-point matrix nor an LU of I - G|_V is formed.
``sharp_maps`` forms M once, and every function here reads it from
``SharpMaps.M_r`` and ``SharpMaps.M_i``.

G|_V is real, so the modes come in exact conjugate pairs: lambda, the
rows of W^+ and the columns of W of one pair are conjugates, and so are
the pair's terms in W diag(phi) M.  The expectations therefore sum over
one mode per pair with weight 2,

    Re(W diag(phi) Z) = sum_real w_i phi_i z_i + 2 sum_{Im>0} Re(w_i phi_i z_i),

and likewise for E2.  ``SharpMaps`` holds M on those modes only, as its
real and imaginary parts; ``expected_norms`` and ``xi_profile`` take the
coefficients M e from there and ``expected_norms`` lifts them with
``SharpMaps.k_sweep``, in real arithmetic on the real eigenbasis, so no
complex n-by-r array is formed.  The Monte Carlo samples are lifted in
blocks of ``_MC_BLOCK``, so the memory they take does not grow with
their number.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import spectral
from ._lapack import blas
from .errors import NumericalError
from .linalg import _as_array, _check_int, _check_ks, _check_real
from .operator import SharpMaps
from .operator import apply_Ak_sharp  # noqa: F401  (re-exported per-k reference route)
from .problems import TestProblem
from .solvers import IterationHistory, SweepConfig, run
from .tables import write_table

__all__ = [
    "ErrorSplit",
    "XiProfile",
    "ExpectationReport",
    "MonotonicityReport",
    "error_split",
    "error_split_from_histories",
    "xi_profile",
    "expected_norms",
    "monotonicity_probe",
    "semiconvergence_min",
]

#: Largest matrix dimension for which k-sweep maps are formed explicitly;
#: beyond this the Frobenius norm is estimated stochastically.
EXPLICIT_MAP_MAX_N = 512

#: Monte Carlo samples that ``expected_norms`` draws and lifts at once.
_MC_BLOCK = 256


@dataclass(frozen=True)
class ErrorSplit:
    """The three error curves of one noisy solve (index k = 0..k_max)."""

    recon_err: np.ndarray
    iter_err: np.ndarray
    noise_err: np.ndarray

    @property
    def k_max(self) -> int:
        return self.recon_err.size - 1

    def write_csv(self, fh, realization: int = 0, header: bool = True) -> None:
        """CSV columns: k, recon, iter, noise, realization."""
        n = self.recon_err.size
        write_table(fh, {"k": range(n), "recon": self.recon_err, "iter": self.iter_err,
                         "noise": self.noise_err, "realization": [realization] * n}, header)


def error_split_from_histories(
    clean: IterationHistory, noisy: IterationHistory, x_bar
) -> ErrorSplit:
    """Build the three error curves from stored clean/noisy iterates."""
    if clean.iterates is None or noisy.iterates is None:
        raise ValueError("histories must store iterates")
    if clean.iterates.shape != noisy.iterates.shape:
        raise ValueError("histories have different lengths")
    x_bar = _as_array(x_bar, "x_bar", rows=clean.iterates.shape[1])
    recon = np.linalg.norm(noisy.iterates - x_bar, axis=1)
    iter_ = np.linalg.norm(clean.iterates - x_bar, axis=1)
    noise = np.linalg.norm(noisy.iterates - clean.iterates, axis=1)
    return ErrorSplit(recon_err=recon, iter_err=iter_, noise_err=noise)


def error_split(p: TestProblem, b_noisy, cfg: SweepConfig) -> ErrorSplit:
    """Run the solver on b_bar and on b_noisy and split the error.

    Both right-hand sides are solved in one block run of cfg.max_sweeps
    sweeps, so they share the configuration (in particular the row order
    and randomization seed) and the iteration-error curve is independent
    of the noise realization.  Raises ValueError unless ``b_noisy`` is a
    finite real m-vector.
    """
    b_noisy = _as_array(b_noisy, "b_noisy", rows=p.m, want=f"have shape ({p.m},)")
    cfg_run = dataclasses.replace(cfg, store_iterates=True)
    clean, noisy = run(p, np.column_stack([p.b_bar, b_noisy]), cfg_run)
    return error_split_from_histories(clean, noisy, p.x_bar)


@dataclass(frozen=True)
class XiProfile:
    """Eigenbasis coefficients of a propagated noise vector.

    ``xi`` are the coefficients of the noise limit in the eigenbasis and
    ``norms[j]`` = sum_i |1 - lambda_i^ks[j]|^2 |xi_i|^2, the squared
    coefficient norm after ks[j] sweeps.
    """

    xi: np.ndarray
    lam: np.ndarray
    ks: np.ndarray
    norms: np.ndarray

    def write_csv(self, fh) -> None:
        """CSV columns: i, re, im, modulus, lambda_modulus."""
        # hypot is scalar abs(); np.abs of a complex array rounds differently
        write_table(fh, {"i": range(self.xi.size), "re": self.xi.real, "im": self.xi.imag,
                         "modulus": np.hypot(self.xi.real, self.xi.imag),
                         "lambda_modulus": np.hypot(self.lam.real, self.lam.imag)})


def xi_profile(sm: SharpMaps, e, ks) -> XiProfile:
    """Per-mode decomposition of the noise error for iteration counts ks.

    The coefficients are xi = M e = (I - Lambda)^-1 W^+ (B e), with M read
    from ``sm`` on one mode of each pair and the other mode's taken as the
    conjugate.  Requires an invertible eigenbasis: raises NumericalError
    when the eigenvector condition number exceeds
    ``spectral.NEAR_DEFECTIVE_KAPPA``, the bound at which
    ``spectral.spectrum`` flags a spectrum near-defective.  Raises
    ValueError unless ``e`` is a finite real m-vector, for an empty ``ks``
    and for a negative or fractional k.
    """
    if sm.kappa_W > spectral.NEAR_DEFECTIVE_KAPPA:
        raise NumericalError(
            f"eigenbasis is near-defective (kappa = {sm.kappa_W:.3e})"
        )
    e = _as_array(e, "e", rows=sm.M_r.shape[1])
    ks = _check_ks(ks)
    lam, keep = sm.lam, sm.keep
    E = e[:, None]
    z = blas.dgemm(1.0, sm.M_r, E)[:, 0] + 1j * blas.dgemm(1.0, sm.M_i, E)[:, 0]
    xi = np.empty(sm.r, dtype=complex)
    xi[sm.conj[keep]] = z.conj()  # the other mode of each pair; real modes are set next
    xi[keep] = z
    factors = np.abs(1.0 - lam[None, :] ** ks[:, None]) ** 2
    norms = (factors * (np.abs(xi) ** 2)[None, :]).sum(axis=1)
    return XiProfile(xi=xi, lam=lam, ks=ks, norms=norms)


@dataclass(frozen=True)
class ExpectationReport:
    """Closed-form and sampled expectations of the squared noise error.

    ``e1[j]`` = sigma^2 ||A_k||_F^2 for the k = ks[j] sweep map
    A_k = W (I - Lambda^k) M with M = (I - Lambda)^-1 W^+ B (the expected
    squared noise-error norm), ``e2[j]`` the eigenbasis counterpart, and
    ``mc``/``mc_stderr`` the Monte Carlo estimate used for validation.
    ``e1_estimated`` marks a stochastic trace estimate, used for
    n > EXPLICIT_MAP_MAX_N: 256 Gaussian probes per k, drawn separately
    from (and after) the Monte Carlo samples.  sigma and n_mc are the
    caller's (a CLI run records them in ``config.json``).
    """

    ks: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    mc: np.ndarray
    mc_stderr: np.ndarray
    e1_estimated: bool = False

    def write_csv(self, fh) -> None:
        """CSV columns: k, E1, E2, mc, stderr."""
        write_table(fh, {"k": self.ks, "E1": self.e1, "E2": self.e2, "mc": self.mc,
                         "stderr": self.mc_stderr})


def expected_norms(
    sm: SharpMaps,
    sigma: float,
    ks,
    n_mc: int = 10_000,
    seed: int = 0,
) -> ExpectationReport:
    """Expected squared noise-error norms, closed form and Monte Carlo.

    E|xi_i|^2 is computed exactly from the noise covariance (sigma^2 times
    the squared row norms of the coefficient map M = W^+ A_limit); sampling
    is used only for the validation column.  The Frobenius norms are taken
    on explicitly formed k-sweep maps up to n = EXPLICIT_MAP_MAX_N.  Beyond
    that they are estimated from 256 standard Gaussian probes per k, drawn
    from the same generator after the n_mc Monte Carlo samples.

    Only the modes with Im lambda >= 0 are lifted, the complex ones with
    weight 2 (see the module docstring), all in real arithmetic.  M does
    not depend on k: it is ``sm.M_r`` + i ``sm.M_i``, formed once by
    ``sharp_maps``.  Each k only scales the coefficients by 1 - lambda^k
    and lifts them with W (``SharpMaps.k_sweep``).

    The samples and probes are drawn and lifted in blocks of at most
    ``_MC_BLOCK``, so the memory they take does not grow with n_mc; the
    generator yields them in the order of one n_mc-by-m draw followed by
    one 256-by-m draw per k.  Raises ValueError unless sigma is a finite
    real number >= 0, n_mc an integer >= 2 and seed an integer >= 0, for an
    empty ``ks`` and for a negative or fractional k.
    """
    _check_real("sigma", sigma)
    _check_int("n_mc", n_mc, 2)
    _check_int("seed", seed, 0)
    ks = _check_ks(ks)
    M_r, M_i = sm.M_r, sm.M_i
    m, n = M_r.shape[1], sm.W_real.shape[0]
    # one mode per conjugate pair: the pair's terms are conjugates, so the
    # one with Im lambda > 0 stands for both with weight 2
    lam = sm.lam[sm.keep]
    wgt = np.where(lam.imag > 0, 2.0, 1.0)

    # rows of M = (I - Lambda)^-1 W^+ B drive the xi covariance
    e_xi2 = sigma**2 * (np.einsum("ij,ij->i", M_r, M_r) + np.einsum("ij,ij->i", M_i, M_i))
    phi2 = np.abs(1.0 - lam[None, :] ** ks[:, None]) ** 2
    e2 = phi2 @ (wgt * e_xi2)

    rng = np.random.default_rng(seed)

    def sample_norms(count, scale, ks):
        """Squared k-sweep norms of ``count`` draws of scale * N(0, I_m), one row per k."""
        out = np.empty((len(ks), count))
        for lo in range(0, count, _MC_BLOCK):
            draws = rng.standard_normal((min(_MC_BLOCK, count - lo), m))
            draws *= scale  # in place: the values of scale * draws, without a second array
            Z_r, Z_i = blas.dgemm(1.0, M_r, draws.T), blas.dgemm(1.0, M_i, draws.T)
            for j, k in enumerate(ks):
                out[j, lo:lo + draws.shape[0]] = np.sum(sm.k_sweep(k, Z_r, Z_i) ** 2, axis=0)
        return out

    norms2 = sample_norms(n_mc, sigma, ks)
    mc = np.array([np.mean(row) for row in norms2])
    mc_stderr = np.array([np.std(row, ddof=1) for row in norms2]) / np.sqrt(n_mc)
    e1 = np.empty(ks.size)
    e1_estimated = n > EXPLICIT_MAP_MAX_N
    for j, k in enumerate(ks):
        if e1_estimated:
            e1[j] = sigma**2 * np.mean(sample_norms(256, 1.0, [k])[0])
        else:
            e1[j] = sigma**2 * np.linalg.norm(sm.k_sweep(k, M_r, M_i), "fro") ** 2
    return ExpectationReport(
        ks=ks,
        e1=e1,
        e2=e2,
        mc=mc,
        mc_stderr=mc_stderr,
        e1_estimated=e1_estimated,
    )


@dataclass(frozen=True)
class MonotonicityReport:
    """Growth of the per-mode factors with unit coefficient weights.

    ``e2_unit[j]`` = sum_i |1 - lambda_i^ks[j]|^2 (all E|xi_i|^2 set to 1);
    ``bumps[i]`` counts descents of the factor curve |1 - lambda_i^k| in k
    (0 for monotone growth, which always holds for real lambda in [0, 1)).
    """

    ks: np.ndarray
    e2_unit: np.ndarray
    bumps: np.ndarray
    e2_monotone: bool

    def write_csv(self, fh) -> None:
        """CSV columns: k, e2_unit."""
        write_table(fh, {"k": self.ks, "e2_unit": self.e2_unit})


def monotonicity_probe(lam, ks) -> MonotonicityReport:
    """Evaluate factor curves and their sum for the iteration counts ks.

    ``lam`` holds the eigenvalues of the restricted sweep operator.
    Individual curves for complex eigenvalues may bump up and down (the
    factor |1 - lambda^k| can exceed 1), yet their sum over a large
    spectrum typically grows monotonically; this probe quantifies both.
    The counts are sorted and deduplicated.  Raises ValueError unless
    ``lam`` is a nonempty, finite, 1-d real or complex array, for an empty
    ``ks`` and for a negative or fractional k.
    """
    ks = np.unique(_check_ks(ks))
    lam = np.asarray(lam)
    if lam.dtype.kind not in "biufc" or lam.ndim != 1 or lam.size == 0:
        raise ValueError("lam must be a nonempty 1-d real or complex array, "
                         f"got dtype {lam.dtype} and shape {lam.shape}")
    if not np.all(np.isfinite(lam)):
        raise ValueError("lam has non-finite entries")
    factors = np.abs(1.0 - lam[None, :] ** ks[:, None])
    e2_unit = np.sum(factors**2, axis=1)
    diffs = np.diff(factors, axis=0)
    tol = 1e-12 * max(1.0, float(np.max(factors)))
    bumps = np.sum(diffs < -tol, axis=0)
    e2_monotone = bool(np.all(np.diff(e2_unit) >= -1e-12 * max(1.0, e2_unit.max())))
    return MonotonicityReport(ks=ks, e2_unit=e2_unit, bumps=bumps, e2_monotone=e2_monotone)


def semiconvergence_min(split: ErrorSplit) -> int:
    """Sweep index minimizing the reconstruction error (first on ties)."""
    if split.recon_err.size < 2:
        raise ValueError("need at least two sweeps")
    return int(np.argmin(split.recon_err))
