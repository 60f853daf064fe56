"""Spectrum reports, zero-eigenvalue structure, and spectral-radius bounds.

Everything here concerns the restricted sweep operator G|_V and how its
eigenvalues explain the solver's behavior: the (near-)zero eigenvalues
behind fast initial progress, the eigenvalues close to 1 behind the slow
asymptotic phase, upper bounds on the spectral radius, and the small-omega
regime where the spectrum becomes real.

:class:`SpectrumReport` is the one summary of a sorted eigenvalue array:
``spectrum`` returns one, the rows of ``small_omega_scan`` are reports,
and ``rho_bounds`` and ``symmetric_relations`` read rho from one, of
restrictions they build from A, its factor and the row-space basis.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass

import numpy as np

from . import _lapack
from .linalg import (
    SvdResult,
    _as_array,
    _check_factor,
    _check_real,
    blas_threads,
    eig_general,
    eigvals,
)
from .operator import LFactor, RestrictedOperator, build_L, restrict_symmetric_to_V, restrict_to_V

__all__ = [
    "SpectrumReport",
    "StructureReport",
    "BoundsReport",
    "OmegaScan",
    "SymmetricRelations",
    "spectrum",
    "structural_orthogonality",
    "rho_bounds",
    "bauer_fike_kappa",
    "bauer_fike_bound",
    "backward_error_bound",
    "zero_eigenvalue_condition",
    "small_omega_scan",
    "symmetric_relations",
    "norm_threshold_alpha",
]

#: |Im(lambda)| below which an eigenvalue is treated as numerically real
#: in the small-omega scan.  Large clustered spectra acquire tiny
#: imaginary parts (O(omega^2) couplings) well before the visible
#: real-to-complex transition, so this is deliberately far above eps.
DEFAULT_IM_TOL = 5e-4

#: |lambda| below which an eigenvalue counts as numerically zero.
DEFAULT_ZERO_TOL = 1e-8

#: Eigenvector-matrix condition number beyond which a spectrum is flagged
#: near-defective.
NEAR_DEFECTIVE_KAPPA = 1e12

#: POSIX's SIGKILL, for a failed scan's children (the signal module is not
#: otherwise imported).
_SIGKILL = 9


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues of a restricted operator plus summary statistics.

    ``eigenvalues`` are sorted by descending modulus, as ``eig_general``
    and ``eigvals`` return them.  ``kappa_W`` is the condition number of
    the eigenvector matrix, which is not kept, and None where only the
    eigenvalues were computed.  Each statistic is a property, so each rule
    is written once: ``zero_count`` counts |lambda| <= zero_tol, and
    ``top_is_real`` holds when |Im lambda_1| <= 1e-12 * max(1, |lambda_1|).
    """

    eigenvalues: np.ndarray
    omega: float
    zero_tol: float = DEFAULT_ZERO_TOL
    kappa_W: float | None = None

    @property
    def rho(self) -> float:
        return float(np.abs(self.eigenvalues[0]))

    @property
    def zero_count(self) -> int:
        return int(np.sum(np.abs(self.eigenvalues) <= self.zero_tol))

    @property
    def max_im(self) -> float:
        return float(np.max(np.abs(self.eigenvalues.imag)))

    @property
    def n_nonpos_real(self) -> int:
        return int(np.sum(self.eigenvalues.real <= 0.0))

    @property
    def min_abs(self) -> float:
        return float(np.min(np.abs(self.eigenvalues)))

    @property
    def top_is_real(self) -> bool:
        top = self.eigenvalues[0]
        return bool(abs(top.imag) <= 1e-12 * max(1.0, abs(top)))

    @property
    def near_defective(self) -> bool:
        return self.kappa_W is not None and bool(self.kappa_W > NEAR_DEFECTIVE_KAPPA)


@dataclass(frozen=True)
class StructureReport:
    """Exact row-orthogonality structure of A, from sparsity supports.

    ``leading_diag_block`` is the largest k such that the leading k-by-k
    principal submatrix of A A^T is diagonal with *exact* zeros (disjoint
    row supports); ``orth_pairs`` counts all structurally orthogonal row
    pairs; ``near_orth`` is |a_1^T a_2|.
    """

    leading_diag_block: int
    orth_pairs: int
    near_orth: float


@dataclass(frozen=True)
class BoundsReport:
    """Spectral radius, operator norm, and the two closed-form bounds.

    With nu = smallest eigenvalue of the symmetric part of L^-1 (the
    minimum real part of its field of values, positive for omega in
    (0,2)) and sigma_min the smallest retained singular value:

        rho <= 1 - sigma_min^2 / ||L||  <=  1 - nu * sigma_min^2

    (``bound_L`` and ``bound_nu``; sigma_min and ||L||_2 are not kept),
    valid when the extremal eigenvalue is simple, real and positive;
    ``assumption_met`` records whether that held (bounds are reported
    either way).  ``be_bound`` is the pencil backward error
    |1 - 1/omega| * max_i ||a_i||^2.  :func:`bauer_fike_bound` is taken
    at omega = 1 whatever omega is studied, so it is not a field here.
    """

    rho_actual: float
    norm_G: float
    bound_L: float
    bound_nu: float
    nu: float
    be_bound: float
    assumption_met: bool
    omega: float


def spectrum(ro: RestrictedOperator, zero_tol: float = DEFAULT_ZERO_TOL) -> SpectrumReport:
    """Eigendecompose a restricted operator and summarize its spectrum.

    Raises ValueError unless ``zero_tol`` is a finite real number >= 0.
    """
    zero_tol = _check_real("zero_tol", zero_tol)
    eig = eig_general(ro.Gv)
    return SpectrumReport(eig.eigenvalues, ro.omega, zero_tol, eig.kappa)


def structural_orthogonality(A) -> StructureReport:
    """Report exact row-orthogonality structure from sparsity overlap.

    Two rows with disjoint nonzero supports have a_i^T a_j = 0 exactly,
    also in floating point; the tests here use the supports, never
    floating dot products.
    """
    A = _as_array(A, "matrix")
    m = A.shape[0]
    support = (A != 0.0).astype(np.float64)
    overlap = (support @ support.T) > 0.0

    k = 1
    while k < m and not overlap[k, :k].any():
        k += 1

    iu = np.triu_indices(m, 1)
    orth_pairs = int(np.count_nonzero(~overlap[iu]))
    near = float(abs(A[0] @ A[1])) if m > 1 else 0.0
    return StructureReport(leading_diag_block=k, orth_pairs=orth_pairs, near_orth=near)


def backward_error_bound(A, omega: float) -> float:
    """Pencil backward error |1 - 1/omega| * max_i ||a_i||^2.

    Distance (in the second argument) from (A A^T, L_omega) to a pencil
    with an eigenvalue 1, i.e. from the sweep operator having an exact
    zero eigenvalue; identically 0 at omega = 1.  Raises ValueError unless
    omega is a finite real number > 0 and A a finite real matrix.
    """
    omega = _check_real("omega", omega, positive=True)
    A = _as_array(A, "matrix")
    rn = np.einsum("ij,ij->i", A, A)
    return float(abs(1.0 - 1.0 / omega) * np.max(rn))


def bauer_fike_bound(A, lf: LFactor) -> float:
    """First-order bound kappa(X) * |a_1^T a_2| * ||L_1^-1 e_1||, at omega = 1.

    Bounds the modulus of a second small eigenvalue of the sweep operator
    at omega = 1 in terms of the near-orthogonality of the first two rows;
    kappa(X) is :func:`bauer_fike_kappa`.  Any factor of A gives the same
    bound.  It is 0, with no eigendecomposition, when a_1^T a_2 is exactly
    0 (structurally orthogonal rows).  Raises ValueError unless A is a
    finite real matrix with ``lf``'s row count.
    """
    A = _as_array(A, "matrix")
    _check_factor(lf, A)
    near = abs(A[0] @ A[1]) if A.shape[0] > 1 else 0.0
    if near == 0.0:
        return 0.0
    lf1 = lf if lf.omega == 1.0 else lf.with_omega(1.0)
    y = lf1.solve(np.eye(lf1.m, 1))[:, 0]  # L_1^-1 e_1
    return float(bauer_fike_kappa(lf1) * near * np.linalg.norm(y))


def zero_eigenvalue_condition(A) -> float:
    """First-order condition number of the omega = 1 zero eigenvalue.

    The zero eigenvalue of the one-sweep operator has right eigenvector
    a_1 and left eigenvector a_m (first and last rows of A), so its
    standard condition number is ||a_1|| ||a_m|| / |a_m^T a_1|.  Used as
    a computable stand-in for the pencil eigenvalue condition number in
    the backward-error bound; only first-order accurate.
    """
    A = _as_array(A, "matrix")
    a1, am = A[0], A[-1]
    denom = abs(am @ a1)
    if denom == 0.0:
        return np.inf
    return float(np.linalg.norm(a1) * np.linalg.norm(am) / denom)


def bauer_fike_kappa(lf: LFactor) -> float:
    """Condition number of the eigenvectors of L_1^-1 A A^T, at omega = 1.

    The kappa(X) of :func:`bauer_fike_bound`.  A A^T is ``lf.gram()``
    and L_1 is ``lf`` at omega = 1 whatever ``lf.omega`` is, so every
    factor of one matrix gives the same kappa.
    """
    lf1 = lf if lf.omega == 1.0 else lf.with_omega(1.0)
    return eig_general(lf1.solve(lf1.gram())).kappa


def rho_bounds(A, sv: SvdResult, lf: LFactor) -> BoundsReport:
    """Evaluate the spectral radius of the one-sweep G|_V against its bounds.

    G|_V is built here by ``restrict_to_V(A, lf, sv)``, of which only the
    eigenvalues and the top singular value are read, so no eigenvectors
    are computed.  Cost note: L^-1 is formed explicitly (m triangular
    solves) for the smallest eigenvalue of its symmetric part; intended for
    desk-scale m (<= 4096).  When the extremal eigenvalue is complex or
    multiple the bounds are still reported but flagged as outside the
    proposition's assumptions.  Raises ValueError unless A is a finite
    real matrix with ``lf``'s row count and ``sv.V``'s as column count.
    """
    Gv = restrict_to_V(A, lf, sv).Gv
    rep = SpectrumReport(eigvals(Gv), lf.omega)
    lam = rep.eigenvalues
    simple = lam.size < 2 or abs(lam[0] - lam[1]) > 1e-12 * max(1.0, rep.rho)
    assumption_met = bool(rep.top_is_real and lam[0].real > 0.0 and simple)

    norm_G = float(_lapack.svdvals(Gv)[0])
    sigma_min = float(sv.S[-1])
    norm_L = float(_lapack.svdvals(lf.L)[0])
    L_inv = lf.solve(np.eye(lf.m, order="F"))
    nu = float(_lapack.eigvalsh(0.5 * (L_inv + L_inv.T), overwrite_a=True)[0])
    return BoundsReport(
        rho_actual=rep.rho,
        norm_G=norm_G,
        bound_L=float(1.0 - sigma_min**2 / norm_L),
        bound_nu=float(1.0 - nu * sigma_min**2),
        nu=nu,
        be_bound=backward_error_bound(A, lf.omega),
        assumption_met=assumption_met,
        omega=lf.omega,
    )


@dataclass(frozen=True)
class OmegaScan:
    """One :class:`SpectrumReport` per omega of an ascending omega grid.

    ``omega0`` is the largest scanned omega below the first omega whose
    spectrum has max |Im(lambda)| > im_tol, i.e. the detected edge of the
    all-real region (None when the very first point is already complex).
    """

    rows: tuple
    im_tol: float

    @property
    def omega0(self) -> float | None:
        prev = None
        for row in self.rows:
            if row.max_im > self.im_tol:
                return prev
            prev = row.omega
        return prev


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _dealt_map(fn, items: list, workers: int) -> list:
    """fn(items) with the items dealt round-robin to up to ``workers`` processes.

    ``fn`` maps a list of items to a list of results of the same length.
    Worker 0 is this process and takes items 0, w, 2w, ...; each other
    share runs in a child made by ``os.fork``, which pickles its results,
    or the exception it raised, into a pipe and exits.  With two or more
    workers, every worker, this process included, runs on one BLAS thread
    (``linalg.blas_threads(1)``), so that w processes do not share the CPUs
    among w times the library's threads.  The results come back in the
    items' order, and a child's exception is raised here with its own
    type.  Every child is reaped before this returns or raises; when this
    process fails first, the children are killed.  With one worker, or
    where ``os.fork`` is missing, ``fn(items)`` runs here at the caller's
    thread count.
    """
    w = max(1, min(workers, len(items))) if hasattr(os, "fork") else 1
    if w == 1:
        return fn(items)
    shares = [items[j::w] for j in range(w)]
    pids, pipes, done = [], [], False
    with blas_threads(1):
        try:
            for share in shares[1:]:
                r, wr = os.pipe()
                pipes.append(os.fdopen(r, "rb"))
                try:
                    pid = os.fork()
                    if pid == 0:
                        os.close(r)  # so a write with no reader left fails, not blocks
                        _worker(fn, share, wr)
                finally:  # runs in this process only: the child never returns
                    os.close(wr)
                pids.append(pid)
            parts = [fn(shares[0])]
            for pipe in pipes:
                data = pipe.read()
                if not data:
                    raise RuntimeError("a forked worker exited without a result")
                ok, value = pickle.loads(data)
                if not ok:
                    raise value
                parts.append(value)
            done = True
        finally:
            for pipe in pipes:
                pipe.close()
            for pid in pids:
                if not done:
                    os.kill(pid, _SIGKILL)
                os.waitpid(pid, 0)
    out = [None] * len(items)
    for j, part in enumerate(parts):
        out[j::w] = part
    return out


def _worker(fn, share: list, fd: int):
    """A forked child's whole life: fn(share) or its exception, pickled into fd; never returns."""
    status = 1
    try:
        try:
            payload = pickle.dumps((True, fn(share)))
        except BaseException as exc:
            try:  # an exception that will not round-trip goes as its type's name and message
                payload = pickle.dumps((False, exc))
                pickle.loads(payload)
            except Exception:
                payload = pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}")))
        with os.fdopen(fd, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)


def small_omega_scan(
    A,
    sv: SvdResult,
    omegas,
    zero_tol: float = DEFAULT_ZERO_TOL,
    im_tol: float = DEFAULT_IM_TOL,
) -> OmegaScan:
    """Scan the restricted spectrum over a grid of relaxation parameters.

    For each omega (sorted ascending) the restricted operator is rebuilt
    and its eigenvalues (no eigenvectors) summarized in a
    :class:`SpectrumReport` with no ``kappa_W``: largest modulus, largest
    |imaginary part|, count of numerically zero eigenvalues, and count of
    eigenvalues with nonpositive real part.  Each omega's factor comes
    from one A A^T, built here, through ``LFactor.with_omega``.

    The omegas are independent, so they are dealt round-robin to one
    worker per usable CPU (at most one per omega): this process and
    children forked from it, each running its restrictions and ``eigvals``
    on one BLAS thread (``linalg.blas_threads(1)``).  So the rows do not
    depend on the worker count, the host or the caller's thread count.
    Every product and the eigensolve go through scipy's BLAS and LAPACK
    (``build_L``, the ``SweepOperator`` engine behind ``restrict_to_V``,
    ``linalg.eigvals``).  A is made Fortran-ordered once, so no step copies
    it per omega.  An exception raised in a child is raised here with its
    own type, and no child outlives the call.  Raises ValueError unless A
    is a finite real matrix, every omega a finite real number > 0, and
    ``zero_tol`` and ``im_tol`` finite real numbers >= 0.
    """
    zero_tol = _check_real("zero_tol", zero_tol)
    im_tol = _check_real("im_tol", im_tol)
    A = np.asfortranarray(_as_array(A, "matrix"))
    grid = sorted(_check_real("omega", float(w), positive=True) for w in omegas)
    if not grid:
        return OmegaScan(rows=(), im_tol=im_tol)
    lf = build_L(A, grid[0])

    def eigenvalues(share):
        return [eigvals(restrict_to_V(A, lf.with_omega(w), sv).Gv) for w in share]

    with blas_threads(1):
        lams = _dealt_map(eigenvalues, grid, _usable_cpus())
    rows = tuple(SpectrumReport(lam, w, zero_tol) for w, lam in zip(grid, lams))
    return OmegaScan(rows=rows, im_tol=im_tol)


@dataclass(frozen=True)
class SymmetricRelations:
    """Spectral statistics tying the double sweep to the single sweep.

    ``difference`` is |rho_Gs - ||G|_V||_2^2|, zero in exact arithmetic.
    """

    rho_G: float
    rho_Gs: float
    norm_G: float

    @property
    def norm_G_squared(self) -> float:
        return self.norm_G**2

    @property
    def difference(self) -> float:
        return abs(self.rho_Gs - self.norm_G_squared)

    @property
    def max_all(self) -> float:
        return max(self.rho_G, self.rho_Gs, self.norm_G)


def symmetric_relations(A, lf: LFactor, sv: SvdResult) -> SymmetricRelations:
    """Check rho of the double-sweep operator against ||G|_V||^2.

    Both restrictions are built here from A, ``lf`` and ``sv``: G|_V by
    ``restrict_to_V`` and the double sweep by ``restrict_symmetric_to_V``,
    which runs the two sweeps rather than squaring G|_V, so the reported
    ``difference`` is a genuine numerical cross-check rather than an
    algebraic identity.  ||G|_V||_2 is the top singular value, as in
    ``rho_bounds``.  Raises ValueError unless A is a finite real matrix
    whose column count is the row count of ``sv.V``.
    """
    Gv = restrict_to_V(A, lf, sv).Gv
    rho_G = SpectrumReport(eigvals(Gv), lf.omega).rho
    rho_Gs = SpectrumReport(eigvals(restrict_symmetric_to_V(A, lf, sv).Gv), lf.omega).rho
    norm_G = float(_lapack.svdvals(Gv)[0])
    return SymmetricRelations(rho_G=rho_G, rho_Gs=rho_Gs, norm_G=norm_G)


def norm_threshold_alpha(
    diag=(0.99, 0.98), alpha_hi: float = 1.0, tol: float = 1e-6
) -> float:
    """Bisect for the alpha where ||[[d1, alpha], [0, d2]]|| reaches 1.

    The 2-by-2 upper-triangular miniature of a mildly nonnormal sweep
    operator: spectral radius d1 < 1 for every alpha, yet the norm (and
    with it the double-sweep spectral radius, which equals the squared
    norm) exceeds 1 once alpha passes this threshold.
    """
    d1, d2 = diag

    def norm2(alpha):
        return _lapack.svdvals(np.array([[d1, alpha], [0.0, d2]]))[0]

    lo, hi = 0.0, alpha_hi
    if norm2(lo) >= 1.0 or norm2(hi) <= 1.0:
        raise ValueError("threshold not bracketed by [0, alpha_hi]")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if norm2(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
