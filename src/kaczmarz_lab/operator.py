"""The sweep iteration operator and its relatives.

One full row-action sweep over A x = b with relaxation omega is the affine
map x -> x + A^T L^-1 (b - A x), where

    L = L_omega = strict_lower(A A^T) + (1/omega) * diag(||a_i||^2).

The error therefore propagates through G = I - A^T L^-1 A (down sweep) and
G^T = I - A^T L^-T A (up sweep).  Since all iterates from x0 = 0 live in
the row space V = range(A^T), the object of interest is the restriction
G|_V, realized here as the dense r-by-r matrix V^T G V built on the
orthonormal SVD basis V.

G itself is never formed as an n-by-n dense matrix when applications
suffice; the restricted matrix is the only dense operator-level object.
:class:`SweepOperator` applies the sweep itself to n-by-R blocks of
iterates through ``LFactor.solve``, the library's only L^-1; ``apply_G``,
``apply_Gt``, both restrictions and the randomized sweeps are its sweeps.

:class:`SharpMaps` is the noise map of the sweeps on the real eigenbasis
R0 of G|_V: the eigenvalues (the only complex array), the lift W_real and
the coefficient map M = (I - D)^-1 R0^-1 V^T B, which ``sharp_maps``
forms once.  Every function of G|_V acts on those real coordinates
through one rule, ``_real_f``; the lift W_real (I - D^k) is
``SharpMaps.k_sweep``, which ``apply_Ak_sharp`` and the noise statistics
call on coefficients M e.  The limit of the sweeps has an independent
reference route, ``fixed_point``: an LU of I - G|_V, with no
eigendecomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _lapack
from .errors import NumericalError
from .linalg import (
    SvdResult,
    _as_array,
    _check_factor,
    _check_ks,
    _check_real,
    _check_triangular_diag,
    eig_general,
    eigvals,
    svd,
)
from .problems import TestProblem

dgemm, dtrsm, dgesv = _lapack.blas.dgemm, _lapack.blas.dtrsm, _lapack.lapack.dgesv

__all__ = [
    "LFactor",
    "RestrictedOperator",
    "SharpMaps",
    "SweepOperator",
    "build_L",
    "apply_G",
    "apply_Gt",
    "apply_Gs",
    "restrict_to_V",
    "restrict_symmetric_to_V",
    "sharp_maps",
    "fixed_point",
    "apply_Ak_sharp",
    "convergence_conditions",
]


@dataclass(frozen=True)
class LFactor:
    """Lower-triangular sweep factor L = strict_lower(AA^T) + D/omega."""

    L: np.ndarray
    omega: float
    D_diag: np.ndarray

    def __post_init__(self):
        _check_triangular_diag(self.L)

    @property
    def m(self) -> int:
        return self.L.shape[0]

    def with_omega(self, omega: float) -> "LFactor":
        """The factor at another omega, bit-identical to build_L's: no second A A^T."""
        return _factor(self.L, self.D_diag, omega)

    def gram(self) -> np.ndarray:
        """The symmetric A A^T, rebuilt from the strict lower part and D_diag."""
        S = np.tril(self.L, -1)
        return S + S.T + np.diag(self.D_diag)

    def rows(self, order, G) -> "LFactor":
        """The factor of the stacked system A[order] from G = ``gram()``; rows may repeat."""
        return _factor(G[np.ix_(order, order)], self.D_diag[order], self.omega)

    def solve(self, B, transpose: bool = False) -> np.ndarray:
        """L^-1 B (L^-T B with ``transpose``) for an m-by-k B: one dtrsm on the view L.T."""
        return dtrsm(1.0, self.L.T, B, trans_a=int(not transpose))


@dataclass(frozen=True)
class RestrictedOperator:
    """Dense restriction V^T G V of an iteration operator.

    V is the orthonormal row-space factor of the problem's SVD, so for a
    full-column-rank A the restriction is similar to the operator itself.
    ``restrict_to_V`` restricts the one-sweep G and
    ``restrict_symmetric_to_V`` the down-up double sweep G^T G.
    """

    Gv: np.ndarray
    omega: float


def build_L(A, omega: float) -> LFactor:
    """Assemble the sweep factor for a given relaxation parameter.

    Solver use requires 0 < omega < 2; construction is allowed for any
    omega > 0 so the operator can be analyzed outside the convergent
    range.  L is nonsingular exactly when A has no zero rows.  Raises
    ValueError for an A that is not a finite real matrix and for an omega
    that is not a finite real number > 0.
    """
    A = np.asfortranarray(_as_array(A, "matrix"))  # dgemm reads both operands uncopied
    AAT = dgemm(1.0, A, A, trans_b=1)
    d = np.diag(AAT).copy()
    if np.any(d == 0.0):
        raise ValueError("matrix has a zero row; L would be singular")
    return _factor(AAT, d, omega)


def _factor(G, d: np.ndarray, omega: float) -> LFactor:
    """strict_lower(G) + diag(d) / omega for a G whose strict lower part is A A^T's.

    The diagonal is written into ``tril(G, -1)`` in place, with no m-by-m
    diagonal matrix and no m-by-m add.  The add would turn a -0.0 below
    the diagonal into +0.0, but ``dgemm`` writes no -0.0 into A A^T, so the
    bytes are those of ``tril(G, -1) + diag(d / omega)``.
    """
    omega = _check_real("omega", omega, positive=True)
    L = np.tril(G, -1)
    np.fill_diagonal(L, d / omega)
    return LFactor(L=L, omega=omega, D_diag=d)


class SweepOperator:
    """Sweeps over A x = b applied to n-by-R blocks of iterates at once.

    The down half-sweep (rows 1..m) is X + A^T L^-1 (B - A X) and the up
    half-sweep (rows m..1) is X + A^T L^-T (B - A X), with ``lf.solve`` on
    A's factor ``lf``.  With no data (B = None, i.e. zero) they apply G and
    G^T.  Every product goes through scipy's BLAS wrappers on
    Fortran-ordered arrays, which they read without a copy.  numpy's
    ``@`` would run in numpy's own OpenBLAS, and with both libraries on
    several threads the idle pool's threads spin while the other works.
    The CLI runs desk-small problems on one BLAS thread
    (``experiments.ONE_THREAD_MAX_DIM``).
    """

    def __init__(self, A, lf: LFactor):
        self.A = np.asfortranarray(A, dtype=float)
        self.lf = lf

    def residual(self, X, B=None) -> np.ndarray:
        """B - A X (just -A X when B is None)."""
        if B is None:
            return dgemm(-1.0, self.A, X)
        return dgemm(-1.0, self.A, X, 1.0, B)

    def _half_sweep(self, X, B, transpose: bool) -> np.ndarray:
        Y = self.lf.solve(self.residual(X, B), transpose)
        return dgemm(1.0, self.A, Y, 1.0, X, trans_a=1)

    def down(self, X, B=None) -> np.ndarray:
        """One standard sweep: X + A^T L^-1 (B - A X); G X when B is None."""
        return self._half_sweep(X, B, False)

    def up(self, X, B=None) -> np.ndarray:
        """The reversed sweep: X + A^T L^-T (B - A X); G^T X when B is None."""
        return self._half_sweep(X, B, True)

    def symmetric(self, X, B=None) -> np.ndarray:
        """One symmetric sweep: the down half, then the up half."""
        return self.up(self.down(X, B), B)


def _apply(lf: LFactor, A, x, sweep, what: str = "x") -> np.ndarray:
    """A zero-data ``SweepOperator`` sweep on a vector or on the columns of x.

    ValueError unless A is a finite real matrix, ``lf`` has its m rows and
    x (``what`` in the message) is a finite real n-vector or n-by-R block.
    """
    A = _as_array(A, "matrix")
    _check_factor(lf, A)
    x = _as_array(x, what, rows=A.shape[1], block=True)
    return sweep(SweepOperator(A, lf), x.reshape(x.shape[0], -1)).reshape(x.shape)


def apply_G(lf: LFactor, A, x) -> np.ndarray:
    """Apply G = I - A^T L^-1 A to a vector or to columns of a matrix."""
    return _apply(lf, A, x, SweepOperator.down)


def apply_Gt(lf: LFactor, A, x) -> np.ndarray:
    """Apply the up-sweep operator G^T = I - A^T L^-T A."""
    return _apply(lf, A, x, SweepOperator.up)


def apply_Gs(lf: LFactor, A, x) -> np.ndarray:
    """Apply the symmetric-sweep operator G^T G (down sweep, then up)."""
    return _apply(lf, A, x, SweepOperator.symmetric)


def restrict_to_V(A, lf: LFactor, sv: SvdResult) -> RestrictedOperator:
    """Restriction V^T G V of the one-sweep operator to the row space.

    Assembled blockwise as V^T (V - A^T L^-1 (A V)); one triangular solve
    with r right-hand sides.  ValueError unless ``lf`` and ``sv`` fit A.
    """
    Gv = dgemm(1.0, sv.V, _apply(lf, A, sv.V, SweepOperator.down, "sv.V"), trans_a=1)
    return RestrictedOperator(Gv=Gv, omega=lf.omega)


def restrict_symmetric_to_V(A, lf: LFactor, sv: SvdResult) -> RestrictedOperator:
    """Restriction V^T (G^T G) V, assembled through the two sweeps.

    Deliberately computed by applying the down sweep then the up sweep
    rather than by squaring the restricted one-sweep matrix, so it can
    serve as an independent cross-check of norm/spectral identities.
    ValueError unless ``lf`` and ``sv`` fit A.
    """
    Gv = dgemm(1.0, sv.V, _apply(lf, A, sv.V, SweepOperator.symmetric, "sv.V"), trans_a=1)
    return RestrictedOperator(Gv=Gv, omega=lf.omega)


def _restriction(variant: str):
    """The restriction giving a variant's G|_V (G^T G if symmetric), looked up per call."""
    if variant not in ("standard", "symmetric"):
        raise ValueError(f"unknown variant {variant!r}")
    return restrict_to_V if variant == "standard" else restrict_symmetric_to_V


@dataclass(frozen=True)
class SharpMaps:
    """The noise map of the sweeps on the real eigenbasis of the restricted operator.

    From x0 = 0 with data b the sweeps converge to x = (I - G|_V)^-1 B b,
    where B = A^T L^-1 for the standard sweep (for the symmetric variant,
    G^T G = I - A^T S A and B = A^T S with the SPD weight
    S = (2/omega - 1) L^-T D L^-1).  After k sweeps the iterate is
    (I - G^k) applied to that limit.  The real eigenbasis R0 =
    ``EigResult.R0`` gives G|_V R0 = R0 D, with D diagonal at a real mode
    and the block [[a, b], [-b, a]] at a pair a +- ib (Golub and Van Loan,
    *Matrix Computations*, 7.4), so with W_real = V R0
    (column j is Re w_j and column conj[j] is Im w_j for a pair with
    Im lambda_j > 0, w_j at a real mode)

        x_k = W_real (I - D^k) M b,    M = (I - D)^-1 R0^-1 V^T B,

    and M is the one map through which data noise enters the iterates.
    Any real function f of G|_V acts on these coordinates as f(D), through
    ``_real_f``.  The coordinates of mode j in the complex eigenbasis are
    (c_j - i c_conj[j]) / 2 for a pair with Im lambda_j > 0, their
    conjugate at conj[j], and c_j at a real mode.

    ``lam`` holds the eigenvalues (descending modulus), ``conj[i]`` the
    index of lambda_i's conjugate and ``kappa_W`` the condition number of
    the complex eigenvectors.  ``W_real`` (n-by-r) and ``M`` (r-by-m) are
    real; neither the problem, R0 nor G|_V is held.
    """

    lam: np.ndarray
    W_real: np.ndarray
    M: np.ndarray
    conj: np.ndarray
    kappa_W: float

    @property
    def r(self) -> int:
        return self.lam.size

    def k_sweep(self, k: int, Z) -> np.ndarray:
        """W_real (I - D^k) Z for real coordinates Z on R0 (r-by-R)."""
        return dgemm(1.0, self.W_real, _real_f(1.0 - self.lam ** int(k), self.conj, Z))


def _real_f(f, conj, X) -> np.ndarray:
    """f(D) X for real coordinates X on R0, given f at the eigenvalues.

    Row i is Re f_i X_i + Im f_i X_conj[i], with Im f_i taken as 0 at a
    real mode (conj[i] = i).  That is f(D) X for any f with real
    coefficients (f(conj lambda) = conj f(lambda)); f = lambda gives
    G|_V R0 = R0 D.  This is the one place that reads the pair layout of
    R0.  The result keeps X's memory order, and at most one temporary of
    X's size is alive beside it.
    """
    out = X * f.real[:, None]
    T = X[conj]
    T *= np.where(conj != np.arange(conj.size), f.imag, 0.0)[:, None]
    out += T
    return out


def _weight(lf: LFactor, variant: str, E, transpose: bool = False) -> np.ndarray:
    """B's data-space factor on an m-by-k E: L^-1 E (L^-T E if ``transpose``), or S E."""
    if variant == "standard":
        return lf.solve(E, transpose)
    Y = lf.solve(E)
    Y *= ((2.0 / lf.omega - 1.0) * lf.D_diag)[:, None]
    return lf.solve(Y, transpose=True)


def sharp_maps(A, lf: LFactor, sv: SvdResult, variant: str = "standard") -> SharpMaps:
    """Eigendecompose the restricted operator and form the noise map M.

    The lift V R0 of the real eigenvector basis R0 is one ``dgemm``, and
    Y = R0^-1 V^T one real LU (``dgesv``).  M = (I - D)^-1 Y B is then
    ``_real_f`` of 1 / (1 - lambda) on Y's rows and one product with B^T,
    which takes triangular solves on the n columns of A, not on the m
    columns of the identity.  Y, B^T, R0 and G|_V are dropped before this
    returns (see :class:`SharpMaps`).

    Raises NumericalError("non-convergent mode") when some eigenvalue is
    within 1e-12 of 1, since then I - G is not invertible on the row space
    and the fixed point is undefined, and NumericalError when ``dgesv``
    finds R0 singular.
    """
    restrict = _restriction(variant)
    A = _as_array(A, "matrix")
    eig = eig_general(restrict(A, lf, sv).Gv)
    lam = eig.eigenvalues
    if np.min(np.abs(1.0 - lam)) < 1e-12:
        raise NumericalError("non-convergent mode: eigenvalue at 1")
    _, _, Y, info = dgesv(eig.R0, sv.V.T)
    if info != 0:
        raise NumericalError(f"eigenbasis LU failed: dgesv info = {info}")
    W_real = dgemm(1.0, sv.V.T, eig.R0, trans_a=1)
    conj, kappa_W = eig.conj, eig.kappa
    del eig  # R0 is not held while M is formed
    Y = _real_f(1.0 / (1.0 - lam), conj, Y)  # R0^-1 V^T is not held while B^T is formed
    M = dgemm(1.0, Y, _weight(lf, variant, A, transpose=True), trans_b=1)
    return SharpMaps(lam=lam, W_real=W_real, M=M, conj=conj, kappa_W=kappa_W)


def apply_Ak_sharp(sm: SharpMaps, e, k: int) -> np.ndarray:
    """Map data e to the k-sweep iterate (I - G^k) applied to the limit.

    Evaluated on the real eigenbasis as W_real (I - D^k) M e, on a vector
    or on the columns of a block e: the coefficients M e, lifted by
    :meth:`SharpMaps.k_sweep`, the routine of ``expected_norms``.  k = 0
    yields the zero vector and k -> infinity approaches the fixed point,
    which :func:`fixed_point` takes from an LU of I - G|_V instead.
    Raises ValueError for a negative or fractional k, and unless e is a
    finite real m-vector or m-by-R block.
    """
    k = int(_check_ks([k])[0])
    e = _as_array(e, "e", rows=sm.M.shape[1], block=True)
    x = sm.k_sweep(k, dgemm(1.0, sm.M, e.reshape(e.shape[0], -1)))
    return x.reshape(x.shape[:1] + e.shape[1:])


def fixed_point(p: TestProblem, b, omega: float = 1.0, variant: str = "standard") -> np.ndarray:
    """Limit of the sweep iteration from x0 = 0 with data b.

    For consistent (noise-free) b this is the unique least-norm solution
    of A x = b, independent of omega.  For noisy b it is the limit
    (I - G|_V)^-1 B b that the k-sweep maps approach (see
    :class:`SharpMaps`; with ``variant="symmetric"`` G|_V is the
    restriction of G^T G and B = A^T S).  This is the library's
    reference route for that limit, independent of the eigenbasis: one
    LU solve with I - G|_V on the row space of ``svd(p.A)`` at its default
    rank cut, with no eigendecomposition.  Raises ValueError unless b is
    a finite real m-vector or m-by-R block, and for an unknown variant,
    and NumericalError when I - G|_V is singular to working precision
    (LAPACK's rcond estimate below eps, see ``_lapack.solve``).
    """
    restrict = _restriction(variant)
    A = _as_array(p.A, "matrix")
    b = _as_array(b, "b", rows=p.m, block=True)
    lf, sv = build_L(A, omega), svd(A)
    y = dgemm(1.0, A.T, _weight(lf, variant, b.reshape(b.shape[0], -1)))
    y = y.reshape(y.shape[:1] + b.shape[1:])
    V = sv.V
    Gv = restrict(A, lf, sv).Gv
    coeff = _lapack.solve(np.eye(sv.rank) - Gv, V.T @ y)
    return V @ coeff


def convergence_conditions(A, omega: float) -> dict:
    """Evaluate five equivalent spectral convergence conditions.

    Each entry states, in a different algebraic form, that the sweep
    iteration contracts on the relevant invariant subspace:

    a. rho((A^T L^-1 A - I)|_V) < 1       (row space V = range(A^T))
    b. rho((L^-1 A A^T - I)|_U) < 1       (column space U = range(A))
    c. rho((A A^T L^-1 - I)|_{L U}) < 1
    d. generalized pencil (A A^T - L, L) restricted to U has radius < 1
    e. pencil (A A^T, L) restricted to U has spectrum in the open disk
       of center 1 and radius 1.

    The pencil eigenvalues for (d) and (e) are computed as eigenvalues of
    the restriction of L^-1 A A^T to U.  V is ``svd(A)``'s row-space
    factor at its default rank cut, and the orthonormal basis of
    U = range(A) = range(A V) is the Q of a QR factorization of A V; the
    mathematical statements are basis-independent.  Returns the five
    booleans plus the computed radii and pencil spectrum.
    """
    A = _as_array(A, "matrix")
    sv = svd(A)
    lf = build_L(A, omega)
    V = sv.V
    U = _lapack.qr_q(A @ V)
    AAT = lf.gram()
    I_r = np.eye(sv.rank)

    rho_a = np.max(np.abs(eigvals(V.T @ (A.T @ lf.solve(A @ V)) - I_r)))
    MU = lf.solve(AAT @ U)
    rho_b = np.max(np.abs(eigvals(U.T @ MU - I_r)))
    Q = _lapack.qr_q(lf.L @ U)
    rho_c = np.max(np.abs(eigvals(Q.T @ (AAT @ lf.solve(Q)) - I_r)))
    pencil = eigvals(U.T @ MU)
    rho_d = np.max(np.abs(pencil - 1.0))

    return {
        "a": bool(rho_a < 1.0),
        "b": bool(rho_b < 1.0),
        "c": bool(rho_c < 1.0),
        "d": bool(rho_d < 1.0),
        "e": bool(np.all(np.abs(pencil - 1.0) < 1.0)),
        "rho_a": float(rho_a),
        "rho_b": float(rho_b),
        "rho_c": float(rho_c),
        "rho_d": float(rho_d),
        "pencil_eigenvalues": pencil,
    }
