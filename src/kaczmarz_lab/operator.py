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

:class:`SharpMaps` holds the eigendecomposition of G|_V in real
arithmetic, as ``eig_general`` returns it: the eigenvalues are the only
complex array.  The coefficient map (I - Lambda)^-1 W^+ has one route,
``SharpMaps.coefficients``, and the lift W (I - Lambda^k) one,
``SharpMaps.k_sweep``; ``apply_Ak_sharp`` and the noise statistics call
both, on one mode of each conjugate pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemm, dtrsm
from scipy.linalg.lapack import dgesv

from .errors import NumericalError
from .linalg import (
    SvdResult,
    _as_array,
    _check_ks,
    _check_real,
    _check_triangular_diag,
    eig_general,
    eigvals,
    svd,
)
from .problems import TestProblem

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
    G is the one-sweep operator, or the down-up double sweep G^T G.
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
    A = _as_array(A, "matrix")
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


def _apply(lf: LFactor, A, x, sweep) -> np.ndarray:
    """A zero-data ``SweepOperator`` sweep on a vector or on the columns of x.

    ValueError unless A is a finite real matrix and x a finite real
    n-vector or n-by-R block.
    """
    A = _as_array(A, "matrix")
    x = _as_array(x, "x", rows=A.shape[1], block=True)
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
    with r right-hand sides.
    """
    Gv = dgemm(1.0, sv.V, apply_G(lf, A, sv.V), trans_a=1)
    return RestrictedOperator(Gv=Gv, omega=lf.omega)


def restrict_symmetric_to_V(A, lf: LFactor, sv: SvdResult) -> RestrictedOperator:
    """Restriction V^T (G^T G) V, assembled through the two sweeps.

    Deliberately computed by applying the down sweep then the up sweep
    rather than by squaring the restricted one-sweep matrix, so it can
    serve as an independent cross-check of norm/spectral identities.
    """
    Gv = dgemm(1.0, sv.V, apply_Gs(lf, A, sv.V), trans_a=1)
    return RestrictedOperator(Gv=Gv, omega=lf.omega)


def _restriction(variant: str):
    """The restriction giving a variant's G|_V (G^T G if symmetric), looked up per call."""
    if variant not in ("standard", "symmetric"):
        raise ValueError(f"unknown variant {variant!r}")
    return restrict_to_V if variant == "standard" else restrict_symmetric_to_V


@dataclass(frozen=True)
class SharpMaps:
    """Spectral machinery for the fixed-point map and its k-sweep truncation.

    The fixed point of the sweep iteration is x = (M|_V)^-1 B b where
    M = A^T L^-1 A and B = A^T L^-1 for the standard sweep (for the
    symmetric variant, M = A^T S A and B = A^T S with the SPD weight
    S = (2/omega - 1) L^-T D L^-1).  After k sweeps from x0 = 0 the
    iterate is (I - G^k) applied to the fixed point.  In the eigenbasis
    W = V C of the restricted operator, with W^+ = C^-1 V^T, the relation
    I - G|_V = C (I - Lambda) C^-1 turns this into

        x_k = W (I - Lambda^k) (I - Lambda)^-1 W^+ B b.

    ``lam`` holds the eigenvalues (descending modulus) and ``kappa_W`` the
    condition number of C.  The eigenbasis is kept real, as the two arrays
    that its routes read: ``W_real`` = V R0, the lift of the real basis
    R0 = ``EigResult.R0``, and ``Y`` = R0^-1 V^T; ``conj[i]`` is the index
    of lambda_i's conjugate.  Neither R0 nor G|_V is held (the LU route
    :meth:`apply_A_sharp` rebuilds G|_V).  For a pair (j, j') with
    Im lambda_j > 0, columns j and j' of ``W_real`` are Re w_j and Im w_j,
    and rows j and j' of W^+ are (Y_j -+ i Y_j') / 2; a real mode has
    column w_j and row Y_j.  A pair's two modes are conjugates, so
    :meth:`coefficients` (W^+) and :meth:`k_sweep` (W) work on one mode
    of each pair, the modes ``keep``, and no complex basis is formed.
    """

    A: np.ndarray
    lf: LFactor
    sv: SvdResult
    variant: str
    lam: np.ndarray
    W_real: np.ndarray
    Y: np.ndarray
    conj: np.ndarray
    kappa_W: float

    @property
    def r(self) -> int:
        return self.lam.size

    @property
    def keep(self) -> np.ndarray:
        """The modes with Im lambda >= 0: every real mode and one of each pair."""
        return np.flatnonzero(self.lam.imag >= 0)

    def coefficients(self, X) -> tuple[np.ndarray, np.ndarray]:
        """Real and imaginary parts of (I - Lambda)^-1 W^+ X on the modes ``keep``.

        X is n-by-k.  Row j of W^+ is (Y_j - i Y_j') / 2 for a pair (j, j')
        and Y_j for a real mode; it is divided by d = 1 - lambda_j as
        x conj(d) / |d|^2, in real arithmetic, before the two real products
        with X.  The products read X through its transpose, so a C-ordered
        X, such as ``b_transpose().T``, is not copied.
        """
        keep = self.keep
        lam = self.lam[keep]
        pair = lam.imag > 0
        d = 1.0 - lam
        h = np.where(pair, 0.5, 1.0) / (d.real**2 + d.imag**2)
        a, b = (h * d.real)[:, None], (h * d.imag)[:, None]
        P, Q = self.Y[keep], self.Y[self.conj[keep]]  # Q_j = Y_j at a real mode
        re = P * a
        re -= Q * b  # b = 0 at a real mode
        P *= -b
        Q *= -a
        P += Q
        del Q
        P[~pair] = 0.0  # a real mode has no imaginary part: exactly +0
        Xt = np.asarray(X).T
        Z_r = dgemm(1.0, re.T, Xt, trans_a=1, trans_b=1)
        del re  # not held while the second product is formed
        return Z_r, dgemm(1.0, P.T, Xt, trans_a=1, trans_b=1)

    def k_sweep(self, k: int, Z_r, Z_i) -> np.ndarray:
        """Re(W (I - Lambda^k) Z) for Z = Z_r + i Z_i given on the modes ``keep``.

        Z is r_keep-by-R.  With c = (1 - lambda_j^k) z_j, a pair's two terms
        w_j c + conj(w_j c) sum to 2 Re(w_j c), so the real coordinates on
        ``R0`` are 2 Re c at column j and -2 Im c at column j' (Re c at a
        real mode's), and one real product with ``W_real`` lifts them.
        """
        keep = self.keep
        lam = self.lam[keep]
        pair = lam.imag > 0
        phi = np.where(pair, 2.0, 1.0) * (1.0 - lam ** int(k))
        p_r, p_i = phi.real[:, None], phi.imag[:, None]
        T = np.empty((self.r, Z_r.shape[1]), order="F")
        T[keep] = p_r * Z_r - p_i * Z_i
        T[self.conj[keep[pair]]] = -(p_r * Z_i + p_i * Z_r)[pair]
        return dgemm(1.0, self.W_real, T)

    def _weight(self, E, transpose: bool = False) -> np.ndarray:
        """B's data-space factor on an m-by-k E: L^-1 E (L^-T E if ``transpose``), or S E."""
        if self.variant == "standard":
            return self.lf.solve(E, transpose)
        Y = self.lf.solve(E)
        Y *= ((2.0 / self.lf.omega - 1.0) * self.lf.D_diag)[:, None]
        return self.lf.solve(Y, transpose=True)

    def apply_B(self, e) -> np.ndarray:
        """Apply B (= A^T L^-1 for the standard sweep) to data-space vectors.

        Every map of data goes through here, so this is where a bad e is
        rejected: ValueError unless it is a finite real m-vector or m-by-R
        block.
        """
        e = _as_array(e, "e", rows=self.lf.m, block=True)
        y = dgemm(1.0, self.A.T, self._weight(e.reshape(e.shape[0], -1)))
        return y.reshape(y.shape[:1] + e.shape[1:])

    def apply_A_sharp(self, e) -> np.ndarray:
        """Fixed-point map: least-norm limit of the sweeps on data e.

        Solved with an LU of I - G|_V, independently of the eigenbasis.
        G|_V is not kept: each call rebuilds it as ``sharp_maps`` built it.
        """
        y = self.apply_B(e)
        V = self.sv.V
        Gv = _restriction(self.variant)(self.A, self.lf, self.sv).Gv
        coeff = np.linalg.solve(np.eye(self.r) - Gv, V.T @ y)
        return V @ coeff

    def b_transpose(self) -> np.ndarray:
        """B^T as an m-by-n matrix: L^-T A, or S A for the symmetric sweep.

        Triangular solves on the n columns of A, not on the m columns of
        the identity.
        """
        return self._weight(self.A, transpose=True)


def sharp_maps(A, lf: LFactor, sv: SvdResult, variant: str = "standard") -> SharpMaps:
    """Eigendecompose the restricted operator and package the sharp maps.

    Everything stored but the eigenvalues is real (see :class:`SharpMaps`):
    the lift V R0 of the real eigenvector basis R0 in one ``dgemm``, and
    Y = R0^-1 V^T from one real LU (``dgesv``).  R0 and G|_V are not kept.
    The eigenvectors are C = R0 P, where P mixes each conjugate pair's
    columns by [[1, 1], [i, -i]], so W^+ = C^-1 V^T = P^-1 Y, whose rows
    ``SharpMaps.coefficients`` reads from Y's.

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
    R0 = eig.R0
    _, _, Y, info = dgesv(R0, sv.V.T)
    if info != 0:
        raise NumericalError(f"eigenbasis LU failed: dgesv info = {info}")
    return SharpMaps(
        A=A,
        lf=lf,
        sv=sv,
        variant=variant,
        lam=lam,
        W_real=dgemm(1.0, sv.V.T, R0, trans_a=1),
        Y=Y,
        conj=eig.conj,
        kappa_W=eig.kappa,
    )


def apply_Ak_sharp(sm: SharpMaps, e, k: int) -> np.ndarray:
    """Map data e to the k-sweep iterate (I - G^k) applied to the limit.

    Evaluated in the eigenbasis as W (I - Lambda^k) (I - Lambda)^-1 W^+ B e,
    through the real routines of ``expected_norms`` and ``xi_profile``
    (:meth:`SharpMaps.coefficients`, :meth:`SharpMaps.k_sweep`), on a
    vector or on the columns of a block e.  k = 0 yields the zero vector
    and k -> infinity approaches the fixed point, which
    :meth:`SharpMaps.apply_A_sharp` takes from an LU of I - G|_V instead.
    Raises ValueError for a negative or fractional k and for an e that
    :meth:`SharpMaps.apply_B` rejects.
    """
    k = int(_check_ks([k])[0])
    y = sm.apply_B(e)
    Z_r, Z_i = sm.coefficients(y.reshape(y.shape[0], -1))
    return sm.k_sweep(k, Z_r, Z_i).reshape(y.shape)


def fixed_point(p: TestProblem, b, omega: float = 1.0, sm: SharpMaps | None = None) -> np.ndarray:
    """Limit of the sweep iteration from x0 = 0 with data b.

    For consistent (noise-free) b this is the unique least-norm solution
    of A x = b, independent of omega.  For noisy b the same spectral
    formula is evaluated; that limit is reported in outputs under the
    label ``kaczmarz_limit``.  Without ``sm`` the maps are built from
    ``svd(p.A)`` at its default rank cut.  Raises ValueError unless b is
    a finite real m-vector or m-by-R block.
    """
    b = _as_array(b, "b", rows=p.m, block=True)
    if sm is None:
        sm = sharp_maps(p.A, build_L(p.A, omega), svd(p.A))
    return sm.apply_A_sharp(b)


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
    the restriction of L^-1 A A^T to U, using the SVD's U factor as the
    orthonormal basis, from ``svd(A)`` at its default rank cut; the
    mathematical statements are basis-independent.  Returns the five
    booleans plus the computed radii and pencil spectrum.
    """
    A = _as_array(A, "matrix")
    sv = svd(A)
    lf = build_L(A, omega)
    V, U = sv.V, sv.U
    AAT = lf.gram()
    I_r = np.eye(sv.rank)

    rho_a = np.max(np.abs(eigvals(V.T @ (A.T @ lf.solve(A @ V)) - I_r)))
    MU = lf.solve(AAT @ U)
    rho_b = np.max(np.abs(eigvals(U.T @ MU - I_r)))
    Q, _ = np.linalg.qr(lf.L @ U)
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
